//! Multi-GPU PageRank (Algorithm 3), as a delta-push power iteration.
//!
//! * **Vertex duplication:** either works; like the paper we use
//!   duplicate-all "to better trace the program".
//! * **State:** two arrays over the local space. `ranks` holds the rank each
//!   vertex has already spread (`s`); for an owned vertex `accum` holds the
//!   rank change it has not spread yet (`A`), so its rank is `s + A`. A
//!   proxy's `accum` is the mass bound for its owner.
//! * **Computation:** one compute pass over the owned vertices applies and
//!   selects — a vertex is *active* when it has out-edges and its change is
//!   one its own f32 rank can still resolve (`|A| > ε·(s + A)`) — then one
//!   draining advance pushes `d·A/deg` of every active vertex along its
//!   out-edges. Superstep 1 also folds the teleport term `(1−d)/n − 1/n`
//!   into every `A`. In exact arithmetic, with every vertex active, superstep
//!   `k` sees exactly the `k`-th power iterate; a change too small to select
//!   stays in `A` and is spread once later changes make it visible, so
//!   nothing is dropped. `W ∈ O(|E_active|)` per superstep.
//! * **Communication:** selective. Only the border proxies whose accumulated
//!   mass is non-zero after the advance go to their hosts, and only those
//!   are cleared — the changed border, not the paper's fixed remote
//!   sub-frontier. `H ∈ O(|B_i|)` per superstep at most.
//! * **Combination:** atomicAdd of received mass into the owner's `A`.
//! * **Convergence:** the run ends after superstep `max_iters` (which
//!   applies the change and sends nothing), after the first superstep past
//!   the teleport fold in which no device spread anything (every later
//!   superstep would be the same no-op), or when the residual `Σ|A|` falls
//!   below [`Pagerank::threshold`].

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::sync::{Contribution, GlobalReduce};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

/// Multi-GPU PageRank.
#[derive(Debug, Clone, Copy)]
pub struct Pagerank {
    /// Damping factor (0.85 is customary).
    pub damping: f64,
    /// Stop once the residual — `Σ|A|`, the rank change held by the owned
    /// vertices when a superstep's apply pass reads it — falls below this.
    /// Set to 0.0 to run until nothing changes or to `max_iters`.
    pub threshold: f64,
    /// Maximum number of rank-update iterations.
    pub max_iters: usize,
}

impl Default for Pagerank {
    fn default() -> Self {
        Pagerank { damping: 0.85, threshold: 0.0, max_iters: 30 }
    }
}

/// Per-GPU PageRank state. Read ranks through [`gather_ranks`] or the
/// harvest: a rank is `ranks + accum`, never one array alone.
#[derive(Debug)]
pub struct PrState {
    /// Rank already spread (`s`) for owned vertices (0 at proxies).
    ranks: DeviceArray<f32>,
    /// Unspread rank change (`A`) of owned vertices; mass bound for the
    /// owner at proxies.
    accum: DeviceArray<f32>,
    /// Owned vertices.
    owned: Vec<usize>,
    /// `is_owned[v]`: received mass lands only here, so a broadcast copy of
    /// another device's proxy never becomes mass this device sends on.
    is_owned: Vec<bool>,
    /// Border vertices: proxies with local in-edges.
    border: Vec<usize>,
    /// The border proxies sent last superstep, cleared by the next apply.
    sent: Vec<usize>,
    /// The vertices this superstep spreads (scratch, reused).
    active: Vec<usize>,
    /// Residual `Σ|A|` read by the last apply pass.
    residual: f64,
    /// `|V|`: under duplicate-all the local space is the global one.
    n_global: usize,
    /// Host scratch for the parallel accumulation advance: per-chunk dense
    /// rank partials, merged deterministically in chunk order (f32 addition
    /// is not associative, so the merge order is fixed by the chunk plan,
    /// never by the thread schedule). Reused across iterations.
    partial_scratch: Vec<f32>,
}

impl<V: Id, O: Id> MgpuProblem<V, O> for Pagerank {
    type State = PrState;
    type Msg = f32;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        // "we use fixed preallocation for CC and PR, as their memory
        // requirements can be determined before running" (§VI-B)
        AllocScheme::Fixed { sizing_factor: 1.0 }
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        assert_eq!(
            sub.duplication,
            Duplication::All,
            "this primitive's local ids must equal global ids (duplicate-all)"
        );
        let n = sub.n_vertices();
        let ranks = dev.alloc(n)?;
        let accum = dev.alloc(n)?;
        // One pass over local edges discovers the border.
        let (owned, is_owned, border) = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            let is_owned: Vec<bool> = (0..n).map(|v| sub.is_owned(V::from_usize(v))).collect();
            let owned: Vec<usize> = (0..n).filter(|&v| is_owned[v]).collect();
            let mut is_border = vec![false; n];
            for &v in &owned {
                for &d in sub.csr.neighbors(V::from_usize(v)) {
                    if !is_owned[d.idx()] {
                        is_border[d.idx()] = true;
                    }
                }
            }
            let border: Vec<usize> = (0..n).filter(|&v| is_border[v]).collect();
            ((owned, is_owned, border), (n + sub.n_edges()) as u64)
        })?;
        Ok(PrState {
            ranks,
            accum,
            owned,
            is_owned,
            border,
            sent: Vec::new(),
            active: Vec::new(),
            residual: f64::INFINITY,
            n_global: n,
            partial_scratch: Vec::new(),
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        _sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _src: Option<V>,
    ) -> Result<Vec<V>> {
        // Nothing spread yet: the whole uniform start is each owned vertex's
        // unspread change.
        let init_rank = 1.0f32 / state.n_global as f32;
        let PrState { ranks, accum, owned, .. } = state;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            ranks.as_mut_slice().fill(0.0);
            accum.as_mut_slice().fill(0.0);
            for &v in owned.iter() {
                accum[v] = init_rank;
            }
            let n = ranks.len();
            ((), 2 * n as u64)
        })?;
        state.sent.clear();
        state.active.clear();
        state.residual = f64::INFINITY;
        Ok(state.owned.iter().map(|&v| V::from_usize(v)).collect())
    }

    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        bufs: &mut FrontierBufs<V>,
        _input: &[V],
        iter: usize,
    ) -> Result<Vec<V>> {
        let n = state.n_global as f64;
        // the teleport term replaces the uniform start once
        let teleport = if iter == 1 { ((1.0 - self.damping) / n - 1.0 / n) as f32 } else { 0.0 };
        let last = iter >= self.max_iters;
        // Apply and select in one pass: clear what was sent, fold, then move
        // each resolvable change into `s`. A vertex without out-edges applies
        // its change too; it has nowhere to spread it.
        let PrState { ranks, accum, owned, sent, active, .. } = state;
        state.residual = ops::compute(dev, (owned.len() + sent.len()) as u64, || {
            for &v in sent.iter() {
                accum[v] = 0.0;
            }
            sent.clear();
            active.clear();
            let mut residual = 0.0f64;
            for &v in owned.iter() {
                let a = accum[v] + teleport;
                residual += a.abs() as f64;
                if sub.csr.degree(V::from_usize(v)) == 0 {
                    ranks[v] += a;
                    accum[v] = 0.0;
                } else {
                    accum[v] = a;
                    if !last && a.abs() > f32::EPSILON * (ranks[v] + a) {
                        ranks[v] += a;
                        active.push(v);
                    }
                }
            }
            residual
        })?;
        if state.active.is_empty() {
            return Ok(Vec::new());
        }
        // Advance: drain the active changes along local out-edges. The
        // operator owns the += — chunks write disjoint dense partials and
        // the merge happens in chunk order, so the resulting f32 bits are
        // identical at every thread count.
        let damping = self.damping as f32;
        let frontier: Vec<V> = state.active.iter().map(|&v| V::from_usize(v)).collect();
        let PrState { accum, partial_scratch, .. } = state;
        ops::advance_accumulate(
            dev,
            sub,
            bufs,
            &frontier,
            accum.as_mut_slice(),
            partial_scratch,
            |s, a| damping * a / sub.csr.degree(s) as f32,
        )?;
        // Send: the border proxies the advance left holding mass.
        let border: Vec<V> = state.border.iter().map(|&v| V::from_usize(v)).collect();
        let accum = &state.accum;
        let out = ops::filter(dev, &border, |v| accum[v.idx()] != 0.0)?;
        state.sent.extend(out.iter().map(|v| v.idx()));
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> f32 {
        state.accum[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &f32) -> bool {
        if state.is_owned[v.idx()] {
            state.accum[v.idx()] += *msg; // the paper's atomicAdd
        }
        false
    }

    fn locally_done(&self, _state: &Self::State, _next_input: &[V]) -> bool {
        false // PR stops via the global reduction, not empty frontiers
    }

    fn contribution(&self, state: &Self::State, _next_input: &[V]) -> Contribution {
        Contribution {
            f64_add: state.residual,
            u64_add: state.active.len() as u64,
            ..Contribution::default()
        }
    }

    fn globally_done(&self, reduce: &GlobalReduce, iter: usize) -> bool {
        // `iter` supersteps have run; the teleport is folded in superstep 1.
        // Superstep 0 spreads the start, 1..=max_iters apply (+ spread).
        (iter >= 2 && (reduce.u64_sum == 0 || reduce.f64_sum < self.threshold))
            || iter > self.max_iters
    }

    /// PR has no checkpoint encoding (cross-superstep scalar state); the
    /// harvest word is the bit pattern of the rank `s + A`.
    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        rank(state, v.idx()).to_bits() as u64
    }
}

/// The rank of owned local vertex `v`: what it spread plus what it holds.
fn rank(state: &PrState, v: usize) -> f32 {
    state.ranks[v] + state.accum[v]
}

/// Gather final ranks from a finished runner into global vertex order.
pub fn gather_ranks<V: Id, O: Id>(
    runner: &Runner<'_, V, O, Pagerank>,
    dist: &DistGraph<V, O>,
) -> Vec<f32> {
    crate::bfs::gather(dist, |gpu, local| rank(runner.state(gpu), local.idx()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::EnactConfig;
    use mgpu_gen::{gnm, preferential_attachment, Dataset};
    use mgpu_graph::{Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run_with(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        pr: Pagerank,
        config: EnactConfig,
    ) -> (Vec<f32>, mgpu_core::EnactReport) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, pr, config).unwrap();
        let report = runner.enact(None).unwrap();
        (gather_ranks(&runner, &dist), report)
    }

    fn run_pr(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        pr: Pagerank,
    ) -> (Vec<f32>, mgpu_core::EnactReport) {
        run_with(g, n_gpus, pr, EnactConfig::default())
    }

    fn assert_close(ours: &[f32], reference: &[f64], tol: f64) {
        for (i, (&a, &b)) in ours.iter().zip(reference).enumerate() {
            assert!(
                (a as f64 - b).abs() <= tol * b.abs().max(1e-12),
                "vertex {i}: ours {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn matches_power_iteration_across_gpu_counts() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(100, 600, 21));
        let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 20 };
        let reference = crate::reference::pagerank(&g, 0.85, 20);
        for n in [1, 2, 3, 4, 8] {
            for comm in [CommStrategy::Selective, CommStrategy::Broadcast] {
                let config = EnactConfig { comm: Some(comm), ..EnactConfig::default() };
                let (ranks, report) = run_with(&g, n, pr, config);
                assert_close(&ranks, &reference, 1e-3);
                assert!(report.iterations <= 21, "{n} GPUs {comm:?}: {}", report.iterations);
            }
        }
    }

    #[test]
    fn rank_sum_is_conserved_without_dangling_vertices() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(200, 4, 3));
        let (ranks, _) = run_pr(&g, 2, Pagerank { max_iters: 15, ..Default::default() });
        let sum: f64 = ranks.iter().map(|&r| r as f64).sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
    }

    #[test]
    fn threshold_stops_early() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(50, 300, 5));
        let loose = Pagerank { damping: 0.85, threshold: 1e-2, max_iters: 100 };
        let (_, report) = run_pr(&g, 2, loose);
        assert!(report.iterations < 50, "threshold should stop early, ran {}", report.iterations);
    }

    #[test]
    fn communication_volume_is_border_bound_per_iteration() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(100, 500, 8));
        let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 10 };
        let (_, report) = run_pr(&g, 2, pr);
        let iters = report.iterations as u64;
        // each iteration each GPU sends at most its border (≤ |V|) vertices
        assert!(report.totals.h_vertices <= iters * 2 * 100);
        assert!(report.totals.h_vertices > 0);
    }

    #[test]
    fn isolated_vertices_keep_base_rank() {
        let mut coo = gnm(40, 150, 2);
        coo.n_vertices = 44; // 4 isolated vertices appended
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (ranks, _) = run_pr(&g, 2, Pagerank { max_iters: 10, ..Default::default() });
        let base = (1.0 - 0.85) / 44.0;
        for &r in &ranks[40..44] {
            assert!((r as f64 - base).abs() < 1e-6);
        }
        assert_close(&ranks, &crate::reference::pagerank(&g, 0.85, 10), 1e-3);
    }

    /// Superstep 0 spreads the uniform start and superstep `max_iters` only
    /// applies, so a cap of 0 or 1 is exactly that many power iterations.
    #[test]
    fn max_iters_zero_and_one_are_that_many_power_iterations() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(60, 240, 9));
        for k in [0, 1] {
            let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: k };
            let (ranks, report) = run_pr(&g, 3, pr);
            assert_close(&ranks, &crate::reference::pagerank(&g, 0.85, k), 1e-5);
            assert_eq!(report.iterations, k + 1, "max_iters {k}");
        }
    }

    /// Nothing ever spreads on an edgeless graph, but the run must not stop
    /// before superstep 1 folds in the teleport term.
    #[test]
    fn an_edgeless_graph_gets_the_teleport_before_it_stops() {
        let g: Csr<u32, u64> = Csr::empty(10);
        let (ranks, report) = run_pr(&g, 3, Pagerank { max_iters: 20, ..Default::default() });
        assert_eq!(report.iterations, 2, "superstep 0, then the fold, then nothing moves");
        assert_eq!(report.totals.h_vertices, 0);
        for &r in &ranks {
            assert!((r as f64 - 0.15 / 10.0).abs() < 1e-7, "rank {r}");
        }
    }

    /// Both sides of the work a power-law graph costs: the first two
    /// supersteps spread every vertex (the start, then the teleport fold), so
    /// the advances read at least 2 |E|; after that only the vertices whose
    /// change their f32 rank still resolves spread, so they stay well below
    /// the 20 |E| of 20 power iterations (9.65 |E| here), and the frontier
    /// drains before the cap.
    #[test]
    fn advance_work_follows_the_change_on_a_power_law_graph() {
        let coo = Dataset::by_name("soc-orkut").unwrap().generate(10, 42);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 20 };
        let config = EnactConfig { tracing: true, ..EnactConfig::default() };
        let (ranks, report) = run_with(&g, 2, pr, config);
        assert_close(&ranks, &crate::reference::pagerank(&g, 0.85, 20), 1e-3);
        assert!(report.iterations < 21, "the frontier must drain before the cap");
        let trace = report.trace.as_ref().expect("tracing was on");
        let advanced: u64 = trace
            .per_device
            .iter()
            .flatten()
            .filter(|e| e.name == "advance")
            .map(|e| e.items)
            .sum();
        let e = g.n_edges() as u64;
        assert!(advanced >= 2 * e, "advance read {advanced} edges of {e}");
        assert!(advanced < 12 * e, "advance read {:.2} |E|", advanced as f64 / e as f64);
    }
}
