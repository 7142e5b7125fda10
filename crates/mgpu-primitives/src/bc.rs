//! Multi-GPU betweenness centrality (Brandes, single source per enact).
//!
//! BC is the one primitive whose phases want *different* communication
//! strategies, which is what Table I's `H ∈ O(5|B_i| + 2(n−1)|L_i|)`
//! encodes:
//!
//! * **Forward sweep** — a BFS that also counts shortest paths: selective
//!   communication of `(label, σ)` pairs (the `5|B_i|` term — label +
//!   path-count values over the border).
//! * **σ-synchronization** — one superstep in which every GPU broadcasts the
//!   authoritative `(label, σ)` of its owned vertices so every proxy is
//!   correct before the backward sweep (part of the `2(n−1)|L_i|` term).
//! * **Backward sweep** — dependency accumulation by descending depth;
//!   each depth's `δ` values are broadcast so remote parents can read the
//!   successors they need (the rest of the `2(n−1)|L_i|` term).
//!
//! ## Each level reads the cheaper side of its edges
//!
//! Both sweeps relate two adjacent levels, and either level can drive the
//! step: the parents push along their out-edges (CSR), or the other level
//! reads its in-edges (the CSC, which BC therefore requires, as DOBFS
//! does). A device picks, per superstep, the side that reads less — exact
//! counts of local edges, no threshold:
//!
//! * **Forward.** *Push* advances the owned frontier's out-edges. *Pull*
//!   has every locally unlabelled vertex sum σ over its whole in-row from
//!   parents at the current depth (no early exit: σ needs every parent).
//!   Its candidate list is built by the first pull superstep's |V| scan and
//!   shrunk by each later one, so the pull side's count is that scan plus
//!   the in-edges of the vertices still unlabelled here (a running total);
//!   a thin last level never pays |V| to save a few edges. The rule is
//!   [`PullSide`], which MS-BFS shares. Both sides emit the same
//!   `(vertex, depth, σ-partial)` set, so labels, messages and `H` do not
//!   depend on the choice, and σ — an integer sum — is bit-identical below
//!   2²⁴.
//! * **Backward.** *Gather* scans the owned depth-`d` out-edges for
//!   successors at `d + 1`, as Brandes does. *Scatter* has every vertex at
//!   `d + 1` walk its in-row and add `σ_v/σ_w·(1+δ_w)` into each local
//!   parent `v` at depth `d`. After σ-synchronization every device holds
//!   authoritative labels and σ, and each `δ_w` arrived with the previous
//!   level's broadcast, so the first backward superstep buckets every
//!   vertex by depth in one |V| pass, which also yields both sides' exact
//!   edge counts per level. Children are walked in ascending id order, the
//!   order of a sorted CSR row, so on sorted graphs the scattered `δ` sums
//!   are bit-identical to the gathered ones.
//!
//! The sweep skips what nobody reads: the deepest level has no successors
//! (its δ is 0), so the backward sweep starts one level above it, and the
//! δ of depth 1 is not broadcast (its only parent is the source, which
//! accumulates nothing). The run ends with the last backward level.
//!
//! Phase transitions are driven by the shared superstep reduction
//! ([`MgpuProblem::after_superstep`]), so every GPU switches phase — and
//! therefore communication strategy — in the same superstep.
//!
//! ## Many sources
//!
//! Multi-source BC enacts `Bc` once per source on one bound runner (`mgpu
//! run --primitive bc --sources`), so every source keeps the cheaper side
//! of every level; the scores sum per vertex in source order.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::direction::PullSide;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_graph::{Csr, Id};
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::sync::GlobalReduce;
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::INF;

/// Multi-GPU single-source betweenness centrality.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bc;

/// Phase of the BC state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcPhase {
    /// BFS + path counting (selective comm).
    Forward,
    /// One-superstep broadcast of authoritative (label, σ).
    SyncSigma,
    /// Dependency accumulation by descending depth (broadcast comm).
    Backward,
    /// Finished.
    Done,
}

/// Per-GPU BC state.
#[derive(Debug)]
pub struct BcState<V: Id> {
    /// BFS depth labels over the duplicate-all space.
    pub labels: DeviceArray<u32>,
    /// Shortest-path counts σ.
    pub sigma: DeviceArray<f32>,
    /// Dependency values δ.
    pub delta: DeviceArray<f32>,
    /// Accumulated centrality for owned vertices.
    pub bc: DeviceArray<f32>,
    /// Current phase.
    pub phase: BcPhase,
    /// The forward sweep's push-or-pull rule; a vertex closes when it is
    /// labelled, and `pull.pull_levels` counts the forward supersteps this
    /// device pulled (read the unlabelled side).
    pub pull: PullSide<V>,
    /// Backward levels this device scattered from the children.
    pub scatter_levels: u32,
    /// The backward sweep's levels, built by its first superstep.
    levels: Option<Levels<V>>,
    /// Depth being processed by the backward sweep.
    cur_depth: usize,
    /// The global deepest level, known once the forward sweep ends.
    max_depth: usize,
}

/// The finished forward sweep bucketed by depth, ids ascending within a
/// depth, with the local edges each side of a level reads.
#[derive(Debug)]
struct Levels<V> {
    /// Every labelled vertex: depth `d` is `all[start[d]..start[d + 1]]`.
    all: Vec<V>,
    start: Vec<usize>,
    /// The owned ones, bucketed the same way.
    owned: Vec<V>,
    owned_start: Vec<usize>,
    /// Out-edges of depth `d` (proxies have none): what gathering at the
    /// parents of depth `d` reads.
    out_edges: Vec<u64>,
    /// In-edges of depth `d`: what scattering from the children at `d`
    /// reads.
    in_edges: Vec<u64>,
}

impl<V: Id> Levels<V> {
    /// One counting sort over the authoritative labels (all ≤ `max_depth`).
    fn build<O: Id>(
        sub: &SubGraph<V, O>,
        csc: &Csr<V, O>,
        labels: &[u32],
        max_depth: usize,
    ) -> Self {
        let mut count = vec![0usize; max_depth + 1];
        let mut owned_count = vec![0usize; max_depth + 1];
        let mut out_edges = vec![0u64; max_depth + 1];
        let mut in_edges = vec![0u64; max_depth + 1];
        let labelled = || {
            labels
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l != INF)
                .map(|(v, &l)| (V::from_usize(v), l as usize))
        };
        for (v, d) in labelled() {
            count[d] += 1;
            in_edges[d] += csc.degree(v) as u64;
            if sub.is_owned(v) {
                owned_count[d] += 1;
                out_edges[d] += sub.csr.degree(v) as u64;
            }
        }
        let starts = |counts: &[usize]| -> Vec<usize> {
            std::iter::once(0)
                .chain(counts.iter().scan(0, |acc, &c| {
                    *acc += c;
                    Some(*acc)
                }))
                .collect()
        };
        let (start, owned_start) = (starts(&count), starts(&owned_count));
        let mut all = vec![V::from_usize(0); start[max_depth + 1]];
        let mut owned = vec![V::from_usize(0); owned_start[max_depth + 1]];
        let (mut at, mut owned_at) = (start.clone(), owned_start.clone());
        for (v, d) in labelled() {
            all[at[d]] = v;
            at[d] += 1;
            if sub.is_owned(v) {
                owned[owned_at[d]] = v;
                owned_at[d] += 1;
            }
        }
        Levels { all, start, owned, owned_start, out_edges, in_edges }
    }

    fn all_at(&self, d: usize) -> &[V] {
        &self.all[self.start[d]..self.start[d + 1]]
    }

    fn owned_at(&self, d: usize) -> &[V] {
        &self.owned[self.owned_start[d]..self.owned_start[d + 1]]
    }
}

impl<V: Id, O: Id> MgpuProblem<V, O> for Bc {
    type State = BcState<V>;
    /// Forward / sync: `(label, σ)`. Backward: `(label, δ)`.
    type Msg = (u32, f32);

    fn name(&self) -> &'static str {
        "BC"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn reads(&self) -> Reads {
        Reads { reverse: true, weights: false }
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn comm_now(&self, state: &Self::State) -> CommStrategy {
        match state.phase {
            BcPhase::Forward => CommStrategy::Selective,
            _ => CommStrategy::Broadcast,
        }
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        16 // labels (u32) + sigma/delta/bc (f32 each)
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let n = sub.n_vertices();
        Ok(BcState {
            labels: dev.alloc(n)?,
            sigma: dev.alloc(n)?,
            delta: dev.alloc(n)?,
            bc: dev.alloc(n)?,
            phase: BcPhase::Forward,
            pull: PullSide::default(),
            scatter_levels: 0,
            levels: None,
            cur_depth: 0,
            max_depth: 0,
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>> {
        {
            let BcState { labels, sigma, delta, bc, .. } = state;
            dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                labels.as_mut_slice().fill(INF);
                sigma.as_mut_slice().fill(0.0);
                delta.as_mut_slice().fill(0.0);
                bc.as_mut_slice().fill(0.0);
                let n = labels.len();
                ((), 4 * n as u64)
            })?;
        }
        state.phase = BcPhase::Forward;
        state.scatter_levels = 0;
        let csc = sub.csc.as_ref().expect("the bind refuses a partition without it");
        state.pull.reset((csc.n_edges() - src.map_or(0, |s| csc.degree(s))) as u64);
        state.levels = None;
        state.cur_depth = 0;
        state.max_depth = 0;
        Ok(match src {
            Some(s) => {
                state.labels[s.idx()] = 0;
                state.sigma[s.idx()] = 1.0;
                vec![s]
            }
            None => Vec::new(),
        })
    }

    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _bufs: &mut FrontierBufs<V>,
        input: &[V],
        iter: usize,
    ) -> Result<Vec<V>> {
        let csc = sub.csc.as_ref().expect("the bind refuses a partition without it");
        match state.phase {
            BcPhase::Forward => {
                let cur = iter as u32;
                let next = cur + 1;
                // The decision: push reads the input's out-rows, pull scans
                // its candidates and the in-rows of every vertex still
                // unlabelled here.
                let pull = state.pull.decide(dev, sub, input)?;
                let BcState { labels, sigma, pull: side, .. } = state;
                // Both sides are sequential on purpose: σ accumulation is +=
                // over f32, and parallel chunking would reorder the sums.
                // Each labels the vertices it reaches and sums their
                // in-edges, which leave `open_in` after the launch.
                let mut closed_in = 0u64;
                let discovered = if pull {
                    let candidates =
                        ops::pull_candidates(dev, &mut side.candidates, labels.len(), |v| {
                            labels[v.idx()] == INF
                        })?;
                    ops::pull(dev, csc, candidates, |v, parents| {
                        let mut hit = false;
                        for &p in parents {
                            if labels[p.idx()] == cur {
                                hit = true;
                                sigma[v.idx()] += sigma[p.idx()];
                            }
                        }
                        if hit {
                            labels[v.idx()] = next;
                            closed_in += parents.len() as u64;
                        }
                        (parents.len(), hit)
                    })?
                    .0
                } else {
                    // Fused advance: discover + accumulate σ along tree edges.
                    ops::advance_filter_fused_seq(dev, sub, input, |s, _, d| {
                        if labels[d.idx()] == INF {
                            labels[d.idx()] = next;
                            closed_in += csc.degree(d) as u64;
                            sigma[d.idx()] += sigma[s.idx()];
                            Some(d)
                        } else if labels[d.idx()] == next {
                            sigma[d.idx()] += sigma[s.idx()];
                            None
                        } else {
                            None
                        }
                    })?
                };
                side.open_in -= closed_in;
                Ok(discovered)
            }
            BcPhase::SyncSigma => {
                // Broadcast authoritative (label, σ) for every owned vertex.
                let owned: Vec<V> =
                    (0..sub.n_vertices()).map(V::from_usize).filter(|&v| sub.is_owned(v)).collect();
                let count = owned.len() as u64;
                dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || ((), count))?;
                Ok(owned)
            }
            BcPhase::Backward => {
                let d = state.cur_depth;
                if state.levels.is_none() {
                    let (labels, depth) = (state.labels.as_slice(), state.max_depth);
                    let levels = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                        (Levels::build(sub, csc, labels, depth), labels.len() as u64)
                    })?;
                    state.levels = Some(levels);
                }
                let BcState { labels, sigma, delta, bc, levels, scatter_levels, .. } = state;
                let levels = levels.as_ref().expect("built above");
                let (parent, child) = (d as u32, d as u32 + 1);
                if levels.in_edges[d + 1] < levels.out_edges[d] {
                    *scatter_levels += 1;
                    // Children in ascending id order: each parent receives
                    // its terms in the order of its sorted CSR row.
                    ops::pull(dev, csc, levels.all_at(d + 1), |w, parents| {
                        for &v in parents {
                            if labels[v.idx()] == parent {
                                delta[v.idx()] +=
                                    sigma[v.idx()] / sigma[w.idx()] * (1.0 + delta[w.idx()]);
                            }
                        }
                        (parents.len(), false)
                    })?;
                } else {
                    // advance over the frontier's out-edges: accumulate δ
                    // from successors one depth deeper.
                    ops::advance_filter_fused_seq(dev, sub, levels.owned_at(d), |s, _, w| {
                        if labels[w.idx()] == child && sigma[w.idx()] > 0.0 {
                            delta[s.idx()] +=
                                sigma[s.idx()] / sigma[w.idx()] * (1.0 + delta[w.idx()]);
                        }
                        None::<V>
                    })?;
                }
                // accumulate centrality (depth ≥ 1: the source never does)
                let frontier = levels.owned_at(d);
                let count = frontier.len() as u64;
                dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || {
                    for &v in frontier {
                        bc[v.idx()] += delta[v.idx()];
                    }
                    ((), count)
                })?;
                // Broadcast this depth's δ so remote parents can read it —
                // except depth 1's, whose only parent is the source.
                Ok(if d > 1 { frontier.to_vec() } else { Vec::new() })
            }
            BcPhase::Done => Ok(Vec::new()),
        }
    }

    fn package(&self, state: &Self::State, v: V) -> (u32, f32) {
        match state.phase {
            BcPhase::Forward | BcPhase::SyncSigma => (state.labels[v.idx()], state.sigma[v.idx()]),
            _ => (state.labels[v.idx()], state.delta[v.idx()]),
        }
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &(u32, f32)) -> bool {
        match state.phase {
            BcPhase::Forward => {
                let (label, sig) = *msg;
                if label < state.labels[v.idx()] {
                    if state.labels[v.idx()] == INF {
                        state.pull.arrived.push(v);
                    }
                    state.labels[v.idx()] = label;
                    state.sigma[v.idx()] = sig;
                    true
                } else if label == state.labels[v.idx()] {
                    state.sigma[v.idx()] += sig;
                    false
                } else {
                    false
                }
            }
            BcPhase::SyncSigma => {
                // Authoritative override of proxy values (each vertex is
                // owned by exactly one sender, so no double counting).
                let (label, sig) = *msg;
                state.labels[v.idx()] = label;
                state.sigma[v.idx()] = sig;
                false
            }
            BcPhase::Backward => {
                state.delta[v.idx()] = msg.1;
                false
            }
            BcPhase::Done => false,
        }
    }

    /// True after the superstep whose output nobody reads: σ-sync when no
    /// level has a parent to accumulate, else the depth-1 backward level.
    fn locally_done(&self, state: &Self::State, _next_input: &[V]) -> bool {
        match state.phase {
            BcPhase::Forward => false,
            BcPhase::SyncSigma => state.max_depth < 2,
            BcPhase::Backward => state.cur_depth <= 1,
            BcPhase::Done => true,
        }
    }

    fn after_superstep(&self, state: &mut Self::State, reduce: &GlobalReduce, iter: usize) {
        match state.phase {
            BcPhase::Forward => {
                if reduce.u64_sum == 0 {
                    // Superstep `iter - 1` found nothing at depth `iter`
                    // anywhere: the deepest level is `iter - 1`.
                    state.phase = BcPhase::SyncSigma;
                    state.max_depth = iter - 1;
                }
            }
            BcPhase::SyncSigma => {
                // The deepest level has no successors, so its δ is 0 by
                // definition: start one level above it.
                if state.max_depth >= 2 {
                    state.phase = BcPhase::Backward;
                    state.cur_depth = state.max_depth - 1;
                } else {
                    state.phase = BcPhase::Done;
                }
            }
            BcPhase::Backward => {
                if state.cur_depth <= 1 {
                    state.phase = BcPhase::Done;
                } else {
                    state.cur_depth -= 1;
                }
            }
            BcPhase::Done => {}
        }
    }

    /// BC has no checkpoint encoding (its sigma/delta state spans phases);
    /// the harvest word is the centrality score's bit pattern.
    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        state.bc[v.idx()].to_bits() as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Bfs;
    use mgpu_core::{EnactConfig, EnactReport, Runner};
    use mgpu_gen::{gnm, grid2d, Dataset};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::DistGraph;
    use vgpu::{HardwareProfile, SimSystem, VgpuError};

    /// A finished run's scores: its harvest words, `f32::from_bits`.
    fn scores(words: Vec<u64>) -> Vec<f32> {
        words.into_iter().map(|w| f32::from_bits(w as u32)).collect()
    }

    pub(crate) fn dist_of(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        dist.build_cscs();
        dist
    }

    /// One enact per source on one bound runner, as `mgpu run --primitive
    /// bc --sources` runs them, with the scores summed in f32 in source order.
    pub(crate) fn run_sources(g: &Csr<u32, u64>, n_gpus: usize, sources: &[u32]) -> Vec<f32> {
        let dist = dist_of(g, n_gpus);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Bc, EnactConfig::default()).unwrap();
        let mut total = vec![0.0f32; g.n_vertices()];
        for &src in sources {
            runner.enact(Some(src)).unwrap();
            for (t, x) in total.iter_mut().zip(scores(runner.harvest())) {
                *t += x;
            }
        }
        total
    }

    fn run_bc(g: &Csr<u32, u64>, n_gpus: usize, src: u32) -> Vec<f32> {
        run_sources(g, n_gpus, &[src])
    }

    /// Brandes in f64 summed over `sources`.
    pub(crate) fn reference_sum(g: &Csr<u32, u64>, sources: &[u32]) -> Vec<f64> {
        let mut total = vec![0.0f64; g.n_vertices()];
        for &src in sources {
            for (t, x) in total.iter_mut().zip(crate::reference::bc(g, src)) {
                *t += x;
            }
        }
        total
    }

    /// A traced run of `problem`: its report and the edges its advances read
    /// (push and pull alike).
    fn traced<P: MgpuProblem<u32, u64>>(
        dist: &DistGraph<u32, u64>,
        problem: P,
        src: u32,
    ) -> (EnactReport, u64, Runner<'_, u32, u64, P>) {
        let system = SimSystem::homogeneous(dist.n_parts, HardwareProfile::k40());
        let config = EnactConfig { tracing: true, ..EnactConfig::default() };
        let mut runner = Runner::new(system, dist, problem, config).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        let trace = report.trace.as_ref().expect("tracing was on");
        let advanced = trace
            .per_device
            .iter()
            .flatten()
            .filter(|e| e.name == "advance" || e.name == "advance+filter")
            .map(|e| e.items)
            .sum();
        (report, advanced, runner)
    }

    fn assert_close(ours: &[f32], reference: &[f64], tol: f64) {
        for (i, (&a, &b)) in ours.iter().zip(reference).enumerate() {
            assert!((a as f64 - b).abs() <= tol * (1.0 + b.abs()), "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn path_graph_dependencies() {
        let coo = Coo::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for n in [1, 2, 3] {
            let bc = run_bc(&g, n, 0);
            assert_close(&bc, &crate::reference::bc(&g, 0u32), 1e-5);
        }
    }

    #[test]
    fn diamond_splits_dependency() {
        // two shortest paths 0→3: σ(3)=2, each middle vertex carries 0.5
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let bc = run_bc(&g, 2, 0);
        assert_close(&bc, &crate::reference::bc(&g, 0u32), 1e-5);
        assert!((bc[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn random_graph_matches_brandes_across_gpu_counts() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(80, 320, 33));
        let expect = crate::reference::bc(&g, 7u32);
        for n in [1, 2, 4] {
            assert_close(&run_bc(&g, n, 7), &expect, 1e-3);
        }
    }

    #[test]
    fn isolated_source_scores_zero_everywhere() {
        let coo = Coo::from_edges(4, vec![(1, 2)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let bc = run_bc(&g, 2, 0);
        assert!(bc.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn a_partition_without_the_csc_is_refused() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(20, 40, 1));
        let dist = DistGraph::build(&g, vec![0; 20], 1, Duplication::All);
        let system = SimSystem::homogeneous(1, HardwareProfile::k40());
        let bind = Runner::new(system, &dist, Bc, EnactConfig::default());
        let needs = "the reverse adjacency (DistGraph::build_cscs)";
        assert_eq!(bind.err(), Some(VgpuError::PartitionMismatch { primitive: "BC", needs }));
    }

    /// Summed scores match summed Brandes within the harness's tolerance,
    /// and an isolated source (vertex 40) adds nothing.
    #[test]
    fn multi_source_accumulation_via_repeated_enacts() {
        let mut coo = gnm(40, 160, 5);
        coo.n_vertices = 41;
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let sources = [0u32, 5, 40, 11];
        let expect = reference_sum(&g, &sources);
        for n in [1, 2, 4] {
            let ours = run_sources(&g, n, &sources);
            for (v, (&a, &b)) in ours.iter().zip(&expect).enumerate() {
                assert!((a as f64 - b).abs() <= 1e-3 * b.abs() + 1e-6, "{n} GPUs, {v}: {a} vs {b}");
            }
            assert_eq!(ours[40], 0.0, "{n} GPUs");
            assert_eq!(run_sources(&g, n, &[0, 5, 11]), ours, "{n} GPUs");
        }
    }

    /// Each source's scores do not depend on the GPU count (σ is an exact
    /// integer sum here and every δ adds its terms in sorted-row order), so
    /// neither does their f32 sum in source order.
    #[test]
    fn multi_source_scores_are_bit_identical_across_gpu_counts() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(40, 160, 5));
        let sources = [0u32, 5, 11, 17, 23, 31];
        let bits =
            |n| run_sources(&g, n, &sources).into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let one = bits(1);
        for n in [2, 3, 4] {
            assert_eq!(bits(n), one, "{n} GPUs");
        }
    }

    /// On a low-diameter power-law graph the two sweeps together read fewer
    /// edges than one BFS from the same source: the deep forward levels
    /// pull, the backward level above the big one scatters, and the dead
    /// deepest level is never swept.
    #[test]
    fn two_sided_sweeps_read_fewer_edges_than_bfs_on_a_power_law_graph() {
        let coo = Dataset::by_name("soc-orkut").unwrap().generate(10, 42);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let hub = (0..g.n_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        let dist = dist_of(&g, 2);
        let (_, bfs_items, _) = traced(&dist, Bfs::default(), hub);
        let (_, bc_items, runner) = traced(&dist, Bc, hub);
        assert!(bc_items < bfs_items, "BC read {bc_items} edges, BFS {bfs_items}");
        let pulled: u32 = (0..2).map(|gpu| runner.state(gpu).pull.pull_levels).sum();
        let scattered: u32 = (0..2).map(|gpu| runner.state(gpu).scatter_levels).sum();
        assert!(pulled > 0, "no forward level pulled");
        assert!(scattered > 0, "no backward level scattered");
        assert_close(&scores(runner.harvest()), &crate::reference::bc(&g, hub), 1e-3);
    }

    /// On a lattice every level is thin next to |V|, so no forward level
    /// pulls; from a corner the levels grow to the anti-diagonal and then
    /// shrink, and the backward sweep scatters exactly on the shrinking
    /// half, where the children are fewer than their parents. The dead
    /// deepest level is skipped and the run ends with depth 1.
    #[test]
    fn a_lattice_never_pulls_and_sweeps_back_from_one_above_the_deepest_level() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&grid2d(64, 64, 1.0, 1));
        let dist = dist_of(&g, 2);
        let labels = crate::reference::bfs(&g, 0u32);
        let depth = *labels.iter().max().unwrap() as usize;
        let mut width = vec![0usize; depth + 1];
        labels.iter().for_each(|&l| width[l as usize] += 1);
        let shrinking = (1..depth).filter(|&d| width[d + 1] < width[d]).count() as u32;
        let (bfs, _, _) = traced(&dist, Bfs::default(), 0);
        let (bc, _, runner) = traced(&dist, Bc, 0);
        for gpu in 0..2 {
            assert_eq!(runner.state(gpu).pull.pull_levels, 0, "gpu {gpu}");
            assert_eq!(runner.state(gpu).scatter_levels, shrinking, "gpu {gpu}");
        }
        assert_eq!(bc.iterations, bfs.iterations + 1 + (depth - 1));
        assert_close(&scores(runner.harvest()), &crate::reference::bc(&g, 0u32), 1e-3);
    }
}
