//! Multi-GPU single-source shortest paths (Table I row 3).
//!
//! Near/far label-correcting relaxation, after Gunrock's SSSP: every
//! superstep splits the pending frontier at `lo + width` (`lo` = the least
//! pending distance), relaxes the out-edges of the *near* part with one
//! advance kernel (atomicMin on distances, emissions deduplicated by a visit
//! stamp) and parks the *far* rest in the frontier it returns. A far vertex
//! is owned, so the framework's split keeps it local: it costs a split item
//! per superstep, never a wire byte, and the pending set stays entirely in
//! the frontier the framework sees — which is why the default
//! `locally_done`, the checkpoint frontier and `AsyncRunner`'s "iteration is
//! a pure relaxation of its input" contract all hold with no hook
//! overridden.
//!
//! A vertex re-enters the frontier when a shorter path arrives later — the
//! `b` factor of the paper's cost model (`W ∈ O(b·|E_i|)`,
//! `H ∈ O(2b·|B_i|)`, `S ≈ b·D/2`). Relaxing in distance order keeps `b`
//! near 1 on power-law graphs; a narrow `width` pays for it in supersteps,
//! so `width` adapts to the hardware's fixed superstep cost (the `quantum`
//! of [`SsspState`]).
//!
//! Duplication and communication follow BFS: duplicate-all + selective; the
//! message is the new distance.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::bfs::gather;
use crate::INF;

/// Multi-GPU SSSP.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sssp;

/// Kernel launches one superstep of this primitive costs: the split and the
/// advance below, the framework's frontier split and one combine.
const LAUNCHES_PER_SUPERSTEP: f64 = 4.0;

/// Per-GPU SSSP state.
#[derive(Debug)]
pub struct SsspState<V: Id> {
    /// Tentative distances, `INF` = unreached. Indexed by local vertex id.
    pub dists: DeviceArray<u32>,
    /// Visit stamps of superstep `round`: `2·round` = taken from the input
    /// into the near set, `2·round + 1` = already in the output frontier
    /// (parked far, or emitted by the advance).
    stamp: DeviceArray<u32>,
    /// Supersteps run since the last reset. The stamps count with this, not
    /// with `iter`: the async engine's `iter` is not a superstep.
    round: u32,
    /// Superstep-start distance of each near vertex (host scratch, written
    /// for the near set only). Relaxations *read* this and *write* `dists`
    /// through `fetch_min`, so concurrent chunks of the parallel advance see
    /// one consistent source distance whatever the chunk schedule.
    snap: Vec<u32>,
    /// The near and far parts of the current input (scratch, reused).
    near: Vec<V>,
    far: Vec<V>,
    /// Width of the near window in distance units.
    width: u32,
    /// One superstep's fixed cost expressed in advance edges: what the
    /// device could have relaxed in the time a superstep costs before it
    /// does any work. `width` doubles while the near set offers less than
    /// this and something is parked (the superstep is overhead-bound) and
    /// halves above four times this (it is work-bound, so a narrower window
    /// saves re-relaxations at no cost in time).
    quantum: u64,
}

impl<V: Id, O: Id> MgpuProblem<V, O> for Sssp {
    type State = SsspState<V>;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4 // one u32 distance per vertex
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let p = dev.profile();
        let fixed_us =
            p.superstep_sync_us(sub.n_parts) + LAUNCHES_PER_SUPERSTEP * p.kernel_launch_us;
        let quantum = (fixed_us * p.advance_edges_per_us) as u64;
        Ok(SsspState {
            dists: dev.alloc(sub.n_vertices())?,
            stamp: dev.alloc(sub.n_vertices())?,
            round: 0,
            snap: vec![INF; sub.n_vertices()],
            near: Vec::new(),
            far: Vec::new(),
            width: 1,
            quantum,
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        _sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>> {
        let SsspState { dists, stamp, .. } = state;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            dists.as_mut_slice().fill(INF);
            stamp.as_mut_slice().fill(INF);
            let n = dists.len();
            ((), 2 * n as u64)
        })?;
        state.round = 0;
        state.width = 1;
        Ok(match src {
            Some(s) => {
                state.dists[s.idx()] = 0;
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
        bufs: &mut FrontierBufs<V>,
        input: &[V],
        _iter: usize,
    ) -> Result<Vec<V>> {
        use std::sync::atomic::Ordering::Relaxed;
        let SsspState { dists, stamp, round, snap, near, far, width, quantum } = state;
        let (taken, parked) = (2 * *round, 2 * *round + 1);
        *round += 1;

        // Split the pending set: two passes over the input in one kernel.
        // The first drops duplicates (the local part of the last output and
        // what the combines accepted may overlap) and finds the least
        // pending distance; the second keeps the near window, snapshots it,
        // and parks the rest. `d - lo` cannot wrap and the least vertex is
        // always near, so every superstep makes progress.
        let w = *width;
        let near_edges = dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
            let (dists, stamp) = (dists.as_slice(), stamp.as_mut_slice());
            near.clear();
            far.clear();
            let mut lo = INF;
            for &v in input {
                if stamp[v.idx()] != taken {
                    stamp[v.idx()] = taken;
                    near.push(v);
                    lo = lo.min(dists[v.idx()]);
                }
            }
            let mut edges = 0u64;
            near.retain(|&v| {
                let d = dists[v.idx()];
                let is_near = d - lo < w;
                if is_near {
                    snap[v.idx()] = d;
                    edges += sub.csr.degree(v) as u64;
                } else {
                    stamp[v.idx()] = parked;
                    far.push(v);
                }
                is_near
            });
            (edges, 2 * input.len() as u64)
        })?;
        if near_edges < *quantum && !far.is_empty() {
            *width = w.saturating_mul(2);
        } else if near_edges > 4 * *quantum {
            *width = (w / 2).max(1);
        }

        // Relax the near set. The source side reads the snapshot; the
        // destination side is a `fetch_min`, so each distance ends the
        // superstep at the minimum over all offers in any arrival order. The
        // first offer below a vertex's superstep-start distance lowers it,
        // whichever offer that is, so a vertex is emitted (once: the stamp
        // swap) iff its least offer beats that distance — the emitted set,
        // every charge and every counter are independent of the chunk
        // schedule.
        let snap: &[u32] = snap;
        let dists_a = vgpu::par::as_atomic_u32(dists.as_mut_slice());
        let stamp_a = vgpu::par::as_atomic_u32(stamp.as_mut_slice());
        let relax = |s: V, e: usize, d: V| {
            let nd = snap[s.idx()].saturating_add(sub.csr.edge_weight(e));
            let slot = &dists_a[d.idx()];
            (nd < slot.load(Relaxed)
                && nd < slot.fetch_min(nd, Relaxed)
                && stamp_a[d.idx()].swap(parked, Relaxed) != parked)
                .then_some(d)
        };
        // Unfused, the deduplicated emissions are the materialized (and
        // governed) intermediate; there is nothing left for a filter to drop.
        let mut out = if bufs.scheme().fused() {
            ops::advance_filter_fused(dev, sub, bufs, near, relax)?
        } else {
            ops::advance(dev, sub, bufs, near, relax)?
        };
        out.extend_from_slice(far);
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> u32 {
        state.dists[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u32) -> bool {
        if *msg < state.dists[v.idx()] {
            state.dists[v.idx()] = *msg;
            true
        } else {
            false
        }
    }

    // Strict min-combine on the tentative distance: a re-relaxation that
    // does not improve the last value sent to the owner is pure wire waste.
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }

    // Tentative distances are the recoverable state: the pending set is the
    // checkpointed frontier, and stamps, round and width restart from a
    // fresh reset.
    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint_word(&self, state: &Self::State, v: V) -> u64 {
        state.dists[v.idx()] as u64
    }

    fn restore_word(&self, state: &mut Self::State, v: V, word: u64) {
        state.dists[v.idx()] = word as u32;
    }
}

/// Gather final distances from a finished runner into global vertex order.
pub fn gather_dists<V: Id, O: Id>(
    runner: &Runner<'_, V, O, Sssp>,
    dist: &DistGraph<V, O>,
) -> Vec<u32> {
    gather(dist, |gpu, local| runner.state(gpu).dists[local.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::EnactConfig;
    use mgpu_core::EnactReport;
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::{gnm, grid2d, Dataset};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run_sssp(g: &Csr<u32, u64>, n_gpus: usize, src: u32) -> Vec<u32> {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Sssp, EnactConfig::default()).unwrap();
        runner.enact(Some(src)).unwrap();
        gather_dists(&runner, &dist)
    }

    #[test]
    fn weighted_diamond_takes_cheap_path() {
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], Some(vec![1, 4, 1, 1]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for n in [1, 2, 3] {
            assert_eq!(run_sssp(&g, n, 0), crate::reference::sssp(&g, 0u32), "{n} GPUs");
        }
    }

    #[test]
    fn zero_weight_edges_are_handled() {
        let coo = Coo::from_edges(3, vec![(0, 1), (1, 2)], Some(vec![0, 0]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(run_sssp(&g, 2, 0), vec![0, 0, 0]);
    }

    #[test]
    fn random_graph_matches_dijkstra_across_gpu_counts() {
        let mut coo = gnm(120, 600, 42);
        add_paper_weights(&mut coo, 7);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let expect = crate::reference::sssp(&g, 5u32);
        for n in [1, 2, 4, 6] {
            assert_eq!(run_sssp(&g, n, 5), expect, "{n} GPUs");
        }
    }

    #[test]
    fn unweighted_graph_degenerates_to_bfs() {
        let coo = gnm(60, 240, 3);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(run_sssp(&g, 2, 0), crate::reference::bfs(&g, 0u32));
    }

    #[test]
    fn unfused_path_agrees() {
        let mut coo = gnm(80, 400, 9);
        add_paper_weights(&mut coo, 11);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let owner: Vec<u32> = (0..80).map(|v| (v % 3) as u32).collect();
        let dist = DistGraph::build(&g, owner, 3, Duplication::All);
        let system = SimSystem::homogeneous(3, HardwareProfile::k40());
        let config =
            EnactConfig { alloc_scheme: Some(AllocScheme::JustEnough), ..Default::default() };
        let mut runner = Runner::new(system, &dist, Sssp, config).unwrap();
        runner.enact(Some(0u32)).unwrap();
        assert_eq!(gather_dists(&runner, &dist), crate::reference::sssp(&g, 0u32));
    }

    /// Two K40s whose fixed overheads are shrunk like the graph (what
    /// `mgpu run --shift` binds), the widest near window either device
    /// reached, and the report.
    fn run_scaled(coo: &mut Coo<u32>, shift: u32) -> (Csr<u32, u64>, u32, EnactReport) {
        add_paper_weights(coo, 7);
        let g: Csr<u32, u64> = GraphBuilder::undirected(coo);
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % 2) as u32).collect();
        let dist = DistGraph::build(&g, owner, 2, Duplication::All);
        let profile = HardwareProfile::k40().with_overhead_scale(f64::from(1u32 << shift));
        let system = SimSystem::homogeneous(2, profile);
        let mut runner = Runner::new(system, &dist, Sssp, EnactConfig::default()).unwrap();
        let report = runner.enact(Some(0)).unwrap();
        assert_eq!(gather_dists(&runner, &dist), crate::reference::sssp(&g, 0u32));
        let width = (0..2).map(|gpu| runner.state(gpu).width).max().unwrap();
        (g, width, report)
    }

    /// The bound that would have caught W 4.60 → 7.41 |E|: relaxing in
    /// distance order re-relaxes little on a power-law graph.
    #[test]
    fn work_stays_near_one_pass_over_the_edges_on_a_power_law_graph() {
        let mut coo = Dataset::by_name("soc-orkut").unwrap().generate(10, 42);
        let (g, width, report) = run_scaled(&mut coo, 10);
        let b = report.totals.w_items as f64 / g.n_edges() as f64;
        assert!(b < 2.5, "W = {b:.2} |E| over {} supersteps", report.iterations);
        assert!(width < 64, "work-bound: the window stays narrower than the weights, got {width}");
    }

    /// A lattice's distance levels are a handful of vertices each, so the
    /// window widens past the edge weights to fill a quantum — and no
    /// superstep pays for the vertices it does not touch.
    #[test]
    fn no_superstep_charge_is_proportional_to_the_vertex_count() {
        let mut coo = grid2d(96, 96, 1.0, 3);
        let (g, width, report) = run_scaled(&mut coo, 10);
        assert!(width > 64, "overhead-bound: the window outgrows the weights, got {width}");
        let (w, s) = (report.totals.w_items, report.iterations as u64);
        assert!(s > 100, "a deep traversal, got {s} supersteps");
        // a |V|-item snapshot per device per superstep alone would be 2·S·|V|
        assert!(
            w < s * g.n_vertices() as u64 / 2,
            "W = {w} items over {s} supersteps of a {}-vertex lattice",
            g.n_vertices()
        );
    }
}
