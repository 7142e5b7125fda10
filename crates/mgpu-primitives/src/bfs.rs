//! Multi-GPU breadth-first search (Algorithm 1).
//!
//! * **Vertex duplication:** duplicate-all — "we trade memory usage for
//!   better performance for BFS".
//! * **Computation:** an advance kernel followed by a filter kernel (Merrill
//!   et al.'s expand–contract), fused into one kernel under the
//!   prealloc+fusion allocation scheme the paper uses for BFS. `W ∈ O(|E_i|)`.
//! * **Communication:** selective — only remote vertices are sent, with
//!   their new labels. `H ∈ O(|B_i|)`, `C ∈ O(|V_i|)`.
//! * **Combination:** "if a received vertex has not been visited before,
//!   update its label and place it in the input frontier" (atomicMin).
//! * **Convergence:** all frontiers are empty. `S ≈ D/2`.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_graph::Id;
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::INF;

/// Multi-GPU BFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bfs {
    /// Use duplicate-1-hop instead of the paper's duplicate-all (the
    /// framework supports both for BFS since it only touches immediate
    /// out-neighbors; the paper picks duplicate-all for speed).
    pub one_hop: bool,
}

/// Per-GPU BFS state: the label (depth) array over the local vertex space.
#[derive(Debug)]
pub struct BfsState {
    /// Depth labels, `INF` = unvisited. Indexed by local vertex id.
    pub labels: DeviceArray<u32>,
}

impl<V: Id, O: Id> MgpuProblem<V, O> for Bfs {
    type State = BfsState;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn duplication(&self) -> Duplication {
        if self.one_hop {
            Duplication::OneHop
        } else {
            Duplication::All
        }
    }

    fn reads(&self) -> Reads {
        Reads::default()
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4 // one u32 label per vertex
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        Ok(BfsState { labels: dev.alloc(sub.n_vertices())? })
    }

    fn reset(
        &self,
        dev: &mut Device,
        _sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>> {
        let labels = &mut state.labels;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            let n = labels.len();
            labels.as_mut_slice().fill(INF);
            ((), n as u64)
        })?;
        Ok(match src {
            Some(s) => {
                state.labels[s.idx()] = 0;
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
        iter: usize,
    ) -> Result<Vec<V>> {
        push_level(dev, sub, state.labels.as_mut_slice(), bufs, input, iter as u32 + 1)
    }

    fn package(&self, state: &Self::State, v: V) -> u32 {
        state.labels[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u32) -> bool {
        if *msg < state.labels[v.idx()] {
            state.labels[v.idx()] = *msg;
            true
        } else {
            false
        }
    }

    // Strict min-combine on the depth label: dominated re-sends are safe to
    // suppress, and every message of a superstep carries the same depth.
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }
    fn uniform_broadcast_msgs(&self) -> Option<bool> {
        Some(true)
    }

    // The depth label is BFS's entire recoverable per-vertex state.
    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint_word(&self, state: &Self::State, v: V) -> u64 {
        state.labels[v.idx()] as u64
    }

    fn restore_word(&self, state: &mut Self::State, v: V, word: u64) {
        state.labels[v.idx()] = word as u32;
    }

    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        MgpuProblem::<V, O>::checkpoint_word(self, state, v)
    }
}

/// One push level, BFS's every level and DOBFS's forward ones: label each
/// unvisited out-neighbour of `input` with `next_label` and return them.
/// Labels are claimed with CAS (the GPU atomicCAS idiom): each unvisited
/// vertex is won by exactly one claimant, so the discovered *set* and final
/// labels are schedule-independent. A claim tests before its atomic: an edge
/// into a labelled vertex costs one relaxed load, not a locked CAS, and the
/// CAS still decides every race the load lets through.
pub(crate) fn push_level<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    labels: &mut [u32],
    bufs: &mut FrontierBufs<V>,
    input: &[V],
    next_label: u32,
) -> Result<Vec<V>> {
    use std::sync::atomic::Ordering::Relaxed;
    let labels = vgpu::par::as_atomic_u32(labels);
    if bufs.scheme().fused() {
        // §VI-C: one kernel, no intermediate frontier.
        ops::advance_filter_fused(dev, sub, bufs, input, |_, _, d| {
            let label = &labels[d.idx()];
            (label.load(Relaxed) == INF
                && label.compare_exchange(INF, next_label, Relaxed, Relaxed).is_ok())
            .then_some(d)
        })
    } else {
        // Merrill-style expand (advance) then contract (filter).
        let candidates = ops::advance(dev, sub, bufs, input, |_, _, d| {
            (labels[d.idx()].load(Relaxed) == INF).then_some(d)
        })?;
        ops::filter(dev, &candidates, |v| {
            labels[v.idx()].compare_exchange(INF, next_label, Relaxed, Relaxed).is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::DistGraph;
    use vgpu::{HardwareProfile, SimSystem};

    /// A finished run's depth labels: its harvest words, `as u32`.
    fn labels(words: Vec<u64>) -> Vec<u32> {
        words.into_iter().map(|w| w as u32).collect()
    }

    fn run_bfs(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        one_hop: bool,
        src: u32,
    ) -> (Vec<u32>, mgpu_core::EnactReport) {
        let bfs = Bfs { one_hop };
        let dup = <Bfs as MgpuProblem<u32, u64>>::duplication(&bfs);
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, dup);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, bfs, EnactConfig::default()).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        (labels(runner.harvest()), report)
    }

    fn ladder() -> Csr<u32, u64> {
        // 2×8 grid ("ladder"): non-trivial depths, multiple shortest paths
        let mut coo = Coo::<u32>::new(16);
        for i in 0..8u32 {
            if i + 1 < 8 {
                coo.push(i, i + 1);
                coo.push(8 + i, 8 + i + 1);
            }
            coo.push(i, 8 + i);
        }
        GraphBuilder::undirected(&coo)
    }

    #[test]
    fn single_gpu_matches_reference() {
        let g = ladder();
        let (labels, report) = run_bfs(&g, 1, false, 0);
        assert_eq!(labels, crate::reference::bfs(&g, 0u32));
        assert_eq!(report.iterations, 9, "depth 8 + one empty-frontier step");
        assert!(report.totals.h_bytes_sent == 0, "no communication on 1 GPU");
    }

    #[test]
    fn multi_gpu_matches_reference_dup_all() {
        let g = ladder();
        for n in [2, 3, 4] {
            let (labels, report) = run_bfs(&g, n, false, 3);
            assert_eq!(labels, crate::reference::bfs(&g, 3u32), "{n} GPUs");
            assert!(report.totals.h_bytes_sent > 0, "cut edges force communication");
        }
    }

    #[test]
    fn multi_gpu_matches_reference_one_hop() {
        let g = ladder();
        for n in [2, 4] {
            let (labels, _) = run_bfs(&g, n, true, 0);
            assert_eq!(labels, crate::reference::bfs(&g, 0u32), "{n} GPUs, duplicate-1-hop");
        }
    }

    #[test]
    fn disconnected_vertices_stay_inf() {
        let coo = Coo::from_edges(6, vec![(0, 1), (1, 2)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (labels, _) = run_bfs(&g, 2, false, 0);
        assert_eq!(labels, vec![0, 1, 2, INF, INF, INF]);
    }

    #[test]
    fn unfused_scheme_gives_same_answer() {
        let g = ladder();
        let dist =
            DistGraph::build(&g, (0..16).map(|v| (v % 2) as u32).collect(), 2, Duplication::All);
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let config = EnactConfig { alloc_scheme: Some(AllocScheme::Max), ..Default::default() };
        let mut runner = Runner::new(system, &dist, Bfs::default(), config).unwrap();
        runner.enact(Some(0u32)).unwrap();
        assert_eq!(labels(runner.harvest()), crate::reference::bfs(&g, 0u32));
    }

    #[test]
    fn counters_match_table1_orders() {
        let g = ladder();
        let dist =
            DistGraph::build(&g, (0..16).map(|v| (v % 2) as u32).collect(), 2, Duplication::All);
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        // the paper's wire: forced list, nothing suppressed
        let config = EnactConfig {
            wire_encoding: mgpu_core::WireEncoding::List,
            suppression: false,
            ..Default::default()
        };
        let mut runner = Runner::new(system, &dist, Bfs::default(), config).unwrap();
        let report = runner.enact(Some(0u32)).unwrap();
        let t = &report.totals;
        // W ∈ O(|E_i|) summed over GPUs ≈ |E| (every edge expanded once,
        // plus load-balancing scan items)
        assert!(t.w_items as usize >= g.n_edges());
        assert!(t.w_items as usize <= 4 * g.n_edges() + 16 * report.iterations);
        // H counted in vertices is bounded by border size × iterations
        assert!(t.h_vertices > 0);
        // wire bytes = one tag per package + vertices × (id + label)
        assert_eq!(t.h_bytes_sent, t.h_messages + t.h_vertices * 8);
    }

    #[test]
    fn repeated_enacts_are_independent() {
        let g = ladder();
        let dist =
            DistGraph::build(&g, (0..16).map(|v| (v % 2) as u32).collect(), 2, Duplication::All);
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let r1 = runner.enact(Some(0u32)).unwrap();
        let l1 = labels(runner.harvest());
        let r2 = runner.enact(Some(15u32)).unwrap();
        let l2 = labels(runner.harvest());
        assert_eq!(l1[0], 0);
        assert_eq!(l2[15], 0);
        assert_eq!(l2, crate::reference::bfs(&g, 15u32));
        assert!((r1.sim_time_us - r2.sim_time_us).abs() < r1.sim_time_us * 0.5);
    }
}
