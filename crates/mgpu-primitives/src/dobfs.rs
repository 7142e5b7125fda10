//! Multi-GPU direction-optimizing BFS (Algorithm 2, §VI-A).
//!
//! Forward ("push") iterations are plain BFS advances. Backward ("pull")
//! iterations parallelize across *unvisited* vertices: each scans its
//! incoming edges (CSC) and stops at the first parent discovered in the
//! previous iteration — the "edge skipping" that reduces `W` to
//! `O(a·|E_i|)`, `a < 1`.
//!
//! Direction choice uses the paper's cheap estimates (`FV = |Q|·|E_i|/|V_i|`,
//! `BV = |U|·|V_i|/|P|`) with thresholds `do_a`/`do_b`, and the
//! forward→backward switch is allowed once (it requires a full vertex scan
//! to build the unvisited frontier).
//!
//! Because an upcoming iteration may use either direction, newly discovered
//! vertices must be visible *everywhere*: duplication is all, communication
//! is **broadcast** — `H ∈ O((n−1)·|V|)` and `C ∈ O((n−1)·|V|)`, which is
//! why DOBFS is the one primitive whose multi-GPU scaling stays flat
//! (§VII-B): its computation is already down to `O(|V_i|)`-scale, so
//! communication dominates.
//!
//! Under 1D edge-cut partitioning a GPU only stores the out-edges of its
//! own vertices, so the in-edges of a vertex `v` are scattered across GPUs.
//! Each GPU therefore pulls for *every* unvisited vertex in its (duplicate-
//! all) vertex space using the parents it knows locally; broadcast combines
//! deduplicate concurrent discoveries by atomicMin.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::direction::{Direction, DirectionConfig, DirectionState};
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_graph::Id;
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::bfs::push_level;
use crate::INF;

/// Multi-GPU direction-optimizing BFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dobfs {
    /// Switch thresholds (`do_a`, `do_b`); the defaults are the paper's
    /// social-graph values 0.01 / 0.1.
    pub direction: DirectionConfig,
}

/// Per-GPU DOBFS state.
#[derive(Debug)]
pub struct DobfsState<V: Id> {
    /// Depth labels over the (duplicate-all) local vertex space.
    pub labels: DeviceArray<u32>,
    /// Direction machinery.
    pub dir: DirectionState,
    /// Unvisited vertices for pull mode, ascending (built by the one
    /// forward→backward switch scan, then shrunk in place).
    unvisited: Option<Vec<V>>,
    /// Number of visited vertices in the local space (`|P|`).
    visited: usize,
    /// Edges actually scanned by pull iterations (the `a·|E_i|` numerator,
    /// reported by the Table I experiment).
    pub pull_edges_scanned: u64,
}

impl<V: Id, O: Id> MgpuProblem<V, O> for Dobfs {
    type State = DobfsState<V>;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "DOBFS"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn reads(&self) -> Reads {
        Reads { reverse: true, weights: false }
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Broadcast
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        Ok(DobfsState {
            labels: dev.alloc(sub.n_vertices())?,
            dir: DirectionState::new(self.direction),
            unvisited: None,
            visited: 0,
            pull_edges_scanned: 0,
        })
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
            labels.as_mut_slice().fill(INF);
            let n = labels.len();
            ((), n as u64)
        })?;
        state.dir = DirectionState::new(self.direction);
        state.unvisited = None;
        state.visited = 0;
        state.pull_edges_scanned = 0;
        Ok(match src {
            Some(s) => {
                state.labels[s.idx()] = 0;
                state.visited = 1;
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
        let n_vi = sub.n_vertices();
        let unvisited_count = n_vi - state.visited;
        let dir =
            state.dir.decide(input.len(), unvisited_count, state.visited, sub.n_edges(), n_vi);
        let cur_label = iter as u32;
        let next_label = cur_label + 1;

        let out = match dir {
            Direction::Forward => {
                push_level(dev, sub, state.labels.as_mut_slice(), bufs, input, next_label)?
            }
            Direction::Backward => {
                let csc = sub.csc.as_ref().expect("the bind refuses a partition without it");
                let labels = &state.labels;
                // The first pull pays the one full vertex scan the switch is
                // charged for; each later one drops the vertices discovered
                // since. Each row stops at its first parent.
                let unvisited = ops::pull_candidates(dev, &mut state.unvisited, n_vi, |v| {
                    labels[v.idx()] == INF
                })?;
                let (newly, scanned) = ops::pull(dev, csc, unvisited, |_, parents| {
                    let first = parents.iter().position(|&p| labels[p.idx()] == cur_label);
                    first.map_or((parents.len(), false), |i| (i + 1, true))
                })?;
                state.pull_edges_scanned += scanned;
                let labels = &mut state.labels;
                let count = newly.len() as u64;
                dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || {
                    for &v in &newly {
                        labels[v.idx()] = next_label;
                    }
                    ((), count)
                })?;
                newly
            }
        };
        state.visited += out.len();
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> u32 {
        state.labels[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u32) -> bool {
        if *msg < state.labels[v.idx()] {
            if state.labels[v.idx()] == INF {
                state.visited += 1;
            }
            state.labels[v.idx()] = *msg;
            true
        } else {
            false
        }
    }

    // Strict min-combine on the depth label; broadcast packages carry one
    // depth for the whole frontier — the shape the DeltaVarint shared
    // payload and the butterfly union both exploit.
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }
    fn uniform_broadcast_msgs(&self) -> Option<bool> {
        Some(true)
    }

    /// DOBFS does not checkpoint (direction state is not captured); the
    /// harvest word is the depth label.
    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        u64::from(state.labels[v.idx()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bfs;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::{Csr, GraphBuilder};
    use mgpu_partition::DistGraph;
    use vgpu::{HardwareProfile, SimSystem, VgpuError};

    /// A finished run's depth labels: its harvest words, `as u32`.
    fn labels(words: Vec<u64>) -> Vec<u32> {
        words.into_iter().map(|w| w as u32).collect()
    }

    fn soc_graph() -> Csr<u32, u64> {
        GraphBuilder::undirected(&preferential_attachment(600, 8, 13))
    }

    fn dist_of(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        dist.build_cscs();
        dist
    }

    fn run_dobfs(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        src: u32,
        cfg: DirectionConfig,
    ) -> (Vec<u32>, mgpu_core::EnactReport, Vec<bool>, u64) {
        let dist = dist_of(g, n_gpus);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Dobfs { direction: cfg }, EnactConfig::default()).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        let switched: Vec<bool> =
            (0..n_gpus).map(|g| runner.state(g).dir.switched_to_backward).collect();
        let scanned: u64 = (0..n_gpus).map(|g| runner.state(g).pull_edges_scanned).sum();
        (labels(runner.harvest()), report, switched, scanned)
    }

    /// Plain BFS (`Bfs`) on the partition `run_dobfs` builds.
    fn run_bfs(g: &Csr<u32, u64>, n_gpus: usize, src: u32) -> (Vec<u32>, mgpu_core::EnactReport) {
        let dist = dist_of(g, n_gpus);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        (labels(runner.harvest()), report)
    }

    /// A partition DOBFS cannot read is a typed error at bind, not a panic.
    fn refusal(dist: &DistGraph<u32, u64>) -> Option<VgpuError> {
        let system = SimSystem::homogeneous(dist.n_parts, HardwareProfile::k40());
        Runner::new(system, dist, Dobfs::default(), EnactConfig::default()).err()
    }

    #[test]
    fn a_partition_without_the_csc_is_refused() {
        let g = soc_graph();
        let dist = DistGraph::build(&g, vec![0; g.n_vertices()], 1, Duplication::All);
        let needs = "the reverse adjacency (DistGraph::build_cscs)";
        assert_eq!(
            refusal(&dist),
            Some(VgpuError::PartitionMismatch { primitive: "DOBFS", needs })
        );
    }

    /// Its broadcast ids are global ids, so a duplicate-1-hop partition is
    /// refused, CSC or not.
    #[test]
    fn a_one_hop_partition_is_refused() {
        let g = soc_graph();
        let owner = (0..g.n_vertices()).map(|v| (v % 2) as u32).collect();
        let mut dist = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        dist.build_cscs();
        let needs = "a duplicate-all partition";
        assert_eq!(
            refusal(&dist),
            Some(VgpuError::PartitionMismatch { primitive: "DOBFS", needs })
        );
    }

    #[test]
    fn matches_reference_on_social_graph() {
        let g = soc_graph();
        let expect = crate::reference::bfs(&g, 0u32);
        for n in [1, 2, 4] {
            let (labels, _, _, _) = run_dobfs(&g, n, 0, DirectionConfig::default());
            assert_eq!(labels, expect, "{n} GPUs");
        }
    }

    #[test]
    fn direction_switch_engages_and_skips_edges() {
        let g = soc_graph();
        let (_, _, switched, scanned) = run_dobfs(&g, 2, 0, DirectionConfig::default());
        assert!(switched.iter().any(|&s| s), "pull mode should engage on a power-law graph");
        assert!(scanned > 0);
        assert!(
            (scanned as usize) < g.n_edges(),
            "edge skipping: scanned {scanned} < |E| {}",
            g.n_edges()
        );
    }

    /// A forward→backward threshold no frontier passes turns the switch off:
    /// DOBFS is then plain BFS, the labels and the advance work of `Bfs`.
    #[test]
    fn disabled_direction_optimization_is_plain_bfs() {
        let g = soc_graph();
        let never = DirectionConfig { do_a: f64::INFINITY, ..Default::default() };
        let (labels, report, switched, scanned) = run_dobfs(&g, 2, 0, never);
        let (bfs_labels, bfs_report) = run_bfs(&g, 2, 0);
        assert_eq!(labels, bfs_labels);
        assert!(switched.iter().all(|&s| !s));
        assert_eq!(scanned, 0);
        assert_eq!(report.totals.w_items, bfs_report.totals.w_items);
    }

    #[test]
    fn dobfs_does_less_w_work_than_bfs_on_power_law() {
        let g = soc_graph();
        let (_, do_report, _, _) = run_dobfs(&g, 1, 0, DirectionConfig::default());
        let (_, bfs_report) = run_bfs(&g, 1, 0);
        assert!(
            do_report.totals.w_items < bfs_report.totals.w_items,
            "DO {} vs plain {}",
            do_report.totals.w_items,
            bfs_report.totals.w_items
        );
    }

    #[test]
    fn broadcast_volume_scales_with_peers() {
        let g = soc_graph();
        let (_, r2, _, _) = run_dobfs(&g, 2, 0, DirectionConfig::default());
        let (_, r4, _, _) = run_dobfs(&g, 4, 0, DirectionConfig::default());
        // H ∈ O((n-1)·|V|): 4 GPUs broadcast to 3 peers each
        assert!(
            r4.totals.h_vertices > 2 * r2.totals.h_vertices,
            "4-GPU H {} should well exceed 2-GPU H {}",
            r4.totals.h_vertices,
            r2.totals.h_vertices
        );
    }
}
