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
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::bfs::gather;
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
    unvisited: Vec<V>,
    /// Number of visited vertices in the local space (`|P|`).
    visited: usize,
    /// True once `unvisited` has been materialized.
    unvisited_built: bool,
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

    fn comm(&self) -> CommStrategy {
        CommStrategy::Broadcast
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        assert_eq!(
            sub.duplication,
            Duplication::All,
            "DOBFS broadcast ids must be global ids (duplicate-all)"
        );
        assert!(
            sub.csc.is_some(),
            "DOBFS needs the reverse adjacency: call DistGraph::build_cscs() before Runner::new"
        );
        Ok(DobfsState {
            labels: dev.alloc(sub.n_vertices())?,
            dir: DirectionState::new(self.direction),
            unvisited: Vec::new(),
            visited: 0,
            unvisited_built: false,
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
        state.unvisited.clear();
        state.unvisited_built = false;
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
                use std::sync::atomic::Ordering::Relaxed;
                // CAS-claimed labels as in push BFS: the discovered set is
                // schedule-independent, so the parallel kernels stay
                // deterministic. The pull path below remains sequential
                // (its scanned-edge charge is early-exit order dependent).
                let labels = vgpu::par::as_atomic_u32(state.labels.as_mut_slice());
                if bufs.scheme().fused() {
                    ops::advance_filter_fused(dev, sub, bufs, input, |_, _, d| {
                        labels[d.idx()]
                            .compare_exchange(INF, next_label, Relaxed, Relaxed)
                            .is_ok()
                            .then_some(d)
                    })?
                } else {
                    let cand = ops::advance(dev, sub, bufs, input, |_, _, d| {
                        (labels[d.idx()].load(Relaxed) == INF).then_some(d)
                    })?;
                    ops::filter(dev, &cand, |v| {
                        labels[v.idx()].compare_exchange(INF, next_label, Relaxed, Relaxed).is_ok()
                    })?
                }
            }
            Direction::Backward => {
                let csc = sub.csc.as_ref().expect("checked at init");
                let labels = &state.labels;
                let (newly, scanned) = if !state.unvisited_built {
                    // The one full vertex scan the switch is charged for.
                    // Branch-free compaction: every id is written and the
                    // cursor moves only past the unvisited ones — a `filter`
                    // mispredicts on the scattered visited set and made this
                    // scan 3x slower on the power-law graphs.
                    let unvisited = &mut state.unvisited;
                    dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                        unvisited.resize(n_vi, V::from_usize(0));
                        let mut len = 0;
                        for (v, &label) in labels.as_slice().iter().enumerate() {
                            unvisited[len] = V::from_usize(v);
                            len += usize::from(label == INF);
                        }
                        unvisited.truncate(len);
                        ((), n_vi as u64)
                    })?;
                    state.unvisited_built = true;
                    ops::advance_pull(dev, csc, &state.unvisited, |_, p| {
                        labels[p.idx()] == cur_label
                    })?
                } else {
                    // Drop the vertices discovered since the last superstep
                    // and scan parents for the rest in one pass: both
                    // closures read the same label snapshot.
                    ops::retain_pull(
                        dev,
                        csc,
                        &mut state.unvisited,
                        |v| labels[v.idx()] == INF,
                        |_, p| labels[p.idx()] == cur_label,
                    )?
                };
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

/// Gather final labels from a finished runner into global vertex order.
pub fn gather_labels<V: Id, O: Id>(
    runner: &Runner<'_, V, O, Dobfs>,
    dist: &DistGraph<V, O>,
) -> Vec<u32> {
    gather(dist, |gpu, local| runner.state(gpu).labels[local.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::EnactConfig;
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::{Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn soc_graph() -> Csr<u32, u64> {
        GraphBuilder::undirected(&preferential_attachment(600, 8, 13))
    }

    fn run_dobfs(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        src: u32,
        cfg: DirectionConfig,
    ) -> (Vec<u32>, mgpu_core::EnactReport, Vec<bool>, u64) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        dist.build_cscs();
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Dobfs { direction: cfg }, EnactConfig::default()).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        let switched: Vec<bool> =
            (0..n_gpus).map(|g| runner.state(g).dir.switched_to_backward).collect();
        let scanned: u64 = (0..n_gpus).map(|g| runner.state(g).pull_edges_scanned).sum();
        (gather_labels(&runner, &dist), report, switched, scanned)
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

    #[test]
    fn disabled_direction_optimization_is_plain_bfs() {
        let g = soc_graph();
        let cfg = DirectionConfig { enabled: false, ..Default::default() };
        let (labels, _, switched, scanned) = run_dobfs(&g, 2, 0, cfg);
        assert_eq!(labels, crate::reference::bfs(&g, 0u32));
        assert!(switched.iter().all(|&s| !s));
        assert_eq!(scanned, 0);
    }

    #[test]
    fn dobfs_does_less_w_work_than_bfs_on_power_law() {
        let g = soc_graph();
        let (_, do_report, _, _) = run_dobfs(&g, 1, 0, DirectionConfig::default());
        let (_, bfs_report, _, _) =
            run_dobfs(&g, 1, 0, DirectionConfig { enabled: false, ..Default::default() });
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
