//! Delta-stepping SSSP — the prioritized variant (Meyer & Sanders).
//!
//! §II-A credits Groute's strong results on "high-diameter,
//! road-network-like graphs, and primitives that can benefit from
//! prioritized data communication, such as SSSP" — the mechanism behind
//! that is bucketed prioritization. This primitive implements
//! delta-stepping *inside* the paper's BSP framework: tentative distances
//! are bucketed by `⌊dist/Δ⌋`; each superstep relaxes the globally smallest
//! non-empty bucket. A small Δ trades more supersteps for far fewer
//! re-relaxations (a smaller `b` factor) than one bucket holding every
//! distance (`delta: u32::MAX`, the frontier Bellman–Ford); both are fixed
//! arms of `repro ablation` §4, where [`crate::Sssp`]'s adaptive near
//! window is the third.
//!
//! Global bucket coordination rides the framework's superstep reduction:
//! each GPU contributes `-(its minimum non-empty bucket)` to the `f64_max`
//! reduction, so every GPU learns the global minimum bucket and processes
//! the same priority level in the same superstep.

use std::collections::BTreeMap;

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::sync::{Contribution, GlobalReduce};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::bfs::gather;
use crate::INF;

/// Delta-stepping SSSP.
#[derive(Debug, Clone, Copy)]
pub struct SsspDelta {
    /// Bucket width Δ. With the paper's [0, 64] weights, Δ≈32 works well;
    /// Δ=1 degenerates to Dijkstra-like strictness, Δ=∞ to Bellman–Ford.
    pub delta: u32,
}

impl Default for SsspDelta {
    fn default() -> Self {
        SsspDelta { delta: 32 }
    }
}

/// Per-GPU delta-stepping state.
#[derive(Debug)]
pub struct SsspDeltaState<V: Id> {
    /// Tentative distances (`INF` = unreached).
    pub dists: DeviceArray<u32>,
    /// Pending vertices by bucket id `⌊dist/Δ⌋` (local ids; a vertex may
    /// appear in a stale bucket — filtered against `dists` when processed).
    /// Only live buckets have an entry, so memory is bounded by the pending
    /// set, not by the largest distance over Δ.
    buckets: BTreeMap<u32, Vec<V>>,
    /// The bucket this superstep will process (set from the reduction).
    current: u32,
    /// Work counter: relaxations performed (the `b`-factor numerator).
    pub relaxations: u64,
}

impl<V: Id> SsspDeltaState<V> {
    fn push(&mut self, v: V, dist: u32, delta: u32) {
        self.buckets.entry(dist / delta.max(1)).or_default().push(v);
    }

    /// The least live bucket (an entry is removed when it is taken, and only
    /// `push` creates one, so no entry is empty).
    fn min_nonempty(&self) -> Option<u32> {
        self.buckets.keys().next().copied()
    }
}

impl<V: Id, O: Id> MgpuProblem<V, O> for SsspDelta {
    type State = SsspDeltaState<V>;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "SSSP(Δ)"
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

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        Ok(SsspDeltaState {
            dists: dev.alloc(sub.n_vertices())?,
            buckets: BTreeMap::new(),
            current: 0,
            relaxations: 0,
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        _sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>> {
        let dists = &mut state.dists;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            dists.as_mut_slice().fill(INF);
            let n = dists.len();
            ((), n as u64)
        })?;
        state.buckets.clear();
        state.current = 0;
        state.relaxations = 0;
        Ok(match src {
            Some(s) => {
                state.dists[s.idx()] = 0;
                state.push(s, 0, self.delta);
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
        _input: &[V],
        _iter: usize,
    ) -> Result<Vec<V>> {
        // Take the current bucket; keep only vertices that still belong to
        // it (a vertex relaxed to a smaller distance was re-bucketed).
        let cur = state.current;
        let frontier: Vec<V> = if let Some(raw) = state.buckets.remove(&cur) {
            let delta = self.delta;
            let dists = &state.dists;
            let count = raw.len() as u64;
            dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
                let f: Vec<V> = raw
                    .into_iter()
                    .filter(|&v| dists[v.idx()] != INF && dists[v.idx()] / delta.max(1) == cur)
                    .collect();
                (f, count)
            })?
        } else {
            Vec::new()
        };

        // Relax the bucket's out-edges; re-bucket improved vertices.
        let delta = self.delta;
        let mut relaxed: Vec<(V, u32)> = Vec::new();
        {
            let dists = &mut state.dists;
            let mut relax_count = 0u64;
            // Sequential on purpose: the closure threads mutable relaxation
            // state (dists writes read by later edges in the same pass).
            ops::advance_filter_fused_seq(dev, sub, &frontier, |s, e, d| {
                let nd = dists[s.idx()].saturating_add(sub.csr.edge_weight(e));
                if nd < dists[d.idx()] {
                    dists[d.idx()] = nd;
                    relax_count += 1;
                    relaxed.push((d, nd));
                    Some(d)
                } else {
                    None
                }
            })?;
            state.relaxations += relax_count;
        }
        let mut out = Vec::with_capacity(relaxed.len());
        for (v, nd) in relaxed {
            state.push(v, nd, delta);
            out.push(v);
        }
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> u32 {
        state.dists[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u32) -> bool {
        if *msg < state.dists[v.idx()] {
            state.dists[v.idx()] = *msg;
            state.push(v, *msg, self.delta);
            true
        } else {
            false
        }
    }

    // Strict min-combine on the tentative distance. Delta-stepping's bucket
    // re-expansions emit the same boundary vertices repeatedly, so the
    // suppression cache fires here more than anywhere else.
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }

    fn locally_done(&self, state: &Self::State, _next_input: &[V]) -> bool {
        state.min_nonempty().is_none()
    }

    fn contribution(&self, state: &Self::State, next_input: &[V]) -> Contribution {
        // Contribute -(min non-empty bucket) so the f64_max reduction yields
        // the global minimum bucket.
        Contribution {
            u64_add: next_input.len() as u64,
            f64_max: state.min_nonempty().map_or(f64::NEG_INFINITY, |b| -(b as f64)),
            ..Contribution::default()
        }
    }

    fn after_superstep(&self, state: &mut Self::State, reduce: &GlobalReduce, _iter: usize) {
        if reduce.f64_max.is_finite() {
            state.current = (-reduce.f64_max) as u32;
        }
    }

    fn max_iterations(&self) -> usize {
        1_000_000 // buckets bound progress; this is a safety net
    }
}

/// Gather final distances in global vertex order.
pub fn gather_dists<V: Id, O: Id>(
    runner: &Runner<'_, V, O, SsspDelta>,
    dist: &DistGraph<V, O>,
) -> Vec<u32> {
    gather(dist, |gpu, local| runner.state(gpu).dists[local.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::EnactConfig;
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::{gnm, grid2d};
    use mgpu_graph::{Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run(g: &Csr<u32, u64>, n: usize, delta: u32, src: u32) -> (Vec<u32>, u64) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n) as u32).collect();
        let dist = DistGraph::build(g, owner, n, Duplication::All);
        let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
        let mut runner =
            Runner::new(sys, &dist, SsspDelta { delta }, EnactConfig::default()).unwrap();
        runner.enact(Some(src)).unwrap();
        let relax = (0..n).map(|g| runner.state(g).relaxations).sum();
        (gather_dists(&runner, &dist), relax)
    }

    #[test]
    fn matches_dijkstra_across_gpu_counts_and_deltas() {
        let mut coo = gnm(100, 500, 61);
        add_paper_weights(&mut coo, 62);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let expect = crate::reference::sssp(&g, 0u32);
        for n in [1usize, 2, 4] {
            for delta in [1u32, 16, 64, 1 << 20] {
                let (d, _) = run(&g, n, delta, 0);
                assert_eq!(d, expect, "{n} GPUs, delta {delta}");
            }
        }
    }

    /// 0 —0— 1 —(2³¹−1)— 2 —5— 3
    fn huge_middle_weight() -> Csr<u32, u64> {
        let weights = Some(vec![0, u32::MAX / 2, 5]);
        GraphBuilder::undirected(&mgpu_graph::Coo::from_edges(
            4,
            vec![(0, 1), (1, 2), (2, 3)],
            weights,
        ))
    }

    #[test]
    fn zero_and_max_weights_are_safe() {
        let g = huge_middle_weight();
        let (d, _) = run(&g, 2, 32, 0);
        assert_eq!(d, crate::reference::sssp(&g, 0u32));
    }

    /// Δ = 1 puts the far end in bucket 2³¹ − 1: storage keyed by live bucket
    /// ids holds a handful of entries there, a dense bucket array two billion.
    #[test]
    fn bucket_storage_is_bounded_by_the_pending_set_not_the_largest_distance() {
        let g = huge_middle_weight();
        let t0 = std::time::Instant::now();
        let (d, _) = run(&g, 2, 1, 0);
        assert_eq!(d, crate::reference::sssp(&g, 0u32));
        assert!(t0.elapsed().as_secs() < 2, "took {:?}", t0.elapsed());
    }

    #[test]
    fn small_delta_relaxes_fewer_edges_than_bellman_ford() {
        // Road-like topology with wide weights: the prioritized variant
        // should waste fewer relaxations (the Groute effect).
        let mut coo = grid2d(40, 40, 1.0, 5);
        add_paper_weights(&mut coo, 6);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (_, relax_prio) = run(&g, 2, 16, 0);

        // Bellman-Ford-style: one giant bucket
        let (_, relax_bf) = run(&g, 2, 1 << 30, 0);
        assert!(
            relax_prio < relax_bf,
            "prioritized {relax_prio} should need fewer relaxations than Bellman-Ford {relax_bf}"
        );
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let coo = mgpu_graph::Coo::from_edges(5, vec![(0, 1)], Some(vec![3]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (d, _) = run(&g, 2, 8, 0);
        assert_eq!(d, vec![0, 3, INF, INF, INF]);
    }
}
