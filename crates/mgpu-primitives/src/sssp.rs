//! Multi-GPU single-source shortest paths (Table I row 3).
//!
//! Near/far label-correcting relaxation, after Gunrock's SSSP. The pending
//! set a superstep does not relax waits in a per-device *far pile*, binned
//! by tentative distance and kept on the owning device outside the output
//! frontier. Every superstep bins its input into the pile, pulls the lowest
//! buckets into the *near* set, and relaxes the near set's out-edges with
//! one advance kernel (atomicMin on distances, emissions deduplicated by a
//! visit stamp). A parked vertex is read once, when its bucket is pulled —
//! not once per superstep until then. An entry whose vertex has since been
//! re-binned at a lower distance is stale and dropped when read.
//!
//! The pile is pending work the framework cannot see in the frontier, so
//! [`MgpuProblem::parked`] lists its live entries: the default
//! `locally_done` keeps a device with parked work from reporting done, and
//! the checkpoint frontier carries the pile into a resumed run.
//!
//! A vertex re-enters the pile when a shorter path arrives later — the `b`
//! factor of the paper's cost model (`W ∈ O(b·|E_i|)`, `H ∈ O(2b·|B_i|)`,
//! `S ≈ b·D/2`). Relaxing in distance order keeps `b` near 1 on power-law
//! graphs; a narrow window pays for it in supersteps, so the window adapts
//! to the hardware's fixed superstep cost (the `quantum` of [`SsspState`]).
//!
//! Duplication and communication follow BFS: duplicate-all + selective; the
//! message is the new distance.

use std::collections::BTreeMap;

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_graph::Id;
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::INF;

/// Multi-GPU SSSP.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sssp;

/// Kernel launches one superstep of this primitive costs: the bin-and-pull
/// filter and the advance below, the framework's frontier split and one
/// combine.
const LAUNCHES_PER_SUPERSTEP: f64 = 4.0;

/// Per-GPU SSSP state.
#[derive(Debug)]
pub struct SsspState<V: Id> {
    /// Tentative distances, `INF` = unreached. Indexed by local vertex id.
    pub dists: DeviceArray<u32>,
    /// Visit stamps of superstep `iter`: `2·iter` = binned from the input,
    /// `2·iter + 1` = emitted by the advance. `INF`-filled at reset, and
    /// only equality with the current superstep's two values is read, so a
    /// run resumed from a checkpoint at any `iter` starts clean.
    stamp: DeviceArray<u32>,
    /// Superstep-start distance of each near vertex (host scratch, written
    /// for the near set only). Relaxations *read* this and *write* `dists`
    /// through `fetch_min`, so concurrent chunks of the parallel advance see
    /// one consistent source distance whatever the chunk schedule.
    snap: Vec<u32>,
    /// The near set of the current superstep (scratch, reused).
    near: Vec<V>,
    /// The far pile: pending vertices not relaxed yet, binned by the
    /// tentative distance they had when binned. An entry is live while its
    /// vertex's distance still equals the key; a shorter path re-bins the
    /// vertex lower and leaves the old entry stale until a pull reads and
    /// drops it. A vertex is binned only when its distance strictly drops,
    /// so it has at most one live entry.
    pile: BTreeMap<u32, Vec<V>>,
    /// The pile's device footprint. The bucket lists live host-side; this
    /// array carries their accounted capacity, preallocated at `|V_i|` like
    /// a frontier buffer and doubled (a counted reallocation) when the
    /// pile, stale entries included, outgrows it.
    pile_mem: DeviceArray<V>,
    /// Width of the near window in distance units: a pull stops at
    /// `lo + 4·width`.
    width: u32,
    /// Supersteps whose pull stopped at a cap with entries left in the
    /// pile (every other pull drained it).
    pub capped_pulls: u32,
    /// One superstep's fixed cost expressed in advance edges: what the
    /// device could have relaxed in the time a superstep costs before it
    /// does any work. A pull stops once the near set holds this many edges;
    /// `width` doubles while the near set offers less than this and
    /// something is parked (the superstep is overhead-bound) and halves
    /// above four times this (it is work-bound, so a narrower window saves
    /// re-relaxations at no cost in time).
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

    fn reads(&self) -> Reads {
        Reads { reverse: false, weights: true }
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4 + std::mem::size_of::<V>() // one u32 distance and one far-pile slot per vertex
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let p = dev.profile();
        let fixed_us =
            p.superstep_sync_us(sub.n_parts) + LAUNCHES_PER_SUPERSTEP * p.kernel_launch_us;
        let quantum = (fixed_us * p.advance_edges_per_us) as u64;
        Ok(SsspState {
            dists: dev.alloc(sub.n_vertices())?,
            stamp: dev.alloc(sub.n_vertices())?,
            snap: vec![INF; sub.n_vertices()],
            near: Vec::new(),
            pile: BTreeMap::new(),
            pile_mem: dev.alloc_with_capacity(sub.n_vertices())?,
            width: 1,
            capped_pulls: 0,
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
        state.pile.clear();
        state.width = 1;
        state.capped_pulls = 0;
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
        iter: usize,
    ) -> Result<Vec<V>> {
        use std::sync::atomic::Ordering::Relaxed;
        let SsspState { dists, stamp, snap, near, pile, pile_mem, width, capped_pulls, quantum } =
            state;
        let binned = u32::try_from(2 * iter).expect("SSSP stamps count below 2^31 supersteps");
        let emitted = binned + 1;

        // Bin, then pull: one filter kernel. Binning drops duplicates (the
        // local part of the last output and what the combines accepted may
        // overlap), charged two items per input vertex. The pull takes
        // buckets in key order until the near set holds a quantum of edges
        // or the next key is `4·width` past the first live one — at least
        // one live bucket, so every superstep makes progress — and charges
        // one item per entry it reads, dropping the stale ones.
        let (w, q) = (*width, *quantum);
        let (near_edges, held) = dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
            let (dists, stamp) = (dists.as_slice(), stamp.as_mut_slice());
            for &v in input {
                if stamp[v.idx()] != binned {
                    stamp[v.idx()] = binned;
                    pile.entry(dists[v.idx()]).or_default().push(v);
                }
            }
            let held: usize = pile.values().map(Vec::len).sum();
            near.clear();
            let (mut lo, mut edges, mut read) = (None, 0u64, 0u64);
            while let Some(entry) = pile.first_entry() {
                let key = *entry.key();
                if lo.is_some_and(|lo| edges >= q || key - lo >= w.saturating_mul(4)) {
                    break;
                }
                let bucket = entry.remove();
                read += bucket.len() as u64;
                for v in bucket.into_iter().filter(|v| dists[v.idx()] == key) {
                    snap[v.idx()] = key;
                    edges += sub.csr.degree(v) as u64;
                    near.push(v);
                }
                if !near.is_empty() {
                    lo.get_or_insert(key);
                }
            }
            ((edges, held), 2 * input.len() as u64 + read)
        })?;
        let cap = pile_mem.capacity();
        if held > cap {
            dev.ensure_capacity(pile_mem, held.max(2 * cap))?;
        }
        *capped_pulls += u32::from(!pile.is_empty());
        if near_edges < q && !pile.is_empty() {
            *width = w.saturating_mul(2);
        } else if near_edges > 4 * q {
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
                && stamp_a[d.idx()].swap(emitted, Relaxed) != emitted)
                .then_some(d)
        };
        // Unfused, the deduplicated emissions are the materialized (and
        // governed) intermediate; there is nothing left for a filter to drop.
        if bufs.scheme().fused() {
            ops::advance_filter_fused(dev, sub, bufs, near, relax)
        } else {
            ops::advance(dev, sub, bufs, near, relax)
        }
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

    // Every live pile entry is pending work outside the frontier.
    fn parked<'a>(&'a self, state: &'a Self::State) -> impl Iterator<Item = V> + 'a {
        let dists = state.dists.as_slice();
        state.pile.iter().flat_map(move |(&key, bucket)| {
            bucket.iter().copied().filter(move |v| dists[v.idx()] == key)
        })
    }

    // Tentative distances are the recoverable state: the pending set (the
    // frontier plus the live pile) is the checkpointed frontier, and stamps,
    // pile and width restart from a fresh reset.
    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint_word(&self, state: &Self::State, v: V) -> u64 {
        state.dists[v.idx()] as u64
    }

    fn restore_word(&self, state: &mut Self::State, v: V, word: u64) {
        state.dists[v.idx()] = word as u32;
    }

    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        MgpuProblem::<V, O>::checkpoint_word(self, state, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, EnactReport, Runner};
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::{gnm, grid2d, Dataset};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::DistGraph;
    use vgpu::{HardwareProfile, SimSystem};

    /// A finished run's distances: its harvest words, `as u32`.
    fn dists(words: Vec<u64>) -> Vec<u32> {
        words.into_iter().map(|w| w as u32).collect()
    }

    fn run_sssp(g: &Csr<u32, u64>, n_gpus: usize, src: u32) -> Vec<u32> {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Sssp, EnactConfig::default()).unwrap();
        runner.enact(Some(src)).unwrap();
        dists(runner.harvest())
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
        assert_eq!(dists(runner.harvest()), crate::reference::sssp(&g, 0u32));
    }

    /// A checkpoint taken while the far pile holds vertices carries them
    /// into the resumed run. Leaf `i` hangs off the source at weight
    /// `2^(i-1)` and has one child at weight 1: the pull window doubles
    /// each superstep, so the heavy leaves sit in the pile for most of the
    /// run, and a leaf is binned exactly once (it has no other path), so a
    /// leaf in a later checkpoint frontier can only have come from the pile.
    #[test]
    fn a_checkpoint_carries_the_far_pile_into_the_resumed_run() {
        use mgpu_core::{CheckpointSink, RecoveryPolicy};
        const LEAVES: u32 = 24;
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for i in 1..=LEAVES {
            edges.extend([(0, i), (i, LEAVES + i)]);
            weights.extend([1 << (i - 1), 1]);
        }
        let coo = Coo::from_edges(1 + 2 * LEAVES as usize, edges, Some(weights));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % 2) as u32).collect();
        let dist = DistGraph::build(&g, owner, 2, Duplication::All);
        let runner = |interval| {
            let recovery = RecoveryPolicy { checkpoint_interval: interval, ..Default::default() };
            let system = SimSystem::homogeneous(2, HardwareProfile::k40());
            Runner::new(system, &dist, Sssp, EnactConfig { recovery, ..Default::default() })
                .unwrap()
        };
        let supersteps = runner(0).enact(Some(0)).unwrap().iterations;
        assert!(supersteps >= 8, "a run long enough to checkpoint mid-way, got {supersteps}");

        // one checkpoint, half-way through
        let interval = supersteps / 2 + 1;
        let sink = CheckpointSink::new(2, interval);
        runner(interval).enact_resilient(Some(0), None, &sink).0.unwrap();
        let ck = sink.take_complete().expect("one checkpoint");
        assert_eq!(ck.iter, interval);
        assert!(
            ck.frontier.iter().any(|&v| (1..=LEAVES).contains(&v)),
            "a parked leaf rides in the checkpoint frontier {:?}",
            ck.frontier
        );

        let mut resumed = runner(0);
        resumed.enact_resilient(Some(0), Some(&ck), &CheckpointSink::new(2, 0)).0.unwrap();
        assert_eq!(dists(resumed.harvest()), crate::reference::sssp(&g, 0u32));
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
        assert_eq!(dists(runner.harvest()), crate::reference::sssp(&g, 0u32));
        let width = (0..2).map(|gpu| runner.state(gpu).width).max().unwrap();
        (g, width, report)
    }

    /// The bound that would have caught W 4.60 → 7.41 |E|: relaxing in
    /// distance order re-relaxes little on a power-law graph, and a parked
    /// vertex is read once, not once per superstep (1.53 |E| when the whole
    /// pending set was re-split every superstep).
    #[test]
    fn work_stays_near_one_pass_over_the_edges_on_a_power_law_graph() {
        let mut coo = Dataset::by_name("soc-orkut").unwrap().generate(10, 42);
        let (g, width, report) = run_scaled(&mut coo, 10);
        let b = report.totals.w_items as f64 / g.n_edges() as f64;
        assert!(b < 1.35, "W = {b:.2} |E| over {} supersteps", report.iterations);
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
        // a |V|-item snapshot per device per superstep alone would be 2·S·|V|;
        // re-reading every parked vertex every superstep was 0.26·S·|V|
        assert!(
            w < s * g.n_vertices() as u64 / 5,
            "W = {w} items over {s} supersteps of a {}-vertex lattice",
            g.n_vertices()
        );
    }
}
