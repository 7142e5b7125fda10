//! Batched multi-source BFS (MS-BFS): up to 64 traversals per superstep.
//!
//! The k-source workload that BC and query bursts pay as k sequential
//! traversals shares almost all per-vertex work; packing one lane per
//! source into a `u64` bitfield lets a single superstep advance every
//! traversal at once (Then et al.'s MS-BFS idea, mapped onto this
//! framework's BSP substrate):
//!
//! * **State:** per local vertex, `seen` (lanes whose traversal reached the
//!   vertex), `visit` (lanes newly arrived and not yet propagated), `prop`
//!   (the consume-pass snapshot the advance reads), and a vertex-major
//!   `depth[v·lanes + lane]` table filled at first-set — the per-lane BFS
//!   depth is recovered from the superstep index, since every lane starts
//!   at superstep 0 and a lane's bit first reaches a vertex exactly at its
//!   BFS depth.
//! * **Computation:** one consume pass ([`ops::consume_bits`]) plus one
//!   advance per superstep. The advance claims destination bits with
//!   `fetch_or` (the `atomicOr` idiom): `new = prop[u] & !seen[d]`; the
//!   thread that flips a bit writes that lane's depth, and the thread that
//!   makes `visit[d]` transition 0→nonzero emits `d` — exactly one frontier
//!   entry per discovered vertex per superstep. `W ∈ O(|E_i|)` *per batch*,
//!   not per source.
//! * **Communication:** selective; the message is the vertex's new-bit
//!   word (`Msg = u64`, 8 wire bytes, non-uniform payloads — the encodings
//!   size them honestly via the per-vertex paths).
//! * **Combination:** OR-combine — monotone under the
//!   [`MonotoneOrder::OrBits`] lattice, so suppression floors (union of
//!   bits sent) and OR-merging canonicalization apply.
//! * **Convergence:** all frontiers empty; `S` = depth of the *deepest*
//!   single traversal, not the sum over sources.
//!
//! Depth recovery ties lane depths to the superstep counter, so MS-BFS
//! requires the BSP enactors (the async enactor has no supersteps and
//! cannot stamp arrival depths).

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::{CommStrategy, MonotoneOrder};
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::sync::GlobalReduce;
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::INF;

/// Hard lane cap: one bit per source in a machine word.
pub const LANES: usize = 64;

/// Batched multi-source BFS over up to [`LANES`] sources.
#[derive(Debug, Clone)]
pub struct MsBfs {
    /// Global vertex ids, one per lane (lane `i` traverses from
    /// `sources[i]`). Length 1..=64.
    pub sources: Vec<usize>,
}

impl MsBfs {
    /// A batch over the given global source ids (panics unless 1..=64).
    pub fn new(sources: Vec<usize>) -> Self {
        assert!(
            (1..=LANES).contains(&sources.len()),
            "MS-BFS batches 1..={LANES} sources, got {}",
            sources.len()
        );
        MsBfs { sources }
    }

    /// Active lane count (= number of sources).
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }

    /// `n` distinct source ids spread evenly over the vertex space — the
    /// deterministic pick the CLI and benches use for `--sources N`.
    pub fn spread_sources(n: usize, n_vertices: usize) -> Vec<usize> {
        let k = n.clamp(1, LANES).min(n_vertices.max(1));
        (0..k).map(|i| i * n_vertices / k).collect()
    }
}

/// Per-GPU MS-BFS state over the local vertex space.
#[derive(Debug)]
pub struct MsBfsState<V> {
    /// Lanes whose traversal has reached the vertex (the monotone word the
    /// OR-combine grows).
    pub seen: DeviceArray<u64>,
    /// Lanes newly arrived and not yet propagated (consumed by
    /// [`ops::consume_bits`]; for a remote copy, flushed after its package
    /// left on the wire).
    pub visit: DeviceArray<u64>,
    /// The consume-pass snapshot the advance reads.
    pub prop: DeviceArray<u64>,
    /// Vertex-major per-lane depths: `depth[v·lanes + lane]`, `INF` =
    /// unreached.
    pub depth: DeviceArray<u32>,
    /// Remote copies whose `visit` bits were packaged last superstep
    /// (flush list for the next consume pass).
    pub sent: Vec<V>,
    /// Superstep cursor for combine-side depth stamping: bits arriving in
    /// superstep `k` were discovered at depth `k + 1`.
    pub cur_depth: u32,
}

impl<V: Id, O: Id> MgpuProblem<V, O> for MsBfs {
    type State = MsBfsState<V>;
    type Msg = u64;

    fn name(&self) -> &'static str {
        "MS-BFS"
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
        // seen + visit + prop words, plus the per-lane depth table — the
        // 8×-and-more growth the governor's admission must see honestly.
        3 * 8 + 4 * self.lanes()
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let n = sub.n_vertices();
        Ok(MsBfsState {
            seen: dev.alloc(n)?,
            visit: dev.alloc(n)?,
            prop: dev.alloc(n)?,
            depth: dev.alloc(n * self.lanes())?,
            sent: Vec::new(),
            cur_depth: 0,
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _src: Option<V>,
    ) -> Result<Vec<V>> {
        let lanes = self.lanes();
        {
            let MsBfsState { seen, visit, prop, depth, .. } = &mut *state;
            dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                let n = seen.len();
                seen.as_mut_slice().fill(0);
                visit.as_mut_slice().fill(0);
                prop.as_mut_slice().fill(0);
                depth.as_mut_slice().fill(INF);
                ((), n as u64)
            })?;
        }
        state.sent.clear();
        state.cur_depth = 0;
        // Seed every owned source: depth 0 at its lane, bit pending in
        // `visit` for the first consume pass. The enactor's single-source
        // parameter is ignored — the batch carries its own sources.
        let mut frontier: Vec<V> = Vec::new();
        for (lane, &s) in self.sources.iter().enumerate() {
            let Some(local) = sub.from_global(V::from_usize(s)) else { continue };
            if !sub.is_owned(local) {
                continue;
            }
            if state.seen[local.idx()] == 0 {
                frontier.push(local); // a vertex sourcing several lanes enters once
            }
            let bit = 1u64 << lane;
            state.seen[local.idx()] |= bit;
            state.visit[local.idx()] |= bit;
            state.depth[local.idx() * lanes + lane] = 0;
        }
        Ok(frontier)
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
        let lanes = self.lanes();
        let flushed = std::mem::take(&mut state.sent);
        let (active, act) = ops::consume_bits(
            dev,
            &flushed,
            input,
            state.visit.as_mut_slice(),
            state.prop.as_mut_slice(),
        )?;
        if dev.timeline.is_enabled() {
            let at = dev.stream_time(COMPUTE_STREAM);
            dev.timeline.record(vgpu::TraceEvent {
                device: dev.id(),
                stream: COMPUTE_STREAM.0,
                kind: vgpu::TraceKind::Lanes,
                name: "lane-occupancy",
                start_us: at,
                items: u64::from(active.count_ones()),
                bytes: active,
                ..vgpu::TraceEvent::default()
            });
        }
        let depth_next = iter as u32 + 1;
        let out = {
            let prop = state.prop.as_slice();
            let seen = vgpu::par::as_atomic_u64(state.seen.as_mut_slice());
            let visit = vgpu::par::as_atomic_u64(state.visit.as_mut_slice());
            let depth = vgpu::par::as_atomic_u32(state.depth.as_mut_slice());
            // Batched expand: claim new lane bits on the destination with
            // fetch_or. Which thread wins a bit is schedule-dependent, but
            // every writer stores the same depth and the discovered bit set
            // is a pure function of the frontier — set-deterministic, like
            // the single-source CAS claim.
            let expand = |u: V, _e: usize, d: V| -> Option<V> {
                let bits = prop[u.idx()];
                if bits == 0 {
                    return None;
                }
                let new = bits & !seen[d.idx()].load(Relaxed);
                if new == 0 {
                    return None;
                }
                let won = new & !seen[d.idx()].fetch_or(new, Relaxed);
                if won == 0 {
                    return None;
                }
                let mut w = won;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    depth[d.idx() * lanes + b].store(depth_next, Relaxed);
                    w &= w - 1;
                }
                // first 0→nonzero transition emits d exactly once
                (visit[d.idx()].fetch_or(won, Relaxed) == 0).then_some(d)
            };
            if bufs.scheme().fused() {
                ops::advance_filter_fused(dev, sub, bufs, &act, expand)?
            } else {
                // Unfused: the expand already claims, so the contract pass
                // only materializes the (deduplicated) frontier.
                let candidates = ops::advance(dev, sub, bufs, &act, expand)?;
                ops::filter(dev, &candidates, |_| true)?
            }
        };
        // Remote copies flush at the next consume: their pending bits are
        // leaving on the wire via `package` right after this returns.
        state.sent = out.iter().copied().filter(|&v| !sub.is_owned(v)).collect();
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> u64 {
        state.visit[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u64) -> bool {
        let new = *msg & !state.seen[v.idx()];
        if new == 0 {
            return false;
        }
        let lanes = self.lanes();
        let d = state.cur_depth + 1;
        state.seen[v.idx()] |= new;
        let mut w = new;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            state.depth[v.idx() * lanes + b] = d;
            w &= w - 1;
        }
        state.visit[v.idx()] |= new;
        true
    }

    // OR-combine over the lane bitfield: monotone under the or-bits
    // lattice — floors are bit unions, canonical duplicates merge by OR,
    // and payloads are non-uniform (every vertex carries its own bit set).
    fn monotone(&self) -> bool {
        true
    }
    fn monotone_order(&self) -> MonotoneOrder {
        MonotoneOrder::OrBits
    }
    fn suppression_key(&self, msg: &u64) -> u64 {
        *msg
    }
    fn merge_msgs(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }

    fn after_superstep(&self, state: &mut Self::State, _reduce: &GlobalReduce, iter: usize) {
        // `iter` is already the index of the NEXT superstep: bits combined
        // during it were claimed by its advance at depth `iter + 1`.
        state.cur_depth = iter as u32;
    }
}

/// Gather per-lane depths in global vertex order: `result[lane][g]` is the
/// BFS depth of global vertex `g` from `sources[lane]` (`INF` = unreached).
pub fn gather_lane_depths<V: Id, O: Id>(
    runner: &Runner<'_, V, O, MsBfs>,
    dist: &DistGraph<V, O>,
    lanes: usize,
) -> Vec<Vec<u32>> {
    // one `locate` per vertex, then its contiguous lane row: the per-lane
    // `gather` resolved every vertex `lanes` times and read with a row stride
    let mut out: Vec<Vec<u32>> = (0..lanes).map(|_| Vec::with_capacity(dist.n_global)).collect();
    for g in 0..dist.n_global {
        let (gpu, local) = dist.locate(V::from_usize(g));
        let row = &runner.state(gpu).depth.as_slice()[local.idx() * lanes..][..lanes];
        for (lane, &d) in out.iter_mut().zip(row) {
            lane.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, EnactReport};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run_ms_bfs(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        sources: Vec<usize>,
        config: EnactConfig,
    ) -> (Vec<Vec<u32>>, EnactReport) {
        let prim = MsBfs::new(sources);
        let lanes = prim.lanes();
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, prim, config).unwrap();
        let report = runner.enact(None).unwrap();
        (gather_lane_depths(&runner, &dist, lanes), report)
    }

    fn ladder() -> Csr<u32, u64> {
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
    fn lane_depths_match_per_source_reference() {
        let g = ladder();
        let sources = vec![0usize, 5, 15];
        for n_gpus in [1, 2, 4] {
            let (depths, _) = run_ms_bfs(&g, n_gpus, sources.clone(), EnactConfig::default());
            for (lane, &s) in sources.iter().enumerate() {
                assert_eq!(
                    depths[lane],
                    crate::reference::bfs(&g, s as u32),
                    "{n_gpus} GPUs, lane {lane} (source {s})"
                );
            }
        }
    }

    #[test]
    fn batch_completes_in_the_deepest_traversals_supersteps() {
        let g = ladder();
        // all 16 vertices as sources: 16 lanes, one superstep count
        let sources: Vec<usize> = (0..16).collect();
        let (depths, report) = run_ms_bfs(&g, 2, sources.clone(), EnactConfig::default());
        let deepest = sources
            .iter()
            .map(|&s| {
                crate::reference::bfs(&g, s as u32).into_iter().filter(|&d| d != INF).max().unwrap()
            })
            .max()
            .unwrap() as usize;
        assert_eq!(report.iterations, deepest + 1, "deepest lane + one empty-frontier step");
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(depths[lane], crate::reference::bfs(&g, s as u32), "lane {lane}");
        }
    }

    #[test]
    fn one_vertex_may_source_several_lanes() {
        let g = ladder();
        let (depths, _) = run_ms_bfs(&g, 2, vec![3, 3, 12], EnactConfig::default());
        assert_eq!(depths[0], depths[1], "duplicate source lanes agree");
        assert_eq!(depths[0], crate::reference::bfs(&g, 3u32));
        assert_eq!(depths[2], crate::reference::bfs(&g, 12u32));
    }

    #[test]
    fn disconnected_lanes_stay_inf() {
        let coo = Coo::from_edges(6, vec![(0, 1), (1, 2)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (depths, _) = run_ms_bfs(&g, 2, vec![0, 4], EnactConfig::default());
        assert_eq!(depths[0], vec![0, 1, 2, INF, INF, INF]);
        assert_eq!(depths[1], vec![INF, INF, INF, INF, 0, INF]);
    }

    #[test]
    fn unfused_scheme_gives_same_answer() {
        let g = ladder();
        let config = EnactConfig { alloc_scheme: Some(AllocScheme::Max), ..Default::default() };
        let (depths, _) = run_ms_bfs(&g, 2, vec![0, 7, 9], config);
        for (lane, s) in [0u32, 7, 9].into_iter().enumerate() {
            assert_eq!(depths[lane], crate::reference::bfs(&g, s), "lane {lane}");
        }
    }

    #[test]
    fn spread_sources_are_distinct_and_in_range() {
        let s = MsBfs::spread_sources(64, 1000);
        assert_eq!(s.len(), 64);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| v < 1000));
        assert_eq!(MsBfs::spread_sources(8, 4), vec![0, 1, 2, 3], "clamped to the vertex count");
    }

    /// The batched engine's answer is a property of the graph, nothing else:
    /// across GPU counts, kernel-thread counts, broadcast topologies, and
    /// wire encodings, every lane's depths are bit-equal to an independent
    /// single-source reference, and within each cell the two thread counts
    /// produce the *same simulation* (identical counters, clocks, traffic).
    #[test]
    fn matrix_lane_depths_are_invariant_across_the_config_space() {
        use mgpu_core::{CommStrategy, CommTopology, WireEncoding};
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::gnm(48, 144, 7));
        let sources = MsBfs::spread_sources(16, 48);
        let refs: Vec<Vec<u32>> =
            sources.iter().map(|&s| crate::reference::bfs(&g, s as u32)).collect();
        for n_gpus in [2usize, 4, 8] {
            for topo in [CommTopology::Direct, CommTopology::Butterfly] {
                for enc in [WireEncoding::Auto, WireEncoding::Bitmap] {
                    let mut reports: Vec<EnactReport> = Vec::new();
                    for threads in [1usize, 4] {
                        let config = EnactConfig {
                            kernel_threads: Some(threads),
                            comm_topology: topo,
                            wire_encoding: enc,
                            // the butterfly collective only engages on
                            // broadcast supersteps, so those cells override
                            // MS-BFS's selective preference
                            comm: (topo == CommTopology::Butterfly)
                                .then_some(CommStrategy::Broadcast),
                            ..EnactConfig::default()
                        };
                        let (depths, report) = run_ms_bfs(&g, n_gpus, sources.clone(), config);
                        let cell = format!("{n_gpus} GPUs, {threads} threads, {topo:?}, {enc:?}");
                        for (lane, r) in refs.iter().enumerate() {
                            assert_eq!(&depths[lane], r, "{cell}, lane {lane}");
                        }
                        if topo == CommTopology::Butterfly && n_gpus > 2 {
                            assert!(
                                report.comm.collective_stages > 0,
                                "{cell}: the butterfly must actually stage"
                            );
                        }
                        reports.push(report);
                    }
                    assert!(
                        reports[0].same_simulation(&reports[1]),
                        "{n_gpus} GPUs, {topo:?}, {enc:?}: kernel threads are a wall-clock \
                         knob and must not perturb the simulation"
                    );
                }
            }
        }
    }

    /// The 64-lane state honestly prices its 8×-plus growth over
    /// single-source BFS (24 bitfield bytes + 4 per lane vs 4 flat): inside
    /// the capacity window between the two footprints the governor admits
    /// BFS and refuses MS-BFS at bind time with a typed OOM.
    #[test]
    fn admission_prices_the_lane_scaled_state() {
        use mgpu_core::governor::estimate_footprint;
        use mgpu_core::{MgpuProblem, PressurePolicy};
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::gnm(96, 288, 5));
        let n_gpus = 2usize;
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(&g, owner, n_gpus, Duplication::All);
        let prim = MsBfs::new(MsBfs::spread_sources(64, g.n_vertices()));
        let state_bytes = <MsBfs as MgpuProblem<u32, u64>>::state_bytes_per_vertex(&prim);
        assert_eq!(state_bytes, 24 + 4 * 64, "3 bitfield words + a u32 depth per lane");
        let floor = |state: usize, msg: usize| {
            dist.parts
                .iter()
                .map(|sub| {
                    estimate_footprint(
                        AllocScheme::JustEnough,
                        CommStrategy::Selective,
                        dist.n_parts,
                        sub.n_vertices(),
                        sub.n_edges(),
                        sub.topology_bytes(),
                        state,
                        4,
                        msg,
                    )
                    .total()
                })
                .max()
                .unwrap()
        };
        let bfs_floor = floor(4, 4);
        let ms_floor = floor(state_bytes, 8);
        assert!(bfs_floor < ms_floor, "64 lanes must cost strictly more per vertex");
        let cap = (bfs_floor + ms_floor) / 2;
        let config = EnactConfig {
            alloc_scheme: Some(AllocScheme::JustEnough),
            pressure: PressurePolicy::governed(),
            ..EnactConfig::default()
        };
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40().with_capacity(cap));
        match Runner::new(system, &dist, prim, config) {
            Err(vgpu::VgpuError::OutOfMemory { .. }) => {}
            Err(e) => panic!("expected a typed OOM at admission, got {e}"),
            Ok(_) => panic!("the 64-lane bind must be refused at admission"),
        }
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40().with_capacity(cap));
        let mut bfs = Runner::new(system, &dist, crate::Bfs::default(), config)
            .expect("the same budget admits single-source BFS");
        bfs.enact(Some(0u32)).expect("and it runs to completion");
    }

    /// A fully instrumented run — tracing + suppression + auto encoding over
    /// the butterfly — reconciles exactly: the profile built from the trace
    /// matches the report's counters, and the per-superstep lane occupancy
    /// the batch records peaks at the full lane count.
    #[test]
    fn traced_run_reconciles_and_records_lane_occupancy() {
        use mgpu_core::{CommStrategy, CommTopology, Profile, WireEncoding};
        let g = ladder();
        let sources = vec![0usize, 5, 9, 15];
        let config = EnactConfig {
            tracing: true,
            suppression: true,
            wire_encoding: WireEncoding::Auto,
            comm_topology: CommTopology::Butterfly,
            comm: Some(CommStrategy::Broadcast),
            ..EnactConfig::default()
        };
        let (depths, report) = run_ms_bfs(&g, 4, sources.clone(), config);
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(depths[lane], crate::reference::bfs(&g, s as u32), "lane {lane}");
        }
        let trace = report.trace.as_ref().expect("tracing was on");
        let profile = Profile::from_trace(trace);
        profile.reconcile(&report).expect("trace must reconcile with the report");
        let peak_lanes = profile.per_superstep.iter().map(|r| r.lanes).max().unwrap_or(0);
        assert_eq!(
            peak_lanes,
            sources.len() as u64,
            "every lane is active in the first superstep, and the trace must see it"
        );
    }

    #[test]
    fn wire_bytes_price_the_eight_byte_payload() {
        let g = ladder();
        let paper_wire = EnactConfig {
            wire_encoding: mgpu_core::WireEncoding::List,
            suppression: false,
            ..EnactConfig::default()
        };
        let (_, report) = run_ms_bfs(&g, 2, vec![0, 15], paper_wire);
        let t = &report.totals;
        assert!(t.h_vertices > 0, "cut edges force communication");
        // list encoding: id (4) + bitfield payload (8) per vertex, one tag
        // byte per package
        assert_eq!(t.h_bytes_sent, t.h_messages + t.h_vertices * 12);
    }
}
