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
//!   (the consume-pass snapshot the advance reads), and a row-major
//!   `depth[row·lanes + lane]` table with one row per *owned* vertex
//!   (`row_of` maps a local vertex to its row; proxies have none) — the
//!   per-lane BFS depth is recovered from the superstep index, since every
//!   lane starts at superstep 0 and a lane's bit first reaches a vertex
//!   exactly at its BFS depth.
//! * **Computation:** one consume pass ([`ops::consume_bits`]) plus one
//!   advance per superstep, read from whichever side of the local edges is
//!   cheaper (below). The push side claims destination bits with
//!   `fetch_or` (the `atomicOr` idiom): `new = prop[u] & !seen[d]`; the
//!   thread that makes `visit[d]` transition 0→nonzero emits `d` — exactly
//!   one frontier entry per discovered vertex per superstep. `W ∈ O(|E_i|)`
//!   *per batch*, not per source.
//! * **Depths:** stamped once per owned vertex per superstep, inside the
//!   consume pass: every bit it takes from `visit` into `prop` arrived at
//!   depth `iter` (claimed locally or received through `combine` in the
//!   superstep before), and every vertex that gained bits is in the next
//!   input (owned winners in the local part, combined vertices added to the
//!   frontier). Neither the claim nor `combine` writes a depth, so the
//!   scattered per-lane stores leave the edge loop; the charged items do
//!   not change.
//! * **Communication:** selective; the message is the vertex's new-bit
//!   word (`Msg = u64`, 8 wire bytes, non-uniform payloads — the encodings
//!   size them honestly via the per-vertex paths).
//! * **Combination:** OR-combine — monotone under the
//!   [`MonotoneOrder::OrBits`] lattice, so OR-merging canonicalization
//!   applies.
//! * **Convergence:** all frontiers empty; `S` = depth of the *deepest*
//!   single traversal, not the sum over sources.
//!
//! Depth recovery ties lane depths to the superstep counter: a lane's
//! depth is the superstep its bit arrived in. A depth is a `u32` below [`INF`]
//! (`u32::MAX`, "unreached"), so a batch may run at most `u32::MAX − 1`
//! supersteps; one more panics (a lost device, a typed error to the
//! caller) rather than stamping a depth that reads as unreached.
//!
//! ## Each level reads the cheaper side of its edges
//!
//! Late in a batch the frontier covers most of the graph while almost every
//! target already holds every lane, so a push reads many edges to set a few
//! bits. The other side is the CSC (which MS-BFS therefore requires, as
//! DOBFS and BC do): *pull* has every local vertex still missing a lane OR
//! the `prop` words of its in-neighbours, and stop as soon as it holds every
//! lane. The CSC is the transpose of this device's own edges (their
//! structure only: no weights), so every in-neighbour is an owned vertex
//! whose `prop` is exact, and no broadcast is needed. The `prop` word of a
//! vertex not active this superstep is stale, but its bits reached every
//! out-neighbour in the superstep that spread them, so they add nothing.
//! Pull claims and emits exactly as push does, so the emitted
//! `(vertex, word)` set — and with it every message, `H` and `S` — does not
//! depend on the side; only `W` does.
//!
//! A device picks, per superstep, on exact counts and no threshold, by the
//! rule BC's forward sweep uses too ([`PullSide`]): pull iff
//! `open_in + scan < push_edges`, where a vertex closes once it holds every
//! lane. `open_in` counts the in-edges of the vertices still missing a lane,
//! which bounds what a pull reads (each row stops early once its vertex
//! fills), so a device never pulls more edges than it would push. Either
//! advance counts the in-edges of the vertices it fills; `combine` lists
//! the ones it fills for the next decision.

use std::sync::atomic::AtomicU64;

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::{CommStrategy, MonotoneOrder};
use mgpu_core::direction::PullSide;
use mgpu_core::ops;
use mgpu_core::problem::MgpuProblem;
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, Reads, SubGraph};
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

    /// The word of a vertex every lane has reached.
    fn full(&self) -> u64 {
        u64::MAX >> (LANES - self.lanes())
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
    /// Local vertex → its row of `depth`: owned vertices are numbered
    /// `0..n_local` in local id order, proxies hold `u32::MAX`.
    pub row_of: DeviceArray<u32>,
    /// Per-lane depths of the owned vertices only: `depth[row·lanes + lane]`
    /// for `row = row_of[v]`, valid where the lane's `seen` bit is set (a
    /// clear bit reads as unreached, `INF`, in [`gather_lane_depths`]).
    /// Proxies are never stamped or read, so they hold no row.
    pub depth: DeviceArray<u32>,
    /// Remote copies whose `visit` bits were packaged last superstep
    /// (flush list for the next consume pass).
    pub sent: Vec<V>,
    /// The push-or-pull rule; a vertex closes when it holds every lane,
    /// and `pull.pull_levels` counts the supersteps this device pulled
    /// (read the in-edge side).
    pub pull: PullSide<V>,
}

/// `row_of` at a proxy: the vertex has no depth row on this device.
const NO_ROW: u32 = u32::MAX;

/// The depth a bit claimed in superstep `iter` carries, `iter + 1`, which
/// must stay below [`INF`].
fn depth_after(iter: usize) -> u32 {
    match u32::try_from(iter + 1) {
        Ok(d) if d < INF => d,
        _ => panic!("MS-BFS depth {} is past the u32 range below INF", iter + 1),
    }
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

    fn reads(&self) -> Reads {
        Reads { reverse: true, weights: false }
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        // seen + visit + prop words and the `row_of` entry, plus the
        // per-lane depth table — the 8×-and-more growth the governor's
        // admission must see honestly. The depth rows exist for owned
        // vertices only, so this bounds a part's state from above and is
        // exact where one device owns every vertex.
        3 * 8 + 4 + 4 * self.lanes()
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let n = sub.n_vertices();
        let mut row_of = vec![NO_ROW; n];
        for (row, v) in (0..n).filter(|&v| sub.is_owned(V::from_usize(v))).enumerate() {
            row_of[v] = row as u32;
        }
        Ok(MsBfsState {
            seen: dev.alloc(n)?,
            visit: dev.alloc(n)?,
            prop: dev.alloc(n)?,
            row_of: dev.upload(&row_of)?,
            depth: dev.alloc(sub.n_local * self.lanes())?,
            sent: Vec::new(),
            pull: PullSide::default(),
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _src: Option<V>,
    ) -> Result<Vec<V>> {
        {
            // The depth rows keep the last batch's stamps: a lane's depth is
            // read only where its `seen` bit is set, and then it is stamped.
            let MsBfsState { seen, visit, prop, .. } = &mut *state;
            dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                let n = seen.len();
                seen.as_mut_slice().fill(0);
                visit.as_mut_slice().fill(0);
                prop.as_mut_slice().fill(0);
                ((), n as u64)
            })?;
        }
        state.sent.clear();
        // Seed every owned source: its lane bit pending in `visit`, which the
        // first consume pass stamps at depth 0. The enactor's single-source
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
        }
        // a source of every lane (one lane, or one vertex sourcing them all)
        // starts full
        let csc = sub.csc.as_ref().expect("the bind refuses a partition without it");
        let full_in: usize = frontier
            .iter()
            .filter(|v| state.seen[v.idx()] == self.full())
            .map(|&v| csc.degree(v))
            .sum();
        state.pull.reset((csc.n_edges() - full_in) as u64);
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
        // Claims this superstep arrive at `iter + 1`, which must stay below
        // INF; the bits the consume takes arrived at `iter`.
        let arrived_at = depth_after(iter) - 1;
        let flushed = std::mem::take(&mut state.sent);
        let row_of = state.row_of.as_slice();
        let depth = state.depth.as_mut_slice();
        let (active, act) = ops::consume_bits(
            dev,
            &flushed,
            input,
            state.visit.as_mut_slice(),
            state.prop.as_mut_slice(),
            |v, bits| {
                // every bit taken from `visit` arrived this superstep, by a
                // local claim or through `combine`; only owned vertices have
                // a row to stamp
                let row = row_of[v.idx()];
                if row != NO_ROW {
                    let row = &mut depth[row as usize * lanes..][..lanes];
                    let mut w = bits;
                    while w != 0 {
                        row[w.trailing_zeros() as usize] = arrived_at;
                        w &= w - 1;
                    }
                }
            },
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
        let full = self.full();
        let csc = sub.csc.as_ref().expect("the bind refuses a partition without it");
        // The decision: push reads the active frontier's out-rows, pull
        // scans its candidates and at most the in-rows of every vertex still
        // missing a lane here.
        let pull = state.pull.decide(dev, sub, &act)?;
        let candidates = if pull {
            let seen = state.seen.as_slice();
            ops::pull_candidates(dev, &mut state.pull.candidates, seen.len(), |v| {
                seen[v.idx()] != full && csc.degree(v) > 0
            })?
        } else {
            &[]
        };
        let filled_in = AtomicU64::new(0);
        let out = {
            let prop = state.prop.as_slice();
            let seen = vgpu::par::as_atomic_u64(state.seen.as_mut_slice());
            let visit = vgpu::par::as_atomic_u64(state.visit.as_mut_slice());
            // Settle the bits `won` just claimed on `d`, whose word was
            // `prev`: count the in-edges of a vertex that now holds every
            // lane (only the claim that fills the word sees
            // `prev | won == full`), and emit `d` on its `visit` word's first
            // 0→nonzero transition — once per superstep. The next consume
            // stamps the lane depths.
            let settle = |d: V, prev: u64, won: u64| -> Option<V> {
                if prev | won == full {
                    filled_in.fetch_add(csc.degree(d) as u64, Relaxed);
                }
                (visit[d.idx()].fetch_or(won, Relaxed) == 0).then_some(d)
            };
            if pull {
                // Each row stops once the vertex holds every lane.
                ops::pull(dev, csc, candidates, |v, parents| {
                    let have = seen[v.idx()].load(Relaxed);
                    let mut found = 0u64;
                    let read = parents
                        .iter()
                        .position(|&u| {
                            found |= prop[u.idx()];
                            have | found == full
                        })
                        .map_or(parents.len(), |i| i + 1);
                    let won = found & !have;
                    if won == 0 {
                        return (read, false);
                    }
                    seen[v.idx()].fetch_or(won, Relaxed);
                    (read, settle(v, have, won).is_some())
                })?
                .0
            } else {
                // Batched expand: claim new lane bits on the destination with
                // fetch_or. Which thread wins a bit is schedule-dependent,
                // but the discovered bit set is a pure function of the
                // frontier — set-deterministic, like the single-source CAS
                // claim.
                let expand = |u: V, _e: usize, d: V| -> Option<V> {
                    let bits = prop[u.idx()];
                    if bits == 0 {
                        return None;
                    }
                    let new = bits & !seen[d.idx()].load(Relaxed);
                    if new == 0 {
                        return None;
                    }
                    let prev = seen[d.idx()].fetch_or(new, Relaxed);
                    let won = new & !prev;
                    if won == 0 {
                        return None;
                    }
                    settle(d, prev, won)
                };
                if bufs.scheme().fused() {
                    ops::advance_filter_fused(dev, sub, bufs, &act, expand)?
                } else {
                    // Unfused: the expand already claims, so the contract
                    // pass only materializes the (deduplicated) frontier.
                    let candidates = ops::advance(dev, sub, bufs, &act, expand)?;
                    ops::filter(dev, &candidates, |_| true)?
                }
            }
        };
        state.pull.open_in -= filled_in.into_inner();
        // Remote copies flush at the next consume: their pending bits are
        // leaving on the wire via `package` right after this returns.
        state.sent = out.iter().copied().filter(|&v| !sub.is_owned(v)).collect();
        Ok(out)
    }

    fn package(&self, state: &Self::State, v: V) -> u64 {
        state.visit[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &u64) -> bool {
        let had = state.seen[v.idx()];
        let new = *msg & !had;
        if new == 0 {
            return false;
        }
        state.seen[v.idx()] |= new;
        if had | new == self.full() {
            state.pull.arrived.push(v);
        }
        // pending for the next consume, which stamps the depths
        state.visit[v.idx()] |= new;
        true
    }

    // OR-combine over the lane bitfield: monotone under the or-bits
    // lattice — canonical duplicates merge by OR, and payloads are
    // non-uniform (every vertex carries its own bit set).
    fn monotone(&self) -> bool {
        true
    }
    fn monotone_order(&self) -> MonotoneOrder {
        MonotoneOrder::OrBits
    }
    fn monotone_key(&self, msg: &u64) -> u64 {
        *msg
    }
    fn merge_msgs(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }

    /// The reached-lane bitfield: bit `l` is set iff lane `l`'s traversal
    /// reached the vertex (its depths are in [`gather_lane_depths`]).
    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        state.seen[v.idx()]
    }
}

/// Gather per-lane depths in global vertex order: `result[lane][g]` is the
/// BFS depth of global vertex `g` from `sources[lane]` (`INF` = unreached).
pub fn gather_lane_depths<V: Id, O: Id>(
    runner: &Runner<'_, V, O, MsBfs>,
    dist: &DistGraph<V, O>,
    lanes: usize,
) -> Vec<Vec<u32>> {
    // Every lane starts unreached. Then, one tile of vertices at a time,
    // each vertex is located once and every lane's slice of the tile is
    // filled from the tile's depth rows, which stay in cache across lanes:
    // each store lands next to the last one instead of `lanes` arrays apart.
    const TILE: usize = 256;
    let n = dist.n_global;
    let mut out = vec![vec![INF; n]; lanes];
    let mut tile: Vec<(u64, &[u32])> = Vec::with_capacity(TILE);
    for base in (0..n).step_by(TILE) {
        tile.clear();
        tile.extend((base..n.min(base + TILE)).map(|g| {
            let (gpu, local) = dist.locate(V::from_usize(g));
            let state = runner.state(gpu);
            match state.seen[local.idx()] {
                0 => (0, &[][..]),
                seen => {
                    let row = state.row_of[local.idx()] as usize;
                    (seen, &state.depth.as_slice()[row * lanes..][..lanes])
                }
            }
        }));
        for (lane, depths) in out.iter_mut().enumerate() {
            let slots = &mut depths[base..base + tile.len()];
            for (slot, &(seen, row)) in slots.iter_mut().zip(&tile) {
                if (seen >> lane) & 1 == 1 {
                    *slot = row[lane];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, EnactReport};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem, VgpuError};

    fn run_ms_bfs(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        sources: Vec<usize>,
        config: EnactConfig,
    ) -> (Vec<Vec<u32>>, EnactReport) {
        let dist = dist_of(g, n_gpus);
        let (depths, report, _) = enact(&dist, sources, config);
        (depths, report)
    }

    /// Round-robin, duplicate-all, with the reverse adjacency.
    fn dist_of(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        dist.build_cscs();
        dist
    }

    /// One batch on `dist`: lane depths, the report, and each device's
    /// pull-superstep count.
    fn enact(
        dist: &DistGraph<u32, u64>,
        sources: Vec<usize>,
        config: EnactConfig,
    ) -> (Vec<Vec<u32>>, EnactReport, Vec<u32>) {
        let prim = MsBfs::new(sources);
        let lanes = prim.lanes();
        let system = SimSystem::homogeneous(dist.n_parts, HardwareProfile::k40());
        let mut runner = Runner::new(system, dist, prim, config).unwrap();
        let report = runner.enact(None).unwrap();
        let pulls = (0..dist.n_parts).map(|gpu| runner.state(gpu).pull.pull_levels).collect();
        (gather_lane_depths(&runner, dist, lanes), report, pulls)
    }

    /// The edges a traced batch's advances read, push and pull alike.
    fn advanced(report: &EnactReport) -> u64 {
        let trace = report.trace.as_ref().expect("tracing was on");
        let advances = trace.per_device.iter().flatten();
        let advances = advances.filter(|e| e.name == "advance" || e.name == "advance+filter");
        advances.map(|e| e.items).sum()
    }

    #[test]
    fn a_partition_without_the_csc_is_refused() {
        let g = ladder();
        let dist = DistGraph::build(&g, vec![0; 16], 1, Duplication::All);
        let system = SimSystem::homogeneous(1, HardwareProfile::k40());
        let bind = Runner::new(system, &dist, MsBfs::new(vec![0]), EnactConfig::default());
        let needs = "the reverse adjacency (DistGraph::build_cscs)";
        assert_eq!(bind.err(), Some(VgpuError::PartitionMismatch { primitive: "MS-BFS", needs }));
    }

    /// On power-law graphs the late levels cover most of V while almost
    /// every target already holds all 64 lanes: every device pulls at least
    /// one level, and the batch reads about half the edges push alone reads
    /// (2.58 |E| on soc-orkut and 2.16 |E| on the rmat analog, measured
    /// push-only; 0.89 and 1.04 |E| with the pull).
    #[test]
    fn power_law_batches_pull_their_late_levels() {
        for (name, n_gpus, bound) in [("soc-orkut", 2, 1.0), ("rmat_2Mv_128Me", 4, 1.15)] {
            let coo = mgpu_gen::Dataset::by_name(name).unwrap().generate(10, 42);
            let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
            let sources = MsBfs::spread_sources(64, g.n_vertices());
            let config = EnactConfig { tracing: true, ..EnactConfig::default() };
            let (depths, report, pulls) = enact(&dist_of(&g, n_gpus), sources.clone(), config);
            assert!(pulls.iter().all(|&p| p >= 1), "{name}: pull supersteps per device {pulls:?}");
            let read = advanced(&report) as f64 / g.n_edges() as f64;
            assert!(read < bound, "{name}: the advances read {read:.3} |E|, want < {bound}");
            for (lane, &s) in sources.iter().enumerate() {
                let expect = crate::reference::bfs(&g, s as u32);
                assert_eq!(depths[lane], expect, "{name}, lane {lane}");
            }
        }
    }

    /// On a lattice every level is thin next to |V|, so no device pulls and
    /// the 64 lanes from the first column run their full depth: exact
    /// depths, and one superstep per level plus the empty one.
    #[test]
    fn a_lattice_never_pulls_and_runs_its_deepest_lane() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::grid2d(64, 64, 1.0, 1));
        let sources = MsBfs::spread_sources(64, g.n_vertices());
        let (depths, report, pulls) = enact(&dist_of(&g, 2), sources.clone(), Default::default());
        assert_eq!(pulls, vec![0, 0]);
        let mut deepest = 0;
        for (lane, &s) in sources.iter().enumerate() {
            let expect = crate::reference::bfs(&g, s as u32);
            deepest = deepest.max(expect.iter().copied().filter(|&d| d != INF).max().unwrap());
            assert_eq!(depths[lane], expect, "lane {lane}");
        }
        assert_eq!(report.iterations, deepest as usize + 1);
    }

    /// The tiled gather writes every lane of every vertex: on 613 vertices
    /// (two full tiles and a partial one) whose last 13 are isolated, each
    /// lane equals an independent BFS, `INF` where it never reached, at 1,
    /// 3 and 64 lanes over 1–3 GPUs. The 64-lane batch starts one lane on
    /// an isolated vertex, which reaches only itself.
    #[test]
    fn gathered_lanes_equal_independent_bfs_runs_past_a_partial_tile() {
        let mut coo = mgpu_gen::gnm(600, 1400, 7);
        coo.n_vertices = 613;
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for lanes in [1, 3, 64] {
            let sources = MsBfs::spread_sources(lanes, g.n_vertices());
            let expect: Vec<Vec<u32>> =
                sources.iter().map(|&s| crate::reference::bfs(&g, s as u32)).collect();
            assert!(expect.iter().all(|d| d.contains(&INF)), "every lane misses some vertex");
            for n_gpus in 1..=3 {
                let dist = dist_of(&g, n_gpus);
                let (depths, _, _) = enact(&dist, sources.clone(), EnactConfig::default());
                assert_eq!(depths, expect, "{lanes} lanes on {n_gpus} GPUs");
            }
        }
    }

    /// `harvest()` reads the reached-lane bitfield: bit `l` of vertex `v`'s
    /// word is set iff lane `l`'s depth of `v` is not `INF`.
    #[test]
    fn harvest_is_the_reached_lane_bitfield() {
        let coo = Coo::from_edges(6, vec![(0, 1), (1, 2), (3, 4)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for n_gpus in [1, 2] {
            let dist = dist_of(&g, n_gpus);
            let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
            let prim = MsBfs::new(vec![0, 3]);
            let mut runner = Runner::new(system, &dist, prim, EnactConfig::default()).unwrap();
            runner.enact(None).unwrap();
            let depths = gather_lane_depths(&runner, &dist, 2);
            let words = runner.harvest();
            for (v, word) in words.iter().enumerate() {
                for (lane, d) in depths.iter().enumerate() {
                    let reached = (word >> lane) & 1 == 1;
                    assert_eq!(reached, d[v] != INF, "{n_gpus} GPUs, vertex {v}, lane {lane}");
                }
            }
            assert_eq!(words, [0b01, 0b01, 0b01, 0b10, 0b10, 0], "{n_gpus} GPUs");
        }
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

    /// Depths are stamped when the consume takes a vertex's bits, whichever
    /// way they came. On the ladder split by parity (even ids on device 0),
    /// vertex 2 is owned by device 0; in superstep 0 its lane-0 bit is a
    /// local claim from its rung partner 10 (also on device 0), and its
    /// lane-1 and lane-2 bits arrive through `combine` from 1 and 3 on
    /// device 1. Under broadcast the combined vertices also come back as
    /// proxies, whose rows are never stamped.
    #[test]
    fn bits_from_a_local_claim_and_from_combine_stamp_alike() {
        use mgpu_core::CommStrategy;
        let g = ladder();
        let sources = vec![10usize, 1, 3, 12, 7];
        for comm in [None, Some(CommStrategy::Broadcast)] {
            let config = EnactConfig { comm, ..EnactConfig::default() };
            let (depths, _) = run_ms_bfs(&g, 2, sources.clone(), config);
            for (lane, &s) in sources.iter().enumerate() {
                let expect = crate::reference::bfs(&g, s as u32);
                assert_eq!(depths[lane], expect, "{comm:?}, lane {lane} (source {s})");
            }
            assert_eq!([depths[0][2], depths[1][2], depths[2][2]], [1, 1, 1]);
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
    /// across GPU counts, kernel-thread counts, communication strategies and
    /// wire encodings, every lane's depths are bit-equal to an independent
    /// single-source reference, and within each cell the two thread counts
    /// produce the *same simulation* (identical counters, clocks, traffic).
    #[test]
    fn matrix_lane_depths_are_invariant_across_the_config_space() {
        use mgpu_core::{CommStrategy, WireEncoding};
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::gnm(48, 144, 7));
        let sources = MsBfs::spread_sources(16, 48);
        let refs: Vec<Vec<u32>> =
            sources.iter().map(|&s| crate::reference::bfs(&g, s as u32)).collect();
        for n_gpus in [2usize, 4, 8] {
            // MS-BFS's own selective preference, and a broadcast override
            for comm in [None, Some(CommStrategy::Broadcast)] {
                for enc in [WireEncoding::Auto, WireEncoding::List] {
                    let mut reports: Vec<EnactReport> = Vec::new();
                    for threads in [1usize, 4] {
                        let config = EnactConfig {
                            kernel_threads: Some(threads),
                            wire_encoding: enc,
                            comm,
                            ..EnactConfig::default()
                        };
                        let (depths, report) = run_ms_bfs(&g, n_gpus, sources.clone(), config);
                        let cell = format!("{n_gpus} GPUs, {threads} threads, {comm:?}, {enc:?}");
                        for (lane, r) in refs.iter().enumerate() {
                            assert_eq!(&depths[lane], r, "{cell}, lane {lane}");
                        }
                        reports.push(report);
                    }
                    assert!(
                        reports[0].same_simulation(&reports[1]),
                        "{n_gpus} GPUs, {comm:?}, {enc:?}: kernel threads are a wall-clock \
                         knob and must not perturb the simulation"
                    );
                }
            }
        }
    }

    /// The 64-lane state honestly prices its 8×-plus growth over
    /// single-source BFS (24 bitfield bytes, a 4-byte row index and 4 per
    /// lane vs 4 flat): inside the capacity window between the two
    /// footprints the governor admits BFS and refuses MS-BFS at bind time
    /// with a typed OOM.
    #[test]
    fn admission_prices_the_lane_scaled_state() {
        use mgpu_core::governor::estimate_bind;
        use mgpu_core::MgpuProblem;
        fn floor<P: MgpuProblem<u32, u64>>(p: &P, dist: &DistGraph<u32, u64>) -> u64 {
            let at_floor = |sub| estimate_bind(p, sub, AllocScheme::JustEnough, p.comm()).total();
            dist.parts.iter().map(at_floor).max().unwrap()
        }
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::gnm(96, 288, 5));
        let n_gpus = 2usize;
        let dist = dist_of(&g, n_gpus);
        let prim = MsBfs::new(MsBfs::spread_sources(64, g.n_vertices()));
        let state_bytes = <MsBfs as MgpuProblem<u32, u64>>::state_bytes_per_vertex(&prim);
        // 3 bitfield words, the u32 `row_of` entry and a u32 depth per lane:
        // the row index is a real per-vertex array, so the bound counts it
        assert_eq!(state_bytes, 28 + 4 * 64, "3 bitfield words + row_of + a u32 depth per lane");
        let bfs_floor = floor(&crate::Bfs::default(), &dist);
        let ms_floor = floor(&prim, &dist);
        assert!(bfs_floor < ms_floor, "64 lanes must cost strictly more per vertex");
        let cap = (bfs_floor + ms_floor) / 2;
        let config =
            EnactConfig { alloc_scheme: Some(AllocScheme::JustEnough), ..EnactConfig::default() };
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

    /// The depth table holds the owned vertices' rows only: at every GPU
    /// count each device's table is `n_local · lanes` long, and the lane
    /// depths it yields are the reference BFS depths.
    #[test]
    fn the_depth_table_holds_owned_rows_only() {
        let g = ladder();
        let sources = vec![0usize, 6, 9, 15];
        for n_gpus in 1..=4 {
            let dist = dist_of(&g, n_gpus);
            let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
            let prim = MsBfs::new(sources.clone());
            let mut runner = Runner::new(system, &dist, prim, EnactConfig::default()).unwrap();
            runner.enact(None).unwrap();
            for (gpu, sub) in dist.parts.iter().enumerate() {
                let state = runner.state(gpu);
                assert_eq!(
                    state.depth.len(),
                    sub.n_local * sources.len(),
                    "{n_gpus} GPUs, gpu {gpu}"
                );
                assert_eq!(state.row_of.len(), sub.n_vertices());
            }
            let depths = gather_lane_depths(&runner, &dist, sources.len());
            for (lane, &s) in sources.iter().enumerate() {
                let expect = crate::reference::bfs(&g, s as u32);
                assert_eq!(depths[lane], expect, "{n_gpus} GPUs, lane {lane}");
            }
        }
    }

    /// Admission's per-vertex price bounds what `init` allocates: at least
    /// the pool bytes on every part, and exactly them on one GPU, where
    /// every vertex is owned and holds a depth row.
    #[test]
    fn the_state_estimate_bounds_what_init_allocates() {
        use mgpu_core::MgpuProblem;
        let g: Csr<u32, u64> = GraphBuilder::undirected(&mgpu_gen::gnm(96, 288, 5));
        let prim = MsBfs::new(MsBfs::spread_sources(64, g.n_vertices()));
        let per_vertex = <MsBfs as MgpuProblem<u32, u64>>::state_bytes_per_vertex(&prim) as u64;
        for n_gpus in [1, 2] {
            let dist = dist_of(&g, n_gpus);
            for sub in &dist.parts {
                let mut dev = Device::new(sub.gpu, HardwareProfile::k40());
                let _state = prim.init(&mut dev, sub).unwrap();
                let estimate = per_vertex * sub.n_vertices() as u64;
                let allocated = dev.pool().live();
                assert!(estimate >= allocated, "{n_gpus} GPUs: {estimate} < {allocated}");
                if n_gpus == 1 {
                    assert_eq!(estimate, allocated, "one GPU owns every row");
                }
            }
        }
    }

    /// A fully instrumented run — tracing + auto encoding over broadcast —
    /// reconciles exactly: the profile built from the trace
    /// matches the report's counters, and the per-superstep lane occupancy
    /// the batch records peaks at the full lane count.
    #[test]
    fn traced_run_reconciles_and_records_lane_occupancy() {
        use mgpu_core::{CommStrategy, Profile, WireEncoding};
        let g = ladder();
        let sources = vec![0usize, 5, 9, 15];
        let config = EnactConfig {
            tracing: true,
            wire_encoding: WireEncoding::Auto,
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
        let paper_wire =
            EnactConfig { wire_encoding: mgpu_core::WireEncoding::List, ..EnactConfig::default() };
        let (_, report) = run_ms_bfs(&g, 2, vec![0, 15], paper_wire);
        let t = &report.totals;
        assert!(t.h_vertices > 0, "cut edges force communication");
        // list encoding: id (4) + bitfield payload (8) per vertex, one tag
        // byte per package
        assert_eq!(t.h_bytes_sent, t.h_messages + t.h_vertices * 12);
    }
}
