//! Batched multi-source betweenness centrality: Brandes over up to 64
//! sources in one enact, the forward sweep riding the MS-BFS bitfield
//! engine (see [`crate::ms_bfs`]).
//!
//! Where [`crate::bc::Bc`] pays `k` full enacts for `k` sources — `k`
//! partition bindings, `k` forward sweeps of ~`D` supersteps each — the
//! batch pays ONE forward sweep of `max_lane_depth` supersteps for all
//! lanes at once, then one σ-sync superstep and one backward sweep over
//! the union of the lanes' depth ranges:
//!
//! * **Forward** — the MS-BFS consume/advance pair, with a per-lane σ
//!   accumulated alongside each depth claim: a destination bit that flips
//!   `INF → d` copies the parent's σ for that lane; an equal-depth re-visit
//!   adds it. All advances are sequential in CSR edge order (like `Bc`'s),
//!   so per-lane σ sums accumulate in exactly the per-source order — and
//!   since σ values are shortest-path *counts* (integers, exact in `f32`
//!   below 2²⁴), the batch's σ is bit-equal to the repeated-enact σ.
//! * **σ-sync** — one broadcast superstep of authoritative per-lane
//!   `(depth, σ)` for owned vertices, so every proxy is correct before the
//!   backward sweep (exactly `Bc`'s `SyncSigma`, widened to the batch).
//! * **Backward** — descending depth `d` from one level above the deepest
//!   over all lanes (no lane has a successor below it, so its δ is 0 and
//!   is neither swept nor broadcast); each owned vertex at depth `d` *in
//!   some lane* accumulates that lane's δ over its out-edges in CSR order,
//!   then δ is broadcast. Per lane this adds the same terms, in the same
//!   order, against bit-equal `(depth, σ, δ)` operands as a single-source
//!   `Bc` backward sweep (whose scatter side walks children in the order of
//!   a sorted CSR row) — so per-lane δ, and therefore the lane-ordered `bc`
//!   sums, are bit-equal to the repeated-enact reference.
//!
//! σ adds are not idempotent, so unlike MS-BFS the batch's forward
//! messages must not be suppressed or merged: the problem reports
//! `monotone = false` and every package is delivered verbatim. The wire
//! message carries the full per-lane payload (`8 + 64·(4+4)` bytes) and is
//! priced at that worst case — batching trades fat messages for a ~`k`×
//! superstep reduction, which is the paper's `S·l` term, not `H·g`.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::{MgpuProblem, Wire};
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::sync::GlobalReduce;
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::ms_bfs::LANES;
use crate::INF;

/// Batched multi-source BC over up to [`LANES`] sources.
#[derive(Debug, Clone)]
pub struct BcBatch {
    /// Global vertex ids, one per lane.
    pub sources: Vec<usize>,
}

impl BcBatch {
    /// A batch over the given global source ids (panics unless 1..=64).
    pub fn new(sources: Vec<usize>) -> Self {
        assert!(
            (1..=LANES).contains(&sources.len()),
            "BC batches 1..={LANES} sources, got {}",
            sources.len()
        );
        BcBatch { sources }
    }

    /// Active lane count.
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }
}

/// Phase of the batched-BC state machine (mirrors [`crate::bc::BcPhase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcBatchPhase {
    /// MS-BFS + per-lane path counting (selective comm).
    Forward,
    /// One-superstep broadcast of authoritative per-lane (depth, σ).
    SyncSigma,
    /// Per-lane dependency accumulation by descending depth (broadcast).
    Backward,
    /// One superstep folding per-lane δ into `bc` in lane order — the same
    /// order repeated single-source enacts sum in, which is what makes the
    /// final scores bit-equal (f32 addition is order-sensitive).
    Finalize,
    /// Finished.
    Done,
}

/// The batch's wire message: a lane mask plus full per-lane payloads.
/// Forward packages carry σ contributions for the masked lanes (their depth
/// is implied by the superstep); σ-sync and backward packages carry
/// authoritative `(depth, σ)` and δ respectively.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneMsg {
    /// Lanes this message speaks for.
    pub bits: u64,
    /// Per-lane depth (σ-sync only; zeroed otherwise).
    pub depth: [u32; LANES],
    /// Per-lane value: σ (forward, σ-sync) or δ (backward).
    pub val: [f32; LANES],
}

impl LaneMsg {
    fn empty() -> Self {
        LaneMsg { bits: 0, depth: [0; LANES], val: [0.0; LANES] }
    }
}

impl Wire for LaneMsg {
    // Priced at the dense worst case: mask + 64 × (depth + value). The
    // honest price of batching BC's (label, σ) pair across every lane.
    const BYTES: usize = 8 + LANES * (4 + 4);

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bits.to_le_bytes());
        for d in &self.depth {
            out.extend_from_slice(&d.to_le_bytes());
        }
        for v in &self.val {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        let bits = u64::from_le_bytes(buf[..8].try_into().expect("lane mask"));
        let mut depth = [0u32; LANES];
        let mut val = [0.0f32; LANES];
        for (i, d) in depth.iter_mut().enumerate() {
            let at = 8 + 4 * i;
            *d = u32::from_le_bytes(buf[at..at + 4].try_into().expect("lane depth"));
        }
        for (i, v) in val.iter_mut().enumerate() {
            let at = 8 + 4 * LANES + 4 * i;
            *v = f32::from_le_bytes(buf[at..at + 4].try_into().expect("lane value"));
        }
        LaneMsg { bits, depth, val }
    }
}

/// Per-GPU batched-BC state.
#[derive(Debug)]
pub struct BcBatchState<V: Id> {
    /// Vertex-major per-lane depths (`depth[v·lanes + lane]`, `INF` =
    /// unreached). Doubles as the `seen` set: a claim is `INF → d`.
    pub depth: DeviceArray<u32>,
    /// Per-lane shortest-path counts σ (vertex-major).
    pub sigma: DeviceArray<f32>,
    /// Per-lane dependency values δ (vertex-major).
    pub delta: DeviceArray<f32>,
    /// Accumulated centrality (summed over lanes in lane order).
    pub bc: DeviceArray<f32>,
    /// Lanes newly arrived and not yet propagated (forward phase).
    pub visit: DeviceArray<u64>,
    /// The consume-pass snapshot the forward advance reads.
    pub prop: DeviceArray<u64>,
    /// Remote copies whose pending bits were packaged last superstep.
    sent: Vec<V>,
    /// Owned vertices at each depth in *some* lane (backward frontiers).
    depth_frontiers: Vec<Vec<V>>,
    /// Last depth each vertex was bucketed at (dedups the per-depth push
    /// when several lanes discover a vertex in one superstep).
    bucketed: Vec<u32>,
    /// Current phase.
    pub phase: BcBatchPhase,
    /// Forward: the superstep cursor for combine-side depth stamping.
    /// Backward: the depth being processed.
    cur_depth: u32,
}

impl<V: Id> BcBatchState<V> {
    /// Bucket owned `v` at `depth` (once, however many lanes claim it).
    fn note_discovery(&mut self, v: V, depth: u32) {
        let d = depth as usize;
        if self.bucketed[v.idx()] != depth {
            self.bucketed[v.idx()] = depth;
            if d >= self.depth_frontiers.len() {
                self.depth_frontiers.resize_with(d + 1, Vec::new);
            }
            self.depth_frontiers[d].push(v);
        }
    }

    /// Lanes in which `v` sits at exactly depth `d`.
    fn lanes_at(&self, v: V, d: u32, lanes: usize) -> u64 {
        let mut mask = 0u64;
        for b in 0..lanes {
            if self.depth[v.idx() * lanes + b] == d {
                mask |= 1 << b;
            }
        }
        mask
    }
}

impl<V: Id, O: Id> MgpuProblem<V, O> for BcBatch {
    type State = BcBatchState<V>;
    type Msg = LaneMsg;

    fn name(&self) -> &'static str {
        "BC-batch"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn comm_now(&self, state: &Self::State) -> CommStrategy {
        match state.phase {
            BcBatchPhase::Forward => CommStrategy::Selective,
            _ => CommStrategy::Broadcast,
        }
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        // visit + prop words, bc + bucket marker, and per-lane depth/σ/δ —
        // the batch multiplies BC's 16 bytes/vertex by the lane count.
        2 * 8 + 2 * 4 + 12 * self.lanes()
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        assert_eq!(
            sub.duplication,
            Duplication::All,
            "this primitive's local ids must equal global ids (duplicate-all)"
        );
        let n = sub.n_vertices();
        Ok(BcBatchState {
            depth: dev.alloc(n * self.lanes())?,
            sigma: dev.alloc(n * self.lanes())?,
            delta: dev.alloc(n * self.lanes())?,
            bc: dev.alloc(n)?,
            visit: dev.alloc(n)?,
            prop: dev.alloc(n)?,
            sent: Vec::new(),
            depth_frontiers: Vec::new(),
            bucketed: vec![INF; n],
            phase: BcBatchPhase::Forward,
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
            let BcBatchState { depth, sigma, delta, bc, visit, prop, .. } = &mut *state;
            dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                depth.as_mut_slice().fill(INF);
                sigma.as_mut_slice().fill(0.0);
                delta.as_mut_slice().fill(0.0);
                bc.as_mut_slice().fill(0.0);
                visit.as_mut_slice().fill(0);
                prop.as_mut_slice().fill(0);
                let n = visit.len();
                ((), (4 + 3 * lanes) as u64 * n as u64)
            })?;
        }
        state.sent.clear();
        state.depth_frontiers = vec![Vec::new()];
        state.bucketed.fill(INF);
        state.phase = BcBatchPhase::Forward;
        state.cur_depth = 0;
        let mut frontier: Vec<V> = Vec::new();
        for (lane, &s) in self.sources.iter().enumerate() {
            let Some(local) = sub.from_global(V::from_usize(s)) else { continue };
            if !sub.is_owned(local) {
                continue;
            }
            if state.visit[local.idx()] == 0 {
                frontier.push(local);
            }
            state.visit[local.idx()] |= 1 << lane;
            state.depth[local.idx() * lanes + lane] = 0;
            state.sigma[local.idx() * lanes + lane] = 1.0;
            state.note_discovery(local, 0);
        }
        Ok(frontier)
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
        let lanes = self.lanes();
        match state.phase {
            BcBatchPhase::Forward => {
                let flushed = std::mem::take(&mut state.sent);
                let (active, act) = ops::consume_bits(
                    dev,
                    &flushed,
                    input,
                    state.visit.as_mut_slice(),
                    state.prop.as_mut_slice(),
                    |_, _| {},
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
                let next = iter as u32 + 1;
                let out = {
                    let BcBatchState { depth, sigma, visit, prop, .. } = &mut *state;
                    // Sequential on purpose, like Bc's forward: σ adds are
                    // += over f32 in CSR edge order per lane.
                    ops::advance_filter_fused_seq(dev, sub, &act, |u, _, d| {
                        let bits = prop[u.idx()];
                        let mut claimed = 0u64;
                        let mut w = bits;
                        while w != 0 {
                            let b = w.trailing_zeros() as usize;
                            w &= w - 1;
                            let di = d.idx() * lanes + b;
                            if depth[di] == INF {
                                depth[di] = next;
                                sigma[di] = sigma[u.idx() * lanes + b];
                                claimed |= 1 << b;
                            } else if depth[di] == next {
                                sigma[di] += sigma[u.idx() * lanes + b];
                            }
                        }
                        if claimed == 0 {
                            return None;
                        }
                        let first = visit[d.idx()] == 0;
                        visit[d.idx()] |= claimed;
                        first.then_some(d)
                    })?
                };
                let (owned, sent): (Vec<V>, Vec<V>) = out.iter().partition(|&&v| sub.is_owned(v));
                for v in owned {
                    state.note_discovery(v, next);
                }
                state.sent = sent;
                Ok(out)
            }
            BcBatchPhase::SyncSigma => {
                let owned: Vec<V> =
                    (0..sub.n_vertices()).map(V::from_usize).filter(|&v| sub.is_owned(v)).collect();
                let count = owned.len() as u64;
                dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || ((), count))?;
                Ok(owned)
            }
            BcBatchPhase::Backward => {
                let d = state.cur_depth;
                let frontier: Vec<V> =
                    state.depth_frontiers.get(d as usize).cloned().unwrap_or_default();
                let next_depth = d + 1;
                {
                    let BcBatchState { depth, sigma, delta, .. } = &mut *state;
                    // Per lane this is exactly Bc's backward advance: the
                    // lane loop is inside the edge loop, so each lane's δ
                    // sum runs in CSR edge order.
                    ops::advance_filter_fused_seq(dev, sub, &frontier, |s, _, w| {
                        for b in 0..lanes {
                            let si = s.idx() * lanes + b;
                            let wi = w.idx() * lanes + b;
                            if depth[si] == d && depth[wi] == next_depth && sigma[wi] > 0.0 {
                                delta[si] += sigma[si] / sigma[wi] * (1.0 + delta[wi]);
                            }
                        }
                        None::<V>
                    })?;
                }
                Ok(frontier)
            }
            BcBatchPhase::Finalize => {
                let owned: Vec<V> =
                    (0..sub.n_vertices()).map(V::from_usize).filter(|&v| sub.is_owned(v)).collect();
                let sources = &self.sources;
                let BcBatchState { delta, bc, .. } = &mut *state;
                let count = owned.len() as u64;
                dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || {
                    for &v in &owned {
                        // dup-all: local id == global id, so `sources` can
                        // be compared directly; a lane's own source never
                        // accumulates its δ (Brandes excludes s).
                        for b in 0..lanes {
                            if sources[b] != v.idx() {
                                bc[v.idx()] += delta[v.idx() * lanes + b];
                            }
                        }
                    }
                    ((), count * lanes as u64)
                })?;
                Ok(Vec::new())
            }
            BcBatchPhase::Done => Ok(Vec::new()),
        }
    }

    fn package(&self, state: &Self::State, v: V) -> LaneMsg {
        let lanes = self.lanes();
        let mut msg = LaneMsg::empty();
        match state.phase {
            BcBatchPhase::Forward => {
                // σ contributions for the lanes claimed this superstep
                // (their depth is the receiver's cur_depth + 1).
                msg.bits = state.visit[v.idx()];
                let mut w = msg.bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    msg.val[b] = state.sigma[v.idx() * lanes + b];
                }
            }
            BcBatchPhase::SyncSigma => {
                for b in 0..lanes {
                    let i = v.idx() * lanes + b;
                    if state.depth[i] != INF {
                        msg.bits |= 1 << b;
                        msg.depth[b] = state.depth[i];
                        msg.val[b] = state.sigma[i];
                    }
                }
            }
            BcBatchPhase::Backward | BcBatchPhase::Finalize | BcBatchPhase::Done => {
                msg.bits = state.lanes_at(v, state.cur_depth, lanes);
                let mut w = msg.bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    msg.val[b] = state.delta[v.idx() * lanes + b];
                }
            }
        }
        msg
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &LaneMsg) -> bool {
        let lanes = self.lanes();
        match state.phase {
            BcBatchPhase::Forward => {
                // Contributions claimed by the sender this superstep, all
                // at depth cur_depth + 1; late (longer-path) ones are
                // discarded by the depth guard, like Bc's label check.
                let d = state.cur_depth + 1;
                let mut fresh = 0u64;
                let mut w = msg.bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let i = v.idx() * lanes + b;
                    if state.depth[i] == INF {
                        state.depth[i] = d;
                        state.sigma[i] = msg.val[b];
                        fresh |= 1 << b;
                    } else if state.depth[i] == d {
                        state.sigma[i] += msg.val[b];
                    }
                }
                if fresh == 0 {
                    return false;
                }
                state.visit[v.idx()] |= fresh;
                state.note_discovery(v, d); // selective ⇒ owned
                true
            }
            BcBatchPhase::SyncSigma => {
                // Authoritative override from the owner.
                let mut w = msg.bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let i = v.idx() * lanes + b;
                    state.depth[i] = msg.depth[b];
                    state.sigma[i] = msg.val[b];
                }
                false
            }
            BcBatchPhase::Backward => {
                let mut w = msg.bits;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    state.delta[v.idx() * lanes + b] = msg.val[b];
                }
                false
            }
            BcBatchPhase::Finalize | BcBatchPhase::Done => false,
        }
    }

    fn locally_done(&self, state: &Self::State, _next_input: &[V]) -> bool {
        state.phase == BcBatchPhase::Done
    }

    fn after_superstep(&self, state: &mut Self::State, reduce: &GlobalReduce, iter: usize) {
        match state.phase {
            BcBatchPhase::Forward => {
                if reduce.u64_sum == 0 {
                    // Superstep `iter - 1` found no lane's depth `iter`: the
                    // deepest level over all lanes is `iter - 1`.
                    state.phase = BcBatchPhase::SyncSigma;
                    state.cur_depth = iter as u32 - 1;
                } else {
                    // `iter` is already the next superstep's index: bits
                    // combined during it sit at depth `iter + 1`, so the
                    // combine-side stamp (cur_depth + 1) needs `iter`.
                    state.cur_depth = iter as u32;
                }
            }
            BcBatchPhase::SyncSigma => {
                // No lane has a successor below the deepest level, so its δ
                // is 0 in every lane: start one level above it.
                if state.cur_depth >= 2 {
                    state.phase = BcBatchPhase::Backward;
                    state.cur_depth -= 1;
                } else {
                    state.phase = BcBatchPhase::Finalize;
                }
            }
            BcBatchPhase::Backward => {
                if state.cur_depth <= 1 {
                    state.phase = BcBatchPhase::Finalize;
                } else {
                    state.cur_depth -= 1;
                }
            }
            BcBatchPhase::Finalize => state.phase = BcBatchPhase::Done,
            BcBatchPhase::Done => {}
        }
    }
}

/// Gather batch centrality scores into global vertex order.
pub fn gather_bc_batch<V: Id, O: Id>(
    runner: &Runner<'_, V, O, BcBatch>,
    dist: &DistGraph<V, O>,
) -> Vec<f32> {
    crate::bfs::gather(dist, |gpu, local| runner.state(gpu).bc[local.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{gather_bc, Bc};
    use mgpu_core::{EnactConfig, EnactReport};
    use mgpu_gen::gnm;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run_batch(g: &Csr<u32, u64>, n_gpus: usize, sources: Vec<usize>) -> (Vec<f32>, EnactReport) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, BcBatch::new(sources), EnactConfig::default()).unwrap();
        let report = runner.enact(None).unwrap();
        (gather_bc_batch(&runner, &dist), report)
    }

    /// Repeated single-source enacts on ONE partition binding, summed in
    /// f32 in source order — the bit-equality reference for the batch.
    fn repeated_enacts(
        g: &Csr<u32, u64>,
        n_gpus: usize,
        sources: &[usize],
    ) -> (Vec<f32>, Vec<EnactReport>) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        dist.build_cscs();
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Bc, EnactConfig::default()).unwrap();
        let mut total = vec![0.0f32; g.n_vertices()];
        let mut reports = Vec::new();
        for &src in sources {
            reports.push(runner.enact(Some(src as u32)).unwrap());
            for (t, &x) in total.iter_mut().zip(gather_bc(&runner, &dist).iter()) {
                *t += x;
            }
        }
        (total, reports)
    }

    fn assert_bit_equal(batch: &[f32], reference: &[f32]) {
        for (i, (&a, &b)) in batch.iter().zip(reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {i}: batch {a} vs repeated {b}");
        }
    }

    #[test]
    fn diamond_batch_matches_repeated_enacts_bitwise() {
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let sources = vec![0usize, 3];
        for n in [1, 2] {
            let (batch, _) = run_batch(&g, n, sources.clone());
            let (expect, _) = repeated_enacts(&g, n, &sources);
            assert_bit_equal(&batch, &expect);
        }
    }

    #[test]
    fn random_graph_batch_is_bit_equal_across_gpu_counts() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(40, 160, 5));
        let sources = vec![0usize, 5, 11, 17, 23, 31];
        for n in [1, 2, 4] {
            let (batch, _) = run_batch(&g, n, sources.clone());
            let (expect, _) = repeated_enacts(&g, n, &sources);
            assert_bit_equal(&batch, &expect);
        }
    }

    #[test]
    fn batch_matches_f64_brandes_within_tolerance() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(40, 160, 5));
        let sources = vec![0usize, 5, 11];
        let (batch, _) = run_batch(&g, 2, sources.clone());
        let mut expect = vec![0.0f64; 40];
        for &src in &sources {
            for (t, x) in expect.iter_mut().zip(crate::reference::bc(&g, src as u32)) {
                *t += x;
            }
        }
        for (i, (&a, &b)) in batch.iter().zip(&expect).enumerate() {
            assert!((a as f64 - b).abs() <= 1e-3 * (1.0 + b.abs()), "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn batch_pays_one_forward_sweep_not_k() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(60, 180, 9));
        let sources: Vec<usize> = (0..16).map(|i| i * 60 / 16).collect();
        let (_, batch_report) = run_batch(&g, 2, sources.clone());
        let (_, reports) = repeated_enacts(&g, 2, &sources);
        let repeated_supersteps: usize = reports.iter().map(|r| r.iterations).sum();
        assert!(
            batch_report.iterations * 4 <= repeated_supersteps,
            "batch {} supersteps vs {} repeated",
            batch_report.iterations,
            repeated_supersteps
        );
    }

    /// The deepest level over all lanes is never swept: with D that depth,
    /// the run is D + 1 forward supersteps, the σ-sync, D − 1 backward
    /// levels (each one δ broadcast), Finalize and the closing superstep —
    /// and the scores stay bit-equal to repeated single-source enacts.
    #[test]
    fn backward_sweep_starts_one_level_above_the_deepest() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(40, 160, 5));
        let sources = vec![0usize, 5, 11, 17];
        let depth = sources
            .iter()
            .flat_map(|&s| crate::reference::bfs(&g, s as u32))
            .filter(|&l| l != INF)
            .max()
            .unwrap() as usize;
        let (batch, report) = run_batch(&g, 2, sources.clone());
        assert_eq!(report.iterations, (depth + 1) + 1 + (depth - 1) + 2);
        let broadcasts = report.history[depth + 2..].iter().filter(|t| t.sent > 0).count();
        assert_eq!(broadcasts, depth - 1, "one δ broadcast per swept level");
        assert_bit_equal(&batch, &repeated_enacts(&g, 2, &sources).0);
    }

    #[test]
    fn lane_msg_wire_roundtrip() {
        let mut m = LaneMsg::empty();
        m.bits = 0b1011;
        m.depth[0] = 7;
        m.depth[3] = 2;
        m.val[1] = 0.625;
        m.val[3] = -3.5;
        let mut buf = Vec::new();
        m.write_to(&mut buf);
        assert_eq!(buf.len(), <LaneMsg as Wire>::BYTES);
        assert_eq!(LaneMsg::read_from(&buf), m);
    }

    #[test]
    fn isolated_sources_score_zero() {
        let coo = Coo::from_edges(5, vec![(1, 2)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (batch, _) = run_batch(&g, 2, vec![0, 4]);
        assert!(batch.iter().all(|&x| x == 0.0));
    }
}
