//! The Gunrock operators (§II-B): advance, filter, compute — plus the
//! fused (§VI-C) and pull-mode (§VI-A) variants this paper adds.
//!
//! Every operator executes its work for real on the calling device thread
//! and is metered as one kernel launch: `launch_overhead + work/throughput`.
//! Work units follow the paper's cost model: edges visited for advance,
//! input vertices for filter, elements for compute. A launch with an empty
//! frontier still pays the launch overhead — the §V-B effect.
//!
//! ## Which operator a primitive calls
//!
//! There is one family, over `&[V]` frontiers:
//!
//! * push, unfused — [`advance`] then [`filter`]: the allocation scheme is
//!   not fused (§VI-B), so the intermediate frontier is materialized and
//!   governed.
//! * push, fused — [`advance_filter_fused`] when `bufs.scheme().fused()` and
//!   the functor is pure or claims through atomics.
//! * push, fused, stateful — [`advance_filter_fused_seq`] when the functor
//!   carries `FnMut` state that must see edges in frontier order (BC's σ
//!   sums).
//! * draining scatter-add — [`advance_accumulate`] when each source pushes
//!   its accumulated value along its out-edges and the shares are summed per
//!   destination (PageRank's delta push).
//! * per-element — [`compute`] for work that is neither edge- nor
//!   frontier-shaped.
//! * lane bitfields — [`consume_bits`], the frontier ingest of a batched
//!   (multi-source) traversal.
//! * pull — [`advance_pull`] on the DOBFS backward superstep right after the
//!   unvisited scan, [`retain_pull`] on every later one (it shrinks the
//!   unvisited set in place and pulls in the same pass).
//!
//! [`advance_with_mode`] is [`advance`] with the §VII-C work-mapping
//! ablation exposed; nothing but that experiment calls it.
//!
//! ## Parallel execution, invariant metering
//!
//! The hot operators ([`advance`], [`filter`], [`advance_filter_fused`],
//! [`advance_accumulate`]) execute their bodies across
//! [`Device::kernel_threads`] host workers, the way a real advance kernel
//! spreads a frontier over thread blocks. The simulated cost never notices:
//! charges are pure functions of item counts, and the chunk plan that
//! partitions the frontier is derived **only from the workload** (a degree
//! prefix walk — Gunrock's load-balancing scan), never from the thread
//! count. Chunk outputs are concatenated in chunk order, so the emitted
//! frontier, every charge, and every BSP counter are bit-identical at any
//! thread count. Functors must therefore be `Fn + Sync`; frontier-claiming
//! state goes through atomics with order-independent outcomes (CAS claims,
//! `fetch_min` — see `vgpu::par::as_atomic_u32`). The pull operators and
//! [`advance_filter_fused_seq`] stay sequential because their result or
//! their charge depends on visit order; they charge by the same rules.

use mgpu_graph::{Csr, Id};
use mgpu_partition::SubGraph;
use vgpu::{par, Arena, Device, KernelFault, KernelKind, Result, VgpuError, COMPUTE_STREAM};

use crate::alloc::FrontierBufs;

/// Legacy edge-work per parallel chunk. Still the floor for
/// [`advance_accumulate`], whose chunk plan is part of its result (dense f32
/// partials merge in chunk order, so its target must never change).
const PAR_CHUNK_WORK: usize = 4096;

/// Edge-work per cache-blocked chunk: sized so one chunk's column reads and
/// emission slots stay inside [`par::CACHE_BLOCK_BYTES`]. A pure function of
/// the id type, so plans remain workload-only.
fn chunk_target<V: Id>() -> usize {
    par::cache_block_items(2 * V::BYTES).max(PAR_CHUNK_WORK)
}

/// Upper bound on dense partial buffers for [`advance_accumulate`] (the
/// per-block partial-reduction idiom: more partials costs memory and merge
/// time, fewer costs parallelism).
const ACCUM_MAX_PARTIALS: usize = 16;

/// Partition frontier positions into contiguous ranges of roughly `target`
/// edge-work each (weight = degree + 1 so zero-degree runs still split).
/// This is the load-balancing prefix walk; it sees only the graph and the
/// frontier, never the thread count.
fn plan_chunks<V: Id, O: Id>(
    sub: &SubGraph<V, O>,
    input: &[V],
    target: usize,
) -> Vec<(usize, usize)> {
    par::plan_weighted_chunks(input.len(), target, |i| sub.csr.degree(input[i]) + 1)
}

/// Concatenate per-chunk emission buffers in chunk order and hand the spent
/// buffers back to the arena for the next launch.
fn concat_reclaim<V: Id>(arena: &Arena<V>, parts: Vec<Vec<V>>) -> Vec<V> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(&p);
        arena.reclaim(p);
    }
    out
}

/// Run the push-advance body over the planned chunks and concatenate the
/// per-chunk emissions in chunk order. Per-chunk buffers are leased from the
/// arena, so steady-state supersteps reuse capacity instead of re-growing.
fn advance_chunks<V: Id, O: Id, F>(
    threads: usize,
    sub: &SubGraph<V, O>,
    input: &[V],
    chunks: &[(usize, usize)],
    arena: &Arena<V>,
    f: &F,
) -> Vec<V>
where
    F: Fn(V, usize, V) -> Option<V> + Sync,
{
    let parts = par::run_chunks(threads, chunks.len(), |c| {
        let (lo, hi) = chunks[c];
        let mut out = arena.lease();
        for &v in &input[lo..hi] {
            for e in sub.csr.edge_range(v) {
                let d = sub.csr.col_indices()[e];
                if let Some(emit) = f(v, e, d) {
                    out.push(emit);
                }
            }
        }
        out
    });
    concat_reclaim(arena, parts)
}

/// Split the frontier into contiguous passes whose edge work fits `granted`
/// intermediate slots — the memory-pressure governor's chunked multi-pass
/// plan. `None` when a single vertex's adjacency alone exceeds the budget
/// (hard-infeasible). A pure function of the workload and the granted
/// budget, so the pass schedule is identical at any thread count.
fn plan_passes<V: Id, O: Id>(
    sub: &SubGraph<V, O>,
    input: &[V],
    granted: usize,
) -> Option<Vec<(usize, usize)>> {
    let mut passes = Vec::new();
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, &v) in input.iter().enumerate() {
        let d = sub.csr.degree(v);
        if d > granted {
            return None;
        }
        if acc + d > granted {
            passes.push((start, i));
            start = i;
            acc = 0;
        }
        acc += d;
    }
    if start < input.len() {
        passes.push((start, input.len()));
    }
    Some(passes)
}

/// Record a chunked multi-pass advance as an instant span on the compute
/// stream (`items` = pass count; no clock effect).
fn record_chunk(dev: &mut Device, passes: usize) {
    if dev.timeline.is_enabled() {
        let at = dev.stream_time(COMPUTE_STREAM);
        dev.timeline.record(vgpu::TraceEvent {
            device: dev.id(),
            stream: COMPUTE_STREAM.0,
            kind: vgpu::TraceKind::Chunk,
            name: "chunked-advance",
            start_us: at,
            items: passes as u64,
            ..vgpu::TraceEvent::default()
        });
    }
}

/// Consult the injector's pressure-machinery sites and arm the device's
/// one-shot launch fault for the upcoming advance launch. `chunk_pass`
/// advances the chunked-pass counter (fires a transient `Fail`); every call
/// advances the arena-lease counter (fires a `TransientOom`). Arena leases
/// are taken *inside* the parallel kernel body, thread-nondeterministically,
/// so lease faults are modeled at launch granularity — the deterministic
/// site the in-place retry machinery can replay. When both sites fire on
/// the same launch the pass fault wins.
fn arm_pressure_faults(dev: &mut Device, chunk_pass: bool) {
    let gpu = dev.id();
    let mut armed: Option<KernelFault> = None;
    if let Some(inj) = dev.fault_injector() {
        if inj.on_lease(gpu) {
            armed = Some(KernelFault::TransientOom);
        }
        if chunk_pass && inj.on_chunk_pass(gpu) {
            armed = Some(KernelFault::Fail);
        }
    }
    if let Some(f) = armed {
        dev.inject_fault(f);
    }
}

/// A typed OOM for a frontier whose single-vertex adjacency exceeds even the
/// degraded chunk budget.
fn chunk_infeasible<V: Id>(dev: &Device, granted: usize) -> VgpuError {
    VgpuError::OutOfMemory {
        device: dev.id(),
        requested: (granted.saturating_add(1) * std::mem::size_of::<V>()) as u64,
        live: dev.pool().live(),
        capacity: dev.pool().capacity(),
    }
}

/// Run an advance whose intermediate grant fell short of `need` as multiple
/// passes over contiguous frontier slices: each pass is its own metered
/// kernel launch (the honest slowdown of degrading), per-pass emissions are
/// concatenated in pass order (so the emitted frontier is bit-identical to
/// the single-pass result) and no pass emits more than `granted` elements.
/// Returns the full emission plus the largest per-pass emission — the actual
/// intermediate residency to record.
#[allow(clippy::too_many_arguments)]
fn advance_multi_pass<V: Id, O: Id, F>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    bufs: &mut FrontierBufs<V>,
    input: &[V],
    granted: usize,
    mode: AdvanceMode,
    max_deg: usize,
    f: &F,
) -> Result<(Vec<V>, usize)>
where
    F: Fn(V, usize, V) -> Option<V> + Sync,
{
    let threads = dev.kernel_threads();
    // pass planning: one more scan over the input frontier
    let passes = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
        (plan_passes(sub, input, granted), input.len() as u64)
    })?;
    let passes = passes.ok_or_else(|| chunk_infeasible::<V>(dev, granted))?;
    bufs.gov.chunked_advances += 1;
    bufs.gov.chunk_passes += passes.len() as u64;
    record_chunk(dev, passes.len());
    let mut out = Vec::new();
    let mut max_emit = 0usize;
    for &(lo, hi) in &passes {
        let slice = &input[lo..hi];
        arm_pressure_faults(dev, true);
        let part = dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
            let chunks = plan_chunks(sub, slice, chunk_target::<V>());
            let emitted = advance_chunks(threads, sub, slice, &chunks, &bufs.arena, f);
            let items = match mode {
                AdvanceMode::LoadBalanced => sub.csr.frontier_out_degree(slice) as u64,
                AdvanceMode::ThreadMapped => (slice.len() * max_deg) as u64,
            };
            (emitted, items)
        })?;
        max_emit = max_emit.max(part.len());
        out.extend(part);
    }
    Ok((out, max_emit))
}

/// How an advance kernel maps frontier work onto (virtual) hardware
/// threads. Gunrock's key single-GPU optimization — inherited by the
/// multi-GPU framework "using high-performance, extensible single-GPU
/// primitives as our building blocks" (§VII-C) — is load-balanced
/// partitioning of the edge workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvanceMode {
    /// Gunrock-style: a prefix-sum over frontier degrees partitions the
    /// *edges* evenly over threads. Costs an extra scan but is immune to
    /// degree skew.
    #[default]
    LoadBalanced,
    /// Naive: one thread per frontier *vertex*. On power-law frontiers a
    /// single hub serializes its whole adjacency list while other threads
    /// idle — modeled as every vertex-slot costing the frontier's maximum
    /// degree.
    ThreadMapped,
}

/// [`advance`] with an explicit work-mapping mode. Results are identical;
/// only the metered cost differs (the `ablation` experiment compares them).
pub fn advance_with_mode<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    bufs: &mut FrontierBufs<V>,
    input: &[V],
    mode: AdvanceMode,
    f: impl Fn(V, usize, V) -> Option<V> + Sync,
) -> Result<Vec<V>> {
    let threads = dev.kernel_threads();
    let (need, max_deg, chunks, charged_items) = match mode {
        AdvanceMode::LoadBalanced => {
            // the load-balancing scan itself
            let (need, chunks) = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                let need = sub.csr.frontier_out_degree(input);
                let chunks = plan_chunks(sub, input, chunk_target::<V>());
                ((need, chunks), input.len() as u64)
            })?;
            (need, 0, chunks, need as u64)
        }
        AdvanceMode::ThreadMapped => {
            let (need, max_deg, chunks) = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
                let need = sub.csr.frontier_out_degree(input);
                let max_deg = input.iter().map(|&v| sub.csr.degree(v)).max().unwrap_or(0);
                let chunks = plan_chunks(sub, input, chunk_target::<V>());
                ((need, max_deg, chunks), 0)
            })?;
            // every thread-slot takes as long as the slowest (hub) vertex
            (need, max_deg, chunks, (input.len() * max_deg) as u64)
        }
    };
    let granted = bufs.prepare_intermediate_budget(dev, need)?;
    let (out, resident) = if granted >= need {
        arm_pressure_faults(dev, false);
        let out = dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
            (advance_chunks(threads, sub, input, &chunks, &bufs.arena, &f), charged_items)
        })?;
        let resident = out.len();
        (out, resident)
    } else {
        // memory pressure: the intermediate only holds `granted` slots at a
        // time — run the advance as a chunked multi-pass
        advance_multi_pass(dev, sub, bufs, input, granted, mode, max_deg, &f)?
    };
    bufs.record_intermediate(dev, resident)?;
    Ok(out)
}

/// **Advance** (push mode): visit the out-edges of every vertex in `input`;
/// the functor `f(src, edge_id, dst)` returns `Some(v)` to emit `v` into the
/// intermediate frontier. Unfused: the intermediate is materialized in the
/// scheme-managed buffer and a separate [`filter`] pass follows.
///
/// Executes across [`Device::kernel_threads`] workers; `f` must be pure or
/// use order-independent atomics (see the module docs).
pub fn advance<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    bufs: &mut FrontierBufs<V>,
    input: &[V],
    f: impl Fn(V, usize, V) -> Option<V> + Sync,
) -> Result<Vec<V>> {
    advance_with_mode(dev, sub, bufs, input, AdvanceMode::LoadBalanced, f)
}

/// **Filter**: select the subset of `input` satisfying `pred`. Output size
/// is at most the input size (and for vertex frontiers capped by `|V_i|`,
/// which is why fixed preallocation sizes frontiers at `|V_i|`, §VI-B).
///
/// Executes across [`Device::kernel_threads`] workers over fixed-size input
/// ranges; order within the output matches input order. `pred` must be pure
/// or claim through atomics.
pub fn filter<V: Id>(
    dev: &mut Device,
    input: &[V],
    pred: impl Fn(V) -> bool + Sync,
) -> Result<Vec<V>> {
    let threads = dev.kernel_threads();
    let target = chunk_target::<V>();
    dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
        let n_chunks = input.len().div_ceil(target);
        let parts = par::run_chunks(threads, n_chunks, |c| {
            let lo = c * target;
            let hi = (lo + target).min(input.len());
            input[lo..hi].iter().copied().filter(|&v| pred(v)).collect::<Vec<V>>()
        });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend(p);
        }
        (out, input.len() as u64)
    })
}

/// **Bitfield consume** — the frontier-ingest pass of a batched
/// (multi-source) traversal whose per-vertex state is a `u64` lane
/// bitfield. Two sequential sweeps in one Filter-class kernel charging one
/// item per touched vertex:
///
/// * `flushed` — vertices whose pending bits left on the wire last
///   superstep (remote copies already packaged): their `visit` word is
///   cleared so a later superstep's new bits trigger a fresh emission.
/// * `input` — this superstep's frontier: each vertex's pending `visit`
///   bits move into its `prop` slot (the snapshot the advance reads), and
///   `visit` is cleared so the advance's 0→nonzero transition test can
///   detect first emission. Duplicate frontier entries are harmless: the
///   first occurrence takes the bits, later ones see zero and leave the
///   snapshot untouched.
///
/// Returns the union of all propagated bits — the superstep's active-lane
/// mask (free to compute inside the same sweep; the tracing layer records
/// its popcount as lane occupancy) — and the deduplicated active frontier
/// (entries whose snapshot is non-empty, first occurrence only), so the
/// advance never scans a vertex's edges twice for one superstep.
pub fn consume_bits<V: Id>(
    dev: &mut Device,
    flushed: &[V],
    input: &[V],
    visit: &mut [u64],
    prop: &mut [u64],
) -> Result<(u64, Vec<V>)> {
    dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
        for &v in flushed {
            visit[v.idx()] = 0;
        }
        let mut active = 0u64;
        let mut act: Vec<V> = Vec::with_capacity(input.len());
        for &v in input {
            let bits = std::mem::take(&mut visit[v.idx()]);
            if bits != 0 {
                prop[v.idx()] = bits;
                active |= bits;
                act.push(v);
            }
        }
        ((active, act), (flushed.len() + input.len()) as u64)
    })
}

/// **Fused advance+filter** (§VI-C): one kernel, no intermediate frontier in
/// memory. `f` plays both roles: it is the advance functor and its `None`
/// results are the filtered-out elements.
///
/// Executes across [`Device::kernel_threads`] workers; the charged edge
/// count is the sum of per-chunk edge counts, which depends only on the
/// frontier. Stateful callers use [`advance_filter_fused_seq`].
pub fn advance_filter_fused<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    bufs: &FrontierBufs<V>,
    input: &[V],
    f: impl Fn(V, usize, V) -> Option<V> + Sync,
) -> Result<Vec<V>> {
    let threads = dev.kernel_threads();
    dev.kernel(COMPUTE_STREAM, KernelKind::FusedAdvanceFilter, || {
        let chunks = plan_chunks(sub, input, chunk_target::<V>());
        let parts = par::run_chunks(threads, chunks.len(), |c| {
            let (lo, hi) = chunks[c];
            let mut out = bufs.arena.lease();
            let mut edges = 0u64;
            for &v in &input[lo..hi] {
                for e in sub.csr.edge_range(v) {
                    edges += 1;
                    let d = sub.csr.col_indices()[e];
                    if let Some(emit) = f(v, e, d) {
                        out.push(emit);
                    }
                }
            }
            (out, edges)
        });
        let edges: u64 = parts.iter().map(|(_, e)| e).sum();
        let mut out = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
        for (p, _) in parts {
            out.extend_from_slice(&p);
            bufs.arena.reclaim(p);
        }
        (out, edges)
    })
}

/// Sequential [`advance_filter_fused`] for stateful functors (`FnMut`).
/// Charges exactly what the parallel variant charges.
pub fn advance_filter_fused_seq<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    input: &[V],
    mut f: impl FnMut(V, usize, V) -> Option<V>,
) -> Result<Vec<V>> {
    dev.kernel(COMPUTE_STREAM, KernelKind::FusedAdvanceFilter, || {
        let mut out = Vec::new();
        let mut edges = 0u64;
        for &v in input {
            for e in sub.csr.edge_range(v) {
                edges += 1;
                let d = sub.csr.col_indices()[e];
                if let Some(emit) = f(v, e, d) {
                    out.push(emit);
                }
            }
        }
        (out, edges)
    })
}

/// **Advance-accumulate** (draining): move each source's accumulated value
/// out along its out-edges — the push step of a delta iteration (PageRank).
/// For every `v` in `input` with out-edges, `share(v, accum[v])` is added
/// into `accum[d]` for each edge `v → d`, and `accum[v]` is zeroed. Every
/// source is read before any is zeroed, and zeroed before the shares land,
/// so an edge between two sources carries the pre-drain value into the
/// drained slot. `input` must not repeat a vertex.
///
/// Floating-point addition is not associative, so a naive parallel scatter
/// would drift across schedules; instead each chunk scatters into its own
/// dense partial buffer (the per-block partial idiom) and the partials are
/// merged into `accum` in chunk order — making the result bit-identical at
/// every thread count, including one, because the partial path *is* the
/// algorithm. `scratch` is caller-owned so repeated iterations reuse one
/// allocation.
pub fn advance_accumulate<V: Id, O: Id>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    bufs: &mut FrontierBufs<V>,
    input: &[V],
    accum: &mut [f32],
    scratch: &mut Vec<f32>,
    share: impl Fn(V, f32) -> f32 + Sync,
) -> Result<()> {
    let threads = dev.kernel_threads();
    // Load-balancing scan; the chunk target also caps the number of dense
    // partial buffers (workload-derived, so the plan is thread-invariant).
    let (need, chunks) = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
        let need = sub.csr.frontier_out_degree(input);
        let target = (need / ACCUM_MAX_PARTIALS + 1).max(PAR_CHUNK_WORK);
        ((need, plan_chunks(sub, input, target)), input.len() as u64)
    })?;
    // The accumulate scatter merges dense f32 partials in chunk order;
    // splitting it into passes would change the merge order and drift the
    // bits. The intermediate here is never materialized (`resident` is 0),
    // so under pressure a partial grant is accepted as-is — the scatter plan
    // stays workload-derived and the result unchanged.
    bufs.prepare_intermediate_budget(dev, need)?;
    let n = accum.len();
    dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
        if n > 0 && !chunks.is_empty() {
            scratch.resize(chunks.len() * n, 0.0);
            let mut slots: Vec<&mut [f32]> = scratch.chunks_mut(n).collect();
            let src: &[f32] = accum;
            par::for_each_slot_mut(threads, &mut slots, |c, slot| {
                slot.fill(0.0);
                let (lo, hi) = chunks[c];
                for &v in &input[lo..hi] {
                    // Evaluate the functor only for vertices that emit edges
                    // — like edge-centric advance, it never sees a
                    // zero-degree vertex (PR divides by the out-degree).
                    let edges = sub.csr.edge_range(v);
                    if edges.is_empty() {
                        continue;
                    }
                    let cv = share(v, src[v.idx()]);
                    for e in edges {
                        slot[sub.csr.col_indices()[e].idx()] += cv;
                    }
                }
            });
            for &v in input {
                if sub.csr.degree(v) > 0 {
                    accum[v.idx()] = 0.0;
                }
            }
            for slot in slots.iter() {
                for (a, &p) in accum.iter_mut().zip(slot.iter()) {
                    *a += p;
                }
            }
        }
        ((), need as u64)
    })?;
    bufs.record_intermediate(dev, 0)?;
    Ok(())
}

/// **Compute**: run `f` as one per-element kernel over `items` elements
/// (the paper's "computation" step, fused with advance or filter on the
/// GPU; here metered as one filter-throughput launch).
pub fn compute<R>(dev: &mut Device, items: u64, f: impl FnOnce() -> R) -> Result<R> {
    dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || (f(), items))
}

/// **Pull-mode advance** (§VI-A): parallelize across the *unvisited*
/// vertices; for each, scan incoming edges (CSC) and stop at the first
/// parent accepted by `find_parent` — the "edge skipping" that makes
/// direction-optimizing BFS fast. Returns the newly discovered vertices and
/// the number of edges actually scanned (the `a·|E_i|` of Table I).
/// Sequential: the scanned-edge charge depends on visit order, which must
/// stay deterministic.
pub fn advance_pull<V: Id, O: Id>(
    dev: &mut Device,
    csc: &Csr<V, O>,
    unvisited: &[V],
    mut find_parent: impl FnMut(V, V) -> bool,
) -> Result<(Vec<V>, u64)> {
    let (found, scanned) = dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
        let mut found = Vec::new();
        let mut scanned = 0u64;
        for &v in unvisited {
            for &p in csc.neighbors(v) {
                scanned += 1;
                if find_parent(v, p) {
                    found.push(v);
                    break; // edge skipping: remaining parents are not visited
                }
            }
        }
        ((found, scanned), scanned)
    })?;
    Ok((found, scanned))
}

/// **Shrink + pull** in one pass (§VI-A, later backward supersteps): drop
/// from the ascending `unvisited` set every vertex failing `keep`, and for
/// each survivor scan incoming edges exactly as [`advance_pull`] does. The
/// set is compacted in place, so a draining backward pass allocates nothing.
///
/// Valid whenever `keep` and `find_parent` read the same immutable state
/// (the DOBFS label snapshot): then the single pass equals [`filter`]
/// followed by [`advance_pull`], and it launches the same two kernels with
/// the same charges — a Filter on the pre-shrink length, then an Advance on
/// the scanned-edge count — so clocks, counters and traces are bit-identical
/// to the unfused pair.
pub fn retain_pull<V: Id, O: Id>(
    dev: &mut Device,
    csc: &Csr<V, O>,
    unvisited: &mut Vec<V>,
    keep: impl Fn(V) -> bool,
    mut find_parent: impl FnMut(V, V) -> bool,
) -> Result<(Vec<V>, u64)> {
    let before = unvisited.len() as u64;
    let (found, scanned) = dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
        let mut found = Vec::new();
        let mut scanned = 0u64;
        unvisited.retain(|&v| {
            if !keep(v) {
                return false;
            }
            for &p in csc.neighbors(v) {
                scanned += 1;
                if find_parent(v, p) {
                    found.push(v);
                    break; // edge skipping, as in the unfused pull
                }
            }
            true
        });
        ((found, scanned), before)
    })?;
    dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), scanned))?;
    Ok((found, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocScheme;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::HardwareProfile;

    fn single_part() -> (Device, DistGraph<u32, u64>) {
        // 0—1—2—3 path plus 0—2 chord, undirected
        let coo = Coo::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 2)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let dg = DistGraph::build(&g, vec![0; 4], 1, Duplication::All);
        (Device::new(0, HardwareProfile::k40()), dg)
    }

    #[test]
    fn advance_visits_all_frontier_edges() {
        let (mut dev, dg) = single_part();
        let sub = &dg.parts[0];
        let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::JustEnough, 4, 8).unwrap();
        let out = advance(&mut dev, sub, &mut bufs, &[0], |_, _, d| Some(d)).unwrap();
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        assert_eq!(dev.counters.w_items, 2 + 1, "2 edges + 1 scan item");
    }

    #[test]
    fn filter_applies_predicate_and_counts_input() {
        let (mut dev, _) = single_part();
        let out = filter(&mut dev, &[1u32, 2, 3, 4], |v| v % 2 == 0).unwrap();
        assert_eq!(out, vec![2, 4]);
        assert_eq!(dev.counters.w_items, 4);
    }

    #[test]
    fn fused_equals_advance_then_filter() {
        let (mut dev, dg) = single_part();
        let sub = &dg.parts[0];
        let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::Max, 4, 8).unwrap();
        use std::sync::atomic::Ordering::Relaxed;
        let mut seen = [0u32; 4];
        seen[0] = 1;
        let seen = par::as_atomic_u32(&mut seen);
        let a = advance(&mut dev, sub, &mut bufs, &[0], |_, _, d| Some(d)).unwrap();
        let f = filter(&mut dev, &a, |v| {
            seen[v as usize].compare_exchange(0, 1, Relaxed, Relaxed).is_ok()
        })
        .unwrap();

        let mut dev2 = Device::new(0, HardwareProfile::k40());
        let mut seen2 = [false; 4];
        seen2[0] = true;
        let fused = advance_filter_fused_seq(&mut dev2, sub, &[0], |_, _, d| {
            if seen2[d as usize] {
                None
            } else {
                seen2[d as usize] = true;
                Some(d)
            }
        })
        .unwrap();
        let (mut x, mut y) = (f.clone(), fused.clone());
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
        assert!(dev2.counters.kernel_launches < dev.counters.kernel_launches);
    }

    #[test]
    fn empty_frontier_still_pays_launch_overhead() {
        let (mut dev, dg) = single_part();
        let sub = &dg.parts[0];
        let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::JustEnough, 4, 8).unwrap();
        let t0 = dev.now();
        let out = advance(&mut dev, sub, &mut bufs, &[], |_, _, d| Some(d)).unwrap();
        assert!(out.is_empty());
        assert!(dev.now() > t0, "launch overheads accrue even with no work");
    }

    #[test]
    fn pull_advance_skips_edges_after_first_parent() {
        let (mut dev, mut dg) = single_part();
        dg.parts[0].build_csc();
        let sub = &dg.parts[0];
        let csc = sub.csc.as_ref().unwrap();
        // visited = {0}; unvisited 1,2,3 look for a visited parent
        let visited = [true, false, false, false];
        let (found, scanned) =
            advance_pull(&mut dev, csc, &[1, 2, 3], |_, p| visited[p as usize]).unwrap();
        assert_eq!(found, vec![1, 2], "vertex 3 has no visited parent");
        // vertex 1's parents: 0 (hit, 1 scan); vertex 2's: 0,1,3 order by
        // csc — first is 0 (hit, 1 scan); vertex 3's: 2 (miss, 1 scan)
        assert_eq!(scanned, 3);
    }

    #[test]
    fn compute_charges_item_count() {
        let (mut dev, _) = single_part();
        let sum = compute(&mut dev, 100, || (0..100u64).sum::<u64>()).unwrap();
        assert_eq!(sum, 4950);
        assert_eq!(dev.counters.w_items, 100);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::alloc::AllocScheme;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use std::sync::atomic::Ordering::Relaxed;
    use vgpu::{par, BspCounters, HardwareProfile};

    /// A graph big enough that the chunk plan produces many chunks.
    fn big_part() -> DistGraph<u32, u64> {
        const N: usize = 20_000;
        let mut edges = Vec::new();
        for i in 0..N as u32 {
            edges.push((i, (i * 7 + 1) % N as u32));
            edges.push((i, (i * 13 + 5) % N as u32));
            if i % 50 == 0 {
                for k in 0..40u32 {
                    edges.push((i, (i + k * 97 + 3) % N as u32));
                }
            }
        }
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(N, edges, None));
        DistGraph::build(&g, vec![0; N], 1, Duplication::All)
    }

    fn run_advance(threads: usize, dg: &DistGraph<u32, u64>) -> (Vec<u32>, f64, BspCounters) {
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..sub.csr.n_vertices() as u32).collect();
        let mut dev = Device::new(0, HardwareProfile::k40());
        dev.set_kernel_threads(threads);
        let mut bufs =
            FrontierBufs::new(&mut dev, AllocScheme::Max, sub.csr.n_vertices(), sub.csr.n_edges())
                .unwrap();
        let out =
            advance(&mut dev, sub, &mut bufs, &frontier, |s, _, d| (d > s).then_some(d)).unwrap();
        (out, dev.now(), dev.counters)
    }

    #[test]
    fn parallel_advance_is_bit_identical_to_sequential() {
        let dg = big_part();
        let (out1, t1, c1) = run_advance(1, &dg);
        for threads in [2, 4, 8] {
            let (outn, tn, cn) = run_advance(threads, &dg);
            assert_eq!(out1, outn, "emitted frontier order at {threads} threads");
            assert_eq!(t1.to_bits(), tn.to_bits(), "sim clock at {threads} threads");
            assert_eq!(c1, cn, "BSP counters at {threads} threads");
        }
    }

    #[test]
    fn parallel_filter_preserves_input_order_and_charge() {
        let input: Vec<u32> = (0..100_000).collect();
        let run = |threads| {
            let mut dev = Device::new(0, HardwareProfile::k40());
            dev.set_kernel_threads(threads);
            let out = filter(&mut dev, &input, |v| v % 3 == 0).unwrap();
            (out, dev.now(), dev.counters)
        };
        let (o1, t1, c1) = run(1);
        let (o4, t4, c4) = run(4);
        assert_eq!(o1, o4);
        assert_eq!(t1.to_bits(), t4.to_bits());
        assert_eq!(c1, c4);
        assert!(o1.windows(2).all(|w| w[0] < w[1]), "input order preserved");
    }

    #[test]
    fn parallel_fused_charges_the_same_edges() {
        let dg = big_part();
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..sub.csr.n_vertices() as u32).collect();
        let run = |threads| {
            let mut dev = Device::new(0, HardwareProfile::k40());
            dev.set_kernel_threads(threads);
            let bufs = FrontierBufs::new(
                &mut dev,
                AllocScheme::Max,
                sub.csr.n_vertices(),
                sub.csr.n_edges(),
            )
            .unwrap();
            let mut labels = vec![u32::MAX; sub.csr.n_vertices()];
            labels[0] = 0;
            let out = {
                let atoms = par::as_atomic_u32(&mut labels);
                advance_filter_fused(&mut dev, sub, &bufs, &frontier, |_, _, d| {
                    atoms[d as usize]
                        .compare_exchange(u32::MAX, 1, Relaxed, Relaxed)
                        .is_ok()
                        .then_some(d)
                })
                .unwrap()
            };
            (out, labels, dev.now(), dev.counters)
        };
        let (o1, l1, t1, c1) = run(1);
        let (o4, l4, t4, c4) = run(4);
        // CAS claims are set-deterministic: the emitted *set* and the final
        // labels match even though the claiming schedule differs.
        let (mut s1, mut s4) = (o1.clone(), o4.clone());
        s1.sort_unstable();
        s4.sort_unstable();
        assert_eq!(s1, s4);
        assert_eq!(l1, l4);
        assert_eq!(t1.to_bits(), t4.to_bits());
        assert_eq!(c1, c4);
    }

    #[test]
    fn advance_accumulate_is_bit_identical_across_threads() {
        let dg = big_part();
        let sub = &dg.parts[0];
        let n = sub.csr.n_vertices();
        // every third vertex drains: sources and plain destinations both
        // occur, and most edges join the two
        let frontier: Vec<u32> = (0..n as u32).step_by(3).collect();
        let start: Vec<f32> = (0..n).map(|i| 1.0 / (i + 1) as f32).collect();
        let run = |threads| {
            let mut dev = Device::new(0, HardwareProfile::k40());
            dev.set_kernel_threads(threads);
            let mut bufs =
                FrontierBufs::new(&mut dev, AllocScheme::Max, n, sub.csr.n_edges()).unwrap();
            let mut accum = start.clone();
            let mut scratch = Vec::new();
            advance_accumulate(
                &mut dev,
                sub,
                &mut bufs,
                &frontier,
                &mut accum,
                &mut scratch,
                |s, a| 0.85 * a / sub.csr.degree(s) as f32,
            )
            .unwrap();
            (accum, dev.now(), dev.counters)
        };
        let (a1, t1, c1) = run(1);
        // the drain against a sequential f64 push from the pre-drain values
        let mut expect: Vec<f64> = start.iter().map(|&x| x as f64).collect();
        for &v in &frontier {
            expect[v as usize] = 0.0;
        }
        for &v in &frontier {
            let share = 0.85 * start[v as usize] as f64 / sub.csr.degree(v) as f64;
            for &d in sub.csr.neighbors(v) {
                expect[d as usize] += share;
            }
        }
        for (i, (&got, &want)) in a1.iter().zip(&expect).enumerate() {
            assert!((got as f64 - want).abs() <= 1e-5 * want.abs(), "vertex {i}: {got} vs {want}");
        }
        let mass = |xs: &[f32]| xs.iter().map(|&x| x as f64).sum::<f64>();
        let moved: f64 = frontier.iter().map(|&v| start[v as usize] as f64).sum();
        assert!((mass(&a1) - (mass(&start) - 0.15 * moved)).abs() < 1e-3, "only 1 - d is lost");
        for threads in [2, 4] {
            let (an, tn, cn) = run(threads);
            let bits1: Vec<u32> = a1.iter().map(|x| x.to_bits()).collect();
            let bitsn: Vec<u32> = an.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits1, bitsn, "f32 accumulation bits at {threads} threads");
            assert_eq!(t1.to_bits(), tn.to_bits());
            assert_eq!(c1, cn);
        }
    }

    #[test]
    fn seq_variants_charge_identically_to_parallel() {
        let dg = big_part();
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..sub.csr.n_vertices() as u32).collect();
        let mut dev_p = Device::new(0, HardwareProfile::k40());
        dev_p.set_kernel_threads(4);
        let mut dev_s = Device::new(0, HardwareProfile::k40());
        dev_s.set_kernel_threads(1);
        let n = sub.csr.n_vertices();
        let mut bufs_p =
            FrontierBufs::new(&mut dev_p, AllocScheme::Max, n, sub.csr.n_edges()).unwrap();
        let mut bufs_s =
            FrontierBufs::new(&mut dev_s, AllocScheme::Max, n, sub.csr.n_edges()).unwrap();
        let p = advance(&mut dev_p, sub, &mut bufs_p, &frontier, |_, _, d| Some(d)).unwrap();
        let s = advance(&mut dev_s, sub, &mut bufs_s, &frontier, |_, _, d| Some(d)).unwrap();
        assert_eq!(p, s);
        assert_eq!(dev_p.now().to_bits(), dev_s.now().to_bits());
        assert_eq!(dev_p.counters, dev_s.counters);

        let fp = filter(&mut dev_p, &frontier, |v| v % 2 == 0).unwrap();
        let fs = filter(&mut dev_s, &frontier, |v| v % 2 == 0).unwrap();
        assert_eq!(fp, fs);
        assert_eq!(dev_p.now().to_bits(), dev_s.now().to_bits());

        let gp = advance_filter_fused(&mut dev_p, sub, &bufs_p, &frontier, |s, _, d| {
            (d > s).then_some(d)
        })
        .unwrap();
        let gs =
            advance_filter_fused_seq(&mut dev_s, sub, &frontier, |s, _, d| (d > s).then_some(d))
                .unwrap();
        assert_eq!(gp, gs);
        assert_eq!(dev_p.now().to_bits(), dev_s.now().to_bits());
        assert_eq!(dev_p.counters, dev_s.counters);
    }
}

#[cfg(test)]
mod pressure_tests {
    use super::*;
    use crate::alloc::AllocScheme;
    use crate::governor::PressurePolicy;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::interconnect::Link;
    use vgpu::{BspCounters, HardwareProfile};

    fn part() -> DistGraph<u32, u64> {
        const N: usize = 4000;
        let mut edges = Vec::new();
        for i in 0..N as u32 {
            edges.push((i, (i + 1) % N as u32));
            edges.push((i, (i * 31 + 7) % N as u32));
        }
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(N, edges, None));
        DistGraph::build(&g, vec![0; N], 1, Duplication::All)
    }

    fn run(threads: usize, cap: Option<u64>) -> (Vec<u32>, f64, BspCounters, u64) {
        let dg = part();
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..sub.csr.n_vertices() as u32).collect();
        let profile = match cap {
            Some(c) => HardwareProfile::k40().with_capacity(c),
            None => HardwareProfile::k40(),
        };
        let mut dev = Device::new(0, profile);
        dev.set_kernel_threads(threads);
        let mut bufs = FrontierBufs::new(
            &mut dev,
            AllocScheme::JustEnough,
            sub.csr.n_vertices(),
            sub.csr.n_edges(),
        )
        .unwrap()
        .with_pressure(PressurePolicy::governed(), Link { bandwidth_gb_s: 16.0, latency_us: 25.0 });
        let out =
            advance(&mut dev, sub, &mut bufs, &frontier, |s, _, d| (d > s).then_some(d)).unwrap();
        (out, dev.now(), dev.counters, bufs.governor().chunk_passes)
    }

    #[test]
    fn chunked_multi_pass_matches_unconstrained_results() {
        let (full, t_full, _, p_full) = run(1, None);
        assert_eq!(p_full, 0, "no pressure, no chunking");
        let (capped, t_capped, _, passes) = run(1, Some(20_000));
        assert!(passes >= 2, "the tight pool must force a multi-pass, got {passes}");
        assert_eq!(full, capped, "emitted frontier bit-identical under pressure");
        assert!(t_capped > t_full, "degrading is slower, never wrong");
    }

    #[test]
    fn chunked_multi_pass_is_bit_identical_across_threads() {
        let (o1, t1, c1, p1) = run(1, Some(20_000));
        for threads in [2, 4] {
            let (on, tn, cn, pn) = run(threads, Some(20_000));
            assert_eq!(o1, on, "emissions at {threads} threads");
            assert_eq!(t1.to_bits(), tn.to_bits(), "sim clock at {threads} threads");
            assert_eq!(c1, cn, "counters at {threads} threads");
            assert_eq!(p1, pn, "pass count at {threads} threads");
        }
    }

    #[test]
    fn infeasible_chunk_budget_is_a_typed_oom() {
        // a hub whose adjacency exceeds anything a 600-byte pool can grant
        let mut coo = Coo::<u32>::new(300);
        for leaf in 1..300u32 {
            coo.push(0, leaf);
        }
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let dg = DistGraph::build(&g, vec![0; 300], 1, Duplication::All);
        let sub = &dg.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40().with_capacity(600));
        let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::JustEnough, 300, sub.csr.n_edges())
            .unwrap()
            .with_pressure(
                PressurePolicy::governed(),
                Link { bandwidth_gb_s: 16.0, latency_us: 25.0 },
            );
        let err = advance(&mut dev, sub, &mut bufs, &[0], |_, _, d| Some(d)).unwrap_err();
        assert!(matches!(err, VgpuError::OutOfMemory { .. }), "typed, not a panic: {err:?}");
    }
}

#[cfg(test)]
mod advance_mode_tests {
    use super::*;
    use crate::alloc::AllocScheme;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::HardwareProfile;

    /// star: hub 0 with 2048 leaves, plus a large matching — enough work
    /// that kernel time dominates launch overhead
    fn skewed() -> DistGraph<u32, u64> {
        const N: usize = 8192;
        let mut coo = Coo::<u32>::new(N);
        for leaf in 1..2049u32 {
            coo.push(0, leaf);
        }
        for i in 0..((N as u32 - 2050) / 2) {
            coo.push(2049 + 2 * i, 2050 + 2 * i);
        }
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        DistGraph::build(&g, vec![0; N], 1, Duplication::All)
    }

    #[test]
    fn modes_produce_identical_results() {
        let dg = skewed();
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..8192).collect();
        let run = |mode| {
            let mut dev = Device::new(0, HardwareProfile::k40());
            let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::Max, 8192, 16384).unwrap();
            let mut out =
                advance_with_mode(&mut dev, sub, &mut bufs, &frontier, mode, |_, _, d| Some(d))
                    .unwrap();
            out.sort_unstable();
            (out, dev.now())
        };
        let (lb, t_lb) = run(AdvanceMode::LoadBalanced);
        let (tm, t_tm) = run(AdvanceMode::ThreadMapped);
        assert_eq!(lb, tm, "identical emitted frontiers");
        assert!(t_tm > 2.0 * t_lb, "hub skew must penalize thread-mapped: {t_tm} vs {t_lb}");
    }

    #[test]
    fn retain_pull_equals_filter_then_advance_pull() {
        let mut dg = skewed();
        dg.parts[0].build_csc();
        let csc = dg.parts[0].csc.as_ref().unwrap();
        // one label snapshot read by both closures, as in the DOBFS backward
        // superstep: 1 = discovered last superstep, 0 = earlier, 9 = unvisited
        let label = |v: u32| match (v.is_multiple_of(5), v.is_multiple_of(7)) {
            (true, _) => 1,
            (false, true) => 0,
            (false, false) => 9,
        };
        let input: Vec<u32> = (0..8192u32).filter(|v| v % 3 != 0).collect();
        let keep = |v: u32| label(v) == 9;
        let find_parent = |_: u32, p: u32| label(p) == 1;

        let mut dev0 = Device::new(0, HardwareProfile::k40());
        let kept0 = filter(&mut dev0, &input, keep).unwrap();
        let (found0, scanned0) = advance_pull(&mut dev0, csc, &kept0, find_parent).unwrap();
        assert!(!found0.is_empty() && found0.len() < kept0.len(), "fixture exercises both arms");

        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut set = input.clone();
        let (found, scanned) = retain_pull(&mut dev, csc, &mut set, keep, find_parent).unwrap();
        assert_eq!((found, scanned), (found0, scanned0));
        assert_eq!(set, kept0, "the keep-filtered input, still ascending");
        assert_eq!(dev.now().to_bits(), dev0.now().to_bits(), "sim clock");
        assert_eq!(dev.counters, dev0.counters, "counters");
    }

    #[test]
    fn retain_pull_on_an_empty_set_still_pays_two_launches() {
        let mut dg = skewed();
        dg.parts[0].build_csc();
        let csc = dg.parts[0].csc.as_ref().unwrap();
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut set: Vec<u32> = Vec::new();
        let (found, scanned) = retain_pull(&mut dev, csc, &mut set, |_| true, |_, _| true).unwrap();
        assert!(found.is_empty() && set.is_empty());
        assert_eq!(scanned, 0);
        assert_eq!(dev.counters.kernel_launches, 2);
        assert_eq!(dev.counters.w_items, 0);
        assert!(dev.now() > 0.0, "launch overheads accrue even with no work");
    }

    #[test]
    fn thread_mapped_is_fine_on_uniform_degree() {
        // cycle: all degrees equal — thread mapping loses nothing but the scan
        let edges: Vec<(u32, u32)> = (0..64u32).map(|i| (i, (i + 1) % 64)).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(64, edges, None));
        let dg = DistGraph::build(&g, vec![0; 64], 1, Duplication::All);
        let sub = &dg.parts[0];
        let frontier: Vec<u32> = (0..64).collect();
        let time = |mode| {
            let mut dev = Device::new(0, HardwareProfile::k40());
            let mut bufs = FrontierBufs::new(&mut dev, AllocScheme::Max, 64, 128).unwrap();
            advance_with_mode(&mut dev, sub, &mut bufs, &frontier, mode, |_, _, d| Some(d))
                .unwrap();
            dev.now()
        };
        let t_lb = time(AdvanceMode::LoadBalanced);
        let t_tm = time(AdvanceMode::ThreadMapped);
        assert!((t_tm - t_lb).abs() < t_lb * 0.5, "near parity on uniform degree");
    }
}
