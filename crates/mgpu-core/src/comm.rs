//! Communication strategies: frontier splitting, packaging, and the wire
//! format (§III-C).
//!
//! * **Selective-communicate** — send frontier vertices only to their
//!   hosting GPUs; requires a split pass over the output frontier but moves
//!   the minimum volume. Vertex ids on the wire are *owner-local* ids (the
//!   sender resolves each proxy through the conversion table, so the
//!   receiver indexes its arrays directly).
//! * **Broadcast** — send the whole frontier to every peer; no split needed,
//!   but more volume and more combine work (`C ∈ O((n−1)·|V|)` for DOBFS,
//!   Table I). Vertex ids on the wire are *global* ids.
//!
//! Splitting and packaging are "communication computation" — the `C` term
//! of the paper's cost model — and are metered as [`KernelKind::Split`]
//! launches.
//!
//! # The wire (DESIGN.md §10)
//!
//! A package *is* its encoded bytes, and `wire_bytes` is their length — the
//! `H` term is a measurement, never an estimate. Two mechanisms keep it
//! small without changing results:
//!
//! * **Encodings** ([`PackageEncoding`]): a plain list, a dense bitmap over
//!   the broadcast space, or delta-varint over sorted ids. [`WireEncoding`]
//!   is the policy: the default `Auto` takes the smallest eligible encoding
//!   per package; `List` is the paper's `(id, label)` wire, kept as the
//!   ablation arm the reductions are measured against.
//! * **Canonical packages**: monotone packages are sorted by vertex id and
//!   deduplicated (keeping the minimum key, or the OR of the bits), which
//!   both enables the sorted encodings and removes intra-package duplicates
//!   a monotone combiner would reject anyway.

use std::borrow::Cow;
use std::marker::PhantomData;

use mgpu_graph::Id;
use mgpu_partition::SubGraph;
use vgpu::{Device, KernelKind, Result, COMPUTE_STREAM};

use crate::problem::Wire;

/// Which communication strategy a primitive uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommStrategy {
    /// Whole frontier to all peers; wire ids are global.
    Broadcast,
    /// Split per hosting GPU; wire ids are owner-local.
    Selective,
}

named!(CommStrategy { Selective => "selective", Broadcast => "broadcast" });

/// Ignored, like the `EnactConfig::comm_topology` field that holds it:
/// every sender pushes its package directly to all n−1 peers (the paper's
/// model). Both variants stay only because the wall-clock harness
/// (`benchmark/src/api.rs`) still spells `Butterfly`; the type goes when the
/// harness is re-linked (ROADMAP item 1, step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommTopology {
    /// The direct n×(n−1) fan-out.
    #[default]
    Direct,
    /// Ignored: runs exactly as `Direct`.
    Butterfly,
}

named!(CommTopology { Direct => "direct", Butterfly => "butterfly" });

/// Wire-encoding policy (`EnactConfig` knob): how packages are turned into
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireEncoding {
    /// Pick the smallest eligible of the three encodings per package; the
    /// default.
    #[default]
    Auto,
    /// Force the list encoding (ids + payloads verbatim): the paper's wire.
    List,
}

named!(WireEncoding { Auto => "auto", List => "list" });

/// The concrete encoding a package ended up with (reported in the
/// `EnactReport` encoding histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackageEncoding {
    /// `[tag][count × (id, payload)]` — the count is implied by the
    /// package length.
    List,
    /// `[tag][payload][⌈space/8⌉ bitmap]` — one shared payload, membership
    /// by bit, the bit array running to the end of the package. Requires a
    /// uniform payload and sorted ids within a known vertex space
    /// (broadcast packages).
    Bitmap,
    /// `[tag][varint count][varint first id][varint deltas][payload(s)]` —
    /// LEB128 gaps over sorted ids; uniformity is carried by the tag and a
    /// uniform payload is stored once, else per vertex.
    DeltaVarint,
}

// --- LEB128 varints -------------------------------------------------------

fn varint_len(mut x: u64) -> usize {
    let mut n = 1;
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8 & 0x7f) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let b = buf[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

fn write_id<V: Id>(out: &mut Vec<u8>, v: V) {
    let b = (v.idx() as u64).to_le_bytes();
    out.extend_from_slice(&b[..V::BYTES]);
}

fn read_id<V: Id>(buf: &[u8]) -> V {
    let mut b = [0u8; 8];
    b[..V::BYTES].copy_from_slice(&buf[..V::BYTES]);
    V::from_usize(u64::from_le_bytes(b) as usize)
}

// --- packages -------------------------------------------------------------

/// A packaged remote sub-frontier: vertices plus their programmer-specified
/// associated data, held as the bytes that cross the link.
/// [`Package::decode`] yields the `(vertices, msgs)` view back.
#[derive(Debug, Clone)]
pub struct Package<V, M> {
    bytes: Vec<u8>,
    len: usize,
    encoding: PackageEncoding,
    wire: PhantomData<fn() -> (V, M)>,
}

impl<V: Id, M: Wire> Package<V, M> {
    /// Build a package under an encoding policy: `Auto` picks the smallest
    /// eligible encoding, `List` always writes the list. `space` is the
    /// broadcast vertex-space size when known (enables the bitmap);
    /// `uniform_hint` lets a primitive that already knows every message of
    /// the superstep carries the same label skip the O(n) payload scan.
    pub fn encode(
        vertices: Vec<V>,
        msgs: Vec<M>,
        choice: WireEncoding,
        space: Option<usize>,
        uniform_hint: Option<bool>,
    ) -> Self {
        debug_assert_eq!(vertices.len(), msgs.len());
        let len = vertices.len();
        let uniform = uniform_hint.unwrap_or_else(|| msgs.windows(2).all(|w| w[0] == w[1]));
        debug_assert!(
            uniform_hint != Some(true) || msgs.windows(2).all(|w| w[0] == w[1]),
            "uniform_broadcast_msgs hint must be truthful"
        );
        let mut best = ((1 + len * (V::BYTES + M::BYTES)) as u64, PackageEncoding::List);
        if choice == WireEncoding::Auto && vertices.windows(2).all(|w| w[0].idx() < w[1].idx()) {
            let mut delta = (1 + varint_len(len as u64)) as u64;
            let mut prev = 0u64;
            for (i, v) in vertices.iter().enumerate() {
                let x = v.idx() as u64;
                delta += varint_len(if i == 0 { x } else { x - prev }) as u64;
                prev = x;
            }
            delta += match (uniform, len) {
                (_, 0) => 0,
                (true, _) => M::BYTES as u64,
                (false, _) => (len * M::BYTES) as u64,
            };
            if delta < best.0 {
                best = (delta, PackageEncoding::DeltaVarint);
            }
            // the bitmap also needs one shared payload and every id in the space
            if let Some(s) =
                space.filter(|&s| uniform && vertices.last().is_some_and(|v| v.idx() < s))
            {
                let bitmap = (1 + M::BYTES) as u64 + (s as u64).div_ceil(8);
                if bitmap < best.0 {
                    best = (bitmap, PackageEncoding::Bitmap);
                }
            }
        }
        let (bytes, encoding) = best;
        let mut out = Vec::with_capacity(bytes as usize);
        write(encoding, &vertices, &msgs, space, uniform, &mut out);
        Package { bytes: out, len, encoding, wire: PhantomData }
    }

    /// The `(vertices, msgs)` view of the package, decoded from the wire
    /// bytes. Decoding is exact: packages round-trip bit-identically. Both
    /// halves are always owned; the `Cow` is the signature callers outside
    /// the workspace are compiled against.
    pub fn decode(&self) -> (Cow<'_, [V]>, Cow<'_, [M]>) {
        let (vs, ms) = decode_bytes::<V, M>(&self.bytes);
        (Cow::Owned(vs), Cow::Owned(ms))
    }

    /// The encoded bytes.
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size on the wire in bytes: the exact length of the encoding.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The encoding this package carries.
    pub fn encoding(&self) -> PackageEncoding {
        self.encoding
    }

    /// Number of vertices in the package.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the package carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Append `(vertices, msgs)` to `out` in `encoding`, which must be eligible
/// for them: any package for the list; ascending ids for delta-varint
/// (`uniform` stores one payload); ascending ids inside `space` with one
/// shared payload, at least one vertex, for the bitmap.
fn write<V: Id, M: Wire>(
    encoding: PackageEncoding,
    vertices: &[V],
    msgs: &[M],
    space: Option<usize>,
    uniform: bool,
    out: &mut Vec<u8>,
) {
    match encoding {
        PackageEncoding::List => {
            out.push(0);
            for (v, m) in vertices.iter().zip(msgs) {
                write_id(out, *v);
                m.write_to(out);
            }
        }
        PackageEncoding::Bitmap => {
            let s = space.expect("bitmap requires a vertex space");
            out.push(1);
            msgs[0].write_to(out);
            let base = out.len();
            out.resize(base + s.div_ceil(8), 0);
            for v in vertices {
                let i = v.idx();
                out[base + i / 8] |= 1 << (i % 8);
            }
        }
        PackageEncoding::DeltaVarint => {
            out.push(if uniform { 3 } else { 2 });
            write_varint(out, vertices.len() as u64);
            let mut prev = 0u64;
            for (i, v) in vertices.iter().enumerate() {
                let x = v.idx() as u64;
                write_varint(out, if i == 0 { x } else { x - prev });
                prev = x;
            }
            let payloads = if uniform { &msgs[..msgs.len().min(1)] } else { msgs };
            for m in payloads {
                m.write_to(out);
            }
        }
    }
}

fn decode_bytes<V: Id, M: Wire>(b: &[u8]) -> (Vec<V>, Vec<M>) {
    match b[0] {
        0 => {
            let count = (b.len() - 1) / (V::BYTES + M::BYTES);
            let mut vs = Vec::with_capacity(count);
            let mut ms = Vec::with_capacity(count);
            let mut pos = 1;
            for _ in 0..count {
                vs.push(read_id::<V>(&b[pos..]));
                pos += V::BYTES;
                ms.push(M::read_from(&b[pos..]));
                pos += M::BYTES;
            }
            (vs, ms)
        }
        1 => {
            let msg = M::read_from(&b[1..]);
            let bits = &b[1 + M::BYTES..];
            let mut vs = Vec::new();
            for (byte_i, &byte) in bits.iter().enumerate() {
                let mut rest = byte;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    vs.push(V::from_usize(byte_i * 8 + bit));
                    rest &= rest - 1;
                }
            }
            let ms = vec![msg; vs.len()];
            (vs, ms)
        }
        2 | 3 => {
            let uniform = b[0] == 3;
            let mut pos = 1;
            let count = read_varint(b, &mut pos) as usize;
            let mut vs = Vec::with_capacity(count);
            let mut acc = 0u64;
            for i in 0..count {
                let d = read_varint(b, &mut pos);
                acc = if i == 0 { d } else { acc + d };
                vs.push(V::from_usize(acc as usize));
            }
            let ms = if uniform {
                if count > 0 {
                    vec![M::read_from(&b[pos..]); count]
                } else {
                    Vec::new()
                }
            } else {
                let mut ms = Vec::with_capacity(count);
                for _ in 0..count {
                    ms.push(M::read_from(&b[pos..]));
                    pos += M::BYTES;
                }
                ms
            };
            (vs, ms)
        }
        t => unreachable!("unknown package tag {t}"),
    }
}

// --- monotone canonicalization --------------------------------------------

/// The partial order a monotone combiner improves under: which lattice
/// canonicalization keeps the best of a vertex's duplicate messages in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonotoneOrder {
    /// Total order on `u64` keys, lower = better (BFS depth, SSSP distance).
    /// Duplicates keep the lowest key.
    #[default]
    MinKey,
    /// Bitfield lattice: keys are `u64` bit sets, combined by OR, larger =
    /// better (MS-BFS reached sets). Duplicates merge by a problem-supplied
    /// OR-style merge.
    OrBits,
}

// --- packaging policy -----------------------------------------------------

/// How the packaging functions should treat a primitive's packages: the
/// wire encoding in force, whether the combiner is monotone (enables
/// canonicalization), and the optional payload-uniformity hint. The default
/// is `Auto`, non-monotone, no hint.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackagePolicy {
    /// Encoding policy (from `EnactConfig::wire_encoding`).
    pub encoding: WireEncoding,
    /// `MgpuProblem::monotone()` — the combiner is a min-combine.
    pub monotone: bool,
    /// `MgpuProblem::uniform_broadcast_msgs()` — every broadcast message of
    /// a superstep carries the same payload.
    pub uniform_hint: Option<bool>,
    /// `MgpuProblem::monotone_order()` — which lattice the combiner
    /// improves under (decides duplicate handling).
    pub order: MonotoneOrder,
}

/// Sort `(vertex, msg)` pairs by (vertex id, key) and keep only the lowest
/// key per vertex — the canonical form of a monotone package.
fn canonicalize_monotone<V: Id, M: Wire>(
    vertices: Vec<V>,
    msgs: Vec<M>,
    key: &impl Fn(&M) -> u64,
) -> (Vec<V>, Vec<M>) {
    let mut pairs: Vec<(V, M)> = vertices.into_iter().zip(msgs).collect();
    pairs.sort_by_key(|(v, m)| (v.idx(), key(m)));
    pairs.dedup_by(|a, b| a.0.idx() == b.0.idx());
    pairs.into_iter().unzip()
}

/// Or-bits sibling of [`canonicalize_monotone`]: sort by vertex id and
/// *merge* duplicate vertices into one message carrying the combined bits
/// (OR has no "lowest key to keep" — the canonical form is the union). The
/// sort is stable and the merge folds left-to-right, so the result is a
/// pure function of the input multiset order.
fn canonicalize_or_merge<V: Id, M: Wire>(
    vertices: Vec<V>,
    msgs: Vec<M>,
    merge: &impl Fn(&M, &M) -> M,
) -> (Vec<V>, Vec<M>) {
    let mut pairs: Vec<(V, M)> = vertices.into_iter().zip(msgs).collect();
    pairs.sort_by_key(|(v, _)| v.idx());
    let mut out_v: Vec<V> = Vec::with_capacity(pairs.len());
    let mut out_m: Vec<M> = Vec::with_capacity(pairs.len());
    for (v, m) in pairs {
        match out_v.last() {
            Some(last) if last.idx() == v.idx() => {
                let lm = out_m.last_mut().expect("out_v and out_m move in lockstep");
                *lm = merge(lm, &m);
            }
            _ => {
                out_v.push(v);
                out_m.push(m);
            }
        }
    }
    (out_v, out_m)
}

/// Canonicalize per the policy's lattice: min-keep under `MinKey`, OR-merge
/// under `OrBits`. The shared entry point for the packaging functions.
fn canonicalize_ordered<V: Id, M: Wire>(
    vertices: Vec<V>,
    msgs: Vec<M>,
    order: MonotoneOrder,
    key: &impl Fn(&M) -> u64,
    merge: &impl Fn(&M, &M) -> M,
) -> (Vec<V>, Vec<M>) {
    match order {
        MonotoneOrder::MinKey => canonicalize_monotone(vertices, msgs, key),
        MonotoneOrder::OrBits => canonicalize_or_merge(vertices, msgs, merge),
    }
}

/// What a selective split produces: the local sub-frontier plus one
/// optional package per peer (`None` when nothing goes to that peer).
pub type SplitOutput<V, M> = (Vec<V>, Vec<Option<Package<V, M>>>);

/// Reusable split scratch: the per-peer destination histogram. Owned by the
/// caller (one per device, inside `FrontierBufs`) so the per-iteration split
/// allocates nothing beyond the exact-capacity output buffers.
#[derive(Debug, Default)]
pub struct SplitScratch {
    counts: Vec<usize>,
}

/// Selective split: divide `frontier` (local ids) into the local
/// sub-frontier (owned vertices) and one package per peer holding that
/// peer's vertices as owner-local ids. Metered as one Split kernel over the
/// frontier ("data packaging can be done together with frontier splitting").
///
/// Two passes — count, then scatter — so every output buffer is allocated
/// once at its exact final size; the GPU split kernel does the same
/// (histogram + prefix sum + scatter) to compute output cursors. The charge
/// is one frontier scan, as before: the count pass models the cursor
/// computation that the atomic-throughput `Split` metering already covers.
pub fn split_and_package<V: Id, O: Id, M: Wire>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    frontier: &[V],
    scratch: &mut SplitScratch,
    packager: impl FnMut(V) -> M,
) -> Result<SplitOutput<V, M>> {
    split_and_package_with(
        dev,
        sub,
        frontier,
        scratch,
        packager,
        PackagePolicy::default(),
        |_| 0,
        |a, _| a.clone(),
    )
}

/// [`split_and_package`] under an explicit policy: the encoding, the
/// primitive's monotone key extractor, and the duplicate merge used by
/// or-bits canonicalization (ignored under min-key).
#[allow(clippy::too_many_arguments)]
pub fn split_and_package_with<V: Id, O: Id, M: Wire>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    frontier: &[V],
    scratch: &mut SplitScratch,
    mut packager: impl FnMut(V) -> M,
    policy: PackagePolicy,
    key: impl Fn(&M) -> u64,
    merge: impl Fn(&M, &M) -> M,
) -> Result<SplitOutput<V, M>> {
    let n_parts = sub.n_parts;
    dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
        // pass 1: destination histogram (slot n_parts counts the local part)
        let counts = &mut scratch.counts;
        counts.clear();
        counts.resize(n_parts + 1, 0);
        for &v in frontier {
            if sub.is_owned(v) {
                counts[n_parts] += 1;
            } else {
                counts[sub.owner(v) as usize] += 1;
            }
        }
        // pass 2: scatter into exact-capacity buffers
        let mut local = Vec::with_capacity(counts[n_parts]);
        let mut parts: Vec<(Vec<V>, Vec<M>)> = counts[..n_parts]
            .iter()
            .map(|&c| (Vec::with_capacity(c), Vec::with_capacity(c)))
            .collect();
        for &v in frontier {
            if sub.is_owned(v) {
                local.push(v);
            } else {
                let peer = sub.owner(v) as usize;
                parts[peer].0.push(sub.to_owner_local(v));
                parts[peer].1.push(packager(v));
            }
        }
        let pkgs: Vec<Option<Package<V, M>>> = parts
            .into_iter()
            .map(|(vs, ms)| {
                (!vs.is_empty()).then(|| {
                    let (vs, ms) = if policy.monotone {
                        canonicalize_ordered(vs, ms, policy.order, &key, &merge)
                    } else {
                        (vs, ms)
                    };
                    // selective wire ids are owner-local: no shared space for
                    // the bitmap, and the payload is rarely uniform
                    Package::encode(vs, ms, policy.encoding, None, None)
                })
            })
            .collect();
        ((local, pkgs), frontier.len() as u64)
    })
}

/// Broadcast packaging under `policy`: the whole frontier (as global ids)
/// goes to every peer; the local sub-frontier is the whole frontier — the
/// caller keeps using its own frontier vector, so nothing is copied for the
/// local part. No split pass is needed, only id conversion and data
/// packaging (canonical when the policy is monotone) — still one
/// Split-class kernel, but the per-peer loop disappears. The returned
/// package is wrapped in an `Arc` by the sender and fanned out to all peers
/// without further copies.
pub fn broadcast_package_with<V: Id, O: Id, M: Wire>(
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    frontier: &[V],
    mut packager: impl FnMut(V) -> M,
    policy: PackagePolicy,
    key: impl Fn(&M) -> u64,
    merge: impl Fn(&M, &M) -> M,
) -> Result<Package<V, M>> {
    let (vertices, msgs) = dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
        let vertices: Vec<V> = frontier.iter().map(|&v| sub.to_global(v)).collect();
        let msgs: Vec<M> = frontier.iter().map(|&v| packager(v)).collect();
        let block = if policy.monotone {
            canonicalize_ordered(vertices, msgs, policy.order, &key, &merge)
        } else {
            (vertices, msgs)
        };
        (block, frontier.len() as u64)
    })?;
    // broadcast ids live in the global space; the bitmap alternative spans
    // that space
    Ok(Package::encode(vertices, msgs, policy.encoding, Some(sub.n_global), policy.uniform_hint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::HardwareProfile;

    fn cycle6(dup: Duplication) -> DistGraph<u32, u64> {
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(6, edges, None));
        DistGraph::build(&g, vec![0, 0, 0, 1, 1, 1], 2, dup)
    }

    #[test]
    fn selective_split_separates_owned_and_remote_dup_all() {
        let dg = cycle6(Duplication::All);
        let mut dev = Device::new(0, HardwareProfile::k40());
        // GPU0's frontier holds owned {1,2} and remote {3,5}
        let mut scratch = SplitScratch::default();
        let (local, pkgs) =
            split_and_package(&mut dev, &dg.parts[0], &[1, 2, 3, 5], &mut scratch, |v| v * 10)
                .unwrap();
        assert_eq!(local, vec![1, 2]);
        assert!(pkgs[0].is_none(), "nothing to self");
        let p1 = pkgs[1].as_ref().unwrap();
        let (vs, ms) = p1.decode();
        assert_eq!(vs.as_ref(), &[3, 5], "dup-all wire ids are global ids");
        assert_eq!(ms.as_ref(), &[30, 50]);
        // ascending ids, distinct payloads: tag + count + two 1-byte gaps + 2 × 4
        assert_eq!(p1.encoding(), PackageEncoding::DeltaVarint);
        assert_eq!(p1.wire_bytes(), 1 + 1 + 2 + 2 * 4);
        assert_eq!(dev.counters.c_items, 4, "split is communication computation");
    }

    #[test]
    fn selective_split_converts_proxies_to_owner_local_ids_one_hop() {
        let dg = cycle6(Duplication::OneHop);
        let mut dev = Device::new(0, HardwareProfile::k40());
        // On GPU0: locals 0..3 owned; proxy 3 = global 3 (owner-local 0),
        // proxy 4 = global 5 (owner-local 2)
        let mut scratch = SplitScratch::default();
        let (local, pkgs) =
            split_and_package(&mut dev, &dg.parts[0], &[2, 3, 4], &mut scratch, |v| v).unwrap();
        assert_eq!(local, vec![2]);
        let p1 = pkgs[1].as_ref().unwrap();
        let (vs, ms) = p1.decode();
        assert_eq!(vs.as_ref(), &[0, 2], "owner-local ids on the wire");
        assert_eq!(ms.as_ref(), &[3, 4], "packager saw sender-local ids");
    }

    #[test]
    fn broadcast_keeps_whole_frontier_local_and_packages_global_ids() {
        let dg = cycle6(Duplication::OneHop);
        let mut dev = Device::new(0, HardwareProfile::k40());
        let frontier = [2u32, 4];
        let pkg = broadcast_package_with(
            &mut dev,
            &dg.parts[0],
            &frontier,
            |_| (),
            PackagePolicy::default(),
            |_| 0,
            |a, _| *a,
        )
        .unwrap();
        // the caller's own frontier *is* the local part — nothing is copied
        let (vs, _) = pkg.decode();
        assert_eq!(vs.as_ref(), &[2, 5], "local 4 is global 5");
        // global id 5 lies outside the part's 5-vertex local space but inside
        // the 6-vertex global one the bitmap spans, so Auto takes the bitmap:
        // tag + one byte of bits (delta-varint would cost tag + count + 2 gaps)
        assert_eq!(pkg.encoding(), PackageEncoding::Bitmap);
        assert_eq!(pkg.wire_bytes(), 2);
    }

    #[test]
    fn empty_frontier_produces_no_packages() {
        let dg = cycle6(Duplication::All);
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut scratch = SplitScratch::default();
        let (local, pkgs) =
            split_and_package::<u32, u64, ()>(&mut dev, &dg.parts[0], &[], &mut scratch, |_| ())
                .unwrap();
        assert!(local.is_empty());
        assert!(pkgs.iter().all(Option::is_none));
    }

    #[test]
    fn split_scratch_is_reusable_across_iterations() {
        let dg = cycle6(Duplication::All);
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut scratch = SplitScratch::default();
        for frontier in [vec![1u32, 3, 5], vec![0, 2], vec![4], vec![]] {
            let (local, pkgs) =
                split_and_package(&mut dev, &dg.parts[0], &frontier, &mut scratch, |v| v).unwrap();
            let total: usize = local.len() + pkgs.iter().flatten().map(Package::len).sum::<usize>();
            assert_eq!(total, frontier.len(), "split conserves the frontier");
        }
    }

    #[test]
    fn or_merge_canonicalization_unions_duplicates() {
        let (vs, ms) = canonicalize_or_merge(
            vec![7u32, 2, 7, 2, 5],
            vec![0b001u64, 0b010, 0b100, 0b100, 0b1],
            &|a, b| a | b,
        );
        assert_eq!(vs, vec![2, 5, 7], "sorted by vertex id, one entry each");
        assert_eq!(ms, vec![0b110, 0b1, 0b101], "duplicate payloads merged by OR");
    }
}

#[cfg(test)]
mod encoding_tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const ENCODINGS: [PackageEncoding; 3] =
        [PackageEncoding::List, PackageEncoding::Bitmap, PackageEncoding::DeltaVarint];

    /// One writer driven directly, bypassing the size-based choice.
    fn written<M: Wire>(
        encoding: PackageEncoding,
        vs: &[u32],
        ms: &[M],
        space: Option<usize>,
    ) -> Package<u32, M> {
        let uniform = ms.windows(2).all(|w| w[0] == w[1]);
        let mut bytes = Vec::new();
        write(encoding, vs, ms, space, uniform, &mut bytes);
        Package { bytes, len: vs.len(), encoding, wire: PhantomData }
    }

    /// Whether `encoding` can carry the package (see [`write`]).
    fn eligible<M: Wire>(
        encoding: PackageEncoding,
        vs: &[u32],
        ms: &[M],
        space: Option<usize>,
    ) -> bool {
        let ascending = vs.windows(2).all(|w| w[0] < w[1]);
        match encoding {
            PackageEncoding::List => true,
            PackageEncoding::DeltaVarint => ascending,
            PackageEncoding::Bitmap => {
                ascending
                    && ms.windows(2).all(|w| w[0] == w[1])
                    && vs.last().is_some_and(|&v| space.is_some_and(|s| (v as usize) < s))
            }
        }
    }

    #[test]
    fn varints_round_trip_across_widths() {
        for x in [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, x);
            assert_eq!(out.len(), varint_len(x));
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), x);
            assert_eq!(pos, out.len());
        }
    }

    fn round_trip(pkg: &Package<u32, u32>, vs: &[u32], ms: &[u32]) {
        let (dv, dm) = pkg.decode();
        assert_eq!(dv.as_ref(), vs);
        assert_eq!(dm.as_ref(), ms);
        assert_eq!(pkg.len(), vs.len());
        assert_eq!(
            pkg.wire_bytes(),
            pkg.encoded_bytes().len() as u64,
            "wire_bytes is the true encoded size"
        );
    }

    #[test]
    fn real_list_encoding_round_trips() {
        let vs = vec![9u32, 3, 7, 3];
        let ms = vec![1u32, 2, 3, 4];
        let pkg = Package::encode(vs.clone(), ms.clone(), WireEncoding::List, None, None);
        assert_eq!(pkg.encoding(), PackageEncoding::List);
        round_trip(&pkg, &vs, &ms);
    }

    #[test]
    fn real_bitmap_encoding_round_trips() {
        let vs: Vec<u32> = vec![0, 3, 8, 62, 63];
        let ms = vec![7u32; 5];
        let pkg = written(PackageEncoding::Bitmap, &vs, &ms, Some(64));
        // tag + one msg + 64 bits
        assert_eq!(pkg.wire_bytes(), 1 + 4 + 8);
        round_trip(&pkg, &vs, &ms);
    }

    #[test]
    fn real_delta_varint_round_trips_uniform_and_not() {
        let vs: Vec<u32> = vec![5, 6, 200, 100_000];
        let uni = vec![3u32; 4];
        let pkg = written(PackageEncoding::DeltaVarint, &vs, &uni, None);
        // tag + varint count + varints (1 + 1 + 2 + 3) + one uniform payload
        assert_eq!(pkg.wire_bytes(), 2 + 7 + 4);
        round_trip(&pkg, &vs, &uni);
        let distinct = vec![4u32, 3, 2, 1];
        let pkg = written(PackageEncoding::DeltaVarint, &vs, &distinct, None);
        round_trip(&pkg, &vs, &distinct);
    }

    #[test]
    fn unsorted_ids_go_out_as_a_list_under_either_policy() {
        // unsorted ids: neither bitmap nor delta can encode them
        let vs = vec![5u32, 2];
        let ms = vec![1u32, 1];
        for choice in [WireEncoding::Auto, WireEncoding::List] {
            let pkg = Package::encode(vs.clone(), ms.clone(), choice, Some(64), None);
            assert_eq!(pkg.encoding(), PackageEncoding::List, "{choice:?}");
            round_trip(&pkg, &vs, &ms);
        }
    }

    #[test]
    fn auto_picks_the_smallest_eligible_encoding() {
        // dense uniform: bitmap wins
        let vs: Vec<u32> = (0..512).collect();
        let pkg = Package::encode(vs.clone(), vec![1u32; 512], WireEncoding::Auto, Some(512), None);
        assert_eq!(pkg.encoding(), PackageEncoding::Bitmap);
        // sparse uniform in a big space: delta-varint wins
        let vs = vec![10u32, 20, 30];
        let pkg =
            Package::encode(vs.clone(), vec![1u32; 3], WireEncoding::Auto, Some(1 << 20), None);
        assert_eq!(pkg.encoding(), PackageEncoding::DeltaVarint);
        // unsorted non-uniform: only the list is eligible
        let pkg = Package::encode(vec![9u32, 1], vec![1u32, 2], WireEncoding::Auto, None, None);
        assert_eq!(pkg.encoding(), PackageEncoding::List);
    }

    #[test]
    fn empty_and_single_vertex_packages_encode_and_decode() {
        for choice in [WireEncoding::Auto, WireEncoding::List] {
            let pkg = Package::<u32, u32>::encode(vec![], vec![], choice, Some(64), None);
            let (vs, ms) = pkg.decode();
            assert!(vs.is_empty() && ms.is_empty(), "{choice:?}");
            let pkg = Package::encode(vec![42u32], vec![7u32], choice, Some(64), None);
            let (vs, ms) = pkg.decode();
            assert_eq!((vs.as_ref(), ms.as_ref()), ([42u32].as_slice(), [7u32].as_slice()));
        }
        for encoding in ENCODINGS {
            if encoding != PackageEncoding::Bitmap {
                round_trip(&written::<u32>(encoding, &[], &[], Some(64)), &[], &[]);
            }
            round_trip(&written(encoding, &[42], &[7], Some(64)), &[42], &[7]);
        }
    }

    /// Every writer round-trips every id distribution it is eligible for —
    /// empty packages, a single vertex, the last id of the space,
    /// duplicates, unsorted ids, uniform and distinct payloads, and
    /// multi-field tuple payloads — and `Auto` writes the smallest of them.
    #[test]
    fn every_writer_round_trips_arbitrary_distributions() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA19);
        for case in 0..192 {
            let space = rng.gen_range(1usize..400);
            let len = match case % 4 {
                0 => 0, // empty package
                1 => 1, // single vertex
                _ => rng.gen_range(0..=space.min(64)),
            };
            let mut ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..space as u32)).collect();
            if case % 2 == 1 {
                // the last id of the space: the bitmap's final bit
                if let Some(first) = ids.first_mut() {
                    *first = space as u32 - 1;
                }
            }
            match case % 3 {
                // sorted + deduplicated (the canonical monotone shape)
                0 => {
                    ids.sort_unstable();
                    ids.dedup();
                }
                // sorted with duplicates kept
                1 => ids.sort_unstable(),
                // arbitrary order, duplicates possible
                _ => {}
            }
            let n = ids.len();
            let uniform_label = rng.gen_range(0u32..1000);
            let labels: Vec<u32> = if case % 2 == 0 {
                vec![uniform_label; n]
            } else {
                (0..n).map(|_| rng.gen_range(0u32..1000)).collect()
            };
            let pairs: Vec<(u32, u32)> =
                labels.iter().map(|&l| (l, rng.gen_range(0u32..space as u32))).collect();
            for space_arg in [Some(space), None] {
                let auto = Package::encode(
                    ids.clone(),
                    labels.clone(),
                    WireEncoding::Auto,
                    space_arg,
                    None,
                );
                let at = format!("case {case}, space {space_arg:?}");
                assert!(eligible(auto.encoding(), &ids, &labels, space_arg), "{at}");
                for encoding in ENCODINGS {
                    if !eligible(encoding, &ids, &labels, space_arg) {
                        continue;
                    }
                    let p = written(encoding, &ids, &labels, space_arg);
                    round_trip(&p, &ids, &labels);
                    assert!(
                        p.wire_bytes() > 0,
                        "{encoding:?}: even an empty package is a tag, {at}"
                    );
                    assert!(auto.wire_bytes() <= p.wire_bytes(), "{encoding:?} beats Auto, {at}");
                    if eligible(encoding, &ids, &pairs, space_arg) {
                        let p = written(encoding, &ids, &pairs, space_arg);
                        let (vs, ms) = p.decode();
                        assert_eq!(vs.as_ref(), &ids[..], "{encoding:?} tuple ids, {at}");
                        assert_eq!(ms.as_ref(), &pairs[..], "{encoding:?} tuple msgs, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalize_sorts_and_keeps_the_minimum_key() {
        let (vs, ms) =
            canonicalize_monotone(vec![7u32, 2, 7, 2, 5], vec![9u32, 4, 3, 8, 1], &|m| {
                u64::from(*m)
            });
        assert_eq!(vs, vec![2, 5, 7]);
        assert_eq!(ms, vec![4, 1, 3]);
    }

    #[test]
    fn tuple_payloads_round_trip() {
        let vs = vec![1u32, 4, 9];
        let ms = vec![(1u32, 0.5f32), (2, 0.25), (3, 0.125)];
        let pkg = Package::encode(vs.clone(), ms.clone(), WireEncoding::Auto, None, None);
        let (dv, dm) = pkg.decode();
        assert_eq!(dv.as_ref(), &vs);
        assert_eq!(dm.as_ref(), &ms);
    }
}
