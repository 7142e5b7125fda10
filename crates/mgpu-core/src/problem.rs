//! The programmer-facing primitive interface (§III-B).
//!
//! A multi-GPU primitive in this framework is a type implementing
//! [`MgpuProblem`]. Exactly the four concerns the paper asks the programmer
//! to specify are abstract; everything else has defaults:
//!
//! 1. **Core single-GPU primitive** — [`MgpuProblem::iteration`], written
//!    against the [`crate::ops`] operators exactly as a single-GPU Gunrock
//!    primitive would be; it sees only local vertex ids and never knows
//!    whether a vertex is hosted locally or remotely.
//! 2. **Data to communicate** — the [`MgpuProblem::Msg`] associated type
//!    (per-vertex associated values; the paper supports only per-vertex
//!    communication and argues per-edge communication cannot scale) and the
//!    [`MgpuProblem::package`] hook.
//! 3. **Combining remote and local data** — [`MgpuProblem::combine`], the
//!    `Expand_Incoming` kernel body of Appendix A.
//! 4. **Stop condition** — [`MgpuProblem::locally_done`] (default: empty
//!    frontier and nothing [`MgpuProblem::parked`]) and
//!    [`MgpuProblem::globally_done`] (default: never) on top of the built-in
//!    all-GPUs-done rule.

use mgpu_graph::Id;
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::sync::{Contribution, GlobalReduce};
use vgpu::{Device, Result};

use crate::alloc::{AllocScheme, FrontierBufs};
use crate::comm::CommStrategy;

/// A value that can be packaged with a vertex and pushed over the
/// interconnect. `BYTES` is what the cost model charges per vertex on the
/// wire (in addition to the vertex id itself). `PartialEq` lets the
/// broadcast path detect uniform payloads (e.g. every (DO)BFS message in an
/// iteration carries the same label) and switch to the bitmap wire format.
pub trait Wire: Clone + PartialEq + Send + Sync + 'static {
    /// Serialized size in bytes.
    const BYTES: usize;

    /// Append exactly [`Self::BYTES`] little-endian bytes to `out` — the
    /// real wire serialization the materialized package encodings use.
    fn write_to(&self, out: &mut Vec<u8>);

    /// Read exactly [`Self::BYTES`] bytes back from the front of `buf`
    /// (inverse of [`Self::write_to`]; round-trips bit-identically).
    fn read_from(buf: &[u8]) -> Self;
}

impl Wire for () {
    const BYTES: usize = 0;
    fn write_to(&self, _out: &mut Vec<u8>) {}
    fn read_from(_buf: &[u8]) -> Self {}
}
impl Wire for u32 {
    const BYTES: usize = 4;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        u32::from_le_bytes(buf[..4].try_into().expect("u32 wire bytes"))
    }
}
impl Wire for u64 {
    const BYTES: usize = 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        u64::from_le_bytes(buf[..8].try_into().expect("u64 wire bytes"))
    }
}
impl Wire for f32 {
    const BYTES: usize = 4;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        f32::from_le_bytes(buf[..4].try_into().expect("f32 wire bytes"))
    }
}
impl Wire for f64 {
    const BYTES: usize = 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf[..8].try_into().expect("f64 wire bytes"))
    }
}
impl<A: Wire, B: Wire> Wire for (A, B) {
    const BYTES: usize = A::BYTES + B::BYTES;
    fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_to(out);
        self.1.write_to(out);
    }
    fn read_from(buf: &[u8]) -> Self {
        (A::read_from(buf), B::read_from(&buf[A::BYTES..]))
    }
}

/// A multi-GPU graph primitive. See the module docs for the contract.
///
/// `V`/`O` are the vertex-id and edge-offset widths (Gunrock's `VertexT` /
/// `SizeT` template parameters).
pub trait MgpuProblem<V: Id, O: Id>: Sync {
    /// Per-GPU problem state (the `DataSlice` of Appendix A): label arrays,
    /// rank arrays, visited bitmaps, … allocated on the device.
    type State: Send + 'static;

    /// Per-vertex associated data pushed to remote GPUs (e.g. the BFS label,
    /// or `(label, pred)` when predecessor marking is on).
    type Msg: Wire;

    /// Primitive name for reports.
    fn name(&self) -> &'static str;

    /// Vertex-duplication strategy this primitive wants (§III-C / Table I).
    /// A partition built under another one is refused at bind.
    fn duplication(&self) -> Duplication;

    /// The arrays of its [`SubGraph`] this primitive reads beyond the CSR
    /// structure. The bind reserves, uploads and prices exactly these and
    /// refuses a partition lacking a CSC it reads; whoever builds a
    /// partition asks this. No default: every primitive states it.
    fn reads(&self) -> Reads;

    /// Communication strategy this primitive wants (§III-C / Table I).
    fn comm(&self) -> CommStrategy;

    /// Frontier-buffer allocation scheme (§VI-B). The paper: (DO)BFS, SSSP,
    /// BC use prealloc+fusion; CC and PR use fixed preallocation.
    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::JustEnough
    }

    /// Bytes of per-vertex problem state [`MgpuProblem::init`] will allocate
    /// — the admission governor's pre-flight estimate of the `State` arrays.
    /// Only the relative magnitude matters (it ranks downgrade candidates);
    /// the default assumes one 8-byte word per vertex. Primitives with
    /// leaner (BFS/SSSP: one `u32`) or heavier (BC: four arrays) state
    /// override it.
    fn state_bytes_per_vertex(&self) -> usize {
        8
    }

    /// Allocate per-GPU state for `sub` (called once, before any traversal).
    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State>;

    /// Reset state for a fresh traversal and return the initial local input
    /// frontier. `src` is `Some(owner-local id)` on the GPU hosting the
    /// source vertex (if the primitive has one), `None` elsewhere.
    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>>;

    /// One iteration of the unmodified single-GPU primitive
    /// (`FullQueue_Core`): consume the input frontier, produce the output
    /// frontier, all in local vertex ids.
    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        bufs: &mut FrontierBufs<V>,
        input: &[V],
        iter: usize,
    ) -> Result<Vec<V>>;

    /// Package the associated data for one outgoing frontier vertex
    /// (local id).
    fn package(&self, state: &Self::State, v: V) -> Self::Msg;

    /// Combine one received `(vertex, msg)` into local state; return `true`
    /// if the vertex should join the next input frontier. `v` is a local id
    /// (the framework has already resolved wire ids).
    fn combine(&self, state: &mut Self::State, v: V, msg: &Self::Msg) -> bool;

    /// Is [`Self::combine`] a *monotone min-combine* under
    /// [`Self::monotone_key`]? The contract: `combine` accepts a message
    /// only when its key is strictly below the key currently recorded for
    /// that vertex, and a rejected message leaves state unchanged. Label
    /// traversals (BFS/DOBFS: depth; SSSP: distance; CC: the label a vertex
    /// last published — an accepted one also links its union-find set to the
    /// sender's, which only lowers labels) satisfy this; additive combiners
    /// (PR rank, BC sigma) do not.
    ///
    /// Declaring `true` enables package canonicalization — observationally
    /// equivalent for a truthful declaration, off for the default `false`.
    fn monotone(&self) -> bool {
        false
    }

    /// Total order on messages for the monotone contract: lower key =
    /// stronger message under [`MinKey`](crate::comm::MonotoneOrder::MinKey); the message's bit
    /// set under [`OrBits`](crate::comm::MonotoneOrder::OrBits). Only meaningful when
    /// [`Self::monotone`] is `true`.
    fn monotone_key(&self, _msg: &Self::Msg) -> u64 {
        0
    }

    /// Which lattice the monotone combiner improves under. The default
    /// `MinKey` is the label-traversal total order; bitfield OR-combiners
    /// (MS-BFS reached sets) declare `OrBits`, switching duplicate
    /// canonicalization to [`Self::merge_msgs`]. Only meaningful when
    /// [`Self::monotone`] is `true`.
    fn monotone_order(&self) -> crate::comm::MonotoneOrder {
        crate::comm::MonotoneOrder::MinKey
    }

    /// Merge two messages destined for the same vertex into one message
    /// carrying their combined information — the or-bits canonical form of
    /// a duplicate pair. The contract: combining the merged message must be
    /// observationally equivalent to combining both originals. Unused under
    /// `MinKey` (canonicalization keeps the lowest key instead).
    fn merge_msgs(&self, a: &Self::Msg, _b: &Self::Msg) -> Self::Msg {
        a.clone()
    }

    /// Does every broadcast message of one superstep carry the *same*
    /// payload (e.g. the (DO)BFS depth label)? `Some(true)` lets the
    /// packaging layer skip its O(n) uniformity scan; `None` (the default)
    /// keeps the scan. The hint must be truthful — a false `Some(true)`
    /// corrupts the bitmap/uniform-delta encodings.
    fn uniform_broadcast_msgs(&self) -> Option<bool> {
        None
    }

    /// Pending vertices this GPU holds *outside* the frontier — work the
    /// primitive parks in its own state (SSSP's far pile) instead of handing
    /// it back in every output frontier. Local ids, each at most once, in any
    /// order, and live ones only: an entry the primitive would drop unread
    /// (a stale pile entry) must not be listed, or it keeps the GPU from
    /// ever reporting done. The framework reads it twice: the default
    /// [`Self::locally_done`] (parked work means not done) and the superstep
    /// checkpoint, whose frontier is the next input plus these, so a resumed
    /// run does not lose them. Default: nothing is parked.
    fn parked<'a>(&'a self, _state: &'a Self::State) -> impl Iterator<Item = V> + 'a {
        std::iter::empty()
    }

    /// Is this GPU locally converged, given the next input frontier the
    /// framework assembled? Default: the frontier is empty and nothing is
    /// [`Self::parked`]. Primitives with phases (BC) or fixpoint semantics
    /// (PR) override this.
    fn locally_done(&self, state: &Self::State, next_input: &[V]) -> bool {
        next_input.is_empty() && self.parked(state).next().is_none()
    }

    /// Communication strategy for the *upcoming* superstep. Defaults to the
    /// static [`MgpuProblem::comm`]; phase-based primitives (BC: selective
    /// forward sweep, broadcast backward sweep) override this. Must be a
    /// pure function of state that evolves identically on every GPU (state
    /// transitions driven by [`MgpuProblem::after_superstep`] on the shared
    /// reduction satisfy this), since sender and receiver must agree on the
    /// wire id convention.
    fn comm_now(&self, _state: &Self::State) -> CommStrategy {
        self.comm()
    }

    /// Numeric contribution to the per-superstep global reduction (e.g.
    /// PageRank's total rank change). The default contributes the next
    /// input frontier's size to `u64_sum`, giving every GPU the global
    /// frontier population for free.
    fn contribution(&self, _state: &Self::State, next_input: &[V]) -> Contribution {
        Contribution { u64_add: next_input.len() as u64, ..Contribution::default() }
    }

    /// Observe the superstep's global reduction and update local state —
    /// the hook by which phase-based primitives make globally consistent
    /// phase transitions (every GPU sees the identical reduction).
    fn after_superstep(&self, _state: &mut Self::State, _reduce: &GlobalReduce, _iter: usize) {}

    /// Extra global stop condition evaluated by every GPU after each
    /// superstep's reduction (e.g. PR's residual threshold and its
    /// `max_iters` cap). The built-in rule — stop when every GPU is locally
    /// done — always applies too.
    fn globally_done(&self, _reduce: &GlobalReduce, _iter: usize) -> bool {
        false
    }

    /// Does this primitive support superstep checkpointing — i.e. is its
    /// per-vertex recoverable state fully captured by its answer word
    /// ([`Self::result_word`]) and [`Self::restore_word`]? Default: no
    /// (checkpoints are silently skipped). Monotone label primitives (BFS,
    /// SSSP, CC) encode one word per vertex; primitives with cross-superstep
    /// scalar state evolving in [`Self::after_superstep`] (e.g. PR) should
    /// leave this off unless that state is also reconstructible.
    fn supports_checkpoint(&self) -> bool {
        false
    }

    /// Overwrite local vertex `v`'s state from a checkpoint word — the
    /// vertex's [`Self::result_word`], keyed by *global* id so a checkpoint
    /// restores onto any partition layout — applied after a fresh
    /// [`Self::reset`]. Called for owned vertices *and* proxies.
    fn restore_word(&self, _state: &mut Self::State, _v: V, _word: u64) {}

    /// Encode local vertex `v`'s *answer* as one 64-bit word. This is the
    /// only way an answer leaves a runner: [`crate::executor::Executor::harvest`]
    /// returns these words in global vertex order, and a caller decodes each
    /// by the primitive's bit layout:
    ///
    /// * depth labels (BFS, DOBFS) and distances (SSSP): `w as u32`;
    /// * component ids (CC): `w as usize`;
    /// * ranks (PR) and centrality scores (BC): `f32::from_bits(w as u32)`;
    /// * reached-lane sets (MS-BFS): the word itself, bit `l` for lane `l`.
    ///
    /// No default: every primitive states its answer word. When
    /// [`Self::supports_checkpoint`], it is also the checkpoint word.
    fn result_word(&self, state: &Self::State, v: V) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_compose() {
        assert_eq!(<() as Wire>::BYTES, 0);
        assert_eq!(<u32 as Wire>::BYTES, 4);
        assert_eq!(<(u32, f32) as Wire>::BYTES, 8);
        assert_eq!(<(u32, (u32, f64)) as Wire>::BYTES, 16);
    }

    fn assert_round_trip<W: Wire + std::fmt::Debug>(w: W) {
        let mut out = Vec::new();
        w.write_to(&mut out);
        assert_eq!(out.len(), W::BYTES);
        assert_eq!(W::read_from(&out), w);
    }

    #[test]
    fn wire_serialization_round_trips() {
        assert_round_trip(());
        assert_round_trip(0xdead_beefu32);
        assert_round_trip(u64::MAX - 7);
        assert_round_trip(-0.0f32);
        assert_round_trip(f64::INFINITY);
        assert_round_trip((3u32, 2.5f32));
        assert_round_trip((1u32, (2u32, 9.0f64)));
    }
}

/// A problem small enough to drive the executors by hand in unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use vgpu::{KernelKind, COMPUTE_STREAM};

    /// Min-label problem: one hop label per local vertex from the source,
    /// one advance kernel per superstep, strict-min combine.
    pub(crate) struct MinLabel;
    impl MgpuProblem<u32, u64> for MinLabel {
        type State = Vec<u32>;
        type Msg = u32;
        fn name(&self) -> &'static str {
            "min-label"
        }
        fn duplication(&self) -> Duplication {
            Duplication::OneHop
        }
        fn reads(&self) -> Reads {
            Reads::default()
        }
        fn comm(&self) -> CommStrategy {
            CommStrategy::Selective
        }
        fn init(&self, _: &mut Device, sub: &SubGraph<u32, u64>) -> Result<Vec<u32>> {
            Ok(vec![u32::MAX; sub.n_vertices()])
        }
        fn reset(
            &self,
            _: &mut Device,
            _: &SubGraph<u32, u64>,
            state: &mut Vec<u32>,
            src: Option<u32>,
        ) -> Result<Vec<u32>> {
            state.fill(u32::MAX);
            let frontier: Vec<u32> = src.into_iter().collect();
            for &s in &frontier {
                state[s as usize] = 0;
            }
            Ok(frontier)
        }
        fn iteration(
            &self,
            dev: &mut Device,
            sub: &SubGraph<u32, u64>,
            state: &mut Vec<u32>,
            _: &mut FrontierBufs<u32>,
            input: &[u32],
            _: usize,
        ) -> Result<Vec<u32>> {
            dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                let (mut out, mut edges) = (Vec::new(), 0u64);
                for &u in input {
                    for &d in sub.csr.neighbors(u) {
                        edges += 1;
                        if state[u as usize] + 1 < state[d as usize] {
                            state[d as usize] = state[u as usize] + 1;
                            out.push(d);
                        }
                    }
                }
                (out, edges)
            })
        }
        fn package(&self, state: &Vec<u32>, v: u32) -> u32 {
            state[v as usize]
        }
        fn combine(&self, state: &mut Vec<u32>, v: u32, msg: &u32) -> bool {
            let better = *msg < state[v as usize];
            if better {
                state[v as usize] = *msg;
            }
            better
        }
        fn monotone(&self) -> bool {
            true
        }
        fn monotone_key(&self, msg: &u32) -> u64 {
            u64::from(*msg)
        }
        fn result_word(&self, state: &Vec<u32>, v: u32) -> u64 {
            u64::from(state[v as usize])
        }
    }
}
