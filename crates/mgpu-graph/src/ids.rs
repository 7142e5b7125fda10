//! Vertex-id / edge-offset width abstraction.
//!
//! Gunrock templates its primitives over `VertexT` and `SizeT`; the paper's
//! Table V quantifies the cost of widening them ("32-bit vertex and edge IDs
//! are no longer sufficient … this doubles bandwidth requirements and our
//! performance drops accordingly"). Everything downstream is generic over
//! [`Id`], and the cost model charges `Id::BYTES` per transmitted id, so the
//! 32→64-bit experiment is a type parameter change.

use std::fmt::{Debug, Display};
use std::hash::Hash;

/// An unsigned integer usable as a vertex id or edge offset.
pub trait Id:
    Copy + Clone + Eq + Ord + Hash + Debug + Display + Default + Send + Sync + 'static
{
    /// Width in bytes — what one id costs on the wire and in memory.
    const BYTES: usize;
    /// Largest representable value, as a `usize` (saturating).
    const MAX_AS_USIZE: usize;

    /// Convert from `usize`; panics (in debug) if the value does not fit.
    fn from_usize(v: usize) -> Self;
    /// Convert to `usize` for indexing.
    fn idx(self) -> usize;
    /// Zero.
    fn zero() -> Self {
        Self::from_usize(0)
    }
}

impl Id for u16 {
    const BYTES: usize = 2;
    const MAX_AS_USIZE: usize = u16::MAX as usize;

    #[inline(always)]
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "id {v} does not fit in u16");
        v as u16
    }

    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl Id for u32 {
    const BYTES: usize = 4;
    const MAX_AS_USIZE: usize = u32::MAX as usize;

    #[inline(always)]
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize, "id {v} does not fit in u32");
        v as u32
    }

    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl Id for u64 {
    const BYTES: usize = 8;
    const MAX_AS_USIZE: usize = usize::MAX;

    #[inline(always)]
    fn from_usize(v: usize) -> Self {
        v as u64
    }

    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trips() {
        assert_eq!(u32::from_usize(42).idx(), 42);
        assert_eq!(<u32 as Id>::BYTES, 4);
    }

    #[test]
    fn u64_round_trips() {
        assert_eq!(u64::from_usize(1 << 40).idx(), 1 << 40);
        assert_eq!(<u64 as Id>::BYTES, 8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    #[cfg(debug_assertions)]
    fn u32_overflow_is_caught_in_debug() {
        let _ = u32::from_usize(1 << 40);
    }
}
