//! Device memory: capacity-limited pools and tracked arrays.
//!
//! GPU memory capacity is the central resource constraint the paper designs
//! around (§VI-B): worst-case allocation "artificially limits the size of the
//! subgraph we can place onto one GPU". Every device-resident buffer in this
//! codebase is a [`DeviceArray`] registered with its device's [`MemoryPool`];
//! the pool enforces the profile's capacity (allocations beyond it fail with
//! [`VgpuError::OutOfMemory`]) and keeps the statistics the Fig. 3 experiment
//! reports: live bytes, peak bytes, allocation and reallocation counts.
//!
//! Counters are atomics so arrays can be dropped from any thread while the
//! pool handle is shared (Rust Atomics & Locks, ch. 2 idiom: independent
//! statistics counters with `Relaxed` ordering — the counters carry no
//! synchronization obligations of their own, threads only rendezvous at BSP
//! barriers which provide the necessary happens-before edges).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::error::{Result, VgpuError};

#[derive(Debug)]
struct PoolInner {
    device: usize,
    capacity: u64,
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    reallocs: AtomicU64,
    frees: AtomicU64,
    /// Total bytes moved by reallocations (old contents copied over).
    realloc_copied: AtomicU64,
}

/// A capacity-limited device memory pool; cheaply cloneable handle.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl MemoryPool {
    /// Create a pool of `capacity` bytes for device `device`.
    pub fn new(device: usize, capacity: u64) -> Self {
        MemoryPool {
            inner: Arc::new(PoolInner {
                device,
                capacity,
                live: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
                reallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                realloc_copied: AtomicU64::new(0),
            }),
        }
    }

    fn reserve(&self, bytes: u64) -> Result<()> {
        let inner = &self.inner;
        // CAS loop so concurrent allocations cannot jointly exceed capacity.
        let mut cur = inner.live.load(Relaxed);
        loop {
            // saturating: a request no pool can hold is refused, not wrapped
            let new = cur.saturating_add(bytes);
            if new > inner.capacity {
                return Err(VgpuError::OutOfMemory {
                    device: inner.device,
                    requested: bytes,
                    live: cur,
                    capacity: inner.capacity,
                });
            }
            match inner.live.compare_exchange_weak(cur, new, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        inner.peak.fetch_max(inner.live.load(Relaxed), Relaxed);
        Ok(())
    }

    fn release(&self, bytes: u64) {
        self.inner.live.fetch_sub(bytes, Relaxed);
    }

    /// Device id this pool belongs to.
    pub fn device(&self) -> usize {
        self.inner.device
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Currently live bytes.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Relaxed)
    }

    /// Bytes still available before the capacity limit. This is what the
    /// memory-pressure governor sizes chunked passes from: it is a pure
    /// function of the pool's simulated accounting, so any policy derived
    /// from it is deterministic across host thread counts.
    pub fn free_bytes(&self) -> u64 {
        self.inner.capacity.saturating_sub(self.inner.live.load(Relaxed))
    }

    /// High-water mark of live bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Relaxed)
    }

    /// Number of allocations performed.
    pub fn allocs(&self) -> u64 {
        self.inner.allocs.load(Relaxed)
    }

    /// Number of reallocations (capacity growths) performed.
    pub fn reallocs(&self) -> u64 {
        self.inner.reallocs.load(Relaxed)
    }

    /// Number of frees performed.
    pub fn frees(&self) -> u64 {
        self.inner.frees.load(Relaxed)
    }

    /// Total bytes copied while reallocating.
    pub fn realloc_copied(&self) -> u64 {
        self.inner.realloc_copied.load(Relaxed)
    }

    /// Allocate a zero-initialized array of `len` elements.
    pub fn alloc<T: Default + Clone>(&self, len: usize) -> Result<DeviceArray<T>> {
        self.reserve(bytes_of::<T>(len))?;
        self.inner.allocs.fetch_add(1, Relaxed);
        Ok(DeviceArray { data: vec![T::default(); len], cap: len, pool: self.clone() })
    }

    /// Allocate an *empty* array with capacity for `cap` elements.
    pub fn alloc_with_capacity<T: Default + Clone>(&self, cap: usize) -> Result<DeviceArray<T>> {
        let mut a = self.alloc::<T>(cap)?;
        a.data.clear();
        Ok(a)
    }

    /// Allocate an array holding a copy of `src` (the `cudaMemcpy` H2D analog;
    /// the time cost of the copy is charged by the caller through the device).
    pub fn alloc_from_slice<T: Default + Clone>(&self, src: &[T]) -> Result<DeviceArray<T>> {
        let mut a = self.alloc_with_capacity::<T>(src.len())?;
        a.data.extend_from_slice(src);
        Ok(a)
    }
}

/// `len` elements of `T` in bytes, saturating — so an absurd element count
/// fails [`MemoryPool::reserve`] with a typed out-of-memory error before any
/// host allocation is attempted.
fn bytes_of<T>(len: usize) -> u64 {
    (len as u64).saturating_mul(std::mem::size_of::<T>() as u64)
}

/// An accounting-only reservation: charges the pool for `bytes` without
/// backing host memory. Used for data that lives in host-side structures but
/// is logically device-resident (e.g. the partitioned subgraph CSR arrays,
/// which the framework shares read-only across the run instead of copying).
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    pool: MemoryPool,
}

impl Reservation {
    /// Reserved size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
        self.pool.inner.frees.fetch_add(1, Relaxed);
    }
}

impl MemoryPool {
    /// Reserve `bytes` of device memory without a backing buffer.
    pub fn reserve_external(&self, bytes: u64) -> Result<Reservation> {
        self.reserve(bytes)?;
        self.inner.allocs.fetch_add(1, Relaxed);
        Ok(Reservation { bytes, pool: self.clone() })
    }
}

/// A device-resident, pool-accounted growable array.
///
/// The accounted footprint is `capacity * size_of::<T>()`; growing beyond the
/// current capacity is a *reallocation* — the expensive event the just-enough
/// allocation scheme (§VI-B) works to make rare.
#[derive(Debug)]
pub struct DeviceArray<T> {
    data: Vec<T>,
    /// Accounted capacity in elements. Kept separately from `data.capacity()`
    /// because `Vec` may over-allocate; accounting uses exactly what was
    /// requested, as a real `cudaMalloc` would.
    cap: usize,
    pool: MemoryPool,
}

impl<T: Default + Clone> DeviceArray<T> {
    /// Element count currently in use.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no elements are in use.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Accounted capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Accounted footprint in bytes.
    pub fn bytes(&self) -> u64 {
        (self.cap * std::mem::size_of::<T>()) as u64
    }

    /// Grow the accounted capacity to at least `need` elements, reallocating
    /// if necessary. Returns `Ok(copied_bytes)`: 0 when no reallocation
    /// happened, otherwise the number of live bytes that had to be copied
    /// (the caller charges the copy to the simulated clock).
    pub fn ensure_capacity(&mut self, need: usize) -> Result<u64> {
        if need <= self.cap {
            return Ok(0);
        }
        let elem = std::mem::size_of::<T>();
        self.pool.reserve(bytes_of::<T>(need - self.cap))?;
        self.pool.inner.reallocs.fetch_add(1, Relaxed);
        let copied = (self.data.len() * elem) as u64;
        self.pool.inner.realloc_copied.fetch_add(copied, Relaxed);
        self.data.reserve(need - self.data.len());
        self.cap = need;
        Ok(copied)
    }

    /// Set the in-use length to `len`, zero-filling new elements; `len` must
    /// not exceed the accounted capacity (call [`Self::ensure_capacity`]
    /// first — exactly the discipline the framework's allocation schemes
    /// implement).
    pub fn resize_within_capacity(&mut self, len: usize) {
        assert!(
            len <= self.cap,
            "resize to {len} exceeds accounted capacity {} — allocate first",
            self.cap
        );
        self.data.resize(len, T::default());
    }

    /// Clear the in-use contents (capacity is retained).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Shrink the accounted capacity to `cap` elements (never below the
    /// in-use length), releasing the freed bytes back to the pool. Returns
    /// the number of bytes released. This is the reclaim half of a host
    /// spill: the caller is responsible for charging the staging transfer
    /// and for re-growing (a counted reallocation) if the capacity is
    /// needed again.
    pub fn shrink_to(&mut self, cap: usize) -> u64 {
        let cap = cap.max(self.data.len());
        if cap >= self.cap {
            return 0;
        }
        let freed = ((self.cap - cap) * std::mem::size_of::<T>()) as u64;
        self.pool.release(freed);
        self.cap = cap;
        freed
    }

    /// Append a value; the in-use length must stay within accounted capacity.
    pub fn push(&mut self, value: T) {
        assert!(self.data.len() < self.cap, "push beyond accounted capacity {}", self.cap);
        self.data.push(value);
    }

    /// Append a slice; the in-use length must stay within accounted capacity.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        assert!(
            self.data.len() + values.len() <= self.cap,
            "extend beyond accounted capacity {}",
            self.cap
        );
        self.data.extend_from_slice(values);
    }

    /// Read-only view of the in-use elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the in-use elements.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The pool this array is accounted against.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }
}

impl<T> Drop for DeviceArray<T> {
    fn drop(&mut self) {
        let bytes = (self.cap * std::mem::size_of::<T>()) as u64;
        self.pool.release(bytes);
        self.pool.inner.frees.fetch_add(1, Relaxed);
    }
}

impl<T> std::ops::Index<usize> for DeviceArray<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<usize> for DeviceArray<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_counts_whose_byte_size_overflows_are_refused_typed() {
        let pool = MemoryPool::new(0, 1 << 20);
        for len in [usize::MAX, usize::MAX / 4 + 2] {
            assert!(matches!(pool.alloc::<u32>(len), Err(VgpuError::OutOfMemory { .. })));
        }
        let mut a = pool.alloc::<u32>(10).unwrap();
        assert!(matches!(a.ensure_capacity(usize::MAX), Err(VgpuError::OutOfMemory { .. })));
        assert_eq!(a.capacity(), 10, "a refused growth leaves the array as it was");
        assert_eq!(pool.live(), 40);
    }

    #[test]
    fn alloc_and_drop_balance() {
        let pool = MemoryPool::new(0, 1 << 20);
        {
            let a = pool.alloc::<u32>(1000).unwrap();
            assert_eq!(pool.live(), 4000);
            assert_eq!(a.len(), 1000);
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.peak(), 4000);
        assert_eq!(pool.allocs(), 1);
        assert_eq!(pool.frees(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let pool = MemoryPool::new(3, 1024);
        let err = pool.alloc::<u64>(1000).unwrap_err();
        match err {
            VgpuError::OutOfMemory { device, requested, capacity, .. } => {
                assert_eq!(device, 3);
                assert_eq!(requested, 8000);
                assert_eq!(capacity, 1024);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ensure_capacity_counts_reallocs_and_copy_bytes() {
        let pool = MemoryPool::new(0, 1 << 20);
        let mut a = pool.alloc::<u32>(10).unwrap();
        assert_eq!(a.ensure_capacity(5).unwrap(), 0, "shrinking request is a no-op");
        let copied = a.ensure_capacity(100).unwrap();
        assert_eq!(copied, 40, "10 live u32s copied");
        assert_eq!(pool.reallocs(), 1);
        assert_eq!(pool.live(), 400);
        assert_eq!(a.capacity(), 100);
    }

    #[test]
    fn realloc_beyond_capacity_fails_but_array_stays_usable() {
        let pool = MemoryPool::new(0, 100);
        let mut a = pool.alloc::<u8>(50).unwrap();
        assert!(a.ensure_capacity(200).is_err());
        assert_eq!(a.capacity(), 50);
        a.resize_within_capacity(50);
        assert_eq!(a.len(), 50);
    }

    #[test]
    #[should_panic(expected = "exceeds accounted capacity")]
    fn resize_beyond_capacity_panics() {
        let pool = MemoryPool::new(0, 1 << 20);
        let mut a = pool.alloc::<u32>(4).unwrap();
        a.resize_within_capacity(5);
    }

    #[test]
    fn push_and_extend_respect_capacity() {
        let pool = MemoryPool::new(0, 1 << 20);
        let mut a = pool.alloc_with_capacity::<u32>(4).unwrap();
        a.push(1);
        a.extend_from_slice(&[2, 3, 4]);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn alloc_from_slice_copies_contents() {
        let pool = MemoryPool::new(0, 1 << 20);
        let a = pool.alloc_from_slice(&[7u32, 8, 9]).unwrap();
        assert_eq!(a.as_slice(), &[7, 8, 9]);
        assert_eq!(pool.live(), 12);
    }

    #[test]
    fn shrink_releases_bytes_and_regrow_is_a_realloc() {
        let pool = MemoryPool::new(0, 1000);
        let mut a = pool.alloc_with_capacity::<u32>(100).unwrap();
        a.resize_within_capacity(10);
        assert_eq!(pool.free_bytes(), 600);
        let freed = a.shrink_to(20);
        assert_eq!(freed, 320, "80 u32 slots released");
        assert_eq!(a.capacity(), 20);
        assert_eq!(pool.free_bytes(), 920);
        // never shrinks below the in-use length
        assert_eq!(a.shrink_to(5), 40, "clamped to len 10, freeing 10 slots");
        assert_eq!(a.capacity(), 10);
        assert_eq!(a.as_slice().len(), 10);
        // growing back is the counted reallocation the governor reports
        let before = pool.reallocs();
        a.ensure_capacity(50).unwrap();
        assert_eq!(pool.reallocs(), before + 1);
    }

    #[test]
    fn concurrent_allocs_never_exceed_capacity() {
        let pool = MemoryPool::new(0, 8000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for _ in 0..100 {
                        if let Ok(a) = pool.alloc::<u64>(16) {
                            assert!(pool.live() <= pool.capacity());
                            held.push(a);
                            if held.len() > 4 {
                                held.remove(0);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pool.live(), 0);
    }
}

#[cfg(test)]
mod reservation_tests {
    use super::*;

    #[test]
    fn reservation_accounts_and_releases() {
        let pool = MemoryPool::new(0, 1000);
        {
            let r = pool.reserve_external(600).unwrap();
            assert_eq!(r.bytes(), 600);
            assert_eq!(pool.live(), 600);
            assert!(pool.reserve_external(500).is_err(), "would exceed capacity");
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.peak(), 600);
    }
}
