//! Deterministic parallel execution of kernel bodies.
//!
//! Kernel closures run *for real* on host threads while their simulated cost
//! is charged from explicit item counts ([`crate::Device::kernel`]). Running a
//! body across several host threads therefore must never change anything the
//! substrate meters, or the simulation would stop being reproducible. This
//! module guarantees that by construction, mirroring how real GPU kernels
//! stay deterministic across launch configurations:
//!
//! * The caller supplies a **chunk plan** derived only from the workload
//!   (degree prefix sums, fixed chunk sizes) — never from the thread count.
//!   Thread count only decides *who* executes the chunks, exactly like the
//!   block count of a grid-stride CUDA launch.
//! * Each chunk produces its own output; results are concatenated in chunk
//!   order, so the concatenation is identical no matter which worker ran
//!   which chunk, or in what order they finished.
//! * Cross-chunk writes go through atomics whose final state is
//!   order-independent (CAS claim, `fetch_min`), or into per-chunk partial
//!   buffers merged in chunk order (the per-block partial-reduction idiom).
//!
//! Workers are scoped threads spawned per launch; callers avoid the spawn
//! overhead for small workloads by planning a single chunk (the plan, being
//! workload-only, makes that cutoff thread-count-independent too).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Cache budget one chunk's working set should stay inside: roughly half a
/// core-private L2 so the frontier slice, its adjacency columns and the
/// emission buffer all stay resident while the chunk runs. Chunk *plans*
/// remain pure functions of the workload; this constant only sizes them.
pub const CACHE_BLOCK_BYTES: usize = 128 * 1024;

/// Edge-work target for a cache-blocked chunk over items whose unit work
/// touches `bytes_per_item` bytes (column index + emission slot for an
/// advance over `V`-typed ids). Never below 1.
pub const fn cache_block_items(bytes_per_item: usize) -> usize {
    let b = if bytes_per_item == 0 { 1 } else { bytes_per_item };
    let items = CACHE_BLOCK_BYTES / b;
    if items == 0 {
        1
    } else {
        items
    }
}

/// Partition `n_items` positions into contiguous chunks of roughly
/// `target` accumulated `weight` each — the degree-prefix walk that
/// cache-blocks an edge workload instead of slicing flat vertex ranges.
/// The plan sees only the workload (`weight` per item), never the thread
/// count, so it is safe under the determinism contract of [`run_chunks`]:
/// chunk boundaries may change results only if the caller's merge is
/// order-dependent, which chunk-order concatenation never is.
pub fn plan_weighted_chunks(
    n_items: usize,
    target: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<(usize, usize)> {
    let mut chunks = Vec::new();
    let (mut start, mut acc) = (0usize, 0usize);
    for i in 0..n_items {
        acc += weight(i);
        if acc >= target {
            chunks.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n_items {
        chunks.push((start, n_items));
    }
    chunks
}

/// Default worker count for the kernel bodies of each of `devices` devices
/// that run at once: `MGPU_KERNEL_THREADS` if set to a positive integer (a
/// per-device count), otherwise the machine's available parallelism shared
/// among the devices, at least 1 and at most 8 (beyond that the per-launch
/// spawn cost outweighs the win for the kernel sizes this substrate sees).
pub fn default_kernel_threads(devices: usize) -> usize {
    if let Ok(s) = std::env::var("MGPU_KERNEL_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / devices.max(1)).clamp(1, 8)
}

/// Run `n_chunks` independent tasks on up to `threads` workers and return
/// their results **in chunk order**. `task(i)` must depend only on `i` and
/// shared-read state (or atomics with order-independent outcomes); under that
/// contract the returned vector is identical for every `threads` value.
pub fn run_chunks<R, F>(threads: usize, n_chunks: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(task).collect();
    }
    let workers = threads.min(n_chunks);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        out.push((i, task(i)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("kernel worker panicked")).collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Run one task per slot of `slots`, each task getting exclusive mutable
/// access to its slot (the per-block partial-buffer idiom: scatter into
/// disjoint buffers, merge afterwards in slot order). The atomic work-claim
/// counter hands every index to exactly one worker, so the `&mut` handed to
/// each task is exclusive.
pub fn for_each_slot_mut<T, F>(threads: usize, slots: &mut [T], task: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slots.len();
    if threads <= 1 || n <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            task(i, slot);
        }
        return;
    }
    struct SendPtr<T>(*mut T);
    unsafe impl<T> Send for SendPtr<T> {}
    unsafe impl<T> Sync for SendPtr<T> {}
    let base = SendPtr(slots.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let base = &base;
            let next = &next;
            let task = &task;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the fetch_add hands out each index exactly once,
                // so no two workers ever hold a reference to the same slot,
                // and `slots` outlives the scope.
                let slot = unsafe { &mut *base.0.add(i) };
                task(i, slot);
            });
        }
    });
}

/// View a mutable `u32` slice as atomics so concurrent chunk workers can
/// claim entries with CAS / `fetch_min` (the `atomicCAS`/`atomicMin` analog
/// of the combine and filter kernels). Sound because `AtomicU32` has the
/// same size, alignment and bit validity as `u32`, and the `&mut` borrow
/// guarantees exclusive access for the lifetime of the returned view.
pub fn as_atomic_u32(xs: &mut [u32]) -> &[AtomicU32] {
    unsafe { &*(xs as *mut [u32] as *const [AtomicU32]) }
}

/// `u64` sibling of [`as_atomic_u32`], for bitfield state advanced with
/// `fetch_or` (the `atomicOr` idiom of batched multi-source traversals).
/// Same soundness argument: identical layout and bit validity, exclusive
/// `&mut` borrow for the lifetime of the view.
pub fn as_atomic_u64(xs: &mut [u64]) -> &[AtomicU64] {
    unsafe { &*(xs as *mut [u64] as *const [AtomicU64]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn run_chunks_preserves_chunk_order() {
        for threads in [1, 2, 4, 7] {
            let got = run_chunks(threads, 100, |i| vec![i * 2, i * 2 + 1]);
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..200).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn run_chunks_handles_edge_counts() {
        assert!(run_chunks(4, 0, |i| i).is_empty());
        assert_eq!(run_chunks(4, 1, |i| i), vec![0]);
        assert_eq!(run_chunks(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn for_each_slot_mut_touches_every_slot_once() {
        for threads in [1, 2, 8] {
            let mut slots = vec![0u64; 37];
            for_each_slot_mut(threads, &mut slots, |i, s| *s += i as u64 + 1);
            let expect: Vec<u64> = (0..37).map(|i| i + 1).collect();
            assert_eq!(slots, expect, "{threads} threads");
        }
    }

    #[test]
    fn atomic_view_roundtrips() {
        let mut xs = vec![5u32, 6, 7];
        {
            let a = as_atomic_u32(&mut xs);
            assert_eq!(a[1].load(Relaxed), 6);
            a[1].store(60, Relaxed);
            assert_eq!(a[2].compare_exchange(7, 70, Relaxed, Relaxed), Ok(7));
        }
        assert_eq!(xs, vec![5, 60, 70]);
    }

    #[test]
    fn atomic_u64_view_or_accumulates() {
        let mut xs = vec![0u64; 3];
        {
            let a = as_atomic_u64(&mut xs);
            a[0].fetch_or(0b101, Relaxed);
            a[0].fetch_or(0b010, Relaxed);
            assert_eq!(a[2].fetch_or(1 << 63, Relaxed), 0);
        }
        assert_eq!(xs, vec![0b111, 0, 1 << 63]);
    }

    #[test]
    fn cas_claims_are_exclusive_across_workers() {
        let mut claims = vec![u32::MAX; 512];
        let atoms = as_atomic_u32(&mut claims);
        let wins: Vec<usize> = run_chunks(8, 64, |chunk| {
            let mut won = 0usize;
            for a in atoms.iter() {
                if a.compare_exchange(u32::MAX, chunk as u32, Relaxed, Relaxed).is_ok() {
                    won += 1;
                }
            }
            won
        });
        assert_eq!(wins.iter().sum::<usize>(), 512, "every entry claimed exactly once");
    }

    #[test]
    fn weighted_plan_blocks_on_accumulated_weight() {
        // uniform weight 3, target 10: chunks close at >=10 accumulated
        let chunks = plan_weighted_chunks(10, 10, |_| 3);
        assert_eq!(chunks, vec![(0, 4), (4, 8), (8, 10)]);
        // a single heavy item still closes its own chunk
        let heavy = plan_weighted_chunks(4, 10, |i| if i == 1 { 100 } else { 1 });
        assert_eq!(heavy, vec![(0, 2), (2, 4)]);
        assert!(plan_weighted_chunks(0, 10, |_| 1).is_empty());
        // plan covers every position exactly once, in order
        let plan = plan_weighted_chunks(137, 7, |i| i % 5);
        let mut pos = 0;
        for &(lo, hi) in &plan {
            assert_eq!(lo, pos);
            assert!(hi > lo);
            pos = hi;
        }
        assert_eq!(pos, 137);
    }

    #[test]
    fn cache_block_items_is_positive_and_scales() {
        assert_eq!(cache_block_items(8), CACHE_BLOCK_BYTES / 8);
        assert!(cache_block_items(usize::MAX) >= 1);
        assert!(cache_block_items(0) >= 1);
    }

    #[test]
    fn env_override_is_clamped_to_one() {
        // can't set the env var safely under the parallel test harness; just
        // exercise the default path
        assert!(default_kernel_threads(1) >= 1);
    }

    #[test]
    fn the_default_shares_the_cores_among_devices() {
        // can't set the env var safely under the parallel test harness, so
        // the shares are checked only where it is unset
        if std::env::var_os("MGPU_KERNEL_THREADS").is_some() {
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(default_kernel_threads(1), cores.min(8));
        assert_eq!(default_kernel_threads(2), (cores / 2).clamp(1, 8));
        assert_eq!(default_kernel_threads(cores + 1), 1, "never below one thread");
        assert_eq!(default_kernel_threads(0), default_kernel_threads(1));
    }
}
