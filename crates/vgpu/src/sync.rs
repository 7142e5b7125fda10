//! Cross-device synchronization: the BSP rendezvous and the push fabric.
//!
//! Each virtual GPU is driven by a dedicated CPU thread (as in the paper,
//! §III-B "Manage GPUs"). Two pieces of shared machinery connect them:
//!
//! * [`SyncPoint`] — the bulk-synchronous superstep boundary. All device
//!   threads rendezvous, their simulated clocks are max-reduced to a global
//!   time, convergence flags are AND-reduced and numeric contributions are
//!   reduced for global stop conditions (e.g. PageRank's residual
//!   threshold).
//! * [`Mailbox`] — per-device inboxes for pushed packages. A send carries the
//!   [`Event`] at which the transfer completes on the wire so the receiver's
//!   combine kernel can `stream_wait` on real arrival times.
//!
//! # The rendezvous protocol
//!
//! One monotone counter, `arrivals`, is the whole barrier. Generation `g` is
//! complete once `arrivals ≥ (g + 1)·n`; a participant that has not yet
//! arrived at `g` reads `arrivals ∈ [g·n, (g + 1)·n)`, so it knows `g`
//! without any per-thread state. An arrival is
//!
//! 1. write `(time, done, Contribution)` into the participant's own
//!    cache-line-padded slot, bank `g mod 2` (skipped by
//!    [`SyncPoint::rendezvous`], which reduces nothing);
//! 2. publish with one `fetch_add` on `arrivals`;
//! 3. wait **once** for `arrivals ≥ (g + 1)·n` — the arrival that reaches
//!    the target does not wait at all;
//! 4. fold the `n` slots of bank `g mod 2` in device-id order.
//!
//! *Happens-before for the slot reads.* Every operation on `arrivals` is a
//! read-modify-write, so each arrival's release sequence contains every
//! later arrival; the acquire load that observes the target therefore
//! synchronizes with all `n` publishes of the generation, and each slot
//! write is sequenced before its publish. The slot fields are relaxed
//! atomics (plain moves on every target that matters) so the code needs no
//! `unsafe` to say so.
//!
//! *Bank reuse.* A participant writes bank `g mod 2` again at generation
//! `g + 2`, after it left the wait of `g + 1` — and `g + 1` completes only
//! when every participant has arrived there, which each does after folding
//! `g`. So no slot of a bank is rewritten while anyone still reads it; with
//! a single bank a fast thread's arrival at `g + 1` would race a slow
//! thread's fold of `g`.
//!
//! *Device-id order.* The fold is a pure function of the contributions:
//! `f64_sum` does not depend on which thread arrived first.
//!
//! *The wait.* A bounded spin, only when `n ≤ available_parallelism()` (on
//! an oversubscribed host the thread being waited for may need this core),
//! then a `Condvar` park behind a `sleepers` counter, so the completing
//! arrival pays a lock and a wake only when somebody actually slept.
//!
//! *Poison.* [`SyncPoint::poison`] sets the top bit of `arrivals`, which
//! satisfies every target at once: spinners and sleepers leave, and every
//! pending or later rendezvous reports `abort_count ≥ 1`. A device thread
//! that unwinds poisons its sync point so its peers fail typed instead of
//! waiting forever.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::{Result, VgpuError};
use crate::fault::{FaultInjector, TransferFault};
use crate::stream::Event;

/// The values reduced across devices at a superstep boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalReduce {
    /// Maximum simulated clock over all devices (the BSP global time).
    pub max_time_us: f64,
    /// Minimum simulated clock over all devices. The spread
    /// `max_time_us - min_time_us` is how far the slowest device lags the
    /// fastest at the rendezvous — the straggler-detection signal.
    pub min_time_us: f64,
    /// Number of devices that arrived at the boundary in a failed state.
    /// Nonzero means every participant should abandon the traversal at this
    /// boundary — a barrier-synchronized abort signal, so all devices make
    /// the identical exit decision at the identical superstep.
    pub abort_count: usize,
    /// Number of devices that declared themselves locally converged.
    pub done_count: usize,
    /// Sum of per-device floating-point contributions (primitive-specific:
    /// e.g. total rank change for PageRank's stop condition), added in
    /// device-id order.
    pub f64_sum: f64,
    /// Maximum of per-device floating-point contributions.
    pub f64_max: f64,
    /// Sum of per-device integer contributions (e.g. total frontier size).
    pub u64_sum: u64,
}

impl GlobalReduce {
    fn identity() -> Self {
        GlobalReduce {
            max_time_us: 0.0,
            min_time_us: f64::INFINITY,
            abort_count: 0,
            done_count: 0,
            f64_sum: 0.0,
            f64_max: f64::NEG_INFINITY,
            u64_sum: 0,
        }
    }

    fn merge(&mut self, time_us: f64, done: bool, c: &Contribution) {
        self.max_time_us = self.max_time_us.max(time_us);
        self.min_time_us = self.min_time_us.min(time_us);
        if done {
            self.done_count += 1;
        }
        if c.aborting {
            self.abort_count += 1;
        }
        self.f64_sum += c.f64_add;
        self.f64_max = self.f64_max.max(c.f64_max);
        self.u64_sum += c.u64_add;
    }
}

/// Per-device numeric contribution to the superstep reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Added into [`GlobalReduce::f64_sum`].
    pub f64_add: f64,
    /// Max-reduced into [`GlobalReduce::f64_max`].
    pub f64_max: f64,
    /// Added into [`GlobalReduce::u64_sum`].
    pub u64_add: u64,
    /// This device arrived at the boundary in a failed state (counted into
    /// [`GlobalReduce::abort_count`]).
    pub aborting: bool,
}

impl Default for Contribution {
    fn default() -> Self {
        Contribution { f64_add: 0.0, f64_max: f64::NEG_INFINITY, u64_add: 0, aborting: false }
    }
}

/// What one participant's waits cost on the host wall clock — never part of
/// the simulation (see [`SyncPoint::host_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostSyncStats {
    /// Rendezvous attended.
    pub rendezvous: u64,
    /// Waits that outlasted the spin budget and slept on the `Condvar`.
    pub parked: u64,
    /// Wall time between arriving and being released, summed.
    pub wait_wall_ns: u64,
}

impl std::ops::AddAssign for HostSyncStats {
    fn add_assign(&mut self, other: Self) {
        self.rendezvous += other.rendezvous;
        self.parked += other.parked;
        self.wait_wall_ns += other.wait_wall_ns;
    }
}

/// Top bit of `arrivals`: set by [`SyncPoint::poison`], it makes the counter
/// compare above every target.
const POISON: usize = 1 << (usize::BITS - 1);

/// Spin rounds (one `spin_loop` hint + one acquire load: 12.5 ns on the
/// 2.1 GHz 2-core container, so ≈ 25 µs in all) before parking. Chosen by
/// `supersteps_road` `pass_wall_s` (2 device threads, 1 816 supersteps),
/// three seeds per point: 0 → 0.108–0.117 s, 200 → 0.057–0.075 s, 2 000 →
/// 0.038–0.052 s, 20 000 → 0.040–0.046 s. The spin has to outlast the usual
/// skew between two device threads or each superstep pays a futex round
/// trip; past 2 000 nothing more is won, and a host whose other cores are
/// busy with someone else's threads would only burn more.
///
/// There is no `yield_now` rung between spinning and parking: 16 yields
/// were not resolved from none on `supersteps_road`, `wire_rmat` or
/// `serve_mix`, and on `ingest_soc` (two cold, kernel-heavy enacts per
/// pass) they cost — `pass_wall_s` higher than the parent's in 8 of 10 pairs
/// with yields alone and 9 of 10 with spin + yields, against 5 of 10 with
/// neither and 3 of 10 with the spin alone (EXPERIMENTS.md "One-wait
/// rendezvous").
const SPIN_ROUNDS: u32 = 2_000;

/// One participant's two reduction inputs (one per bank) and its host-wall
/// counters, alone on its cache lines so arrivals never false-share.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    bank: [Entry; 2],
    rendezvous: AtomicU64,
    parked: AtomicU64,
    wait_wall_ns: AtomicU64,
}

/// `(time, done, Contribution)` as relaxed atomics; `arrivals` orders them.
#[derive(Default)]
struct Entry {
    time: AtomicU64,
    f64_add: AtomicU64,
    f64_max: AtomicU64,
    u64_add: AtomicU64,
    done: AtomicBool,
    aborting: AtomicBool,
}

impl Entry {
    fn store(&self, time_us: f64, done: bool, c: &Contribution) {
        self.time.store(time_us.to_bits(), Ordering::Relaxed);
        self.f64_add.store(c.f64_add.to_bits(), Ordering::Relaxed);
        self.f64_max.store(c.f64_max.to_bits(), Ordering::Relaxed);
        self.u64_add.store(c.u64_add, Ordering::Relaxed);
        self.done.store(done, Ordering::Relaxed);
        self.aborting.store(c.aborting, Ordering::Relaxed);
    }

    fn merge_into(&self, r: &mut GlobalReduce) {
        let c = Contribution {
            f64_add: f64::from_bits(self.f64_add.load(Ordering::Relaxed)),
            f64_max: f64::from_bits(self.f64_max.load(Ordering::Relaxed)),
            u64_add: self.u64_add.load(Ordering::Relaxed),
            aborting: self.aborting.load(Ordering::Relaxed),
        };
        let time_us = f64::from_bits(self.time.load(Ordering::Relaxed));
        r.merge(time_us, self.done.load(Ordering::Relaxed), &c);
    }
}

#[repr(align(128))]
struct Padded<T>(T);

/// A reusable BSP superstep rendezvous for `n` device threads (protocol in
/// the module documentation).
pub struct SyncPoint {
    n: usize,
    /// `n ≤ available_parallelism()`: the only case in which spinning cannot
    /// take the core away from the thread being waited for.
    spin: bool,
    /// Total arrivals so far; the top bit is [`POISON`].
    arrivals: Padded<AtomicUsize>,
    /// Slot tickets for the id-less [`SyncPoint::barrier`].
    tickets: AtomicUsize,
    slots: Box<[Slot]>,
    /// Waiters currently on (or on their way to) the `Condvar`.
    sleepers: AtomicUsize,
    /// `std`'s mutex, not the vendored `parking_lot`'s: a `Condvar` needs it.
    park: std::sync::Mutex<()>,
    wake: Condvar,
}

fn host_parallelism() -> usize {
    // ≈ 25 µs per query on Linux (it reads the cgroup files) and a sync
    // point is built per enact, so ask once per process.
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl SyncPoint {
    /// Rendezvous for `n` participating threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a sync point needs at least one participant");
        SyncPoint {
            n,
            spin: n <= host_parallelism(),
            arrivals: Padded(AtomicUsize::new(0)),
            tickets: AtomicUsize::new(0),
            slots: (0..n).map(|_| Slot::default()).collect(),
            sleepers: AtomicUsize::new(0),
            park: std::sync::Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rendezvous with all other device threads: participant `id`
    /// contributes its clock, local convergence flag and numeric
    /// contribution and receives the global reduction, folded in device-id
    /// order. Every participant must make the same sequence of
    /// `superstep` / `rendezvous` / `barrier` calls, each under its own
    /// distinct `id < n`.
    pub fn superstep(
        &self,
        id: usize,
        time_us: f64,
        locally_done: bool,
        contribution: Contribution,
    ) -> GlobalReduce {
        self.reduce_at(id, time_us, locally_done, &contribution)
    }

    /// [`Self::superstep`] for a caller without a participant id: carries
    /// only time and the done flag — a reduction no arrival order can
    /// change — and takes whichever slot its arrival ticket names, which is
    /// also where its wait is accounted in [`Self::host_stats`].
    pub fn barrier(&self, time_us: f64, locally_done: bool) -> GlobalReduce {
        // every barrier generation draws exactly n tickets, so `mod n` hands
        // each of its arrivals a distinct slot
        let slot = self.tickets.fetch_add(1, Ordering::Relaxed) % self.n;
        self.reduce_at(slot, time_us, locally_done, &Contribution::default())
    }

    /// A rendezvous that reduces nothing: returns once all `n` participants
    /// have arrived (or the sync point is poisoned). The enactor's
    /// "every peer's pushes are posted" points use it.
    pub fn rendezvous(&self, id: usize) {
        let seen = self.arrivals.0.load(Ordering::Relaxed);
        if seen & POISON == 0 {
            self.arrive_and_wait(id, seen / self.n);
        }
    }

    fn reduce_at(
        &self,
        id: usize,
        time_us: f64,
        locally_done: bool,
        contribution: &Contribution,
    ) -> GlobalReduce {
        // This thread has not arrived at its generation yet, so the counter
        // is still inside it — Relaxed is enough to read which one it is.
        let seen = self.arrivals.0.load(Ordering::Relaxed);
        if seen & POISON == 0 {
            let generation = seen / self.n;
            self.slots[id].bank[generation % 2].store(time_us, locally_done, contribution);
            if self.arrive_and_wait(id, generation) {
                let mut reduce = GlobalReduce::identity();
                for s in self.slots.iter() {
                    s.bank[generation % 2].merge_into(&mut reduce);
                }
                return reduce;
            }
        }
        // poisoned: the peers' slots may never be written, so report only
        // what this caller knows, marked as an abort
        let mut reduce = GlobalReduce::identity();
        reduce.merge(time_us, locally_done, contribution);
        reduce.abort_count += 1;
        reduce
    }

    /// Publish participant `id`'s arrival at `generation` and wait for the
    /// generation to complete. `false` means the sync point was poisoned.
    fn arrive_and_wait(&self, id: usize, generation: usize) -> bool {
        let me = &self.slots[id];
        me.rendezvous.fetch_add(1, Ordering::Relaxed);
        let target = (generation + 1) * self.n;
        // SeqCst pairs with the sleepers counter (see `wait_for`); as a release
        // it publishes this participant's slot, as an acquire the completing
        // arrival takes every peer's.
        let arrived = self.arrivals.0.fetch_add(1, Ordering::SeqCst) + 1;
        if arrived == target {
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_sleepers();
            }
            return true;
        }
        if arrived & POISON != 0 {
            return false;
        }
        let t0 = Instant::now();
        let seen = self.wait_for(target, me);
        me.wait_wall_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        seen & POISON == 0
    }

    /// Spin, then park, until `arrivals ≥ target`; returns the value that
    /// ended the wait.
    fn wait_for(&self, target: usize, me: &Slot) -> usize {
        if self.spin {
            for _ in 0..SPIN_ROUNDS {
                let seen = self.arrivals.0.load(Ordering::Acquire);
                if seen >= target {
                    return seen;
                }
                std::hint::spin_loop();
            }
        }
        // Park. The completing arrival increments `arrivals`, then reads
        // `sleepers`; this thread increments `sleepers`, then reads
        // `arrivals` — all SeqCst, so at least one of the two sees the
        // other, and the lock closes the window between this thread's check
        // and its wait.
        me.parked.fetch_add(1, Ordering::Relaxed);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        let seen = loop {
            let seen = self.arrivals.0.load(Ordering::SeqCst);
            if seen >= target {
                break seen;
            }
            guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
        };
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        seen
    }

    fn wake_sleepers(&self) {
        // taking the lock orders this wake after a sleeper's check-then-wait
        drop(self.park.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }

    /// Fail the sync point: every spinner and sleeper is released, and every
    /// pending or later rendezvous returns at once with `abort_count ≥ 1`.
    /// There is no way back — a sync point lives for one enact.
    pub fn poison(&self) {
        self.arrivals.0.fetch_or(POISON, Ordering::SeqCst);
        self.wake_sleepers();
    }

    /// Per-participant host-wall accounting of the waits so far, indexed by
    /// participant id.
    pub fn host_stats(&self) -> Vec<HostSyncStats> {
        self.slots
            .iter()
            .map(|s| HostSyncStats {
                rendezvous: s.rendezvous.load(Ordering::Relaxed),
                parked: s.parked.load(Ordering::Relaxed),
                wait_wall_ns: s.wait_wall_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// A message pushed to a peer device: payload plus wire arrival time.
#[derive(Debug)]
pub struct Delivery<T> {
    /// Sending device.
    pub src: usize,
    /// Simulated time at which the data is resident on the receiver.
    pub arrival: Event,
    /// The packaged payload.
    pub payload: T,
}

/// Per-device inboxes for peer-to-peer pushes.
pub struct Mailbox<T> {
    inboxes: Vec<Mutex<Vec<Delivery<T>>>>,
    fault: Option<Arc<FaultInjector>>,
}

impl<T> Mailbox<T> {
    /// Inboxes for `n` devices.
    pub fn new(n: usize) -> Self {
        Self::with_faults(n, None)
    }

    /// Inboxes for `n` devices with an optional fault injector on the wire
    /// (transfer failures and timeouts fire at deterministic per-link send
    /// indices — see [`crate::fault`]).
    pub fn with_faults(n: usize, fault: Option<Arc<FaultInjector>>) -> Self {
        Mailbox { inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(), fault }
    }

    /// Number of inboxes.
    pub fn n(&self) -> usize {
        self.inboxes.len()
    }

    /// Push `payload` from `src` to `dst`, arriving at `arrival`. Fails if
    /// the sender has been lost or the injector planned a fault at this
    /// send's link index; a failed send posts nothing.
    pub fn send(&self, src: usize, dst: usize, arrival: Event, payload: T) -> Result<()> {
        if let Some(inj) = &self.fault {
            if inj.is_lost(src) {
                return Err(VgpuError::DeviceLost { device: src });
            }
            match inj.on_transfer(src, dst) {
                None => {}
                Some(TransferFault::Fail) => {
                    return Err(VgpuError::TransferFailed { from: src, to: dst })
                }
                Some(TransferFault::Timeout) => return Err(VgpuError::Timeout { device: src }),
            }
        }
        self.inboxes[dst].lock().push(Delivery { src, arrival, payload });
        Ok(())
    }

    /// Drain everything delivered to `dst`. Deliveries are sorted by sender
    /// for determinism (combine order must not depend on thread scheduling,
    /// or runs would not be reproducible).
    pub fn drain(&self, dst: usize) -> Vec<Delivery<T>> {
        let mut out: Vec<Delivery<T>> = std::mem::take(&mut *self.inboxes[dst].lock());
        out.sort_by_key(|d| d.src);
        out
    }

    /// True if `dst`'s inbox is empty.
    pub fn is_empty(&self, dst: usize) -> bool {
        self.inboxes[dst].lock().is_empty()
    }
}

/// Convert a device thread's join outcome into a substrate result: a panic
/// that escaped the thread body becomes [`VgpuError::DeviceLost`] for that
/// device instead of poisoning the whole process. One bad kernel body then
/// fails the enact call, not the program.
pub fn harvest_device_thread<T>(
    joined: std::thread::Result<Result<T>>,
    device: usize,
) -> Result<T> {
    match joined {
        Ok(r) => r,
        Err(_) => Err(VgpuError::DeviceLost { device }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn superstep_reduces_max_time_and_done() {
        let sp = Arc::new(SyncPoint::new(3));
        // Device threads are joined through `harvest_device_thread`, the
        // same panic-capturing path the enactors use.
        let results: Vec<Result<GlobalReduce>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let sp = Arc::clone(&sp);
                    s.spawn(move || -> Result<GlobalReduce> {
                        Ok(sp.superstep(
                            i,
                            10.0 * (i + 1) as f64,
                            i == 0,
                            Contribution {
                                f64_add: 1.5,
                                f64_max: i as f64,
                                u64_add: i as u64,
                                ..Default::default()
                            },
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| harvest_device_thread(h.join(), i))
                .collect()
        });
        for r in results {
            let r = r.unwrap();
            assert_eq!(r.max_time_us, 30.0);
            assert_eq!(r.min_time_us, 10.0);
            assert_eq!(r.done_count, 1);
            assert_eq!(r.abort_count, 0);
            assert!((r.f64_sum - 4.5).abs() < 1e-12);
            assert_eq!(r.f64_max, 2.0);
            assert_eq!(r.u64_sum, 3);
        }
    }

    #[test]
    fn harvest_converts_panics_to_device_loss() {
        let joined = std::thread::scope(|s| {
            s.spawn(|| -> Result<()> {
                panic!("poisoned kernel body");
            })
            .join()
        });
        let err = harvest_device_thread(joined, 3).unwrap_err();
        assert_eq!(err, VgpuError::DeviceLost { device: 3 });
    }

    #[test]
    fn aborting_contributions_are_counted() {
        let sp = SyncPoint::new(1);
        let r = sp.superstep(0, 1.0, false, Contribution { aborting: true, ..Default::default() });
        assert_eq!(r.abort_count, 1);
    }

    #[test]
    fn repeated_supersteps_do_not_leak_state() {
        let sp = Arc::new(SyncPoint::new(4));
        std::thread::scope(|s| {
            for i in 0..4 {
                let sp = Arc::clone(&sp);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let r = sp.superstep(
                            i as usize,
                            round as f64,
                            true,
                            Contribution { u64_add: round + i, ..Default::default() },
                        );
                        assert_eq!(r.max_time_us, round as f64);
                        assert_eq!(r.done_count, 4);
                        assert_eq!(r.u64_sum, 4 * round + 6, "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn single_participant_superstep_is_immediate() {
        let sp = SyncPoint::new(1);
        let r = sp.barrier(5.0, false);
        assert_eq!(r.max_time_us, 5.0);
        assert_eq!(r.done_count, 0);
    }

    /// Spin until participant `id` has announced its `k`-th arrival.
    fn await_arrival(sp: &SyncPoint, id: usize, k: u64) {
        while sp.host_stats()[id].rendezvous < k {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fold_is_in_device_id_order_whatever_the_arrival_order() {
        // (((0 + 1e16) + 1) − 1e16) + 1 = 1 in id order; the reverse order,
        // which the threads arrive in, sums to 0
        let adds = [1e16, 1.0, -1e16, 1.0];
        let serial = adds.iter().fold(0.0, |acc, x| acc + x);
        assert_ne!(serial, adds.iter().rev().fold(0.0, |acc, x| acc + x));
        let sp = SyncPoint::new(4);
        std::thread::scope(|s| {
            for id in (0..4).rev() {
                let sp = &sp;
                s.spawn(move || {
                    let c = Contribution { f64_add: adds[id], ..Default::default() };
                    let r = sp.superstep(id, 0.0, false, c);
                    assert_eq!(r.f64_sum.to_bits(), serial.to_bits());
                });
                await_arrival(sp, id, 1);
            }
        });
    }

    #[test]
    fn poison_releases_waiters_and_fails_every_later_rendezvous() {
        let sp = SyncPoint::new(2);
        std::thread::scope(|s| {
            let pending = s.spawn(|| sp.superstep(0, 7.0, true, Contribution::default()));
            await_arrival(&sp, 0, 1);
            sp.poison();
            let r = pending.join().unwrap();
            assert!(r.abort_count >= 1);
            assert_eq!(
                r.max_time_us, 7.0,
                "a poisoned reduce still carries the caller's own clock"
            );
        });
        assert!(sp.superstep(1, 0.0, false, Contribution::default()).abort_count >= 1);
        assert!(sp.barrier(0.0, false).abort_count >= 1);
        sp.rendezvous(1); // returns instead of waiting for a peer that never comes
    }

    #[test]
    fn host_stats_count_every_kind_of_rendezvous_per_participant() {
        let sp = SyncPoint::new(2);
        std::thread::scope(|s| {
            for id in 0..2 {
                let sp = &sp;
                s.spawn(move || {
                    for round in 0..10 {
                        sp.rendezvous(id);
                        sp.superstep(id, round as f64, false, Contribution::default());
                    }
                });
            }
        });
        let stats = sp.host_stats();
        assert_eq!(stats.iter().map(|s| s.rendezvous).collect::<Vec<_>>(), [20, 20]);
        assert!(stats.iter().all(|s| s.parked <= s.rendezvous));
    }

    #[test]
    fn mailbox_delivers_sorted_by_sender() {
        let mb: Mailbox<Vec<u32>> = Mailbox::new(2);
        mb.send(1, 0, Event::at(5.0), vec![9]).unwrap();
        mb.send(0, 0, Event::at(3.0), vec![7]).unwrap();
        let got = mb.drain(0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].src, 0);
        assert_eq!(got[1].src, 1);
        assert_eq!(got[1].arrival.time(), 5.0);
        assert!(mb.is_empty(0));
    }

    #[test]
    fn mailbox_concurrent_sends_all_arrive() {
        let mb = Arc::new(Mailbox::<u64>::new(4));
        std::thread::scope(|s| {
            for src in 0..4usize {
                let mb = Arc::clone(&mb);
                s.spawn(move || {
                    for k in 0..100u64 {
                        mb.send(src, (src + 1) % 4, Event::ready(), k).unwrap();
                    }
                });
            }
        });
        let total: usize = (0..4).map(|d| mb.drain(d).len()).sum();
        assert_eq!(total, 400);
    }
}
