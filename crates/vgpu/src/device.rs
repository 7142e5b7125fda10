//! A virtual GPU: streams, memory pool, clock and metered kernel launches.

use std::sync::Arc;

use crate::counters::BspCounters;
use crate::error::{Result, VgpuError};
use crate::fault::{FaultInjector, KernelFault};
use crate::memory::{DeviceArray, MemoryPool};
use crate::profile::HardwareProfile;
use crate::stream::{Event, Stream, StreamId};
use crate::timeline::{SpanMeta, TraceEvent, TraceKind};

/// The kind of kernel being launched; selects which calibrated throughput of
/// the [`HardwareProfile`] meters the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Edge-centric traversal kernel (Gunrock *advance*); work unit = edges.
    Advance,
    /// Vertex-centric selection kernel (Gunrock *filter*); work unit =
    /// vertices.
    Filter,
    /// A fused advance+filter kernel (§VI-C); work unit = edges. One launch
    /// instead of two and no intermediate frontier in memory.
    FusedAdvanceFilter,
    /// Per-element compute kernel; work unit = elements.
    Compute,
    /// Atomic-heavy communication-computation kernel (`Expand_Incoming`
    /// combiner, frontier split with atomic output cursors).
    Combine,
    /// Frontier split / package kernel (communication computation).
    Split,
    /// Bulk bookkeeping: memset, scan, compact, copy.
    Bulk,
}

impl KernelKind {
    /// Does this kernel count toward W (primitive computation) or C
    /// (communication computation) in the BSP accounting?
    pub fn is_communication_computation(self) -> bool {
        matches!(self, KernelKind::Combine | KernelKind::Split)
    }

    /// Trace label for the profiler.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Advance => "advance",
            KernelKind::Filter => "filter",
            KernelKind::FusedAdvanceFilter => "advance+filter",
            KernelKind::Compute => "compute",
            KernelKind::Combine => "combine",
            KernelKind::Split => "split",
            KernelKind::Bulk => "bulk",
        }
    }
}

/// Conventional stream assignment used by the framework: stream 0 computes,
/// stream 1 communicates, mirroring the paper's separation of computation and
/// communication into different CUDA streams.
pub const COMPUTE_STREAM: StreamId = StreamId(0);
/// See [`COMPUTE_STREAM`].
pub const COMM_STREAM: StreamId = StreamId(1);

/// One virtual GPU.
#[derive(Debug)]
pub struct Device {
    id: usize,
    profile: HardwareProfile,
    pool: MemoryPool,
    streams: Vec<Stream>,
    /// Bandwidth multiplier on per-item kernel cost reflecting the graph's
    /// id widths (Table V: 64-bit vertex ids read 2× data per edge and
    /// record 0.5× performance). 1.0 = the 32-bit-vertex/32-bit-offset
    /// baseline; set by the framework from the graph's `IdWidths`.
    width_factor: f64,
    /// Host worker threads available to kernel bodies (see [`crate::par`]).
    /// Affects wall-clock execution speed only — never the metered cost,
    /// which is a pure function of the charged item counts.
    kernel_threads: usize,
    /// Deterministic fault injector shared across the system; `None` (the
    /// default) leaves the launch path exactly as fast and exactly as
    /// metered as a fault-free build.
    fault: Option<Arc<FaultInjector>>,
    /// A one-shot fault armed by the framework for the *next* launch (how
    /// pressure-machinery faults — chunked-advance passes, arena leases —
    /// reach the launch site; see [`crate::fault::PressureSite`]). Consumed
    /// by the launch whether or not it also retries.
    pending_fault: Option<KernelFault>,
    /// Transient launch faults are retried in place up to this many times
    /// (the fault fired *before* the body, so the failed launch had no side
    /// effects and an immediate relaunch is always safe).
    retry_max: u32,
    /// Simulated backoff charged per relaunch attempt.
    retry_backoff_us: f64,
    /// Relaunch attempts performed during the current traversal.
    kernel_retries: u64,
    /// BSP cost counters for the current traversal.
    pub counters: BspCounters,
    /// Opt-in execution profiler (see [`crate::Timeline`]).
    pub timeline: crate::timeline::Timeline,
}

impl Device {
    /// Create device `id` with the given profile and two streams
    /// (compute + communication).
    pub fn new(id: usize, profile: HardwareProfile) -> Self {
        let pool = MemoryPool::new(id, profile.mem_capacity);
        Device {
            id,
            profile,
            pool,
            streams: vec![Stream::new(0.0), Stream::new(0.0)],
            width_factor: 1.0,
            kernel_threads: crate::par::default_kernel_threads(),
            fault: None,
            pending_fault: None,
            retry_max: 0,
            retry_backoff_us: 0.0,
            kernel_retries: 0,
            counters: BspCounters::default(),
            timeline: crate::timeline::Timeline::default(),
        }
    }

    /// Set the id-width bandwidth factor (see the field docs). The
    /// framework derives it as `(vertex_bytes + offset_bytes/4) / 5`, which
    /// reproduces the paper's measured Table V ratios: 32v/32e → 1.0×
    /// throughput cost, 32v/64e → 1.2×, 64v/64e → 2.0×.
    pub fn set_width_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "width factor must be positive");
        self.width_factor = factor;
    }

    /// The current id-width bandwidth factor.
    pub fn width_factor(&self) -> f64 {
        self.width_factor
    }

    /// Set how many host threads kernel bodies may use (clamped to ≥ 1).
    /// Purely a wall-clock knob: simulated cost and all BSP counters are
    /// charged from item counts and are identical for every value.
    pub fn set_kernel_threads(&mut self, n: usize) {
        self.kernel_threads = n.max(1);
    }

    /// Host threads available to kernel bodies.
    pub fn kernel_threads(&self) -> usize {
        self.kernel_threads
    }

    /// Attach (or detach) a fault injector. Injected faults fire at
    /// deterministic kernel-launch indices — see [`crate::fault`].
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.fault = injector;
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Arm a one-shot fault for the next kernel launch on this device. The
    /// framework uses this to surface faults whose deterministic site lives
    /// above the launch layer (chunked-advance passes, arena leases): the
    /// site is decided where it is counted, then delivered here so the
    /// normal retry/backoff machinery applies unchanged.
    pub fn inject_fault(&mut self, fault: KernelFault) {
        self.pending_fault = Some(fault);
    }

    /// Bound in-place relaunches of transiently failing kernels: up to
    /// `max_retries` attempts, each charging `backoff_us` simulated
    /// microseconds (plus the failed launch's own overhead) before the
    /// relaunch. `(0, 0.0)` — the default — disables retries.
    pub fn set_retry_policy(&mut self, max_retries: u32, backoff_us: f64) {
        self.retry_max = max_retries;
        self.retry_backoff_us = backoff_us;
    }

    /// Relaunch attempts performed since the last [`Self::reset_clock`].
    pub fn kernel_retries(&self) -> u64 {
        self.kernel_retries
    }

    /// Device id within its system.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's hardware profile.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// The device's memory pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    fn stream_mut(&mut self, s: StreamId) -> Result<&mut Stream> {
        let have = self.streams.len();
        self.streams.get_mut(s.0).ok_or(VgpuError::BadStream { stream: s.0, have })
    }

    /// The device's simulated clock: the time at which all streams drain
    /// (the `cudaDeviceSynchronize` analog).
    pub fn now(&self) -> f64 {
        self.streams.iter().map(Stream::ready_at).fold(0.0, f64::max)
    }

    /// Completion time of a single stream.
    pub fn stream_time(&self, s: StreamId) -> f64 {
        self.streams[s.0].ready_at()
    }

    /// Record an event on a stream.
    pub fn record_event(&self, s: StreamId) -> Event {
        self.streams[s.0].record()
    }

    /// Make stream `s` wait for `event` (`cudaStreamWaitEvent` analog; the
    /// event may come from another device's stream).
    pub fn stream_wait(&mut self, s: StreamId, event: Event) -> Result<()> {
        self.stream_mut(s)?.wait(event);
        Ok(())
    }

    /// Launch a kernel on stream `s`. The closure runs immediately (for
    /// real) and must return `(result, work_items)`; the launch charges
    /// `kernel_launch_us + work_items / throughput(kind)` to the stream and
    /// updates the BSP counters. Zero-work launches still pay the launch
    /// overhead — that is precisely the §V-B effect that makes road networks
    /// and deep frontiers slow.
    pub fn kernel<R>(
        &mut self,
        s: StreamId,
        kind: KernelKind,
        f: impl FnOnce() -> (R, u64),
    ) -> Result<R> {
        // Injected faults fire *before* the body runs, so a failed launch
        // has no side effects on device state and can be retried safely.
        let mut straggle_us = 0.0;
        if let Some(inj) = &self.fault {
            if inj.is_lost(self.id) {
                return Err(VgpuError::DeviceLost { device: self.id });
            }
        }
        let mut attempts = 0u32;
        loop {
            // The injector keeps its launch-index semantics even when a
            // pending fault is armed; `take()` makes the armed fault
            // one-shot, so the relaunch after a retry runs clean.
            let injected = self
                .fault
                .as_ref()
                .and_then(|inj| inj.on_kernel(self.id))
                .or_else(|| self.pending_fault.take());
            match injected {
                None => {}
                Some(KernelFault::Straggle { delay_us }) => straggle_us = delay_us,
                Some(KernelFault::Fail) => {
                    // a failed launch still pays its launch overhead
                    self.charge(s, self.profile.kernel_launch_us, 0.0)?;
                    if attempts < self.retry_max {
                        attempts += 1;
                        self.kernel_retries += 1;
                        let meta = SpanMeta::new(TraceKind::Retry, "kernel-retry");
                        self.charge_as(s, self.retry_backoff_us, 0.0, meta)?;
                        continue;
                    }
                    return Err(VgpuError::KernelFailed { device: self.id });
                }
                Some(KernelFault::TransientOom) => {
                    if attempts < self.retry_max {
                        attempts += 1;
                        self.kernel_retries += 1;
                        let meta = SpanMeta::new(TraceKind::Retry, "kernel-retry");
                        self.charge_as(s, self.retry_backoff_us, 0.0, meta)?;
                        continue;
                    }
                    return Err(VgpuError::OutOfMemory {
                        device: self.id,
                        requested: self.profile.mem_capacity,
                        live: self.pool.live(),
                        capacity: self.profile.mem_capacity,
                    });
                }
                Some(KernelFault::DeviceLoss) => {
                    return Err(VgpuError::DeviceLost { device: self.id });
                }
            }
            break;
        }
        let (result, items) = f();
        let per_us = match kind {
            KernelKind::Advance | KernelKind::FusedAdvanceFilter => {
                self.profile.advance_edges_per_us
            }
            KernelKind::Filter | KernelKind::Compute => self.profile.filter_vertices_per_us,
            KernelKind::Combine | KernelKind::Split => self.profile.atomic_items_per_us,
            KernelKind::Bulk => self.profile.bulk_items_per_us,
        };
        let cost =
            self.profile.kernel_launch_us + items as f64 * self.width_factor / per_us + straggle_us;
        let end = self.stream_mut(s)?.enqueue(cost, 0.0);
        if self.timeline.is_enabled() {
            let tk = if kind.is_communication_computation() {
                TraceKind::CommKernel
            } else {
                TraceKind::Kernel
            };
            self.timeline.record(TraceEvent {
                device: self.id,
                stream: s.0,
                kind: tk,
                name: kind.name(),
                start_us: end - cost,
                dur_us: cost,
                items,
                ..TraceEvent::default()
            });
        }
        self.counters.kernel_launches += 1;
        if kind.is_communication_computation() {
            self.counters.c_items += items;
            self.counters.c_time_us += cost;
        } else {
            self.counters.w_items += items;
            self.counters.w_time_us += cost;
        }
        Ok(result)
    }

    /// Charge an explicit duration to a stream without running work (used
    /// for transfer occupancy and host-side overheads).
    pub fn charge(&mut self, s: StreamId, cost_us: f64, not_before: f64) -> Result<f64> {
        let end = self.stream_mut(s)?.enqueue(cost_us, not_before);
        if self.timeline.is_enabled() && cost_us > 0.0 {
            self.timeline.record(TraceEvent {
                device: self.id,
                stream: s.0,
                kind: TraceKind::Charge,
                name: "charge",
                start_us: end - cost_us,
                dur_us: cost_us,
                ..TraceEvent::default()
            });
        }
        Ok(end)
    }

    /// Charge an explicit duration to a stream and record it as a typed
    /// span. The clock effect is identical to [`Self::charge`] (one enqueue
    /// of `cost_us`); the only difference is the recorded event — which is
    /// emitted even for zero-cost spans so that e.g. zero-backoff retries
    /// still appear in the trace paired with their fault-log entries.
    pub fn charge_as(
        &mut self,
        s: StreamId,
        cost_us: f64,
        not_before: f64,
        meta: SpanMeta,
    ) -> Result<f64> {
        let end = self.stream_mut(s)?.enqueue(cost_us, not_before);
        if self.timeline.is_enabled() {
            self.timeline.record(TraceEvent {
                device: self.id,
                stream: s.0,
                kind: meta.kind,
                name: meta.name,
                start_us: end - cost_us,
                dur_us: cost_us,
                items: meta.items,
                bytes: meta.bytes,
                h_us: meta.h_us,
                peer: meta.peer,
                ..TraceEvent::default()
            });
        }
        Ok(end)
    }

    /// Allocate a zeroed array, charging an allocation overhead to the
    /// compute stream (`cudaMalloc` is not free).
    pub fn alloc<T: Default + Clone>(&mut self, len: usize) -> Result<DeviceArray<T>> {
        let a = self.pool.alloc::<T>(len)?;
        self.charge(COMPUTE_STREAM, 2.0, 0.0)?;
        Ok(a)
    }

    /// Allocate an empty array with the given capacity (see [`Self::alloc`]).
    pub fn alloc_with_capacity<T: Default + Clone>(
        &mut self,
        cap: usize,
    ) -> Result<DeviceArray<T>> {
        let a = self.pool.alloc_with_capacity::<T>(cap)?;
        self.charge(COMPUTE_STREAM, 2.0, 0.0)?;
        Ok(a)
    }

    /// Copy host data to a fresh device array, charging the transfer at the
    /// device's memory bandwidth (initialization-time H2D copies).
    pub fn upload<T: Default + Clone>(&mut self, src: &[T]) -> Result<DeviceArray<T>> {
        let a = self.pool.alloc_from_slice(src)?;
        let cost = self.profile.local_copy_us(a.bytes());
        self.charge(COMPUTE_STREAM, 2.0 + cost, 0.0)?;
        Ok(a)
    }

    /// Grow `array` to hold at least `need` elements, charging the
    /// reallocation copy cost. This is the expensive event that the
    /// just-enough allocation scheme's size estimation works to avoid
    /// (§VI-B: "reallocation, which is expensive, is infrequent").
    pub fn ensure_capacity<T: Default + Clone>(
        &mut self,
        array: &mut DeviceArray<T>,
        need: usize,
    ) -> Result<()> {
        let copied = array.ensure_capacity(need)?;
        if copied > 0 || need > 0 {
            // alloc + copy-over cost; freeing the old allocation is cheap
            let cost = 2.0 + self.profile.local_copy_us(copied);
            self.charge(COMPUTE_STREAM, cost, 0.0)?;
        }
        Ok(())
    }

    /// Charge the per-superstep synchronization cost `l` and align every
    /// stream to the device-wide completion time plus that cost. Returns the
    /// new clock value. `global_time` is the maximum clock over all devices
    /// at the barrier (BSP global synchronization).
    pub fn end_superstep(&mut self, n_devices: usize, global_time: f64) -> f64 {
        let l = self.profile.superstep_sync_us(n_devices);
        let local = self.now();
        let aligned = local.max(global_time);
        let t = aligned + l;
        if self.timeline.is_enabled() {
            // The wait span is the barrier skew (idle time behind the
            // slowest peer); the sync span is the `S·l` charge. Recording
            // `start = aligned` keeps `start + dur` bit-equal to the
            // post-barrier clock, which the profiler's exact makespan
            // reconciliation depends on.
            if global_time > local {
                self.timeline.record(TraceEvent {
                    device: self.id,
                    stream: COMPUTE_STREAM.0,
                    kind: TraceKind::BarrierWait,
                    name: "barrier-wait",
                    start_us: local,
                    dur_us: global_time - local,
                    ..TraceEvent::default()
                });
            }
            self.timeline.record(TraceEvent {
                device: self.id,
                stream: COMPUTE_STREAM.0,
                kind: TraceKind::Sync,
                name: "superstep-sync",
                start_us: aligned,
                dur_us: l,
                items: n_devices as u64,
                ..TraceEvent::default()
            });
            self.timeline.advance_superstep();
        }
        for s in &mut self.streams {
            s.advance_to(t);
        }
        self.counters.supersteps += 1;
        self.counters.sync_time_us += l;
        t
    }

    /// Reset the clock and counters for a fresh traversal (memory contents
    /// and allocations persist, exactly like a GPU between runs).
    pub fn reset_clock(&mut self) {
        for s in &mut self.streams {
            *s = Stream::new(0.0);
        }
        self.counters.reset();
        self.kernel_retries = 0;
        self.pending_fault = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(0, HardwareProfile::k40())
    }

    #[test]
    fn kernel_charges_launch_plus_work() {
        let mut d = dev();
        let sum: u64 = d
            .kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                let s: u64 = (0..3000u64).sum();
                (s, 3000)
            })
            .unwrap();
        assert_eq!(sum, 3000 * 2999 / 2);
        // 3 µs launch + 3000 edges / 3000 edges-per-µs = 4 µs
        assert!((d.now() - 4.0).abs() < 1e-9);
        assert_eq!(d.counters.w_items, 3000);
        assert_eq!(d.counters.kernel_launches, 1);
    }

    #[test]
    fn zero_work_kernel_still_pays_launch_overhead() {
        let mut d = dev();
        d.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap();
        assert!((d.now() - d.profile().kernel_launch_us).abs() < 1e-9);
    }

    #[test]
    fn combine_counts_toward_c_not_w() {
        let mut d = dev();
        d.kernel(COMM_STREAM, KernelKind::Combine, || ((), 100)).unwrap();
        assert_eq!(d.counters.c_items, 100);
        assert_eq!(d.counters.w_items, 0);
        assert!(d.counters.c_time_us > 0.0);
    }

    #[test]
    fn streams_overlap_and_superstep_aligns() {
        let mut d = dev();
        d.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 30_000)).unwrap(); // 13 µs
        d.charge(COMM_STREAM, 8.0, 0.0).unwrap();
        assert!((d.now() - 13.0).abs() < 1e-9, "overlapped, not summed");
        let t = d.end_superstep(1, 0.0);
        assert!((t - (13.0 + d.profile().superstep_api_us)).abs() < 1e-9);
        assert_eq!(d.stream_time(COMPUTE_STREAM), d.stream_time(COMM_STREAM));
        assert_eq!(d.counters.supersteps, 1);
    }

    #[test]
    fn superstep_respects_global_time() {
        let mut d = dev();
        d.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 9)).unwrap();
        let t = d.end_superstep(2, 500.0);
        assert!(t > 500.0, "device waits for the slowest peer");
    }

    #[test]
    fn cross_device_event_dependency() {
        let mut a = Device::new(0, HardwareProfile::k40());
        let mut b = Device::new(1, HardwareProfile::k40());
        a.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 300_000)).unwrap(); // 103 µs
        let ev = a.record_event(COMPUTE_STREAM);
        b.stream_wait(COMM_STREAM, ev).unwrap();
        b.charge(COMM_STREAM, 1.0, 0.0).unwrap();
        assert!((b.stream_time(COMM_STREAM) - 104.0).abs() < 1e-9);
    }

    #[test]
    fn upload_charges_bandwidth() {
        let mut d = dev();
        let data = vec![0u32; 1 << 20];
        let arr = d.upload(&data).unwrap();
        assert_eq!(arr.len(), 1 << 20);
        assert!(d.now() > 2.0, "H2D copy is not free");
    }

    #[test]
    fn reset_clock_keeps_memory() {
        let mut d = dev();
        let _a = d.alloc::<u32>(100).unwrap();
        let live = d.pool().live();
        d.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 100)).unwrap();
        d.reset_clock();
        assert_eq!(d.now(), 0.0);
        assert_eq!(d.pool().live(), live);
        assert_eq!(d.counters, BspCounters::default());
    }

    #[test]
    fn kernel_threads_is_a_wall_clock_knob_only() {
        let mut a = dev();
        let mut b = dev();
        a.set_kernel_threads(1);
        b.set_kernel_threads(8);
        assert_eq!(a.kernel_threads(), 1);
        assert_eq!(b.kernel_threads(), 8);
        a.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 3000)).unwrap();
        b.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 3000)).unwrap();
        assert_eq!(a.now().to_bits(), b.now().to_bits());
        assert_eq!(a.counters, b.counters);
        b.set_kernel_threads(0);
        assert_eq!(b.kernel_threads(), 1, "clamped to one");
    }

    #[test]
    fn injected_kernel_faults_fire_before_the_body() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut d = dev();
        let plan = FaultPlan::new().kernel_fail(0, 0).straggle(0, 1, 25.0).device_loss(0, 2);
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(&plan, 1))));
        let mut ran = false;
        // launch 0: fails, body never runs, launch overhead still charged
        let err = d
            .kernel(COMPUTE_STREAM, KernelKind::Filter, || {
                ran = true;
                ((), 0)
            })
            .unwrap_err();
        assert!(matches!(err, VgpuError::KernelFailed { device: 0 }));
        assert!(!ran, "faults fire before the kernel body");
        assert!((d.now() - d.profile().kernel_launch_us).abs() < 1e-9);
        // launch 1: straggles — extra time is charged in simulated time
        let before = d.now();
        d.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap();
        assert!((d.now() - before - d.profile().kernel_launch_us - 25.0).abs() < 1e-9);
        // launch 2: permanent loss, sticky for every later launch
        let err = d.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap_err();
        assert!(matches!(err, VgpuError::DeviceLost { device: 0 }));
        let err = d.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap_err();
        assert!(matches!(err, VgpuError::DeviceLost { device: 0 }));
    }

    #[test]
    fn retry_policy_relaunches_transient_faults_in_place() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut d = dev();
        // launches 0 and 1 fail, 2 hits a transient OOM spike; with retries,
        // all are absorbed at the launch site.
        let plan = FaultPlan::new().kernel_fail(0, 0).kernel_fail(0, 1).transient_oom(0, 2);
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(&plan, 1))));
        d.set_retry_policy(3, 10.0);
        let mut ran = 0u32;
        d.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
            ran += 1;
            ((), 0)
        })
        .unwrap();
        assert_eq!(ran, 1, "body runs once, after the faults are retried away");
        assert_eq!(d.kernel_retries(), 3);
        // 2 failed launches (overhead each) + 3 backoffs + the real launch
        let expect = 2.0 * d.profile().kernel_launch_us + 3.0 * 10.0 + d.profile().kernel_launch_us;
        assert!((d.now() - expect).abs() < 1e-9);
        // exhausted retries surface the error
        let mut e = dev();
        let plan = FaultPlan::new().kernel_fail(0, 0).kernel_fail(0, 1);
        e.set_fault_injector(Some(Arc::new(FaultInjector::new(&plan, 1))));
        e.set_retry_policy(1, 0.0);
        let err = e.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap_err();
        assert!(matches!(err, VgpuError::KernelFailed { device: 0 }));
    }

    #[test]
    fn an_armed_fault_is_one_shot_and_goes_through_the_retry_machinery() {
        let mut d = dev();
        d.set_retry_policy(2, 5.0);
        d.inject_fault(KernelFault::Fail);
        let mut ran = 0u32;
        d.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
            ran += 1;
            ((), 0)
        })
        .unwrap();
        assert_eq!(ran, 1, "the relaunch after the armed fault runs clean");
        assert_eq!(d.kernel_retries(), 1);
        // without a retry budget the armed fault surfaces typed
        let mut e = dev();
        e.inject_fault(KernelFault::TransientOom);
        let err = e.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap_err();
        assert!(matches!(err, VgpuError::OutOfMemory { device: 0, .. }));
        // consumed: the next launch is clean
        e.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap();
        // reset_clock disarms a never-consumed fault
        let mut f = dev();
        f.inject_fault(KernelFault::Fail);
        f.reset_clock();
        f.kernel(COMPUTE_STREAM, KernelKind::Filter, || ((), 0)).unwrap();
    }

    #[test]
    fn no_injector_means_no_metering_change() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut plain = dev();
        let mut empty = dev();
        empty.set_fault_injector(Some(Arc::new(FaultInjector::new(&FaultPlan::new(), 1))));
        plain.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 1234)).unwrap();
        empty.kernel(COMPUTE_STREAM, KernelKind::Advance, || ((), 1234)).unwrap();
        assert_eq!(plain.now().to_bits(), empty.now().to_bits());
        assert_eq!(plain.counters, empty.counters);
    }

    #[test]
    fn bad_stream_is_reported() {
        let mut d = dev();
        let err = d.charge(StreamId(9), 1.0, 0.0).unwrap_err();
        assert!(matches!(err, VgpuError::BadStream { stream: 9, .. }));
    }
}
