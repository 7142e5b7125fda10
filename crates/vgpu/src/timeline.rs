//! Execution timelines: an opt-in structured tracer for the virtual devices.
//!
//! When enabled on a [`crate::Device`], every kernel launch, explicit charge,
//! package send/receive, barrier wait, superstep sync, retry, collective
//! stage, host spill, chunked pass and checkpoint is recorded as a typed
//! [`TraceEvent`] span on its stream's timeline. `mgpu_core::Trace` snapshots
//! the timelines and exports them (JSONL, or the Chrome trace-event JSON one
//! would inspect computation/communication overlap with on a real multi-GPU
//! run — here it visualizes the simulated schedule instead: the compute
//! stream of each device, its communication stream, and the gaps where it
//! waits at BSP barriers).
//!
//! Because every span is keyed to the *simulated* clock (which is bit-exact
//! across kernel-thread counts and host scheduling), a trace of the same run
//! is byte-identical no matter how it is executed — the property the
//! golden-trace regression suite in `tests/trace_observability.rs` pins.
//! Recording is off by default and free when off: no allocation, and the
//! clock-charging paths never branch on more than the `enabled` flag.

/// The typed category of a recorded span; selects which BSP bucket the
/// profiler folds the span into (`W`, `C`, `H·g`, `S·l`, wait/skew, other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// Primitive computation kernel — folds into `W`.
    Kernel,
    /// Communication-computation kernel (combine/split) — folds into `C`.
    CommKernel,
    /// Explicit stream charge (allocation overhead, transfer tail, failed
    /// launch overhead) — folds into the `other` bucket.
    #[default]
    Charge,
    /// Package send occupancy on the communication stream; `h_us` carries
    /// the portion attributed to `H·g`, `bytes` the wire bytes charged.
    Send,
    /// Package arrival (instant, `dur_us == 0`); `bytes` is the wire size.
    Recv,
    /// Idle time between a device's local completion and the slowest peer
    /// at a BSP barrier — the skew the paper's §V analysis attributes to
    /// load imbalance.
    BarrierWait,
    /// The per-superstep synchronization charge `l` — folds into `S·l`.
    Sync,
    /// A retry backoff (kernel relaunch or transfer resend), or the instant
    /// `transfer-abandoned` marker closing a send whose retries ran out.
    Retry,
    /// A governor downgrade decision (instant marker; `bytes` = the
    /// footprint estimate that forced it). Admission-time decisions are
    /// replayed into the trace at enact start.
    Downgrade,
    /// One stage of a butterfly collective (instant marker).
    Stage,
    /// A host-spill transfer under memory pressure; `h_us` carries the
    /// occupancy portion, `bytes` the bytes freed.
    Spill,
    /// A chunked multi-pass advance (instant marker; `items` = passes).
    Chunk,
    /// A recovery checkpoint offer (instant marker; `items` = words).
    Checkpoint,
    /// Batched-traversal lane occupancy (instant marker; `items` = active
    /// lanes this superstep, `bytes` = the lane bitmask).
    Lanes,
}

impl TraceKind {
    /// Stable label for exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Kernel => "kernel",
            TraceKind::CommKernel => "comm-kernel",
            TraceKind::Charge => "charge",
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::BarrierWait => "barrier-wait",
            TraceKind::Sync => "sync",
            TraceKind::Retry => "retry",
            TraceKind::Downgrade => "downgrade",
            TraceKind::Stage => "stage",
            TraceKind::Spill => "spill",
            TraceKind::Chunk => "chunk",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Lanes => "lanes",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Device id (Chrome trace `pid`).
    pub device: usize,
    /// Stream id (Chrome trace `tid`).
    pub stream: usize,
    /// Typed category (selects the profiler's BSP bucket).
    pub kind: TraceKind,
    /// Span label (kernel kind or `"transfer"` / `"charge"`).
    pub name: &'static str,
    /// Superstep the span belongs to (stamped from the timeline's cursor).
    pub superstep: u32,
    /// Simulated start time in microseconds.
    pub start_us: f64,
    /// Simulated duration in microseconds.
    pub dur_us: f64,
    /// Work items metered for the span (0 for plain charges).
    pub items: u64,
    /// Wire bytes attributed to the span (sends, receives, spills).
    pub bytes: u64,
    /// Portion of the span attributed to `H·g` in the BSP accounting —
    /// exactly what the span added to `BspCounters::h_time_us`.
    pub h_us: f64,
    /// Peer device for transfers (`-1` when not applicable).
    pub peer: i64,
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            device: 0,
            stream: 0,
            kind: TraceKind::Charge,
            name: "",
            superstep: 0,
            start_us: 0.0,
            dur_us: 0.0,
            items: 0,
            bytes: 0,
            h_us: 0.0,
            peer: -1,
        }
    }
}

/// Metadata for a typed span charged via [`crate::Device::charge_as`].
#[derive(Debug, Clone, Copy)]
pub struct SpanMeta {
    /// Typed category.
    pub kind: TraceKind,
    /// Span label.
    pub name: &'static str,
    /// Work items.
    pub items: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Portion attributed to `H·g`.
    pub h_us: f64,
    /// Peer device (`-1` = none).
    pub peer: i64,
}

impl SpanMeta {
    /// A span with the given kind and label and empty metadata.
    pub fn new(kind: TraceKind, name: &'static str) -> Self {
        SpanMeta { kind, name, items: 0, bytes: 0, h_us: 0.0, peer: -1 }
    }

    /// Set the item count.
    pub fn items(mut self, items: u64) -> Self {
        self.items = items;
        self
    }

    /// Set the wire bytes.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Set the `H·g` portion.
    pub fn h_us(mut self, h_us: f64) -> Self {
        self.h_us = h_us;
        self
    }

    /// Set the peer device.
    pub fn peer(mut self, peer: usize) -> Self {
        self.peer = peer as i64;
        self
    }
}

/// A per-device recording buffer; disabled (and free) by default.
#[derive(Debug, Default)]
pub struct Timeline {
    enabled: bool,
    superstep: u32,
    events: Vec<TraceEvent>,
}

impl Timeline {
    /// Begin recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Is recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span (no-op while disabled). The span's `superstep` field is
    /// stamped from the timeline's cursor so charge sites never track it.
    pub fn record(&mut self, mut event: TraceEvent) {
        if self.enabled {
            event.superstep = self.superstep;
            self.events.push(event);
        }
    }

    /// The recorded spans.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The superstep currently stamped on recorded spans.
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// Position the superstep cursor (used when resuming from a checkpoint
    /// so trace supersteps stay absolute).
    pub fn set_superstep(&mut self, superstep: u32) {
        self.superstep = superstep;
    }

    /// Advance the superstep cursor past a BSP barrier.
    pub fn advance_superstep(&mut self) {
        self.superstep += 1;
    }

    /// Drop all recorded spans and rewind the superstep cursor.
    pub fn clear(&mut self) {
        self.events.clear();
        self.superstep = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            stream: 1,
            kind: TraceKind::Kernel,
            name: "advance",
            start_us: start,
            dur_us: dur,
            items: 5,
            ..TraceEvent::default()
        }
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut tl = Timeline::default();
        tl.record(ev(0.0, 1.0));
        assert!(tl.events().is_empty());
    }

    #[test]
    fn enabled_timeline_records_in_order() {
        let mut tl = Timeline::default();
        tl.enable();
        tl.record(ev(0.0, 1.0));
        tl.record(ev(1.0, 2.0));
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.events()[1].dur_us, 2.0);
        tl.clear();
        assert!(tl.events().is_empty());
        assert!(tl.is_enabled(), "clear keeps recording on");
    }

    #[test]
    fn superstep_cursor_stamps_events() {
        let mut tl = Timeline::default();
        tl.enable();
        tl.record(ev(0.0, 1.0));
        tl.advance_superstep();
        tl.record(ev(1.0, 1.0));
        tl.record(ev(2.0, 1.0));
        tl.set_superstep(7);
        tl.record(ev(3.0, 1.0));
        let stamps: Vec<u32> = tl.events().iter().map(|e| e.superstep).collect();
        assert_eq!(stamps, [0, 1, 1, 7]);
        tl.clear();
        assert_eq!(tl.superstep(), 0, "clear rewinds the cursor");
    }
}
