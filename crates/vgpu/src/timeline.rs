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
//!
//! A recorded span may also carry a [`WallSpan`]: the *host* wall time the
//! layer that produced it spent (a kernel body, a split, a mailbox post, a
//! combine, the superstep's rendezvous waits). Wall stamps are measurements,
//! not simulation: no exporter writes them, so the golden traces stay
//! byte-identical, and a disabled timeline never reads the clock.

use std::time::Instant;

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

/// The host layer a measured wall interval is charged to: the columns of
/// the host-wall table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostLayer {
    /// A primitive kernel body.
    Kernel,
    /// Frontier split, packaging and encoding.
    Split,
    /// Posting a package to a peer's mailbox.
    Mailbox,
    /// Decoding a received package and combining it into the state.
    Combine,
    /// Waiting at rendezvous with the peer device threads.
    Wait,
}

/// Host wall time measured for one span: the layer that spent it, when it
/// started (µs since the enact's epoch) and how long it took. A superstep
/// may rendezvous more than once; its sync span carries the sum of those
/// waits, starting at the first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallSpan {
    /// The layer the time is charged to.
    pub layer: HostLayer,
    /// Host µs since the timeline's epoch when the work started.
    pub start_us: f64,
    /// Host µs the work took.
    pub dur_us: f64,
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
    /// Host wall time the span's layer measured, if it is a stamped site.
    pub wall: Option<WallSpan>,
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
            wall: None,
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
    /// Origin of the wall stamps; `None` while disabled, so an untraced run
    /// never reads the clock.
    epoch: Option<Instant>,
    /// Rendezvous waits since the last superstep-sync span, which takes them.
    waited: Option<WallSpan>,
}

impl Timeline {
    /// Begin recording; wall stamps count from now.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.epoch = Some(Instant::now());
    }

    /// Host µs since the epoch, or `None` (and no clock read) while
    /// disabled. Stamp sites take one at the start of their work.
    pub fn wall_now(&self) -> Option<f64> {
        self.epoch.map(|e| e.elapsed().as_secs_f64() * 1e6)
    }

    /// The wall from `start` (a [`Self::wall_now`]) to now, charged to
    /// `layer`.
    pub(crate) fn wall_since(&self, layer: HostLayer, start: Option<f64>) -> Option<WallSpan> {
        let start_us = start?;
        Some(WallSpan { layer, start_us, dur_us: self.wall_now()? - start_us })
    }

    /// Stamp the last recorded span with the wall from `start` to now: a
    /// layer whose last span is its own kernel (a split, a combine) widens
    /// that kernel's stamp to everything the layer did around it.
    pub fn stamp_last(&mut self, layer: HostLayer, start: Option<f64>) {
        let wall = self.wall_since(layer, start);
        if let (Some(wall), Some(last)) = (wall, self.events.last_mut()) {
            last.wall = Some(wall);
        }
    }

    /// Add the wall from `start` to now to the waits the next
    /// superstep-sync span carries.
    pub fn waited(&mut self, start: Option<f64>) {
        let Some(w) = self.wall_since(HostLayer::Wait, start) else { return };
        match &mut self.waited {
            Some(acc) => acc.dur_us += w.dur_us,
            None => self.waited = Some(w),
        }
    }

    /// The waits noted since the last call (for the superstep-sync span).
    pub(crate) fn take_waited(&mut self) -> Option<WallSpan> {
        self.waited.take()
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

    /// Drop all recorded spans, rewind the superstep cursor and restart the
    /// wall epoch.
    pub fn clear(&mut self) {
        self.events.clear();
        self.superstep = 0;
        self.waited = None;
        if self.enabled {
            self.epoch = Some(Instant::now());
        }
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

    #[test]
    fn wall_stamps_only_while_enabled() {
        let mut tl = Timeline::default();
        assert_eq!(tl.wall_now(), None, "a disabled timeline reads no clock");
        tl.waited(Some(0.0));
        assert_eq!(tl.take_waited(), None);
        tl.enable();
        let start = tl.wall_now();
        tl.record(ev(0.0, 1.0));
        tl.stamp_last(HostLayer::Split, start);
        let wall = tl.events()[0].wall.expect("stamped");
        assert_eq!((wall.layer, wall.start_us), (HostLayer::Split, start.unwrap()));
        assert!(wall.dur_us >= 0.0);
        tl.waited(tl.wall_now());
        tl.waited(tl.wall_now());
        assert_eq!(tl.take_waited().map(|w| w.layer), Some(HostLayer::Wait), "waits add up");
        assert_eq!(tl.take_waited(), None, "and are taken once");
    }
}
