//! Structured run traces and BSP cost attribution (the observability layer).
//!
//! When [`crate::EnactConfig::tracing`] is on, every device records its
//! typed [`TraceEvent`] spans (kernels, sends/receives, barrier waits,
//! superstep syncs, retries, spills, chunked passes, checkpoints) into its
//! `vgpu` timeline; [`Trace::collect`] snapshots them into the report. A
//! [`Profile`] folds the trace into per-device and per-superstep BSP
//! attribution tables — `W` (primitive kernels), `C`
//! (communication computation), `H·g` (wire occupancy), `S·l` (sync
//! charges), barrier wait/skew — and [`Profile::reconcile`] asserts the
//! **exact reconciliation invariant**:
//!
//! * per device, the folded `W`/`C`/`H`/`S·l` sums are *bit-identical* to
//!   the device's [`vgpu::BspCounters`] (the trace spans are recorded at the
//!   very charge sites that bump the counters, in the same order, with the
//!   same f64 values — so the sums agree to the last bit, not to a
//!   tolerance);
//! * event counts match the counters (kernel spans = `kernel_launches`,
//!   sync spans = `supersteps`, send/recv bytes = `h_bytes_sent/recv`, …);
//! * the makespan reconstructed from the final superstep-sync span equals
//!   `EnactReport::sim_time_us` bitwise (plus recovery `lost_time_us` for
//!   resilient reports, which fold failed attempts into the total). Every
//!   enact ends at least one superstep, so this check is never skipped: a
//!   trace without sync spans fails it.
//!
//! Because all span times are *simulated* clocks, a trace is bit-identical
//! across kernel-thread counts and host scheduling; the serialized JSONL
//! form is therefore byte-identical too, which the golden-trace suite in
//! `tests/trace_observability.rs` pins.
//!
//! The same fold builds the **host-wall table**, the measured twin of the
//! BSP one: the wall stamps traced spans carry ([`vgpu::WallSpan`]) summed
//! per layer — kernel bodies, split + package + encode, mailbox, decode +
//! combine, rendezvous wait — per device and per superstep, plus the kernel
//! bodies by kernel name with the items the meter charged them and the host
//! ns per item. Stamps are measurements of one run on one host:
//! no exporter writes them, and [`Profile::reconcile`] and
//! `EnactReport::same_simulation` never look at them.
//! [`Profile::check_wall`] checks them against the enact's wall instead.

use vgpu::{HostLayer, SimSystem, TraceEvent, TraceKind, WallSpan};

use crate::json::{Json, JsonWriter};
use crate::report::EnactReport;

/// The structured event record of one enacted traversal: every device's
/// typed spans in program (simulated-clock) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Per-device event streams, indexed by device id.
    pub per_device: Vec<Vec<TraceEvent>>,
}

impl Trace {
    /// Snapshot every device timeline of `system`.
    pub fn collect(system: &SimSystem) -> Trace {
        Trace { per_device: system.devices.iter().map(|d| d.timeline.events().to_vec()).collect() }
    }

    /// Number of devices traced.
    pub fn n_devices(&self) -> usize {
        self.per_device.len()
    }

    /// Total recorded spans over all devices.
    pub fn n_events(&self) -> usize {
        self.per_device.iter().map(Vec::len).sum()
    }

    /// Is the trace empty (tracing off or nothing ran)?
    pub fn is_empty(&self) -> bool {
        self.n_events() == 0
    }

    /// Serialize as compact JSONL: one event object per line, devices in
    /// id order, events in program order. This is the golden format — equal
    /// simulations produce byte-equal output.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::default();
        for e in self.per_device.iter().flatten() {
            w.obj(|w| {
                w.key("device").value(e.device);
                w.key("stream").value(e.stream);
                w.key("superstep").value(e.superstep);
                w.key("kind").str(e.kind.as_str());
                w.key("name").str(e.name);
                w.key("start_us").value(e.start_us);
                w.key("dur_us").value(e.dur_us);
                w.key("items").value(e.items);
                w.key("bytes").value(e.bytes);
                w.key("h_us").value(e.h_us);
                w.key("peer").value(e.peer);
            });
            w.newline();
        }
        w.finish()
    }

    /// Serialize as Chrome trace-event JSON (load in `chrome://tracing` or
    /// Perfetto): one complete (`"ph":"X"`) span per event with the typed
    /// kind as the category and the metadata in `args`, plus process-name
    /// metadata so devices label as `GPU <id>`.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.obj(|w| {
            w.key("traceEvents").arr(|w| {
                for (id, events) in self.per_device.iter().enumerate() {
                    w.obj(|w| {
                        w.key("ph").str("M");
                        w.key("pid").value(id);
                        w.key("name").str("process_name");
                        w.key("args").obj(|w| w.key("name").str(&format!("GPU {id}")));
                    });
                    for e in events {
                        w.obj(|w| {
                            w.key("pid").value(e.device);
                            w.key("tid").value(e.stream);
                            w.key("ph").str("X");
                            w.key("ts").value(e.start_us);
                            w.key("dur").value(e.dur_us);
                            w.key("name").str(e.name);
                            w.key("cat").str(e.kind.as_str());
                            w.key("args").obj(|w| {
                                w.key("superstep").value(e.superstep);
                                w.key("items").value(e.items);
                                w.key("bytes").value(e.bytes);
                                w.key("h_us").value(e.h_us);
                                w.key("peer").value(e.peer);
                            });
                        });
                    }
                }
            });
        });
        w.finish()
    }
}

/// One row of the BSP attribution table (a device, a superstep, or a total):
/// time buckets in simulated microseconds plus event/byte tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BspRow {
    /// Primitive-kernel time (the BSP `W`).
    pub w_us: f64,
    /// Communication-computation kernel time (the paper's `C`).
    pub c_us: f64,
    /// Wire occupancy time (the BSP `H·g`).
    pub h_us: f64,
    /// Superstep synchronization charges (the BSP `S·l`).
    pub sync_us: f64,
    /// Idle time waiting for the slowest peer at barriers (load skew).
    pub wait_us: f64,
    /// Everything else on the clock: allocation charges, transfer latency
    /// tails, retry backoffs, failed-launch overheads.
    pub other_us: f64,
    /// Kernel launches (primitive + communication-computation).
    pub kernels: u64,
    /// Superstep sync spans.
    pub syncs: u64,
    /// Package send attempts.
    pub sends: u64,
    /// Package arrivals.
    pub recvs: u64,
    /// Retry spans (kernel relaunches + transfer resends).
    pub retries: u64,
    /// Governor downgrade markers (admission decisions replayed at t=0).
    pub downgrades: u64,
    /// Host-spill transfers.
    pub spills: u64,
    /// Chunked multi-pass advances.
    pub chunks: u64,
    /// Checkpoint offers.
    pub checkpoints: u64,
    /// Peak batched-traversal lane occupancy (max active lanes across the
    /// row's lane markers; 0 when the primitive is single-source).
    pub lanes: u64,
    /// Wire bytes successfully sent (failed attempts excluded).
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_recv: u64,
    /// Vertices successfully sent.
    pub vertices_sent: u64,
    /// Packages successfully sent.
    pub messages: u64,
    /// Bytes freed to the host by spills.
    pub spilled_bytes: u64,
}

impl BspRow {
    /// Fold one span into the row. `last_send` threads the most recent send
    /// attempt's (bytes, items) so the retry span that follows a failed
    /// attempt can roll back its success tallies (the counters only credit
    /// the attempt that delivered).
    fn absorb(&mut self, e: &TraceEvent, last_send: &mut (u64, u64)) {
        match e.kind {
            TraceKind::Kernel => {
                self.w_us += e.dur_us;
                self.kernels += 1;
            }
            TraceKind::CommKernel => {
                self.c_us += e.dur_us;
                self.kernels += 1;
            }
            TraceKind::Charge => self.other_us += e.dur_us,
            TraceKind::Send => {
                self.h_us += e.h_us;
                self.sends += 1;
                self.bytes_sent += e.bytes;
                self.vertices_sent += e.items;
                self.messages += 1;
                *last_send = (e.bytes, e.items);
            }
            TraceKind::Recv => {
                self.recvs += 1;
                self.bytes_recv += e.bytes;
            }
            TraceKind::BarrierWait => self.wait_us += e.dur_us,
            TraceKind::Sync => {
                self.sync_us += e.dur_us;
                self.syncs += 1;
            }
            TraceKind::Retry => {
                self.retries += 1;
                self.other_us += e.dur_us;
                if e.name == "transfer-retry" {
                    // the immediately preceding send attempt failed — it
                    // occupied the link (h_us stands) but delivered nothing
                    self.bytes_sent -= last_send.0;
                    self.vertices_sent -= last_send.1;
                    self.messages -= 1;
                }
            }
            TraceKind::Downgrade => self.downgrades += 1,
            TraceKind::Spill => {
                self.spills += 1;
                self.h_us += e.h_us;
                self.other_us += e.dur_us - e.h_us; // the latency tail
                self.spilled_bytes += e.bytes;
            }
            TraceKind::Chunk => self.chunks += 1,
            TraceKind::Checkpoint => self.checkpoints += 1,
            TraceKind::Lanes => self.lanes = self.lanes.max(e.items),
        }
    }
}

/// One row of the host-wall table: measured host µs per layer (see
/// [`vgpu::HostLayer`]). Wall time is a measurement of this run on this
/// host, not part of the simulation, so [`Profile::reconcile`] ignores it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallRow {
    /// Primitive kernel bodies.
    pub kernel_us: f64,
    /// Frontier split, packaging and encoding.
    pub split_us: f64,
    /// Mailbox posts.
    pub mailbox_us: f64,
    /// Decode and combine of received packages.
    pub combine_us: f64,
    /// Rendezvous waits.
    pub wait_us: f64,
}

impl WallRow {
    fn absorb(&mut self, w: &WallSpan) {
        let column = match w.layer {
            HostLayer::Kernel => &mut self.kernel_us,
            HostLayer::Split => &mut self.split_us,
            HostLayer::Mailbox => &mut self.mailbox_us,
            HostLayer::Combine => &mut self.combine_us,
            HostLayer::Wait => &mut self.wait_us,
        };
        *column += w.dur_us;
    }

    /// The five columns in table order.
    pub fn columns(&self) -> [f64; 5] {
        [self.kernel_us, self.split_us, self.mailbox_us, self.combine_us, self.wait_us]
    }

    /// The wall the row accounts for.
    pub fn total(&self) -> f64 {
        self.columns().iter().sum()
    }

    fn line(&self, label: &str) -> String {
        let cells: String = self.columns().iter().map(|us| format!(" {us:>12.1}")).collect();
        format!("{label:>5}{cells} {:>12.1}\n", self.total())
    }
}

/// Host wall and charged items of the kernel bodies of one name, summed
/// over devices. A kernel span's name is its `vgpu::KernelKind::name`, so a
/// name is a kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelWall {
    /// Kernel name (`advance+filter`, `filter`, `bulk`, …).
    pub name: &'static str,
    /// Measured host µs of its bodies.
    pub wall_us: f64,
    /// Work items the meter charged its launches.
    pub items: u64,
}

impl KernelWall {
    /// Host ns per charged item: how slow the body is for the work it was
    /// charged (0 when it was charged none).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            1e3 * self.wall_us / self.items as f64
        }
    }
}

/// The folded BSP attribution of one [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-device attribution, indexed by device id.
    pub per_device: Vec<BspRow>,
    /// Per-superstep attribution (summed over devices), indexed by absolute
    /// superstep number.
    pub per_superstep: Vec<BspRow>,
    /// System totals (per-device rows folded in device order — the same
    /// order `SimSystem::total_counters` merges, so float sums agree
    /// bitwise with the report totals).
    pub total: BspRow,
    /// The run's makespan reconstructed from the final superstep-sync span:
    /// `max(start + dur)` over sync spans. Sync spans are recorded with
    /// `start` equal to the barrier-aligned clock, so this reproduces the
    /// post-barrier clock bit-for-bit.
    pub makespan_us: f64,
    /// Measured host wall per layer, per device.
    pub wall_per_device: Vec<WallRow>,
    /// Measured host wall per layer, per superstep (summed over devices).
    pub wall_per_superstep: Vec<WallRow>,
    /// Host wall and charged items of the kernel bodies by kernel name,
    /// summed over devices, largest wall first. The walls add up to the
    /// kernel column.
    pub wall_by_kernel: Vec<KernelWall>,
}

impl Profile {
    /// Fold `trace` into attribution tables.
    pub fn from_trace(trace: &Trace) -> Profile {
        let mut per_device = Vec::with_capacity(trace.n_devices());
        let mut per_superstep: Vec<BspRow> = Vec::new();
        let mut wall_per_device = Vec::with_capacity(trace.n_devices());
        let mut wall_per_superstep: Vec<WallRow> = Vec::new();
        let mut wall_by_kernel: Vec<KernelWall> = Vec::new();
        let mut makespan = 0.0f64;
        for events in &trace.per_device {
            let mut row = BspRow::default();
            let mut wall_row = WallRow::default();
            let mut last_send = (0u64, 0u64);
            let mut last_step_send = (0u64, 0u64);
            for e in events {
                row.absorb(e, &mut last_send);
                let step = e.superstep as usize;
                if per_superstep.len() <= step {
                    per_superstep.resize(step + 1, BspRow::default());
                    wall_per_superstep.resize(step + 1, WallRow::default());
                }
                per_superstep[step].absorb(e, &mut last_step_send);
                if e.kind == TraceKind::Sync {
                    makespan = makespan.max(e.start_us + e.dur_us);
                }
                let Some(wall) = &e.wall else { continue };
                wall_row.absorb(wall);
                wall_per_superstep[step].absorb(wall);
                if wall.layer == HostLayer::Kernel {
                    match wall_by_kernel.iter_mut().find(|k| k.name == e.name) {
                        Some(k) => {
                            k.wall_us += wall.dur_us;
                            k.items += e.items;
                        }
                        None => wall_by_kernel.push(KernelWall {
                            name: e.name,
                            wall_us: wall.dur_us,
                            items: e.items,
                        }),
                    }
                }
            }
            per_device.push(row);
            wall_per_device.push(wall_row);
        }
        wall_by_kernel.sort_by(|a, b| b.wall_us.total_cmp(&a.wall_us));
        let mut total = BspRow::default();
        for row in &per_device {
            total.w_us += row.w_us;
            total.c_us += row.c_us;
            total.h_us += row.h_us;
            total.sync_us += row.sync_us;
            total.wait_us += row.wait_us;
            total.other_us += row.other_us;
            total.kernels += row.kernels;
            total.syncs += row.syncs;
            total.sends += row.sends;
            total.recvs += row.recvs;
            total.retries += row.retries;
            total.downgrades += row.downgrades;
            total.spills += row.spills;
            total.chunks += row.chunks;
            total.checkpoints += row.checkpoints;
            total.lanes = total.lanes.max(row.lanes);
            total.bytes_sent += row.bytes_sent;
            total.bytes_recv += row.bytes_recv;
            total.vertices_sent += row.vertices_sent;
            total.messages += row.messages;
            total.spilled_bytes += row.spilled_bytes;
        }
        Profile {
            per_device,
            per_superstep,
            total,
            makespan_us: makespan,
            wall_per_device,
            wall_per_superstep,
            wall_by_kernel,
        }
    }

    /// Check the host-wall table against the enact's measured wall: the
    /// trace must carry stamps, and no device's columns may add up to more
    /// than `enact_wall_us` (the stamped intervals are disjoint and all
    /// inside the enact). Returns the share of the enact wall the table
    /// accounts for on the least-covered device.
    pub fn check_wall(&self, enact_wall_us: f64) -> std::result::Result<f64, String> {
        if self.wall_per_device.iter().all(|r| r.total() == 0.0) {
            return Err("the trace carries no host-wall stamps".into());
        }
        let mut covered = f64::INFINITY;
        for (dev, row) in self.wall_per_device.iter().enumerate() {
            if row.columns().iter().any(|&us| us < 0.0) {
                return Err(format!("device {dev}: a negative host-wall column {row:?}"));
            }
            if row.total() > enact_wall_us {
                return Err(format!(
                    "device {dev}: host-wall columns add up to {:.1} us, more than the \
                     {enact_wall_us:.1} us enact wall",
                    row.total()
                ));
            }
            covered = covered.min(row.total() / enact_wall_us);
        }
        Ok(covered)
    }

    /// Render the host-wall table: per superstep (summed over devices), per
    /// device against the enact wall, and the kernel bodies by name with
    /// their charged items and host ns per item.
    pub fn format_wall_table(&self, enact_wall_us: f64) -> String {
        let mut out = format!(
            "host wall (us, summed over {} devices)\n{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            self.wall_per_device.len(),
            "step",
            "kernel",
            "split+pkg",
            "mailbox",
            "combine",
            "wait",
            "accounted"
        );
        for (i, r) in self.wall_per_superstep.iter().enumerate() {
            out.push_str(&r.line(&i.to_string()));
        }
        for (dev, r) in self.wall_per_device.iter().enumerate() {
            out.push_str(&r.line(&format!("gpu{dev}")));
        }
        let steps = self.n_supersteps().max(1) as f64;
        for (dev, r) in self.wall_per_device.iter().enumerate() {
            out.push_str(&format!(
                "gpu {dev}: {:.1} of {:.1} us enact wall accounted ({:.1} %), {:.2} of {:.2} us \
                 per superstep\n",
                r.total(),
                enact_wall_us,
                100.0 * r.total() / enact_wall_us,
                r.total() / steps,
                enact_wall_us / steps
            ));
        }
        let kernels: Vec<String> = self
            .wall_by_kernel
            .iter()
            .map(|k| {
                let KernelWall { name, wall_us, items } = k;
                format!("{name} {wall_us:.1} us {items} items {:.2} ns/item", k.ns_per_item())
            })
            .collect();
        out.push_str(&format!("kernel bodies by name: {}\n", kernels.join(", ")));
        out
    }

    /// Verify the exact reconciliation invariant against `report` (see the
    /// module docs). Returns a description of the first mismatch; `Ok(())`
    /// means every per-device time bucket, every tally and the makespan
    /// agree with the report — bitwise for the f64 sums.
    pub fn reconcile(&self, report: &EnactReport) -> std::result::Result<(), String> {
        fn bits(label: &str, dev: usize, a: f64, b: f64) -> std::result::Result<(), String> {
            if a.to_bits() != b.to_bits() {
                return Err(format!("device {dev}: {label} trace={a} report={b} (bitwise)"));
            }
            Ok(())
        }
        fn count(label: &str, dev: usize, a: u64, b: u64) -> std::result::Result<(), String> {
            if a != b {
                return Err(format!("device {dev}: {label} trace={a} report={b}"));
            }
            Ok(())
        }
        if self.per_device.len() != report.per_device.len() {
            return Err(format!(
                "device count: trace={} report={}",
                self.per_device.len(),
                report.per_device.len()
            ));
        }
        for (dev, (row, c)) in self.per_device.iter().zip(report.per_device.iter()).enumerate() {
            bits("W time", dev, row.w_us, c.w_time_us)?;
            bits("C time", dev, row.c_us, c.c_time_us)?;
            bits("H time", dev, row.h_us, c.h_time_us)?;
            bits("sync time", dev, row.sync_us, c.sync_time_us)?;
            count("kernel launches", dev, row.kernels, c.kernel_launches)?;
            count("supersteps", dev, row.syncs, c.supersteps)?;
            count("bytes sent", dev, row.bytes_sent, c.h_bytes_sent)?;
            count("bytes recv", dev, row.bytes_recv, c.h_bytes_recv)?;
            count("vertices sent", dev, row.vertices_sent, c.h_vertices)?;
            count("messages", dev, row.messages, c.h_messages)?;
        }
        let t = &report.totals;
        for (label, a, b) in [
            ("W time", self.total.w_us, t.w_time_us),
            ("C time", self.total.c_us, t.c_time_us),
            ("H time", self.total.h_us, t.h_time_us),
            ("sync time", self.total.sync_us, t.sync_time_us),
        ] {
            if a.to_bits() != b.to_bits() {
                return Err(format!("totals: {label} trace={a} report={b} (bitwise)"));
            }
        }
        // Resilient reports fold the simulated time lost to failed attempts
        // into `sim_time_us`; the trace describes the surviving attempt, so
        // its makespan plus the recorded loss must reproduce the total. For
        // plain reports `lost_time_us` is 0.0 and the addition is exact.
        // Every enact ends at least one superstep, so a trace without sync
        // spans cannot reconstruct the makespan and fails here.
        let reconstructed = self.makespan_us + report.recovery.lost_time_us;
        if reconstructed.to_bits() != report.sim_time_us.to_bits() {
            return Err(format!(
                "makespan: trace={} (+lost {}) report sim_time_us={} (bitwise)",
                self.makespan_us, report.recovery.lost_time_us, report.sim_time_us
            ));
        }
        Ok(())
    }

    /// Supersteps covered by the per-superstep table.
    pub fn n_supersteps(&self) -> usize {
        self.per_superstep.len()
    }

    /// Serialize the attribution tables as one JSON object (per-device and
    /// per-superstep rows plus totals and makespan).
    pub fn to_json(&self) -> String {
        fn row(r: &BspRow) -> Json {
            Json::obj([
                ("w_us", r.w_us.into()),
                ("c_us", r.c_us.into()),
                ("h_us", r.h_us.into()),
                ("sync_us", r.sync_us.into()),
                ("wait_us", r.wait_us.into()),
                ("other_us", r.other_us.into()),
                ("kernels", r.kernels.into()),
                ("syncs", r.syncs.into()),
                ("sends", r.sends.into()),
                ("recvs", r.recvs.into()),
                ("retries", r.retries.into()),
                ("downgrades", r.downgrades.into()),
                ("spills", r.spills.into()),
                ("chunks", r.chunks.into()),
                ("checkpoints", r.checkpoints.into()),
                ("lanes", r.lanes.into()),
                ("bytes_sent", r.bytes_sent.into()),
                ("bytes_recv", r.bytes_recv.into()),
                ("vertices_sent", r.vertices_sent.into()),
                ("messages", r.messages.into()),
                ("spilled_bytes", r.spilled_bytes.into()),
            ])
        }
        Json::obj([
            ("makespan_us", self.makespan_us.into()),
            ("total", row(&self.total)),
            ("per_device", Json::Arr(self.per_device.iter().map(row).collect())),
            ("per_superstep", Json::Arr(self.per_superstep.iter().map(row).collect())),
        ])
        .to_string()
    }

    /// Render the per-superstep table plus totals as aligned text (the CLI's
    /// `--profile` summary).
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}\n",
            "step", "W us", "C us", "H us", "sync us", "wait us", "sends", "kernels"
        ));
        for (i, r) in self.per_superstep.iter().enumerate() {
            out.push_str(&format!(
                "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8} {:>8}\n",
                i, r.w_us, r.c_us, r.h_us, r.sync_us, r.wait_us, r.sends, r.kernels
            ));
        }
        let t = &self.total;
        out.push_str(&format!(
            "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8} {:>8}\n",
            "total", t.w_us, t.c_us, t.h_us, t.sync_us, t.wait_us, t.sends, t.kernels
        ));
        out.push_str(&format!(
            "makespan {:.3} us  (attributed: W {:.3} + C {:.3} + H {:.3} + S*l {:.3} \
             + wait {:.3} + other {:.3})\n",
            self.makespan_us, t.w_us, t.c_us, t.h_us, t.sync_us, t.wait_us, t.other_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TraceKind, start: f64, dur: f64) -> TraceEvent {
        TraceEvent { kind, name: kind.as_str(), start_us: start, dur_us: dur, ..Default::default() }
    }

    fn two_device_trace() -> Trace {
        let d0 = vec![
            span(TraceKind::Kernel, 0.0, 3.0),
            TraceEvent {
                bytes: 64,
                items: 8,
                h_us: 0.5,
                dur_us: 0.5,
                start_us: 3.0,
                peer: 1,
                ..span(TraceKind::Send, 3.0, 0.5)
            },
            span(TraceKind::Sync, 5.0, 1.0),
        ];
        let d1 = vec![
            TraceEvent { device: 1, ..span(TraceKind::CommKernel, 0.0, 2.0) },
            TraceEvent { device: 1, bytes: 64, items: 8, ..span(TraceKind::Recv, 4.0, 0.0) },
            TraceEvent {
                device: 1,
                start_us: 4.0,
                dur_us: 1.0,
                ..span(TraceKind::BarrierWait, 4.0, 1.0)
            },
            TraceEvent { device: 1, ..span(TraceKind::Sync, 5.0, 1.0) },
        ];
        Trace { per_device: vec![d0, d1] }
    }

    #[test]
    fn profile_folds_kinds_into_bsp_buckets() {
        let p = Profile::from_trace(&two_device_trace());
        assert_eq!(p.per_device.len(), 2);
        assert_eq!(p.per_device[0].w_us, 3.0);
        assert_eq!(p.per_device[0].h_us, 0.5);
        assert_eq!(p.per_device[0].sends, 1);
        assert_eq!(p.per_device[0].bytes_sent, 64);
        assert_eq!(p.per_device[1].c_us, 2.0);
        assert_eq!(p.per_device[1].bytes_recv, 64);
        assert_eq!(p.per_device[1].wait_us, 1.0);
        assert_eq!(p.total.sync_us, 2.0);
        assert_eq!(p.makespan_us, 6.0);
    }

    #[test]
    fn transfer_retry_rolls_back_the_failed_attempt() {
        let events = vec![
            TraceEvent { bytes: 100, items: 10, h_us: 1.0, ..span(TraceKind::Send, 0.0, 1.0) },
            TraceEvent { name: "transfer-retry", ..span(TraceKind::Retry, 1.0, 2.0) },
            TraceEvent { bytes: 100, items: 10, h_us: 1.0, ..span(TraceKind::Send, 3.0, 1.0) },
        ];
        let p = Profile::from_trace(&Trace { per_device: vec![events] });
        let r = &p.per_device[0];
        assert_eq!(r.sends, 2, "every attempt occupied the link");
        assert_eq!(r.h_us, 2.0, "H charges accrue per attempt");
        assert_eq!(r.messages, 1, "only one package delivered");
        assert_eq!(r.bytes_sent, 100);
        assert_eq!(r.vertices_sent, 10);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn spill_splits_occupancy_from_latency() {
        let events =
            vec![TraceEvent { bytes: 4096, h_us: 2.0, ..span(TraceKind::Spill, 0.0, 7.0) }];
        let p = Profile::from_trace(&Trace { per_device: vec![events] });
        assert_eq!(p.per_device[0].h_us, 2.0);
        assert_eq!(p.per_device[0].other_us, 5.0);
        assert_eq!(p.per_device[0].spilled_bytes, 4096);
    }

    #[test]
    fn per_superstep_rows_group_by_stamp() {
        let events = vec![
            TraceEvent { superstep: 0, ..span(TraceKind::Kernel, 0.0, 1.0) },
            TraceEvent { superstep: 2, ..span(TraceKind::Kernel, 5.0, 4.0) },
        ];
        let p = Profile::from_trace(&Trace { per_device: vec![events] });
        assert_eq!(p.n_supersteps(), 3, "rows are dense up to the max stamp");
        assert_eq!(p.per_superstep[0].w_us, 1.0);
        assert_eq!(p.per_superstep[1], BspRow::default());
        assert_eq!(p.per_superstep[2].w_us, 4.0);
    }

    #[test]
    fn exporters_are_well_formed() {
        let t = two_device_trace();
        let lines: Vec<Json> =
            t.to_jsonl().lines().map(|l| Json::parse(l).expect("one object per line")).collect();
        assert_eq!(lines.len(), t.n_events());
        assert_eq!(lines[1].get("kind"), Some(&"send".into()));
        assert_eq!(lines[1].get("peer"), Some(&1u64.into()));
        assert_eq!(lines[0].get("peer"), Some(&(-1i64).into()));
        let chrome = Json::parse(&t.to_chrome_json()).expect("one JSON document");
        let spans = chrome.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        assert_eq!(spans[0].get("args").and_then(|a| a.get("name")), Some(&"GPU 0".into()));
        let complete = spans.iter().filter(|s| s.get("ph") == Some(&"X".into())).count();
        assert_eq!(complete, t.n_events());
        let p = Profile::from_trace(&t);
        let j = Json::parse(&p.to_json()).expect("one JSON document");
        assert_eq!(j.get("makespan_us"), Some(&6u64.into()));
        assert_eq!(j.get("per_device").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert!(p.format_table().contains("makespan"));
    }

    #[test]
    fn lane_markers_fold_to_peak_occupancy() {
        let events = vec![
            TraceEvent { items: 3, bytes: 0b111, ..span(TraceKind::Lanes, 0.0, 0.0) },
            TraceEvent { superstep: 1, items: 7, bytes: 0x7f, ..span(TraceKind::Lanes, 1.0, 0.0) },
            TraceEvent { superstep: 2, items: 2, bytes: 0b11, ..span(TraceKind::Lanes, 2.0, 0.0) },
        ];
        let p = Profile::from_trace(&Trace { per_device: vec![events] });
        assert_eq!(p.per_device[0].lanes, 7, "device row keeps the peak");
        assert_eq!(p.total.lanes, 7, "totals take the max, not the sum");
        assert_eq!(p.per_superstep[1].lanes, 7);
        assert_eq!(p.per_superstep[2].lanes, 2, "per-superstep rows keep their own occupancy");
    }

    #[test]
    fn empty_trace_profiles_to_zero() {
        let p = Profile::from_trace(&Trace::default());
        assert_eq!(p.total, BspRow::default());
        assert_eq!(p.makespan_us, 0.0);
        assert_eq!(p.n_supersteps(), 0);
        assert!(p.check_wall(1.0).is_err(), "no stamps, no host-wall table");
    }

    #[test]
    fn wall_stamps_fold_by_layer_and_kernel_name() {
        let wall = |layer, dur_us| Some(WallSpan { layer, start_us: 0.0, dur_us });
        let events = vec![
            TraceEvent {
                items: 2_000,
                wall: wall(HostLayer::Kernel, 5.0),
                ..span(TraceKind::Kernel, 0.0, 1.0)
            },
            TraceEvent {
                name: "advance",
                items: 100,
                wall: wall(HostLayer::Kernel, 2.0),
                ..span(TraceKind::Kernel, 1.0, 1.0)
            },
            TraceEvent {
                wall: wall(HostLayer::Split, 1.0),
                ..span(TraceKind::CommKernel, 2.0, 1.0)
            },
            TraceEvent { wall: wall(HostLayer::Mailbox, 0.5), ..span(TraceKind::Send, 3.0, 1.0) },
            TraceEvent { wall: wall(HostLayer::Wait, 3.0), ..span(TraceKind::Sync, 4.0, 1.0) },
            TraceEvent {
                superstep: 1,
                wall: wall(HostLayer::Combine, 0.25),
                ..span(TraceKind::CommKernel, 5.0, 1.0)
            },
        ];
        let p = Profile::from_trace(&Trace { per_device: vec![events] });
        let want = WallRow {
            kernel_us: 7.0,
            split_us: 1.0,
            mailbox_us: 0.5,
            combine_us: 0.25,
            wait_us: 3.0,
        };
        assert_eq!(p.wall_per_device, [want]);
        assert_eq!(p.wall_per_superstep[1].combine_us, 0.25);
        assert_eq!(p.wall_per_superstep[0].total(), 11.5);
        let kernel = KernelWall { name: "kernel", wall_us: 5.0, items: 2_000 };
        let advance = KernelWall { name: "advance", wall_us: 2.0, items: 100 };
        assert_eq!(p.wall_by_kernel, [kernel, advance], "largest first");
        assert_eq!((kernel.ns_per_item(), advance.ns_per_item()), (2.5, 20.0));
        assert_eq!(KernelWall { items: 0, ..kernel }.ns_per_item(), 0.0);
        assert_eq!(p.check_wall(23.5), Ok(0.5));
        assert!(p.check_wall(10.0).is_err(), "columns past the enact wall");
        assert!(p.format_wall_table(23.5).contains(
            "kernel bodies by name: kernel 5.0 us 2000 items 2.50 ns/item, \
             advance 2.0 us 100 items 20.00 ns/item"
        ));
    }

    /// Hop labels from vertex 0 over a ring of 64 vertices each joined to its
    /// next eight, on two devices: a real superstep loop with kernels, sends,
    /// combines and rendezvous.
    fn enact_min_label(tracing: bool) -> (EnactReport, bool) {
        use crate::problem::testing::MinLabel;
        use crate::{EnactConfig, Runner};
        use mgpu_graph::{Coo, Csr, GraphBuilder};
        use mgpu_partition::{DistGraph, Duplication, RandomPartitioner};
        use vgpu::HardwareProfile;
        let edges = (0..64u32).flat_map(|v| (1..=8).map(move |d| (v, (v + d) % 64))).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(64, edges, None));
        let dist = DistGraph::partition(&g, &RandomPartitioner::default(), 2, Duplication::OneHop);
        let config = EnactConfig { tracing, kernel_threads: Some(1), ..EnactConfig::default() };
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, MinLabel, config).unwrap();
        let report = runner.enact(Some(0)).unwrap();
        assert!(report.totals.h_messages > 0 && report.iterations > 2, "a real exchange");
        let untouched = runner
            .system()
            .devices
            .iter()
            .all(|d| d.timeline.events().is_empty() && d.timeline.wall_now().is_none());
        (report, untouched)
    }

    #[test]
    fn a_traced_enact_reconciles_and_its_wall_columns_fit_the_enact_wall() {
        let (report, _) = enact_min_label(true);
        let profile = Profile::from_trace(report.trace.as_ref().expect("traced"));
        profile.reconcile(&report).expect("the wall stamps leave the reconcile as it was");
        for (dev, row) in profile.wall_per_device.iter().enumerate() {
            assert!(row.columns().iter().all(|&us| us >= 0.0), "device {dev}: {row:?}");
            assert!(row.kernel_us > 0.0 && row.split_us > 0.0, "device {dev}: {row:?}");
            assert!(row.total() <= report.wall_time_us, "device {dev}: {row:?}");
        }
        assert!(profile.check_wall(report.wall_time_us).is_ok());
        assert_eq!(profile.wall_by_kernel.first().map(|k| k.name), Some("advance"));
        // every rendezvous wait reaches the table through a sync span
        let syncs = report.trace.as_ref().unwrap().per_device.iter().flatten();
        assert!(syncs.filter(|e| e.kind == TraceKind::Sync).all(|e| e.wall.is_some()));
    }

    /// The kernel line names the owner of the kernel column: its walls add
    /// up to the column and its items to every item the trace's primitive
    /// kernels were charged, so each name's ns per item is its share.
    #[test]
    fn the_kernel_line_splits_the_kernel_column_and_the_charged_items() {
        let (report, _) = enact_min_label(true);
        let trace = report.trace.as_ref().expect("traced");
        let profile = Profile::from_trace(trace);
        let column: f64 = profile.wall_per_device.iter().map(|r| r.kernel_us).sum();
        let walls: f64 = profile.wall_by_kernel.iter().map(|k| k.wall_us).sum();
        assert!(column > 0.0);
        assert!((walls - column).abs() <= 1e-9 * column, "{walls} us by name, {column} us column");
        let kernels = trace.per_device.iter().flatten().filter(|e| e.kind == TraceKind::Kernel);
        let items: u64 = kernels.map(|e| e.items).sum();
        assert_eq!(profile.wall_by_kernel.iter().map(|k| k.items).sum::<u64>(), items);
        assert!(profile.wall_by_kernel.iter().any(|k| k.name == "advance" && k.items > 0));
        let mut names: Vec<_> = profile.wall_by_kernel.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), profile.wall_by_kernel.len(), "one entry per name");
    }

    #[test]
    fn same_simulation_and_the_golden_trace_ignore_wall_stamps() {
        let (a, _) = enact_min_label(true);
        let mut b = a.clone();
        for e in b.trace.as_mut().unwrap().per_device.iter_mut().flatten() {
            if let Some(w) = &mut e.wall {
                w.dur_us += 1e3;
            }
        }
        assert!(a.same_simulation(&b));
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_ne!(ta, tb, "the stamps differ");
        assert_eq!(ta.to_jsonl(), tb.to_jsonl());
        assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
        Profile::from_trace(tb).reconcile(&b).expect("stamps are not reconciled");
        let (untraced, _) = enact_min_label(false);
        assert!(a.same_simulation(&untraced), "stamping never touches the simulation");
    }

    #[test]
    fn reconcile_always_checks_the_makespan() {
        let (report, _) = enact_min_label(true);
        let profile = Profile::from_trace(report.trace.as_ref().unwrap());
        profile.reconcile(&report).expect("the report as enacted reconciles");

        let off = f64::from_bits(report.sim_time_us.to_bits() + 1);
        let off_by_one_ulp = EnactReport { sim_time_us: off, ..report.clone() };
        let err = profile.reconcile(&off_by_one_ulp).unwrap_err();
        assert!(err.starts_with("makespan:"), "{err}");

        // Without its sync spans (and the counters they reconcile against)
        // the trace agrees with the report on every bucket and tally, but it
        // cannot reconstruct the makespan: that is a failure, not a skip.
        let mut no_syncs = report.clone();
        for events in &mut no_syncs.trace.as_mut().unwrap().per_device {
            events.retain(|e| e.kind != TraceKind::Sync);
        }
        for c in no_syncs.per_device.iter_mut().chain([&mut no_syncs.totals]) {
            c.sync_time_us = 0.0;
            c.supersteps = 0;
        }
        let stripped = Profile::from_trace(no_syncs.trace.as_ref().unwrap());
        assert_eq!(stripped.total.syncs, 0);
        let err = stripped.reconcile(&no_syncs).unwrap_err();
        assert!(err.starts_with("makespan:"), "{err}");
    }

    #[test]
    fn an_untraced_enact_records_no_trace_and_reads_no_wall() {
        let (report, untouched) = enact_min_label(false);
        assert!(report.trace.is_none());
        assert!(untouched, "no device timeline recorded a span or started a wall epoch");
    }
}
