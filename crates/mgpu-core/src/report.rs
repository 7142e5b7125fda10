//! Traversal reports: the measurements every experiment consumes.

use vgpu::{BspCounters, HostSyncStats, MemoryPool};

use crate::governor::GovernorLog;
use crate::json::Json;
use crate::resilience::RecoveryLog;

/// Aggregated per-superstep statistics (summed over devices) — the frontier
/// evolution that drives direction switching and communication volume.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SuperstepTrace {
    /// Input frontier vertices consumed this superstep.
    pub input: u64,
    /// Output frontier vertices produced by the primitive iterations.
    pub output: u64,
    /// Vertices pushed to peers.
    pub sent: u64,
    /// Vertices accepted by combiners into the next input frontier.
    pub combined: u64,
    /// Vertices dropped by monotone send suppression before packaging.
    pub suppressed: u64,
}

/// Wire accounting, summed over devices: what the suppression cache, the
/// encodings, and the butterfly collective did during the enact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommReduction {
    /// Vertices dropped before packaging because their key could not
    /// improve any receiver (monotone suppression).
    pub suppressed_vertices: u64,
    /// Wire bytes those vertices would have cost under list accounting.
    pub suppressed_bytes: u64,
    /// Packages that went out list-encoded.
    pub enc_list: u64,
    /// Packages that went out bitmap-encoded.
    pub enc_bitmap: u64,
    /// Packages that went out delta-varint-encoded.
    pub enc_delta: u64,
    /// Butterfly collective stages executed (summed over devices and
    /// supersteps; zero under the direct topology).
    pub collective_stages: u64,
}

impl CommReduction {
    /// Fold another device's accounting into this one.
    pub fn merge(&mut self, other: &CommReduction) {
        self.suppressed_vertices += other.suppressed_vertices;
        self.suppressed_bytes += other.suppressed_bytes;
        self.enc_list += other.enc_list;
        self.enc_bitmap += other.enc_bitmap;
        self.enc_delta += other.enc_delta;
        self.collective_stages += other.collective_stages;
    }

    /// Count one package into the encoding histogram.
    pub fn count_package(&mut self, enc: crate::comm::PackageEncoding) {
        match enc {
            crate::comm::PackageEncoding::List => self.enc_list += 1,
            crate::comm::PackageEncoding::Bitmap => self.enc_bitmap += 1,
            crate::comm::PackageEncoding::DeltaVarint => self.enc_delta += 1,
        }
    }
}

/// Per-device memory accounting snapshot taken when an enact finishes —
/// the numbers the CLI summary prints per GPU and the capacity-sweep tests
/// assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceMemStats {
    /// High-water mark of live bytes on the device pool.
    pub peak: u64,
    /// Live bytes at snapshot time.
    pub live: u64,
    /// Reallocation events on the pool (cumulative since system creation).
    pub reallocs: u64,
    /// Bytes copied by those reallocations.
    pub realloc_copied: u64,
}

impl DeviceMemStats {
    /// Snapshot a device pool.
    pub fn of(pool: &MemoryPool) -> Self {
        DeviceMemStats {
            peak: pool.peak(),
            live: pool.live(),
            reallocs: pool.reallocs(),
            realloc_copied: pool.realloc_copied(),
        }
    }
}

/// What the device threads' rendezvous waits cost on the host wall clock,
/// per device — says whether a slow run was sleeping at the barrier or
/// working. Wall-only, like `wall_time_us`: never part of the simulation.
/// Empty only for the baselines, which run without a `SyncPoint`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostSync {
    /// One entry per device id.
    pub per_device: Vec<HostSyncStats>,
}

impl HostSync {
    /// The sum over devices.
    pub fn total(&self) -> HostSyncStats {
        let mut t = HostSyncStats::default();
        for d in &self.per_device {
            t += *d;
        }
        t
    }

    /// Fold a subsequent enact's waits into this one, device by device.
    pub fn absorb(&mut self, other: &HostSync) {
        if self.per_device.len() < other.per_device.len() {
            self.per_device.resize(other.per_device.len(), HostSyncStats::default());
        }
        for (mine, theirs) in self.per_device.iter_mut().zip(&other.per_device) {
            *mine += *theirs;
        }
    }
}

/// The outcome of one enacted traversal.
#[derive(Debug, Clone)]
pub struct EnactReport {
    /// Primitive name.
    pub primitive: &'static str,
    /// Number of devices used.
    pub n_devices: usize,
    /// BSP supersteps executed (S).
    pub iterations: usize,
    /// Simulated makespan in microseconds (the number every figure reports,
    /// produced by the calibrated cost model).
    pub sim_time_us: f64,
    /// Host wall-clock of the enact call in microseconds (real execution on
    /// CPU threads; useful for sanity checks, not for paper comparisons).
    pub wall_time_us: f64,
    /// Host wall time the device threads spent waiting at rendezvous.
    /// Excluded from [`Self::same_simulation`], as `wall_time_us` is.
    pub host_sync: HostSync,
    /// Aggregated BSP counters over all devices.
    pub totals: BspCounters,
    /// Per-device counters.
    pub per_device: Vec<BspCounters>,
    /// Peak device-memory footprint over devices, in bytes.
    pub peak_memory_per_device: u64,
    /// Sum of peak memory over devices, in bytes.
    pub total_peak_memory: u64,
    /// Total reallocation events across device pools since system creation
    /// (the expensive event just-enough allocation works to keep rare,
    /// §VI-B; cumulative across enacts on the same runner).
    pub pool_reallocs: u64,
    /// Per-device memory accounting snapshots (peak/live/reallocs), indexed
    /// by device id.
    pub mem_per_device: Vec<DeviceMemStats>,
    /// Per-superstep frontier statistics, summed over devices.
    pub history: Vec<SuperstepTrace>,
    /// Recovery events (retries, checkpoints, failovers) — all zero/empty
    /// for a fault-free run under the default policy.
    pub recovery: RecoveryLog,
    /// Itemized memory-pressure governor decisions (admission downgrades,
    /// chunked passes, spills, reclaim retries) — quiet when the governor
    /// never had to act.
    pub governor: GovernorLog,
    /// Wire-volume reduction accounting (suppression, encoding histogram,
    /// collective stages), summed over devices.
    pub comm: CommReduction,
    /// The structured event trace of the run, present when
    /// `EnactConfig::tracing` was on (see [`crate::trace`]). Deliberately
    /// excluded from [`Self::same_simulation`]: the trace *describes* the
    /// simulation, it is not part of it — a traced and an untraced run of
    /// the same workload must compare equal.
    pub trace: Option<crate::trace::Trace>,
}

impl EnactReport {
    /// Traversed-edges-per-second metric in GTEPS, given the number of edges
    /// the traversal is credited with (the paper credits DOBFS with the full
    /// |E| of the traversed component even though edge skipping visits far
    /// fewer — that convention is what makes 900-GTEPS DOBFS numbers
    /// possible, §VII-B).
    pub fn gteps(&self, credited_edges: usize) -> f64 {
        if self.sim_time_us <= 0.0 {
            return 0.0;
        }
        credited_edges as f64 / self.sim_time_us / 1e3
    }

    /// Simulated milliseconds (the unit of Tables IV and V).
    pub fn sim_ms(&self) -> f64 {
        self.sim_time_us / 1e3
    }

    /// Speedup of this run over a baseline run (baseline_time / this_time).
    pub fn speedup_over(&self, baseline: &EnactReport) -> f64 {
        baseline.sim_time_us / self.sim_time_us
    }

    /// Fold a subsequent enact on the same runner into this report — the
    /// aggregate a repeated single-source campaign pays, which is what the
    /// batched multi-source engine is priced against. Supersteps, simulated
    /// time, and traffic accumulate; memory high-water marks and cumulative
    /// pool counters take the max (the pool persists across enacts, so its
    /// numbers are already cumulative, not per-enact). The aggregate carries
    /// no trace: each enact's trace reconciles with its own report only.
    pub fn absorb(&mut self, other: &EnactReport) {
        self.trace = None;
        self.iterations += other.iterations;
        self.sim_time_us += other.sim_time_us;
        self.wall_time_us += other.wall_time_us;
        self.host_sync.absorb(&other.host_sync);
        // BspCounters::merge takes the max of supersteps (its callers merge
        // concurrent devices); sequential enacts add theirs end to end.
        let steps = self.totals.supersteps + other.totals.supersteps;
        self.totals.merge(&other.totals);
        self.totals.supersteps = steps;
        for (mine, theirs) in self.per_device.iter_mut().zip(&other.per_device) {
            let s = mine.supersteps + theirs.supersteps;
            mine.merge(theirs);
            mine.supersteps = s;
        }
        self.peak_memory_per_device = self.peak_memory_per_device.max(other.peak_memory_per_device);
        self.total_peak_memory = self.total_peak_memory.max(other.total_peak_memory);
        self.pool_reallocs = self.pool_reallocs.max(other.pool_reallocs);
        for (mine, theirs) in self.mem_per_device.iter_mut().zip(&other.mem_per_device) {
            mine.peak = mine.peak.max(theirs.peak);
            mine.live = theirs.live;
            mine.reallocs = mine.reallocs.max(theirs.reallocs);
            mine.realloc_copied = mine.realloc_copied.max(theirs.realloc_copied);
        }
        self.history.extend(other.history.iter().copied());
        self.recovery.absorb(&other.recovery);
        self.governor.absorb(&other.governor);
        self.comm.merge(&other.comm);
    }

    /// Bit-identical *simulation* equality: everything except host
    /// wall-clock, with simulated times compared by bit pattern. Two runs of
    /// the same workload under the same fault plan and policy must satisfy
    /// this regardless of `kernel_threads` or thread scheduling — the
    /// determinism contract the resilience tests assert.
    pub fn same_simulation(&self, other: &EnactReport) -> bool {
        self.primitive == other.primitive
            && self.n_devices == other.n_devices
            && self.iterations == other.iterations
            && self.sim_time_us.to_bits() == other.sim_time_us.to_bits()
            && self.totals == other.totals
            && self.per_device == other.per_device
            && self.peak_memory_per_device == other.peak_memory_per_device
            && self.total_peak_memory == other.total_peak_memory
            && self.pool_reallocs == other.pool_reallocs
            && self.mem_per_device == other.mem_per_device
            && self.history == other.history
            && self.recovery == other.recovery
            && self.governor == other.governor
            && self.comm == other.comm
    }

    /// Serialize the report as a JSON object (flat, self-describing) for
    /// external plotting/analysis pipelines.
    pub fn to_json(&self) -> String {
        let c = &self.totals;
        let (rec, gov, comm) = (&self.recovery, &self.governor, &self.comm);
        let sync = self.host_sync.total();
        Json::obj([
            ("primitive", self.primitive.into()),
            ("n_devices", self.n_devices.into()),
            ("iterations", self.iterations.into()),
            ("sim_time_us", self.sim_time_us.into()),
            ("wall_time_us", self.wall_time_us.into()),
            ("w_items", c.w_items.into()),
            ("c_items", c.c_items.into()),
            ("h_vertices", c.h_vertices.into()),
            ("h_bytes_sent", c.h_bytes_sent.into()),
            ("h_bytes_recv", c.h_bytes_recv.into()),
            ("h_messages", c.h_messages.into()),
            ("kernel_launches", c.kernel_launches.into()),
            ("w_time_us", c.w_time_us.into()),
            ("c_time_us", c.c_time_us.into()),
            ("h_time_us", c.h_time_us.into()),
            ("sync_time_us", c.sync_time_us.into()),
            ("peak_memory_per_device", self.peak_memory_per_device.into()),
            ("total_peak_memory", self.total_peak_memory.into()),
            ("pool_reallocs", self.pool_reallocs.into()),
            ("kernel_retries", rec.kernel_retries.into()),
            ("transfer_retries", rec.transfer_retries.into()),
            ("faults_injected", rec.faults_injected.into()),
            ("checkpoints_taken", rec.checkpoints_taken.into()),
            ("stragglers_detected", rec.stragglers_detected.into()),
            ("butterfly_fallbacks", rec.butterfly_fallbacks.into()),
            ("failovers", rec.failovers.into()),
            ("lost_devices", rec.lost_devices.len().into()),
            ("lost_time_us", rec.lost_time_us.into()),
            ("downgrades", gov.downgrades.len().into()),
            ("chunked_advances", gov.chunked_advances.into()),
            ("chunk_passes", gov.chunk_passes.into()),
            ("spill_events", gov.spill_events.into()),
            ("spilled_bytes", gov.spilled_bytes.into()),
            ("reclaim_retries", gov.reclaim_retries.into()),
            ("suppressed_vertices", comm.suppressed_vertices.into()),
            ("suppressed_bytes", comm.suppressed_bytes.into()),
            ("enc_list", comm.enc_list.into()),
            ("enc_bitmap", comm.enc_bitmap.into()),
            ("enc_delta", comm.enc_delta.into()),
            ("collective_stages", comm.collective_stages.into()),
            (
                "host_sync",
                Json::obj([
                    ("rendezvous", sync.rendezvous.into()),
                    ("parked", sync.parked.into()),
                    ("wait_wall_ns", sync.wait_wall_ns.into()),
                    (
                        "wait_wall_ns_per_device",
                        Json::arr(self.host_sync.per_device.iter().map(|d| d.wait_wall_ns)),
                    ),
                ]),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(us: f64) -> EnactReport {
        EnactReport {
            primitive: "test",
            n_devices: 1,
            iterations: 3,
            sim_time_us: us,
            wall_time_us: 1.0,
            host_sync: HostSync::default(),
            totals: BspCounters::default(),
            per_device: vec![],
            peak_memory_per_device: 0,
            total_peak_memory: 0,
            pool_reallocs: 0,
            mem_per_device: Vec::new(),
            history: Vec::new(),
            recovery: RecoveryLog::default(),
            governor: GovernorLog::default(),
            comm: CommReduction::default(),
            trace: None,
        }
    }

    #[test]
    fn gteps_is_edges_over_time() {
        let r = report(1000.0); // 1 ms
        assert!((r.gteps(2_000_000) - 2.0).abs() < 1e-9, "2M edges / 1 ms = 2 GTEPS");
    }

    #[test]
    fn speedup_is_ratio() {
        let fast = report(500.0);
        let slow = report(2000.0);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_gives_zero_gteps() {
        assert_eq!(report(0.0).gteps(100), 0.0);
    }

    #[test]
    fn absorb_accumulates_sequential_enacts() {
        let mut a = report(100.0);
        a.totals.supersteps = 3;
        a.totals.h_vertices = 10;
        a.peak_memory_per_device = 50;
        let mut b = report(50.0);
        b.totals.supersteps = 2;
        b.totals.h_vertices = 4;
        b.peak_memory_per_device = 80;
        a.trace = Some(crate::trace::Trace::default());
        a.absorb(&b);
        assert_eq!(a.iterations, 6);
        assert_eq!(a.totals.supersteps, 5, "sequential supersteps add, not max");
        assert_eq!(a.totals.h_vertices, 14);
        assert!((a.sim_time_us - 150.0).abs() < 1e-12);
        assert_eq!(a.peak_memory_per_device, 80, "peaks take the max");
        assert!(a.trace.is_none(), "the first enact's trace does not describe the aggregate");
    }

    #[test]
    fn host_sync_is_wall_only_and_absorbs_per_device() {
        let waits = |ns| HostSync {
            per_device: vec![
                HostSyncStats { rendezvous: 4, parked: 1, wait_wall_ns: ns },
                HostSyncStats { rendezvous: 4, parked: 0, wait_wall_ns: 2 * ns },
            ],
        };
        let mut a = report(100.0);
        let mut b = report(100.0);
        b.host_sync = waits(500);
        assert!(a.same_simulation(&b), "host waits are not part of the simulation");
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(
            a.host_sync,
            HostSync {
                per_device: waits(1000)
                    .per_device
                    .iter()
                    .map(|d| HostSyncStats { rendezvous: 8, parked: 2 * d.parked, ..*d })
                    .collect()
            }
        );
        assert_eq!(
            a.host_sync.total(),
            HostSyncStats { rendezvous: 16, parked: 2, wait_wall_ns: 3000 }
        );
        let j = a.to_json();
        assert!(j.contains("\"host_sync\":{\"rendezvous\":16,\"parked\":2,\"wait_wall_ns\":3000,"));
        assert!(j.ends_with("\"wait_wall_ns_per_device\":[1000,2000]}}"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = Json::parse(&report(123.5).to_json()).expect("the report is one JSON document");
        assert_eq!(j.get("primitive"), Some(&"test".into()));
        assert_eq!(j.get("sim_time_us"), Some(&123.5.into()));
        assert_eq!(j.get("iterations"), Some(&3u64.into()));
        for counter in [
            "downgrades",
            "butterfly_fallbacks",
            "spilled_bytes",
            "suppressed_vertices",
            "enc_delta",
            "collective_stages",
        ] {
            assert_eq!(j.get(counter), Some(&0u64.into()), "{counter}");
        }
        let Json::Obj(fields) = &j else { panic!("the report is an object") };
        assert_eq!(fields.len(), 41, "40 flat fields + host_sync");
        assert_eq!(fields[40].0, "host_sync");
    }
}
