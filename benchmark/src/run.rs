//! One run of one workload: set-up, warm-up, passes, verification, and the
//! metrics of the requested kind.
//!
//! Load model: closed loop, one client thread, one query (or one service
//! batch) in flight. An op is one pass over the workload's query list.
//! `--trace 0` times passes with all tracing off and yields the end-to-end
//! metrics; `--trace 1` records bench-side spans, alternates untraced and
//! device-traced passes, runs the layer probes and yields the per-layer
//! metrics. Traced passes never feed an end-to-end metric.

use std::time::{Duration, Instant};

use crate::api::{self, EnactStats, Prim, ProbeInput, ProbeRates};
use crate::metrics;
use crate::span::{self, At, Recorder, Span, PROBE, SETUP};
use crate::stats::{median, summarize, Summary};
use crate::verify::{Key, Oracle};
use crate::workloads::{IngestCounts, PassOut, Prepared, ServiceSummary, Workload};

/// Set-up is repeated at least this many times per end-to-end run, and up
/// to `SETUP_MAX_REPS` times while it has taken under `SETUP_FILL_S` in all,
/// and the median reported: one slow allocation does not decide `setup_s`.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_FILL_S: f64 = 1.0;
/// Fewest timed passes (or untraced/traced pass pairs) per run, whatever
/// `--seconds` says.
pub const MIN_PASSES: usize = 8;
const MIN_PAIRS: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shift-10 inputs: the unit-test scale.
    pub smoke: bool,
    pub min_passes: usize,
    /// Where the Chrome trace of a traced run is written (`None`: nowhere).
    pub out_dir: Option<std::path::PathBuf>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// False when a simulated quantity differed between two passes of the
    /// same run: the simulation must repeat exactly.
    pub deterministic: bool,
    /// `(name, value, unit)` for every metric of the requested kind.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.deterministic
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1)
    }
}

/// What is kept of a pass once its answers have been verified.
struct PassRecord {
    id: i32,
    traced: bool,
    wall_s: f64,
    /// RSS high-water mark while the pass ran (see `rss_peak_mb`).
    rss_mb: f64,
    total: EnactStats,
    by_prim: [EnactStats; Prim::ALL.len()],
    /// `wire_rmat`: the default and the reduced half.
    by_half: [EnactStats; 2],
    service: Option<ServiceSummary>,
    counts: IngestCounts,
    /// Single-thread reference wall for the pass's answers, per primitive.
    ref_wall_by_prim: [f64; Prim::ALL.len()],
    attempted: u64,
    failed: u64,
}

/// Run one pass at position `id`, stop the clock, then verify every answer
/// against the oracle (outside the timed part).
fn measured_pass(
    w: Workload,
    prep: &Prepared,
    traced: bool,
    id: i32,
    rec: &Recorder,
    oracle: &mut Oracle,
) -> PassRecord {
    reset_rss_peak();
    let t0 = Instant::now();
    let out: PassOut = rec
        .span("pass", "", At::pass(id), |span| w.pass(prep, traced, rec, At::pass(id).under(span)));
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_mb = rss_peak_mb();
    let mut record = verify_pass(w, prep, &out, id, rec, oracle);
    (record.traced, record.wall_s, record.rss_mb) = (traced, wall_s, rss_mb);
    record
}

/// Check every answer of a finished pass against the oracle and sum its
/// reports. An `Err` and a wrong word both count as a failed query.
fn verify_pass(
    w: Workload,
    prep: &Prepared,
    out: &PassOut,
    id: i32,
    rec: &Recorder,
    oracle: &mut Oracle,
) -> PassRecord {
    let res =
        out.built.as_ref().or(prep.resident.as_ref()).expect("a pass runs on a resident graph");
    let lanes = api::spread_sources(res.graph.n_vertices());
    let mut r = PassRecord {
        id,
        traced: false,
        wall_s: 0.0,
        rss_mb: 0.0,
        total: EnactStats::default(),
        by_prim: Default::default(),
        by_half: Default::default(),
        service: out.service,
        counts: IngestCounts::of(res),
        ref_wall_by_prim: Default::default(),
        attempted: 0,
        failed: 0,
    };
    let at = At::pass(id);
    for (i, (q, result)) in out.queries.iter().enumerate() {
        r.attempted += 1;
        let key: Key = q.key();
        let ok = match result {
            Ok((stats, answer)) => {
                r.total.absorb(stats);
                r.by_prim[q.prim as usize].absorb(stats);
                r.by_half[usize::from(q.reduced)].absorb(stats);
                oracle.check(&res.graph, key, &lanes, answer, rec, at.query(i as u32))
            }
            Err(why) => {
                eprintln!("{}: query {i} ({}) failed: {why}", w.name(), q.prim.name());
                false
            }
        };
        if !ok {
            r.failed += 1;
        }
        r.ref_wall_by_prim[q.prim as usize] += oracle.ref_wall_us(key).unwrap_or(0.0);
    }
    r
}

/// Simulated quantities must be identical on every pass of a run, traced or
/// not; only the trace fold itself (present on traced passes) may differ.
fn same_simulation(a: &PassRecord, b: &PassRecord) -> bool {
    let strip = |s: &EnactStats| EnactStats { trace: Default::default(), ..*s };
    strip(&a.total) == strip(&b.total) && a.counts == b.counts
}

/// Failures and determinism over the passes of a run; starts from the
/// warm-up pass, which every later pass must repeat.
struct Tally<'a> {
    warm: &'a PassRecord,
    attempted: u64,
    failed: u64,
    deterministic: bool,
}

impl<'a> Tally<'a> {
    fn new(warm: &'a PassRecord) -> Self {
        Tally { warm, attempted: warm.attempted, failed: warm.failed, deterministic: true }
    }

    fn add(&mut self, p: &PassRecord) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.deterministic &= same_simulation(self.warm, p);
    }

    fn finish(
        self,
        metrics: Vec<(String, f64, &'static str)>,
        mut notes: Vec<String>,
    ) -> RunResult {
        if !self.deterministic {
            notes.insert(
                0,
                "NOT DETERMINISTIC: simulated quantities differed between passes".into(),
            );
        }
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            deterministic: self.deterministic,
            metrics,
            notes,
        }
    }
}

/// Pair every listed metric with its measured value, in list order.
fn listed(
    defs: Vec<metrics::MetricDef>,
    values: &[(String, f64)],
) -> Vec<(String, f64, &'static str)> {
    defs.into_iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .expect("every listed metric is measured")
                .1;
            (m.name, v, m.unit)
        })
        .collect()
}

/// Restart the kernel's RSS high-water mark from the current RSS, so the
/// next `rss_peak_mb` reads the peak of one pass, not of the process so far.
/// Where the kernel refuses, the mark simply keeps covering the process.
fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM`: the resident-set high-water mark since the last reset, in MB
/// (10^6 bytes).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn describe(label: &str, unit: &str, s: Summary) -> String {
    format!(
        "{label}: median {:.6} {unit}  q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    )
}

pub fn run(args: &RunArgs) -> RunResult {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let rec = Recorder::new(false);
    let mut notes = Vec::new();

    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut prep = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_FILL_S)
    {
        drop(prep.take()); // one resident graph at a time, as in a real set-up
        let t0 = Instant::now();
        prep = Some(w.setup(args.seed, args.smoke, &rec));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prep = prep.expect("set-up ran at least SETUP_REPS times");

    let mut oracle = Oracle::default();
    let warm = measured_pass(w, &prep, false, 0, &rec, &mut oracle);
    let mut tally = Tally::new(&warm);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    while walls.len() < args.min_passes || Instant::now() < deadline {
        let p = measured_pass(w, &prep, false, walls.len() as i32 + 1, &rec, &mut oracle);
        walls.push(p.wall_s);
        rss.push(p.rss_mb);
        tally.add(&p);
    }

    notes.push(format!("graph fingerprint {:016x}", warm.counts.fingerprint));
    notes.push(describe("setup_s", "s", summarize(&setup_s)));
    notes.push(describe("pass_wall_s", "s", summarize(&walls)));
    notes.push(format!(
        "pass walls (s): {}",
        walls.iter().map(|w| format!("{w:.4}")).collect::<Vec<_>>().join(" ")
    ));
    notes.push(describe("RSS high-water mark per pass", "MB", summarize(&rss)));
    notes.push(format!(
        "no tail percentile is reported or gated: {} passes is fewer than the samples a tail needs",
        walls.len()
    ));
    let values = [
        ("setup_s".to_string(), median(&setup_s)),
        ("pass_wall_s".into(), median(&walls)),
        ("sim_ms".into(), warm.total.sim_us / 1e3),
        ("wire_bytes".into(), warm.total.wire_bytes as f64),
        ("sim_peak_mem_mb".into(), warm.total.peak_mem_per_device as f64 / 1e6),
        // The lowest per-pass mark, not the median or the process-wide one:
        // later passes add whatever freed memory the allocator's arenas
        // happen to keep, which with two service workers varies by +-25 %
        // from run to run; the lowest pass is what the work itself needs.
        ("host_peak_rss_mb".into(), summarize(&rss).min),
    ];
    tally.finish(listed(metrics::end_to_end(), &values), notes)
}

/// Median over `passes` of the summed duration of the spans `pick` selects
/// in each pass, in microseconds; when no pass has such a span, the sum over
/// the set-up spans instead (where the warm workloads do their ingest).
fn span_wall_us(spans: &[Span], passes: &[i32], pick: impl Fn(&Span) -> bool) -> f64 {
    // folded from +0.0: an empty `sum()` is -0.0, which would print as "-0"
    let sum_in = |pass: i32| {
        spans.iter().filter(|s| s.pass == pass && pick(s)).fold(0.0, |a, s| a + s.dur_us())
    };
    let per_pass: Vec<f64> = passes.iter().map(|&p| sum_in(p)).collect();
    if per_pass.iter().any(|&x| x > 0.0) {
        median(&per_pass)
    } else {
        sum_in(SETUP)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The input of the advance that discovers the widest level of a BFS from
/// `src`: the level before it, cut to the vertices part 0 owns.
fn probe_input(res: &api::Resident, src: u32) -> ProbeInput {
    let depth = api::ref_bfs(&res.graph, src);
    let mut width = std::collections::BTreeMap::<u32, usize>::new();
    for &d in depth.iter().filter(|&&d| d != u32::MAX) {
        *width.entry(d).or_default() += 1;
    }
    let widest =
        width.iter().max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d))).map_or(0, |(&d, _)| d);
    let level = widest.saturating_sub(1);
    let frontier = (0..depth.len() as u32)
        .filter(|&v| depth[v as usize] == level && res.dist.owner(v) == 0)
        .collect();
    ProbeInput { frontier, depth, level }
}

/// The layer probes' results.
struct Probes {
    rates: ProbeRates,
    barrier_rtt_us: f64,
    kernel_launch_ns: f64,
}

/// Time shipped public functions directly, on inputs cut from the
/// workload's own graph.
fn run_probes(w: Workload, prep: &Prepared, smoke: bool, rec: &Recorder) -> Probes {
    let built;
    let res = match prep.resident.as_ref() {
        Some(res) => res,
        None => {
            // ingest_soc drops its graph after every pass; ingest once more
            let out = w.pass(prep, false, &Recorder::new(false), At::pass(PROBE));
            built = out.built.expect("ingest_soc builds in the pass");
            &built
        }
    };
    rec.span("probes", "", At::pass(PROBE), |_| {
        let src = if w == Workload::SuperstepsRoad {
            (res.graph.n_vertices() / 4) as u32 // no hub on a lattice
        } else {
            res.graph.hubs(1)[0]
        };
        let (reps, rounds) = if smoke { (3, 200) } else { (15, 5_000) };
        Probes {
            rates: api::probe_operators(res, &probe_input(res, src), reps),
            barrier_rtt_us: api::probe_barrier_rtt_us(prep.spec.devices, rounds),
            kernel_launch_ns: api::probe_kernel_launch_ns(rounds * 20),
        }
    })
}

fn run_traced(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let rec = Recorder::new(true);
    let mut notes = Vec::new();

    let prep = rec.span("setup", "", At::pass(SETUP), |_| w.setup(args.seed, args.smoke, &rec));
    let mut oracle = Oracle::default();
    let warm = measured_pass(w, &prep, false, 0, &rec, &mut oracle);
    let mut tally = Tally::new(&warm);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_pairs = MIN_PAIRS.min(args.min_passes);
    let mut passes: Vec<PassRecord> = Vec::new();
    while passes.len() < 2 * min_pairs || Instant::now() < deadline {
        let traced = passes.len() % 2 == 1;
        let p = measured_pass(w, &prep, traced, passes.len() as i32 + 1, &rec, &mut oracle);
        tally.add(&p);
        passes.push(p);
    }
    let probes = run_probes(w, &prep, args.smoke, &rec);

    let spans = rec.spans();
    let walls = |traced: bool| -> Vec<f64> {
        passes.iter().filter(|p| p.traced == traced).map(|p| p.wall_s).collect()
    };
    let untraced_ids: Vec<i32> = passes.iter().filter(|p| !p.traced).map(|p| p.id).collect();
    notes.push(format!("graph fingerprint {:016x}", warm.counts.fingerprint));
    notes.push(describe("untraced pass wall", "s", summarize(&walls(false))));
    notes.push(describe("traced pass wall", "s", summarize(&walls(true))));
    notes.extend(self_time_table(&spans, &untraced_ids));

    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("{}.trace.json", w.name()));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, span::to_chrome_json(&spans)))
        {
            Ok(()) => {
                notes.push(format!("chrome trace: {} ({} spans)", path.display(), spans.len()))
            }
            Err(e) => notes.push(format!("chrome trace not written to {}: {e}", path.display())),
        }
    }

    let values = layer_values(w, &prep, &warm, &passes, &spans, &probes);
    tally.finish(listed(metrics::per_layer(), &values), notes)
}

/// The per-layer metrics of a traced run. Walls are medians per pass of the
/// bench-side spans over the untraced passes; simulated quantities are those
/// of the warm-up pass, which every later pass was checked to repeat.
fn layer_values(
    w: Workload,
    prep: &Prepared,
    warm: &PassRecord,
    passes: &[PassRecord],
    spans: &[Span],
    probes: &Probes,
) -> Vec<(String, f64)> {
    let ids = |traced: bool| -> Vec<i32> {
        passes.iter().filter(|p| p.traced == traced).map(|p| p.id).collect()
    };
    let (untraced_ids, traced_ids) = (ids(false), ids(true));
    let wall = |traced: bool| {
        median(&passes.iter().filter(|p| p.traced == traced).map(|p| p.wall_s).collect::<Vec<_>>())
    };
    let named = |name: &'static str| span_wall_us(spans, &untraced_ids, |s| s.name == name);
    let tagged = |name: &'static str, tag: &'static str| {
        span_wall_us(spans, &untraced_ids, |s| s.name == name && s.tag == tag)
    };
    let folds: Vec<_> = passes.iter().filter(|p| p.traced).map(|p| p.total.trace).collect();
    let fold = folds.last().copied().unwrap_or_default();
    let (sim, counts, rates) = (&warm.total, warm.counts, &probes.rates);
    let build_wall_us = named("GraphBuilder::undirected");
    let enact_wall_us = named("enact");
    let service = warm.service.unwrap_or_default();
    let service_run_us = named("Service::run");

    let mut values: Vec<(String, f64)> = vec![
        ("gen.wall_s".into(), (named("generate") + named("add_weights")) / 1e6),
        ("gen.edges".into(), prep.gen_edges as f64),
        ("graph.build_wall_s".into(), build_wall_us / 1e6),
        ("graph.build_medges_per_s".into(), ratio(prep.gen_edges as f64, build_wall_us)),
        ("graph.edges".into(), counts.graph_edges as f64),
        ("graph.csr_bytes".into(), counts.csr_bytes as f64),
        ("partition.assign_wall_s".into(), named("Partitioner::assign") / 1e6),
        ("partition.build_wall_s".into(), named("DistGraph::build") / 1e6),
        ("partition.csc_wall_s".into(), named("build_cscs") / 1e6),
        ("partition.border_vertices".into(), counts.border_vertices as f64),
        ("partition.topology_bytes_max".into(), counts.topology_bytes_max as f64),
        ("enactor.bind_wall_ms".into(), named("Runner::new") / 1e3),
        ("enactor.enact_wall_ms".into(), enact_wall_us / 1e3),
        ("enactor.harvest_wall_ms".into(), named("harvest") / 1e3),
        ("enactor.supersteps".into(), sim.supersteps as f64),
        ("enactor.wall_us_per_superstep".into(), ratio(enact_wall_us, sim.supersteps as f64)),
        ("enactor.kernel_launches".into(), sim.kernel_launches as f64),
        // credited |E| per enact over the summed enact wall (edges/us = MTEPS)
        (
            "enactor.host_mteps".into(),
            ratio((sim.enacts * counts.graph_edges) as f64, enact_wall_us),
        ),
    ];
    for p in Prim::ALL {
        let (name, s) = (p.name(), &warm.by_prim[p as usize]);
        let wall_us = tagged("enact", name);
        values.push((format!("prim.{name}.enact_wall_ms"), wall_us / 1e3));
        values.push((format!("prim.{name}.sim_ms"), s.sim_us / 1e3));
        values.push((format!("prim.{name}.supersteps"), s.supersteps as f64));
        values.push((
            format!("prim.{name}.overhead_x"),
            ratio(wall_us, warm.ref_wall_by_prim[p as usize]),
        ));
    }
    // off wire_rmat every query counts as "default"; the halves mean nothing
    let [default, reduced] =
        if w == Workload::WireRmat { warm.by_half } else { Default::default() };
    values.extend([
        ("ops.w_items".into(), sim.w_items as f64),
        ("ops.w_sim_us".into(), sim.w_sim_us),
        ("ops.advance_fused_medges_per_s".into(), rates.advance_fused_medges_per_s),
        ("comm.c_items".into(), sim.c_items as f64),
        ("comm.c_sim_us".into(), sim.c_sim_us),
        ("comm.h_sim_us".into(), sim.h_sim_us),
        ("comm.messages".into(), sim.messages as f64),
        ("comm.vertices_sent".into(), sim.vertices_sent as f64),
        ("comm.bytes_per_vertex".into(), ratio(sim.wire_bytes as f64, sim.vertices_sent as f64)),
        (
            "comm.suppressed_share".into(),
            ratio(
                sim.suppressed_vertices as f64,
                (sim.suppressed_vertices + sim.vertices_sent) as f64,
            ),
        ),
        ("comm.enc_list".into(), sim.enc_list as f64),
        ("comm.enc_bitmap".into(), sim.enc_bitmap as f64),
        ("comm.enc_delta".into(), sim.enc_delta as f64),
        ("comm.collective_stages".into(), sim.collective_stages as f64),
        ("comm.split_package_mverts_per_s".into(), rates.split_package_mverts_per_s),
        ("comm.encode_auto_mverts_per_s".into(), rates.encode_auto_mverts_per_s),
        ("comm.decode_mverts_per_s".into(), rates.decode_mverts_per_s),
        ("wire.default.wall_ms".into(), named("wire.default") / 1e3),
        ("wire.reduced.wall_ms".into(), named("wire.reduced") / 1e3),
        ("wire.default.bytes".into(), default.wire_bytes as f64),
        ("wire.reduced.bytes".into(), reduced.wire_bytes as f64),
        ("wire.default.sim_ms".into(), default.sim_us / 1e3),
        ("wire.reduced.sim_ms".into(), reduced.sim_us / 1e3),
        ("vgpu.sync_sim_us".into(), sim.sync_sim_us),
        ("vgpu.barrier_wait_sim_us".into(), fold.barrier_wait_sim_us),
        ("vgpu.pool_reallocs".into(), sim.pool_reallocs as f64),
        ("vgpu.realloc_copied_bytes".into(), sim.realloc_copied_bytes as f64),
        ("vgpu.barrier_rtt_us".into(), probes.barrier_rtt_us),
        ("vgpu.kernel_launch_ns".into(), probes.kernel_launch_ns),
        ("service.plan_wall_us".into(), named("Service::plan")),
        ("service.run_wall_ms".into(), service_run_us / 1e3),
        ("service.waves".into(), service.waves as f64),
        ("service.queued".into(), service.queued as f64),
        // serial / concurrent simulated time: ideal-overlap arithmetic, informational
        ("service.overlap_x".into(), ratio(service.serial_sim_us, service.concurrent_sim_us)),
        (
            "service.queries_per_s".into(),
            if warm.service.is_some() {
                ratio(warm.attempted as f64 * 1e6, service_run_us)
            } else {
                0.0
            },
        ),
        ("trace.events".into(), fold.events as f64),
        ("trace.overhead_share".into(), ratio(wall(true), wall(false)) - 1.0),
        (
            "trace.fold_wall_ms".into(),
            span_wall_us(spans, &traced_ids, |s| s.name == "Profile::from_trace") / 1e3,
        ),
        (
            "trace.reconciled".into(),
            ratio(
                folds.iter().map(|t| t.reconciled as f64).sum(),
                folds.iter().map(|t| t.traced as f64).sum(),
            ),
        ),
        ("reference.wall_ms".into(), warm.ref_wall_by_prim.iter().sum::<f64>() / 1e3),
    ]);
    values
}

/// Per span name: median self time per untraced pass, as a share of the
/// pass — the table that says which layer owns the wall clock.
fn self_time_table(spans: &[Span], passes: &[i32]) -> Vec<String> {
    let own = span::self_times_us(spans);
    // verification runs after the clock stops: it has no parent, so only
    // the pass span and what hangs under it are listed
    let timed = |s: &Span| passes.contains(&s.pass) && (s.name == "pass" || s.parent.is_some());
    let mut names: Vec<&'static str> = spans.iter().filter(|s| timed(s)).map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let per_pass = |name: &str| -> f64 {
        let sums: Vec<f64> = passes
            .iter()
            .map(|&p| {
                spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.pass == p && s.name == name && timed(s))
                    .map(|(_, &o)| o)
                    .sum()
            })
            .collect();
        median(&sums)
    };
    let pass_us = names.iter().map(|n| per_pass(n)).sum::<f64>().max(1e-9);
    let mut rows = vec!["self time per untraced pass (median over passes):".to_string()];
    for name in names {
        let us = per_pass(name);
        rows.push(format!("  {name:<28} {:>10.3} ms  {:>5.1} %", us / 1e3, 100.0 * us / pass_us));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Answer;

    fn smoke(workload: Workload, seed: u64, trace: bool) -> RunResult {
        run(&RunArgs {
            workload,
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            min_passes: 2,
            out_dir: None,
        })
    }

    fn fingerprint(r: &RunResult) -> &str {
        r.notes
            .iter()
            .find(|n| n.starts_with("graph fingerprint"))
            .expect("every run notes its graph")
    }

    /// Names of the metrics whose values must repeat exactly: everything
    /// simulated or counted, nothing timed on the host.
    fn exact(name: &str) -> bool {
        let timed =
            name.contains("wall") || name.ends_with("_per_s") || name.ends_with("overhead_x");
        let host = [
            "setup_s",
            "host_peak_rss_mb",
            "enactor.host_mteps",
            "vgpu.barrier_rtt_us",
            "vgpu.kernel_launch_ns",
            "trace.overhead_share",
        ];
        !(timed || host.contains(&name))
    }

    #[test]
    fn every_workload_passes_the_oracle_and_emits_exactly_the_listed_metrics() {
        let e2e: Vec<String> = metrics::end_to_end().into_iter().map(|m| m.name).collect();
        let layers: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
        for w in Workload::ALL {
            for (trace, want) in [(false, &e2e), (true, &layers)] {
                let r = smoke(w, 42, trace);
                assert!(
                    r.correct() && r.attempted > 0 && r.failed == 0,
                    "{} trace {trace}",
                    w.name()
                );
                let got: Vec<String> = r.metrics.iter().map(|m| m.0.clone()).collect();
                assert_eq!(&got, want, "{} trace {trace}", w.name());
                assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{} trace {trace}", w.name());
                if trace {
                    assert_eq!(r.metric("trace.reconciled"), 1.0, "{}", w.name());
                    assert!(r.metric("trace.events") > 0.0);
                } else {
                    assert!(
                        r.metrics.iter().all(|m| m.1 > 0.0),
                        "end-to-end metrics are never 0: {}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_repeats_every_simulated_number_and_another_seed_changes_the_graph() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let (a, b, other) = (smoke(w, 7, trace), smoke(w, 7, trace), smoke(w, 8, trace));
                assert_eq!(fingerprint(&a), fingerprint(&b));
                assert_ne!(
                    fingerprint(&a),
                    fingerprint(&other),
                    "{}: the seed must reach the generator",
                    w.name()
                );
                let mut compared = 0;
                for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
                    if exact(name) {
                        assert_eq!(va.to_bits(), vb.to_bits(), "{} {name}", w.name());
                        compared += 1;
                    }
                }
                assert!(compared >= 3, "sim_ms, wire_bytes and sim_peak_mem_mb at least");
            }
        }
    }

    #[test]
    fn one_flipped_word_is_a_counted_failure() {
        let rec = Recorder::new(false);
        for w in [Workload::TraverseSoc, Workload::ServeMix] {
            let prep = w.setup(3, true, &rec);
            let mut out = w.pass(&prep, false, &rec, At::pass(0));
            let mut oracle = Oracle::default();
            let clean = verify_pass(w, &prep, &out, 0, &rec, &mut oracle);
            assert_eq!((clean.failed, clean.attempted), (0, out.queries.len() as u64));

            let Ok((_, Answer::Words(words))) = &mut out.queries[2].1 else {
                panic!("query 2 harvests words")
            };
            words[5] ^= 1;
            let flipped = verify_pass(w, &prep, &out, 1, &rec, &mut oracle);
            assert_eq!(flipped.failed, 1, "{}: failed_share must rise", w.name());

            out.queries[0].1 = Err("injected".to_string());
            assert_eq!(
                verify_pass(w, &prep, &out, 2, &rec, &mut oracle).failed,
                2,
                "an Err is a failure too"
            );
        }
    }

    #[test]
    fn span_walls_take_the_pass_median_or_fall_back_to_set_up() {
        let s = |name, pass, start_us: f64, dur: f64| Span {
            name,
            tag: "",
            start_us,
            end_us: start_us + dur,
            parent: None,
            pass,
            query: 0,
        };
        let spans = vec![
            s("enact", 1, 0.0, 10.0),
            s("enact", 1, 20.0, 5.0),
            s("enact", 3, 0.0, 25.0),
            s("enact", 5, 0.0, 20.0),
            s("build", SETUP, 0.0, 7.0),
        ];
        assert_eq!(span_wall_us(&spans, &[1, 3, 5], |s| s.name == "enact"), 20.0);
        assert_eq!(span_wall_us(&spans, &[1, 3, 5], |s| s.name == "build"), 7.0);
        assert_eq!(span_wall_us(&spans, &[1, 3, 5], |s| s.name == "absent"), 0.0);
    }
}
