//! The three studies beyond the paper that price this repo's own layers:
//! what the wire buys (`comm_volume`), where the simulated milliseconds go
//! (`bsp_profile`) and what the query service overlaps (`service`).

use mgpu_core::{
    CommTopology, EnactConfig, EnactReport, Profile, Service, ServicePolicy, ServiceReport,
    WireEncoding,
};
use mgpu_partition::{DistGraph, Duplication};
use mgpu_primitives::MsBfs;
use vgpu::{HardwareProfile, Result};

use super::{dataset, span, Ctx, Outcome};
use crate::fmt::Table;
use crate::runners::{run_multi_source, run_primitive, MultiSourceMode, Primitive};
use crate::service::{build_query_specs, check_against_reference, parse_query_list, residency_bytes};

/// One primitive on one dataset under each arm of [`comm_volume`].
struct WireGroup {
    dataset: &'static str,
    primitive: &'static str,
    arms: Vec<(&'static str, EnactReport)>,
}

impl WireGroup {
    /// `H` bytes of arm `a` over arm `b`.
    fn cut(&self, a: usize, b: usize) -> f64 {
        let bytes = |i: usize| self.arms[i].1.totals.h_bytes_sent;
        bytes(a) as f64 / bytes(b).max(1) as f64
    }

    /// Supersteps of arm `i`.
    fn steps(&self, i: usize) -> usize {
        self.arms[i].1.iterations
    }

    /// Butterfly stages arm `i` ran.
    fn stages(&self, i: usize) -> u64 {
        self.arms[i].1.comm.collective_stages
    }
}

/// Comm-volume study — DOBFS, SSSP and CC at six GPUs on two analogs under
/// three arms, the paper's wire first: `list` (forced `(id, label)` list
/// encoding, nothing suppressed), `default` (`Auto` encoding + monotone send
/// suppression) and `reduced` (the default over the butterfly broadcast
/// collective). Then 64 BFS sources as 64 enacts on one runner (4-byte
/// labels) against one batched bitfield enact (8-byte lane masks), both on
/// the same partition.
pub(super) fn comm_volume(ctx: &Ctx) -> Result<Outcome> {
    const GPUS: usize = 6;
    let default = EnactConfig::default();
    let arms = [
        ("list", EnactConfig { wire_encoding: WireEncoding::List, suppression: false, ..default }),
        ("default", default),
        ("reduced", EnactConfig { comm_topology: CommTopology::Butterfly, ..default }),
    ];
    let part = ctx.random();
    let mut groups = Vec::new();
    for name in ["rmat_2Mv_128Me", "soc-orkut"] {
        let g = ctx.weighted(&dataset(name), 0xabc);
        let mut group = |primitive, arms: Result<Vec<_>>| -> Result<()> {
            groups.push(WireGroup { dataset: name, primitive, arms: arms? });
            Ok(())
        };
        for prim in [Primitive::Dobfs, Primitive::Sssp, Primitive::Cc] {
            let run = |&(arm, cfg)| {
                Ok((arm, run_primitive(prim, &g, ctx.k40s(GPUS), &part, cfg)?.report))
            };
            group(prim.name(), arms.iter().map(run).collect())?;
        }
        let sources = MsBfs::spread_sources(64, g.n_vertices());
        let run = |(arm, mode)| {
            let sys = ctx.k40s(GPUS);
            run_multi_source(&g, sys, &part, default, &sources, mode).map(|out| (arm, out.report))
        };
        let modes =
            [("repeated", MultiSourceMode::RepeatedBfs), ("batched", MultiSourceMode::BatchedBfs)];
        group("MS-BFS(64)", modes.into_iter().map(run).collect())?;
    }

    let mut t = Table::new(&[
        "dataset",
        "primitive",
        "config",
        "sim ms",
        "supersteps",
        "H bytes",
        "vs first arm",
        "stages",
    ]);
    for group in &groups {
        for (i, (arm, r)) in group.arms.iter().enumerate() {
            t.row(&[
                group.dataset.into(),
                group.primitive.into(),
                arm.to_string(),
                format!("{:.3}", r.sim_ms()),
                format!("{}", r.iterations),
                format!("{}", r.totals.h_bytes_sent),
                if i == 0 { "-".into() } else { format!("{:.2}x", group.cut(0, i)) },
                format!("{}", r.comm.collective_stages),
            ]);
        }
    }

    let of = |prims: &'static [&str]| groups.iter().filter(move |g| prims.contains(&g.primitive));
    let broadcast = || of(&["DOBFS", "CC"]);
    let selective = || of(&["SSSP"]);
    let mut out = Outcome::default();
    out.table(
        format!(
            "Wire volume at {GPUS} GPUs — the paper's list wire, the default wire, the default \
             over the butterfly.\n'vs first arm' is the first arm's H bytes over this arm's."
        ),
        t,
    );
    let (wide, narrow) =
        (span(broadcast().map(|g| g.cut(0, 1))), span(selective().map(|g| g.cut(0, 1))));
    out.check(
        "against the paper's (id, label) list the default wire moves >= 30x fewer H bytes for \
         the broadcast primitives (DOBFS, CC) and >= 1.5x fewer for SSSP",
        wide.0 >= 30.0 && narrow.0 >= 1.5,
        format!("DOBFS/CC {:.1}-{:.1}x, SSSP {:.2}-{:.2}x", wide.0, wide.1, narrow.0, narrow.1),
    );
    let further = span(broadcast().map(|g| g.cut(1, 2)));
    let stages = span(broadcast().map(|g| g.stages(2) as f64));
    out.check(
        "the butterfly cuts DOBFS and CC a further >= 1.4x, in collective stages",
        further.0 >= 1.4 && stages.0 > 0.0,
        format!("{:.2}-{:.2}x in {}-{} stages", further.0, further.1, stages.0, stages.1),
    );
    out.check(
        "selective primitives never enter the collective: SSSP moves the same bytes over the \
         butterfly, in 0 stages",
        selective().all(|g| g.cut(1, 2) == 1.0 && g.stages(2) == 0),
        "default vs reduced, 2 rows".into(),
    );
    let arms = || groups.iter().flat_map(|g| &g.arms);
    let suppressed: u64 = arms().map(|(_, r)| r.comm.suppressed_vertices).sum();
    out.check(
        "monotone suppression drops 0 vertices on every row",
        suppressed == 0,
        format!("{suppressed} vertices over {} rows", arms().count()),
    );
    let batch: Vec<&WireGroup> = of(&["MS-BFS(64)"]).collect();
    out.check(
        "one batched MS-BFS(64) enact takes >= 40x fewer supersteps and >= 3x fewer H bytes \
         than 64 repeated enacts",
        batch.iter().all(|g| g.steps(0) >= 40 * g.steps(1) && g.cut(0, 1) >= 3.0),
        batch
            .iter()
            .map(|g| {
                format!("{} -> {} supersteps, {:.2}x bytes", g.steps(0), g.steps(1), g.cut(0, 1))
            })
            .collect::<Vec<_>>()
            .join("; "),
    );
    Ok(out)
}

/// BSP cost attribution — BFS, SSSP and CC on the soc-orkut analog at 2/4/8
/// GPUs under both broadcast topologies, traced; every trace is folded into
/// the per-device `W/C/H/S·l` buckets and reconciled bitwise with its report.
pub(super) fn bsp_profile(ctx: &Ctx) -> Result<Outcome> {
    let g = ctx.weighted(&dataset("soc-orkut"), 0xabc);
    let part = ctx.random();
    let mut t = Table::new(&[
        "primitive",
        "gpus",
        "topology",
        "steps",
        "sim ms",
        "W ms",
        "C ms",
        "H ms",
        "S*l ms",
        "wait ms",
        "events",
    ]);
    let mut unreconciled = Vec::new();
    // (direct, butterfly) pairs that are one simulation: [BFS + SSSP, CC]
    let mut same = [0usize; 2];
    for prim in [Primitive::Bfs, Primitive::Sssp, Primitive::Cc] {
        for gpus in [2usize, 4, 8] {
            let mut reports = Vec::new();
            for &comm_topology in CommTopology::ALL {
                let cfg = EnactConfig { tracing: true, comm_topology, ..Default::default() };
                let report = run_primitive(prim, &g, ctx.k40s(gpus), &part, cfg)?.report;
                let trace = report.trace.as_ref().expect("the config turned tracing on");
                let profile = Profile::from_trace(trace);
                if let Err(e) = profile.reconcile(&report) {
                    unreconciled.push(format!(
                        "{} x{gpus} {}: {e}",
                        prim.name(),
                        comm_topology.label()
                    ));
                }
                let ms = |us: f64| format!("{:.3}", us / 1e3);
                let total = &profile.total;
                t.row(&[
                    prim.name().into(),
                    format!("{gpus}"),
                    comm_topology.label().into(),
                    format!("{}", profile.n_supersteps()),
                    ms(report.sim_time_us),
                    ms(total.w_us),
                    ms(total.c_us),
                    ms(total.h_us),
                    ms(total.sync_us),
                    ms(total.wait_us),
                    format!("{}", trace.n_events()),
                ]);
                reports.push(report);
            }
            same[usize::from(prim == Primitive::Cc)] +=
                usize::from(reports[0].same_simulation(&reports[1]));
        }
    }

    let mut out = Outcome::default();
    out.table("BSP cost attribution on the soc-orkut analog, summed over devices", t);
    out.check(
        "all 18 traces reconcile exactly: every per-device W/C/H/S·l bucket, every tally and \
         the makespan equal the report's, bitwise for the f64 sums",
        unreconciled.is_empty(),
        if unreconciled.is_empty() { "18 of 18".into() } else { unreconciled.join("; ") },
    );
    out.check(
        "BFS and SSSP are one simulation under direct and butterfly at every GPU count \
         (selective never enters the collective); CC is not",
        same == [6, 0],
        format!("same_simulation on {} of 6 BFS + SSSP pairs, {} of 3 CC pairs", same[0], same[1]),
    );
    Ok(out)
}

/// Service throughput — eight heterogeneous queries over one shared
/// hollywood-2009 residency on 4 GPUs under three admission policies, each
/// against the same service at `lanes = 1` (strictly serial dispatch of the
/// identical specs). Makespans are simulated: a wave costs the max of its
/// members' simulated times, serial costs their sum (DESIGN.md §15).
pub(super) fn service(ctx: &Ctx) -> Result<Outcome> {
    const GPUS: usize = 4;
    const MIX: &str = "bfs,dobfs,sssp,bc,cc,pr,bfs:1,sssp:1@resilient";
    let g = ctx.weighted(&dataset("hollywood-2009"), 0xabc);
    let part = ctx.random();
    let mut dist = DistGraph::partition(&g, &part, GPUS, Duplication::All);
    dist.build_cscs(); // the mix includes DOBFS and BC
    let descs = parse_query_list(MIX).expect("MIX is in the grammar");
    let k40 = HardwareProfile::k40();
    let specs = build_query_specs(&g, &dist, k40, ctx.shift, EnactConfig::default(), &descs)
        .expect("every analog has a vertex 1");
    let residency = residency_bytes(&dist);
    let footprints = || specs.iter().map(|s| s.footprint_bytes);
    let (min_fp, max_fp) = (footprints().min().unwrap_or(0), footprints().max().unwrap_or(0));
    let sum_fp: u64 = footprints().sum();

    let run = |lanes: usize, mem_cap: Option<u64>| {
        Service::new(ServicePolicy {
            seed: ctx.seed,
            workers: 1,
            lanes,
            mem_cap,
            residency_bytes: residency,
        })
        .run(&specs)
    };
    let serial = run(1, None);
    // A cap that admits any query alone with room to spare but cannot hold
    // the whole mix in one wave even at the soft watermark: the admission
    // ledger must queue, never reject.
    let cap =
        (residency + max_fp + (sum_fp - max_fp) / 2).max((residency + 2 * max_fp) * 100 / 85) + 1;
    let arms = [
        ("mixed8_lanes4", run(4, None)),
        ("mixed8_unbounded", run(0, None)),
        ("mixed8_capped", run(0, Some(cap))),
    ];

    let speedups =
        arms.each_ref().map(|(_, rep)| serial.concurrent_sim_us / rep.concurrent_sim_us.max(1e-9));
    let mut t = Table::new(&["bench", "serial ms", "concurrent ms", "speedup", "note"]);
    // queries whose report or harvested words are not the serial run's
    let mut diverged = Vec::new();
    for ((name, rep), speedup) in arms.iter().zip(speedups) {
        for (s, c) in serial.outcomes.iter().zip(&rep.outcomes) {
            let equal = match (&s.result, &c.result) {
                (Ok(sr), Ok(cr)) => sr.same_simulation(cr) && s.values == c.values,
                _ => false,
            };
            if !equal {
                diverged.push(format!("{name} {}", s.name));
            }
        }
        t.row(&[
            name.to_string(),
            format!("{:.3}", serial.concurrent_sim_us / 1e3),
            format!("{:.3}", rep.concurrent_sim_us / 1e3),
            format!("{speedup:.2}x"),
            format!("{} waves, {} queued", rep.waves, queued(rep)),
        ]);
    }

    let mut out = Outcome::default();
    out.table(
        format!(
            "{} queries ({MIX}) on {GPUS} GPUs over one residency:\n|V|={} |E|={}, {residency} \
             B/device resident, dynamic footprints {min_fp}..{max_fp} B.\nSerial is the same \
             service at lanes = 1.",
            specs.len(),
            g.n_vertices(),
            g.n_edges(),
        ),
        t,
    );
    out.check(
        "every concurrent outcome is the lanes = 1 run's: same_simulation and the same \
         harvested words, 8 queries x 3 arms",
        diverged.is_empty(),
        if diverged.is_empty() { "24 of 24".into() } else { format!("not: {diverged:?}") },
    );
    // every answer of every run, the serial one included, against the oracle
    let runs = std::iter::once(("serial", &serial)).chain(arms.iter().map(|(n, rep)| (*n, rep)));
    let mut wrong = Vec::new();
    let mut checked = 0;
    for (name, rep) in runs {
        for ((o, desc), spec) in rep.outcomes.iter().zip(&descs).zip(&specs) {
            checked += 1;
            if let Err(e) = check_against_reference(desc.prim, &g, spec.source, &o.values) {
                wrong.push(format!("{name} {}: {e}", o.name));
            }
        }
    }
    out.check(
        "every harvested answer agrees with primitives::reference: BFS, SSSP and CC exactly, \
         BC within 1e-3, PR within its accuracy contract, 8 queries x 4 runs",
        wrong.is_empty(),
        if wrong.is_empty() {
            format!("{checked} of {checked}")
        } else {
            format!("not: {wrong:?}")
        },
    );
    let [lanes4, unbounded, capped] = speedups;
    out.check(
        "ideal-overlap speedup (a wave costs its slowest member; co-scheduled queries do not \
         contend) never loses to serial dispatch, and unbounded >= 4 lanes >= capped",
        unbounded >= lanes4 && lanes4 >= capped && capped >= 1.0,
        format!("unbounded {unbounded:.2}x, 4 lanes {lanes4:.2}x, capped {capped:.2}x"),
    );
    let capped = &arms[2].1;
    let rejected = capped.admission.iter().filter(|a| a.rejected).count();
    out.check(
        "under the memory cap admission queues and rejects nothing",
        queued(capped) > 0 && rejected == 0,
        format!("{} queued, {rejected} rejected", queued(capped)),
    );
    Ok(out)
}

/// How many queries waited for an earlier wave.
fn queued(rep: &ServiceReport) -> usize {
    rep.admission.iter().filter(|a| a.queued).count()
}
