//! Fig. 2 – Fig. 6 of the paper's evaluation.

use mgpu_core::{AllocScheme, EnactConfig};
use mgpu_gen::catalog::TABLE2;
use mgpu_gen::{rmat, Dataset, DatasetGroup, RmatParams};
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_partition::{BiasedRandomPartitioner, MultilevelPartitioner, PartitionQuality, Partitioner};
use vgpu::{HardwareProfile, Result, SimSystem};

use super::{ordered, span, x_row, Ctx, Outcome};
use crate::fmt::{fmt_bytes, geomean, Table};
use crate::runners::{run_primitive, scaled_system, timed, Primitive, PR_ITERS};

/// Fig. 2 — 3 primitives × 3 datasets × 3 partitioners: the 4-GPU speedup
/// over the 1-GPU run, plus each partitioner's border size and edge cut
/// (§V-C: border size, not edge cut, is the objective that matters here).
pub(super) fn fig2(ctx: &Ctx) -> Result<Outcome> {
    let random = ctx.random();
    let biased = BiasedRandomPartitioner { seed: ctx.seed, slack: 0.05 };
    let metis = MultilevelPartitioner { seed: ctx.seed, ..Default::default() };
    /// Simulated µs of `prim` on 4 scaled K40s under `part`.
    fn on4(ctx: &Ctx, prim: Primitive, g: &Csr<u32, u64>, part: &impl Partitioner) -> Result<f64> {
        Ok(run_primitive(prim, g, ctx.k40s(4), part, EnactConfig::default())?.report.sim_time_us)
    }

    let mut t = Table::new(&["primitive+dataset", "random", "biased-random", "metis-like"]);
    let mut quality =
        Table::new(&["dataset", "partitioner", "edge cut", "max |Bi|", "edge imbalance"]);
    let (mut random_wall_us, mut metis_wall_us) = (0.0, 0.0);
    // worst random / best-of-three over the BFS and PR cells
    let mut worst = (f64::INFINITY, String::new());
    // metis-like over random on uk-2002: (edge cut, max |Bi|)
    let mut uk = (0.0, 0.0);

    for ds in Dataset::figure_trio() {
        let g = ds.build_undirected(ctx.shift, ctx.seed);
        let measured = [
            ("random", timed(&mut random_wall_us, || random.assign(&g, 4))),
            ("biased-random", biased.assign(&g, 4)),
            ("metis-like", timed(&mut metis_wall_us, || metis.assign(&g, 4))),
        ]
        .map(|(pname, owner)| (pname, PartitionQuality::measure(&g, &owner, 4)));
        for (pname, q) in &measured {
            quality.row(&[
                ds.name.to_string(),
                pname.to_string(),
                format!("{}", q.edge_cut),
                format!("{}", q.max_border()),
                format!("{:.2}", q.edge_imbalance()),
            ]);
        }
        if ds.name == "uk-2002" {
            let (r, m) = (&measured[0].1, &measured[2].1);
            uk.0 = m.edge_cut as f64 / r.edge_cut as f64;
            uk.1 = m.max_border() as f64 / r.max_border() as f64;
        }
        for prim in [Primitive::Bfs, Primitive::Dobfs, Primitive::Pr] {
            let base = ctx.sim_us(prim, &g, 1)?;
            let speedup = [
                base / on4(ctx, prim, &g, &random)?,
                base / on4(ctx, prim, &g, &biased)?,
                base / on4(ctx, prim, &g, &metis)?,
            ];
            let cell = format!("{}+{}", prim.name().to_lowercase(), ds.name);
            let vs_best = speedup[0] / span(speedup).1;
            if prim != Primitive::Dobfs && vs_best < worst.0 {
                worst = (vs_best, cell.clone());
            }
            t.row(&x_row(&cell, &speedup));
        }
    }

    let mut out = Outcome::default();
    out.table(
        "4-GPU speedup over 1 GPU. No per-cell DOBFS claim is checked: the dobfs+uk-2002 cell\n\
         is seed-unstable (it swings 4.8x between seeds 42 and 7).",
        t,
    );
    out.table("Partition quality (why edge cut is the wrong objective, §V-C):", quality);
    out.check(
        "random is within 10% of the best partitioner on every BFS and PR cell",
        worst.0 >= 0.9,
        format!("worst cell {}: random at {:.2} of the best", worst.1, worst.0),
    );
    out.check(
        "on uk-2002 metis-like cuts < 0.5x random's edges while max |Bi| shrinks by less \
         (edge cut is the wrong proxy)",
        uk.0 < 0.5 && uk.1 > uk.0,
        format!("edge cut {:.2}x, max |Bi| {:.2}x of random's", uk.0, uk.1),
    );
    eprintln!(
        "fig2: assign wall over the three datasets: metis-like {:.1} ms, random {:.1} ms ({:.0}x)",
        metis_wall_us / 1e3,
        random_wall_us / 1e3,
        metis_wall_us / random_wall_us
    );
    out.check(
        "metis-like takes a much longer time to partition: its assign costs >= 10x random's \
         host wall",
        metis_wall_us >= 10.0 * random_wall_us,
        "threshold 10x; the measured ratio is wall clock and goes to stderr".into(),
    );
    Ok(out)
}

/// Fig. 3 — BFS on the kron / soc-orkut / uk-2002 analogs under the four
/// allocation schemes, on 4 unscaled K40s.
pub(super) fn fig3(ctx: &Ctx) -> Result<Outcome> {
    let schemes = [
        AllocScheme::JustEnough,
        AllocScheme::Fixed { sizing_factor: 3.0 },
        AllocScheme::Max,
        AllocScheme::PreallocFusion { sizing_factor: 3.0 },
    ];
    let mut t =
        Table::new(&["dataset", "scheme", "peak mem/GPU", "reallocs", "sim time", "relative mem"]);
    let (mut least_max_over_just, mut time_spread) = (f64::INFINITY, 0.0f64);
    let (mut mem_ordered, mut reallocs_ordered, mut fusion_faster) = (true, true, true);
    for ds in Dataset::figure_trio() {
        let g = ds.build_undirected(ctx.shift, ctx.seed);
        // (peak memory per device, pool reallocations, simulated µs) per scheme
        let mut runs = Vec::new();
        for scheme in schemes {
            let sys = SimSystem::homogeneous(4, HardwareProfile::k40());
            let config = EnactConfig { alloc_scheme: Some(scheme), ..Default::default() };
            let r = run_primitive(Primitive::Bfs, &g, sys, &ctx.random(), config)?.report;
            runs.push((r.peak_memory_per_device, r.pool_reallocs, r.sim_time_us));
        }
        let [just, fixed, max, fusion] = runs[..] else { unreachable!("four schemes") };
        for (scheme, (mem, reallocs, us)) in schemes.iter().zip(&runs) {
            t.row(&[
                ds.name.to_string(),
                scheme.label().to_string(),
                fmt_bytes(*mem),
                format!("{reallocs}"),
                format!("{:.2} ms", us / 1e3),
                format!("{:.2}x", *mem as f64 / just.0 as f64),
            ]);
        }
        mem_ordered &= max.0 >= fixed.0 && fixed.0 >= just.0;
        least_max_over_just = least_max_over_just.min(max.0 as f64 / just.0 as f64);
        let (lo, hi) = span([just.2, fixed.2, max.2]);
        time_spread = time_spread.max(hi / lo - 1.0);
        reallocs_ordered &= just.1 > fixed.1 && fixed.1 > max.1 && max.1 == 0;
        fusion_faster &= fusion.2 < just.2;
    }

    let mut out = Outcome::default();
    out.table("BFS peak memory per GPU under 4 allocation schemes (4 GPUs)", t);
    out.check(
        "peak memory: max >= fixed >= just-enough, and max >= 1.8x just-enough, on all three \
         datasets",
        mem_ordered && least_max_over_just >= 1.8,
        format!("smallest max / just-enough {least_max_over_just:.2}x"),
    );
    out.check(
        "computation times are near-identical across just-enough / fixed / max: within 1%",
        time_spread <= 0.01,
        format!("largest spread {:.2}%", time_spread * 100.0),
    );
    out.check(
        "reallocations: just-enough > fixed > max = 0 on all three datasets",
        reallocs_ordered,
        "see the reallocs column".into(),
    );
    out.check(
        "prealloc+fusion is faster than just-enough (fewer launches); deviation: it is not \
         the smallest scheme on uk-2002",
        fusion_faster,
        "sim time compared per dataset".into(),
    );
    Ok(out)
}

/// Fig. 4 — for each primitive and GPU count 2–6, the geometric mean over
/// all Table II analogs of the speedup over the 1-GPU run.
pub(super) fn fig4(ctx: &Ctx) -> Result<Outcome> {
    // SSSP needs weights; every primitive runs on the same weighted graphs.
    let graphs: Vec<Csr<u32, u64>> = TABLE2.iter().map(|ds| ctx.weighted(ds, 0xabc)).collect();
    let mut t = Table::new(&["primitive", "2", "3", "4", "5", "6", "paper @6"]);
    let mut dobfs6 = 0.0;
    // (name, speedup at 6 GPUs, the paper's) of the five that scale
    let mut at6 = Vec::new();
    let mut not_increasing = Vec::new();
    for (prim, paper) in [
        (Primitive::Bc, Some(1.96)),
        (Primitive::Bfs, Some(2.63)),
        (Primitive::Cc, Some(2.00)),
        (Primitive::Dobfs, None),
        (Primitive::Pr, Some(3.86)),
        (Primitive::Sssp, Some(2.57)),
    ] {
        let speedups = ctx.speedups(prim, &graphs)?;
        let mut cells = x_row(prim.name(), &speedups);
        cells.push(paper.map_or("flat".into(), |p| format!("{p:.2}x")));
        t.row(&cells);
        let Some(paper) = paper else {
            dobfs6 = speedups[4];
            continue;
        };
        at6.push((prim.name(), speedups[4], paper));
        if !ordered(&speedups, f64::lt) {
            not_increasing.push(prim.name());
        }
    }

    let mut out = Outcome::default();
    out.table(
        format!(
            "Geomean speedup over 1 GPU across {} datasets (shift {})",
            TABLE2.len(),
            ctx.shift
        ),
        t,
    );
    out.check(
        "BFS, SSSP, CC, BC and PR speed up strictly with every GPU added, 2 to 6",
        not_increasing.is_empty(),
        format!("5 series of 5 points, not increasing: {not_increasing:?}"),
    );
    let (least, best) = span(at6.iter().map(|a| a.1));
    let pr = at6.iter().find(|a| a.0 == "PR").map_or(0.0, |a| a.1);
    out.check(
        "PR scales within 10% of the best at 6 GPUs; deviation: the paper's PR scales best, \
         here BFS does — PR spreads only the changed ranks, so less W per superstep leaves \
         its fixed H and S·l a larger share",
        pr >= 0.9 * best,
        format!("PR {pr:.2}x, best {best:.2}x"),
    );
    out.check(
        "DOBFS stays flat (communication-bound): at 6 GPUs it is below half the speedup of \
         every other primitive",
        dobfs6 < 0.5 * least,
        format!("DOBFS {dobfs6:.2}x, smallest other {least:.2}x"),
    );
    let (name, off) = at6
        .iter()
        .map(|&(n, s, p)| (n, (s / p).max(p / s)))
        .fold(("", 0.0), |a, b| if b.1 > a.1 { b } else { a });
    out.check(
        "each 6-GPU speedup is within 2.5x of the paper's; deviation: the paper's rank order \
         (PR, BFS, SSSP, CC, BC) is not reproduced, SSSP is last here",
        off <= 2.5,
        format!("furthest: {name} at {off:.2}x of the paper's figure"),
    );
    Ok(out)
}

/// Fig. 5 — strong, weak-edge and weak-vertex scaling of DOBFS, BFS and PR
/// in GTEPS on 1–8 K80 and P100 devices. Strong: rmat 2^24/32 fixed as GPUs
/// grow; weak-edge: 2^19 vertices, edge factor 32·n (the paper's 256·n,
/// scaled to keep runs short); weak-vertex: 2^19·n vertices, edge factor 32.
pub(super) fn fig5(ctx: &Ctx) -> Result<Outcome> {
    let (strong_scale, strong) = ctx.rmat(24, 10, 32);
    let weak_scale = 19u32.saturating_sub(ctx.shift).max(8);
    let build = |scale: u32, edge_factor: usize| -> Csr<u32, u64> {
        GraphBuilder::undirected(&rmat(scale, edge_factor, RmatParams::paper(), ctx.seed))
    };
    // per GPU count 1..=8: [weak-edge, weak-vertex]
    let weak: Vec<[Csr<u32, u64>; 2]> = (1..=8usize)
        .map(|n| {
            let wv_scale = weak_scale + (n as f64).log2().ceil() as u32;
            [build(weak_scale, 32 * n), build(wv_scale, 32)]
        })
        .collect();

    let mut out = Outcome::default();
    let mut grows = true;
    // DOBFS strong-scaling GTEPS per profile
    let mut dobfs_strong: Vec<Vec<f64>> = Vec::new();
    for (profile_name, profile) in
        [("K80", HardwareProfile::k80_gpu()), ("P100", HardwareProfile::p100())]
    {
        for prim in [Primitive::Dobfs, Primitive::Bfs, Primitive::Pr] {
            let mut t = Table::new(&["GPUs", "strong", "weak-edge", "weak-vertex"]);
            let mut series: [Vec<f64>; 3] = Default::default();
            for (n, [weak_edge, weak_vertex]) in (1..).zip(&weak) {
                let mut cells = vec![format!("{n}")];
                for (g, s) in [&strong, weak_edge, weak_vertex].into_iter().zip(&mut series) {
                    let r = ctx.run_on(prim, g, scaled_system(n, profile.clone(), ctx.shift))?;
                    // PR is credited per iteration (|E|·iters / time), the
                    // metric of the paper's Fig. 5c; traversals with |E|.
                    // A PR superstep spreads only the changed ranks and the
                    // run ends once none is left, so the iterations are the
                    // PR_ITERS power iterations its answer stands for, not
                    // its supersteps — as DOBFS is credited |E| whatever it
                    // skips.
                    let iters = if prim == Primitive::Pr { PR_ITERS } else { 1 };
                    let gteps = r.report.gteps(r.edges * iters);
                    s.push(gteps);
                    cells.push(format!("{gteps:.2}"));
                }
                t.row(&cells);
            }
            out.table(format!("--- {} on {} (GTEPS) ---", prim.name(), profile_name), t);
            if prim == Primitive::Dobfs {
                dobfs_strong.push(std::mem::take(&mut series[0]));
            } else {
                grows &= series.iter().all(|s| ordered(s, f64::le));
            }
        }
    }
    out.check(
        "BFS and PR GTEPS never drop as GPUs are added, in all three modes on both profiles",
        grows,
        "12 series of 8 points".into(),
    );
    out.check(
        "DOBFS strong-scaling GTEPS strictly decrease with GPU count on both profiles \
         (communication-bound)",
        dobfs_strong.iter().all(|s| ordered(s, f64::gt)),
        "2 series of 8 points".into(),
    );
    let ratio: Vec<f64> = dobfs_strong.iter().map(|s| s[7] / s[0]).collect();
    out.check(
        "deviation, asserted: DOBFS is not flatter on P100 at this scale — the K80 and P100 \
         8-GPU / 1-GPU ratios agree within 0.05",
        (ratio[0] - ratio[1]).abs() <= 0.05,
        format!("K80 {:.3}, P100 {:.3}", ratio[0], ratio[1]),
    );
    Ok(out.headed(format!(
        "GTEPS scaling, rmat strong 2^{strong_scale}/32, weak 2^{weak_scale} base (shift {})",
        ctx.shift
    )))
}

/// Fig. 6 — geomean multi-GPU speedup over 1 GPU for BFS, DOBFS and PR,
/// split by the three Table II dataset groups.
pub(super) fn fig6(ctx: &Ctx) -> Result<Outcome> {
    let groups = [DatasetGroup::Rmat, DatasetGroup::Soc, DatasetGroup::Web].map(|group| {
        let in_group = TABLE2.iter().filter(|d| d.group == group);
        let graphs: Vec<_> = in_group.map(|d| d.build_undirected(ctx.shift, ctx.seed)).collect();
        (group.label(), graphs)
    });

    let mut out = Outcome::default();
    // speedup at 6 GPUs per primitive: [rmat, soc, web]
    let mut at6 = Vec::new();
    for prim in [Primitive::Bfs, Primitive::Dobfs, Primitive::Pr] {
        let mut rows = Vec::new();
        for (label, graphs) in &groups {
            rows.push((*label, ctx.speedups(prim, graphs)?));
        }
        // the "all" row: geomean over the three groups' geomeans
        let all: Vec<f64> =
            (0..5).map(|i| geomean(&rows.iter().map(|r| r.1[i]).collect::<Vec<_>>())).collect();
        let mut t = Table::new(&["group", "2", "3", "4", "5", "6"]);
        t.row(&x_row("all", &all));
        for (label, speedups) in &rows {
            t.row(&x_row(label, speedups));
        }
        out.table(format!("--- {} ---", prim.name()), t);
        at6.push(rows.iter().map(|r| r.1[4]).collect::<Vec<f64>>());
    }
    let [bfs, dobfs, pr] = &at6[..] else { unreachable!("three primitives") };
    out.check(
        "at 6 GPUs DOBFS scales worst on rmat, and below 1x there",
        dobfs[0] < dobfs[1] && dobfs[0] < dobfs[2] && dobfs[0] < 1.0,
        format!("rmat {:.2}x, soc {:.2}x, web {:.2}x", dobfs[0], dobfs[1], dobfs[2]),
    );
    out.check(
        "at 6 GPUs BFS and PR scale best on rmat (high |E|/|V| lowers communication relative \
         to computation)",
        [bfs, pr].iter().all(|s| s[0] > s[1] && s[0] > s[2]),
        format!(
            "BFS {:.2}x / {:.2}x / {:.2}x, PR {:.2}x / {:.2}x / {:.2}x (rmat / soc / web)",
            bfs[0], bfs[1], bfs[2], pr[0], pr[1], pr[2]
        ),
    );
    Ok(out.headed(format!("Geomean speedup over 1 GPU by graph type (shift {})", ctx.shift)))
}
