//! Table I – Table V of the paper's evaluation.

use mgpu_baselines::{
    hybrid_system, Bfs2d, DegreePartitioner, HardwiredDobfs, OocBfs, OocCc, OocEngine, OocPagerank,
    OocSssp,
};
use mgpu_core::{EnactConfig, Runner};
use mgpu_gen::catalog::TABLE2;
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::{rmat, DatasetGroup, RmatParams};
use mgpu_graph::{degree_stats, estimate_diameter, Coo, Csr, GraphBuilder, Id};
use mgpu_partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_primitives::{Bfs, Pagerank};
use vgpu::{HardwareProfile, Interconnect, Result, SimSystem};

use super::{dataset, round_robin, span, Ctx, Outcome};
use crate::fmt::{fmt_us, Table};
use crate::runners::{overhead_scale, pick_source, run_on_k, Primitive};

/// The SSSP re-relaxation factor `b = W / |E|` recorded for Table I's graph
/// at the default `--shift 8 --seed 42`; the check holds `b` within 1.5× of
/// it at every seed, which is what would have caught the 4.60 → 7.41 move
/// the near/far split undid (EXPERIMENTS.md, Table I).
const SSSP_B_RECORDED: f64 = 2.81;

/// Table I — every primitive on an rmat analog over 4 unscaled K40s: the
/// measured W (primitive computation items), C (communication-computation
/// items), H (vertices transmitted) and S (supersteps) next to the paper's
/// analytic expressions.
pub(super) fn table1(ctx: &Ctx) -> Result<Outcome> {
    let scale = 18u32.saturating_sub(ctx.shift).max(8);
    let mut coo = rmat(scale, 16, RmatParams::paper(), ctx.seed);
    add_paper_weights(&mut coo, ctx.seed + 1);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let n_gpus = 4usize;
    let (v, e, peers) = (g.n_vertices() as f64, g.n_edges() as f64, n_gpus as f64 - 1.0);

    let mut out = Outcome::default();
    // BFS's W (first row), the bound BC's two sweeps are held under
    let mut w_bfs = f64::NAN;
    let mut t = Table::new(&[
        "primitive",
        "analytic W",
        "W meas",
        "analytic C",
        "C meas",
        "analytic H",
        "H meas (vtx)",
        "analytic S",
        "S meas",
    ]);
    for (prim, [aw, ac, ah, as_]) in [
        (Primitive::Bfs, ["O(|Ei|)", "O(|Vi|)", "O(|Bi|)", "~D/2"]),
        (Primitive::Dobfs, ["O(a·|Ei|)", "O((n-1)|V|)", "O((n-1)|V|)", "~D/2"]),
        (Primitive::Sssp, ["O(b·|Ei|)", "O(b·|Vi|)", "O(2b·|Bi|)", "~b·D/2"]),
        (Primitive::Bc, ["O(2a·|Ei|)", "O(2|Vi|+|V|)", "O(5|Bi|+2(n-1)|Li|)", "~D/2"]),
        (Primitive::Cc, ["log(D/2)·O(|Ei|)", "S·O(|Vi|)", "S·O(2|Vi|)", "2-5"]),
        (Primitive::Pr, ["S·O(|Ei|)", "S·O(|Bi|)", "S·O(|Bi|)", "data-dep"]),
    ] {
        let run =
            run_on_k(prim, &g, n_gpus, HardwareProfile::k40(), &RandomPartitioner::default())?;
        let c = &run.report.totals;
        let (w, h, s) = (c.w_items as f64 / e, c.h_vertices as f64 / v, run.report.iterations);
        t.row(&[
            prim.name().to_string(),
            aw.to_string(),
            format!("{w:.2}|E| tot"),
            ac.to_string(),
            format!("{:.2}|V| tot", c.c_items as f64 / v),
            ah.to_string(),
            format!("{h:.2}|V| tot"),
            as_.to_string(),
            format!("{s}"),
        ]);
        // Order checks: generous constant factors, except SSSP's.
        let (claim, pass) = match prim {
            // selective H is bounded by the summed borders Σ|B_i|, itself at
            // most (n-1)·|V| with duplication across peers
            Primitive::Bfs => {
                w_bfs = w;
                ("BFS: W < 8|E| and H < (n-1)|V|", w < 8.0 && h < peers)
            }
            Primitive::Dobfs => ("DOBFS: W < 4|E| and H < 2(n-1)|V|", w < 4.0 && h < 2.0 * peers),
            Primitive::Sssp => (
                "SSSP re-relaxes (b = W/|E| > 1), and b stays within 1.5x of the recorded 2.81",
                w > 1.0 && w < 1.5 * SSSP_B_RECORDED && w > SSSP_B_RECORDED / 1.5,
            ),
            // each level reads the cheaper side of its edges, so the two
            // sweeps together stay under two BFS traversals
            Primitive::Bc => ("BC's two sweeps: W < 2x BFS's W", w < 2.0 * w_bfs),
            // one union pass over the edges, not the paper's log(D/2) hook
            // passes (the analytic column keeps the paper's expression)
            Primitive::Cc => {
                ("CC converges in 2-5 supersteps and W < 2.5|E|", (2..=5).contains(&s) && w < 2.5)
            }
            Primitive::Pr => ("PR: W < 2·S·|E|", w < 2.0 * s as f64),
        };
        out.check(claim, pass, format!("W {w:.2}|E|, H {h:.2}|V|, S {s}"));
    }
    out.table(
        format!(
            "rmat scale {scale}, |V|={}, |E|={}, {n_gpus} GPUs. W/C/H normalized by the global \
             |E| or |V|;\n'tot' = summed over the {n_gpus} GPUs.",
            g.n_vertices(),
            g.n_edges()
        ),
        t,
    );
    Ok(out)
}

/// Table II — the scaled synthetic analog of every Table II graph next to
/// the paper's reported |V|, |E| and diameter.
pub(super) fn table2(ctx: &Ctx) -> Result<Outcome> {
    let mut t = Table::new(&[
        "group",
        "name",
        "paper |V|",
        "paper |E|",
        "paper D",
        "analog |V|",
        "analog |E|",
        "analog D*",
        "edge factor",
    ]);
    // worst analog / paper edge factor over the soc and web groups
    let mut worst = (1.0f64, "");
    let mut rmat_factors = Vec::new();
    let mut diameters = Vec::new();
    for ds in TABLE2 {
        let g = ds.build_undirected(ctx.shift, ctx.seed);
        let s = degree_stats(&g);
        let d = estimate_diameter(&g, 6, ctx.seed);
        t.row(&[
            ds.group.label().to_string(),
            ds.name.to_string(),
            format!("{:.2}M", ds.paper_vertices / 1e6),
            format!("{:.0}M", ds.paper_edges / 1e6),
            ds.paper_diameter.map_or("-".into(), |x| format!("{x}")),
            format!("{}", s.n_vertices),
            format!("{}", s.n_edges),
            format!("{d}"),
            format!("{:.1}", s.avg_degree),
        ]);
        if ds.group == DatasetGroup::Rmat {
            rmat_factors.push(s.avg_degree);
        } else {
            let vs_paper = s.avg_degree / (ds.paper_edges / ds.paper_vertices);
            if (vs_paper - 1.0).abs() > (worst.0 - 1.0).abs() {
                worst = (vs_paper, ds.name);
            }
        }
        diameters.push((d, ds.name));
    }

    let mut out = Outcome::default();
    out.table(
        format!(
            "Dataset analogs at shift {}. * diameter approximated by multiple runs of \
             random-sourced BFS\n(as in the paper).",
            ctx.shift
        ),
        t,
    );
    out.check(
        "all 16 Table II graphs have an analog",
        TABLE2.len() == 16,
        format!("{}", TABLE2.len()),
    );
    out.check(
        "soc and web analogs keep the paper's edge factor |E|/|V| within 25%",
        (worst.0 - 1.0).abs() <= 0.25,
        format!("furthest: {} at {:.2} of the paper's", worst.1, worst.0),
    );
    out.check(
        "rmat edge factors strictly decrease from n20_512 to n25_16; deviation: the magnitude \
         is not asserted, duplicate edges collapse at this scale (n20_512 is far below 693)",
        rmat_factors.windows(2).all(|w| w[0] > w[1]),
        format!("{:.1} down to {:.1}", rmat_factors[0], rmat_factors[rmat_factors.len() - 1]),
    );
    let widest = diameters.iter().max_by_key(|(d, _)| *d).expect("16 datasets");
    out.check(
        "webbase-2001 has the largest estimated diameter",
        widest.1 == "webbase-2001" && diameters.iter().filter(|(d, _)| *d == widest.0).count() == 1,
        format!("D* = {} on {}", widest.0, widest.1),
    );
    Ok(out)
}

/// Table III — each row pairs a paper-reported reference result with our
/// framework primitive on the same analog and, where the reference system's
/// *mechanism* is re-implemented in `mgpu-baselines`, that baseline measured
/// on the same substrate. Cluster-based references run their baseline on the
/// slower inter-node fabric.
pub(super) fn table3(ctx: &Ctx) -> Result<Outcome> {
    let mut t = Table::new(&[
        "graph",
        "reference",
        "ref hw",
        "ref perf (paper)",
        "baseline here",
        "ours",
        "ours vs baseline",
    ]);
    /// A row whose baseline is a re-implemented system; returns ours / baseline.
    fn vs_system(t: &mut Table, cells: [&str; 4], base: f64, ours: f64, paper: &str) -> f64 {
        let mut row = cells.map(String::from).to_vec();
        row.push(format!("{base:.2} GTEPS"));
        row.push(format!("{ours:.2} GTEPS"));
        row.push(format!("{:.2}x (paper: {paper})", ours / base));
        t.row(&row);
        ours / base
    }
    let mut vs_hardwired = Vec::new();
    let mut vs_2d = Vec::new();

    // --- Enterprise (Liu & Huang): hardwired DOBFS, {2,4} GPUs ---
    let kron = ctx.graph("kron_n24_32");
    for (n, ref_perf, paper_ratio) in [(2usize, "15 GTEPS", "5.18x"), (4, "18 GTEPS", "3.76x")] {
        let mut dist = round_robin(&kron, n);
        dist.build_cscs();
        let (hw, _) = HardwiredDobfs::default().run(&mut ctx.k40s(n), &dist, pick_source(&kron))?;
        let ours = ctx.run(Primitive::Dobfs, &kron, n)?;
        let cells = ["kron_n24_32", "Enterprise", &format!("{n}xK40"), ref_perf];
        vs_hardwired.push(vs_system(
            &mut t,
            cells,
            hw.gteps(kron.n_edges()),
            ours.gteps(),
            paper_ratio,
        ));
    }

    // --- B40C (Merrill): expand-contract BFS without DO, 4 GPUs ---
    let rm = ctx.graph("rmat_2Mv_128Me");
    let ours_do = ctx.run(Primitive::Dobfs, &rm, 4)?;
    let ours_bfs = ctx.run(Primitive::Bfs, &rm, 4)?;
    let do_gain = ours_do.gteps() / ours_bfs.gteps();
    t.row(&[
        "rmat_2Mv_128Me".into(),
        "B40C (Merrill)".into(),
        "4xK40".into(),
        "11.2 GTEPS".into(),
        format!("{:.2} GTEPS (our plain BFS)", ours_bfs.gteps()),
        format!("{:.2} GTEPS (DOBFS)", ours_do.gteps()),
        format!("{do_gain:.2}x (paper: 2.67x)"),
    ]);

    // --- 2D-partitioned cluster BFS (Fu; Bisson; Bernaschi analogs) ---
    for (name, reference, refhw, refperf, paper_ratio) in [
        ("kron_n23_32", "Fu et al. (2D)", "2xK20 x2 nodes", "6.3 GTEPS", "4.43x"),
        ("kron_n25_32", "Fu et al. (2D)", "2xK20 x32 nodes", "22.7 GTEPS", "1.41x"),
        ("kron_n23_16", "Bernaschi (2D)", "1xK20X x4 nodes", "~1.3 GTEPS", "23.7x"),
        ("kron_n25_16", "Bernaschi (2D)", "1xK20X x16 nodes", "~3.2 GTEPS", "9.69x"),
    ] {
        let g = ctx.graph(name);
        // the 2D mechanism on a cluster fabric
        let scale = overhead_scale(ctx.shift);
        let mut sys = SimSystem::new(
            vec![HardwareProfile::k40().with_overhead_scale(scale); 4],
            Interconnect::cluster(4).with_latency_scale(scale),
        )?;
        let (b2d, _) = Bfs2d::for_gpus(4).run(&mut sys, &g, pick_source(&g))?;
        let ours = ctx.run(Primitive::Dobfs, &g, 4)?;
        let cells = [name, reference, refhw, refperf];
        vs_2d.push(vs_system(&mut t, cells, b2d.gteps(g.n_edges()), ours.gteps(), paper_ratio));
    }

    // --- Bisson twitter-scale, time-based row (Bebee) ---
    let tw = ctx.graph("twitter-mpi");
    let ours = ctx.run(Primitive::Dobfs, &tw, 3)?;
    t.row(&[
        "twitter-mpi".into(),
        "Bebee (Blazegraph)".into(),
        "1xK40 x16 nodes".into(),
        "224.2 ms".into(),
        "-".into(),
        fmt_us(ours.report.sim_time_us),
        "(paper: 2.38x)".into(),
    ]);

    let mut out = Outcome::default();
    out.table(
        format!(
            "vs previous in-core GPU BFS (analogs at shift {}). Absolute GTEPS shrink with the \
             analog scale\n(smaller graphs are overhead-bound); the mechanism ratios in the last \
             column are the comparable quantity.",
            ctx.shift
        ),
        t,
    );
    let least = span(vs_hardwired.iter().chain(&vs_2d).copied()).0;
    out.check(
        "ours beats the re-implemented baseline on every row that has one",
        least > 1.0,
        format!("smallest ours / baseline {least:.2}x over 6 rows"),
    );
    let (lo, hi) = span(vs_2d);
    out.check(
        "the 2D-partitioned BFS deficit lies inside the paper's reported 1.4-23.7x band",
        lo >= 1.4 && hi <= 23.7,
        format!("{lo:.2}x to {hi:.2}x"),
    );
    out.check(
        "direction optimization pays on Merrill-parameter rmat: DOBFS over plain BFS > 1x",
        do_gain > 1.0,
        format!("{do_gain:.2}x (paper: 2.67x)"),
    );
    Ok(out)
}

/// Table IV — the GraphReduce-like out-of-core GAS engine of `mgpu-baselines`
/// against our in-core framework on the same analogs, and the unmodified
/// primitives on a Totem-like hybrid CPU+GPU system against an all-GPU node
/// of the same processor count.
pub(super) fn table4(ctx: &Ctx) -> Result<Outcome> {
    let mut t = Table::new(&[
        "graph",
        "algo",
        "reference (paper)",
        "out-of-core here",
        "ours (in-core)",
        "in-core speedup",
    ]);
    let mut least = f64::INFINITY;
    let mut pr_is_smallest = true;
    for (name, reference) in [
        ("uk-2002", "GraphReduce 1xK40: {49, 80, 153, 162} s"),
        ("twitter-rv", "Frog 1xK40: {46, 40, 29, 80} s"),
        ("LiveJournal1", "Frog 1xK40: {66.4, 245, 213, 105} ms"),
    ] {
        let g = ctx.weighted(&dataset(name), 0x77);
        let src = pick_source(&g);
        let mut margins = Vec::new();
        for prim in [Primitive::Bfs, Primitive::Sssp, Primitive::Cc, Primitive::Pr] {
            let mut engine = OocEngine::k40_scaled(ctx.shift);
            let ooc_us = match prim {
                Primitive::Bfs => engine.run(&g, &OocBfs, Some(src))?.0,
                Primitive::Sssp => engine.run(&g, &OocSssp, Some(src))?.0,
                Primitive::Cc => engine.run(&g, &OocCc, None)?.0,
                _ => engine.run(&g, &OocPagerank::default(), None)?.0,
            }
            .sim_time_us;
            let ours_us = ctx.sim_us(prim, &g, 1)?;
            margins.push(ooc_us / ours_us);
            t.row(&[
                name.into(),
                prim.name().into(),
                reference.into(),
                fmt_us(ooc_us),
                fmt_us(ours_us),
                format!("{:.0}x", ooc_us / ours_us),
            ]);
        }
        least = least.min(span(margins.iter().copied()).0);
        pr_is_smallest &= margins[..3].iter().all(|&m| m > margins[3]);
    }

    // --- Totem row: 2 CPUs + 2 GPUs vs our 4 GPUs ---
    let g = ctx.weighted(&dataset("twitter-mpi"), 0x77);
    let dist_h = DistGraph::partition(&g, &DegreePartitioner::default(), 3, Duplication::All);
    let sys_h = hybrid_system(2, HardwareProfile::k40(), overhead_scale(ctx.shift))?;
    let hybrid_us = Runner::new(sys_h, &dist_h, Bfs::default(), EnactConfig::default())?
        .enact(Some(pick_source(&g)))?
        .sim_time_us;
    let ours_us = ctx.sim_us(Primitive::Bfs, &g, 4)?;
    let mut t2 = Table::new(&["config", "BFS time", "paper"]);
    t2.row(&[
        "Totem-like hybrid (CPU+2xK40)".into(),
        fmt_us(hybrid_us),
        "0.698 s (2xK40+2xXeon, twitter-mpi)".into(),
    ]);
    t2.row(&["ours 4xK40".into(), fmt_us(ours_us), "0.0785 s".into()]);

    let mut out = Outcome::default();
    out.table(format!("vs out-of-core GPU / CPU systems (analogs at shift {})", ctx.shift), t);
    out.table("Totem comparison (same processor count: 2 Xeon + 2 K40 hybrid vs 4x K40):", t2);
    out.check(
        "in-core beats out-of-core by >= 8x on all 12 rows when the graph fits in device memory",
        least >= 8.0,
        format!("smallest margin {least:.1}x"),
    );
    out.check(
        "PR has the smallest in-core margin on each graph (its per-iteration compute is the \
         largest share)",
        pr_is_smallest,
        "PR vs BFS, SSSP, CC per graph".into(),
    );
    out.check(
        "the all-GPU node beats the hybrid at equal processor count",
        ours_us < hybrid_us,
        format!("hybrid / all-GPU = {:.1}x (paper: 8.9x)", hybrid_us / ours_us),
    );
    Ok(out)
}

/// GTEPS of BFS from the hub of `g` on `n` scaled K40s, at `g`'s id widths.
fn bfs_gteps<V: Id, O: Id>(ctx: &Ctx, g: &Csr<V, O>, n: usize) -> Result<f64> {
    let dist = round_robin(g, n);
    let mut runner = Runner::new(ctx.k40s(n), &dist, Bfs::default(), EnactConfig::default())?;
    Ok(runner.enact(Some(pick_source(g)))?.gteps(g.n_edges()))
}

/// Table V — BFS and PR on the friendster / sk-2005 analogs (4 GPUs), then
/// BFS on rmat_n24_32 with the paper's three id-width configurations. The
/// paper measures {67.6, 52.6, 33.9} GTEPS, the bandwidth ratio.
pub(super) fn table5(ctx: &Ctx) -> Result<Outcome> {
    let mut t = Table::new(&["graph", "algo", "ours (analog)", "x2^shift est.", "paper"]);
    for (name, algo, paper) in [
        ("friendster", "BFS", "339 ms"),
        ("friendster", "PR (per iter)", "1024 ms/iter"),
        ("sk-2005", "BFS", "2717 ms"),
        ("sk-2005", "PR (per iter)", "154 ms/iter"),
    ] {
        let g = ctx.graph(name);
        let (us, suffix) = if algo == "BFS" {
            (ctx.sim_us(Primitive::Bfs, &g, 4)?, "")
        } else {
            let dist = round_robin(&g, 4);
            let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 10 };
            let report =
                Runner::new(ctx.k40s(4), &dist, pr, EnactConfig::default())?.enact(None)?;
            (report.sim_time_us / report.iterations.max(1) as f64, "/iter")
        };
        let scaled_up = us * (1u64 << ctx.shift) as f64;
        t.row(&[
            name.into(),
            algo.into(),
            format!("{}{suffix}", fmt_us(us)),
            format!("{}{suffix}", fmt_us(scaled_up)),
            paper.into(),
        ]);
    }

    let coo = dataset("rmat_n24_32").generate(ctx.shift, ctx.seed);
    let g32e: Csr<u32, u32> = GraphBuilder::undirected(&coo);
    let g64e: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let coo64 = Coo::<u64>::from_edges(
        coo.n_vertices,
        coo.edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect(),
        None,
    );
    let g64v: Csr<u64, u64> = GraphBuilder::undirected(&coo64);
    let r32e = bfs_gteps(ctx, &g32e, 4)?;
    let r64e = bfs_gteps(ctx, &g64e, 4)?;
    let r64v = bfs_gteps(ctx, &g64v, 4)?;
    let mut t2 =
        Table::new(&["id widths", "ours GTEPS", "relative", "paper GTEPS", "paper relative"]);
    for (label, gteps, paper, paper_rel) in [
        ("32-bit eID", r32e, "67.6", "1.00x"),
        ("64-bit eID", r64e, "52.6", "0.78x"),
        ("64-bit vID", r64v, "33.9", "0.50x"),
    ] {
        t2.row(&[
            label.into(),
            format!("{gteps:.2}"),
            format!("{:.2}x", gteps / r32e),
            paper.into(),
            paper_rel.into(),
        ]);
    }

    let mut out = Outcome::default();
    out.table(format!("Large graphs on 4 GPUs (analogs at shift {})", ctx.shift), t);
    out.table("Id-width cost on rmat_n24_32 (BFS, 4 GPUs):", t2);
    out.check(
        "64-bit edge ids cost about the paper's 0.78x: relative GTEPS in [0.70, 0.90]",
        (0.70..=0.90).contains(&(r64e / r32e)),
        format!("{:.2}x", r64e / r32e),
    );
    out.check(
        "64-bit vertex ids double per-edge bandwidth and halve GTEPS: relative in [0.45, 0.55]",
        (0.45..=0.55).contains(&(r64v / r32e)),
        format!("{:.2}x", r64v / r32e),
    );
    Ok(out)
}
