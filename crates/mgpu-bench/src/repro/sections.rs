//! §V-A, §V-B, §VI-A and the two studies beyond the paper's figures
//! (ablation, scale-out).

use mgpu_core::direction::DirectionConfig;
use mgpu_core::ops::{self, AdvanceMode};
use mgpu_core::{AllocScheme, CommStrategy, EnactConfig, EnactReport, FrontierBufs, Runner};
use mgpu_gen::smallworld::chain;
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::grid2d;
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication};
use mgpu_primitives::{Bfs, Dobfs, Sssp};
use vgpu::{Device, HardwareProfile, Interconnect, Result, SimSystem};

use super::{ordered, round_robin, span, Ctx, Outcome};
use crate::fmt::{fmt_bytes, Table};
use crate::runners::{overhead_scale, pick_source, Primitive};

/// §V-A — H artificially inflated {1, 2, 4, 8}× and latency 10× on a 4-GPU
/// rmat run of BFS, DOBFS and PR, on unscaled K40s. The experiment needs
/// bandwidth-dominated transfers (MB-scale packages, as on the paper's
/// billion-edge graphs), so it scales down less aggressively than the others.
pub(super) fn sec5a(ctx: &Ctx) -> Result<Outcome> {
    let (scale, g) = ctx.rmat(24, 14, 32);
    let run = |prim, h_multiplier: f64, extra_latency_us: f64| -> Result<f64> {
        let mut ic = Interconnect::pcie3(4, 4);
        ic.h_multiplier = h_multiplier;
        ic.extra_latency_us = extra_latency_us;
        let sys = SimSystem::new(vec![HardwareProfile::k40(); 4], ic)?;
        Ok(ctx.run_on(prim, &g, sys)?.report.sim_time_us)
    };

    let mut t = Table::new(&["primitive", "H=1x", "H=2x", "H=4x", "H=8x", "latency 10x"]);
    let mut monotone = true;
    let mut worst_latency = 0.0f64;
    // runtime at H=8x over H=1x: [BFS, DOBFS, PR]
    let mut at_h8 = Vec::new();
    for prim in [Primitive::Bfs, Primitive::Dobfs, Primitive::Pr] {
        let by_h = [
            run(prim, 1.0, 0.0)?,
            run(prim, 2.0, 0.0)?,
            run(prim, 4.0, 0.0)?,
            run(prim, 8.0, 0.0)?,
        ];
        // 10× latency = 9 extra one-way latencies on the peer link (7.5 µs)
        let lat = run(prim, 1.0, 9.0 * 7.5)?;
        let base = by_h[0];
        t.row(&[
            prim.name().to_string(),
            "1.00".into(),
            format!("{:.2}", by_h[1] / base),
            format!("{:.2}", by_h[2] / base),
            format!("{:.2}", by_h[3] / base),
            format!("{:.2}", lat / base),
        ]);
        monotone &= ordered(&by_h, f64::le);
        worst_latency = worst_latency.max(lat / base);
        at_h8.push(by_h[3] / base);
    }

    let mut out = Outcome::default();
    out.table(format!("H sensitivity, rmat 2^{scale}/32, 4 GPUs (runtime, normalized to H=1x)"), t);
    out.check(
        "runtime never drops as H is inflated, for each primitive",
        monotone,
        "H = 1x, 2x, 4x, 8x per primitive".into(),
    );
    out.check(
        "a 10x latency increase makes no appreciable difference: at most 1.3x",
        worst_latency <= 1.3,
        format!("largest {worst_latency:.2}x"),
    );
    out.check(
        "deviation, asserted: DOBFS is not the most H-sensitive — its frontiers cross the wire \
         as bitmaps — PR is",
        at_h8[2] > at_h8[1] && at_h8[2] > at_h8[0],
        format!("at H=8x: BFS {:.2}, DOBFS {:.2}, PR {:.2}", at_h8[0], at_h8[1], at_h8[2]),
    );
    Ok(out)
}

/// §V-B — BFS on a chain visits one vertex and one edge per iteration, so
/// the per-iteration time *is* `l`. Unscaled K40s; a contiguous partition so
/// the chain still advances one hop per superstep wherever the frontier lives.
pub(super) fn sec5b(ctx: &Ctx) -> Result<Outcome> {
    let len = 1usize << (12u32.saturating_sub(ctx.shift / 4).max(8));
    let g: Csr<u32, u64> = GraphBuilder::undirected(&chain(len));
    let paper = [66.8, 124.0, 142.0, 188.0];
    let mut t = Table::new(&["GPUs", "iterations", "total", "per-iteration", "paper"]);
    let mut per_iter = Vec::new();
    for n in 1..=4usize {
        let owner: Vec<u32> = (0..len).map(|v| (v * n / len).min(n - 1) as u32).collect();
        let dist = DistGraph::build(&g, owner, n, Duplication::All);
        let system = SimSystem::homogeneous(n, HardwareProfile::k40());
        let report = Runner::new(system, &dist, Bfs::default(), EnactConfig::default())?
            .enact(Some(0u32))?;
        per_iter.push(report.sim_time_us / report.iterations.max(1) as f64);
        t.row(&[
            format!("{n}"),
            format!("{}", report.iterations),
            format!("{:.1} ms", report.sim_time_us / 1e3),
            format!("{:.1} µs", per_iter[n - 1]),
            format!("{:.1} µs", paper[n - 1]),
        ]);
    }

    let mut out = Outcome::default();
    out.table(format!("Per-iteration overhead, chain of {len} vertices"), t);
    let off = span(per_iter[1..].iter().zip(&paper[1..]).map(|(m, p)| (m / p - 1.0).abs())).1;
    out.check(
        "the 2-, 3- and 4-GPU per-iteration times are each within 12% of the paper's",
        off <= 0.12,
        format!("furthest {:.1}% off", off * 100.0),
    );
    let k40 = HardwareProfile::k40();
    let lone = k40.superstep_api_us + k40.kernel_launch_us;
    out.check(
        "deviation, asserted: the 1-GPU iteration is the superstep API overhead plus one fused \
         launch, 13% under the paper's — a lone device pays no other per-iteration cost here, \
         and the one the model names, a host read-back (25 µs over the host-staged link), is \
         outside the 0.8-8.0 µs that would put all four rows within 12%",
        (per_iter[0] - lone).abs() < 0.05,
        format!("{:.3} µs vs {lone:.1} µs, paper {:.1} µs", per_iter[0], paper[0]),
    );
    let steps: Vec<f64> = per_iter.windows(2).map(|w| w[1] - w[0]).collect();
    out.check(
        "the 1 -> 2 GPU step (inter-GPU synchronization) is the largest",
        steps[0] > steps[1] && steps[0] > steps[2],
        format!("steps {:.1}, {:.1}, {:.1} µs", steps[0], steps[1], steps[2]),
    );
    Ok(out)
}

/// §VI-A — `do_a` × `do_b` swept for DOBFS on the soc-orkut analog across
/// 1/2/4 unscaled K40s. Tiny `do_a` switches to pull almost immediately; huge
/// `do_a` never switches (plain BFS); huge `do_b` snaps back to push at once.
pub(super) fn sec6a(ctx: &Ctx) -> Result<Outcome> {
    let g = ctx.graph("soc-orkut");
    let do_as = [0.0001, 0.01, 1.0, 1e6];
    let do_bs = [0.001, 0.1, 10.0];
    let mut out = Outcome::default();
    let mut best_cells = Vec::new();
    let mut never_switch_slowest = true;
    for n in [1usize, 2, 4] {
        let mut dist = round_robin(&g, n);
        dist.build_cscs();
        let mut t = Table::new(&["do_a \\ do_b", "0.001", "0.1", "10.0"]);
        let mut best = (f64::INFINITY, 0.0, 0.0);
        // (fastest, slowest) cell of each do_a row
        let mut rows = Vec::new();
        for &do_a in &do_as {
            let mut cells = vec![format!("{do_a}")];
            let (mut fastest, mut slowest) = (f64::INFINITY, 0.0f64);
            for &do_b in &do_bs {
                let system = SimSystem::homogeneous(n, HardwareProfile::k40());
                let dobfs = Dobfs { direction: DirectionConfig { do_a, do_b } };
                let us = Runner::new(system, &dist, dobfs, EnactConfig::default())?
                    .enact(Some(pick_source(&g)))?
                    .sim_time_us;
                if us < best.0 {
                    best = (us, do_a, do_b);
                }
                (fastest, slowest) = (fastest.min(us), slowest.max(us));
                cells.push(format!("{:.2}", us / 1e3));
            }
            rows.push((fastest, slowest));
            t.row(&cells);
        }
        never_switch_slowest &= rows[..3].iter().all(|r| r.1 < rows[3].0);
        best_cells.push((best.1, best.2));
        out.table(format!("--- {n} GPU(s): best (do_a={}, do_b={}) ---", best.1, best.2), t);
    }
    out.check(
        "the thresholds are mGPU-independent: the best (do_a, do_b) cell is identical at 1, 2 \
         and 4 GPUs",
        best_cells.windows(2).all(|w| w[0] == w[1]),
        format!("best cells {best_cells:?}"),
    );
    out.check(
        "never switching (do_a = 1e6, plain BFS) is the slowest row at every GPU count",
        never_switch_slowest,
        "its fastest cell against the slowest cell of every other row".into(),
    );
    Ok(out.headed("DOBFS do_a/do_b sweep on soc-orkut analog (runtime in ms)".into()))
}

/// Ablation — the design choices DESIGN.md calls out, isolated: kernel
/// fusion (§VI-C), load-balanced advance (§II-B), communication strategy
/// (§III-C) and SSSP's distance-ordered relaxation against BFS's hop order
/// on a deep road analog (the high-diameter regime of §II-A).
pub(super) fn ablation(ctx: &Ctx) -> Result<Outcome> {
    let (scale, g) = ctx.rmat(18, 12, 16);
    let part = ctx.random();
    let dist = DistGraph::partition(&g, &part, 4, Duplication::All);
    let bfs = |config: EnactConfig| -> Result<EnactReport> {
        Runner::new(ctx.k40s(4), &dist, Bfs::default(), config)?.enact(Some(pick_source(&g)))
    };
    let mut out = Outcome::default();

    // ---------- 1. kernel fusion ----------
    let mut t = Table::new(&["pipeline", "kernel launches", "peak mem/GPU", "sim time (ms)"]);
    let mut fusion = Vec::new();
    for (label, scheme) in [
        ("advance→filter (unfused, max alloc)", AllocScheme::Max),
        ("fused advance+filter", AllocScheme::PreallocFusion { sizing_factor: 1.0 }),
    ] {
        let r = bfs(EnactConfig { alloc_scheme: Some(scheme), ..Default::default() })?;
        t.row(&[
            label.into(),
            format!("{}", r.totals.kernel_launches),
            fmt_bytes(r.peak_memory_per_device),
            format!("{:.3}", r.sim_time_us / 1e3),
        ]);
        fusion.push((r.totals.kernel_launches, r.peak_memory_per_device));
    }
    out.table(format!("1. Kernel fusion (BFS, 4 GPUs, rmat 2^{scale}/16)"), t);
    out.check(
        "fusion cuts launches and the intermediate buffer: fused < unfused in both",
        fusion[1].0 < fusion[0].0 && fusion[1].1 < fusion[0].1,
        format!(
            "launches {} vs {}, peak {} vs {}",
            fusion[1].0,
            fusion[0].0,
            fmt_bytes(fusion[1].1),
            fmt_bytes(fusion[0].1)
        ),
    );

    // ---------- 2. load-balanced vs thread-mapped advance ----------
    let mut t = Table::new(&["frontier", "load-balanced (µs)", "thread-mapped (µs)", "penalty"]);
    let uniform: Csr<u32, u64> = GraphBuilder::undirected(&grid2d(128, 128, 1.0, ctx.seed));
    let mut penalty = Vec::new();
    for (label, graph) in [("rmat (power-law)", &g), ("grid (uniform)", &uniform)] {
        let dist = DistGraph::build(graph, vec![0; graph.n_vertices()], 1, Duplication::All);
        let sub = &dist.parts[0];
        let frontier: Vec<u32> = (0..graph.n_vertices() as u32).collect();
        let time = |mode| -> Result<f64> {
            let mut dev = Device::new(0, HardwareProfile::k40());
            let mut bufs =
                FrontierBufs::new(&mut dev, AllocScheme::Max, sub.n_vertices(), sub.n_edges())?;
            ops::advance_with_mode(&mut dev, sub, &mut bufs, &frontier, mode, |_, _, d| Some(d))?;
            Ok(dev.now())
        };
        let (lb, tm) = (time(AdvanceMode::LoadBalanced)?, time(AdvanceMode::ThreadMapped)?);
        t.row(&[label.into(), format!("{lb:.1}"), format!("{tm:.1}"), format!("{:.1}x", tm / lb)]);
        penalty.push(tm / lb);
    }
    out.table("2. Advance work mapping (single full-frontier advance, 1 GPU)", t);
    out.check(
        "thread mapping only hurts on skewed frontiers: >= 10x on the power-law frontier, \
         within 10% on the grid",
        penalty[0] >= 10.0 && (penalty[1] - 1.0).abs() <= 0.1,
        format!("power-law {:.1}x, grid {:.2}x", penalty[0], penalty[1]),
    );

    // ---------- 3. selective vs broadcast communication ----------
    let mut t = Table::new(&["strategy", "H (vertices)", "H (bytes)", "sim time (ms)"]);
    let mut h_vertices = Vec::new();
    for (label, comm) in [
        ("selective (BFS's choice)", CommStrategy::Selective),
        ("broadcast", CommStrategy::Broadcast),
    ] {
        let r = bfs(EnactConfig { comm: Some(comm), ..Default::default() })?;
        t.row(&[
            label.into(),
            format!("{}", r.totals.h_vertices),
            fmt_bytes(r.totals.h_bytes_sent),
            format!("{:.3}", r.sim_time_us / 1e3),
        ]);
        h_vertices.push(r.totals.h_vertices);
    }
    out.table(
        "3. Communication strategy (BFS, 4 GPUs). Uniform-payload broadcasts compress to \
         bitmaps, so\nbytes can be lower; combine work is what broadcast really costs.",
        t,
    );
    out.check(
        "broadcast touches at least 2x the vertices selective does",
        h_vertices[1] >= 2 * h_vertices[0],
        format!("{} vs {}", h_vertices[1], h_vertices[0]),
    );

    // ---------- 4. SSSP against the hop-order floor ----------
    let side = (1usize << (10u32.saturating_sub(ctx.shift / 2).max(6))).min(512);
    let mut coo = grid2d(side, side, 1.0, ctx.seed);
    add_paper_weights(&mut coo, ctx.seed + 1);
    let road: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let dist = DistGraph::partition(&road, &part, 2, Duplication::All);
    // BFS ignores the weights: one superstep per hop is the fewest any
    // frontier traversal of this lattice can take
    let r_bfs =
        Runner::new(ctx.k40s(2), &dist, Bfs::default(), EnactConfig::default())?.enact(Some(0))?;
    let r_nf = Runner::new(ctx.k40s(2), &dist, Sssp, EnactConfig::default())?.enact(Some(0))?;
    let mut t = Table::new(&["algorithm", "supersteps", "W items", "sim time (ms)"]);
    for (label, r) in [("BFS (hop order)", &r_bfs), ("near/far, adaptive width (Sssp)", &r_nf)] {
        t.row(&[
            label.into(),
            format!("{}", r.iterations),
            format!("{}", r.totals.w_items),
            format!("{:.3}", r.sim_time_us / 1e3),
        ]);
    }
    out.table("4. SSSP against BFS's hop order on a road analog (2 GPUs, weights [0,64])", t);
    out.check(
        "Sssp's adaptive near window keeps a deep weighted traversal near the hop-order floor: \
         within 1.1x BFS's supersteps; deviation: not within 1.25x its sim time — the near \
         window re-relaxes (several times BFS's W items), an excess a per-superstep \
         allocation charge used to dilute",
        r_nf.iterations as f64 <= 1.1 * r_bfs.iterations as f64,
        format!(
            "S {} vs {}, W items {} vs {}, {:.3} ms vs {:.3} ({:.2}x)",
            r_nf.iterations,
            r_bfs.iterations,
            r_nf.totals.w_items,
            r_bfs.totals.w_items,
            r_nf.sim_time_us / 1e3,
            r_bfs.sim_time_us / 1e3,
            r_nf.sim_time_us / r_bfs.sim_time_us,
        ),
    );
    Ok(out)
}

/// Scale-out (§VIII, second "key next step") — at 8 GPUs total, a single
/// node (all-PCIe fabric) against 2- and 4-node arrangements (PCIe inside a
/// node, InfiniBand-class link between nodes) for BFS, DOBFS and PR.
pub(super) fn scaleout(ctx: &Ctx) -> Result<Outcome> {
    let (scale, g) = ctx.rmat(22, 12, 32);
    let s = overhead_scale(ctx.shift);
    let run = |prim, nodes: usize, gpus_per_node: usize| -> Result<f64> {
        let n = nodes * gpus_per_node;
        let ic = if nodes == 1 {
            Interconnect::pcie3(n, 4)
        } else {
            Interconnect::two_level(nodes, gpus_per_node)
        };
        let profile = HardwareProfile::k40().with_overhead_scale(s);
        let sys = SimSystem::new(vec![profile; n], ic.with_latency_scale(s))?;
        Ok(ctx.run_on(prim, &g, sys)?.report.sim_time_us)
    };

    let mut t = Table::new(&[
        "primitive",
        "1 node x 8 GPUs",
        "2 nodes x 4",
        "4 nodes x 2",
        "scale-out penalty",
    ]);
    let mut never_slower = true;
    let mut strictly_faster = true;
    for prim in [Primitive::Bfs, Primitive::Dobfs, Primitive::Pr] {
        let (one, two, four) = (run(prim, 1, 8)?, run(prim, 2, 4)?, run(prim, 4, 2)?);
        t.row(&[
            prim.name().into(),
            format!("{:.3}", one / 1e3),
            format!("{:.3}", two / 1e3),
            format!("{:.3}", four / 1e3),
            format!("{:.2}x at 4 nodes", four / one),
        ]);
        never_slower &= one <= two && one <= four;
        strictly_faster &= prim == Primitive::Bfs || (one < two && one < four);
    }

    let mut out = Outcome::default();
    out.table(format!("8 GPUs total, rmat 2^{scale}/32, runtime in ms"), t);
    out.check(
        "scale up before scaling out: the single node is never slower than 2 or 4 nodes",
        never_slower,
        "3 primitives x 2 arrangements".into(),
    );
    out.check(
        "DOBFS and PR are strictly faster on the single node (BFS ties at printed precision)",
        strictly_faster,
        "2 primitives x 2 arrangements".into(),
    );
    Ok(out)
}
