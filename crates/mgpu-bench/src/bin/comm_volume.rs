//! Comm-volume study — what the wire buys per primitive.
//!
//! Runs DOBFS, SSSP, delta-stepping SSSP and CC at six GPUs on two analog
//! datasets under three arms: `list` (the paper's wire — forced list
//! encoding, nothing suppressed), `default` (`Auto` encoding + monotone
//! send suppression) and `reduced` (the default over the butterfly
//! broadcast collective). Reports simulated milliseconds, total H bytes on
//! the wire, the fraction of sends the suppression cache dropped, and the
//! butterfly stage count.
//!
//! With `--json-out FILE` the same rows are written as JSON (the CI
//! comm-reduction job archives `BENCH_comm.json`).

use std::process::ExitCode;

use mgpu_bench::{
    pick_source, run_multi_source, run_primitive, BenchArgs, MultiSourceMode, Primitive, Table,
};
use mgpu_core::{CommTopology, EnactConfig, EnactReport, Json, Runner, WireEncoding};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_primitives::{MsBfs, SsspDelta};
use vgpu::HardwareProfile;

const GPUS: usize = 6;

/// The three arms, the paper's wire first: every reduction below is
/// measured against it.
fn arms() -> [(&'static str, EnactConfig); 3] {
    let default = EnactConfig::default();
    [
        ("list", EnactConfig { wire_encoding: WireEncoding::List, suppression: false, ..default }),
        ("default", default),
        ("reduced", EnactConfig { comm_topology: CommTopology::Butterfly, ..default }),
    ]
}

struct Row {
    dataset: &'static str,
    primitive: String,
    config: &'static str,
    sim_ms: f64,
    supersteps: u64,
    h_bytes: u64,
    suppressed_pct: f64,
    collective_stages: u64,
}

fn row(dataset: &'static str, primitive: &str, config: &'static str, report: &EnactReport) -> Row {
    let sent = report.totals.h_vertices;
    let supp = report.comm.suppressed_vertices;
    let denom = (sent + supp).max(1);
    Row {
        dataset,
        primitive: primitive.to_string(),
        config,
        sim_ms: report.sim_time_us / 1000.0,
        supersteps: report.iterations as u64,
        h_bytes: report.totals.h_bytes_sent,
        suppressed_pct: 100.0 * supp as f64 / denom as f64,
        collective_stages: report.comm.collective_stages,
    }
}

/// Delta-stepping is not in the `Primitive` CLI enum (it shares SSSP's
/// reference results), so run it directly — it is the one primitive whose
/// sender-side suppression fires.
fn run_sssp_delta(g: &Csr<u32, u64>, seed: u64, shift: u32, cfg: EnactConfig) -> EnactReport {
    let dist = DistGraph::partition(g, &RandomPartitioner { seed }, GPUS, Duplication::All);
    let sys = mgpu_bench::runners::scaled_system(GPUS, HardwareProfile::k40(), shift);
    let mut runner = Runner::new(sys, &dist, SsspDelta::default(), cfg).expect("runner");
    runner.enact(Some(pick_source(g))).expect("enact")
}

/// The batched multi-source engine against the 64-sequential-enact shape it
/// replaces, on the same partition (one `DistGraph`, both modes): the
/// committed rows carry the superstep/byte economics of 8-byte bitfield
/// payloads vs 64 rounds of 4-byte labels.
fn run_ms_bfs(
    g: &Csr<u32, u64>,
    seed: u64,
    shift: u32,
    cfg: EnactConfig,
    mode: MultiSourceMode,
) -> EnactReport {
    let part = RandomPartitioner { seed };
    let sys = mgpu_bench::runners::scaled_system(GPUS, HardwareProfile::k40(), shift);
    let sources = MsBfs::spread_sources(64, g.n_vertices());
    run_multi_source(Primitive::Bfs, g, sys, &part, cfg, &sources, mode).expect("run").report
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    println!(
        "Comm-volume study — paper list wire vs default vs default+butterfly at {GPUS} GPUs\n"
    );

    let datasets = ["rmat_2Mv_128Me", "soc-orkut"];
    let prims = [Primitive::Dobfs, Primitive::Sssp, Primitive::Cc];
    let part = RandomPartitioner { seed: args.seed };
    let mut rows: Vec<Row> = Vec::new();

    for name in datasets {
        let ds = Dataset::by_name(name).expect("catalog dataset");
        let mut coo = ds.generate(args.shift, args.seed);
        add_paper_weights(&mut coo, args.seed ^ 0xabc);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);

        for prim in prims {
            for (cname, cfg) in arms() {
                let sys =
                    mgpu_bench::runners::scaled_system(GPUS, HardwareProfile::k40(), args.shift);
                let out = run_primitive(prim, &g, sys, &part, cfg).expect("run");
                rows.push(row(name, prim.name(), cname, &out.report));
            }
        }
        for (cname, cfg) in arms() {
            let report = run_sssp_delta(&g, args.seed, args.shift, cfg);
            rows.push(row(name, "SSSP(Δ)", cname, &report));
        }
        // The multi-source pair: same partition, same 64 spread sources —
        // "repeated" pays 64 sequential enacts of 4-byte labels, "batched"
        // pays one bitfield sweep of 8-byte lane masks.
        for (cname, mode) in
            [("repeated", MultiSourceMode::Repeated), ("batched", MultiSourceMode::Batched)]
        {
            let report = run_ms_bfs(&g, args.seed, args.shift, EnactConfig::default(), mode);
            rows.push(row(name, "MS-BFS(64)", cname, &report));
        }
    }

    let mut t = Table::new(&[
        "dataset",
        "primitive",
        "config",
        "sim ms",
        "supersteps",
        "H bytes",
        "suppressed %",
        "stages",
    ]);
    for r in &rows {
        t.row(&[
            r.dataset.to_string(),
            r.primitive.clone(),
            r.config.to_string(),
            format!("{:.2}", r.sim_ms),
            format!("{}", r.supersteps),
            format!("{}", r.h_bytes),
            format!("{:.1}", r.suppressed_pct),
            format!("{}", r.collective_stages),
        ]);
    }
    t.print();

    println!("\nByte reduction (first arm / each later arm):");
    for group in rows.chunk_by(|a, b| a.dataset == b.dataset && a.primitive == b.primitive) {
        let base = &group[0];
        for r in &group[1..] {
            println!(
                "  {:>16} {:>10} {:>8}/{:<8}: {:.2}x",
                base.dataset,
                base.primitive,
                base.config,
                r.config,
                base.h_bytes as f64 / r.h_bytes.max(1) as f64
            );
        }
    }

    let doc = Json::obj([
        ("gpus", GPUS.into()),
        (
            "rows",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("dataset", r.dataset.into()),
                    ("primitive", r.primitive.as_str().into()),
                    ("config", r.config.into()),
                    ("sim_ms", Json::rounded(r.sim_ms, 3)),
                    ("supersteps", r.supersteps.into()),
                    ("h_bytes", r.h_bytes.into()),
                    ("suppressed_pct", Json::rounded(r.suppressed_pct, 2)),
                    ("collective_stages", r.collective_stages.into()),
                ])
            })),
        ),
    ]);

    // The regression gate: simulated costs are pure f64 arithmetic and
    // reproduce exactly across machines, so the tolerance is tight — any
    // drift means the cost model's behavior changed and the committed
    // baseline must be refreshed on purpose.
    mgpu_bench::finish_gate("comm_volume", &args, &doc, 0.005, |cur, base, tol| {
        mgpu_bench::compare_rows(
            cur,
            base,
            &["dataset", "primitive", "config"],
            &["sim_ms", "supersteps", "h_bytes", "suppressed_pct", "collective_stages"],
            tol,
        )
    })
}
