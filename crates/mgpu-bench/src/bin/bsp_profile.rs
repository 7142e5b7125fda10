//! BSP cost-attribution study — where the simulated milliseconds go.
//!
//! Runs BFS, SSSP and CC at 2/4/8 GPUs under the direct and butterfly
//! broadcast topologies with structured tracing enabled, folds every trace
//! into the per-device/per-superstep attribution tables, and verifies the
//! exact trace↔report reconciliation invariant for every configuration —
//! any bitwise mismatch between the profiled `W + H·g + S·l` buckets and
//! the `EnactReport` counters aborts the binary with a non-zero exit.
//!
//! With `--json-out FILE` the rows are written as JSON (the CI trace job
//! archives `BENCH_profile.json`).

use std::process::ExitCode;

use mgpu_bench::{pick_source, run_primitive, BenchArgs, Primitive, Table};
use mgpu_core::{CommTopology, EnactConfig, Json, Profile};
use mgpu_graph::Csr;
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::GraphBuilder;
use mgpu_partition::RandomPartitioner;
use vgpu::HardwareProfile;

struct Row {
    primitive: &'static str,
    gpus: usize,
    topology: &'static str,
    supersteps: usize,
    sim_ms: f64,
    w_ms: f64,
    c_ms: f64,
    h_ms: f64,
    sync_ms: f64,
    wait_ms: f64,
    events: usize,
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    println!("BSP cost attribution — traced runs, exact reconciliation enforced\n");

    let ds = Dataset::by_name("soc-orkut").expect("catalog dataset");
    let mut coo = ds.generate(args.shift, args.seed);
    add_paper_weights(&mut coo, args.seed ^ 0xabc);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let _ = pick_source(&g);
    let part = RandomPartitioner { seed: args.seed };

    let prims = [Primitive::Bfs, Primitive::Sssp, Primitive::Cc];
    let mut rows: Vec<Row> = Vec::new();

    for prim in prims {
        for gpus in [2usize, 4, 8] {
            for &topology in CommTopology::ALL {
                let tname = topology.label();
                let cfg =
                    EnactConfig { tracing: true, comm_topology: topology, ..Default::default() };
                let sys =
                    mgpu_bench::runners::scaled_system(gpus, HardwareProfile::k40(), args.shift);
                let out = run_primitive(prim, &g, sys, &part, cfg).expect("run");
                let trace = out.report.trace.as_ref().expect("tracing was enabled");
                let profile = Profile::from_trace(trace);
                if let Err(e) = profile.reconcile(&out.report) {
                    eprintln!("reconciliation FAILED for {} x{gpus} {tname}: {e}", prim.name());
                    return ExitCode::FAILURE;
                }
                let t = &profile.total;
                rows.push(Row {
                    primitive: prim.name(),
                    gpus,
                    topology: tname,
                    supersteps: profile.n_supersteps(),
                    sim_ms: out.report.sim_time_us / 1e3,
                    w_ms: t.w_us / 1e3,
                    c_ms: t.c_us / 1e3,
                    h_ms: t.h_us / 1e3,
                    sync_ms: t.sync_us / 1e3,
                    wait_ms: t.wait_us / 1e3,
                    events: trace.n_events(),
                });
            }
        }
    }

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
    for r in &rows {
        t.row(&[
            r.primitive.to_string(),
            r.gpus.to_string(),
            r.topology.to_string(),
            r.supersteps.to_string(),
            format!("{:.3}", r.sim_ms),
            format!("{:.3}", r.w_ms),
            format!("{:.3}", r.c_ms),
            format!("{:.3}", r.h_ms),
            format!("{:.3}", r.sync_ms),
            format!("{:.3}", r.wait_ms),
            r.events.to_string(),
        ]);
    }
    t.print();
    println!("\nall {} configurations reconciled exactly", rows.len());

    let ms = |x| Json::rounded(x, 4);
    let doc = Json::obj([
        (
            "rows",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("primitive", r.primitive.into()),
                    ("gpus", r.gpus.into()),
                    ("topology", r.topology.into()),
                    ("supersteps", r.supersteps.into()),
                    ("sim_ms", ms(r.sim_ms)),
                    ("w_ms", ms(r.w_ms)),
                    ("c_ms", ms(r.c_ms)),
                    ("h_ms", ms(r.h_ms)),
                    ("sync_ms", ms(r.sync_ms)),
                    ("wait_ms", ms(r.wait_ms)),
                    ("events", r.events.into()),
                ])
            })),
        ),
        ("reconciled", true.into()),
    ]);

    // The regression gate: every bucket of the W/C/H/S attribution (and the
    // superstep/event counts) must match the committed baseline exactly up
    // to a tight tolerance — these are deterministic simulated costs, so
    // drift in either direction means the substrate changed behavior.
    mgpu_bench::finish_gate("bsp_profile", &args, &doc, 0.005, |cur, base, tol| {
        mgpu_bench::compare_rows(
            cur,
            base,
            &["primitive", "gpus", "topology"],
            &["supersteps", "sim_ms", "w_ms", "c_ms", "h_ms", "sync_ms", "wait_ms", "events"],
            tol,
        )
    })
}
