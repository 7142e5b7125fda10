//! Service throughput benchmark — concurrent multi-tenant query scheduling
//! vs one-at-a-time execution over one shared graph residency.
//!
//! A fixed mix of eight heterogeneous queries (BFS, DOBFS, SSSP, BC, CC,
//! PR, a second BFS source, and a resilient SSSP) runs against a single
//! partitioned hollywood-2009 analog on 4 simulated GPUs, three ways:
//!
//! * `mixed8_lanes4` — the default 4-lane policy (two waves of four);
//! * `mixed8_unbounded` — unbounded lanes (one wave of eight, the ideal
//!   overlap ceiling);
//! * `mixed8_capped` — a per-device `mem_cap` chosen so the admission
//!   ledger must split the mix across extra waves (queue, not fail).
//!
//! The baseline arm for every row is the same service run at `lanes = 1`:
//! strictly serial dispatch of the identical specs. Throughput is measured
//! on *simulated* makespans — each wave costs the max of its members'
//! simulated times, serial costs their sum — because the scheduler's claim
//! is overlap of independent per-query device timelines, not host-thread
//! parallelism (see DESIGN.md §15 for the model and its caveat).
//!
//! Every concurrent outcome is asserted bit-equal (`same_simulation` plus
//! harvested result words) to its serial counterpart before any row is
//! reported — a throughput win that perturbs results would be a bug, not a
//! win. The binary aborts on any mismatch.
//!
//! With `--json-out FILE` rows are written as JSON; with `--baseline FILE`
//! both makespans and speedups are gated (simulated clocks are
//! deterministic, so the tolerance is essentially zero).

use std::process::ExitCode;

use mgpu_bench::service::{build_query_specs, parse_query_list, residency_bytes};
use mgpu_bench::{BenchArgs, Table};
use mgpu_core::{EnactConfig, Json, PressurePolicy, Service, ServicePolicy, ServiceReport};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication, Partitioner, RandomPartitioner};
use vgpu::HardwareProfile;

const GPUS: usize = 4;
const MIX: &str = "bfs,dobfs,sssp,bc,cc,pr,bfs:1,sssp:1@resilient";

struct Row {
    bench: &'static str,
    base_ms: f64,
    opt_ms: f64,
    speedup: f64,
    note: String,
}

/// Assert every query of `conc` is bit-equal to its serial counterpart.
fn assert_bit_equal(serial: &ServiceReport, conc: &ServiceReport, label: &str) {
    assert_eq!(serial.outcomes.len(), conc.outcomes.len());
    for (s, c) in serial.outcomes.iter().zip(conc.outcomes.iter()) {
        assert_eq!(s.query, c.query);
        let (sr, cr) = match (&s.result, &c.result) {
            (Ok(sr), Ok(cr)) => (sr, cr),
            _ => panic!("{label}: query '{}' did not succeed in both arms", s.name),
        };
        assert!(
            sr.same_simulation(cr),
            "{label}: query '{}' report diverged from the serial run",
            s.name
        );
        assert_eq!(
            s.values, c.values,
            "{label}: query '{}' result words diverged from the serial run",
            s.name
        );
    }
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let ds = Dataset::by_name("hollywood-2009").expect("catalog");
    let mut coo = ds.generate(args.shift, args.seed);
    add_paper_weights(&mut coo, args.seed ^ 0xabc);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);

    let part = RandomPartitioner { seed: args.seed };
    let mut dist = DistGraph::partition(&g, &part, GPUS, Duplication::All);
    dist.build_cscs(); // the mix includes DOBFS
    let owner = part.assign(&g, GPUS);

    let descs = parse_query_list(MIX).expect("query mix");
    let specs = build_query_specs(
        &g,
        &dist,
        &owner,
        HardwareProfile::k40(),
        args.shift,
        EnactConfig::default(),
        &descs,
    )
    .expect("build specs");
    let rb = residency_bytes(&dist);
    let fps: Vec<u64> = specs.iter().map(|s| s.footprint_bytes).collect();
    let sum_fp: u64 = fps.iter().sum();
    let max_fp: u64 = fps.iter().copied().max().unwrap_or(0);

    println!(
        "service_bench — {} queries on {} GPUs, |V|={} |E|={} (shift {})\n\
         residency {} B/device, dynamic footprints {}..{} B\n",
        specs.len(),
        GPUS,
        g.n_vertices(),
        g.n_edges(),
        args.shift,
        rb,
        fps.iter().min().unwrap_or(&0),
        max_fp,
    );

    let policy = |lanes: usize, mem_cap: Option<u64>| ServicePolicy {
        seed: args.seed,
        workers: 1,
        lanes,
        mem_cap,
        residency_bytes: rb,
        pressure: PressurePolicy::governed(),
    };

    let serial = Service::new(policy(1, None)).run(&specs);
    assert!(serial.all_ok(), "serial service run failed");

    // A cap that admits any query alone with room to spare but cannot hold
    // the whole mix in one wave even at the soft watermark: the admission
    // ledger must queue, never reject.
    let cap = (rb + max_fp + (sum_fp - max_fp) / 2).max((rb + 2 * max_fp) * 100 / 85) + 1;
    let arms: [(&'static str, ServicePolicy); 3] = [
        ("mixed8_lanes4", policy(4, None)),
        ("mixed8_unbounded", policy(0, None)),
        ("mixed8_capped", policy(0, Some(cap))),
    ];

    let mut rows = Vec::new();
    for (name, pol) in arms {
        let rep = Service::new(pol).run(&specs);
        assert!(rep.all_ok(), "{name}: service run failed");
        assert_bit_equal(&serial, &rep, name);
        let queued = rep.admission.iter().filter(|a| a.queued).count();
        rows.push(Row {
            bench: name,
            base_ms: serial.concurrent_sim_us / 1e3,
            opt_ms: rep.concurrent_sim_us / 1e3,
            speedup: serial.concurrent_sim_us / rep.concurrent_sim_us.max(1e-9),
            note: format!("{} waves, {} queued", rep.waves, queued),
        });
    }

    let mut t = Table::new(&["bench", "serial ms", "concurrent ms", "speedup", "note"]);
    for r in &rows {
        t.row(&[
            r.bench.to_string(),
            format!("{:.3}", r.base_ms),
            format!("{:.3}", r.opt_ms),
            format!("{:.2}x", r.speedup),
            r.note.clone(),
        ]);
    }
    t.print();
    println!(
        "\nAll concurrent outcomes verified bit-equal to the serial dispatch\n\
         (same_simulation + harvested result words, all {} queries per arm).",
        specs.len()
    );

    let ms = |x| Json::rounded(x, 3);
    let doc = Json::obj([(
        "rows",
        Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("bench", r.bench.into()),
                ("base_ms", ms(r.base_ms)),
                ("opt_ms", ms(r.opt_ms)),
                ("speedup", ms(r.speedup)),
            ])
        })),
    )]);

    // Simulated makespans are deterministic: any drift at all is a
    // behavioural change, so the default tolerance is near-zero and the
    // speedup floor is 1.0 — concurrency must never lose to serial.
    mgpu_bench::finish_gate("service_bench", &args, &doc, 1e-6, |cur, base, tol| {
        let mut deltas =
            mgpu_bench::compare_rows(cur, base, &["bench"], &["base_ms", "opt_ms"], tol)?;
        deltas.extend(mgpu_bench::compare_speedups(cur, base, &["bench"], "speedup", tol, 1.0)?);
        Ok(deltas)
    })
}
