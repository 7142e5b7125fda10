//! Golden-trace regression suite for superstep-level observability.
//!
//! The structured trace is part of the determinism contract: because every
//! span carries *simulated* clocks recorded at the exact charge sites that
//! bump the BSP counters, a trace is a pure function of the workload —
//! bit-identical across kernel-thread counts and repeated runs, and its
//! serialized JSONL form byte-identical. These tests pin that contract, the
//! exact trace↔report reconciliation invariant (`W + H·g + S·l` folds
//! reproduce the counters and the makespan bitwise) across every primitive
//! × communication strategy × GPU count, and the
//! zero-cost-when-off guarantee (`same_simulation` holds between traced and
//! untraced runs).

use mgpu_bench::runners::scaled_system;
use mgpu_bench::{run_primitive, Primitive};
use mgpu_graph_analytics::core::{CommStrategy, EnactConfig, EnactReport, Profile, Runner};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, Dataset};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, PartitionerKind};
use mgpu_graph_analytics::primitives::{Bfs, Cc, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

const GPU_COUNTS: [usize; 3] = [2, 4, 8];
const COMMS: [Option<CommStrategy>; 2] = [None, Some(CommStrategy::Broadcast)];

fn graph(seed: u64) -> Csr<u32, u64> {
    let mut coo = gnm(220, 1300, seed);
    add_paper_weights(&mut coo, seed ^ 0x77);
    GraphBuilder::undirected(&coo)
}

fn dist_for(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
    let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
    DistGraph::build(g, owner, n_gpus, Duplication::All)
}

fn config(comm: Option<CommStrategy>, threads: usize, tracing: bool) -> EnactConfig {
    EnactConfig { comm, kernel_threads: Some(threads), tracing, ..Default::default() }
}

/// Run one primitive (selected by name to keep the problem types simple)
/// and return the report.
fn run(prim: &str, g: &Csr<u32, u64>, n_gpus: usize, cfg: EnactConfig) -> EnactReport {
    let dist = dist_for(g, n_gpus);
    let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
    match prim {
        "bfs" => {
            let mut r = Runner::new(system, &dist, Bfs::default(), cfg).unwrap();
            r.enact(Some(0u32)).unwrap()
        }
        "sssp" => {
            let mut r = Runner::new(system, &dist, Sssp, cfg).unwrap();
            r.enact(Some(0u32)).unwrap()
        }
        "cc" => {
            let mut r = Runner::new(system, &dist, Cc, cfg).unwrap();
            r.enact(None).unwrap()
        }
        other => panic!("unknown primitive {other}"),
    }
}

// --- golden traces ------------------------------------------------------

#[test]
fn traces_are_byte_identical_across_kernel_thread_counts_and_runs() {
    let g = graph(17);
    for prim in ["bfs", "sssp", "cc"] {
        let golden = run(prim, &g, 4, config(None, 1, true));
        let golden = golden.trace.as_ref().unwrap().to_jsonl();
        assert!(!golden.is_empty(), "{prim}: empty golden trace");
        for threads in [1usize, 4] {
            let again = run(prim, &g, 4, config(None, threads, true));
            let again = again.trace.as_ref().unwrap().to_jsonl();
            assert_eq!(golden, again, "{prim}: trace not byte-identical at {threads} threads");
        }
    }
}

// --- exact reconciliation ----------------------------------------------

#[test]
fn profiles_reconcile_exactly_for_every_configuration() {
    let g = graph(29);
    for prim in ["bfs", "sssp", "cc"] {
        for comm in COMMS {
            for n in GPU_COUNTS {
                let report = run(prim, &g, n, config(comm, 4, true));
                let trace = report.trace.as_ref().unwrap();
                let profile = Profile::from_trace(trace);
                profile
                    .reconcile(&report)
                    .unwrap_or_else(|e| panic!("{prim} comm {comm:?} {n} GPUs: {e}"));
                assert_eq!(
                    profile.n_supersteps(),
                    report.iterations,
                    "{prim} {n} GPUs: per-superstep table not dense"
                );
            }
        }
    }
}

#[test]
fn reconciliation_attributes_the_whole_makespan() {
    // The profiled makespan *is* sim_time_us, reconstructed from the final
    // sync span — bitwise, not approximately.
    let g = graph(31);
    let report = run("sssp", &g, 4, config(None, 1, true));
    let profile = Profile::from_trace(report.trace.as_ref().unwrap());
    assert_eq!(profile.makespan_us.to_bits(), report.sim_time_us.to_bits());
    assert!(profile.total.w_us > 0.0);
    assert!(profile.total.sync_us > 0.0);
    assert_eq!(profile.total.kernels, report.totals.kernel_launches);
}

#[test]
fn a_deep_road_run_attributes_nothing_to_other() {
    // Steady-state supersteps reuse their frontier buffers, so a fault-free
    // run charges no allocation after bind: every µs of the makespan is W,
    // C, H·g, S·l or barrier wait. The road lattice runs hundreds of
    // near-empty supersteps, where a per-superstep charge would show most.
    let shift = 8;
    let coo = Dataset::by_name("road-analog").unwrap().generate(shift, 42);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let system = scaled_system(2, HardwareProfile::k40(), shift);
    let cfg = EnactConfig { tracing: true, ..Default::default() };
    let partitioner = PartitionerKind::Random.seeded(42);
    let report = run_primitive(Primitive::Bfs, &g, system, &partitioner, cfg).unwrap().report;
    let profile = Profile::from_trace(report.trace.as_ref().unwrap());
    profile.reconcile(&report).unwrap();
    assert!(report.iterations > 100, "a deep run: {} supersteps", report.iterations);
    for (d, row) in profile.per_device.iter().enumerate() {
        assert_eq!(row.other_us, 0.0, "device {d} has unattributed time");
    }
}

// --- zero-cost when off -------------------------------------------------

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let g = graph(43);
    for prim in ["bfs", "sssp", "cc"] {
        let off = run(prim, &g, 4, config(None, 4, false));
        let on = run(prim, &g, 4, config(None, 4, true));
        assert!(off.trace.is_none(), "{prim}: untraced run carries a trace");
        assert!(on.trace.is_some(), "{prim}: traced run lost its trace");
        assert!(off.same_simulation(&on), "{prim}: tracing perturbed the simulation");
    }
}

// --- exporters on real runs ---------------------------------------------

#[test]
fn exporters_emit_well_formed_output_for_a_real_run() {
    let g = graph(61);
    let report = run("bfs", &g, 4, config(None, 1, true));
    let trace = report.trace.as_ref().unwrap();
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.n_events());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad JSONL line: {line}");
    }
    let chrome = trace.to_chrome_json();
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    for dev in 0..4 {
        assert!(chrome.contains(&format!("\"name\":\"GPU {dev}\"")), "missing GPU {dev}");
    }
}
