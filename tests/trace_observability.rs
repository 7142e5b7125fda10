//! Golden-trace regression suite for superstep-level observability.
//!
//! The structured trace is part of the determinism contract: because every
//! span carries *simulated* clocks recorded at the exact charge sites that
//! bump the BSP counters, a trace is a pure function of the workload —
//! bit-identical across kernel-thread counts and repeated runs, and its
//! serialized JSONL form byte-identical. These tests pin that contract, the
//! exact trace↔report reconciliation invariant (`W + H·g + S·l` folds
//! reproduce the counters and the makespan bitwise) across every primitive
//! × communication strategy × GPU count × collective topology, and the
//! zero-cost-when-off guarantee (`same_simulation` holds between traced and
//! untraced runs).

use mgpu_graph_analytics::core::{
    CommStrategy, CommTopology, EnactConfig, EnactReport, Profile, RecoveryPolicy, Runner,
};
use mgpu_graph_analytics::gen::gnm;
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication};
use mgpu_graph_analytics::primitives::{Bfs, Cc, Sssp};
use mgpu_graph_analytics::vgpu::{FaultPlan, HardwareProfile, SimSystem};

const GPU_COUNTS: [usize; 3] = [2, 4, 8];
const COMMS: [Option<CommStrategy>; 2] = [None, Some(CommStrategy::Broadcast)];
const TOPOLOGIES: [CommTopology; 2] = [CommTopology::Direct, CommTopology::Butterfly];

fn graph(seed: u64) -> Csr<u32, u64> {
    let mut coo = gnm(220, 1300, seed);
    add_paper_weights(&mut coo, seed ^ 0x77);
    GraphBuilder::undirected(&coo)
}

fn dist_for(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
    let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
    DistGraph::build(g, owner, n_gpus, Duplication::All)
}

fn config(
    comm: Option<CommStrategy>,
    topology: CommTopology,
    threads: usize,
    tracing: bool,
) -> EnactConfig {
    EnactConfig {
        comm,
        comm_topology: topology,
        kernel_threads: Some(threads),
        tracing,
        ..Default::default()
    }
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
        for topology in TOPOLOGIES {
            let golden = run(prim, &g, 4, config(None, topology, 1, true));
            let golden = golden.trace.as_ref().unwrap().to_jsonl();
            assert!(!golden.is_empty(), "{prim}: empty golden trace");
            for threads in [1usize, 4] {
                let again = run(prim, &g, 4, config(None, topology, threads, true));
                let again = again.trace.as_ref().unwrap().to_jsonl();
                assert_eq!(
                    golden, again,
                    "{prim} {topology:?}: trace not byte-identical at {threads} threads"
                );
            }
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
                for topology in TOPOLOGIES {
                    let report = run(prim, &g, n, config(comm, topology, 4, true));
                    let trace = report.trace.as_ref().unwrap();
                    let profile = Profile::from_trace(trace);
                    profile.reconcile(&report).unwrap_or_else(|e| {
                        panic!("{prim} comm {comm:?} {n} GPUs {topology:?}: {e}")
                    });
                    assert_eq!(
                        profile.n_supersteps(),
                        report.iterations,
                        "{prim} {n} GPUs {topology:?}: per-superstep table not dense"
                    );
                }
            }
        }
    }
}

#[test]
fn reconciliation_attributes_the_whole_makespan() {
    // The profiled makespan *is* sim_time_us, reconstructed from the final
    // sync span — bitwise, not approximately.
    let g = graph(31);
    let report = run("sssp", &g, 4, config(None, CommTopology::Direct, 1, true));
    let profile = Profile::from_trace(report.trace.as_ref().unwrap());
    assert_eq!(profile.makespan_us.to_bits(), report.sim_time_us.to_bits());
    assert!(profile.total.w_us > 0.0);
    assert!(profile.total.sync_us > 0.0);
    assert_eq!(profile.total.kernels, report.totals.kernel_launches);
}

// --- zero-cost when off -------------------------------------------------

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let g = graph(43);
    for prim in ["bfs", "sssp", "cc"] {
        for topology in TOPOLOGIES {
            let off = run(prim, &g, 4, config(None, topology, 4, false));
            let on = run(prim, &g, 4, config(None, topology, 4, true));
            assert!(off.trace.is_none(), "{prim}: untraced run carries a trace");
            assert!(on.trace.is_some(), "{prim}: traced run lost its trace");
            assert!(
                off.same_simulation(&on),
                "{prim} {topology:?}: tracing perturbed the simulation"
            );
        }
    }
}

// --- exporters on real runs ---------------------------------------------

#[test]
fn exporters_emit_well_formed_output_for_a_real_run() {
    let g = graph(61);
    let report = run("bfs", &g, 4, config(None, CommTopology::Direct, 1, true));
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

#[test]
fn an_exhausted_retry_butterfly_fallback_still_reconciles() {
    // Four consecutive faults on one stage link outlast the 1 + 3 attempts
    // the policy allows, so the stage gives up and the superstep degrades
    // to a direct broadcast — and the run goes on. The attempt that gave up
    // occupied the link but delivered nothing; the trace has to say so or
    // its bytes-sent fold overshoots the counters.
    let g = graph(29);
    let dist = dist_for(&g, 4);
    let mut system = SimSystem::homogeneous(4, HardwareProfile::k40());
    let burst = "tfail:0>1@0, tfail:0>1@1, tfail:0>1@2, tfail:0>1@3";
    system.attach_fault_plan(&FaultPlan::parse(burst).unwrap());
    let cfg = EnactConfig {
        recovery: RecoveryPolicy::resilient(),
        ..config(None, CommTopology::Butterfly, 1, true)
    };
    let mut runner = Runner::new(system, &dist, Cc, cfg).unwrap();
    let report = runner.enact(None).unwrap();
    assert_eq!(report.recovery.butterfly_fallbacks, 1);
    assert_eq!(report.recovery.transfer_retries, 3, "the stage burned its budget first");
    let profile = Profile::from_trace(report.trace.as_ref().unwrap());
    profile.reconcile(&report).unwrap();
    assert_eq!(profile.total.retries, 3, "giving up is not a fourth retry");
}
