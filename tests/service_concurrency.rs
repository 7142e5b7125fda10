//! Concurrency-determinism property suite for the multi-tenant query
//! scheduler (`mgpu_core::service`).
//!
//! The service's core claim: scheduling is a *pure function* of
//! `(scheduler seed, submission order)`, and concurrent execution never
//! perturbs any query. Concretely, for a mixed BFS/SSSP/CC/BC/PR workload
//! over one shared residency:
//!
//! * every query's `EnactReport` is `same_simulation`-bit-equal to the
//!   same spec enacted alone, at {2, 4, 8} GPUs × {direct, butterfly}
//!   broadcast topologies, across scheduler seeds;
//! * every query's harvested result words are identical to the solo run's,
//!   and every harvested answer agrees with `primitives::reference`, the
//!   oracle that shares no code with the framework: BFS, SSSP and CC
//!   exactly, BC within `1e-3`, PR within its accuracy contract;
//! * the schedule (waves, admission records) and all aggregates are
//!   identical at every worker-thread count — host threads are a pure
//!   wall-clock knob;
//! * different scheduler seeds may produce different wave packings but
//!   never different per-query results.

use mgpu_bench::service::{
    build_query_specs, check_against_reference, parse_query_list, residency_bytes, QueryDesc,
};
use mgpu_core::{Service, ServicePolicy, ServiceReport};
use mgpu_graph_analytics::core::EnactReport;
use mgpu_graph_analytics::gen::preferential_attachment;
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::vgpu::HardwareProfile;
use mgpu_graph_analytics::core::CommTopology;
use mgpu_graph_analytics::core::EnactConfig;

/// The heterogeneous mix every configuration runs: two traversal sources,
/// a weighted shortest path (plus a resilient-mode copy), centrality,
/// components and ranks — eight queries over both executors.
const MIX: &str = "bfs:0,sssp:1,cc,bc:2,bfs:3,sssp:0,sssp:2@resilient,pr";

fn weighted_graph() -> Csr<u32, u64> {
    let mut coo = preferential_attachment(300, 5, 17);
    add_paper_weights(&mut coo, 9);
    GraphBuilder::undirected(&coo)
}

/// Solo reference: build and enact each spec directly, outside any
/// service, exactly as a single-tenant caller would.
fn solo_runs(specs: &[mgpu_core::QuerySpec<u32>]) -> Vec<(EnactReport, Vec<u64>)> {
    specs
        .iter()
        .map(|s| {
            let mut ex = (s.build)().expect("solo build");
            let rep = ex.enact(s.source).expect("solo enact");
            let values = ex.harvest();
            (rep, values)
        })
        .collect()
}

fn policy(seed: u64, workers: usize, lanes: usize) -> ServicePolicy {
    ServicePolicy { seed, workers, lanes, mem_cap: None, residency_bytes: 0 }
}

/// Assert every outcome of `rep` is bit-equal to its solo counterpart.
fn assert_matches_solo(rep: &ServiceReport, solo: &[(EnactReport, Vec<u64>)], label: &str) {
    assert!(rep.all_ok(), "{label}: all queries must succeed");
    assert_eq!(rep.outcomes.len(), solo.len());
    for (o, (srep, svals)) in rep.outcomes.iter().zip(solo) {
        let crep = o.result.as_ref().expect("ok");
        assert!(
            crep.same_simulation(srep),
            "{label}: query '{}' diverged from its solo run",
            o.name
        );
        assert_eq!(&o.values, svals, "{label}: query '{}' result words diverged", o.name);
    }
}

/// Assert every harvested answer of `rep` against `primitives::reference`
/// (see [`check_against_reference`] for the tolerance of each primitive).
fn assert_matches_reference(
    rep: &ServiceReport,
    g: &Csr<u32, u64>,
    descs: &[QueryDesc],
    specs: &[mgpu_core::QuerySpec<u32>],
    label: &str,
) {
    for ((o, desc), spec) in rep.outcomes.iter().zip(descs).zip(specs) {
        if let Err(e) = check_against_reference(desc.prim, g, spec.source, &o.values) {
            panic!("{label}: '{}' {e}", o.name);
        }
    }
}

/// The schedule fingerprint that must be invariant across worker counts:
/// wave count, per-query wave assignment, admission records, aggregates.
fn schedule_fingerprint(rep: &ServiceReport) -> (usize, Vec<usize>, String, String) {
    (
        rep.waves,
        rep.outcomes.iter().map(|o| o.wave).collect(),
        format!("{:?}", rep.admission),
        format!("{:.6} {:.6}", rep.serial_sim_us, rep.concurrent_sim_us),
    )
}

#[test]
fn concurrent_mixed_queries_are_bit_equal_to_solo_runs_across_the_matrix() {
    let g = weighted_graph();
    let part = RandomPartitioner { seed: 3 };
    for gpus in [2usize, 4, 8] {
        for topology in [CommTopology::Direct, CommTopology::Butterfly] {
            let mut dist = DistGraph::partition(&g, &part, gpus, Duplication::All);
            dist.build_cscs(); // the mix includes BC
            let config = EnactConfig { comm_topology: topology, ..Default::default() };
            let descs = parse_query_list(MIX).unwrap();
            let specs =
                build_query_specs(&g, &dist, HardwareProfile::k40(), 0, config, &descs).unwrap();
            let solo = solo_runs(&specs);
            for seed in [0u64, 7, 99] {
                let label = format!("gpus={gpus} topo={topology:?} seed={seed}");
                let rep = Service::new(policy(seed, 1, 3)).run(&specs);
                assert_matches_solo(&rep, &solo, &label);
                assert_matches_reference(&rep, &g, &descs, &specs, &label);
                assert!(rep.waves >= 3, "{label}: 8 queries over 3 lanes need >= 3 waves");
            }
        }
    }
}

#[test]
fn schedule_and_aggregates_are_invariant_across_worker_threads() {
    let g = weighted_graph();
    let part = RandomPartitioner { seed: 3 };
    let mut dist = DistGraph::partition(&g, &part, 4, Duplication::All);
    dist.build_cscs(); // the mix includes BC
    let descs = parse_query_list(MIX).unwrap();
    let specs =
        build_query_specs(&g, &dist, HardwareProfile::k40(), 0, EnactConfig::default(), &descs)
            .unwrap();
    for seed in [0u64, 42] {
        let one = Service::new(policy(seed, 1, 3)).run(&specs);
        let four = Service::new(policy(seed, 4, 3)).run(&specs);
        assert_matches_reference(&one, &g, &descs, &specs, &format!("seed {seed}"));
        assert_eq!(
            schedule_fingerprint(&one),
            schedule_fingerprint(&four),
            "seed {seed}: schedule must not depend on worker count"
        );
        for (a, b) in one.outcomes.iter().zip(four.outcomes.iter()) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(ra.same_simulation(rb), "query '{}' varied with workers", a.name);
            assert_eq!(a.values, b.values);
        }
    }
}

#[test]
fn scheduler_seeds_repack_waves_but_never_change_results() {
    let g = weighted_graph();
    let part = RandomPartitioner { seed: 3 };
    let mut dist = DistGraph::partition(&g, &part, 2, Duplication::All);
    dist.build_cscs(); // the mix includes BC
    let descs = parse_query_list(MIX).unwrap();
    let specs =
        build_query_specs(&g, &dist, HardwareProfile::k40(), 0, EnactConfig::default(), &descs)
            .unwrap();
    let solo = solo_runs(&specs);
    let mut packings = std::collections::HashSet::new();
    for seed in 0u64..6 {
        let rep = Service::new(policy(seed, 1, 2)).run(&specs);
        assert_matches_solo(&rep, &solo, &format!("seed {seed}"));
        assert_matches_reference(&rep, &g, &descs, &specs, &format!("seed {seed}"));
        packings.insert(rep.outcomes.iter().map(|o| o.wave).collect::<Vec<_>>());
        // Re-running the same seed reproduces the identical schedule.
        let again = Service::new(policy(seed, 1, 2)).run(&specs);
        assert_eq!(schedule_fingerprint(&rep), schedule_fingerprint(&again));
    }
    assert!(
        packings.len() > 1,
        "six seeds over 2-lane waves should produce at least two distinct packings"
    );
}

#[test]
fn service_reports_carry_per_query_admission_and_bsp_attribution() {
    let g = weighted_graph();
    let part = RandomPartitioner { seed: 3 };
    let dist = DistGraph::partition(&g, &part, 2, Duplication::All);
    let descs: Vec<QueryDesc> = parse_query_list("bfs:0,cc").unwrap();
    // Per-query BSP attribution rides the trace.
    let config = EnactConfig { tracing: true, ..Default::default() };
    let specs = build_query_specs(&g, &dist, HardwareProfile::k40(), 0, config, &descs).unwrap();
    let rb = residency_bytes(&dist);
    let pol = ServicePolicy { residency_bytes: rb, ..policy(1, 1, 2) };
    let rep = Service::new(pol).run(&specs);
    assert!(rep.all_ok());
    assert_eq!(rep.admission.len(), 2, "one admission record per query");
    for (a, o) in rep.admission.iter().zip(rep.outcomes.iter()) {
        assert_eq!(a.query, o.query);
        assert!(!a.rejected);
        assert!(a.estimated_bytes > rb, "estimate includes the residency plus a live footprint");
    }
    for o in &rep.outcomes {
        let r = o.result.as_ref().unwrap();
        let trace = r.trace.as_ref().expect("traced run records a per-query trace");
        let profile = mgpu_graph_analytics::core::Profile::from_trace(trace);
        profile.reconcile(r).expect("per-query BSP attribution reconciles with its report");
    }
}
