//! End-to-end tests of graceful degradation under memory pressure: the
//! governor contract of ISSUE 3.
//!
//! * Capacity sweep — BFS / SSSP / CC across communication strategies, with
//!   per-device capacity shrunk step by step: at every feasible capacity the
//!   results are bit-equal to the unconstrained run (slower, never wrong);
//!   below the hard-infeasible floor the run fails with a *typed*
//!   `OutOfMemory`, never a panic or a wrong answer.
//! * Determinism — a memory-starved, governed run is bit-identical across
//!   `kernel_threads` (every governor decision is a function of simulated
//!   pool accounting only).
//! * Accounting — the report itemizes every governor decision (admission
//!   downgrades, chunked passes, spill bytes, reclaim retries), and an
//!   unconstrained run leaves the always-armed governor quiet.
//! * Bind charge — a bind reserves what its problem reads
//!   (`MgpuProblem::reads`), whatever else the residency carries, and the
//!   admission estimate covers what the bind allocates.

use mgpu_graph_analytics::core::governor::estimate_bind;
use mgpu_graph_analytics::core::problem::MgpuProblem;
use mgpu_graph_analytics::core::{AllocScheme, CommStrategy, EnactConfig, EnactReport, Runner};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{reference, Bc, Bfs, Cc, Dobfs, MsBfs, Pagerank, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, Result, SimSystem, VgpuError};

fn graph() -> Csr<u32, u64> {
    GraphBuilder::undirected(&preferential_attachment(400, 6, 11))
}

fn weighted_graph() -> Csr<u32, u64> {
    let mut coo = gnm(300, 1500, 23);
    add_paper_weights(&mut coo, 5);
    GraphBuilder::undirected(&coo)
}

/// One run: 4 devices, optionally capped at `cap` bytes each, requesting the memory-hungriest scheme (`Max`) so the
/// admission chain has something to walk. Returns the report and the
/// harvest words.
fn run_one<P>(
    g: &Csr<u32, u64>,
    problem: P,
    cap: Option<u64>,
    threads: usize,
    comm: Option<CommStrategy>,
    src: Option<u32>,
) -> Result<(EnactReport, Vec<u64>)>
where
    P: MgpuProblem<u32, u64>,
{
    let dist = DistGraph::partition(g, &RandomPartitioner { seed: 3 }, 4, problem.duplication());
    let profile = match cap {
        Some(c) => HardwareProfile::k40().with_capacity(c),
        None => HardwareProfile::k40(),
    };
    let config = EnactConfig {
        alloc_scheme: Some(AllocScheme::Max),
        comm,
        kernel_threads: Some(threads),
        ..Default::default()
    };
    let mut runner = Runner::new(SimSystem::homogeneous(4, profile), &dist, problem, config)?;
    let report = runner.enact(src)?;
    Ok((report, runner.harvest()))
}

/// Shrink per-device capacity from the unconstrained peak toward zero: every
/// feasible capacity must reproduce the unconstrained result exactly; every
/// infeasible one must fail with a typed `OutOfMemory`.
fn capacity_sweep<P>(
    g: &Csr<u32, u64>,
    mk: impl Fn() -> P,
    comm: Option<CommStrategy>,
    src: Option<u32>,
    label: &str,
) where
    P: MgpuProblem<u32, u64>,
{
    let (base, expect) = run_one(g, mk(), None, 1, comm, src).unwrap();
    let full = base.peak_memory_per_device;
    assert!(base.governor.is_quiet(), "{label}: uncapped baseline must be quiet");

    let (mut feasible, mut governed, mut infeasible) = (0u32, 0u32, 0u32);
    let mut cap = full;
    while cap > full / 64 {
        match run_one(g, mk(), Some(cap), 1, comm, src) {
            Ok((r, got)) => {
                assert_eq!(got, expect, "{label} capped at {cap}: degraded run must be exact");
                feasible += 1;
                if !r.governor.is_quiet() {
                    governed += 1;
                }
            }
            Err(VgpuError::OutOfMemory { .. }) => infeasible += 1,
            Err(e) => panic!("{label} capped at {cap}: expected a typed OutOfMemory, got {e}"),
        }
        cap = cap * 3 / 4;
    }
    assert!(feasible >= 2, "{label}: the sweep should find feasible capped capacities");
    assert!(governed >= 1, "{label}: some capacity should force the governor to act");
    assert!(infeasible >= 1, "{label}: tiny capacities must be hard-infeasible");
}

#[test]
fn bfs_capacity_sweep_selective_and_broadcast() {
    let g = graph();
    let expect = reference::bfs(&g, 0u32);
    let (_, words) = run_one(&g, Bfs::default(), None, 1, None, Some(0)).unwrap();
    let labels: Vec<u32> = words.into_iter().map(|w| w as u32).collect();
    assert_eq!(labels, expect, "unconstrained baseline must match the reference");
    capacity_sweep(&g, Bfs::default, None, Some(0), "bfs/selective");
    capacity_sweep(&g, Bfs::default, Some(CommStrategy::Broadcast), Some(0), "bfs/broadcast");
}

#[test]
fn sssp_capacity_sweep() {
    let g = weighted_graph();
    let expect = reference::sssp(&g, 0u32);
    let (_, words) = run_one(&g, Sssp, None, 1, None, Some(0)).unwrap();
    let dists: Vec<u32> = words.into_iter().map(|w| w as u32).collect();
    assert_eq!(dists, expect, "unconstrained baseline must match the reference");
    capacity_sweep(&g, || Sssp, None, Some(0), "sssp/selective");
}

#[test]
fn cc_capacity_sweep() {
    let g = graph();
    let expect = reference::cc(&g);
    let (_, words) = run_one(&g, Cc, None, 1, None, None).unwrap();
    let comps: Vec<usize> = words.into_iter().map(|w| w as usize).collect();
    assert_eq!(comps, expect, "unconstrained baseline must match the reference");
    capacity_sweep(&g, || Cc, None, None, "cc/broadcast");
}

#[test]
fn tight_cap_simulation_is_bit_identical_across_kernel_threads() {
    let g = graph();
    let (base, expect) = run_one(&g, Bfs::default(), None, 1, None, Some(0)).unwrap();
    // Walk down until a capacity actually exercises the governor.
    let mut cap = base.peak_memory_per_device;
    let mut chosen = None;
    while chosen.is_none() {
        match run_one(&g, Bfs::default(), Some(cap), 1, None, Some(0)) {
            Ok((r, l)) if !r.governor.is_quiet() => chosen = Some((cap, r, l)),
            Ok(_) => cap = cap * 3 / 4,
            Err(e) => panic!("hit the infeasible floor before the governor acted: {e}"),
        }
    }
    let (cap, r1, l1) = chosen.unwrap();
    assert_eq!(l1, expect, "starved run must still be exact");
    for threads in [2usize, 4] {
        let (rn, ln) = run_one(&g, Bfs::default(), Some(cap), threads, None, Some(0)).unwrap();
        assert_eq!(ln, l1, "labels at {threads} kernel threads");
        assert!(
            r1.same_simulation(&rn),
            "a governed, memory-starved simulation must be bit-identical across kernel_threads"
        );
    }
}

#[test]
fn report_itemizes_governor_decisions() {
    let g = graph();
    let (base, _) = run_one(&g, Bfs::default(), None, 1, None, Some(0)).unwrap();
    // Half the Max-scheme peak: low enough that the admission chain and/or
    // the mid-run tiers must act, high enough to stay feasible.
    let mut cap = base.peak_memory_per_device / 2;
    let (report, _) = loop {
        match run_one(&g, Bfs::default(), Some(cap), 1, None, Some(0)) {
            Ok(out) if !out.0.governor.is_quiet() => break out,
            Ok(_) => cap = cap * 3 / 4,
            Err(e) => panic!("expected a feasible governed capacity, got {e}"),
        }
    };
    let gov = &report.governor;
    for d in &gov.downgrades {
        assert_eq!(d.kind, "alloc-scheme", "only the enactor records per-device downgrades here");
        assert!(d.device.is_some());
        assert!(d.estimated_bytes > d.budget_bytes, "a downgrade implies the estimate overflowed");
    }
    if gov.chunked_advances > 0 {
        assert!(
            gov.chunk_passes >= 2 * gov.chunked_advances,
            "a chunked advance is by definition multi-pass"
        );
    }
    assert_eq!(gov.spill_events > 0, gov.spilled_bytes > 0, "spill counters move together");
    // per-device memory stats are populated and bounded by the cap
    assert_eq!(report.mem_per_device.len(), 4);
    for m in &report.mem_per_device {
        assert!(m.peak > 0 && m.peak <= cap);
        assert!(m.live <= m.peak);
    }
    // the JSON report carries the governor fields
    let json = report.to_json();
    for key in ["downgrades", "chunked_advances", "spilled_bytes", "reclaim_retries"] {
        assert!(json.contains(&format!("\"{key}\":")), "to_json must carry {key}");
    }
}

#[test]
fn a_loose_cap_leaves_the_governor_quiet() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
    let sys = SimSystem::homogeneous(4, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    let report = runner.enact(Some(0u32)).unwrap();
    let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
    assert_eq!(labels, reference::bfs(&g, 0u32));
    assert!(report.governor.is_quiet(), "an unconstrained run never makes the governor act");
}

/// A sizing factor no pool could hold saturates the admission estimate
/// instead of overflowing it: the bind walks down to just-enough and
/// answers exactly.
#[test]
fn an_absurd_sizing_factor_is_downgraded_not_overflowed() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
    let config = EnactConfig {
        alloc_scheme: Some(AllocScheme::Fixed { sizing_factor: 1e30 }),
        ..Default::default()
    };
    let system = SimSystem::homogeneous(4, HardwareProfile::k40());
    let mut runner = Runner::new(system, &dist, Bfs::default(), config).unwrap();
    assert_eq!(runner.scheme(), AllocScheme::JustEnough);
    let report = runner.enact(Some(0)).unwrap();
    assert_eq!(report.governor.downgrades.len(), 4, "one downgrade per device");
    for d in &report.governor.downgrades {
        assert_eq!((d.from, d.to), ("fixed", "just-enough"));
        assert_eq!(d.estimated_bytes, u64::MAX);
    }
    let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
    assert_eq!(labels, reference::bfs(&g, 0u32));
}

#[test]
fn traced_pressure_run_charges_spills_and_chunks_in_the_trace() {
    use mgpu_graph_analytics::core::Profile;
    let g = graph();
    let traced_run = |cap: Option<u64>, threads: usize, tracing: bool| {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
        let profile = match cap {
            Some(c) => HardwareProfile::k40().with_capacity(c),
            None => HardwareProfile::k40(),
        };
        let config = EnactConfig {
            alloc_scheme: Some(AllocScheme::Max),
            kernel_threads: Some(threads),
            tracing,
            ..Default::default()
        };
        let mut runner =
            Runner::new(SimSystem::homogeneous(4, profile), &dist, Bfs::default(), config).unwrap();
        let report = runner.enact(Some(0u32)).unwrap();
        (report, runner.harvest())
    };
    let (base, expect) = traced_run(None, 1, true);
    assert!(base.trace.is_some());
    // Walk the cap down to a capacity where the governor acts mid-run.
    let mut cap = base.peak_memory_per_device / 2;
    let (report, labels) = loop {
        let out = traced_run(Some(cap), 1, true);
        if !out.0.governor.is_quiet() {
            break out;
        }
        cap = cap * 3 / 4;
    };
    assert_eq!(labels, expect, "starved traced run must still be exact");

    let trace = report.trace.as_ref().unwrap();
    let p = Profile::from_trace(trace);
    p.reconcile(&report).unwrap();
    // Every governor decision in the log is paired with a typed event.
    let gov = &report.governor;
    assert_eq!(p.total.spills, gov.spill_events, "spill charges in trace");
    assert_eq!(p.total.spilled_bytes, gov.spilled_bytes, "spilled bytes in trace");
    assert_eq!(p.total.chunks, gov.chunked_advances, "chunked advances in trace");
    assert_eq!(p.total.downgrades, gov.downgrades.len() as u64, "admission downgrades in trace");
    assert!(
        p.total.spills + p.total.chunks + p.total.downgrades > 0,
        "the governor acted, so the trace must show it"
    );

    // Deterministic across kernel threads, and free when off.
    let (r4, l4) = traced_run(Some(cap), 4, true);
    assert_eq!(l4, labels);
    assert!(report.same_simulation(&r4));
    assert_eq!(trace.to_jsonl(), r4.trace.as_ref().unwrap().to_jsonl());
    let (off, l_off) = traced_run(Some(cap), 1, false);
    assert_eq!(l_off, labels);
    assert!(off.trace.is_none());
    assert!(off.same_simulation(&report), "tracing must not perturb a governed run");
}

// ---------------------------------------------------------------------------
// concurrent admission: the service ledger queues, and rejects only at the
// hard floor
// ---------------------------------------------------------------------------

mod service_admission {
    use super::*;
    use mgpu_bench::service::{build_query_specs, parse_query_list, residency_bytes};
    use mgpu_core::{Service, ServicePolicy};

    const MIX: &str = "bfs:0,sssp:1,cc,bc:2";

    struct Fixture {
        rb: u64,
        fps: Vec<u64>,
    }

    fn with_service<R>(
        mem_cap: Option<u64>,
        f: impl FnOnce(&Fixture, mgpu_core::ServiceReport) -> R,
    ) -> R {
        let g = weighted_graph();
        let part = RandomPartitioner { seed: 3 };
        let mut dist = DistGraph::partition(&g, &part, 2, Duplication::All);
        dist.build_cscs(); // the mix includes BC
        let descs = parse_query_list(MIX).unwrap();
        let specs =
            build_query_specs(&g, &dist, HardwareProfile::k40(), 0, EnactConfig::default(), &descs)
                .unwrap();
        let rb = residency_bytes(&dist);
        let fx = Fixture { rb, fps: specs.iter().map(|s| s.footprint_bytes).collect() };
        let pol = ServicePolicy {
            seed: 11,
            workers: 1,
            lanes: 0, // admission budget, not lane count, shapes the waves
            mem_cap,
            residency_bytes: rb,
        };
        f(&fx, Service::new(pol).run(&specs))
    }

    /// A cap that holds any one query comfortably but not the whole mix:
    /// the ledger splits the mix across waves — every query queued past
    /// wave 0 still runs and still answers exactly.
    #[test]
    fn a_tight_cap_queues_queries_instead_of_failing_them() {
        // Uncapped baseline for the exact results.
        let baseline = with_service(None, |_, rep| {
            assert!(rep.all_ok());
            assert_eq!(rep.waves, 1, "no cap, unbounded lanes: one wave");
            rep.outcomes.iter().map(|o| o.values.clone()).collect::<Vec<_>>()
        });
        let (cap, max_fp) = with_service(None, |fx, _| {
            let sum: u64 = fx.fps.iter().sum();
            let max = *fx.fps.iter().max().unwrap();
            // Watermarked budget admits any lone query, but the full mix
            // overflows it: 0.85 * cap >= rb + max_fp and cap < rb + sum.
            (((fx.rb + max) * 100 / 85 + 1).max(fx.rb + sum * 2 / 3), max)
        });
        with_service(Some(cap), |fx, rep| {
            assert!(rep.all_ok(), "a queueing cap must not fail any query");
            assert!(rep.waves > 1, "the ledger must split the mix across waves");
            let queued = rep.admission.iter().filter(|a| a.queued).count();
            assert!(queued > 0, "someone must wait");
            assert_eq!(rep.admission.len(), 4, "one admission record per query");
            for a in &rep.admission {
                assert!(!a.rejected);
                assert!(a.estimated_bytes >= fx.rb + fx.fps.iter().min().unwrap());
                assert!(a.budget_bytes >= fx.rb + max_fp, "budget admits any lone query");
            }
            for (o, base) in rep.outcomes.iter().zip(&baseline) {
                assert_eq!(&o.values, base, "queued query '{}' still answers exactly", o.name);
            }
        });
    }

    /// Below the floor — a cap no lone query fits under — admission rejects
    /// with the governor's typed `OutOfMemory`, never a panic, and the
    /// record says which budget was missed.
    #[test]
    fn below_the_floor_admission_rejects_with_a_typed_oom() {
        let floor = with_service(None, |fx, _| fx.rb + fx.fps.iter().min().unwrap());
        with_service(Some(floor - 1), |fx, rep| {
            assert!(!rep.all_ok());
            for (o, a) in rep.outcomes.iter().zip(rep.admission.iter()) {
                assert!(a.rejected, "query '{}' cannot fit alone", o.name);
                assert!(a.queued || a.wave.is_none(), "rejected queries hold no wave");
                let err = o.result.as_ref().expect_err("rejected queries carry the typed OOM");
                match err {
                    VgpuError::OutOfMemory { requested, capacity, .. } => {
                        assert_eq!(*requested, a.estimated_bytes);
                        assert_eq!(*capacity, floor - 1);
                        assert!(*requested >= fx.rb);
                    }
                    other => panic!("want OutOfMemory, got {other:?}"),
                }
                assert!(o.values.is_empty());
            }
        });
    }

    /// A cap between the floor and the biggest query rejects exactly the
    /// queries over it and queues the rest — per-query decisions, not a
    /// global verdict.
    #[test]
    fn a_mid_cap_rejects_only_the_queries_over_it() {
        let (cap, n_over) = with_service(None, |fx, _| {
            let max = *fx.fps.iter().max().unwrap();
            let cap = fx.rb + max - 1; // the biggest query misses by one byte
            (cap, fx.fps.iter().filter(|&&fp| fx.rb + fp > cap).count())
        });
        assert!(n_over >= 1);
        with_service(Some(cap), |fx, rep| {
            let rejected: Vec<usize> =
                rep.admission.iter().filter(|a| a.rejected).map(|a| a.query).collect();
            assert_eq!(rejected.len(), n_over, "exactly the over-cap queries are refused");
            for a in &rep.admission {
                let over = fx.rb + fx.fps[a.query] > cap;
                assert_eq!(a.rejected, over, "query {} decision must be per-query", a.query);
            }
            for o in &rep.outcomes {
                if rejected.contains(&o.query) {
                    assert!(o.result.is_err());
                } else {
                    assert!(o.result.is_ok(), "under-cap query '{}' must still run", o.name);
                    assert!(!o.values.is_empty());
                }
            }
        });
    }
}

/// One graph twice: with the paper's weights, and its structure alone.
fn weighted_and_plain() -> (Csr<u32, u64>, Csr<u32, u64>) {
    let mut coo = preferential_attachment(400, 6, 11);
    let plain = GraphBuilder::undirected(&coo);
    add_paper_weights(&mut coo, 5);
    (GraphBuilder::undirected(&coo), plain)
}

/// Two round-robin parts of `weighted_and_plain()` under `problem`'s
/// duplication, carrying everything (`full`) or only what it reads.
fn parts<P: MgpuProblem<u32, u64>>(problem: &P, full: bool) -> DistGraph<u32, u64> {
    let (weighted, plain) = weighted_and_plain();
    let reads = problem.reads();
    let g = if full || reads.weights { &weighted } else { &plain };
    let owner = (0..g.n_vertices()).map(|v| (v % 2) as u32).collect();
    let mut dist = DistGraph::build(g, owner, 2, problem.duplication());
    if full || reads.reverse {
        dist.build_cscs();
    }
    dist
}

/// Bind `problem` to `dist` at the just-enough floor: each device's live
/// bytes right after the bind, and the report of one enact from `src`.
fn bind_and_enact<P: MgpuProblem<u32, u64>>(
    dist: &DistGraph<u32, u64>,
    problem: P,
    src: Option<u32>,
) -> (Vec<u64>, EnactReport) {
    let config = EnactConfig { alloc_scheme: Some(AllocScheme::JustEnough), ..Default::default() };
    let system = SimSystem::homogeneous(dist.n_parts, HardwareProfile::k40());
    let mut runner = Runner::new(system, dist, problem, config).unwrap();
    let live = runner.system().devices.iter().map(|d| d.pool().live()).collect();
    (live, runner.enact(src).unwrap())
}

/// Run `check` on every primitive, each from vertex 0 where it takes a
/// source (the macro stands in for a closure generic over the problem).
macro_rules! for_all_seven {
    ($check:ident) => {
        let lanes = MsBfs::spread_sources(64, weighted_and_plain().0.n_vertices());
        $check(Bfs::default, Some(0));
        $check(Dobfs::default, Some(0));
        $check(|| Sssp, Some(0));
        $check(|| Bc, Some(0));
        $check(|| Cc, None);
        $check(|| Pagerank { damping: 0.85, threshold: 0.0, max_iters: 20 }, None);
        $check(|| MsBfs::new(lanes.clone()), None);
    };
}

/// A bind charges the arrays its problem reads and nothing else the
/// residency carries: on a weighted partition with CSCs built, each device
/// holds after the bind, and peaks at over the enact, exactly what it does
/// on a partition carrying only the declared arrays.
#[test]
fn bind_charge_does_not_depend_on_the_residency() {
    fn check<P: MgpuProblem<u32, u64>>(mk: impl Fn() -> P, src: Option<u32>) {
        let name = mk().name();
        let (full_live, full) = bind_and_enact(&parts(&mk(), true), mk(), src);
        let (lean_live, lean) = bind_and_enact(&parts(&mk(), false), mk(), src);
        assert_eq!(full_live, lean_live, "{name}: live bytes after the bind");
        assert_eq!(full.peak_memory_per_device, lean.peak_memory_per_device, "{name}: peak");
    }
    for_all_seven!(check);
}

/// Admission prices what the bind allocates: on the full residency, the
/// governor's estimate for the problem is at least each device's live
/// bytes right after the bind (the reserved topology, the state and the
/// frontier buffers).
#[test]
fn bind_estimate_covers_what_the_bind_allocates() {
    fn check<P: MgpuProblem<u32, u64>>(mk: impl Fn() -> P, src: Option<u32>) {
        let (problem, dist) = (mk(), parts(&mk(), true));
        let (live, _) = bind_and_enact(&dist, mk(), src);
        for (sub, live) in dist.parts.iter().zip(live) {
            let est = estimate_bind(&problem, sub, AllocScheme::JustEnough, problem.comm());
            let (name, est) = (problem.name(), est.total());
            assert!(est >= live, "{name}: estimate {est} B < {live} B after the bind");
        }
    }
    for_all_seven!(check);
}
