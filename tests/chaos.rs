//! Chaos-composition tests: the recovery machinery of ISSUE 8 exercised
//! where the seams meet.
//!
//! * Memory-pressure governing composes with transient kernel faults — one
//!   run can downgrade *and* retry, and both logs say so, without touching
//!   the results.
//! * The butterfly collective degrades a superstep to a direct broadcast
//!   when a mid-stage link burst exhausts in-place retries, visibly in both
//!   the recovery log and the structured trace.
//! * `FaultPlan::remap` rewrites every event class onto the survivor id
//!   space after a failover, so post-failover faults land on the links and
//!   devices they were planned for.

use mgpu_graph_analytics::core::{
    CommTopology, EnactConfig, EnactReport, Executor, MgpuProblem, RecoveryPolicy, ResilientRunner,
    Runner,
};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{reference, Bfs, Cc, Sssp};
use mgpu_graph_analytics::vgpu::{FaultPlan, HardwareProfile, SimSystem, VgpuError};

fn graph() -> Csr<u32, u64> {
    GraphBuilder::undirected(&preferential_attachment(400, 6, 11))
}

fn weighted_graph() -> Csr<u32, u64> {
    let mut coo = gnm(300, 1500, 23);
    add_paper_weights(&mut coo, 5);
    GraphBuilder::undirected(&coo)
}

fn resilient_config() -> EnactConfig {
    EnactConfig { recovery: RecoveryPolicy::resilient(), ..Default::default() }
}

/// Enact `runner` from `src` and harvest: the report and the answer words,
/// each `as u32` (BFS's depth labels, SSSP's distances).
fn enact_u32<P: MgpuProblem<u32, u64> + Clone>(
    mut runner: ResilientRunner<'_, u32, u64, P>,
    src: Option<u32>,
) -> Result<(EnactReport, Vec<u32>), VgpuError> {
    let report = runner.enact(src)?;
    Ok((report, runner.harvest().into_iter().map(|w| w as u32).collect()))
}

// ---------------------------------------------------------------------------
// governor × transient faults
// ---------------------------------------------------------------------------

/// The configuration both pressure tests share: the
/// memory-hungriest scheme (so admission has something to walk) plus the
/// resilient recovery policy.
fn governed_config() -> EnactConfig {
    EnactConfig {
        alloc_scheme: Some(mgpu_graph_analytics::core::AllocScheme::Max),
        ..resilient_config()
    }
}

/// Shrink the per-device capacity geometrically from the unconstrained
/// Max-scheme peak until a fault-free governed SSSP run on `g` satisfies
/// `want`, returning the capacity and the capped clean baseline.
fn governed_cap(
    g: &Csr<u32, u64>,
    want: impl Fn(&mgpu_graph_analytics::core::GovernorLog) -> bool,
) -> (u64, Vec<u32>) {
    let (clean, _) = enact_u32(
        ResilientRunner::homogeneous(g, Sssp, 4, HardwareProfile::k40(), governed_config()),
        Some(0u32),
    )
    .unwrap();
    // The governed window sits between the static reservations and the
    // unconstrained peak — walk down from the peak in fine steps and stop
    // at the first hard-infeasible capacity.
    let peak = clean.peak_memory_per_device;
    let mut cap = peak;
    loop {
        let profile = HardwareProfile::k40().with_capacity(cap);
        match enact_u32(
            ResilientRunner::homogeneous(g, Sssp, 4, profile, governed_config()),
            Some(0u32),
        ) {
            Ok((rep, dists)) if want(&rep.governor) => return (cap, dists),
            Ok(_) => cap = cap * 15 / 16,
            Err(VgpuError::OutOfMemory { .. }) => {
                panic!("hit the infeasible floor at {cap} B without the wanted governor activity")
            }
            Err(e) => panic!("capacity {cap}: unexpected error {e}"),
        }
    }
}

#[test]
fn governor_downgrades_compose_with_transient_kernel_faults() {
    let g = weighted_graph();
    let expect = reference::sssp(&g, 0u32);
    let (cap, clean_dists) = governed_cap(&g, |gov| !gov.is_quiet());
    assert_eq!(clean_dists, expect, "the capped fault-free baseline must already be correct");

    let profile = HardwareProfile::k40().with_capacity(cap);
    let run = || {
        enact_u32(
            ResilientRunner::homogeneous(&g, Sssp, 4, profile.clone(), governed_config())
                .with_fault_plan(FaultPlan::new().kernel_fail(0, 2).transient_oom(1, 4)),
            Some(0u32),
        )
        .unwrap()
    };
    let (r1, d1) = run();
    let (r2, d2) = run();
    assert_eq!(d1, clean_dists, "downgraded + retried run must match the capped baseline");
    assert_eq!(d1, d2, "the composed run must be deterministic");
    assert!(r1.same_simulation(&r2), "governing under faults must be bit-reproducible");
    assert!(!r1.governor.is_quiet(), "the governor must have acted under the cap");
    assert!(r1.recovery.kernel_retries >= 2, "both kernel transients retried in place");
    assert_eq!(r1.recovery.faults_injected, 2);
    assert!(r1.recovery.lost_devices.is_empty(), "transients must not cost a device");
}

#[test]
fn an_injected_spill_fault_surfaces_typed_from_an_unguarded_runner() {
    let g = weighted_graph();
    let (cap, _) = governed_cap(&g, |gov| gov.spill_events > 0);
    // Under the cap the governed fault-free run spills; fail every device's
    // first spill so whichever device spills first trips the fault.
    let mut plan = FaultPlan::new();
    for d in 0..4 {
        plan = plan.spill_fail(d, 0);
    }
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
    let mut sys = SimSystem::homogeneous(4, HardwareProfile::k40().with_capacity(cap));
    sys.attach_fault_plan(&plan);
    let config = EnactConfig { recovery: RecoveryPolicy::default(), ..governed_config() };
    let mut runner = Runner::new(sys, &dist, Sssp, config).unwrap();
    match runner.enact(Some(0u32)) {
        Err(VgpuError::TransferFailed { from, to }) => {
            assert_eq!(from, to, "a spill is a device↔host staging transfer");
        }
        Ok(_) => panic!("the capped run must spill and hit the planned spill fault"),
        Err(other) => panic!("expected TransferFailed from the spill fault, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// butterfly fallback
// ---------------------------------------------------------------------------

#[test]
fn a_link_burst_degrades_one_butterfly_superstep_to_direct_broadcast() {
    let g = graph();
    let expect = reference::cc(&g);
    let config =
        EnactConfig { comm_topology: CommTopology::Butterfly, tracing: true, ..resilient_config() };
    let run = |plan: Option<FaultPlan>| {
        let mut runner = ResilientRunner::homogeneous(&g, Cc, 4, HardwareProfile::k40(), config);
        if let Some(p) = plan {
            runner = runner.with_fault_plan(p);
        }
        let report = runner.enact(None).unwrap();
        let comps: Vec<usize> = runner.harvest().into_iter().map(|w| w as usize).collect();
        (report, comps)
    };
    let (clean, clean_comps) = run(None);
    assert_eq!(clean_comps, expect);
    assert_eq!(clean.recovery.butterfly_fallbacks, 0, "no fault, no fallback");

    // Four consecutive faults on one stage link: the in-place budget is
    // 1 + 3 retries, so the stage vote must trip and the superstep degrade.
    let burst = FaultPlan::parse("tfail:0>1@0, tfail:0>1@1, tfail:0>1@2, tfail:0>1@3").unwrap();
    let (faulty, comps) = run(Some(burst));
    assert_eq!(comps, expect, "the degraded superstep must still converge correctly");
    assert!(faulty.recovery.butterfly_fallbacks >= 1, "the fallback must be on the record");
    assert!(faulty.recovery.transfer_retries >= 3, "the stage burned its retry budget first");
    assert!(faulty.recovery.lost_devices.is_empty(), "degradation must not cost a device");
    let jsonl = faulty.trace.as_ref().unwrap().to_jsonl();
    assert!(
        jsonl.contains("butterfly-fallback"),
        "the fallback broadcast must be visible in the trace"
    );
}

// ---------------------------------------------------------------------------
// remap across failover
// ---------------------------------------------------------------------------

#[test]
fn remap_rewrites_every_event_class_onto_the_survivor_id_space() {
    let plan = FaultPlan::new()
        .kernel_fail(2, 5)
        .device_loss(1, 9)
        .transfer_fail(3, 2, 1)
        .transfer_fail(1, 0, 4)
        .spill_fail(2, 0)
        .chunk_pass_fail(1, 2)
        .arena_lease_oom(3, 1);
    // Device 1 is gone; survivors [0, 2, 3] run as runtime ids [0, 1, 2].
    let remapped = plan.remap(&[0, 2, 3]);
    let expected = FaultPlan::new()
        .kernel_fail(1, 5)
        .transfer_fail(2, 1, 1)
        .spill_fail(1, 0)
        .arena_lease_oom(2, 1);
    assert_eq!(
        remapped, expected,
        "transfer endpoints and pressure devices must both be re-homed; \
         every event touching the lost device must be dropped"
    );
    // Identity mapping is a no-op.
    assert_eq!(plan.remap(&[0, 1, 2, 3]), plan);
}

#[test]
fn post_failover_transfer_faults_land_on_the_remapped_links() {
    let g = graph();
    let expect = reference::bfs(&g, 0u32);
    // Lose device 1 mid-run; keep transient transfer faults planned on
    // survivor links (3→2 and 2→3). After the failover those links only
    // exist under remapped runtime ids, so a correct completion with the
    // retries on record pins the endpoint rewrite end-to-end.
    let plan = FaultPlan::new().device_loss(1, 9).transfer_fail(3, 2, 1).transfer_fail(2, 3, 2);
    let (report, labels) = enact_u32(
        ResilientRunner::homogeneous(&g, Bfs::default(), 4, HardwareProfile::k40(), {
            EnactConfig {
                recovery: RecoveryPolicy { checkpoint_interval: 2, ..RecoveryPolicy::resilient() },
                ..Default::default()
            }
        })
        .with_fault_plan(plan),
        Some(0u32),
    )
    .unwrap();
    assert_eq!(labels, expect, "BFS must finish correctly on the survivors");
    assert_eq!(report.recovery.lost_devices, vec![1]);
    assert_eq!(report.recovery.failovers, 1);
    assert_eq!(report.n_devices, 3, "the run finishes on the survivors");
    assert!(
        report.recovery.transfer_retries >= 1,
        "the planned link faults must have fired and been absorbed in place"
    );
    assert!(report.recovery.faults_injected >= 2, "loss plus at least one transfer fault");
}

// ---------------------------------------------------------------------------
// faults mid-service: only the targeted query aborts or recovers
// ---------------------------------------------------------------------------

mod service_faults {
    use super::*;
    use mgpu_bench::service::{build_query_specs, parse_query_list};
    use mgpu_core::{ExecutorKind, Service, ServicePolicy};

    const GPUS: usize = 4;

    fn policy() -> ServicePolicy {
        ServicePolicy {
            seed: 5,
            workers: 1,
            lanes: 0, // one wave: every query co-scheduled with the faulted ones
            mem_cap: None,
            residency_bytes: 0,
        }
    }

    /// Five co-scheduled queries; q1 recovers a device loss through the
    /// resilient engine, q3 dies on a device loss in the plain BSP engine,
    /// q4 absorbs a transient transfer fault via in-place retries — and
    /// q0/q2 never notice any of it.
    #[test]
    fn faults_mid_service_touch_only_the_queries_they_target() {
        let g = weighted_graph();
        let part = RandomPartitioner { seed: 3 };
        let dist = DistGraph::partition(&g, &part, GPUS, Duplication::All);
        let mut descs = parse_query_list("bfs:0,sssp:1@resilient,cc,bfs:2,sssp:0").unwrap();
        descs[1].plan = Some(FaultPlan::parse("lose:1@2").unwrap());
        descs[3].plan = Some(FaultPlan::parse("lose:0@1").unwrap());
        descs[4].plan = Some(FaultPlan::parse("tfail:0>1@1").unwrap());
        assert_eq!(descs[1].mode, ExecutorKind::Resilient);

        // The @bsp queries keep retries but do not degrade, so q3's loss
        // stays fatal; the @resilient query degrades under its own policy.
        let recovery = RecoveryPolicy { degrade: false, ..RecoveryPolicy::resilient() };
        let config = EnactConfig { recovery, ..Default::default() };
        let faulted =
            build_query_specs(&g, &dist, HardwareProfile::k40(), 0, config, &descs).unwrap();
        let clean_descs = parse_query_list("bfs:0,sssp:1@resilient,cc,bfs:2,sssp:0").unwrap();
        let clean =
            build_query_specs(&g, &dist, HardwareProfile::k40(), 0, config, &clean_descs).unwrap();

        let frep = Service::new(policy()).run(&faulted);
        let crep = Service::new(policy()).run(&clean);
        assert!(crep.all_ok(), "fault-free mix must succeed");
        assert_eq!(frep.waves, 1, "unbounded lanes co-schedule the whole mix");

        // q1: the resilient engine rode out the device loss, visibly.
        let q1 = frep.outcomes[1].result.as_ref().expect("resilient query recovers");
        assert!(q1.recovery.failovers > 0, "failover must be logged");
        assert_eq!(q1.recovery.lost_devices, vec![1], "the planned device loss is on record");
        assert_eq!(
            frep.outcomes[1].values, crep.outcomes[1].values,
            "recovery must not change the answer"
        );

        // q3: the plain BSP engine turns the same class of fault into a
        // typed error — no hang, no poisoned neighbours.
        let q3 = frep.outcomes[3].result.as_ref().expect_err("BSP query dies on device loss");
        assert!(matches!(q3, VgpuError::DeviceLost { .. }), "want a typed DeviceLost, got {q3:?}");
        assert!(frep.outcomes[3].values.is_empty(), "a dead query harvests nothing");

        // q4: a transient transfer fault is absorbed by in-place retries —
        // same answer, and the retry is on the per-query record.
        let q4 = frep.outcomes[4].result.as_ref().expect("transient is absorbed");
        assert!(q4.recovery.transfer_retries > 0, "the retry must be logged per query");
        assert_eq!(frep.outcomes[4].values, crep.outcomes[4].values);

        // q0/q2 (clean BSP queries in the same wave): bit-equal to their
        // fault-free counterparts, reports and results.
        for q in [0usize, 2] {
            let f = frep.outcomes[q].result.as_ref().expect("unaffected query succeeds");
            let c = crep.outcomes[q].result.as_ref().unwrap();
            assert!(
                f.same_simulation(c),
                "query {q} shares a wave with faulted queries but must not feel them"
            );
            assert_eq!(frep.outcomes[q].values, crep.outcomes[q].values);
        }

        // Admission saw all five queries regardless of their fate.
        assert_eq!(frep.admission.len(), 5);
        assert!(frep.admission.iter().all(|a| !a.rejected));
    }

    /// The faulted service run is itself deterministic: same seed, same
    /// specs, same typed failure and same recovery counters.
    #[test]
    fn a_faulted_service_run_replays_bit_identically() {
        let g = weighted_graph();
        let part = RandomPartitioner { seed: 3 };
        let dist = DistGraph::partition(&g, &part, GPUS, Duplication::All);
        let mut descs = parse_query_list("bfs:0,sssp:1@resilient,cc").unwrap();
        descs[1].plan = Some(FaultPlan::parse("lose:2@2").unwrap());
        let config = resilient_config();
        let specs =
            build_query_specs(&g, &dist, HardwareProfile::k40(), 0, config, &descs).unwrap();
        let a = Service::new(policy()).run(&specs);
        let b = Service::new(policy()).run(&specs);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            match (&x.result, &y.result) {
                (Ok(rx), Ok(ry)) => assert!(rx.same_simulation(ry)),
                (Err(ex), Err(ey)) => assert_eq!(format!("{ex:?}"), format!("{ey:?}")),
                _ => panic!("query '{}' changed fate between replays", x.name),
            }
            assert_eq!(x.values, y.values);
        }
        assert_eq!(a.waves, b.waves);
        assert_eq!(format!("{:?}", a.admission), format!("{:?}", b.admission));
    }
}
