//! End-to-end tests of deterministic fault injection and recovery: the
//! resilience contract of ISSUE 2.
//!
//! * Determinism — the same fault plan produces a bit-identical simulation
//!   (results, clocks, counters, *and* recovery log), independent of host
//!   thread scheduling and `kernel_threads`.
//! * Correctness under recovery — BFS / SSSP / CC complete after transient
//!   faults, panics, stragglers and permanent device loss, and their
//!   results equal the fault-free reference; DOBFS / BC / PR restart from
//!   scratch on the survivors and match it too.
//! * Zero overhead when disabled — an attached plan whose events never
//!   fire changes nothing about the simulation.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use mgpu_graph_analytics::core::alloc::FrontierBufs;
use mgpu_graph_analytics::core::problem::MgpuProblem;
use mgpu_graph_analytics::core::{
    CommStrategy, EnactConfig, EnactReport, Executor, RecoveryPolicy, ResilientRunner, Runner,
};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner, Reads, SubGraph};
use mgpu_graph_analytics::primitives::{reference, Bfs, Cc, Sssp};
use mgpu_graph_analytics::vgpu::{Device, FaultPlan, HardwareProfile, Result, SimSystem, VgpuError};

fn graph() -> Csr<u32, u64> {
    GraphBuilder::undirected(&preferential_attachment(400, 6, 11))
}

fn weighted_graph() -> Csr<u32, u64> {
    let mut coo = gnm(300, 1500, 23);
    add_paper_weights(&mut coo, 5);
    GraphBuilder::undirected(&coo)
}

fn resilient_config() -> EnactConfig {
    EnactConfig {
        recovery: RecoveryPolicy { checkpoint_interval: 2, ..RecoveryPolicy::resilient() },
        ..Default::default()
    }
}

/// Enact `runner` from `src` and harvest: the report and the answer words,
/// each `as u32` (BFS's depth labels, SSSP's distances).
fn enact_u32<P: MgpuProblem<u32, u64> + Clone>(
    mut runner: ResilientRunner<'_, u32, u64, P>,
    src: Option<u32>,
) -> Result<(EnactReport, Vec<u32>)> {
    let report = runner.enact(src)?;
    Ok((report, runner.harvest().into_iter().map(|w| w as u32).collect()))
}

/// A plan mixing transients with a permanent loss of device 1 mid-run.
fn loss_plan() -> FaultPlan {
    FaultPlan::new().kernel_fail(0, 3).transient_oom(2, 5).device_loss(1, 9)
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

#[test]
fn same_fault_plan_produces_bit_identical_reports_including_recovery() {
    let g = graph();
    let run = || {
        enact_u32(
            ResilientRunner::homogeneous(
                &g,
                Bfs::default(),
                4,
                HardwareProfile::k40(),
                resilient_config(),
            )
            .with_fault_plan(loss_plan()),
            Some(0u32),
        )
        .unwrap()
    };
    let (r1, l1) = run();
    let (r2, l2) = run();
    assert_eq!(l1, l2, "recovered results must be deterministic");
    assert!(r1.same_simulation(&r2), "recovered simulations must be bit-identical");
    assert!(!r1.recovery.is_quiet(), "the plan must actually have fired");
    assert_eq!(r1.recovery.lost_devices, vec![1]);
    assert_eq!(r1.recovery.failovers, 1);
    assert!(r1.recovery.kernel_retries >= 2, "both transients retried in place");
}

#[test]
fn kernel_thread_count_does_not_change_a_recovered_simulation() {
    let g = weighted_graph();
    let run = |threads: usize| {
        let config = EnactConfig { kernel_threads: Some(threads), ..resilient_config() };
        enact_u32(
            ResilientRunner::homogeneous(&g, Sssp, 4, HardwareProfile::k40(), config)
                .with_fault_plan(loss_plan()),
            Some(0u32),
        )
        .unwrap()
    };
    let (r1, d1) = run(1);
    let (r4, d4) = run(4);
    assert_eq!(d1, d4, "distances must not depend on kernel_threads");
    assert!(r1.same_simulation(&r4), "kernel_threads is wall-clock-only, even under faults");
}

#[test]
fn a_plan_that_never_fires_is_bit_identical_to_no_plan() {
    let g = graph();
    let run = |plan: Option<FaultPlan>| {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
        let mut sys = SimSystem::homogeneous(4, HardwareProfile::k40());
        if let Some(p) = plan {
            sys.attach_fault_plan(&p);
        }
        let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let report = runner.enact(Some(0u32)).unwrap();
        (report, runner.harvest())
    };
    // the words are BFS labels; equal words are equal labels
    let (bare, labels_bare) = run(None);
    let (empty, labels_empty) = run(Some(FaultPlan::new()));
    // events far beyond the horizon never fire either
    let (idle, labels_idle) = run(Some(FaultPlan::new().kernel_fail(0, 1 << 40)));
    assert_eq!(labels_bare, labels_empty);
    assert_eq!(labels_bare, labels_idle);
    assert!(bare.same_simulation(&empty), "an empty plan must be invisible");
    assert!(bare.same_simulation(&idle), "an unfired plan must be invisible");
    assert!(bare.recovery.is_quiet() && idle.recovery.is_quiet());
}

// ---------------------------------------------------------------------------
// correctness after recovery
// ---------------------------------------------------------------------------

#[test]
fn bfs_sssp_cc_survive_device_loss_across_gpu_counts_and_comm_strategies() {
    let g = weighted_graph();
    let bfs_expect = reference::bfs(&g, 0u32);
    let sssp_expect = reference::sssp(&g, 0u32);
    let cc_expect = reference::cc(&g);
    for n in [2usize, 4, 8] {
        // Lose the last device so every configuration has a victim.
        let plan = FaultPlan::new().device_loss(n - 1, 7);
        for comm in [None, Some(CommStrategy::Broadcast)] {
            let config = EnactConfig { comm, ..resilient_config() };
            let ctx = format!("{n} GPUs, comm {comm:?}");

            let (br, bl) = enact_u32(
                ResilientRunner::homogeneous(&g, Bfs::default(), n, HardwareProfile::k40(), config)
                    .with_fault_plan(plan.clone()),
                Some(0u32),
            )
            .unwrap();
            assert_eq!(bl, bfs_expect, "BFS after loss, {ctx}");
            assert_eq!(br.n_devices, n - 1, "BFS must finish on the survivors, {ctx}");
            assert_eq!(br.recovery.lost_devices, vec![n - 1], "{ctx}");

            let (_, dl) = enact_u32(
                ResilientRunner::homogeneous(&g, Sssp, n, HardwareProfile::k40(), config)
                    .with_fault_plan(plan.clone()),
                Some(0u32),
            )
            .unwrap();
            assert_eq!(dl, sssp_expect, "SSSP after loss, {ctx}");

            // CC fixes its own comm strategy; only exercise it once per n.
            if comm.is_none() {
                let mut cc =
                    ResilientRunner::homogeneous(&g, Cc, n, HardwareProfile::k40(), config)
                        .with_fault_plan(plan.clone());
                cc.enact(None).unwrap();
                let cl: Vec<usize> = cc.harvest().into_iter().map(|w| w as usize).collect();
                assert_eq!(cl, cc_expect, "CC after loss, {n} GPUs");
            }
        }
    }
}

#[test]
fn transient_faults_are_retried_in_place_and_leave_results_intact() {
    let g = graph();
    let expect = reference::bfs(&g, 0u32);
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 3, Duplication::All);
    let mut sys = SimSystem::homogeneous(3, HardwareProfile::k40());
    sys.attach_fault_plan(
        &FaultPlan::new().kernel_fail(0, 2).transient_oom(1, 4).transfer_fail(0, 1, 1),
    );
    let config = EnactConfig {
        recovery: RecoveryPolicy { max_retries: 3, retry_backoff_us: 10.0, ..Default::default() },
        ..Default::default()
    };
    let mut runner = Runner::new(sys, &dist, Bfs::default(), config).unwrap();
    let report = runner.enact(Some(0u32)).unwrap();
    let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
    assert_eq!(labels, expect);
    assert_eq!(report.recovery.kernel_retries, 2, "one relaunch per kernel transient");
    assert_eq!(report.recovery.transfer_retries, 1, "one re-send for the link fault");
    assert_eq!(report.recovery.faults_injected, 3);
    assert!(report.recovery.backoff_us > 0.0, "retries charge simulated backoff");
}

#[test]
fn without_a_retry_budget_transients_surface_as_typed_errors() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 3, Duplication::All);
    type ErrCheck = fn(&VgpuError) -> bool;
    let cases: [(FaultPlan, ErrCheck); 3] = [
        (FaultPlan::new().kernel_fail(1, 2), |e| {
            matches!(e, VgpuError::KernelFailed { device: 1 })
        }),
        (FaultPlan::new().device_loss(2, 2), |e| matches!(e, VgpuError::DeviceLost { device: 2 })),
        (FaultPlan::new().transfer_fail(0, 1, 0), |e| {
            matches!(e, VgpuError::TransferFailed { from: 0, to: 1 })
        }),
    ];
    for (plan, check) in cases {
        let mut sys = SimSystem::homogeneous(3, HardwareProfile::k40());
        sys.attach_fault_plan(&plan);
        let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let err = runner.enact(Some(0u32)).unwrap_err();
        assert!(check(&err), "got {err}");
    }
}

#[test]
fn checkpoints_bound_the_recomputation_after_a_late_loss() {
    let g = weighted_graph();
    let expect = reference::sssp(&g, 0u32);
    // SSSP runs for many supersteps; lose a device late so a checkpoint
    // exists to resume from.
    let (report, dists) = enact_u32(
        ResilientRunner::homogeneous(&g, Sssp, 4, HardwareProfile::k40(), resilient_config())
            .with_fault_plan(FaultPlan::new().device_loss(2, 60)),
        Some(0u32),
    )
    .unwrap();
    assert_eq!(dists, expect);
    assert!(report.recovery.checkpoints_taken >= 1, "a checkpoint must have completed");
    let resumed = report.recovery.resumed_at.expect("the retry must resume from a checkpoint");
    assert!(resumed >= 2, "resume point is a checkpointed superstep boundary, got {resumed}");
    assert!(report.recovery.lost_time_us > 0.0, "discarded work is accounted");
    assert!(report.sim_time_us > report.recovery.lost_time_us);
}

#[test]
fn the_default_wire_recovers_from_a_lost_device_to_the_reference() {
    let g = weighted_graph();
    let config = EnactConfig { recovery: RecoveryPolicy::resilient(), ..EnactConfig::default() };
    let bfs_expect = reference::bfs(&g, 0u32);
    let sssp_expect = reference::sssp(&g, 0u32);
    let run_sssp = |n: usize, spec: &str| {
        enact_u32(
            ResilientRunner::homogeneous(&g, Sssp, n, HardwareProfile::k40(), config)
                .with_fault_plan(FaultPlan::parse(spec).unwrap()),
            Some(0u32),
        )
        .unwrap()
    };
    for n in [2usize, 4] {
        let (report, labels) = enact_u32(
            ResilientRunner::homogeneous(&g, Bfs::default(), n, HardwareProfile::k40(), config)
                .with_fault_plan(FaultPlan::parse("lose:0@5").unwrap()),
            Some(0u32),
        )
        .unwrap();
        assert_eq!(labels, bfs_expect, "BFS, {n} GPUs");
        assert_eq!(report.recovery.lost_devices, vec![0], "BFS, {n} GPUs");

        // an early loss restarts from scratch, a late one from a checkpoint
        let (report, dists) = run_sssp(n, "lose:0@5");
        assert_eq!(dists, sssp_expect, "SSSP, {n} GPUs, early loss");
        assert_eq!(report.recovery.lost_devices, vec![0], "SSSP, {n} GPUs, early loss");
        let (report, dists) = run_sssp(n, "lose:0@30");
        assert_eq!(dists, sssp_expect, "SSSP, {n} GPUs, late loss");
        assert!(report.recovery.resumed_at.is_some(), "SSSP, {n} GPUs: resumes a checkpoint");
    }
}

/// DOBFS, BC and PR keep no checkpoint (their direction, phase and scalar
/// state span supersteps), so a loss restarts them from scratch on the
/// survivors; the answer that restart harvests is still the reference's.
#[test]
fn primitives_without_checkpoints_restart_on_the_survivors() {
    use mgpu_bench::runners::PR_ITERS;
    use mgpu_bench::service::check_against_reference;
    use mgpu_bench::Primitive;
    use mgpu_graph_analytics::primitives::{Bc, Dobfs, Pagerank};

    fn fail_over<P: MgpuProblem<u32, u64> + Clone>(
        g: &Csr<u32, u64>,
        prim: Primitive,
        problem: P,
        src: Option<u32>,
    ) {
        let config = EnactConfig { recovery: RecoveryPolicy::resilient(), ..Default::default() };
        let mut runner =
            ResilientRunner::homogeneous(g, problem, 3, HardwareProfile::k40(), config)
                .with_fault_plan(FaultPlan::parse("lose:1@3").unwrap());
        let name = prim.name();
        let report = runner.enact(src).unwrap();
        assert_eq!(report.n_devices, 2, "{name} finishes on the survivors");
        assert_eq!(report.recovery.failovers, 1, "{name}");
        assert_eq!(report.recovery.resumed_at, None, "{name} restarts from scratch");
        if let Err(e) = check_against_reference(prim, g, src, &runner.harvest()) {
            panic!("{name} after the loss: {e}");
        }
    }

    let g = graph();
    fail_over(&g, Primitive::Dobfs, Dobfs::default(), Some(0));
    fail_over(&g, Primitive::Bc, Bc, Some(0));
    let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: PR_ITERS };
    fail_over(&g, Primitive::Pr, pr, None);
}

#[test]
fn straggling_devices_are_detected_and_evicted_on_timeout() {
    let g = graph();
    let expect = reference::bfs(&g, 0u32);
    let config = EnactConfig {
        recovery: RecoveryPolicy {
            straggler_timeout_us: 1_000.0,
            degrade: true,
            checkpoint_interval: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let (report, labels) = enact_u32(
        ResilientRunner::homogeneous(&g, Bfs::default(), 4, HardwareProfile::k40(), config)
            .with_fault_plan(FaultPlan::new().straggle(3, 6, 50_000.0)),
        Some(0u32),
    )
    .unwrap();
    assert_eq!(labels, expect);
    assert!(report.recovery.stragglers_detected >= 1);
    assert_eq!(report.recovery.lost_devices, vec![3], "the straggler is evicted");
    assert_eq!(report.n_devices, 3);
}

// ---------------------------------------------------------------------------
// panic capture
// ---------------------------------------------------------------------------

/// A BFS whose iteration panics exactly once (on the flag's first visit),
/// modelling a crash in problem code rather than an injected fault.
#[derive(Clone)]
struct PanicOnce {
    inner: Bfs,
    fired: Arc<AtomicBool>,
}

impl MgpuProblem<u32, u64> for PanicOnce {
    type State = <Bfs as MgpuProblem<u32, u64>>::State;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "panic-once BFS"
    }
    fn duplication(&self) -> Duplication {
        <Bfs as MgpuProblem<u32, u64>>::duplication(&self.inner)
    }
    fn reads(&self) -> Reads {
        <Bfs as MgpuProblem<u32, u64>>::reads(&self.inner)
    }
    fn comm(&self) -> CommStrategy {
        <Bfs as MgpuProblem<u32, u64>>::comm(&self.inner)
    }
    fn init(&self, dev: &mut Device, sub: &SubGraph<u32, u64>) -> Result<Self::State> {
        self.inner.init(dev, sub)
    }
    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut Self::State,
        src: Option<u32>,
    ) -> Result<Vec<u32>> {
        self.inner.reset(dev, sub, state, src)
    }
    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut Self::State,
        bufs: &mut FrontierBufs<u32>,
        input: &[u32],
        iter: usize,
    ) -> Result<Vec<u32>> {
        if iter == 1 && !self.fired.swap(true, SeqCst) {
            panic!("injected problem-code crash");
        }
        self.inner.iteration(dev, sub, state, bufs, input, iter)
    }
    fn package(&self, state: &Self::State, v: u32) -> u32 {
        <Bfs as MgpuProblem<u32, u64>>::package(&self.inner, state, v)
    }
    fn combine(&self, state: &mut Self::State, v: u32, msg: &u32) -> bool {
        <Bfs as MgpuProblem<u32, u64>>::combine(&self.inner, state, v, msg)
    }
    fn supports_checkpoint(&self) -> bool {
        <Bfs as MgpuProblem<u32, u64>>::supports_checkpoint(&self.inner)
    }
    fn restore_word(&self, state: &mut Self::State, v: u32, word: u64) {
        <Bfs as MgpuProblem<u32, u64>>::restore_word(&self.inner, state, v, word)
    }
    fn result_word(&self, state: &Self::State, v: u32) -> u64 {
        <Bfs as MgpuProblem<u32, u64>>::result_word(&self.inner, state, v)
    }
}

#[test]
fn a_panic_in_problem_code_becomes_device_lost_not_a_process_abort() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 3, Duplication::All);
    let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
    let problem = PanicOnce { inner: Bfs::default(), fired: Arc::new(AtomicBool::new(false)) };
    let mut runner = Runner::new(sys, &dist, problem, EnactConfig::default()).unwrap();
    match runner.enact(Some(0u32)) {
        Err(VgpuError::DeviceLost { .. }) => {}
        other => panic!("expected DeviceLost from a panicking iteration, got {other:?}"),
    }
}

#[test]
fn the_resilient_runner_recovers_from_a_problem_code_panic() {
    let g = graph();
    let expect = reference::bfs(&g, 0u32);
    let problem = PanicOnce { inner: Bfs::default(), fired: Arc::new(AtomicBool::new(false)) };
    let (report, labels) = enact_u32(
        ResilientRunner::homogeneous(&g, problem, 3, HardwareProfile::k40(), resilient_config()),
        Some(0u32),
    )
    .unwrap();
    assert_eq!(labels, expect, "BFS completes correctly after the crash");
    assert_eq!(report.recovery.failovers, 1);
    assert_eq!(report.n_devices, 2, "the crashed device is retired");
}

// ---------------------------------------------------------------------------
// plan plumbing
// ---------------------------------------------------------------------------

#[test]
fn parsed_and_built_plans_agree() {
    let parsed = FaultPlan::parse("kfail:0@3, oom:2@5, lose:1@9").unwrap();
    assert_eq!(parsed, loss_plan());
    assert!(FaultPlan::parse("explode:0@1").is_err());
    assert!(FaultPlan::parse("kfail:0").is_err());
}

#[test]
fn random_plans_are_seed_deterministic_and_recoverable() {
    let g = graph();
    assert_eq!(FaultPlan::random(9, 4, 5, 50), FaultPlan::random(9, 4, 5, 50));
    assert_ne!(FaultPlan::random(9, 4, 5, 50), FaultPlan::random(10, 4, 5, 50));
    let expect = reference::bfs(&g, 0u32);
    for seed in 0..4u64 {
        let plan = FaultPlan::random(seed, 4, 6, 60);
        let (report, labels) = enact_u32(
            ResilientRunner::homogeneous(
                &g,
                Bfs::default(),
                4,
                HardwareProfile::k40(),
                resilient_config(),
            )
            .with_fault_plan(plan),
            Some(0u32),
        )
        .unwrap();
        assert_eq!(labels, expect, "seed {seed}");
        // Random plans are transient-only, so no device may be lost.
        assert!(report.recovery.lost_devices.is_empty(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// traced variants: recovery machinery shows up in the structured trace
// ---------------------------------------------------------------------------

#[test]
fn traced_transient_recovery_pairs_retries_and_checkpoints_with_events() {
    use mgpu_graph_analytics::core::Profile;
    let g = weighted_graph();
    let run = |threads: usize| {
        let config =
            EnactConfig { tracing: true, kernel_threads: Some(threads), ..resilient_config() };
        enact_u32(
            ResilientRunner::homogeneous(&g, Sssp, 4, HardwareProfile::k40(), config)
                .with_fault_plan(
                    FaultPlan::new().kernel_fail(0, 2).transient_oom(1, 4).transfer_fail(0, 1, 1),
                ),
            Some(0u32),
        )
        .unwrap()
    };
    let (r1, d1) = run(1);
    let (r4, d4) = run(4);
    assert_eq!(d1, d4, "recovered distances must not depend on kernel_threads");
    assert!(r1.same_simulation(&r4));
    let trace = r1.trace.as_ref().unwrap();
    assert_eq!(
        trace.to_jsonl(),
        r4.trace.as_ref().unwrap().to_jsonl(),
        "faulty traces must be byte-identical across kernel-thread counts"
    );
    let p = Profile::from_trace(trace);
    p.reconcile(&r1).unwrap();
    // All three transients survive in place — one attempt, so every retry
    // the recovery log counted has a span in the trace.
    assert_eq!(p.total.retries, r1.recovery.kernel_retries + r1.recovery.transfer_retries);
    assert!(p.total.retries >= 3, "all three injected transients retried");
    assert!(p.total.checkpoints > 0, "checkpoint offers appear in the trace");
}

#[test]
fn traced_failover_trace_is_deterministic_and_reconciles_with_lost_time() {
    use mgpu_graph_analytics::core::Profile;
    let g = graph();
    let run = |threads: usize| {
        let config =
            EnactConfig { tracing: true, kernel_threads: Some(threads), ..resilient_config() };
        enact_u32(
            ResilientRunner::homogeneous(&g, Bfs::default(), 4, HardwareProfile::k40(), config)
                .with_fault_plan(loss_plan()),
            Some(0u32),
        )
        .unwrap()
    };
    let (r1, l1) = run(1);
    let (r4, l4) = run(4);
    assert_eq!(l1, l4);
    assert!(r1.same_simulation(&r4));
    let trace = r1.trace.as_ref().unwrap();
    assert_eq!(
        trace.to_jsonl(),
        r4.trace.as_ref().unwrap().to_jsonl(),
        "a failover run's trace must be byte-identical across kernel-thread counts"
    );
    // The trace describes the surviving attempt; its makespan plus the
    // recorded lost time reproduces sim_time_us bitwise — reconcile checks
    // exactly that.
    let p = Profile::from_trace(trace);
    p.reconcile(&r1).unwrap();
    assert!(r1.recovery.lost_time_us > 0.0, "the loss must have discarded work");
    assert!(p.makespan_us < r1.sim_time_us, "lost time is outside the surviving trace");
    assert!(p.total.checkpoints > 0, "checkpoints that bounded the recomputation are in the trace");
}
