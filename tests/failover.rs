//! One engine runs the whole recovery policy: a [`Runner`] bound with
//! `RecoveryPolicy::resilient()` on a system that carries a device-loss
//! plan fails over onto the survivors by itself. It answers what the
//! reference answers, and its report is the one a `ResilientRunner` drive
//! of the same graph, ownership and node gives.

use mgpu_graph_analytics::core::problem::MgpuProblem;
use mgpu_graph_analytics::core::{EnactConfig, Executor, RecoveryPolicy, ResilientRunner, Runner};
use mgpu_graph_analytics::gen::gnm;
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, Partitioner, RandomPartitioner};
use mgpu_graph_analytics::primitives::{reference, Bfs, Cc, Dobfs, Sssp};
use mgpu_graph_analytics::vgpu::{FaultPlan, HardwareProfile, SimSystem, VgpuError};

fn weighted_graph() -> Csr<u32, u64> {
    let mut coo = gnm(300, 1500, 23);
    add_paper_weights(&mut coo, 5);
    GraphBuilder::undirected(&coo)
}

fn resilient() -> EnactConfig {
    EnactConfig { recovery: RecoveryPolicy::resilient(), ..Default::default() }
}

/// Enact `problem` from `src` on `n` K40s under `plan`, once through a
/// `Runner` bound on the caller's partition and once through a
/// `ResilientRunner` with the same ownership, and check both against
/// `expect`. The plan loses device 1. A problem that reads the reverse
/// adjacency gets it on the caller's partition and on the re-homed one.
fn fails_over_like_the_resilient_drive<P: MgpuProblem<u32, u64> + Clone>(
    g: &Csr<u32, u64>,
    problem: P,
    src: Option<u32>,
    expect: &[u64],
) {
    for n in [2usize, 4, 8] {
        let ctx = format!("{} on {n} GPUs", problem.name());
        let plan = FaultPlan::parse("lose:1@4").unwrap();
        let owner = RandomPartitioner { seed: 3 }.assign(g, n);
        let mut dist = DistGraph::build(g, owner.clone(), n, problem.duplication());
        if problem.reads().reverse {
            dist.build_cscs();
        }
        let mut system = SimSystem::homogeneous(n, HardwareProfile::k40());
        system.attach_fault_plan(&plan);
        let mut runner = Runner::new(system, &dist, problem.clone(), resilient()).unwrap();
        let report = runner.enact(src).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(runner.harvest(), expect, "{ctx}");
        assert_eq!(report.recovery.lost_devices, vec![1], "{ctx}");
        assert_eq!(report.recovery.failovers, 1, "{ctx}");
        assert_eq!(report.n_devices, n - 1, "{ctx}: the run ends on the survivors");
        assert_eq!(runner.n_devices(), n - 1, "{ctx}: the runner keeps the survivors");

        let mut drive = ResilientRunner::homogeneous(
            g,
            problem.clone(),
            n,
            HardwareProfile::k40(),
            resilient(),
        )
        .with_owner(owner)
        .with_fault_plan(plan.clone());
        let driven = drive.enact(src).unwrap();
        assert!(report.same_simulation(&driven), "{ctx}: same simulation as the resilient drive");
        assert_eq!(drive.harvest(), expect, "{ctx}");

        // the default policy runs one attempt: the loss is the answer
        let mut system = SimSystem::homogeneous(n, HardwareProfile::k40());
        system.attach_fault_plan(&plan);
        let mut plain =
            Runner::new(system, &dist, problem.clone(), EnactConfig::default()).unwrap();
        assert_eq!(plain.enact(src).err(), Some(VgpuError::DeviceLost { device: 1 }), "{ctx}");
    }
}

#[test]
fn a_runner_fails_over_bfs_dobfs_sssp_and_cc_onto_the_survivors() {
    let g = weighted_graph();
    let bfs: Vec<u64> = reference::bfs(&g, 0u32).into_iter().map(u64::from).collect();
    let sssp: Vec<u64> = reference::sssp(&g, 0u32).into_iter().map(u64::from).collect();
    let cc: Vec<u64> = reference::cc(&g).into_iter().map(|c| c as u64).collect();
    fails_over_like_the_resilient_drive(&g, Bfs::default(), Some(0), &bfs);
    fails_over_like_the_resilient_drive(&g, Dobfs::default(), Some(0), &bfs);
    fails_over_like_the_resilient_drive(&g, Sssp, Some(0), &sssp);
    fails_over_like_the_resilient_drive(&g, Cc, None, &cc);
}

/// After a failover the runner owns the re-homed partition: a second enact
/// runs on the survivors from the start and gives the same answer.
#[test]
fn a_failed_over_runner_enacts_again_on_the_survivors() {
    let g = weighted_graph();
    let expect: Vec<u64> = reference::sssp(&g, 0u32).into_iter().map(u64::from).collect();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
    let mut system = SimSystem::homogeneous(4, HardwareProfile::k40());
    system.attach_fault_plan(&FaultPlan::parse("lose:2@4").unwrap());
    let mut runner = Runner::new(system, &dist, Sssp, resilient()).unwrap();
    let first = runner.enact(Some(0)).unwrap();
    assert_eq!(first.recovery.failovers, 1);
    let again = runner.enact(Some(0)).unwrap();
    assert_eq!(runner.harvest(), expect);
    assert_eq!(again.n_devices, 3);
    assert_eq!(again.recovery.failovers, 0, "the plan's loss already happened");
}
