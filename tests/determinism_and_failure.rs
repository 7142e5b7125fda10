//! Integration tests of the simulation's operational properties:
//! reproducibility of the simulated clock, partitioner-independence of
//! results, and clean failure propagation from device threads.

use std::sync::atomic::{AtomicBool, Ordering};

use mgpu_graph_analytics::core::governor::estimate_bind;
use mgpu_graph_analytics::core::{
    AllocScheme, CommStrategy, CommTopology, EnactConfig, FrontierBufs, MgpuProblem,
    RecoveryPolicy, Runner,
};
use mgpu_graph_analytics::gen::preferential_attachment;
use mgpu_graph_analytics::graph::{Coo, Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner, Reads, SubGraph};
use mgpu_graph_analytics::primitives::{bfs::BfsState, Bfs};
use mgpu_graph_analytics::vgpu::sync::GlobalReduce;
use mgpu_graph_analytics::vgpu::{
    Device, FaultPlan, HardwareProfile, Result as VgpuResult, SimSystem, VgpuError,
};

fn graph() -> Csr<u32, u64> {
    GraphBuilder::undirected(&preferential_attachment(500, 8, 31))
}

#[test]
fn simulated_time_is_exactly_reproducible() {
    let g = graph();
    let run = || {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 4, Duplication::All);
        let sys = SimSystem::homogeneous(4, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let r = runner.enact(Some(0u32)).unwrap();
        (r.sim_time_us, r.totals, runner.harvest())
    };
    let (t1, c1, l1) = run();
    let (t2, c2, l2) = run();
    assert_eq!(t1, t2, "simulated makespan must not depend on thread scheduling");
    assert_eq!(c1, c2, "counters must be deterministic");
    assert_eq!(l1, l2, "results must be deterministic");
}

#[test]
fn wall_clock_parallelism_does_not_change_results_across_repeats() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 8 }, 6, Duplication::All);
    let sys = SimSystem::homogeneous(6, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    let mut first = None;
    for _ in 0..10 {
        runner.enact(Some(7u32)).unwrap();
        let labels = runner.harvest();
        match &first {
            None => first = Some(labels),
            Some(f) => assert_eq!(&labels, f),
        }
    }
}

#[test]
fn oom_on_one_device_aborts_cleanly_without_deadlock() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 1 }, 3, Duplication::All);
    // Device 1 is too small for its labels + buffers; Runner::new fails
    // with OutOfMemory rather than hanging or panicking.
    let profiles = vec![
        HardwareProfile::k40(),
        HardwareProfile::k40().with_capacity(2_000),
        HardwareProfile::k40(),
    ];
    let sys =
        SimSystem::new(profiles, mgpu_graph_analytics::vgpu::Interconnect::pcie3(3, 4)).unwrap();
    match Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()) {
        Err(VgpuError::OutOfMemory { device, .. }) => assert_eq!(device, 1),
        Err(e) => panic!("expected OOM on device 1, got error {e}"),
        Ok(_) => panic!("expected OOM on device 1, but init succeeded"),
    }
}

#[test]
fn mid_run_oom_is_reported_not_deadlocked() {
    // Two hubs, each joined to every other vertex, both owned by device 1.
    // A BFS from a leaf on device 0 brings them into device 1's frontier
    // together in superstep 1.
    let n = 500u32;
    let edges = [0u32, 2]
        .iter()
        .flat_map(|&hub| (0..n).filter(move |&v| v != hub).map(move |v| (hub, v)))
        .collect();
    let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(n as usize, edges, None));
    let owner = (0..n).map(|v| (v % 2 == 0) as u32).collect();
    let dist = DistGraph::build(&g, owner, 2, Duplication::All);
    // Device 1 gets exactly its admission estimate at the just-enough floor,
    // so the bind fits. What the pool has left after the bind holds neither
    // the two hubs' adjacencies together nor, as a chunk grant, one hub's
    // alone: the advance cannot be split finer than a vertex.
    let bfs = Bfs::default();
    let sub = &dist.parts[1];
    let cap =
        estimate_bind(&bfs, sub, AllocScheme::JustEnough, MgpuProblem::<u32, u64>::comm(&bfs))
            .total();
    let profiles = vec![HardwareProfile::k40(), HardwareProfile::k40().with_capacity(cap)];
    let sys =
        SimSystem::new(profiles, mgpu_graph_analytics::vgpu::Interconnect::pcie3(2, 4)).unwrap();
    let config = EnactConfig { alloc_scheme: Some(AllocScheme::JustEnough), ..Default::default() };
    let mut runner = Runner::new(sys, &dist, bfs, config).expect("the bind fits at the floor");
    let err = runner.enact(Some(1u32)).expect_err("one hub outgrows the chunk grant");
    assert!(matches!(err, VgpuError::OutOfMemory { device: 1, .. }), "{err}");
}

#[test]
fn injected_transient_faults_keep_the_simulation_reproducible() {
    // Fault injection + in-place retry is part of the deterministic
    // simulation: two runs under the same plan agree bit-for-bit, recovery
    // log included (the deeper suite lives in tests/resilience.rs).
    let g = graph();
    let run = || {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 5 }, 4, Duplication::All);
        let mut sys = SimSystem::homogeneous(4, HardwareProfile::k40());
        sys.attach_fault_plan(&FaultPlan::new().kernel_fail(1, 3).transfer_fail(0, 2, 1));
        let config = EnactConfig {
            recovery: RecoveryPolicy {
                max_retries: 2,
                retry_backoff_us: 5.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut runner = Runner::new(sys, &dist, Bfs::default(), config).unwrap();
        let r = runner.enact(Some(0u32)).unwrap();
        (r, runner.harvest())
    };
    let (r1, l1) = run();
    let (r2, l2) = run();
    assert_eq!(l1, l2);
    assert!(r1.same_simulation(&r2), "fault handling must be schedule-independent");
    assert!(r1.recovery.kernel_retries >= 1 && r1.recovery.transfer_retries >= 1);
}

#[test]
fn partitioner_seed_changes_partition_but_not_answer() {
    let g = graph();
    let expect = mgpu_graph_analytics::primitives::reference::bfs(&g, 0u32);
    for seed in [1u64, 2, 3, 4] {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, 4, Duplication::All);
        let sys = SimSystem::homogeneous(4, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        runner.enact(Some(0u32)).unwrap();
        let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
        assert_eq!(labels, expect, "seed {seed}");
    }
}

#[test]
fn overhead_scaled_profiles_accepted_end_to_end() {
    let g = graph();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 2, Duplication::All);
    let profile = HardwareProfile::k40().with_overhead_scale(256.0);
    let ic = mgpu_graph_analytics::vgpu::Interconnect::pcie3(2, 4).with_latency_scale(256.0);
    let sys = SimSystem::new(vec![profile; 2], ic).unwrap();
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    let r = runner.enact(Some(0u32)).unwrap();
    let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
    assert_eq!(labels, mgpu_graph_analytics::primitives::reference::bfs(&g, 0u32));
    assert!(r.sim_time_us > 0.0);
}

// --- a device thread that stops attending rendezvous fails typed -----------
//
// Problem code the enactor runs *between* kernels can take a device thread
// out of the superstep loop: its peers are then waiting for an arrival that
// never comes. Both ways out are covered — `comm_now` (caught by `guard`,
// but the device no longer knows the superstep's rendezvous schedule) and a
// panic nothing catches (`globally_done`), which unwinds the thread.

/// Where [`FaultyBfs`] panics.
enum Trip {
    /// In `comm_now`, on device 1, before superstep 3.
    CommNow,
    /// In `globally_done` after superstep 3, on whichever one device gets
    /// there first.
    GloballyDoneOnce(AtomicBool),
}

/// BFS over broadcast communication (so the butterfly can carry it) with a
/// panic planted in problem code that runs outside every kernel.
struct FaultyBfs(Trip);

struct FaultyState {
    bfs: BfsState,
    device: usize,
    superstep: usize,
}

const BFS: Bfs = Bfs { one_hop: false };

impl MgpuProblem<u32, u64> for FaultyBfs {
    type State = FaultyState;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "faulty-bfs"
    }
    fn duplication(&self) -> Duplication {
        Duplication::All
    }
    fn reads(&self) -> Reads {
        Reads::default()
    }
    fn comm(&self) -> CommStrategy {
        CommStrategy::Broadcast
    }
    fn comm_now(&self, state: &FaultyState) -> CommStrategy {
        if matches!(self.0, Trip::CommNow) && state.device == 1 && state.superstep == 3 {
            panic!("planted: comm_now on device 1 before superstep 3");
        }
        CommStrategy::Broadcast
    }
    fn init(&self, dev: &mut Device, sub: &SubGraph<u32, u64>) -> VgpuResult<FaultyState> {
        Ok(FaultyState { bfs: BFS.init(dev, sub)?, device: dev.id(), superstep: 0 })
    }
    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut FaultyState,
        src: Option<u32>,
    ) -> VgpuResult<Vec<u32>> {
        state.superstep = 0;
        BFS.reset(dev, sub, &mut state.bfs, src)
    }
    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut FaultyState,
        bufs: &mut FrontierBufs<u32>,
        input: &[u32],
        iter: usize,
    ) -> VgpuResult<Vec<u32>> {
        BFS.iteration(dev, sub, &mut state.bfs, bufs, input, iter)
    }
    fn package(&self, state: &FaultyState, v: u32) -> u32 {
        MgpuProblem::<u32, u64>::package(&BFS, &state.bfs, v)
    }
    fn combine(&self, state: &mut FaultyState, v: u32, msg: &u32) -> bool {
        MgpuProblem::<u32, u64>::combine(&BFS, &mut state.bfs, v, msg)
    }
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }
    fn after_superstep(&self, state: &mut FaultyState, _: &GlobalReduce, iter: usize) {
        state.superstep = iter;
    }
    fn globally_done(&self, _: &GlobalReduce, iter: usize) -> bool {
        if let Trip::GloballyDoneOnce(armed) = &self.0 {
            if iter == 3 && armed.swap(false, Ordering::SeqCst) {
                panic!("planted: globally_done after superstep 3, one device only");
            }
        }
        false
    }
    fn result_word(&self, state: &FaultyState, v: u32) -> u64 {
        MgpuProblem::<u32, u64>::result_word(&BFS, &state.bfs, v)
    }
}

/// Enact [`FaultyBfs`] on a 64-ring (32 supersteps fault-free) and return
/// the error, failing if the enact has not returned within 30 s.
fn enact_faulty(trip: Trip, n_gpus: usize, topology: CommTopology) -> VgpuError {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ring: Vec<(u32, u32)> = (0..64).map(|i| (i, (i + 1) % 64)).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(64, ring, None));
        let owner: Vec<u32> = (0..64).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(&g, owner, n_gpus, Duplication::All);
        let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let config = EnactConfig { comm_topology: topology, ..Default::default() };
        let mut runner = Runner::new(sys, &dist, FaultyBfs(trip), config).unwrap();
        let _ = done.send(runner.enact(Some(0u32)).map(|r| r.iterations));
    });
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(Err(e)) => e,
        Ok(Ok(supersteps)) => panic!("the planted panic never fired ({supersteps} supersteps)"),
        Err(_) => panic!("enact still blocked after 30 s: peers are waiting at a rendezvous"),
    }
}

#[test]
fn a_panicking_comm_now_is_a_lost_device_not_a_hang() {
    for topology in [CommTopology::Direct, CommTopology::Butterfly] {
        for n_gpus in [2, 4] {
            assert_eq!(
                enact_faulty(Trip::CommNow, n_gpus, topology),
                VgpuError::DeviceLost { device: 1 },
                "{n_gpus} vGPUs over {topology:?}"
            );
        }
    }
}

#[test]
fn a_device_thread_that_unwinds_releases_its_peers() {
    for topology in [CommTopology::Direct, CommTopology::Butterfly] {
        for n_gpus in [2, 4] {
            let trip = Trip::GloballyDoneOnce(AtomicBool::new(true));
            match enact_faulty(trip, n_gpus, topology) {
                VgpuError::DeviceLost { device } => assert!(device < n_gpus),
                e => panic!("{n_gpus} vGPUs over {topology:?}: expected a lost device, got {e}"),
            }
        }
    }
}
