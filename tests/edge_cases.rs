//! Edge-case integration tests: degenerate graphs, sources, and
//! configurations that historically break BSP graph frameworks.

use std::sync::{Arc, Mutex};

use mgpu_graph_analytics::core::{
    AllocScheme, CommStrategy, EnactConfig, FrontierBufs, MgpuProblem, Runner,
};
use mgpu_graph_analytics::gen::smallworld::chain;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Coo, Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner, Reads, SubGraph};
use mgpu_graph_analytics::primitives::{bfs::BfsState, reference, Bfs, Cc, Dobfs, Pagerank};
use mgpu_graph_analytics::vgpu::{Device, HardwareProfile, Result as VgpuResult, SimSystem};

const INF: u32 = u32::MAX;

/// Harvest words `as u32`: BFS and DOBFS labels.
fn u32s(words: Vec<u64>) -> Vec<u32> {
    words.into_iter().map(|w| w as u32).collect()
}

fn run_bfs(g: &Csr<u32, u64>, n: usize, src: u32) -> Vec<u32> {
    let dist = DistGraph::partition(g, &RandomPartitioner { seed: 1 }, n, Duplication::All);
    let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    runner.enact(Some(src)).unwrap();
    u32s(runner.harvest())
}

#[test]
fn single_vertex_graph() {
    let g: Csr<u32, u64> = Csr::empty(1);
    assert_eq!(run_bfs(&g, 1, 0), vec![0]);
}

#[test]
fn edgeless_graph_on_many_gpus() {
    let g: Csr<u32, u64> = Csr::empty(10);
    let labels = run_bfs(&g, 4, 3);
    let mut expect = vec![INF; 10];
    expect[3] = 0;
    assert_eq!(labels, expect);
}

#[test]
fn source_in_a_tiny_component() {
    // source isolated from the giant component: one superstep, almost all INF
    let mut coo = gnm(100, 400, 3);
    coo.n_vertices = 102;
    coo.push(100, 101);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let labels = run_bfs(&g, 3, 100);
    assert_eq!(labels[100], 0);
    assert_eq!(labels[101], 1);
    assert!(labels[..100].iter().all(|&l| l == INF));
}

#[test]
fn more_gpus_than_frontier_ever_uses() {
    // a 3-vertex path on 6 GPUs: most devices idle every superstep but the
    // barrier protocol must still terminate
    let coo = Coo::from_edges(3, vec![(0, 1), (1, 2)], None);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    assert_eq!(run_bfs(&g, 6, 0), vec![0, 1, 2]);
}

#[test]
fn self_loops_and_parallel_edges_survive_raw_builds() {
    // bypass the cleaning builder: the framework must still be correct
    let coo = Coo::from_edges(4, vec![(0, 0), (0, 1), (0, 1), (1, 2), (2, 3)], None);
    let g: Csr<u32, u64> =
        GraphBuilder::build(&coo, mgpu_graph_analytics::graph::BuildOptions::raw());
    let labels = run_bfs(&g, 2, 0);
    assert_eq!(labels, reference::bfs(&g, 0u32));
}

#[test]
fn dobfs_on_a_chain_never_switches_but_stays_correct() {
    // chain: FV stays tiny, backward never profitable
    let g: Csr<u32, u64> = GraphBuilder::undirected(&chain(64));
    let mut dist = DistGraph::partition(&g, &RandomPartitioner { seed: 2 }, 2, Duplication::All);
    dist.build_cscs();
    let sys = SimSystem::homogeneous(2, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Dobfs::default(), EnactConfig::default()).unwrap();
    runner.enact(Some(0u32)).unwrap();
    assert_eq!(u32s(runner.harvest()), reference::bfs(&g, 0u32));
}

#[test]
fn pagerank_on_a_single_gpu_with_zero_threshold_runs_to_cap() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(30, 120, 4));
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 5 }, 1, Duplication::All);
    let sys = SimSystem::homogeneous(1, HardwareProfile::k40());
    let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 7 };
    let mut runner = Runner::new(sys, &dist, pr, EnactConfig::default()).unwrap();
    let r = runner.enact(None).unwrap();
    // 1 spread + 7 updates at most: the run may end once nothing spreads
    assert!((2..=8).contains(&r.iterations), "{} supersteps", r.iterations);
    let ranks = runner.harvest().into_iter().map(|w| f32::from_bits(w as u32));
    for (v, (got, want)) in ranks.zip(reference::pagerank(&g, 0.85, 7)).enumerate() {
        assert!((got as f64 - want).abs() <= 1e-3 * want, "vertex {v}: {got} vs {want}");
    }
}

#[test]
fn cc_single_edge_graph_across_gpus() {
    let coo = Coo::from_edges(2, vec![(0, 1)], None);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let dist = DistGraph::build(&g, vec![0, 1], 2, Duplication::All);
    let sys = SimSystem::homogeneous(2, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Cc, EnactConfig::default()).unwrap();
    runner.enact(None).unwrap();
    let comps: Vec<usize> = runner.harvest().into_iter().map(|w| w as usize).collect();
    assert_eq!(comps, vec![0, 0]);
}

#[test]
fn comm_override_changes_volume_but_not_answer() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(300, 6, 8));
    let expect = reference::bfs(&g, 0u32);
    let mut volumes = Vec::new();
    for comm in [CommStrategy::Selective, CommStrategy::Broadcast] {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 3, Duplication::All);
        let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
        let config = EnactConfig { comm: Some(comm), ..Default::default() };
        let mut runner = Runner::new(sys, &dist, Bfs::default(), config).unwrap();
        let r = runner.enact(Some(0u32)).unwrap();
        assert_eq!(u32s(runner.harvest()), expect);
        volumes.push(r.totals.h_vertices);
    }
    assert!(volumes[1] > volumes[0], "broadcast moves more vertices than selective");
}

#[test]
fn alloc_scheme_override_changes_memory_but_not_answer() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(300, 6, 9));
    let expect = reference::bfs(&g, 0u32);
    let mut peaks = Vec::new();
    for scheme in [AllocScheme::JustEnough, AllocScheme::Max] {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 3 }, 2, Duplication::All);
        let sys = SimSystem::homogeneous(2, HardwareProfile::k40());
        let config = EnactConfig { alloc_scheme: Some(scheme), ..Default::default() };
        let mut runner = Runner::new(sys, &dist, Bfs::default(), config).unwrap();
        runner.enact(Some(0u32)).unwrap();
        assert_eq!(u32s(runner.harvest()), expect);
        peaks.push(runner.system().peak_memory_per_device());
    }
    assert!(peaks[1] > peaks[0], "max allocation uses more device memory");
}

/// One device's view of one superstep.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    /// Input frontier the iteration consumed.
    input: u64,
    /// Output frontier the iteration produced.
    output: u64,
    /// Vertices the device had pushed to peers before this superstep.
    sent_before: u64,
    /// The next input frontier the framework assembled (the local part plus
    /// the accepted received vertices).
    next_input: u64,
}

/// BFS that writes down each superstep as its device sees it: the frontier
/// sizes in `iteration` and `locally_done`, and the device's pushed-vertex
/// counter when each iteration starts.
struct WaveBfs {
    steps: Arc<Mutex<Vec<Vec<Step>>>>,
}

struct WaveState {
    bfs: BfsState,
    device: usize,
}

const BFS: Bfs = Bfs { one_hop: false };

impl MgpuProblem<u32, u64> for WaveBfs {
    type State = WaveState;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "wave-bfs"
    }
    fn duplication(&self) -> Duplication {
        MgpuProblem::<u32, u64>::duplication(&BFS)
    }
    fn reads(&self) -> Reads {
        MgpuProblem::<u32, u64>::reads(&BFS)
    }
    fn comm(&self) -> CommStrategy {
        MgpuProblem::<u32, u64>::comm(&BFS)
    }
    fn alloc_scheme(&self) -> AllocScheme {
        MgpuProblem::<u32, u64>::alloc_scheme(&BFS)
    }
    fn init(&self, dev: &mut Device, sub: &SubGraph<u32, u64>) -> VgpuResult<WaveState> {
        Ok(WaveState { bfs: BFS.init(dev, sub)?, device: dev.id() })
    }
    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut WaveState,
        src: Option<u32>,
    ) -> VgpuResult<Vec<u32>> {
        BFS.reset(dev, sub, &mut state.bfs, src)
    }
    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut WaveState,
        bufs: &mut FrontierBufs<u32>,
        input: &[u32],
        iter: usize,
    ) -> VgpuResult<Vec<u32>> {
        let sent_before = dev.counters.h_vertices;
        let output = BFS.iteration(dev, sub, &mut state.bfs, bufs, input, iter)?;
        let step = Step {
            input: input.len() as u64,
            output: output.len() as u64,
            sent_before,
            next_input: 0,
        };
        self.steps.lock().unwrap()[state.device].push(step);
        Ok(output)
    }
    fn package(&self, state: &WaveState, v: u32) -> u32 {
        MgpuProblem::<u32, u64>::package(&BFS, &state.bfs, v)
    }
    fn combine(&self, state: &mut WaveState, v: u32, msg: &u32) -> bool {
        MgpuProblem::<u32, u64>::combine(&BFS, &mut state.bfs, v, msg)
    }
    fn monotone(&self) -> bool {
        true
    }
    fn monotone_key(&self, msg: &u32) -> u64 {
        u64::from(*msg)
    }
    fn locally_done(&self, state: &WaveState, next_input: &[u32]) -> bool {
        let mut steps = self.steps.lock().unwrap();
        steps[state.device].last_mut().unwrap().next_input = next_input.len() as u64;
        MgpuProblem::<u32, u64>::locally_done(&BFS, &state.bfs, next_input)
    }
    fn result_word(&self, state: &WaveState, v: u32) -> u64 {
        MgpuProblem::<u32, u64>::result_word(&BFS, &state.bfs, v)
    }
}

#[test]
fn superstep_history_tracks_the_frontier_wave() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(400, 8, 12));
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 2 }, 3, Duplication::All);
    let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
    let steps = Arc::new(Mutex::new(vec![Vec::new(); 3]));
    let wave = WaveBfs { steps: Arc::clone(&steps) };
    let mut runner = Runner::new(sys, &dist, wave, EnactConfig::default()).unwrap();
    let r = runner.enact(Some(0u32)).unwrap();
    let labels = runner.harvest();
    let sent_total: Vec<u64> =
        runner.system().devices.iter().map(|d| d.counters.h_vertices).collect();
    let steps = steps.lock().unwrap().clone();
    assert!(steps.iter().all(|d| d.len() == r.iterations), "one step per device per superstep");
    let summed = |k: usize, f: fn(&Step) -> u64| steps.iter().map(|d| f(&d[k])).sum::<u64>();
    assert_eq!(summed(0, |s| s.input), 1, "the wave starts at the source");
    // the final superstep may still *produce* candidates (late proxy
    // discoveries the owners already know), but none survive combining
    assert_eq!(summed(r.iterations - 1, |s| s.next_input), 0, "the wave dies out");
    // every vertex the traversal reached (beyond the source) entered exactly
    // one superstep's next-input frontier
    let reached = labels.iter().filter(|&&l| l != u64::from(INF) && l != 0).count() as u64;
    let entered: u64 = (0..r.iterations).map(|k| summed(k, |s| s.next_input)).sum();
    assert_eq!(entered, reached);
    // under selective comm, the iteration output splits into a local part
    // and the sent part — so sent never exceeds what was produced
    for (device, d) in steps.iter().enumerate() {
        for (k, step) in d.iter().enumerate() {
            let sent_after = d.get(k + 1).map_or(sent_total[device], |s| s.sent_before);
            let sent = sent_after - step.sent_before;
            assert!(sent <= step.output, "gpu {device} superstep {k}: sent {sent} > {step:?}");
        }
    }
}
