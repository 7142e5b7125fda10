//! Edge-case integration tests: degenerate graphs, sources, and
//! configurations that historically break BSP graph frameworks.

use mgpu_graph_analytics::core::{AllocScheme, CommStrategy, EnactConfig, Runner};
use mgpu_graph_analytics::gen::smallworld::chain;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Coo, Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{
    bfs::gather_labels, cc::gather_components, reference, Bfs, Cc, Dobfs, Pagerank,
};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

const INF: u32 = u32::MAX;

fn run_bfs(g: &Csr<u32, u64>, n: usize, src: u32) -> Vec<u32> {
    let dist = DistGraph::partition(g, &RandomPartitioner { seed: 1 }, n, Duplication::All);
    let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    runner.enact(Some(src)).unwrap();
    gather_labels(&runner, &dist)
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
    let labels = mgpu_graph_analytics::primitives::dobfs::gather_labels(&runner, &dist);
    assert_eq!(labels, reference::bfs(&g, 0u32));
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
    let ranks = mgpu_graph_analytics::primitives::pr::gather_ranks(&runner, &dist);
    for (v, (&got, want)) in ranks.iter().zip(reference::pagerank(&g, 0.85, 7)).enumerate() {
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
    assert_eq!(gather_components(&runner, &dist), vec![0, 0]);
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
        assert_eq!(gather_labels(&runner, &dist), expect);
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
        assert_eq!(gather_labels(&runner, &dist), expect);
        peaks.push(runner.system().peak_memory_per_device());
    }
    assert!(peaks[1] > peaks[0], "max allocation uses more device memory");
}

#[test]
fn superstep_history_tracks_the_frontier_wave() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(400, 8, 12));
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 2 }, 3, Duplication::All);
    let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
    let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    let r = runner.enact(Some(0u32)).unwrap();
    assert_eq!(r.history.len(), r.iterations);
    assert_eq!(r.history[0].input, 1, "the wave starts at the source");
    // the final superstep may still *produce* candidates (late proxy
    // discoveries the owners already know), but none survive combining
    assert_eq!(r.history.last().unwrap().combined, 0, "the wave dies out");
    // every vertex the traversal reached (beyond the source) entered exactly
    // one superstep's next-input frontier
    let labels = gather_labels(&runner, &dist);
    let reached = labels.iter().filter(|&&l| l != INF && l != 0).count() as u64;
    let combined: u64 = r.history.iter().map(|t| t.combined).sum();
    assert_eq!(combined, reached);
    // under selective comm, the iteration output splits into a local part
    // and the sent part — so sent never exceeds what was produced
    for t in &r.history {
        assert!(t.sent <= t.output, "sent {} > output {}", t.sent, t.output);
    }
}
