//! Cross-crate integration: every primitive × every partitioner × GPU
//! counts, validated against the CPU references — the paper's "computations
//! are verified for correctness" (§VII-A) as an executable statement.

use mgpu_graph_analytics::core::{EnactConfig, Runner};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{preferential_attachment, web_crawl};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{
    BiasedRandomPartitioner, DistGraph, Duplication, MultilevelPartitioner, Partitioner,
    RandomPartitioner,
};
use mgpu_graph_analytics::primitives::{reference, Bc, Bfs, Cc, Dobfs, Pagerank, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

fn test_graph() -> Csr<u32, u64> {
    let mut coo = preferential_attachment(300, 7, 99);
    add_paper_weights(&mut coo, 100);
    GraphBuilder::undirected(&coo)
}

/// Harvest words `as u32`: BFS and DOBFS labels, SSSP distances.
fn u32s(words: Vec<u64>) -> Vec<u32> {
    words.into_iter().map(|w| w as u32).collect()
}

/// Harvest words `f32::from_bits`: PR ranks, BC scores.
fn f32s(words: Vec<u64>) -> Vec<f32> {
    words.into_iter().map(|w| f32::from_bits(w as u32)).collect()
}

fn partitions(g: &Csr<u32, u64>, n: usize) -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("random", RandomPartitioner { seed: 5 }.assign(g, n)),
        ("biased", BiasedRandomPartitioner { seed: 5, slack: 0.1 }.assign(g, n)),
        ("metis-like", MultilevelPartitioner { seed: 5, ..Default::default() }.assign(g, n)),
    ]
}

#[test]
fn bfs_correct_under_every_partitioner_and_gpu_count() {
    let g = test_graph();
    let expect = reference::bfs(&g, 0u32);
    for n in [1usize, 2, 3, 5] {
        for (name, owner) in partitions(&g, n) {
            let dist = DistGraph::build(&g, owner, n, Duplication::All);
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner =
                Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
            runner.enact(Some(0u32)).unwrap();
            assert_eq!(u32s(runner.harvest()), expect, "{name} x{n}");
        }
    }
}

#[test]
fn dobfs_correct_under_every_partitioner() {
    let g = test_graph();
    let expect = reference::bfs(&g, 3u32);
    for n in [2usize, 4] {
        for (name, owner) in partitions(&g, n) {
            let mut dist = DistGraph::build(&g, owner, n, Duplication::All);
            dist.build_cscs();
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner =
                Runner::new(sys, &dist, Dobfs::default(), EnactConfig::default()).unwrap();
            runner.enact(Some(3u32)).unwrap();
            assert_eq!(u32s(runner.harvest()), expect, "{name} x{n}");
        }
    }
}

#[test]
fn sssp_correct_under_every_partitioner() {
    let g = test_graph();
    let expect = reference::sssp(&g, 1u32);
    for n in [2usize, 3] {
        for (name, owner) in partitions(&g, n) {
            let dist = DistGraph::build(&g, owner, n, Duplication::All);
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner = Runner::new(sys, &dist, Sssp, EnactConfig::default()).unwrap();
            runner.enact(Some(1u32)).unwrap();
            assert_eq!(u32s(runner.harvest()), expect, "{name} x{n}");
        }
    }
}

#[test]
fn cc_correct_on_fragmented_graph() {
    // several components of varying sizes
    let mut coo = preferential_attachment(150, 4, 7);
    coo.n_vertices = 180; // 30 isolated vertices
    coo.push(160, 161);
    coo.push(161, 162);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let expect = reference::cc(&g);
    for n in [1usize, 2, 4] {
        for (name, owner) in partitions(&g, n) {
            let dist = DistGraph::build(&g, owner, n, Duplication::All);
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner = Runner::new(sys, &dist, Cc, EnactConfig::default()).unwrap();
            runner.enact(None).unwrap();
            let comps: Vec<usize> = runner.harvest().into_iter().map(|w| w as usize).collect();
            assert_eq!(comps, expect, "{name} x{n}");
        }
    }
}

#[test]
fn pagerank_matches_reference_under_every_partitioner() {
    let g = test_graph();
    let expect = reference::pagerank(&g, 0.85, 15);
    for n in [2usize, 4] {
        for (name, owner) in partitions(&g, n) {
            let dist = DistGraph::build(&g, owner, n, Duplication::All);
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 15 };
            let mut runner = Runner::new(sys, &dist, pr, EnactConfig::default()).unwrap();
            runner.enact(None).unwrap();
            for (v, (&a, &b)) in f32s(runner.harvest()).iter().zip(&expect).enumerate() {
                assert!(
                    (a as f64 - b).abs() < 1e-3 * (b + 1e-12),
                    "{name} x{n} vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn bc_matches_brandes_under_every_partitioner() {
    let g = test_graph();
    let expect = reference::bc(&g, 2u32);
    for n in [2usize, 3] {
        for (name, owner) in partitions(&g, n) {
            let mut dist = DistGraph::build(&g, owner, n, Duplication::All);
            dist.build_cscs();
            let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner = Runner::new(sys, &dist, Bc, EnactConfig::default()).unwrap();
            runner.enact(Some(2u32)).unwrap();
            for (v, (&a, &b)) in f32s(runner.harvest()).iter().zip(&expect).enumerate() {
                assert!(
                    (a as f64 - b).abs() < 1e-3 * (1.0 + b),
                    "{name} x{n} vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn web_graph_end_to_end_all_primitives() {
    // a different topology class end-to-end
    let mut coo = web_crawl(400, 6, 21);
    add_paper_weights(&mut coo, 22);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let n = 3;
    let owner = RandomPartitioner { seed: 9 }.assign(&g, n);

    let mut dist = DistGraph::build(&g, owner, n, Duplication::All);
    dist.build_cscs();

    let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
    let mut bfs = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
    bfs.enact(Some(0u32)).unwrap();
    assert_eq!(u32s(bfs.harvest()), reference::bfs(&g, 0u32));

    let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
    let mut dob = Runner::new(sys, &dist, Dobfs::default(), EnactConfig::default()).unwrap();
    dob.enact(Some(0u32)).unwrap();
    assert_eq!(u32s(dob.harvest()), reference::bfs(&g, 0u32));

    let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
    let mut ss = Runner::new(sys, &dist, Sssp, EnactConfig::default()).unwrap();
    ss.enact(Some(0u32)).unwrap();
    assert_eq!(u32s(ss.harvest()), reference::sssp(&g, 0u32));
}
