//! Social-network analytics: the workload the paper's introduction
//! motivates — run PageRank, betweenness centrality and connected
//! components over one partitioned social graph, reusing the same
//! multi-GPU machinery for all three primitives.
//!
//! ```sh
//! cargo run --release --example social_analytics
//! ```

use mgpu_graph_analytics::core::{EnactConfig, Runner};
use mgpu_graph_analytics::gen::preferential_attachment;
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{Bc, Cc, Pagerank};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

fn top5(scores: &[f32]) -> Vec<(usize, f32)> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    idx.into_iter().take(5).map(|v| (v, scores[v])).collect()
}

fn main() {
    // A 20k-member social network analog (power-law, shallow diameter).
    let graph: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(20_000, 12, 7));
    println!("social graph: {} members, {} directed edges", graph.n_vertices(), graph.n_edges());

    // One partition, reused by every primitive (all three use
    // duplicate-all, so the host graphs are shared).
    let mut dist = DistGraph::partition(&graph, &RandomPartitioner::default(), 4, Duplication::All);
    dist.build_cscs(); // BC's pull sides read the reverse adjacency

    // --- PageRank: who is influential by link structure? ---
    let pr = Pagerank { damping: 0.85, threshold: 1e-6, max_iters: 50 };
    let mut runner = Runner::new(
        SimSystem::homogeneous(4, HardwareProfile::k40()),
        &dist,
        pr,
        EnactConfig::default(),
    )
    .expect("init");
    let report = runner.enact(None).expect("pagerank");
    // a rank's harvest word is its f32 bit pattern
    let ranks: Vec<f32> = runner.harvest().into_iter().map(|w| f32::from_bits(w as u32)).collect();
    println!(
        "\nPageRank converged in {} iterations ({:.2} ms simulated). Top members:",
        report.iterations,
        report.sim_time_us / 1e3
    );
    for (v, r) in top5(&ranks) {
        println!("  member {v:>6}: rank {r:.6}");
    }

    // --- Betweenness centrality: who brokers the most connections? ---
    let mut runner = Runner::new(
        SimSystem::homogeneous(4, HardwareProfile::k40()),
        &dist,
        Bc,
        EnactConfig::default(),
    )
    .expect("init");
    // Accumulate over a few sources (full BC sums over all sources).
    let sources = [0u32, 171, 4242, 9001];
    let mut centrality = vec![0.0f32; graph.n_vertices()];
    let mut total_ms = 0.0;
    for &src in &sources {
        let report = runner.enact(Some(src)).expect("bc");
        total_ms += report.sim_time_us / 1e3;
        for (acc, w) in centrality.iter_mut().zip(runner.harvest()) {
            *acc += f32::from_bits(w as u32);
        }
    }
    println!(
        "\nBetweenness (sampled over {} sources, {total_ms:.2} ms simulated). Top brokers:",
        sources.len()
    );
    for (v, c) in top5(&centrality) {
        println!("  member {v:>6}: dependency {c:.1}");
    }

    // --- Connected components: is the network one community? ---
    let mut runner = Runner::new(
        SimSystem::homogeneous(4, HardwareProfile::k40()),
        &dist,
        Cc,
        EnactConfig::default(),
    )
    .expect("init");
    let report = runner.enact(None).expect("cc");
    // a component's harvest word is its smallest member's id
    let mut roots: Vec<usize> = runner.harvest().into_iter().map(|w| w as usize).collect();
    roots.sort_unstable();
    roots.dedup();
    println!(
        "\nConnected components: {} component(s) in {} supersteps (paper: 2-5 for power-law)",
        roots.len(),
        report.iterations
    );
}
