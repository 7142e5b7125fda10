//! Quickstart: partition a graph over four virtual GPUs and run multi-GPU
//! BFS through the framework.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mgpu_graph_analytics::core::{EnactConfig, Runner};
use mgpu_graph_analytics::gen::{rmat, RmatParams};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::Bfs;
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

fn main() {
    // 1. Generate a power-law graph (R-MAT, the paper's own generator) and
    //    apply the paper's preprocessing: undirected, dedup, no self-loops.
    let coo = rmat(14, 16, RmatParams::paper(), 42);
    let graph: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    println!("graph: {} vertices, {} directed edges", graph.n_vertices(), graph.n_edges());

    // 2. Partition it across 4 virtual GPUs with the paper's default
    //    (random) partitioner and the duplicate-all strategy BFS wants.
    let dist = DistGraph::partition(&graph, &RandomPartitioner::default(), 4, Duplication::All);
    for part in &dist.parts {
        println!(
            "  GPU {}: {} owned vertices, {} local edges, border {}",
            part.gpu,
            part.n_local,
            part.n_edges(),
            part.border_total()
        );
    }

    // 3. Build a 4×K40 node and bind the unmodified BFS primitive to it.
    let system = SimSystem::homogeneous(4, HardwareProfile::k40());
    let mut runner =
        Runner::new(system, &dist, Bfs::default(), EnactConfig::default()).expect("init");

    // 4. Traverse from vertex 0 and inspect the report.
    let report = runner.enact(Some(0)).expect("bfs");
    println!(
        "\nBFS finished in {} supersteps — simulated {:.2} ms ({:.2} GTEPS), wall {:.2} ms",
        report.iterations,
        report.sim_time_us / 1e3,
        report.gteps(graph.n_edges()),
        report.wall_time_us / 1e3
    );
    println!(
        "communication: {} vertices / {} KiB pushed between GPUs",
        report.totals.h_vertices,
        report.totals.h_bytes_sent / 1024
    );

    // 5. Harvest the answer: one word per vertex in global order, here the
    //    depth label (`as u32`), and summarize depths.
    let labels: Vec<u32> = runner.harvest().into_iter().map(|w| w as u32).collect();
    let reached = labels.iter().filter(|&&l| l != u32::MAX).count();
    let max_depth = labels.iter().filter(|&&l| l != u32::MAX).max().unwrap();
    println!("reached {} of {} vertices, max depth {}", reached, labels.len(), max_depth);
}
