//! Memory planning: how big a subgraph fits on one GPU under each
//! allocation scheme?
//!
//! The §VI-B motivation made executable: worst-case allocation
//! "artificially limits the size of the subgraph we can place onto one
//! GPU, which either (a) requires us to use more GPUs … or (b) limits our
//! scalability". This example binds BFS to progressively larger graphs on
//! a single memory-capped virtual GPU and reports, per scheme, the largest
//! graph that runs under the scheme asked for, and the scale at which the
//! pressure governor's admission control first steps the scheme down to a
//! cheaper one (or, at the just-enough floor, refuses the bind with a
//! typed out-of-memory error).
//!
//! ```sh
//! cargo run --release --example memory_planner
//! ```

use mgpu_graph_analytics::core::{AllocScheme, Downgrade, EnactConfig, Runner};
use mgpu_graph_analytics::gen::{rmat, RmatParams};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication};
use mgpu_graph_analytics::primitives::Bfs;
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem, VgpuError};

/// Run BFS on a 1-GPU system with `capacity` bytes of device memory and
/// return the peak bytes and the admission downgrades it took.
fn run(
    graph: &Csr<u32, u64>,
    scheme: AllocScheme,
    capacity: u64,
) -> Result<(u64, Vec<Downgrade>), VgpuError> {
    let dist = DistGraph::build(graph, vec![0; graph.n_vertices()], 1, Duplication::All);
    let system = SimSystem::homogeneous(1, HardwareProfile::k40().with_capacity(capacity));
    let config = EnactConfig { alloc_scheme: Some(scheme), ..Default::default() };
    let mut runner = Runner::new(system, &dist, Bfs::default(), config)?;
    let report = runner.enact(Some(0))?;
    Ok((report.peak_memory_per_device, report.governor.downgrades))
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    // A deliberately small "GPU": 64 MiB, so the experiment runs quickly.
    let capacity: u64 = 64 << 20;
    println!(
        "Largest R-MAT graph (edge factor 32) that runs as asked on a {} MiB device, \
         per allocation scheme:\n",
        capacity >> 20
    );
    let schemes = [
        AllocScheme::Max,
        AllocScheme::Fixed { sizing_factor: 3.0 },
        AllocScheme::PreallocFusion { sizing_factor: 3.0 },
        AllocScheme::JustEnough,
    ];
    // Per scheme: (scale, edges, peak bytes) of the largest run as asked,
    // and the wall it met. Each scale's graph is built once for every scheme
    // that has not met its wall yet.
    let mut rows: Vec<_> =
        schemes.iter().map(|&scheme| (scheme, (0u32, 0usize, 0u64), None)).collect();
    for scale in 10..=22u32 {
        if rows.iter().all(|(_, _, wall)| wall.is_some()) {
            break;
        }
        let graph: Csr<u32, u64> =
            GraphBuilder::undirected(&rmat(scale, 32, RmatParams::paper(), 1));
        for (scheme, best, wall) in rows.iter_mut().filter(|(_, _, wall)| wall.is_none()) {
            match run(&graph, *scheme, capacity) {
                Ok((peak, downgrades)) if downgrades.is_empty() => {
                    *best = (scale, graph.n_edges(), peak)
                }
                Ok((_, downgrades)) => {
                    let to = downgrades.last().map_or("?", |d| d.to);
                    *wall = Some(format!("scale {scale} is stepped down to {to}"));
                }
                Err(VgpuError::OutOfMemory { requested, .. }) => {
                    *wall = Some(format!(
                        "scale {scale} is refused (estimate {:.1} MiB)",
                        mib(requested)
                    ));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    for (scheme, (scale, edges, peak), wall) in rows {
        println!(
            "{:<16} runs as asked up to scale {scale:>2} ({edges:>9} edges, peak {:>5.1} MiB); {}",
            scheme.label(),
            mib(peak),
            wall.as_deref().unwrap_or("no wall below scale 22"),
        );
    }
    println!(
        "\nShape (Fig. 3 / §VI-B): just-enough runs the largest subgraph as asked and\n\
         max allocation meets the capacity wall first, where admission control steps it\n\
         down instead of failing."
    );
}
