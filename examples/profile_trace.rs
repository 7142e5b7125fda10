//! Profile a multi-GPU BFS and export a Chrome trace.
//!
//! Turns structured tracing on, runs BFS over 4 virtual GPUs, and writes `target/bfs_trace.json` — load it in `chrome://tracing` or
//! https://ui.perfetto.dev to see each device's compute stream, its
//! communication stream, and the computation/communication overlap the
//! framework gets from its cudaStreamWaitEvent-style scheduling.
//!
//! ```sh
//! cargo run --release --example profile_trace
//! ```

use mgpu_graph_analytics::core::{EnactConfig, Runner};
use mgpu_graph_analytics::gen::{rmat, RmatParams};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::Bfs;
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

fn main() {
    let graph: Csr<u32, u64> = GraphBuilder::undirected(&rmat(14, 16, RmatParams::paper(), 11));
    let dist = DistGraph::partition(&graph, &RandomPartitioner::default(), 4, Duplication::All);

    let system = SimSystem::homogeneous(4, HardwareProfile::k40());
    let config = EnactConfig { tracing: true, ..EnactConfig::default() };
    let mut runner = Runner::new(system, &dist, Bfs::default(), config).expect("init");
    let report = runner.enact(Some(0)).expect("bfs");

    let trace = report.trace.as_ref().expect("tracing was on");
    let total_spans = trace.n_events();
    let json = trace.to_chrome_json();
    let path = "target/bfs_trace.json";
    std::fs::write(path, &json).expect("write trace");

    println!(
        "BFS: {} supersteps, {:.2} ms simulated across 4 GPUs",
        report.iterations,
        report.sim_time_us / 1e3
    );
    println!("wrote {total_spans} spans to {path} ({} bytes)", json.len());
    println!("open chrome://tracing (or https://ui.perfetto.dev) and load the file;");
    println!("pid = device, tid 0 = compute stream, tid 1 = communication stream.");

    // A taste of the schedule without leaving the terminal: per-kernel-kind
    // occupancy on device 0.
    let mut by_name: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    for e in &trace.per_device[0] {
        let entry = by_name.entry(e.name).or_default();
        entry.0 += 1;
        entry.1 += e.dur_us;
    }
    println!("\ndevice 0 span summary:");
    for (name, (count, us)) in by_name {
        println!("  {name:<16} x{count:<4} {us:>9.1} µs");
    }
}
