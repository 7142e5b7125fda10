//! §VI-A ablation — direction-switch threshold sweep.
//!
//! Sweeps `do_a` and `do_b` for DOBFS on a soc analog across 1/2/4 GPUs.
//! The paper's claims to check: the optimum for a graph family is broad
//! (do_a=0.01, do_b=0.1 works for social graphs), and the best parameters
//! are "mostly mGPU-independent — the same set of parameters can be used
//! for different numbers of GPUs".

use mgpu_bench::{pick_source, BenchArgs, Table};
use mgpu_core::direction::DirectionConfig;
use mgpu_core::{EnactConfig, Runner};
use mgpu_gen::Dataset;
use mgpu_graph::Csr;
use mgpu_partition::{DistGraph, Duplication};
use mgpu_primitives::Dobfs;
use vgpu::{HardwareProfile, SimSystem};

fn run(g: &Csr<u32, u64>, n: usize, do_a: f64, do_b: f64) -> f64 {
    let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n) as u32).collect();
    let mut dist = DistGraph::build(g, owner, n, Duplication::All);
    dist.build_cscs();
    let system = SimSystem::homogeneous(n, HardwareProfile::k40());
    let dobfs = Dobfs { direction: DirectionConfig { do_a, do_b, enabled: true } };
    let mut runner = Runner::new(system, &dist, dobfs, EnactConfig::default()).unwrap();
    runner.enact(Some(pick_source(g))).unwrap().sim_time_us
}

fn main() {
    let args = BenchArgs::parse();
    let g = Dataset::by_name("soc-orkut").unwrap().build_undirected(args.shift, args.seed);
    println!("Sec. VI-A ablation — DOBFS do_a/do_b sweep on soc-orkut analog (runtime in ms)\n");
    // Wide sweep: tiny do_a switches to pull almost immediately; huge do_a
    // never switches (plain BFS); huge do_b snaps back to push right away.
    let do_as = [0.0001, 0.01, 1.0, 1e6];
    let do_bs = [0.001, 0.1, 10.0];
    for n in [1usize, 2, 4] {
        let mut t = Table::new(&["do_a \\ do_b", "0.001", "0.1", "10.0"]);
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for &a in &do_as {
            let mut cells = vec![format!("{a}")];
            for &b in &do_bs {
                let us = run(&g, n, a, b);
                if us < best.0 {
                    best = (us, a, b);
                }
                cells.push(format!("{:.2}", us / 1e3));
            }
            t.row(&cells);
        }
        println!("--- {n} GPU(s): best (do_a={}, do_b={}) ---", best.1, best.2);
        t.print();
        println!();
    }
    println!(
        "Shape to check: the best cell is the same (or within noise) across GPU counts —\n\
         the thresholds are mGPU-independent."
    );
}
