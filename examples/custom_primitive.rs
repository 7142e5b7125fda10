//! Extending the framework: a complete custom primitive in ~80 lines.
//!
//! Implements **multi-GPU reachability with hop budget** (how many vertices
//! are within `k` hops of a set of seeds?) by writing exactly the four
//! programmer concerns of the paper's §III-B — the core iteration, the data
//! to communicate, the combiner, and the stop condition — and letting the
//! framework do all the multi-GPU work.
//!
//! ```sh
//! cargo run --release --example custom_primitive
//! ```

use mgpu_graph_analytics::core::ops;
use mgpu_graph_analytics::core::problem::MgpuProblem;
use mgpu_graph_analytics::core::{AllocScheme, CommStrategy, EnactConfig, FrontierBufs, Runner};
use mgpu_graph_analytics::gen::preferential_attachment;
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner, SubGraph};
use mgpu_graph_analytics::vgpu::sync::GlobalReduce;
use mgpu_graph_analytics::vgpu::{Device, DeviceArray, HardwareProfile, Result, SimSystem};

/// Multi-source, hop-bounded reachability.
struct Reachability {
    seeds: Vec<u32>,
    max_hops: usize,
}

struct ReachState {
    reached: DeviceArray<u8>,
}

impl MgpuProblem<u32, u64> for Reachability {
    type State = ReachState;
    type Msg = (); // reachability is a fact, not a value: nothing to attach

    fn name(&self) -> &'static str {
        "k-hop reachability"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::JustEnough
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<u32, u64>) -> Result<ReachState> {
        Ok(ReachState { reached: dev.alloc(sub.n_vertices())? })
    }

    fn reset(
        &self,
        _dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut ReachState,
        _src: Option<u32>,
    ) -> Result<Vec<u32>> {
        state.reached.as_mut_slice().fill(0);
        // every GPU seeds the vertices it owns
        let mine: Vec<u32> = self.seeds.iter().copied().filter(|&s| sub.is_owned(s)).collect();
        for &s in &mine {
            state.reached[s as usize] = 1;
        }
        Ok(mine)
    }

    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<u32, u64>,
        state: &mut ReachState,
        _bufs: &mut FrontierBufs<u32>,
        input: &[u32],
        _iter: usize,
    ) -> Result<Vec<u32>> {
        // The `_seq` variant accepts a plain mutable closure — the easiest
        // starting point for a custom primitive. Switch to
        // `advance_filter_fused` with an atomic functor (see the BFS
        // primitive) to run the kernel on multiple threads.
        let reached = &mut state.reached;
        ops::advance_filter_fused_seq(dev, sub, input, |_, _, d| {
            if reached[d as usize] == 0 {
                reached[d as usize] = 1;
                Some(d)
            } else {
                None
            }
        })
    }

    fn package(&self, _state: &ReachState, _v: u32) {}

    fn combine(&self, state: &mut ReachState, v: u32, _msg: &()) -> bool {
        if state.reached[v as usize] == 0 {
            state.reached[v as usize] = 1;
            true
        } else {
            false
        }
    }

    fn globally_done(&self, _reduce: &GlobalReduce, iter: usize) -> bool {
        iter >= self.max_hops
    }

    // The answer `harvest()` reads: 1 if the vertex was reached, else 0.
    fn result_word(&self, state: &ReachState, v: u32) -> u64 {
        u64::from(state.reached[v as usize])
    }
}

fn main() {
    let graph: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(50_000, 6, 11));
    let dist = DistGraph::partition(&graph, &RandomPartitioner::default(), 4, Duplication::All);

    for k in [1usize, 2, 3, 4] {
        let problem = Reachability { seeds: vec![0, 100, 20_000], max_hops: k };
        let system = SimSystem::homogeneous(4, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, problem, EnactConfig::default()).unwrap();
        let report = runner.enact(None).unwrap();
        let reached = runner.harvest().iter().filter(|&&word| word == 1).count();
        println!(
            "within {k} hop(s) of 3 seeds: {reached:>6} of {} vertices  ({} supersteps, {:.2} ms simulated)",
            graph.n_vertices(),
            report.iterations,
            report.sim_ms()
        );
    }
}
