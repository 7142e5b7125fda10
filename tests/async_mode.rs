//! End-to-end tests of the asynchronous (Groute-style) enactor with
//! label-correcting primitives: results must reach the same fixpoint as the
//! BSP schedule, and the async schedule must shed the per-level barrier
//! cost on high-diameter graphs.

use mgpu_graph_analytics::core::{AsyncRunner, EnactConfig, Runner};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, grid2d};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{reference, Cc, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

fn weighted_graph(seed: u64) -> Csr<u32, u64> {
    let mut coo = gnm(150, 700, seed);
    add_paper_weights(&mut coo, seed + 1);
    GraphBuilder::undirected(&coo)
}

#[test]
fn async_sssp_reaches_the_dijkstra_fixpoint() {
    let g = weighted_graph(91);
    let expect = reference::sssp(&g, 0u32);
    for n in [1usize, 2, 4] {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 4 }, n, Duplication::All);
        let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
        let mut runner = AsyncRunner::new(sys, &dist, Sssp).unwrap();
        runner.enact(Some(0u32)).unwrap();
        let dists: Vec<u32> = (0..g.n_vertices())
            .map(|v| {
                let (gpu, local) = dist.locate(v as u32);
                runner.state(gpu).dists[local as usize]
            })
            .collect();
        assert_eq!(dists, expect, "{n} devices");
    }
}

#[test]
fn async_sssp_is_repeatable_in_result_despite_schedule_nondeterminism() {
    let g = weighted_graph(92);
    let expect = reference::sssp(&g, 5u32);
    for _ in 0..5 {
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 4 }, 3, Duplication::All);
        let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
        let mut runner = AsyncRunner::new(sys, &dist, Sssp).unwrap();
        runner.enact(Some(5u32)).unwrap();
        let dists: Vec<u32> = (0..g.n_vertices())
            .map(|v| {
                let (gpu, local) = dist.locate(v as u32);
                runner.state(gpu).dists[local as usize]
            })
            .collect();
        assert_eq!(dists, expect);
    }
}

#[test]
fn async_cc_reaches_the_union_find_fixpoint() {
    let coo = gnm(120, 150, 93); // sparse: several components
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let expect = reference::cc(&g);
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 6 }, 3, Duplication::All);
    let sys = SimSystem::homogeneous(3, HardwareProfile::k40());
    let mut runner = AsyncRunner::new(sys, &dist, Cc).unwrap();
    runner.enact(None).unwrap();
    let comp: Vec<usize> = runner.harvest().into_iter().map(|w| w as usize).collect();
    assert_eq!(comp, expect);
}

#[test]
fn async_drops_the_barrier_cost_on_high_diameter_sssp() {
    // A long path-like road graph: the BSP schedule pays l per level; the
    // async schedule does not (the Groute effect §II-A).
    let mut coo = grid2d(120, 4, 1.0, 7);
    add_paper_weights(&mut coo, 8);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 9 }, 2, Duplication::All);

    let sys = SimSystem::homogeneous(2, HardwareProfile::k40());
    let mut bsp = Runner::new(sys, &dist, Sssp, EnactConfig::default()).unwrap();
    let bsp_report = bsp.enact(Some(0u32)).unwrap();

    let sys = SimSystem::homogeneous(2, HardwareProfile::k40());
    let mut asy = AsyncRunner::new(sys, &dist, Sssp).unwrap();
    let asy_report = asy.enact(Some(0u32)).unwrap();

    // same answer
    let get = |r: &AsyncRunner<u32, u64, Sssp>, v: u32| {
        let (gpu, local) = dist.locate(v);
        r.state(gpu).dists[local as usize]
    };
    let expect = reference::sssp(&g, 0u32);
    for v in 0..g.n_vertices() as u32 {
        assert_eq!(get(&asy, v), expect[v as usize]);
    }
    // the async schedule avoids hundreds of barrier charges
    assert!(
        asy_report.totals.sync_time_us < bsp_report.totals.sync_time_us / 4.0,
        "async sync cost {} vs BSP {}",
        asy_report.totals.sync_time_us,
        bsp_report.totals.sync_time_us
    );
}
