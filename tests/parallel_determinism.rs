//! Metering invariance of the parallel operator kernels.
//!
//! The per-superstep hot path (advance / filter / fused kernels, the
//! selective split and the broadcast packaging) executes on
//! `kernel_threads` host threads, but every metered quantity — kernel item
//! counts, wire bytes, combine items, and therefore `sim_time_us` and every
//! BSP counter — is a pure function of the workload, never of the thread
//! schedule. These tests pin that contract end-to-end: BFS, SSSP, BC,
//! MS-BFS and PageRank produce bit-identical results, simulated clocks and
//! counters at 1 and 4 kernel threads, across GPU counts and both
//! communication strategies.
//!
//! PageRank additionally exercises the draining f32 accumulation operator,
//! whose chunk-ordered partial merge keeps non-associative float addition
//! schedule-independent — ranks are compared as raw bits, not approximately.

use mgpu_graph_analytics::core::{CommStrategy, EnactConfig, EnactReport, Runner};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, preferential_attachment};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{DistGraph, Duplication};
use mgpu_graph_analytics::core::MgpuProblem;
use mgpu_graph_analytics::primitives::{
    bc::gather_bc, bfs::gather_labels, ms_bfs::gather_lane_depths, pr::gather_ranks,
    sssp::gather_dists, Bc, Bfs, MsBfs, Pagerank, Sssp,
};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

const GPU_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COMMS: [Option<CommStrategy>; 2] = [None, Some(CommStrategy::Broadcast)];

fn config(comm: Option<CommStrategy>, threads: usize) -> EnactConfig {
    EnactConfig { comm, kernel_threads: Some(threads), ..Default::default() }
}

/// Round-robin, duplicate-all, with the reverse adjacency the pull sides of
/// BC and MS-BFS read (the others ignore it).
fn dist_for(g: &Csr<u32, u64>, n_gpus: usize) -> DistGraph<u32, u64> {
    let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
    let mut dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
    dist.build_cscs();
    dist
}

/// Assert two runs are indistinguishable to the simulation: same answer
/// (bitwise), same simulated clock (bitwise), same BSP counters on every
/// device.
fn assert_identical(a: &(Vec<u32>, EnactReport), b: &(Vec<u32>, EnactReport), ctx: &str) {
    assert_eq!(a.0, b.0, "{ctx}: results differ across thread counts");
    assert_eq!(a.1.iterations, b.1.iterations, "{ctx}: superstep counts differ");
    assert_eq!(
        a.1.sim_time_us.to_bits(),
        b.1.sim_time_us.to_bits(),
        "{ctx}: sim_time_us differs ({} vs {})",
        a.1.sim_time_us,
        b.1.sim_time_us
    );
    assert_eq!(a.1.totals, b.1.totals, "{ctx}: aggregate BSP counters differ");
    assert_eq!(a.1.per_device, b.1.per_device, "{ctx}: per-device counters differ");
}

fn run_bfs(
    g: &Csr<u32, u64>,
    n_gpus: usize,
    comm: Option<CommStrategy>,
    threads: usize,
) -> (Vec<u32>, EnactReport) {
    let dist = dist_for(g, n_gpus);
    let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
    let mut runner = Runner::new(system, &dist, Bfs::default(), config(comm, threads)).unwrap();
    let report = runner.enact(Some(0u32)).unwrap();
    (gather_labels(&runner, &dist), report)
}

fn run_sssp(
    g: &Csr<u32, u64>,
    n_gpus: usize,
    comm: Option<CommStrategy>,
    threads: usize,
    profile: HardwareProfile,
) -> (Vec<u32>, EnactReport) {
    let dist = dist_for(g, n_gpus);
    let system = SimSystem::homogeneous(n_gpus, profile);
    let mut runner = Runner::new(system, &dist, Sssp, config(comm, threads)).unwrap();
    let report = runner.enact(Some(0u32)).unwrap();
    (gather_dists(&runner, &dist), report)
}

fn run_pr(
    g: &Csr<u32, u64>,
    n_gpus: usize,
    comm: Option<CommStrategy>,
    threads: usize,
) -> (Vec<u32>, EnactReport) {
    // threshold 0.0 → the f64 residual reduction never gates control flow:
    // the run ends at the iteration cap or once no device spreads a change.
    let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: 12 };
    let dist = dist_for(g, n_gpus);
    let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
    let mut runner = Runner::new(system, &dist, pr, config(comm, threads)).unwrap();
    let report = runner.enact(None).unwrap();
    let bits = gather_ranks(&runner, &dist).into_iter().map(f32::to_bits).collect();
    (bits, report)
}

fn run_bc(
    g: &Csr<u32, u64>,
    n_gpus: usize,
    comm: Option<CommStrategy>,
    threads: usize,
) -> (Vec<u32>, EnactReport) {
    let dist = dist_for(g, n_gpus);
    let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
    let mut runner = Runner::new(system, &dist, Bc, config(comm, threads)).unwrap();
    let report = runner.enact(Some(0u32)).unwrap();
    let bits = gather_bc(&runner, &dist).into_iter().map(f32::to_bits).collect();
    (bits, report)
}

#[test]
fn bfs_is_bit_identical_across_kernel_thread_counts() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(200, 1200, 17));
    for n in GPU_COUNTS {
        for comm in COMMS {
            let seq = run_bfs(&g, n, comm, 1);
            let par = run_bfs(&g, n, comm, 4);
            assert_identical(&seq, &par, &format!("BFS {n} GPUs comm {comm:?}"));
        }
    }
}

#[test]
fn sssp_is_bit_identical_across_kernel_thread_counts() {
    let mut coo = gnm(200, 1100, 23);
    add_paper_weights(&mut coo, 7);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    for n in GPU_COUNTS {
        for comm in COMMS {
            let seq = run_sssp(&g, n, comm, 1, HardwareProfile::k40());
            let par = run_sssp(&g, n, comm, 4, HardwareProfile::k40());
            assert_identical(&seq, &par, &format!("SSSP {n} GPUs comm {comm:?}"));
        }
    }
}

/// The case above runs on unscaled K40s, where a 2 200-edge graph is all
/// overhead and the near window opens to Bellman–Ford at once. Here the
/// overheads are shrunk like the graph, so the window stays narrow: most of
/// the pending set is parked in the far part, the advance spans several
/// chunks, and W would be 4.8–8.3 |E| (measured on the snapshot-gated body this
/// one replaced) if nothing were parked.
#[test]
fn sssp_with_a_parked_far_part_is_bit_identical_across_kernel_thread_counts() {
    let mut coo = preferential_attachment(20_000, 16, 29);
    add_paper_weights(&mut coo, 7);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    for n in [1usize, 2, 4] {
        for comm in COMMS {
            let scaled = || HardwareProfile::k40().with_overhead_scale(1024.0);
            let seq = run_sssp(&g, n, comm, 1, scaled());
            let par = run_sssp(&g, n, comm, 4, scaled());
            assert_identical(&seq, &par, &format!("SSSP near/far {n} GPUs comm {comm:?}"));
            assert!(seq.1.same_simulation(&par.1), "SSSP near/far {n} GPUs comm {comm:?}");
            if comm.is_none() {
                let b = seq.1.totals.w_items as f64 / g.n_edges() as f64;
                assert!(b < 3.5, "{n} GPUs: W = {b:.2} |E|, so nothing was parked");
            }
        }
    }
}

/// On a power-law graph BC's sweeps read both sides (push and pull forward,
/// gather and scatter backward); every side is sequential, so scores and
/// charges are identical at 1 and 4 kernel threads.
#[test]
fn bc_is_bit_identical_across_kernel_thread_counts() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(3000, 8, 5));
    for n in [1usize, 2, 4] {
        for comm in COMMS {
            let seq = run_bc(&g, n, comm, 1);
            let par = run_bc(&g, n, comm, 4);
            assert_identical(&seq, &par, &format!("BC {n} GPUs comm {comm:?}"));
            assert!(seq.1.same_simulation(&par.1), "BC {n} GPUs comm {comm:?}");
        }
    }
}

/// A 64-lane batch on the 20 000-vertex power-law graph pulls its late
/// levels; the pull is sequential and the push claims through `fetch_or`, so
/// lane depths and every charge are identical at 1 and 4 kernel threads.
#[test]
fn msbfs_is_the_same_simulation_across_kernel_thread_counts() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(20_000, 16, 29));
    let sources = MsBfs::spread_sources(64, g.n_vertices());
    for n in [1usize, 2, 4] {
        let dist = dist_for(&g, n);
        let run = |threads| {
            let system = SimSystem::homogeneous(n, HardwareProfile::k40());
            let prim = MsBfs::new(sources.clone());
            let mut runner = Runner::new(system, &dist, prim, config(None, threads)).unwrap();
            let report = runner.enact(None).unwrap();
            let pulls: u32 = (0..n).map(|gpu| runner.state(gpu).pull.pull_levels).sum();
            (gather_lane_depths(&runner, &dist, 64), report, pulls)
        };
        let (seq, par) = (run(1), run(4));
        assert!(seq.2 > 0, "{n} GPUs: no device pulled");
        assert_eq!(seq.0, par.0, "{n} GPUs: lane depths differ across thread counts");
        assert!(seq.1.same_simulation(&par.1), "MS-BFS {n} GPUs");
    }
}

#[test]
fn pagerank_f32_ranks_are_bit_identical_across_kernel_thread_counts() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(180, 1000, 31));
    for n in GPU_COUNTS {
        for comm in COMMS {
            let seq = run_pr(&g, n, comm, 1);
            let par = run_pr(&g, n, comm, 4);
            assert_identical(&seq, &par, &format!("PR {n} GPUs comm {comm:?}"));
        }
    }
}

#[test]
fn thread_count_zero_and_eight_also_agree() {
    // 0 clamps to 1 inside the device; 8 exceeds the chunk count on small
    // inputs, exercising the sequential fallback inside parallel kernels.
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 700, 41));
    let base = run_bfs(&g, 4, None, 1);
    for t in [0, 2, 8] {
        let other = run_bfs(&g, 4, None, t);
        assert_identical(&base, &other, &format!("BFS 4 GPUs threads {t}"));
    }
}

// --- the superstep reduction is folded in device-id order -------------------
//
// `GlobalReduce::f64_sum` is a float sum over devices. It used to be added in
// arrival order, so at 3 or more devices its low bits — and with them a
// threshold-terminated PageRank's superstep count — depended on thread
// scheduling. These primitives read the reduction (`f64_sum`: PageRank;
// `u64_sum`: BC) or adapt every superstep (SSSP's near/far
// split, a two-bucket delta-stepping whose width follows the work), so 25
// enacts of each must agree to the bit.

fn assert_repeats_exactly<P: MgpuProblem<u32, u64> + Clone>(
    name: &str,
    g: &Csr<u32, u64>,
    problem: P,
    src: Option<u32>,
) {
    for n in [3usize, 4] {
        let dist = dist_for(g, n);
        let run = || {
            let system = SimSystem::homogeneous(n, HardwareProfile::k40());
            let mut runner =
                Runner::new(system, &dist, problem.clone(), EnactConfig::default()).unwrap();
            let report = runner.enact(src).unwrap();
            (report.iterations, report.sim_time_us.to_bits(), runner.harvest())
        };
        let first = run();
        for repeat in 1..25 {
            assert_eq!(run(), first, "{name} on {n} vGPUs, repeat {repeat}");
        }
    }
}

#[test]
fn threshold_terminated_pagerank_repeats_exactly_on_three_and_four_devices() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(180, 1000, 31));
    let pr = Pagerank { damping: 0.85, threshold: 1e-4, max_iters: 200 };
    // the threshold, not the cap, must be what ends the run
    let dist = dist_for(&g, 3);
    let system = SimSystem::homogeneous(3, HardwareProfile::k40());
    let report = Runner::new(system, &dist, pr, EnactConfig::default()).unwrap().enact(None);
    assert!(report.unwrap().iterations < 200);
    assert_repeats_exactly("PR", &g, pr, None);
}

#[test]
fn delta_stepping_sssp_and_bc_repeat_exactly_on_three_and_four_devices() {
    let mut coo = gnm(200, 1100, 23);
    add_paper_weights(&mut coo, 7);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    assert_repeats_exactly("SSSP", &g, Sssp, Some(0));
    assert_repeats_exactly("BC", &g, Bc, Some(0));
}
