//! Wire-volume acceptance suite.
//!
//! The wire — package encodings — must be *invisible* in results: every
//! configuration produces bit-identical labels, distances and components.
//! The default is `Auto` encoding; the paper's wire (forced list) is the arm the headline
//! reductions are measured against: DOBFS broadcast bytes drop ≥2× at six
//! GPUs on an rmat analog.

use mgpu_graph_analytics::core::{
    CommStrategy, CommTopology, EnactConfig, EnactReport, RecoveryPolicy, Runner, WireEncoding,
};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, Dataset};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{ChunkedPartitioner, DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{reference, Bfs, Cc, Dobfs, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

/// Harvest words `as u32`: DOBFS and BFS labels, SSSP distances.
fn u32s(words: Vec<u64>) -> Vec<u32> {
    words.into_iter().map(|w| w as u32).collect()
}

/// Harvest words `as usize`: CC's component ids.
fn usizes(words: Vec<u64>) -> Vec<usize> {
    words.into_iter().map(|w| w as usize).collect()
}

/// The paper's `(id, label)` wire: forced list encoding.
fn paper_wire() -> EnactConfig {
    EnactConfig { wire_encoding: WireEncoding::List, ..EnactConfig::default() }
}

/// All wire configurations worth checking, defaults first.
fn configs() -> Vec<(&'static str, EnactConfig)> {
    vec![("default", EnactConfig::default()), ("paper-wire", paper_wire())]
}

fn with_threads(cfg: &EnactConfig, threads: usize) -> EnactConfig {
    EnactConfig { kernel_threads: Some(threads), ..*cfg }
}

fn dist_for(g: &Csr<u32, u64>, n: usize, csc: bool) -> DistGraph<u32, u64> {
    let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n) as u32).collect();
    let mut dist = DistGraph::build(g, owner, n, Duplication::All);
    if csc {
        dist.build_cscs();
    }
    dist
}

fn sys(n: usize) -> SimSystem {
    SimSystem::homogeneous(n, HardwareProfile::k40())
}

// ---------------------------------------------------------------------------
// Bit-identity across the configuration matrix
// ---------------------------------------------------------------------------

#[test]
fn dobfs_is_bit_identical_in_every_configuration() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(400, 2400, 11));
    let expect = reference::bfs(&g, 0u32);
    for n in [2usize, 4, 6] {
        let dist = dist_for(&g, n, true);
        for (name, cfg) in configs() {
            let mut per_thread: Vec<EnactReport> = Vec::new();
            for threads in [1usize, 4] {
                let mut runner =
                    Runner::new(sys(n), &dist, Dobfs::default(), with_threads(&cfg, threads))
                        .unwrap();
                let report = runner.enact(Some(0)).unwrap();
                assert_eq!(u32s(runner.harvest()), expect, "{name}, {n} GPUs, {threads} threads");
                per_thread.push(report);
            }
            assert!(
                per_thread[0].same_simulation(&per_thread[1]),
                "{name} at {n} GPUs must be bit-identical across kernel thread counts"
            );
        }
    }
}

#[test]
fn cc_is_bit_identical_in_every_configuration() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(300, 420, 23));
    let expect = reference::cc(&g);
    for n in [2usize, 4, 8] {
        let dist = dist_for(&g, n, false);
        for (name, cfg) in configs() {
            let mut per_thread: Vec<EnactReport> = Vec::new();
            for threads in [1usize, 4] {
                let mut runner =
                    Runner::new(sys(n), &dist, Cc, with_threads(&cfg, threads)).unwrap();
                let report = runner.enact(None).unwrap();
                assert_eq!(usizes(runner.harvest()), expect, "{name}, {n} GPUs, {threads} threads");
                per_thread.push(report);
            }
            assert!(
                per_thread[0].same_simulation(&per_thread[1]),
                "{name} at {n} GPUs must be bit-identical across kernel thread counts"
            );
        }
    }
}

#[test]
fn sssp_variants_are_bit_identical_in_every_configuration() {
    let mut coo = gnm(250, 1200, 31);
    add_paper_weights(&mut coo, 32);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let expect = reference::sssp(&g, 0u32);
    for n in [2usize, 4, 6] {
        let dist = dist_for(&g, n, false);
        for (name, cfg) in configs() {
            for threads in [1usize, 4] {
                let mut runner =
                    Runner::new(sys(n), &dist, Sssp, with_threads(&cfg, threads)).unwrap();
                runner.enact(Some(0)).unwrap();
                assert_eq!(
                    u32s(runner.harvest()),
                    expect,
                    "Sssp {name}, {n} GPUs, {threads} threads"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// What the default is, and what the paper's wire costs
// ---------------------------------------------------------------------------

#[test]
fn default_config_is_auto_encoding_over_the_direct_topology() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(200, 900, 5));
    let dist = dist_for(&g, 4, true);
    let run = |cfg: EnactConfig| {
        let mut runner = Runner::new(sys(4), &dist, Dobfs::default(), cfg).unwrap();
        runner.enact(Some(0)).unwrap()
    };
    // every field spelled out, so a moved default cannot hide behind `..`
    let explicit = EnactConfig {
        alloc_scheme: None,
        comm: None,
        kernel_threads: None,
        recovery: RecoveryPolicy::default(),
        comm_topology: CommTopology::Direct,
        wire_encoding: WireEncoding::Auto,
        suppression: false,
        tracing: false,
    };
    let report = run(EnactConfig::default());
    assert!(report.same_simulation(&run(explicit)));
    assert!(report.comm.enc_bitmap + report.comm.enc_delta > 0, "Auto picks compressed encodings");
    let paper = run(paper_wire());
    assert!(report.totals.h_bytes_sent < paper.totals.h_bytes_sent);
    assert_eq!(paper.comm.enc_bitmap + paper.comm.enc_delta, 0);
}

#[test]
fn paper_wire_costs_a_tag_per_package_and_id_plus_label_per_vertex() {
    let mut coo = gnm(150, 700, 71);
    add_paper_weights(&mut coo, 72);
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let dist = dist_for(&g, 3, false);
    let mut runner = Runner::new(sys(3), &dist, Sssp, paper_wire()).unwrap();
    let report = runner.enact(Some(0)).unwrap();
    let t = &report.totals;
    assert_eq!(t.h_bytes_sent, t.h_messages + t.h_vertices * 8);
}

// ---------------------------------------------------------------------------
// The headline reductions
// ---------------------------------------------------------------------------

/// The rmat_2Mv_128Me analog the CLI acceptance run uses (shift 8, seed 42).
fn rmat_analog() -> Csr<u32, u64> {
    let ds = Dataset::by_name("rmat_2Mv_128Me").expect("catalog entry");
    GraphBuilder::undirected(&ds.generate(8, 42))
}

#[test]
fn dobfs_broadcast_bytes_drop_at_least_2x_at_six_gpus() {
    let g = rmat_analog();
    let src = (0..g.n_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 42 }, 6, Duplication::All);
    let mut dist = dist;
    dist.build_cscs();

    let run = |cfg: EnactConfig| -> (Vec<u32>, EnactReport) {
        let mut runner = Runner::new(sys(6), &dist, Dobfs::default(), cfg).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        (u32s(runner.harvest()), report)
    };

    let (labels_base, base) = run(paper_wire());
    let (labels_opt, opt) = run(EnactConfig::default());

    assert_eq!(labels_base, labels_opt, "reductions must not change BFS labels");
    assert_eq!(labels_base, reference::bfs(&g, src));
    let ratio = base.totals.h_bytes_sent as f64 / opt.totals.h_bytes_sent as f64;
    assert!(
        ratio >= 2.0,
        "expected ≥2× broadcast byte reduction at 6 GPUs, got {ratio:.3}× \
         ({} → {} bytes)",
        base.totals.h_bytes_sent,
        opt.totals.h_bytes_sent
    );
    assert!(opt.comm.enc_bitmap + opt.comm.enc_delta > 0, "Auto must pick compressed encodings");
}

/// Broadcast wire ids are global under either duplication, so the bitmap
/// spans the global vertex count. Offered a duplicate-1-hop part's *local*
/// count instead, it engaged only when the largest id happened to fit and
/// fell back to another encoding otherwise. `Auto` never picks the bitmap
/// for BFS on a grid (a wavefront is too sparse for it); `gnm(256, 384, 1)`
/// is the sparsest random graph on the same 256 ids where it does.
#[test]
fn one_hop_broadcast_offers_the_bitmap_the_global_id_space() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(256, 384, 1));
    let run = |dup, wire_encoding| {
        let dist = DistGraph::partition(&g, &ChunkedPartitioner, 4, dup);
        let one_hop = dup == Duplication::OneHop;
        assert!(dist.parts.iter().all(|p| p.n_global == 256 && (p.n_vertices() < 256) == one_hop));
        let cfg = EnactConfig {
            comm: Some(CommStrategy::Broadcast),
            wire_encoding,
            ..EnactConfig::default()
        };
        let mut runner = Runner::new(sys(4), &dist, Bfs { one_hop }, cfg).unwrap();
        let report = runner.enact(Some(0)).unwrap();
        assert_eq!(u32s(runner.harvest()), reference::bfs(&g, 0u32));
        report
    };
    let auto = run(Duplication::OneHop, WireEncoding::Auto);
    let list = run(Duplication::OneHop, WireEncoding::List);
    assert!(auto.comm.enc_bitmap > 0 && auto.comm.enc_list == 0, "{:?}", auto.comm);
    assert!(
        auto.totals.h_bytes_sent < list.totals.h_bytes_sent,
        "{} vs {} bytes",
        auto.totals.h_bytes_sent,
        list.totals.h_bytes_sent
    );
    // the same ids in the same space: the wire cannot tell the duplications apart
    let all = run(Duplication::All, WireEncoding::Auto);
    assert_eq!(auto.comm, all.comm);
    assert_eq!(auto.totals.h_bytes_sent, all.totals.h_bytes_sent);
}
