//! Wire-volume acceptance suite.
//!
//! The wire — monotone send suppression, package encodings, and the
//! butterfly broadcast collective — must be *invisible* in results: every
//! configuration produces bit-identical labels, distances and components.
//! The default is `Auto` encoding with suppression; the paper's wire (forced
//! list, nothing suppressed) is the arm the headline reductions are measured
//! against: DOBFS broadcast bytes drop ≥2× at six GPUs on an rmat analog.

use mgpu_graph_analytics::core::{
    CommStrategy, CommTopology, EnactConfig, EnactReport, PressurePolicy, RecoveryPolicy, Runner,
    WireEncoding,
};
use mgpu_graph_analytics::gen::weights::add_paper_weights;
use mgpu_graph_analytics::gen::{gnm, grid2d, Dataset};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};
use mgpu_graph_analytics::partition::{ChunkedPartitioner, DistGraph, Duplication, RandomPartitioner};
use mgpu_graph_analytics::primitives::{bfs, cc, dobfs, reference, sssp, Bfs, Cc, Dobfs, Sssp};
use mgpu_graph_analytics::vgpu::{HardwareProfile, SimSystem};

/// The paper's `(id, label)` wire: forced list encoding, nothing suppressed.
fn paper_wire() -> EnactConfig {
    EnactConfig { wire_encoding: WireEncoding::List, suppression: false, ..EnactConfig::default() }
}

/// All wire configurations worth checking, defaults first.
fn configs() -> Vec<(&'static str, EnactConfig)> {
    let base = EnactConfig::default();
    vec![
        ("default", base),
        ("no-suppression", EnactConfig { suppression: false, ..base }),
        ("paper-wire", paper_wire()),
        ("butterfly", EnactConfig { comm_topology: CommTopology::Butterfly, ..base }),
        (
            "butterfly-paper-wire",
            EnactConfig { comm_topology: CommTopology::Butterfly, ..paper_wire() },
        ),
    ]
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
                assert_eq!(
                    dobfs::gather_labels(&runner, &dist),
                    expect,
                    "{name}, {n} GPUs, {threads} threads"
                );
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
                assert_eq!(
                    cc::gather_components(&runner, &dist),
                    expect,
                    "{name}, {n} GPUs, {threads} threads"
                );
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
                    sssp::gather_dists(&runner, &dist),
                    expect,
                    "Sssp {name}, {n} GPUs, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn butterfly_handles_non_power_of_two_gpu_counts() {
    // n=7: the final dissemination stage overshoots (sends a prefix covering
    // more blocks than strictly missing); redundant blocks must be absorbed
    // by the monotone combine without changing any result.
    let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(350, 2000, 47));
    let dist = dist_for(&g, 7, true);
    let cfg = EnactConfig { comm_topology: CommTopology::Butterfly, ..EnactConfig::default() };
    let mut runner = Runner::new(sys(7), &dist, Dobfs::default(), cfg).unwrap();
    let report = runner.enact(Some(0)).unwrap();
    assert_eq!(dobfs::gather_labels(&runner, &dist), reference::bfs(&g, 0u32));
    assert!(report.comm.collective_stages > 0, "butterfly path must have been taken");

    let dist = dist_for(&g, 7, false);
    let cfg = EnactConfig { suppression: false, ..cfg };
    let mut runner = Runner::new(sys(7), &dist, Cc, cfg).unwrap();
    runner.enact(None).unwrap();
    assert_eq!(cc::gather_components(&runner, &dist), reference::cc(&g));
}

// ---------------------------------------------------------------------------
// What the default is, and what the paper's wire costs
// ---------------------------------------------------------------------------

#[test]
fn default_config_is_auto_encoding_with_suppression() {
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
        pressure: PressurePolicy::default(),
        comm_topology: CommTopology::Direct,
        wire_encoding: WireEncoding::Auto,
        suppression: true,
        tracing: false,
    };
    let report = run(EnactConfig::default());
    assert!(report.same_simulation(&run(explicit)));
    assert!(report.comm.enc_bitmap + report.comm.enc_delta > 0, "Auto picks compressed encodings");
    assert_eq!(report.comm.collective_stages, 0, "the butterfly is not the default");
    let paper = run(paper_wire());
    assert!(report.totals.h_bytes_sent < paper.totals.h_bytes_sent);
    assert_eq!(paper.comm.enc_bitmap + paper.comm.enc_delta, 0);
    assert_eq!(paper.comm.suppressed_vertices, 0);
    assert!(paper.history.iter().all(|s| s.suppressed == 0));
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
    assert_eq!(report.comm.suppressed_vertices, 0);
    assert_eq!(report.comm.collective_stages, 0);
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
        (dobfs::gather_labels(&runner, &dist), report)
    };

    let (labels_base, base) = run(paper_wire());
    let (labels_opt, opt) =
        run(EnactConfig { comm_topology: CommTopology::Butterfly, ..EnactConfig::default() });

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
    assert!(opt.comm.collective_stages > 0);
    assert!(opt.comm.enc_bitmap + opt.comm.enc_delta > 0, "Auto must pick compressed encodings");
}

/// Broadcast wire ids are global under either duplication, so the bitmap
/// spans the global vertex count. Offered a duplicate-1-hop part's *local*
/// count instead, it engaged only when the largest id happened to fit and
/// fell back to the list otherwise.
#[test]
fn one_hop_broadcast_offers_the_bitmap_the_global_id_space() {
    let g: Csr<u32, u64> = GraphBuilder::undirected(&grid2d(32, 8, 1.0, 1));
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
        assert_eq!(bfs::gather_labels(&runner, &dist), reference::bfs(&g, 0u32));
        report
    };
    let bitmap = run(Duplication::OneHop, WireEncoding::Bitmap);
    let list = run(Duplication::OneHop, WireEncoding::List);
    assert!(bitmap.comm.enc_bitmap > 0 && bitmap.comm.enc_list == 0, "{:?}", bitmap.comm);
    assert!(
        bitmap.totals.h_bytes_sent < list.totals.h_bytes_sent,
        "{} vs {} bytes",
        bitmap.totals.h_bytes_sent,
        list.totals.h_bytes_sent
    );
    // the same ids in the same space: the wire cannot tell the duplications apart
    for encoding in [WireEncoding::Bitmap, WireEncoding::Auto] {
        let (hop, all) = (run(Duplication::OneHop, encoding), run(Duplication::All, encoding));
        assert_eq!(hop.comm, all.comm, "{encoding:?}");
        assert_eq!(hop.totals.h_bytes_sent, all.totals.h_bytes_sent, "{encoding:?}");
    }
}
