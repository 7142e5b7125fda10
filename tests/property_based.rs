//! Randomized property tests on the core invariants listed in DESIGN.md §6:
//! partitioner invariants, CSR round-trips, frontier conservation through the
//! enactor, and result equivalence to references under arbitrary graphs,
//! partitions and GPU counts.
//!
//! These were originally written with `proptest`; the offline build vendors
//! only a minimal `rand`, so each property is now driven by a seeded ChaCha
//! stream over the same input distribution (fixed trial count, deterministic
//! per seed — failures reproduce exactly).

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mgpu_graph_analytics::core::{AsyncRunner, EnactConfig, RecoveryPolicy, ResilientRunner, Runner};
use mgpu_graph_analytics::graph::{BuildOptions, Coo, Csr, GraphBuilder, Id};
use mgpu_graph_analytics::partition::{
    DistGraph, Duplication, PartitionQuality, Partitioner, RandomPartitioner,
};
use mgpu_graph_analytics::primitives::{
    bfs::gather_labels, cc::gather_components, reference, sssp::gather_dists, Bfs, Cc, Sssp,
};
use mgpu_graph_analytics::vgpu::{FaultPlan, HardwareProfile, SimSystem};

const CASES: usize = 48;

/// Arbitrary small weighted graph: vertex count, edge list, weights.
fn arb_graph(rng: &mut ChaCha8Rng) -> (usize, Vec<(u32, u32)>, Vec<u32>) {
    let n = rng.gen_range(4usize..40);
    let m = rng.gen_range(0usize..120);
    let edges = (0..m).map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32))).collect();
    let weights = (0..120).map(|_| rng.gen_range(0u32..65)).collect();
    (n, edges, weights)
}

fn build(n: usize, edges: &[(u32, u32)], weights: &[u32]) -> Csr<u32, u64> {
    let w = weights[..edges.len()].to_vec();
    GraphBuilder::undirected(&Coo::from_edges(n, edges.to_vec(), Some(w)))
}

#[test]
fn partition_covers_every_vertex_exactly_once() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_parts = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let owner = RandomPartitioner { seed }.assign(&g, n_parts);
        assert_eq!(owner.len(), n);
        assert!(owner.iter().all(|&o| (o as usize) < n_parts));
        let q = PartitionQuality::measure(&g, &owner, n_parts);
        assert_eq!(q.vertices.iter().sum::<usize>(), n);
        assert_eq!(q.edges.iter().sum::<usize>(), g.n_edges());
    }
}

#[test]
fn dup_all_subgraphs_partition_the_edges() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA12);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_parts = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_parts, Duplication::All);
        let total: usize = dist.parts.iter().map(|p| p.n_edges()).sum();
        assert_eq!(total, g.n_edges(), "every edge on exactly one GPU");
        for part in &dist.parts {
            assert_eq!(part.n_vertices(), n, "duplicate-all vertex space");
        }
        let owned: usize = dist.parts.iter().map(|p| p.n_local).sum();
        assert_eq!(owned, n);
    }
}

#[test]
fn one_hop_conversion_tables_are_consistent() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA13);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_parts = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let dist =
            DistGraph::partition(&g, &RandomPartitioner { seed }, n_parts, Duplication::OneHop);
        for v in 0..n as u32 {
            let (gpu, local) = dist.locate(v);
            let part = &dist.parts[gpu];
            assert!(part.is_owned(local));
            assert_eq!(part.to_global(local), v, "locate/to_global round trip");
        }
        for part in &dist.parts {
            for l in 0..part.n_vertices() as u32 {
                let gl = part.to_global(l);
                assert_eq!(part.from_global(gl), Some(l), "global resolution round trip");
            }
        }
    }
}

/// CSR from `(src, dst, weight)` triples by a stable sort on the source:
/// shares no code with the shipped counting sorts.
fn csr_of_triples<V: Id>(n: usize, mut t: Vec<(V, V, u32)>, weighted: bool) -> Csr<V, u64> {
    t.sort_by_key(|&(s, _, _)| s);
    let mut offsets = vec![0u64; n + 1];
    for &(s, _, _) in &t {
        offsets[s.idx() + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let weights = weighted.then(|| t.iter().map(|&(_, _, w)| w).collect());
    Csr::from_parts(offsets, t.iter().map(|&(_, d, _)| d).collect(), weights)
}

/// Every edge of `g` as a `(src, dst, weight)` triple, in row order.
fn triples_of<V: Id, O: Id>(g: &Csr<V, O>) -> Vec<(V, V, u32)> {
    (0..g.n_vertices())
        .map(V::from_usize)
        .flat_map(|v| g.neighbors_weighted(v).map(move |(d, w)| (v, d, w)))
        .collect()
}

/// The preprocessing pipeline as one comparison sort over a materialised
/// triple list — what `GraphBuilder` used to be, kept as its oracle.
fn reference_build<V: Id>(coo: &Coo<V>, o: BuildOptions) -> Csr<V, u64> {
    let mut t: Vec<(V, V, u32)> = coo.iter_weighted().collect();
    if o.symmetrize {
        let rev: Vec<_> = t.iter().map(|&(s, d, w)| (d, s, w)).collect();
        t.extend(rev);
    }
    if o.remove_self_loops {
        t.retain(|&(s, d, _)| s != d);
    }
    if o.dedup || o.sort_rows {
        t.sort_by_key(|&(s, d, _)| (s, d));
    }
    if o.dedup {
        t.dedup_by_key(|&mut (s, d, _)| (s, d));
    }
    csr_of_triples(coo.n_vertices, t, coo.weights.is_some())
}

/// Arbitrary edge list: empty, or dense enough in a small id range that
/// duplicates, self-loops and isolated vertices all occur.
fn arb_coo<V: Id>(rng: &mut ChaCha8Rng) -> Coo<V> {
    let n = rng.gen_range(1usize..30);
    let m = if rng.gen_bool(0.1) { 0 } else { rng.gen_range(0usize..150) };
    let hi = rng.gen_range(1usize..n + 1);
    let mut id = || V::from_usize(rng.gen_range(0usize..hi));
    let edges: Vec<(V, V)> = (0..m).map(|_| (id(), id())).collect();
    let weights = rng.gen_bool(0.5).then(|| (0..m).map(|_| rng.gen_range(0u32..65)).collect());
    Coo::from_edges(n, edges, weights)
}

fn builder_equals_reference<V: Id>(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..CASES {
        let coo = arb_coo::<V>(&mut rng);
        for bits in 0..16u8 {
            let options = BuildOptions {
                symmetrize: bits & 1 != 0,
                remove_self_loops: bits & 2 != 0,
                dedup: bits & 4 != 0,
                sort_rows: bits & 8 != 0,
            };
            let expected = reference_build(&coo, options);
            assert_eq!(GraphBuilder::build::<V, u64>(&coo, options), expected, "{options:?}");
            let auto = GraphBuilder::build_auto(&coo, options);
            let narrow = auto.narrow().expect("a few hundred edges fit u32 offsets");
            assert_eq!(triples_of(narrow), triples_of(&expected), "{options:?}");
        }
    }
}

#[test]
fn builder_equals_the_sort_based_reference_under_every_option() {
    builder_equals_reference::<u32>(0xB01);
    builder_equals_reference::<u16>(0xB02);
}

#[test]
fn csr_transpose_equals_naive_and_is_involutive() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA14);
    for _ in 0..CASES {
        let coo = arb_coo::<u32>(&mut rng);
        // raw rows are unsorted and hold parallel edges; canonical rows do not
        for options in [BuildOptions::raw(), BuildOptions::default()] {
            let g: Csr<u32, u64> = GraphBuilder::build(&coo, options);
            let reversed = triples_of(&g).into_iter().map(|(s, d, w)| (d, s, w)).collect();
            let t = g.transpose();
            assert_eq!(t, csr_of_triples(g.n_vertices(), reversed, g.is_weighted()));
            if options == BuildOptions::default() {
                assert_eq!(t.transpose(), g);
            }
        }
    }
}

/// What one part of a partitioned graph must look like, derived per part by
/// filtering the whole graph.
struct NaivePart {
    csr: Csr<u32, u64>,
    n_local: usize,
    border_out: Vec<usize>,
    /// Local id → global id.
    to_global: Vec<u32>,
}

fn naive_part(
    g: &Csr<u32, u64>,
    owner: &[u32],
    n_parts: usize,
    gpu: u32,
    dup: Duplication,
) -> NaivePart {
    let n = g.n_vertices() as u32;
    let owned: Vec<u32> = (0..n).filter(|&v| owner[v as usize] == gpu).collect();
    let edges: Vec<(u32, u32, u32)> =
        triples_of(g).into_iter().filter(|&(s, _, _)| owner[s as usize] == gpu).collect();
    let remote: BTreeSet<u32> =
        edges.iter().map(|&(_, d, _)| d).filter(|&d| owner[d as usize] != gpu).collect();
    let mut border_out = vec![0usize; n_parts];
    for &d in &remote {
        border_out[owner[d as usize] as usize] += 1;
    }
    let to_global: Vec<u32> = match dup {
        Duplication::All => (0..n).collect(),
        Duplication::OneHop => owned.iter().chain(&remote).copied().collect(),
    };
    let local = |gl: u32| to_global.iter().position(|&x| x == gl).unwrap() as u32;
    let edges = edges.into_iter().map(|(s, d, w)| (local(s), local(d), w)).collect();
    NaivePart {
        csr: csr_of_triples(to_global.len(), edges, g.is_weighted()),
        n_local: owned.len(),
        border_out,
        to_global,
    }
}

#[test]
fn dist_graph_equals_the_naive_per_part_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB03);
    for case in 0..CASES {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&arb_coo(&mut rng));
        let n = g.n_vertices();
        let n_parts = 1 + case % 8;
        let owner: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n_parts as u32)).collect();
        // rank of every vertex among its owner's vertices, in global order
        let rank = |v: u32| owner[..v as usize].iter().filter(|&&o| o == owner[v as usize]).count();
        for dup in [Duplication::All, Duplication::OneHop] {
            let dist = DistGraph::build(&g, owner.clone(), n_parts, dup);
            assert_eq!(dist.parts.len(), n_parts);
            for (gpu, part) in dist.parts.iter().enumerate() {
                let want = naive_part(&g, &owner, n_parts, gpu as u32, dup);
                assert_eq!(part.csr, want.csr, "{dup:?} part {gpu}/{n_parts}");
                assert_eq!(part.n_local, want.n_local);
                assert_eq!(part.border_out, want.border_out);
                for (l, &gl) in want.to_global.iter().enumerate() {
                    let l = l as u32;
                    assert_eq!(part.to_global(l), gl);
                    assert_eq!(part.owner(l), owner[gl as usize]);
                    let owner_local = if dup == Duplication::All { gl } else { rank(gl) as u32 };
                    assert_eq!(part.to_owner_local(l), owner_local);
                    assert_eq!(part.is_owned(l), owner[gl as usize] as usize == gpu);
                }
                for gl in 0..n as u32 {
                    let local = want.to_global.iter().position(|&x| x == gl).map(|l| l as u32);
                    assert_eq!(part.from_global(gl), local, "{dup:?} part {gpu}: global {gl}");
                }
            }
            for v in 0..n as u32 {
                let local = if dup == Duplication::All { v } else { rank(v) as u32 };
                assert_eq!(dist.locate(v), (owner[v as usize] as usize, local));
            }
        }
    }
}

#[test]
fn mgpu_bfs_equals_reference_on_arbitrary_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA15);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1000);
        let src = (rng.gen_range(0usize..100) % n) as u32;
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        runner.enact(Some(src)).unwrap();
        assert_eq!(gather_labels(&runner, &dist), reference::bfs(&g, src));
    }
}

#[test]
fn mgpu_sssp_equals_dijkstra_on_arbitrary_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA16);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, Sssp, EnactConfig::default()).unwrap();
        runner.enact(Some(0u32)).unwrap();
        assert_eq!(gather_dists(&runner, &dist), reference::sssp(&g, 0u32));
    }
}

/// The inputs a distance-ordered relaxation can trip on: zero weights (a
/// relaxed vertex lands back inside the near window), one edge of at least
/// 2³⁰ (the window arithmetic next to `u32::MAX`), isolated vertices
/// (never pending), and a source drawn from all of them.
fn arb_sssp_graph(rng: &mut ChaCha8Rng) -> (Csr<u32, u64>, u32) {
    let n = rng.gen_range(8usize..60);
    let connected = rng.gen_range(4..n) as u32; // ids past this are isolated
    let m = rng.gen_range(1usize..160);
    let edges: Vec<(u32, u32)> =
        (0..m).map(|_| (rng.gen_range(0..connected), rng.gen_range(0..connected))).collect();
    let mut weights: Vec<u32> = (0..m)
        .map(|_| if rng.gen_range(0u32..4) == 0 { 0 } else { rng.gen_range(0u32..65) })
        .collect();
    weights[rng.gen_range(0..m)] = rng.gen_range(1u32 << 30..1 << 31);
    (build(n, &edges, &weights), rng.gen_range(0..n as u32))
}

#[test]
fn sssp_equals_dijkstra_under_every_executor() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA24);
    // Overheads shrunk 1024x: the near window stays narrow, so there are
    // parked vertices to carry across supersteps, rounds and the checkpoint.
    let profile = || HardwareProfile::k40().with_overhead_scale(1024.0);
    let mut resumed = 0;
    for case in 0..CASES {
        let (g, src) = arb_sssp_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..7);
        let seed = rng.gen_range(0u64..1000);
        let expect: Vec<u64> = reference::sssp(&g, src).into_iter().map(u64::from).collect();
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let sys = || SimSystem::homogeneous(n_gpus, profile());

        let mut bsp = Runner::new(sys(), &dist, Sssp, EnactConfig::default()).unwrap();
        bsp.enact(Some(src)).unwrap();
        assert_eq!(bsp.harvest(), expect, "case {case}: Runner, {n_gpus} vGPUs");

        let mut asy = AsyncRunner::new(sys(), &dist, Sssp).unwrap();
        asy.enact(Some(src)).unwrap();
        assert_eq!(asy.harvest(), expect, "case {case}: AsyncRunner, {n_gpus} vGPUs");

        // lose the last device a few supersteps in; with a checkpoint at
        // every boundary the survivors resume from one whenever the
        // traversal is still running by then
        let n = n_gpus.max(2);
        let recovery = RecoveryPolicy { checkpoint_interval: 1, ..RecoveryPolicy::resilient() };
        let config = EnactConfig { recovery, ..EnactConfig::default() };
        let (report, words) = ResilientRunner::homogeneous(&g, Sssp, n, profile(), config)
            .with_fault_plan(FaultPlan::new().device_loss(n - 1, 14))
            .enact_with(Some(src), |runner, _| runner.harvest())
            .unwrap();
        assert_eq!(words, expect, "case {case}: ResilientRunner, {n} vGPUs");
        resumed += usize::from(report.recovery.resumed_at.is_some());
    }
    assert!(resumed >= CASES / 4, "only {resumed} of {CASES} cases resumed from a checkpoint");
}

#[test]
fn mgpu_cc_equals_union_find_on_arbitrary_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA17);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, Cc, EnactConfig::default()).unwrap();
        runner.enact(None).unwrap();
        assert_eq!(gather_components(&runner, &dist), reference::cc(&g));
    }
}

/// The inputs a union-find CC can trip on: isolated vertices (sets that
/// never join anything), many small components (many roots and labels per
/// superstep), and one path longer than any run's superstep count, its
/// vertices shuffled over the id space so labels cross devices repeatedly.
fn arb_cc_graph(rng: &mut ChaCha8Rng) -> Csr<u32, u64> {
    let n = rng.gen_range(32usize..80);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let path = rng.gen_range(12..n / 2);
    let mut edges: Vec<(u32, u32)> = ids[..path].windows(2).map(|w| (w[0], w[1])).collect();
    let mut rest = &ids[path..];
    while !rest.is_empty() {
        // a component of 1–4 vertices; a size-1 one is an isolated vertex
        let (comp, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(4)));
        for _ in 1..comp.len() + rng.gen_range(0..2) {
            edges.push((comp[rng.gen_range(0..comp.len())], comp[rng.gen_range(0..comp.len())]));
        }
        rest = tail;
    }
    GraphBuilder::undirected(&Coo::from_edges(n, edges, None))
}

#[test]
fn cc_equals_reference_under_every_executor() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA25);
    let mut resumed = 0;
    for case in 0..CASES {
        let g = arb_cc_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..7);
        let seed = rng.gen_range(0u64..1000);
        let expect: Vec<u64> = reference::cc(&g).into_iter().map(|c| c as u64).collect();
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let sys = || SimSystem::homogeneous(n_gpus, HardwareProfile::k40());

        let mut bsp = Runner::new(sys(), &dist, Cc, EnactConfig::default()).unwrap();
        bsp.enact(None).unwrap();
        assert_eq!(bsp.harvest(), expect, "case {case}: Runner, {n_gpus} vGPUs");

        let mut asy = AsyncRunner::new(sys(), &dist, Cc).unwrap();
        asy.enact(None).unwrap();
        assert_eq!(asy.harvest(), expect, "case {case}: AsyncRunner, {n_gpus} vGPUs");

        // lose the last device late, after a checkpoint at every boundary:
        // the survivors resume, re-home its vertices and scan their new
        // edges once
        let n = n_gpus.max(2);
        let recovery = RecoveryPolicy { checkpoint_interval: 1, ..RecoveryPolicy::resilient() };
        let config = EnactConfig { recovery, ..EnactConfig::default() };
        let (report, words) =
            ResilientRunner::homogeneous(&g, Cc, n, HardwareProfile::k40(), config)
                .with_fault_plan(FaultPlan::new().device_loss(n - 1, 12))
                .enact_with(None, |runner, _| runner.harvest())
                .unwrap();
        assert_eq!(words, expect, "case {case}: ResilientRunner, {n} vGPUs");
        resumed += usize::from(report.recovery.resumed_at.is_some());
    }
    assert!(resumed >= CASES / 4, "only {resumed} of {CASES} cases resumed from a checkpoint");
}

#[test]
fn bsp_counters_are_conserved() {
    use mgpu_graph_analytics::core::WireEncoding;
    // the paper's wire: forced list, nothing suppressed
    let paper_wire = EnactConfig {
        wire_encoding: WireEncoding::List,
        suppression: false,
        ..EnactConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xA18);
    for _ in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_gpus = rng.gen_range(2usize..5);
        let seed = rng.gen_range(0u64..1000);
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        for cfg in [EnactConfig::default(), paper_wire] {
            let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
            let mut runner = Runner::new(sys, &dist, Bfs::default(), cfg).unwrap();
            let report = runner.enact(Some(0u32)).unwrap();
            // what is sent is received
            assert_eq!(report.totals.h_bytes_sent, report.totals.h_bytes_recv);
            // simulated time is monotone and includes the sync overhead
            assert!(report.sim_time_us >= report.iterations as f64);
            if cfg.wire_encoding == WireEncoding::List {
                // wire format: one tag byte per package, id + label per vertex
                assert_eq!(
                    report.totals.h_bytes_sent,
                    report.totals.h_messages + report.totals.h_vertices * 8
                );
            }
        }
    }
}

/// Every wire encoding round-trips every id distribution — empty packages,
/// a single vertex, the last id of the space, duplicates, unsorted ids,
/// uniform and distinct payloads, and multi-field tuple payloads. Forced
/// encodings that are ineligible for a distribution (bitmap without
/// uniformity, delta without sorted ids) must fall back rather than corrupt.
#[test]
fn every_package_encoding_round_trips_arbitrary_distributions() {
    use mgpu_graph_analytics::core::{Package, WireEncoding};
    const ENCODINGS: [WireEncoding; 4] =
        [WireEncoding::Auto, WireEncoding::List, WireEncoding::Bitmap, WireEncoding::DeltaVarint];
    let mut rng = ChaCha8Rng::seed_from_u64(0xA19);
    for case in 0..CASES * 4 {
        let space = rng.gen_range(1usize..400);
        let len = match case % 4 {
            0 => 0, // empty package
            1 => 1, // single vertex
            _ => rng.gen_range(0..=space.min(64)),
        };
        let mut ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..space as u32)).collect();
        if case % 2 == 1 {
            // the last id of the space: the bitmap's final bit
            if let Some(first) = ids.first_mut() {
                *first = space as u32 - 1;
            }
        }
        match case % 3 {
            0 => {
                // sorted + deduplicated (the canonical monotone shape)
                ids.sort_unstable();
                ids.dedup();
            }
            1 => {
                // sorted with duplicates kept
                ids.sort_unstable();
            }
            _ => {} // arbitrary order, duplicates possible
        }
        let n = ids.len();
        let uniform_label = rng.gen_range(0u32..1000);
        let labels: Vec<u32> = if case % 2 == 0 {
            vec![uniform_label; n]
        } else {
            (0..n).map(|_| rng.gen_range(0u32..1000)).collect()
        };
        let pairs: Vec<(u32, u32)> =
            labels.iter().map(|&l| (l, rng.gen_range(0u32..space as u32))).collect();
        for enc in ENCODINGS {
            for space_arg in [Some(space), None] {
                let p = Package::encode(ids.clone(), labels.clone(), enc, space_arg, None);
                let (vs, ms) = p.decode();
                assert_eq!(vs.as_ref(), &ids[..], "{enc:?} ids, case {case}, space {space_arg:?}");
                assert_eq!(ms.as_ref(), &labels[..], "{enc:?} msgs, case {case}");
                assert_eq!(p.len(), n, "{enc:?} len, case {case}");
                assert_eq!(p.wire_bytes(), p.encoded_bytes().len() as u64, "{enc:?}, case {case}");
                assert!(p.wire_bytes() > 0, "{enc:?}: even an empty package is a tag, case {case}");

                let p = Package::encode(ids.clone(), pairs.clone(), enc, space_arg, None);
                let (vs, ms) = p.decode();
                assert_eq!(vs.as_ref(), &ids[..], "{enc:?} tuple ids, case {case}");
                assert_eq!(ms.as_ref(), &pairs[..], "{enc:?} tuple msgs, case {case}");
            }
        }
    }
}

/// Arbitrary graphs and configurations produce *well-formed* traces: spans
/// on one device stream never overlap and start monotonically (the stream
/// clock only moves forward), COMM span bytes reconcile with the device
/// counters, and every retry / spill / chunk / downgrade in the report's
/// logs is paired with a trace event of the matching kind.
#[test]
fn arbitrary_traced_runs_are_well_formed() {
    use mgpu_graph_analytics::core::{CommTopology, Profile};
    use mgpu_graph_analytics::vgpu::TraceKind;
    let mut rng = ChaCha8Rng::seed_from_u64(0xA1A);
    for case in 0..CASES {
        let (n, edges, weights) = arb_graph(&mut rng);
        let n_gpus = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1000);
        let src = (rng.gen_range(0usize..100) % n) as u32;
        let g = build(n, &edges, &weights);
        let dist = DistGraph::partition(&g, &RandomPartitioner { seed }, n_gpus, Duplication::All);
        let cfg = EnactConfig {
            tracing: true,
            comm_topology: if case % 2 == 0 {
                CommTopology::Direct
            } else {
                CommTopology::Butterfly
            },
            kernel_threads: Some(1 + case % 4),
            suppression: case % 3 == 0,
            ..Default::default()
        };
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Sssp, cfg).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        let trace = report.trace.as_ref().expect("tracing was on");
        assert_eq!(trace.n_devices(), n_gpus, "case {case}");

        for (dev, events) in trace.per_device.iter().enumerate() {
            // Per-stream clocks: monotone starts, no overlapping spans.
            let mut stream_clock = std::collections::HashMap::new();
            let mut last_step = 0u32;
            for e in events {
                assert!(e.dur_us >= 0.0, "case {case}: negative span");
                assert!(e.start_us >= 0.0, "case {case}: span before t=0");
                let clock = stream_clock.entry(e.stream).or_insert(0.0f64);
                // BarrierWait spans describe idle gaps *behind* the stream
                // clock; everything else occupies the stream.
                if e.kind != TraceKind::BarrierWait {
                    assert!(
                        e.start_us >= *clock - 1e-9,
                        "case {case} dev {dev}: span {:?} at {} overlaps clock {}",
                        e.kind,
                        e.start_us,
                        clock
                    );
                    *clock = clock.max(e.start_us + e.dur_us);
                }
                assert!(e.superstep >= last_step, "case {case}: superstep went backwards");
                last_step = e.superstep;
            }
        }

        // COMM spans reconcile with the device counters (and everything
        // else — reconcile checks all buckets bitwise).
        let profile = Profile::from_trace(trace);
        profile.reconcile(&report).unwrap_or_else(|e| panic!("case {case}: {e}"));

        // Log ↔ event pairing.
        let rec = &report.recovery;
        assert_eq!(
            profile.total.retries,
            rec.kernel_retries + rec.transfer_retries,
            "case {case}: retries unpaired"
        );
        let gov = &report.governor;
        assert_eq!(profile.total.spills, gov.spill_events, "case {case}: spills unpaired");
        assert_eq!(profile.total.chunks, gov.chunked_advances, "case {case}: chunks unpaired");
        assert_eq!(
            profile.total.downgrades,
            gov.downgrades.len() as u64,
            "case {case}: downgrades unpaired"
        );
        assert_eq!(profile.total.spilled_bytes, gov.spilled_bytes, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// DOBFS backward pass: correct and thread-count-invisible (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// DOBFS — the one primitive whose backward pass shrinks a vertex set in
/// place (`ops::retain_pull`) — must label arbitrary graphs like
/// `reference::bfs`, and its `same_simulation` report and JSONL trace must
/// be byte-identical across kernel thread counts, at every GPU count.
#[test]
fn dobfs_matches_reference_and_is_thread_count_invisible() {
    use mgpu_graph_analytics::primitives::{dobfs::gather_labels as dobfs_labels, Dobfs};

    let mut rng = ChaCha8Rng::seed_from_u64(0xF40);
    for case in 0..6 {
        let (n, edges, weights) = arb_graph(&mut rng);
        let src = (rng.gen_range(0usize..100) % n) as u32;
        let g = build(n, &edges, &weights);
        let expect = reference::bfs(&g, src);

        for n_gpus in [2usize, 4, 8] {
            let mut dist =
                DistGraph::partition(&g, &RandomPartitioner { seed: 7 }, n_gpus, Duplication::All);
            dist.build_cscs();

            let run = |threads: usize| {
                let cfg = EnactConfig {
                    tracing: true,
                    kernel_threads: Some(threads),
                    ..EnactConfig::default()
                };
                let sys = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
                let mut runner = Runner::new(sys, &dist, Dobfs::default(), cfg).unwrap();
                let report = runner.enact(Some(src)).unwrap();
                let labels = dobfs_labels(&runner, &dist);
                assert_eq!(labels, expect, "case {case}: x{n_gpus} t{threads} wrong labels");
                let jsonl = report.trace.as_ref().unwrap().to_jsonl();
                (report, jsonl)
            };
            let (rep1, trace1) = run(1);
            let (rep4, trace4) = run(4);
            assert!(
                rep1.same_simulation(&rep4),
                "case {case} x{n_gpus}: 4 threads diverge from 1 in sim report"
            );
            assert_eq!(trace1, trace4, "case {case} x{n_gpus}: traces not byte-identical");
        }
    }
}

/// `Display for FaultPlan` is the exact inverse of `FaultPlan::parse`:
/// any plan — seeded-random (transient-only and with pressure sites) or
/// hand-built over every event kind — survives a display → parse round
/// trip event-for-event, and the re-displayed string is byte-identical.
/// This is the contract the chaos-soak shrinker relies on when it
/// minimizes failing plans through their textual form.
#[test]
fn fault_plan_display_parse_round_trips() {
    use mgpu_graph_analytics::vgpu::FaultPlan;

    let mut rng = ChaCha8Rng::seed_from_u64(0x7a15_0d15);
    for case in 0..CASES {
        let seed: u64 = rng.gen();
        let n_devices = rng.gen_range(1usize..9);
        let n_faults = rng.gen_range(0usize..12);
        let horizon = rng.gen_range(1u64..64);
        for plan in [
            FaultPlan::random(seed, n_devices, n_faults, horizon),
            FaultPlan::random_with_pressure(seed, n_devices, n_faults, horizon),
        ] {
            let spec = plan.to_string();
            let parsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("case {case}: `{spec}` failed to parse: {e}"));
            assert_eq!(parsed, plan, "case {case}: `{spec}` round-trips to a different plan");
            assert_eq!(parsed.to_string(), spec, "case {case}: re-display of `{spec}` differs");
        }
    }

    // One constructed plan covering every event kind the grammar knows,
    // including a fractional straggler delay (f64 display path).
    let plan = FaultPlan::new()
        .kernel_fail(0, 3)
        .transient_oom(1, 7)
        .straggle(2, 1, 12.5)
        .device_loss(3, 9)
        .transfer_fail(0, 1, 4)
        .transfer_timeout(2, 3, 6)
        .spill_fail(1, 0)
        .chunk_pass_fail(2, 5)
        .arena_lease_oom(3, 2);
    let spec = plan.to_string();
    let parsed = FaultPlan::parse(&spec).expect("constructed plan must parse");
    assert_eq!(parsed, plan);
    assert_eq!(parsed.to_string(), spec);

    // Whitespace-tolerant parsing still displays canonically.
    let padded: String = spec.split(',').map(|ev| format!(" {ev} ")).collect::<Vec<_>>().join(",");
    assert_eq!(FaultPlan::parse(&padded).expect("padded spec must parse"), plan);

    // The empty plan displays as the empty string and parses back empty.
    assert_eq!(FaultPlan::new().to_string(), "");
    assert!(FaultPlan::parse("").expect("empty spec is valid").is_empty());
}

// ---------------------------------------------------------------------------
// The JSON reader never panics; the writer and the reader are inverses
// ---------------------------------------------------------------------------

/// A value of bounded depth over every variant, with the scalars that are
/// hard to carry: the 64-bit extremes, `-0.0`, quotes, backslashes, control
/// characters and non-ASCII text.
fn arb_json(rng: &mut ChaCha8Rng, depth: usize) -> mgpu_graph_analytics::core::Json {
    use mgpu_graph_analytics::core::Json;
    const TEXT: [&str; 8] =
        ["", "plain", "q\"uote", "back\\slash", "\n\r\t", "\u{0}\u{1f}", "Δ☃😀", "/"];
    let text = |rng: &mut ChaCha8Rng| {
        (0..rng.gen_range(0usize..4)).map(|_| TEXT[rng.gen_range(0usize..TEXT.len())]).collect()
    };
    match rng.gen_range(0u32..if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::U64([0, 1, u64::MAX, rng.gen()][rng.gen_range(0usize..4)]),
        3 => Json::I64([-1, i64::MIN, i64::MAX, rng.gen::<u64>() as i64][rng.gen_range(0usize..4)]),
        4 => {
            let x = [-0.0, 0.1, 1e300, -2.5e-7, 100.0, f64::from_bits(rng.gen())];
            Json::F64(
                Some(x[rng.gen_range(0usize..x.len())]).filter(|x| x.is_finite()).unwrap_or(0.5),
            )
        }
        5 => Json::Str(text(rng)),
        6 => Json::Arr((0..rng.gen_range(0usize..4)).map(|_| arb_json(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..4))
                .map(|_| (text(rng).into(), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `Json::parse` returns — `Ok` or a typed `JsonError` — on arbitrary bytes,
/// on truncations and single-byte mutations of real documents, and on
/// nesting far past its cap; and `parse(v.to_string()) == v` for generated
/// values.
#[test]
fn json_reader_never_panics_and_inverts_the_writer() {
    use mgpu_graph_analytics::core::json::{Json, TOO_DEEP};

    let mut rng = ChaCha8Rng::seed_from_u64(0x1500);
    // real documents: a traced run's report, JSONL line, Chrome export and
    // profile, beside generated values
    let g = build(40, &[(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)], &[1; 5]);
    let dist = DistGraph::partition(&g, &RandomPartitioner { seed: 1 }, 2, Duplication::All);
    let cfg = EnactConfig { tracing: true, ..Default::default() };
    let system = SimSystem::homogeneous(2, HardwareProfile::k40());
    let report = Runner::new(system, &dist, Sssp, cfg).unwrap().enact(Some(0)).unwrap();
    let trace = report.trace.as_ref().expect("tracing was on");
    let mut documents = vec![
        report.to_json(),
        trace.to_jsonl().lines().next().expect("at least one span").to_string(),
        trace.to_chrome_json(),
        mgpu_graph_analytics::core::Profile::from_trace(trace).to_json(),
    ];
    for doc in &documents {
        Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }

    for case in 0..500 {
        let v = arb_json(&mut rng, 3);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "case {case}: {text}");
        if case % 50 == 0 {
            documents.push(text);
        }
        let doc = &documents[case % documents.len()];
        let mut bytes = doc.clone().into_bytes();
        match case % 3 {
            0 => bytes.truncate(rng.gen_range(0usize..bytes.len() + 1)),
            1 if !bytes.is_empty() => {
                let at = rng.gen_range(0usize..bytes.len());
                bytes[at] = rng.gen::<u32>() as u8;
            }
            _ => bytes = (0..rng.gen_range(0usize..64)).map(|_| rng.gen::<u32>() as u8).collect(),
        }
        // whatever comes back, it came back
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let deep = open.repeat(1_000_000);
        assert_eq!(Json::parse(&deep).unwrap_err().want, TOO_DEEP, "{open}");
    }
}
