//! Criterion micro-benchmarks of the communication hot path (wall-clock of
//! the real execution, not the simulated clock): the count-then-scatter
//! selective split with its reusable scratch, broadcast packaging with
//! `Arc` fan-out vs the deep-clone fan-out it replaced, the combine
//! loop that appends received vertices straight into the next frontier,
//! the real wire encodings (encode and decode), and the monotone
//! suppression cache on a re-relaxing split.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mgpu_core::comm::{
    broadcast_package, broadcast_package_with, split_and_package, split_and_package_with, Package,
    PackagePolicy, SplitScratch, SuppressState, WireEncoding,
};
use mgpu_graph::{Coo, Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication};
use vgpu::{Device, HardwareProfile};

const N_PARTS: usize = 4;
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// A duplicate-all 4-way partition over `n` vertices. The split only reads
/// ownership, so a sparse ring graph keeps setup cheap at frontier sizes up
/// to 1e6.
fn setup(n: usize) -> (DistGraph<u32, u64>, Vec<u32>) {
    let edges: Vec<(u32, u32)> = (0..1000u32).map(|i| (i, (i + 1) % 1000)).collect();
    let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(n, edges, None));
    let owner: Vec<u32> = (0..n).map(|v| (v % N_PARTS) as u32).collect();
    let dist = DistGraph::build(&g, owner, N_PARTS, Duplication::All);
    let frontier: Vec<u32> = (0..n as u32).collect();
    (dist, frontier)
}

fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/split_and_package");
    for size in SIZES {
        let (dist, frontier) = setup(size);
        let sub = &dist.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut scratch = SplitScratch::default();
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| split_and_package(&mut dev, sub, &frontier, &mut scratch, |v| v).unwrap())
        });
    }
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/broadcast");
    for size in SIZES {
        let (dist, frontier) = setup(size);
        let sub = &dist.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40());
        // The shipped path: package once, fan out n−1 Arc pointers.
        group.bench_function(BenchmarkId::new("arc_fanout", size), |b| {
            b.iter(|| {
                let pkg = broadcast_package(&mut dev, sub, &frontier, |v| v).unwrap();
                let pkg = Arc::new(pkg);
                let sends: Vec<Arc<Package<u32, u32>>> =
                    (1..N_PARTS).map(|_| Arc::clone(&pkg)).collect();
                sends
            })
        });
        // The pre-zero-copy behavior: a frontier copy for the local part and
        // a deep package clone per peer.
        group.bench_function(BenchmarkId::new("deep_clone", size), |b| {
            b.iter(|| {
                let pkg = broadcast_package(&mut dev, sub, &frontier, |v| v).unwrap();
                let local = frontier.to_vec();
                let sends: Vec<Package<u32, u32>> = (1..N_PARTS).map(|_| pkg.clone()).collect();
                (local, sends)
            })
        });
    }
    group.finish();
}

fn bench_combine(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/combine");
    for size in SIZES {
        let (dist, frontier) = setup(size);
        let sub = &dist.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut scratch = SplitScratch::default();
        let (_, pkgs) = split_and_package(&mut dev, sub, &frontier, &mut scratch, |v| v).unwrap();
        let pkgs: Vec<Package<u32, u32>> = pkgs.into_iter().flatten().collect();
        let n = sub.n_vertices();
        // The enactor's combine loop: one pass per received package,
        // appending fresh vertices straight into the next input frontier.
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| {
                let mut labels = vec![u32::MAX; n];
                let mut next: Vec<u32> = Vec::new();
                for pkg in &pkgs {
                    let (vs, ms) = pkg.decode();
                    for (&v, &msg) in vs.iter().zip(ms.iter()) {
                        if msg < labels[v as usize] {
                            labels[v as usize] = msg;
                            next.push(v);
                        }
                    }
                }
                next
            })
        });
    }
    group.finish();
}

/// Encode + decode round trips for each real wire encoding over a sorted
/// uniform-payload broadcast frontier — the shape DOBFS ships every
/// superstep, and the case where DeltaVarint's shared-payload flag pays.
fn bench_encodings(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/encodings");
    let encodings = [
        ("list", WireEncoding::List),
        ("bitmap", WireEncoding::Bitmap),
        ("delta", WireEncoding::DeltaVarint),
        ("auto", WireEncoding::Auto),
    ];
    for size in [10_000usize, 1_000_000] {
        // every other vertex of the space: sorted, uniform label
        let vertices: Vec<u32> = (0..size as u32).map(|v| v * 2).collect();
        let msgs: Vec<u32> = vec![7u32; size];
        let space = 2 * size;
        for (name, enc) in encodings {
            group.bench_function(BenchmarkId::new(format!("encode/{name}"), size), |b| {
                b.iter(|| {
                    Package::encode(vertices.clone(), msgs.clone(), enc, Some(space), Some(true))
                })
            });
            let pkg = Package::encode(vertices.clone(), msgs.clone(), enc, Some(space), Some(true));
            group.bench_function(BenchmarkId::new(format!("decode/{name}"), size), |b| {
                b.iter(|| {
                    let (vs, ms) = pkg.decode();
                    (vs.len(), ms.len())
                })
            });
        }
    }
    group.finish();
}

/// The monotone suppression cache on a split whose frontier re-relaxes every
/// vertex twice with a non-improving key the second time — the SSSP
/// duplicate-relaxation shape. The suppressed variant does strictly less
/// packaging work; this measures the cache's own overhead against it.
fn bench_suppression(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm/suppression");
    for size in [10_000usize, 100_000] {
        let (dist, _) = setup(size);
        let sub = &dist.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut scratch = SplitScratch::default();
        // every vertex appears twice: second appearance never improves
        let frontier: Vec<u32> = (0..size as u32).chain(0..size as u32).collect();
        let policy = PackagePolicy { monotone: true, ..PackagePolicy::default() };
        group.bench_function(BenchmarkId::new("off", size), |b| {
            b.iter(|| {
                split_and_package_with(
                    &mut dev,
                    sub,
                    &frontier,
                    &mut scratch,
                    |v| v,
                    policy,
                    None,
                    |&m| u64::from(m),
                    |a, _| *a,
                )
                .unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("on", size), |b| {
            b.iter(|| {
                let mut supp = SuppressState::new(sub.n_vertices());
                split_and_package_with(
                    &mut dev,
                    sub,
                    &frontier,
                    &mut scratch,
                    |v| v,
                    policy,
                    Some(&mut supp),
                    |&m| u64::from(m),
                    |a, _| *a,
                )
                .unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("broadcast_on", size), |b| {
            b.iter(|| {
                let mut supp = SuppressState::new(sub.n_vertices());
                broadcast_package_with(
                    &mut dev,
                    sub,
                    &frontier,
                    |v| v,
                    policy,
                    Some(&mut supp),
                    |&m| u64::from(m),
                    |a, _| *a,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_split,
    bench_broadcast,
    bench_combine,
    bench_encodings,
    bench_suppression
);
criterion_main!(benches);
