//! The link surface: the only file of the benchmark that names repo types.
//!
//! Everything else in the harness sees plain data (`Vec<u64>`, counters,
//! durations). A rename or deletion in the workspace crates therefore costs
//! exactly the lines below; `README.md` lists every symbol linked here.
//! Calls are made the way a user of the library makes them — public
//! functions only, one fresh `Runner` per query — and each call into a layer
//! is wrapped in a bench-side span.

use std::hint::black_box;
use std::time::Instant;

use mgpu_core::{comm, ops};
use mgpu_core::{
    AllocScheme, CommTopology, EnactConfig, EnactReport, Executor, ExecutorKind, FrontierBufs,
    MgpuProblem, Package, Profile, QuerySpec, RecoveryPolicy, ResilientRunner, Runner, Service,
    ServicePolicy, SplitScratch, WireEncoding,
};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::{Coo, Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication, Partitioner, RandomPartitioner};
use mgpu_primitives::ms_bfs::gather_lane_depths;
use mgpu_primitives::{reference, Bc, Bfs, Cc, Dobfs, MsBfs, Pagerank, Sssp};
use vgpu::{Device, HardwareProfile, Interconnect, KernelKind, SimSystem, SyncPoint, COMPUTE_STREAM};

use crate::span::{At, Recorder};

/// MS-BFS batch width (one lane per source in a machine word).
pub const LANES: usize = 64;
/// PageRank runs a fixed number of iterations so every run does equal work.
pub const PR_ITERS: usize = 20;
const PR_DAMPING: f64 = 0.85;

/// The seven measured primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prim {
    Bfs,
    Dobfs,
    Sssp,
    Bc,
    Cc,
    Pr,
    MsBfs,
}

impl Prim {
    pub const ALL: [Prim; 7] =
        [Prim::Bfs, Prim::Dobfs, Prim::Sssp, Prim::Bc, Prim::Cc, Prim::Pr, Prim::MsBfs];

    /// The name used in metric names and span tags.
    pub fn name(self) -> &'static str {
        match self {
            Prim::Bfs => "bfs",
            Prim::Dobfs => "dobfs",
            Prim::Sssp => "sssp",
            Prim::Bc => "bc",
            Prim::Cc => "cc",
            Prim::Pr => "pr",
            Prim::MsBfs => "msbfs",
        }
    }

    pub fn needs_source(self) -> bool {
        matches!(self, Prim::Bfs | Prim::Dobfs | Prim::Sssp | Prim::Bc)
    }
}

// ---------------------------------------------------------------- ingest

/// A raw directed edge list with the paper's SSSP weights attached.
pub struct EdgeList(Coo<u32>);

/// The preprocessed (undirected, deduplicated) CSR graph.
pub struct Graph(Csr<u32, u64>);

/// The graph partitioned over the virtual GPUs (duplicate-all).
pub struct Dist(DistGraph<u32, u64>);

/// `mgpu-gen`: the named catalog analog, scaled down by `2^shift` vertices.
pub fn generate(dataset: &str, shift: u32, seed: u64) -> EdgeList {
    let ds = Dataset::by_name(dataset).expect("workloads name catalog datasets");
    EdgeList(ds.generate(shift, seed))
}

/// `mgpu-gen`: uniform integer weights in [0, 64] on every edge.
pub fn add_weights(edges: &mut EdgeList, seed: u64) {
    add_paper_weights(&mut edges.0, seed);
}

impl EdgeList {
    pub fn n_edges(&self) -> usize {
        self.0.n_edges()
    }
}

/// `mgpu-graph`: symmetrize, drop self-loops and duplicates, sort rows.
pub fn build_graph(edges: &EdgeList) -> Graph {
    Graph(GraphBuilder::undirected(&edges.0))
}

impl Graph {
    pub fn n_vertices(&self) -> usize {
        self.0.n_vertices()
    }

    pub fn n_edges(&self) -> usize {
        self.0.n_edges()
    }

    pub fn csr_bytes(&self) -> u64 {
        self.0.bytes()
    }

    pub fn degree(&self, v: u32) -> usize {
        self.0.degree(v)
    }

    /// The `k` highest-degree vertices, highest first (lowest id on ties).
    /// The first is the hub, the conventional traversal source on power-law
    /// graphs.
    pub fn hubs(&self, k: usize) -> Vec<u32> {
        let rank = |&v: &u32| (std::cmp::Reverse(self.degree(v)), v);
        let mut by_degree: Vec<u32> = (0..self.n_vertices() as u32).collect();
        let k = k.min(by_degree.len());
        if k < by_degree.len() {
            by_degree.select_nth_unstable_by_key(k, rank); // O(|V|): this runs inside ingest_soc's pass
            by_degree.truncate(k);
        }
        by_degree.sort_unstable_by_key(rank);
        by_degree
    }

    /// FNV-1a over the adjacency arrays: tells two graphs apart.
    pub fn fingerprint(&self) -> u64 {
        crate::verify::fnv1a(self.0.col_indices().iter().map(|&c| u64::from(c)))
    }
}

/// `mgpu-partition`: the paper's default uniform-random owner table.
pub fn assign(graph: &Graph, n_parts: usize, seed: u64) -> Vec<u32> {
    RandomPartitioner { seed }.assign(&graph.0, n_parts)
}

/// `mgpu-partition`: per-GPU host graphs under duplicate-all.
pub fn build_dist(graph: &Graph, owner: Vec<u32>, n_parts: usize) -> Dist {
    Dist(DistGraph::build(&graph.0, owner, n_parts, Duplication::All))
}

impl Dist {
    /// `mgpu-partition`: reverse adjacency on every part (pull traversal).
    pub fn build_cscs(&mut self) {
        self.0.build_cscs();
    }

    pub fn n_parts(&self) -> usize {
        self.0.n_parts
    }

    /// Σ over parts of the outgoing border size |B_i|.
    pub fn border_vertices(&self) -> u64 {
        self.0.parts.iter().map(|p| p.border_total() as u64).sum()
    }

    pub fn topology_bytes_max(&self) -> u64 {
        self.0.parts.iter().map(|p| p.topology_bytes()).max().unwrap_or(0)
    }

    pub fn owner(&self, v: u32) -> u32 {
        self.0.partition_table[v as usize]
    }
}

/// A graph made resident: what every query borrows.
pub struct Resident {
    pub graph: Graph,
    pub dist: Dist,
    /// The dataset's scale-down shift; fixed simulated overheads are divided
    /// by the same `2^shift` so work-to-overhead ratios match paper scale.
    pub shift: u32,
}

/// `vgpu`: `n` K40s and a PCIe fabric whose fixed overheads are shrunk by
/// `2^shift` (what `mgpu run` builds; rebuilt here so the benchmark does not
/// link `mgpu-bench`).
fn scaled_system(n: usize, shift: u32) -> SimSystem {
    let s = (1u64 << shift.min(40)) as f64;
    let ic = Interconnect::pcie3(n, 4).with_latency_scale(s);
    SimSystem::new(vec![scaled_profile(shift); n], ic).expect("sizes match by construction")
}

fn scaled_profile(shift: u32) -> HardwareProfile {
    HardwareProfile::k40().with_overhead_scale((1u64 << shift.min(40)) as f64)
}

// ---------------------------------------------------------------- enact

/// The two configurations a query runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Record the per-enact device trace (`EnactConfig::tracing`).
    pub tracing: bool,
    /// The wire-reduction stack: butterfly + auto encoding + suppression.
    /// Off means `EnactConfig::default()`, whatever that currently selects.
    pub reduced: bool,
}

impl Knobs {
    fn config(self) -> EnactConfig {
        // kernel_threads is pinned through the config, never the env var
        let base = EnactConfig {
            kernel_threads: Some(1),
            tracing: self.tracing,
            ..EnactConfig::default()
        };
        if !self.reduced {
            return base;
        }
        EnactConfig {
            comm_topology: CommTopology::Butterfly,
            wire_encoding: WireEncoding::Auto,
            suppression: true,
            ..base
        }
    }
}

/// What the folded device trace of one enact adds to its report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceFold {
    pub events: u64,
    pub barrier_wait_sim_us: f64,
    /// Enacts whose `Profile::reconcile` passed / enacts traced.
    pub reconciled: u64,
    pub traced: u64,
}

/// One enact's report as plain numbers; `absorb` sums a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnactStats {
    pub enacts: u64,
    pub sim_us: f64,
    pub supersteps: u64,
    pub kernel_launches: u64,
    pub w_items: u64,
    pub c_items: u64,
    pub wire_bytes: u64,
    pub messages: u64,
    pub vertices_sent: u64,
    pub w_sim_us: f64,
    pub c_sim_us: f64,
    pub h_sim_us: f64,
    pub sync_sim_us: f64,
    pub peak_mem_per_device: u64,
    pub pool_reallocs: u64,
    pub realloc_copied_bytes: u64,
    pub suppressed_vertices: u64,
    pub enc_list: u64,
    pub enc_bitmap: u64,
    pub enc_delta: u64,
    pub collective_stages: u64,
    pub trace: TraceFold,
}

impl EnactStats {
    fn of(r: &EnactReport, rec: &Recorder, at: At) -> Self {
        let trace = r.trace.as_ref().map_or_else(TraceFold::default, |t| {
            let (profile, ok) = rec.span("Profile::from_trace", "", at, |_| {
                let profile = Profile::from_trace(t);
                let ok = profile.reconcile(r);
                (profile, ok)
            });
            if let Err(why) = &ok {
                eprintln!("trace does not reconcile: {why}");
            }
            TraceFold {
                events: t.n_events() as u64,
                barrier_wait_sim_us: profile.total.wait_us,
                reconciled: u64::from(ok.is_ok()),
                traced: 1,
            }
        });
        EnactStats {
            enacts: 1,
            sim_us: r.sim_time_us,
            supersteps: r.iterations as u64,
            kernel_launches: r.totals.kernel_launches,
            w_items: r.totals.w_items,
            c_items: r.totals.c_items,
            wire_bytes: r.totals.h_bytes_sent,
            messages: r.totals.h_messages,
            vertices_sent: r.totals.h_vertices,
            w_sim_us: r.totals.w_time_us,
            c_sim_us: r.totals.c_time_us,
            h_sim_us: r.totals.h_time_us,
            sync_sim_us: r.totals.sync_time_us,
            peak_mem_per_device: r.peak_memory_per_device,
            pool_reallocs: r.pool_reallocs,
            realloc_copied_bytes: r.mem_per_device.iter().map(|m| m.realloc_copied).sum(),
            suppressed_vertices: r.comm.suppressed_vertices,
            enc_list: r.comm.enc_list,
            enc_bitmap: r.comm.enc_bitmap,
            enc_delta: r.comm.enc_delta,
            collective_stages: r.comm.collective_stages,
            trace,
        }
    }

    /// Fold another enact into a pass total: times and counts add, the
    /// memory high-water mark takes the max.
    pub fn absorb(&mut self, o: &EnactStats) {
        self.enacts += o.enacts;
        self.sim_us += o.sim_us;
        self.supersteps += o.supersteps;
        self.kernel_launches += o.kernel_launches;
        self.w_items += o.w_items;
        self.c_items += o.c_items;
        self.wire_bytes += o.wire_bytes;
        self.messages += o.messages;
        self.vertices_sent += o.vertices_sent;
        self.w_sim_us += o.w_sim_us;
        self.c_sim_us += o.c_sim_us;
        self.h_sim_us += o.h_sim_us;
        self.sync_sim_us += o.sync_sim_us;
        self.peak_mem_per_device = self.peak_mem_per_device.max(o.peak_mem_per_device);
        self.pool_reallocs += o.pool_reallocs;
        self.realloc_copied_bytes += o.realloc_copied_bytes;
        self.suppressed_vertices += o.suppressed_vertices;
        self.enc_list += o.enc_list;
        self.enc_bitmap += o.enc_bitmap;
        self.enc_delta += o.enc_delta;
        self.collective_stages += o.collective_stages;
        self.trace.events += o.trace.events;
        self.trace.barrier_wait_sim_us += o.trace.barrier_wait_sim_us;
        self.trace.reconciled += o.trace.reconciled;
        self.trace.traced += o.trace.traced;
    }
}

/// Harvested result words: one `u64` per global vertex, or one depth array
/// per MS-BFS lane.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Words(Vec<u64>),
    Lanes(Vec<Vec<u32>>),
}

/// One query's outcome: an error string stands for any `Err` the library
/// returned.
pub type QueryResult = Result<(EnactStats, Answer), String>;

/// Bind, enact and harvest one query on a fresh runner over `res`.
/// `sources` are the MS-BFS lane sources (ignored by the other primitives).
pub fn run_query(
    res: &Resident,
    prim: Prim,
    src: Option<u32>,
    sources: &[usize],
    knobs: Knobs,
    rec: &Recorder,
    at: At,
) -> QueryResult {
    macro_rules! words {
        ($problem:expr, $src:expr) => {
            solo(res, $problem, $src, knobs, rec, at, prim, |r| Answer::Words(r.harvest()))
        };
    }
    match prim {
        Prim::Bfs => words!(Bfs::default(), src),
        Prim::Dobfs => words!(Dobfs::default(), src),
        Prim::Sssp => words!(Sssp, src),
        Prim::Bc => words!(bc(), src),
        Prim::Cc => words!(Cc, None),
        Prim::Pr => words!(pagerank(), None),
        Prim::MsBfs => solo(res, MsBfs::new(sources.to_vec()), None, knobs, rec, at, prim, |r| {
            Answer::Lanes(gather_lane_depths(r, &res.dist.0, sources.len()))
        }),
    }
}

/// The one line that names the single-source BC engine.
fn bc() -> Bc {
    Bc
}

fn pagerank() -> Pagerank {
    Pagerank { damping: PR_DAMPING, threshold: 0.0, max_iters: PR_ITERS }
}

#[allow(clippy::too_many_arguments)]
fn solo<'g, P: MgpuProblem<u32, u64>>(
    res: &'g Resident,
    problem: P,
    src: Option<u32>,
    knobs: Knobs,
    rec: &Recorder,
    at: At,
    prim: Prim,
    harvest: impl FnOnce(&Runner<'g, u32, u64, P>) -> Answer,
) -> QueryResult {
    let tag = prim.name();
    let system = scaled_system(res.dist.n_parts(), res.shift);
    let mut runner = rec
        .span("Runner::new", tag, at, |_| Runner::new(system, &res.dist.0, problem, knobs.config()))
        .map_err(|e| e.to_string())?;
    let report = rec.span("enact", tag, at, |_| runner.enact(src)).map_err(|e| e.to_string())?;
    let answer = rec.span("harvest", tag, at, |_| harvest(&runner));
    Ok((EnactStats::of(&report, rec, at), answer))
}

/// `n` MS-BFS sources spread evenly over the vertex space.
pub fn spread_sources(n_vertices: usize) -> Vec<usize> {
    MsBfs::spread_sources(LANES, n_vertices)
}

// -------------------------------------------------------------- service

/// One entry of a service batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeQuery {
    pub prim: Prim,
    pub src: Option<u32>,
    /// Run on the checkpoint/failover executor instead of the BSP runner.
    pub resilient: bool,
}

/// What one `Service::run` produced, as plain data.
pub struct ServeRun {
    pub outcomes: Vec<QueryResult>,
    pub waves: u64,
    pub queued: u64,
    pub serial_sim_us: f64,
    pub concurrent_sim_us: f64,
    pub plan_wall_us: f64,
    pub run_wall_us: f64,
}

/// An executor whose `enact` and `harvest` are wrapped in spans, so the
/// service's worker threads report per-query phases without the service
/// knowing.
struct Spanned<'g> {
    inner: BoxedExecutor<'g>,
    rec: &'g Recorder,
    at: At,
    tag: &'static str,
}

impl Executor<u32> for Spanned<'_> {
    fn kind(&self) -> ExecutorKind {
        self.inner.kind()
    }
    fn primitive(&self) -> &'static str {
        self.inner.primitive()
    }
    fn n_devices(&self) -> usize {
        self.inner.n_devices()
    }
    fn recovery_policy(&self) -> RecoveryPolicy {
        self.inner.recovery_policy()
    }
    fn enact(&mut self, src: Option<u32>) -> vgpu::Result<EnactReport> {
        self.rec.span("enact", self.tag, self.at, |_| self.inner.enact(src))
    }
    fn harvest(&self) -> Vec<u64> {
        self.rec.span("harvest", self.tag, self.at, |_| self.inner.harvest())
    }
}

type BoxedExecutor<'g> = Box<dyn Executor<u32> + Send + 'g>;

fn spec<'g, P: MgpuProblem<u32, u64> + Clone + Send + Sync + 'g>(
    res: &'g Resident,
    problem: P,
    q: ServeQuery,
    knobs: Knobs,
    rec: &'g Recorder,
    at: At,
) -> QuerySpec<'g, u32>
where
    P::State: Send,
{
    let tag = q.prim.name();
    let n = res.dist.n_parts();
    // no memory cap is set, so the admission ledger never reads the footprint
    QuerySpec::new(tag, q.src, 0, move || {
        let inner: vgpu::Result<BoxedExecutor<'g>> = rec.span("Runner::new", tag, at, |_| {
            if q.resilient {
                let owner = res.dist.0.partition_table.to_vec();
                let profile = scaled_profile(res.shift);
                let runner = ResilientRunner::homogeneous(
                    &res.graph.0,
                    problem.clone(),
                    n,
                    profile,
                    knobs.config(),
                )
                .with_owner(owner);
                Ok(Box::new(runner) as BoxedExecutor<'g>)
            } else {
                let system = scaled_system(n, res.shift);
                let runner = Runner::new(system, &res.dist.0, problem.clone(), knobs.config())?;
                Ok(Box::new(runner) as BoxedExecutor<'g>)
            }
        });
        Ok(Box::new(Spanned { inner: inner?, rec, at, tag }) as BoxedExecutor<'g>)
    })
}

/// Submit `queries` as one batch to a 4-lane, uncapped `Service` and wait
/// for all of them.
pub fn serve(
    res: &Resident,
    queries: &[ServeQuery],
    seed: u64,
    workers: usize,
    knobs: Knobs,
    rec: &Recorder,
    at: At,
) -> ServeRun {
    let service =
        Service::new(ServicePolicy { seed, workers, lanes: 4, ..ServicePolicy::default() });
    let named: Vec<(String, u64)> =
        queries.iter().map(|q| (q.prim.name().to_string(), 0)).collect();
    let t0 = Instant::now();
    rec.span("Service::plan", "", at, |_| black_box(service.plan(&named)));
    let plan_wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let t0 = Instant::now();
    let report = rec.span("Service::run", "", at, |run| {
        let specs: Vec<QuerySpec<'_, u32>> = queries
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let at = at.under(run).query(i as u32);
                match q.prim {
                    Prim::Bfs => spec(res, Bfs::default(), q, knobs, rec, at),
                    Prim::Dobfs => spec(res, Dobfs::default(), q, knobs, rec, at),
                    Prim::Sssp => spec(res, Sssp, q, knobs, rec, at),
                    Prim::Bc => spec(res, bc(), q, knobs, rec, at),
                    Prim::Cc => spec(res, Cc, q, knobs, rec, at),
                    Prim::Pr => spec(res, pagerank(), q, knobs, rec, at),
                    Prim::MsBfs => unreachable!("the service batch holds single-source queries"),
                }
            })
            .collect();
        service.run(&specs)
    });
    let run_wall_us = t0.elapsed().as_secs_f64() * 1e6;

    let outcomes = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| match &o.result {
            Ok(r) => {
                Ok((EnactStats::of(r, rec, at.query(i as u32)), Answer::Words(o.values.clone())))
            }
            Err(e) => Err(e.to_string()),
        })
        .collect();
    ServeRun {
        outcomes,
        waves: report.waves as u64,
        queued: report.admission.iter().filter(|a| a.queued).count() as u64,
        serial_sim_us: report.serial_sim_us,
        concurrent_sim_us: report.concurrent_sim_us,
        plan_wall_us,
        run_wall_us,
    }
}

// --------------------------------------------------------------- oracle

/// `mgpu-primitives::reference`: the sequential oracles, which share no code
/// with the framework.
pub fn ref_bfs(g: &Graph, src: u32) -> Vec<u32> {
    reference::bfs(&g.0, src)
}

pub fn ref_sssp(g: &Graph, src: u32) -> Vec<u32> {
    reference::sssp(&g.0, src)
}

pub fn ref_cc(g: &Graph) -> Vec<usize> {
    reference::cc(&g.0)
}

pub fn ref_pr(g: &Graph) -> Vec<f64> {
    reference::pagerank(&g.0, PR_DAMPING, PR_ITERS)
}

pub fn ref_bc(g: &Graph, src: u32) -> Vec<f64> {
    reference::bc(&g.0, src)
}

// --------------------------------------------------------------- probes

/// Input for the operator probes, cut from the workload's own graph: the
/// part-0-owned vertices of the widest BFS level from the probe source.
pub struct ProbeInput {
    pub frontier: Vec<u32>,
    pub depth: Vec<u32>,
    pub level: u32,
}

/// Rates measured by timing shipped public functions directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeRates {
    pub advance_fused_medges_per_s: f64,
    pub split_package_mverts_per_s: f64,
    pub encode_auto_mverts_per_s: f64,
    pub decode_mverts_per_s: f64,
}

/// Millions of `items` per second at the median of `reps` timings of `f`.
fn median_rate(items: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let secs = crate::stats::median(&samples);
    if secs > 0.0 {
        items as f64 / secs / 1e6
    } else {
        0.0
    }
}

/// `ops::advance_filter_fused`, `comm::split_and_package`, and
/// `Package::encode`(Auto) / `decode`, each on the output of the one before,
/// exactly as a BFS superstep chains them. Median of `reps` timings each.
pub fn probe_operators(res: &Resident, input: &ProbeInput, reps: usize) -> ProbeRates {
    let sub = &res.dist.0.parts[0];
    let mut dev = Device::new(0, HardwareProfile::k40());
    dev.set_kernel_threads(1);
    let bufs = FrontierBufs::<u32>::new(
        &mut dev,
        AllocScheme::JustEnough,
        sub.n_vertices(),
        sub.n_edges(),
    )
    .expect("an empty just-enough buffer set always fits");
    let next = input.level + 1;
    let discover = |_: u32, _: usize, d: u32| (input.depth[d as usize] == next).then_some(d);
    let advance = |dev: &mut Device| {
        ops::advance_filter_fused(dev, sub, &bufs, &input.frontier, discover)
            .expect("no fault plan is attached")
    };
    let mut rates = ProbeRates::default();

    let edges = sub.csr.frontier_out_degree(&input.frontier);
    rates.advance_fused_medges_per_s = median_rate(edges, reps, || {
        black_box(advance(&mut dev));
    });

    let out = advance(&mut dev);
    let mut scratch = SplitScratch::default();
    let split = |dev: &mut Device, scratch: &mut SplitScratch| {
        comm::split_and_package(dev, sub, &out, scratch, |_| next)
            .expect("no fault plan is attached")
    };
    rates.split_package_mverts_per_s = median_rate(out.len(), reps, || {
        black_box(split(&mut dev, &mut scratch));
    });

    // the largest outgoing package, canonical (sorted, distinct) as the
    // encoder's sorted-id formats require
    let (_, packages) = split(&mut dev, &mut scratch);
    let mut ids: Vec<u32> = packages
        .iter()
        .flatten()
        .max_by_key(|p| p.len())
        .map_or_else(Vec::new, |p| p.decode().0.into_owned());
    ids.sort_unstable();
    ids.dedup();
    let msgs = vec![next; ids.len()];
    let encode = || Package::encode(ids.clone(), msgs.clone(), WireEncoding::Auto, None, None);
    rates.encode_auto_mverts_per_s = median_rate(ids.len(), reps, || {
        black_box(encode());
    });
    let package = encode();
    rates.decode_mverts_per_s = median_rate(ids.len(), reps, || {
        black_box(package.decode());
    });
    rates
}

/// `SyncPoint::barrier` round trip at `n` device threads, in microseconds:
/// median over `rounds` barriers as seen by thread 0.
pub fn probe_barrier_rtt_us(n: usize, rounds: usize) -> f64 {
    let sync = SyncPoint::new(n);
    let mut samples = Vec::with_capacity(rounds);
    std::thread::scope(|scope| {
        for _ in 1..n {
            scope.spawn(|| {
                for r in 0..=rounds {
                    black_box(sync.barrier(r as f64, false));
                }
            });
        }
        sync.barrier(0.0, false); // every thread is up before timing starts
        for r in 1..=rounds {
            let t0 = Instant::now();
            black_box(sync.barrier(r as f64, false));
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    });
    crate::stats::median(&samples)
}

/// `Device::kernel` with an empty body, in nanoseconds per launch.
pub fn probe_kernel_launch_ns(launches: usize) -> f64 {
    let mut dev = Device::new(0, HardwareProfile::k40());
    let t0 = Instant::now();
    for _ in 0..launches {
        dev.kernel(COMPUTE_STREAM, KernelKind::Compute, || ((), 0))
            .expect("no fault plan is attached");
    }
    black_box(dev.now());
    t0.elapsed().as_secs_f64() * 1e9 / launches as f64
}
