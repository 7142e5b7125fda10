//! Uniform primitive dispatch for the experiment binaries.

use std::time::Instant;

use mgpu_core::{CommStrategy, Downgrade, EnactConfig, EnactReport, Runner};
use mgpu_graph::{Csr, Id};
use mgpu_partition::{DistGraph, HostBytes, Partitioner, Reads};
use mgpu_primitives::{Bc, Bfs, Cc, Dobfs, MsBfs, Pagerank, Sssp};
use mgpu_core::problem::MgpuProblem;
use vgpu::{Result, SimSystem, VgpuError};

/// The six evaluated primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Breadth-first search.
    Bfs,
    /// Direction-optimizing BFS.
    Dobfs,
    /// Single-source shortest paths.
    Sssp,
    /// Betweenness centrality (single source).
    Bc,
    /// Connected components.
    Cc,
    /// PageRank (at most [`PR_ITERS`] iterations).
    Pr,
}

impl Primitive {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::Bfs => "BFS",
            Primitive::Dobfs => "DOBFS",
            Primitive::Sssp => "SSSP",
            Primitive::Bc => "BC",
            Primitive::Cc => "CC",
            Primitive::Pr => "PR",
        }
    }

    /// The name `--primitive` and `--queries` spell this primitive with.
    pub fn label(self) -> &'static str {
        match self {
            Primitive::Bfs => "bfs",
            Primitive::Dobfs => "dobfs",
            Primitive::Sssp => "sssp",
            Primitive::Bc => "bc",
            Primitive::Cc => "cc",
            Primitive::Pr => "pr",
        }
    }

    /// All six, in the paper's Fig. 4 order.
    pub fn all() -> [Primitive; 6] {
        [
            Primitive::Bc,
            Primitive::Bfs,
            Primitive::Cc,
            Primitive::Dobfs,
            Primitive::Pr,
            Primitive::Sssp,
        ]
    }

    /// Does this primitive take a source vertex?
    pub fn needs_source(self) -> bool {
        !matches!(self, Primitive::Cc | Primitive::Pr)
    }
}

/// The inverse of [`Primitive::label`].
impl std::str::FromStr for Primitive {
    type Err = ();
    fn from_str(s: &str) -> std::result::Result<Self, ()> {
        Primitive::all().into_iter().find(|p| p.label() == s).ok_or(())
    }
}

/// PageRank's iteration cap everywhere a `Primitive::Pr` runs, for
/// comparability. The run may end earlier, once no rank changes.
pub const PR_ITERS: usize = 20;

/// Bind `$p` to the problem value `$prim` names (`$one_hop` picks BFS's
/// duplication) and evaluate `$body` with it: the one primitive → problem
/// map, and the one statement of PageRank's parameters.
macro_rules! with_problem {
    ($prim:expr, $one_hop:expr, |$p:ident| $body:expr) => {{
        macro_rules! arm {
            ($problem:expr) => {{
                let $p = $problem;
                $body
            }};
        }
        match $prim {
            Primitive::Bfs => arm!(Bfs { one_hop: $one_hop }),
            Primitive::Dobfs => arm!(Dobfs::default()),
            Primitive::Sssp => arm!(Sssp),
            Primitive::Bc => arm!(Bc),
            Primitive::Cc => arm!(Cc),
            Primitive::Pr => {
                arm!(Pagerank {
                    damping: 0.85,
                    threshold: 0.0,
                    max_iters: $crate::runners::PR_ITERS
                })
            }
        }
    }};
}
pub(crate) use with_problem;

impl Primitive {
    /// What the problem this names reads beyond the CSR structure
    /// ([`MgpuProblem::reads`]): what a partition built for it must carry.
    pub fn reads(self) -> Reads {
        with_problem!(self, false, |p| MgpuProblem::<u32, u64>::reads(&p))
    }
}

/// Host wall of the ingest stages a run pays between the CSR and the bind
/// (the CSR build itself is timed by whoever holds the edge list), and the
/// host bytes they leave resident.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestWall {
    /// `Partitioner::assign` + `DistGraph::build` in µs, summed over the
    /// re-partitions of a governed retry chain.
    pub partition_us: f64,
    /// `DistGraph::build_cscs` in µs; 0 for primitives that never pull.
    pub csc_us: f64,
    /// What the graph and the last partition built hold on the host.
    pub host: HostBytes,
}

/// Run `f`, adding its host wall in µs to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64() * 1e6;
    out
}

/// The outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The enact report (sim time, counters, memory, iterations).
    pub report: EnactReport,
    /// Edge count the run is credited with (the graph's |E|).
    pub edges: usize,
    /// What partitioning and the reverse adjacency cost on the host.
    pub ingest: IngestWall,
}

impl RunOutcome {
    /// GTEPS under the paper's crediting convention.
    pub fn gteps(&self) -> f64 {
        self.report.gteps(self.edges)
    }

    /// Simulated milliseconds.
    pub fn ms(&self) -> f64 {
        self.report.sim_ms()
    }
}

/// The highest-degree vertex — the conventional BFS source for power-law
/// graphs (guarantees the traversal covers the giant component).
pub fn pick_source<V: Id, O: Id>(g: &Csr<V, O>) -> V {
    let mut best = 0usize;
    let mut best_deg = 0usize;
    for v in 0..g.n_vertices() {
        let d = g.degree(V::from_usize(v));
        if d > best_deg {
            best_deg = d;
            best = v;
        }
    }
    V::from_usize(best)
}

/// Partition `g` on `system`'s device count the way `problem` reads it —
/// its duplication, plus the reverse adjacency if it pulls — bind it, and
/// hand the runner to `f`. The host wall of each stage is added to
/// `ingest`. The error is the bind's (admission's).
fn bind_partitioned<O: Id, P: MgpuProblem<u32, O>, T>(
    g: &Csr<u32, O>,
    partitioner: &impl Partitioner,
    system: SimSystem,
    config: EnactConfig,
    problem: P,
    ingest: &mut IngestWall,
    f: impl FnOnce(&mut Runner<'_, u32, O, P>) -> T,
) -> Result<T> {
    let n = system.n_devices();
    let dup = problem.duplication();
    let mut dist = timed(&mut ingest.partition_us, || DistGraph::partition(g, partitioner, n, dup));
    if problem.reads().reverse {
        timed(&mut ingest.csc_us, || dist.build_cscs());
    }
    ingest.host = dist.host_bytes();
    Ok(f(&mut Runner::new(system, &dist, problem, config)?))
}

/// Partition `g` for `prim` and run it once on `system`.
///
/// This layer owns the *global* links of the governor's admission downgrade
/// chain, which need a re-bind the enactor cannot do itself: an
/// `OutOfMemory` refused at admission (`Runner::new`) first drops a
/// `broadcast` comm override back to the primitive's preferred `selective`
/// (wire formats permitting), then re-partitions `duplicate-all →
/// duplicate-1-hop` (BFS supports both). Each step is recorded in the
/// report's governor log; only when the chain is exhausted does the typed
/// OOM reach the caller. An `OutOfMemory` the enact returns reaches the
/// caller as it is: no re-bind answers a failure admission did not foresee.
pub fn run_primitive<O: Id>(
    prim: Primitive,
    g: &Csr<u32, O>,
    system: SimSystem,
    partitioner: &impl Partitioner,
    config: EnactConfig,
) -> Result<RunOutcome> {
    let src = prim.needs_source().then(|| pick_source(g));
    let all: Vec<usize> = (0..system.n_devices()).collect();
    let mut system = system;
    let mut cfg = config;
    let mut one_hop = false;
    let mut notes: Vec<Downgrade> = Vec::new();
    let mut ingest = IngestWall::default();
    loop {
        // a bind consumes its system: a refused one retries on a fresh copy
        let retry = system.survivors(&all);
        // a broadcast override may be dropped only for a problem that
        // prefers selective itself (CC and DOBFS need broadcast wire ids)
        let (attempt, selective) = with_problem!(prim, one_hop, |p| {
            let selective = MgpuProblem::<u32, O>::comm(&p) == CommStrategy::Selective;
            let bound = bind_partitioned(g, partitioner, system, cfg, p, &mut ingest, |r| {
                for d in &notes {
                    r.note_downgrade(d.clone());
                }
                r.enact(src)
            });
            (bound, selective)
        });
        system = retry;
        match attempt {
            Ok(enacted) => {
                return enacted.map(|report| RunOutcome { report, edges: g.n_edges(), ingest })
            }
            Err(VgpuError::OutOfMemory { requested, capacity, .. })
                if cfg.comm == Some(CommStrategy::Broadcast) && selective =>
            {
                notes.push(Downgrade {
                    device: None,
                    kind: "comm",
                    from: "broadcast",
                    to: "selective",
                    estimated_bytes: requested,
                    budget_bytes: capacity,
                });
                cfg.comm = None;
            }
            Err(VgpuError::OutOfMemory { requested, capacity, .. })
                if prim == Primitive::Bfs && !one_hop =>
            {
                notes.push(Downgrade {
                    device: None,
                    kind: "duplication",
                    from: "duplicate-all",
                    to: "duplicate-1-hop",
                    estimated_bytes: requested,
                    budget_bytes: capacity,
                });
                one_hop = true;
            }
            Err(e) => return Err(e),
        }
    }
}

/// How a multi-source campaign is executed. Each mode names the body it
/// runs, so the primitive follows from it: BC has one body, and no mode
/// batches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiSourceMode {
    /// One `Bfs` enact per source on a *single* runner: the graph is
    /// partitioned and made resident once, then every source reuses that
    /// residency — the fix for the old shape where each source paid a fresh
    /// partition.
    RepeatedBfs,
    /// The batched bitfield engine `MsBfs`: all sources ride one enact, one
    /// `u64` lane per source.
    BatchedBfs,
    /// One direction-optimizing `Bc` enact per source on a single runner.
    RepeatedBc,
}

/// Run a multi-source campaign over `sources`, partitioning the graph
/// exactly once. The repeated modes absorb the per-source reports into one
/// aggregate ([`EnactReport::absorb`]); `BatchedBfs` enacts the bitfield
/// engine once. The two BFS modes answer the same question, so their
/// per-source results agree bit-for-bit — the aggregate *costs* are what
/// differ.
pub fn run_multi_source<O: Id>(
    g: &Csr<u32, O>,
    system: SimSystem,
    partitioner: &impl Partitioner,
    config: EnactConfig,
    sources: &[usize],
    mode: MultiSourceMode,
) -> Result<RunOutcome> {
    assert!(!sources.is_empty(), "multi-source run needs at least one source");
    let mut ingest = IngestWall::default();
    let (part, ing) = (partitioner, &mut ingest);
    let report = match mode {
        MultiSourceMode::RepeatedBfs => {
            bind_partitioned(g, part, system, config, Bfs::default(), ing, |r| {
                absorb_enacts(r, sources)
            })
        }
        MultiSourceMode::BatchedBfs => {
            let batch = MsBfs::new(sources.to_vec());
            bind_partitioned(g, part, system, config, batch, ing, |r| r.enact(None))
        }
        MultiSourceMode::RepeatedBc => {
            bind_partitioned(g, part, system, config, Bc, ing, |r| absorb_enacts(r, sources))
        }
    }??;
    // A repeated aggregate still credits one |E|: the BFS modes answer the
    // same batch of traversals, so GTEPS comparisons stay apples-to-apples.
    Ok(RunOutcome { report, edges: g.n_edges(), ingest })
}

/// Enact every source on the already-bound runner, folding the reports.
fn absorb_enacts<V: Id, O: Id, P: MgpuProblem<V, O>>(
    runner: &mut Runner<'_, V, O, P>,
    sources: &[usize],
) -> Result<EnactReport> {
    let mut agg: Option<EnactReport> = None;
    for &s in sources {
        let r = runner.enact(Some(V::from_usize(s)))?;
        match &mut agg {
            None => agg = Some(r),
            Some(a) => a.absorb(&r),
        }
    }
    Ok(agg.expect("at least one source"))
}

/// Convenience: run on `n` homogeneous devices of `profile`.
pub fn run_on_k<O: Id>(
    prim: Primitive,
    g: &Csr<u32, O>,
    n: usize,
    profile: vgpu::HardwareProfile,
    partitioner: &impl Partitioner,
) -> Result<RunOutcome> {
    run_primitive(prim, g, SimSystem::homogeneous(n, profile), partitioner, EnactConfig::default())
}

/// The divisor a dataset shrunk by `2^shift` takes off every fixed overhead:
/// `2^shift`, the exponent saturating at 40.
pub fn overhead_scale(shift: u32) -> f64 {
    (1u64 << shift.min(40)) as f64
}

/// Build an `n`-device system whose fixed overheads are shrunk by
/// `2^shift`, matching a dataset that was shrunk by `2^shift` — the
/// dimensional scaling that preserves the paper's work-to-overhead ratios
/// (see `HardwareProfile::with_overhead_scale`).
pub fn scaled_system(n: usize, profile: vgpu::HardwareProfile, shift: u32) -> SimSystem {
    let s = overhead_scale(shift);
    let profile = profile.with_overhead_scale(s);
    let ic = vgpu::Interconnect::pcie3(n, 4).with_latency_scale(s);
    SimSystem::new(vec![profile; n], ic).expect("sizes match")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::governor::estimate_bind;
    use mgpu_core::{AllocScheme, RecoveryPolicy};
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::{gnm, grid2d, preferential_attachment};
    use mgpu_graph::GraphBuilder;
    use mgpu_partition::{ChunkedPartitioner, Duplication, RandomPartitioner};
    use vgpu::{FaultPlan, HardwareProfile};

    /// The admission floor estimate `Runner::new` compares against the hard
    /// watermark for BFS, maximized over devices.
    fn bfs_floor_estimate(dist: &DistGraph<u32, u64>, comm: CommStrategy) -> u64 {
        let floor = |sub| estimate_bind(&Bfs::default(), sub, AllocScheme::JustEnough, comm);
        dist.parts.iter().map(|sub| floor(sub).total()).max().unwrap()
    }

    #[test]
    fn every_primitive_runs_through_the_dispatcher() {
        let mut coo = preferential_attachment(200, 6, 1);
        add_paper_weights(&mut coo, 2);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for prim in Primitive::all() {
            let out = run_on_k(prim, &g, 2, HardwareProfile::k40(), &RandomPartitioner::default())
                .unwrap_or_else(|e| panic!("{}: {e}", prim.name()));
            assert!(out.report.sim_time_us > 0.0, "{}", prim.name());
            assert!(out.gteps() > 0.0, "{}", prim.name());
        }
    }

    #[test]
    fn admission_refusal_downgrades_bfs_duplication_to_one_hop() {
        // A grid cut into contiguous strips: duplicate-all replicates the
        // whole vertex space on every device, while duplicate-1-hop keeps a
        // strip plus two boundary rows — a large, certain memory gap.
        let g: Csr<u32, u64> = GraphBuilder::undirected(&grid2d(32, 32, 1.0, 1));
        let n = 4;
        let all = DistGraph::<u32, u64>::partition(&g, &ChunkedPartitioner, n, Duplication::All);
        let hop = DistGraph::<u32, u64>::partition(&g, &ChunkedPartitioner, n, Duplication::OneHop);
        let all_floor = bfs_floor_estimate(&all, CommStrategy::Selective);
        let hop_floor = bfs_floor_estimate(&hop, CommStrategy::Selective);
        assert!(hop_floor < all_floor, "the test graph must make 1-hop strictly cheaper");
        // Between the two floors: duplicate-all is refused even at the
        // JustEnough floor, duplicate-1-hop is admitted.
        let cap = (hop_floor + all_floor) / 2;
        let system = SimSystem::homogeneous(n, HardwareProfile::k40().with_capacity(cap));
        let config = EnactConfig::default();
        let out = run_primitive(Primitive::Bfs, &g, system, &ChunkedPartitioner, config)
            .expect("the duplication downgrade must rescue the run");
        let gov = &out.report.governor;
        let dup = gov
            .downgrades
            .iter()
            .find(|d| d.kind == "duplication")
            .expect("the re-partition must be recorded in the governor log");
        assert_eq!(dup.device, None, "duplication is a global decision");
        assert_eq!((dup.from, dup.to), ("duplicate-all", "duplicate-1-hop"));
        assert!(out.report.iterations > 0);
        // The uncapped run is never downgraded.
        let uncapped = run_primitive(
            Primitive::Bfs,
            &g,
            SimSystem::homogeneous(n, HardwareProfile::k40()),
            &ChunkedPartitioner,
            config,
        )
        .unwrap();
        assert!(uncapped.report.governor.downgrades.is_empty());
        assert_eq!(uncapped.report.iterations, out.report.iterations);
    }

    #[test]
    fn admission_refusal_drops_a_broadcast_override_before_failing() {
        let g = GraphBuilder::undirected(&gnm(4000, 8000, 7));
        let n = 4;
        let dist = DistGraph::<u32, u64>::partition(
            &g,
            &RandomPartitioner { seed: 11 },
            n,
            Duplication::All,
        );
        let sel_floor = bfs_floor_estimate(&dist, CommStrategy::Selective);
        let bro_floor = bfs_floor_estimate(&dist, CommStrategy::Broadcast);
        assert!(sel_floor < bro_floor, "broadcast staging must cost more than selective");
        // Between the floors: a broadcast override is refused at admission,
        // the primitive's own selective preference is admitted.
        let cap = (sel_floor + bro_floor) / 2;
        let system = SimSystem::homogeneous(n, HardwareProfile::k40().with_capacity(cap));
        let config = EnactConfig { comm: Some(CommStrategy::Broadcast), ..EnactConfig::default() };
        let out =
            run_primitive(Primitive::Bfs, &g, system, &RandomPartitioner { seed: 11 }, config)
                .expect("dropping the comm override must rescue the run");
        let gov = &out.report.governor;
        let comm = gov
            .downgrades
            .iter()
            .find(|d| d.kind == "comm")
            .expect("the dropped override must be recorded in the governor log");
        assert_eq!(comm.device, None, "the comm strategy is a global decision");
        assert_eq!((comm.from, comm.to), ("broadcast", "selective"));
        // Degraded ≠ different: the selective run does the same supersteps as
        // an unconstrained selective run.
        let selective = run_primitive(
            Primitive::Bfs,
            &g,
            SimSystem::homogeneous(n, HardwareProfile::k40()),
            &RandomPartitioner { seed: 11 },
            EnactConfig::default(),
        )
        .unwrap();
        assert_eq!(out.report.iterations, selective.report.iterations);
    }

    /// An OOM the enact returns is no admission refusal: the global chain
    /// must not answer it with a re-partition (which would then succeed and
    /// log a `duplication` downgrade whose estimate is the injected error's).
    #[test]
    fn an_enact_time_oom_reaches_the_caller_typed() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(200, 6, 1));
        let mut system = SimSystem::homogeneous(2, HardwareProfile::k40());
        system.attach_fault_plan(&FaultPlan::parse("oom:0@3").unwrap());
        let out = run_primitive(
            Primitive::Bfs,
            &g,
            system,
            &RandomPartitioner::default(),
            EnactConfig::default(),
        );
        assert!(
            matches!(out, Err(VgpuError::OutOfMemory { .. })),
            "want the injected OOM, got {:?}",
            out.map(|o| o.report.governor.downgrades)
        );
    }

    #[test]
    fn narrow_offsets_run_faster_and_match_wide_results() {
        let coo = preferential_attachment(200, 6, 1);
        let part = RandomPartitioner::default();
        let narrow: Csr<u32, u32> = GraphBuilder::undirected(&coo);
        let narrow = run_on_k(Primitive::Bfs, &narrow, 2, HardwareProfile::k40(), &part).unwrap();
        let wide: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let wide = run_on_k(Primitive::Bfs, &wide, 2, HardwareProfile::k40(), &part).unwrap();
        assert_eq!(narrow.report.iterations, wide.report.iterations);
        assert!(
            narrow.ms() < wide.ms(),
            "the cost model must credit narrow offsets with less index bandwidth \
             (narrow {} ms vs wide {} ms)",
            narrow.ms(),
            wide.ms()
        );
    }

    #[test]
    fn multi_source_batched_beats_repeated_on_supersteps_and_time() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 480, 3));
        let sources = MsBfs::spread_sources(16, 120);
        let part = RandomPartitioner::default();
        let run = |mode| {
            run_multi_source(
                &g,
                SimSystem::homogeneous(2, HardwareProfile::k40()),
                &part,
                EnactConfig::default(),
                &sources,
                mode,
            )
            .unwrap()
        };
        let rep = run(MultiSourceMode::RepeatedBfs);
        let bat = run(MultiSourceMode::BatchedBfs);
        assert!(
            bat.report.iterations * 4 <= rep.report.iterations,
            "the batch must finish in the deepest traversal's supersteps \
             (batched {} vs repeated {})",
            bat.report.iterations,
            rep.report.iterations
        );
        assert!(
            bat.ms() < rep.ms(),
            "one batched sweep must be simulated-cheaper than 16 sequential enacts \
             (batched {} ms vs repeated {} ms)",
            bat.ms(),
            rep.ms()
        );
        assert_eq!(
            rep.report.totals.supersteps as usize, rep.report.iterations,
            "absorb must accumulate sequential supersteps, not max them"
        );
    }

    /// BC's campaign binds `Bc`, which refuses a partition without the CSC,
    /// so the run itself shows the CSC was built. Its aggregate is the sum
    /// of the single-source enacts on the same partition.
    #[test]
    fn multi_source_bc_builds_the_csc_and_sums_the_single_source_enacts() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 480, 3));
        let sources = [0, 17, 42, 99];
        let part = RandomPartitioner::default();
        let system = || SimSystem::homogeneous(2, HardwareProfile::k40());
        let config = EnactConfig::default();
        let out =
            run_multi_source(&g, system(), &part, config, &sources, MultiSourceMode::RepeatedBc)
                .unwrap();
        assert!(out.ingest.csc_us > 0.0, "the CSC build is timed");
        let mut dist = DistGraph::partition(&g, &part, 2, Duplication::All);
        dist.build_cscs();
        let mut runner = Runner::new(system(), &dist, Bc, config).unwrap();
        let (mut iterations, mut supersteps) = (0, 0);
        for &s in &sources {
            let r = runner.enact(Some(s as u32)).unwrap();
            iterations += r.iterations;
            supersteps += r.totals.supersteps;
        }
        assert_eq!(out.report.iterations, iterations);
        assert_eq!(out.report.totals.supersteps, supersteps);
    }

    /// A campaign whose later enact fails over ends on the survivors: the
    /// aggregate reports their count, and each survivor's slot sums what
    /// that device did in every enact, under its id before and after the
    /// renumbering.
    #[test]
    fn a_bc_campaign_that_fails_over_reports_the_survivors_in_their_slots() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 480, 3));
        let sources = [0, 17, 42, 99];
        let part = RandomPartitioner::default();
        let mut dist = DistGraph::partition(&g, &part, 4, Duplication::All);
        dist.build_cscs();
        let config =
            EnactConfig { recovery: RecoveryPolicy::resilient(), ..EnactConfig::default() };
        let fresh = || SimSystem::homogeneous(4, HardwareProfile::k40());
        // lose device 1 halfway through the second enact
        let first = Runner::new(fresh(), &dist, Bc, config).unwrap().enact(Some(0)).unwrap();
        let launches = first.per_device[1].kernel_launches;
        let system = || {
            let mut system = fresh();
            system.attach_fault_plan(&FaultPlan::new().device_loss(1, launches * 3 / 2));
            system
        };
        let out =
            run_multi_source(&g, system(), &part, config, &sources, MultiSourceMode::RepeatedBc)
                .unwrap();
        let mut runner = Runner::new(system(), &dist, Bc, config).unwrap();
        let reports: Vec<EnactReport> =
            sources.iter().map(|&s| runner.enact(Some(s as u32)).unwrap()).collect();
        let failed_over: Vec<u64> = reports.iter().map(|r| r.recovery.failovers).collect();
        assert_eq!(failed_over[0], 0, "the loss must come after the first enact");
        assert_eq!(failed_over.iter().sum::<u64>(), 1);
        // what each original device did, following it through the renumbering
        let (mut slots, mut items) = ((0..4).collect::<Vec<usize>>(), [0u64; 4]);
        for r in &reports {
            let lost = &r.recovery.lost_devices;
            let kept = slots.iter().enumerate().filter(|(entry, _)| !lost.contains(entry));
            slots = kept.map(|(_, &device)| device).collect();
            for (&device, c) in slots.iter().zip(&r.per_device) {
                items[device] += c.w_items;
            }
        }
        let r = &out.report;
        assert_eq!((r.n_devices, r.recovery.failovers), (3, 1));
        assert_eq!((r.mem_per_device.len(), r.host_sync.per_device.len()), (3, 3));
        let got: Vec<u64> = r.per_device.iter().map(|c| c.w_items).collect();
        let want: Vec<u64> = slots.iter().map(|&device| items[device]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pick_source_finds_the_hub() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(100, 4, 5));
        let s = pick_source(&g);
        let smax = (0..100u32).map(|v| g.degree(v)).max().unwrap();
        assert_eq!(g.degree(s), smax);
    }
}
