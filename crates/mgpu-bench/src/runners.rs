//! Uniform primitive dispatch for the experiment binaries.

use std::sync::Arc;
use std::time::Instant;

use mgpu_core::{CommStrategy, Downgrade, EnactConfig, EnactReport, ResilientRunner, Runner};
use mgpu_graph::{Csr, Id};
use mgpu_partition::{DistGraph, Duplication, Partitioner};
use mgpu_primitives::{Bc, BcBatch, Bfs, Cc, Dobfs, MsBfs, Pagerank, Sssp};
use mgpu_core::problem::MgpuProblem;
use vgpu::{FaultPlan, Result, SimSystem, VgpuError};

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

    /// The vertex-duplication strategy the primitive requests (Table I).
    pub fn duplication(self) -> Duplication {
        Duplication::All
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

/// Host wall of the ingest stages a run pays between the CSR and the bind
/// (the CSR build itself is timed by whoever holds the edge list).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestWall {
    /// `Partitioner::assign` + `DistGraph::build` in µs, summed over the
    /// re-partitions of a governed retry chain. The resilient executor
    /// builds its host graphs inside each attempt, so there this is the
    /// `assign` alone.
    pub partition_us: f64,
    /// `DistGraph::build_cscs` in µs; 0 for primitives that never pull.
    pub csc_us: f64,
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

/// Bind + enact one attempt, recording any global downgrade `notes` the
/// caller already took so they show up in the report's governor log.
fn dispatch<O: Id>(
    prim: Primitive,
    system: SimSystem,
    dist: &DistGraph<u32, O>,
    config: EnactConfig,
    src: Option<u32>,
    notes: &[Downgrade],
    one_hop: bool,
) -> Result<EnactReport> {
    with_problem!(prim, one_hop, |p| {
        let mut r = Runner::new(system, dist, p, config)?;
        for d in notes {
            r.note_downgrade(d.clone());
        }
        r.enact(src)
    })
}

/// Does `prim`'s own communication preference allow dropping a broadcast
/// override? (CC and DOBFS *require* broadcast wire ids.)
fn prefers_selective(prim: Primitive) -> bool {
    matches!(prim, Primitive::Bfs | Primitive::Sssp | Primitive::Bc | Primitive::Pr)
}

/// Partition `g` for `prim` and run it once on `system`.
///
/// Under an enabled [`mgpu_core::PressurePolicy`] this layer owns the
/// *global* links of the admission downgrade chain, which need a re-bind the
/// enactor cannot do itself: an admission `OutOfMemory` first drops a
/// `broadcast` comm override back to the primitive's preferred `selective`
/// (wire formats permitting), then re-partitions `duplicate-all →
/// duplicate-1-hop` (BFS supports both). Each step is recorded in the
/// report's governor log; only when the chain is exhausted does the typed
/// OOM reach the caller.
pub fn run_primitive<O: Id>(
    prim: Primitive,
    g: &Csr<u32, O>,
    system: SimSystem,
    partitioner: &impl Partitioner,
    config: EnactConfig,
) -> Result<RunOutcome> {
    let n = system.n_devices();
    let src = prim.needs_source().then(|| pick_source(g));
    // A governed retry consumes the system, so capture what a rebuild needs
    // up front (profiles, fabric, fault injector).
    let rebuild = config.pressure.enabled.then(|| {
        (
            system.devices.iter().map(|d| d.profile().clone()).collect::<Vec<_>>(),
            (*system.interconnect).clone(),
            system.fault_injector(),
        )
    });
    let mut system = Some(system);
    let mut cfg = config;
    let mut dup = prim.duplication();
    let mut notes: Vec<Downgrade> = Vec::new();
    let mut ingest = IngestWall::default();
    loop {
        let sys = match system.take() {
            Some(s) => s,
            None => {
                let (profiles, ic, inj) = rebuild.as_ref().expect("governed retries only");
                let mut s = SimSystem::new(profiles.clone(), ic.clone())?;
                if let Some(inj) = inj {
                    for d in &mut s.devices {
                        d.set_fault_injector(Some(Arc::clone(inj)));
                    }
                }
                s
            }
        };
        let mut dist =
            timed(&mut ingest.partition_us, || DistGraph::partition(g, partitioner, n, dup));
        if prim == Primitive::Dobfs {
            timed(&mut ingest.csc_us, || dist.build_cscs());
        }
        let one_hop = dup == Duplication::OneHop;
        match dispatch(prim, sys, &dist, cfg, src, &notes, one_hop) {
            Ok(report) => return Ok(RunOutcome { report, edges: g.n_edges(), ingest }),
            Err(VgpuError::OutOfMemory { requested, capacity, .. })
                if cfg.pressure.enabled
                    && cfg.comm == Some(CommStrategy::Broadcast)
                    && prefers_selective(prim) =>
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
                if cfg.pressure.enabled && prim == Primitive::Bfs && dup == Duplication::All =>
            {
                notes.push(Downgrade {
                    device: None,
                    kind: "duplication",
                    from: "duplicate-all",
                    to: "duplicate-1-hop",
                    estimated_bytes: requested,
                    budget_bytes: capacity,
                });
                dup = Duplication::OneHop;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Partition `g` for `prim` and run it under a fault plan through the
/// self-healing [`ResilientRunner`] — the path `mgpu run --fault-plan
/// --recovery` takes. The enact retries transient faults and degrades to
/// the surviving devices on a permanent loss, per `config.recovery`.
pub fn run_primitive_resilient(
    prim: Primitive,
    g: &Csr<u32, u64>,
    n: usize,
    profile: vgpu::HardwareProfile,
    partitioner: &impl Partitioner,
    config: EnactConfig,
    plan: FaultPlan,
) -> Result<RunOutcome> {
    let mut ingest = IngestWall::default();
    let owner = timed(&mut ingest.partition_us, || partitioner.assign(g, n));
    let src = prim.needs_source().then(|| pick_source(g));
    let report = with_problem!(prim, false, |p| {
        let mut r = ResilientRunner::homogeneous(g, p, n, profile, config)
            .with_owner(owner)
            .with_fault_plan(plan);
        if prim == Primitive::Dobfs {
            r = r.with_csc();
        }
        r.enact(src)?
    });
    Ok(RunOutcome { report, edges: g.n_edges(), ingest })
}

/// How a multi-source campaign is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiSourceMode {
    /// One enact per source on a *single* runner: the graph is partitioned
    /// and made resident once, then every source reuses that residency —
    /// the fix for the old shape where each source paid a fresh partition.
    Repeated,
    /// The batched bitfield engine (`MsBfs` / `BcBatch`): all sources ride
    /// one enact, one `u64` lane per source.
    Batched,
}

/// Run a source-parallel primitive (BFS or BC) over `sources`, partitioning
/// the graph exactly once whichever mode is chosen. `Repeated` absorbs the
/// per-source reports into one aggregate ([`EnactReport::absorb`]);
/// `Batched` enacts the bitfield-packed engine once. The two modes answer
/// the same question, so their per-source results agree bit-for-bit — the
/// aggregate *costs* are what differ.
pub fn run_multi_source<O: Id>(
    prim: Primitive,
    g: &Csr<u32, O>,
    system: SimSystem,
    partitioner: &impl Partitioner,
    config: EnactConfig,
    sources: &[usize],
    mode: MultiSourceMode,
) -> Result<RunOutcome> {
    assert!(!sources.is_empty(), "multi-source run needs at least one source");
    assert!(
        matches!(prim, Primitive::Bfs | Primitive::Bc),
        "multi-source dispatch covers the source-parallel primitives (BFS, BC), not {}",
        prim.name()
    );
    let n = system.n_devices();
    let mut ingest = IngestWall::default();
    let dist = timed(&mut ingest.partition_us, || {
        DistGraph::partition(g, partitioner, n, prim.duplication())
    });
    let report = match (mode, prim) {
        (MultiSourceMode::Repeated, Primitive::Bfs) => {
            let mut runner = Runner::new(system, &dist, Bfs::default(), config)?;
            absorb_enacts(&mut runner, sources)?
        }
        (MultiSourceMode::Repeated, Primitive::Bc) => {
            let mut runner = Runner::new(system, &dist, Bc, config)?;
            absorb_enacts(&mut runner, sources)?
        }
        (MultiSourceMode::Batched, Primitive::Bfs) => {
            Runner::new(system, &dist, MsBfs::new(sources.to_vec()), config)?.enact(None)?
        }
        (MultiSourceMode::Batched, Primitive::Bc) => {
            Runner::new(system, &dist, BcBatch::new(sources.to_vec()), config)?.enact(None)?
        }
        _ => unreachable!(),
    };
    // The repeated aggregate still credits one |E|: both modes answer the
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
    use mgpu_core::governor::estimate_footprint;
    use mgpu_core::{AllocScheme, PressurePolicy};
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::{gnm, grid2d, preferential_attachment};
    use mgpu_graph::{CsrAuto, GraphBuilder};
    use mgpu_partition::{ChunkedPartitioner, RandomPartitioner};
    use vgpu::HardwareProfile;

    /// The admission floor estimate `Runner::new` compares against the hard
    /// watermark for BFS (u32 ids, u32 messages, 4 state bytes/vertex),
    /// maximized over devices.
    fn bfs_floor_estimate(dist: &DistGraph<u32, u64>, comm: CommStrategy) -> u64 {
        dist.parts
            .iter()
            .map(|sub| {
                estimate_footprint(
                    AllocScheme::JustEnough,
                    comm,
                    dist.n_parts,
                    sub.n_vertices(),
                    sub.n_edges(),
                    sub.topology_bytes(),
                    4,
                    4,
                    4,
                )
                .total()
            })
            .max()
            .unwrap()
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
        let config = EnactConfig { pressure: PressurePolicy::governed(), ..EnactConfig::default() };
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
        let config = EnactConfig {
            comm: Some(CommStrategy::Broadcast),
            pressure: PressurePolicy::governed(),
            ..EnactConfig::default()
        };
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

    #[test]
    fn auto_width_runs_narrow_and_matches_wide_results() {
        let coo = preferential_attachment(200, 6, 1);
        let auto = GraphBuilder::undirected_auto(&coo);
        assert_eq!(auto.label(), "u32", "a 200-vertex graph fits narrow offsets");
        let part = RandomPartitioner::default();
        let CsrAuto::Narrow(narrow) = &auto else { panic!("narrow offsets expected") };
        let narrow = run_on_k(Primitive::Bfs, narrow, 2, HardwareProfile::k40(), &part).unwrap();
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
                Primitive::Bfs,
                &g,
                SimSystem::homogeneous(2, HardwareProfile::k40()),
                &part,
                EnactConfig::default(),
                &sources,
                mode,
            )
            .unwrap()
        };
        let rep = run(MultiSourceMode::Repeated);
        let bat = run(MultiSourceMode::Batched);
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

    #[test]
    fn pick_source_finds_the_hub() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(100, 4, 5));
        let s = pick_source(&g);
        let smax = (0..100u32).map(|v| g.degree(v)).max().unwrap();
        assert_eq!(g.degree(s), smax);
    }
}
