//! The multi-GPU enactor: one dedicated CPU thread per device, BSP
//! supersteps with framework-managed communication (§III-B, Fig. 1).
//!
//! [`Runner`] is the one engine: the bind ([`Runner::new`]), the attempt
//! loop of the whole [`RecoveryPolicy`] ([`Runner::enact`]), the enact
//! scaffold (`Runner::launch`: clock reset, tracing, mailbox, one thread
//! per device, recovery log, root-cause selection), the report assembly, and
//! the superstep loop below, written as methods of the per-device context
//! `DeviceRun` ([`crate::executor`]). Per iteration, each device thread:
//!
//! 1. runs the unmodified single-GPU `iteration` on its local input
//!    frontier (compute stream);
//! 2. splits the output frontier into local and remote sub-frontiers,
//!    packages the remote ones with the programmer's associated data, and
//!    pushes each package to its peer (communication stream — the transfer
//!    waits on a compute-stream event, so computation and communication
//!    overlap exactly as with `cudaStreamWaitEvent`);
//! 3. rendezvous; drains its inbox, waits for each package's simulated
//!    arrival, and runs the combine kernel (`Expand_Incoming`), assembling
//!    the next input frontier from the local sub-frontier plus combined
//!    received vertices;
//! 4. ends the superstep: clocks are max-reduced across devices (BSP global
//!    sync), the per-iteration overhead `l` is charged, and convergence is
//!    evaluated (all devices locally done, a primitive-specific global
//!    predicate, or the iteration cap).
//!
//! Steps 1–3 are `DeviceRun::direct_superstep`, or
//! `DeviceRun::butterfly_superstep` when a broadcast superstep of a
//! monotone primitive is staged through the dissemination exchange; step 4
//! and the loop are `DeviceRun::supersteps`. Only what varies per
//! superstep is passed between them (`input`, `iter`, the strategy, the
//! `SyncPoint`); the rendezvous schedule — `sync`, the butterfly's block
//! groups and its stash of early arrivals — is BSP-only and never enters
//! the context.
//!
//! Every piece of per-device work runs through `DeviceRun::attempt`: a
//! device that fails (out of memory, an injected fault, a panic in problem
//! code) keeps participating in rendezvous with its work skipped, so no
//! peer deadlocks; its failure travels through the superstep reduction
//! (`Contribution::aborting` → `GlobalReduce::abort_count`), so every device
//! makes the identical exit decision at the identical superstep and the
//! enact call returns the deterministic root-cause error. A thread that
//! cannot keep attending — it unwinds outside `attempt`, or it lost the
//! strategy that fixes the superstep's rendezvous schedule — poisons the
//! `SyncPoint` instead, which releases its peers with `abort_count ≥ 1` at
//! whatever rendezvous they are in.

use std::borrow::Cow;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication};
use vgpu::memory::Reservation;
use vgpu::sync::{Contribution, Delivery};
use vgpu::{
    harvest_device_thread, HostLayer, Interconnect, KernelKind, Mailbox, Result, SimSystem,
    SyncPoint, TraceEvent, TraceKind, VgpuError, COMM_STREAM, COMPUTE_STREAM,
};

use crate::alloc::{AllocScheme, FrontierBufs};
use crate::comm::{
    broadcast_block, broadcast_package_with, canonicalize_ordered, CommStrategy, CommTopology,
    Package, PackagePolicy, SuppressState, WireEncoding,
};
use crate::executor::{DeviceOutcome, DeviceRun, Executor, ExecutorKind};
use crate::governor::{self, Downgrade, GovernorLog};
use crate::problem::MgpuProblem;
use crate::report::{CommReduction, DeviceMemStats, EnactReport, HostSync};
use crate::resilience::{
    guard, CheckpointSink, GlobalCheckpoint, RecoveryCounters, RecoveryLog, RecoveryPolicy,
};

/// Per-enact configuration overrides. The default wire is the measured-best
/// one: `Auto` encoding with monotone suppression over the direct topology.
#[derive(Debug, Clone, Copy)]
pub struct EnactConfig {
    /// Override the primitive's allocation scheme (Fig. 3 sweeps this).
    pub alloc_scheme: Option<AllocScheme>,
    /// Override the primitive's communication strategy.
    pub comm: Option<CommStrategy>,
    /// Host threads for kernel bodies on every device (default: the
    /// `MGPU_KERNEL_THREADS` env var, else the available parallelism shared
    /// among the devices, `vgpu::par::default_kernel_threads`). Purely a
    /// wall-clock knob — simulated time and BSP counters are identical at
    /// every value (see `vgpu::par`).
    pub kernel_threads: Option<usize>,
    /// Recovery policy (retries, checkpoints, straggler timeout). The
    /// default is fully off and adds zero simulated-time overhead.
    pub recovery: RecoveryPolicy,
    /// Broadcast routing topology. The default `Direct` is the paper's
    /// n×(n−1) fan-out; `Butterfly` stages broadcast supersteps of monotone
    /// primitives through a ⌈log₂ n⌉-stage dissemination exchange, trading
    /// `H·g` for `S·l`.
    pub comm_topology: CommTopology,
    /// Wire-encoding policy for packages; every package is charged the
    /// length of its encoded bytes. The default `Auto` picks the smallest
    /// encoding per package.
    pub wire_encoding: WireEncoding,
    /// Monotone send suppression (only effective when the primitive
    /// declares `monotone()`): provably dominated messages are dropped
    /// before packaging. On by default; forced `List` with this off is the
    /// paper's `(id, label)` wire, the arm reductions are measured against.
    pub suppression: bool,
    /// Record a structured [`crate::trace::Trace`] of the run (every kernel,
    /// send/receive, barrier, retry, spill, collective stage and checkpoint
    /// as a typed span) into `EnactReport::trace`. Off by default and free
    /// when off: no allocation and no clock perturbation — `same_simulation`
    /// holds between traced and untraced runs.
    pub tracing: bool,
}

impl Default for EnactConfig {
    fn default() -> Self {
        EnactConfig {
            alloc_scheme: None,
            comm: None,
            kernel_threads: None,
            recovery: RecoveryPolicy::default(),
            comm_topology: CommTopology::Direct,
            wire_encoding: WireEncoding::Auto,
            suppression: true,
            tracing: false,
        }
    }
}

/// One device's share of a bound problem.
pub(crate) struct PerGpu<V: Id, S> {
    pub(crate) state: S,
    pub(crate) bufs: FrontierBufs<V>,
    /// Keeps the subgraph topology charged against the device pool for the
    /// runner's lifetime.
    _topology: Reservation,
}

/// What [`Runner::launch`] hands back to the enact that called it.
pub(crate) struct Launched<T> {
    /// Every device's result in device order, or the root-cause error.
    pub(crate) outcome: Result<Vec<T>>,
    /// The attempt's recovery events, without the checkpoint fields (the
    /// caller owns the sink and the resume point).
    pub(crate) log: RecoveryLog,
    pub(crate) wall_time_us: f64,
}

/// A primitive bound to a partitioned graph on a system: initialize once,
/// enact many times (the paper's `Init` / `Reset`+`Enact` split).
pub struct Runner<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    system: SimSystem,
    /// The caller's partition, or the re-homed one a failover built.
    dist: Cow<'g, DistGraph<V, O>>,
    problem: P,
    config: EnactConfig,
    per_gpu: Vec<PerGpu<V, P::State>>,
    /// Admission-control decisions taken at the latest bind; folded into
    /// every enact's report, followed by `noted`.
    admission: GovernorLog,
    /// Downgrades a higher layer recorded ([`Self::note_downgrade`]); a
    /// rebind keeps them.
    noted: Vec<Downgrade>,
}

/// What a bind yields: each device's share and the admission log.
type Bound<V, S> = (Vec<PerGpu<V, S>>, GovernorLog);

/// Bind `problem` to `dist` on `system`: what [`Runner::new`] documents.
fn bind<V: Id, O: Id, P: MgpuProblem<V, O>>(
    system: &mut SimSystem,
    dist: &DistGraph<V, O>,
    problem: &P,
    config: &EnactConfig,
) -> Result<Bound<V, P::State>> {
    if system.n_devices() != dist.n_parts {
        return Err(VgpuError::BadDevice { device: dist.n_parts, have: system.n_devices() });
    }
    let mismatch = |needs| VgpuError::PartitionMismatch { primitive: problem.name(), needs };
    if dist.duplication != problem.duplication() {
        return Err(mismatch(match problem.duplication() {
            Duplication::All => "a duplicate-all partition",
            Duplication::OneHop => "a duplicate-1-hop partition",
        }));
    }
    let reads = problem.reads();
    if reads.reverse && dist.parts.iter().any(|sub| sub.csc.is_none()) {
        return Err(mismatch("the reverse adjacency (DistGraph::build_cscs)"));
    }
    let base_scheme = config.alloc_scheme.unwrap_or_else(|| problem.alloc_scheme());
    let comm = config.comm.unwrap_or_else(|| problem.comm());
    let host_link = system.interconnect.host_link();
    let mut admission = GovernorLog::default();
    // Id-width bandwidth factor (Table V): baseline is 32-bit vertices
    // with 32-bit offsets; wider ids read proportionally more per edge.
    let width_factor = (V::BYTES as f64 + O::BYTES as f64 / 4.0) / 5.0;
    let threads =
        config.kernel_threads.unwrap_or_else(|| vgpu::par::default_kernel_threads(dist.n_parts));
    let mut per_gpu = Vec::with_capacity(dist.n_parts);
    for (dev, sub) in system.devices.iter_mut().zip(dist.parts.iter()) {
        dev.set_width_factor(width_factor);
        dev.set_kernel_threads(threads);
        // ---- admission control: walk the scheme down the downgrade
        // chain until the pre-flight estimate fits under the soft
        // watermark; a floor scheme past the hard watermark is refused
        // with a typed OOM before anything is allocated.
        let mut scheme = base_scheme;
        let capacity = dev.pool().capacity();
        let budget = governor::soft_budget(capacity);
        let estimate = |scheme| governor::estimate_bind(problem, sub, scheme, comm).total();
        let mut est = estimate(scheme);
        while est > budget {
            match governor::downgrade_scheme(scheme) {
                Some(next) => {
                    admission.downgrades.push(Downgrade {
                        device: Some(dev.id()),
                        kind: "alloc-scheme",
                        from: scheme.label(),
                        to: next.label(),
                        estimated_bytes: est,
                        budget_bytes: budget,
                    });
                    scheme = next;
                    est = estimate(scheme);
                }
                None => {
                    if est > capacity {
                        return Err(VgpuError::OutOfMemory {
                            device: dev.id(),
                            requested: est,
                            live: dev.pool().live(),
                            capacity,
                        });
                    }
                    break; // between watermarks at the floor: admit
                }
            }
        }
        let bytes = sub.read_bytes(reads);
        let topology = dev.pool().reserve_external(bytes)?;
        // charge the H2D copy of the graph at memory bandwidth
        let cost = dev.profile().local_copy_us(bytes);
        dev.charge(COMPUTE_STREAM, cost, 0.0)?;
        let state = problem.init(dev, sub)?;
        let bufs = FrontierBufs::new(dev, scheme, sub.n_vertices(), sub.n_edges())?
            .with_host_link(host_link);
        per_gpu.push(PerGpu { state, bufs, _topology: topology });
    }
    Ok((per_gpu, admission))
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Runner<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system` (a restart rebinds alike):
    /// reserves in device memory what the problem reads of each subgraph
    /// ([`MgpuProblem::reads`]) and charges its H2D copy, sets the id-width
    /// factor and kernel threads, walks admission control, initializes
    /// per-GPU state and allocates the scheme-managed frontier buffers. A
    /// system with a device count other than `dist.n_parts` is
    /// [`VgpuError::BadDevice`]; a partition built under another duplication
    /// than the problem's, or without a CSC it reads, is
    /// [`VgpuError::PartitionMismatch`].
    pub fn new(
        mut system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: EnactConfig,
    ) -> Result<Self> {
        let (per_gpu, admission) = bind(&mut system, dist, &problem, &config)?;
        let dist = Cow::Borrowed(dist);
        Ok(Runner { system, dist, problem, config, per_gpu, admission, noted: Vec::new() })
    }

    /// Record a downgrade decision a higher layer took before (re)binding —
    /// e.g. a driver that re-partitioned `duplicate-all → duplicate-1-hop`
    /// or dropped a broadcast override after an admission refusal. It shows
    /// up in every subsequent report's governor log.
    pub fn note_downgrade(&mut self, d: Downgrade) {
        self.noted.push(d);
    }

    /// The allocation scheme in force.
    pub fn scheme(&self) -> AllocScheme {
        self.per_gpu[0].bufs.scheme()
    }

    /// Access the underlying system (for memory / counter inspection).
    pub fn system(&self) -> &SimSystem {
        &self.system
    }

    /// Run one traversal from `src` (a *global* vertex id; `None` for
    /// primitives without a source, e.g. PR and CC). Device clocks and
    /// counters are reset so each enact reports an independent measurement.
    ///
    /// Per the [`RecoveryPolicy`] (the default answers no failure), a
    /// transient error within `max_retries` restarts from the newest
    /// complete checkpoint, and under `degrade` a lost device's (or evicted
    /// straggler's) vertices are first re-homed onto the survivors, which
    /// the runner keeps. Each restart rebinds on [`SimSystem::survivors`];
    /// failed attempts add their makespans as [`RecoveryLog::lost_time_us`].
    pub fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        let policy = self.config.recovery;
        let evicts = policy.straggler_timeout_us.is_finite();
        let (mut log, mut resume, mut retries) = (RecoveryLog::default(), None, policy.max_retries);
        // Entry ids of the live devices by runtime id, and the ownership a
        // failover re-homes from.
        let mut alive: Vec<usize> = (0..self.dist.n_parts).collect();
        let owner = Arc::clone(&self.dist.partition_table);
        loop {
            let sink = CheckpointSink::new(alive.len(), policy.checkpoint_interval);
            let (outcome, attempt) = self.enact_resilient(src, resume.as_ref(), &sink);
            log.absorb(&attempt);
            let e = match outcome {
                Ok(mut report) => {
                    report.sim_time_us += log.lost_time_us;
                    report.recovery = log;
                    return Ok(report);
                }
                Err(e) => e,
            };
            log.lost_time_us += self.system.makespan_us();
            resume = sink.take_complete().or(resume);
            let degrade = policy.degrade && alive.len() > 1;
            let lost = match e {
                VgpuError::DeviceLost { device } if degrade => Some(device),
                VgpuError::Timeout { device } if degrade && evicts => Some(device),
                ref transient if transient.is_transient() && retries > 0 => {
                    retries -= 1;
                    None
                }
                _ => return Err(e),
            };
            let keep: Vec<usize> = (0..alive.len()).filter(|&r| Some(r) != lost).collect();
            let rehomed = lost.map(|device| {
                log.lost_devices.push(alive.remove(device));
                log.failovers += 1;
                self.rehome(&owner, &alive)
            });
            // a refused bind leaves the runner as it was
            let mut system = self.system.survivors(&keep);
            let dist = rehomed.as_ref().unwrap_or(&self.dist);
            (self.per_gpu, self.admission) = bind(&mut system, dist, &self.problem, &self.config)?;
            self.system = system;
            if let Some(dist) = rehomed {
                self.dist = Cow::Owned(dist);
            }
        }
    }

    /// The partition after a failover: a surviving owner keeps its vertices
    /// (under its runtime id), a lost owner's are dealt round-robin over
    /// the survivors, and the parts are rebuilt from the parent graph.
    fn rehome(&self, owner: &[u32], alive: &[usize]) -> DistGraph<V, O> {
        let n = alive.len();
        let survivor = |o: u32| alive.iter().position(|&a| a == o as usize);
        let table = owner.iter().enumerate().map(|(v, &o)| survivor(o).unwrap_or(v % n) as u32);
        let mut dist =
            DistGraph::build(&self.dist.parent(), table.collect(), n, self.dist.duplication);
        if self.problem.reads().reverse {
            dist.build_cscs();
        }
        dist
    }

    /// One attempt of [`Self::enact`]: optionally resume from a
    /// [`GlobalCheckpoint`] and offer new checkpoints into `sink`. Returns
    /// the attempt's [`RecoveryLog`] alongside the result so the attempt
    /// loop can account for failed attempts too. Public for the tests that
    /// take a checkpoint and resume from it by hand.
    pub fn enact_resilient(
        &mut self,
        src: Option<V>,
        resume: Option<&GlobalCheckpoint<V>>,
        sink: &CheckpointSink<V>,
    ) -> (Result<EnactReport>, RecoveryLog) {
        let sync = SyncPoint::new(self.dist.n_parts);
        // a resumed attempt stamps absolute superstep numbers on its trace
        let first = resume.map_or(0, |ck| ck.iter);
        let launched = self
            .launch(src, first, |run, src_local| run.supersteps(src_local, &sync, sink, resume));
        let log = RecoveryLog {
            checkpoints_taken: sink.taken(),
            resumed_at: resume.map(|ck| ck.iter),
            ..launched.log
        };
        let host_sync = HostSync { per_device: sync.host_stats() };
        let report = launched
            .outcome
            .map(|done| self.report(done, launched.wall_time_us, host_sync, log.clone()));
        (report, log)
    }

    /// A device's per-GPU primitive state: internals such as direction
    /// flags, pull counters or MS-BFS depth rows, not answers. Answers are
    /// read through [`Self::harvest`].
    pub fn state(&self, gpu: usize) -> &P::State {
        &self.per_gpu[gpu].state
    }

    /// The primitive's per-vertex result words in global vertex order (see
    /// [`MgpuProblem::result_word`]).
    pub fn harvest(&self) -> Vec<u64> {
        (0..self.dist.n_global)
            .map(|g| {
                let (gpu, local) = self.dist.locate(V::from_usize(g));
                self.problem.result_word(&self.per_gpu[gpu].state, local)
            })
            .collect()
    }

    /// Run `device_loop` to completion on one dedicated thread per device,
    /// each handed its [`DeviceRun`] and the source if it owns it. Device
    /// clocks and counters are reset first so each enact reports an
    /// independent measurement; `first_superstep` positions the trace cursor
    /// (non-zero when an attempt resumes from a checkpoint).
    pub(crate) fn launch<T: Send>(
        &mut self,
        src: Option<V>,
        first_superstep: usize,
        device_loop: impl Fn(DeviceRun<'_, V, O, P>, Option<V>) -> Result<T> + Sync,
    ) -> Launched<T> {
        self.system.reset_clocks();
        if self.config.tracing {
            // Fresh trace per enact. When tracing is off the timelines are
            // left untouched — a caller may still drive them manually (see
            // `examples/profile_trace.rs`).
            for dev in &mut self.system.devices {
                dev.timeline.enable();
                dev.timeline.clear();
                dev.timeline.set_superstep(first_superstep as u32);
            }
            // Downgrades were decided once at bind time, before any trace
            // existed; replay them as instant markers at t=0 so every
            // governor decision in the report is paired with a trace event.
            for d in self.admission.downgrades.iter().chain(&self.noted) {
                let id = d.device.unwrap_or(0).min(self.system.devices.len() - 1);
                self.system.devices[id].timeline.record(TraceEvent {
                    device: id,
                    kind: TraceKind::Downgrade,
                    name: d.kind,
                    bytes: d.estimated_bytes,
                    ..TraceEvent::default()
                });
            }
        }
        // Each enact reports its own mid-run degradation decisions (the
        // admission log persists — it was decided once, at bind).
        for per in &mut self.per_gpu {
            per.bufs.reset_governor();
        }
        let n = self.dist.n_parts;
        let located = src.map(|g| self.dist.locate(g));
        // Packages travel as `Arc`s: a broadcast to n−1 peers posts n−1
        // pointers to one package, not n−1 deep copies (the wire cost is
        // still charged per peer — the copies that disappear are host-side).
        let mailbox = Mailbox::with_faults(n, self.system.fault_injector());
        let rec = RecoveryCounters::default();
        let fired = |system: &SimSystem| system.fault_injector().map_or(0, |inj| inj.fired());
        let fired_before = fired(&self.system);
        let (problem, config) = (&self.problem, &self.config);
        let policy = config.recovery;
        let monotone = problem.monotone();
        let pkg_policy = PackagePolicy {
            encoding: config.wire_encoding,
            monotone,
            uniform_hint: problem.uniform_broadcast_msgs(),
            order: problem.monotone_order(),
        };
        let interconnect: &Interconnect = &self.system.interconnect;

        let t0 = Instant::now();
        let outcomes: Vec<Result<T>> = std::thread::scope(|scope| {
            let devices = self.system.devices.iter_mut().zip(&mut self.per_gpu);
            let handles: Vec<_> = devices
                .zip(&self.dist.parts)
                .map(|((dev, per), sub)| {
                    let src_local =
                        located.and_then(|(gpu, local)| (gpu == dev.id()).then_some(local));
                    dev.set_retry_policy(policy.max_retries, policy.retry_backoff_us);
                    let (mailbox, rec, device_loop) = (&mailbox, &rec, &device_loop);
                    scope.spawn(move || {
                        // Fresh suppression cache per enact: floors never
                        // survive a traversal (a retried or resumed attempt
                        // starts from scratch, so a send that was lost with
                        // its device can never leave a stale floor behind).
                        let supp = (config.suppression && monotone && n > 1)
                            .then(|| SuppressState::with_order(sub.n_vertices(), pkg_policy.order));
                        let stats = CommReduction::default();
                        let run = DeviceRun {
                            problem,
                            dev,
                            per,
                            sub,
                            interconnect,
                            mailbox,
                            config,
                            rec,
                            pkg_policy,
                            supp,
                            stats,
                            error: None,
                        };
                        device_loop(run, src_local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(gpu, h)| harvest_device_thread(h.join(), gpu))
                .collect()
        });
        let wall_time_us = t0.elapsed().as_secs_f64() * 1e6;

        let kernel_retries: u64 = self.system.devices.iter().map(|d| d.kernel_retries()).sum();
        let transfer_retries = rec.transfer_retries.load(Relaxed);
        let log = RecoveryLog {
            kernel_retries,
            transfer_retries,
            faults_injected: fired(&self.system) - fired_before,
            stragglers_detected: rec.stragglers.load(Relaxed),
            butterfly_fallbacks: rec.butterfly_fallbacks.load(Relaxed),
            backoff_us: (kernel_retries + transfer_retries) as f64 * policy.retry_backoff_us,
            ..RecoveryLog::default()
        };

        // Deterministic root-cause selection: the most severe error wins,
        // lowest device id breaking ties (`Aborted` is only a peer echo).
        let mut root: Option<(u8, VgpuError)> = None;
        let mut done = Vec::with_capacity(n);
        for r in outcomes {
            match r {
                Ok(t) => done.push(t),
                Err(e) => {
                    let severity = match e {
                        VgpuError::DeviceLost { .. } => 3,
                        VgpuError::Timeout { .. } => 2,
                        VgpuError::Aborted => 0,
                        _ => 1,
                    };
                    if root.as_ref().is_none_or(|(s, _)| severity > *s) {
                        root = Some((severity, e));
                    }
                }
            }
        }
        let outcome = match root {
            Some((_, e)) => Err(e),
            None => Ok(done),
        };
        Launched { outcome, log, wall_time_us }
    }

    /// Fold the device threads' outcomes and the finished system into an
    /// [`EnactReport`]: iterations are the deepest device's, and every
    /// system-derived field (`sim_time_us`, counters, memory statistics,
    /// trace) is read here and nowhere else.
    fn report(
        &self,
        outcomes: Vec<DeviceOutcome>,
        wall_time_us: f64,
        host_sync: HostSync,
        recovery: RecoveryLog,
    ) -> EnactReport {
        let mut iterations = 0usize;
        let mut comm = CommReduction::default();
        for (i, comm_stats) in &outcomes {
            iterations = iterations.max(*i);
            comm.merge(comm_stats);
        }
        let mut governor = self.admission.clone();
        governor.downgrades.extend(self.noted.iter().cloned());
        for per in &self.per_gpu {
            governor.absorb(per.bufs.governor());
        }
        let system = &self.system;
        EnactReport {
            primitive: self.problem.name(),
            n_devices: self.dist.n_parts,
            iterations,
            sim_time_us: system.makespan_us(),
            wall_time_us,
            host_sync,
            totals: system.total_counters(),
            per_device: system.devices.iter().map(|d| d.counters).collect(),
            peak_memory_per_device: system.peak_memory_per_device(),
            total_peak_memory: system.total_peak_memory(),
            pool_reallocs: system.devices.iter().map(|d| d.pool().reallocs()).sum(),
            mem_per_device: system.devices.iter().map(|d| DeviceMemStats::of(d.pool())).collect(),
            recovery,
            governor,
            comm,
            trace: self.config.tracing.then(|| crate::trace::Trace::collect(system)),
        }
    }
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Executor<V> for Runner<'g, V, O, P> {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Bsp
    }

    fn primitive(&self) -> &'static str {
        self.problem.name()
    }

    fn n_devices(&self) -> usize {
        self.dist.n_parts
    }

    fn recovery_policy(&self) -> RecoveryPolicy {
        self.config.recovery
    }

    fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        Runner::enact(self, src)
    }

    fn harvest(&self) -> Vec<u64> {
        Runner::harvest(self)
    }
}

/// Poisons the sync point when its device thread unwinds.
struct PoisonOnUnwind<'a>(&'a SyncPoint);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Delivered packages a device has drained but not yet combined.
type Stash<V, M> = Vec<Delivery<Arc<Package<V, M>>>>;

/// One butterfly block window: how many origin blocks it covers, and their
/// canonical merged `(global id, message)` arrays.
type Group<V, M> = (usize, Vec<V>, Vec<M>);

impl<V: Id, O: Id, P: MgpuProblem<V, O>> DeviceRun<'_, V, O, P> {
    /// The per-device control loop (the `BFSThread` + `Iteration_Loop` of
    /// Appendix A).
    ///
    /// All devices see the identical `abort_count`/`done_count`/timeout
    /// information in the shared reduction, so every exit decision is
    /// uniform — no device can leave a peer stranded at a barrier, and the
    /// exit superstep is a deterministic function of the fault plan.
    fn supersteps(
        mut self,
        src_local: Option<V>,
        sync: &SyncPoint,
        sink: &CheckpointSink<V>,
        resume: Option<&GlobalCheckpoint<V>>,
    ) -> Result<DeviceOutcome> {
        let (gpu, n) = (self.gpu(), sync.n());
        // Whatever unwinds past this frame (anything outside `attempt`)
        // would leave the peers waiting for an arrival that never comes.
        let _release_peers = PoisonOnUnwind(sync);
        let config = self.config;
        let policy = config.recovery;
        let butterfly =
            config.comm_topology == CommTopology::Butterfly && self.pkg_policy.monotone && n > 1;

        // Reset: primitive state + initial frontier ("Put tsrc into initial
        // frontier on GPU src_gpu"). The host vector drives the iteration
        // directly; commit_output only establishes device residency (no
        // copy-back — the contents are by construction identical). When
        // resuming, the checkpoint overwrites the freshly reset state and
        // supplies the frontier instead.
        let init = self.attempt(|run| {
            let fresh = run.problem.reset(run.dev, run.sub, &mut run.per.state, src_local)?;
            let input = match resume {
                None => fresh,
                Some(ck) => run.restore_checkpoint(ck)?,
            };
            run.per.bufs.commit_output(run.dev, &input)?;
            Ok(input)
        });
        let mut input: Vec<V> = init.unwrap_or_default();

        let mut iter = resume.map_or(0, |ck| ck.iter);
        loop {
            // Strategy for this superstep: identical on every GPU because state
            // phases evolve from the shared reduction.
            let comm = match config.comm {
                Some(c) => c,
                None => match guard(gpu, || Ok(self.problem.comm_now(&self.per.state))) {
                    Ok(c) => c,
                    // Without the strategy this device does not know how many
                    // rendezvous the superstep has (one, or a butterfly's
                    // stages), so it cannot keep attending them.
                    Err(e) => {
                        sync.poison();
                        return Err(e);
                    }
                },
            };
            // The butterfly engages only for broadcast supersteps of monotone
            // primitives — a uniform decision (the strategy and the config are
            // identical everywhere), so per-superstep barrier counts stay
            // aligned across devices.
            let next_input = if butterfly && comm == CommStrategy::Broadcast {
                self.butterfly_superstep(&input, iter, sync)
            } else {
                self.direct_superstep(&input, iter, comm, sync)
            };

            // ---- checkpoint offer: before the reduce, so a device that failed
            // this superstep never contributes and the partial stays incomplete
            if sink.due(iter + 1) && self.problem.supports_checkpoint() {
                self.attempt(|run| run.offer_checkpoint(sink, &next_input, iter + 1));
            }

            // ---- superstep boundary: global sync + convergence ----
            let (locally_done, contribution) = self
                .attempt(|run| {
                    Ok((
                        run.problem.locally_done(&run.per.state, &next_input),
                        run.problem.contribution(&run.per.state, &next_input),
                    ))
                })
                .unwrap_or((true, Contribution { aborting: true, ..Contribution::default() }));
            let my_time = self.dev.now();
            let reduce = self.wait(|| sync.superstep(gpu, my_time, locally_done, contribution));
            self.dev.end_superstep(n, reduce.max_time_us);
            iter += 1;
            self.attempt(|run| {
                run.problem.after_superstep(&mut run.per.state, &reduce, iter);
                Ok(())
            });

            // ---- uniform straggler decision from the shared reduction ----
            if policy.straggler_timeout_us.is_finite()
                && reduce.max_time_us - reduce.min_time_us > policy.straggler_timeout_us
            {
                if gpu == 0 {
                    self.rec.note_straggler();
                }
                // The straggler self-identifies (its barrier time *is* the
                // max, bitwise); everyone exits at this same superstep.
                return Err(if my_time == reduce.max_time_us {
                    VgpuError::Timeout { device: gpu }
                } else {
                    self.error.take().unwrap_or(VgpuError::Aborted)
                });
            }

            if reduce.abort_count > 0 {
                return Err(self.error.take().unwrap_or(VgpuError::Aborted));
            }
            if reduce.done_count == n || self.problem.globally_done(&reduce, iter) {
                // a failure after this superstep's reduce (in after_superstep)
                // is not yet visible to peers — surface it here
                return match self.error.take() {
                    Some(e) => Err(e),
                    None => Ok(self.finish(iter)),
                };
            }
            input = next_input;
        }
    }

    /// One superstep over the direct topology: compute + split/package/push
    /// (Fig. 1's top half), the rendezvous after which every peer's pushes
    /// are posted, then combine (Fig. 1's bottom half).
    fn direct_superstep(
        &mut self,
        input: &[V],
        iter: usize,
        comm: CommStrategy,
        sync: &SyncPoint,
    ) -> Vec<V> {
        let gpu = self.gpu();
        let local = self.attempt(|run| run.compute_and_send(input, iter, comm)).unwrap_or_default();
        self.wait(|| sync.rendezvous(gpu));
        // drained whether or not this device still works: inboxes stay clean
        // for the peers
        let arrived = self.mailbox.drain(gpu);
        self.attempt(|run| run.combine_received(comm, arrived, local)).unwrap_or_default()
    }

    /// Run the primitive's iteration on `input`, split and package its
    /// output for `comm`, push the packages, and return the local part.
    fn compute_and_send(&mut self, input: &[V], iter: usize, comm: CommStrategy) -> Result<Vec<V>> {
        let (gpu, n, problem) = (self.gpu(), self.mailbox.n(), self.problem);
        let output = self.iterate(input, iter)?;

        type Sends<V, M> = Vec<(usize, Arc<Package<V, M>>)>;
        let (local, sends): (Vec<V>, Sends<V, P::Msg>) = if n == 1 {
            (output, Vec::new())
        } else {
            let wall_start = self.dev.timeline.wall_now();
            let split = match comm {
                CommStrategy::Selective => {
                    let (local, pkgs) = self.split(&output)?;
                    let sends = pkgs
                        .into_iter()
                        .enumerate()
                        .filter_map(|(j, p)| {
                            p.map(|p| {
                                self.stats.count_package(p.encoding());
                                (j, Arc::new(p))
                            })
                        })
                        .collect();
                    (local, sends)
                }
                CommStrategy::Broadcast => {
                    let state = &self.per.state;
                    let pkg = broadcast_package_with(
                        self.dev,
                        self.sub,
                        &output,
                        |v| problem.package(state, v),
                        self.pkg_policy,
                        self.supp.as_mut(),
                        |m| problem.suppression_key(m),
                        |a, b| problem.merge_msgs(a, b),
                    )?;
                    // the output frontier itself is the local part — no copy
                    let sends = if pkg.is_empty() {
                        Vec::new()
                    } else {
                        self.stats.count_package(pkg.encoding());
                        let pkg = Arc::new(pkg);
                        (0..n).filter(|&j| j != gpu).map(|j| (j, Arc::clone(&pkg))).collect()
                    };
                    (output, sends)
                }
            };
            // the split kernel's span carries the whole split + package + encode
            self.dev.timeline.stamp_last(HostLayer::Split, wall_start);
            split
        };

        // Push packages on the communication stream, which waits for the
        // packaging work on the compute stream (cudaStreamWaitEvent analog).
        if !sends.is_empty() {
            let ready = self.dev.record_event(COMPUTE_STREAM);
            self.dev.stream_wait(COMM_STREAM, ready)?;
            for (j, pkg) in sends {
                self.post(j, pkg)?;
            }
        }
        Ok(local)
    }

    /// Combine `deliveries` into `next` in order, then commit the merged
    /// frontier.
    fn combine_received(
        &mut self,
        comm: CommStrategy,
        deliveries: Stash<V, P::Msg>,
        mut next: Vec<V>,
    ) -> Result<Vec<V>> {
        for delivery in deliveries {
            self.receive(comm, delivery, &mut next)?;
        }
        self.commit_frontier(&next)?;
        Ok(next)
    }

    /// Make the merged frontier resident under the allocation scheme and let
    /// the next iteration's compute wait for combine completion.
    fn commit_frontier(&mut self, next: &[V]) -> Result<()> {
        self.per.bufs.commit_output(self.dev, next)?;
        let done = self.dev.record_event(COMM_STREAM);
        self.dev.stream_wait(COMPUTE_STREAM, done)
    }

    /// Mark a butterfly stage (or its fallback) on the compute stream.
    fn record_stage(&mut self, name: &'static str, items: u64, peer: i64) {
        let dev = &mut *self.dev;
        if dev.timeline.is_enabled() {
            let at = dev.stream_time(COMPUTE_STREAM);
            dev.timeline.record(TraceEvent {
                device: dev.id(),
                stream: COMPUTE_STREAM.0,
                kind: TraceKind::Stage,
                name,
                start_us: at,
                items,
                peer,
                ..TraceEvent::default()
            });
        }
    }

    /// One butterfly (dissemination) superstep for a broadcast-comm monotone
    /// primitive: compute, then ⌈log₂ n⌉ exchange stages, each sending the
    /// most recent origin blocks held to peer `(i + 2^k) mod n` as one
    /// canonical merged package and combining the symmetric package received
    /// from `(i − 2^k) mod n`. Every device walks the identical stage structure
    /// and attends every stage barrier, so the superstep count and barrier
    /// schedule are deterministic; empty stage packages are elided (the barrier
    /// makes "nothing arrived" an unambiguous empty window). A device that
    /// fails mid-superstep keeps attending every stage barrier with its work
    /// skipped — exactly the failure protocol of the direct path.
    ///
    /// Block accounting (DESIGN.md §10): after stage k each device holds the
    /// contiguous ring window of `have` most recent origin blocks ending at its
    /// own id. The stage sends the most recent `min(have, n − have)` blocks
    /// (rounded up to a whole prefix of held groups; early stages match
    /// exactly), which is precisely the window the receiver is missing —
    /// redundant blocks from the final-stage round-up are rejected by the
    /// monotone combiner.
    fn butterfly_superstep(&mut self, input: &[V], iter: usize, sync: &SyncPoint) -> Vec<V> {
        let (gpu, n) = (self.gpu(), sync.n());
        // ---- compute + canonical own block (broadcast: the output frontier
        // itself is the local part) ----
        let computed = self.attempt(|run| {
            let output = run.iterate(input, iter)?;
            let (problem, state) = (run.problem, &run.per.state);
            let own = broadcast_block(
                run.dev,
                run.sub,
                &output,
                |v| problem.package(state, v),
                run.pkg_policy,
                run.supp.as_mut(),
                |m| problem.suppression_key(m),
                |a, b| problem.merge_msgs(a, b),
            )?;
            Ok((output, own))
        });
        let (mut next, own) = computed.unwrap_or_default();

        // groups[k] = the block window received at stage k (groups[0] = the own
        // block), newest first; counts are structural and identical on every
        // device, so no origin metadata travels on the wire.
        let mut groups: Vec<Group<V, P::Msg>> = vec![(1, own.0, own.1)];
        let mut have = 1usize;
        let mut hop = 1usize; // 2^k
        let mut stash: Stash<V, P::Msg> = Vec::new();
        while have < n {
            let target = have.min(n - have);
            // smallest whole prefix of groups covering ≥ target blocks
            let mut sel = 0usize;
            let mut count = 0usize;
            while count < target {
                count += groups[sel].0;
                sel += 1;
            }
            let dst = (gpu + hop) % n;
            let src = (gpu + n - hop) % n;

            // ---- merge + encode + push. A stage whose transient retries are
            // exhausted does not doom the attempt when the policy allows
            // degrading: the device votes for a uniform fall-back to direct
            // broadcast at the stage rendezvous below. Non-transient errors
            // keep the direct path's failure protocol (attend every barrier,
            // abort at the superstep reduce).
            let stage_fault = self.attempt(|run| {
                let policy = run.config.recovery;
                match run.send_stage(&groups[..sel], dst) {
                    Err(e) if policy.degrade && e.is_transient() => Ok(true),
                    sent => sent.map(|()| false),
                }
            });

            // ---- stage rendezvous: the peer's push is posted. The rendezvous
            // doubles as the fall-back vote: the u64 reduction is identical on
            // every device, so the decision to degrade this superstep to direct
            // broadcast is uniform and costs no extra barrier. ----
            let vote = Contribution {
                u64_add: stage_fault.unwrap_or(false) as u64,
                ..Contribution::default()
            };
            let now = self.dev.now();
            let reduce = self.wait(|| sync.superstep(gpu, now, false, vote));
            if reduce.u64_sum > 0 {
                if gpu == 0 {
                    self.rec.note_butterfly_fallback();
                }
                return self.butterfly_fallback(sync, &groups[0], stash, next);
            }

            // ---- take this stage's package; early arrivals from faster peers
            // wait in the stash, a failed sender contributes an empty window ----
            stash.extend(self.mailbox.drain(gpu));
            let got = stash.iter().position(|d| d.src == src).map(|i| stash.swap_remove(i));
            let received = got.and_then(|delivery| {
                self.attempt(|run| {
                    let decoded = run.receive(CommStrategy::Broadcast, delivery, &mut next)?;
                    // the next stage's merge (compute stream) forwards what
                    // this combine decoded
                    let done = run.dev.record_event(COMM_STREAM);
                    run.dev.stream_wait(COMPUTE_STREAM, done)?;
                    Ok(decoded)
                })
            });
            let (rvs, rms) = received.unwrap_or_default();
            groups.push((count, rvs, rms));
            have += count;
            hop <<= 1;
        }

        // ---- commit the merged frontier, as the direct combine path does ----
        self.attempt(|run| run.commit_frontier(&next).map(|()| next)).unwrap_or_default()
    }

    /// One butterfly stage's send: merge `groups` into one canonical block
    /// (one Split kernel per stage), encode it and push it to `dst`.
    fn send_stage(&mut self, groups: &[Group<V, P::Msg>], dst: usize) -> Result<()> {
        let (problem, policy, n_global) = (self.problem, self.pkg_policy, self.sub.n_global);
        let merged = self.dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
            let total: usize = groups.iter().map(|g| g.1.len()).sum();
            let mut vs: Vec<V> = Vec::with_capacity(total);
            let mut ms: Vec<P::Msg> = Vec::with_capacity(total);
            for (_, gv, gm) in groups {
                vs.extend_from_slice(gv);
                ms.extend(gm.iter().cloned());
            }
            let (vs, ms) = canonicalize_ordered(
                vs,
                ms,
                policy.order,
                &|m| problem.suppression_key(m),
                &|a, b| problem.merge_msgs(a, b),
            );
            let pkg = Package::encode(vs, ms, policy.encoding, Some(n_global), policy.uniform_hint);
            (pkg, total as u64)
        })?;
        self.stats.collective_stages += 1;
        self.record_stage("butterfly-stage", merged.len() as u64, dst as i64);
        // Empty stage packages are elided: the stage barrier guarantees every
        // posted send is drained by its receiver, so a missing delivery
        // deterministically means an empty window — the same signature a
        // failed sender leaves.
        if merged.is_empty() {
            return Ok(());
        }
        self.stats.count_package(merged.encoding());
        let ready = self.dev.record_event(COMPUTE_STREAM);
        self.dev.stream_wait(COMM_STREAM, ready)?;
        self.post(dst, Arc::new(merged))
    }

    /// Degraded completion of a butterfly superstep after a mid-stage fault
    /// survived its transient retries: every device re-broadcasts its *own*
    /// canonical block directly to all peers, then combines everything that
    /// arrived — the interrupted stage's packages plus the direct
    /// re-broadcasts. Every origin block reaches every device without relying
    /// on forwarding, and the monotone combiner rejects whatever the completed
    /// stages already applied, so the superstep's result is identical to a
    /// fault-free exchange. The degradation costs one extra rendezvous
    /// (uniform: every device attends it) and direct-broadcast wire charges on
    /// top of the stages already paid — all visible in the trace.
    fn butterfly_fallback(
        &mut self,
        sync: &SyncPoint,
        own: &Group<V, P::Msg>,
        mut stash: Stash<V, P::Msg>,
        next: Vec<V>,
    ) -> Vec<V> {
        let (gpu, n) = (self.gpu(), sync.n());
        // ---- re-encode the own block and push it directly to every peer; a
        // failure here is terminal for the attempt (the resilience layer owns
        // the next level of recovery) ----
        self.attempt(|run| {
            let (policy, n_global) = (run.pkg_policy, run.sub.n_global);
            let pkg = run.dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
                let items = own.1.len() as u64;
                let pkg = Package::encode(
                    own.1.clone(),
                    own.2.clone(),
                    policy.encoding,
                    Some(n_global),
                    policy.uniform_hint,
                );
                (pkg, items)
            })?;
            run.record_stage("butterfly-fallback", pkg.len() as u64, -1);
            // empty own blocks are elided exactly as empty stage windows are
            if pkg.is_empty() {
                return Ok(());
            }
            let ready = run.dev.record_event(COMPUTE_STREAM);
            run.dev.stream_wait(COMM_STREAM, ready)?;
            let pkg = Arc::new(pkg);
            for peer in (0..n).filter(|&peer| peer != gpu) {
                run.stats.count_package(pkg.encoding());
                run.post(peer, Arc::clone(&pkg))?;
            }
            Ok(())
        });

        // ---- one extra rendezvous: every surviving peer's direct push (and
        // any package from the interrupted stage) is posted ----
        self.wait(|| sync.rendezvous(gpu));

        // ---- drain & combine; a stable sort by sender keeps combine order
        // independent of thread scheduling (stash entries from one sender were
        // posted in that sender's program order) ----
        stash.extend(self.mailbox.drain(gpu));
        stash.sort_by_key(|d| d.src);
        self.attempt(|run| run.combine_received(CommStrategy::Broadcast, stash, next))
            .unwrap_or_default()
    }

    /// Encode this device's owned vertices (global-id keyed) and its owned
    /// slice of the pending set — the next frontier plus whatever the
    /// primitive holds [`MgpuProblem::parked`] — and offer them to the sink.
    /// The encode pass is metered as a bulk kernel over the owned set.
    fn offer_checkpoint(
        &mut self,
        sink: &CheckpointSink<V>,
        next_input: &[V],
        iter: usize,
    ) -> Result<()> {
        let (problem, dev, sub, state) = (self.problem, &mut *self.dev, self.sub, &self.per.state);
        let words = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            let mut words: Vec<(V, u64)> = Vec::with_capacity(sub.n_local);
            for l in 0..sub.n_vertices() {
                let lv = V::from_usize(l);
                if sub.is_owned(lv) {
                    words.push((sub.to_global(lv), problem.checkpoint_word(state, lv)));
                }
            }
            let n = words.len() as u64;
            (words, n)
        })?;
        let frontier: Vec<V> = next_input
            .iter()
            .copied()
            .chain(problem.parked(state))
            .filter(|&v| sub.is_owned(v))
            .map(|v| sub.to_global(v))
            .collect();
        if dev.timeline.is_enabled() {
            let at = dev.stream_time(COMPUTE_STREAM);
            dev.timeline.record(TraceEvent {
                device: dev.id(),
                stream: COMPUTE_STREAM.0,
                kind: TraceKind::Checkpoint,
                name: "checkpoint",
                start_us: at,
                items: words.len() as u64,
                ..TraceEvent::default()
            });
        }
        sink.offer(iter, words, frontier);
        Ok(())
    }

    /// Overwrite freshly reset state from a checkpoint (restoring owned
    /// vertices *and* proxies this device holds) and return the restored local
    /// input frontier (the owned slice of the checkpoint frontier).
    fn restore_checkpoint(&mut self, ck: &GlobalCheckpoint<V>) -> Result<Vec<V>> {
        let (problem, sub, state) = (self.problem, self.sub, &mut self.per.state);
        self.dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            let mut restored = 0u64;
            for &(g, w) in &ck.words {
                if let Some(l) = sub.from_global(g) {
                    problem.restore_word(state, l, w);
                    restored += 1;
                }
            }
            ((), restored)
        })?;
        Ok(ck
            .frontier
            .iter()
            .filter_map(|&g| sub.from_global(g))
            .filter(|&l| sub.is_owned(l))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::MinLabel;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{Duplication, RandomPartitioner};
    use vgpu::HardwareProfile;

    /// 64 vertices, each joined to its next eight, on two parts: enough
    /// edges that `Max` preallocates several times what `Fixed` does.
    fn ring_of_eights() -> DistGraph<u32, u64> {
        let edges = (0..64u32).flat_map(|v| (1..=8).map(move |d| (v, (v + d) % 64))).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(64, edges, None));
        DistGraph::partition(&g, &RandomPartitioner::default(), 2, Duplication::OneHop)
    }

    #[test]
    fn mismatched_device_count_is_a_typed_error() {
        let dist = ring_of_eights();
        let three = SimSystem::homogeneous(3, HardwareProfile::k40());
        let bind = Runner::new(three, &dist, MinLabel, EnactConfig::default());
        assert_eq!(bind.err(), Some(VgpuError::BadDevice { device: 2, have: 3 }));
    }

    #[test]
    fn a_partition_of_another_duplication_is_refused_typed() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(4, vec![(0, 1)], None));
        let dist = DistGraph::build(&g, vec![0, 1, 0, 1], 2, Duplication::All);
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let bind = Runner::new(system, &dist, MinLabel, EnactConfig::default());
        let needs = "a duplicate-1-hop partition";
        assert_eq!(
            bind.err(),
            Some(VgpuError::PartitionMismatch { primitive: "min-label", needs })
        );
    }

    /// What the bind promises beyond the problem's own `init`: admission
    /// walks the scheme down under a cap, and every device gets the id-width
    /// factor and the configured kernel threads.
    #[test]
    fn bind_walks_admission_and_configures_every_device() {
        let dist = ring_of_eights();
        // tight enough that admission has to walk `Max` down the chain
        let system = SimSystem::homogeneous(2, HardwareProfile::k40().with_capacity(9_000));
        let config = EnactConfig {
            alloc_scheme: Some(AllocScheme::Max),
            kernel_threads: Some(3),
            ..EnactConfig::default()
        };
        let runner = Runner::new(system, &dist, MinLabel, config).unwrap();
        assert_ne!(runner.scheme(), AllocScheme::Max, "the cap must make admission act");
        assert!(!runner.admission.downgrades.is_empty());
        for dev in &runner.system().devices {
            assert_eq!(dev.width_factor(), 1.2, "u32 ids over u64 offsets (Table V)");
            assert_eq!(dev.kernel_threads(), 3);
        }
    }

    /// Without a configured count the devices share the cores: each gets
    /// its part of the available parallelism (or `MGPU_KERNEL_THREADS`,
    /// which stays a per-device count), so a two-device bind on two cores
    /// runs two kernel threads in all, not four.
    #[test]
    fn an_unset_kernel_thread_count_shares_the_cores_among_devices() {
        let dist = ring_of_eights();
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let runner = Runner::new(system, &dist, MinLabel, EnactConfig::default()).unwrap();
        for dev in &runner.system().devices {
            assert_eq!(dev.kernel_threads(), vgpu::par::default_kernel_threads(2));
        }
    }
}
