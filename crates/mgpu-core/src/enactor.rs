//! The multi-GPU enactor: one dedicated CPU thread per device, BSP
//! supersteps with framework-managed communication (§III-B, Fig. 1).
//!
//! Per iteration, each device thread:
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
//! A device thread that fails (e.g. out of memory, an injected fault, or a
//! panic in problem code) keeps participating in rendezvous so no peer
//! deadlocks; its failure travels through the superstep reduction
//! (`Contribution::aborting` → `GlobalReduce::abort_count`), so every device
//! makes the identical exit decision at the identical superstep and the
//! enact call returns the deterministic root-cause error. A thread that
//! cannot keep attending — it unwinds outside `resilience::guard`, or it
//! lost the strategy that fixes the superstep's rendezvous schedule —
//! poisons the `SyncPoint` instead, which releases its peers with
//! `abort_count ≥ 1` at whatever rendezvous they are in.

use std::sync::Arc;
use std::time::Instant;

use mgpu_graph::Id;
use mgpu_partition::{DistGraph, SubGraph};
use vgpu::memory::Reservation;
use vgpu::sync::{Contribution, Delivery};
use vgpu::{
    harvest_device_thread, Device, Interconnect, KernelKind, Mailbox, Result, SimSystem, SyncPoint,
    TraceEvent, TraceKind, VgpuError, COMM_STREAM, COMPUTE_STREAM,
};

use crate::alloc::{AllocScheme, FrontierBufs};
use crate::comm::{
    broadcast_block, broadcast_package_with, canonicalize_ordered, split_and_package_with,
    CommStrategy, CommTopology, Package, PackagePolicy, SuppressState, WireEncoding,
};
use crate::executor::{assemble_report, post_package, receive_package, Executor, ExecutorKind};
use crate::governor::{self, Downgrade, GovernorLog, PressurePolicy};
use crate::problem::{MgpuProblem, Wire};
use crate::report::{CommReduction, EnactReport, HostSync, SuperstepTrace};
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
    /// Override the primitive's iteration cap.
    pub max_iterations: Option<usize>,
    /// Host threads for kernel bodies on every device (default: the
    /// `MGPU_KERNEL_THREADS` env var, else available parallelism). Purely a
    /// wall-clock knob — simulated time and BSP counters are identical at
    /// every value (see `vgpu::par`).
    pub kernel_threads: Option<usize>,
    /// Recovery policy (retries, checkpoints, straggler timeout). The
    /// default is fully off and adds zero simulated-time overhead.
    pub recovery: RecoveryPolicy,
    /// Memory-pressure governor policy ([`crate::governor`]). The default is
    /// fully off: no admission estimate, no downgrades, no spill/chunking —
    /// every OOM propagates exactly as before.
    pub pressure: PressurePolicy,
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
            max_iterations: None,
            kernel_threads: None,
            recovery: RecoveryPolicy::default(),
            pressure: PressurePolicy::default(),
            comm_topology: CommTopology::Direct,
            wire_encoding: WireEncoding::Auto,
            suppression: true,
            tracing: false,
        }
    }
}

/// The wire-volume knobs a device thread needs, extracted from the config.
#[derive(Debug, Clone, Copy)]
struct CommKnobs {
    topology: CommTopology,
    encoding: WireEncoding,
    suppression: bool,
}

struct PerGpu<V: Id, S> {
    state: S,
    bufs: FrontierBufs<V>,
    /// Keeps the subgraph topology charged against the device pool for the
    /// runner's lifetime.
    _topology: Reservation,
}

/// A primitive bound to a partitioned graph on a system: initialize once,
/// enact many times (the paper's `Init` / `Reset`+`Enact` split).
pub struct Runner<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    system: SimSystem,
    dist: &'g DistGraph<V, O>,
    problem: P,
    config: EnactConfig,
    per_gpu: Vec<PerGpu<V, P::State>>,
    /// Admission-control decisions taken at bind time (plus any downgrades a
    /// driver recorded via [`Runner::note_downgrade`]); folded into every
    /// enact's report.
    admission: GovernorLog,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Runner<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system`: reserves each subgraph's
    /// topology in device memory, initializes per-GPU state and allocates
    /// the scheme-managed frontier buffers.
    pub fn new(
        mut system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: EnactConfig,
    ) -> Result<Self> {
        assert_eq!(
            system.n_devices(),
            dist.n_parts,
            "system device count must match partition count"
        );
        let base_scheme = config.alloc_scheme.unwrap_or_else(|| problem.alloc_scheme());
        let pressure = config.pressure;
        let comm = config.comm.unwrap_or_else(|| problem.comm());
        let host_link = system.interconnect.host_link();
        let mut admission = GovernorLog::default();
        // Id-width bandwidth factor (Table V): baseline is 32-bit vertices
        // with 32-bit offsets; wider ids read proportionally more per edge.
        let width_factor = (V::BYTES as f64 + O::BYTES as f64 / 4.0) / 5.0;
        let mut per_gpu = Vec::with_capacity(dist.n_parts);
        for (dev, sub) in system.devices.iter_mut().zip(dist.parts.iter()) {
            dev.set_width_factor(width_factor);
            if let Some(t) = config.kernel_threads {
                dev.set_kernel_threads(t);
            }
            // ---- admission control: walk the scheme down the downgrade
            // chain until the pre-flight estimate fits under the soft
            // watermark; a floor scheme past the hard watermark is refused
            // with a typed OOM before anything is allocated.
            let mut scheme = base_scheme;
            if pressure.enabled {
                let capacity = dev.pool().capacity();
                let budget = (capacity as f64 * pressure.soft_watermark) as u64;
                let estimate = |scheme| {
                    governor::estimate_footprint(
                        scheme,
                        comm,
                        dist.n_parts,
                        sub.n_vertices(),
                        sub.n_edges(),
                        sub.topology_bytes(),
                        problem.state_bytes_per_vertex(),
                        V::BYTES,
                        <P::Msg as Wire>::BYTES,
                    )
                    .total()
                };
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
            }
            let bytes = sub.topology_bytes();
            let topology = dev.pool().reserve_external(bytes)?;
            // charge the H2D copy of the graph at memory bandwidth
            let cost = dev.profile().local_copy_us(bytes);
            dev.charge(COMPUTE_STREAM, cost, 0.0)?;
            let state = problem.init(dev, sub)?;
            let bufs = FrontierBufs::new(dev, scheme, sub.n_vertices(), sub.n_edges())?
                .with_pressure(pressure, host_link);
            per_gpu.push(PerGpu { state, bufs, _topology: topology });
        }
        Ok(Runner { system, dist, problem, config, per_gpu, admission })
    }

    /// Record a downgrade decision a higher layer took before (re)binding —
    /// e.g. a driver that re-partitioned `duplicate-all → duplicate-1-hop`
    /// or dropped a broadcast override after an admission refusal. It shows
    /// up in every subsequent report's governor log.
    pub fn note_downgrade(&mut self, d: Downgrade) {
        self.admission.downgrades.push(d);
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
    pub fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        let sink = CheckpointSink::new(self.dist.n_parts, self.config.recovery.checkpoint_interval);
        self.enact_resilient(src, None, &sink).0
    }

    /// [`Self::enact`] with explicit recovery plumbing: optionally resume
    /// from a [`GlobalCheckpoint`] and offer new checkpoints into `sink`.
    /// Returns the attempt's [`RecoveryLog`] alongside the result so a
    /// driver ([`crate::resilience::ResilientRunner`]) can account for
    /// failed attempts too.
    pub fn enact_resilient(
        &mut self,
        src: Option<V>,
        resume: Option<&GlobalCheckpoint<V>>,
        sink: &CheckpointSink<V>,
    ) -> (Result<EnactReport>, RecoveryLog) {
        self.system.reset_clocks();
        if self.config.tracing {
            // Fresh trace per enact, superstep cursor positioned so resumed
            // attempts stamp absolute superstep numbers. When tracing is off
            // the timelines are left untouched — a caller may still drive
            // them manually (see `examples/profile_trace.rs`).
            let resume_iter = resume.map_or(0, |ck| ck.iter) as u32;
            for dev in &mut self.system.devices {
                dev.timeline.enable();
                dev.timeline.clear();
                dev.timeline.set_superstep(resume_iter);
            }
            // Downgrades were decided once at bind time, before any trace
            // existed; replay them as instant markers at t=0 so every
            // governor decision in the report is paired with a trace event.
            for d in &self.admission.downgrades {
                let id = d.device.unwrap_or(0).min(self.system.devices.len() - 1);
                let dev = &mut self.system.devices[id];
                dev.timeline.record(TraceEvent {
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
        let sync = SyncPoint::new(n);
        // Packages travel as `Arc`s: a broadcast to n−1 peers posts n−1
        // pointers to one package, not n−1 deep copies (the wire cost is
        // still charged per peer — the copies that disappear are host-side).
        let mailbox: Mailbox<Arc<Package<V, P::Msg>>> =
            Mailbox::with_faults(n, self.system.fault_injector());
        let comm = self.config.comm;
        let knobs = CommKnobs {
            topology: self.config.comm_topology,
            encoding: self.config.wire_encoding,
            suppression: self.config.suppression,
        };
        let policy = self.config.recovery;
        let rec = RecoveryCounters::default();
        let fired_before = self.system.fault_injector().map_or(0, |inj| inj.fired());
        let max_iterations =
            self.config.max_iterations.unwrap_or_else(|| self.problem.max_iterations());

        let problem = &self.problem;
        let interconnect = std::sync::Arc::clone(&self.system.interconnect);
        let t0 = Instant::now();
        type Outcome = Result<(usize, Vec<SuperstepTrace>, CommReduction)>;
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for ((dev, per), sub) in self
                .system
                .devices
                .iter_mut()
                .zip(self.per_gpu.iter_mut())
                .zip(self.dist.parts.iter())
            {
                let src_local = match located {
                    Some((gpu, local)) if gpu == dev.id() => Some(local),
                    _ => None,
                };
                dev.set_retry_policy(policy.max_retries, policy.retry_backoff_us);
                let sync = &sync;
                let mailbox = &mailbox;
                let rec = &rec;
                let interconnect = std::sync::Arc::clone(&interconnect);
                handles.push(scope.spawn(move || {
                    run_gpu(
                        problem,
                        dev,
                        per,
                        sub,
                        &interconnect,
                        sync,
                        mailbox,
                        comm,
                        knobs,
                        max_iterations,
                        &policy,
                        rec,
                        sink,
                        resume,
                        src_local,
                    )
                }));
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(gpu, h)| harvest_device_thread(h.join(), gpu))
                .collect()
        });
        let wall_time_us = t0.elapsed().as_secs_f64() * 1e6;

        let fired_after = self.system.fault_injector().map_or(0, |inj| inj.fired());
        let kernel_retries: u64 = self.system.devices.iter().map(|d| d.kernel_retries()).sum();
        let transfer_retries = rec.transfer_retries.load(std::sync::atomic::Ordering::Relaxed);
        let log = RecoveryLog {
            kernel_retries,
            transfer_retries,
            faults_injected: fired_after - fired_before,
            checkpoints_taken: sink.taken(),
            stragglers_detected: rec.stragglers.load(std::sync::atomic::Ordering::Relaxed),
            butterfly_fallbacks: rec.butterfly_fallbacks.load(std::sync::atomic::Ordering::Relaxed),
            backoff_us: (kernel_retries + transfer_retries) as f64 * policy.retry_backoff_us,
            resumed_at: resume.map(|ck| ck.iter),
            ..RecoveryLog::default()
        };

        // Deterministic root-cause selection: the most severe error wins,
        // lowest device id breaking ties (`Aborted` is only a peer echo).
        let mut root: Option<(u8, VgpuError)> = None;
        let mut iters = 0usize;
        let mut history: Vec<SuperstepTrace> = Vec::new();
        let mut comm_acc = CommReduction::default();
        for r in &outcomes {
            match r {
                Ok((i, local_hist, comm_stats)) => {
                    iters = iters.max(*i);
                    comm_acc.merge(comm_stats);
                    if history.len() < local_hist.len() {
                        history.resize(local_hist.len(), SuperstepTrace::default());
                    }
                    for (acc, t) in history.iter_mut().zip(local_hist) {
                        acc.input += t.input;
                        acc.output += t.output;
                        acc.sent += t.sent;
                        acc.combined += t.combined;
                        acc.suppressed += t.suppressed;
                    }
                }
                Err(e) => {
                    let severity = match e {
                        VgpuError::DeviceLost { .. } => 3,
                        VgpuError::Timeout { .. } => 2,
                        VgpuError::Aborted => 0,
                        _ => 1,
                    };
                    if root.as_ref().is_none_or(|(s, _)| severity > *s) {
                        root = Some((severity, e.clone()));
                    }
                }
            }
        }
        if let Some((_, e)) = root {
            return (Err(e), log);
        }

        let governor = {
            let mut gov = self.admission.clone();
            for per in &self.per_gpu {
                gov.absorb(per.bufs.governor());
            }
            gov
        };
        let report = assemble_report(
            &self.system,
            self.problem.name(),
            n,
            iters,
            wall_time_us,
            HostSync { per_device: sync.host_stats() },
            history,
            log.clone(),
            governor,
            comm_acc,
            self.config.tracing,
        );
        (Ok(report), log)
    }

    /// Access a device's per-GPU primitive state (e.g. to read labels or
    /// ranks after an enact).
    pub fn state(&self, gpu: usize) -> &P::State {
        &self.per_gpu[gpu].state
    }

    /// Read the primitive's per-vertex result words in global vertex order
    /// (see [`MgpuProblem::result_word`]).
    pub fn harvest(&self) -> Vec<u64> {
        (0..self.dist.n_global)
            .map(|g| {
                let (gpu, local) = self.dist.locate(V::from_usize(g));
                self.problem.result_word(&self.per_gpu[gpu].state, local)
            })
            .collect()
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

/// The per-device control loop (the `BFSThread` + `Iteration_Loop` of
/// Appendix A).
///
/// Failure protocol: a device that fails *keeps participating in every
/// rendezvous* with its work skipped, and raises `Contribution::aborting` at
/// the next superstep reduction. All devices see the identical
/// `abort_count`/`done_count`/timeout information in the shared reduction,
/// so every exit decision is uniform — no device can leave a peer stranded
/// at a barrier, and the exit superstep is a deterministic function of the
/// fault plan.
#[allow(clippy::too_many_arguments)]
fn run_gpu<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    interconnect: &Interconnect,
    sync: &SyncPoint,
    mailbox: &Mailbox<Arc<Package<V, P::Msg>>>,
    comm: Option<CommStrategy>,
    knobs: CommKnobs,
    max_iterations: usize,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
    sink: &CheckpointSink<V>,
    resume: Option<&GlobalCheckpoint<V>>,
    src_local: Option<V>,
) -> Result<(usize, Vec<SuperstepTrace>, CommReduction)> {
    let n = sync.n();
    let gpu = dev.id();
    // Whatever unwinds past this frame (anything outside `guard`) would
    // leave the peers waiting for an arrival that never comes.
    let _release_peers = PoisonOnUnwind(sync);
    let mut failed = false;
    let mut my_error: Option<VgpuError> = None;

    // ---- wire policy ----
    let monotone = problem.monotone();
    let order = problem.monotone_order();
    let pkg_policy = PackagePolicy {
        encoding: knobs.encoding,
        monotone,
        uniform_hint: problem.uniform_broadcast_msgs(),
        order,
    };
    // Fresh suppression cache per enact: floors never survive a traversal
    // (a retried or resumed attempt starts from scratch, so a send that was
    // lost with its device can never leave a stale floor behind).
    let mut supp: Option<SuppressState> = (knobs.suppression && monotone && n > 1)
        .then(|| SuppressState::with_order(sub.n_vertices(), order));
    let butterfly = knobs.topology == CommTopology::Butterfly && monotone && n > 1;
    let mut stats = CommReduction::default();

    // Reset: primitive state + initial frontier ("Put tsrc into initial
    // frontier on GPU src_gpu"). The host vector drives the iteration
    // directly; commit_output only establishes device residency (no
    // copy-back — the contents are by construction identical). When
    // resuming, the checkpoint overwrites the freshly reset state and
    // supplies the frontier instead.
    let init = guard(gpu, || -> Result<Vec<V>> {
        let fresh = problem.reset(dev, sub, &mut per.state, src_local)?;
        let input = match resume {
            None => fresh,
            Some(ck) => restore_checkpoint(problem, dev, per, sub, ck)?,
        };
        per.bufs.commit_output(dev, &input)?;
        Ok(input)
    });
    let mut input: Vec<V> = match init {
        Ok(f) => f,
        Err(e) => {
            my_error.get_or_insert(e);
            failed = true;
            Vec::new()
        }
    };

    let mut iter = resume.map_or(0, |ck| ck.iter);
    // History indices are *dense absolute superstep numbers*: a resumed
    // attempt pads the supersteps it skipped with defaults so entry `i`
    // always describes superstep `i` and `history.len() == iterations`,
    // whether or not stages were elided or a checkpoint was replayed.
    let mut history: Vec<SuperstepTrace> = vec![SuperstepTrace::default(); iter];
    loop {
        let mut trace = SuperstepTrace { input: input.len() as u64, ..Default::default() };
        let sent_before = dev.counters.h_vertices;
        let supp_before = supp.as_ref().map_or(0, |s| s.suppressed_vertices);
        // Strategy for this superstep: identical on every GPU because state
        // phases evolve from the shared reduction.
        let comm_k = match comm {
            Some(c) => c,
            None => match guard(gpu, || Ok(problem.comm_now(&per.state))) {
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
        // primitives — a uniform decision (comm_k and the knobs are
        // identical everywhere), so per-superstep barrier counts stay
        // aligned across devices.
        let next_input: Vec<V> = if butterfly && comm_k == CommStrategy::Broadcast {
            butterfly_superstep(
                problem,
                dev,
                per,
                sub,
                interconnect,
                sync,
                mailbox,
                &input,
                iter,
                n,
                policy,
                rec,
                pkg_policy,
                &mut supp,
                &mut stats,
                &mut trace,
                &mut failed,
                &mut my_error,
            )
        } else {
            // ---- compute + split/package/push (Fig. 1's top half) ----
            let local_part: Vec<V> = if !failed {
                match guard(gpu, || {
                    compute_and_send(
                        problem,
                        dev,
                        per,
                        sub,
                        interconnect,
                        mailbox,
                        comm_k,
                        &input,
                        iter,
                        n,
                        policy,
                        rec,
                        pkg_policy,
                        &mut supp,
                        &mut stats,
                    )
                }) {
                    Ok((local, output_len)) => {
                        trace.output = output_len;
                        local
                    }
                    Err(e) => {
                        my_error.get_or_insert(e);
                        failed = true;
                        Vec::new()
                    }
                }
            } else {
                Vec::new()
            };

            // ---- rendezvous: every peer's pushes are posted ----
            sync.rendezvous(gpu);

            // ---- combine received sub-frontiers (Fig. 1's bottom half) ----
            if !failed {
                match guard(gpu, || {
                    let arrived = mailbox.drain(gpu);
                    combine_received(problem, dev, per, sub, comm_k, arrived, local_part, &mut supp)
                }) {
                    Ok(v) => v,
                    Err(e) => {
                        my_error.get_or_insert(e);
                        failed = true;
                        let _ = mailbox.drain(gpu);
                        Vec::new()
                    }
                }
            } else {
                let _ = mailbox.drain(gpu); // keep inboxes clean for peers
                Vec::new()
            }
        };

        trace.sent = dev.counters.h_vertices - sent_before;
        trace.combined = next_input.len() as u64; // local part + combined adds
        trace.suppressed = supp.as_ref().map_or(0, |s| s.suppressed_vertices) - supp_before;
        history.push(trace);

        // ---- checkpoint offer: before the reduce, so a device that failed
        // this superstep never contributes and the partial stays incomplete
        if !failed && sink.due(iter + 1) && problem.supports_checkpoint() {
            if let Err(e) =
                guard(gpu, || offer_checkpoint(problem, dev, per, sub, sink, &next_input, iter + 1))
            {
                my_error.get_or_insert(e);
                failed = true;
            }
        }

        // ---- superstep boundary: global sync + convergence ----
        let (locally_done, contribution) = if failed {
            (true, Contribution { aborting: true, ..Contribution::default() })
        } else {
            match guard(gpu, || {
                Ok((
                    problem.locally_done(&per.state, &next_input),
                    problem.contribution(&per.state, &next_input),
                ))
            }) {
                Ok(v) => v,
                Err(e) => {
                    my_error.get_or_insert(e);
                    failed = true;
                    (true, Contribution { aborting: true, ..Contribution::default() })
                }
            }
        };
        let my_time = dev.now();
        let reduce = sync.superstep(gpu, my_time, locally_done, contribution);
        dev.end_superstep(n, reduce.max_time_us);
        iter += 1;
        if !failed {
            if let Err(e) = guard(gpu, || {
                problem.after_superstep(&mut per.state, &reduce, iter);
                Ok(())
            }) {
                my_error.get_or_insert(e);
                failed = true;
            }
        }

        // ---- uniform straggler decision from the shared reduction ----
        if policy.straggler_timeout_us.is_finite()
            && reduce.max_time_us - reduce.min_time_us > policy.straggler_timeout_us
        {
            if gpu == 0 {
                rec.note_straggler();
            }
            if policy.evict_stragglers {
                // The straggler self-identifies (its barrier time *is* the
                // max, bitwise); everyone exits at this same superstep.
                return Err(if my_time == reduce.max_time_us {
                    VgpuError::Timeout { device: gpu }
                } else {
                    my_error.take().unwrap_or(VgpuError::Aborted)
                });
            }
        }

        if reduce.abort_count > 0 {
            return Err(my_error.take().unwrap_or(VgpuError::Aborted));
        }
        if reduce.done_count == n || problem.globally_done(&reduce, iter) || iter >= max_iterations
        {
            // a failure after this superstep's reduce (in after_superstep)
            // is not yet visible to peers — surface it here
            return match my_error.take() {
                Some(e) => Err(e),
                None => {
                    if let Some(s) = &supp {
                        stats.suppressed_vertices = s.suppressed_vertices;
                        stats.suppressed_bytes = s.suppressed_bytes;
                    }
                    Ok((iter, history, stats))
                }
            };
        }
        input = next_input;
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

/// Encode this device's owned vertices (global-id keyed) and its owned
/// slice of the next frontier, and offer them to the sink. The encode pass
/// is metered as a bulk kernel over the owned set.
fn offer_checkpoint<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    sink: &CheckpointSink<V>,
    next_input: &[V],
    iter: usize,
) -> Result<()> {
    let state = &per.state;
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
    let frontier: Vec<V> =
        next_input.iter().copied().filter(|&v| sub.is_owned(v)).map(|v| sub.to_global(v)).collect();
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
fn restore_checkpoint<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    ck: &GlobalCheckpoint<V>,
) -> Result<Vec<V>> {
    let state = &mut per.state;
    dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
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

#[allow(clippy::too_many_arguments)]
fn compute_and_send<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    interconnect: &Interconnect,
    mailbox: &Mailbox<Arc<Package<V, P::Msg>>>,
    comm: CommStrategy,
    input: &[V],
    iter: usize,
    n: usize,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
    pkg_policy: PackagePolicy,
    supp: &mut Option<SuppressState>,
    stats: &mut CommReduction,
) -> Result<(Vec<V>, u64)> {
    let gpu = dev.id();
    let output = problem.iteration(dev, sub, &mut per.state, &mut per.bufs, input, iter)?;
    let output_len = output.len() as u64;

    type Sends<V, M> = Vec<(usize, Arc<Package<V, M>>)>;
    let (local, sends): (Vec<V>, Sends<V, P::Msg>) = if n == 1 {
        (output, Vec::new())
    } else {
        match comm {
            CommStrategy::Selective => {
                let state = &per.state;
                let (local, pkgs) = split_and_package_with(
                    dev,
                    sub,
                    &output,
                    &mut per.bufs.split,
                    |v| problem.package(state, v),
                    pkg_policy,
                    supp.as_mut(),
                    |m| problem.suppression_key(m),
                    |a, b| problem.merge_msgs(a, b),
                )?;
                let sends = pkgs
                    .into_iter()
                    .enumerate()
                    .filter_map(|(j, p)| {
                        p.map(|p| {
                            stats.count_package(p.encoding());
                            (j, Arc::new(p))
                        })
                    })
                    .collect();
                (local, sends)
            }
            CommStrategy::Broadcast => {
                let state = &per.state;
                let pkg = broadcast_package_with(
                    dev,
                    sub,
                    &output,
                    |v| problem.package(state, v),
                    pkg_policy,
                    supp.as_mut(),
                    |m| problem.suppression_key(m),
                    |a, b| problem.merge_msgs(a, b),
                )?;
                // the output frontier itself is the local part — no copy
                let sends = if pkg.is_empty() {
                    Vec::new()
                } else {
                    stats.count_package(pkg.encoding());
                    let pkg = Arc::new(pkg);
                    (0..n).filter(|&j| j != gpu).map(|j| (j, Arc::clone(&pkg))).collect()
                };
                (output, sends)
            }
        }
    };

    // Push packages on the communication stream, which waits for the
    // packaging work on the compute stream (cudaStreamWaitEvent analog).
    if !sends.is_empty() {
        let ready = dev.record_event(COMPUTE_STREAM);
        dev.stream_wait(COMM_STREAM, ready)?;
        for (j, pkg) in sends {
            post_package(dev, interconnect, mailbox, j, pkg, policy, rec)?;
        }
    }
    Ok((local, output_len))
}

/// Combine `deliveries` into `next` in order, then commit the merged
/// frontier.
#[allow(clippy::too_many_arguments)]
fn combine_received<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    comm: CommStrategy,
    deliveries: Stash<V, P::Msg>,
    mut next: Vec<V>,
    supp: &mut Option<SuppressState>,
) -> Result<Vec<V>> {
    for delivery in deliveries {
        receive_package(
            problem,
            dev,
            sub,
            &mut per.state,
            comm,
            supp.as_mut(),
            delivery,
            &mut next,
        )?;
    }
    commit_frontier(dev, per, &next)?;
    Ok(next)
}

/// Make the merged frontier resident under the allocation scheme and let
/// the next iteration's compute wait for combine completion.
fn commit_frontier<V: Id, S>(dev: &mut Device, per: &mut PerGpu<V, S>, next: &[V]) -> Result<()> {
    per.bufs.commit_output(dev, next)?;
    let done = dev.record_event(COMM_STREAM);
    dev.stream_wait(COMPUTE_STREAM, done)
}

/// Mark a butterfly stage (or its fallback) on the compute stream.
fn record_stage(dev: &mut Device, name: &'static str, items: u64, peer: i64) {
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

/// Delivered packages a device has drained but not yet combined.
type Stash<V, M> = Vec<Delivery<Arc<Package<V, M>>>>;

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
#[allow(clippy::too_many_arguments)]
fn butterfly_superstep<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    interconnect: &Interconnect,
    sync: &SyncPoint,
    mailbox: &Mailbox<Arc<Package<V, P::Msg>>>,
    input: &[V],
    iter: usize,
    n: usize,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
    pkg_policy: PackagePolicy,
    supp: &mut Option<SuppressState>,
    stats: &mut CommReduction,
    trace: &mut SuperstepTrace,
    failed: &mut bool,
    my_error: &mut Option<VgpuError>,
) -> Vec<V> {
    let gpu = dev.id();
    // ---- compute + canonical own block (broadcast: the output frontier
    // itself is the local part) ----
    let (mut next, own) = if !*failed {
        match guard(gpu, || {
            let output = problem.iteration(dev, sub, &mut per.state, &mut per.bufs, input, iter)?;
            let state = &per.state;
            let own = broadcast_block(
                dev,
                sub,
                &output,
                |v| problem.package(state, v),
                pkg_policy,
                supp.as_mut(),
                |m| problem.suppression_key(m),
                |a, b| problem.merge_msgs(a, b),
            )?;
            Ok((output, own))
        }) {
            Ok((output, own)) => {
                trace.output = output.len() as u64;
                (output, own)
            }
            Err(e) => {
                my_error.get_or_insert(e);
                *failed = true;
                (Vec::new(), (Vec::new(), Vec::new()))
            }
        }
    } else {
        (Vec::new(), (Vec::new(), Vec::new()))
    };

    // groups[k] = the block window received at stage k (groups[0] = the own
    // block), newest first; counts are structural and identical on every
    // device, so no origin metadata travels on the wire.
    let mut groups: Vec<(usize, Vec<V>, Vec<P::Msg>)> = vec![(1, own.0, own.1)];
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

        // ---- merge + encode + push (one Split kernel per stage) ----
        // A push whose transient retries are exhausted does not doom the
        // attempt when the policy allows degrading: the device votes for a
        // uniform fall-back to direct broadcast at the stage rendezvous
        // below. Non-transient errors keep the direct path's failure
        // protocol (attend every barrier, abort at the superstep reduce).
        let mut stage_fault = false;
        if !*failed {
            if let Err(e) = guard(gpu, || {
                let merged = dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
                    let total: usize = groups[..sel].iter().map(|g| g.1.len()).sum();
                    let mut vs: Vec<V> = Vec::with_capacity(total);
                    let mut ms: Vec<P::Msg> = Vec::with_capacity(total);
                    for (_, gv, gm) in &groups[..sel] {
                        vs.extend_from_slice(gv);
                        ms.extend(gm.iter().cloned());
                    }
                    let (vs, ms) = canonicalize_ordered(
                        vs,
                        ms,
                        pkg_policy.order,
                        &|m| problem.suppression_key(m),
                        &|a, b| problem.merge_msgs(a, b),
                    );
                    let pkg = Package::encode(
                        vs,
                        ms,
                        pkg_policy.encoding,
                        Some(sub.n_global),
                        pkg_policy.uniform_hint,
                    );
                    (pkg, total as u64)
                })?;
                stats.collective_stages += 1;
                record_stage(dev, "butterfly-stage", merged.len() as u64, dst as i64);
                // Empty stage packages are elided: the stage barrier below
                // guarantees every posted send is drained by its receiver,
                // so a missing delivery deterministically means an empty
                // window — the same signature a failed sender leaves.
                if merged.is_empty() {
                    return Ok(());
                }
                stats.count_package(merged.encoding());
                let ready = dev.record_event(COMPUTE_STREAM);
                dev.stream_wait(COMM_STREAM, ready)?;
                post_package(dev, interconnect, mailbox, dst, Arc::new(merged), policy, rec)
            }) {
                if policy.fallback_to_direct && policy.is_transient(&e) {
                    stage_fault = true;
                } else {
                    my_error.get_or_insert(e);
                    *failed = true;
                }
            }
        }

        // ---- stage rendezvous: the peer's push is posted. The rendezvous
        // doubles as the fall-back vote: the u64 reduction is identical on
        // every device, so the decision to degrade this superstep to direct
        // broadcast is uniform and costs no extra barrier. ----
        let reduce = sync.superstep(
            gpu,
            dev.now(),
            false,
            Contribution { u64_add: stage_fault as u64, ..Contribution::default() },
        );
        if reduce.u64_sum > 0 {
            if gpu == 0 {
                rec.note_butterfly_fallback();
            }
            return butterfly_fallback(
                problem,
                dev,
                per,
                sub,
                interconnect,
                sync,
                mailbox,
                n,
                policy,
                rec,
                pkg_policy,
                supp,
                stats,
                &groups[0],
                stash,
                next,
                failed,
                my_error,
            );
        }

        // ---- take this stage's package; early arrivals from faster peers
        // wait in the stash, a failed sender contributes an empty window ----
        stash.extend(mailbox.drain(gpu));
        let got = stash.iter().position(|d| d.src == src).map(|i| stash.swap_remove(i));
        let (rvs, rms) = match got {
            Some(delivery) if !*failed => {
                match guard(gpu, || {
                    let decoded = receive_package(
                        problem,
                        dev,
                        sub,
                        &mut per.state,
                        CommStrategy::Broadcast,
                        supp.as_mut(),
                        delivery,
                        &mut next,
                    )?;
                    // the next stage's merge (compute stream) forwards what
                    // this combine decoded
                    let done = dev.record_event(COMM_STREAM);
                    dev.stream_wait(COMPUTE_STREAM, done)?;
                    Ok(decoded)
                }) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        my_error.get_or_insert(e);
                        *failed = true;
                        (Vec::new(), Vec::new())
                    }
                }
            }
            _ => (Vec::new(), Vec::new()),
        };
        groups.push((count, rvs, rms));
        have += count;
        hop <<= 1;
    }

    // ---- commit the merged frontier, as the direct combine path does ----
    if *failed {
        return Vec::new();
    }
    if let Err(e) = guard(gpu, || commit_frontier(dev, per, &next)) {
        my_error.get_or_insert(e);
        *failed = true;
        return Vec::new();
    }
    next
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
#[allow(clippy::too_many_arguments)]
fn butterfly_fallback<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut PerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    interconnect: &Interconnect,
    sync: &SyncPoint,
    mailbox: &Mailbox<Arc<Package<V, P::Msg>>>,
    n: usize,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
    pkg_policy: PackagePolicy,
    supp: &mut Option<SuppressState>,
    stats: &mut CommReduction,
    own: &(usize, Vec<V>, Vec<P::Msg>),
    mut stash: Stash<V, P::Msg>,
    next: Vec<V>,
    failed: &mut bool,
    my_error: &mut Option<VgpuError>,
) -> Vec<V> {
    let gpu = dev.id();
    // ---- re-encode the own block and push it directly to every peer; a
    // failure here is terminal for the attempt (the resilience layer owns
    // the next level of recovery) ----
    if !*failed {
        if let Err(e) = guard(gpu, || {
            let pkg = dev.kernel(COMPUTE_STREAM, KernelKind::Split, || {
                let items = own.1.len() as u64;
                let pkg = Package::encode(
                    own.1.clone(),
                    own.2.clone(),
                    pkg_policy.encoding,
                    Some(sub.n_global),
                    pkg_policy.uniform_hint,
                );
                (pkg, items)
            })?;
            record_stage(dev, "butterfly-fallback", pkg.len() as u64, -1);
            // empty own blocks are elided exactly as empty stage windows are
            if pkg.is_empty() {
                return Ok(());
            }
            let ready = dev.record_event(COMPUTE_STREAM);
            dev.stream_wait(COMM_STREAM, ready)?;
            let pkg = Arc::new(pkg);
            for peer in 0..n {
                if peer == gpu {
                    continue;
                }
                stats.count_package(pkg.encoding());
                post_package(dev, interconnect, mailbox, peer, Arc::clone(&pkg), policy, rec)?;
            }
            Ok(())
        }) {
            my_error.get_or_insert(e);
            *failed = true;
        }
    }

    // ---- one extra rendezvous: every surviving peer's direct push (and
    // any package from the interrupted stage) is posted ----
    sync.rendezvous(gpu);

    // ---- drain & combine; a stable sort by sender keeps combine order
    // independent of thread scheduling (stash entries from one sender were
    // posted in that sender's program order) ----
    stash.extend(mailbox.drain(gpu));
    if *failed {
        return Vec::new();
    }
    stash.sort_by_key(|d| d.src);
    match guard(gpu, || {
        combine_received(problem, dev, per, sub, CommStrategy::Broadcast, stash, next, supp)
    }) {
        Ok(next) => next,
        Err(e) => {
            my_error.get_or_insert(e);
            *failed = true;
            Vec::new()
        }
    }
}
