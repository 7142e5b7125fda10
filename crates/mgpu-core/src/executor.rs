//! What the enactment engines stand on: the interface drivers target, the
//! one bind, and the per-device context the device loops are methods of.
//!
//! Three drivers run an [`crate::MgpuProblem`] on a partitioned graph: the
//! BSP [`crate::enactor::Runner`], the asynchronous (Groute-style)
//! [`crate::async_enactor::AsyncRunner`], and the self-healing
//! [`crate::resilience::ResilientRunner`] wrapped around the first.
//!
//! * [`Executor`] is the interface every engine implements: enact a
//!   traversal, harvest the per-vertex result words in global vertex order,
//!   and describe yourself (engine kind, primitive name, device count,
//!   recovery policy). The scheduler targets `Box<dyn Executor<V>>` and
//!   never learns which engine is underneath.
//! * [`Bound`] is a problem bound to a partitioned graph on a system.
//!   [`Bound::new`] is the only bind (topology reservation + H2D charge,
//!   id-width factor, kernel threads, admission walk, `problem.init`,
//!   scheme-managed buffers); [`Bound::launch`] is the only enact scaffold
//!   (clock reset, tracing, mailbox, one thread per device, recovery log,
//!   root-cause selection) and [`Bound::report`] the only report assembly.
//!   `Runner` and `AsyncRunner` are each a `Bound` plus a device loop.
//! * [`DeviceRun`] is what one device thread owns for one enact, including
//!   the device's failure state. [`DeviceRun::attempt`] is the failure
//!   protocol; [`DeviceRun::post`] and [`DeviceRun::receive`] are the two
//!   ends of the wire. The BSP supersteps (`enactor.rs`) and the async
//!   relaxation loop (`async_enactor.rs`) are further methods of it, so
//!   charge order, counter updates and trace spans cannot drift apart
//!   between engines.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use mgpu_graph::Id;
use mgpu_partition::{DistGraph, SubGraph};
use vgpu::memory::Reservation;
use vgpu::sync::Delivery;
use vgpu::{
    harvest_device_thread, Device, Event, Interconnect, KernelKind, Mailbox, Result, SimSystem,
    SpanMeta, TraceEvent, TraceKind, VgpuError, COMM_STREAM, COMPUTE_STREAM,
};

use crate::alloc::{AllocScheme, FrontierBufs};
use crate::comm::{
    split_and_package_with, CommStrategy, Package, PackagePolicy, SplitOutput, SuppressState,
};
use crate::enactor::EnactConfig;
use crate::governor::{self, Downgrade, GovernorLog};
use crate::problem::{MgpuProblem, Wire};
use crate::report::{CommReduction, DeviceMemStats, EnactReport, HostSync, SuperstepTrace};
use crate::resilience::{guard, RecoveryCounters, RecoveryLog, RecoveryPolicy};

/// Which enactment engine an [`Executor`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Bulk-synchronous supersteps with deterministic simulated clocks
    /// ([`crate::enactor::Runner`]).
    Bsp,
    /// Asynchronous label-correcting relaxation with distributed
    /// termination detection ([`crate::async_enactor::AsyncRunner`]).
    /// Results converge to the same fixpoint, but simulated time is
    /// scheduling-dependent.
    Async,
    /// BSP with checkpoint/re-home/failover recovery wrapped around it
    /// ([`crate::resilience::ResilientRunner`]).
    Resilient,
}

named!(ExecutorKind { Bsp => "bsp", Async => "async", Resilient => "resilient" });

impl ExecutorKind {
    /// Is this engine's *simulated time* a deterministic function of
    /// (graph, config, fault plan) — i.e. may a scheduler assert
    /// [`EnactReport::same_simulation`] against a serial re-run? Async
    /// executors converge to the same result values but not the same
    /// clocks.
    pub fn deterministic_timing(&self) -> bool {
        !matches!(self, ExecutorKind::Async)
    }
}

/// One enactment engine bound to a problem and a partitioned graph: the
/// single interface the [`crate::service`] scheduler (and any other driver)
/// targets.
///
/// The contract every implementation upholds:
///
/// * `enact` runs one traversal to completion and reports it; engines with
///   deterministic timing ([`ExecutorKind::deterministic_timing`]) produce
///   reports that are a pure function of (graph, config, fault plan) —
///   independent of host scheduling, worker threads, and wall clock.
/// * `harvest` returns one result word per *global* vertex, in global
///   vertex order, encoded per [`crate::MgpuProblem::result_word`]. Valid
///   after a successful `enact`.
/// * Recovery, governor, and tracing semantics are those of the underlying
///   engine — the trait adds no behaviour, only a uniform surface.
pub trait Executor<V: Id> {
    /// Which engine this is.
    fn kind(&self) -> ExecutorKind;

    /// The bound primitive's name (as reported in [`EnactReport`]).
    fn primitive(&self) -> &'static str;

    /// Devices this executor drives.
    fn n_devices(&self) -> usize;

    /// The recovery policy in force.
    fn recovery_policy(&self) -> RecoveryPolicy;

    /// Run one traversal from `src` (global vertex id; `None` for
    /// source-less primitives).
    fn enact(&mut self, src: Option<V>) -> Result<EnactReport>;

    /// The per-vertex result words in global vertex order (see
    /// [`crate::MgpuProblem::result_word`]).
    fn harvest(&self) -> Vec<u64>;
}

/// One device's share of a bound problem.
pub(crate) struct PerGpu<V: Id, S> {
    pub(crate) state: S,
    pub(crate) bufs: FrontierBufs<V>,
    /// Keeps the subgraph topology charged against the device pool for the
    /// runner's lifetime.
    _topology: Reservation,
}

/// What one device thread returns from an enact: iterations (supersteps or
/// relaxation rounds), its superstep history, and its wire statistics.
pub(crate) type DeviceOutcome = (usize, Vec<SuperstepTrace>, CommReduction);

/// What [`Bound::launch`] hands back to the engine.
pub(crate) struct Launched<T> {
    /// Every device's result in device order, or the root-cause error.
    pub(crate) outcome: Result<Vec<T>>,
    /// The recovery events every engine has; the BSP engine adds its
    /// checkpoint fields.
    pub(crate) log: RecoveryLog,
    pub(crate) wall_time_us: f64,
}

/// A primitive bound to a partitioned graph on a system (the paper's `Init`):
/// the state both engines share between enacts.
pub(crate) struct Bound<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    pub(crate) system: SimSystem,
    pub(crate) dist: &'g DistGraph<V, O>,
    pub(crate) problem: P,
    pub(crate) config: EnactConfig,
    per_gpu: Vec<PerGpu<V, P::State>>,
    /// Admission-control decisions taken at bind time (plus any downgrades a
    /// driver recorded afterwards); folded into every enact's report.
    pub(crate) admission: GovernorLog,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Bound<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system`: reserves each subgraph's
    /// topology in device memory, initializes per-GPU state and allocates
    /// the scheme-managed frontier buffers. A system whose device count is
    /// not the partition count is [`VgpuError::BadDevice`].
    pub(crate) fn new(
        mut system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: EnactConfig,
    ) -> Result<Self> {
        if system.n_devices() != dist.n_parts {
            return Err(VgpuError::BadDevice { device: dist.n_parts, have: system.n_devices() });
        }
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
                let budget = governor::soft_budget(capacity);
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
        Ok(Bound { system, dist, problem, config, per_gpu, admission })
    }

    /// The allocation scheme in force.
    pub(crate) fn scheme(&self) -> AllocScheme {
        self.per_gpu[0].bufs.scheme()
    }

    /// A device's per-GPU primitive state.
    pub(crate) fn state(&self, gpu: usize) -> &P::State {
        &self.per_gpu[gpu].state
    }

    /// The primitive's per-vertex result words in global vertex order (see
    /// [`MgpuProblem::result_word`]).
    pub(crate) fn harvest(&self) -> Vec<u64> {
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
            for d in &self.admission.downgrades {
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
    /// [`EnactReport`]: iterations are the deepest device's, histories sum
    /// per superstep, and every system-derived field (`sim_time_us`,
    /// counters, memory statistics, trace) is read here and nowhere else.
    pub(crate) fn report(
        &self,
        outcomes: Vec<DeviceOutcome>,
        wall_time_us: f64,
        host_sync: HostSync,
        recovery: RecoveryLog,
    ) -> EnactReport {
        let mut iterations = 0usize;
        let mut history: Vec<SuperstepTrace> = Vec::new();
        let mut comm = CommReduction::default();
        for (i, local_hist, comm_stats) in &outcomes {
            iterations = iterations.max(*i);
            comm.merge(comm_stats);
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
        let mut governor = self.admission.clone();
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
            history,
            recovery,
            governor,
            comm,
            trace: self.config.tracing.then(|| crate::trace::Trace::collect(system)),
        }
    }
}

/// Everything one device thread owns for the duration of one enact. The
/// engines' device loops are methods of this; it is also the one owner of
/// the device's failure state.
pub(crate) struct DeviceRun<'a, V: Id, O: Id, P: MgpuProblem<V, O>> {
    pub(crate) problem: &'a P,
    pub(crate) dev: &'a mut Device,
    pub(crate) per: &'a mut PerGpu<V, P::State>,
    pub(crate) sub: &'a SubGraph<V, O>,
    pub(crate) interconnect: &'a Interconnect,
    pub(crate) mailbox: &'a Mailbox<Arc<Package<V, P::Msg>>>,
    pub(crate) config: &'a EnactConfig,
    pub(crate) rec: &'a RecoveryCounters,
    pub(crate) pkg_policy: PackagePolicy,
    /// Monotone send-suppression floors, when the config and the primitive
    /// allow them.
    pub(crate) supp: Option<SuppressState>,
    pub(crate) stats: CommReduction,
    /// The first error this device hit. Once set, the device's work is
    /// skipped ([`Self::attempt`]) while its loop keeps running.
    pub(crate) error: Option<VgpuError>,
}

impl<V: Id, O: Id, P: MgpuProblem<V, O>> DeviceRun<'_, V, O, P> {
    /// This device's id.
    pub(crate) fn gpu(&self) -> usize {
        self.dev.id()
    }

    /// The failure protocol. A device that has failed skips its work; one
    /// that has not runs `f` under [`guard`] (a panic in problem code is a
    /// lost device, not a lost process) and keeps the error if there is one.
    /// Either way the caller goes on to its next rendezvous, so no peer is
    /// left waiting for a device that stopped.
    pub(crate) fn attempt<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        match guard(self.dev.id(), || f(self)) {
            Ok(v) => Some(v),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Vertices dropped by send suppression so far.
    pub(crate) fn suppressed(&self) -> u64 {
        self.supp.as_ref().map_or(0, |s| s.suppressed_vertices)
    }

    /// The device thread's successful return value.
    pub(crate) fn finish(
        mut self,
        iterations: usize,
        history: Vec<SuperstepTrace>,
    ) -> DeviceOutcome {
        if let Some(s) = &self.supp {
            self.stats.suppressed_vertices = s.suppressed_vertices;
            self.stats.suppressed_bytes = s.suppressed_bytes;
        }
        (iterations, history, self.stats)
    }

    /// Run the primitive's unmodified single-GPU iteration on `input`.
    pub(crate) fn iterate(&mut self, input: &[V], iter: usize) -> Result<Vec<V>> {
        let per = &mut *self.per;
        self.problem.iteration(self.dev, self.sub, &mut per.state, &mut per.bufs, input, iter)
    }

    /// Split `output` into its local part and one package per remote owner
    /// (selective communication), under the run's wire policy and
    /// suppression floors.
    pub(crate) fn split(&mut self, output: &[V]) -> Result<SplitOutput<V, P::Msg>> {
        let (problem, per) = (self.problem, &mut *self.per);
        let state = &per.state;
        split_and_package_with(
            self.dev,
            self.sub,
            output,
            &mut per.bufs.split,
            |v| problem.package(state, v),
            self.pkg_policy,
            self.supp.as_mut(),
            |m| problem.suppression_key(m),
            |a, b| problem.merge_msgs(a, b),
        )
    }

    /// Push one package to `dst` on the communication stream with the
    /// transient-retry loop, charging occupancy, wire bytes and the H
    /// counters.
    ///
    /// The sender's copy engine is occupied for the bandwidth component; the
    /// wire latency only delays arrival at the peer. A transiently failed push
    /// re-occupies the link for the full retransmission plus the policy
    /// backoff; the injector checks the fault site *before* posting, so a
    /// failed send delivered nothing and re-sending cannot duplicate a package.
    pub(crate) fn post(&mut self, dst: usize, pkg: Arc<Package<V, P::Msg>>) -> Result<()> {
        let (gpu, policy) = (self.dev.id(), self.config.recovery);
        let bytes = pkg.wire_bytes();
        let charged = self.interconnect.charged_bytes(bytes);
        let occupancy = self.interconnect.occupancy_us(gpu, dst, bytes);
        let send_meta = SpanMeta::new(TraceKind::Send, "send")
            .items(pkg.len() as u64)
            .bytes(charged)
            .h_us(occupancy)
            .peer(dst);
        let mut attempts = 0u32;
        loop {
            // every attempt (including ones whose post fails) occupies the link
            // and counts toward H — the trace mirrors that with one Send span
            // per attempt, a failed one immediately followed by the Retry span
            // that takes its bytes back out of the success tallies
            let sent_at = self.dev.charge_as(COMM_STREAM, occupancy, 0.0, send_meta)?;
            self.dev.counters.h_time_us += occupancy;
            let arrived_at = sent_at + self.interconnect.latency_us(gpu, dst);
            match self.mailbox.send(gpu, dst, Event::at(arrived_at), Arc::clone(&pkg)) {
                Ok(()) => break,
                Err(e) if attempts < policy.max_retries && policy.is_transient(&e) => {
                    attempts += 1;
                    self.rec.note_transfer_retry();
                    let meta = SpanMeta::new(TraceKind::Retry, "transfer-retry").peer(dst);
                    self.dev.charge_as(COMM_STREAM, policy.retry_backoff_us, 0.0, meta)?;
                }
                Err(e) => {
                    // Not a retry and no time of its own: the run may go on
                    // (a butterfly stage falls back to direct), so the trace
                    // must say that this attempt delivered nothing either.
                    let meta = SpanMeta::new(TraceKind::Retry, "transfer-abandoned").peer(dst);
                    self.dev.charge_as(COMM_STREAM, 0.0, 0.0, meta)?;
                    return Err(e);
                }
            }
        }
        self.dev.counters.h_bytes_sent += charged;
        self.dev.counters.h_vertices += pkg.len() as u64;
        self.dev.counters.h_messages += 1;
        Ok(())
    }

    /// Receive one delivered package on the communication stream and fold it
    /// into the primitive's state — the other end of [`Self::post`].
    ///
    /// Waits for the simulated arrival, counts the bytes toward `H`, records the
    /// `Recv` span, then runs one `Combine` kernel that decodes the package, maps
    /// each wire id to a local vertex (`Selective`: owner-local, used as is;
    /// `Broadcast`: global, skipped when this device holds no copy), folds the
    /// key into the suppression floor on broadcast (whatever arrives on a
    /// broadcast was delivered to every peer), calls `problem.combine` and
    /// appends the accepted vertices to `next`. Returns the decoded block: the
    /// butterfly forwards it at its next stage.
    pub(crate) fn receive(
        &mut self,
        comm: CommStrategy,
        delivery: Delivery<Arc<Package<V, P::Msg>>>,
        next: &mut Vec<V>,
    ) -> Result<(Vec<V>, Vec<P::Msg>)> {
        let dev = &mut *self.dev;
        dev.stream_wait(COMM_STREAM, delivery.arrival)?;
        let pkg = delivery.payload;
        dev.counters.h_bytes_recv += pkg.wire_bytes();
        if dev.timeline.is_enabled() {
            // an instant span: the arrival wait has already moved the clock
            let at = dev.stream_time(COMM_STREAM);
            dev.timeline.record(TraceEvent {
                device: dev.id(),
                stream: COMM_STREAM.0,
                kind: TraceKind::Recv,
                name: "recv",
                start_us: at,
                items: pkg.len() as u64,
                bytes: pkg.wire_bytes(),
                peer: delivery.src as i64,
                ..TraceEvent::default()
            });
        }
        let (problem, sub, state) = (self.problem, self.sub, &mut self.per.state);
        let mut supp = self.supp.as_mut();
        dev.kernel(COMM_STREAM, KernelKind::Combine, || {
            let (vs, ms) = pkg.decode();
            for (&wire, m) in vs.iter().zip(ms.iter()) {
                let v = match comm {
                    CommStrategy::Selective => wire,
                    CommStrategy::Broadcast => {
                        let Some(v) = sub.from_global(wire) else { continue };
                        if let Some(s) = supp.as_deref_mut() {
                            s.observe(v.idx(), problem.suppression_key(m));
                        }
                        v
                    }
                };
                if problem.combine(state, v, m) {
                    next.push(v);
                }
            }
            ((vs.into_owned(), ms.into_owned()), pkg.len() as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::MinLabel;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::Duplication;
    use vgpu::{BspCounters, HardwareProfile};

    #[test]
    fn kind_labels_and_timing() {
        assert_eq!(ExecutorKind::Bsp.label(), "bsp");
        assert_eq!(ExecutorKind::Async.label(), "async");
        assert_eq!(ExecutorKind::Resilient.label(), "resilient");
        assert!(ExecutorKind::Bsp.deterministic_timing());
        assert!(ExecutorKind::Resilient.deterministic_timing());
        assert!(!ExecutorKind::Async.deterministic_timing());
    }

    /// A 6-cycle over two 1-hop parts: part 1 holds globals [3, 4, 5 | 0, 2].
    fn six_cycle() -> DistGraph<u32, u64> {
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(6, edges, None));
        DistGraph::build(&g, vec![0, 0, 0, 1, 1, 1], 2, Duplication::OneHop)
    }

    /// Bind `MinLabel` to `dg` on two K40s and run `f` as device 1's loop, on
    /// the context a real enact would hand it. What `f` saw comes back to the
    /// test thread, where a failed assertion is a failed test rather than a
    /// lost device.
    fn on_device_1<T: Send>(
        dg: &DistGraph<u32, u64>,
        config: EnactConfig,
        f: impl Fn(&mut DeviceRun<'_, u32, u64, MinLabel>) -> T + Sync,
    ) -> T {
        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let mut bound = Bound::new(system, dg, MinLabel, config).unwrap();
        let launched =
            bound.launch(None, 0, |mut run, _| Ok((run.gpu() == 1).then(|| f(&mut run))));
        launched.outcome.unwrap().pop().flatten().expect("device 1 is the last of two")
    }

    #[test]
    fn attempt_skips_work_after_the_first_error_and_keeps_that_error() {
        let seen = on_device_1(&six_cycle(), EnactConfig::default(), |run| {
            let clean = run.attempt(|_| Ok(7));
            let after_clean = run.error.clone();
            let failing =
                run.attempt(|_| -> Result<u32> { Err(VgpuError::KernelFailed { device: 1 }) });
            let mut later_ran = false;
            let later = run.attempt(|_| -> Result<u32> {
                later_ran = true;
                Err(VgpuError::Aborted)
            });
            (clean, after_clean, failing, later, later_ran, run.error.clone())
        });
        let first = VgpuError::KernelFailed { device: 1 };
        assert_eq!(seen, (Some(7), None, None, None, false, Some(first)));
    }

    #[test]
    fn attempt_turns_a_panic_into_a_lost_device() {
        let seen = on_device_1(&six_cycle(), EnactConfig::default(), |run| {
            let out = run.attempt(|_| -> Result<u32> { panic!("poisoned problem code") });
            (out, run.error.clone())
        });
        assert_eq!(seen, (None, Some(VgpuError::DeviceLost { device: 1 })));
    }

    /// One delivery combined under each strategy. Everything asserted here
    /// was written down from `combine_received` — the direct path's own copy
    /// of this code — for this fixture, before the four copies became one;
    /// the kernel time is 3 µs of launch plus 4 items at the bound device's
    /// id-width factor (u32 ids over u64 offsets: 1.2).
    #[test]
    fn receive_charges_and_combines_like_the_copies_it_replaced() {
        let dg = six_cycle();
        let n_local = dg.parts[1].n_vertices();
        // ids 0,1,2,4 are owner-local under Selective and global under
        // Broadcast, where global 1 has no copy on part 1
        let cases = [
            (CommStrategy::Selective, vec![2, 0, 2, 4], vec![7, 4, 3, u32::MAX, 6], [true; 5]),
            (
                CommStrategy::Broadcast,
                vec![2, 3, 4],
                vec![u32::MAX, 4, u32::MAX, 7, 3],
                [true, false, true, true, false],
            ),
        ];
        let traced = EnactConfig { tracing: true, ..EnactConfig::default() };
        for (comm, want_next, want_state, admits_key_6) in cases {
            let (block, next, state, comm_clock, counters, events, admitted) =
                on_device_1(&dg, traced, |run| {
                    run.per.state = vec![u32::MAX; n_local];
                    run.per.state[1] = 4; // a label the delivery cannot improve
                    run.supp = Some(SuppressState::new(n_local));
                    let pkg: Package<u32, u32> = Package::encode(
                        vec![0, 1, 2, 4],
                        vec![7, 9, 3, 6],
                        crate::comm::WireEncoding::Auto,
                        Some(6),
                        None,
                    );
                    assert_eq!(pkg.wire_bytes(), 22);
                    let delivery =
                        Delivery { src: 0, arrival: Event::at(50.0), payload: Arc::new(pkg) };
                    let mut next = vec![2];
                    let block = run.receive(comm, delivery, &mut next).unwrap();
                    let supp = run.supp.as_mut().unwrap();
                    let admitted: Vec<bool> = (0..5).map(|v| supp.admit(v, 6, 0)).collect();
                    (
                        block,
                        next,
                        run.per.state.clone(),
                        run.dev.stream_time(COMM_STREAM),
                        run.dev.counters,
                        run.dev.timeline.events().to_vec(),
                        admitted,
                    )
                });
            assert_eq!(block, (vec![0, 1, 2, 4], vec![7, 9, 3, 6]), "{comm:?}: decoded block");
            assert_eq!(next, want_next, "{comm:?}");
            assert_eq!(state, want_state, "{comm:?}");
            assert_eq!(comm_clock, 53.0008, "{comm:?}");
            assert_eq!(
                counters,
                BspCounters {
                    c_items: 4,
                    h_bytes_recv: 22,
                    kernel_launches: 1,
                    c_time_us: 3.0008,
                    ..BspCounters::default()
                },
                "{comm:?}"
            );
            let recv = TraceEvent {
                device: 1,
                stream: COMM_STREAM.0,
                kind: TraceKind::Recv,
                name: "recv",
                start_us: 50.0,
                items: 4,
                bytes: 22,
                peer: 0,
                ..TraceEvent::default()
            };
            let combine = TraceEvent {
                device: 1,
                stream: COMM_STREAM.0,
                kind: TraceKind::CommKernel,
                name: "combine",
                start_us: 50.0,
                dur_us: 3.0008,
                items: 4,
                ..TraceEvent::default()
            };
            assert_eq!(events, [recv, combine], "{comm:?}");
            // only a broadcast folds what arrived into the suppression floors
            assert_eq!(admitted, admits_key_6, "{comm:?}");
        }
    }
}
