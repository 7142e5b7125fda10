//! The multi-GPU enactor: one dedicated CPU thread per device, BSP
//! supersteps with framework-managed communication (§III-B, Fig. 1).
//!
//! [`Runner`] is a [`Bound`] problem plus the superstep loop below, written
//! as methods of the per-device context [`DeviceRun`]
//! ([`crate::executor`]). Per iteration, each device thread:
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
//! Steps 1–3 are [`DeviceRun::direct_superstep`], or
//! [`DeviceRun::butterfly_superstep`] when a broadcast superstep of a
//! monotone primitive is staged through the dissemination exchange; step 4
//! and the loop are [`DeviceRun::supersteps`]. Only what varies per
//! superstep is passed between them (`input`, `iter`, the strategy, the
//! `SyncPoint`, the superstep's history entry); the rendezvous schedule —
//! `sync`, the butterfly's block groups and its stash of early arrivals —
//! is BSP-only and never enters the context.
//!
//! Every piece of per-device work runs through [`DeviceRun::attempt`]: a
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

use std::sync::Arc;

use mgpu_graph::Id;
use mgpu_partition::DistGraph;
use vgpu::sync::{Contribution, Delivery};
use vgpu::{
    KernelKind, Result, SimSystem, SyncPoint, TraceEvent, TraceKind, VgpuError, COMM_STREAM,
    COMPUTE_STREAM,
};

use crate::alloc::AllocScheme;
use crate::comm::{
    broadcast_block, broadcast_package_with, canonicalize_ordered, CommStrategy, CommTopology,
    Package, WireEncoding,
};
use crate::executor::{Bound, DeviceOutcome, DeviceRun, Executor, ExecutorKind};
use crate::governor::{Downgrade, PressurePolicy};
use crate::problem::MgpuProblem;
use crate::report::{EnactReport, HostSync, SuperstepTrace};
use crate::resilience::{guard, CheckpointSink, GlobalCheckpoint, RecoveryLog, RecoveryPolicy};

/// Per-enact configuration overrides. The default wire is the measured-best
/// one: `Auto` encoding with monotone suppression over the direct topology.
#[derive(Debug, Clone, Copy)]
pub struct EnactConfig {
    /// Override the primitive's allocation scheme (Fig. 3 sweeps this).
    pub alloc_scheme: Option<AllocScheme>,
    /// Override the primitive's communication strategy.
    pub comm: Option<CommStrategy>,
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

/// A primitive bound to a partitioned graph on a system: initialize once,
/// enact many times (the paper's `Init` / `Reset`+`Enact` split).
pub struct Runner<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    pub(crate) bound: Bound<'g, V, O, P>,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Runner<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system`: reserves each subgraph's
    /// topology in device memory, initializes per-GPU state and allocates
    /// the scheme-managed frontier buffers. A system with a device count
    /// other than `dist.n_parts` is [`VgpuError::BadDevice`].
    pub fn new(
        system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: EnactConfig,
    ) -> Result<Self> {
        Ok(Runner { bound: Bound::new(system, dist, problem, config)? })
    }

    /// Record a downgrade decision a higher layer took before (re)binding —
    /// e.g. a driver that re-partitioned `duplicate-all → duplicate-1-hop`
    /// or dropped a broadcast override after an admission refusal. It shows
    /// up in every subsequent report's governor log.
    pub fn note_downgrade(&mut self, d: Downgrade) {
        self.bound.admission.downgrades.push(d);
    }

    /// The allocation scheme in force.
    pub fn scheme(&self) -> AllocScheme {
        self.bound.scheme()
    }

    /// Access the underlying system (for memory / counter inspection).
    pub fn system(&self) -> &SimSystem {
        &self.bound.system
    }

    /// Run one traversal from `src` (a *global* vertex id; `None` for
    /// primitives without a source, e.g. PR and CC). Device clocks and
    /// counters are reset so each enact reports an independent measurement.
    pub fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        let interval = self.bound.config.recovery.checkpoint_interval;
        let sink = CheckpointSink::new(self.bound.dist.n_parts, interval);
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
        let sync = SyncPoint::new(self.bound.dist.n_parts);
        // a resumed attempt stamps absolute superstep numbers on its trace
        let first = resume.map_or(0, |ck| ck.iter);
        let launched = self
            .bound
            .launch(src, first, |run, src_local| run.supersteps(src_local, &sync, sink, resume));
        let log = RecoveryLog {
            checkpoints_taken: sink.taken(),
            resumed_at: resume.map(|ck| ck.iter),
            ..launched.log
        };
        let host_sync = HostSync { per_device: sync.host_stats() };
        let report = launched
            .outcome
            .map(|done| self.bound.report(done, launched.wall_time_us, host_sync, log.clone()));
        (report, log)
    }

    /// Access a device's per-GPU primitive state (e.g. to read labels or
    /// ranks after an enact).
    pub fn state(&self, gpu: usize) -> &P::State {
        self.bound.state(gpu)
    }

    /// Read the primitive's per-vertex result words in global vertex order
    /// (see [`MgpuProblem::result_word`]).
    pub fn harvest(&self) -> Vec<u64> {
        self.bound.harvest()
    }
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Executor<V> for Runner<'g, V, O, P> {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Bsp
    }

    fn primitive(&self) -> &'static str {
        self.bound.problem.name()
    }

    fn n_devices(&self) -> usize {
        self.bound.dist.n_parts
    }

    fn recovery_policy(&self) -> RecoveryPolicy {
        self.bound.config.recovery
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
        let max_iterations = self.problem.max_iterations();
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
        // History indices are *dense absolute superstep numbers*: a resumed
        // attempt pads the supersteps it skipped with defaults so entry `i`
        // always describes superstep `i` and `history.len() == iterations`,
        // whether or not stages were elided or a checkpoint was replayed.
        let mut history: Vec<SuperstepTrace> = vec![SuperstepTrace::default(); iter];
        loop {
            let mut trace = SuperstepTrace { input: input.len() as u64, ..Default::default() };
            let sent_before = self.dev.counters.h_vertices;
            let supp_before = self.suppressed();
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
                self.butterfly_superstep(&input, iter, sync, &mut trace)
            } else {
                self.direct_superstep(&input, iter, comm, sync, &mut trace)
            };

            trace.sent = self.dev.counters.h_vertices - sent_before;
            trace.combined = next_input.len() as u64; // local part + combined adds
            trace.suppressed = self.suppressed() - supp_before;
            history.push(trace);

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
            let reduce = sync.superstep(gpu, my_time, locally_done, contribution);
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
                if policy.evict_stragglers {
                    // The straggler self-identifies (its barrier time *is* the
                    // max, bitwise); everyone exits at this same superstep.
                    return Err(if my_time == reduce.max_time_us {
                        VgpuError::Timeout { device: gpu }
                    } else {
                        self.error.take().unwrap_or(VgpuError::Aborted)
                    });
                }
            }

            if reduce.abort_count > 0 {
                return Err(self.error.take().unwrap_or(VgpuError::Aborted));
            }
            if reduce.done_count == n
                || self.problem.globally_done(&reduce, iter)
                || iter >= max_iterations
            {
                // a failure after this superstep's reduce (in after_superstep)
                // is not yet visible to peers — surface it here
                return match self.error.take() {
                    Some(e) => Err(e),
                    None => Ok(self.finish(iter, history)),
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
        trace: &mut SuperstepTrace,
    ) -> Vec<V> {
        let gpu = self.gpu();
        let local =
            self.attempt(|run| run.compute_and_send(input, iter, comm, trace)).unwrap_or_default();
        sync.rendezvous(gpu);
        // drained whether or not this device still works: inboxes stay clean
        // for the peers
        let arrived = self.mailbox.drain(gpu);
        self.attempt(|run| run.combine_received(comm, arrived, local)).unwrap_or_default()
    }

    /// Run the primitive's iteration on `input`, split and package its
    /// output for `comm`, push the packages, and return the local part.
    /// `trace.output` is written once everything has been pushed.
    fn compute_and_send(
        &mut self,
        input: &[V],
        iter: usize,
        comm: CommStrategy,
        trace: &mut SuperstepTrace,
    ) -> Result<Vec<V>> {
        let (gpu, n, problem) = (self.gpu(), self.mailbox.n(), self.problem);
        let output = self.iterate(input, iter)?;
        let output_len = output.len() as u64;

        type Sends<V, M> = Vec<(usize, Arc<Package<V, M>>)>;
        let (local, sends): (Vec<V>, Sends<V, P::Msg>) = if n == 1 {
            (output, Vec::new())
        } else {
            match comm {
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
            }
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
        trace.output = output_len;
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
    fn butterfly_superstep(
        &mut self,
        input: &[V],
        iter: usize,
        sync: &SyncPoint,
        trace: &mut SuperstepTrace,
    ) -> Vec<V> {
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
            trace.output = output.len() as u64;
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
                    Err(e) if policy.fallback_to_direct && policy.is_transient(&e) => Ok(true),
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
            let reduce = sync.superstep(gpu, self.dev.now(), false, vote);
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
        sync.rendezvous(gpu);

        // ---- drain & combine; a stable sort by sender keeps combine order
        // independent of thread scheduling (stash entries from one sender were
        // posted in that sender's program order) ----
        stash.extend(self.mailbox.drain(gpu));
        stash.sort_by_key(|d| d.src);
        self.attempt(|run| run.combine_received(CommStrategy::Broadcast, stash, next))
            .unwrap_or_default()
    }

    /// Encode this device's owned vertices (global-id keyed) and its owned
    /// slice of the next frontier, and offer them to the sink. The encode pass
    /// is metered as a bulk kernel over the owned set.
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
