//! An asynchronous (Groute-style) enactor — the §II-A contemporary.
//!
//! Groute [18] "leveraged asynchronous computation to demonstrate
//! impressive multi-GPU performance particularly on high-diameter,
//! road-network-like graphs, and primitives that can benefit from
//! prioritized data communication, such as SSSP and CC". The mechanism:
//! devices do **not** synchronize at iteration boundaries. Each device
//! loops — drain inbox, combine, relax its pending frontier, push updates —
//! and the whole computation ends with distributed termination detection
//! (all devices idle and no messages in flight).
//!
//! Trade-offs faithfully reproduced:
//!
//! * no `S·l` term: deep, narrow traversals stop paying a global barrier
//!   per level — the road-network win;
//! * stale reads: relaxations may use values a peer has already improved,
//!   so *label-correcting* primitives are required (monotonic `combine`,
//!   iteration logic independent of the superstep index — SSSP, CC, and
//!   label-correcting BFS qualify; DOBFS and BC do not), and total work
//!   `W` can exceed the BSP schedule's;
//! * simulated time is scheduling-dependent (asynchrony is inherently
//!   non-deterministic), unlike the BSP enactor's exactly reproducible
//!   clocks. Results still converge to the same fixpoint.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

use mgpu_graph::Id;
use mgpu_partition::{DistGraph, SubGraph};
use parking_lot::Mutex;
use vgpu::memory::Reservation;
use vgpu::sync::harvest_device_thread;
use vgpu::{Device, Interconnect, Mailbox, Result, SimSystem, VgpuError, COMM_STREAM, COMPUTE_STREAM};

use crate::alloc::FrontierBufs;
use crate::comm::{
    split_and_package_with, CommStrategy, Package, PackagePolicy, SuppressState, WireEncoding,
};
use crate::enactor::EnactConfig;
use crate::executor::{assemble_report, post_package, receive_package, Executor, ExecutorKind};
use crate::problem::MgpuProblem;
use crate::report::{CommReduction, EnactReport, HostSync};
use crate::resilience::{guard, RecoveryCounters, RecoveryLog, RecoveryPolicy};

/// An asynchronous runner for label-correcting primitives.
///
/// The primitive contract beyond [`MgpuProblem`]: `iteration` must be a
/// pure relaxation of its input frontier (no dependence on the iteration
/// index), `combine` must be monotonic (repeated application converges),
/// and communication must be selective. SSSP and CC satisfy this;
/// [`crate::enactor::Runner`] remains the home of BSP-only primitives.
pub struct AsyncRunner<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    system: SimSystem,
    dist: &'g DistGraph<V, O>,
    problem: P,
    per_gpu: Vec<AsyncPerGpu<V, P::State>>,
    encoding: WireEncoding,
    suppression: bool,
    tracing: bool,
    recovery: RecoveryPolicy,
}

struct AsyncPerGpu<V: Id, S> {
    state: S,
    bufs: FrontierBufs<V>,
    _topology: Reservation,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> AsyncRunner<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system` (see [`crate::Runner::new`]).
    pub fn new(system: SimSystem, dist: &'g DistGraph<V, O>, problem: P) -> Result<Self> {
        Self::with_config(system, dist, problem, &EnactConfig::default())
    }

    /// [`AsyncRunner::new`] with an explicit configuration. The async path
    /// honours `wire_encoding`, `suppression`, `recovery` and `pressure`
    /// from the config; `comm_topology` does not apply (there are no
    /// supersteps to stage a collective over) and is ignored.
    pub fn with_config(
        mut system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: &EnactConfig,
    ) -> Result<Self> {
        assert_eq!(system.n_devices(), dist.n_parts);
        let scheme = problem.alloc_scheme();
        let host_link = system.interconnect.host_link();
        let mut per_gpu = Vec::with_capacity(dist.n_parts);
        for (dev, sub) in system.devices.iter_mut().zip(dist.parts.iter()) {
            let topology = dev.pool().reserve_external(sub.topology_bytes())?;
            let cost = dev.profile().local_copy_us(sub.topology_bytes());
            dev.charge(COMPUTE_STREAM, cost, 0.0)?;
            let state = problem.init(dev, sub)?;
            let bufs = FrontierBufs::new(dev, scheme, sub.n_vertices(), sub.n_edges())?
                .with_pressure(config.pressure, host_link);
            per_gpu.push(AsyncPerGpu { state, bufs, _topology: topology });
        }
        Ok(AsyncRunner {
            system,
            dist,
            problem,
            per_gpu,
            encoding: config.wire_encoding,
            suppression: config.suppression,
            tracing: config.tracing,
            recovery: config.recovery,
        })
    }

    /// Run one traversal asynchronously from `src` (global id).
    pub fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        self.system.reset_clocks();
        if self.tracing {
            // Async mode has no supersteps: every span stays stamped 0 and
            // no sync spans are recorded (the profiler skips its makespan
            // reconstruction accordingly).
            for dev in &mut self.system.devices {
                dev.timeline.enable();
                dev.timeline.clear();
            }
        }
        // Fresh mid-run governor decisions per enact (mirrors the BSP path).
        for per in &mut self.per_gpu {
            per.bufs.reset_governor();
        }
        let n = self.dist.n_parts;
        let located = src.map(|g| self.dist.locate(g));
        let mailbox: Mailbox<Arc<Package<V, P::Msg>>> =
            Mailbox::with_faults(n, self.system.fault_injector());
        // Distributed termination: messages in flight + busy device count.
        let in_flight = AtomicI64::new(0);
        let busy = AtomicUsize::new(n);
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<VgpuError>> = Mutex::new(None);
        let policy = self.recovery;
        let rec = RecoveryCounters::default();
        let fired_before = self.system.fault_injector().map_or(0, |inj| inj.fired());
        let problem = &self.problem;
        let interconnect = std::sync::Arc::clone(&self.system.interconnect);
        let monotone = problem.monotone();
        let pkg_policy = PackagePolicy {
            encoding: self.encoding,
            monotone,
            uniform_hint: problem.uniform_broadcast_msgs(),
            order: problem.monotone_order(),
        };
        let suppression = self.suppression && monotone && n > 1;

        let t0 = Instant::now();
        let rounds: Vec<Result<(usize, CommReduction)>> = std::thread::scope(|scope| {
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
                let mailbox = &mailbox;
                let in_flight = &in_flight;
                let busy = &busy;
                let abort = &abort;
                let first_error = &first_error;
                let policy = &policy;
                let rec = &rec;
                let interconnect = std::sync::Arc::clone(&interconnect);
                handles.push(scope.spawn(move || {
                    run_async_gpu(
                        problem,
                        dev,
                        per,
                        sub,
                        &interconnect,
                        mailbox,
                        in_flight,
                        busy,
                        abort,
                        first_error,
                        src_local,
                        pkg_policy,
                        suppression,
                        policy,
                        rec,
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
        let transfer_retries = rec.transfer_retries.load(SeqCst);
        let recovery = RecoveryLog {
            kernel_retries,
            transfer_retries,
            faults_injected: fired_after - fired_before,
            backoff_us: (kernel_retries + transfer_retries) as f64 * policy.retry_backoff_us,
            ..RecoveryLog::default()
        };

        if abort.load(SeqCst) {
            return Err(first_error.lock().take().unwrap_or(VgpuError::Aborted));
        }
        let mut max_rounds = 0usize;
        let mut comm_acc = CommReduction::default();
        for r in rounds {
            let (rounds_done, comm_stats) = r?;
            max_rounds = max_rounds.max(rounds_done);
            comm_acc.merge(&comm_stats);
        }
        let governor = {
            let mut gov = crate::governor::GovernorLog::default();
            for per in &self.per_gpu {
                gov.absorb(per.bufs.governor());
            }
            gov
        };
        Ok(assemble_report(
            &self.system,
            self.problem.name(),
            n,
            max_rounds,
            wall_time_us,
            HostSync::default(), // no rendezvous: termination is detected, not voted
            Vec::new(),          // async mode has no superstep structure
            recovery,
            governor,
            comm_acc,
            self.tracing,
        ))
    }

    /// Access a device's primitive state after an enact.
    pub fn state(&self, gpu: usize) -> &P::State {
        &self.per_gpu[gpu].state
    }

    /// The underlying system.
    pub fn system(&self) -> &SimSystem {
        &self.system
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

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Executor<V> for AsyncRunner<'g, V, O, P> {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Async
    }

    fn primitive(&self) -> &'static str {
        self.problem.name()
    }

    fn n_devices(&self) -> usize {
        self.dist.n_parts
    }

    fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        AsyncRunner::enact(self, src)
    }

    fn harvest(&self) -> Vec<u64> {
        AsyncRunner::harvest(self)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_async_gpu<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    per: &mut AsyncPerGpu<V, P::State>,
    sub: &SubGraph<V, O>,
    interconnect: &Interconnect,
    mailbox: &Mailbox<Arc<Package<V, P::Msg>>>,
    in_flight: &AtomicI64,
    busy: &AtomicUsize,
    abort: &AtomicBool,
    first_error: &Mutex<Option<VgpuError>>,
    src_local: Option<V>,
    pkg_policy: PackagePolicy,
    suppression: bool,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
) -> Result<(usize, CommReduction)> {
    let gpu = dev.id();
    let fail = |e: VgpuError| {
        first_error.lock().get_or_insert(e);
        abort.store(true, SeqCst);
    };
    // Suppression is sound here for the same reason it is in the BSP path:
    // remote state only ever improves (async requires a monotone combiner),
    // so a key at or above the floor would be rejected by every receiver.
    let mut supp: Option<SuppressState> =
        suppression.then(|| SuppressState::with_order(sub.n_vertices(), pkg_policy.order));
    let mut stats = CommReduction::default();

    let mut pending: Vec<V> =
        match guard(gpu, || problem.reset(dev, sub, &mut per.state, src_local)) {
            Ok(f) => f,
            Err(e) => {
                fail(e);
                Vec::new()
            }
        };
    let mut rounds = 0usize;
    let mut idle = false;
    if pending.is_empty() {
        busy.fetch_sub(1, SeqCst);
        idle = true;
    }

    loop {
        if abort.load(SeqCst) {
            if !idle {
                busy.fetch_sub(1, SeqCst);
            }
            return Err(first_error.lock().clone().unwrap_or(VgpuError::Aborted));
        }

        // --- drain & combine whatever has arrived ---
        let deliveries = mailbox.drain(gpu);
        if !deliveries.is_empty() && idle {
            busy.fetch_add(1, SeqCst);
            idle = false;
        }
        for delivery in deliveries {
            // The message leaves flight whether or not the combine succeeds —
            // otherwise a failing device would wedge termination detection.
            let combined = guard(gpu, || {
                // selective wire ids are owner-local: combine directly
                receive_package(
                    problem,
                    dev,
                    sub,
                    &mut per.state,
                    CommStrategy::Selective,
                    None,
                    delivery,
                    &mut pending,
                )
            });
            in_flight.fetch_sub(1, SeqCst);
            if let Err(e) = combined {
                fail(e);
            }
        }
        // combine output feeds the next relaxation
        if !pending.is_empty() {
            let ev = dev.record_event(COMM_STREAM);
            if let Err(e) = dev.stream_wait(COMPUTE_STREAM, ev) {
                fail(e);
            }
        }

        if pending.is_empty() {
            if !idle {
                busy.fetch_sub(1, SeqCst);
                idle = true;
            }
            // termination: nobody busy, nothing in flight, inbox empty
            if busy.load(SeqCst) == 0 && in_flight.load(SeqCst) == 0 && mailbox.is_empty(gpu) {
                if let Some(s) = supp.as_ref() {
                    stats.suppressed_vertices = s.suppressed_vertices;
                    stats.suppressed_bytes = s.suppressed_bytes;
                }
                return Ok((rounds, stats));
            }
            std::thread::yield_now();
            continue;
        }

        // --- relax the pending frontier ---
        let input = std::mem::take(&mut pending);
        let supp_ref = &mut supp;
        let stats_ref = &mut stats;
        let outcome = guard(gpu, || -> Result<Vec<V>> {
            let output =
                problem.iteration(dev, sub, &mut per.state, &mut per.bufs, &input, rounds)?;
            let state = &per.state;
            let (local, pkgs) = split_and_package_with(
                dev,
                sub,
                &output,
                &mut per.bufs.split,
                |v| problem.package(state, v),
                pkg_policy,
                supp_ref.as_mut(),
                |m| problem.suppression_key(m),
                |a, b| problem.merge_msgs(a, b),
            )?;
            if pkgs.iter().any(Option::is_some) {
                let ready = dev.record_event(COMPUTE_STREAM);
                dev.stream_wait(COMM_STREAM, ready)?;
            }
            for (peer, pkg) in pkgs.into_iter().enumerate() {
                let Some(pkg) = pkg else { continue };
                stats_ref.count_package(pkg.encoding());
                // The shared BSP `post_package` body: transient-retry loop
                // where every attempt occupies the link and counts toward H.
                post_package(dev, interconnect, mailbox, peer, Arc::new(pkg), policy, rec)?;
                // Count the message in flight only once it is actually
                // posted; a faulted send must not wedge termination.
                in_flight.fetch_add(1, SeqCst);
            }
            Ok(local)
        });
        match outcome {
            Ok(local) => pending = local,
            Err(e) => fail(e),
        }
        rounds += 1;
        if rounds > 10_000_000 {
            fail(VgpuError::Aborted); // runaway safety net
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::MinLabel;
    use mgpu_partition::{Duplication, RandomPartitioner};
    use vgpu::HardwareProfile;

    // The async enactor is validated end-to-end in the primitives/bench
    // crates (it needs a label-correcting primitive); here we only check
    // construction-time invariants.
    #[test]
    #[should_panic(expected = "assertion")]
    fn mismatched_device_count_is_rejected() {
        use mgpu_graph::{Coo, Csr, GraphBuilder};
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(4, vec![(0, 1)], None));
        let dist = DistGraph::partition(&g, &RandomPartitioner::default(), 2, Duplication::All);
        let system = SimSystem::homogeneous(3, HardwareProfile::k40());
        let _ = AsyncRunner::new(system, &dist, MinLabel);
    }
}
