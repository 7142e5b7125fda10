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
//!
//! [`AsyncRunner`] is the same [`Bound`] state the BSP `Runner` holds — one
//! bind, one harvest, one enact scaffold ([`crate::executor`]) — plus the
//! relaxation loop below, a method of the same per-device context.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use mgpu_graph::Id;
use mgpu_partition::DistGraph;
use vgpu::{Result, SimSystem, VgpuError, COMM_STREAM, COMPUTE_STREAM};

use crate::alloc::AllocScheme;
use crate::comm::CommStrategy;
use crate::enactor::EnactConfig;
use crate::executor::{Bound, DeviceOutcome, DeviceRun, Executor, ExecutorKind};
use crate::problem::MgpuProblem;
use crate::report::{EnactReport, HostSync};
use crate::resilience::RecoveryPolicy;

/// An asynchronous runner for label-correcting primitives.
///
/// The primitive contract beyond [`MgpuProblem`]: `iteration` must be a
/// pure relaxation of its input frontier (no dependence on the iteration
/// index), `combine` must be monotonic (repeated application converges),
/// and communication must be selective. SSSP and CC satisfy this;
/// [`crate::enactor::Runner`] remains the home of BSP-only primitives.
pub struct AsyncRunner<'g, V: Id, O: Id, P: MgpuProblem<V, O>> {
    bound: Bound<'g, V, O, P>,
}

/// Distributed termination detection, shared by the device threads of one
/// enact: the run is over when nobody is busy and nothing is in flight.
struct Termination {
    in_flight: AtomicI64,
    busy: AtomicUsize,
    /// Raised by a device that failed; every device leaves at its next round.
    abort: AtomicBool,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> AsyncRunner<'g, V, O, P> {
    /// Bind `problem` to `dist` on `system` under the default configuration
    /// (see [`crate::Runner::new`]).
    pub fn new(system: SimSystem, dist: &'g DistGraph<V, O>, problem: P) -> Result<Self> {
        Self::with_config(system, dist, problem, &EnactConfig::default())
    }

    /// [`AsyncRunner::new`] with an explicit configuration. The bind is
    /// [`crate::Runner::new`]'s: every field that acts there (`alloc_scheme`,
    /// `kernel_threads`, `pressure` with its admission walk) acts here, and a
    /// device-count mismatch is the same [`VgpuError::BadDevice`]. The
    /// relaxation loop honours `wire_encoding`, `suppression`, `tracing` and
    /// the retry half of `recovery`; it has no supersteps, so `comm`,
    /// `comm_topology`, the primitive's iteration cap and checkpoints do not
    /// apply.
    pub fn with_config(
        system: SimSystem,
        dist: &'g DistGraph<V, O>,
        problem: P,
        config: &EnactConfig,
    ) -> Result<Self> {
        Ok(AsyncRunner { bound: Bound::new(system, dist, problem, *config)? })
    }

    /// Run one traversal asynchronously from `src` (global id). The trace of
    /// an async run has no supersteps: every span stays stamped 0 and no
    /// sync spans are recorded (the profiler skips its makespan
    /// reconstruction accordingly).
    pub fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        let term = Termination {
            in_flight: AtomicI64::new(0),
            busy: AtomicUsize::new(self.bound.dist.n_parts),
            abort: AtomicBool::new(false),
        };
        let launched = self.bound.launch(src, 0, |run, src_local| run.relax(src_local, &term));
        // no rendezvous: termination is detected, not voted
        let host_sync = HostSync::default();
        Ok(self.bound.report(launched.outcome?, launched.wall_time_us, host_sync, launched.log))
    }

    /// The allocation scheme in force.
    pub fn scheme(&self) -> AllocScheme {
        self.bound.scheme()
    }

    /// Access a device's primitive state after an enact.
    pub fn state(&self, gpu: usize) -> &P::State {
        self.bound.state(gpu)
    }

    /// The underlying system.
    pub fn system(&self) -> &SimSystem {
        &self.bound.system
    }

    /// Read the primitive's per-vertex result words in global vertex order
    /// (see [`MgpuProblem::result_word`]).
    pub fn harvest(&self) -> Vec<u64> {
        self.bound.harvest()
    }
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O>> Executor<V> for AsyncRunner<'g, V, O, P> {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Async
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
        AsyncRunner::enact(self, src)
    }

    fn harvest(&self) -> Vec<u64> {
        AsyncRunner::harvest(self)
    }
}

impl<V: Id, O: Id, P: MgpuProblem<V, O>> DeviceRun<'_, V, O, P> {
    /// The per-device relaxation loop: drain and combine whatever has
    /// arrived, relax the pending frontier, push updates, until `term` says
    /// the whole system is quiet. A device that fails raises `term.abort` and
    /// leaves with its own error; its peers leave with `Aborted`.
    ///
    /// Suppression is sound here for the same reason it is in the BSP path:
    /// remote state only ever improves (async requires a monotone combiner),
    /// so a key at or above the floor would be rejected by every receiver.
    fn relax(mut self, src_local: Option<V>, term: &Termination) -> Result<DeviceOutcome> {
        let gpu = self.gpu();
        let reset =
            self.attempt(|run| run.problem.reset(run.dev, run.sub, &mut run.per.state, src_local));
        let mut pending: Vec<V> = reset.unwrap_or_default();
        let mut rounds = 0usize;
        let mut idle = false;
        if pending.is_empty() {
            term.busy.fetch_sub(1, SeqCst);
            idle = true;
        }

        loop {
            if self.error.is_some() {
                term.abort.store(true, SeqCst);
            }
            if term.abort.load(SeqCst) {
                if !idle {
                    term.busy.fetch_sub(1, SeqCst);
                }
                return Err(self.error.take().unwrap_or(VgpuError::Aborted));
            }

            // --- drain & combine whatever has arrived ---
            let deliveries = self.mailbox.drain(gpu);
            if !deliveries.is_empty() && idle {
                term.busy.fetch_add(1, SeqCst);
                idle = false;
            }
            for delivery in deliveries {
                // selective wire ids are owner-local: combine directly
                self.attempt(|run| run.receive(CommStrategy::Selective, delivery, &mut pending));
                // The message leaves flight whether or not the combine
                // succeeds — otherwise a failing device would wedge
                // termination detection.
                term.in_flight.fetch_sub(1, SeqCst);
            }
            // combine output feeds the next relaxation
            if !pending.is_empty() {
                self.attempt(|run| {
                    let ev = run.dev.record_event(COMM_STREAM);
                    run.dev.stream_wait(COMPUTE_STREAM, ev)
                });
            }

            if pending.is_empty() {
                if !idle {
                    term.busy.fetch_sub(1, SeqCst);
                    idle = true;
                }
                // termination: nobody busy, nothing in flight, inbox empty
                if self.error.is_none()
                    && term.busy.load(SeqCst) == 0
                    && term.in_flight.load(SeqCst) == 0
                    && self.mailbox.is_empty(gpu)
                {
                    return Ok(self.finish(rounds, Vec::new())); // no superstep structure
                }
                std::thread::yield_now();
                continue;
            }

            // --- relax the pending frontier ---
            let input = std::mem::take(&mut pending);
            pending = self.attempt(|run| run.relax_round(&input, rounds, term)).unwrap_or_default();
            rounds += 1;
            if rounds > 10_000_000 {
                self.error.get_or_insert(VgpuError::Aborted); // runaway safety net
            }
        }
    }

    /// One relaxation: iterate on `input`, split the output, push the remote
    /// parts, return the local part.
    fn relax_round(&mut self, input: &[V], round: usize, term: &Termination) -> Result<Vec<V>> {
        let output = self.iterate(input, round)?;
        let (local, pkgs) = self.split(&output)?;
        if pkgs.iter().any(Option::is_some) {
            let ready = self.dev.record_event(COMPUTE_STREAM);
            self.dev.stream_wait(COMM_STREAM, ready)?;
        }
        for (peer, pkg) in pkgs.into_iter().enumerate() {
            let Some(pkg) = pkg else { continue };
            self.stats.count_package(pkg.encoding());
            self.post(peer, Arc::new(pkg))?;
            // Count the message in flight only once it is actually
            // posted; a faulted send must not wedge termination.
            term.in_flight.fetch_add(1, SeqCst);
        }
        Ok(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::PressurePolicy;
    use crate::problem::testing::MinLabel;
    use crate::Runner;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{Duplication, RandomPartitioner};
    use vgpu::HardwareProfile;

    // The async enactor is validated end-to-end in the primitives/bench
    // crates (it needs a label-correcting primitive); here we only check
    // what binding promises.

    /// 64 vertices, each joined to its next eight: enough edges that `Max`
    /// preallocates several times what `Fixed` does.
    fn ring_of_eights() -> Csr<u32, u64> {
        let edges = (0..64u32).flat_map(|v| (1..=8).map(move |d| (v, (v + d) % 64))).collect();
        GraphBuilder::undirected(&Coo::from_edges(64, edges, None))
    }

    #[test]
    fn mismatched_device_count_is_a_typed_error_from_both_engines() {
        let dist = DistGraph::partition(
            &ring_of_eights(),
            &RandomPartitioner::default(),
            2,
            Duplication::All,
        );
        let three = || SimSystem::homogeneous(3, HardwareProfile::k40());
        let want = VgpuError::BadDevice { device: 2, have: 3 };
        assert_eq!(AsyncRunner::new(three(), &dist, MinLabel).err(), Some(want.clone()));
        let bsp = Runner::new(three(), &dist, MinLabel, EnactConfig::default());
        assert_eq!(bsp.err(), Some(want));
    }

    /// One bind under both engines: the same config on the same system gives
    /// the same scheme, the same admission log and the same id-width factor.
    #[test]
    fn async_and_bsp_bind_alike() {
        let dist = DistGraph::partition(
            &ring_of_eights(),
            &RandomPartitioner::default(),
            2,
            Duplication::All,
        );
        // tight enough that admission has to walk `Max` down the chain
        let system = || SimSystem::homogeneous(2, HardwareProfile::k40().with_capacity(9_000));
        let config = EnactConfig {
            alloc_scheme: Some(AllocScheme::Max),
            kernel_threads: Some(3),
            pressure: PressurePolicy::governed(),
            ..EnactConfig::default()
        };
        let bsp = Runner::new(system(), &dist, MinLabel, config).unwrap();
        let asy = AsyncRunner::with_config(system(), &dist, MinLabel, &config).unwrap();
        assert_ne!(bsp.scheme(), AllocScheme::Max, "the cap must make admission act");
        assert_eq!(asy.scheme(), bsp.scheme());
        assert_eq!(asy.bound.admission, bsp.bound.admission);
        assert!(!asy.bound.admission.downgrades.is_empty());
        for (a, b) in asy.system().devices.iter().zip(&bsp.system().devices) {
            assert_eq!(a.width_factor(), 1.2, "u32 ids over u64 offsets (Table V)");
            assert_eq!(a.width_factor(), b.width_factor());
            assert_eq!((a.kernel_threads(), b.kernel_threads()), (3, 3));
        }
    }
}
