//! What the engine stands on: the interface drivers target and the
//! per-device context the superstep loop is a method of.
//!
//! One engine runs an [`crate::MgpuProblem`] on a partitioned graph: the
//! BSP [`crate::enactor::Runner`], recovery included.
//! [`crate::resilience::ResilientRunner`] builds one from a graph and an
//! ownership table.
//!
//! * [`Executor`] is the interface both implement: enact a traversal,
//!   harvest the per-vertex result words in global vertex order, and
//!   describe yourself (engine kind, primitive name, device count, recovery
//!   policy). The scheduler targets `Box<dyn Executor<V>>` and never learns
//!   which driver is underneath.
//! * `DeviceRun` is what one device thread owns for one enact, including
//!   the device's failure state. `DeviceRun::attempt` is the failure
//!   protocol; `DeviceRun::post` and `DeviceRun::receive` are the two
//!   ends of the wire. The BSP supersteps (`enactor.rs`) are further methods
//!   of it; `crate::enactor::Runner::launch` hands one to each device
//!   thread.

use std::sync::Arc;

use mgpu_graph::Id;
use mgpu_partition::SubGraph;
use vgpu::sync::Delivery;
use vgpu::{
    Device, Event, HostLayer, Interconnect, KernelKind, Mailbox, Result, SpanMeta, TraceEvent,
    TraceKind, VgpuError, COMM_STREAM,
};

use crate::comm::{
    split_and_package_with, CommStrategy, Package, PackagePolicy, SplitOutput, SuppressState,
};
use crate::enactor::{EnactConfig, PerGpu};
use crate::problem::MgpuProblem;
use crate::report::{CommReduction, EnactReport};
use crate::resilience::{guard, RecoveryCounters, RecoveryPolicy};

/// Which driver an [`Executor`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Bulk-synchronous supersteps with deterministic simulated clocks
    /// ([`crate::enactor::Runner`]).
    Bsp,
    /// A [`crate::enactor::Runner`] that partitions and binds per enact
    /// ([`crate::resilience::ResilientRunner`]).
    Resilient,
}

named!(ExecutorKind { Bsp => "bsp", Resilient => "resilient" });

/// One enactment engine bound to a problem and a partitioned graph: the
/// single interface the [`crate::service`] scheduler (and any other driver)
/// targets.
///
/// The contract every implementation upholds:
///
/// * `enact` runs one traversal to completion and reports it; the report is
///   a pure function of (graph, config, fault plan) — independent of host
///   scheduling, worker threads, and wall clock.
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

    /// The answer: one result word per global vertex, in global vertex
    /// order, from the last successful [`Self::enact`]. Decode each word by
    /// the primitive's layout (see [`crate::MgpuProblem::result_word`]).
    fn harvest(&self) -> Vec<u64>;
}

/// What one device thread returns from an enact: its supersteps and its wire
/// statistics.
pub(crate) type DeviceOutcome = (usize, CommReduction);

/// Everything one device thread owns for the duration of one enact. The
/// superstep loop is a method of this; it is also the one owner of the
/// device's failure state.
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

    /// The device thread's successful return value.
    pub(crate) fn finish(mut self, iterations: usize) -> DeviceOutcome {
        if let Some(s) = &self.supp {
            self.stats.suppressed_vertices = s.suppressed_vertices;
            self.stats.suppressed_bytes = s.suppressed_bytes;
        }
        (iterations, self.stats)
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
            let wall_start = self.dev.timeline.wall_now();
            let sent_at = self.dev.charge_as(COMM_STREAM, occupancy, 0.0, send_meta)?;
            self.dev.counters.h_time_us += occupancy;
            let arrived_at = sent_at + self.interconnect.latency_us(gpu, dst);
            let posted = self.mailbox.send(gpu, dst, Event::at(arrived_at), Arc::clone(&pkg));
            self.dev.timeline.stamp_last(HostLayer::Mailbox, wall_start);
            match posted {
                Ok(()) => break,
                Err(e) if attempts < policy.max_retries && e.is_transient() => {
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
        let wall_start = dev.timeline.wall_now();
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
        let block = dev.kernel(COMM_STREAM, KernelKind::Combine, || {
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
        })?;
        // the combine span carries the whole receive
        dev.timeline.stamp_last(HostLayer::Combine, wall_start);
        Ok(block)
    }

    /// Run one rendezvous with the peer device threads, adding the host wall
    /// it waited to the superstep's stamp (traced runs only).
    pub(crate) fn wait<T>(&mut self, rendezvous: impl FnOnce() -> T) -> T {
        let wall_start = self.dev.timeline.wall_now();
        let out = rendezvous();
        self.dev.timeline.waited(wall_start);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::MinLabel;
    use crate::Runner;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::{BspCounters, HardwareProfile, SimSystem};

    #[test]
    fn kind_labels() {
        assert_eq!(ExecutorKind::ALL, [ExecutorKind::Bsp, ExecutorKind::Resilient]);
        assert_eq!(ExecutorKind::Bsp.label(), "bsp");
        assert_eq!(ExecutorKind::Resilient.label(), "resilient");
        assert_eq!("resilient".parse(), Ok(ExecutorKind::Resilient));
        assert!("async".parse::<ExecutorKind>().is_err(), "there is no asynchronous engine");
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
        let mut runner = Runner::new(system, dg, MinLabel, config).unwrap();
        let launched =
            runner.launch(None, 0, |mut run, _| Ok((run.gpu() == 1).then(|| f(&mut run))));
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
            let walls: Vec<_> = events.iter().map(|e| e.wall.map(|w| w.layer)).collect();
            assert_eq!(walls, [None, Some(HostLayer::Combine)], "{comm:?}: the receive's wall");
            let events: Vec<_> =
                events.into_iter().map(|e| TraceEvent { wall: None, ..e }).collect();
            assert_eq!(events, [recv, combine], "{comm:?}");
            // only a broadcast folds what arrived into the suppression floors
            assert_eq!(admitted, admits_key_6, "{comm:?}");
        }
    }
}
