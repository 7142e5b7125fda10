//! The unified executor abstraction over the three enactment engines.
//!
//! Three drivers know how to run an [`crate::MgpuProblem`] on a partitioned
//! graph: the BSP [`crate::enactor::Runner`], the asynchronous
//! (Groute-style) [`crate::async_enactor::AsyncRunner`], and the
//! self-healing [`crate::resilience::ResilientRunner`]. They share the
//! superstep-drive / comm-dispatch / recovery semantics but historically
//! each carried its own copy of the hot machinery — the transient-retry
//! package push, the receive-and-combine, the report assembly — and exposed
//! three unrelated call surfaces, so anything that wanted to drive "a query"
//! (the [`crate::service`] scheduler, the bench harness, a future multi-node
//! driver) had to special-case all three.
//!
//! This module fixes both:
//!
//! * [`Executor`] is the single interface every engine implements: enact a
//!   traversal, harvest the per-vertex result words in global vertex order,
//!   and describe yourself (engine kind, primitive name, device count,
//!   recovery policy). The scheduler targets `Box<dyn Executor<V>>` and
//!   never learns which engine is underneath.
//! * [`post_package`], [`receive_package`] and [`assemble_report`] are the
//!   shared send, receive-and-combine and report-assembly bodies. Both
//!   enactors call them, so charge order, counter updates and trace spans
//!   cannot drift apart between engines (the golden-trace and determinism
//!   suites enforce it).

use std::sync::Arc;

use mgpu_graph::Id;
use mgpu_partition::SubGraph;
use vgpu::sync::Delivery;
use vgpu::{
    Device, Event, Interconnect, KernelKind, Mailbox, Result, SimSystem, SpanMeta, TraceEvent,
    TraceKind, COMM_STREAM,
};

use crate::comm::{CommStrategy, Package, SuppressState};
use crate::governor::GovernorLog;
use crate::problem::{MgpuProblem, Wire};
use crate::report::{CommReduction, DeviceMemStats, EnactReport, HostSync, SuperstepTrace};
use crate::resilience::{RecoveryCounters, RecoveryLog, RecoveryPolicy};

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

/// Push one package to `dst` on the communication stream with the
/// transient-retry loop, charging occupancy, wire bytes and the H counters.
/// Shared by the BSP direct fan-out, the butterfly stages, and the async
/// relaxation loop.
///
/// The sender's copy engine is occupied for the bandwidth component; the
/// wire latency only delays arrival at the peer. A transiently failed push
/// re-occupies the link for the full retransmission plus the policy
/// backoff; the injector checks the fault site *before* posting, so a
/// failed send delivered nothing and re-sending cannot duplicate a package.
#[allow(clippy::too_many_arguments)]
pub(crate) fn post_package<V: Id, M: Wire>(
    dev: &mut Device,
    interconnect: &Interconnect,
    mailbox: &Mailbox<Arc<Package<V, M>>>,
    dst: usize,
    pkg: Arc<Package<V, M>>,
    policy: &RecoveryPolicy,
    rec: &RecoveryCounters,
) -> Result<()> {
    let gpu = dev.id();
    let bytes = pkg.wire_bytes();
    let charged = interconnect.charged_bytes(bytes);
    let occupancy = interconnect.occupancy_us(gpu, dst, bytes);
    let send_meta = SpanMeta::new(TraceKind::Send, "send")
        .items(pkg.len() as u64)
        .bytes(charged)
        .h_us(occupancy)
        .peer(dst);
    let mut attempts = 0u32;
    loop {
        // every attempt (including ones whose post fails) occupies the link
        // and counts toward H — the trace mirrors that with one Send span
        // per attempt, a failed one immediately followed by its Retry span
        let sent_at = dev.charge_as(COMM_STREAM, occupancy, 0.0, send_meta)?;
        dev.counters.h_time_us += occupancy;
        let arrived_at = sent_at + interconnect.latency_us(gpu, dst);
        match mailbox.send(gpu, dst, Event::at(arrived_at), Arc::clone(&pkg)) {
            Ok(()) => break,
            Err(e) if attempts < policy.max_retries && policy.is_transient(&e) => {
                attempts += 1;
                rec.note_transfer_retry();
                let meta = SpanMeta::new(TraceKind::Retry, "transfer-retry").peer(dst);
                dev.charge_as(COMM_STREAM, policy.retry_backoff_us, 0.0, meta)?;
            }
            Err(e) => return Err(e),
        }
    }
    dev.counters.h_bytes_sent += charged;
    dev.counters.h_vertices += pkg.len() as u64;
    dev.counters.h_messages += 1;
    Ok(())
}

/// Receive one delivered package on the communication stream and fold it
/// into the primitive's state — the other end of [`post_package`], shared by
/// the BSP direct combine, the butterfly stages and their fallback, and the
/// async relaxation loop.
///
/// Waits for the simulated arrival, counts the bytes toward `H`, records the
/// `Recv` span, then runs one `Combine` kernel that decodes the package, maps
/// each wire id to a local vertex (`Selective`: owner-local, used as is;
/// `Broadcast`: global, skipped when this device holds no copy), folds the
/// key into the suppression floor on broadcast (whatever arrives on a
/// broadcast was delivered to every peer), calls `problem.combine` and
/// appends the accepted vertices to `next`. Returns the decoded block: the
/// butterfly forwards it at its next stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn receive_package<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    dev: &mut Device,
    sub: &SubGraph<V, O>,
    state: &mut P::State,
    comm: CommStrategy,
    mut supp: Option<&mut SuppressState>,
    delivery: Delivery<Arc<Package<V, P::Msg>>>,
    next: &mut Vec<V>,
) -> Result<(Vec<V>, Vec<P::Msg>)> {
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

/// Assemble an [`EnactReport`] from a finished system plus the run-shaped
/// pieces only the engine knows (iterations, history, recovery, governor,
/// comm). Both enactors build their reports through this, so the
/// system-derived fields (`sim_time_us`, counters, memory statistics,
/// trace collection) can never drift apart between engines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_report(
    system: &SimSystem,
    primitive: &'static str,
    n_devices: usize,
    iterations: usize,
    wall_time_us: f64,
    host_sync: HostSync,
    history: Vec<SuperstepTrace>,
    recovery: RecoveryLog,
    governor: GovernorLog,
    comm: CommReduction,
    tracing: bool,
) -> EnactReport {
    EnactReport {
        primitive,
        n_devices,
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
        trace: tracing.then(|| crate::trace::Trace::collect(system)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testing::MinLabel;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
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

    /// One delivery combined under each strategy. Everything asserted here
    /// was written down from `combine_received` — the direct path's own copy
    /// of this code — for this fixture, before the four copies became one.
    #[test]
    fn receive_package_charges_and_combines_like_the_copies_it_replaced() {
        // a 6-cycle over two 1-hop parts: part 1 holds globals [3, 4, 5 | 0, 2]
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g: Csr<u32, u64> = GraphBuilder::undirected(&Coo::from_edges(6, edges, None));
        let dg = DistGraph::build(&g, vec![0, 0, 0, 1, 1, 1], 2, Duplication::OneHop);
        let sub = &dg.parts[1];
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
        for (comm, want_next, want_state, admits_key_6) in cases {
            let mut dev = Device::new(1, HardwareProfile::k40());
            dev.timeline.enable();
            let mut state = vec![u32::MAX; sub.n_vertices()];
            state[1] = 4; // a label the delivery cannot improve
            let pkg: Package<u32, u32> = Package::encode(
                vec![0, 1, 2, 4],
                vec![7, 9, 3, 6],
                crate::comm::WireEncoding::Auto,
                Some(6),
                None,
            );
            assert_eq!(pkg.wire_bytes(), 22);
            let delivery = Delivery { src: 0, arrival: Event::at(50.0), payload: Arc::new(pkg) };
            let mut supp = SuppressState::new(sub.n_vertices());
            let mut next = vec![2];
            let block = receive_package(
                &MinLabel,
                &mut dev,
                sub,
                &mut state,
                comm,
                Some(&mut supp),
                delivery,
                &mut next,
            )
            .unwrap();
            assert_eq!(block, (vec![0, 1, 2, 4], vec![7, 9, 3, 6]), "{comm:?}: decoded block");
            assert_eq!(next, want_next, "{comm:?}");
            assert_eq!(state, want_state, "{comm:?}");
            assert_eq!(dev.stream_time(COMM_STREAM), 53.00066666666667, "{comm:?}");
            assert_eq!(
                dev.counters,
                BspCounters {
                    c_items: 4,
                    h_bytes_recv: 22,
                    kernel_launches: 1,
                    c_time_us: 3.0006666666666666,
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
                dur_us: 3.0006666666666666,
                items: 4,
                ..TraceEvent::default()
            };
            assert_eq!(dev.timeline.events(), [recv, combine], "{comm:?}");
            // only a broadcast folds what arrived into the suppression floors
            let admitted: Vec<bool> = (0..5).map(|v| supp.admit(v, 6, 0)).collect();
            assert_eq!(admitted, admits_key_6, "{comm:?}");
        }
    }
}
