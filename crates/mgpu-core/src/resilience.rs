//! Superstep-granular resilience: the recovery policy, its log, and
//! checkpointing.
//!
//! The BSP superstep boundary is the natural recovery point: every device's
//! state is globally consistent there (all pushes combined, clocks aligned),
//! so it is where this module detects failures, takes checkpoints, and
//! decides — uniformly on every device, from the shared reduction — whether
//! to abort.
//!
//! Three recovery mechanisms, each off until a caller sets its field of
//! [`RecoveryPolicy`] (a default-configured run is bit-identical to a build
//! without this module):
//!
//! * **In-place retry** — transient launch faults are relaunched at the
//!   fault site (see [`vgpu::Device::set_retry_policy`]; the fault fires
//!   before the kernel body, so the failed launch had no side effects).
//!   Transient transfer faults are re-sent by the enactor, re-charging the
//!   link occupancy per attempt. Both charge
//!   [`RecoveryPolicy::retry_backoff_us`] simulated microseconds per
//!   attempt.
//! * **Checkpointing** — every [`RecoveryPolicy::checkpoint_interval`]
//!   supersteps, each device encodes its *owned* vertices' recoverable state
//!   as one `u64` word each ([`crate::MgpuProblem::result_word`]) keyed
//!   by **global** vertex id, plus its owned slice of the pending set: the
//!   next input frontier and whatever the primitive holds
//!   [`crate::MgpuProblem::parked`]. A checkpoint completes only when all
//!   devices contribute — a device that failed during the superstep never
//!   offers, so partial checkpoints are discarded deterministically.
//!   Global-id keying is what lets a checkpoint taken on N devices restore
//!   onto a re-partitioned N−1-device layout.
//! * **Degradation** ([`RecoveryPolicy::degrade`]) — on permanent device
//!   loss, or a straggler evicted at a rendezvous, [`Runner::enact`]
//!   restores the last complete checkpoint, re-homes the lost device's
//!   vertices onto the survivors (re-partitioning the parent graph the
//!   partition holds, [`DistGraph::parent`]), and continues on N−1 GPUs. The failed
//!   attempt's simulated makespan is banked as [`RecoveryLog::lost_time_us`]
//!   and folded into the final report.
//!
//! [`Runner::enact`] runs the whole policy; [`ResilientRunner`] is only a
//! constructor around it (partition, node, fault plan) kept for the
//! harness and the tests.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use mgpu_graph::{Csr, Id};
use mgpu_partition::DistGraph;
use vgpu::{FaultPlan, HardwareProfile, Result, SimSystem, VgpuError};

use crate::enactor::{EnactConfig, Runner};
use crate::executor::{Executor, ExecutorKind};
use crate::problem::MgpuProblem;
use crate::report::EnactReport;

/// Bounded-recovery policy carried on [`EnactConfig`]. The default is
/// fully off: no retries, no checkpoints, no straggler rendezvous timeout,
/// no degradation — and, by construction, zero simulated-time overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget for transient faults: in-place kernel relaunches,
    /// per-package re-sends, and whole-attempt restarts from the last
    /// checkpoint ([`Runner::enact`]).
    pub max_retries: u32,
    /// Simulated backoff charged per retry attempt, in microseconds.
    pub retry_backoff_us: f64,
    /// Take a checkpoint every this many supersteps (0 = never).
    pub checkpoint_interval: usize,
    /// Rendezvous timeout: if the spread between the fastest and slowest
    /// device at a superstep barrier exceeds this, the slowest device is
    /// counted as a straggler and evicted (it exits with
    /// [`VgpuError::Timeout`]; under [`Self::degrade`] the run fails over to
    /// the survivors). Every device evaluates the identical condition from
    /// the shared reduction, so the decision is uniform. `INFINITY` = never.
    pub straggler_timeout_us: f64,
    /// Degrade instead of failing: on permanent device loss (or an evicted
    /// straggler) re-home the lost device's subgraph onto the survivors and
    /// continue on N−1 GPUs.
    pub degrade: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            retry_backoff_us: 0.0,
            checkpoint_interval: 0,
            straggler_timeout_us: f64::INFINITY,
            degrade: false,
        }
    }
}

impl RecoveryPolicy {
    /// A sensible everything-on preset: 3 retries with 25 µs backoff, a
    /// checkpoint every 4 supersteps, and degradation (failover on loss).
    pub fn resilient() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            retry_backoff_us: 25.0,
            checkpoint_interval: 4,
            degrade: true,
            ..RecoveryPolicy::default()
        }
    }
}

/// Every recovery event of an enact, accumulated across its attempts. All
/// counts derive from deterministic fault sites, so two runs of the same
/// plan produce equal logs — [`EnactReport::same_simulation`] includes this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    /// In-place kernel relaunches (summed over devices).
    pub kernel_retries: u64,
    /// Package re-sends after transient transfer faults.
    pub transfer_retries: u64,
    /// Fault events that fired from the attached plan.
    pub faults_injected: u64,
    /// Complete (all-device) checkpoints taken.
    pub checkpoints_taken: u64,
    /// Superstep barriers whose fast–slow spread exceeded the rendezvous
    /// timeout.
    pub stragglers_detected: u64,
    /// Total simulated backoff charged across retries, in microseconds.
    pub backoff_us: f64,
    /// Devices permanently lost, by *original* device id, in loss order.
    pub lost_devices: Vec<usize>,
    /// Failovers performed (re-home + restart on survivors).
    pub failovers: u64,
    /// Simulated time spent on attempts that did not complete, in
    /// microseconds.
    pub lost_time_us: f64,
    /// Superstep the final successful attempt resumed from, if it restored
    /// a checkpoint.
    pub resumed_at: Option<usize>,
}

impl RecoveryLog {
    /// Accumulate another attempt's log into this one.
    pub fn absorb(&mut self, other: &RecoveryLog) {
        self.kernel_retries += other.kernel_retries;
        self.transfer_retries += other.transfer_retries;
        self.faults_injected += other.faults_injected;
        self.checkpoints_taken += other.checkpoints_taken;
        self.stragglers_detected += other.stragglers_detected;
        self.backoff_us += other.backoff_us;
        self.lost_devices.extend(&other.lost_devices);
        self.failovers += other.failovers;
        self.lost_time_us += other.lost_time_us;
        self.resumed_at = other.resumed_at.or(self.resumed_at);
    }

    /// Did anything at all happen?
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryLog::default()
    }
}

/// Shared recovery counters for the device threads of one enact.
#[derive(Debug, Default)]
pub(crate) struct RecoveryCounters {
    pub(crate) transfer_retries: AtomicU64,
    pub(crate) stragglers: AtomicU64,
}

impl RecoveryCounters {
    pub(crate) fn note_transfer_retry(&self) {
        self.transfer_retries.fetch_add(1, Relaxed);
    }

    pub(crate) fn note_straggler(&self) {
        self.stragglers.fetch_add(1, Relaxed);
    }
}

/// A complete superstep checkpoint in the *global* vertex space — valid to
/// restore onto any partition layout of the same graph.
#[derive(Debug, Clone)]
pub struct GlobalCheckpoint<V> {
    /// The superstep boundary this captures: resume by running iteration
    /// `iter` next.
    pub iter: usize,
    /// `(global vertex id, state word)` for every vertex, sorted by id.
    pub words: Vec<(V, u64)>,
    /// The input frontier for iteration `iter`, as sorted global ids.
    pub frontier: Vec<V>,
}

struct PartialCheckpoint<V> {
    iter: usize,
    offers: usize,
    words: Vec<(V, u64)>,
    frontier: Vec<V>,
}

/// Collects per-device checkpoint offers and finalizes a
/// [`GlobalCheckpoint`] once all devices have contributed for the same
/// superstep. A failed device never offers, so its superstep's partial is
/// silently superseded by the next due one. Public, with
/// [`Runner::enact_resilient`], for the tests that take a checkpoint and
/// resume from it by hand.
pub struct CheckpointSink<V> {
    interval: usize,
    n: usize,
    partial: Mutex<PartialCheckpoint<V>>,
    complete: Mutex<Option<GlobalCheckpoint<V>>>,
    taken: AtomicU64,
}

impl<V: Id> CheckpointSink<V> {
    /// A sink for `n` devices checkpointing every `interval` supersteps
    /// (0 = disabled).
    pub fn new(n: usize, interval: usize) -> Self {
        CheckpointSink {
            interval,
            n,
            partial: Mutex::new(PartialCheckpoint {
                iter: 0,
                offers: 0,
                words: Vec::new(),
                frontier: Vec::new(),
            }),
            complete: Mutex::new(None),
            taken: AtomicU64::new(0),
        }
    }

    /// Is a checkpoint due at superstep boundary `iter`?
    pub fn due(&self, iter: usize) -> bool {
        self.interval > 0 && iter > 0 && iter.is_multiple_of(self.interval)
    }

    /// One device's contribution for boundary `iter`: its owned vertices'
    /// `(global id, word)` pairs and its owned slice of the next frontier.
    pub fn offer(&self, iter: usize, words: Vec<(V, u64)>, frontier: Vec<V>) {
        let mut p = self.partial.lock().unwrap_or_else(PoisonError::into_inner);
        if p.iter != iter {
            p.iter = iter;
            p.offers = 0;
            p.words.clear();
            p.frontier.clear();
        }
        p.words.extend(words);
        p.frontier.extend(frontier);
        p.offers += 1;
        if p.offers == self.n {
            let mut words = std::mem::take(&mut p.words);
            let mut frontier = std::mem::take(&mut p.frontier);
            words.sort_unstable_by_key(|&(g, _)| g);
            frontier.sort_unstable();
            frontier.dedup();
            *self.complete.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(GlobalCheckpoint { iter, words, frontier });
            self.taken.fetch_add(1, Relaxed);
        }
    }

    /// Complete checkpoints finalized so far.
    pub fn taken(&self) -> u64 {
        self.taken.load(Relaxed)
    }

    /// Take the most recent complete checkpoint, if any.
    pub fn take_complete(&self) -> Option<GlobalCheckpoint<V>> {
        self.complete.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// Run `f`, converting a panic in problem code into
/// [`VgpuError::DeviceLost`] so the device thread keeps participating in
/// rendezvous (one poisoned kernel body fails the enact call, not the
/// process).
pub(crate) fn guard<T>(gpu: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(_) => Err(VgpuError::DeviceLost { device: gpu }),
    }
}

/// A [`Runner`] built from a graph and an ownership table: the constructor
/// the harness and the tests drive the recovery policy through. Each enact
/// partitions the graph the way the problem reads it, binds on
/// [`SimSystem::homogeneous`] with the fault plan attached, and hands the
/// attempt loop to [`Runner::enact`]; the answer of
/// the final (possibly degraded) attempt is cached for [`Self::harvest`].
///
/// Device ids in [`RecoveryLog::lost_devices`] and in the fault plan are
/// *original* ids.
pub struct ResilientRunner<'g, V: Id, O: Id, P: MgpuProblem<V, O> + Clone> {
    graph: &'g Csr<V, O>,
    problem: P,
    n: usize,
    profile: HardwareProfile,
    /// Global vertex id → original owning device.
    owner: Vec<u32>,
    config: EnactConfig,
    plan: FaultPlan,
    /// Result words harvested from the last successful enact.
    last_values: Vec<u64>,
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O> + Clone> ResilientRunner<'g, V, O, P> {
    /// A homogeneous node of `n` devices with round-robin vertex ownership.
    pub fn homogeneous(
        graph: &'g Csr<V, O>,
        problem: P,
        n: usize,
        profile: HardwareProfile,
        config: EnactConfig,
    ) -> Self {
        assert!(n > 0, "need at least one device");
        let owner = (0..graph.n_vertices()).map(|v| (v % n) as u32).collect();
        ResilientRunner {
            graph,
            problem,
            n,
            profile,
            owner,
            config,
            plan: FaultPlan::new(),
            last_values: Vec::new(),
        }
    }

    /// Replace the round-robin ownership with an explicit table
    /// (global vertex id → original device id).
    pub fn with_owner(mut self, owner: Vec<u32>) -> Self {
        assert_eq!(owner.len(), self.graph.n_vertices(), "one owner per vertex");
        self.owner = owner;
        self
    }

    /// Attach a deterministic fault plan (device ids are original ids).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

impl<'g, V: Id, O: Id, P: MgpuProblem<V, O> + Clone> Executor<V> for ResilientRunner<'g, V, O, P> {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Resilient
    }

    fn primitive(&self) -> &'static str {
        self.problem.name()
    }

    fn n_devices(&self) -> usize {
        self.n
    }

    fn recovery_policy(&self) -> RecoveryPolicy {
        self.config.recovery
    }

    fn enact(&mut self, src: Option<V>) -> Result<EnactReport> {
        let dup = self.problem.duplication();
        let mut dist = DistGraph::build(self.graph, self.owner.clone(), self.n, dup);
        if self.problem.reads().reverse {
            dist.build_cscs();
        }
        let mut system = SimSystem::homogeneous(self.n, self.profile.clone());
        if !self.plan.is_empty() {
            system.attach_fault_plan(&self.plan);
        }
        let mut runner = Runner::new(system, &dist, self.problem.clone(), self.config)?;
        let report = runner.enact(src)?;
        self.last_values = runner.harvest();
        Ok(report)
    }

    fn harvest(&self) -> Vec<u64> {
        self.last_values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_fully_off() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.checkpoint_interval, 0);
        assert!(p.straggler_timeout_us.is_infinite());
        assert!(!p.degrade);
    }

    #[test]
    fn sink_finalizes_only_when_all_devices_offer() {
        let sink: CheckpointSink<u32> = CheckpointSink::new(2, 2);
        assert!(!sink.due(1) && sink.due(2) && !sink.due(3) && sink.due(4));
        sink.offer(2, vec![(1, 10)], vec![1]);
        assert!(sink.take_complete().is_none(), "one of two devices offered");
        // the second device failed and never offers for iter 2; its stale
        // partial is discarded when iter 4 begins
        sink.offer(4, vec![(0, 7), (2, 9)], vec![2]);
        sink.offer(4, vec![(1, 8), (3, 6)], vec![1, 2]);
        let ck = sink.take_complete().expect("all devices offered for iter 4");
        assert_eq!(ck.iter, 4);
        assert_eq!(ck.words, vec![(0, 7), (1, 8), (2, 9), (3, 6)], "sorted by global id");
        assert_eq!(ck.frontier, vec![1, 2], "sorted and deduplicated");
        assert_eq!(sink.taken(), 1);
    }

    #[test]
    fn disabled_sink_is_never_due() {
        let sink: CheckpointSink<u32> = CheckpointSink::new(4, 0);
        for i in 0..20 {
            assert!(!sink.due(i));
        }
    }

    #[test]
    fn log_absorb_accumulates() {
        let mut a = RecoveryLog { kernel_retries: 2, backoff_us: 50.0, ..Default::default() };
        let b = RecoveryLog {
            kernel_retries: 3,
            lost_devices: vec![1],
            failovers: 1,
            resumed_at: Some(4),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.kernel_retries, 5);
        assert_eq!(a.lost_devices, vec![1]);
        assert_eq!(a.resumed_at, Some(4));
        assert!(!a.is_quiet());
        assert!(RecoveryLog::default().is_quiet());
    }

    #[test]
    fn guard_converts_panics() {
        let ok: Result<u32> = guard(0, || Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let err = guard(3, || -> Result<()> { panic!("poisoned") }).unwrap_err();
        assert_eq!(err, VgpuError::DeviceLost { device: 3 });
    }
}
