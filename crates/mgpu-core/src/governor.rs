//! The memory-pressure governor: admission control, downgrade chains and
//! degradation accounting.
//!
//! §VI-B of the paper treats GPU memory capacity as the binding constraint —
//! worst-case allocation "artificially limits the size of the subgraph we can
//! place onto one GPU" — and just-enough allocation keeps a reallocation
//! backstop armed "to prevent illegal memory access". The governor extends
//! that stance from sizing policy to *survival* policy: every
//! [`vgpu::VgpuError::OutOfMemory`] becomes a decision point instead of a
//! fatal error. The governor is always armed: a run that fits never
//! reaches a decision point, so it leaves no trace in the report
//! ([`GovernorLog::is_quiet`]) and changes nothing in the simulation.
//!
//! Three tiers, in escalation order:
//!
//! 1. **Admission control** ([`estimate_bind`], applied in
//!    `Runner::new`): a pre-flight per-device estimate — the topology the
//!    primitive reads (`MgpuProblem::reads`), per-vertex problem state,
//!    frontier preallocation under the chosen [`AllocScheme`], and comm
//!    staging — checked against soft/hard
//!    watermarks of the pool capacity. Above the soft watermark the scheme is
//!    walked down a deterministic downgrade chain
//!    (`Max → Fixed → JustEnough`; `PreallocFusion → JustEnough`) before any
//!    allocation happens; past the hard watermark even at the floor, the bind
//!    fails with a *typed* `OutOfMemory`. Higher layers add the global links
//!    of the chain: `duplicate-all → duplicate-1-hop` (re-partition) and
//!    `broadcast → selective` (drop a comm override).
//! 2. **Mid-run degradation** (`FrontierBufs` + `ops`): an OOM from
//!    `prepare_intermediate_budget`/`commit_output` first *spills cold buffer
//!    capacity to host* (staged over the interconnect's host path and charged
//!    to the BSP model, so `T = W + H·g + S·l` stays honest) and retries;
//!    if the buffer still does not fit, the advance runs as a **chunked
//!    multi-pass** whose per-pass budget derives from the pool's free bytes.
//! 3. **Resilience integration**: an OOM the governor cannot absorb
//!    propagates typed, where [`vgpu::VgpuError::is_transient`] already
//!    treats it exactly like an injected `oom:D@N` fault.
//!
//! **Determinism contract.** Every governor decision is a pure function of
//! *simulated* accounting — pool capacity, live bytes, item counts — never of
//! host thread count or wall-clock. A degraded run is therefore bit-identical
//! across `kernel_threads`, and a memory-starved device produces results
//! equal to an unconstrained one: slower, never wrong.

use mgpu_graph::Id;
use mgpu_partition::SubGraph;

use crate::alloc::AllocScheme;
use crate::comm::CommStrategy;
use crate::problem::{MgpuProblem, Wire};

/// Fraction of pool capacity the admission estimate may occupy before the
/// downgrade chain is walked (the *soft* watermark; the *hard* watermark is
/// the capacity itself).
const SOFT_WATERMARK: f64 = 0.85;

/// Smallest per-pass element budget a chunked multi-pass advance will
/// accept; below it (a single vertex's adjacency cannot fit) the OOM is
/// hard-infeasible and propagates typed.
pub(crate) const MIN_CHUNK: usize = 1;

/// The admission budget of a pool of `capacity` bytes: its soft watermark.
pub(crate) fn soft_budget(capacity: u64) -> u64 {
    (capacity as f64 * SOFT_WATERMARK) as u64
}

/// One recorded downgrade decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Downgrade {
    /// Device the decision was scoped to; `None` for global decisions
    /// (duplication, communication strategy).
    pub device: Option<usize>,
    /// What was downgraded: `"alloc-scheme"`, `"duplication"` or `"comm"`.
    pub kind: &'static str,
    /// Label before the downgrade.
    pub from: &'static str,
    /// Label after the downgrade.
    pub to: &'static str,
    /// The footprint estimate that triggered the decision, in bytes.
    pub estimated_bytes: u64,
    /// The budget (soft watermark × capacity) it was checked against.
    pub budget_bytes: u64,
}

/// Itemized governor decisions for one enact — the report's account of how a
/// run survived memory pressure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorLog {
    /// Every downgrade applied, in decision order (admission first).
    pub downgrades: Vec<Downgrade>,
    /// Advances that had to run as chunked multi-pass.
    pub chunked_advances: u64,
    /// Total passes executed by chunked advances (≥ 2 each).
    pub chunk_passes: u64,
    /// Spill events (cold buffer capacity staged to host).
    pub spill_events: u64,
    /// Total bytes spilled to host.
    pub spilled_bytes: u64,
    /// Operations retried after a spill reclaimed capacity.
    pub reclaim_retries: u64,
}

impl GovernorLog {
    /// True when the governor never had to act.
    pub fn is_quiet(&self) -> bool {
        self.downgrades.is_empty()
            && self.chunked_advances == 0
            && self.chunk_passes == 0
            && self.spill_events == 0
            && self.spilled_bytes == 0
            && self.reclaim_retries == 0
    }

    /// Fold another log's decisions into this one (device logs into the
    /// report total, in device order).
    pub fn absorb(&mut self, other: &GovernorLog) {
        self.downgrades.extend(other.downgrades.iter().cloned());
        self.chunked_advances += other.chunked_advances;
        self.chunk_passes += other.chunk_passes;
        self.spill_events += other.spill_events;
        self.spilled_bytes += other.spilled_bytes;
        self.reclaim_retries += other.reclaim_retries;
    }
}

/// A pre-flight per-device footprint estimate (admission tier).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FootprintEstimate {
    /// Topology bytes: what the bind reserves of the part (see
    /// [`estimate_bind`]).
    pub topology: u64,
    /// Per-vertex problem state (labels, ranks, …).
    pub state: u64,
    /// Frontier buffers preallocated under the alloc scheme.
    pub frontier: u64,
    /// Comm staging for outgoing packages (vertex ids + messages).
    pub comm: u64,
}

impl FootprintEstimate {
    /// Total estimated bytes (saturating at `u64::MAX`).
    pub fn total(&self) -> u64 {
        self.topology
            .saturating_add(self.state)
            .saturating_add(self.frontier)
            .saturating_add(self.comm)
    }
}

/// Estimate one device's footprint before any allocation: `topology_bytes`
/// for the graph, `state_bytes_per_vertex` per local vertex, the scheme's
/// frontier preallocation (input + output + intermediate unless fused) at
/// `vertex_bytes` per element, and a comm staging bound — a whole-frontier
/// package under broadcast, half under selective (the owned-border fraction
/// is unknown before partitioning stats are in; the estimate only has to
/// rank schemes consistently, and it is a pure function of its arguments).
/// Sizes are computed in `u64` and saturate: a sizing factor whose buffers
/// no pool could hold estimates `u64::MAX`, which the downgrade chain walks
/// past like any other oversized scheme.
#[allow(clippy::too_many_arguments)]
pub fn estimate_footprint(
    scheme: AllocScheme,
    comm: CommStrategy,
    n_devices: usize,
    n_vertices: usize,
    n_edges: usize,
    topology_bytes: u64,
    state_bytes_per_vertex: usize,
    vertex_bytes: usize,
    msg_bytes: usize,
) -> FootprintEstimate {
    let (n_vertices, vertex_bytes) = (n_vertices as u64, vertex_bytes as u64);
    let frontier_pre = match scheme {
        AllocScheme::JustEnough => 0,
        AllocScheme::Max => n_edges as u64,
        // `as` saturates: an infinite or huge product becomes u64::MAX
        AllocScheme::Fixed { sizing_factor } | AllocScheme::PreallocFusion { sizing_factor } => {
            (n_vertices as f64 * sizing_factor).ceil() as u64
        }
    };
    let n_bufs = if scheme.fused() { 2 } else { 3 };
    let comm_elems = if n_devices <= 1 {
        0
    } else {
        match comm {
            CommStrategy::Broadcast => n_vertices,
            CommStrategy::Selective => n_vertices / 2,
        }
    };
    FootprintEstimate {
        topology: topology_bytes,
        state: n_vertices.saturating_mul(state_bytes_per_vertex as u64),
        frontier: frontier_pre.max(1).saturating_mul(vertex_bytes).saturating_mul(n_bufs),
        comm: comm_elems.saturating_mul(vertex_bytes + msg_bytes as u64),
    }
}

/// [`estimate_footprint`] of binding `problem` to `sub` under `scheme` and
/// `comm`. Its topology term is what the bind reserves:
/// `sub.read_bytes(problem.reads())`, not everything the part carries.
pub fn estimate_bind<V: Id, O: Id, P: MgpuProblem<V, O>>(
    problem: &P,
    sub: &SubGraph<V, O>,
    scheme: AllocScheme,
    comm: CommStrategy,
) -> FootprintEstimate {
    estimate_footprint(
        scheme,
        comm,
        sub.n_parts,
        sub.n_vertices(),
        sub.n_edges(),
        sub.read_bytes(problem.reads()),
        problem.state_bytes_per_vertex(),
        V::BYTES,
        <P::Msg as Wire>::BYTES,
    )
}

/// The next scheme in the deterministic downgrade chain, or `None` at the
/// floor. `Max → Fixed{1.0} → JustEnough`; fusion drops straight to
/// `JustEnough` (losing fusion re-introduces the intermediate buffer, but
/// just-enough sizes it on demand — the memory-minimal configuration).
pub fn downgrade_scheme(scheme: AllocScheme) -> Option<AllocScheme> {
    match scheme {
        AllocScheme::Max => Some(AllocScheme::Fixed { sizing_factor: 1.0 }),
        AllocScheme::Fixed { .. } | AllocScheme::PreallocFusion { .. } => {
            Some(AllocScheme::JustEnough)
        }
        AllocScheme::JustEnough => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downgrade_chain_reaches_the_floor() {
        let mut scheme = AllocScheme::Max;
        let mut labels = vec![scheme.label()];
        while let Some(next) = downgrade_scheme(scheme) {
            scheme = next;
            labels.push(scheme.label());
        }
        assert_eq!(labels, vec!["max", "fixed", "just-enough"]);
        assert_eq!(
            downgrade_scheme(AllocScheme::PreallocFusion { sizing_factor: 2.0 }),
            Some(AllocScheme::JustEnough)
        );
    }

    #[test]
    fn estimate_orders_schemes_like_their_footprints() {
        let est = |scheme| {
            estimate_footprint(scheme, CommStrategy::Selective, 4, 1000, 50_000, 4096, 4, 4, 4)
                .total()
        };
        let je = est(AllocScheme::JustEnough);
        let fx = est(AllocScheme::Fixed { sizing_factor: 3.0 });
        let mx = est(AllocScheme::Max);
        let pf = est(AllocScheme::PreallocFusion { sizing_factor: 3.0 });
        assert!(je < fx && fx < mx && pf < fx);
    }

    #[test]
    fn oversized_estimates_saturate() {
        let huge = AllocScheme::Fixed { sizing_factor: 1e30 };
        let est = estimate_footprint(huge, CommStrategy::Broadcast, 4, 1000, 0, 4096, 4, 8, 8);
        assert_eq!(est.frontier, u64::MAX);
        assert_eq!(est.total(), u64::MAX);
    }

    #[test]
    fn broadcast_estimates_more_comm_than_selective() {
        let est = |comm| {
            estimate_footprint(AllocScheme::JustEnough, comm, 4, 1000, 50_000, 0, 0, 4, 4).comm
        };
        assert!(est(CommStrategy::Broadcast) > est(CommStrategy::Selective));
        // single device: no comm staging at all
        let single = estimate_footprint(
            AllocScheme::JustEnough,
            CommStrategy::Broadcast,
            1,
            1000,
            0,
            0,
            0,
            4,
            4,
        );
        assert_eq!(single.comm, 0);
    }

    #[test]
    fn log_absorb_and_quiet() {
        let mut a = GovernorLog::default();
        assert!(a.is_quiet());
        let b = GovernorLog {
            downgrades: vec![Downgrade {
                device: Some(1),
                kind: "alloc-scheme",
                from: "max",
                to: "fixed",
                estimated_bytes: 100,
                budget_bytes: 80,
            }],
            chunked_advances: 1,
            chunk_passes: 3,
            spill_events: 2,
            spilled_bytes: 512,
            reclaim_retries: 2,
        };
        a.absorb(&b);
        assert!(!a.is_quiet());
        assert_eq!(a.downgrades.len(), 1);
        assert_eq!(a.chunk_passes, 3);
        assert_eq!(a.spilled_bytes, 512);
    }
}
