//! A deterministic multi-tenant query scheduler over shared graph
//! residency — the production-service layer of ROADMAP item 2.
//!
//! One immutable partitioned CSR (`DistGraph`) is resident; many
//! heterogeneous queries (BFS, SSSP, BC, PR, CC — anything implementing
//! [`crate::executor::Executor`]) are admitted against it concurrently.
//! The model mirrors what stream multiplexing buys on real hardware: the
//! topology is charged once per device, each admitted query adds only its
//! *dynamic* footprint (frontier buffers, per-vertex state, comm staging),
//! and queries in the same *wave* execute concurrently on their own
//! stream lanes while queued waves wait for lanes/memory to free up.
//!
//! ## Determinism
//!
//! Scheduling is a pure function of `(seed, submission order, footprints,
//! policy)`:
//!
//! 1. A seeded Fisher–Yates permutation of the submission order picks the
//!    *dispatch order* (the only randomness; same seed → same order).
//! 2. A greedy ledger packs dispatch order into waves: a query joins the
//!    current wave while the wave holds a free lane and the ledger stays
//!    under the pressure governor's soft watermark; otherwise the wave
//!    closes and the query starts the next one (it *queued*). A query
//!    whose lone footprint exceeds the hard cap is *rejected* with the
//!    same typed [`VgpuError::OutOfMemory`] the enactor's admission walk
//!    raises at the floor.
//! 3. Waves execute in order. Within a wave, queries run on up to
//!    [`ServicePolicy::workers`] host threads — a wall-clock knob only.
//!    Each query's executor builds a fresh simulated system whose clocks
//!    are deterministic, so per-query [`EnactReport`]s are bit-equal to a
//!    serial run of the same spec at *any* worker count. Aggregates are
//!    folded in fixed submission order after each wave joins, never in
//!    thread-completion order.
//!
//! Admission decisions are recorded per query in [`AdmissionRecord`]s on
//! the [`ServiceReport`] — deliberately *not* injected into per-query
//! `EnactReport::governor` logs, which would break their bit-equality
//! with plain serial enacts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mgpu_graph::Id;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vgpu::{Result, VgpuError};

use crate::executor::Executor;
use crate::governor::{self, PressurePolicy};
use crate::json::Json;
use crate::report::EnactReport;

/// A factory producing a fresh executor for one query. `Fn` (not
/// `FnOnce`) so a spec can be re-run — the concurrency tests replay the
/// same specs serially and assert bit-equal reports.
pub type BuildExecutor<'g, V> =
    Box<dyn Fn() -> Result<Box<dyn Executor<V> + Send + 'g>> + Send + Sync + 'g>;

/// One submitted query: a name for the logs, the source vertex, the
/// per-device *dynamic* memory footprint (beyond the shared residency)
/// the admission ledger charges, and the executor factory.
pub struct QuerySpec<'g, V: Id> {
    /// Label for admission records and reports (e.g. `"bfs:4"`).
    pub name: String,
    /// Global source vertex (`None` for source-less primitives).
    pub source: Option<V>,
    /// Estimated per-device bytes this query adds on top of the shared
    /// topology residency (state + frontier + comm staging).
    pub footprint_bytes: u64,
    /// Builds a fresh executor bound to the shared residency.
    pub build: BuildExecutor<'g, V>,
}

impl<'g, V: Id> QuerySpec<'g, V> {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        source: Option<V>,
        footprint_bytes: u64,
        build: impl Fn() -> Result<Box<dyn Executor<V> + Send + 'g>> + Send + Sync + 'g,
    ) -> Self {
        QuerySpec { name: name.into(), source, footprint_bytes, build: Box::new(build) }
    }
}

/// Scheduler policy. Everything that shapes the *schedule* lives here;
/// per-query enact behaviour stays in each spec's factory.
#[derive(Debug, Clone, Copy)]
pub struct ServicePolicy {
    /// Seed of the dispatch permutation (the only randomness).
    pub seed: u64,
    /// Host threads per wave. Purely wall-clock: reports and results are
    /// identical at every value.
    pub workers: usize,
    /// Maximum concurrent queries per wave (stream lanes); 0 = unbounded.
    pub lanes: usize,
    /// Per-device memory capacity for admission (the hard watermark);
    /// `None` = admission ledger disabled.
    pub mem_cap: Option<u64>,
    /// Shared topology bytes per device, charged once per wave (queries
    /// add only their dynamic footprints on top).
    pub residency_bytes: u64,
    /// Pressure-governor policy reused for admission: the soft watermark
    /// is where queries start queueing; the hard cap is where a lone
    /// query is rejected with a typed OOM. Admission engages only when
    /// both `pressure.enabled` and `mem_cap` are set.
    pub pressure: PressurePolicy,
}

impl Default for ServicePolicy {
    fn default() -> Self {
        ServicePolicy {
            seed: 0,
            workers: 1,
            lanes: 4,
            mem_cap: None,
            residency_bytes: 0,
            pressure: PressurePolicy::governed(),
        }
    }
}

/// One per-query admission decision, in submission order on the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// Submission index of the query.
    pub query: usize,
    /// The spec's name.
    pub name: String,
    /// Wave the query was scheduled into (`None` if rejected).
    pub wave: Option<usize>,
    /// Did the query wait for an earlier wave to finish (any wave > 0)?
    pub queued: bool,
    /// Was the query refused outright (lone footprint over the hard cap)?
    pub rejected: bool,
    /// `residency + footprint`: the bytes this query needs resident.
    pub estimated_bytes: u64,
    /// The soft-watermark budget the ledger packed against
    /// (`u64::MAX` when admission is disabled).
    pub budget_bytes: u64,
}

/// One query's outcome.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Submission index.
    pub query: usize,
    /// The spec's name.
    pub name: String,
    /// Wave it ran in (`usize::MAX` for rejected queries).
    pub wave: usize,
    /// The per-query enact report, or the typed error (a rejected query
    /// carries the admission OOM; a faulted one its root cause).
    pub result: Result<EnactReport>,
    /// Harvested per-vertex result words in global vertex order (empty on
    /// error).
    pub values: Vec<u64>,
}

/// What a [`Service::run`] produced: per-query outcomes (submission
/// order), the admission log, and deterministic simulated-time aggregates.
#[derive(Debug)]
pub struct ServiceReport {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// One admission decision per submitted query, in submission order.
    pub admission: Vec<AdmissionRecord>,
    /// Number of waves executed.
    pub waves: usize,
    /// Σ of successful queries' simulated times — the serial makespan.
    pub serial_sim_us: f64,
    /// Σ over waves of the wave's max simulated time — the concurrent
    /// makespan under ideal stream-lane overlap (the same
    /// compute/comm-overlap idealization the vgpu substrate itself makes).
    pub concurrent_sim_us: f64,
    /// Host wall time of the whole run (informational; nondeterministic).
    pub wall_time_us: f64,
}

impl ServiceReport {
    /// Aggregate throughput multiplier of concurrent over serial
    /// execution, on deterministic simulated time.
    pub fn throughput_x(&self) -> f64 {
        if self.concurrent_sim_us > 0.0 {
            self.serial_sim_us / self.concurrent_sim_us
        } else {
            1.0
        }
    }

    /// Were all queries admitted and successful?
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Flat JSON object (the CLI `serve --json` output).
    pub fn to_json(&self) -> String {
        let queries = self.outcomes.iter().map(|o| match &o.result {
            Ok(r) => Json::obj([
                ("query", o.query.into()),
                ("name", o.name.as_str().into()),
                ("wave", o.wave.into()),
                ("ok", true.into()),
                ("sim_time_us", Json::rounded(r.sim_time_us, 3)),
                ("iterations", r.iterations.into()),
            ]),
            Err(e) => Json::obj([
                ("query", o.query.into()),
                ("name", o.name.as_str().into()),
                ("ok", false.into()),
                ("error", e.to_string().into()),
            ]),
        });
        let admission = self.admission.iter().map(|a| {
            Json::obj([
                ("query", a.query.into()),
                ("name", a.name.as_str().into()),
                ("wave", a.wave.map_or(Json::I64(-1), Json::from)),
                ("queued", a.queued.into()),
                ("rejected", a.rejected.into()),
                ("estimated_bytes", a.estimated_bytes.into()),
                ("budget_bytes", a.budget_bytes.into()),
            ])
        });
        Json::obj([
            ("waves", self.waves.into()),
            ("serial_sim_us", Json::rounded(self.serial_sim_us, 3)),
            ("concurrent_sim_us", Json::rounded(self.concurrent_sim_us, 3)),
            ("throughput_x", Json::rounded(self.throughput_x(), 4)),
            ("wall_time_us", Json::rounded(self.wall_time_us, 1)),
            ("queries", Json::Arr(queries.collect())),
            ("admission", Json::Arr(admission.collect())),
        ])
        .to_string()
    }
}

/// The wave plan the admission pass computes before anything executes.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlan {
    /// Waves of submission indices, in execution order (each wave keeps
    /// dispatch order internally).
    pub waves: Vec<Vec<usize>>,
    /// Per-query admission records, in submission order.
    pub admission: Vec<AdmissionRecord>,
    /// Rejected queries with their typed OOM, in dispatch order.
    pub rejected: Vec<(usize, VgpuError)>,
}

/// The multi-tenant query scheduler. See the module docs for the model
/// and the determinism argument.
pub struct Service {
    policy: ServicePolicy,
}

impl Service {
    /// A service with `policy`.
    pub fn new(policy: ServicePolicy) -> Self {
        Service { policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> &ServicePolicy {
        &self.policy
    }

    /// Plan admission and wave packing for `queries` (`(name, footprint)`
    /// pairs in submission order) without executing anything — a pure
    /// function of the policy and its inputs, exposed for tests and for
    /// dry-run inspection.
    pub fn plan(&self, queries: &[(String, u64)]) -> SchedulePlan {
        let k = queries.len();
        // Seeded Fisher–Yates: the dispatch permutation is the only
        // randomness in the scheduler.
        let mut order: Vec<usize> = (0..k).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.policy.seed);
        for i in (1..k).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let lanes = if self.policy.lanes == 0 { usize::MAX } else { self.policy.lanes };
        let capped = self.policy.pressure.enabled && self.policy.mem_cap.is_some();
        let cap = self.policy.mem_cap.unwrap_or(u64::MAX);
        let budget = if capped { governor::soft_budget(cap) } else { u64::MAX };
        let residency = self.policy.residency_bytes;

        let mut waves: Vec<Vec<usize>> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut ledger = residency;
        let mut admission: Vec<AdmissionRecord> = Vec::with_capacity(k);
        let mut rejected: Vec<(usize, VgpuError)> = Vec::new();
        for &q in &order {
            let fp = queries[q].1;
            let est = residency.saturating_add(fp);
            if capped && est > cap {
                // Lone query over the hard watermark: typed OOM, exactly
                // the shape the enactor's admission floor raises.
                admission.push(AdmissionRecord {
                    query: q,
                    name: queries[q].0.clone(),
                    wave: None,
                    queued: false,
                    rejected: true,
                    estimated_bytes: est,
                    budget_bytes: budget,
                });
                rejected.push((
                    q,
                    VgpuError::OutOfMemory {
                        device: 0,
                        requested: est,
                        live: residency,
                        capacity: cap,
                    },
                ));
                continue;
            }
            // Join the current wave while a lane is free and the ledger
            // stays under the soft watermark; a lone over-budget query
            // (between watermarks) still gets its own wave — queue, don't
            // fail.
            let join = cur.len() < lanes && (cur.is_empty() || ledger.saturating_add(fp) <= budget);
            if !join {
                waves.push(std::mem::take(&mut cur));
                ledger = residency;
            }
            let wave = waves.len();
            ledger = ledger.saturating_add(fp);
            cur.push(q);
            admission.push(AdmissionRecord {
                query: q,
                name: queries[q].0.clone(),
                wave: Some(wave),
                queued: wave > 0,
                rejected: false,
                estimated_bytes: est,
                budget_bytes: budget,
            });
        }
        if !cur.is_empty() {
            waves.push(cur);
        }
        admission.sort_by_key(|r| r.query);
        SchedulePlan { waves, admission, rejected }
    }

    /// Admit, schedule and execute `specs`. Per-query reports and result
    /// values are bit-equal to serial runs of the same factories at any
    /// worker count; see the module docs.
    pub fn run<'g, V: Id>(&self, specs: &[QuerySpec<'g, V>]) -> ServiceReport {
        let named: Vec<(String, u64)> =
            specs.iter().map(|s| (s.name.clone(), s.footprint_bytes)).collect();
        let plan = self.plan(&named);
        let k = specs.len();
        let mut outcomes: Vec<Option<QueryOutcome>> = (0..k).map(|_| None).collect();
        for (q, e) in plan.rejected {
            outcomes[q] = Some(QueryOutcome {
                query: q,
                name: specs[q].name.clone(),
                wave: usize::MAX,
                result: Err(e),
                values: Vec::new(),
            });
        }

        let t0 = Instant::now();
        for (w, wave) in plan.waves.iter().enumerate() {
            let wave = wave.as_slice();
            let next = AtomicUsize::new(0);
            let workers = self.policy.workers.max(1).min(wave.len());
            type Done = Vec<(usize, Result<(EnactReport, Vec<u64>)>)>;
            let done: Done = std::thread::scope(|scope| {
                let next = &next;
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut out: Done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= wave.len() {
                                    break;
                                }
                                let q = wave[i];
                                let spec = &specs[q];
                                let r = (spec.build)().and_then(|mut ex| {
                                    let report = ex.enact(spec.source)?;
                                    let values = ex.harvest();
                                    Ok((report, values))
                                });
                                out.push((q, r));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("service worker panicked"))
                    .collect()
            });
            for (q, r) in done {
                let (result, values) = match r {
                    Ok((report, values)) => (Ok(report), values),
                    Err(e) => (Err(e), Vec::new()),
                };
                outcomes[q] = Some(QueryOutcome {
                    query: q,
                    name: specs[q].name.clone(),
                    wave: w,
                    result,
                    values,
                });
            }
        }
        let wall_time_us = t0.elapsed().as_secs_f64() * 1e6;

        // Deterministic aggregates: fold in fixed wave/dispatch order,
        // never in thread-completion order (f64 addition is not
        // associative).
        let mut serial_sim_us = 0.0;
        let mut concurrent_sim_us = 0.0;
        for wave in &plan.waves {
            let mut wave_max = 0.0f64;
            for &q in wave {
                if let Some(o) = &outcomes[q] {
                    if let Ok(rep) = &o.result {
                        serial_sim_us += rep.sim_time_us;
                        wave_max = wave_max.max(rep.sim_time_us);
                    }
                }
            }
            concurrent_sim_us += wave_max;
        }

        ServiceReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every query resolved to an outcome"))
                .collect(),
            admission: plan.admission,
            waves: plan.waves.len(),
            serial_sim_us,
            concurrent_sim_us,
            wall_time_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(fps: &[u64]) -> Vec<(String, u64)> {
        fps.iter().enumerate().map(|(i, &f)| (format!("q{i}"), f)).collect()
    }

    #[test]
    fn plan_is_deterministic_per_seed_and_varies_across_seeds() {
        let queries = named(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let s1 = Service::new(ServicePolicy { seed: 7, lanes: 3, ..Default::default() });
        let a = s1.plan(&queries);
        let b = s1.plan(&queries);
        assert_eq!(a, b, "same seed, same plan");
        let mut seen_different = false;
        for seed in 0..16 {
            let s2 = Service::new(ServicePolicy { seed, lanes: 3, ..Default::default() });
            if s2.plan(&queries).waves != a.waves {
                seen_different = true;
                break;
            }
        }
        assert!(seen_different, "some seed should permute the dispatch order");
    }

    #[test]
    fn lanes_bound_wave_width_and_later_waves_are_queued() {
        let queries = named(&[1; 10]);
        let plan = Service::new(ServicePolicy { lanes: 4, ..Default::default() }).plan(&queries);
        assert_eq!(plan.waves.len(), 3);
        assert!(plan.waves.iter().all(|w| w.len() <= 4));
        for rec in &plan.admission {
            assert_eq!(rec.queued, rec.wave.unwrap() > 0);
            assert!(!rec.rejected);
        }
        assert!(plan.rejected.is_empty());
    }

    #[test]
    fn watermark_queues_and_hard_cap_rejects() {
        // residency 100, cap 200, watermark 0.85 → budget 170.
        // fp 40 queries: wave ledger 100+40+... queues after the first.
        let policy = ServicePolicy {
            lanes: 0,
            mem_cap: Some(200),
            residency_bytes: 100,
            ..Default::default()
        };
        let plan = Service::new(policy).plan(&named(&[40, 40, 40]));
        assert_eq!(plan.waves.len(), 3, "watermark admits one 40-byte query per wave");
        assert!(plan.rejected.is_empty());
        assert!(plan.admission.iter().any(|r| r.queued));

        // A lone query between watermarks (100+90=190 ≤ 200 but > 170)
        // queues into its own wave instead of failing.
        let plan = Service::new(policy).plan(&named(&[90]));
        assert_eq!(plan.waves.len(), 1);
        assert!(plan.rejected.is_empty());

        // A lone query over the hard cap is rejected, typed.
        let plan = Service::new(policy).plan(&named(&[150]));
        assert!(plan.waves.iter().all(|w| w.is_empty()) || plan.waves.is_empty());
        assert_eq!(plan.rejected.len(), 1);
        assert!(matches!(plan.rejected[0].1, VgpuError::OutOfMemory { requested: 250, .. }));
        assert!(plan.admission[0].rejected);
    }

    #[test]
    fn disabled_admission_never_queues_on_memory() {
        let policy = ServicePolicy { lanes: 0, mem_cap: None, ..Default::default() };
        let plan = Service::new(policy).plan(&named(&[u64::MAX / 2, u64::MAX / 2]));
        assert_eq!(plan.waves.len(), 1, "no cap, no lanes bound: one wave");
        assert!(plan.rejected.is_empty());
    }
}
