//! Bridge from [`Primitive`] descriptors to [`mgpu_core::service`] query
//! specs: the piece `repro service`, the CLI `serve` subcommand,
//! and the concurrency test-suite all share.
//!
//! The shared residency is one immutable [`DistGraph`]. Each descriptor
//! turns into a [`QuerySpec`] whose factory binds a fresh [`Runner`] — a
//! resilient query's config carrying [`RecoveryPolicy::resilient`] — on a
//! fresh overhead-scaled simulated system borrowing that residency, so
//! every query's simulated clocks are deterministic and independent of
//! co-scheduled queries.
//!
//! Footprints fed to the service admission ledger come from the same
//! [`mgpu_core::governor::estimate_bind`] the enactor's admission walk
//! uses: the per-device estimate *minus* the topology bytes it adds, which
//! are what the bind reserves (the topology is the shared residency,
//! charged once per wave).

use mgpu_core::governor::estimate_bind;
use mgpu_core::{EnactConfig, Executor, ExecutorKind, MgpuProblem, QuerySpec, RecoveryPolicy, Runner};
use mgpu_graph::{Csr, Id};
use mgpu_partition::DistGraph;
use mgpu_primitives::{reference, Bc, Bfs, Cc, Dobfs, Pagerank, Sssp};
use vgpu::{FaultPlan, HardwareProfile};

use crate::runners::{pick_source, scaled_system, with_problem, Primitive, PR_ITERS};

/// One query descriptor, as parsed from a `--queries` spec entry.
#[derive(Debug, Clone)]
pub struct QueryDesc {
    /// Which primitive to run.
    pub prim: Primitive,
    /// Global source vertex; `None` picks the highest-degree vertex for
    /// primitives that need one.
    pub source: Option<usize>,
    /// Executor: plain BSP or resilient.
    pub mode: ExecutorKind,
    /// Per-query fault plan (injected into the query's own simulated
    /// system; co-scheduled queries are unaffected).
    pub plan: Option<FaultPlan>,
}

impl QueryDesc {
    /// A plain BSP query.
    pub fn bsp(prim: Primitive, source: Option<usize>) -> Self {
        QueryDesc { prim, source, mode: ExecutorKind::Bsp, plan: None }
    }
}

/// Parse a comma-separated query list: each entry is
/// `prim[:source][@mode]`, e.g. `bfs:0,sssp:5@resilient,cc,pr@bsp`.
/// Primitives are `bfs|dobfs|sssp|bc|cc|pr`; modes are `bsp|resilient`
/// (default `bsp`).
pub fn parse_query_list(spec: &str) -> Result<Vec<QueryDesc>, String> {
    spec.split(',').filter(|s| !s.trim().is_empty()).map(parse_query).collect()
}

fn parse_query(entry: &str) -> Result<QueryDesc, String> {
    let entry = entry.trim();
    let (body, mode) = entry.split_once('@').unwrap_or((entry, ExecutorKind::Bsp.label()));
    let mode: ExecutorKind = mode.parse().map_err(|()| {
        let want: Vec<&str> = ExecutorKind::ALL.iter().map(|k| k.label()).collect();
        format!("unknown exec mode '{mode}' in '{entry}': want {}", want.join("|"))
    })?;
    let (prim, source) = match body.split_once(':') {
        Some((p, v)) => {
            let src: usize = v.parse().map_err(|_| format!("bad source '{v}' in '{entry}'"))?;
            (p, Some(src))
        }
        None => (body, None),
    };
    let prim: Primitive =
        prim.parse().map_err(|()| format!("unknown primitive '{prim}' in '{entry}'"))?;
    Ok(QueryDesc { prim, source, mode, plan: None })
}

/// The shared-residency topology bytes per device: the largest part's
/// `topology_bytes`, everything built for it (what
/// [`mgpu_core::ServicePolicy::residency_bytes`] should carry).
pub fn residency_bytes<O: Id>(dist: &DistGraph<u32, O>) -> u64 {
    dist.parts.iter().map(|s| s.topology_bytes()).max().unwrap_or(0)
}

/// A query's *dynamic* per-device footprint (state + frontiers + comm
/// staging, excluding shared topology), via the governor's pre-flight
/// estimate maxed over partitions.
fn dynamic_footprint<O: Id, P: MgpuProblem<u32, O>>(
    p: &P,
    dist: &DistGraph<u32, O>,
    config: &EnactConfig,
) -> u64 {
    let scheme = config.alloc_scheme.unwrap_or_else(|| p.alloc_scheme());
    let comm = config.comm.unwrap_or_else(|| p.comm());
    let dynamic = |sub| {
        let est = estimate_bind(p, sub, scheme, comm);
        est.total().saturating_sub(est.topology)
    };
    dist.parts.iter().map(dynamic).max().unwrap_or(0)
}

/// Build service query specs for `descs` against one shared residency:
/// `dist` (carrying every array a descriptor reads, see
/// [`Primitive::reads`]) of `graph`, a hardware `profile` and overhead
/// `shift` (see [`scaled_system`]), and the per-query enact `config` — a
/// resilient query's with [`RecoveryPolicy::resilient`] in place of its
/// recovery policy.
pub fn build_query_specs<'g, O: Id>(
    graph: &'g Csr<u32, O>,
    dist: &'g DistGraph<u32, O>,
    profile: HardwareProfile,
    shift: u32,
    config: EnactConfig,
    descs: &[QueryDesc],
) -> Result<Vec<QuerySpec<'g, u32>>, String> {
    let n = dist.n_parts;
    let mut specs = Vec::with_capacity(descs.len());
    for desc in descs {
        let prim = desc.prim;
        let source: Option<u32> = match desc.source {
            Some(s) => {
                if s >= graph.n_vertices() {
                    return Err(format!(
                        "source {s} out of range for {} vertices",
                        graph.n_vertices()
                    ));
                }
                Some(s as u32)
            }
            None => prim.needs_source().then(|| pick_source(graph)),
        };
        let name = match source {
            Some(s) => format!("{}:{}@{}", prim.name(), s, desc.mode.label()),
            None => format!("{}@{}", prim.name(), desc.mode.label()),
        };
        let plan = desc.plan.clone();
        let config = match desc.mode {
            ExecutorKind::Bsp => config,
            ExecutorKind::Resilient => {
                EnactConfig { recovery: RecoveryPolicy::resilient(), ..config }
            }
        };
        let profile = profile.clone();
        with_problem!(prim, false, |problem| {
            let fp = dynamic_footprint(&problem, dist, &config);
            specs.push(QuerySpec::new(name, source, fp, move || {
                let mut system = scaled_system(n, profile.clone(), shift);
                if let Some(p) = &plan {
                    system.attach_fault_plan(p);
                }
                Ok(Box::new(Runner::new(system, dist, problem, config)?)
                    as Box<dyn Executor<u32> + Send + 'g>)
            }));
        });
    }
    Ok(specs)
}

/// Check one query's harvested result `words` against
/// `primitives::reference`, the oracle that shares no code with the
/// framework: BFS, SSSP and CC exactly, BC within the `1e-3` its f32 σ is
/// checked at, PR within `pr.rs`'s `PR_REL_ERROR = 1e-4` plus the f32
/// rounding of its (at most `PR_ITERS + 1`) supersteps. `Err` names the
/// first disagreement.
pub fn check_against_reference<O: Id>(
    prim: Primitive,
    graph: &Csr<u32, O>,
    source: Option<u32>,
    words: &[u64],
) -> Result<(), String> {
    let sized = |n: usize| {
        if words.len() == n {
            Ok(())
        } else {
            Err(format!("{} words for {n} vertices", words.len()))
        }
    };
    let exact = |expect: Vec<u64>| {
        sized(expect.len())?;
        match words.iter().zip(&expect).position(|(w, e)| w != e) {
            Some(v) => Err(format!("vertex {v}: {} vs {}", words[v], expect[v])),
            None => Ok(()),
        }
    };
    let close = |expect: Vec<f64>, rel: f64, abs: f64| {
        sized(expect.len())?;
        let got: Vec<f64> = words.iter().map(|&w| f64::from(f32::from_bits(w as u32))).collect();
        // written so that a NaN is outside the tolerance
        let within = |a: f64, b: f64| (a - b).abs() <= rel * b.abs() + abs;
        match got.iter().zip(&expect).position(|(&a, &b)| !within(a, b)) {
            Some(v) => Err(format!("vertex {v}: {} vs {}", got[v], expect[v])),
            None => Ok(()),
        }
    };
    let src = || source.expect("a sourced primitive was given its source");
    match prim {
        Primitive::Bfs | Primitive::Dobfs => {
            exact(reference::bfs(graph, src()).into_iter().map(u64::from).collect())
        }
        Primitive::Sssp => {
            exact(reference::sssp(graph, src()).into_iter().map(u64::from).collect())
        }
        Primitive::Cc => exact(reference::cc(graph).into_iter().map(|c| c as u64).collect()),
        Primitive::Bc => close(reference::bc(graph, src()), 1e-3, 1e-3),
        Primitive::Pr => {
            let rounding = 2.0 * (PR_ITERS + 1) as f64 * f64::from(f32::EPSILON);
            close(reference::pagerank(graph, 0.85, PR_ITERS), 1e-4 + rounding, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let qs = parse_query_list("bfs:0,sssp:5@resilient,cc,pr@bsp, bc:2 ").unwrap();
        assert_eq!(qs.len(), 5);
        assert_eq!(qs[0].prim, Primitive::Bfs);
        assert_eq!(qs[0].source, Some(0));
        assert_eq!(qs[0].mode, ExecutorKind::Bsp);
        assert_eq!(qs[1].mode, ExecutorKind::Resilient);
        assert_eq!(qs[2].prim, Primitive::Cc);
        assert_eq!(qs[2].source, None);
        assert_eq!(qs[4].source, Some(2));
        assert!(parse_query_list("zork").is_err());
        assert!(parse_query_list("bfs@warp").is_err());
        assert!(parse_query_list("bfs:x").is_err());
        assert_eq!(
            parse_query_list("sssp:0@async").unwrap_err(),
            "unknown exec mode 'async' in 'sssp:0@async': want bsp|resilient"
        );
    }

    #[test]
    fn the_oracle_rejects_a_wrong_word_a_short_answer_and_a_nan() {
        use mgpu_graph::{Coo, GraphBuilder};
        let path: Csr<u32, u64> =
            GraphBuilder::undirected(&Coo::from_edges(3, vec![(0, 1), (1, 2)], None));
        let check = |prim, words: &[u64]| check_against_reference(prim, &path, Some(0), words);
        assert_eq!(check(Primitive::Bfs, &[0, 1, 2]), Ok(()));
        assert_eq!(check(Primitive::Sssp, &[0, 1, 1]), Err("vertex 2: 1 vs 2".into()));
        assert_eq!(check(Primitive::Cc, &[0, 0]), Err("2 words for 3 vertices".into()));
        let ranks = reference::pagerank(&path, 0.85, PR_ITERS);
        let mut words: Vec<u64> = ranks.iter().map(|&r| u64::from((r as f32).to_bits())).collect();
        assert_eq!(check(Primitive::Pr, &words), Ok(()));
        words[1] = u64::from(f32::NAN.to_bits());
        assert!(check(Primitive::Pr, &words).is_err(), "a NaN rank is outside any tolerance");
    }
}
