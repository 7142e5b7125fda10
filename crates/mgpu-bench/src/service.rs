//! Bridge from [`Primitive`] descriptors to [`mgpu_core::service`] query
//! specs: the piece `repro service`, the CLI `serve` subcommand,
//! and the concurrency test-suite all share.
//!
//! The shared residency is one immutable [`DistGraph`] (plus the raw CSR
//! and an ownership table for resilient queries). Each descriptor turns
//! into a [`QuerySpec`] whose factory builds a fresh executor — BSP
//! [`Runner`], [`AsyncRunner`], or [`ResilientRunner`] per its mode — on a
//! fresh overhead-scaled simulated system borrowing that residency, so
//! every query's simulated clocks are deterministic and independent of
//! co-scheduled queries.
//!
//! Footprints fed to the service admission ledger come from the same
//! [`mgpu_core::governor::estimate_footprint`] the enactor's admission
//! walk uses: the per-device estimate *minus* the topology bytes (the
//! topology is the shared residency, charged once per wave).

use mgpu_core::governor::estimate_footprint;
use mgpu_core::problem::Wire;
use mgpu_core::{
    AsyncRunner, EnactConfig, Executor, ExecutorKind, MgpuProblem, QuerySpec, ResilientRunner,
    Runner,
};
use mgpu_graph::{Csr, Id};
use mgpu_partition::DistGraph;
use mgpu_primitives::{Bc, Bfs, Cc, Dobfs, Pagerank, Sssp};
use vgpu::{FaultPlan, HardwareProfile};

use crate::runners::{overhead_scale, pick_source, scaled_system, with_problem, Primitive};

/// One query descriptor, as parsed from a `--queries` spec entry.
#[derive(Debug, Clone)]
pub struct QueryDesc {
    /// Which primitive to run.
    pub prim: Primitive,
    /// Global source vertex; `None` picks the highest-degree vertex for
    /// primitives that need one.
    pub source: Option<usize>,
    /// Executor engine. `Async` takes label-correcting primitives only
    /// (bfs/sssp/cc) and is excluded from bit-equality assertions (async
    /// simulated time is scheduling-dependent).
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
/// Primitives are `bfs|dobfs|sssp|bc|cc|pr`; modes are
/// `bsp|async|resilient` (default `bsp`).
pub fn parse_query_list(spec: &str) -> Result<Vec<QueryDesc>, String> {
    spec.split(',').filter(|s| !s.trim().is_empty()).map(parse_query).collect()
}

fn parse_query(entry: &str) -> Result<QueryDesc, String> {
    let entry = entry.trim();
    let (body, mode) = entry.split_once('@').unwrap_or((entry, ExecutorKind::Bsp.label()));
    let mode: ExecutorKind =
        mode.parse().map_err(|()| format!("unknown exec mode '{mode}' in '{entry}'"))?;
    let (prim, source) = match body.split_once(':') {
        Some((p, v)) => {
            let src: usize = v.parse().map_err(|_| format!("bad source '{v}' in '{entry}'"))?;
            (p, Some(src))
        }
        None => (body, None),
    };
    let prim: Primitive =
        prim.parse().map_err(|()| format!("unknown primitive '{prim}' in '{entry}'"))?;
    if mode == ExecutorKind::Async
        && !matches!(prim, Primitive::Bfs | Primitive::Sssp | Primitive::Cc)
    {
        return Err(format!(
            "'{entry}': async mode requires a label-correcting primitive (bfs/sssp/cc)"
        ));
    }
    Ok(QueryDesc { prim, source, mode, plan: None })
}

/// The shared-residency topology bytes per device: the max partition's
/// CSR footprint (what [`mgpu_core::ServicePolicy::residency_bytes`]
/// should carry).
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
    dist.parts
        .iter()
        .map(|sub| {
            estimate_footprint(
                scheme,
                comm,
                dist.n_parts,
                sub.n_vertices(),
                sub.n_edges(),
                sub.topology_bytes(),
                p.state_bytes_per_vertex(),
                4,
                <P::Msg as Wire>::BYTES,
            )
            .total()
            .saturating_sub(sub.topology_bytes())
        })
        .max()
        .unwrap_or(0)
}

/// Build service query specs for `descs` against one shared residency:
/// `dist` (with CSCs built if any descriptor is `dobfs`), the raw `graph`
/// plus `owner` table for resilient queries, a hardware `profile` and
/// overhead `shift` (see [`scaled_system`]), and the per-query enact
/// `config`.
#[allow(clippy::too_many_arguments)]
pub fn build_query_specs<'g, O: Id>(
    graph: &'g Csr<u32, O>,
    dist: &'g DistGraph<u32, O>,
    owner: &[u32],
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
        let mode = desc.mode;
        let profile = profile.clone();
        let owner: Vec<u32> = owner.to_vec();
        with_problem!(prim, false, |problem| {
            let fp = dynamic_footprint(&problem, dist, &config);
            specs.push(QuerySpec::new(name, source, fp, move || {
                let faulty_system = || {
                    let mut s = scaled_system(n, profile.clone(), shift);
                    if let Some(p) = &plan {
                        s.attach_fault_plan(p);
                    }
                    s
                };
                Ok(match mode {
                    ExecutorKind::Bsp => {
                        Box::new(Runner::new(faulty_system(), dist, problem, config)?)
                            as Box<dyn Executor<u32> + Send + 'g>
                    }
                    ExecutorKind::Async => {
                        Box::new(AsyncRunner::with_config(faulty_system(), dist, problem, &config)?)
                    }
                    ExecutorKind::Resilient => {
                        let mut runner = ResilientRunner::homogeneous(
                            graph,
                            problem,
                            n,
                            profile.clone().with_overhead_scale(overhead_scale(shift)),
                            config,
                        )
                        .with_owner(owner.clone());
                        if prim == Primitive::Dobfs {
                            runner = runner.with_csc();
                        }
                        if let Some(p) = &plan {
                            runner = runner.with_fault_plan(p.clone());
                        }
                        Box::new(runner)
                    }
                })
            }));
        });
    }
    Ok(specs)
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
        assert!(parse_query_list("bc@async").is_err(), "bc is not label-correcting");
    }
}
