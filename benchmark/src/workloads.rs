//! The five workloads: what is generated, what one pass (one op) does, and
//! why each exists. Sizes are constants here; `README.md` records the
//! measured phase shares that justify them.

use crate::api::{self, EdgeList, Knobs, Prim, QueryResult, Resident, ServeQuery};
use crate::span::{At, Recorder, SETUP};
use crate::verify::Key;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestSoc,
    TraverseSoc,
    SuperstepsRoad,
    WireRmat,
    ServeMix,
}

/// Input and thread budget of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub dataset: &'static str,
    /// The catalog analog is scaled down by `2^shift` vertices.
    pub shift: u32,
    /// Virtual GPUs = device threads per enact.
    pub devices: usize,
    /// Service worker threads (`serve_mix` only).
    pub workers: usize,
}

/// The `--smoke` scale: every dataset at shift 10, seconds per suite.
const SMOKE_SHIFT: u32 = 10;
/// Seeded sources are drawn from this many highest-degree vertices.
const SOURCE_POOL: usize = 9;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::IngestSoc,
        Workload::TraverseSoc,
        Workload::SuperstepsRoad,
        Workload::WireRmat,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSoc => "ingest_soc",
            Workload::TraverseSoc => "traverse_soc",
            Workload::SuperstepsRoad => "supersteps_road",
            Workload::WireRmat => "wire_rmat",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-line reason the workload exists (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestSoc => {
                "cold edge list to verified BFS+DOBFS words on a soc-orkut analog: CSR build, partition \
                 and CSC are ~95% of the pass, kernels almost none"
            }
            Workload::TraverseSoc => {
                "seven primitives, 11 queries, on a warm soc-orkut residency: enact is ~88% of the pass, \
                 supersteps are few, kernel bodies do the work"
            }
            Workload::SuperstepsRoad => {
                "BFS+DOBFS on a deep road lattice: ~1800 near-empty supersteps per pass, so the enactor's \
                 fixed per-superstep path (split, mailbox, barrier) dominates"
            }
            Workload::WireRmat => {
                "five primitives on R-MAT over 4 vGPUs under the default config, then under \
                 butterfly+auto-encoding+suppression: the comm layer used two ways"
            }
            Workload::ServeMix => {
                "an 8-query service batch, 2 workers x 2 vGPUs, one query on the resilient executor: \
                 queries share the host and each binds a fresh executor"
            }
        }
    }

    pub fn spec(self, smoke: bool) -> Spec {
        let s = |dataset, shift, devices, workers| Spec {
            dataset,
            shift: if smoke { SMOKE_SHIFT } else { shift },
            devices,
            workers,
        };
        match self {
            Workload::IngestSoc => s("soc-orkut", 6, 2, 1),
            Workload::TraverseSoc => s("soc-orkut", 6, 2, 1),
            Workload::SuperstepsRoad => s("road-analog", 8, 2, 1),
            // the n x (n-1) fan-out and the butterfly do not exist below 4
            Workload::WireRmat => s("rmat_2Mv_128Me", 7, 4, 1),
            // two queries in flight, each driving 2 device threads
            Workload::ServeMix => s("hollywood-2009", 5, 2, 2),
        }
    }
}

/// One query of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub prim: Prim,
    pub src: Option<u32>,
    /// Run under the wire-reduction stack (`wire_rmat`'s second half).
    pub reduced: bool,
    /// Run on the resilient executor (`serve_mix`'s last query).
    pub resilient: bool,
}

impl Query {
    fn new(prim: Prim, src: u32) -> Self {
        Query { prim, src: prim.needs_source().then_some(src), reduced: false, resilient: false }
    }

    pub fn key(&self) -> Key {
        Key { prim: self.prim, src: self.src }
    }
}

/// Size counters of an ingested graph (exact, per-layer metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    pub graph_edges: u64,
    pub csr_bytes: u64,
    pub border_vertices: u64,
    pub topology_bytes_max: u64,
    /// Tells two generated graphs apart (determinism tests).
    pub fingerprint: u64,
}

impl IngestCounts {
    pub fn of(res: &Resident) -> Self {
        IngestCounts {
            graph_edges: res.graph.n_edges() as u64,
            csr_bytes: res.graph.csr_bytes(),
            border_vertices: res.dist.border_vertices(),
            topology_bytes_max: res.dist.topology_bytes_max(),
            fingerprint: res.graph.fingerprint(),
        }
    }
}

/// What set-up leaves in hand for the timed passes.
pub struct Prepared {
    pub spec: Spec,
    pub seed: u64,
    pub gen_edges: u64,
    /// `ingest_soc` keeps only the edge list: its pass does the ingest.
    edges: Option<EdgeList>,
    /// Every other workload keeps the graph resident.
    pub resident: Option<Resident>,
    queries: Vec<Query>,
}

/// Aggregates of one `Service::run`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceSummary {
    pub waves: u64,
    pub queued: u64,
    pub serial_sim_us: f64,
    pub concurrent_sim_us: f64,
    pub plan_wall_us: f64,
    pub run_wall_us: f64,
}

/// Everything one pass produced.
pub struct PassOut {
    /// `ingest_soc`: what the pass built, kept only so the answers can be
    /// verified after the clock stops.
    pub built: Option<Resident>,
    pub queries: Vec<(Query, QueryResult)>,
    pub service: Option<ServiceSummary>,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first vertex at or after `start` (wrapping) with at least two
/// neighbours, so a seeded source never lands on an isolated vertex.
fn connected_from(res: &Resident, start: u64) -> u32 {
    let n = res.graph.n_vertices() as u64;
    (0..n).map(|i| ((start + i) % n) as u32).find(|&v| res.graph.degree(v) >= 2).unwrap_or(0)
}

/// Build, partition (uniform random, duplicate-all) and add the reverse
/// adjacency: the ingest every workload pays, in set-up or in the pass.
fn ingest(edges: &EdgeList, spec: Spec, seed: u64, rec: &Recorder, at: At) -> Resident {
    let graph = rec.span("GraphBuilder::undirected", "", at, |_| api::build_graph(edges));
    let owner = rec.span("Partitioner::assign", "", at, |_| {
        api::assign(&graph, spec.devices, seed.wrapping_add(0x5eed))
    });
    let mut dist =
        rec.span("DistGraph::build", "", at, |_| api::build_dist(&graph, owner, spec.devices));
    rec.span("build_cscs", "", at, |_| dist.build_cscs());
    Resident { graph, dist, shift: spec.shift }
}

impl Workload {
    /// The pass's query list, a function of the graph and the seed.
    fn queries(self, res: &Resident, seed: u64) -> Vec<Query> {
        let n = res.graph.n_vertices() as u64;
        // The second source is drawn by the seed from the next-highest-degree
        // vertices, not from all of V: traversals from any of them do nearly
        // the same work, so the seed varies the input without deciding the
        // metric.
        let hubs = res.graph.hubs(SOURCE_POOL);
        let hub = hubs[0];
        let second = hubs[1 + (splitmix64(seed) % (hubs.len() as u64 - 1)) as usize];
        let q = Query::new;
        match self {
            Workload::IngestSoc => vec![q(Prim::Bfs, hub), q(Prim::Dobfs, hub)],
            Workload::TraverseSoc => {
                let mut qs = Vec::new();
                for s in [hub, second] {
                    qs.extend([Prim::Bfs, Prim::Dobfs, Prim::Sssp, Prim::Bc].map(|p| q(p, s)));
                }
                qs.extend([Prim::Cc, Prim::Pr, Prim::MsBfs].map(|p| q(p, hub)));
                qs
            }
            Workload::SuperstepsRoad => {
                // Fixed lattice positions (1/4 and 3/4 of the id space),
                // moved by the seed by fewer than 16 ids: the traversal depth
                // — and with it the superstep count this workload exists to
                // measure — stays comparable from seed to seed.
                let at = |quarter: u64, salt: u64| {
                    connected_from(res, n * quarter / 4 + splitmix64(seed ^ salt) % 16)
                };
                [at(1, 1), at(3, 2)]
                    .into_iter()
                    .flat_map(|s| [q(Prim::Bfs, s), q(Prim::Dobfs, s)])
                    .collect()
            }
            Workload::WireRmat => {
                let half =
                    [Prim::Bfs, Prim::Dobfs, Prim::Sssp, Prim::Cc, Prim::MsBfs].map(|p| q(p, hub));
                let reduced = half.map(|q| Query { reduced: true, ..q });
                half.into_iter().chain(reduced).collect()
            }
            Workload::ServeMix => {
                let mut qs: Vec<Query> =
                    [Prim::Bfs, Prim::Dobfs, Prim::Sssp, Prim::Bc, Prim::Cc, Prim::Pr]
                        .map(|p| q(p, hub))
                        .into();
                qs.push(q(Prim::Bfs, second));
                qs.push(Query { resilient: true, ..q(Prim::Sssp, second) });
                qs
            }
        }
    }

    /// Everything before the first timed pass: generate + weights, and (all
    /// but `ingest_soc`) the ingest.
    pub fn setup(self, seed: u64, smoke: bool, rec: &Recorder) -> Prepared {
        let spec = self.spec(smoke);
        let at = At::pass(SETUP);
        let mut edges =
            rec.span("generate", "", at, |_| api::generate(spec.dataset, spec.shift, seed));
        rec.span("add_weights", "", at, |_| api::add_weights(&mut edges, seed ^ 0x9e37_79b9));
        let gen_edges = edges.n_edges() as u64;
        if self == Workload::IngestSoc {
            return Prepared {
                spec,
                seed,
                gen_edges,
                edges: Some(edges),
                resident: None,
                queries: Vec::new(),
            };
        }
        let resident = ingest(&edges, spec, seed, rec, at);
        let queries = self.queries(&resident, seed);
        Prepared { spec, seed, gen_edges, edges: None, resident: Some(resident), queries }
    }

    /// One op: a pass over the workload's whole query list.
    pub fn pass(self, prep: &Prepared, tracing: bool, rec: &Recorder, at: At) -> PassOut {
        match self {
            Workload::IngestSoc => {
                let edges = prep.edges.as_ref().expect("ingest_soc keeps its edge list");
                let res = ingest(edges, prep.spec, prep.seed, rec, at);
                let queries = self.queries(&res, prep.seed);
                let queries = run_list(&res, &queries, 0, tracing, rec, at);
                PassOut { built: Some(res), queries, service: None }
            }
            Workload::ServeMix => {
                let res = prep.resident.as_ref().expect("set-up made the graph resident");
                let batch: Vec<ServeQuery> = prep
                    .queries
                    .iter()
                    .map(|q| ServeQuery { prim: q.prim, src: q.src, resilient: q.resilient })
                    .collect();
                let knobs = Knobs { tracing, reduced: false };
                let run = api::serve(res, &batch, prep.seed, prep.spec.workers, knobs, rec, at);
                PassOut {
                    built: None,
                    queries: prep.queries.iter().copied().zip(run.outcomes).collect(),
                    service: Some(ServiceSummary {
                        waves: run.waves,
                        queued: run.queued,
                        serial_sim_us: run.serial_sim_us,
                        concurrent_sim_us: run.concurrent_sim_us,
                        plan_wall_us: run.plan_wall_us,
                        run_wall_us: run.run_wall_us,
                    }),
                }
            }
            Workload::WireRmat => {
                let res = prep.resident.as_ref().expect("set-up made the graph resident");
                let (default, reduced) = prep.queries.split_at(prep.queries.len() / 2);
                let mut queries = rec.span("wire.default", "", at, |half| {
                    run_list(res, default, 0, tracing, rec, at.under(half))
                });
                queries.extend(rec.span("wire.reduced", "", at, |half| {
                    run_list(res, reduced, default.len(), tracing, rec, at.under(half))
                }));
                PassOut { built: None, queries, service: None }
            }
            Workload::TraverseSoc | Workload::SuperstepsRoad => {
                let res = prep.resident.as_ref().expect("set-up made the graph resident");
                PassOut {
                    built: None,
                    queries: run_list(res, &prep.queries, 0, tracing, rec, at),
                    service: None,
                }
            }
        }
    }
}

/// Bind, enact and harvest each query in turn, one in flight.
/// `first` is the pass-wide index of `queries[0]` (the spans' query id).
fn run_list(
    res: &Resident,
    queries: &[Query],
    first: usize,
    tracing: bool,
    rec: &Recorder,
    at: At,
) -> Vec<(Query, QueryResult)> {
    let lanes = api::spread_sources(res.graph.n_vertices());
    queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let knobs = Knobs { tracing, reduced: q.reduced };
            let at = at.query((first + i) as u32);
            let result = rec.span("query", q.prim.name(), at, |span| {
                api::run_query(res, q.prim, q.src, &lanes, knobs, rec, at.under(span))
            });
            (q, result)
        })
        .collect()
}
