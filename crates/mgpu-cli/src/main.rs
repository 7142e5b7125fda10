//! `mgpu` — command-line driver for the multi-GPU graph analytics library.
//!
//! ```text
//! mgpu datasets                               list the Table II analog catalog
//! mgpu run --primitive bfs --dataset soc-orkut --gpus 4
//! mgpu run --primitive sssp --mtx graph.mtx --gpus 2 --partitioner metis
//! mgpu run --primitive pr --dataset uk-2002 --gpus 6 --json
//! ```
//!
//! Flags for `run`:
//!
//! ```text
//!   --primitive {bfs|dobfs|sssp|bc|cc|pr}   (required)
//!   --dataset <name> | --mtx <path>          (one required)
//!   --gpus N            virtual GPU count              [default 4]
//!   --partitioner {random|biased|metis|chunked}        [default random]
//!   --profile {k40|k80|p100}                           [default k40]
//!   --shift N           dataset scale-down exponent, 0..=63 [default 8]
//!   --seed S            generator/partitioner seed     [default 42]
//!   --sources N|id,..   batched multi-source traversal (bfs and bc only):
//!                       a bare count N spreads N sources evenly over the
//!                       vertex space, a comma list names them; all sources
//!                       ride one enact, one u64 bitfield lane each (max 64)
//!   --json              emit the report as JSON instead of text
//!   --comm {selective|broadcast}  override the primitive's communication
//!                       strategy
//!   --fault-plan SPEC   deterministic fault injection; SPEC is either a
//!                       comma-separated event list (`kfail:D@N`, `oom:D@N`,
//!                       `slow:D@N:US`, `lose:D@N`, `tfail:S>D@N`,
//!                       `ttimeout:S>D@N`, `spill:D@N`, `pass:D@N`,
//!                       `lease:D@N`), the shorthand `random:SEED:COUNT:HORIZON`
//!                       (transient-only), or `randomp:SEED:COUNT:HORIZON`
//!                       (transients plus pressure-path sites)
//!   --recovery          enact through the resilient runner: bounded retry,
//!                       superstep checkpoints, degrade on device loss
//!   --mem-cap BYTES     cap each device's memory pool at BYTES and enable
//!                       the memory-pressure governor (admission downgrades,
//!                       host spill, chunked multi-pass advance)
//!   --alloc-scheme {just-enough|fixed|max|prealloc-fusion}
//!                       override the primitive's frontier allocation scheme
//!   --sizing-factor F   preallocation sizing factor for fixed /
//!                       prealloc-fusion schemes, in (0, 2^32]     [default 1.0]
//!   --comm-topology {direct|butterfly}  broadcast collective shape
//!                       (butterfly = log2(n)-stage dissemination) [default direct]
//!   --wire-encoding {auto|list|bitmap|delta}  package wire format; auto
//!                       picks the smallest per package            [default auto]
//!   --trace-out PATH    record a structured trace and write it to PATH
//!                       (`.jsonl` → compact JSONL, anything else → Chrome
//!                       trace_event JSON for chrome://tracing / Perfetto)
//!   --profile           (no value) record a trace, print the per-superstep
//!                       BSP cost attribution table (W, H·g, S·l, waits) and
//!                       verify it reconciles exactly with the report
//! ```
//!
//! Both tracing flags verify the trace↔report reconciliation invariant and
//! exit non-zero on any mismatch. `run` starts from the highest-degree
//! vertex; `serve --queries bfs:N` names a source.
//!
//! `serve` runs a multi-tenant query mix against one shared residency
//! through the deterministic [`mgpu_core::service`] scheduler:
//!
//! ```text
//! mgpu serve --dataset soc-orkut --queries "bfs:0,sssp:5@resilient,cc,pr" --gpus 4
//! ```
//!
//! Flags for `serve`:
//!
//! ```text
//!   --queries LIST      comma list of `prim[:source][@mode]` entries;
//!                       prim ∈ {bfs|dobfs|sssp|bc|cc|pr}, mode ∈
//!                       {bsp|async|resilient} (default bsp; async is
//!                       bfs/sssp/cc only)              (required)
//!   --dataset <name> | --mtx <path>                    (one required)
//!   --gpus N            virtual GPU count              [default 4]
//!   --partitioner {random|biased|metis|chunked}        [default random]
//!   --profile {k40|k80|p100}                           [default k40]
//!   --shift N           dataset scale-down exponent, 0..=63 [default 8]
//!   --seed S            generator/partitioner seed     [default 42]
//!   --sched-seed S      dispatch-permutation seed      [default --seed]
//!   --lanes N           concurrent queries per wave (0 = unbounded)
//!                                                      [default 4]
//!   --workers N         host threads per wave (wall-clock only; results
//!                       and reports are identical at every value)
//!                                                      [default 1]
//!   --mem-cap BYTES     per-device capacity: the admission ledger queues
//!                       queries past the soft watermark and rejects with
//!                       a typed OOM only those that cannot fit alone
//!   --comm-topology {direct|butterfly}                 [default direct]
//!   --json              emit the service report as JSON
//! ```
//!
//! The scheduler is deterministic given `(--sched-seed, submission order)`:
//! per-query reports and result words are bit-equal to one-at-a-time runs
//! at any `--workers` and `--lanes` value.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

use mgpu_bench::runners::{
    run_primitive_resilient, scaled_system, timed, IngestWall, MultiSourceMode, Primitive,
};
use mgpu_bench::service::{build_query_specs, parse_query_list, residency_bytes};
use mgpu_bench::{run_multi_source, run_primitive};
use mgpu_core::{AllocScheme, EnactConfig, PressurePolicy, RecoveryPolicy, Service, ServicePolicy};
use mgpu_gen::catalog::{COMPARISON, TABLE2};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::{read_mtx, Csr, GraphBuilder};
use mgpu_partition::{
    BiasedRandomPartitioner, ChunkedPartitioner, DistGraph, Duplication, MultilevelPartitioner,
    Partitioner, RandomPartitioner,
};
use vgpu::{FaultPlan, HardwareProfile};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mgpu datasets\n  mgpu run --primitive <bfs|dobfs|sssp|bc|cc|pr> \
         (--dataset <name> | --mtx <path>) [--gpus N] [--partitioner random|biased|metis|chunked]\n\
         \x20         [--profile k40|k80|p100] [--shift N] [--seed S] [--sources N|id,id,...] [--json]\n\
         \x20         [--comm selective|broadcast] [--fault-plan <spec|random:SEED:COUNT:HORIZON>] [--recovery]\n\
         \x20         [--mem-cap BYTES] [--alloc-scheme just-enough|fixed|max|prealloc-fusion] [--sizing-factor F]\n\
         \x20         [--comm-topology direct|butterfly] [--wire-encoding auto|list|bitmap|delta]\n\
         \x20         [--trace-out PATH.jsonl|PATH.json] [--profile]\n\
         \x20 mgpu serve --queries \"bfs:0,sssp:5@resilient,cc\" (--dataset <name> | --mtx <path>)\n\
         \x20         [--gpus N] [--partitioner random|biased|metis|chunked] [--profile k40|k80|p100]\n\
         \x20         [--shift N] [--seed S] [--sched-seed S] [--lanes N] [--workers N]\n\
         \x20         [--mem-cap BYTES] [--comm-topology direct|butterfly] [--json]"
    );
    ExitCode::FAILURE
}

/// A flag value whose type states its range; `WANT` is that range in words.
trait FlagValue: FromStr {
    const WANT: &'static str;
}

impl FlagValue for NonZeroUsize {
    const WANT: &'static str = "an integer >= 1";
}

impl FlagValue for usize {
    const WANT: &'static str = "an integer >= 0";
}

impl FlagValue for u64 {
    const WANT: &'static str = "an integer >= 0";
}

/// `--shift`: the dataset scale-down exponent, below the 64-bit shift width.
#[derive(Debug, PartialEq)]
struct Shift(u32);

impl FromStr for Shift {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse().ok().filter(|&x: &u32| x < 64).map(Shift).ok_or(())
    }
}

impl FlagValue for Shift {
    const WANT: &'static str = "an integer in 0..=63";
}

/// `--sizing-factor`: a frontier holds at most `|E_i| <= |V_i|^2` ids, so a
/// multiplier on `|V_i|` past the 32-bit id space cannot be meant.
#[derive(Debug, PartialEq)]
struct SizingFactor(f64);

impl FromStr for SizingFactor {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse()
            .ok()
            .filter(|&x: &f64| x > 0.0 && x <= 4_294_967_296.0)
            .map(SizingFactor)
            .ok_or(())
    }
}

impl FlagValue for SizingFactor {
    const WANT: &'static str = "a number in (0, 2^32]";
}

/// Parse a numeric flag value. The type states the range: `NonZeroUsize`
/// refuses zero, the unsigned types refuse a sign, every type refuses
/// overflow.
fn number<T: FlagValue>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} {value}: want {}", T::WANT))
}

/// [`number`], exiting 2 with its one-line message the way a missing value
/// does.
fn number_or_exit<T: FlagValue>(flag: &str, value: String) -> T {
    number(flag, &value).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("datasets") => {
            println!("{:<20} {:<6} {:>12} {:>12}", "name", "group", "paper |V|", "paper |E|");
            for ds in TABLE2.iter().chain(COMPARISON) {
                println!(
                    "{:<20} {:<6} {:>11.2}M {:>11.0}M",
                    ds.name,
                    ds.group.label(),
                    ds.paper_vertices / 1e6,
                    ds.paper_edges / 1e6
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        _ => usage(),
    }
}

/// What the CSR build cost on the host.
struct BuildWall {
    /// Edges in the input list (before symmetrization and cleaning).
    input_edges: usize,
    /// `GraphBuilder::undirected`, µs.
    us: f64,
}

/// Generate `--dataset` or parse `--mtx`, attach the paper's weights when a
/// primitive needs them, and build the undirected CSR under a stopwatch.
fn load_graph(
    dataset: &Option<String>,
    mtx: &Option<String>,
    shift: u32,
    seed: u64,
    wants_weights: bool,
) -> Result<(Csr<u32, u64>, BuildWall), ExitCode> {
    let mut coo = match (dataset, mtx) {
        (Some(name), None) => {
            let Some(ds) = Dataset::by_name(name) else {
                eprintln!("unknown dataset {name}; try `mgpu datasets`");
                return Err(ExitCode::FAILURE);
            };
            ds.generate(shift, seed)
        }
        (None, Some(path)) => {
            let file = std::fs::File::open(path).map_err(|e| {
                eprintln!("cannot open {path}: {e}");
                ExitCode::FAILURE
            })?;
            read_mtx::<u32, _>(std::io::BufReader::new(file)).map_err(|e| {
                eprintln!("cannot parse {path}: {e}");
                ExitCode::FAILURE
            })?
        }
        _ => return Err(usage()),
    };
    if wants_weights && coo.weights.is_none() {
        add_paper_weights(&mut coo, seed ^ 0x77);
    }
    let mut us = 0.0;
    let graph = timed(&mut us, || GraphBuilder::undirected(&coo));
    Ok((graph, BuildWall { input_edges: coo.n_edges(), us }))
}

/// The one host-wall line of `--profile`: were the device threads waiting at
/// the rendezvous, or working?
fn host_sync_line(r: &mgpu_core::EnactReport) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let t = r.host_sync.total();
    let per_device: Vec<String> = r
        .host_sync
        .per_device
        .iter()
        .enumerate()
        .map(|(d, s)| format!("dev{d} {:.1}", ms(s.wait_wall_ns)))
        .collect();
    format!(
        "host sync: {} rendezvous, {} parked, device threads waited {:.1} ms in all over {:.1} ms wall ({})",
        t.rendezvous,
        t.parked,
        ms(t.wait_wall_ns),
        r.wall_time_us / 1e3,
        per_device.join(" / ")
    )
}

/// The one ingest line of the human output: where the host time before the
/// bind went, and how fast the builder took the input in.
fn print_ingest(built: &BuildWall, ingest: &IngestWall) {
    println!(
        "ingest         build {:.1} ms, partition {:.1} ms, CSC {:.1} ms ({:.1} input Medges/s)",
        built.us / 1e3,
        ingest.partition_us / 1e3,
        ingest.csc_us / 1e3,
        built.input_edges as f64 / built.us.max(1e-3)
    );
}

/// Parse `--fault-plan`: the event grammar understood by
/// [`FaultPlan::parse`], the shorthand `random:SEED:COUNT:HORIZON` for a
/// seed-derived transient-only plan, or `randomp:SEED:COUNT:HORIZON` for a
/// seed-derived plan that also targets the pressure paths (spill transfers,
/// chunked-advance passes, arena leases).
fn parse_fault_plan(spec: &str, n_devices: usize) -> Result<FaultPlan, String> {
    let random = |rest: &str, pressure: bool| -> Result<FaultPlan, String> {
        let parts: Vec<&str> = rest.split(':').collect();
        let [seed, count, horizon] = parts.as_slice() else {
            return Err(format!("expected SEED:COUNT:HORIZON after the prefix, got {spec}"));
        };
        let seed = seed.parse::<u64>().map_err(|e| format!("seed: {e}"))?;
        let count = count.parse::<usize>().map_err(|e| format!("count: {e}"))?;
        let horizon = horizon.parse::<u64>().map_err(|e| format!("horizon: {e}"))?;
        Ok(if pressure {
            FaultPlan::random_with_pressure(seed, n_devices, count, horizon)
        } else {
            FaultPlan::random(seed, n_devices, count, horizon)
        })
    };
    if let Some(rest) = spec.strip_prefix("randomp:") {
        random(rest, true)
    } else if let Some(rest) = spec.strip_prefix("random:") {
        random(rest, false)
    } else {
        FaultPlan::parse(spec)
    }
}

#[derive(Default)]
struct RunArgs {
    primitive: Option<String>,
    dataset: Option<String>,
    mtx: Option<String>,
    gpus: usize,
    partitioner: String,
    profile: String,
    shift: u32,
    seed: u64,
    sources: Option<String>,
    json: bool,
    comm: Option<String>,
    fault_plan: Option<String>,
    recovery: bool,
    mem_cap: Option<u64>,
    alloc_scheme: Option<String>,
    sizing_factor: f64,
    comm_topology: Option<String>,
    wire_encoding: Option<String>,
    trace_out: Option<String>,
    bsp_profile: bool,
}

fn run(args: &[String]) -> ExitCode {
    let mut a = RunArgs {
        gpus: 4,
        partitioner: "random".into(),
        profile: "k40".into(),
        shift: 8,
        seed: 42,
        sizing_factor: 1.0,
        ..Default::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--primitive" => a.primitive = Some(value("--primitive")),
            "--dataset" => a.dataset = Some(value("--dataset")),
            "--mtx" => a.mtx = Some(value("--mtx")),
            "--gpus" => a.gpus = number_or_exit::<NonZeroUsize>(flag, value(flag)).get(),
            "--partitioner" => a.partitioner = value("--partitioner"),
            // `--profile <k40|k80|p100>` selects hardware (historic form);
            // bare `--profile` enables the BSP cost attribution output.
            "--profile" => match it.peek().map(|s| s.as_str()) {
                Some("k40" | "k80" | "p100") => a.profile = it.next().cloned().unwrap_or_default(),
                _ => a.bsp_profile = true,
            },
            "--shift" => a.shift = number_or_exit::<Shift>(flag, value(flag)).0,
            "--seed" => a.seed = number_or_exit(flag, value(flag)),
            "--sources" => a.sources = Some(value("--sources")),
            "--json" => a.json = true,
            "--comm" => a.comm = Some(value("--comm")),
            "--fault-plan" => a.fault_plan = Some(value("--fault-plan")),
            "--recovery" => a.recovery = true,
            "--mem-cap" => a.mem_cap = Some(number_or_exit(flag, value(flag))),
            "--alloc-scheme" => a.alloc_scheme = Some(value("--alloc-scheme")),
            "--sizing-factor" => {
                a.sizing_factor = number_or_exit::<SizingFactor>(flag, value(flag)).0
            }
            "--comm-topology" => a.comm_topology = Some(value("--comm-topology")),
            "--wire-encoding" => a.wire_encoding = Some(value("--wire-encoding")),
            "--trace-out" => a.trace_out = Some(value("--trace-out")),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let prim = match a.primitive.as_deref() {
        Some("bfs") => Primitive::Bfs,
        Some("dobfs") => Primitive::Dobfs,
        Some("sssp") => Primitive::Sssp,
        Some("bc") => Primitive::Bc,
        Some("cc") => Primitive::Cc,
        Some("pr") => Primitive::Pr,
        _ => return usage(),
    };

    // --- graph ---
    let wants_weights = prim == Primitive::Sssp;
    let (graph, built) = match load_graph(&a.dataset, &a.mtx, a.shift, a.seed, wants_weights) {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };

    // --- hardware ---
    let profile = match a.profile.as_str() {
        "k40" => HardwareProfile::k40(),
        "k80" => HardwareProfile::k80_gpu(),
        "p100" => HardwareProfile::p100(),
        other => {
            eprintln!("unknown profile {other}");
            return ExitCode::FAILURE;
        }
    };
    // --mem-cap shrinks every device's pool and arms the pressure governor
    let profile = match a.mem_cap {
        Some(cap) => profile.with_capacity(cap),
        None => profile,
    };
    let mut system = scaled_system(a.gpus, profile.clone(), a.shift);

    // --- fault injection / recovery ---
    let plan = match a.fault_plan.as_deref() {
        Some(spec) => match parse_fault_plan(spec, a.gpus) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("bad --fault-plan: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let comm = match a.comm.as_deref() {
        None => None,
        Some("selective") => Some(mgpu_core::CommStrategy::Selective),
        Some("broadcast") => Some(mgpu_core::CommStrategy::Broadcast),
        Some(other) => {
            eprintln!("unknown comm strategy {other}");
            return ExitCode::FAILURE;
        }
    };
    let alloc_scheme = match a.alloc_scheme.as_deref() {
        None => None,
        Some("just-enough") => Some(AllocScheme::JustEnough),
        Some("fixed") => Some(AllocScheme::Fixed { sizing_factor: a.sizing_factor }),
        Some("max") => Some(AllocScheme::Max),
        Some("prealloc-fusion") => {
            Some(AllocScheme::PreallocFusion { sizing_factor: a.sizing_factor })
        }
        Some(other) => {
            eprintln!("unknown alloc scheme {other}");
            return ExitCode::FAILURE;
        }
    };
    let comm_topology = match a.comm_topology.as_deref() {
        None | Some("direct") => mgpu_core::CommTopology::Direct,
        Some("butterfly") => mgpu_core::CommTopology::Butterfly,
        Some(other) => {
            eprintln!("unknown comm topology {other}");
            return ExitCode::FAILURE;
        }
    };
    let wire_encoding = match a.wire_encoding.as_deref() {
        None | Some("auto") => mgpu_core::WireEncoding::Auto,
        Some("list") => mgpu_core::WireEncoding::List,
        Some("bitmap") => mgpu_core::WireEncoding::Bitmap,
        Some("delta") => mgpu_core::WireEncoding::DeltaVarint,
        Some(other) => {
            eprintln!("bad --wire-encoding {other}: want auto|list|bitmap|delta");
            return ExitCode::from(2);
        }
    };
    let config = EnactConfig {
        alloc_scheme,
        comm,
        comm_topology,
        wire_encoding,
        tracing: a.trace_out.is_some() || a.bsp_profile,
        recovery: if a.recovery { RecoveryPolicy::resilient() } else { RecoveryPolicy::default() },
        pressure: if a.mem_cap.is_some() {
            PressurePolicy::governed()
        } else {
            PressurePolicy::default()
        },
        ..Default::default()
    };
    if let (Some(p), false) = (&plan, a.recovery) {
        // No recovery requested: inject into the plain BSP enactor and let
        // the run succeed (transients absorbed by retry=0 → fail) or fail.
        system.attach_fault_plan(p);
    }

    // --- multi-source batch (--sources) ---
    let sources: Option<Vec<usize>> = match a.sources.as_deref() {
        None => None,
        Some(spec) => {
            if !matches!(prim, Primitive::Bfs | Primitive::Bc) {
                eprintln!("--sources needs a source-parallel primitive (bfs or bc)");
                return ExitCode::FAILURE;
            }
            if a.recovery {
                eprintln!("--sources does not combine with --recovery");
                return ExitCode::FAILURE;
            }
            let parsed = if spec.contains(',') {
                spec.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .ok()
            } else {
                // A bare count spreads that many sources evenly (clamped to
                // the 64 bitfield lanes and the vertex count).
                spec.parse::<usize>()
                    .ok()
                    .filter(|&k| k > 0)
                    .map(|k| mgpu_primitives::MsBfs::spread_sources(k, graph.n_vertices()))
            };
            match parsed {
                Some(v)
                    if !v.is_empty()
                        && v.len() <= mgpu_primitives::ms_bfs::LANES
                        && v.iter().all(|&s| s < graph.n_vertices()) =>
                {
                    Some(v)
                }
                _ => {
                    eprintln!(
                        "bad --sources {spec}: want a count >= 1 or a comma list of at most {} \
                         in-range vertex ids",
                        mgpu_primitives::ms_bfs::LANES
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // --- partition + run (partitioners are statically dispatched) ---
    macro_rules! dispatch {
        ($partitioner:expr) => {
            if let Some(srcs) = &sources {
                run_multi_source(
                    prim,
                    &graph,
                    system,
                    $partitioner,
                    config,
                    srcs,
                    MultiSourceMode::Batched,
                )
            } else if let (Some(p), true) = (&plan, a.recovery) {
                let s = (1u64 << a.shift.min(40)) as f64;
                run_primitive_resilient(
                    prim,
                    &graph,
                    a.gpus,
                    profile.clone().with_overhead_scale(s),
                    $partitioner,
                    config,
                    p.clone(),
                )
            } else {
                run_primitive(prim, &graph, system, $partitioner, config)
            }
        };
    }
    let outcome = match a.partitioner.as_str() {
        "random" => dispatch!(&RandomPartitioner { seed: a.seed }),
        "biased" => dispatch!(&BiasedRandomPartitioner { seed: a.seed, slack: 0.05 }),
        "metis" => dispatch!(&MultilevelPartitioner { seed: a.seed, ..Default::default() }),
        "chunked" => dispatch!(&ChunkedPartitioner),
        other => {
            eprintln!("unknown partitioner {other}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // --- trace export + BSP cost attribution ---
    if let Some(trace) = &outcome.report.trace {
        let profile = mgpu_core::Profile::from_trace(trace);
        if let Err(e) = profile.reconcile(&outcome.report) {
            eprintln!("trace reconciliation failed: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(path) = &a.trace_out {
            let body =
                if path.ends_with(".jsonl") { trace.to_jsonl() } else { trace.to_chrome_json() };
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("trace written to {path} ({} events)", trace.n_events());
        }
        if a.bsp_profile {
            print!("{}", profile.format_table());
            println!("{}", host_sync_line(&outcome.report));
        }
    }

    if a.json {
        println!("{}", outcome.report.to_json());
    } else {
        let r = &outcome.report;
        println!("primitive      {}", r.primitive);
        if let Some(srcs) = &sources {
            println!("sources        {} (one u64 bitfield lane each, one enact)", srcs.len());
        }
        println!("graph          |V|={} |E|={}", graph.n_vertices(), graph.n_edges());
        println!("devices        {} × {}", a.gpus, a.profile);
        println!("partitioner    {}", a.partitioner);
        print_ingest(&built, &outcome.ingest);
        println!("supersteps     {}", r.iterations);
        println!("simulated      {:.3} ms", r.sim_time_us / 1e3);
        println!("wall clock     {:.3} ms", r.wall_time_us / 1e3);
        println!("GTEPS          {:.2}", outcome.gteps());
        println!(
            "communication  {} vertices, {} KiB",
            r.totals.h_vertices,
            r.totals.h_bytes_sent / 1024
        );
        if r.comm != mgpu_core::CommReduction::default() {
            let cm = &r.comm;
            println!(
                "wire reduction {} vertices suppressed ({} KiB), encodings {} list / {} bitmap / {} delta, {} collective stages",
                cm.suppressed_vertices,
                cm.suppressed_bytes / 1024,
                cm.enc_list,
                cm.enc_bitmap,
                cm.enc_delta,
                cm.collective_stages
            );
        }
        println!("peak mem/GPU   {} KiB", r.peak_memory_per_device / 1024);
        for (gpu, m) in r.mem_per_device.iter().enumerate() {
            println!(
                "  gpu {gpu}        peak {} KiB, live {} KiB, {} reallocs ({} KiB copied)",
                m.peak / 1024,
                m.live / 1024,
                m.reallocs,
                m.realloc_copied / 1024
            );
        }
        if !r.governor.is_quiet() {
            let g = &r.governor;
            println!(
                "governor       {} downgrades, {} chunked advances ({} passes), \
                 {} spills ({} KiB), {} reclaim retries",
                g.downgrades.len(),
                g.chunked_advances,
                g.chunk_passes,
                g.spill_events,
                g.spilled_bytes / 1024,
                g.reclaim_retries
            );
            for d in &g.downgrades {
                let scope = match d.device {
                    Some(i) => format!("gpu {i}"),
                    None => "global".into(),
                };
                println!(
                    "  downgrade    {scope}: {} {} -> {} (est {} KiB vs budget {} KiB)",
                    d.kind,
                    d.from,
                    d.to,
                    d.estimated_bytes / 1024,
                    d.budget_bytes / 1024
                );
            }
        }
        if !r.recovery.is_quiet() {
            let rec = &r.recovery;
            println!(
                "recovery       {} kernel + {} transfer retries, {} checkpoints, {} failovers",
                rec.kernel_retries, rec.transfer_retries, rec.checkpoints_taken, rec.failovers
            );
            if rec.butterfly_fallbacks > 0 {
                println!(
                    "               {} butterfly superstep(s) fell back to direct broadcast",
                    rec.butterfly_fallbacks
                );
            }
            if !rec.lost_devices.is_empty() {
                println!(
                    "lost devices   {:?} ({:.3} ms of work discarded)",
                    rec.lost_devices,
                    rec.lost_time_us / 1e3
                );
            }
        }
    }
    ExitCode::SUCCESS
}

#[derive(Default)]
struct ServeArgs {
    dataset: Option<String>,
    mtx: Option<String>,
    queries: Option<String>,
    gpus: usize,
    partitioner: String,
    profile: String,
    shift: u32,
    seed: u64,
    sched_seed: Option<u64>,
    lanes: usize,
    workers: usize,
    mem_cap: Option<u64>,
    comm_topology: Option<String>,
    json: bool,
}

/// `mgpu serve` — admit a `--queries` mix through the deterministic
/// multi-tenant scheduler over one shared partitioned residency.
fn serve(args: &[String]) -> ExitCode {
    let mut a = ServeArgs {
        gpus: 4,
        partitioner: "random".into(),
        profile: "k40".into(),
        shift: 8,
        seed: 42,
        lanes: 4,
        workers: 1,
        ..Default::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--dataset" => a.dataset = Some(value("--dataset")),
            "--mtx" => a.mtx = Some(value("--mtx")),
            "--queries" => a.queries = Some(value("--queries")),
            "--gpus" => a.gpus = number_or_exit::<NonZeroUsize>(flag, value(flag)).get(),
            "--partitioner" => a.partitioner = value("--partitioner"),
            "--profile" => a.profile = value("--profile"),
            "--shift" => a.shift = number_or_exit::<Shift>(flag, value(flag)).0,
            "--seed" => a.seed = number_or_exit(flag, value(flag)),
            "--sched-seed" => a.sched_seed = Some(number_or_exit(flag, value(flag))),
            "--lanes" => a.lanes = number_or_exit(flag, value(flag)),
            "--workers" => a.workers = number_or_exit(flag, value(flag)),
            "--mem-cap" => a.mem_cap = Some(number_or_exit(flag, value(flag))),
            "--comm-topology" => a.comm_topology = Some(value("--comm-topology")),
            "--json" => a.json = true,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let Some(spec) = &a.queries else {
        eprintln!("serve needs --queries");
        return usage();
    };
    let descs = match parse_query_list(spec) {
        Ok(d) if !d.is_empty() => d,
        Ok(_) => {
            eprintln!("--queries is empty");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bad --queries: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wants_weights = descs.iter().any(|d| d.prim == Primitive::Sssp);
    let wants_csc = descs.iter().any(|d| d.prim == Primitive::Dobfs);

    // --- graph (weights whenever the mix contains SSSP) ---
    let (graph, built) = match load_graph(&a.dataset, &a.mtx, a.shift, a.seed, wants_weights) {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };

    let profile = match a.profile.as_str() {
        "k40" => HardwareProfile::k40(),
        "k80" => HardwareProfile::k80_gpu(),
        "p100" => HardwareProfile::p100(),
        other => {
            eprintln!("unknown profile {other}");
            return ExitCode::FAILURE;
        }
    };
    // --mem-cap shrinks the per-query device pools too: admitted queries
    // that outgrow their estimate hit the runtime pressure machinery
    // (spill, chunking) rather than silently exceeding the cap.
    let profile = match a.mem_cap {
        Some(cap) => profile.with_capacity(cap),
        None => profile,
    };
    let comm_topology = match a.comm_topology.as_deref() {
        None | Some("direct") => mgpu_core::CommTopology::Direct,
        Some("butterfly") => mgpu_core::CommTopology::Butterfly,
        Some(other) => {
            eprintln!("unknown comm topology {other}");
            return ExitCode::FAILURE;
        }
    };
    let config = EnactConfig {
        comm_topology,
        pressure: if a.mem_cap.is_some() {
            PressurePolicy::governed()
        } else {
            PressurePolicy::default()
        },
        ..Default::default()
    };

    // --- one shared residency for every query ---
    let mut ingest = IngestWall::default();
    let owner = timed(&mut ingest.partition_us, || match a.partitioner.as_str() {
        "random" => Some(RandomPartitioner { seed: a.seed }.assign(&graph, a.gpus)),
        "biased" => {
            Some(BiasedRandomPartitioner { seed: a.seed, slack: 0.05 }.assign(&graph, a.gpus))
        }
        "metis" => Some(
            MultilevelPartitioner { seed: a.seed, ..Default::default() }.assign(&graph, a.gpus),
        ),
        "chunked" => Some(ChunkedPartitioner.assign(&graph, a.gpus)),
        _ => None,
    });
    let Some(owner) = owner else {
        eprintln!("unknown partitioner {}", a.partitioner);
        return ExitCode::FAILURE;
    };
    // The resilient queries re-partition from the same table.
    let mut dist = timed(&mut ingest.partition_us, || {
        DistGraph::build(&graph, owner.clone(), a.gpus, Duplication::All)
    });
    if wants_csc {
        timed(&mut ingest.csc_us, || dist.build_cscs());
    }

    let specs = match build_query_specs(&graph, &dist, &owner, profile, a.shift, config, &descs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad query mix: {e}");
            return ExitCode::FAILURE;
        }
    };

    let policy = ServicePolicy {
        seed: a.sched_seed.unwrap_or(a.seed),
        workers: a.workers,
        lanes: a.lanes,
        mem_cap: a.mem_cap,
        residency_bytes: residency_bytes(&dist),
        pressure: PressurePolicy::governed(),
    };
    let report = Service::new(policy).run(&specs);

    if a.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "serving {} queries on {} GPUs over {} (|V|={} |E|={}, shift {})",
            specs.len(),
            a.gpus,
            a.dataset.as_deref().unwrap_or("mtx"),
            graph.n_vertices(),
            graph.n_edges(),
            a.shift
        );
        print_ingest(&built, &ingest);
        println!();
        println!("{:<3} {:<22} {:>4} {:>10} {:>6}  status", "q", "name", "wave", "sim ms", "iters");
        for o in &report.outcomes {
            match &o.result {
                Ok(r) => println!(
                    "{:<3} {:<22} {:>4} {:>10.3} {:>6}  ok",
                    o.query,
                    o.name,
                    o.wave,
                    r.sim_time_us / 1e3,
                    r.iterations
                ),
                Err(e) if o.wave == usize::MAX => {
                    println!(
                        "{:<3} {:<22} {:>4} {:>10} {:>6}  rejected: {e}",
                        o.query, o.name, "-", "-", "-"
                    )
                }
                Err(e) => println!(
                    "{:<3} {:<22} {:>4} {:>10} {:>6}  error: {e}",
                    o.query, o.name, o.wave, "-", "-"
                ),
            }
        }
        println!("\nadmission:");
        for rec in &report.admission {
            let disposition = if rec.rejected {
                "rejected".to_string()
            } else if rec.queued {
                format!("queued -> wave {}", rec.wave.unwrap_or(0))
            } else {
                format!("admitted -> wave {}", rec.wave.unwrap_or(0))
            };
            let budget = if rec.budget_bytes == u64::MAX {
                "unbounded".to_string()
            } else {
                format!("{} KiB", rec.budget_bytes / 1024)
            };
            println!(
                "  q{:<2} {:<22} {:<20} (est {} KiB vs budget {})",
                rec.query,
                rec.name,
                disposition,
                rec.estimated_bytes / 1024,
                budget
            );
        }
        println!(
            "\n{} wave(s) | serial {:.3} ms | concurrent {:.3} ms | throughput {:.2}x",
            report.waves,
            report.serial_sim_us / 1e3,
            report.concurrent_sim_us / 1e3,
            report.throughput_x()
        );
    }

    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_accepts_in_range_values() {
        assert_eq!(number::<NonZeroUsize>("--gpus", "4").map(NonZeroUsize::get), Ok(4));
        assert_eq!(number::<usize>("--lanes", "0"), Ok(0));
        assert_eq!(number::<SizingFactor>("--sizing-factor", "1.5"), Ok(SizingFactor(1.5)));
        assert_eq!(number::<Shift>("--shift", "63"), Ok(Shift(63)));
    }

    #[test]
    fn number_rejects_bad_values_with_one_line() {
        let gpus = |v| number::<NonZeroUsize>("--gpus", v).unwrap_err();
        assert_eq!(gpus("abc"), "bad --gpus abc: want an integer >= 1");
        assert_eq!(gpus("0"), "bad --gpus 0: want an integer >= 1");
        assert_eq!(gpus("-3"), "bad --gpus -3: want an integer >= 1");
        assert_eq!(
            number::<u64>("--mem-cap", "-1").unwrap_err(),
            "bad --mem-cap -1: want an integer >= 0"
        );
        for v in ["64", "4294967296", "-1"] {
            assert_eq!(
                number::<Shift>("--shift", v).unwrap_err(),
                format!("bad --shift {v}: want an integer in 0..=63")
            );
        }
        for v in ["x", "inf", "nan", "-1", "0", "1e30"] {
            assert_eq!(
                number::<SizingFactor>("--sizing-factor", v).unwrap_err(),
                format!("bad --sizing-factor {v}: want a number in (0, 2^32]")
            );
        }
    }
}
