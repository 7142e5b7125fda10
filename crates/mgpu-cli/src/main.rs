//! `mgpu` — command-line driver for the multi-GPU graph analytics library.
//!
//! ```text
//! mgpu datasets                               list the Table II analog catalog
//! mgpu run --primitive bfs --dataset soc-orkut --gpus 4
//! mgpu run --primitive sssp --mtx graph.mtx --gpus 2 --partitioner metis
//! mgpu run --primitive pr --dataset uk-2002 --gpus 6 --json
//! mgpu serve --dataset soc-orkut --queries "bfs:0,sssp:5@resilient,cc,pr" --gpus 4
//! ```
//!
//! The flags are the rows of [`SHARED`], [`RUN`] and [`SERVE`] below; `mgpu`
//! with no subcommand prints the usage generated from them. Both tracing
//! flags of `run` verify the trace↔report reconciliation invariant and exit
//! non-zero on any mismatch. `run` starts from the highest-degree vertex;
//! `serve --queries bfs:N` names a source. `serve` runs its query mix against
//! one shared residency through the deterministic [`mgpu_core::service`]
//! scheduler: given `(--sched-seed, submission order)`, per-query reports and
//! result words are bit-equal to one-at-a-time runs at any `--workers` and
//! `--lanes` value.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use mgpu_bench::args::{parse_flags, usage_lines, Flag, FlagValue, Hardware, Shift, SizingFactor};
use mgpu_bench::runners::{
    overhead_scale, run_primitive_resilient, scaled_system, timed, IngestWall, MultiSourceMode,
    Primitive,
};
use mgpu_bench::service::{build_query_specs, parse_query_list, residency_bytes};
use mgpu_bench::{run_multi_source, run_primitive};
use mgpu_core::{
    AllocScheme, CommStrategy, CommTopology, EnactConfig, PressurePolicy, RecoveryPolicy, Service,
    ServicePolicy, WireEncoding,
};
use mgpu_gen::catalog::{COMPARISON, TABLE2};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::Dataset;
use mgpu_graph::{read_mtx, Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication, Partitioner, PartitionerKind};
use vgpu::{FaultPlan, HardwareProfile};

/// Every flag of `run` and `serve`, resolved: the flag tables below write
/// into this one struct and both subcommands read it.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    // ---- both subcommands ----
    dataset: Option<Dataset>,
    mtx: Option<String>,
    gpus: usize,
    partitioner: PartitionerKind,
    /// The `--profile` name and its profile, capacity capped by `--mem-cap`.
    hardware: Hardware,
    shift: u32,
    seed: u64,
    mem_cap: Option<u64>,
    comm_topology: CommTopology,
    json: bool,
    // ---- run ----
    primitive: Option<Primitive>,
    sources: Option<String>,
    comm: Option<CommStrategy>,
    fault_plan: Option<String>,
    recovery: bool,
    alloc_scheme: Option<AllocScheme>,
    sizing_factor: f64,
    wire_encoding: WireEncoding,
    trace_out: Option<String>,
    bsp_profile: bool,
    // ---- serve ----
    queries: Option<String>,
    sched_seed: Option<u64>,
    lanes: usize,
    workers: usize,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            dataset: None,
            mtx: None,
            gpus: 4,
            partitioner: PartitionerKind::Random,
            hardware: Hardware { name: "k40".into(), profile: HardwareProfile::k40() },
            shift: 8,
            seed: 42,
            mem_cap: None,
            comm_topology: CommTopology::Direct,
            json: false,
            primitive: None,
            sources: None,
            comm: None,
            fault_plan: None,
            recovery: false,
            alloc_scheme: None,
            sizing_factor: 1.0,
            wire_encoding: WireEncoding::Auto,
            trace_out: None,
            bsp_profile: false,
            queries: None,
            sched_seed: None,
            lanes: 4,
            workers: 1,
        }
    }
}

/// The flags `run` and `serve` share.
const SHARED: &[Flag<Cli>] = &[
    Flag::new("--dataset", "NAME", "a Table II analog (`mgpu datasets`); or give --mtx", |o, a| {
        a.parse().map(|ds| o.dataset = Some(ds))
    }),
    Flag::new("--mtx", "PATH", "a Matrix Market file; or give --dataset", |o, a| {
        a.text().map(|path| o.mtx = Some(path))
    }),
    Flag::new("--gpus", "N", "virtual GPU count [default 4]", |o, a| {
        a.parse::<NonZeroUsize>().map(|n| o.gpus = n.get())
    }),
    Flag::new(
        "--partitioner",
        PartitionerKind::WANT,
        "vertex placement [default random]",
        |o, a| a.parse().map(|kind| o.partitioner = kind),
    ),
    Flag::new(
        "--profile",
        Hardware::WANT,
        "hardware of every virtual GPU [default k40]",
        |o, a| a.parse().map(|hw| o.hardware = hw),
    ),
    Flag::new("--shift", "N", "dataset scale-down exponent, 0..=63 [default 8]", |o, a| {
        a.parse::<Shift>().map(|s| o.shift = s.0)
    }),
    Flag::new("--seed", "S", "generator/partitioner seed [default 42]", |o, a| {
        a.parse().map(|seed| o.seed = seed)
    }),
    Flag::new("--mem-cap", "BYTES", "per-device pool cap; arms the pressure governor", |o, a| {
        a.parse().map(|cap| o.mem_cap = Some(cap))
    }),
    Flag::new("--comm-topology", CommTopology::WANT, "broadcast shape [default direct]", |o, a| {
        a.parse().map(|t| o.comm_topology = t)
    }),
    Flag::new("--json", "", "emit the report as JSON instead of text", |o, _| {
        o.json = true;
        Ok(())
    }),
];

/// The flags of `run` alone.
const RUN: &[Flag<Cli>] = &[
    Flag::new("--primitive", Primitive::WANT, "(required)", |o, a| {
        a.parse().map(|p| o.primitive = Some(p))
    }),
    Flag::new("--sources", "N|id,id,...", "batched multi-source bfs/bc, at most 64", |o, a| {
        a.text().map(|s| o.sources = Some(s))
    }),
    Flag::new("--comm", CommStrategy::WANT, "override the primitive's strategy", |o, a| {
        a.parse().map(|c| o.comm = Some(c))
    }),
    Flag::new(
        "--fault-plan",
        "SPEC",
        "fault events (kfail:D@N,lose:D@N,…), random:SEED:COUNT:HORIZON or randomp:…",
        |o, a| a.text().map(|s| o.fault_plan = Some(s)),
    ),
    Flag::new("--recovery", "", "enact through the resilient runner", |o, _| {
        o.recovery = true;
        Ok(())
    }),
    Flag::new("--alloc-scheme", AllocScheme::WANT, "override the primitive's scheme", |o, a| {
        a.parse().map(|s| o.alloc_scheme = Some(s))
    }),
    Flag::new(
        "--sizing-factor",
        "F",
        "fixed / prealloc-fusion multiplier [default 1.0]",
        |o, a| a.parse::<SizingFactor>().map(|f| o.sizing_factor = f.0),
    ),
    Flag::new("--wire-encoding", WireEncoding::WANT, "package format [default auto]", |o, a| {
        a.parse().map(|w| o.wire_encoding = w)
    }),
    Flag::new("--trace-out", "PATH", "write the trace: .jsonl, else Chrome JSON", |o, a| {
        a.text().map(|p| o.trace_out = Some(p))
    }),
    // The parser's one special case: under `run`, `--profile` followed by
    // anything but a hardware name is this switch (it shadows the shared row).
    Flag::new("--profile", "", "(no value) print the reconciled BSP attribution table", |o, a| {
        match a.optional() {
            Some(hw) => o.hardware = hw,
            None => o.bsp_profile = true,
        }
        Ok(())
    }),
];

/// The flags of `serve` alone.
const SERVE: &[Flag<Cli>] = &[
    Flag::new("--queries", "LIST", "prim[:source][@bsp|async|resilient],… (required)", |o, a| {
        a.text().map(|q| o.queries = Some(q))
    }),
    Flag::new("--sched-seed", "S", "dispatch-permutation seed [default --seed]", |o, a| {
        a.parse().map(|s| o.sched_seed = Some(s))
    }),
    Flag::new("--lanes", "N", "queries per wave, 0 = unbounded [default 4]", |o, a| {
        a.parse().map(|n| o.lanes = n)
    }),
    Flag::new("--workers", "N", "host threads per wave, wall-clock only [default 1]", |o, a| {
        a.parse().map(|n| o.workers = n)
    }),
];

fn usage() -> String {
    format!(
        "usage:\n  mgpu datasets\n  mgpu run --primitive P (--dataset NAME | --mtx PATH) [flags]\n  \
         mgpu serve --queries LIST (--dataset NAME | --mtx PATH) [flags]\n\n\
         run and serve:\n{}\nrun:\n{}\nserve:\n{}",
        usage_lines(SHARED),
        usage_lines(RUN),
        usage_lines(SERVE)
    )
}

impl Cli {
    /// Parse the arguments of a subcommand against its own rows and the
    /// shared ones, then settle what depends on more than one flag.
    fn parse(own: &'static [Flag<Cli>], args: &[String]) -> Result<Cli, String> {
        let mut cli = parse_flags(&[own, SHARED], args, Cli::default())?;
        if let Some(cap) = cli.mem_cap {
            cli.hardware.profile = cli.hardware.profile.with_capacity(cap);
        }
        cli.alloc_scheme = cli.alloc_scheme.map(|s| s.with_sizing_factor(cli.sizing_factor));
        Ok(cli)
    }

    /// `--mem-cap` arms the pressure governor.
    fn pressure(&self) -> PressurePolicy {
        if self.mem_cap.is_some() {
            PressurePolicy::governed()
        } else {
            PressurePolicy::default()
        }
    }
}

/// How an invocation fails: the exit code — 2 for a command line that cannot
/// be run, 1 for a run that failed — and the line for stderr.
type Failure = (u8, String);

fn bad_command_line(line: String) -> Failure {
    (2, line)
}

fn failed(line: String) -> Failure {
    (1, line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
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
            return ExitCode::SUCCESS;
        }
        Some("run") => Cli::parse(RUN, &args[1..]).map_err(bad_command_line).and_then(run),
        Some("serve") => Cli::parse(SERVE, &args[1..]).map_err(bad_command_line).and_then(serve),
        _ => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    outcome.unwrap_or_else(|(code, line)| {
        eprintln!("{line}");
        ExitCode::from(code)
    })
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
fn load_graph(cli: &Cli, wants_weights: bool) -> Result<(Csr<u32, u64>, BuildWall), Failure> {
    let mut coo = match (&cli.dataset, &cli.mtx) {
        (Some(ds), None) => ds.generate(cli.shift, cli.seed),
        (None, Some(path)) => {
            let file = std::fs::File::open(path)
                .map_err(|e| failed(format!("cannot open {path}: {e}")))?;
            read_mtx::<u32, _>(std::io::BufReader::new(file))
                .map_err(|e| failed(format!("cannot parse {path}: {e}")))?
        }
        _ => return Err(bad_command_line(format!("give one of --dataset and --mtx\n{}", usage()))),
    };
    if wants_weights && coo.weights.is_none() {
        add_paper_weights(&mut coo, cli.seed ^ 0x77);
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

/// `--sources`: a bare count spreads that many sources evenly (clamped to the
/// 64 bitfield lanes and the vertex count); a comma list names them.
fn parse_sources(spec: &str, n_vertices: usize) -> Result<Vec<usize>, Failure> {
    let lanes = mgpu_primitives::ms_bfs::LANES;
    let parsed = if spec.contains(',') {
        spec.split(',').map(|s| s.trim().parse::<usize>()).collect::<Result<Vec<_>, _>>().ok()
    } else {
        spec.parse::<usize>()
            .ok()
            .filter(|&k| k > 0)
            .map(|k| mgpu_primitives::MsBfs::spread_sources(k, n_vertices))
    };
    parsed
        .filter(|v| !v.is_empty() && v.len() <= lanes && v.iter().all(|&s| s < n_vertices))
        .ok_or_else(|| {
            bad_command_line(format!(
                "bad --sources {spec}: want a count >= 1 or a comma list of at most {lanes} \
                 in-range vertex ids"
            ))
        })
}

/// `mgpu run` — one primitive, one enact.
fn run(cli: Cli) -> Result<ExitCode, Failure> {
    let prim = cli
        .primitive
        .ok_or_else(|| bad_command_line(format!("run needs --primitive\n{}", usage())))?;

    // --- fault injection / recovery ---
    let plan = cli
        .fault_plan
        .as_deref()
        .map(|spec| {
            parse_fault_plan(spec, cli.gpus).map_err(|e| {
                bad_command_line(format!(
                    "bad --fault-plan {spec}: want an event list or \
                     random[p]:SEED:COUNT:HORIZON ({e})"
                ))
            })
        })
        .transpose()?;
    if cli.sources.is_some() {
        if !matches!(prim, Primitive::Bfs | Primitive::Bc) {
            return Err(failed("--sources needs a source-parallel primitive (bfs or bc)".into()));
        }
        if cli.recovery {
            return Err(failed("--sources does not combine with --recovery".into()));
        }
    }
    let config = EnactConfig {
        alloc_scheme: cli.alloc_scheme,
        comm: cli.comm,
        comm_topology: cli.comm_topology,
        wire_encoding: cli.wire_encoding,
        tracing: cli.trace_out.is_some() || cli.bsp_profile,
        recovery: if cli.recovery {
            RecoveryPolicy::resilient()
        } else {
            RecoveryPolicy::default()
        },
        pressure: cli.pressure(),
        ..Default::default()
    };

    let (graph, built) = load_graph(&cli, prim == Primitive::Sssp)?;
    // --- multi-source batch (--sources) ---
    let sources =
        cli.sources.as_deref().map(|spec| parse_sources(spec, graph.n_vertices())).transpose()?;

    let mut system = scaled_system(cli.gpus, cli.hardware.profile.clone(), cli.shift);
    if let (Some(p), false) = (&plan, cli.recovery) {
        // No recovery requested: inject into the plain BSP enactor and let
        // the run succeed (transients absorbed by retry=0 → fail) or fail.
        system.attach_fault_plan(p);
    }

    // --- partition + run ---
    let partitioner = cli.partitioner.seeded(cli.seed);
    let outcome = if let Some(srcs) = &sources {
        let mode = MultiSourceMode::Batched;
        run_multi_source(prim, &graph, system, &partitioner, config, srcs, mode)
    } else if let (Some(p), true) = (&plan, cli.recovery) {
        let profile = cli.hardware.profile.clone().with_overhead_scale(overhead_scale(cli.shift));
        run_primitive_resilient(prim, &graph, cli.gpus, profile, &partitioner, config, p.clone())
    } else {
        run_primitive(prim, &graph, system, &partitioner, config)
    }
    .map_err(|e| failed(format!("run failed: {e}")))?;

    // --- trace export + BSP cost attribution ---
    if let Some(trace) = &outcome.report.trace {
        let profile = mgpu_core::Profile::from_trace(trace);
        profile
            .reconcile(&outcome.report)
            .map_err(|e| failed(format!("trace reconciliation failed: {e}")))?;
        if let Some(path) = &cli.trace_out {
            let body =
                if path.ends_with(".jsonl") { trace.to_jsonl() } else { trace.to_chrome_json() };
            std::fs::write(path, body).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            eprintln!("trace written to {path} ({} events)", trace.n_events());
        }
        if cli.bsp_profile {
            print!("{}", profile.format_table());
            println!("{}", host_sync_line(&outcome.report));
        }
    }

    if cli.json {
        println!("{}", outcome.report.to_json());
    } else {
        let r = &outcome.report;
        println!("primitive      {}", r.primitive);
        if let Some(srcs) = &sources {
            println!("sources        {} (one u64 bitfield lane each, one enact)", srcs.len());
        }
        println!("graph          |V|={} |E|={}", graph.n_vertices(), graph.n_edges());
        println!("devices        {} × {}", cli.gpus, cli.hardware.name);
        println!("partitioner    {}", cli.partitioner.label());
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
    Ok(ExitCode::SUCCESS)
}

/// `mgpu serve` — admit a `--queries` mix through the deterministic
/// multi-tenant scheduler over one shared partitioned residency.
fn serve(cli: Cli) -> Result<ExitCode, Failure> {
    let spec = cli
        .queries
        .as_ref()
        .ok_or_else(|| bad_command_line(format!("serve needs --queries\n{}", usage())))?;
    let descs = parse_query_list(spec)
        .and_then(|d| if d.is_empty() { Err("the list is empty".into()) } else { Ok(d) })
        .map_err(|e| bad_command_line(format!("bad --queries {spec}: {e}")))?;
    let wants_weights = descs.iter().any(|d| d.prim == Primitive::Sssp);
    let wants_csc = descs.iter().any(|d| d.prim == Primitive::Dobfs);

    // --- graph (weights whenever the mix contains SSSP) ---
    let (graph, built) = load_graph(&cli, wants_weights)?;

    // --mem-cap shrinks the per-query device pools too: admitted queries
    // that outgrow their estimate hit the runtime pressure machinery
    // (spill, chunking) rather than silently exceeding the cap.
    let config = EnactConfig {
        comm_topology: cli.comm_topology,
        pressure: cli.pressure(),
        ..Default::default()
    };

    // --- one shared residency for every query ---
    let gpus = cli.gpus;
    let mut ingest = IngestWall::default();
    let owner =
        timed(&mut ingest.partition_us, || cli.partitioner.seeded(cli.seed).assign(&graph, gpus));
    // The resilient queries re-partition from the same table.
    let mut dist = timed(&mut ingest.partition_us, || {
        DistGraph::build(&graph, owner.clone(), gpus, Duplication::All)
    });
    if wants_csc {
        timed(&mut ingest.csc_us, || dist.build_cscs());
    }

    let profile = cli.hardware.profile.clone();
    let specs = build_query_specs(&graph, &dist, &owner, profile, cli.shift, config, &descs)
        .map_err(|e| failed(format!("bad query mix: {e}")))?;

    let policy = ServicePolicy {
        seed: cli.sched_seed.unwrap_or(cli.seed),
        workers: cli.workers,
        lanes: cli.lanes,
        mem_cap: cli.mem_cap,
        residency_bytes: residency_bytes(&dist),
        pressure: PressurePolicy::governed(),
    };
    let report = Service::new(policy).run(&specs);

    if cli.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "serving {} queries on {} GPUs over {} (|V|={} |E|={}, shift {})",
            specs.len(),
            gpus,
            cli.dataset.map_or("mtx", |ds| ds.name),
            graph.n_vertices(),
            graph.n_edges(),
            cli.shift
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

    Ok(if report.all_ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parse(own: &'static [Flag<Cli>], line: &str) -> Result<Cli, String> {
        Cli::parse(own, &argv(line))
    }

    #[test]
    fn no_flags_is_the_documented_defaults() {
        let cli = parse(RUN, "").unwrap();
        assert_eq!(cli, Cli::default());
        assert_eq!((cli.gpus, cli.shift, cli.seed), (4, 8, 42));
        assert_eq!((cli.lanes, cli.workers, cli.sizing_factor), (4, 1, 1.0));
        assert_eq!(cli.hardware.profile, HardwareProfile::k40());
    }

    #[test]
    fn every_run_flag_parses_to_its_resolved_value() {
        let cli = parse(
            RUN,
            "--primitive dobfs --dataset soc-orkut --gpus 6 --partitioner metis --profile p100 \
             --shift 10 --seed 7 --sources 0,5,11 --json --comm broadcast \
             --fault-plan lose:2@5,kfail:0@3 --recovery --mem-cap 3600000 \
             --alloc-scheme fixed --sizing-factor 2.5 --comm-topology butterfly \
             --wire-encoding delta --trace-out t.jsonl --profile",
        )
        .unwrap();
        let expected = Cli {
            dataset: Dataset::by_name("soc-orkut"),
            gpus: 6,
            hardware: Hardware {
                name: "p100".into(),
                profile: HardwareProfile::p100().with_capacity(3_600_000),
            },
            shift: 10,
            partitioner: PartitionerKind::Metis,
            seed: 7,
            mem_cap: Some(3_600_000),
            comm_topology: CommTopology::Butterfly,
            json: true,
            primitive: Some(Primitive::Dobfs),
            sources: Some("0,5,11".into()),
            comm: Some(CommStrategy::Broadcast),
            fault_plan: Some("lose:2@5,kfail:0@3".into()),
            recovery: true,
            alloc_scheme: Some(AllocScheme::Fixed { sizing_factor: 2.5 }),
            sizing_factor: 2.5,
            wire_encoding: WireEncoding::DeltaVarint,
            trace_out: Some("t.jsonl".into()),
            bsp_profile: true,
            ..Cli::default()
        };
        assert_eq!(cli, expected);
        assert_eq!(cli.pressure(), PressurePolicy::governed());
    }

    #[test]
    fn every_serve_flag_parses_to_its_resolved_value() {
        let cli = parse(
            SERVE,
            "--queries bfs:0,cc --mtx g.mtx --gpus 2 --partitioner chunked --profile k80 \
             --shift 6 --seed 9 --sched-seed 3 --lanes 0 --workers 4 --mem-cap 6291456 \
             --comm-topology butterfly --json",
        )
        .unwrap();
        let expected = Cli {
            mtx: Some("g.mtx".into()),
            gpus: 2,
            hardware: Hardware {
                name: "k80".into(),
                profile: HardwareProfile::k80_gpu().with_capacity(6_291_456),
            },
            shift: 6,
            partitioner: PartitionerKind::Chunked,
            seed: 9,
            mem_cap: Some(6_291_456),
            comm_topology: CommTopology::Butterfly,
            json: true,
            queries: Some("bfs:0,cc".into()),
            sched_seed: Some(3),
            lanes: 0,
            workers: 4,
            ..Cli::default()
        };
        assert_eq!(cli, expected);
    }

    #[test]
    fn bare_profile_is_the_bsp_table_and_a_named_one_is_hardware() {
        let bare = parse(RUN, "--profile --json").unwrap();
        assert!(bare.bsp_profile && bare.json);
        assert_eq!(bare.hardware.name, "k40");
        let named = parse(RUN, "--profile k80 --profile").unwrap();
        assert!(named.bsp_profile);
        assert_eq!(named.hardware.profile, HardwareProfile::k80_gpu());
        // `serve` has no bare form
        assert_eq!(parse(SERVE, "--profile").unwrap_err(), "--profile needs a value");
        assert_eq!(
            parse(SERVE, "--profile k41").unwrap_err(),
            "bad --profile k41: want k40|k80|p100"
        );
    }

    #[test]
    fn each_subcommand_refuses_the_other_ones_flags() {
        assert_eq!(parse(RUN, "--queries bfs").unwrap_err(), "unknown flag --queries");
        assert_eq!(parse(SERVE, "--primitive bfs").unwrap_err(), "unknown flag --primitive");
        assert_eq!(parse(RUN, "--src 3").unwrap_err(), "unknown flag --src");
        assert_eq!(parse(RUN, "--suppression on").unwrap_err(), "unknown flag --suppression");
    }

    /// The bad-value lines `.claude/skills/verify/SKILL.md` quotes.
    #[test]
    fn bad_values_are_one_line_each() {
        fn bad(line: &str) -> String {
            parse(RUN, line).unwrap_err()
        }
        assert_eq!(bad("--gpus abc"), "bad --gpus abc: want an integer >= 1");
        assert_eq!(bad("--gpus 0"), "bad --gpus 0: want an integer >= 1");
        assert_eq!(bad("--gpus -3"), "bad --gpus -3: want an integer >= 1");
        assert_eq!(bad("--mem-cap -1"), "bad --mem-cap -1: want an integer >= 0");
        for v in ["64", "4294967296", "-1"] {
            assert_eq!(
                bad(&format!("--shift {v}")),
                format!("bad --shift {v}: want an integer in 0..=63")
            );
            let line = format!("--shift {v}");
            assert_eq!(parse(SERVE, &line).unwrap_err(), bad(&line), "one parser, one line");
        }
        for v in ["x", "inf", "nan", "-1", "0", "1e30"] {
            assert_eq!(
                bad(&format!("--sizing-factor {v}")),
                format!("bad --sizing-factor {v}: want a number in (0, 2^32]")
            );
        }
        assert_eq!(
            bad("--wire-encoding legacy"),
            "bad --wire-encoding legacy: want auto|list|bitmap|delta"
        );
        assert_eq!(bad("--primitive zork"), "bad --primitive zork: want bc|bfs|cc|dobfs|pr|sssp");
        assert_eq!(
            bad("--partitioner kway"),
            "bad --partitioner kway: want random|biased|metis|chunked"
        );
        assert_eq!(bad("--comm unicast"), "bad --comm unicast: want selective|broadcast");
        assert_eq!(bad("--comm-topology ring"), "bad --comm-topology ring: want direct|butterfly");
        assert_eq!(
            bad("--alloc-scheme huge"),
            "bad --alloc-scheme huge: want just-enough|fixed|max|prealloc-fusion"
        );
        assert_eq!(
            bad("--dataset nope"),
            "bad --dataset nope: want a name listed by mgpu datasets"
        );
        assert_eq!(bad("--gpus"), "--gpus needs a value");
        assert_eq!(parse(SERVE, "--lanes -1").unwrap_err(), "bad --lanes -1: want an integer >= 0");
    }

    #[test]
    fn every_name_parses_back_to_its_value() {
        use mgpu_core::ExecutorKind;
        fn round_trips<T: std::str::FromStr + PartialEq + std::fmt::Debug + Copy>(
            all: &[T],
            label: impl Fn(&T) -> &'static str,
        ) {
            for v in all {
                assert_eq!(label(v).parse::<T>().ok(), Some(*v), "{}", label(v));
            }
        }
        round_trips(&Primitive::all(), |p| p.label());
        round_trips(ExecutorKind::ALL, ExecutorKind::label);
        round_trips(CommStrategy::ALL, CommStrategy::label);
        round_trips(CommTopology::ALL, CommTopology::label);
        round_trips(WireEncoding::ALL, WireEncoding::label);
        round_trips(PartitionerKind::ALL, PartitionerKind::label);
        let schemes = [
            AllocScheme::JustEnough,
            AllocScheme::Fixed { sizing_factor: 1.0 },
            AllocScheme::Max,
            AllocScheme::PreallocFusion { sizing_factor: 1.0 },
        ];
        round_trips(&schemes, AllocScheme::label);
        assert_eq!("prealloc-fusion".parse(), Ok(schemes[3]), "the flag's spelling");
    }

    #[test]
    fn fault_plan_shorthands_expand_per_device_count() {
        assert_eq!(parse_fault_plan("random:7:6:40", 4).unwrap(), FaultPlan::random(7, 4, 6, 40));
        assert_eq!(
            parse_fault_plan("randomp:7:6:40", 2).unwrap(),
            FaultPlan::random_with_pressure(7, 2, 6, 40)
        );
        assert!(parse_fault_plan("random:7:6", 4).is_err());
        assert!(parse_fault_plan("lose:2@5,kfail:0@3", 4).is_ok());
    }

    #[test]
    fn the_readme_names_every_flag() {
        let readme = include_str!("../../../README.md");
        let usage = usage();
        for flag in SHARED.iter().chain(RUN).chain(SERVE) {
            // the whole flag, not a prefix of a longer one (`--comm` / `--comm-topology`)
            let named = readme.match_indices(flag.name).any(|(at, name)| {
                !readme[at + name.len()..].starts_with(|c: char| c.is_ascii_lowercase() || c == '-')
            });
            assert!(named, "README.md does not mention {}", flag.name);
            assert!(usage.contains(&format!("  {}", flag.name)), "{}", flag.name);
        }
    }
}
