//! Seeded chaos soak: the differential oracle for the unified recovery
//! layer. Sweeps random fault plans × memory caps × {direct, butterfly} ×
//! {BFS, SSSP, CC} × 2/4/8 GPUs on the resilient executor and asserts that
//! every faulty run's *results* are bit-equal to the fault-free run under
//! the identical configuration, that the fault-free results are what
//! `primitives::reference` computes (the oracle that catches a bug both arms
//! share), and that `same_simulation` holds whenever recovery stayed inert.
//!
//! A failing scenario is **shrunk**: events are greedily removed from the
//! fault plan while the failure persists, so the report names a minimal
//! `FaultPlan` replayable via the CLI's `--fault-plan` flag (the printed
//! spec is `Display`, the exact inverse of `FaultPlan::parse`).
//!
//! ```text
//! chaos_soak [--scenarios N] [--seed S] [--json-out FILE]
//! ```
//!
//! The default 240 scenarios are the full pinned bank (about half a second).
//! Exit code is non-zero if any scenario fails.

use std::collections::HashMap;
use std::process::ExitCode;

use mgpu_bench::args::{parse_or_exit, Flag};
use mgpu_bench::Primitive;
use mgpu_core::{CommTopology, EnactConfig, Executor, Json, RecoveryPolicy, ResilientRunner};
use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::{gnm, preferential_attachment};
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_primitives::{reference, Bfs, Cc, Sssp};
use vgpu::{FaultPlan, HardwareProfile};

/// splitmix64 — the same generator the fault plans use, so the scenario
/// bank is a pure function of the bank seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One soak scenario: everything but the fault plan under test (the shrink
/// loop replays the same scenario with candidate plans).
#[derive(Debug, Clone)]
struct Scenario {
    id: usize,
    gpus: usize,
    /// BFS, SSSP or CC.
    prim: Primitive,
    topology: CommTopology,
    /// Cap device memory at 3/4 of the clean run's peak, so the pressure
    /// governor has to act.
    capped: bool,
    graph_seed: u64,
}

impl Scenario {
    fn label(&self) -> String {
        format!(
            "#{:03} {:4} {}gpu {:9} capped={} gseed={}",
            self.id,
            self.prim.label(),
            self.gpus,
            self.topology.label(),
            self.capped,
            self.graph_seed,
        )
    }
}

/// Build the scenario's graph (weighted iff the primitive needs weights).
fn graph_for(s: &Scenario) -> Csr<u32, u64> {
    let nv = 300 + (s.graph_seed % 3) as usize * 300; // 300 / 600 / 900
    match s.prim {
        Primitive::Sssp => {
            let mut coo = gnm(nv, nv * 5, s.graph_seed);
            add_paper_weights(&mut coo, s.graph_seed + 1);
            GraphBuilder::undirected(&coo)
        }
        _ => GraphBuilder::undirected(&preferential_attachment(nv, 4, s.graph_seed)),
    }
}

/// Derive the scenario's fault plan from the bank stream. Butterfly
/// scenarios occasionally get a consecutive-index transfer burst that
/// exhausts the per-send retry budget and forces the direct-broadcast
/// fallback; capped scenarios draw from the pressure-aware pool.
fn plan_for(s: &Scenario, rng: &mut u64) -> FaultPlan {
    let seed = splitmix(rng);
    let count = 1 + (splitmix(rng) % 4) as usize;
    let horizon = 8 + splitmix(rng) % 40;
    // The burst only makes sense where the butterfly actually engages:
    // broadcast-comm primitives (CC here). Elsewhere a 4-deep consecutive
    // burst on one link is correctly fatal — there is no collective to
    // degrade.
    if s.prim == Primitive::Cc
        && s.topology == CommTopology::Butterfly
        && splitmix(rng).is_multiple_of(3)
    {
        // 4 consecutive faults on one link = max_retries(3) + 1: the stage
        // send exhausts its in-place retries and the superstep must degrade
        // to direct broadcast.
        let b = splitmix(rng) % 3;
        let spec = (0..4).map(|k| format!("tfail:0>1@{}", b + k)).collect::<Vec<_>>().join(",");
        FaultPlan::parse(&spec).expect("burst spec is well-formed")
    } else if s.capped {
        FaultPlan::random_pressure_aware(seed, s.gpus, count, horizon)
    } else {
        FaultPlan::random(seed, s.gpus, count, horizon)
    }
}

/// The scenario bank: a pure function of the bank seed and the count.
fn bank(seed: u64, n: usize) -> Vec<(Scenario, FaultPlan)> {
    let mut rng = seed;
    (0..n)
        .map(|id| {
            let gpus = [2usize, 4, 8][(splitmix(&mut rng) % 3) as usize];
            let prim =
                [Primitive::Bfs, Primitive::Sssp, Primitive::Cc][(splitmix(&mut rng) % 3) as usize];
            let topology = if splitmix(&mut rng).is_multiple_of(2) {
                CommTopology::Butterfly
            } else {
                CommTopology::Direct
            };
            let capped = splitmix(&mut rng).is_multiple_of(3);
            let graph_seed = splitmix(&mut rng) % 1000;
            let s = Scenario { id, gpus, prim, topology, capped, graph_seed };
            let plan = plan_for(&s, &mut rng);
            (s, plan)
        })
        .collect()
}

/// Run the resilient executor under `profile`/`config` with an optional
/// fault plan; returns its harvest words plus the report.
fn run(
    s: &Scenario,
    g: &Csr<u32, u64>,
    profile: HardwareProfile,
    config: EnactConfig,
    plan: Option<&FaultPlan>,
) -> Result<(Vec<u64>, mgpu_core::EnactReport), String> {
    macro_rules! drive {
        ($prim:expr) => {{
            let mut runner = ResilientRunner::homogeneous(g, $prim, s.gpus, profile, config);
            if let Some(p) = plan {
                runner = runner.with_fault_plan(p.clone());
            }
            let report = runner.enact(Some(0u32)).map_err(|e| format!("{e:?}"))?;
            Ok((runner.harvest(), report))
        }};
    }
    match s.prim {
        Primitive::Bfs => drive!(Bfs::default()),
        Primitive::Sssp => drive!(Sssp),
        Primitive::Cc => drive!(Cc),
        other => Err(format!("no soak scenario generates {}", other.name())),
    }
}

/// `primitives::reference` results from vertex 0, as the words the runs
/// harvest, built once per distinct graph — [`graph_for`] is a function of the
/// primitive and the graph seed.
#[derive(Default)]
struct References(HashMap<(&'static str, u64), Vec<u64>>);

impl References {
    fn of(&mut self, s: &Scenario, g: &Csr<u32, u64>) -> &[u64] {
        self.0.entry((s.prim.label(), s.graph_seed)).or_insert_with(|| match s.prim {
            Primitive::Bfs => reference::bfs(g, 0u32).into_iter().map(u64::from).collect(),
            Primitive::Sssp => reference::sssp(g, 0u32).into_iter().map(u64::from).collect(),
            _ => reference::cc(g).into_iter().map(|c| c as u64).collect(),
        })
    }
}

/// Execute one scenario under `plan` and return `Err(reason)` on any oracle
/// violation. Pure in (scenario, plan), so the shrink loop can replay it.
fn soak(s: &Scenario, plan: &FaultPlan, refs: &mut References) -> Result<(), String> {
    let g = graph_for(s);
    let expect = refs.of(s, &g);
    let against_reference = |clean: &[u64]| {
        if clean == expect {
            Ok(())
        } else {
            Err("the fault-free run diverges from primitives::reference".to_string())
        }
    };
    // Fault-free oracle, uncapped.
    let config = EnactConfig {
        recovery: RecoveryPolicy::resilient(),
        comm_topology: s.topology,
        ..EnactConfig::default()
    };
    let (clean, clean_rep) = run(s, &g, HardwareProfile::k40(), config, None)?;
    against_reference(&clean)?;
    // Pick the scenario's real profile: a tight cap derived from the clean
    // run's peak. If even the fault-free capped run is infeasible (typed OOM
    // at admission), fall back to uncapped for this scenario —
    // deterministically, from the clean run.
    let peak = clean_rep.peak_memory_per_device;
    let mut profile = HardwareProfile::k40();
    let mut baseline = (clean.clone(), clean_rep);
    if s.capped {
        let capped_profile = HardwareProfile::k40().with_capacity(peak * 3 / 4);
        if let Ok(capped_base) = run(s, &g, capped_profile.clone(), config, None) {
            if capped_base.0 != clean {
                return Err("capped fault-free run diverges from uncapped".into());
            }
            profile = capped_profile;
            baseline = capped_base;
        }
    }
    let (faulty, faulty_rep) =
        run(s, &g, profile, config, Some(plan)).map_err(|e| format!("faulty run failed: {e}"))?;
    if faulty != baseline.0 {
        return Err(format!(
            "results diverge ({} of {} vertices)",
            baseline.0.iter().zip(&faulty).filter(|(a, b)| a != b).count(),
            faulty.len()
        ));
    }
    // Inert recovery must be invisible: when nothing fired and no
    // failover happened, the simulation is bit-identical.
    let rec = &faulty_rep.recovery;
    if rec.faults_injected == 0 && rec.failovers == 0 && !faulty_rep.same_simulation(&baseline.1) {
        return Err("recovery was inert but the simulation diverged".into());
    }
    Ok(())
}

/// Greedy delta-debug: repeatedly drop single events while the failure
/// persists. Works on the `Display` spec so the minimized plan is exactly
/// what `--fault-plan` replays.
fn shrink(s: &Scenario, plan: &FaultPlan, refs: &mut References) -> FaultPlan {
    let mut events: Vec<String> = plan.to_string().split(',').map(str::to_string).collect();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < events.len() {
            let mut cand = events.clone();
            cand.remove(i);
            let cand_plan = if cand.is_empty() {
                FaultPlan::new()
            } else {
                match FaultPlan::parse(&cand.join(",")) {
                    Ok(p) => p,
                    Err(_) => {
                        i += 1;
                        continue;
                    }
                }
            };
            if soak(s, &cand_plan, refs).is_err() {
                events = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced || events.is_empty() {
            break;
        }
    }
    if events.is_empty() {
        FaultPlan::new()
    } else {
        FaultPlan::parse(&events.join(",")).expect("display output re-parses")
    }
}

struct Args {
    scenarios: usize,
    seed: u64,
    json_out: Option<String>,
}

const FLAGS: &[Flag<Args>] = &[
    Flag::new("--scenarios", "N", "size of the scenario bank [default 240]", |o, a| {
        a.parse().map(|n| o.scenarios = n)
    }),
    Flag::new("--seed", "S", "bank seed [default 42]", |o, a| a.parse().map(|s| o.seed = s)),
    Flag::new("--json-out", "FILE", "write the failures as JSON", |o, a| {
        a.text().map(|p| o.json_out = Some(p))
    }),
];

fn main() -> ExitCode {
    let args = parse_or_exit(FLAGS, Args { scenarios: 240, seed: 42, json_out: None });
    println!("chaos soak: {} scenarios, bank seed {}", args.scenarios, args.seed);
    let mut failures: Vec<(Scenario, FaultPlan, FaultPlan, String)> = Vec::new();
    let mut passed = 0usize;
    let mut refs = References::default();
    for (s, plan) in bank(args.seed, args.scenarios) {
        match soak(&s, &plan, &mut refs) {
            Ok(()) => {
                passed += 1;
                println!("  ok   {}  plan [{}]", s.label(), plan);
            }
            Err(reason) => {
                let min = shrink(&s, &plan, &mut refs);
                println!("  FAIL {}  plan [{}]", s.label(), plan);
                println!("       reason: {reason}");
                println!("       minimized: --fault-plan '{min}'");
                failures.push((s, plan, min, reason));
            }
        }
    }
    println!("\n{passed}/{} scenarios passed", passed + failures.len());
    if let Some(path) = &args.json_out {
        let rows = failures.iter().map(|(s, plan, min, reason)| {
            Json::obj([
                ("scenario", s.label().trim().into()),
                ("plan", plan.to_string().into()),
                ("minimized", min.to_string().into()),
                ("reason", reason.as_str().into()),
            ])
        });
        let json = Json::obj([
            ("seed", args.seed.into()),
            ("scenarios", (passed + failures.len()).into()),
            ("passed", passed.into()),
            ("failures", Json::arr(rows)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("chaos_soak: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
