//! The reproduction as a test: one registry of nineteen experiments, each a
//! plain function returning the tables the paper reports **and** the paper's
//! claims about them as checked predicates. The last three before
//! `async_study` are this repo's own studies (wire volume, BSP attribution,
//! query service); recording them here is the only gate on their numbers.
//!
//! There is no descriptor grid behind the registry: the nineteen tables have
//! nineteen shapes (a do_a × do_b matrix per GPU count, three scaling modes ×
//! two profiles, a reference-system ledger), so an experiment is a function
//! and [`Ctx`] carries only what several of them share. Checks always run —
//! there is no flag that turns them off — and a failed check, like an `Err`
//! from the experiment, is exit code 1 of the `repro` binary.
//!
//! A check asserts what is *measured* at this scale. Where that departs from
//! the paper the claim says so ("deviation: …") instead of asserting the
//! paper's sentence. Thresholds are set at the default `--shift 8` and hold
//! at seeds 42 and 7; another shift changes the work-to-overhead regime, and
//! a `FAIL` there is information about that regime (EXPERIMENTS.md lists,
//! for each check, the change that would fail it).

mod figures;
mod sections;
mod studies;
mod tables;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mgpu_gen::weights::add_paper_weights;
use mgpu_gen::{rmat, Dataset, RmatParams};
use mgpu_graph::{Csr, GraphBuilder, Id};
use mgpu_partition::{DistGraph, Duplication, RandomPartitioner};
use vgpu::{HardwareProfile, Result, SimSystem};

use crate::args::{parse_flags, usage_lines, Flag, Shift};
use crate::fmt::{geomean, Table};
use crate::runners::{run_primitive, scaled_system, Primitive, RunOutcome};

/// One claim about an experiment's tables, evaluated.
#[derive(Debug, Clone)]
pub struct Check {
    /// The claim, as the paper or this repo's documentation states it.
    pub claim: &'static str,
    /// Whether the measured values satisfy it.
    pub pass: bool,
    /// The measured values it was decided on. Deterministic: simulated
    /// quantities only, never a wall clock.
    pub detail: String,
}

/// What an experiment produces: its tables in print order, each under its
/// caption, and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(caption, table)` in print order.
    pub tables: Vec<(String, Table)>,
    /// The claims, evaluated.
    pub checks: Vec<Check>,
}

impl Outcome {
    fn table(&mut self, caption: impl Into<String>, table: Table) {
        self.tables.push((caption.into(), table));
    }

    fn check(&mut self, claim: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { claim, pass, detail });
    }

    /// Put `heading` above the first caption (for experiments whose tables
    /// are built in a loop).
    fn headed(mut self, heading: String) -> Self {
        self.tables[0].0.insert_str(0, &(heading + "\n\n"));
        self
    }
}

/// One row of the registry.
pub struct Experiment {
    /// The name `repro` takes and `results/<name>.txt` carries.
    pub name: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Whether the output is a function of `(shift, seed)` alone. Only then
    /// is it recorded under `--out-dir` and diffed by CI.
    pub deterministic: bool,
    /// Run it.
    pub run: fn(&Ctx) -> Result<Outcome>,
}

const fn det(
    name: &'static str,
    title: &'static str,
    run: fn(&Ctx) -> Result<Outcome>,
) -> Experiment {
    Experiment { name, title, deterministic: true, run }
}

/// The nineteen experiments: the paper's in its order, then this repo's.
pub const EXPERIMENTS: [Experiment; 19] = [
    det("table1", "Table I — measured W/C/H/S counters vs analytic orders", tables::table1),
    det("table2", "Table II — dataset inventory of the scaled analogs", tables::table2),
    det("fig2", "Fig. 2 — partitioner impact, 3 primitives × 3 datasets", figures::fig2),
    det("fig3", "Fig. 3 — memory use of the four allocation schemes", figures::fig3),
    det("fig4", "Fig. 4 — speedup over 1 GPU for all six primitives", figures::fig4),
    det("fig5", "Fig. 5 — strong/weak scaling of DOBFS, BFS, PR (K80 + P100)", figures::fig5),
    det("fig6", "Fig. 6 — speedups split by graph type", figures::fig6),
    det("table3", "Table III — vs in-core GPU BFS baselines", tables::table3),
    det("table4", "Table IV — vs out-of-core / CPU systems", tables::table4),
    det("table5", "Table V — large graphs and 64-bit id cost", tables::table5),
    det("sec5a", "§V-A — runtime vs artificial H inflation and 10× latency", sections::sec5a),
    det("sec5b", "§V-B — per-iteration overhead l on a chain", sections::sec5b),
    det("sec6a", "§VI-A — do_a/do_b threshold sweep across GPU counts", sections::sec6a),
    det(
        "ablation",
        "Ablation — fusion, load balancing, comm strategy, SSSP vs BFS",
        sections::ablation,
    ),
    det("scaleout", "§VIII — scale-out vs scale-up at 8 GPUs", sections::scaleout),
    det(
        "comm_volume",
        "Wire volume — list wire vs default vs default + butterfly; MS-BFS(64)",
        studies::comm_volume,
    ),
    det(
        "bsp_profile",
        "BSP attribution — traced W/C/H/S·l per primitive, reconciled",
        studies::bsp_profile,
    ),
    det("service", "Query service — concurrent waves vs serial dispatch", studies::service),
    Experiment {
        name: "async_study",
        title: "BSP vs asynchronous execution (the Groute comparison)",
        deterministic: false,
        run: sections::async_study,
    },
];

/// What every experiment is a function of, plus the helpers several share.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Datasets shrink by `2^shift` vertices relative to the paper, and
    /// fixed overheads with them.
    pub shift: u32,
    /// Generator and partitioner seed.
    pub seed: u64,
}

impl Ctx {
    /// The partitioner every experiment but Fig. 2 uses.
    fn random(&self) -> RandomPartitioner {
        RandomPartitioner { seed: self.seed }
    }

    /// The scaled analog of the catalog dataset `name`.
    fn graph(&self, name: &str) -> Csr<u32, u64> {
        dataset(name).build_undirected(self.shift, self.seed)
    }

    /// [`Self::graph`] with the paper's edge weights, drawn from `seed ^ salt`.
    fn weighted(&self, ds: &Dataset, salt: u64) -> Csr<u32, u64> {
        let mut coo = ds.generate(self.shift, self.seed);
        add_paper_weights(&mut coo, self.seed ^ salt);
        GraphBuilder::undirected(&coo)
    }

    /// An R-MAT of `2^(paper_scale - shift)` vertices, no smaller than
    /// `2^floor`; returns the scale it chose.
    fn rmat(&self, paper_scale: u32, floor: u32, edge_factor: usize) -> (u32, Csr<u32, u64>) {
        let scale = paper_scale.saturating_sub(self.shift).max(floor);
        (scale, GraphBuilder::undirected(&rmat(scale, edge_factor, RmatParams::paper(), self.seed)))
    }

    /// `n` K40s with fixed overheads shrunk to match the datasets.
    fn k40s(&self, n: usize) -> SimSystem {
        scaled_system(n, HardwareProfile::k40(), self.shift)
    }

    /// One default-config run of `prim` on `system` under [`Self::random`].
    fn run_on(&self, prim: Primitive, g: &Csr<u32, u64>, system: SimSystem) -> Result<RunOutcome> {
        run_primitive(prim, g, system, &self.random(), Default::default())
    }

    /// [`Self::run_on`] over [`Self::k40s`].
    fn run(&self, prim: Primitive, g: &Csr<u32, u64>, n: usize) -> Result<RunOutcome> {
        self.run_on(prim, g, self.k40s(n))
    }

    /// Simulated µs of [`Self::run`].
    fn sim_us(&self, prim: Primitive, g: &Csr<u32, u64>, n: usize) -> Result<f64> {
        Ok(self.run(prim, g, n)?.report.sim_time_us)
    }

    /// For each GPU count 2..=6, the geometric mean over `graphs` of the
    /// speedup over the 1-GPU run (the aggregation of Fig. 4 and Fig. 6).
    fn speedups(&self, prim: Primitive, graphs: &[Csr<u32, u64>]) -> Result<Vec<f64>> {
        let times = |n: usize| -> Result<Vec<f64>> {
            graphs.iter().map(|g| self.sim_us(prim, g, n)).collect()
        };
        let base = times(1)?;
        (2..=6)
            .map(|n| {
                Ok(geomean(&base.iter().zip(times(n)?).map(|(b, t)| b / t).collect::<Vec<_>>()))
            })
            .collect()
    }
}

/// The catalog dataset `name`; the names are literals of this module.
fn dataset(name: &str) -> Dataset {
    Dataset::by_name(name).unwrap_or_else(|| panic!("{name} is not in the catalog"))
}

/// `g` dealt round-robin over `n` parts — the partition the experiments use
/// where the paper's own numbers do not depend on the partitioner.
fn round_robin<V: Id, O: Id>(g: &Csr<V, O>, n: usize) -> DistGraph<V, O> {
    let owner = (0..g.n_vertices()).map(|v| (v % n) as u32).collect();
    DistGraph::build(g, owner, n, Duplication::All)
}

/// A table row: `label`, then one `1.23x` cell per value.
fn x_row(label: &str, values: &[f64]) -> Vec<String> {
    std::iter::once(label.to_string()).chain(values.iter().map(|v| format!("{v:.2}x"))).collect()
}

/// Does `ord` (`f64::lt`, `f64::le`, `f64::gt`) hold between every two
/// neighbours of `values`?
fn ordered(values: &[f64], ord: fn(&f64, &f64) -> bool) -> bool {
    values.windows(2).all(|w| ord(&w[0], &w[1]))
}

/// `(smallest, largest)` of `values`.
fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// The experiments `names` select, `all` standing for every one.
pub fn select(names: &[String]) -> std::result::Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for name in names {
        if name == "all" {
            picked.extend(EXPERIMENTS.iter());
        } else {
            picked.push(EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                let want: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                format!("bad experiment {name}: want one of {}|all", want.join("|"))
            })?);
        }
    }
    Ok(picked)
}

/// Did the experiment run and every check pass?
pub fn passed(result: &Result<Outcome>) -> bool {
    result.as_ref().is_ok_and(|o| o.checks.iter().all(|c| c.pass))
}

/// The process exit code over a batch: 0 iff every experiment [`passed`].
pub fn exit_code<'a>(results: impl IntoIterator<Item = &'a Result<Outcome>>) -> u8 {
    u8::from(!results.into_iter().all(passed))
}

/// The text `repro` prints (or records) for one experiment: a header naming
/// the run, each caption over its table, then one `PASS|FAIL` line per check;
/// a failed run is its typed error.
pub fn render(exp: &Experiment, ctx: &Ctx, result: &Result<Outcome>) -> String {
    let mut out =
        format!("repro {} --shift {} --seed {}: {}\n", exp.name, ctx.shift, ctx.seed, exp.title);
    match result {
        Ok(outcome) => {
            for (caption, table) in &outcome.tables {
                let _ = write!(out, "\n{caption}\n\n{}", table.render());
            }
            out.push('\n');
            for c in &outcome.checks {
                let verdict = if c.pass { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "{verdict}  {} — {}", c.claim, c.detail);
            }
        }
        Err(e) => {
            let _ = writeln!(out, "\nERROR  {e}");
        }
    }
    out
}

struct ReproArgs {
    ctx: Ctx,
    out_dir: Option<PathBuf>,
    list: bool,
}

const FLAGS: &[Flag<ReproArgs>] = &[
    Flag::new("--list", "", "list the experiments and exit", |o, _| {
        o.list = true;
        Ok(())
    }),
    Flag::new("--shift", "N", "dataset scale-down exponent, 0..=63 [default 8]", |o, a| {
        a.parse::<Shift>().map(|s| o.ctx.shift = s.0)
    }),
    Flag::new("--seed", "S", "generator/partitioner seed [default 42]", |o, a| {
        a.parse().map(|s| o.ctx.seed = s)
    }),
    Flag::new(
        "--out-dir",
        "DIR",
        "record each deterministic experiment as DIR/<name>.txt instead of printing it",
        |o, a| a.text().map(|p| o.out_dir = Some(p.into())),
    ),
];

/// The whole `repro` command line: `<name>… | all | --list`, then flags.
/// `Err` is a command line that cannot be run (exit 2); `Ok` is the exit
/// code of the run: 1 if any check failed, any experiment returned an error
/// or `--out-dir` could not be written (one line on stderr naming the path).
pub fn run(args: &[String]) -> std::result::Result<u8, String> {
    let n_names = args.iter().position(|a| a.starts_with("--")).unwrap_or(args.len());
    let (names, flags) = args.split_at(n_names);
    let opts = parse_flags(
        &[FLAGS],
        flags,
        ReproArgs { ctx: Ctx { shift: 8, seed: 42 }, out_dir: None, list: false },
    )?;
    let picked = select(names)?;
    if !opts.list && picked.is_empty() {
        return Err("no experiment named".into());
    }
    match execute(&opts, &picked, &mut io::stdout().lock()) {
        Ok(code) => Ok(code),
        // the reader left (`repro --list | head -3`): nothing more to say
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(0),
        Err(e) => {
            eprintln!("{e}");
            Ok(1)
        }
    }
}

/// Run `picked` (or list the registry), everything printed going to `out`.
fn execute(opts: &ReproArgs, picked: &[&Experiment], out: &mut impl io::Write) -> io::Result<u8> {
    if opts.list {
        for e in &EXPERIMENTS {
            writeln!(out, "{:<12} {}", e.name, e.title)?;
        }
        return Ok(0);
    }
    let at =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| at(dir, e))?;
    }
    let mut results = Vec::new();
    for exp in picked {
        let result = (exp.run)(&opts.ctx);
        let text = render(exp, &opts.ctx, &result);
        match opts.out_dir.as_ref().filter(|_| exp.deterministic) {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", exp.name));
                std::fs::write(&path, text).map_err(|e| at(&path, e))?;
                let verdict = if passed(&result) { "ok" } else { "FAILED" };
                writeln!(out, "{:<12} {verdict}  -> {}", exp.name, path.display())?;
            }
            None => writeln!(out, "{text}")?,
        }
        results.push(result);
    }
    Ok(exit_code(&results))
}

/// `main` of the `repro` binary: [`run`] over `std::env::args`, a command
/// line that cannot be run being one line plus the usage on stderr, exit 2.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: repro <name>... | all | --list [flags]\n{}", usage_lines(FLAGS));
        2
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::VgpuError;

    #[test]
    fn render_prints_tables_then_verdicts_or_the_typed_error() {
        let ctx = Ctx { shift: 8, seed: 42 };
        let mut o = Outcome::default();
        let mut t = Table::new(&["a"]);
        t.row(&["1".into()]);
        o.table("caption", t);
        o.check("holds", true, "1 < 2".into());
        o.check("breaks", false, "3 > 2".into());
        let text = render(&EXPERIMENTS[0], &ctx, &Ok(o));
        assert!(text.starts_with("repro table1 --shift 8 --seed 42: Table I"), "{text}");
        assert!(
            text.ends_with("\ncaption\n\na\n-\n1\n\nPASS  holds — 1 < 2\nFAIL  breaks — 3 > 2\n")
        );
        let text = render(&EXPERIMENTS[0], &ctx, &Err(VgpuError::DeviceLost { device: 2 }));
        assert!(text.ends_with("\nERROR  device 2 was lost\n"), "{text}");
    }
}
