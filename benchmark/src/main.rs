//! `mgpu-e2e-bench`: the repo benchmark.
//!
//! ```text
//! mgpu-e2e-bench --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]
//!                [--smoke] [--out DIR]
//! mgpu-e2e-bench --manifest          # print BENCHMARK.json
//! ```
//!
//! One process runs one workload. Every metric is printed by name with its
//! unit; the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod api;
mod metrics;
mod run;
mod span;
mod stats;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunArgs, RunResult};
use workloads::Workload;

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: mgpu-e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
         \x20      mgpu-e2e-bench --manifest",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<RunArgs>, String> {
    let mut workload = None;
    let mut args = RunArgs {
        workload: Workload::IngestSoc,
        seed: 42,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        min_passes: run::MIN_PASSES,
        out_dir: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                args.seed =
                    value()?.parse().map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds =
                    value()?.parse().map_err(|_| "--seconds needs a number".to_string())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.workload = workload.ok_or_else(|| "--workload is required".to_string())?;
    if args.out_dir.is_none() {
        // run from the repo root (the driver, run.sh) or from benchmark/
        let root = std::path::Path::new("benchmark/Cargo.toml").exists();
        args.out_dir = Some(PathBuf::from(if root { "benchmark/out" } else { "out" }));
    }
    Ok(Some(args))
}

/// The result line: a JSON object with exactly the four contract keys.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.smoke);
    println!(
        "workload {}  seed {}  seconds {}  trace {}  dataset {} shift {}  vgpus {}  workers {}  host cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.dataset,
        spec.shift,
        spec.devices,
        spec.workers,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let result = run::run(&args);
    for note in &result.notes {
        println!("{note}");
    }
    for (name, value, unit) in &result.metrics {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    println!(
        "failed_share {} / {} = {:.6}",
        result.failed,
        result.attempted,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!("{}", result_line(&result));
    ExitCode::SUCCESS
}
