//! `mgpu run --recovery` binds the system every run binds: a fault plan
//! only adds its faults, so a plan that never fires changes nothing.

use std::process::Command;

use mgpu_core::Json;

/// `mgpu run --primitive P ... --recovery --json` with `extra` appended,
/// without the wall-only fields (`wall_time_us`, `host_sync`).
fn run_json(primitive: &str, extra: &[&str]) -> Vec<(String, Json)> {
    let out = Command::new(env!("CARGO_BIN_EXE_mgpu"))
        .args(["run", "--primitive", primitive, "--dataset", "soc-orkut", "--gpus", "4"])
        .args(["--shift", "12", "--recovery", "--json"])
        .args(extra)
        .output()
        .expect("the mgpu binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let Ok(Json::Obj(fields)) = Json::parse(text.trim()) else { panic!("not an object: {text}") };
    fields
        .into_iter()
        .filter(|(k, _)| k != "wall_time_us" && k != "host_sync")
        .map(|(k, v)| (k.into_owned(), v))
        .collect()
}

#[test]
fn a_plan_that_never_fires_is_invisible_under_recovery() {
    let bare = run_json("sssp", &[]);
    let idle = run_json("sssp", &["--fault-plan", "kfail:0@999999"]);
    assert_eq!(bare, idle);
    let checkpoints = bare.iter().find(|(k, _)| k == "checkpoints_taken").map(|(_, v)| v);
    assert!(checkpoints.and_then(Json::as_f64).is_some_and(|c| c > 0.0), "recovery is on");
}

#[test]
fn a_lost_device_fails_over_under_recovery_and_fails_typed_without() {
    let recovered = run_json("sssp", &["--fault-plan", "lose:0@5"]);
    let field = |k: &str| recovered.iter().find(|(f, _)| f == k).and_then(|(_, v)| v.as_f64());
    assert_eq!(field("failovers"), Some(1.0));
    assert_eq!(field("n_devices"), Some(3.0));

    let out = Command::new(env!("CARGO_BIN_EXE_mgpu"))
        .args(["run", "--primitive", "sssp", "--dataset", "soc-orkut", "--gpus", "4"])
        .args(["--shift", "12", "--fault-plan", "lose:0@5"])
        .output()
        .expect("the mgpu binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("device 0 was lost"));
}

/// A batch is one enact like any other: its plan is attached and its
/// device loss fails over.
#[test]
fn a_multi_source_batch_fails_over_under_recovery() {
    let batch = run_json("bfs", &["--sources", "8", "--fault-plan", "lose:0@5"]);
    let failovers = batch.iter().find(|(k, _)| k == "failovers").and_then(|(_, v)| v.as_f64());
    assert_eq!(failovers, Some(1.0));
}
