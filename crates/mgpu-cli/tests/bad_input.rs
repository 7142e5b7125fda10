//! Input `mgpu run` cannot run is refused with one line on stderr and exit
//! code 2 (a command line that cannot be run) or 1 (a run that failed),
//! never a panic's 101.

use std::path::PathBuf;
use std::process::Command;

/// A Matrix Market file whose header declares no vertex and no entry.
fn empty_mtx() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_vertex.mtx");
    std::fs::write(&path, "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n").unwrap();
    path
}

#[test]
fn unrunnable_input_is_one_line_and_exit_1_or_2() {
    let mtx = empty_mtx();
    let mtx = mtx.to_str().unwrap();
    let soc = ["--dataset", "soc-orkut"];
    let rows: [(&str, &[&str], &[&str], i32); 5] = [
        ("zero random horizon", &soc, &["--fault-plan", "random:1:0:0"], 2),
        ("zero randomp horizon", &soc, &["--fault-plan", "randomp:1:0:0"], 2),
        ("a device the run lacks", &soc, &["--fault-plan", "lose:7@1"], 2),
        ("a graph with no vertex", &["--mtx", mtx], &[], 1),
        ("the deleted topology flag", &soc, &["--comm-topology", "butterfly"], 2),
    ];
    for (what, graph, extra, code) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_mgpu"))
            .args(["run", "--primitive", "bfs", "--gpus", "2", "--shift", "12"])
            .args(graph)
            .args(extra)
            .output()
            .expect("the mgpu binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what}: nothing runs");
    }
}
