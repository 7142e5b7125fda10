//! Input `mgpu run` or `mgpu serve` cannot run is refused with one line on stderr and exit
//! code 2 (a command line that cannot be run) or 1 (a run that failed),
//! never a panic's 101.

use std::path::PathBuf;
use std::process::Command;

/// A Matrix Market file named `name` holding `body`.
fn mtx(name: &str, body: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, format!("%%MatrixMarket matrix coordinate pattern general\n{body}"))
        .unwrap();
    path.to_str().unwrap().to_owned()
}

#[test]
fn unrunnable_input_is_one_line_and_exit_1_or_2() {
    let no_vertex = mtx("no_vertex.mtx", "0 0 0\n");
    let past_the_end = mtx("past_the_end.mtx", "3 3 1\n7 1\n");
    let run = ["run", "--primitive", "bfs", "--dataset", "soc-orkut"];
    let serve = ["serve", "--dataset", "soc-orkut"];
    let run_mtx = |path| ["run", "--primitive", "bfs", "--mtx", path];
    let rows: [(&str, &[&str], &[&str], i32); 11] = [
        ("zero random horizon", &run, &["--fault-plan", "random:1:0:0"], 2),
        ("zero randomp horizon", &run, &["--fault-plan", "randomp:1:0:0"], 2),
        ("a device the run lacks", &run, &["--fault-plan", "lose:7@1"], 2),
        ("a graph with no vertex", &run_mtx(&no_vertex), &[], 1),
        ("the deleted topology flag", &run, &["--comm-topology", "butterfly"], 2),
        ("a pool below the floor", &run, &["--mem-cap", "1"], 1),
        ("a zero sizing factor", &run, &["--sizing-factor", "0"], 2),
        ("zero sources", &run, &["--sources", "0"], 2),
        ("an entry past the last vertex", &run_mtx(&past_the_end), &[], 1),
        ("every device lost", &run, &["--fault-plan", "lose:0@1,lose:1@1"], 1),
        ("a query without a source", &serve, &["--queries", "bfs:x"], 2),
    ];
    for (what, cmd, extra, code) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_mgpu"))
            .args(cmd)
            .args(["--gpus", "2", "--shift", "12"])
            .args(extra)
            .output()
            .expect("the mgpu binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what}: nothing runs");
    }
}
