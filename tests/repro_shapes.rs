//! The reproduction is a test: registry invariants of `mgpu_bench::repro`,
//! its exit-code rule, and the seven sub-second experiments run end to end
//! against the committed `results/`.

use std::collections::HashSet;
use std::path::Path;

use mgpu_bench::repro::{self, Ctx, Outcome, EXPERIMENTS};
use mgpu_graph_analytics::vgpu::VgpuError;

const RECORDED: Ctx = Ctx { shift: 8, seed: 42 };

fn results(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(format!("{name}.txt"))
}

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

#[test]
fn every_registered_experiment_is_documented_and_recorded() {
    let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 18, "names are unique");
    let readme = include_str!("../README.md");
    let design = include_str!("../DESIGN.md");
    let index = design
        .split("## 4. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md §4 is the experiment index");
    for exp in &EXPERIMENTS {
        let invocation = format!("repro {}", exp.name);
        assert!(readme.contains(&invocation), "README.md does not show `{invocation}`");
        assert!(index.contains(&invocation), "DESIGN.md §4 does not show `{invocation}`");
        // every experiment is recorded, checks something, and was recorded passing
        let text = std::fs::read_to_string(results(exp.name))
            .unwrap_or_else(|e| panic!("results/{}.txt: {e}", exp.name));
        assert!(text.lines().any(|l| l.starts_with("PASS  ")), "{} has no check", exp.name);
        assert!(!text.lines().any(|l| l.starts_with("FAIL  ")), "{} recorded a FAIL", exp.name);
    }
    // and nothing else is
    let dir = results("x").parent().unwrap().to_path_buf();
    for entry in std::fs::read_dir(dir).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let name = file.strip_suffix(".txt").unwrap_or(&file);
        assert!(names.contains(name), "results/{file} is no registered experiment");
    }
}

#[test]
fn exit_codes_one_for_a_failed_check_or_an_error_two_for_a_bad_command_line() {
    let outcome = |pass: bool| -> mgpu_graph_analytics::vgpu::Result<Outcome> {
        let mut o = Outcome::default();
        o.checks.push(repro::Check { claim: "claim", pass, detail: String::new() });
        Ok(o)
    };
    assert_eq!(repro::exit_code(&[outcome(true), outcome(true)]), 0);
    assert_eq!(repro::exit_code(&[outcome(true), outcome(false)]), 1, "one FAIL");
    assert_eq!(repro::exit_code(&[outcome(true), Err(VgpuError::DeviceLost { device: 0 })]), 1);
    // `Err` from `run` is what `main` maps to exit 2, before anything ran
    assert_eq!(
        repro::run(&argv("table1 fig7 --shift 8")).unwrap_err(),
        "bad experiment fig7: want one of table1|table2|fig2|fig3|fig4|fig5|fig6|table3|table4|\
         table5|sec5a|sec5b|sec6a|ablation|scaleout|comm_volume|bsp_profile|service|all"
    );
    assert_eq!(repro::run(&argv("table1 --check")).unwrap_err(), "unknown flag --check");
    assert_eq!(
        repro::run(&argv("table1 --shift 64")).unwrap_err(),
        "bad --shift 64: want an integer in 0..=63"
    );
    assert_eq!(repro::run(&argv("--seed 7")).unwrap_err(), "no experiment named");
    assert_eq!(repro::select(&argv("all sec5b")).unwrap().len(), 19);
}

#[test]
fn out_dir_is_created_before_anything_runs_and_a_failed_write_is_exit_one() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_shapes_out_dir");
    let _ = std::fs::remove_dir_all(&tmp);
    let fresh = tmp.join("not").join("there").join("yet");
    assert_eq!(repro::run(&argv(&format!("sec5b --out-dir {}", fresh.display()))), Ok(0));
    assert_eq!(
        std::fs::read_to_string(fresh.join("sec5b.txt")).unwrap(),
        std::fs::read_to_string(results("sec5b")).unwrap()
    );
    // a directory that cannot exist: the run failed (1), the command line was fine (not 2)
    let under_a_file = fresh.join("sec5b.txt").join("sub");
    assert_eq!(repro::run(&argv(&format!("sec5b --out-dir {}", under_a_file.display()))), Ok(1));
}

#[test]
fn the_sub_second_experiments_pass_every_check_and_equal_the_committed_results() {
    for name in ["table1", "sec5b", "sec6a", "ablation", "scaleout", "bsp_profile", "service"] {
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        let result = (exp.run)(&RECORDED);
        let text = repro::render(exp, &RECORDED, &result);
        assert!(repro::passed(&result), "{name}:\n{text}");
        assert!(!result.unwrap().checks.is_empty(), "{name} checks nothing");
        let recorded = std::fs::read_to_string(results(name)).unwrap();
        assert_eq!(text, recorded, "{name}: regenerate with `repro all --out-dir results`");
    }
}
