//! `repro <name>… | all | --list [--shift N] [--seed S] [--out-dir DIR]`: see
//! `mgpu_bench::repro`.

fn main() -> std::process::ExitCode {
    mgpu_bench::repro::main()
}
