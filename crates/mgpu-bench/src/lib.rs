//! # mgpu-bench — the experiment harness
//!
//! * [`repro`] — the paper's evaluation (§V–§VII) as sixteen functions behind
//!   one `repro <name>… | all | --list [--shift N] [--seed S] [--out-dir DIR]`
//!   binary. Each returns the tables the paper reports and the paper's claims
//!   about them as checked predicates; `results/<name>.txt` is what CI
//!   regenerates and diffs. `repro --list` names the sixteen.
//! * the gate binaries `comm_volume`, `bsp_profile`, `service_bench`
//!   (simulated-cost baselines `BENCH_*.json`) and `chaos_soak`.
//! * [`args`], [`runners`], [`service`] — the flag parser, primitive
//!   dispatch and query-list grammar shared with `mgpu-cli`.
//!
//! `--shift N` is the vertex-count scale-down of `2^N` (default 8).

pub mod args;
pub mod baseline;
pub mod fmt;
pub mod repro;
pub mod runners;
pub mod service;

pub use args::BenchArgs;
pub use baseline::{compare_rows, compare_speedups, finish_gate, gate_report};
pub use fmt::{geomean, Table};
pub use runners::{
    pick_source, run_multi_source, run_on_k, run_primitive, MultiSourceMode, Primitive, RunOutcome,
};
pub use service::{build_query_specs, parse_query_list, residency_bytes, QueryDesc};
