//! # mgpu-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§VII), each
//! printing the same rows/series the paper reports with paper-reported
//! values alongside the measured ones:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — measured W/C/H/S counters vs analytic orders |
//! | `table2` | Table II — dataset inventory of the scaled analogs |
//! | `fig2` | Fig. 2 — partitioner impact, 3 primitives × 3 datasets |
//! | `fig3` | Fig. 3 — memory use of the four allocation schemes |
//! | `fig4` | Fig. 4 — speedup over 1 GPU for all six primitives |
//! | `fig5` | Fig. 5 — strong/weak scaling of DOBFS, BFS, PR (K80+P100) |
//! | `fig6` | Fig. 6 — speedups split by graph type |
//! | `table3` | Table III — vs in-core GPU BFS baselines |
//! | `table4` | Table IV — vs out-of-core / CPU systems |
//! | `table5` | Table V — large graphs and 64-bit id cost |
//! | `sec5a` | §V-A — runtime vs artificial H inflation |
//! | `sec5b` | §V-B — per-iteration overhead (1 vertex + 1 edge/iter) |
//! | `sec6a` | §VI-A — do_a/do_b threshold sweep across GPU counts |
//!
//! All binaries accept `--shift N` (vertex-count scale-down of `2^N`;
//! default 8) and `--seed S`.

pub mod args;
pub mod baseline;
pub mod fmt;
pub mod runners;
pub mod service;

pub use args::BenchArgs;
pub use baseline::{compare_rows, compare_speedups, finish_gate, gate_report};
pub use fmt::{geomean, Table};
pub use runners::{
    pick_source, run_multi_source, run_on_k, run_primitive, MultiSourceMode, Primitive, RunOutcome,
};
pub use service::{build_query_specs, parse_query_list, residency_bytes, QueryDesc};
