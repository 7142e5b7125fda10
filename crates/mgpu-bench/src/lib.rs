//! # mgpu-bench — the experiment harness
//!
//! * [`repro`] — the paper's evaluation (§V–§VII) and this repo's three
//!   studies beyond it as eighteen functions behind one `repro <name>… | all
//!   | --list [--shift N] [--seed S] [--out-dir DIR]` binary. Each returns
//!   its tables and the claims about them as checked predicates;
//!   `results/<name>.txt` is what CI regenerates and diffs — the one gate on
//!   simulated numbers. `repro --list` names the eighteen.
//! * `chaos_soak`, the seeded fault-injection soak.
//! * [`args`], [`runners`], [`service`] — the flag parser, primitive
//!   dispatch and query-list grammar shared with `mgpu-cli`.
//!
//! `--shift N` is the vertex-count scale-down of `2^N` (default 8).

pub mod args;
pub mod fmt;
pub mod repro;
pub mod runners;
pub mod service;

pub use fmt::{geomean, Table};
pub use runners::{
    pick_source, run_multi_source, run_on_k, run_primitive, MultiSourceMode, Primitive, RunOutcome,
};
pub use service::{build_query_specs, parse_query_list, residency_bytes, QueryDesc};
