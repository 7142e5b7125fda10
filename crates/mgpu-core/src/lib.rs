//! # mgpu-core — the data-centric multi-GPU graph framework
//!
//! This crate is the paper's primary contribution (§III): a programming
//! model in which an *unmodified single-GPU primitive* — a sequence of
//! advance / filter / compute operations on frontiers — is extended to
//! multiple GPUs by framework-managed machinery at each bulk-synchronous
//! iteration boundary.
//!
//! The programmer specifies ([`MgpuProblem`], mirroring §III-B):
//! * the core single-GPU iteration (built from the [`ops`] operators),
//! * what per-vertex data to communicate ([`problem::Wire`] message type and
//!   the `package` hook),
//! * how to combine received and local data (the `combine` hook — the
//!   `Expand_Incoming` kernel of Appendix A),
//! * the stop condition (empty frontiers by default, plus an optional
//!   global predicate for primitives like PageRank).
//!
//! The framework handles everything else ([`enactor`]): splitting output
//! frontiers into local and remote sub-frontiers, packaging remote
//! sub-frontiers with their associated data, pushing packages to peer GPUs,
//! merging received sub-frontiers with the combiner, managing each GPU from
//! a dedicated CPU thread, overlapping computation and communication on
//! separate streams, and detecting global convergence.
//!
//! Framework-level optimizations from §VI are implemented here:
//! * [`direction`] — direction-optimizing traversal with the cheap FV/BV
//!   switch heuristic and the once-only forward→backward rule;
//! * [`alloc`] — the just-enough memory allocation scheme and its three
//!   comparison schemes (fixed, maximum, preallocation+fusion);
//! * fused advance+filter operators ([`ops::advance_filter_fused`]) that
//!   skip the intermediate frontier entirely (§VI-C).

/// The one name ↔ value map of a fieldless enum: `ALL`, `label()`, and the
/// `FromStr` that inverts it.
macro_rules! named {
    ($t:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $t {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$t] = &[$($t::$variant),+];

            /// The name flags, query specs and reports use for this value.
            pub fn label(&self) -> &'static str {
                match self {
                    $($t::$variant => $name),+
                }
            }
        }

        /// The inverse of `label()`.
        impl std::str::FromStr for $t {
            type Err = ();
            fn from_str(s: &str) -> std::result::Result<Self, ()> {
                Self::ALL.iter().copied().find(|v| v.label() == s).ok_or(())
            }
        }
    };
}

pub mod alloc;
pub mod async_enactor;
pub mod comm;
pub mod direction;
pub mod enactor;
pub mod executor;
pub mod governor;
pub mod json;
pub mod ops;
pub mod problem;
pub mod report;
pub mod resilience;
pub mod service;
pub mod trace;

pub use alloc::{AllocScheme, FrontierBufs};
pub use comm::{
    CommStrategy, CommTopology, MonotoneOrder, Package, PackageEncoding, PackagePolicy,
    SplitScratch, SuppressState, WireEncoding,
};
pub use direction::{Direction, DirectionConfig, DirectionState};
pub use async_enactor::AsyncRunner;
pub use enactor::{EnactConfig, Runner};
pub use executor::{Executor, ExecutorKind};
pub use governor::{Downgrade, GovernorLog, PressurePolicy};
pub use json::{Json, JsonError, JsonWriter};
pub use problem::{MgpuProblem, Wire};
pub use report::{CommReduction, DeviceMemStats, EnactReport, HostSync};
pub use resilience::{CheckpointSink, GlobalCheckpoint, RecoveryLog, RecoveryPolicy, ResilientRunner};
pub use service::{
    AdmissionRecord, BuildExecutor, QueryOutcome, QuerySpec, SchedulePlan, Service, ServicePolicy,
    ServiceReport,
};
pub use trace::{BspRow, Profile, Trace};
