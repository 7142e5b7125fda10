//! # mgpu-partition — partitioners and multi-GPU host graphs
//!
//! The paper treats the partitioner as a pluggable pre-processing stage
//! (§III, design decision 3; §V-C): vertices are distributed to GPUs together
//! with their outgoing edges (an *edge-cut* 1D partition), and the framework
//! must "run correctly regardless of the choice of partitioner". Three
//! partitioners are evaluated (Fig. 2):
//!
//! * [`RandomPartitioner`] — uniform random assignment: no locality, but
//!   excellent load balance; the paper's default for all experiments.
//! * [`BiasedRandomPartitioner`] — biased toward the GPU already holding
//!   more of a vertex's neighbors, under a balance cap.
//! * [`MultilevelPartitioner`] — a from-scratch Metis-style multilevel
//!   partitioner: heavy-edge-matching coarsening, greedy region-growing
//!   initial partition, boundary refinement.
//!
//! [`DistGraph::build`] then constructs the per-GPU host graphs under either
//! vertex-duplication strategy of §III-C:
//!
//! * [`Duplication::All`] — every GPU's vertex space is the full `V` (remote
//!   vertices have zero out-edges); no id conversion needed.
//! * [`Duplication::OneHop`] — only immediate remote neighbors get local
//!   proxies; vertices are renumbered with continuous local ids, and
//!   conversion tables map between spaces.
//!
//! The border sets `B_{i,j}` — whose size, not the edge cut, is what
//! actually drives communication volume in this system (§V-C) — are
//! computed at build time and exposed for the Fig. 2 analysis.

pub mod dist;
pub mod metrics;
pub mod multilevel;
pub mod partitioner;

pub use dist::{DistGraph, Duplication, HostBytes, Reads, SubGraph};
pub use metrics::PartitionQuality;
pub use multilevel::MultilevelPartitioner;
pub use partitioner::{
    BiasedRandomPartitioner, ChunkedPartitioner, NamedPartitioner, Partitioner, PartitionerKind,
    RandomPartitioner,
};
