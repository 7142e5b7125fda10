//! # mgpu-baselines — re-implemented comparison mechanisms
//!
//! The paper's Tables III and IV compare against a dozen published systems.
//! None of their binaries can run here, so we re-implement the *mechanisms*
//! those systems are built on, on the same virtual-GPU substrate, so that
//! the comparisons measure mechanism differences under one calibrated cost
//! model (see DESIGN.md §2):
//!
//! * [`hardwired`] — an Enterprise-like hardwired DOBFS: monolithic
//!   per-iteration code, atomic status updates, worst-case allocation, a
//!   full-vertex scan on every bottom-up iteration, and no
//!   computation/communication overlap.
//! * [`bfs2d`] — a Fu/Bisson-style 2D-partitioned BFS with column-wise
//!   frontier contraction: the whole-slice frontier exchanges that make
//!   "large edge frontiers transmitted between GPUs cause large
//!   communication overheads".
//! * [`oocgas`] — a GraphReduce-like out-of-core Gather-Apply-Scatter
//!   engine that streams edge shards over PCIe to a single GPU; the PCIe
//!   bus is the bottleneck, exactly as §II-A argues.
//! * [`hybrid`] — a Totem-like heterogeneous placement: one CPU "device"
//!   (Xeon profile, big memory, low throughput) plus GPUs, running the
//!   unmodified framework primitives.

pub mod bfs2d;
pub mod hardwired;
pub mod hybrid;
pub mod oocgas;

pub use bfs2d::Bfs2d;
pub use hardwired::HardwiredDobfs;
pub use hybrid::{hybrid_system, DegreePartitioner};
pub use oocgas::{OocBfs, OocCc, OocEngine, OocPagerank, OocProgram, OocSssp};
