//! # vgpu — a virtual multi-GPU substrate
//!
//! This crate stands in for the CUDA runtime and the multi-GPU node hardware
//! used by Pan et al., "Multi-GPU Graph Analytics" (IPDPS 2017). It provides:
//!
//! * [`HardwareProfile`] — calibrated per-device parameters (memory capacity
//!   and bandwidth, kernel launch overhead, edge/vertex processing
//!   throughputs) with presets for the paper's Tesla K40, K80 and P100
//!   testbeds plus a Xeon profile for hybrid-placement experiments.
//! * [`Interconnect`] — a per-pair bandwidth/latency matrix with PCIe peer
//!   groups, standing in for `cudaDeviceEnablePeerAccess` topology.
//! * [`Device`] — one virtual GPU: a set of [`Stream`] timelines (the
//!   `cudaStream_t` analog), a [`MemoryPool`] with capacity enforcement and
//!   reallocation accounting, BSP cost counters, and a simulated clock that
//!   every kernel launch and transfer charges against.
//! * [`SimSystem`] — a node of devices plus the interconnect.
//! * [`SyncPoint`] — a bulk-synchronous barrier that aligns simulated clocks
//!   across device threads (the BSP superstep boundary), and [`Mailbox`] —
//!   the peer-to-peer push fabric.
//!
//! Kernels are ordinary Rust closures executed *for real* on the calling
//! thread (each device is driven by a dedicated CPU thread, exactly as the
//! paper drives each GPU from a dedicated CPU thread); the substrate's job is
//! to meter them: each launch charges `launch_overhead + work/throughput`
//! microseconds to a stream timeline, and each transfer charges
//! `latency + bytes/bandwidth`. The resulting simulated wall time follows the
//! BSP model `T = W + H·g + S·l` that the paper itself uses for its
//! scalability analysis (§V).

pub mod arena;
pub mod counters;
pub mod device;
pub mod error;
pub mod fault;
pub mod interconnect;
pub mod memory;
pub mod par;
pub mod profile;
pub mod stream;
pub mod sync;
pub mod system;
pub mod timeline;

pub use arena::{Arena, ArenaStats};
pub use counters::BspCounters;
pub use device::{Device, KernelKind, COMM_STREAM, COMPUTE_STREAM};
pub use error::{Result, VgpuError};
pub use fault::{FaultEvent, FaultInjector, FaultPlan, KernelFault, PressureSite, TransferFault};
pub use interconnect::{Interconnect, LinkClass};
pub use memory::{DeviceArray, MemoryPool};
pub use profile::HardwareProfile;
pub use stream::{Event, Stream, StreamId};
pub use sync::{harvest_device_thread, Contribution, GlobalReduce, HostSyncStats, Mailbox, SyncPoint};
pub use timeline::{SpanMeta, Timeline, TraceEvent, TraceKind};
pub use system::SimSystem;
