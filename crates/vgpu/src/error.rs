//! Error type for the virtual-GPU substrate.

use std::fmt;

/// Errors raised by the substrate. The interesting one is
/// [`VgpuError::OutOfMemory`]: device memory is capacity-limited exactly so
/// that the paper's memory-management experiments (Fig. 3, §VI-B) are
/// mechanically reproducible — a maximum-allocation scheme really can fail to
/// fit a subgraph that just-enough allocation fits.
#[derive(Debug, Clone, PartialEq)]
pub enum VgpuError {
    /// An allocation would exceed the device's memory capacity.
    OutOfMemory {
        /// Device on which the allocation was attempted.
        device: usize,
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes currently live on the device.
        live: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A stream id referred to a stream that does not exist on the device.
    BadStream {
        /// Offending stream id.
        stream: usize,
        /// Number of streams on the device.
        have: usize,
    },
    /// A transfer referenced a device outside the system.
    BadDevice {
        /// Offending device id.
        device: usize,
        /// Number of devices in the system.
        have: usize,
    },
    /// The device is gone — an injected permanent loss, or a device thread
    /// whose kernel body panicked (the thread is unrecoverable either way).
    DeviceLost {
        /// The lost device.
        device: usize,
    },
    /// A kernel launch failed (transient unless the device is lost).
    KernelFailed {
        /// Device on which the launch failed.
        device: usize,
    },
    /// A peer-to-peer transfer failed on the wire.
    TransferFailed {
        /// Sending device.
        from: usize,
        /// Receiving device.
        to: usize,
    },
    /// An operation exceeded its simulated-time bound (a transfer timeout,
    /// or a straggling device evicted at a rendezvous).
    Timeout {
        /// Device that timed out.
        device: usize,
    },
    /// The run was aborted because a *peer* device thread failed; the peer's
    /// own error carries the root cause.
    Aborted,
    /// A primitive was bound to a partition it cannot read: one built under
    /// another vertex duplication, or without the reverse adjacency its pull
    /// sides read.
    PartitionMismatch {
        /// The primitive's name.
        primitive: &'static str,
        /// What the partition lacks.
        needs: &'static str,
    },
}

impl VgpuError {
    /// Is this a transient fault that a bounded retry may clear (as opposed
    /// to a permanent loss or a programming error)?
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            VgpuError::KernelFailed { .. }
                | VgpuError::TransferFailed { .. }
                | VgpuError::Timeout { .. }
                | VgpuError::OutOfMemory { .. }
        )
    }
}

impl fmt::Display for VgpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VgpuError::OutOfMemory { device, requested, live, capacity } => write!(
                f,
                "device {device} out of memory: requested {requested} B with {live} B live of {capacity} B capacity"
            ),
            VgpuError::BadStream { stream, have } => {
                write!(f, "stream {stream} does not exist (device has {have} streams)")
            }
            VgpuError::BadDevice { device, have } => {
                write!(f, "device {device} does not exist (system has {have} devices)")
            }
            VgpuError::DeviceLost { device } => write!(f, "device {device} was lost"),
            VgpuError::KernelFailed { device } => {
                write!(f, "kernel launch failed on device {device}")
            }
            VgpuError::TransferFailed { from, to } => {
                write!(f, "transfer from device {from} to device {to} failed")
            }
            VgpuError::Timeout { device } => write!(f, "device {device} timed out"),
            VgpuError::Aborted => write!(f, "run aborted because a peer device thread failed"),
            VgpuError::PartitionMismatch { primitive, needs } => {
                write!(f, "{primitive} cannot bind this partition: it needs {needs}")
            }
        }
    }
}

impl std::error::Error for VgpuError {}

/// Result alias for substrate operations.
pub type Result<T> = std::result::Result<T, VgpuError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(VgpuError::KernelFailed { device: 0 }.is_transient());
        assert!(VgpuError::TransferFailed { from: 0, to: 1 }.is_transient());
        assert!(VgpuError::Timeout { device: 2 }.is_transient());
        assert!(!VgpuError::DeviceLost { device: 0 }.is_transient());
        assert!(!VgpuError::Aborted.is_transient());
        let mismatch = VgpuError::PartitionMismatch { primitive: "BC", needs: "duplicate-all" };
        assert!(!mismatch.is_transient());
    }
}
