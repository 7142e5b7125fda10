//! Hardware profiles: the calibrated per-device cost parameters.
//!
//! A [`HardwareProfile`] captures everything the cost model needs to know
//! about one processor. The presets are calibrated against published
//! numbers for the boards the paper evaluates on:
//!
//! * **Tesla K40** — 12 GB GDDR5 at 288 GB/s; Gunrock-era BFS sustains about
//!   3 GTEPS per GPU on large power-law graphs (the paper's 4×K40 BFS at
//!   12.9 GTEPS, Table III).
//! * **Tesla K80 (per GPU)** — each of the two GK210s has 12 GB at 240 GB/s.
//! * **Tesla P100 (PCIe)** — 16 GB HBM2 at 732 GB/s; the paper observes that
//!   computation speeds up by roughly the bandwidth ratio while inter-GPU
//!   bandwidth stays flat, which is exactly what makes DOBFS scaling *worse*
//!   on P100 (§VII-B).
//! * **Xeon E5-2690 v2** — the host CPU, used as a device profile by the
//!   Totem-like hybrid baseline.
//!
//! Graph-kernel throughputs scale with memory bandwidth (graph traversal is
//! bandwidth-bound), so the non-K40 presets are derived from the K40 numbers
//! by the bandwidth ratio — the same scaling rule the paper applies when
//! comparing against K20 results (§VII-C).

/// Gibibyte in bytes.
pub const GIB: u64 = 1 << 30;

/// Calibrated cost parameters for one (virtual) processor.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Human-readable board name, e.g. `"Tesla K40"`.
    pub name: &'static str,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Device memory bandwidth in GB/s (used for bulk local copies).
    pub mem_bandwidth_gb_s: f64,
    /// Fixed overhead per kernel launch in microseconds (§V-B: ~3 µs).
    pub kernel_launch_us: f64,
    /// Edge-centric throughput (edges/µs) of an advance-style kernel.
    pub advance_edges_per_us: f64,
    /// Vertex-centric throughput (vertices/µs) of a filter-style kernel.
    pub filter_vertices_per_us: f64,
    /// Throughput (items/µs) of atomic-using kernels such as the
    /// `Expand_Incoming` combiner and the frontier split (atomic output
    /// cursors). Mostly-conflict-free atomics on Kepler run near memory
    /// bandwidth, somewhat below plain filter throughput.
    pub atomic_items_per_us: f64,
    /// Throughput (items/µs) of memset / scan / bookkeeping kernels.
    pub bulk_items_per_us: f64,
    /// Per-superstep API overhead in microseconds: CPU-side bookkeeping,
    /// event queries, stream synchronization (part of BSP `l`).
    pub superstep_api_us: f64,
    /// Extra synchronization cost charged once per superstep as soon as more
    /// than one device participates (inter-GPU event wait / flag exchange).
    pub peer_sync_base_us: f64,
    /// Additional per-peer synchronization cost (fan-in of event waits).
    pub peer_sync_per_peer_us: f64,
    /// Fixed overhead of one device allocation in microseconds
    /// (`cudaMalloc` is not free); a reallocation pays it once more, plus
    /// the copy-over.
    pub alloc_us: f64,
}

impl HardwareProfile {
    /// NVIDIA Tesla K40: the paper's main 6-GPU testbed.
    pub fn k40() -> Self {
        HardwareProfile {
            name: "Tesla K40",
            mem_capacity: 12 * GIB,
            mem_bandwidth_gb_s: 288.0,
            kernel_launch_us: 3.0,
            advance_edges_per_us: 3000.0, // ~3 GTEPS sustained BFS advance
            filter_vertices_per_us: 9000.0,
            atomic_items_per_us: 6000.0,
            bulk_items_per_us: 24000.0,
            superstep_api_us: 55.0,
            peer_sync_base_us: 40.0,
            peer_sync_per_peer_us: 25.0,
            alloc_us: 2.0,
        }
    }

    /// One GPU of an NVIDIA Tesla K80 board (GK210, 12 GB at 240 GB/s).
    pub fn k80_gpu() -> Self {
        HardwareProfile { name: "Tesla K80 (per GPU)", ..Self::k40().scaled_bandwidth(240.0) }
    }

    /// NVIDIA Tesla P100 (PCIe, 16 GB HBM2).
    pub fn p100() -> Self {
        HardwareProfile {
            name: "Tesla P100",
            mem_capacity: 16 * GIB,
            // P100 kernel launches are slightly cheaper; API overheads shrink
            // a little with the newer driver but remain the same order.
            kernel_launch_us: 2.5,
            superstep_api_us: 34.0,
            ..Self::k40().scaled_bandwidth(732.0)
        }
    }

    /// The GPU profiles a `--profile` flag can name, by that name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "k40" => Some(Self::k40()),
            "k80" => Some(Self::k80_gpu()),
            "p100" => Some(Self::p100()),
            _ => None,
        }
    }

    /// 10-core Intel Xeon E5-2690 v2 host processor, used by the hybrid
    /// (Totem-like) baseline as a "device". Throughputs reflect a good
    /// multi-threaded CPU graph framework: ~0.3 GTEPS traversal.
    pub fn xeon_e5() -> Self {
        HardwareProfile {
            name: "Xeon E5-2690 v2",
            mem_capacity: 128 * GIB,
            mem_bandwidth_gb_s: 59.7,
            kernel_launch_us: 0.5, // a function call, not a kernel launch
            advance_edges_per_us: 300.0,
            filter_vertices_per_us: 900.0,
            atomic_items_per_us: 600.0,
            bulk_items_per_us: 4000.0,
            superstep_api_us: 5.0,
            peer_sync_base_us: 5.0,
            peer_sync_per_peer_us: 2.0,
            alloc_us: 2.0,
        }
    }

    /// Derive a profile whose compute throughputs are scaled by
    /// `bandwidth / self.mem_bandwidth_gb_s` — the bandwidth-proportional
    /// scaling rule for bandwidth-bound graph kernels.
    pub fn scaled_bandwidth(&self, bandwidth_gb_s: f64) -> Self {
        let r = bandwidth_gb_s / self.mem_bandwidth_gb_s;
        HardwareProfile {
            mem_bandwidth_gb_s: bandwidth_gb_s,
            advance_edges_per_us: self.advance_edges_per_us * r,
            filter_vertices_per_us: self.filter_vertices_per_us * r,
            atomic_items_per_us: self.atomic_items_per_us * r,
            bulk_items_per_us: self.bulk_items_per_us * r,
            ..self.clone()
        }
    }

    /// Replace the memory capacity (useful for artificially small devices in
    /// tests of the out-of-memory paths).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.mem_capacity = bytes;
        self
    }

    /// Divide every *fixed* overhead (kernel launch, superstep API, peer
    /// synchronization, allocation) by `scale`. In the BSP model `T = W + H·g + S·l`,
    /// shrinking a workload by `s` shrinks W and H by `s` but leaves the
    /// fixed `l` terms alone, which would let overheads swamp the scaled
    /// experiment; dividing the overheads by the same `s` preserves the
    /// paper's work-to-overhead ratios — and therefore its scaling shapes
    /// and GTEPS magnitudes — at laptop scale. Experiments that *measure*
    /// the overheads themselves (§V-B) use the unscaled profile.
    pub fn with_overhead_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0, "overhead scale is a shrink factor");
        self.kernel_launch_us /= scale;
        self.superstep_api_us /= scale;
        self.peer_sync_base_us /= scale;
        self.peer_sync_per_peer_us /= scale;
        self.alloc_us /= scale;
        self
    }

    /// Cost in microseconds of a bulk device-local copy of `bytes` bytes.
    pub fn local_copy_us(&self, bytes: u64) -> f64 {
        // Effective copy bandwidth is read+write, roughly half peak.
        bytes as f64 / (self.mem_bandwidth_gb_s * 0.5 * 1e3)
    }

    /// Per-superstep synchronization cost `l` for an `n`-device system
    /// (§V-B). The jump from one to two devices reflects inter-GPU
    /// synchronization; beyond that the cost grows roughly linearly with the
    /// number of peers, matching the paper's measured {66.8, 124, 142, 188} µs
    /// per-iteration floor for 1–4 GPUs once kernel launches are added.
    pub fn superstep_sync_us(&self, n_devices: usize) -> f64 {
        if n_devices <= 1 {
            self.superstep_api_us
        } else {
            self.superstep_api_us
                + self.peer_sync_base_us
                + self.peer_sync_per_peer_us * (n_devices - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_capacity_is_12_gib() {
        assert_eq!(HardwareProfile::k40().mem_capacity, 12 * GIB);
    }

    #[test]
    fn bandwidth_scaling_scales_throughputs_proportionally() {
        let k40 = HardwareProfile::k40();
        let double = k40.scaled_bandwidth(k40.mem_bandwidth_gb_s * 2.0);
        assert!((double.advance_edges_per_us - 2.0 * k40.advance_edges_per_us).abs() < 1e-9);
        assert!((double.filter_vertices_per_us - 2.0 * k40.filter_vertices_per_us).abs() < 1e-9);
        // Capacity and launch overhead are not bandwidth-derived.
        assert_eq!(double.mem_capacity, k40.mem_capacity);
        assert_eq!(double.kernel_launch_us, k40.kernel_launch_us);
    }

    #[test]
    fn p100_is_faster_than_k40_but_interconnect_independent() {
        let k40 = HardwareProfile::k40();
        let p100 = HardwareProfile::p100();
        assert!(p100.advance_edges_per_us > 2.0 * k40.advance_edges_per_us);
        assert_eq!(p100.mem_capacity, 16 * GIB);
    }

    #[test]
    fn sync_cost_jumps_from_one_to_two_devices() {
        let p = HardwareProfile::k40();
        let l1 = p.superstep_sync_us(1);
        let l2 = p.superstep_sync_us(2);
        let l3 = p.superstep_sync_us(3);
        let l4 = p.superstep_sync_us(4);
        assert!(l2 - l1 > l3 - l2, "1->2 jump exceeds 2->3 increment");
        assert!((l3 - l2 - (l4 - l3)).abs() < 1e-9, "linear beyond 2 devices");
    }

    #[test]
    fn local_copy_cost_is_linear_in_bytes() {
        let p = HardwareProfile::k40();
        let a = p.local_copy_us(1 << 20);
        let b = p.local_copy_us(2 << 20);
        assert!((b - 2.0 * a).abs() < 1e-9);
    }
}
