//! The inter-device fabric: bandwidth/latency matrix with peer groups.
//!
//! The paper's testbed connects K40s under a PCIe 3 root hub; enabling peer
//! access within a hub raises GPU–GPU bandwidth from ~16 GB/s to ~20 GB/s and
//! drops latency from ~25 µs to ~7.5 µs (§V-A). Peer access is "enabled in
//! groups of 4 GPUs where appropriate" (§VII-A), so a 6-GPU node has two
//! peer groups with slower host-staged transfers between them.

/// Classification of a link between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// The "link" from a device to itself (local copy).
    Local,
    /// Direct peer-to-peer access (same PCIe root hub, peer access enabled).
    Peer,
    /// Host-staged transfer through CPU memory (different peer groups).
    HostStaged,
}

/// Bandwidth/latency description of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// One-way latency in microseconds.
    pub latency_us: f64,
}

/// The inter-device fabric of a node.
#[derive(Debug, Clone)]
pub struct Interconnect {
    n: usize,
    /// Peer-group id of each device; devices in the same group use
    /// [`Interconnect::peer`] links, others use [`Interconnect::host_staged`].
    group: Vec<usize>,
    peer: Link,
    host_staged: Link,
    /// Multiplier applied to transfer *sizes* when charging time — used by
    /// the §V-A experiment that artificially inflates communication volume H.
    pub h_multiplier: f64,
    /// Extra latency added to every transfer — used by the §V-A experiment
    /// that artificially inflates communication latency (10× latency showed
    /// "no appreciable difference").
    pub extra_latency_us: f64,
}

impl Interconnect {
    /// PCIe 3 fabric with peer access enabled in groups of `group_size`
    /// devices (the paper's configuration: groups of 4).
    pub fn pcie3(n: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "peer group size must be positive");
        Interconnect {
            n,
            group: (0..n).map(|i| i / group_size).collect(),
            peer: Link { bandwidth_gb_s: 20.0, latency_us: 7.5 },
            host_staged: Link { bandwidth_gb_s: 16.0, latency_us: 25.0 },
            h_multiplier: 1.0,
            extra_latency_us: 0.0,
        }
    }

    /// An inter-node cluster fabric (InfiniBand-class): lower bandwidth and
    /// much higher latency than intra-node PCIe. Used by the cluster-style
    /// baselines of Table III to reflect the paper's note that "inter-GPU
    /// bandwidth within a node is larger than inter-node bandwidth".
    pub fn cluster(n: usize) -> Self {
        Interconnect {
            n,
            group: (0..n).collect(),
            peer: Link { bandwidth_gb_s: 6.0, latency_us: 60.0 },
            host_staged: Link { bandwidth_gb_s: 6.0, latency_us: 60.0 },
            h_multiplier: 1.0,
            extra_latency_us: 0.0,
        }
    }

    /// A two-level scale-out fabric: `nodes × gpus_per_node` devices with
    /// PCIe peer links inside a node and an InfiniBand-class link between
    /// nodes — the topology of the paper's "second key next step" ("can we
    /// achieve further scalability (scale-out) with multiple nodes, and
    /// given the increased latency and decreased bandwidth of those nodes,
    /// is it profitable to do so?", §VIII). Intra-node pairs use the peer
    /// link; cross-node pairs the network link.
    pub fn two_level(nodes: usize, gpus_per_node: usize) -> Self {
        let n = nodes * gpus_per_node;
        Interconnect {
            n,
            group: (0..n).map(|i| i / gpus_per_node).collect(),
            peer: Link { bandwidth_gb_s: 20.0, latency_us: 7.5 },
            host_staged: Link { bandwidth_gb_s: 6.0, latency_us: 60.0 },
            h_multiplier: 1.0,
            extra_latency_us: 0.0,
        }
    }

    /// Number of devices this fabric connects.
    pub fn n_devices(&self) -> usize {
        self.n
    }

    /// The fabric among the devices `keep` names, renumbered in that order;
    /// each keeps its peer group, so every link keeps its class.
    pub fn restricted(&self, keep: &[usize]) -> Self {
        Interconnect {
            n: keep.len(),
            group: keep.iter().map(|&d| self.group[d]).collect(),
            ..self.clone()
        }
    }

    /// Divide per-message wire latencies by `scale` — the interconnect half
    /// of [`crate::HardwareProfile::with_overhead_scale`]'s dimensional
    /// scaling (latency is a fixed per-message cost, bandwidth terms scale
    /// with the workload automatically).
    pub fn with_latency_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0, "latency scale is a shrink factor");
        self.peer.latency_us /= scale;
        self.host_staged.latency_us /= scale;
        self
    }

    /// Classify the link between `src` and `dst`.
    pub fn link_class(&self, src: usize, dst: usize) -> LinkClass {
        if src == dst {
            LinkClass::Local
        } else if self.group[src] == self.group[dst] {
            LinkClass::Peer
        } else {
            LinkClass::HostStaged
        }
    }

    /// The host-staged link parameters — the path a device uses to spill
    /// buffers to host memory under memory pressure (D2H at the staged
    /// bandwidth/latency, independent of any peer).
    pub fn host_link(&self) -> Link {
        self.host_staged
    }

    /// Link parameters between `src` and `dst`.
    pub fn link(&self, src: usize, dst: usize) -> Link {
        match self.link_class(src, dst) {
            LinkClass::Local => Link { bandwidth_gb_s: f64::INFINITY, latency_us: 0.0 },
            LinkClass::Peer => self.peer,
            LinkClass::HostStaged => self.host_staged,
        }
    }

    /// Time in microseconds to move `bytes` from `src` to `dst`, including
    /// the artificial §V-A knobs. GB/s == bytes/µs/1e3.
    pub fn transfer_us(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        self.occupancy_us(src, dst, bytes) + self.latency_us(src, dst)
    }

    /// The *bandwidth* component of a transfer: how long the link (and the
    /// sender's copy engine) is occupied. Pipelined transfers to different
    /// peers serialize on this.
    pub fn occupancy_us(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let link = self.link(src, dst);
        let eff_bytes = bytes as f64 * self.h_multiplier;
        eff_bytes / (link.bandwidth_gb_s * 1e3)
    }

    /// The *latency* component: the pipeline delay before data is usable at
    /// the receiver. It delays arrival but does not occupy the sender —
    /// which is why the paper's 10× latency experiment shows "no
    /// appreciable difference" (§V-A).
    pub fn latency_us(&self, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.link(src, dst).latency_us + self.extra_latency_us
    }

    /// Effective (charged) byte count for a transfer of `bytes` — used so BSP
    /// `H` counters agree with what the time model charged.
    pub fn charged_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.h_multiplier).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_groups_of_four_split_six_gpus() {
        let ic = Interconnect::pcie3(6, 4);
        assert_eq!(ic.link_class(0, 3), LinkClass::Peer);
        assert_eq!(ic.link_class(0, 4), LinkClass::HostStaged);
        assert_eq!(ic.link_class(4, 5), LinkClass::Peer);
        assert_eq!(ic.link_class(2, 2), LinkClass::Local);
    }

    #[test]
    fn peer_link_is_faster_than_host_staged() {
        let ic = Interconnect::pcie3(8, 4);
        let peer = ic.transfer_us(0, 1, 1 << 20);
        let staged = ic.transfer_us(0, 5, 1 << 20);
        assert!(peer < staged);
    }

    #[test]
    fn transfer_cost_scales_linearly_in_bytes_beyond_latency() {
        let ic = Interconnect::pcie3(2, 4);
        let t1 = ic.transfer_us(0, 1, 1 << 20);
        let t2 = ic.transfer_us(0, 1, 2 << 20);
        let lat = ic.link(0, 1).latency_us;
        assert!(((t2 - lat) - 2.0 * (t1 - lat)).abs() < 1e-9);
    }

    #[test]
    fn h_multiplier_inflates_time_but_not_latency() {
        let mut ic = Interconnect::pcie3(2, 4);
        let base = ic.transfer_us(0, 1, 1 << 20);
        ic.h_multiplier = 3.0;
        let inflated = ic.transfer_us(0, 1, 1 << 20);
        let lat = ic.link(0, 1).latency_us;
        assert!(((inflated - lat) - 3.0 * (base - lat)).abs() < 1e-6);
    }

    #[test]
    fn a_restricted_fabric_keeps_each_link_class() {
        // within one peer group the survivors are a smaller node of the same kind
        let four = Interconnect::pcie3(4, 4).restricted(&[0, 2, 3]);
        let three = Interconnect::pcie3(3, 4);
        assert_eq!(four.n_devices(), 3);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (2, 2)] {
            assert_eq!(four.link_class(a, b), three.link_class(a, b));
        }
        // across groups a survivor keeps its own group, not a renumbered one
        let eight = Interconnect::pcie3(8, 4).with_latency_scale(2.0).restricted(&[0, 1, 3, 4]);
        assert_eq!(eight.link_class(0, 2), LinkClass::Peer);
        assert_eq!(eight.link_class(2, 3), LinkClass::HostStaged);
        assert_eq!(eight.link(0, 1).latency_us, 7.5 / 2.0, "the latency scale survives");
    }

    #[test]
    fn local_transfer_is_free() {
        let ic = Interconnect::pcie3(4, 4);
        assert_eq!(ic.transfer_us(2, 2, 1 << 30), 0.0);
    }

    #[test]
    fn cluster_fabric_is_slower_than_pcie() {
        let pcie = Interconnect::pcie3(4, 4);
        let clus = Interconnect::cluster(4);
        assert!(clus.transfer_us(0, 1, 1 << 20) > pcie.transfer_us(0, 1, 1 << 20));
    }
}
