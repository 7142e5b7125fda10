//! Totem-like hybrid CPU+GPU placement (Gharaibeh et al. [13]).
//!
//! Totem "either processes the workload on the CPU or transmits it to the
//! GPU according to a performance estimation model" — in practice it
//! partitions the graph between host and device by degree. We reproduce the
//! mechanism by treating the host CPU as one more device (the Xeon
//! hardware profile: huge memory, ~10× lower traversal throughput) and
//! running the *unmodified* framework primitives over the heterogeneous
//! system — which is exactly the generality claim of §III.

use mgpu_graph::{Csr, Id};
use mgpu_partition::Partitioner;
use vgpu::{HardwareProfile, Interconnect, Result, SimSystem};

/// Build a hybrid system: device 0 is the host CPU (Xeon profile), devices
/// `1..=n_gpus` are GPUs, all on the PCIe fabric. Fixed overheads of every
/// device and of the fabric are shrunk by `overhead_scale` (1.0 = the real
/// hardware), matching a dataset shrunk by the same factor.
pub fn hybrid_system(
    n_gpus: usize,
    gpu_profile: HardwareProfile,
    overhead_scale: f64,
) -> Result<SimSystem> {
    let mut profiles = vec![HardwareProfile::xeon_e5().with_overhead_scale(overhead_scale)];
    profiles.extend(std::iter::repeat_n(gpu_profile.with_overhead_scale(overhead_scale), n_gpus));
    let fabric = Interconnect::pcie3(n_gpus + 1, n_gpus + 1).with_latency_scale(overhead_scale);
    SimSystem::new(profiles, fabric)
}

/// Degree-based placement: following Totem's best-performing configuration,
/// the highest-degree vertices go to the GPUs (they carry most of the
/// edges and parallelize well); the long low-degree tail stays on the CPU.
#[derive(Debug, Clone, Copy)]
pub struct DegreePartitioner {
    /// Fraction of vertices (the lowest-degree ones) placed on the CPU
    /// (part 0).
    pub cpu_vertex_fraction: f64,
}

impl Default for DegreePartitioner {
    fn default() -> Self {
        DegreePartitioner { cpu_vertex_fraction: 0.5 }
    }
}

impl Partitioner for DegreePartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        assert!(n_parts >= 2, "hybrid placement needs the CPU part plus at least one GPU");
        let n = graph.n_vertices();
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&v| graph.degree(V::from_usize(v)));
        let cpu_count = ((n as f64) * self.cpu_vertex_fraction) as usize;
        let mut owner = vec![0u32; n];
        let n_gpus = n_parts - 1;
        for (rank, &v) in by_degree.iter().enumerate() {
            owner[v] = if rank < cpu_count {
                0 // the CPU hosts the low-degree tail
            } else {
                (1 + (rank - cpu_count) % n_gpus) as u32
            };
        }
        owner
    }

    fn name(&self) -> &'static str {
        "degree-hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::GraphBuilder;
    use mgpu_partition::{DistGraph, Duplication};
    use mgpu_primitives::{bfs::gather_labels, reference, Bfs};
    use vgpu::SimSystem;

    #[test]
    fn hybrid_system_has_cpu_and_gpus() {
        let sys = hybrid_system(2, HardwareProfile::k40(), 1.0).unwrap();
        assert_eq!(sys.n_devices(), 3);
        assert_eq!(sys.devices[0].profile().name, "Xeon E5-2690 v2");
        assert_eq!(sys.devices[1].profile().name, "Tesla K40");
    }

    #[test]
    fn degree_partitioner_puts_low_degree_on_cpu() {
        let g: mgpu_graph::Csr<u32, u64> =
            GraphBuilder::undirected(&preferential_attachment(300, 6, 2));
        let owner = DegreePartitioner::default().assign(&g, 3);
        let cpu_max: usize =
            (0..300u32).filter(|&v| owner[v as usize] == 0).map(|v| g.degree(v)).max().unwrap();
        let gpu_max: usize =
            (0..300u32).filter(|&v| owner[v as usize] != 0).map(|v| g.degree(v)).max().unwrap();
        assert!(gpu_max > cpu_max, "hubs belong on the GPU");
    }

    #[test]
    fn unmodified_bfs_runs_on_the_hybrid_system() {
        let g: mgpu_graph::Csr<u32, u64> =
            GraphBuilder::undirected(&preferential_attachment(300, 6, 2));
        let dist = DistGraph::partition(&g, &DegreePartitioner::default(), 3, Duplication::All);
        let system = hybrid_system(2, HardwareProfile::k40(), 1.0).unwrap();
        let mut runner =
            Runner::new(system, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        runner.enact(Some(0u32)).unwrap();
        assert_eq!(gather_labels(&runner, &dist), reference::bfs(&g, 0u32));
    }

    #[test]
    fn all_gpu_beats_hybrid_at_equal_device_count() {
        // 4 processors: {2 CPU-ish + 2 GPU} vs {4 GPU} — the paper's Totem
        // comparison shape ("we use the same number of processors … and
        // achieve better performance").
        let g: mgpu_graph::Csr<u32, u64> =
            GraphBuilder::undirected(&preferential_attachment(2000, 16, 7));

        // dimensional scaling so mechanism costs, not fixed overheads,
        // dominate (the graphs here are ~2^8 below paper scale)
        let scale = 256.0;
        let dist_h = DistGraph::partition(&g, &DegreePartitioner::default(), 3, Duplication::All);
        let sys_h = hybrid_system(2, HardwareProfile::k40(), scale).unwrap();
        let mut run_h =
            Runner::new(sys_h, &dist_h, Bfs::default(), EnactConfig::default()).unwrap();
        let hybrid = run_h.enact(Some(0u32)).unwrap();

        let owner: Vec<u32> = (0..2000).map(|v| (v % 3) as u32).collect();
        let dist_g = DistGraph::build(&g, owner, 3, Duplication::All);
        let sys_g = SimSystem::new(
            vec![HardwareProfile::k40().with_overhead_scale(scale); 3],
            vgpu::Interconnect::pcie3(3, 4).with_latency_scale(scale),
        )
        .unwrap();
        let mut run_g =
            Runner::new(sys_g, &dist_g, Bfs::default(), EnactConfig::default()).unwrap();
        let all_gpu = run_g.enact(Some(0u32)).unwrap();

        assert!(
            all_gpu.sim_time_us < hybrid.sim_time_us,
            "all-GPU {} µs should beat hybrid {} µs",
            all_gpu.sim_time_us,
            hybrid.sim_time_us
        );
    }
}
