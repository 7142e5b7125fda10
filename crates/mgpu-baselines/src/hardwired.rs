//! An Enterprise-like hardwired DOBFS baseline (Liu & Huang, SC '15).
//!
//! Enterprise is "a hardwired DOBFS implementation with various
//! optimizations … considered state of the art for a traditional DOBFS
//! implementation on GPUs within a single node" (§VII-C); the paper's
//! framework nevertheless outperforms it 2–5×. The mechanisms that cost it,
//! all reproduced here:
//!
//! * the bottom-up step scans **every** vertex each iteration (Beamer's
//!   original formulation) instead of maintaining a shrinking unvisited
//!   frontier, so late iterations pay `O(|V|)` repeatedly;
//! * status updates go through atomics (metered at combine throughput);
//! * frontier buffers use worst-case (`|E|`-sized) allocation;
//! * inter-GPU exchanges run on the compute stream — no
//!   computation/communication overlap.

use mgpu_core::direction::{Direction, DirectionConfig, DirectionState};
use mgpu_core::EnactReport;
use mgpu_graph::Id;
use mgpu_partition::DistGraph;
use vgpu::{KernelKind, Result, SimSystem, COMPUTE_STREAM};

/// Unvisited marker.
const INF: u32 = u32::MAX;

/// The hardwired DOBFS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct HardwiredDobfs {
    /// Direction-switch thresholds (same estimator as the framework's, to
    /// isolate the mechanism differences listed in the module docs).
    pub direction: DirectionConfig,
}

impl HardwiredDobfs {
    /// Run DOBFS from `src` over `dist` (duplicate-all, CSCs built) on
    /// `system`. Returns the report plus the final labels in global order.
    pub fn run<V: Id, O: Id>(
        &self,
        system: &mut SimSystem,
        dist: &DistGraph<V, O>,
        src: V,
    ) -> Result<(EnactReport, Vec<u32>)> {
        assert_eq!(system.n_devices(), dist.n_parts);
        system.reset_clocks();
        let n = dist.n_parts;
        let n_global = dist.n_global;
        let t0 = std::time::Instant::now();

        // Worst-case allocation: |E_i|-sized frontier buffers + labels.
        let mut topology = Vec::with_capacity(n);
        let mut frontier_bufs = Vec::with_capacity(n);
        let mut label_arrays = Vec::with_capacity(n);
        for (dev, sub) in system.devices.iter_mut().zip(&dist.parts) {
            topology.push(dev.pool().reserve_external(sub.topology_bytes())?);
            frontier_bufs.push(dev.alloc_with_capacity::<u32>(sub.n_edges().max(1))?);
            label_arrays.push(dev.alloc::<u32>(n_global)?);
        }
        for labels in &mut label_arrays {
            labels.as_mut_slice().fill(INF);
        }

        let mut dirs: Vec<DirectionState> =
            (0..n).map(|_| DirectionState::new(self.direction)).collect();
        let mut visited = vec![0usize; n];
        let mut frontier: Vec<V> = vec![src];
        for labels in &mut label_arrays {
            labels[src.idx()] = 0;
        }
        for v in visited.iter_mut() {
            *v = 1;
        }

        let mut iterations = 0usize;
        loop {
            let cur = iterations as u32;
            let mut discovered: Vec<V> = Vec::new();
            // Sequential orchestration per iteration (one CPU thread drives
            // all GPUs, a further Enterprise simplification); the BSP time
            // alignment below still models the devices running in parallel.
            let mut iteration_times = Vec::with_capacity(n);
            for gpu in 0..n {
                let dev = &mut system.devices[gpu];
                let sub = &dist.parts[gpu];
                let labels = &mut label_arrays[gpu];
                let dir = dirs[gpu].decide(
                    frontier.len(),
                    n_global - visited[gpu],
                    visited[gpu],
                    sub.n_edges(),
                    n_global,
                );
                let found: Vec<V> = match dir {
                    Direction::Forward => {
                        // top-down; atomic status updates cost ~1.5x the
                        // plain advance work per edge
                        dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                            let mut found = Vec::new();
                            let mut edges = 0u64;
                            for &v in &frontier {
                                for e in sub.csr.edge_range(v) {
                                    edges += 1;
                                    let d = sub.csr.col_indices()[e];
                                    if labels[d.idx()] == INF {
                                        labels[d.idx()] = cur + 1;
                                        found.push(d);
                                    }
                                }
                            }
                            (found, edges + edges / 2)
                        })?
                    }
                    Direction::Backward => {
                        // Beamer-style: scan ALL vertices, process unvisited
                        let csc = sub.csc.as_ref().expect("build_cscs before run");
                        dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                            let mut found = Vec::new();
                            let mut work = n_global as u64; // the full scan
                            for v in 0..n_global {
                                if labels[v] != INF {
                                    continue;
                                }
                                let vid = V::from_usize(v);
                                for &p in csc.neighbors(vid) {
                                    work += 1;
                                    if labels[p.idx()] == cur {
                                        labels[v] = cur + 1;
                                        found.push(vid);
                                        break;
                                    }
                                }
                            }
                            (found, work)
                        })?
                    }
                };
                visited[gpu] += found.len();
                discovered.extend(found);
                iteration_times.push(dev.now());
            }

            // Broadcast exchange on the *compute* stream (no overlap):
            // every GPU receives every other GPU's discoveries.
            let interconnect = std::sync::Arc::clone(&system.interconnect);
            let mut dedup: Vec<V> = discovered;
            dedup.sort_unstable();
            dedup.dedup();
            for gpu in 0..n {
                let dev = &mut system.devices[gpu];
                let bytes = (dedup.len() * (V::BYTES + 4)) as u64;
                for peer in 0..n {
                    if peer != gpu && !dedup.is_empty() {
                        let cost = interconnect.transfer_us(gpu, peer, bytes);
                        dev.charge(COMPUTE_STREAM, cost, 0.0)?;
                        dev.counters.h_bytes_sent += interconnect.charged_bytes(bytes);
                        dev.counters.h_vertices += dedup.len() as u64;
                        dev.counters.h_messages += 1;
                    }
                }
                // apply peer discoveries with atomics
                let labels = &mut label_arrays[gpu];
                let count = dedup.len() as u64;
                let next = cur + 1;
                let newly = dev.kernel(COMPUTE_STREAM, KernelKind::Combine, || {
                    let mut newly = 0usize;
                    for &v in &dedup {
                        if labels[v.idx()] == INF {
                            labels[v.idx()] = next;
                            newly += 1;
                        }
                    }
                    (newly, count)
                })?;
                visited[gpu] += newly;
            }

            // BSP alignment.
            let global = system.makespan_us();
            for dev in &mut system.devices {
                dev.end_superstep(n, global);
            }
            iterations += 1;
            frontier = dedup;
            if frontier.is_empty() {
                break;
            }
        }

        let labels_out: Vec<u32> = (0..n_global).map(|v| label_arrays[0][v]).collect();
        let report = EnactReport {
            primitive: "Enterprise-like DOBFS",
            n_devices: n,
            iterations,
            sim_time_us: system.makespan_us(),
            wall_time_us: t0.elapsed().as_secs_f64() * 1e6,
            host_sync: Default::default(),
            totals: system.total_counters(),
            per_device: system.devices.iter().map(|d| d.counters).collect(),
            peak_memory_per_device: system.peak_memory_per_device(),
            total_peak_memory: system.total_peak_memory(),
            pool_reallocs: system.devices.iter().map(|d| d.pool().reallocs()).sum(),
            mem_per_device: system
                .devices
                .iter()
                .map(|d| mgpu_core::DeviceMemStats::of(d.pool()))
                .collect(),
            history: Vec::new(),
            recovery: mgpu_core::RecoveryLog::default(),
            governor: mgpu_core::GovernorLog::default(),
            comm: mgpu_core::CommReduction::default(),
            trace: None,
        };
        Ok((report, labels_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::{Csr, GraphBuilder};
    use mgpu_partition::Duplication;
    use mgpu_primitives::{reference, Dobfs};
    use vgpu::HardwareProfile;

    fn setup(n: usize) -> (Csr<u32, u64>, DistGraph<u32, u64>) {
        setup_sized(n, 400, 8)
    }

    fn setup_sized(n: usize, v: usize, m: usize) -> (Csr<u32, u64>, DistGraph<u32, u64>) {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&preferential_attachment(v, m, 3));
        let owner: Vec<u32> = (0..v).map(|x| (x % n) as u32).collect();
        let mut dist = DistGraph::build(&g, owner, n, Duplication::All);
        dist.build_cscs();
        (g, dist)
    }

    #[test]
    fn produces_correct_labels() {
        let (g, dist) = setup(2);
        let mut system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let (_, labels) = HardwiredDobfs::default().run(&mut system, &dist, 0u32).unwrap();
        assert_eq!(labels, reference::bfs(&g, 0u32));
    }

    /// A 2-device system with overheads scaled down to match the scaled-down
    /// test graph (the dimensional scaling of DESIGN.md) so that *mechanism*
    /// costs — rescans, atomics, missing overlap — dominate the comparison,
    /// as they do at paper scale.
    fn scaled_system() -> SimSystem {
        let profile = HardwareProfile::k40().with_overhead_scale(256.0);
        let ic = vgpu::Interconnect::pcie3(2, 4).with_latency_scale(256.0);
        SimSystem::new(vec![profile; 2], ic).unwrap()
    }

    #[test]
    fn framework_dobfs_beats_hardwired_in_sim_time() {
        let (_, dist) = setup_sized(2, 20_000, 16);
        let mut hw_system = scaled_system();
        let (hw, _) = HardwiredDobfs::default().run(&mut hw_system, &dist, 0u32).unwrap();

        let system = scaled_system();
        let mut runner =
            Runner::new(system, &dist, Dobfs::default(), EnactConfig::default()).unwrap();
        let ours = runner.enact(Some(0u32)).unwrap();
        assert!(
            ours.sim_time_us < hw.sim_time_us,
            "framework {} µs should beat hardwired {} µs",
            ours.sim_time_us,
            hw.sim_time_us
        );
    }

    #[test]
    fn hardwired_uses_more_memory_than_framework() {
        let (_, dist) = setup(2);
        let mut hw_system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let (hw, _) = HardwiredDobfs::default().run(&mut hw_system, &dist, 0u32).unwrap();

        let system = SimSystem::homogeneous(2, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Dobfs::default(), EnactConfig::default()).unwrap();
        let ours = runner.enact(Some(0u32)).unwrap();
        assert!(
            hw.peak_memory_per_device > ours.peak_memory_per_device,
            "worst-case allocation {} should exceed framework {}",
            hw.peak_memory_per_device,
            ours.peak_memory_per_device
        );
    }
}
