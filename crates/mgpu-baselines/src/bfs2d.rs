//! A 2D-partitioned BFS baseline (Fu et al. [25], Bisson et al. [8]).
//!
//! The adjacency matrix is blocked over an R×C processor grid: GPU `(i,j)`
//! stores the edges from row-slice `i` to column-slice `j`. Each iteration:
//!
//! 1. every GPU expands its block for the frontier vertices in its row
//!    slice, producing a *candidate list* (the "edge frontier" — with
//!    duplicates, nothing is deduplicated before transmission);
//! 2. candidates are sent down each column to the column leader, which
//!    contracts them against the visited set;
//! 3. leaders broadcast the new frontier slices for the next iteration.
//!
//! This is the communication pattern §II-A criticizes: "large edge
//! frontiers transmitted between GPUs cause large communication overheads
//! and limit scalability" — and the 1-hop-only data access restricts
//! algorithm generality (this engine can express BFS, not CC).

use mgpu_graph::{Csr, Id};
use mgpu_core::EnactReport;
use vgpu::{KernelKind, Result, SimSystem, COMPUTE_STREAM};

/// Unvisited marker.
const INF: u32 = u32::MAX;

/// The 2D-partitioned BFS engine.
#[derive(Debug, Clone, Copy)]
pub struct Bfs2d {
    /// Processor grid rows.
    pub rows: usize,
    /// Processor grid columns.
    pub cols: usize,
}

impl Bfs2d {
    /// A near-square grid for `n` GPUs (e.g. 4 → 2×2, 6 → 2×3).
    pub fn for_gpus(n: usize) -> Self {
        assert!(n > 0);
        let mut r = (n as f64).sqrt() as usize;
        while !n.is_multiple_of(r) {
            r -= 1;
        }
        Bfs2d { rows: r, cols: n / r }
    }

    /// Run BFS from `src` on `system` (which must have `rows × cols`
    /// devices). Returns the report and the labels in global order.
    pub fn run<V: Id, O: Id>(
        &self,
        system: &mut SimSystem,
        graph: &Csr<V, O>,
        src: V,
    ) -> Result<(EnactReport, Vec<u32>)> {
        let (rows, cols) = (self.rows, self.cols);
        let n_gpus = rows * cols;
        assert_eq!(system.n_devices(), n_gpus, "grid size must match device count");
        system.reset_clocks();
        let n = graph.n_vertices();
        let t0 = std::time::Instant::now();

        let row_slice = |v: usize| (v * rows / n).min(rows - 1);
        let col_slice = |v: usize| (v * cols / n).min(cols - 1);
        let gpu_at = |i: usize, j: usize| i * cols + j;
        let leader_of_col = |j: usize| gpu_at(j % rows, j);

        // Build the edge blocks (preprocessing; charged as upload time).
        let mut blocks: Vec<Vec<(V, V)>> = vec![Vec::new(); n_gpus];
        for u in 0..n {
            let uid = V::from_usize(u);
            let i = row_slice(u);
            for &v in graph.neighbors(uid) {
                blocks[gpu_at(i, col_slice(v.idx()))].push((uid, v));
            }
        }
        let mut reservations = Vec::with_capacity(n_gpus);
        for (g, block) in blocks.iter().enumerate() {
            let dev = &mut system.devices[g];
            let bytes = (block.len() * 2 * V::BYTES) as u64;
            reservations.push(dev.pool().reserve_external(bytes)?);
            let cost = dev.profile().local_copy_us(bytes);
            dev.charge(COMPUTE_STREAM, cost, 0.0)?;
        }

        // Labels live (conceptually) at the column leaders; mirrored here.
        let mut labels = vec![INF; n];
        labels[src.idx()] = 0;
        let mut frontier: Vec<V> = vec![src];
        let interconnect = std::sync::Arc::clone(&system.interconnect);
        let mut iterations = 0usize;

        while !frontier.is_empty() {
            let cur = iterations as u32;
            // --- expand: each GPU processes its block's frontier rows ---
            let mut candidates: Vec<Vec<V>> = vec![Vec::new(); cols];
            for i in 0..rows {
                let row_frontier: Vec<V> =
                    frontier.iter().copied().filter(|v| row_slice(v.idx()) == i).collect();
                for (j, col_candidates) in candidates.iter_mut().enumerate() {
                    let g = gpu_at(i, j);
                    let block = &blocks[g];
                    let dev = &mut system.devices[g];
                    // binary-search each frontier vertex's edge range
                    let cand = dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                        let mut out = Vec::new();
                        let mut edges = 0u64;
                        for &u in &row_frontier {
                            let start = block.partition_point(|&(s, _)| s < u);
                            for &(s, d) in &block[start..] {
                                if s != u {
                                    break;
                                }
                                edges += 1;
                                out.push(d); // no dedup: the edge frontier
                            }
                        }
                        (out, edges)
                    })?;
                    // --- send candidates to the column leader ---
                    let leader = leader_of_col(j);
                    if g != leader && !cand.is_empty() {
                        let bytes = (cand.len() * V::BYTES) as u64;
                        let cost = interconnect.transfer_us(g, leader, bytes);
                        let dev = &mut system.devices[g];
                        dev.charge(COMPUTE_STREAM, cost, 0.0)?;
                        dev.counters.h_bytes_sent += interconnect.charged_bytes(bytes);
                        dev.counters.h_vertices += cand.len() as u64;
                        dev.counters.h_messages += 1;
                    }
                    col_candidates.extend(cand);
                }
            }
            // --- contract at column leaders ---
            let mut next: Vec<V> = Vec::new();
            for (j, cand) in candidates.iter().enumerate() {
                let leader = leader_of_col(j);
                let dev = &mut system.devices[leader];
                let found = dev.kernel(COMPUTE_STREAM, KernelKind::Combine, || {
                    let mut found = Vec::new();
                    for &v in cand {
                        if labels[v.idx()] == INF {
                            labels[v.idx()] = cur + 1;
                            found.push(v);
                        }
                    }
                    (found, cand.len() as u64)
                })?;
                // --- leaders broadcast the new frontier slice ---
                if !found.is_empty() {
                    let bytes = (found.len() * V::BYTES) as u64;
                    for peer in 0..n_gpus {
                        if peer != leader {
                            let cost = interconnect.transfer_us(leader, peer, bytes);
                            let dev = &mut system.devices[leader];
                            dev.charge(COMPUTE_STREAM, cost, 0.0)?;
                            dev.counters.h_bytes_sent += interconnect.charged_bytes(bytes);
                            dev.counters.h_vertices += found.len() as u64;
                            dev.counters.h_messages += 1;
                        }
                    }
                }
                next.extend(found);
            }
            // --- BSP alignment ---
            let global = system.makespan_us();
            for dev in &mut system.devices {
                dev.end_superstep(n_gpus, global);
            }
            frontier = next;
            iterations += 1;
        }

        let report = EnactReport {
            primitive: "2D-partitioned BFS",
            n_devices: n_gpus,
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
        Ok((report, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::GraphBuilder;
    use mgpu_partition::{DistGraph, Duplication};
    use mgpu_primitives::{reference, Bfs};
    use vgpu::HardwareProfile;

    fn soc() -> Csr<u32, u64> {
        GraphBuilder::undirected(&preferential_attachment(500, 6, 9))
    }

    #[test]
    fn grid_factorization() {
        assert_eq!((Bfs2d::for_gpus(4).rows, Bfs2d::for_gpus(4).cols), (2, 2));
        assert_eq!((Bfs2d::for_gpus(6).rows, Bfs2d::for_gpus(6).cols), (2, 3));
        assert_eq!((Bfs2d::for_gpus(1).rows, Bfs2d::for_gpus(1).cols), (1, 1));
    }

    #[test]
    fn labels_match_reference() {
        let g = soc();
        let engine = Bfs2d::for_gpus(4);
        let mut system = SimSystem::homogeneous(4, HardwareProfile::k40());
        let (_, labels) = engine.run(&mut system, &g, 0u32).unwrap();
        assert_eq!(labels, reference::bfs(&g, 0u32));
    }

    #[test]
    fn edge_frontier_volume_exceeds_1d_selective() {
        let g = soc();
        let engine = Bfs2d::for_gpus(4);
        let mut system = SimSystem::homogeneous(4, HardwareProfile::k40());
        let (r2d, _) = engine.run(&mut system, &g, 0u32).unwrap();

        let owner: Vec<u32> = (0..500).map(|v| (v % 4) as u32).collect();
        let dist = DistGraph::build(&g, owner, 4, Duplication::All);
        let system = SimSystem::homogeneous(4, HardwareProfile::k40());
        let mut runner =
            Runner::new(system, &dist, Bfs::default(), EnactConfig::default()).unwrap();
        let r1d = runner.enact(Some(0u32)).unwrap();
        assert!(
            r2d.totals.h_vertices > r1d.totals.h_vertices,
            "2D edge-frontier traffic {} should exceed 1D selective {}",
            r2d.totals.h_vertices,
            r1d.totals.h_vertices
        );
    }
}
