//! An out-of-core Gather-Apply-Scatter engine (GraphReduce-like \[15\]).
//!
//! The graph lives in host memory, sharded by source-vertex range; each
//! superstep streams every shard whose sources are active across PCIe to a
//! *single* GPU and runs the gather/apply kernels there. "It must stream
//! the graph to the GPU during the computation, making the PCIe bus a
//! performance bottleneck. Its use of only 1 GPU also makes it unable to
//! achieve performance scalability" (§II-A) — both properties fall out of
//! the cost model here, which is what makes the Table IV comparison
//! (seconds for out-of-core vs milliseconds for in-core) reproducible.
//!
//! The GAS abstraction keeps algorithm generality: BFS, SSSP, CC and PR are
//! all expressed as [`OocProgram`]s.

use mgpu_graph::{Csr, Id};
use vgpu::{Device, HardwareProfile, KernelKind, Result, COMPUTE_STREAM};

/// A vertex program for the out-of-core GAS engine.
pub trait OocProgram {
    /// Per-vertex value.
    type Val: Copy + Send + 'static;
    /// Gather accumulator.
    type Acc: Copy + Send + 'static;

    /// Program name for reports.
    const NAME: &'static str;

    /// Initial value of vertex `v` (`n` = vertex count, `src` = optional
    /// source).
    fn init(&self, v: usize, n: usize, src: Option<usize>) -> Self::Val;
    /// Is `v` active in the first superstep?
    fn initially_active(&self, v: usize, src: Option<usize>) -> bool;
    /// The gather identity.
    fn identity(&self) -> Self::Acc;
    /// Message generated along an edge from an active source.
    fn scatter(&self, u_val: Self::Val, weight: u32, u_degree: usize) -> Self::Acc;
    /// Merge two accumulator values.
    fn combine(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Apply the gathered accumulator: returns the new value and whether
    /// the vertex is active in the next superstep.
    fn apply(&self, old: Self::Val, acc: Self::Acc, received: bool, n: usize) -> (Self::Val, bool);
    /// Superstep cap (PR uses a fixed iteration count).
    fn max_supersteps(&self) -> usize {
        usize::MAX
    }
}

/// Report from one out-of-core run.
#[derive(Debug, Clone)]
pub struct OocReport {
    /// Program name.
    pub program: &'static str,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Simulated time in microseconds.
    pub sim_time_us: f64,
    /// Simulated microseconds spent on PCIe streaming alone.
    pub stream_time_us: f64,
    /// Bytes streamed over PCIe.
    pub streamed_bytes: u64,
}

/// The out-of-core engine: one GPU, host-resident shards.
#[derive(Debug)]
pub struct OocEngine {
    /// The single GPU.
    pub device: Device,
    /// Host↔device PCIe bandwidth in GB/s. GraphReduce streams shards from
    /// *pageable* host memory, which sustains well under the pinned-memory
    /// peak (~6 GB/s on the paper's PCIe 3 testbed).
    pub pcie_gb_s: f64,
    /// Per-transfer latency in microseconds.
    pub pcie_latency_us: f64,
    /// Shard size in edges (sized so a shard fits in a fraction of GPU
    /// memory alongside the vertex arrays).
    pub shard_edges: usize,
    /// Streaming passes per superstep: GAS engines re-stream shard data for
    /// the gather and scatter phases separately (GraphReduce's design),
    /// so each active shard crosses the bus twice per superstep.
    pub stream_passes: u32,
}

impl OocEngine {
    /// An engine on one K40 with the paper's non-peer PCIe numbers.
    pub fn k40() -> Self {
        OocEngine {
            device: Device::new(0, HardwareProfile::k40()),
            pcie_gb_s: 6.0,
            pcie_latency_us: 25.0,
            shard_edges: 1 << 22,
            stream_passes: 2,
        }
    }

    /// An engine whose fixed overheads are shrunk by `2^shift`, matching a
    /// dataset that was shrunk by the same factor (dimensional scaling).
    pub fn k40_scaled(shift: u32) -> Self {
        let s = (1u64 << shift) as f64;
        OocEngine {
            device: Device::new(0, HardwareProfile::k40().with_overhead_scale(s)),
            pcie_latency_us: 25.0 / s,
            ..Self::k40()
        }
    }

    /// Run `program` over `graph` (optionally from `src`). Values are
    /// returned in vertex order.
    pub fn run<V: Id, O: Id, P: OocProgram>(
        &mut self,
        graph: &Csr<V, O>,
        program: &P,
        src: Option<V>,
    ) -> Result<(OocReport, Vec<P::Val>)> {
        let n = graph.n_vertices();
        let src_idx = src.map(|s| s.idx());
        self.device.reset_clock();
        let mut vals: Vec<P::Val> = (0..n).map(|v| program.init(v, n, src_idx)).collect();
        let mut active: Vec<bool> = (0..n).map(|v| program.initially_active(v, src_idx)).collect();

        // Shard boundaries: contiguous source ranges of ~shard_edges edges.
        let mut shards: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start;
            let mut edges = 0usize;
            while end < n && (edges < self.shard_edges || end == start) {
                edges += graph.degree(V::from_usize(end));
                end += 1;
            }
            shards.push(start..end);
            start = end;
        }

        let mut stream_time_us = 0.0f64;
        let mut streamed_bytes = 0u64;
        let mut supersteps = 0usize;
        let edge_bytes = (V::BYTES + O::BYTES / 2 + if graph.is_weighted() { 4 } else { 0 }) as u64;

        while active.iter().any(|&a| a) && supersteps < program.max_supersteps() {
            let mut accs: Vec<P::Acc> = vec![program.identity(); n];
            let mut received = vec![false; n];
            for shard in &shards {
                // Does this shard contain any active source? (the host-side
                // activity filter GraphReduce uses to skip shards)
                if !active[shard.clone()].iter().any(|&a| a) {
                    continue;
                }
                let shard_edge_count: usize =
                    shard.clone().map(|v| graph.degree(V::from_usize(v))).sum();
                // --- stream the shard over PCIe (the bottleneck); GAS
                // engines pay this once per phase ---
                let bytes = shard_edge_count as u64 * edge_bytes * self.stream_passes as u64;
                let cost = self.pcie_latency_us * self.stream_passes as f64
                    + bytes as f64 / (self.pcie_gb_s * 1e3);
                self.device.charge(COMPUTE_STREAM, cost, 0.0)?;
                stream_time_us += cost;
                streamed_bytes += bytes;
                // --- gather on the GPU ---
                self.device.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                    let mut edges = 0u64;
                    for u in shard.clone() {
                        if !active[u] {
                            continue;
                        }
                        let uid = V::from_usize(u);
                        let deg = graph.degree(uid);
                        for (v, w) in graph.neighbors_weighted(uid) {
                            edges += 1;
                            let msg = program.scatter(vals[u], w, deg);
                            accs[v.idx()] = program.combine(accs[v.idx()], msg);
                            received[v.idx()] = true;
                        }
                    }
                    ((), edges)
                })?;
            }
            // --- apply ---
            self.device.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
                for v in 0..n {
                    let (nv, act) = program.apply(vals[v], accs[v], received[v], n);
                    vals[v] = nv;
                    active[v] = act;
                }
                ((), n as u64)
            })?;
            supersteps += 1;
        }

        Ok((
            OocReport {
                program: P::NAME,
                supersteps,
                sim_time_us: self.device.now(),
                stream_time_us,
                streamed_bytes,
            },
            vals,
        ))
    }
}

/// BFS as a GAS program.
#[derive(Debug, Clone, Copy, Default)]
pub struct OocBfs;

impl OocProgram for OocBfs {
    type Val = u32;
    type Acc = u32;
    const NAME: &'static str = "BFS";

    fn init(&self, v: usize, _n: usize, src: Option<usize>) -> u32 {
        if Some(v) == src {
            0
        } else {
            u32::MAX
        }
    }
    fn initially_active(&self, v: usize, src: Option<usize>) -> bool {
        Some(v) == src
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn scatter(&self, u_val: u32, _w: u32, _deg: usize) -> u32 {
        u_val.saturating_add(1)
    }
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, old: u32, acc: u32, received: bool, _n: usize) -> (u32, bool) {
        if received && acc < old {
            (acc, true)
        } else {
            (old, false)
        }
    }
}

/// SSSP as a GAS program (Bellman–Ford).
#[derive(Debug, Clone, Copy, Default)]
pub struct OocSssp;

impl OocProgram for OocSssp {
    type Val = u32;
    type Acc = u32;
    const NAME: &'static str = "SSSP";

    fn init(&self, v: usize, _n: usize, src: Option<usize>) -> u32 {
        if Some(v) == src {
            0
        } else {
            u32::MAX
        }
    }
    fn initially_active(&self, v: usize, src: Option<usize>) -> bool {
        Some(v) == src
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn scatter(&self, u_val: u32, w: u32, _deg: usize) -> u32 {
        u_val.saturating_add(w)
    }
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, old: u32, acc: u32, received: bool, _n: usize) -> (u32, bool) {
        if received && acc < old {
            (acc, true)
        } else {
            (old, false)
        }
    }
}

/// Connected components as a GAS program (min-label propagation).
#[derive(Debug, Clone, Copy, Default)]
pub struct OocCc;

impl OocProgram for OocCc {
    type Val = u32;
    type Acc = u32;
    const NAME: &'static str = "CC";

    fn init(&self, v: usize, _n: usize, _src: Option<usize>) -> u32 {
        v as u32
    }
    fn initially_active(&self, _v: usize, _src: Option<usize>) -> bool {
        true
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn scatter(&self, u_val: u32, _w: u32, _deg: usize) -> u32 {
        u_val
    }
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, old: u32, acc: u32, received: bool, _n: usize) -> (u32, bool) {
        if received && acc < old {
            (acc, true)
        } else {
            (old, false)
        }
    }
}

/// PageRank as a GAS program (fixed iteration count, damping 0.85).
#[derive(Debug, Clone, Copy)]
pub struct OocPagerank {
    /// Damping factor.
    pub damping: f32,
    /// Number of iterations.
    pub iters: usize,
}

impl Default for OocPagerank {
    fn default() -> Self {
        OocPagerank { damping: 0.85, iters: 20 }
    }
}

impl OocProgram for OocPagerank {
    type Val = f32;
    type Acc = f32;
    const NAME: &'static str = "PR";

    fn init(&self, _v: usize, n: usize, _src: Option<usize>) -> f32 {
        1.0 / n as f32
    }
    fn initially_active(&self, _v: usize, _src: Option<usize>) -> bool {
        true
    }
    fn identity(&self) -> f32 {
        0.0
    }
    fn scatter(&self, u_val: f32, _w: u32, deg: usize) -> f32 {
        u_val / deg as f32
    }
    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn apply(&self, _old: f32, acc: f32, _received: bool, n: usize) -> (f32, bool) {
        ((1.0 - self.damping) / n as f32 + self.damping * acc, true)
    }
    fn max_supersteps(&self) -> usize {
        self.iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_gen::weights::add_paper_weights;
    use mgpu_gen::gnm;
    use mgpu_graph::{Csr, GraphBuilder};
    use mgpu_primitives::reference;

    fn graph() -> Csr<u32, u64> {
        GraphBuilder::undirected(&gnm(150, 700, 19))
    }

    #[test]
    fn ooc_bfs_matches_reference() {
        let g = graph();
        let mut engine = OocEngine::k40();
        let (report, vals) = engine.run(&g, &OocBfs, Some(0u32)).unwrap();
        assert_eq!(vals, reference::bfs(&g, 0u32));
        assert!(report.stream_time_us > 0.0);
    }

    #[test]
    fn ooc_sssp_matches_reference() {
        let mut coo = gnm(100, 500, 23);
        add_paper_weights(&mut coo, 4);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let mut engine = OocEngine::k40();
        let (_, vals) = engine.run(&g, &OocSssp, Some(3u32)).unwrap();
        assert_eq!(vals, reference::sssp(&g, 3u32));
    }

    #[test]
    fn ooc_cc_matches_reference() {
        let g = graph();
        let mut engine = OocEngine::k40();
        let (_, vals) = engine.run(&g, &OocCc, None).unwrap();
        let expect: Vec<u32> = reference::cc(&g).iter().map(|&c| c as u32).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn ooc_pagerank_matches_power_iteration() {
        let g = graph();
        let mut engine = OocEngine::k40();
        let (report, vals) =
            engine.run(&g, &OocPagerank { damping: 0.85, iters: 15 }, None).unwrap();
        assert_eq!(report.supersteps, 15);
        let expect = reference::pagerank(&g, 0.85, 15);
        for (i, (&a, &b)) in vals.iter().zip(&expect).enumerate() {
            assert!((a as f64 - b).abs() < 1e-4 * (b.abs() + 1e-9), "vertex {i}");
        }
    }

    #[test]
    fn streaming_dominates_runtime() {
        // With small shards every superstep re-streams the graph: PCIe time
        // should dominate — the §II-A argument against out-of-core.
        let g = graph();
        let mut engine = OocEngine::k40();
        engine.shard_edges = 64;
        let (report, _) = engine.run(&g, &OocPagerank::default(), None).unwrap();
        assert!(
            report.stream_time_us > 0.5 * report.sim_time_us,
            "stream {} of total {}",
            report.stream_time_us,
            report.sim_time_us
        );
    }

    #[test]
    fn inactive_shards_are_skipped() {
        // BFS from a corner of a path graph only activates a frontier of
        // one vertex per superstep: most shards are skipped, so far less
        // than |E|·S bytes stream.
        let coo = mgpu_gen::smallworld::chain(256);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let mut engine = OocEngine::k40();
        engine.shard_edges = 8;
        let (report, vals) = engine.run(&g, &OocBfs, Some(0u32)).unwrap();
        assert_eq!(vals, reference::bfs(&g, 0u32));
        let full_stream = (g.n_edges() * 8) as u64 * report.supersteps as u64;
        assert!(report.streamed_bytes < full_stream / 4);
    }
}
