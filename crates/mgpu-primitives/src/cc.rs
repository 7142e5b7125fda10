//! Multi-GPU connected components: one union-find pass over the local edges
//! (the ECL-CC pattern, Jaiganesh & Burtscher, HPDC'18).
//!
//! CC is the paper's example of a primitive that "jumps beyond the n-hop
//! limit" (it follows component pointers an arbitrary distance), which is
//! why n-hop-replication frameworks like Medusa cannot express it and why it
//! needs **duplicate-all + broadcast** here (§II-A, §III-C).
//!
//! Superstep 0 unions every local edge once; every superstep flattens the
//! forest and emits the vertices whose label moved; `combine` links what
//! peers send. No edge is read twice: `W ∈ O(|E_i|) + S·O(|V_i|)` where the
//! paper's Soman hooking pays `log(D/2)·O(|E_i|)` (DESIGN.md §7, "CC").

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::problem::{MgpuProblem, Wire};
use mgpu_graph::Id;
use mgpu_partition::{Duplication, Reads, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

/// Multi-GPU connected components.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cc;

/// Per-GPU CC state: a union-find forest over the duplicate-all space
/// (vertex ids = local indices) and the label each vertex last published.
#[derive(Debug)]
pub struct CcState<V: Id> {
    /// A non-root's parent; at a root, the smallest member of its set.
    up: DeviceArray<V>,
    /// A root's rank + 1, 0 elsewhere; the lower-ranked root links under the other.
    rank: DeviceArray<u8>,
    /// What `package` sends, `combine` compares with and the filter diffs against.
    label: DeviceArray<V>,
    /// Path-halving steps of the union pass (tests read it); `None` until it runs.
    union_hops: Option<u64>,
}

impl<V: Id> CcState<V> {
    /// `x`'s root, halving the path on the way; `hops` counts the halvings.
    fn find(&mut self, mut x: usize, hops: &mut u64) -> usize {
        while self.rank[x] == 0 {
            let p = self.up[x].idx();
            if self.rank[p] == 0 {
                *hops += 1;
                self.up[x] = self.up[p];
            }
            x = self.up[x].idx();
        }
        x
    }

    /// Join the sets of `a` and `b`, keeping the smaller minimum at the root.
    fn union(&mut self, a: usize, b: usize, hops: &mut u64) {
        let (ra, rb) = (self.find(a, hops), self.find(b, hops));
        let (lo, hi) = if self.rank[ra] < self.rank[rb] { (ra, rb) } else { (rb, ra) };
        if lo != hi {
            self.rank[hi] += u8::from(self.rank[lo] == self.rank[hi]);
            (self.rank[lo], self.up[hi]) = (0, self.up[hi].min(self.up[lo]));
            self.up[lo] = V::from_usize(hi);
        }
    }

    /// `v`'s label, by a find that writes nothing (no unflattened path leaks).
    fn component(&self, v: V) -> V {
        let mut x = v.idx();
        while self.rank[x] == 0 {
            x = self.up[x].idx();
        }
        self.up[x]
    }
}

impl<V: Id + Wire, O: Id> MgpuProblem<V, O> for Cc {
    type State = CcState<V>;
    type Msg = V;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn reads(&self) -> Reads {
        Reads::default()
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Broadcast
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::Fixed { sizing_factor: 1.0 }
    }

    fn state_bytes_per_vertex(&self) -> usize {
        2 * <V as Id>::BYTES + 1 // parent-or-minimum, label, rank
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        let n = sub.n_vertices();
        let (up, rank, label) = (dev.alloc(n)?, dev.alloc(n)?, dev.alloc(n)?);
        Ok(CcState { up, rank, label, union_hops: None })
    }

    fn reset(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _src: Option<V>,
    ) -> Result<Vec<V>> {
        let CcState { up, rank, label, .. } = state;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            for v in 0..up.len() {
                (up[v], rank[v], label[v]) = (V::from_usize(v), 1, V::from_usize(v));
            }
            ((), up.len() as u64)
        })?;
        state.union_hops = None;
        // CC is frontier-free; seed with the owned set so the first
        // superstep is not skipped as "locally done".
        Ok((0..sub.n_vertices()).map(V::from_usize).filter(|&v| sub.is_owned(v)).collect())
    }

    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _bufs: &mut FrontierBufs<V>,
        _input: &[V],
        _iter: usize,
    ) -> Result<Vec<V>> {
        let n = sub.n_vertices();
        if state.union_hops.is_none() {
            let hops = dev.kernel(COMPUTE_STREAM, KernelKind::Advance, || {
                let mut hops = 0;
                for v in 0..n {
                    for &u in sub.csr.neighbors(V::from_usize(v)) {
                        state.union(v, u.idx(), &mut hops);
                    }
                }
                (hops, sub.n_edges() as u64)
            })?;
            state.union_hops = Some(hops);
        }
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            for v in 0..n {
                if state.rank[v] == 0 {
                    state.up[v] = V::from_usize(state.find(v, &mut 0));
                }
            }
            ((), n as u64)
        })?;
        // Output frontier: every local vertex, owned *and* proxy (proxies
        // carry remote knowledge home), whose label moved since last sent.
        dev.kernel(COMPUTE_STREAM, KernelKind::Filter, || {
            let changed = (0..n).map(V::from_usize).filter(|&v| {
                let c = state.component(v);
                std::mem::replace(&mut state.label[v.idx()], c) != c
            });
            (changed.collect(), n as u64)
        })
    }

    fn package(&self, state: &Self::State, v: V) -> V {
        state.label[v.idx()]
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &V) -> bool {
        let better = *msg < state.label[v.idx()];
        if better {
            state.label[v.idx()] = *msg;
            state.union(v.idx(), msg.idx(), &mut 0);
        }
        better
    }

    // Strict min-combine on the published label (linking the sets only adds
    // a true connection). No uniformity hint: labels differ per vertex.
    fn monotone(&self) -> bool {
        true
    }
    fn monotone_key(&self, msg: &V) -> u64 {
        msg.idx() as u64
    }

    // Labels are vertex ids, which under duplicate-all are global ids
    // already — they survive re-partitioning unchanged.
    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn restore_word(&self, state: &mut Self::State, v: V, word: u64) {
        state.label[v.idx()] = V::from_usize(word as usize);
        state.union(v.idx(), word as usize, &mut 0);
    }

    fn result_word(&self, state: &Self::State, v: V) -> u64 {
        state.component(v).idx() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::{EnactConfig, Runner};
    use mgpu_gen::{gnm, grid2d, Dataset};
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::DistGraph;
    use vgpu::{HardwareProfile, SimSystem};

    fn run_cc(g: &Csr<u32, u64>, n_gpus: usize) -> (Vec<usize>, mgpu_core::EnactReport) {
        let (comp, report, _) = run_cc_hops(g, n_gpus);
        (comp, report)
    }

    /// [`run_cc`] plus the union pass's path-halving steps over all devices.
    fn run_cc_hops(g: &Csr<u32, u64>, n_gpus: usize) -> (Vec<usize>, mgpu_core::EnactReport, u64) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n_gpus) as u32).collect();
        let dist = DistGraph::build(g, owner, n_gpus, Duplication::All);
        let system = SimSystem::homogeneous(n_gpus, HardwareProfile::k40());
        let mut runner = Runner::new(system, &dist, Cc, EnactConfig::default()).unwrap();
        let report = runner.enact(None).unwrap();
        let hops = (0..n_gpus).map(|gpu| runner.state(gpu).union_hops.unwrap()).sum();
        let comp = runner.harvest().into_iter().map(|w| w as usize).collect();
        (comp, report, hops)
    }

    #[test]
    fn labels_components_on_a_disconnected_graph() {
        let coo = Coo::from_edges(8, vec![(0, 1), (1, 2), (4, 5), (6, 7)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        for n in [1, 2, 3] {
            let (comp, _) = run_cc(&g, n);
            assert_eq!(comp, crate::reference::cc(&g), "{n} GPUs");
        }
    }

    #[test]
    fn random_graph_components_match_union_find() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(200, 260, 17));
        let expect = crate::reference::cc(&g);
        for n in [1, 2, 4] {
            let (comp, _) = run_cc(&g, n);
            assert_eq!(comp, expect, "{n} GPUs");
        }
    }

    #[test]
    fn converges_in_few_supersteps_even_on_high_diameter_graphs() {
        // A 30×30 grid has diameter 58, but each device's union pass joins
        // its whole share at once — the paper reports 2–5 supersteps.
        let g: Csr<u32, u64> = GraphBuilder::undirected(&grid2d(30, 30, 1.0, 1));
        let (comp, report) = run_cc(&g, 4);
        assert!(comp.iter().all(|&c| c == 0), "a connected grid is one component");
        assert!(report.iterations <= 8, "expected O(log D) supersteps, got {}", report.iterations);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g: Csr<u32, u64> = Csr::empty(5);
        let (comp, _) = run_cc(&g, 2);
        assert_eq!(comp, vec![0, 1, 2, 3, 4]);
    }

    /// W bounded from both sides: the union pass reads each local edge once
    /// (the Soman loop read it 4.6 times), and its finds almost never take a
    /// second step — rank linking keeps the giant set's root where it is.
    #[test]
    fn one_union_pass_per_local_edge() {
        let coo = Dataset::by_name("soc-orkut").unwrap().generate(10, 42);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let (comp, report, hops) = run_cc_hops(&g, 2);
        assert_eq!(comp, crate::reference::cc(&g));
        let e = g.n_edges() as f64;
        let w = report.totals.w_items as f64 / e;
        assert!(w <= 1.3, "W = {w:.2} |E|");
        assert_eq!(report.iterations, 2, "one union superstep and one that confirms");
        assert!(hops as f64 / e <= 0.25, "{:.3} find hops per edge", hops as f64 / e);
    }
}
