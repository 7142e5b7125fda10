//! BFS with predecessor marking — the `MARK_PREDECESSORS` configuration of
//! the paper's Appendix A example.
//!
//! The appendix code sets `MAX_NUM_VERTEX_ASSOCIATES = 1` when predecessors
//! are marked: each transmitted vertex carries one extra `VertexT`
//! associate (the predecessor's global id) besides its label, and
//! `Expand_Incoming` stores it when the label wins the atomicMin. This
//! doubles the per-vertex wire size relative to plain BFS — visible in the
//! H-bytes counters.

use mgpu_core::alloc::{AllocScheme, FrontierBufs};
use mgpu_core::comm::CommStrategy;
use mgpu_core::ops;
use mgpu_core::problem::{MgpuProblem, Wire};
use mgpu_core::Runner;
use mgpu_graph::Id;
use mgpu_partition::{DistGraph, Duplication, SubGraph};
use vgpu::{Device, DeviceArray, KernelKind, Result, COMPUTE_STREAM};

use crate::INF;

/// BFS that also records each vertex's predecessor in the BFS tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsPred;

/// Per-GPU state: labels plus predecessor (global ids; `V::MAX`-like
/// sentinel is `None` encoded as the vertex itself for the source).
#[derive(Debug)]
pub struct BfsPredState<V: Id> {
    /// Depth labels, `INF` = unvisited.
    pub labels: DeviceArray<u32>,
    /// Predecessor global ids (valid where `labels != INF`; the source is
    /// its own predecessor).
    pub preds: DeviceArray<V>,
}

impl<V: Id + Wire, O: Id> MgpuProblem<V, O> for BfsPred {
    type State = BfsPredState<V>;
    /// `(label, predecessor-global-id)` — one value + one vertex associate.
    type Msg = (u32, V);

    fn name(&self) -> &'static str {
        "BFS(preds)"
    }

    fn duplication(&self) -> Duplication {
        Duplication::All
    }

    fn comm(&self) -> CommStrategy {
        CommStrategy::Selective
    }

    fn alloc_scheme(&self) -> AllocScheme {
        AllocScheme::PreallocFusion { sizing_factor: 1.0 }
    }

    fn init(&self, dev: &mut Device, sub: &SubGraph<V, O>) -> Result<Self::State> {
        Ok(BfsPredState {
            labels: dev.alloc(sub.n_vertices())?,
            preds: dev.alloc(sub.n_vertices())?,
        })
    }

    fn reset(
        &self,
        dev: &mut Device,
        _sub: &SubGraph<V, O>,
        state: &mut Self::State,
        src: Option<V>,
    ) -> Result<Vec<V>> {
        let BfsPredState { labels, preds } = state;
        dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            labels.as_mut_slice().fill(INF);
            let n = preds.len();
            for i in 0..n {
                preds[i] = V::from_usize(i);
            }
            ((), 2 * n as u64)
        })?;
        Ok(match src {
            Some(s) => {
                state.labels[s.idx()] = 0;
                vec![s]
            }
            None => Vec::new(),
        })
    }

    fn iteration(
        &self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        state: &mut Self::State,
        _bufs: &mut FrontierBufs<V>,
        input: &[V],
        iter: usize,
    ) -> Result<Vec<V>> {
        let next = iter as u32 + 1;
        let BfsPredState { labels, preds } = state;
        // Sequential on purpose: "first discoverer wins" for predecessors is
        // a tie-break we keep schedule-independent by fixing the visit order.
        ops::advance_filter_fused_seq(dev, sub, input, |s, _, d| {
            if labels[d.idx()] == INF {
                labels[d.idx()] = next;
                preds[d.idx()] = sub.to_global(s);
                Some(d)
            } else {
                None
            }
        })
    }

    fn package(&self, state: &Self::State, v: V) -> (u32, V) {
        (state.labels[v.idx()], state.preds[v.idx()])
    }

    fn combine(&self, state: &mut Self::State, v: V, msg: &(u32, V)) -> bool {
        let (label, pred) = *msg;
        if label < state.labels[v.idx()] {
            state.labels[v.idx()] = label;
            state.preds[v.idx()] = pred;
            true
        } else {
            false
        }
    }

    // Strict min-combine on the depth; the predecessor rides along and ties
    // are broken by package order, which the stable canonicalization sort
    // preserves.
    fn monotone(&self) -> bool {
        true
    }
    fn suppression_key(&self, msg: &(u32, V)) -> u64 {
        u64::from(msg.0)
    }
}

/// Gather `(label, predecessor)` pairs in global order.
pub fn gather_tree<V: Id + Wire, O: Id>(
    runner: &Runner<'_, V, O, BfsPred>,
    dist: &DistGraph<V, O>,
) -> Vec<(u32, V)> {
    crate::bfs::gather(dist, |gpu, local| {
        let st = runner.state(gpu);
        (st.labels[local.idx()], st.preds[local.idx()])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_core::EnactConfig;
    use mgpu_gen::gnm;
    use mgpu_graph::{Csr, GraphBuilder};
    use vgpu::{HardwareProfile, SimSystem};

    fn run(g: &Csr<u32, u64>, n: usize, src: u32) -> (Vec<(u32, u32)>, mgpu_core::EnactReport) {
        run_with(g, n, src, EnactConfig::default())
    }

    fn run_with(
        g: &Csr<u32, u64>,
        n: usize,
        src: u32,
        config: EnactConfig,
    ) -> (Vec<(u32, u32)>, mgpu_core::EnactReport) {
        let owner: Vec<u32> = (0..g.n_vertices()).map(|v| (v % n) as u32).collect();
        let dist = DistGraph::build(g, owner, n, Duplication::All);
        let sys = SimSystem::homogeneous(n, HardwareProfile::k40());
        let mut runner = Runner::new(sys, &dist, BfsPred, config).unwrap();
        let report = runner.enact(Some(src)).unwrap();
        (gather_tree(&runner, &dist), report)
    }

    #[test]
    fn labels_match_plain_bfs_and_tree_is_valid() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 600, 77));
        let expect = crate::reference::bfs(&g, 0u32);
        for n in [1usize, 2, 4] {
            let (tree, _) = run(&g, n, 0);
            for (v, &(label, pred)) in tree.iter().enumerate() {
                assert_eq!(label, expect[v], "{n} GPUs, vertex {v}");
                if label != INF && label != 0 {
                    // predecessor is exactly one level shallower and adjacent
                    assert_eq!(expect[pred as usize], label - 1, "vertex {v} pred {pred}");
                    assert!(
                        g.neighbors(pred).contains(&(v as u32)),
                        "tree edge {pred}->{v} must exist"
                    );
                }
            }
        }
    }

    #[test]
    fn predecessor_wire_format_doubles_vertex_payload() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(120, 600, 78));
        let paper_wire = EnactConfig {
            wire_encoding: mgpu_core::WireEncoding::List,
            suppression: false,
            ..EnactConfig::default()
        };
        let (_, with_pred) = run_with(&g, 3, 0, paper_wire);
        // list encoding, plain BFS: 8 bytes/vertex (id + label); with preds:
        // 12, plus one tag byte per package
        let t = &with_pred.totals;
        assert_eq!(t.h_bytes_sent, t.h_messages + t.h_vertices * 12);
    }

    #[test]
    fn source_is_its_own_predecessor() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&gnm(50, 200, 9));
        let (tree, _) = run(&g, 2, 7);
        assert_eq!(tree[7], (0, 7));
    }
}
