//! Partition quality metrics: edge cut vs border size (§V-C).
//!
//! "Most partitioners attempt to minimize the number of edges cut across
//! partitions. However, in our system, it is instead the size of partition
//! borders (B_i …) that is most important to our performance" — because the
//! framework communicates *per-vertex* values, and multiple cut edges to the
//! same remote vertex transmit one value. These metrics let the Fig. 2
//! experiment report both objectives side by side.

use mgpu_graph::{Csr, Id};

use crate::dist::{DistGraph, Duplication};

/// Quality measures of a 1D vertex assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts.
    pub n_parts: usize,
    /// Directed edges whose endpoints live on different parts.
    pub edge_cut: usize,
    /// Per-part outgoing border size `|B_i|` ([`crate::SubGraph::border`]:
    /// distinct remote neighbors; each has one owner, so this is the sum of
    /// `|B_{i,j}|` over peers, the paper's union-with-duplication definition).
    pub border: Vec<usize>,
    /// Per-part owned vertex count `|L_i|`.
    pub vertices: Vec<usize>,
    /// Per-part local edge count `|E_i|`.
    pub edges: Vec<usize>,
}

impl PartitionQuality {
    /// Measure an assignment: the parts of its duplicate-all build.
    pub fn measure<V: Id, O: Id>(graph: &Csr<V, O>, owner: &[u32], n_parts: usize) -> Self {
        let dist = DistGraph::build(graph, owner.to_vec(), n_parts, Duplication::All);
        let edge_cut = (0..graph.n_vertices())
            .map(|v| {
                let neighbors = graph.neighbors(V::from_usize(v));
                neighbors.iter().filter(|u| owner[u.idx()] != owner[v]).count()
            })
            .sum();
        let parts = &dist.parts;
        PartitionQuality {
            n_parts,
            edge_cut,
            border: parts.iter().map(|p| p.border_total()).collect(),
            vertices: parts.iter().map(|p| p.n_local).collect(),
            edges: parts.iter().map(|p| p.n_edges()).collect(),
        }
    }

    /// Max border over parts — the paper's scalability-relevant objective.
    pub fn max_border(&self) -> usize {
        self.border.iter().copied().max().unwrap_or(0)
    }

    /// Vertex load imbalance: `max |L_i| / (|V| / n)`.
    pub fn vertex_imbalance(&self) -> f64 {
        let total: usize = self.vertices.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.n_parts as f64;
        self.vertices.iter().copied().max().unwrap_or(0) as f64 / ideal
    }

    /// Edge load imbalance: `max |E_i| / (|E| / n)` — what actually
    /// determines per-iteration compute balance (W ∈ O(|E_i|)).
    pub fn edge_imbalance(&self) -> f64 {
        let total: usize = self.edges.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.n_parts as f64;
        self.edges.iter().copied().max().unwrap_or(0) as f64 / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, GraphBuilder};

    fn cycle(n: usize) -> Csr<u32, u64> {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        GraphBuilder::undirected(&Coo::from_edges(n, edges, None))
    }

    #[test]
    fn contiguous_halves_of_a_cycle_cut_four_directed_edges() {
        let g = cycle(8);
        let owner = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let q = PartitionQuality::measure(&g, &owner, 2);
        assert_eq!(q.edge_cut, 4, "two undirected cut edges, counted per direction");
        assert_eq!(q.border, vec![2, 2]);
        assert_eq!(q.vertices, vec![4, 4]);
        assert!((q.vertex_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn border_counts_distinct_vertices_not_edges() {
        // star: hub 0 on part 0; leaves on part 1 all point at the hub
        let mut coo = Coo::<u32>::new(5);
        for leaf in 1..5u32 {
            coo.push(leaf, 0);
        }
        let g: Csr<u32, u64> = GraphBuilder::build(&coo, mgpu_graph::BuildOptions::raw());
        let q = PartitionQuality::measure(&g, &[0, 1, 1, 1, 1], 2);
        assert_eq!(q.edge_cut, 4, "four cut edges");
        assert_eq!(q.border[1], 1, "but only one border vertex — the paper's point in §V-C");
    }

    #[test]
    fn imbalance_detects_skew() {
        let g = cycle(8);
        let owner = vec![0, 0, 0, 0, 0, 0, 1, 1];
        let q = PartitionQuality::measure(&g, &owner, 2);
        assert!((q.vertex_imbalance() - 1.5).abs() < 1e-12);
        assert!(q.edge_imbalance() > 1.0);
    }
}
