//! Compressed sparse row adjacency — the device-resident graph format.

use crate::ids::Id;

/// Why a graph cannot be represented at the requested index widths. The
/// widths are the caller's explicit types (shipped paths build
/// `Csr<u32, u64>`; Table V's variants name theirs), and a graph that exceeds
/// them is refused with one of these, never silently truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The edge count does not fit the offset type `O`.
    OffsetOverflow {
        /// Edges the graph has.
        edges: usize,
        /// Largest count the offset type can address.
        max: usize,
    },
    /// The vertex count does not fit the vertex-id type `V` (the last vertex
    /// id would be unaddressable). Widening the *offset* type cannot fix
    /// this; the vertex type itself is too narrow.
    VertexOverflow {
        /// Vertices the graph has.
        vertices: usize,
        /// Largest vertex count the id type can address.
        max: usize,
    },
    /// An edge names a vertex `>= n_vertices`. Left in, a bad source indexes
    /// past the offsets and a bad destination becomes a dangling column that
    /// panics later inside a kernel.
    EndpointOutOfRange {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The out-of-range vertex id.
        endpoint: usize,
        /// Vertices the graph has.
        vertices: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::OffsetOverflow { edges, max } => {
                write!(f, "edge count {edges} does not fit in the offset type (max {max})")
            }
            CsrError::VertexOverflow { vertices, max } => {
                write!(f, "vertex count {vertices} does not fit in the vertex id type (max {max})")
            }
            CsrError::EndpointOutOfRange { edge, endpoint, vertices } => {
                write!(
                    f,
                    "edge {edge} names vertex {endpoint}, out of range for {vertices} vertices"
                )
            }
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrError {
    /// `n` vertices must be addressable by `V`: ids run `0..n`, so the
    /// largest id is `n - 1` and `MAX_AS_USIZE + 1` vertices fit.
    pub(crate) fn check_vertices<V: Id>(n: usize) -> Result<(), CsrError> {
        if n > 0 && n - 1 > V::MAX_AS_USIZE {
            return Err(CsrError::VertexOverflow {
                vertices: n,
                max: V::MAX_AS_USIZE.saturating_add(1),
            });
        }
        Ok(())
    }

    /// Both endpoints of input edge number `edge` must be `< n`.
    #[inline]
    pub(crate) fn check_edge<V: Id>(edge: usize, (s, d): (V, V), n: usize) -> Result<(), CsrError> {
        let bad = if s.idx() >= n {
            s
        } else if d.idx() >= n {
            d
        } else {
            return Ok(());
        };
        Err(CsrError::EndpointOutOfRange { edge, endpoint: bad.idx(), vertices: n })
    }
}

/// A CSR graph with vertex ids of type `V` and edge offsets of type `O`.
///
/// `O` must be wide enough for `n_edges`; the builder checks this. The
/// paper's "32bit eID / 64bit eID / 64bit vID" variants of Table V are
/// `Csr<u32, u32>`, `Csr<u32, u64>` and `Csr<u64, u64>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<V: Id = u32, O: Id = u64> {
    row_offsets: Vec<O>,
    col_indices: Vec<V>,
    weights: Option<Vec<u32>>,
}

impl<V: Id, O: Id> Csr<V, O> {
    /// Build directly from parts (offsets must be monotonically
    /// non-decreasing, starting at 0 and ending at `col_indices.len()`).
    pub fn from_parts(row_offsets: Vec<O>, col_indices: Vec<V>, weights: Option<Vec<u32>>) -> Self {
        assert!(!row_offsets.is_empty(), "row offsets need at least the terminating entry");
        assert_eq!(row_offsets[0].idx(), 0, "offsets start at 0");
        assert_eq!(
            row_offsets.last().unwrap().idx(),
            col_indices.len(),
            "offsets must end at the edge count"
        );
        debug_assert!(row_offsets.windows(2).all(|w| w[0] <= w[1]), "offsets non-decreasing");
        if let Some(w) = &weights {
            assert_eq!(w.len(), col_indices.len(), "one weight per edge");
        }
        Csr { row_offsets, col_indices, weights }
    }

    /// An edgeless graph over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Csr { row_offsets: vec![O::zero(); n + 1], col_indices: Vec::new(), weights: None }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: V) -> usize {
        self.row_offsets[v.idx() + 1].idx() - self.row_offsets[v.idx()].idx()
    }

    /// The edge-id range of `v`'s out-edges.
    pub fn edge_range(&self, v: V) -> std::ops::Range<usize> {
        self.row_offsets[v.idx()].idx()..self.row_offsets[v.idx() + 1].idx()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.col_indices[self.edge_range(v)]
    }

    /// Out-neighbors of `v` with weights (1 if unweighted).
    pub fn neighbors_weighted(&self, v: V) -> impl Iterator<Item = (V, u32)> + '_ {
        let r = self.edge_range(v);
        let cols = &self.col_indices[r.clone()];
        let ws = self.weights.as_deref();
        let start = r.start;
        cols.iter().enumerate().map(move |(i, &d)| (d, ws.map_or(1, |w| w[start + i])))
    }

    /// The weight of edge id `e` (1 if unweighted).
    pub fn edge_weight(&self, e: usize) -> u32 {
        self.weights.as_ref().map_or(1, |w| w[e])
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw row offsets (length `n_vertices + 1`).
    pub fn row_offsets(&self) -> &[O] {
        &self.row_offsets
    }

    /// Raw column indices (length `n_edges`).
    pub fn col_indices(&self) -> &[V] {
        &self.col_indices
    }

    /// Raw edge weights (length `n_edges`), if the graph carries any.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// The transpose (reverse graph): the CSC view used by pull-mode
    /// traversal. Structure only: the result carries no weights, because no
    /// pull kernel reads one, and a device holding the CSC is charged for
    /// exactly what it stores. A direct in-degree count and scatter,
    /// `O(|V| + |E|)`; sources within a reverse row stay ascending.
    pub fn transpose(&self) -> Csr<V, O> {
        let n = self.n_vertices();
        let mut offsets = vec![O::zero(); n + 1];
        let mut cursor = vec![0usize; n + 1];
        for &d in &self.col_indices {
            cursor[d.idx() + 1] += 1;
        }
        for v in 0..n {
            cursor[v + 1] += cursor[v];
            offsets[v + 1] = O::from_usize(cursor[v + 1]);
        }
        let mut cols = vec![V::default(); self.n_edges()];
        for v in 0..n {
            let u = V::from_usize(v);
            for &d in self.neighbors(u) {
                let at = &mut cursor[d.idx()];
                cols[*at] = u;
                *at += 1;
            }
        }
        Csr { row_offsets: offsets, col_indices: cols, weights: None }
    }

    /// In-memory footprint in bytes: what storing this graph costs a device
    /// (offsets + columns + weights). This is what partition subgraphs charge
    /// against device memory pools.
    pub fn bytes(&self) -> u64 {
        (self.row_offsets.len() * O::BYTES
            + self.col_indices.len() * V::BYTES
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }

    /// Sum of out-degrees of the given frontier — the advance workload size.
    pub fn frontier_out_degree(&self, frontier: &[V]) -> usize {
        frontier.iter().map(|&v| self.degree(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Coo, GraphBuilder};

    /// The edge list as given: no symmetrizing, cleaning or row sorting.
    fn try_raw<V: Id, O: Id>(coo: &Coo<V>) -> Result<Csr<V, O>, CsrError> {
        GraphBuilder::try_build(coo, BuildOptions::raw())
    }

    fn raw<V: Id, O: Id>(coo: &Coo<V>) -> Csr<V, O> {
        GraphBuilder::build(coo, BuildOptions::raw())
    }

    fn diamond() -> Csr<u32, u64> {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        raw(&Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], None))
    }

    #[test]
    fn raw_build_gives_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn counting_sort_is_stable_for_parallel_edges() {
        let coo = Coo::from_edges(2, vec![(0, 1), (0, 0), (0, 1)], Some(vec![10, 20, 30]));
        let g: Csr<u32, u64> = raw(&coo);
        assert_eq!(g.neighbors(0), &[1, 0, 1]);
        let ws: Vec<u32> = g.neighbors_weighted(0).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![10, 20, 30]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.transpose(), g, "transpose is an involution on canonical order");
    }

    /// A weighted graph transposes to its reverse structure alone: the
    /// reverse rows are right, no weight array is stored or charged, and
    /// transposing back gives the forward structure.
    #[test]
    fn transpose_is_structure_only() {
        let coo = Coo::from_edges(3, vec![(0, 1), (1, 2), (0, 2)], Some(vec![5, 6, 7]));
        let g: Csr<u32, u64> = raw(&coo);
        let t = g.transpose();
        assert_eq!(t.weights(), None);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.bytes(), (4 * 8 + 3 * 4) as u64, "offsets and columns only");
        let back = t.transpose();
        assert_eq!(back.row_offsets(), g.row_offsets());
        assert_eq!(back.col_indices(), g.col_indices());
    }

    #[test]
    fn bytes_accounts_offsets_columns_weights() {
        let g = diamond();
        assert_eq!(g.bytes(), (5 * 8 + 4 * 4) as u64);
        let coo = Coo::from_edges(2, vec![(0, 1)], Some(vec![1]));
        let gw: Csr<u32, u32> = raw(&coo);
        assert_eq!(gw.bytes(), (3 * 4 + 4 + 4) as u64);
    }

    #[test]
    fn frontier_out_degree_sums() {
        let g = diamond();
        assert_eq!(g.frontier_out_degree(&[0, 1]), 3);
        assert_eq!(g.frontier_out_degree(&[]), 0);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::<u32, u64>::empty(3);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn offset_overflow_is_typed() {
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let coo = Coo::from_edges(70_001, edges, None);
        match try_raw::<u32, u16>(&coo) {
            Err(CsrError::OffsetOverflow { edges, max }) => {
                assert_eq!(edges, 70_000);
                assert_eq!(max, u16::MAX as usize);
            }
            other => panic!("expected OffsetOverflow, got {other:?}"),
        }
    }

    #[test]
    fn vertex_overflow_is_typed() {
        let coo = Coo::<u16>::from_edges(70_000, vec![], None);
        match try_raw::<u16, u64>(&coo) {
            Err(CsrError::VertexOverflow { vertices, max }) => {
                assert_eq!(vertices, 70_000);
                assert_eq!(max, 65_536);
            }
            other => panic!("expected VertexOverflow, got {other:?}"),
        }
    }

    #[test]
    fn width_boundaries_fit_exactly() {
        // 65535 edges is the largest count u16 offsets can terminate.
        let edges: Vec<(u32, u32)> = (1..=65_535).map(|d| (0, d)).collect();
        let g = try_raw::<u32, u16>(&Coo::from_edges(65_536, edges, None)).unwrap();
        assert_eq!(g.n_edges(), 65_535);
        assert_eq!(g.degree(0), 65_535);
        // 65536 vertices is the largest population u16 ids can address.
        let coo = Coo::<u16>::from_edges(65_536, vec![(0, 65_535)], None);
        assert!(try_raw::<u16, u64>(&coo).is_ok());
    }

    #[test]
    #[should_panic(expected = "does not fit in the offset type")]
    fn build_panics_with_typed_message_on_overflow() {
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let _: Csr<u32, u16> = raw(&Coo::from_edges(70_001, edges, None));
    }

    #[test]
    fn u64_ids_work() {
        let coo = Coo::<u64>::from_edges(3, vec![(0, 2), (2, 1)], None);
        let g: Csr<u64, u64> = raw(&coo);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.bytes(), (4 * 8 + 2 * 8) as u64);
    }
}
