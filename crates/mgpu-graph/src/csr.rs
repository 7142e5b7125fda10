//! Compressed sparse row adjacency — the device-resident graph format.

use std::sync::Arc;

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
/// The arrays are shared, so a clone is O(1); equality is logical (rows and
/// weights), so a [`Csr::with_rows`] view equals the compact copy of its rows.
#[derive(Debug, Clone)]
pub struct Csr<V: Id = u32, O: Id = u64> {
    row_offsets: Arc<Vec<O>>,
    col_indices: Arc<Vec<V>>,
    weights: Option<Arc<Vec<u32>>>,
    /// The kept rows as a `|V|`-bit set (`None`: every row), and their edges.
    kept: Option<Arc<Vec<u64>>>,
    n_edges: usize,
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
        Csr {
            n_edges: col_indices.len(),
            row_offsets: Arc::new(row_offsets),
            col_indices: Arc::new(col_indices),
            weights: weights.map(Arc::new),
            kept: None,
        }
    }

    /// An edgeless graph over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_parts(vec![O::zero(); n + 1], Vec::new(), None)
    }

    /// This graph's kept rows that `keep` accepts; every other row reads as
    /// empty, and `n_edges` and `bytes` count these rows alone. `O(|V|)`:
    /// the arrays are shared, so edge ids stay this graph's.
    pub fn with_rows(&self, keep: impl Fn(V) -> bool) -> Self {
        let n = self.n_vertices();
        let mut kept = vec![0u64; n.div_ceil(64)];
        let mut n_edges = 0;
        for v in (0..n).map(V::from_usize).filter(|&v| self.keeps(v.idx()) && keep(v)) {
            kept[v.idx() / 64] |= 1 << (v.idx() % 64);
            n_edges += self.degree(v);
        }
        Csr { kept: Some(Arc::new(kept)), n_edges, ..self.clone() }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges (of the kept rows).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: V) -> usize {
        self.edge_range(v).len()
    }

    /// The edge-id range of `v`'s out-edges (empty for a row not kept).
    #[inline]
    pub fn edge_range(&self, v: V) -> std::ops::Range<usize> {
        let (v, lo) = (v.idx(), self.row_offsets[v.idx()].idx());
        lo..if self.keeps(v) { self.row_offsets[v + 1].idx() } else { lo }
    }

    /// Whether row `v` is kept (every row is, unless [`Csr::with_rows`]).
    #[inline]
    fn keeps(&self, v: usize) -> bool {
        self.kept.as_ref().is_none_or(|kept| kept[v / 64] >> (v % 64) & 1 != 0)
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.col_indices[self.edge_range(v)]
    }

    /// Out-neighbors of `v` with weights (1 if unweighted).
    pub fn neighbors_weighted(&self, v: V) -> impl Iterator<Item = (V, u32)> + '_ {
        let ws = self.row_weights(v);
        self.neighbors(v).iter().enumerate().map(move |(i, &d)| (d, ws.map_or(1, |w| w[i])))
    }

    /// The weights of `v`'s out-edges, if the graph carries any.
    fn row_weights(&self, v: V) -> Option<&[u32]> {
        self.weights().map(|w| &w[self.edge_range(v)])
    }

    /// The weight of edge id `e` (1 if unweighted).
    pub fn edge_weight(&self, e: usize) -> u32 {
        self.weights.as_ref().map_or(1, |w| w[e])
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw row offsets (length `n_vertices + 1`) of the shared storage.
    pub fn row_offsets(&self) -> &[O] {
        &self.row_offsets
    }

    /// Raw column indices of the shared storage, indexed by edge id.
    pub fn col_indices(&self) -> &[V] {
        &self.col_indices
    }

    /// Raw edge weights of the shared storage, if the graph carries any.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// The compact transpose (reverse graph) of the kept rows: the CSC view
    /// used by pull-mode traversal. Structure only: the result carries no
    /// weights, because no pull kernel reads one, and a device holding the
    /// CSC is charged for exactly what it stores. A direct in-degree count
    /// and scatter, `O(|V| + |E|)`; sources within a reverse row stay
    /// ascending.
    pub fn transpose(&self) -> Csr<V, O> {
        let n = self.n_vertices();
        let mut offsets = vec![O::zero(); n + 1];
        let mut cursor = vec![0usize; n + 1];
        for &d in (0..n).flat_map(|v| self.neighbors(V::from_usize(v))) {
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
        Self::from_parts(offsets, cols, None)
    }

    /// In-memory footprint in bytes: what storing this graph costs a device
    /// (offsets + columns + weights of the kept rows: what a compact copy
    /// holds). This is what partition subgraphs charge against device pools.
    pub fn bytes(&self) -> u64 {
        self.bytes_of(self.n_edges)
    }

    /// Host bytes this graph holds beyond `base`: its kept-row set, plus its
    /// whole storage unless it shares `base`'s (a graph shares all or none).
    pub fn host_bytes_beyond(&self, base: &Csr<V, O>) -> u64 {
        let own = !Arc::ptr_eq(&self.col_indices, &base.col_indices);
        let storage = if own { self.bytes_of(self.col_indices.len()) } else { 0 };
        storage + self.kept.as_ref().map_or(0, |k| k.len() as u64 * 8)
    }

    /// Offsets plus `edges` columns and weights.
    fn bytes_of(&self, edges: usize) -> u64 {
        let per_edge = V::BYTES + if self.is_weighted() { 4 } else { 0 };
        (self.row_offsets.len() * O::BYTES + edges * per_edge) as u64
    }

    /// Sum of out-degrees of the given frontier — the advance workload size.
    pub fn frontier_out_degree(&self, frontier: &[V]) -> usize {
        frontier.iter().map(|&v| self.degree(v)).sum()
    }
}

impl<V: Id, O: Id> PartialEq for Csr<V, O> {
    fn eq(&self, other: &Self) -> bool {
        self.n_vertices() == other.n_vertices()
            && self.n_edges == other.n_edges
            && (0..self.n_vertices()).map(V::from_usize).all(|v| {
                self.neighbors(v) == other.neighbors(v)
                    && self.row_weights(v) == other.row_weights(v)
            })
    }
}

impl<V: Id, O: Id> Eq for Csr<V, O> {}

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

    /// A row restriction reads as the compact copy of its rows, shares the
    /// arrays (edge ids stay the parent's) and transposes compactly.
    #[test]
    fn kept_rows_read_as_their_compact_copy() {
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], Some(vec![5, 6, 7, 8]));
        let g: Csr<u32, u64> = raw(&coo);
        let view = g.with_rows(|v| v != 1);
        let copy: Csr<u32, u64> =
            raw(&Coo::from_edges(4, vec![(0, 1), (0, 2), (2, 3)], Some(vec![5, 6, 8])));
        assert_eq!(view, copy);
        assert_ne!(view, g);
        assert_eq!((view.n_edges(), view.bytes()), (3, copy.bytes()));
        assert_eq!(view.degree(1), 0);
        assert_eq!(view.edge_range(2), 3..4, "the parent's edge ids");
        assert_eq!(view.edge_weight(3), 8);
        assert_eq!(view.transpose(), copy.transpose());
        assert_eq!(view.col_indices().as_ptr(), g.col_indices().as_ptr());
        assert_eq!(view.host_bytes_beyond(&g), 8, "one word of kept rows");
        let narrower = view.with_rows(|v| v != 0);
        assert_eq!((narrower.n_edges(), narrower.degree(1)), (1, 0), "restrictions compose");
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
