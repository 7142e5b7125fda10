//! The preprocessing builder: COO → canonical CSR.
//!
//! The paper's experimental setup (§VII-A): "all graphs we use are converted
//! to undirected graphs. Self-loops and duplicated edges are removed." The
//! builder implements exactly that pipeline in linear time: count degrees,
//! prefix-sum, scatter the forward then the reverse edges in input order
//! straight into the adjacency arrays, then sort, dedup and compact row by
//! row — `O(|V| + |E|)` plus `Σ d·log d` for the row sorts, and no
//! materialised triple list.

use crate::coo::Coo;
use crate::csr::{Csr, CsrError};
use crate::ids::Id;

/// Preprocessing switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Add the reverse of every edge (undirected conversion).
    pub symmetrize: bool,
    /// Drop `v → v` edges.
    pub remove_self_loops: bool,
    /// Drop duplicate `(src, dst)` pairs (keeping the first weight).
    pub dedup: bool,
    /// Sort each adjacency row by destination id (canonical order).
    pub sort_rows: bool,
}

impl Default for BuildOptions {
    /// The paper's preprocessing: undirected, no self-loops, no duplicates.
    fn default() -> Self {
        BuildOptions { symmetrize: true, remove_self_loops: true, dedup: true, sort_rows: true }
    }
}

impl BuildOptions {
    /// Keep the graph directed but still clean it.
    pub fn directed() -> Self {
        BuildOptions { symmetrize: false, ..Default::default() }
    }

    /// No preprocessing at all (trust the input).
    pub fn raw() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: false, dedup: false, sort_rows: false }
    }
}

/// A CSR at whichever offset width the graph needs: the narrow (u32) layout
/// when the final edge count fits 32 bits — the paper's fast path, whose
/// per-device cost model rewards the halved index bandwidth — widened to
/// u64 offsets otherwise. Built by [`GraphBuilder::build_auto`]; the check
/// is on the *post-preprocessing* edge count, and overflow always widens,
/// never truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrAuto<V: Id> {
    /// `Csr<V, u32>` — edge count fits 32-bit offsets.
    Narrow(Csr<V, u32>),
    /// `Csr<V, u64>` — the checked widening fallback.
    Wide(Csr<V, u64>),
}

impl<V: Id> CsrAuto<V> {
    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        match self {
            CsrAuto::Narrow(g) => g.n_vertices(),
            CsrAuto::Wide(g) => g.n_vertices(),
        }
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        match self {
            CsrAuto::Narrow(g) => g.n_edges(),
            CsrAuto::Wide(g) => g.n_edges(),
        }
    }

    /// Bytes per edge offset in the chosen layout.
    pub fn offset_bytes(&self) -> usize {
        match self {
            CsrAuto::Narrow(_) => 4,
            CsrAuto::Wide(_) => 8,
        }
    }

    /// Short label for reports ("u32" / "u64").
    pub fn label(&self) -> &'static str {
        match self {
            CsrAuto::Narrow(_) => "u32",
            CsrAuto::Wide(_) => "u64",
        }
    }

    /// The narrow graph, if that is what was built.
    pub fn narrow(&self) -> Option<&Csr<V, u32>> {
        match self {
            CsrAuto::Narrow(g) => Some(g),
            CsrAuto::Wide(_) => None,
        }
    }

    /// The wide graph, if the fallback engaged.
    pub fn wide(&self) -> Option<&Csr<V, u64>> {
        match self {
            CsrAuto::Wide(g) => Some(g),
            CsrAuto::Narrow(_) => None,
        }
    }
}

/// The cleaned adjacency before an offset width is chosen: row offsets are
/// kept in `usize` so the width check sees the *post-preprocessing* edge
/// count and the arrays are converted exactly once.
struct Clean<V: Id> {
    offsets: Vec<usize>,
    cols: Vec<V>,
    weights: Option<Vec<u32>>,
}

impl<V: Id> Clean<V> {
    fn check_width<O: Id>(&self) -> Result<(), CsrError> {
        if self.cols.len() > O::MAX_AS_USIZE {
            return Err(CsrError::OffsetOverflow { edges: self.cols.len(), max: O::MAX_AS_USIZE });
        }
        Ok(())
    }

    /// The caller has checked the width.
    fn into_csr<O: Id>(self) -> Csr<V, O> {
        let offsets = self.offsets.into_iter().map(O::from_usize).collect();
        Csr::from_parts(offsets, self.cols, self.weights)
    }
}

/// Scatter every kept edge into its source's row — all forward edges in
/// input order, then (under `symmetrize`) all reverse edges in input order —
/// which is the order a stable sort by source of "edges ++ reversed edges"
/// produces. `slot(neighbor, input index)` makes the stored item.
fn scatter<V: Id, T: Copy + Default>(
    coo: &Coo<V>,
    options: BuildOptions,
    offsets: &[usize],
    slot: impl Fn(V, usize) -> T,
) -> Vec<T> {
    let n = coo.n_vertices;
    let mut cursor = offsets[..n].to_vec();
    let mut out = vec![T::default(); offsets[n]];
    let keep = |s: V, d: V| !(options.remove_self_loops && s == d);
    for (i, &(s, d)) in coo.edges.iter().enumerate() {
        if keep(s, d) {
            out[cursor[s.idx()]] = slot(d, i);
            cursor[s.idx()] += 1;
        }
    }
    if options.symmetrize {
        for (i, &(s, d)) in coo.edges.iter().enumerate() {
            if keep(s, d) {
                out[cursor[d.idx()]] = slot(s, i);
                cursor[d.idx()] += 1;
            }
        }
    }
    out
}

/// Sort every row with `sort_row` (under `sort_rows`, and under `dedup`,
/// which needs equal destinations adjacent), then under `dedup` drop every
/// item that is `same` as its predecessor in its row — in place, keeping the
/// first of each run, rewriting `offsets` and truncating `items`.
fn tidy_rows<T: Copy>(
    options: BuildOptions,
    offsets: &mut [usize],
    items: &mut Vec<T>,
    sort_row: impl Fn(&mut [T]),
    same: impl Fn(&T, &T) -> bool,
) {
    if options.dedup || options.sort_rows {
        offsets.windows(2).for_each(|w| sort_row(&mut items[w[0]..w[1]]));
    }
    if !options.dedup {
        return;
    }
    let mut out = 0;
    let mut start = 0;
    for v in 0..offsets.len() - 1 {
        let end = offsets[v + 1];
        let row_out = out;
        offsets[v] = out;
        for i in start..end {
            let x = items[i];
            if out == row_out || !same(&items[out - 1], &x) {
                items[out] = x;
                out += 1;
            }
        }
        start = end;
    }
    *offsets.last_mut().expect("offsets hold the terminating entry") = out;
    items.truncate(out);
}

/// Stateless builder entry points.
pub struct GraphBuilder;

impl GraphBuilder {
    /// The shared preprocessing pipeline: symmetrize / clean / sort / dedup
    /// into adjacency arrays, validating every endpoint on the way.
    fn clean<V: Id>(coo: &Coo<V>, options: BuildOptions) -> Result<Clean<V>, CsrError> {
        let n = coo.n_vertices;
        CsrError::check_vertices::<V>(n)?;
        let mut offsets = vec![0usize; n + 1];
        for (edge, &(s, d)) in coo.edges.iter().enumerate() {
            CsrError::check_edge(edge, (s, d), n)?;
            if options.remove_self_loops && s == d {
                continue;
            }
            offsets[s.idx() + 1] += 1;
            if options.symmetrize {
                offsets[d.idx() + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        match &coo.weights {
            None => {
                let mut cols = scatter(coo, options, &offsets, |v, _| v);
                // equal ids are indistinguishable: no stability needed
                tidy_rows(
                    options,
                    &mut offsets,
                    &mut cols,
                    |row| row.sort_unstable(),
                    |a, b| a == b,
                );
                Ok(Clean { offsets, cols, weights: None })
            }
            Some(w) => {
                let mut pairs = scatter(coo, options, &offsets, |v, i| (v, w[i]));
                // Stable by destination: parallel edges stay in scatter order
                // (forward before reverse, each in input order), so the
                // first-listed weight survives the dedup.
                let by_dst = |row: &mut [(V, u32)]| row.sort_by_key(|&(d, _)| d);
                tidy_rows(options, &mut offsets, &mut pairs, by_dst, |a, b| a.0 == b.0);
                let (cols, weights) = pairs.into_iter().unzip();
                Ok(Clean { offsets, cols, weights: Some(weights) })
            }
        }
    }

    /// Apply `options` to `coo` and produce a CSR graph; typed errors for an
    /// endpoint `>= n_vertices` and for index-width overflow (checked on the
    /// cleaned edge count).
    pub fn try_build<V: Id, O: Id>(
        coo: &Coo<V>,
        options: BuildOptions,
    ) -> Result<Csr<V, O>, CsrError> {
        let clean = Self::clean(coo, options)?;
        clean.check_width::<O>()?;
        Ok(clean.into_csr())
    }

    /// [`GraphBuilder::try_build`], panicking with the typed error's message.
    pub fn build<V: Id, O: Id>(coo: &Coo<V>, options: BuildOptions) -> Csr<V, O> {
        Self::try_build(coo, options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's default preprocessing.
    pub fn undirected<V: Id, O: Id>(coo: &Coo<V>) -> Csr<V, O> {
        Self::build(coo, BuildOptions::default())
    }

    /// The widening decision, generic over the narrow offset type `N` so
    /// tests can exercise the fallback with `u16` (a genuine u32 overflow
    /// would need a >4-billion-edge graph). The width is chosen once, from
    /// the cleaned edge count: `Ok` is the narrow build, `Err` the u64
    /// fallback. A vertex-width overflow or a bad endpoint is not recoverable
    /// by widening offsets and panics with the typed error's message.
    fn build_widening<V: Id, N: Id>(
        coo: &Coo<V>,
        options: BuildOptions,
    ) -> Result<Csr<V, N>, Csr<V, u64>> {
        let clean = Self::clean(coo, options).unwrap_or_else(|e| panic!("{e}"));
        match clean.check_width::<N>() {
            Ok(()) => Ok(clean.into_csr()),
            Err(_) => Err(clean.into_csr()),
        }
    }

    /// [`GraphBuilder::build_widening`] of an already clean edge list.
    #[cfg(test)]
    fn narrow_or_widen<V: Id, N: Id>(clean: &Coo<V>) -> Result<Csr<V, N>, Csr<V, u64>> {
        Self::build_widening(clean, BuildOptions::raw())
    }

    /// [`GraphBuilder::build`] at the automatically chosen offset width:
    /// narrow (u32) when the preprocessed edge count fits, else the checked
    /// u64 fallback.
    pub fn build_auto<V: Id>(coo: &Coo<V>, options: BuildOptions) -> CsrAuto<V> {
        match Self::build_widening::<V, u32>(coo, options) {
            Ok(g) => CsrAuto::Narrow(g),
            Err(g) => CsrAuto::Wide(g),
        }
    }

    /// [`GraphBuilder::undirected`] at the automatically chosen offset width.
    pub fn undirected_auto<V: Id>(coo: &Coo<V>) -> CsrAuto<V> {
        Self::build_auto(coo, BuildOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messy() -> Coo<u32> {
        // duplicates, a self loop, directed edges
        Coo::from_edges(4, vec![(0, 1), (0, 1), (1, 1), (2, 3), (3, 2)], None)
    }

    #[test]
    fn default_build_symmetrizes_dedups_and_removes_loops() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&messy());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn directed_build_keeps_direction() {
        let g: Csr<u32, u64> = GraphBuilder::build(&messy(), BuildOptions::directed());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[] as &[u32], "self-loop removed, no reverse edge added");
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn raw_build_preserves_everything() {
        let g: Csr<u32, u64> = GraphBuilder::build(&messy(), BuildOptions::raw());
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn dedup_keeps_first_weight() {
        let coo = Coo::from_edges(2, vec![(0, 1), (0, 1)], Some(vec![7, 9]));
        let g: Csr<u32, u64> =
            GraphBuilder::build(&coo, BuildOptions { symmetrize: false, ..Default::default() });
        let w: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(w, vec![(1, 7)]);
    }

    #[test]
    fn symmetrized_weights_mirror() {
        let coo = Coo::from_edges(3, vec![(0, 1), (1, 2)], Some(vec![5, 6]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(g.neighbors_weighted(1).collect::<Vec<_>>(), vec![(0, 5), (2, 6)]);
    }

    #[test]
    fn rows_are_sorted() {
        let coo = Coo::from_edges(5, vec![(0, 4), (0, 2), (0, 3), (0, 1)], None);
        let g: Csr<u32, u64> =
            GraphBuilder::build(&coo, BuildOptions { symmetrize: false, ..Default::default() });
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn auto_build_is_narrow_when_edges_fit() {
        let auto = GraphBuilder::undirected_auto(&messy());
        let expected: Csr<u32, u32> = GraphBuilder::undirected(&messy());
        assert_eq!(auto.label(), "u32");
        assert_eq!(auto.offset_bytes(), 4);
        assert_eq!(auto.n_vertices(), 4);
        assert_eq!(auto.n_edges(), 4);
        assert_eq!(auto.narrow(), Some(&expected));
        assert!(auto.wide().is_none());
    }

    #[test]
    fn widening_fallback_preserves_every_edge() {
        // A star too big for u16 offsets exercises the fallback arm; the
        // widened build must match a direct u64 build edge for edge — the
        // overflow may never truncate.
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let coo = Coo::from_edges(70_001, edges, None);
        assert!(matches!(
            Csr::<u32, u16>::try_from_coo(&coo),
            Err(CsrError::OffsetOverflow { edges: 70_000, .. })
        ));
        let wide = GraphBuilder::narrow_or_widen::<u32, u16>(&coo)
            .expect_err("70k edges must not fit u16 offsets");
        let direct: Csr<u32, u64> = Csr::from_coo(&coo);
        assert_eq!(wide, direct);
        assert_eq!(wide.n_edges(), 70_000);
        assert_eq!(wide.degree(0), 70_000);
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn vertex_overflow_panics_rather_than_widening() {
        // 70k vertices cannot be addressed by u16 ids; widening the offset
        // type cannot fix that, so the builder refuses loudly.
        let coo = Coo::<u16>::from_edges(70_000, vec![], None);
        let _ = GraphBuilder::narrow_or_widen::<u16, u16>(&coo);
    }

    #[test]
    fn out_of_range_endpoint_is_typed() {
        // A `Coo` built through its public fields skips `from_edges`' debug
        // check; with `symmetrize: false` nothing ever indexes by the bad
        // destination, so only the count pass can catch it.
        let coo = Coo::<u32> { n_vertices: 3, edges: vec![(0, 1), (2, 7)], weights: None };
        for options in [BuildOptions::default(), BuildOptions::directed(), BuildOptions::raw()] {
            assert_eq!(
                GraphBuilder::try_build::<u32, u64>(&coo, options),
                Err(CsrError::EndpointOutOfRange { edge: 1, endpoint: 7, vertices: 3 })
            );
        }
        let bad_src = Coo::<u32> { n_vertices: 3, edges: vec![(5, 1)], weights: None };
        assert_eq!(
            GraphBuilder::try_build::<u32, u64>(&bad_src, BuildOptions::raw()),
            Err(CsrError::EndpointOutOfRange { edge: 0, endpoint: 5, vertices: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "names vertex 7, out of range for 3 vertices")]
    fn build_panics_with_the_typed_endpoint_message() {
        let coo = Coo::<u32> { n_vertices: 3, edges: vec![(2, 7)], weights: None };
        let _: Csr<u32, u64> = GraphBuilder::build(&coo, BuildOptions::directed());
    }
}
