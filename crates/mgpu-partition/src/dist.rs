//! Multi-GPU host graphs: vertex duplication, renumbering, conversion
//! tables and border sets (§III-C).
//!
//! After a 1D edge-cut partition assigns every vertex (with its outgoing
//! edges) to a GPU, each GPU needs local *proxies* for the remote vertices
//! its edges point at, so that "the computation is isolated to local data
//! only". The paper implements two strategies, both reproduced here:
//!
//! * **Duplicate-all** — every GPU's vertex space is the full global space;
//!   remote vertices simply have zero out-edges. No id conversion anywhere
//!   (local id = global id), at the cost of `O(|V|)` per-vertex state on
//!   every GPU.
//! * **Duplicate-1-hop** — each GPU holds only its own vertices plus proxies
//!   for the immediate remote neighbors; "vertices in V_i are renumbered
//!   with continuous IDs" (owned first, then proxies), and conversion tables
//!   translate between spaces.
//!
//! The id convention for communication follows §III-C: *selective* sends
//! carry owner-local ids (the sender resolves each proxy through its
//! conversion table, so the receiver can use the id directly); *broadcast*
//! sends carry global ids (which under duplicate-all are already local ids
//! everywhere, which is why the paper pairs broadcast with duplicate-all).

use std::sync::{Arc, OnceLock};

use mgpu_graph::{Csr, Id};

use crate::partitioner::Partitioner;

/// Vertex-duplication strategy (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duplication {
    /// A proxy for every remote vertex: `V_i = V`, no id conversion.
    All,
    /// Proxies only for immediate remote neighbors; continuous renumbering.
    OneHop,
}

/// The arrays of a [`SubGraph`] a primitive reads beyond the CSR structure
/// and the conversion tables, which every primitive reads. A bind reserves,
/// uploads and prices exactly these; a residency may carry more.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reads {
    /// The reverse adjacency ([`SubGraph::csc`]) its pull sides read.
    pub reverse: bool,
    /// The CSR's edge weights (an unweighted part reads as unit weights).
    pub weights: bool,
}

/// The per-GPU slice of a partitioned graph.
#[derive(Debug, Clone)]
pub struct SubGraph<V: Id, O: Id> {
    /// This GPU's id.
    pub gpu: usize,
    /// Total number of GPUs.
    pub n_parts: usize,
    /// Duplication strategy this subgraph was built with.
    pub duplication: Duplication,
    /// Global vertex count: the id space broadcast wire ids live in (equal
    /// to [`SubGraph::n_vertices`] under duplicate-all only).
    pub n_global: usize,
    /// Local adjacency over `V_i` (owned vertices carry their out-edges;
    /// proxies have out-degree zero). Under duplicate-all it is the parent's
    /// arrays restricted to the owned rows ([`Csr::with_rows`]), so its edge
    /// ids are the parent's; under duplicate-1-hop it is a renumbered copy.
    pub csr: Csr<V, O>,
    /// Reverse adjacency (built lazily via [`SubGraph::build_csc`]) for
    /// pull-mode traversal: the transpose of `csr`, structure only (no
    /// weights — no pull kernel reads one).
    pub csc: Option<Csr<V, O>>,
    /// Number of *owned* vertices `|L_i|`. Under duplicate-1-hop, owned
    /// vertices occupy local ids `0..n_local`. Under duplicate-all, owned
    /// vertices are scattered through the global id space — use
    /// [`SubGraph::is_owned`].
    pub n_local: usize,
    /// Local id → global id (identity under duplicate-all). Under
    /// duplicate-1-hop the owned ids `0..n_local` and the proxy ids after
    /// them are each ascending in global id, which is what
    /// [`SubGraph::from_global`] searches.
    local_to_global: Option<Vec<V>>,
    /// Local id → owning GPU. Under duplicate-all this is the global
    /// partition table (shared); under duplicate-1-hop it is per-subgraph.
    owner_of: Arc<Vec<u32>>,
    /// Local id → owner-local id (what to put on the wire for selective
    /// communication). `None` = identity (duplicate-all).
    owner_local: Option<Vec<V>>,
    /// [`SubGraph::border`], walked on its first read.
    border: OnceLock<Vec<V>>,
}

/// The distinct ids among `ids` (all below `n`), ascending: marked in one
/// `n`-bit set, then read off its set bits in order.
fn distinct<V: Id>(n: usize, ids: impl Iterator<Item = V>) -> Vec<V> {
    let mut seen = vec![0u64; n.div_ceil(64)];
    // internal iteration: a flattened row walk runs as nested loops
    ids.for_each(|v| seen[v.idx() / 64] |= 1 << (v.idx() % 64));
    let mut out = Vec::new();
    for (w, &word) in seen.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            out.push(V::from_usize(w * 64 + rest.trailing_zeros() as usize));
            rest &= rest - 1;
        }
    }
    out
}

/// Run one job per part concurrently — the first on the calling thread, the
/// rest on scoped threads — and return the results in job order. Parts are
/// built from shared read-only inputs and write nothing shared, so the output
/// is the sequential one whatever the interleaving.
fn per_part<T: Send, J: FnOnce() -> T + Send>(jobs: impl IntoIterator<Item = J>) -> Vec<T> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let rest: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        let mut out = vec![first()];
        out.extend(rest.into_iter().map(|h| h.join().expect("a part builder panicked")));
        out
    })
}

impl<V: Id, O: Id> SubGraph<V, O> {
    /// Total vertices in the local space `|V_i|` (owned + proxies).
    pub fn n_vertices(&self) -> usize {
        self.csr.n_vertices()
    }

    /// Local edge count `|E_i|`.
    pub fn n_edges(&self) -> usize {
        self.csr.n_edges()
    }

    /// Is local vertex `v` owned (hosted) by this GPU?
    #[inline]
    pub fn is_owned(&self, v: V) -> bool {
        match self.duplication {
            Duplication::All => self.owner(v) as usize == self.gpu,
            Duplication::OneHop => v.idx() < self.n_local,
        }
    }

    /// Owning GPU of local vertex `v`.
    #[inline]
    pub fn owner(&self, v: V) -> u32 {
        self.owner_of[v.idx()]
    }

    /// Global id of local vertex `v`.
    #[inline]
    pub fn to_global(&self, v: V) -> V {
        match &self.local_to_global {
            None => v,
            Some(t) => t[v.idx()],
        }
    }

    /// Owner-local id of local vertex `v` — the id to send for selective
    /// communication.
    #[inline]
    pub fn to_owner_local(&self, v: V) -> V {
        match &self.owner_local {
            None => v,
            Some(t) => t[v.idx()],
        }
    }

    /// Resolve a *global* id received via broadcast to a local id, if this
    /// GPU hosts the vertex or a proxy of it.
    #[inline]
    pub fn from_global(&self, g: V) -> Option<V> {
        match &self.local_to_global {
            None => Some(g), // duplicate-all: global ids are local ids
            Some(table) => {
                let (owned, proxies) = table.split_at(self.n_local);
                let local = match owned.binary_search(&g) {
                    Ok(i) => i,
                    Err(_) => self.n_local + proxies.binary_search(&g).ok()?,
                };
                Some(V::from_usize(local))
            }
        }
    }

    /// The outgoing vertex border `B_i` (§III-A): every non-owned local
    /// vertex an owned row points at, ascending local ids (`n_local..` under
    /// duplicate-1-hop, where those are exactly the proxies). Counted per
    /// owner j it is `|B_{i,j}|`. Walked over the owned rows (the only rows
    /// with edges) on the first read, and kept.
    pub fn border(&self) -> &[V] {
        self.border.get_or_init(|| {
            let rows = (0..self.n_vertices()).map(V::from_usize);
            let pointed = rows.flat_map(|v| self.csr.neighbors(v)).copied();
            distinct(self.n_vertices(), pointed.filter(|&d| !self.is_owned(d)))
        })
    }

    /// Total outgoing border size `|B_i|`: the sum of `|B_{i,j}|` over
    /// peers, which are disjoint (each border vertex has one owner).
    pub fn border_total(&self) -> usize {
        self.border().len()
    }

    /// Build and cache the reverse (CSC) adjacency for pull traversal.
    pub fn build_csc(&mut self) {
        if self.csc.is_none() {
            self.csc = Some(self.csr.transpose());
        }
    }

    /// Footprint in bytes of everything built for this part: the CSR with
    /// its weights, the CSC if built, and the conversion tables.
    pub fn topology_bytes(&self) -> u64 {
        self.read_bytes(Reads { reverse: true, weights: true })
    }

    /// Device bytes of what a primitive declaring `reads` holds on this
    /// part: the CSR structure and the conversion tables, plus the CSC and
    /// the weights where it reads them and this part carries them.
    pub fn read_bytes(&self, reads: Reads) -> u64 {
        let weights = if self.csr.is_weighted() { self.csr.n_edges() as u64 * 4 } else { 0 };
        let structure = self.csr.bytes() - weights;
        let csc = self.csc.as_ref().filter(|_| reads.reverse).map_or(0, |c| c.bytes());
        structure + if reads.weights { weights } else { 0 } + csc + self.table_bytes()
    }

    /// Bytes of the part's own id tables: under duplicate-1-hop a global id,
    /// an owner-local id and an owner per local vertex; none under
    /// duplicate-all, whose owner table is the shared partition table.
    fn table_bytes(&self) -> u64 {
        self.local_to_global.as_ref().map_or(0, |t| t.len() * (2 * V::BYTES + 4)) as u64
    }
}

/// A graph partitioned across `n_parts` GPUs.
#[derive(Debug, Clone)]
pub struct DistGraph<V: Id, O: Id> {
    /// Global vertex count.
    pub n_global: usize,
    /// Number of parts (GPUs).
    pub n_parts: usize,
    /// Duplication strategy used.
    pub duplication: Duplication,
    /// Global partition table: global id → owning GPU.
    pub partition_table: Arc<Vec<u32>>,
    /// Conversion table: global id → owner-local id (identity under
    /// duplicate-all).
    pub convert: Arc<Vec<V>>,
    /// The per-GPU subgraphs, indexed by GPU id.
    pub parts: Vec<SubGraph<V, O>>,
    /// The input graph (an O(1) clone: duplicate-all parts share its arrays).
    parent: Csr<V, O>,
}

/// Host bytes a partitioned graph holds, by owner; a shared array counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostBytes {
    /// The parent graph: offsets, columns and weights.
    pub graph: u64,
    /// What the partition holds beyond the graph: its tables, each part's
    /// kept-row set, id tables and border once read, and duplicate-1-hop rows.
    pub partition: u64,
    /// The parts' reverse adjacencies.
    pub csc: u64,
}

impl<V: Id, O: Id> DistGraph<V, O> {
    /// Partition `graph` with `partitioner` and build host graphs.
    pub fn partition(
        graph: &Csr<V, O>,
        partitioner: &impl Partitioner,
        n_parts: usize,
        duplication: Duplication,
    ) -> Self {
        let owner = partitioner.assign(graph, n_parts);
        Self::build(graph, owner, n_parts, duplication)
    }

    /// Build host graphs from an explicit assignment.
    pub fn build(
        graph: &Csr<V, O>,
        owner: Vec<u32>,
        n_parts: usize,
        duplication: Duplication,
    ) -> Self {
        let n = graph.n_vertices();
        assert_eq!(owner.len(), n, "one owner per vertex");
        assert!(owner.iter().all(|&o| (o as usize) < n_parts), "owner in range");
        let partition_table = Arc::new(owner);
        match duplication {
            Duplication::All => Self::build_dup_all(graph, partition_table, n_parts),
            Duplication::OneHop => Self::build_one_hop(graph, partition_table, n_parts),
        }
    }

    fn build_dup_all(graph: &Csr<V, O>, table: Arc<Vec<u32>>, n_parts: usize) -> Self {
        let n = graph.n_vertices();
        let convert: Arc<Vec<V>> = Arc::new((0..n).map(V::from_usize).collect());
        let mut n_local = vec![0usize; n_parts];
        for &o in table.iter() {
            n_local[o as usize] += 1;
        }
        let parts = per_part((0..n_parts).map(|gpu| {
            let (table, n_local) = (&table, n_local[gpu]);
            move || Self::dup_all_part(graph, table, gpu, n_parts, n_local)
        }));
        DistGraph {
            n_global: n,
            n_parts,
            duplication: Duplication::All,
            partition_table: table,
            convert,
            parts,
            parent: graph.clone(),
        }
    }

    /// One duplicate-all host graph: the parent's arrays restricted to the
    /// rows owned by `gpu` (every other row reads as empty), copying none.
    fn dup_all_part(
        graph: &Csr<V, O>,
        table: &Arc<Vec<u32>>,
        gpu: usize,
        n_parts: usize,
        n_local: usize,
    ) -> SubGraph<V, O> {
        SubGraph {
            gpu,
            n_parts,
            duplication: Duplication::All,
            n_global: graph.n_vertices(),
            csr: graph.with_rows(|v| table[v.idx()] as usize == gpu),
            csc: None,
            n_local,
            local_to_global: None,
            owner_of: Arc::clone(table),
            owner_local: None,
            border: OnceLock::new(),
        }
    }

    fn build_one_hop(graph: &Csr<V, O>, table: Arc<Vec<u32>>, n_parts: usize) -> Self {
        let n = graph.n_vertices();
        // Owner-local ids: rank of each vertex among its GPU's owned set,
        // in global-id order ("renumbered with continuous IDs").
        let mut convert = vec![V::zero(); n];
        let mut start = vec![0usize; n_parts + 1];
        for v in 0..n {
            let count = &mut start[table[v] as usize + 1];
            convert[v] = V::from_usize(*count);
            *count += 1;
        }
        for p in 0..n_parts {
            start[p + 1] += start[p];
        }
        // One bucket pass: every part's owned vertices, in global-id order.
        let mut owned = vec![V::zero(); n];
        for v in 0..n {
            owned[start[table[v] as usize] + convert[v].idx()] = V::from_usize(v);
        }
        let convert = Arc::new(convert);
        let parts = per_part((0..n_parts).map(|gpu| {
            let (table, convert, owned) = (&table, &convert, &owned[start[gpu]..start[gpu + 1]]);
            move || Self::one_hop_part(graph, table, convert, gpu, n_parts, owned)
        }));
        DistGraph {
            n_global: n,
            n_parts,
            duplication: Duplication::OneHop,
            partition_table: table,
            convert,
            parts,
            parent: graph.clone(),
        }
    }

    /// One duplicate-1-hop host graph over `owned` (ascending global ids):
    /// proxies for the distinct remote destinations, in global-id order after
    /// the owned vertices, and the owned rows remapped into that local space.
    fn one_hop_part(
        graph: &Csr<V, O>,
        table: &[u32],
        convert: &[V],
        gpu: usize,
        n_parts: usize,
        owned: &[V],
    ) -> SubGraph<V, O> {
        let n = graph.n_vertices();
        let n_local = owned.len();
        let n_edges = owned.iter().map(|&v| graph.degree(v)).sum();
        let pointed = owned.iter().flat_map(|&v| graph.neighbors(v)).copied();
        let proxies = distinct(n, pointed.filter(|d| table[d.idx()] as usize != gpu));

        // Global → local for everything this part's edges can name; entries
        // of vertices that are neither owned nor proxied are never read.
        let mut local_of = vec![V::zero(); n];
        for &v in owned {
            local_of[v.idx()] = convert[v.idx()];
        }
        for (i, &g) in proxies.iter().enumerate() {
            local_of[g.idx()] = V::from_usize(n_local + i);
        }

        let n_vi = n_local + proxies.len();
        let mut offsets = Vec::with_capacity(n_vi + 1);
        let mut cols = Vec::with_capacity(n_edges);
        let mut weights = graph.weights().map(|_| Vec::with_capacity(n_edges));
        for &v in owned {
            offsets.push(O::from_usize(cols.len()));
            let range = graph.edge_range(v);
            cols.extend(graph.col_indices()[range.clone()].iter().map(|d| local_of[d.idx()]));
            if let (Some(out), Some(w)) = (&mut weights, graph.weights()) {
                out.extend_from_slice(&w[range]);
            }
        }
        // proxies carry no out-edges
        offsets.resize(n_vi + 1, O::from_usize(cols.len()));

        // Owned vertices are this GPU's, at their owner-local ranks.
        let local_to_global: Vec<V> = owned.iter().chain(&proxies).copied().collect();
        let owner_of = local_to_global.iter().map(|g| table[g.idx()]).collect();
        let owner_local = local_to_global.iter().map(|g| convert[g.idx()]).collect();
        SubGraph {
            gpu,
            n_parts,
            duplication: Duplication::OneHop,
            n_global: n,
            csr: Csr::from_parts(offsets, cols, weights),
            csc: None,
            n_local,
            local_to_global: Some(local_to_global),
            owner_of: Arc::new(owner_of),
            owner_local: Some(owner_local),
            border: OnceLock::new(),
        }
    }

    /// The GPU hosting global vertex `g` and its owner-local id — how a
    /// source vertex is located at reset time (the `Reset` logic in the
    /// paper's Appendix A).
    pub fn locate(&self, g: V) -> (usize, V) {
        (self.partition_table[g.idx()] as usize, self.convert[g.idx()])
    }

    /// The graph these parts were built from, the input of [`Self::build`]
    /// itself — what a failover re-partitions.
    pub fn parent(&self) -> &Csr<V, O> {
        &self.parent
    }

    /// The host bytes this partition and its parent graph hold, by owner.
    pub fn host_bytes(&self) -> HostBytes {
        let tables = (self.partition_table.len() * 4 + self.convert.len() * V::BYTES) as u64;
        let part = |p: &SubGraph<V, O>| {
            let border = p.border.get().map_or(0, |b| (b.len() * V::BYTES) as u64);
            p.csr.host_bytes_beyond(&self.parent) + p.table_bytes() + border
        };
        HostBytes {
            graph: self.parent.bytes(),
            partition: tables + self.parts.iter().map(part).sum::<u64>(),
            csc: self.parts.iter().filter_map(|p| p.csc.as_ref()).map(Csr::bytes).sum(),
        }
    }

    /// Build the reverse adjacency on every part — what a primitive whose
    /// [`Reads::reverse`] is set needs before its bind.
    pub fn build_cscs(&mut self) {
        per_part(self.parts.iter_mut().map(|p| || p.build_csc()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{BuildOptions, Coo, GraphBuilder};

    /// 6-cycle partitioned in halves: 0,1,2 on GPU0; 3,4,5 on GPU1.
    fn cycle6() -> (Csr<u32, u64>, Vec<u32>) {
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = GraphBuilder::undirected(&Coo::from_edges(6, edges, None));
        (g, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn dup_all_keeps_global_ids_and_all_vertices() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::All);
        for part in &dg.parts {
            assert_eq!(part.n_vertices(), 6, "duplicate-all forces V_i = V");
            assert_eq!(part.to_global(4), 4, "identity mapping");
            assert_eq!(part.to_owner_local(4), 4);
            assert_eq!(part.from_global(3), Some(3));
        }
        assert_eq!(dg.parts[0].n_local, 3);
        // edges: each GPU holds out-edges of its own 3 vertices only
        assert_eq!(dg.parts[0].n_edges() + dg.parts[1].n_edges(), g.n_edges());
        assert_eq!(dg.parts[0].csr.degree(0), 2);
        assert_eq!(dg.parts[0].csr.degree(4), 0, "remote vertices have no local out-edges");
    }

    #[test]
    fn dup_all_borders_are_cut_endpoints() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::All);
        // GPU0 owns {0,1,2}; its cut edges are 0→5 and 2→3 ⇒ border to GPU1 = {5,3}
        let per_owner = |part: &SubGraph<u32, u64>| {
            let mut count = vec![0usize; 2];
            for &b in part.border() {
                count[part.owner(b) as usize] += 1;
            }
            count
        };
        assert_eq!(per_owner(&dg.parts[0]), vec![0, 2]);
        assert_eq!(per_owner(&dg.parts[1]), vec![2, 0]);
        assert_eq!(dg.parts[0].border_total(), 2);
    }

    #[test]
    fn one_hop_renumbers_continuously() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        let p0 = &dg.parts[0];
        // owned: 0,1,2 → local 0,1,2; proxies 3 and 5 → local 3,4 (global order)
        assert_eq!(p0.n_local, 3);
        assert_eq!(p0.n_vertices(), 5);
        assert_eq!(p0.to_global(0), 0);
        assert_eq!(p0.to_global(3), 3, "first proxy is global 3");
        assert_eq!(p0.to_global(4), 5, "second proxy is global 5");
        assert!(p0.is_owned(2));
        assert!(!p0.is_owned(3));
        assert_eq!(p0.owner(3), 1);
    }

    #[test]
    fn one_hop_owner_local_resolves_proxies() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        let p0 = &dg.parts[0];
        // global 3 is GPU1's first owned vertex → owner-local 0
        assert_eq!(p0.to_owner_local(3), 0);
        // global 5 is GPU1's third owned vertex → owner-local 2
        assert_eq!(p0.to_owner_local(4), 2);
        // receiving GPU1 can use those ids directly
        let p1 = &dg.parts[1];
        assert_eq!(p1.to_global(0), 3);
        assert_eq!(p1.to_global(2), 5);
    }

    #[test]
    fn one_hop_edges_are_remapped() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        let p0 = &dg.parts[0];
        // local 0 (global 0) points at global 1 (local 1) and global 5 (proxy local 4)
        let mut nbrs = p0.csr.neighbors(0).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 4]);
        // proxies carry no out-edges
        assert_eq!(p0.csr.degree(3), 0);
        assert_eq!(p0.csr.degree(4), 0);
    }

    #[test]
    fn one_hop_global_resolution() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        let p0 = &dg.parts[0];
        assert_eq!(p0.from_global(5), Some(4));
        assert_eq!(p0.from_global(1), Some(1));
        assert_eq!(p0.from_global(4), None, "global 4 has no proxy on GPU0");
    }

    #[test]
    fn locate_finds_host_and_owner_local_id() {
        let (g, owner) = cycle6();
        let dg = DistGraph::build(&g, owner, 2, Duplication::OneHop);
        assert_eq!(dg.locate(4), (1, 1), "global 4 is GPU1's second owned vertex");
        assert_eq!(dg.locate(0), (0, 0));
    }

    #[test]
    fn weights_follow_their_edges() {
        let coo = Coo::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], Some(vec![1, 2, 3, 4]));
        let g: Csr<u32, u64> = GraphBuilder::build(&coo, BuildOptions::directed());
        let dg = DistGraph::build(&g, vec![0, 0, 1, 1], 2, Duplication::OneHop);
        let p1 = &dg.parts[1];
        // GPU1 owns globals 2,3 (locals 0,1); edge 2→3 weight 3; 3→0 weight 4
        let w: Vec<(u32, u32)> = p1.csr.neighbors_weighted(0).collect();
        assert_eq!(w, vec![(1, 3)]);
        let w: Vec<(u32, u32)> = p1.csr.neighbors_weighted(1).collect();
        assert_eq!(w[0].1, 4);
    }

    #[test]
    fn csc_builds_reverse_adjacency() {
        let (g, owner) = cycle6();
        let mut dg = DistGraph::build(&g, owner, 2, Duplication::All);
        dg.parts[0].build_csc();
        let csc = dg.parts[0].csc.as_ref().unwrap();
        // reverse of GPU0's edges: who points at global 1? locals 0 and 2
        let mut preds = csc.neighbors(1).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 2]);
    }

    /// A part of a weighted graph holds its weights once, in the CSR: the
    /// CSC is offsets and columns only, and the topology charge says so.
    #[test]
    fn the_csc_of_a_weighted_part_holds_no_weights() {
        let coo = Coo::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], Some(vec![1, 2, 3, 4]));
        let g: Csr<u32, u64> = GraphBuilder::build(&coo, BuildOptions::default());
        let mut dg = DistGraph::build(&g, vec![0, 1, 0, 1], 2, Duplication::All);
        dg.build_cscs();
        for sub in &dg.parts {
            assert!(sub.csr.is_weighted());
            let csc = sub.csc.as_ref().unwrap();
            assert_eq!(csc.weights(), None);
            let (n, e) = (sub.n_vertices(), sub.n_edges());
            let csc_bytes = ((n + 1) * <u64 as Id>::BYTES + e * <u32 as Id>::BYTES) as u64;
            assert_eq!(sub.topology_bytes(), sub.csr.bytes() + csc_bytes);
            // a reader is charged the structure, plus only what it declares
            let structure = sub.csr.bytes() - 4 * e as u64;
            let reads = |reverse, weights| sub.read_bytes(Reads { reverse, weights });
            assert_eq!(reads(false, false), structure);
            assert_eq!(reads(true, false), structure + csc_bytes);
            assert_eq!(reads(false, true), sub.csr.bytes());
            assert_eq!(reads(true, true), sub.topology_bytes());
        }
    }

    /// The border by its definition, read off a part's local CSR: every
    /// non-owned local vertex with an in-edge from an owned row, ascending.
    fn naive_border(sub: &SubGraph<u32, u64>) -> Vec<u32> {
        let n = sub.n_vertices() as u32;
        let mut hit = vec![false; n as usize];
        for v in (0..n).filter(|&v| sub.is_owned(v)) {
            for &d in sub.csr.neighbors(v) {
                hit[d as usize] |= !sub.is_owned(d);
            }
        }
        (0..n).filter(|&v| hit[v as usize]).collect()
    }

    /// Check every part's border against the naive scan.
    fn check_borders(g: &Csr<u32, u64>, owner: &[u32], n_parts: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        for dup in [Duplication::All, Duplication::OneHop] {
            let dg = DistGraph::build(g, owner.to_vec(), n_parts, dup);
            for sub in &dg.parts {
                let at = format!("{dup:?}, part {} of {n_parts}", sub.gpu);
                assert_eq!(sub.border(), naive_border(sub), "{at}");
                if dup == Duplication::OneHop {
                    let proxies: Vec<u32> = (sub.n_local as u32..sub.n_vertices() as u32).collect();
                    assert_eq!(sub.border(), proxies, "{at}: the border is the proxy range");
                }
                sizes.push(sub.border_total());
            }
        }
        sizes
    }

    #[test]
    fn the_border_is_every_proxy_an_owned_row_points_at() {
        use crate::partitioner::{ChunkedPartitioner, RandomPartitioner};
        let undirected = {
            let mut coo = mgpu_gen::gnm(150, 500, 3);
            coo.n_vertices = 160; // ten isolated vertices at the end
            GraphBuilder::undirected(&coo)
        };
        let directed: Csr<u32, u64> =
            GraphBuilder::build(&mgpu_gen::gnm(120, 300, 4), BuildOptions::directed());
        for g in [&undirected, &directed] {
            for n_parts in 1..=4 {
                let random = RandomPartitioner::default().assign(g, n_parts);
                let chunked = ChunkedPartitioner.assign(g, n_parts);
                for owner in [random, chunked] {
                    let sizes = check_borders(g, &owner, n_parts);
                    assert_eq!(sizes.iter().any(|&b| b > 0), n_parts > 1, "{n_parts} parts");
                }
            }
        }
        // two components, one per part, and a third part owning only the
        // isolated vertices: no part has a cut edge, so none has a border
        let mut edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.extend((6..11).map(|i| (i, i + 1)));
        let g = GraphBuilder::undirected(&Coo::from_edges(15, edges, None));
        let owner: Vec<u32> = (0..15).map(|v| (v / 6).min(2)).collect();
        assert_eq!(check_borders(&g, &owner, 3), vec![0; 6]);
    }

    /// The parent is the input itself, under both duplications, weighted or
    /// not: the same arrays, not a copy rebuilt from the parts.
    #[test]
    fn the_parent_is_the_input_and_shares_its_storage() {
        use crate::partitioner::RandomPartitioner;
        let mut coo = mgpu_gen::gnm(90, 300, 5);
        coo.n_vertices = 100; // ten isolated vertices at the end
        let unweighted: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        mgpu_gen::weights::add_paper_weights(&mut coo, 3);
        let weighted: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert!(weighted.is_weighted() && !unweighted.is_weighted());
        for g in [&unweighted, &weighted] {
            for n_parts in 1..=4 {
                let owner = RandomPartitioner { seed: n_parts as u64 }.assign(g, n_parts);
                for dup in [Duplication::All, Duplication::OneHop] {
                    let dg = DistGraph::build(g, owner.clone(), n_parts, dup);
                    let at = format!("{dup:?} over {n_parts} parts");
                    assert_eq!(dg.parent(), g, "{at}");
                    assert_eq!(
                        dg.parent().col_indices().as_ptr(),
                        g.col_indices().as_ptr(),
                        "{at}"
                    );
                    let ws = |c: &Csr<u32, u64>| c.weights().map(<[u32]>::as_ptr);
                    assert_eq!(ws(dg.parent()), ws(g), "{at}");
                    assert_eq!(dg.parent().host_bytes_beyond(g), 0, "{at}: nothing of its own");
                }
            }
        }
    }

    #[test]
    fn single_part_build_is_the_whole_graph() {
        let (g, _) = cycle6();
        let dg = DistGraph::build(&g, vec![0; 6], 1, Duplication::OneHop);
        assert_eq!(dg.parts[0].n_vertices(), 6);
        assert_eq!(dg.parts[0].n_edges(), g.n_edges());
        assert_eq!(dg.parts[0].border_total(), 0);
    }
}
