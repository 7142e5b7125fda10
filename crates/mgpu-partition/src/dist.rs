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

use std::sync::Arc;

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
    /// proxies have out-degree zero).
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
    owner_of: OwnerMap<V>,
    /// Local id → owner-local id (what to put on the wire for selective
    /// communication). `None` = identity (duplicate-all).
    owner_local: Option<Vec<V>>,
    /// `|B_{i,j}|` for each peer j: the number of distinct remote vertices
    /// owned by j that this GPU's edges point at (outgoing vertex border,
    /// §III-A). `border_out[gpu] == 0`.
    pub border_out: Vec<usize>,
    /// The outgoing border itself: every non-owned local vertex an owned
    /// row points at, ascending local ids (`n_local..` under
    /// duplicate-1-hop, where those are exactly the proxies). Counted per
    /// owner it is `border_out`.
    pub border: Vec<V>,
}

/// Set bit `i` of a border bitset.
fn mark(seen: &mut [u64], i: usize) {
    seen[i / 64] |= 1 << (i % 64);
}

/// The set bits of a bitset, ascending.
fn set_bits(seen: &[u64]) -> impl Iterator<Item = usize> + '_ {
    seen.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
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

#[derive(Debug, Clone)]
enum OwnerMap<V> {
    /// Shared global partition table indexed by global (= local) id.
    Global(Arc<Vec<u32>>),
    /// Per-local-id owners (duplicate-1-hop).
    Local(Vec<u32>, std::marker::PhantomData<V>),
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
        match &self.owner_of {
            OwnerMap::Global(t) => t[v.idx()],
            OwnerMap::Local(t, _) => t[v.idx()],
        }
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

    /// Total outgoing border size `|B_i|` (union over peers, with
    /// duplication — a vertex bordering two peers counts twice, matching the
    /// paper's definition).
    pub fn border_total(&self) -> usize {
        self.border_out.iter().sum()
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
        let tables = self.local_to_global.as_ref().map_or(0, |t| t.len() * V::BYTES)
            + self.owner_local.as_ref().map_or(0, |t| t.len() * V::BYTES)
            + match &self.owner_of {
                OwnerMap::Global(_) => 0, // shared, counted once host-side
                OwnerMap::Local(t, _) => t.len() * 4,
            };
        let weights = self.csr.weights().map_or(0, |w| w.len() as u64 * 4);
        let structure = self.csr.bytes() - weights;
        let csc = self.csc.as_ref().filter(|_| reads.reverse).map_or(0, |c| c.bytes());
        structure + if reads.weights { weights } else { 0 } + csc + tables as u64
    }
}

/// A graph partitioned across `n_parts` GPUs.
#[derive(Debug, Clone)]
pub struct DistGraph<V: Id, O: Id> {
    /// Global vertex count.
    pub n_global: usize,
    /// Global (directed) edge count.
    pub n_global_edges: usize,
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
        // Per-part sizes in one pass, so every array below is allocated once.
        let mut n_local = vec![0usize; n_parts];
        let mut n_edges = vec![0usize; n_parts];
        for v in 0..n {
            n_local[table[v] as usize] += 1;
            n_edges[table[v] as usize] += graph.degree(V::from_usize(v));
        }
        let parts = per_part((0..n_parts).map(|gpu| {
            let (table, n_local, n_edges) = (&table, n_local[gpu], n_edges[gpu]);
            move || Self::dup_all_part(graph, table, gpu, n_parts, n_local, n_edges)
        }));
        DistGraph {
            n_global: n,
            n_global_edges: graph.n_edges(),
            n_parts,
            duplication: Duplication::All,
            partition_table: table,
            convert,
            parts,
        }
    }

    /// One duplicate-all host graph: the parent's rows owned by `gpu`, copied
    /// by slice into the full vertex space (every other row stays empty).
    fn dup_all_part(
        graph: &Csr<V, O>,
        table: &Arc<Vec<u32>>,
        gpu: usize,
        n_parts: usize,
        n_local: usize,
        n_edges: usize,
    ) -> SubGraph<V, O> {
        let n = graph.n_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(n_edges);
        let mut weights = graph.weights().map(|_| Vec::with_capacity(n_edges));
        let mut seen = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            offsets.push(O::from_usize(cols.len()));
            if table[v] as usize != gpu {
                continue;
            }
            let range = graph.edge_range(V::from_usize(v));
            let row = &graph.col_indices()[range.clone()];
            cols.extend_from_slice(row);
            if let (Some(out), Some(w)) = (&mut weights, graph.weights()) {
                out.extend_from_slice(&w[range]);
            }
            for &d in row {
                if table[d.idx()] as usize != gpu {
                    mark(&mut seen, d.idx());
                }
            }
        }
        offsets.push(O::from_usize(cols.len()));
        let border: Vec<V> = set_bits(&seen).map(V::from_usize).collect();
        let mut border_out = vec![0usize; n_parts];
        for b in &border {
            border_out[table[b.idx()] as usize] += 1;
        }
        SubGraph {
            gpu,
            n_parts,
            duplication: Duplication::All,
            n_global: n,
            csr: Csr::from_parts(offsets, cols, weights),
            csc: None,
            n_local,
            local_to_global: None,
            owner_of: OwnerMap::Global(Arc::clone(table)),
            owner_local: None,
            border_out,
            border,
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
            n_global_edges: graph.n_edges(),
            n_parts,
            duplication: Duplication::OneHop,
            partition_table: table,
            convert,
            parts,
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
        let mut seen = vec![0u64; n.div_ceil(64)];
        let mut n_edges = 0usize;
        for &v in owned {
            n_edges += graph.degree(v);
            for &d in graph.neighbors(v) {
                if table[d.idx()] as usize != gpu {
                    mark(&mut seen, d.idx());
                }
            }
        }
        let proxies: Vec<V> = set_bits(&seen).map(V::from_usize).collect();

        // Global → local for everything this part's edges can name; entries
        // of vertices that are neither owned nor proxied are never read.
        let mut local_of = vec![V::zero(); n];
        let mut border_out = vec![0usize; n_parts];
        for &v in owned {
            local_of[v.idx()] = convert[v.idx()];
        }
        for (i, &g) in proxies.iter().enumerate() {
            local_of[g.idx()] = V::from_usize(n_local + i);
            border_out[table[g.idx()] as usize] += 1;
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

        let mut local_to_global = Vec::with_capacity(n_vi);
        local_to_global.extend_from_slice(owned);
        local_to_global.extend_from_slice(&proxies);

        let mut owner_of: Vec<u32> = Vec::with_capacity(n_vi);
        owner_of.extend(std::iter::repeat_n(gpu as u32, n_local));
        owner_of.extend(proxies.iter().map(|g| table[g.idx()]));

        let mut owner_local: Vec<V> = Vec::with_capacity(n_vi);
        owner_local.extend((0..n_local).map(V::from_usize));
        owner_local.extend(proxies.iter().map(|g| convert[g.idx()]));

        SubGraph {
            gpu,
            n_parts,
            duplication: Duplication::OneHop,
            n_global: n,
            csr: Csr::from_parts(offsets, cols, weights),
            csc: None,
            n_local,
            local_to_global: Some(local_to_global),
            owner_of: OwnerMap::Local(owner_of, std::marker::PhantomData),
            owner_local: Some(owner_local),
            border_out,
            border: (n_local..n_vi).map(V::from_usize).collect(),
        }
    }

    /// The GPU hosting global vertex `g` and its owner-local id — how a
    /// source vertex is located at reset time (the `Reset` logic in the
    /// paper's Appendix A).
    pub fn locate(&self, g: V) -> (usize, V) {
        (self.partition_table[g.idx()] as usize, self.convert[g.idx()])
    }

    /// The graph these parts were built from: each vertex's row is its
    /// owner's local row mapped back through [`SubGraph::to_global`], with
    /// its weights. Both duplications copy rows in parent order, so this
    /// equals the input of [`Self::build`] — what a failover re-partitions.
    pub fn parent(&self) -> Csr<V, O> {
        let mut offsets = vec![O::from_usize(0)];
        let mut cols = Vec::with_capacity(self.n_global_edges);
        let mut weights = self.parts[0].csr.weights().map(|_| Vec::with_capacity(cols.capacity()));
        for g in 0..self.n_global {
            let (gpu, local) = self.locate(V::from_usize(g));
            let (sub, range) = (&self.parts[gpu], self.parts[gpu].csr.edge_range(local));
            cols.extend(sub.csr.col_indices()[range.clone()].iter().map(|&d| sub.to_global(d)));
            if let (Some(out), Some(w)) = (&mut weights, sub.csr.weights()) {
                out.extend_from_slice(&w[range]);
            }
            offsets.push(O::from_usize(cols.len()));
        }
        Csr::from_parts(offsets, cols, weights)
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
        assert_eq!(dg.parts[0].border_out, vec![0, 2]);
        assert_eq!(dg.parts[1].border_out, vec![2, 0]);
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

    /// Check every part's border against the naive scan and, counted per
    /// owner, against `border_out`.
    fn check_borders(g: &Csr<u32, u64>, owner: &[u32], n_parts: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        for dup in [Duplication::All, Duplication::OneHop] {
            let dg = DistGraph::build(g, owner.to_vec(), n_parts, dup);
            for sub in &dg.parts {
                let at = format!("{dup:?}, part {} of {n_parts}", sub.gpu);
                assert_eq!(sub.border, naive_border(sub), "{at}");
                let mut per_owner = vec![0usize; n_parts];
                for &b in &sub.border {
                    per_owner[sub.owner(b) as usize] += 1;
                }
                assert_eq!(per_owner, sub.border_out, "{at}");
                if dup == Duplication::OneHop {
                    let proxies: Vec<u32> = (sub.n_local as u32..sub.n_vertices() as u32).collect();
                    assert_eq!(sub.border, proxies, "{at}: the border is the proxy range");
                }
                sizes.push(sub.border.len());
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

    /// Rebuilding the parent from the parts gives back the input, under
    /// both duplications, weighted or not, isolated vertices included.
    #[test]
    fn the_parent_rebuilt_from_the_parts_equals_the_input() {
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
                    assert_eq!(&dg.parent(), g, "{dup:?} over {n_parts} parts");
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
