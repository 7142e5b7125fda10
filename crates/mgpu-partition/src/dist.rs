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

/// The per-GPU slice of a partitioned graph.
#[derive(Debug)]
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
    /// pull-mode traversal.
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
}

/// Set bit `i` of a border bitset; true the first time it is set.
fn first_sight(seen: &mut [u64], i: usize) -> bool {
    let (word, bit) = (i / 64, 1u64 << (i % 64));
    let first = seen[word] & bit == 0;
    seen[word] |= bit;
    first
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

#[derive(Debug)]
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

    /// Device-memory footprint of the graph topology in bytes (CSR + CSC if
    /// built + conversion tables).
    pub fn topology_bytes(&self) -> u64 {
        let tables = self.local_to_global.as_ref().map_or(0, |t| t.len() * V::BYTES)
            + self.owner_local.as_ref().map_or(0, |t| t.len() * V::BYTES)
            + match &self.owner_of {
                OwnerMap::Global(_) => 0, // shared, counted once host-side
                OwnerMap::Local(t, _) => t.len() * 4,
            };
        self.csr.bytes() + self.csc.as_ref().map_or(0, |c| c.bytes()) + tables as u64
    }
}

/// A graph partitioned across `n_parts` GPUs.
#[derive(Debug)]
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
        let mut border_out = vec![0usize; n_parts];
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
                let od = table[d.idx()] as usize;
                if od != gpu && first_sight(&mut seen, d.idx()) {
                    border_out[od] += 1;
                }
            }
        }
        offsets.push(O::from_usize(cols.len()));
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
        let mut proxies: Vec<V> = Vec::new();
        let mut n_edges = 0usize;
        for &v in owned {
            n_edges += graph.degree(v);
            for &d in graph.neighbors(v) {
                if table[d.idx()] as usize != gpu && first_sight(&mut seen, d.idx()) {
                    proxies.push(d);
                }
            }
        }
        proxies.sort_unstable();

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
        }
    }

    /// The GPU hosting global vertex `g` and its owner-local id — how a
    /// source vertex is located at reset time (the `Reset` logic in the
    /// paper's Appendix A).
    pub fn locate(&self, g: V) -> (usize, V) {
        (self.partition_table[g.idx()] as usize, self.convert[g.idx()])
    }

    /// Build the reverse adjacency on every part — required before running
    /// pull-mode (direction-optimizing) primitives.
    pub fn build_cscs(&mut self) {
        per_part(self.parts.iter_mut().map(|p| || p.build_csc()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, GraphBuilder};

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
        let g: Csr<u32, u64> = Csr::from_coo(&coo);
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

    #[test]
    fn single_part_build_is_the_whole_graph() {
        let (g, _) = cycle6();
        let dg = DistGraph::build(&g, vec![0; 6], 1, Duplication::OneHop);
        assert_eq!(dg.parts[0].n_vertices(), 6);
        assert_eq!(dg.parts[0].n_edges(), g.n_edges());
        assert_eq!(dg.parts[0].border_total(), 0);
    }
}
