//! A from-scratch multilevel graph partitioner — the "Metis" stand-in.
//!
//! The paper evaluates Metis \[11\] as its third partitioner (Fig. 2): it
//! "only wins in a few situations, with small margins, but takes a much
//! longer time to partition". We reproduce the *mechanism* that produces
//! that behaviour with the classic multilevel scheme Metis introduced:
//!
//! 1. **Coarsening** — repeated heavy-edge matching: match each vertex with
//!    the neighbor sharing the heaviest (multi-)edge; contract matched pairs.
//! 2. **Initial partition** — greedy region growing on the coarsest graph:
//!    BFS-grow each part from a random seed until its vertex-weight budget
//!    fills.
//! 3. **Uncoarsening with refinement** — project the partition back level by
//!    level, running boundary Kernighan–Lin/Fiduccia–Mattheyses-style gain
//!    passes under a balance cap at each level.
//!
//! Like Metis, it minimizes *edge cut* — which §V-C argues is the wrong
//! objective for this system (border vertex count is what matters) — so in
//! the Fig. 2 reproduction it wins only where cut and border correlate.

use mgpu_graph::{Csr, Id};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::partitioner::Partitioner;

/// Multilevel (Metis-style) partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelPartitioner {
    /// RNG seed (coarse seeds and tie-breaking).
    pub seed: u64,
    /// Allowed imbalance on vertex weight per part.
    pub slack: f64,
    /// Stop coarsening when the graph has at most this many vertices per
    /// part.
    pub coarse_vertices_per_part: usize,
    /// Refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner {
            seed: 0x5eed,
            slack: 0.05,
            coarse_vertices_per_part: 32,
            refine_passes: 4,
        }
    }
}

/// Weighted working graph used across levels.
struct Level {
    /// Vertex weights (number of original vertices contracted into each).
    vw: Vec<u64>,
    /// Adjacency with merged edge weights.
    adj: Vec<Vec<(u32, u64)>>,
    /// Mapping from this level's vertices to the coarser level's vertices
    /// (filled when the next level is built).
    to_coarse: Vec<u32>,
}

impl Level {
    fn n(&self) -> usize {
        self.vw.len()
    }
}

impl Partitioner for MultilevelPartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        assert!(n_parts > 0);
        let n = graph.n_vertices();
        if n_parts == 1 {
            return vec![0; n];
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Level 0 from the CSR (merge parallel edges).
        let mut levels = vec![level_from_csr(graph)];
        let target = (self.coarse_vertices_per_part * n_parts).max(n_parts * 2);
        loop {
            let cur = levels.last().unwrap();
            if cur.n() <= target {
                break;
            }
            let (coarse, mapping) = coarsen(cur, &mut rng);
            // Stalled coarsening (e.g. a star graph matches almost nothing).
            if coarse.n() as f64 > cur.n() as f64 * 0.95 {
                break;
            }
            levels.last_mut().unwrap().to_coarse = mapping;
            levels.push(coarse);
        }

        // Initial partition on the coarsest level.
        let coarsest = levels.last().unwrap();
        let total_w: u64 = coarsest.vw.iter().sum();
        let budget = (total_w as f64 / n_parts as f64 * (1.0 + self.slack)).ceil() as u64;
        let mut part = grow_regions(coarsest, n_parts, budget, &mut rng);
        refine(coarsest, &mut part, n_parts, budget, self.refine_passes);

        // Project back and refine at each finer level.
        for li in (0..levels.len() - 1).rev() {
            let fine = &levels[li];
            let mut fine_part = vec![0u32; fine.n()];
            for v in 0..fine.n() {
                fine_part[v] = part[fine.to_coarse[v] as usize];
            }
            refine(fine, &mut fine_part, n_parts, budget, self.refine_passes);
            part = fine_part;
        }
        part
    }

    fn name(&self) -> &'static str {
        "metis-like"
    }
}

fn level_from_csr<V: Id, O: Id>(graph: &Csr<V, O>) -> Level {
    let n = graph.n_vertices();
    let adj: Vec<Vec<(u32, u64)>> = (0..n)
        .map(|v| {
            let mut nbrs: Vec<u32> =
                graph.neighbors(V::from_usize(v)).iter().map(|u| u.idx() as u32).collect();
            nbrs.sort_unstable();
            let mut merged: Vec<(u32, u64)> = Vec::with_capacity(nbrs.len());
            for u in nbrs {
                if u as usize == v {
                    continue;
                }
                match merged.last_mut() {
                    Some((lu, w)) if *lu == u => *w += 1,
                    _ => merged.push((u, 1)),
                }
            }
            merged
        })
        .collect();
    Level { vw: vec![1; n], adj, to_coarse: Vec::new() }
}

/// Heavy-edge matching + contraction.
fn coarsen(level: &Level, rng: &mut ChaCha8Rng) -> (Level, Vec<u32>) {
    let n = level.n();
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &v in &order {
        if mate[v] != UNMATCHED {
            continue;
        }
        // heaviest unmatched neighbor
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &level.adj[v] {
            if mate[u as usize] == UNMATCHED && u as usize != v && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                mate[v] = u;
                mate[u as usize] = v as u32;
            }
            None => mate[v] = v as u32, // matched with itself
        }
    }

    // Number coarse vertices.
    let mut to_coarse = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if to_coarse[v] != u32::MAX {
            continue;
        }
        to_coarse[v] = nc;
        let m = mate[v] as usize;
        if m != v {
            to_coarse[m] = nc;
        }
        nc += 1;
    }

    // Contract.
    let mut vw = vec![0u64; nc as usize];
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); nc as usize];
    for v in 0..n {
        let cv = to_coarse[v];
        vw[cv as usize] += level.vw[v];
        for &(u, w) in &level.adj[v] {
            let cu = to_coarse[u as usize];
            if cu != cv {
                adj[cv as usize].push((cu, w));
            }
        }
    }
    for row in &mut adj {
        row.sort_unstable_by_key(|&(u, _)| u);
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(row.len());
        for &(u, w) in row.iter() {
            match merged.last_mut() {
                Some((lu, lw)) if *lu == u => *lw += w,
                _ => merged.push((u, w)),
            }
        }
        *row = merged;
    }
    (Level { vw, adj, to_coarse: Vec::new() }, to_coarse)
}

/// Greedy region growing for the initial partition.
fn grow_regions(level: &Level, n_parts: usize, budget: u64, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let n = level.n();
    const FREE: u32 = u32::MAX;
    let mut part = vec![FREE; n];
    let mut load = vec![0u64; n_parts];
    for p in 0..n_parts as u32 {
        // random unassigned seed
        let mut seed = None;
        for _ in 0..8 {
            let v = rng.gen_range(0..n);
            if part[v] == FREE {
                seed = Some(v);
                break;
            }
        }
        let seed = match seed.or_else(|| (0..n).find(|&v| part[v] == FREE)) {
            Some(s) => s,
            None => break,
        };
        let mut queue = std::collections::VecDeque::from([seed]);
        while let Some(v) = queue.pop_front() {
            if part[v] != FREE || load[p as usize] + level.vw[v] > budget {
                continue;
            }
            part[v] = p;
            load[p as usize] += level.vw[v];
            for &(u, _) in &level.adj[v] {
                if part[u as usize] == FREE {
                    queue.push_back(u as usize);
                }
            }
        }
    }
    // leftovers → least-loaded part
    for (v, pv) in part.iter_mut().enumerate() {
        if *pv == FREE {
            let p = (0..n_parts).min_by_key(|&p| load[p]).unwrap();
            *pv = p as u32;
            load[p] += level.vw[v];
        }
    }
    part
}

/// Boundary FM-lite refinement: move boundary vertices to the neighboring
/// part with the highest positive cut gain, respecting the balance budget.
fn refine(level: &Level, part: &mut [u32], n_parts: usize, budget: u64, passes: usize) {
    let n = level.n();
    let mut load = vec![0u64; n_parts];
    for v in 0..n {
        load[part[v] as usize] += level.vw[v];
    }
    let mut conn = vec![0u64; n_parts];
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let home = part[v] as usize;
            for c in conn.iter_mut() {
                *c = 0;
            }
            let mut boundary = false;
            for &(u, w) in &level.adj[v] {
                let pu = part[u as usize] as usize;
                conn[pu] += w;
                if pu != home {
                    boundary = true;
                }
            }
            if !boundary {
                continue;
            }
            let internal = conn[home];
            let best = (0..n_parts)
                .filter(|&p| p != home && load[p] + level.vw[v] <= budget)
                .max_by_key(|&p| conn[p]);
            if let Some(p) = best {
                if conn[p] > internal {
                    part[v] = p as u32;
                    load[home] -= level.vw[v];
                    load[p] += level.vw[v];
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::RandomPartitioner;
    use mgpu_graph::{Coo, GraphBuilder};

    fn two_clusters(k: usize) -> Csr<u32, u64> {
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * k as u32;
            for i in 0..k as u32 {
                for j in (i + 1)..k as u32 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, k as u32));
        GraphBuilder::undirected(&Coo::from_edges(2 * k, edges, None))
    }

    fn edge_cut(g: &Csr<u32, u64>, owner: &[u32]) -> usize {
        let mut cut = 0;
        for v in 0..g.n_vertices() {
            for &u in g.neighbors(v as u32) {
                if owner[v] != owner[u as usize] {
                    cut += 1;
                }
            }
        }
        cut / 2
    }

    #[test]
    fn finds_the_natural_two_way_split() {
        let g = two_clusters(24);
        let owner = MultilevelPartitioner::default().assign(&g, 2);
        assert_eq!(edge_cut(&g, &owner), 1, "only the bridge edge should be cut");
    }

    #[test]
    fn beats_random_on_cut() {
        let g = two_clusters(32);
        let ml = MultilevelPartitioner::default().assign(&g, 2);
        let rd = RandomPartitioner::default().assign(&g, 2);
        assert!(edge_cut(&g, &ml) < edge_cut(&g, &rd) / 4);
    }

    #[test]
    fn respects_balance() {
        let g = two_clusters(32);
        let owner = MultilevelPartitioner::default().assign(&g, 4);
        let budget = (64.0 / 4.0 * 1.05f64).ceil() as usize + 1;
        for p in 0..4u32 {
            let load = owner.iter().filter(|&&o| o == p).count();
            assert!(load <= budget, "part {p} load {load} > {budget}");
        }
    }

    #[test]
    fn one_part_is_trivial() {
        let g = two_clusters(8);
        assert!(MultilevelPartitioner::default().assign(&g, 1).iter().all(|&o| o == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = two_clusters(16);
        let p = MultilevelPartitioner::default();
        assert_eq!(p.assign(&g, 3), p.assign(&g, 3));
    }

    #[test]
    fn handles_disconnected_and_isolated_vertices() {
        let coo = Coo::from_edges(10, vec![(0, 1), (2, 3)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let owner = MultilevelPartitioner::default().assign(&g, 2);
        assert_eq!(owner.len(), 10);
        assert!(owner.iter().all(|&o| o < 2));
    }
}
