//! Sequential CPU reference implementations ("computations are verified for
//! correctness", §VII-A). Every multi-GPU result is validated against these.

use std::collections::VecDeque;

use mgpu_graph::{Csr, Id};

use crate::INF;

/// BFS depths from `src`; `INF` marks unreached vertices.
pub fn bfs<V: Id, O: Id>(g: &Csr<V, O>, src: V) -> Vec<u32> {
    let mut depth = vec![INF; g.n_vertices()];
    depth[src.idx()] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(v) = q.pop_front() {
        let dv = depth[v.idx()];
        for &u in g.neighbors(v) {
            if depth[u.idx()] == INF {
                depth[u.idx()] = dv + 1;
                q.push_back(u);
            }
        }
    }
    depth
}

/// Dijkstra single-source shortest paths with `u32` weights; `INF` marks
/// unreached vertices.
pub fn sssp<V: Id, O: Id>(g: &Csr<V, O>, src: V) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![INF; g.n_vertices()];
    dist[src.idx()] = 0;
    let mut heap = BinaryHeap::from([(Reverse(0u32), src.idx())]);
    while let Some((Reverse(d), v)) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for (u, w) in g.neighbors_weighted(V::from_usize(v)) {
            let nd = d.saturating_add(w);
            if nd < dist[u.idx()] {
                dist[u.idx()] = nd;
                heap.push((Reverse(nd), u.idx()));
            }
        }
    }
    dist
}

/// Connected components by union-find over undirected edges; returns the
/// smallest member vertex id of each vertex's component (matching the
/// min-label convention of the multi-GPU `Cc`).
pub fn cc<V: Id, O: Id>(g: &Csr<V, O>) -> Vec<usize> {
    let n = g.n_vertices();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], v: usize) -> usize {
        let mut root = v;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = v;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for v in 0..n {
        for &u in g.neighbors(V::from_usize(v)) {
            let (rv, ru) = (find(&mut parent, v), find(&mut parent, u.idx()));
            if rv != ru {
                // union by smaller id so roots are component minima
                let (lo, hi) = (rv.min(ru), rv.max(ru));
                parent[hi] = lo;
            }
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

/// PageRank by power iteration with damping `d`, run for exactly `iters`
/// iterations from the uniform distribution. Dangling mass is dropped
/// (the convention Gunrock uses), so rank sums can drift below 1 on graphs
/// with zero-out-degree vertices.
pub fn pagerank<V: Id, O: Id>(g: &Csr<V, O>, d: f64, iters: usize) -> Vec<f64> {
    let n = g.n_vertices();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (v, &rv) in rank.iter().enumerate() {
            let vid = V::from_usize(v);
            let deg = g.degree(vid);
            if deg == 0 {
                continue;
            }
            let share = rv / deg as f64;
            for &u in g.neighbors(vid) {
                next[u.idx()] += share;
            }
        }
        for x in next.iter_mut() {
            *x = (1.0 - d) / n as f64 + d * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Brandes betweenness centrality from a single source. Returns per-vertex
/// dependency scores (the source itself scores 0).
pub fn bc<V: Id, O: Id>(g: &Csr<V, O>, src: V) -> Vec<f64> {
    let n = g.n_vertices();
    let mut depth = vec![INF; n];
    let mut sigma = vec![0.0f64; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    depth[src.idx()] = 0;
    sigma[src.idx()] = 1.0;
    let mut q = VecDeque::from([src.idx()]);
    while let Some(v) = q.pop_front() {
        order.push(v);
        let dv = depth[v];
        for &u in g.neighbors(V::from_usize(v)) {
            let ui = u.idx();
            if depth[ui] == INF {
                depth[ui] = dv + 1;
                q.push_back(ui);
            }
            if depth[ui] == dv + 1 {
                sigma[ui] += sigma[v];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    let mut centrality = vec![0.0f64; n];
    for &v in order.iter().rev() {
        for &u in g.neighbors(V::from_usize(v)) {
            let ui = u.idx();
            if depth[ui] == depth[v] + 1 && sigma[ui] > 0.0 {
                delta[v] += sigma[v] / sigma[ui] * (1.0 + delta[ui]);
            }
        }
        if v != src.idx() {
            centrality[v] += delta[v];
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, GraphBuilder};

    fn diamond_weighted() -> Csr<u32, u64> {
        // 0→1 (w1), 0→2 (w4), 1→3 (w1), 2→3 (w1); undirected
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], Some(vec![1, 4, 1, 1]));
        GraphBuilder::undirected(&coo)
    }

    #[test]
    fn bfs_depths_on_diamond() {
        let g = diamond_weighted();
        assert_eq!(bfs(&g, 0u32), vec![0, 1, 1, 2]);
        assert_eq!(bfs(&g, 3u32), vec![2, 1, 1, 0]);
    }

    #[test]
    fn sssp_prefers_cheap_path() {
        let g = diamond_weighted();
        // 0→3: via 1 costs 1+1=2 (direct 0→2 costs 4, but 0→1→3→2 costs 3)
        assert_eq!(sssp(&g, 0u32), vec![0, 1, 3, 2]);
    }

    #[test]
    fn sssp_unreachable_is_inf() {
        let coo = Coo::from_edges(3, vec![(0, 1)], Some(vec![5]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(sssp(&g, 0u32)[2], INF);
    }

    #[test]
    fn cc_labels_components_by_minimum() {
        let coo = Coo::from_edges(6, vec![(0, 1), (1, 2), (4, 5)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(cc(&g), vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn pagerank_sums_to_one_without_dangling() {
        let g = diamond_weighted();
        let r = pagerank(&g, 0.85, 50);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // symmetric positions 1 and 2 get equal rank
        assert!((r[1] - r[2]).abs() < 1e-12);
    }

    #[test]
    fn bc_on_a_path_peaks_in_the_middle() {
        let coo = Coo::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let c = bc(&g, 0u32);
        // from source 0: dependency of v counts shortest paths through it:
        // delta[3]=1 (to 4), delta[2]=2, delta[1]=3
        assert_eq!(c, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }
}
