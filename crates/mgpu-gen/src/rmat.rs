//! R-MAT generator faithful to GTgraph (Bader & Madduri), the generator the
//! paper implements on the GPU (§VII-A).
//!
//! Each edge is placed by `scale` recursive quadrant choices with the
//! probabilities {A, B, C, D}; like GTgraph, the quadrant probabilities are
//! perturbed by ±10% noise at every level and renormalized, which prevents
//! degenerate striping. Generation is embarrassingly parallel across edges:
//! scoped threads fill disjoint runs of 2^14-edge chunks, one counter-derived
//! ChaCha stream per chunk, so results are independent of thread count.

use mgpu_graph::Coo;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// R-MAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the (0,0) quadrant.
    pub a: f64,
    /// Probability of the (0,1) quadrant.
    pub b: f64,
    /// Probability of the (1,0) quadrant.
    pub c: f64,
    /// Probability of the (1,1) quadrant.
    pub d: f64,
}

impl RmatParams {
    /// The paper's parameters: {0.57, 0.19, 0.19, 0.05} (§VII-A).
    pub fn paper() -> Self {
        RmatParams { a: 0.57, b: 0.19, c: 0.19, d: 0.05 }
    }

    /// Merrill's parameters used for the B40C comparison (Table III):
    /// {0.45, 0.15, 0.15, 0.25}.
    pub fn merrill() -> Self {
        RmatParams { a: 0.45, b: 0.15, c: 0.15, d: 0.25 }
    }

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!((sum - 1.0).abs() < 1e-9, "R-MAT probabilities must sum to 1, got {sum}");
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "probabilities must be non-negative"
        );
    }
}

/// Generate a directed R-MAT edge list with `2^scale` vertices and
/// `edge_factor × 2^scale` edges. The caller typically symmetrizes and
/// dedups via `GraphBuilder::undirected`, matching the paper's preprocessing
/// — so the final undirected edge count lands somewhat below 2× the raw
/// count (duplicates collapse, exactly as with GTgraph + Gunrock).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> Coo<u32> {
    params.validate();
    assert!(scale <= 31, "scale {scale} exceeds u32 vertex ids");
    let n = 1usize << scale;
    let m = edge_factor * n;

    let mut edges = vec![(0u32, 0u32); m];
    let n_chunks = m.div_ceil(CHUNK);
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = hw.min(8).min(n_chunks).max(1);
    // each worker owns a contiguous run of whole chunks
    let run = n_chunks.div_ceil(workers).max(1) * CHUNK;
    std::thread::scope(|s| {
        for (w, slice) in edges.chunks_mut(run).enumerate() {
            s.spawn(move || {
                for (c, chunk) in slice.chunks_mut(CHUNK).enumerate() {
                    fill_chunk(chunk, w * (run / CHUNK) + c, scale, &params, seed);
                }
            });
        }
    });

    Coo::from_edges(n, edges, None)
}

/// Edges per RNG stream.
const CHUNK: usize = 1 << 14;

/// Fill chunk number `chunk` from its own stream, seeded from `(seed, chunk)`
/// alone.
fn fill_chunk(out: &mut [(u32, u32)], chunk: usize, scale: u32, p: &RmatParams, seed: u64) {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(chunk as u64 + 1)));
    for e in out {
        *e = one_edge(scale, p, &mut rng);
    }
}

fn one_edge(scale: u32, p: &RmatParams, rng: &mut ChaCha8Rng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        // GTgraph-style ±10% noise, renormalized.
        let va = p.a * (0.9 + 0.2 * rng.gen::<f64>());
        let vb = p.b * (0.9 + 0.2 * rng.gen::<f64>());
        let vc = p.c * (0.9 + 0.2 * rng.gen::<f64>());
        let vd = p.d * (0.9 + 0.2 * rng.gen::<f64>());
        let s = va + vb + vc + vd;
        let r = rng.gen::<f64>() * s;
        let (sbit, dbit) = if r < va {
            (0, 0)
        } else if r < va + vb {
            (0, 1)
        } else if r < va + vb + vc {
            (1, 0)
        } else {
            (1, 1)
        };
        src = (src << 1) | sbit;
        dst = (dst << 1) | dbit;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{degree_stats, Csr, GraphBuilder};

    #[test]
    fn sizes_match_request() {
        let coo = rmat(10, 8, RmatParams::paper(), 1);
        assert_eq!(coo.n_vertices, 1024);
        assert_eq!(coo.n_edges(), 8 * 1024);
    }

    #[test]
    fn deterministic_for_a_seed_and_chunk_independent() {
        let a = rmat(8, 4, RmatParams::paper(), 7);
        let b = rmat(8, 4, RmatParams::paper(), 7);
        assert_eq!(a.edges, b.edges);
        let c = rmat(8, 4, RmatParams::paper(), 8);
        assert_ne!(a.edges, c.edges);
        // four chunks, however many threads filled them: the same streams
        // folded on this one
        let par = rmat(12, 16, RmatParams::paper(), 7);
        assert_eq!(par.n_edges(), 4 * CHUNK);
        let mut seq = vec![(0, 0); par.n_edges()];
        for (c, chunk) in seq.chunks_mut(CHUNK).enumerate() {
            fill_chunk(chunk, c, 12, &RmatParams::paper(), 7);
        }
        assert_eq!(par.edges, seq);
    }

    #[test]
    fn power_law_skew_with_paper_params() {
        let coo = rmat(12, 16, RmatParams::paper(), 3);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let s = degree_stats(&g);
        // Power-law: the max degree dwarfs the average.
        assert!(
            s.max_degree as f64 > 20.0 * s.avg_degree,
            "max {} vs avg {}",
            s.max_degree,
            s.avg_degree
        );
    }

    #[test]
    fn merrill_params_are_less_skewed_than_paper_params() {
        let skew = |p: RmatParams| {
            let coo = rmat(12, 16, p, 3);
            let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
            let s = degree_stats(&g);
            s.max_degree as f64 / s.avg_degree
        };
        assert!(skew(RmatParams::paper()) > skew(RmatParams::merrill()));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_params_are_rejected() {
        rmat(4, 1, RmatParams { a: 0.5, b: 0.5, c: 0.5, d: 0.5 }, 0);
    }
}
