//! The partitioner interface plus the random and biased-random partitioners.

use mgpu_graph::{Csr, Id};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::multilevel::MultilevelPartitioner;

/// A 1D edge-cut partitioner: assigns every vertex (and implicitly its
/// outgoing edges) to one of `n_parts` GPUs.
///
/// The paper deliberately leaves the choice modular: "we ensure that the
/// framework and primitives will run correctly regardless of the choice of
/// partitioner" (§V-C). Implementations must return one owner in
/// `0..n_parts` per vertex.
pub trait Partitioner {
    /// Produce the owner of every vertex.
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32>;

    /// Human-readable name for reports (e.g. Fig. 2's legend).
    fn name(&self) -> &'static str;
}

/// Uniform random assignment: "captures no graph locality, but … achieves
/// excellent load balancing, and performs fairly well across our tests"
/// (§V-C). The paper's default partitioner for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    /// RNG seed; the partition is deterministic given the seed.
    pub seed: u64,
}

impl Default for RandomPartitioner {
    fn default() -> Self {
        RandomPartitioner { seed: 0x5eed }
    }
}

impl Partitioner for RandomPartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        assert!(n_parts > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        (0..graph.n_vertices()).map(|_| rng.gen_range(0..n_parts) as u32).collect()
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Biased random: "like random, but biased toward assigning a vertex to a
/// GPU that contains more of its neighbors" (§V-C) — reduce border size
/// without giving up load balance. Vertices are visited in random order;
/// each is assigned to the part holding most of its already-assigned
/// neighbors, unless that part is over the balance cap, in which case the
/// least-loaded part wins.
#[derive(Debug, Clone, Copy)]
pub struct BiasedRandomPartitioner {
    /// RNG seed.
    pub seed: u64,
    /// Allowed imbalance: a part may hold at most `(1 + slack) · |V|/n`
    /// vertices. The paper wants the bias "without affecting the load
    /// balancing too much".
    pub slack: f64,
}

impl Default for BiasedRandomPartitioner {
    fn default() -> Self {
        BiasedRandomPartitioner { seed: 0x5eed, slack: 0.05 }
    }
}

impl Partitioner for BiasedRandomPartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        assert!(n_parts > 0);
        let n = graph.n_vertices();
        let cap = (((n as f64 / n_parts as f64) * (1.0 + self.slack)).ceil() as usize).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates shuffle for a random visit order.
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        const UNASSIGNED: u32 = u32::MAX;
        let mut owner = vec![UNASSIGNED; n];
        let mut load = vec![0usize; n_parts];
        let mut votes = vec![0u32; n_parts];
        for &v in &order {
            for p in votes.iter_mut() {
                *p = 0;
            }
            for &u in graph.neighbors(V::from_usize(v)) {
                let o = owner[u.idx()];
                if o != UNASSIGNED {
                    votes[o as usize] += 1;
                }
            }
            let biased =
                (0..n_parts).filter(|&p| load[p] < cap && votes[p] > 0).max_by_key(|&p| votes[p]);
            let part = match biased {
                Some(p) => p,
                None => {
                    // No informative neighbors (or all preferred parts full):
                    // fall back to the least-loaded part, breaking ties
                    // randomly. Using load rather than a uniform draw keeps
                    // seeds of distinct clusters apart, which is what gives
                    // the bias something to snowball from.
                    let min_load = load.iter().copied().min().unwrap();
                    let candidates: Vec<usize> =
                        (0..n_parts).filter(|&p| load[p] == min_load).collect();
                    candidates[rng.gen_range(0..candidates.len())]
                }
            };
            owner[v] = part as u32;
            load[part] += 1;
        }
        owner
    }

    fn name(&self) -> &'static str {
        "biased-random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, GraphBuilder};

    fn clustered_graph() -> Csr<u32, u64> {
        // two dense clusters joined by one edge: locality to exploit
        let mut edges = Vec::new();
        for i in 0..16u32 {
            for j in 0..16u32 {
                if i != j {
                    edges.push((i, j));
                    edges.push((16 + i, 16 + j));
                }
            }
        }
        edges.push((0, 16));
        GraphBuilder::undirected(&Coo::from_edges(32, edges, None))
    }

    #[test]
    fn random_assigns_every_vertex_in_range() {
        let g = clustered_graph();
        let owner = RandomPartitioner::default().assign(&g, 4);
        assert_eq!(owner.len(), 32);
        assert!(owner.iter().all(|&o| o < 4));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = clustered_graph();
        let a = RandomPartitioner { seed: 7 }.assign(&g, 3);
        let b = RandomPartitioner { seed: 7 }.assign(&g, 3);
        let c = RandomPartitioner { seed: 8 }.assign(&g, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn biased_respects_balance_cap() {
        let g = clustered_graph();
        let part = BiasedRandomPartitioner { seed: 1, slack: 0.05 };
        let owner = part.assign(&g, 2);
        let cap = ((32.0 / 2.0) * 1.05f64).ceil() as usize;
        for p in 0..2u32 {
            let load = owner.iter().filter(|&&o| o == p).count();
            assert!(load <= cap, "part {p} holds {load} > cap {cap}");
        }
    }

    #[test]
    fn biased_cuts_fewer_edges_than_random_on_clustered_graph() {
        let g = clustered_graph();
        let cut = |owner: &[u32]| {
            let mut cut = 0usize;
            for v in 0..g.n_vertices() {
                for &u in g.neighbors(v as u32) {
                    if owner[v] != owner[u as usize] {
                        cut += 1;
                    }
                }
            }
            cut
        };
        let r = cut(&RandomPartitioner { seed: 3 }.assign(&g, 2));
        let b = cut(&BiasedRandomPartitioner { seed: 3, slack: 0.1 }.assign(&g, 2));
        assert!(b < r, "biased cut {b} should beat random cut {r}");
    }

    #[test]
    fn single_part_puts_everything_on_part_zero() {
        let g = clustered_graph();
        let owner = BiasedRandomPartitioner::default().assign(&g, 1);
        assert!(owner.iter().all(|&o| o == 0));
    }
}

/// Contiguous chunks: vertex `v` goes to part `v·n/|V|`. Zero partitioning
/// cost and perfect vertex balance; exploits whatever locality the input
/// ordering carries (web crawls are crawl-ordered, so this does well there
/// and poorly on randomized orderings). Gunrock ships the same "chunked"
/// option.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkedPartitioner;

impl Partitioner for ChunkedPartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        assert!(n_parts > 0);
        let n = graph.n_vertices().max(1);
        (0..graph.n_vertices()).map(|v| ((v * n_parts) / n).min(n_parts - 1) as u32).collect()
    }

    fn name(&self) -> &'static str {
        "chunked"
    }
}

/// The partitioners a `--partitioner` flag can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// [`RandomPartitioner`].
    Random,
    /// [`BiasedRandomPartitioner`] at its default slack.
    Biased,
    /// [`MultilevelPartitioner`] at its default coarsening and refinement.
    Metis,
    /// [`ChunkedPartitioner`].
    Chunked,
}

impl PartitionerKind {
    /// Every kind, in the order usage lists them.
    pub const ALL: &'static [PartitionerKind] = &[
        PartitionerKind::Random,
        PartitionerKind::Biased,
        PartitionerKind::Metis,
        PartitionerKind::Chunked,
    ];

    /// The flag value that names this kind.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionerKind::Random => "random",
            PartitionerKind::Biased => "biased",
            PartitionerKind::Metis => "metis",
            PartitionerKind::Chunked => "chunked",
        }
    }

    /// This kind of partitioner under `seed` (which [`ChunkedPartitioner`]
    /// has no use for).
    pub fn seeded(self, seed: u64) -> NamedPartitioner {
        NamedPartitioner { kind: self, seed }
    }
}

/// The inverse of [`PartitionerKind::label`].
impl std::str::FromStr for PartitionerKind {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        Self::ALL.iter().copied().find(|k| k.label() == s).ok_or(())
    }
}

/// A partitioner chosen by name at run time: [`Partitioner`] by delegation,
/// so a driver instantiates its generic run path once instead of per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamedPartitioner {
    /// Which partitioner to delegate to.
    pub kind: PartitionerKind,
    /// Its RNG seed.
    pub seed: u64,
}

impl Partitioner for NamedPartitioner {
    fn assign<V: Id, O: Id>(&self, graph: &Csr<V, O>, n_parts: usize) -> Vec<u32> {
        let seed = self.seed;
        match self.kind {
            PartitionerKind::Random => RandomPartitioner { seed }.assign(graph, n_parts),
            PartitionerKind::Biased => {
                BiasedRandomPartitioner { seed, ..Default::default() }.assign(graph, n_parts)
            }
            PartitionerKind::Metis => {
                MultilevelPartitioner { seed, ..Default::default() }.assign(graph, n_parts)
            }
            PartitionerKind::Chunked => ChunkedPartitioner.assign(graph, n_parts),
        }
    }

    fn name(&self) -> &'static str {
        self.kind.label()
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use mgpu_graph::{Coo, GraphBuilder};

    #[test]
    fn chunks_are_contiguous_and_balanced() {
        let coo = Coo::<u32>::from_edges(10, vec![(0, 9)], None);
        let g: mgpu_graph::Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let owner = ChunkedPartitioner.assign(&g, 3);
        assert_eq!(owner, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn beats_random_on_an_ordered_path() {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let g: mgpu_graph::Csr<u32, u64> =
            GraphBuilder::undirected(&Coo::from_edges(100, edges, None));
        let qc = PartitionQuality::measure(&g, &ChunkedPartitioner.assign(&g, 4), 4);
        let qr = PartitionQuality::measure(&g, &RandomPartitioner { seed: 1 }.assign(&g, 4), 4);
        assert!(qc.edge_cut < qr.edge_cut / 5, "chunked {} vs random {}", qc.edge_cut, qr.edge_cut);
        assert_eq!(qc.edge_cut, 6, "a path cut at 3 boundaries, both directions");
    }

    #[test]
    fn a_named_partitioner_is_the_one_its_name_says() {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, (i * 7 + 1) % 100)).collect();
        let g: mgpu_graph::Csr<u32, u64> =
            GraphBuilder::undirected(&Coo::from_edges(100, edges, None));
        let seed = 7;
        let direct = [
            RandomPartitioner { seed }.assign(&g, 4),
            BiasedRandomPartitioner { seed, ..Default::default() }.assign(&g, 4),
            MultilevelPartitioner { seed, ..Default::default() }.assign(&g, 4),
            ChunkedPartitioner.assign(&g, 4),
        ];
        for (&kind, direct) in PartitionerKind::ALL.iter().zip(direct) {
            assert_eq!(kind.label().parse(), Ok(kind));
            assert_eq!(kind.seeded(seed).assign(&g, 4), direct, "{}", kind.label());
        }
        assert_eq!("kway".parse::<PartitionerKind>(), Err(()));
    }

    #[test]
    fn single_part_and_tiny_graphs() {
        let g: mgpu_graph::Csr<u32, u64> = mgpu_graph::Csr::empty(2);
        assert_eq!(ChunkedPartitioner.assign(&g, 1), vec![0, 0]);
        assert_eq!(ChunkedPartitioner.assign(&g, 5), vec![0, 2]);
    }
}
