//! The oracle verifier: every harvested answer is checked against the
//! sequential `reference` implementations, which share no code with the
//! framework.
//!
//! * bfs / dobfs / sssp words and 8 evenly spaced MS-BFS lanes: exact.
//! * cc: the two labelings must induce the same partition of the vertices.
//! * pr / bc: each f32 word within `1e-3·|ref| + 1e-6` of the f64 reference.
//!
//! A reference is computed once per distinct (primitive, source), outside
//! the timed part of a pass; later passes compare a hash of the words to the
//! first verified answer and fall back to the full comparison when it
//! differs. A known defect stays a counted failure: tolerances are not
//! loosened to hide one.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::api::{self, Answer, Graph, Prim, LANES};
use crate::span::{At, Recorder};

/// MS-BFS lanes compared word by word (every `LANES / VERIFIED_LANES`-th).
pub const VERIFIED_LANES: usize = 8;

const REL_TOL: f64 = 1e-3;
const ABS_TOL: f64 = 1e-6;

/// FNV-1a taken a 64-bit word at a time (one multiply per word: answers
/// run to millions of words per pass).
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

fn answer_hash(a: &Answer) -> u64 {
    match a {
        Answer::Words(w) => fnv1a(w.iter().copied()),
        Answer::Lanes(lanes) => fnv1a(lanes.iter().flatten().map(|&d| u64::from(d))),
    }
}

/// Which answer: the primitive and its source (`None` for source-less
/// primitives and for the MS-BFS batch, whose sources are a function of the
/// graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub prim: Prim,
    pub src: Option<u32>,
}

/// What the oracle says the answer must be.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Exact(Vec<u64>),
    Partition(Vec<usize>),
    Approx(Vec<f64>),
    /// `(lane, depths)` for the verified lanes.
    Lanes(Vec<(usize, Vec<u32>)>),
}

/// Number of words of `answer` that disagree with `expect` (a shape
/// mismatch counts every expected word).
pub fn mismatches(expect: &Expect, answer: &Answer) -> usize {
    match (expect, answer) {
        (Expect::Exact(want), Answer::Words(got)) if want.len() == got.len() => {
            want.iter().zip(got).filter(|(w, g)| w != g).count()
        }
        (Expect::Approx(want), Answer::Words(got)) if want.len() == got.len() => want
            .iter()
            .zip(got)
            .filter(|&(&w, &g)| {
                let g = f64::from(f32::from_bits(g as u32));
                let err = (g - w).abs();
                err.is_nan() || err > REL_TOL * w.abs() + ABS_TOL
            })
            .count(),
        (Expect::Partition(want), Answer::Words(got)) if want.len() == got.len() => {
            // same partition <=> the label correspondence is a bijection
            let mut fwd: BTreeMap<u64, usize> = BTreeMap::new();
            let mut back: BTreeMap<usize, u64> = BTreeMap::new();
            want.iter()
                .zip(got)
                .filter(|&(&w, &g)| {
                    *fwd.entry(g).or_insert(w) != w || *back.entry(w).or_insert(g) != g
                })
                .count()
        }
        (Expect::Lanes(want), Answer::Lanes(got)) => want
            .iter()
            .map(|(lane, depths)| match got.get(*lane) {
                Some(g) if g.len() == depths.len() => {
                    depths.iter().zip(g).filter(|(w, g)| w != g).count()
                }
                _ => depths.len(),
            })
            .sum(),
        (Expect::Exact(w), _) => w.len(),
        (Expect::Approx(w), _) => w.len(),
        (Expect::Partition(w), _) => w.len(),
        (Expect::Lanes(w), _) => w.iter().map(|(_, d)| d.len()).sum(),
    }
}

struct Entry {
    expect: Expect,
    ref_wall_us: f64,
    /// Hashes of answers that passed the full comparison.
    verified: Vec<u64>,
}

/// Reference answers for one graph, computed on first use.
#[derive(Default)]
pub struct Oracle {
    entries: BTreeMap<Key, Entry>,
}

impl Oracle {
    /// DOBFS answers the same question as BFS, so they share a reference.
    fn canonical(key: Key) -> Key {
        match key.prim {
            Prim::Dobfs => Key { prim: Prim::Bfs, ..key },
            _ => key,
        }
    }

    fn entry(
        &mut self,
        graph: &Graph,
        key: Key,
        lanes: &[usize],
        rec: &Recorder,
        at: At,
    ) -> &mut Entry {
        self.entries.entry(Self::canonical(key)).or_insert_with(|| {
            let src = key.src.unwrap_or(0);
            let t0 = Instant::now();
            let expect = match key.prim {
                Prim::Bfs | Prim::Dobfs => rec.span("reference::bfs", "bfs", at, |_| {
                    Expect::Exact(api::ref_bfs(graph, src).into_iter().map(u64::from).collect())
                }),
                Prim::Sssp => rec.span("reference::sssp", "sssp", at, |_| {
                    Expect::Exact(api::ref_sssp(graph, src).into_iter().map(u64::from).collect())
                }),
                Prim::Bc => {
                    rec.span("reference::bc", "bc", at, |_| Expect::Approx(api::ref_bc(graph, src)))
                }
                Prim::Cc => {
                    rec.span("reference::cc", "cc", at, |_| Expect::Partition(api::ref_cc(graph)))
                }
                Prim::Pr => rec
                    .span("reference::pagerank", "pr", at, |_| Expect::Approx(api::ref_pr(graph))),
                Prim::MsBfs => rec.span("reference::bfs", "msbfs", at, |_| {
                    let step = (lanes.len() / VERIFIED_LANES).max(1);
                    Expect::Lanes(
                        (0..lanes.len())
                            .step_by(step)
                            .map(|lane| (lane, api::ref_bfs(graph, lanes[lane] as u32)))
                            .collect(),
                    )
                }),
            };
            Entry { expect, ref_wall_us: t0.elapsed().as_secs_f64() * 1e6, verified: Vec::new() }
        })
    }

    /// Does `answer` agree with the oracle? `lanes` are the MS-BFS sources.
    pub fn check(
        &mut self,
        graph: &Graph,
        key: Key,
        lanes: &[usize],
        answer: &Answer,
        rec: &Recorder,
        at: At,
    ) -> bool {
        let entry = self.entry(graph, key, lanes, rec, at);
        rec.span("verify", key.prim.name(), at, |_| {
            let hash = answer_hash(answer);
            if entry.verified.contains(&hash) {
                return true;
            }
            let ok = mismatches(&entry.expect, answer) == 0;
            if ok {
                entry.verified.push(hash);
            }
            ok
        })
    }

    /// Single-thread wall of the reference that produces `key`'s answer, if
    /// it has been computed. The MS-BFS reference ran `VERIFIED_LANES` of
    /// the batch's `LANES` traversals; its wall is scaled to the whole batch.
    pub fn ref_wall_us(&self, key: Key) -> Option<f64> {
        let scale = if key.prim == Prim::MsBfs { (LANES / VERIFIED_LANES) as f64 } else { 1.0 };
        self.entries.get(&Self::canonical(key)).map(|e| e.ref_wall_us * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_words(xs: &[f32]) -> Answer {
        Answer::Words(xs.iter().map(|x| u64::from(x.to_bits())).collect())
    }

    #[test]
    fn exact_counts_flipped_words() {
        let want = Expect::Exact(vec![0, 1, 2, u64::from(u32::MAX)]);
        assert_eq!(mismatches(&want, &Answer::Words(vec![0, 1, 2, u64::from(u32::MAX)])), 0);
        assert_eq!(mismatches(&want, &Answer::Words(vec![0, 1, 3, u64::from(u32::MAX)])), 1);
        assert_eq!(
            mismatches(&want, &Answer::Words(vec![0, 1])),
            4,
            "wrong shape fails every word"
        );
    }

    #[test]
    fn approx_uses_the_stated_tolerance_and_rejects_nan() {
        let want = Expect::Approx(vec![1.0, 1000.0, 0.0]);
        assert_eq!(mismatches(&want, &f32_words(&[1.0005, 1000.5, 5e-7])), 0);
        assert_eq!(mismatches(&want, &f32_words(&[1.002, 1000.5, 5e-7])), 1);
        assert_eq!(mismatches(&want, &f32_words(&[1.0, 1002.0, 2e-6])), 2);
        assert_eq!(mismatches(&want, &f32_words(&[f32::NAN, 1000.0, 0.0])), 1);
    }

    #[test]
    fn partition_ignores_label_names_but_not_merges_or_splits() {
        let want = Expect::Partition(vec![0, 0, 2, 2, 4]);
        assert_eq!(mismatches(&want, &Answer::Words(vec![7, 7, 9, 9, 1])), 0);
        assert!(mismatches(&want, &Answer::Words(vec![7, 7, 7, 7, 1])) > 0, "merged components");
        assert!(mismatches(&want, &Answer::Words(vec![7, 8, 9, 9, 1])) > 0, "split component");
    }

    #[test]
    fn lanes_compare_only_the_listed_lanes() {
        let want = Expect::Lanes(vec![(0, vec![0, 1]), (2, vec![1, 0])]);
        let good = Answer::Lanes(vec![vec![0, 1], vec![9, 9], vec![1, 0]]);
        let bad = Answer::Lanes(vec![vec![0, 1], vec![9, 9], vec![1, 1]]);
        assert_eq!(mismatches(&want, &good), 0);
        assert_eq!(mismatches(&want, &bad), 1);
        assert_eq!(mismatches(&want, &Answer::Lanes(vec![vec![0, 1]])), 2, "missing lane");
    }
}
