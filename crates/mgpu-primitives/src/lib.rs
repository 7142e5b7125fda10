//! # mgpu-primitives — the paper's six graph primitives
//!
//! Each primitive implements [`mgpu_core::MgpuProblem`] with exactly the
//! per-primitive choices of Table I / §IV:
//!
//! | primitive | duplication | communication | W | H |
//! |---|---|---|---|---|
//! | [`bfs::Bfs`] | duplicate-all | selective | O(\|E_i\|) | O(\|B_i\|) |
//! | [`dobfs::Dobfs`] | duplicate-all | broadcast | O(a·\|E_i\|) | O((n−1)·\|V\|) |
//! | [`sssp::Sssp`] | duplicate-all | selective | O(b·\|E_i\|) | O(2b·\|B_i\|) |
//! | [`bc::Bc`] | duplicate-all | selective fwd / broadcast bwd | O(2a·\|E_i\|) | O(5\|B_i\| + 2(n−1)\|L_i\|) |
//! | [`cc::Cc`] | duplicate-all | broadcast | O(\|E_i\|) + S·O(\|V_i\|) | S·O(2\|V_i\|) |
//! | [`pr::Pagerank`] | duplicate-all | selective | Σ_S O(\|E_active\|) + S·O(\|L_i\|) | Σ_S O(\|B_changed\|) |
//!
//! SSSP's `b` is the re-relaxation factor: [`sssp::Sssp`] relaxes the near
//! part of its pending frontier and parks the far rest in the frontier it
//! returns, which holds `b` at 1.3–1.4 on the power-law analogs; on a road
//! lattice it stays within a few supersteps of BFS's hop order (the
//! ablation's §4). [`cc::Cc`] reads each local edge once (a
//! union-find pass) where the paper's Soman hooking pays `log(D/2)` passes.
//! [`bc::Bc`] reads each level from the cheaper side of its edges (push or
//! pull forward, gather or scatter backward; `a` is the share of the two
//! sweeps' `2|E_i|` read), so like DOBFS it needs the reverse adjacency.
//! [`pr::Pagerank`] pushes rank *changes*: a superstep advances only the
//! vertices whose change its accuracy contract (every rank within `1e-4` of
//! the power iterate) does not let them hold and sends only the border
//! proxies that received mass, where the paper's PR advances all
//! `|E_i|` and ships all `|B_i|` every iteration.
//!
//! Beyond Table I, [`ms_bfs::MsBfs`] runs up to 64 BFS sources in one enact
//! (a `u64` lane word per vertex) and, like BC, reads each level from the
//! cheaper side: a pull row stops once its vertex holds every lane.
//! Multi-source BC runs no lanes: its batch of sources enacts [`bc::Bc`]
//! once per source on one bound runner and sums the scores.
//!
//! [`reference`](mod@reference) holds sequential CPU implementations of every primitive;
//! the test suites validate multi-GPU results against them exactly.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod dobfs;
pub mod ms_bfs;
pub mod pr;
pub mod reference;
pub mod sssp;

#[cfg(test)]
#[path = "bc_multi_source.rs"]
mod bc_batch;

pub use bc::Bc;
pub use bfs::Bfs;
pub use cc::Cc;
pub use dobfs::Dobfs;
pub use ms_bfs::MsBfs;
pub use pr::Pagerank;
pub use sssp::Sssp;

/// Unreached/unvisited marker for label and distance arrays.
pub const INF: u32 = u32::MAX;
