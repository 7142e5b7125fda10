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
//! | [`bc::Bc`] | duplicate-all | selective fwd / broadcast bwd | O(2\|E_i\|) | O(5\|B_i\| + 2(n−1)\|L_i\|) |
//! | [`cc::Cc`] | duplicate-all | broadcast | O(\|E_i\|) + S·O(\|V_i\|) | S·O(2\|V_i\|) |
//! | [`pr::Pagerank`] | duplicate-all | selective | Σ_S O(\|E_active\|) + S·O(\|L_i\|) | Σ_S O(\|B_changed\|) |
//!
//! SSSP's `b` is the re-relaxation factor: [`sssp::Sssp`] relaxes the near
//! part of its pending frontier and parks the far rest in the frontier it
//! returns, which holds `b` at 1.3–1.4 on the power-law analogs; on a road
//! lattice it stays within a few supersteps of BFS's hop order (the
//! ablation's §4). [`cc::Cc`] reads each local edge once (a
//! union-find pass) where the paper's Soman hooking pays `log(D/2)` passes.
//! [`pr::Pagerank`] pushes rank *changes*: a superstep advances only the
//! vertices whose change their f32 rank can still resolve and sends only the
//! border proxies that received mass, where the paper's PR advances all
//! `|E_i|` and ships all `|B_i|` every iteration.
//!
//! [`reference`] holds sequential CPU implementations of every primitive;
//! the test suites validate multi-GPU results against them exactly.

pub mod bc;
pub mod bc_batch;
pub mod bfs;
pub mod cc;
pub mod dobfs;
pub mod ms_bfs;
pub mod pr;
pub mod reference;
pub mod sssp;

pub use bc::Bc;
pub use bc_batch::BcBatch;
pub use bfs::Bfs;
pub use cc::Cc;
pub use dobfs::Dobfs;
pub use ms_bfs::MsBfs;
pub use pr::Pagerank;
pub use sssp::Sssp;

/// Unreached/unvisited marker for label and distance arrays.
pub const INF: u32 = u32::MAX;
