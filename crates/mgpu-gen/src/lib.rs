//! # mgpu-gen — synthetic workload generators
//!
//! Standing in for the paper's datasets (Table II: UF sparse matrix
//! collection "soc" and "web" graphs plus GTgraph R-MAT), this crate
//! generates graphs with the structural properties the scalability analysis
//! depends on — degree distribution, diameter and |E|/|V| ratio:
//!
//! * [`rmat`](mod@rmat) — an R-MAT generator faithful to GTgraph (the paper's own
//!   generator), with the paper's parameters {A,B,C,D} = {0.57, 0.19, 0.19,
//!   0.05} and Merrill's {0.45, 0.15, 0.15, 0.25} for the B40C comparison.
//! * [`prefattach`] — preferential attachment, the "soc" (online social
//!   network) analog: power-law, low diameter.
//! * [`crawl`] — a copy-model web-crawl analog: power-law with strong
//!   locality and higher diameter, like uk-2002 / arabic-2005.
//! * [`grid`] — 2D lattices, the road-network analog: high diameter, low
//!   constant degree, the known-bad case for GPU traversal (§V-B).
//! * [`gnm`](mod@gnm) — uniform random (Erdős–Rényi G(n,m)) for tests.
//! * [`smallworld`] — Watts–Strogatz rings for diameter-controlled tests.
//! * [`weights`] — the paper's SSSP edge weights: uniform integers [0, 64].
//! * [`catalog`] — named, scaled-down analogs of every Table II dataset.
//!
//! All generators are deterministic given a seed (ChaCha8 streams), so every
//! experiment in the repository is exactly reproducible.

pub mod catalog;
pub mod crawl;
pub mod gnm;
pub mod grid;
pub mod prefattach;
pub mod rmat;
pub mod smallworld;
pub mod weights;

pub use catalog::{Dataset, DatasetGroup};
pub use crawl::web_crawl;
pub use gnm::gnm;
pub use grid::grid2d;
pub use prefattach::preferential_attachment;
pub use rmat::{rmat, RmatParams};
pub use smallworld::watts_strogatz;
pub use weights::add_uniform_weights;
