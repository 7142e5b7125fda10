//! Named analog datasets: every graph the paper's evaluation mentions,
//! reproduced as a scaled synthetic analog with the same structural class
//! and edge factor.
//!
//! The paper's graphs range from 86M to 3.6B edges — far beyond what belongs
//! in a test suite. Each [`Dataset`] records the paper's |V|, |E| and
//! diameter for reporting, and generates an analog scaled down by
//! `2^shift` vertices (the edge factor, degree distribution class and
//! diameter regime are preserved — these are what the scalability analysis
//! depends on, per DESIGN.md). `shift = 0` regenerates paper-scale graphs if
//! you have the memory and patience.

use mgpu_graph::{Coo, Csr, GraphBuilder};

use crate::crawl::web_crawl;
use crate::grid::grid2d;
use crate::prefattach::preferential_attachment;
use crate::rmat::{rmat, RmatParams};

/// Dataset family, as grouped in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetGroup {
    /// Online social networks: power-law, very low diameter.
    Soc,
    /// Web crawls: power-law, high locality, higher diameter.
    Web,
    /// R-MAT / Kronecker synthetic graphs.
    Rmat,
    /// Road networks: high diameter, degree ≤ 4.
    Road,
}

impl DatasetGroup {
    /// Display label used by the figures ("rmat", "soc", "web").
    pub fn label(self) -> &'static str {
        match self {
            DatasetGroup::Soc => "soc",
            DatasetGroup::Web => "web",
            DatasetGroup::Rmat => "rmat",
            DatasetGroup::Road => "road",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// R-MAT with given scale/edge-factor and parameter set.
    Rmat { scale: u32, edge_factor: usize, merrill: bool },
    /// Preferential attachment with `m` links per vertex.
    Soc { vertices: usize, m: usize },
    /// Copy-model crawl with ~`m` out-links per page.
    Web { vertices: usize, m: usize },
    /// 2D lattice with slight perturbation.
    Road { side: usize },
}

/// A named dataset analog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dataset {
    /// The paper's dataset name.
    pub name: &'static str,
    /// Family (Table II group).
    pub group: DatasetGroup,
    /// Paper-reported vertex count.
    pub paper_vertices: f64,
    /// Paper-reported (directed) edge count.
    pub paper_edges: f64,
    /// Paper-reported diameter, if listed.
    pub paper_diameter: Option<f64>,
    kind: Kind,
}

const M: f64 = 1e6;
const B: f64 = 1e9;

macro_rules! soc {
    ($name:literal, $v:expr, $e:expr, $d:expr, $vertices:expr, $m:expr) => {
        Dataset {
            name: $name,
            group: DatasetGroup::Soc,
            paper_vertices: $v,
            paper_edges: $e,
            paper_diameter: Some($d),
            kind: Kind::Soc { vertices: $vertices, m: $m },
        }
    };
}

macro_rules! web {
    ($name:literal, $v:expr, $e:expr, $d:expr, $vertices:expr, $m:expr) => {
        Dataset {
            name: $name,
            group: DatasetGroup::Web,
            paper_vertices: $v,
            paper_edges: $e,
            paper_diameter: Some($d),
            kind: Kind::Web { vertices: $vertices, m: $m },
        }
    };
}

macro_rules! rmat_ds {
    ($name:literal, $v:expr, $e:expr, $d:expr, $scale:expr, $ef:expr) => {
        Dataset {
            name: $name,
            group: DatasetGroup::Rmat,
            paper_vertices: $v,
            paper_edges: $e,
            paper_diameter: $d,
            kind: Kind::Rmat { scale: $scale, edge_factor: $ef, merrill: false },
        }
    };
}

/// The Table II evaluation datasets.
pub const TABLE2: &[Dataset] = &[
    soc!("soc-LiveJournal1", 4.85 * M, 85.7 * M, 13.0, 4_850_000, 9),
    soc!("hollywood-2009", 1.14 * M, 113.0 * M, 8.0, 1_140_000, 50),
    soc!("soc-orkut", 3.0 * M, 213.0 * M, 7.0, 3_000_000, 36),
    soc!("soc-sinaweibo", 58.7 * M, 523.0 * M, 5.0, 58_700_000, 4),
    soc!("soc-twitter-2010", 21.3 * M, 530.0 * M, 15.0, 21_300_000, 12),
    web!("indochina-2004", 7.41 * M, 302.0 * M, 24.0, 7_410_000, 20),
    web!("uk-2002", 18.5 * M, 524.0 * M, 25.0, 18_500_000, 14),
    web!("arabic-2005", 22.7 * M, 1.11 * B, 28.0, 22_700_000, 24),
    web!("uk-2005", 39.5 * M, 1.57 * B, 23.0, 39_500_000, 20),
    web!("webbase-2001", 118.0 * M, 1.71 * B, 379.0, 118_000_000, 7),
    rmat_ds!("rmat_n20_512", 1.05 * M, 728.0 * M, Some(6.26), 20, 512),
    rmat_ds!("rmat_n21_256", 2.10 * M, 839.0 * M, Some(7.22), 21, 256),
    rmat_ds!("rmat_n22_128", 4.19 * M, 925.0 * M, Some(7.56), 22, 128),
    rmat_ds!("rmat_n23_64", 8.39 * M, 985.0 * M, Some(8.32), 23, 64),
    rmat_ds!("rmat_n24_32", 16.8 * M, 1.02 * B, Some(8.61), 24, 32),
    rmat_ds!("rmat_n25_16", 33.6 * M, 1.05 * B, Some(9.06), 25, 16),
];

/// Additional graphs referenced by the comparison tables (III–V).
pub const COMPARISON: &[Dataset] = &[
    rmat_ds!("kron_n24_32", 16.8 * M, 1.07 * B, None, 24, 32),
    rmat_ds!("kron_n23_16", 8.0 * M, 256.0 * M, None, 23, 16),
    rmat_ds!("kron_n25_16", 32.0 * M, 1.07 * B, None, 25, 16),
    rmat_ds!("kron_n25_32", 32.0 * M, 1.07 * B, None, 25, 32),
    rmat_ds!("kron_n23_32", 8.0 * M, 256.0 * M, None, 23, 32),
    Dataset {
        name: "rmat_2Mv_128Me",
        group: DatasetGroup::Rmat,
        paper_vertices: 2.0 * M,
        paper_edges: 128.0 * M,
        paper_diameter: None,
        kind: Kind::Rmat { scale: 21, edge_factor: 64, merrill: true },
    },
    soc!("coPapersCiteseer", 0.43 * M, 32.1 * M, 26.0, 430_000, 37),
    soc!("com-orkut", 3.0 * M, 117.0 * M, 9.0, 3_000_000, 20),
    soc!("com-Friendster", 66.0 * M, 1.81 * B, 32.0, 66_000_000, 14),
    soc!("twitter-mpi", 52.6 * M, 1.96 * B, 14.0, 52_600_000, 19),
    soc!("twitter-rv", 42.0 * M, 1.5 * B, 15.0, 42_000_000, 18),
    soc!("LiveJournal1", 5.0 * M, 68.0 * M, 13.0, 5_000_000, 7),
    soc!("friendster", 125.0 * M, 3.62 * B, 32.0, 125_000_000, 14),
    web!("sk-2005", 50.6 * M, 1.9 * B, 40.0, 50_600_000, 19),
    Dataset {
        name: "road-analog",
        group: DatasetGroup::Road,
        paper_vertices: 23.9 * M,
        paper_edges: 57.7 * M,
        paper_diameter: Some(6000.0),
        kind: Kind::Road { side: 4_886 },
    },
];

impl Dataset {
    /// Look up a dataset by paper name across both catalogs.
    pub fn by_name(name: &str) -> Option<Dataset> {
        TABLE2.iter().chain(COMPARISON).copied().find(|d| d.name == name)
    }

    /// The three representative datasets of Fig. 2 / Fig. 3 ("kron",
    /// "soc-orkut", "uk-2002").
    pub fn figure_trio() -> [Dataset; 3] {
        [
            Dataset::by_name("kron_n24_32").unwrap(),
            Dataset::by_name("soc-orkut").unwrap(),
            Dataset::by_name("uk-2002").unwrap(),
        ]
    }

    /// Generate the raw (directed) analog edge list, scaled down by
    /// `2^shift` vertices. Every `shift` is valid: past the width of the
    /// vertex count the analog bottoms out at its smallest graph.
    pub fn generate(&self, shift: u32, seed: u64) -> Coo<u32> {
        match self.kind {
            Kind::Rmat { scale, edge_factor, merrill } => {
                let s = scale.saturating_sub(shift).max(4);
                let p = if merrill { RmatParams::merrill() } else { RmatParams::paper() };
                rmat(s, edge_factor, p, seed)
            }
            Kind::Soc { vertices, m } => {
                let v = vertices.checked_shr(shift).unwrap_or(0).max(16);
                preferential_attachment(v, m, seed)
            }
            Kind::Web { vertices, m } => {
                let v = vertices.checked_shr(shift).unwrap_or(0).max(16);
                web_crawl(v, m, seed)
            }
            Kind::Road { side } => {
                let s = side.checked_shr(shift / 2).unwrap_or(0).max(4);
                grid2d(s, s, 0.95, seed)
            }
        }
    }

    /// Generate and apply the paper's preprocessing (undirected, dedup,
    /// no self-loops).
    pub fn build_undirected(&self, shift: u32, seed: u64) -> Csr<u32, u64> {
        GraphBuilder::undirected(&self.generate(shift, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::degree_stats;

    #[test]
    fn catalog_covers_table2() {
        assert_eq!(TABLE2.len(), 16, "5 soc + 5 web + 6 rmat");
        assert!(Dataset::by_name("soc-orkut").is_some());
        assert!(Dataset::by_name("rmat_n20_512").is_some());
        assert!(Dataset::by_name("nope").is_none());
    }

    #[test]
    fn scaled_analog_tracks_edge_factor() {
        let ds = Dataset::by_name("soc-orkut").unwrap();
        let g = ds.build_undirected(9, 1);
        let s = degree_stats(&g);
        let paper_ef = ds.paper_edges / ds.paper_vertices; // ~71
        assert!(
            (s.avg_degree - paper_ef).abs() / paper_ef < 0.15,
            "edge factor {} vs paper {}",
            s.avg_degree,
            paper_ef
        );
    }

    #[test]
    fn rmat_analog_shrinks_scale() {
        let ds = Dataset::by_name("rmat_n20_512").unwrap();
        let coo = ds.generate(8, 1);
        assert_eq!(coo.n_vertices, 1 << 12);
        assert_eq!(coo.n_edges(), 512 << 12);
    }

    #[test]
    fn a_shift_past_the_word_width_yields_the_smallest_graph() {
        for ds in TABLE2.iter().chain(COMPARISON) {
            let smallest = ds.generate(63, 1);
            for shift in [64, 130, u32::MAX] {
                let coo = ds.generate(shift, 1);
                assert_eq!(coo.n_vertices, smallest.n_vertices, "{} at shift {shift}", ds.name);
                assert_eq!(coo.edges, smallest.edges, "{} at shift {shift}", ds.name);
            }
        }
    }

    #[test]
    fn figure_trio_is_kron_orkut_uk() {
        let names: Vec<_> = Dataset::figure_trio().iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["kron_n24_32", "soc-orkut", "uk-2002"]);
    }

    #[test]
    fn generation_is_deterministic() {
        let ds = Dataset::by_name("uk-2002").unwrap();
        assert_eq!(ds.generate(10, 5).edges, ds.generate(10, 5).edges);
    }

    #[test]
    fn road_analog_has_low_degree() {
        let ds = Dataset::by_name("road-analog").unwrap();
        let g = ds.build_undirected(8, 1);
        let s = degree_stats(&g);
        assert!(s.max_degree <= 4);
        assert!(s.avg_degree < 4.0);
    }
}
