//! Direction-optimizing traversal machinery (§VI-A).
//!
//! Beamer-style DOBFS switches between forward ("push") and backward
//! ("pull") traversal. The traditional switch condition needs the exact
//! number of edges in the next frontier — "additional computation
//! (potentially of the same scale of the actual traversal)". The paper's
//! contribution is a switch that needs only already-available inputs:
//!
//! * estimated forward edges  `FV = |Q| · |E_i| / |V_i|`
//! * estimated backward edges `BV = |U| · |V_i| / |P|`
//!
//! Start forward; switch forward→backward when `FV > BV · do_a`, and
//! backward→forward when `FV < BV · do_b`. Because a forward→backward
//! switch must scan all vertices to build the unvisited frontier, it is
//! allowed **once**. `do_a = 0.01`, `do_b = 0.1` work well for social
//! graphs and are mostly independent of the GPU count.
//!
//! [`PullSide`] is the exact alternative for traversals that already pay
//! for exact counts (BC's forward sweep, MS-BFS): no estimate and no
//! threshold, but pull iff it reads fewer local edges than the push.

use mgpu_graph::Id;
use mgpu_partition::SubGraph;
use vgpu::{Device, KernelKind, Result, COMPUTE_STREAM};

/// Traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Push: expand the current frontier's out-edges.
    Forward,
    /// Pull: unvisited vertices scan in-edges for a visited parent.
    Backward,
}

/// Switch thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionConfig {
    /// Forward→backward threshold (`do_a`).
    pub do_a: f64,
    /// Backward→forward threshold (`do_b`).
    pub do_b: f64,
}

impl Default for DirectionConfig {
    /// The paper's social-graph parameters: do_a = 0.01, do_b = 0.1.
    fn default() -> Self {
        DirectionConfig { do_a: 0.01, do_b: 0.1 }
    }
}

/// Per-GPU direction state across iterations.
#[derive(Debug, Clone, Copy)]
pub struct DirectionState {
    /// Current direction.
    pub current: Direction,
    /// Whether the one allowed forward→backward switch has been spent.
    pub switched_to_backward: bool,
    config: DirectionConfig,
}

impl DirectionState {
    /// Fresh state: traversal begins forward.
    pub fn new(config: DirectionConfig) -> Self {
        DirectionState { current: Direction::Forward, switched_to_backward: false, config }
    }

    /// Estimated forward edge visits `FV = |Q|·|E_i|/|V_i|`.
    pub fn forward_estimate(frontier: usize, local_edges: usize, local_vertices: usize) -> f64 {
        if local_vertices == 0 {
            return 0.0;
        }
        frontier as f64 * local_edges as f64 / local_vertices as f64
    }

    /// Estimated backward edge visits `BV = |U|·|V_i|/|P|`.
    pub fn backward_estimate(unvisited: usize, local_vertices: usize, visited: usize) -> f64 {
        if visited == 0 {
            return f64::INFINITY;
        }
        unvisited as f64 * local_vertices as f64 / visited as f64
    }

    /// Decide the direction for the upcoming iteration from quantities that
    /// are already available: `|Q|` (current frontier), `|U|` (unvisited),
    /// `|P|` (visited), `|E_i|`, `|V_i|`. Returns the direction to use and
    /// updates internal state.
    pub fn decide(
        &mut self,
        frontier: usize,
        unvisited: usize,
        visited: usize,
        local_edges: usize,
        local_vertices: usize,
    ) -> Direction {
        let fv = Self::forward_estimate(frontier, local_edges, local_vertices);
        let bv = Self::backward_estimate(unvisited, local_vertices, visited);
        match self.current {
            Direction::Forward => {
                if !self.switched_to_backward && fv > bv * self.config.do_a {
                    self.current = Direction::Backward;
                    self.switched_to_backward = true; // one-shot: the switch
                                                      // requires a full vertex scan
                }
            }
            Direction::Backward => {
                if fv < bv * self.config.do_b {
                    self.current = Direction::Forward;
                }
            }
        }
        self.current
    }
}

/// The exact push-or-pull rule of a traversal whose vertices close (BC: get
/// a label; MS-BFS: hold every lane) and stay closed. A device pulls a
/// level iff `open_in + scan < push_edges`: `push_edges` is the frontier's
/// out-degree, `open_in` the local in-edges of the vertices still open
/// (the most a pull reads), and `scan` the pull's candidate pass (|V_i| for
/// the first build, the list's length after). A device never pulls more
/// edges than it would push, and a thin level never pays |V_i| to save a
/// few.
///
/// `open_in` is a running total. The caller subtracts the in-edges of each
/// vertex its own advance closes, and lists in `arrived` each vertex
/// `combine` closes; their in-edges leave `open_in` at the next
/// [`Self::decide`].
#[derive(Debug, Default)]
pub struct PullSide<V> {
    /// Local in-edges of the vertices still open here.
    pub open_in: u64,
    /// Vertices `combine` closed since the last decision.
    pub arrived: Vec<V>,
    /// The pull side's candidates, ascending: built by the first pull's
    /// |V_i| scan, shrunk in place by each later one
    /// ([`crate::ops::pull_candidates`]).
    pub candidates: Option<Vec<V>>,
    /// Supersteps this device pulled.
    pub pull_levels: u32,
}

impl<V: Id> PullSide<V> {
    /// Start a traversal with `open_in` local in-edges still open.
    pub fn reset(&mut self, open_in: u64) {
        self.open_in = open_in;
        self.arrived.clear();
        self.candidates = None;
        self.pull_levels = 0;
    }

    /// Whether this superstep pulls. One Bulk launch over the frontier and
    /// the arrived vertices reads the push side's edges and takes the
    /// arrived in-edges out of `open_in`.
    pub fn decide<O: Id>(
        &mut self,
        dev: &mut Device,
        sub: &SubGraph<V, O>,
        frontier: &[V],
    ) -> Result<bool> {
        let csc = sub.csc.as_ref().expect("a pull side needs the reverse adjacency");
        let arrived = std::mem::take(&mut self.arrived);
        let (push_edges, arrived_in) = dev.kernel(COMPUTE_STREAM, KernelKind::Bulk, || {
            let push = sub.csr.frontier_out_degree(frontier) as u64;
            let arrived_in: usize = arrived.iter().map(|&v| csc.degree(v)).sum();
            ((push, arrived_in as u64), (frontier.len() + arrived.len()) as u64)
        })?;
        self.open_in -= arrived_in;
        let scan = self.candidates.as_ref().map_or(sub.n_vertices(), Vec::len) as u64;
        let pull = self.open_in + scan < push_edges;
        self.pull_levels += u32::from(pull);
        Ok(pull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_graph::{Coo, Csr, GraphBuilder};
    use mgpu_partition::{DistGraph, Duplication};
    use vgpu::HardwareProfile;

    #[test]
    fn starts_forward() {
        let s = DirectionState::new(DirectionConfig::default());
        assert_eq!(s.current, Direction::Forward);
    }

    #[test]
    fn switches_backward_when_frontier_explodes() {
        let mut s = DirectionState::new(DirectionConfig::default());
        // |Q|=10k of |V|=100k, |E|=3.2M: FV = 320k; |U|=90k, |P|=10k: BV=900k
        // FV > BV·0.01 = 9k → switch
        let d = s.decide(10_000, 90_000, 10_000, 3_200_000, 100_000);
        assert_eq!(d, Direction::Backward);
        assert!(s.switched_to_backward);
    }

    #[test]
    fn stays_forward_for_tiny_frontiers() {
        let mut s = DirectionState::new(DirectionConfig::default());
        // FV = 3.2 (one-vertex frontier), BV huge at start (P=1)
        let d = s.decide(1, 99_999, 1, 3_200_000, 100_000);
        assert_eq!(d, Direction::Forward);
    }

    #[test]
    fn returns_forward_for_the_tail_and_never_switches_back_again() {
        let mut s = DirectionState::new(DirectionConfig::default());
        s.decide(10_000, 90_000, 10_000, 3_200_000, 100_000); // → backward
                                                              // tail: one-vertex frontier, sizeable unvisited remainder:
                                                              // FV = 1·32 = 32; BV = 1000·100k/99k ≈ 1010; FV < BV·0.1 = 101 → forward
        let d = s.decide(1, 1_000, 99_000, 3_200_000, 100_000);
        assert_eq!(d, Direction::Forward, "FV=32 < BV·0.1≈101");
        // another explosion cannot trigger a second backward switch
        let d = s.decide(50_000, 50_000, 50_000, 3_200_000, 100_000);
        assert_eq!(d, Direction::Forward);
    }

    #[test]
    fn estimates_handle_degenerate_inputs() {
        assert_eq!(DirectionState::forward_estimate(5, 100, 0), 0.0);
        assert!(DirectionState::backward_estimate(5, 100, 0).is_infinite());
    }

    #[test]
    fn forward_estimate_orders_by_frontier_and_average_degree() {
        // FV = |Q|·|E|/|V| — linear in the frontier, linear in avg degree.
        let small = DirectionState::forward_estimate(100, 3_200_000, 100_000);
        let bigger_frontier = DirectionState::forward_estimate(1_000, 3_200_000, 100_000);
        let denser_graph = DirectionState::forward_estimate(100, 6_400_000, 100_000);
        assert!(small < bigger_frontier);
        assert!(small < denser_graph);
        assert_eq!(bigger_frontier, 10.0 * small);
        assert_eq!(denser_graph, 2.0 * small);
    }

    #[test]
    fn backward_estimate_shrinks_as_the_visited_set_grows() {
        // BV = |U|·|V|/|P| — more visited vertices make the pull cheaper.
        let early = DirectionState::backward_estimate(90_000, 100_000, 10_000);
        let late = DirectionState::backward_estimate(10_000, 100_000, 90_000);
        assert!(late < early);
        // and it scales with how much is still unvisited
        assert!(
            DirectionState::backward_estimate(50_000, 100_000, 10_000)
                < DirectionState::backward_estimate(90_000, 100_000, 10_000)
        );
    }

    #[test]
    fn hysteresis_band_keeps_the_backward_direction() {
        // Once backward, only FV < BV·do_b flips forward: an FV between
        // BV·do_a and BV·do_b (which would have triggered the forward→
        // backward switch) keeps pulling instead of oscillating.
        let mut s = DirectionState::new(DirectionConfig::default());
        s.decide(10_000, 90_000, 10_000, 3_200_000, 100_000);
        assert_eq!(s.current, Direction::Backward);
        // FV = 5000·32 = 160k; BV = 50k·100k/50k = 100k; BV·do_b = 10k < FV
        let d = s.decide(5_000, 50_000, 50_000, 3_200_000, 100_000);
        assert_eq!(d, Direction::Backward, "FV=160k is far above BV·do_b=10k");
    }

    #[test]
    fn threshold_boundaries_are_strict() {
        // Forward→backward requires FV strictly greater than BV·do_a.
        // |Q|=100, |V|=|E|=100k → FV = 100; |U|=10k, |P|=100k → BV = 10k;
        // BV·do_a = 100 exactly → no switch.
        let mut s = DirectionState::new(DirectionConfig::default());
        let d = s.decide(100, 10_000, 100_000, 100_000, 100_000);
        assert_eq!(d, Direction::Forward, "FV == BV·do_a must not switch");
        assert!(!s.switched_to_backward);

        // Backward→forward requires FV strictly less than BV·do_b.
        let mut s = DirectionState::new(DirectionConfig::default());
        s.decide(10_000, 90_000, 10_000, 3_200_000, 100_000); // → backward
                                                              // |Q|=1000, |V|=|E|=100k → FV = 1000; |U|=10k, |P|=100k → BV = 10k;
                                                              // BV·do_b = 1000 exactly → stays backward.
        let d = s.decide(1_000, 10_000, 100_000, 100_000, 100_000);
        assert_eq!(d, Direction::Backward, "FV == BV·do_b must not switch");
    }

    /// A star: hub 0 with 8 leaves, undirected, on one device (|V| = 9,
    /// 16 local in-edges).
    fn star() -> DistGraph<u32, u64> {
        let coo = Coo::from_edges(9, (1..9u32).map(|l| (0, l)).collect(), None);
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        let mut dg = DistGraph::build(&g, vec![0; 9], 1, Duplication::All);
        dg.build_cscs();
        dg
    }

    /// Before the first pull the scan counts |V_i|; in-edges of `arrived`
    /// vertices leave `open_in` at the next decision, and a built candidate
    /// list replaces the |V_i| scan with its length.
    #[test]
    fn pull_side_counts_the_scan_and_the_arrived_in_edges() {
        let dg = star();
        let sub = &dg.parts[0];
        let mut dev = Device::new(0, HardwareProfile::k40());
        let mut side = PullSide::default();
        // the hub is a source, so only the leaves' 8 in-edges are open
        side.reset(8);
        // push reads the hub's 8 out-edges; pull would read 8 + a 9-id scan
        assert!(!side.decide(&mut dev, sub, &[0]).unwrap());
        assert_eq!(dev.counters.w_items, 1, "one Bulk item per frontier vertex");
        // combine closed five leaves: 3 open in-edges + 9 < 8 pushed is still
        // false, so the scan of |V_i| is what keeps the push
        side.arrived.extend([1, 2, 3, 4, 5]);
        assert!(!side.decide(&mut dev, sub, &[0]).unwrap());
        assert_eq!(side.open_in, 3);
        assert!(side.arrived.is_empty());
        assert_eq!(dev.counters.w_items, 1 + 1 + 5, "frontier plus arrived");
        // with a 3-vertex candidate list: 3 + 3 < 8 pulls
        side.candidates = Some(vec![6, 7, 8]);
        assert!(side.decide(&mut dev, sub, &[0]).unwrap());
        assert_eq!(side.pull_levels, 1);
        side.reset(16);
        assert_eq!((side.open_in, side.pull_levels, side.candidates), (16, 0, None));
    }
}
