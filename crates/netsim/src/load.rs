//! Per-node scalar attributes and their dynamics.
//!
//! The paper's scalar cost dimensions are node-local quantities — "CPU load,
//! memory consumption, and disk capacity" (Section 3.1). [`NodeAttrs`] holds
//! those raw values (in `[0, 1]` for load-like attributes), and
//! [`ChurnProcess`] perturbs them over simulated time to exercise the
//! re-optimization machinery (the paper's "time" challenge).

use rand::Rng;

use crate::graph::NodeId;
use crate::rng::sample_normal;

/// Attribute kinds a node can expose to a cost space's scalar dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Attr {
    /// CPU utilization in `[0, 1]`.
    CpuLoad,
    /// Memory utilization in `[0, 1]`.
    MemLoad,
    /// Fraction of disk capacity in use, `[0, 1]`.
    DiskLoad,
}

impl Attr {
    /// All attribute kinds, for table sizing.
    pub const ALL: [Attr; 3] = [Attr::CpuLoad, Attr::MemLoad, Attr::DiskLoad];

    fn index(self) -> usize {
        match self {
            Attr::CpuLoad => 0,
            Attr::MemLoad => 1,
            Attr::DiskLoad => 2,
        }
    }
}

/// Dense table of scalar attributes for every node.
#[derive(Clone, Debug)]
pub struct NodeAttrs {
    n: usize,
    /// `values[attr][node]`
    values: Vec<Vec<f64>>,
}

impl NodeAttrs {
    /// All attributes zero (idle network).
    pub fn idle(n: usize) -> Self {
        NodeAttrs { n, values: vec![vec![0.0; n]; Attr::ALL.len()] }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reads one attribute of one node.
    #[inline]
    pub fn get(&self, node: NodeId, attr: Attr) -> f64 {
        self.values[attr.index()][node.index()]
    }

    /// Writes one attribute, clamping to `[0, 1]`.
    pub fn set(&mut self, node: NodeId, attr: Attr, v: f64) {
        self.values[attr.index()][node.index()] = v.clamp(0.0, 1.0);
    }

    /// Adds `delta` to one attribute, clamping to `[0, 1]`.
    pub fn add(&mut self, node: NodeId, attr: Attr, delta: f64) {
        let v = self.get(node, attr) + delta;
        self.set(node, attr, v);
    }

    /// The full column for one attribute.
    pub fn column(&self, attr: Attr) -> &[f64] {
        &self.values[attr.index()]
    }
}

/// Initial load assignment models used by the experiments.
#[derive(Clone, Debug)]
pub enum LoadModel {
    /// Every node gets the same value.
    Uniform(f64),
    /// i.i.d. `U(lo, hi)`.
    Random {
        /// Lower bound of the uniform draw.
        lo: f64,
        /// Upper bound of the uniform draw.
        hi: f64,
    },
    /// Mostly-idle network with a few heavily loaded hotspots, matching the
    /// "node a (overloaded)" annotation in the paper's Figure 2.
    Hotspots {
        /// Baseline load for ordinary nodes.
        base: f64,
        /// Number of overloaded nodes.
        count: usize,
        /// Load of overloaded nodes.
        hot: f64,
    },
}

impl LoadModel {
    /// Draws CPU loads for `n` nodes into a fresh attribute table.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> NodeAttrs {
        let mut attrs = NodeAttrs::idle(n);
        match *self {
            LoadModel::Uniform(v) => {
                for i in 0..n {
                    attrs.set(NodeId(i as u32), Attr::CpuLoad, v);
                }
            }
            LoadModel::Random { lo, hi } => {
                assert!(lo <= hi);
                for i in 0..n {
                    attrs.set(NodeId(i as u32), Attr::CpuLoad, rng.gen_range(lo..=hi));
                }
            }
            LoadModel::Hotspots { base, count, hot } => {
                for i in 0..n {
                    attrs.set(NodeId(i as u32), Attr::CpuLoad, base);
                }
                // Sample distinct hotspot nodes. BTreeSet: the set is
                // iterated below, and hash order is process-random.
                let mut chosen = std::collections::BTreeSet::new();
                while chosen.len() < count.min(n) {
                    chosen.insert(rng.gen_range(0..n));
                }
                for i in chosen {
                    attrs.set(NodeId(i as u32), Attr::CpuLoad, hot);
                }
            }
        }
        attrs
    }
}

/// A dynamics process applied per simulation tick.
#[derive(Clone, Debug)]
pub enum ChurnProcess {
    /// No dynamics (static network).
    None,
    /// Each tick, every node's CPU load takes a Gaussian step with the given
    /// standard deviation, clamped to `[0, 1]` (bounded random walk).
    RandomWalk {
        /// Standard deviation of each per-tick Gaussian step.
        std_dev: f64,
    },
    /// Each tick, each node flips to a fresh `U(0,1)` load with probability
    /// `p` (abrupt step churn: job arrivals/departures).
    Step {
        /// Per-node, per-tick probability of drawing a fresh load.
        p: f64,
    },
    /// Each tick, `nodes_per_tick` randomly drawn nodes (with replacement)
    /// take a Gaussian load step — the planet-scale regime where a tick sees
    /// load reports from a *fraction* of the overlay, so consumers of the
    /// dirty set ([`ChurnProcess::tick_dirty`]) do `O(nodes_per_tick)` work
    /// per tick instead of `O(n)`.
    SparseWalk {
        /// Nodes stepped per tick (drawn with replacement).
        nodes_per_tick: usize,
        /// Standard deviation of each Gaussian step.
        std_dev: f64,
    },
}

impl ChurnProcess {
    /// Applies one tick of dynamics to the CPU-load column and reports which
    /// nodes were touched, so downstream state (cost points, DHT
    /// registrations) can be refreshed as a delta instead of a full-universe
    /// rebuild. A touched node's value may still be unchanged (a step
    /// clamped at 0 or 1); callers that need change detection compare
    /// before/after themselves.
    pub fn tick_dirty<R: Rng + ?Sized>(&self, attrs: &mut NodeAttrs, rng: &mut R) -> Vec<NodeId> {
        let mut dirty = Vec::new();
        match *self {
            ChurnProcess::None => {}
            ChurnProcess::RandomWalk { std_dev } => {
                dirty.reserve(attrs.len());
                for i in 0..attrs.len() {
                    let node = NodeId(i as u32);
                    let step = sample_normal(rng, 0.0, std_dev);
                    attrs.add(node, Attr::CpuLoad, step);
                    dirty.push(node);
                }
            }
            ChurnProcess::Step { p } => {
                for i in 0..attrs.len() {
                    if rng.gen_bool(p) {
                        let node = NodeId(i as u32);
                        attrs.set(node, Attr::CpuLoad, rng.gen_range(0.0..1.0));
                        dirty.push(node);
                    }
                }
            }
            ChurnProcess::SparseWalk { nodes_per_tick, std_dev } => {
                let n = attrs.len();
                if n == 0 {
                    return dirty;
                }
                dirty.reserve(nodes_per_tick);
                for _ in 0..nodes_per_tick {
                    let node = NodeId(rng.gen_range(0..n as u32));
                    let step = sample_normal(rng, 0.0, std_dev);
                    attrs.add(node, Attr::CpuLoad, step);
                    dirty.push(node);
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn idle_is_all_zero() {
        let a = NodeAttrs::idle(4);
        for i in 0..4u32 {
            for attr in Attr::ALL {
                assert_eq!(a.get(NodeId(i), attr), 0.0);
            }
        }
    }

    #[test]
    fn set_clamps_to_unit_interval() {
        let mut a = NodeAttrs::idle(1);
        a.set(NodeId(0), Attr::CpuLoad, 7.0);
        assert_eq!(a.get(NodeId(0), Attr::CpuLoad), 1.0);
        a.set(NodeId(0), Attr::CpuLoad, -2.0);
        assert_eq!(a.get(NodeId(0), Attr::CpuLoad), 0.0);
    }

    #[test]
    fn attrs_are_independent() {
        let mut a = NodeAttrs::idle(2);
        a.set(NodeId(0), Attr::CpuLoad, 0.5);
        assert_eq!(a.get(NodeId(0), Attr::MemLoad), 0.0);
        assert_eq!(a.get(NodeId(1), Attr::CpuLoad), 0.0);
    }

    #[test]
    fn uniform_model() {
        let mut rng = rng_from_seed(1);
        let a = LoadModel::Uniform(0.25).generate(5, &mut rng);
        assert!(a.column(Attr::CpuLoad).iter().all(|&v| v == 0.25));
    }

    #[test]
    fn random_model_in_range() {
        let mut rng = rng_from_seed(2);
        let a = LoadModel::Random { lo: 0.2, hi: 0.4 }.generate(100, &mut rng);
        assert!(a.column(Attr::CpuLoad).iter().all(|&v| (0.2..=0.4).contains(&v)));
    }

    #[test]
    fn hotspots_model_has_exact_hot_count() {
        let mut rng = rng_from_seed(3);
        let a = LoadModel::Hotspots { base: 0.1, count: 7, hot: 0.95 }.generate(50, &mut rng);
        let hot = a.column(Attr::CpuLoad).iter().filter(|&&v| v == 0.95).count();
        assert_eq!(hot, 7);
    }

    #[test]
    fn random_walk_churn_keeps_bounds() {
        let mut rng = rng_from_seed(4);
        let mut a = LoadModel::Uniform(0.5).generate(20, &mut rng);
        let churn = ChurnProcess::RandomWalk { std_dev: 0.3 };
        for _ in 0..50 {
            churn.tick_dirty(&mut a, &mut rng);
        }
        assert!(a.column(Attr::CpuLoad).iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn step_churn_changes_some_loads() {
        let mut rng = rng_from_seed(5);
        let mut a = LoadModel::Uniform(0.5).generate(200, &mut rng);
        ChurnProcess::Step { p: 0.5 }.tick_dirty(&mut a, &mut rng);
        let changed = a.column(Attr::CpuLoad).iter().filter(|&&v| v != 0.5).count();
        assert!(changed > 50, "changed={changed}");
    }

    #[test]
    fn tick_dirty_reports_exactly_the_touched_nodes() {
        // Step churn: the dirty set is the set of flipped nodes.
        let mut rng_a = rng_from_seed(7);
        let mut rng_b = rng_from_seed(7);
        let mut a = LoadModel::Uniform(0.5).generate(100, &mut rng_a);
        let mut b = a.clone();
        let dirty = ChurnProcess::Step { p: 0.3 }.tick_dirty(&mut a, &mut rng_b);
        // Same seed, the draws spelled out: one coin per node in id order,
        // and a fresh load right after each coin that came up.
        let mut flipped = Vec::new();
        for i in 0..100u32 {
            if rng_a.gen_bool(0.3) {
                b.set(NodeId(i), Attr::CpuLoad, rng_a.gen_range(0.0..1.0));
                flipped.push(NodeId(i));
            }
        }
        assert_eq!(a.column(Attr::CpuLoad), b.column(Attr::CpuLoad));
        assert_eq!(dirty, flipped);
        assert!(!dirty.is_empty());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "no draw beyond those");
    }

    #[test]
    fn sparse_walk_touches_only_its_budget() {
        let mut rng = rng_from_seed(8);
        let mut a = LoadModel::Uniform(0.5).generate(500, &mut rng);
        let churn = ChurnProcess::SparseWalk { nodes_per_tick: 16, std_dev: 0.2 };
        let dirty = churn.tick_dirty(&mut a, &mut rng);
        assert_eq!(dirty.len(), 16);
        // Every node outside the dirty set is untouched.
        for i in 0..500u32 {
            if !dirty.contains(&NodeId(i)) {
                assert_eq!(a.get(NodeId(i), Attr::CpuLoad), 0.5);
            }
        }
        assert!(a.column(Attr::CpuLoad).iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn none_churn_tick_dirty_is_empty() {
        let mut rng = rng_from_seed(9);
        let mut a = LoadModel::Uniform(0.3).generate(10, &mut rng);
        assert!(ChurnProcess::None.tick_dirty(&mut a, &mut rng).is_empty());
        let dirty = ChurnProcess::RandomWalk { std_dev: 0.1 }.tick_dirty(&mut a, &mut rng);
        assert_eq!(dirty.len(), 10, "a full random walk dirties every node");
    }

    #[test]
    fn none_churn_is_identity() {
        let mut rng = rng_from_seed(6);
        let mut a = LoadModel::Uniform(0.3).generate(10, &mut rng);
        let before = a.column(Attr::CpuLoad).to_vec();
        let mut untouched = rng.clone();
        assert!(ChurnProcess::None.tick_dirty(&mut a, &mut rng).is_empty());
        assert_eq!(a.column(Attr::CpuLoad), &before[..]);
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "a static network draws nothing");
    }
}
