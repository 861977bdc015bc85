//! Shared harness utilities for the figure/claim regeneration binaries.
//!
//! Every experiment builds a [`World`]: a transit-stub topology (the paper's
//! evaluation substrate), its ground-truth all-pairs latency, a Vivaldi
//! embedding, a load assignment, and the Figure-2 latency+load² cost space.
//! Worlds are deterministic in `(nodes, seed)`.

use rand::seq::SliceRandom;
use rand::Rng;

use sbon_coords::vivaldi::{VivaldiConfig, VivaldiEmbedding};
use sbon_core::costspace::{CostSpace, CostSpaceBuilder};
use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::{LatencyMatrix, LatencyProvider};
use sbon_netsim::lazy::LazyLatency;
use sbon_netsim::load::{LoadModel, NodeAttrs};
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_netsim::topology::Topology;

/// Which ground-truth latency store a [`World`] is built over. Both serve
/// bit-identical values on every query; the choice only changes the cost of
/// obtaining them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroundTruthBackend {
    /// Demand-driven per-source rows ([`LazyLatency`]) — the default,
    /// right for workloads that read a bounded set of rows (circuit
    /// costing, optimizer trials): nothing materializes the dense `O(n²)`
    /// matrix. (The Vivaldi warm-up still transiently computes every row
    /// once; the rows are evicted before the world is returned.)
    #[default]
    Lazy,
    /// Eager all-pairs matrix — opt in for all-pairs workloads, where lazy
    /// rows buy nothing and cost cache bookkeeping per query: omniscient
    /// tree-DP baselines scanning every host pair, and whole-matrix
    /// statistics ([`GroundTruth::matrix`]).
    Dense,
}

/// Ground-truth latency of a built world, behind the selected backend.
pub enum GroundTruth {
    /// Eager all-pairs matrix.
    Dense(LatencyMatrix),
    /// Demand-driven rows (boxed: the provider's repair state makes it a
    /// much larger value than the matrix handle).
    Lazy(Box<LazyLatency>),
}

impl GroundTruth {
    /// The dense matrix, when the world was built with
    /// [`GroundTruthBackend::Dense`] — for whole-matrix statistics like
    /// `mean_latency`.
    pub fn matrix(&self) -> Option<&LatencyMatrix> {
        match self {
            GroundTruth::Dense(m) => Some(m),
            GroundTruth::Lazy(_) => None,
        }
    }

    /// The lazy provider, when the world was built with
    /// [`GroundTruthBackend::Lazy`] — for row-cache statistics.
    pub fn lazy(&self) -> Option<&LazyLatency> {
        match self {
            GroundTruth::Dense(_) => None,
            GroundTruth::Lazy(l) => Some(l),
        }
    }
}

impl LatencyProvider for GroundTruth {
    fn len(&self) -> usize {
        match self {
            GroundTruth::Dense(m) => m.len(),
            GroundTruth::Lazy(l) => l.len(),
        }
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        match self {
            GroundTruth::Dense(m) => m.latency(a, b),
            GroundTruth::Lazy(l) => l.latency(a, b),
        }
    }
}

/// A fully built experimental world.
pub struct World {
    /// The underlay topology.
    pub topology: Topology,
    /// Ground-truth latency behind the configured backend.
    pub latency: GroundTruth,
    /// Vivaldi embedding of the latency.
    pub embedding: VivaldiEmbedding,
    /// Node attributes (CPU load etc.).
    pub attrs: NodeAttrs,
    /// The latency+load² cost space over the embedding.
    pub space: CostSpace,
    /// The seed the world was built from.
    pub seed: u64,
}

/// Options for [`build_world`].
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Approximate node count (transit-stub rounds up slightly).
    pub nodes: usize,
    /// Initial load model.
    pub load: LoadModel,
    /// Scalar scale of the load dimension.
    pub load_scale: f64,
    /// Vivaldi settings.
    pub vivaldi: VivaldiConfig,
    /// Ground-truth latency backend (lazy by default).
    pub backend: GroundTruthBackend,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            nodes: 600,
            load: LoadModel::Random { lo: 0.0, hi: 0.8 },
            load_scale: 100.0,
            vivaldi: VivaldiConfig::default(),
            backend: GroundTruthBackend::default(),
        }
    }
}

/// Builds a deterministic world. Every produced value is bit-identical
/// across backends (pinned by `world_backends_are_bit_identical`); under
/// the default lazy backend the dense `O(n²)` matrix is never materialized
/// and the Vivaldi warm-up rows are evicted before returning.
pub fn build_world(config: &WorldConfig, seed: u64) -> World {
    let topology = generate(&TransitStubConfig::with_total_nodes(config.nodes), seed);
    let (latency, embedding) = match config.backend {
        GroundTruthBackend::Dense => {
            let matrix = all_pairs_latency(&topology.graph);
            let embedding = config.vivaldi.embed(&matrix, seed);
            (GroundTruth::Dense(matrix), embedding)
        }
        GroundTruthBackend::Lazy => {
            let lazy = LazyLatency::new(topology.graph.clone());
            let embedding = config.vivaldi.embed(&lazy, seed);
            lazy.evict_all();
            (GroundTruth::Lazy(Box::new(lazy)), embedding)
        }
    };
    let mut rng = derive_rng(seed, 0x10ad);
    let attrs = config.load.generate(topology.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space_scaled(&embedding, &attrs, config.load_scale);
    World { topology, latency, embedding, attrs, space, seed }
}

/// True when `SBON_SMOKE=1`: claim binaries shrink their sweeps to a
/// seconds-long CI smoke run.
pub fn smoke() -> bool {
    std::env::var_os("SBON_SMOKE").is_some_and(|v| v == "1")
}

/// Draws `count` distinct stub-node hosts.
pub fn pick_hosts<R: Rng + ?Sized>(world: &World, count: usize, rng: &mut R) -> Vec<NodeId> {
    let mut candidates = world.topology.host_candidates();
    assert!(candidates.len() >= count, "not enough host candidates");
    candidates.shuffle(rng);
    candidates.truncate(count);
    candidates
}

/// Prints a section header in the harness output.
pub fn section(title: &str) {
    println!();
    println!("════════════════════════════════════════════════════════════════════");
    println!("  {title}");
    println!("════════════════════════════════════════════════════════════════════");
}

/// Prints a sub-header.
pub fn subsection(title: &str) {
    println!();
    println!("── {title} ──");
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = samples.iter().map(|&x| x.max(1e-300).ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

/// A value as a table prints it, to `decimals` places: what a shape check's
/// clause compares, so every verdict reads the figures the reader sees.
pub fn printed(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}").parse().expect("a formatted number parses")
}

/// The word a shape check prints for one computed clause.
pub fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Prints the line marking a shape check with a failing clause as a known
/// failure; prints nothing when every clause passed.
pub fn known_failure_unless(all_pass: bool) {
    if !all_pass {
        println!("  a known failure (ROADMAP: \"every printed claim is a computed predicate\").");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::rng::rng_from_seed;

    #[test]
    fn world_is_deterministic() {
        let cfg = WorldConfig { nodes: 100, ..Default::default() };
        let a = build_world(&cfg, 5);
        let b = build_world(&cfg, 5);
        assert_eq!(a.embedding.coords, b.embedding.coords);
        assert_eq!(a.topology.num_nodes(), b.topology.num_nodes());
    }

    #[test]
    fn pick_hosts_returns_distinct_stubs() {
        let w = build_world(&WorldConfig { nodes: 100, ..Default::default() }, 1);
        let mut rng = rng_from_seed(2);
        let hosts = pick_hosts(&w, 10, &mut rng);
        let mut dedup = hosts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        let stubs = w.topology.stub_nodes();
        assert!(hosts.iter().all(|h| stubs.contains(h)));
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    /// The same config and seed must build bit-identical worlds under both
    /// ground-truth backends — same embedding, same cost space, same served
    /// latencies.
    #[test]
    fn world_backends_are_bit_identical() {
        let dense = build_world(
            &WorldConfig { nodes: 100, backend: GroundTruthBackend::Dense, ..Default::default() },
            9,
        );
        let lazy = build_world(&WorldConfig { nodes: 100, ..Default::default() }, 9);
        assert!(lazy.latency.lazy().is_some(), "lazy is the default backend");
        assert!(dense.latency.matrix().is_some());
        assert_eq!(dense.embedding.coords, lazy.embedding.coords);
        assert_eq!(dense.topology.num_nodes(), lazy.topology.num_nodes());
        // Ground truth agrees bit-for-bit on sampled pairs.
        for (a, b) in [(0u32, 50u32), (3, 97), (40, 41)] {
            assert_eq!(
                dense.latency.latency(NodeId(a), NodeId(b)),
                lazy.latency.latency(NodeId(a), NodeId(b)),
            );
        }
        // And the warm-up rows were evicted: only the queried rows reside.
        assert!(lazy.latency.lazy().unwrap().stats().rows_cached <= 3);
    }
}
