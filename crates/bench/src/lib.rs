//! Shared harness utilities for the figure/claim regeneration binaries.
//!
//! Every experiment builds a [`World`]: a transit-stub topology (the paper's
//! evaluation substrate), its ground-truth all-pairs latency, a Vivaldi
//! embedding, a load assignment, and the Figure-2 latency+load² cost space.
//! Worlds are deterministic in `(nodes, seed)`.
//!
//! The ground truth is one dense [`LatencyMatrix`]: a world is static (no
//! jitter, no churn of the underlay) and at most a few thousand nodes, and
//! its Vivaldi warm-up reads every row, so an on-demand store would hold
//! all `n²` entries anyway and only make each read slower. On-demand rows
//! are the runtime's store, for jittered underlays of up to 100k nodes.

use rand::seq::SliceRandom;
use rand::Rng;

use sbon_coords::vivaldi::{VivaldiConfig, VivaldiEmbedding};
use sbon_core::costspace::{CostSpace, CostSpaceBuilder};
use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::LatencyMatrix;
use sbon_netsim::load::{LoadModel, NodeAttrs};
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_netsim::topology::Topology;

/// A fully built experimental world.
pub struct World {
    /// The underlay topology.
    pub topology: Topology,
    /// Ground-truth latency between every pair of nodes.
    pub latency: LatencyMatrix,
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
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            nodes: 600,
            load: LoadModel::Random { lo: 0.0, hi: 0.8 },
            load_scale: 100.0,
            vivaldi: VivaldiConfig::default(),
        }
    }
}

/// Builds a deterministic world: computes the all-pairs latency once and
/// embeds over it (the warm-up reads every row, see the crate header).
pub fn build_world(config: &WorldConfig, seed: u64) -> World {
    let topology = generate(&TransitStubConfig::with_total_nodes(config.nodes), seed);
    let latency = all_pairs_latency(&topology.graph);
    let embedding = config.vivaldi.embed(&latency, seed);
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
}
