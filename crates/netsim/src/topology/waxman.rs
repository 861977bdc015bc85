//! Waxman random topology generator.
//!
//! Nodes are scattered uniformly in a square whose diagonal corresponds to
//! `max_latency_ms`; each pair is connected with probability
//! `alpha · exp(−d / (beta · L))` where `d` is the pair's Euclidean distance
//! and `L` the maximum distance. Classic Internet-topology baseline; used by
//! the mapping-error sweeps as a second "realistic topology" family.

use rand::Rng;

use crate::graph::Graph;
use crate::rng::derive_rng;
use crate::topology::Topology;

/// Parameters of the Waxman generator.
#[derive(Clone, Debug)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman `alpha` (overall edge density), in `(0, 1]`.
    pub alpha: f64,
    /// Waxman `beta` (long-edge propensity), in `(0, 1]`.
    pub beta: f64,
    /// Diagonal of the placement square in milliseconds.
    pub max_latency_ms: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        WaxmanConfig { nodes: 100, alpha: 0.4, beta: 0.2, max_latency_ms: 120.0 }
    }
}

/// Generates a Waxman topology; extra minimum-distance edges are added to
/// stitch disconnected components together so the result is always connected.
pub fn generate(cfg: &WaxmanConfig, seed: u64) -> Topology {
    assert!(cfg.nodes >= 1);
    assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
    assert!(cfg.beta > 0.0 && cfg.beta <= 1.0);
    let mut rng = derive_rng(seed, 0x7a61);

    let side = cfg.max_latency_ms / std::f64::consts::SQRT_2;
    let pts: Vec<(f64, f64)> =
        (0..cfg.nodes).map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
    let dist = |i: usize, j: usize| -> f64 {
        let dx = pts[i].0 - pts[j].0;
        let dy = pts[i].1 - pts[j].1;
        (dx * dx + dy * dy).sqrt()
    };

    let mut graph = Graph::new(cfg.nodes);
    let l = cfg.max_latency_ms;
    for i in 0..cfg.nodes {
        for j in (i + 1)..cfg.nodes {
            let d = dist(i, j);
            let p = cfg.alpha * (-d / (cfg.beta * l)).exp();
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                graph.add_edge((i as u32).into(), (j as u32).into(), d.max(0.1));
            }
        }
    }

    super::stitch(&mut graph, dist, 0.1);
    debug_assert!(graph.is_connected());
    Topology::plain(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_is_connected() {
        for seed in 0..5 {
            let t = generate(&WaxmanConfig { nodes: 60, ..Default::default() }, seed);
            assert!(t.graph.is_connected(), "seed={seed}");
            assert_eq!(t.num_nodes(), 60);
        }
    }

    #[test]
    fn waxman_is_deterministic() {
        let cfg = WaxmanConfig { nodes: 40, ..Default::default() };
        let a = generate(&cfg, 3);
        let b = generate(&cfg, 3);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.total_edge_latency(), b.graph.total_edge_latency());
    }

    #[test]
    fn higher_alpha_gives_denser_graphs() {
        let sparse = generate(&WaxmanConfig { nodes: 80, alpha: 0.1, ..Default::default() }, 1);
        let dense = generate(&WaxmanConfig { nodes: 80, alpha: 0.9, ..Default::default() }, 1);
        assert!(dense.graph.num_edges() > sparse.graph.num_edges());
    }

    #[test]
    fn single_node_is_fine() {
        let t = generate(&WaxmanConfig { nodes: 1, ..Default::default() }, 0);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.graph.is_connected());
    }
}
