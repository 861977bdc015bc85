//! Small deterministic topologies used by unit tests and examples.

use rand::Rng;

use crate::graph::Graph;
use crate::rng::derive_rng;
use crate::topology::Topology;

/// A ring of `n` nodes with uniform per-hop latency.
pub fn ring(n: usize, hop_latency_ms: f64) -> Topology {
    let mut g = Graph::new(n);
    if n >= 2 {
        for i in 0..n {
            let j = (i + 1) % n;
            if n == 2 && i == 1 {
                break;
            }
            g.add_edge((i as u32).into(), (j as u32).into(), hop_latency_ms);
        }
    }
    Topology::plain(g)
}

/// A star: node 0 is the hub, spokes have the given latency.
pub fn star(n: usize, spoke_latency_ms: f64) -> Topology {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0.into(), (i as u32).into(), spoke_latency_ms);
    }
    Topology::plain(g)
}

/// A `rows × cols` grid with uniform per-hop latency; node id = `r * cols + c`.
pub fn grid(rows: usize, cols: usize, hop_latency_ms: f64) -> Topology {
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as u32;
            if c + 1 < cols {
                g.add_edge(id.into(), (id + 1).into(), hop_latency_ms);
            }
            if r + 1 < rows {
                g.add_edge(id.into(), (id + cols as u32).into(), hop_latency_ms);
            }
        }
    }
    Topology::plain(g)
}

/// Random geometric graph: `n` points in a `side_ms × side_ms` square,
/// connected when within `radius_ms`; edge latency = Euclidean distance.
/// Falls back to nearest-neighbour stitching for stray components.
pub fn random_geometric(n: usize, side_ms: f64, radius_ms: f64, seed: u64) -> Topology {
    let mut rng = derive_rng(seed, 0x6e0); // geometric stream
    let pts: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.gen_range(0.0..side_ms), rng.gen_range(0.0..side_ms))).collect();
    let dist = |i: usize, j: usize| {
        let dx = pts[i].0 - pts[j].0;
        let dy = pts[i].1 - pts[j].1;
        (dx * dx + dy * dy).sqrt()
    };
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            if d <= radius_ms {
                g.add_edge((i as u32).into(), (j as u32).into(), d.max(0.05));
            }
        }
    }
    super::stitch(&mut g, dist, 0.05);
    Topology::plain(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::all_pairs_latency;
    use crate::graph::NodeId;
    use crate::latency::LatencyProvider;

    #[test]
    fn ring_distances() {
        let t = ring(6, 10.0);
        let m = all_pairs_latency(&t.graph);
        assert_eq!(m.latency(NodeId(0), NodeId(3)), 30.0); // halfway around
        assert_eq!(m.latency(NodeId(0), NodeId(5)), 10.0); // wraps
    }

    #[test]
    fn two_node_ring_has_single_edge() {
        let t = ring(2, 4.0);
        assert_eq!(t.graph.num_edges(), 1);
    }

    #[test]
    fn star_distances() {
        let t = star(5, 7.0);
        let m = all_pairs_latency(&t.graph);
        assert_eq!(m.latency(NodeId(1), NodeId(2)), 14.0);
        assert_eq!(m.latency(NodeId(0), NodeId(4)), 7.0);
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let t = grid(3, 3, 2.0);
        let m = all_pairs_latency(&t.graph);
        // (0,0) to (2,2) = 4 hops.
        assert_eq!(m.latency(NodeId(0), NodeId(8)), 8.0);
    }

    #[test]
    fn random_geometric_connected_and_deterministic() {
        let a = random_geometric(50, 100.0, 20.0, 9);
        let b = random_geometric(50, 100.0, 20.0, 9);
        assert!(a.graph.is_connected());
        assert_eq!(a.graph.total_edge_latency(), b.graph.total_edge_latency());
    }
}
