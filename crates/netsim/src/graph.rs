//! Compact weighted undirected graph.
//!
//! Nodes are dense `u32` indices so the all-pairs latency matrix and the
//! per-node attribute tables in [`crate::load`] can be plain vectors.

use std::fmt;

/// Identifier of a physical node in the simulated network.
///
/// Dense: a graph with `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize, for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an undirected edge, indexing [`Graph::edges`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a usize, for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected edge with a latency weight in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency of the link, in milliseconds. Must be finite and
    /// non-negative.
    pub latency_ms: f64,
}

/// A weighted undirected graph stored in adjacency-list form.
///
/// ```
/// use sbon_netsim::graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0.into(), 1.into(), 10.0);
/// g.add_edge(1.into(), 2.into(), 5.0);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1.into()).count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// adjacency[v] = list of (neighbor, edge id)
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph { edges: Vec::new(), adjacency: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// The edge table.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adjacency.len() as u32);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge. Panics if an endpoint is out of range, the
    /// latency is not finite, or the latency is negative.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, latency_ms: f64) -> EdgeId {
        assert!(a.index() < self.num_nodes(), "edge endpoint {a} out of range");
        assert!(b.index() < self.num_nodes(), "edge endpoint {b} out of range");
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "edge latency must be finite and non-negative, got {latency_ms}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, latency_ms });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// The edge with the given id. Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Overwrites the latency of an existing edge, returning the previous
    /// value. Panics if `id` is out of range, or the new latency is not
    /// finite or is negative — the same contract as [`Graph::add_edge`].
    ///
    /// This is the mutation hook used by churn/jitter processes that perturb
    /// the underlay over time; consumers holding derived state (such as
    /// cached shortest-path rows) must be invalidated by the caller.
    pub fn set_edge_latency(&mut self, id: EdgeId, latency_ms: f64) -> f64 {
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "edge latency must be finite and non-negative, got {latency_ms}"
        );
        let old = self.edges[id.index()].latency_ms;
        self.edges[id.index()].latency_ms = latency_ms;
        old
    }

    /// Neighbors of `v` with the connecting edge's id and current latency —
    /// the one adjacency accessor: every shortest-path relaxation reads the
    /// graph through it ([`crate::dijkstra`]), and the edge id lets repair
    /// look up *historical* weights and path reconstruction name the edge
    /// it walked.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> + '_ {
        self.adjacency[v.index()]
            .iter()
            .map(move |&(n, e)| (n, e, self.edges[e.index()].latency_ms))
    }

    /// Returns true if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in &self.adjacency[v.index()] {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Sum of all edge latencies; used by tests as a cheap fingerprint.
    pub fn total_edge_latency(&self) -> f64 {
        self.edges.iter().map(|e| e.latency_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn two_isolated_nodes_are_disconnected() {
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 3.5);
        assert_eq!(g.neighbors(NodeId(0)).collect::<Vec<_>>(), vec![(NodeId(1), e, 3.5)]);
        assert_eq!(g.neighbors(NodeId(1)).collect::<Vec<_>>(), vec![(NodeId(0), e, 3.5)]);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = Graph::new(0);
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_bad_endpoint() {
        let mut g = Graph::new(1);
        g.add_edge(NodeId(0), NodeId(7), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn add_edge_rejects_negative_latency() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    fn set_edge_latency_updates_both_directions() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 3.0);
        let old = g.set_edge_latency(e, 9.0);
        assert_eq!(old, 3.0);
        assert_eq!(g.edge(e).latency_ms, 9.0);
        assert_eq!(g.neighbors(NodeId(0)).next(), Some((NodeId(1), e, 9.0)));
        assert_eq!(g.neighbors(NodeId(1)).next(), Some((NodeId(0), e, 9.0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_edge_latency_rejects_nan() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.set_edge_latency(e, f64::NAN);
    }

    #[test]
    fn connectivity_detects_path() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        assert!(!g.is_connected());
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        assert!(g.is_connected());
    }
}
