//! Network topology generators.
//!
//! The headline generator is the GT-ITM-style transit-stub model
//! ([`transit_stub`]), matching the paper's "simulated transit-stub network
//! topology with 600 nodes". [`waxman`] and [`simple`] provide lighter-weight
//! alternatives used by tests and ablation sweeps.

pub mod simple;
pub mod transit_stub;
pub mod waxman;

use crate::graph::{Graph, NodeId};

/// Role of a node inside a generated topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Backbone router inside transit domain `domain`.
    Transit {
        /// Transit-domain index.
        domain: u32,
    },
    /// Edge node inside stub domain `domain`, homed on transit node
    /// `gateway`.
    Stub {
        /// Stub-domain index (global numbering).
        domain: u32,
        /// The transit node this stub domain attaches to.
        gateway: NodeId,
    },
    /// Node of a generator that has no transit/stub structure.
    Plain,
}

/// A generated topology: the latency graph plus per-node role metadata.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The underlay latency graph.
    pub graph: Graph,
    /// `roles[node]`; same length as `graph.num_nodes()`.
    pub roles: Vec<NodeRole>,
}

impl Topology {
    /// Wraps a structureless graph.
    pub fn plain(graph: Graph) -> Self {
        let roles = vec![NodeRole::Plain; graph.num_nodes()];
        Topology { graph, roles }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Ids of all stub (edge) nodes. For a [`NodeRole::Plain`] topology this
    /// is empty; callers that need "any node" should fall back to
    /// [`Graph::nodes`].
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, NodeRole::Stub { .. }))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Ids of all transit (backbone) nodes.
    pub fn transit_nodes(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, NodeRole::Transit { .. }))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Nodes eligible to host services. Stub nodes when the topology has
    /// structure (overlay nodes live at the edge, as on PlanetLab), otherwise
    /// every node.
    pub fn host_candidates(&self) -> Vec<NodeId> {
        let stubs = self.stub_nodes();
        if stubs.is_empty() {
            self.graph.nodes().collect()
        } else {
            stubs
        }
    }
}

/// Connects `graph` by adding, one edge at a time, the closest
/// cross-component pair — the first `i < j` minimising `dist(i, j)` — at
/// latency `dist(i, j).max(floor)`.
fn stitch(graph: &mut Graph, dist: impl Fn(usize, usize) -> f64, floor: f64) {
    let n = graph.num_nodes();
    loop {
        let comp = graph.component_labels();
        if comp.iter().all(|&c| c == 0) {
            return;
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                if comp[i] != comp[j] {
                    let d = dist(i, j);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
        }
        let (i, j, d) = best.expect("a disconnected graph has a cross pair");
        graph.add_edge((i as u32).into(), (j as u32).into(), d.max(floor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_topology_has_plain_roles() {
        let t = Topology::plain(Graph::new(3));
        assert_eq!(t.roles, vec![NodeRole::Plain; 3]);
        assert!(t.stub_nodes().is_empty());
        assert_eq!(t.host_candidates().len(), 3);
    }
}
