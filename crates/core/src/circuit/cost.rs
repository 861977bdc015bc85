//! Placements and the circuit cost model.
//!
//! The objective relaxation placement minimizes — and the metric every
//! experiment reports — is **network usage**: "the amount of data in transit
//! in the network" = Σ over circuit links of `rate × latency`. End-to-end
//! data latency (max producer→consumer path) is reported alongside, since
//! Figure 1 discusses "total data latency".

use sbon_netsim::graph::NodeId;

use crate::circuit::{Circuit, ServiceId, ServicePin};

/// An assignment of every service of one circuit to a physical node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement(Vec<NodeId>);

impl Placement {
    /// Wraps an assignment, validating length and pinned services.
    pub fn new(circuit: &Circuit, nodes: Vec<NodeId>) -> Self {
        assert_eq!(nodes.len(), circuit.len(), "one node per service");
        for s in circuit.services() {
            if let ServicePin::Pinned(n) = s.pin {
                assert_eq!(nodes[s.id.index()], n, "pinned service {:?} must stay at {n}", s.id);
            }
        }
        Placement(nodes)
    }

    /// The node hosting a service.
    pub fn node_of(&self, sid: ServiceId) -> NodeId {
        self.0[sid.index()]
    }

    /// All assignments, indexed by service id.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.0
    }

    /// Re-homes one service (migration). The caller is responsible for not
    /// moving pinned services.
    pub fn move_service(&mut self, sid: ServiceId, node: NodeId) {
        self.0[sid.index()] = node;
    }
}

/// Cost of a placed circuit under some distance function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CircuitCost {
    /// Σ link `rate × distance` — the paper's network-usage objective.
    pub network_usage: f64,
    /// Longest producer→consumer path distance (worst-case data latency).
    pub max_path_latency: f64,
    /// Σ link distances (total stretch, rate-insensitive).
    pub total_link_latency: f64,
}

impl CircuitCost {
    /// A zero cost (empty circuit).
    pub const ZERO: CircuitCost =
        CircuitCost { network_usage: 0.0, max_path_latency: 0.0, total_link_latency: 0.0 };
}

impl Circuit {
    /// Costs a placement under an arbitrary node-distance function. Pass the
    /// ground-truth latency for *measured* cost or the cost-space vector
    /// distance for the *estimated* cost a decentralized optimizer would
    /// act on.
    ///
    /// `free` is the circuit's shared mask under multi-query reuse
    /// ([`Link::is_free`](crate::circuit::Link::is_free)): a free link is
    /// paid for by the reused instance's owner, so it adds nothing to
    /// `network_usage` or `total_link_latency` — the result is the circuit's
    /// *marginal* cost. `max_path_latency` still walks every link, because
    /// the data still crosses them. An empty mask frees nothing.
    pub fn cost_with(
        &self,
        placement: &Placement,
        free: &[bool],
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> CircuitCost {
        let mut network_usage = 0.0;
        let mut total_link_latency = 0.0;
        // Longest leaf → service path so far. Children-first numbering (see
        // `Circuit`): every in-link of a service is walked before its uplink
        // reads its depth.
        let mut depth = vec![0.0_f64; self.len()];
        for l in self.links() {
            let d = dist(placement.node_of(l.from), placement.node_of(l.to));
            debug_assert!(d.is_finite() && d >= 0.0, "distance must be finite");
            if !l.is_free(free) {
                network_usage += l.rate * d;
                total_link_latency += d;
            }
            depth[l.to.index()] = depth[l.to.index()].max(depth[l.from.index()] + d);
        }
        let max_path_latency = depth[self.root().index()];
        CircuitCost { network_usage, max_path_latency, total_link_latency }
    }

    /// A lower bound on [`CircuitCost::network_usage`] over **every**
    /// placement of the unpinned services, for any `dist` that obeys the
    /// triangle inequality (the cost space's Euclidean
    /// `CostSpace::vector_distance` does). `O(services)`; reads `dist`
    /// between pinned hosts only.
    ///
    /// Path packing: route flows between pinned services along the service
    /// tree so that the flows sharing a link never exceed its rate. A flow
    /// `w` between pinned hosts `a` and `b` costs any placement at least
    /// `w · dist(a, b)` — the path's links each carry `w`, and their lengths
    /// sum to at least `dist(a, b)`. Links are walked children-first, each
    /// subtree offering its parent one *open end* `(pinned host, flow still
    /// unrouted)`, capped by every link it climbs: a pinned parent terminates
    /// the end on itself and opens a fresh one; an unpinned parent pairs the
    /// end with the one it already holds — the smaller flow is routed between
    /// the two hosts, the larger side's remainder stays open.
    ///
    /// Under a shared mask `free` the bound floors the *marginal* usage
    /// [`Circuit::cost_with`] reports for the same mask: free links are
    /// skipped, which only drops the flows that would have been routed along
    /// them, and a reused root — pinned at its instance's host — opens a
    /// fresh end for the links above it, as any pinned service does.
    pub fn usage_lower_bound(
        &self,
        free: &[bool],
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> f64 {
        // Children-first numbering (see `Circuit`): by the time a link is
        // walked its upstream end is final.
        let mut open: Vec<Option<(NodeId, f64)>> = self
            .services()
            .iter()
            .map(|s| match s.pin {
                ServicePin::Pinned(n) => Some((n, f64::INFINITY)),
                ServicePin::Unpinned => None,
            })
            .collect();
        let mut bound = 0.0;
        for l in self.links() {
            debug_assert!(l.from < l.to, "services are numbered children-first");
            if l.is_free(free) {
                continue;
            }
            let Some((host, flow)) = open[l.from.index()] else { continue };
            let flow = flow.min(l.rate);
            match (self.service(l.to).pin, open[l.to.index()]) {
                (ServicePin::Pinned(pin), _) => bound += flow * dist(host, pin),
                (ServicePin::Unpinned, None) => open[l.to.index()] = Some((host, flow)),
                (ServicePin::Unpinned, Some((held, held_flow))) => {
                    bound += flow.min(held_flow) * dist(held, host);
                    open[l.to.index()] = Some(if held_flow >= flow {
                        (held, held_flow - flow)
                    } else {
                        (host, flow - held_flow)
                    });
                }
            }
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::catalog;
    use sbon_query::plan::LogicalPlan;
    use sbon_query::stream::StreamId;

    fn simple_circuit() -> Circuit {
        let stats = catalog(0.1, &[(10.0, NodeId(0)), (20.0, NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        Circuit::from_plan(&plan, &stats, NodeId(9))
    }

    /// Distance = |a − b| over node indices: a 1-D line network.
    fn line_dist(a: NodeId, b: NodeId) -> f64 {
        (a.0 as f64 - b.0 as f64).abs()
    }

    #[test]
    fn placement_validates_pins() {
        let c = simple_circuit();
        // services: p0@0, p1@1, join (unpinned), consumer@9.
        let p = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(5), NodeId(9)]);
        assert_eq!(p.node_of(ServiceId(2)), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "pinned service")]
    fn placement_rejects_moved_pin() {
        let c = simple_circuit();
        Placement::new(&c, vec![NodeId(3), NodeId(1), NodeId(5), NodeId(9)]);
    }

    #[test]
    #[should_panic(expected = "one node per service")]
    fn placement_rejects_wrong_arity() {
        let c = simple_circuit();
        Placement::new(&c, vec![NodeId(0)]);
    }

    #[test]
    fn network_usage_is_rate_weighted() {
        let c = simple_circuit();
        let p = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(1), NodeId(9)]);
        // Links: p0(rate 10) 0→1 dist 1; p1(rate 20) 1→1 dist 0;
        // join out (rate 0.1·10·20=20) 1→9 dist 8.
        let cost = c.cost_with(&p, &[], line_dist);
        assert!((cost.network_usage - (10.0 * 1.0 + 20.0 * 0.0 + 20.0 * 8.0)).abs() < 1e-9);
        assert!((cost.total_link_latency - 9.0).abs() < 1e-9);
    }

    #[test]
    fn max_path_latency_is_worst_leaf() {
        let c = simple_circuit();
        let p = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(4), NodeId(9)]);
        // Paths: p0: |0−4| + |4−9| = 9; p1: |1−4| + |4−9| = 8.
        let cost = c.cost_with(&p, &[], line_dist);
        assert!((cost.max_path_latency - 9.0).abs() < 1e-9);
    }

    #[test]
    fn better_join_placement_lowers_cost() {
        let c = simple_circuit();
        let bad = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(20), NodeId(9)]);
        let good = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(9)]);
        assert!(
            c.cost_with(&good, &[], line_dist).network_usage
                < c.cost_with(&bad, &[], line_dist).network_usage
        );
    }

    #[test]
    fn move_service_changes_cost() {
        let c = simple_circuit();
        let mut p = Placement::new(&c, vec![NodeId(0), NodeId(1), NodeId(20), NodeId(9)]);
        let before = c.cost_with(&p, &[], line_dist).network_usage;
        let join_sid = c.unpinned_services()[0];
        p.move_service(join_sid, NodeId(2));
        assert!(c.cost_with(&p, &[], line_dist).network_usage < before);
    }
}
