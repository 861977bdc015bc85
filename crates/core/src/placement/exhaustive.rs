//! Exhaustive (omniscient) optimal placement for tree circuits.
//!
//! The "traditional service placement" baseline of the C3 scale experiment:
//! a centralized optimizer that knows the full `n × n` latency matrix and
//! solves the tree placement *exactly* by dynamic programming over
//! `(service, host)` pairs — `O(services × n²)` time, `O(services × n)`
//! space. This is what the paper says stops scaling once the overlay has
//! "hundreds or thousands of physical node choices": not because a poly
//! algorithm doesn't exist, but because it needs global, fresh, all-pairs
//! state and quadratic work per query. It also serves as the quality
//! yardstick for the cost-space pipeline: how close virtual placement +
//! mapping gets to the true optimum.

use sbon_netsim::graph::NodeId;

use crate::circuit::{Circuit, Placement, ServiceId, ServicePin};

/// Computes the minimum-network-usage placement of a tree circuit given a
/// ground-truth distance oracle and the candidate host set for unpinned
/// services. Pinned services stay put. Returns the placement and its
/// optimal network usage.
///
/// Panics if `hosts` is empty. The circuit must be a tree, which
/// [`Circuit::from_plan`] always builds.
pub fn optimal_tree_placement(
    circuit: &Circuit,
    hosts: &[NodeId],
    mut dist: impl FnMut(NodeId, NodeId) -> f64,
) -> (Placement, f64) {
    assert!(!hosts.is_empty(), "need at least one candidate host");

    /// One service's row of the DP.
    struct Dp {
        /// Per candidate host: (minimal cost of the links below this service
        /// — not its own uplink — when it is hosted there, the candidate
        /// index that choice gives each child).
        table: Vec<(f64, Vec<usize>)>,
        /// The pin for a pinned service, `hosts` otherwise.
        cands: Vec<NodeId>,
        children: Vec<ServiceId>,
    }

    // Children-first numbering (see `Circuit`): in id order a service's
    // children are solved before it, so `dp` is indexed by service.
    let mut dp: Vec<Dp> = Vec::with_capacity(circuit.len());
    for s in circuit.services() {
        let children = circuit.children(s.id);
        let cands = match s.pin {
            ServicePin::Pinned(n) => vec![n],
            ServicePin::Unpinned => hosts.to_vec(),
        };
        let mut table = Vec::with_capacity(cands.len());
        for &host in &cands {
            let mut cost = 0.0;
            let mut picks = Vec::with_capacity(children.len());
            for &child in &children {
                let cdp = &dp[child.index()];
                let uplink_rate = circuit.service(child).output_rate;
                let mut best = f64::INFINITY;
                let mut best_i = 0;
                for (i, &cn) in cdp.cands.iter().enumerate() {
                    let total = cdp.table[i].0 + uplink_rate * dist(cn, host);
                    if total < best {
                        best = total;
                        best_i = i;
                    }
                }
                cost += best;
                picks.push(best_i);
            }
            table.push((cost, picks));
        }
        dp.push(Dp { table, cands, children });
    }

    // The consumer picks its best candidate; descending ids hand each choice
    // down to the children.
    let root = circuit.root().index();
    let root_costs = dp[root].table.iter().map(|t| t.0).enumerate();
    let (best_i, best_cost) =
        root_costs.min_by(|a, b| a.1.total_cmp(&b.1)).expect("root has at least one candidate");
    let mut choice = vec![0; circuit.len()];
    choice[root] = best_i;
    let mut nodes = vec![NodeId(0); circuit.len()];
    for (sid, d) in dp.iter().enumerate().rev() {
        nodes[sid] = d.cands[choice[sid]];
        for (&child, &pick) in d.children.iter().zip(&d.table[choice[sid]].1) {
            choice[child.index()] = pick;
        }
    }
    (Placement::new(circuit, nodes), best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::catalog;
    use sbon_query::plan::LogicalPlan;
    use sbon_query::stream::StreamId;

    fn line_dist(a: NodeId, b: NodeId) -> f64 {
        (a.0 as f64 - b.0 as f64).abs()
    }

    fn join_circuit() -> Circuit {
        // Producers at nodes 0 and 10, consumer at node 5.
        let stats = catalog(0.01, &[(10.0, NodeId(0)), (10.0, NodeId(10))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        Circuit::from_plan(&plan, &stats, NodeId(5))
    }

    #[test]
    fn dp_matches_brute_force_on_single_service() {
        let circuit = join_circuit();
        let hosts: Vec<NodeId> = (0..11).map(NodeId).collect();
        let (placement, cost) = optimal_tree_placement(&circuit, &hosts, line_dist);
        // Brute force over the single unpinned service.
        let join = circuit.unpinned_services()[0];
        let mut best = f64::INFINITY;
        for &h in &hosts {
            let mut p = placement.clone();
            p.move_service(join, h);
            best = best.min(circuit.cost_with(&p, &[], line_dist).network_usage);
        }
        assert!((cost - best).abs() < 1e-9, "dp={cost} brute={best}");
        assert!(
            (circuit.cost_with(&placement, &[], line_dist).network_usage - cost).abs() < 1e-9,
            "reported cost must match the reconstructed placement"
        );
    }

    #[test]
    fn dp_matches_brute_force_on_two_services() {
        let stats = catalog(0.05, &[(10.0, NodeId(0)), (10.0, NodeId(6)), (10.0, NodeId(12))]);
        let plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1))),
            LogicalPlan::source(StreamId(2)),
        );
        let circuit = Circuit::from_plan(&plan, &stats, NodeId(3));
        let hosts: Vec<NodeId> = (0..13).map(NodeId).collect();
        let (placement, cost) = optimal_tree_placement(&circuit, &hosts, line_dist);

        let unpinned = circuit.unpinned_services();
        assert_eq!(unpinned.len(), 2);
        let mut best = f64::INFINITY;
        for &h1 in &hosts {
            for &h2 in &hosts {
                let mut p = placement.clone();
                p.move_service(unpinned[0], h1);
                p.move_service(unpinned[1], h2);
                best = best.min(circuit.cost_with(&p, &[], line_dist).network_usage);
            }
        }
        assert!((cost - best).abs() < 1e-9, "dp={cost} brute={best}");
    }

    #[test]
    fn pinned_services_stay_put() {
        let circuit = join_circuit();
        let hosts: Vec<NodeId> = (0..11).map(NodeId).collect();
        let (placement, _) = optimal_tree_placement(&circuit, &hosts, line_dist);
        assert_eq!(placement.node_of(circuit.root()), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_host_set_rejected() {
        let circuit = join_circuit();
        optimal_tree_placement(&circuit, &[], line_dist);
    }
}
