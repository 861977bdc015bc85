//! Underlay link-stress accounting.
//!
//! The fluid cost model charges a circuit link `rate × latency` without
//! saying *which physical links* carry the bytes. This module routes every
//! circuit link over the underlay's shortest path and accumulates the data
//! rate per physical edge — the "link stress" view used to find hot links
//! and to cross-validate the cost model: because shortest-path latency is
//! the sum of its edges' latencies, Σ (edge rate × edge latency) over the
//! underlay **exactly equals** the circuit's fluid network usage.
//!
//! Charging is **exactly invertible**: each edge keeps the multiset of
//! charged link rates (not a running float sum) and reports their total by
//! summing in sorted order, so [`LinkTraffic::discharge_circuit`] — which
//! routes over the same shortest paths and removes the same rates — leaves
//! every per-edge rate bit-identical to never having deployed. A running
//! `+=`/`-=` could not promise that: IEEE addition is not cancellative
//! (`(x + r) - r ≠ x` in general once circuits overlap on an edge).

use sbon_core::circuit::{Circuit, Placement};
use sbon_netsim::dijkstra::shortest_path;
use sbon_netsim::topology::Topology;

/// Data rate carried by each underlay edge (indexed like
/// [`sbon_netsim::graph::Graph::edges`]).
#[derive(Clone, Debug)]
pub struct LinkTraffic {
    /// Per-edge multiset of charged circuit-link rates, kept sorted
    /// (`total_cmp`) on insert. The edge's rate is their in-order sum, so
    /// it only depends on the multiset — not on the charge/discharge
    /// history that produced it.
    contributions: Vec<Vec<f64>>,
}

impl LinkTraffic {
    /// Zero traffic for a topology.
    pub fn zero(topology: &Topology) -> Self {
        LinkTraffic { contributions: vec![Vec::new(); topology.graph.num_edges()] }
    }

    /// Routes one placed circuit over the underlay, adding each circuit
    /// link's rate to every physical edge on its shortest path. Services
    /// co-located on one node add nothing.
    pub fn charge_circuit(
        &mut self,
        topology: &Topology,
        circuit: &Circuit,
        placement: &Placement,
    ) {
        self.route_circuit(topology, circuit, placement, true);
    }

    /// The exact inverse of [`LinkTraffic::charge_circuit`]: routes the
    /// circuit over the same shortest paths and removes the same rates from
    /// the same edges, leaving every per-edge rate **bit-identical** to
    /// never having deployed (module docs explain why a float subtraction
    /// could not). The underlay's latencies must not have changed in
    /// between — a changed shortest path would discharge an edge that was
    /// never charged, which panics.
    pub fn discharge_circuit(
        &mut self,
        topology: &Topology,
        circuit: &Circuit,
        placement: &Placement,
    ) {
        self.route_circuit(topology, circuit, placement, false);
    }

    /// Shared routing core of charge/discharge: one Dijkstra per circuit
    /// link, adding (or removing) the link's rate on every edge of the
    /// path.
    fn route_circuit(
        &mut self,
        topology: &Topology,
        circuit: &Circuit,
        placement: &Placement,
        charge: bool,
    ) {
        for l in circuit.links() {
            let from = placement.node_of(l.from);
            let to = placement.node_of(l.to);
            if from == to {
                continue;
            }
            let path = shortest_path(&topology.graph, from, to)
                .expect("placed circuits connect reachable nodes");
            for edge in path {
                let rates = &mut self.contributions[edge.index()];
                let pos = rates.partition_point(|r| r.total_cmp(&l.rate).is_lt());
                if charge {
                    rates.insert(pos, l.rate);
                } else {
                    assert!(
                        rates.get(pos).map(|r| r.to_bits()) == Some(l.rate.to_bits()),
                        "discharge must match a prior charge on every path edge"
                    );
                    rates.remove(pos);
                }
            }
        }
    }

    /// Rate on one edge: the sorted-order sum of its contributions (the
    /// list is maintained sorted, so this is a plain fold).
    pub fn rate_on(&self, edge_index: usize) -> f64 {
        self.contributions[edge_index].iter().sum()
    }

    /// The maximum per-edge rate (the hottest link).
    pub fn max_stress(&self) -> f64 {
        (0..self.contributions.len()).map(|e| self.rate_on(e)).fold(0.0, f64::max)
    }

    /// Indices and rates of the `k` hottest links, descending.
    pub fn top_hot_links(&self, k: usize) -> Vec<(usize, f64)> {
        let mut indexed: Vec<(usize, f64)> = (0..self.contributions.len())
            .map(|e| (e, self.rate_on(e)))
            .filter(|&(_, r)| r > 0.0)
            .collect();
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
        indexed.truncate(k);
        indexed
    }

    /// Σ over edges of `rate × edge latency` — must equal the sum of the
    /// charged circuits' fluid network usage (see module docs).
    pub fn total_usage(&self, topology: &Topology) -> f64 {
        topology.graph.edges().iter().enumerate().map(|(i, e)| self.rate_on(i) * e.latency_ms).sum()
    }

    /// Number of edges carrying any traffic.
    pub fn loaded_edges(&self) -> usize {
        (0..self.contributions.len()).filter(|&e| self.rate_on(e) > 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_coords::vivaldi::VivaldiConfig;
    use sbon_core::costspace::CostSpaceBuilder;
    use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec};
    use sbon_netsim::dijkstra::all_pairs_latency;
    use sbon_netsim::latency::LatencyProvider;
    use sbon_netsim::load::LoadModel;
    use sbon_netsim::rng::rng_from_seed;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    fn placed(seed: u64) -> (Topology, Circuit, Placement, f64) {
        let topo = generate(&TransitStubConfig::with_total_nodes(100), seed);
        let latency = all_pairs_latency(&topo.graph);
        let embedding = VivaldiConfig::default().embed(&latency, seed);
        let mut rng = rng_from_seed(seed);
        let loads = LoadModel::Random { lo: 0.0, hi: 0.5 }.generate(topo.num_nodes(), &mut rng);
        let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
        let hosts = topo.host_candidates();
        let q = QuerySpec::join_star(&[hosts[0], hosts[25], hosts[50]], hosts[75], 10.0, 0.02);
        let p = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        let usage =
            p.circuit.cost_with(&p.placement, &[], |a, b| latency.latency(a, b)).network_usage;
        (topo, p.circuit, p.placement, usage)
    }

    /// All per-edge rates, as bits (for exact comparisons).
    fn rate_bits(traffic: &LinkTraffic) -> Vec<u64> {
        (0..traffic.contributions.len()).map(|e| traffic.rate_on(e).to_bits()).collect()
    }

    #[test]
    fn underlay_usage_equals_fluid_usage() {
        for seed in [1u64, 2, 3] {
            let (topo, circuit, placement, fluid) = placed(seed);
            let mut traffic = LinkTraffic::zero(&topo);
            traffic.charge_circuit(&topo, &circuit, &placement);
            let underlay = traffic.total_usage(&topo);
            assert!(
                (underlay - fluid).abs() < 1e-6 * fluid.max(1.0),
                "seed {seed}: underlay {underlay} vs fluid {fluid}"
            );
        }
    }

    #[test]
    fn charging_twice_doubles_everything() {
        let (topo, circuit, placement, _) = placed(4);
        let mut once = LinkTraffic::zero(&topo);
        once.charge_circuit(&topo, &circuit, &placement);
        let mut twice = LinkTraffic::zero(&topo);
        twice.charge_circuit(&topo, &circuit, &placement);
        twice.charge_circuit(&topo, &circuit, &placement);
        assert!((twice.total_usage(&topo) - 2.0 * once.total_usage(&topo)).abs() < 1e-9);
        assert_eq!(twice.loaded_edges(), once.loaded_edges());
        assert!((twice.max_stress() - 2.0 * once.max_stress()).abs() < 1e-9);
    }

    #[test]
    fn hot_links_are_sorted_and_positive() {
        let (topo, circuit, placement, _) = placed(5);
        let mut traffic = LinkTraffic::zero(&topo);
        traffic.charge_circuit(&topo, &circuit, &placement);
        let hot = traffic.top_hot_links(5);
        assert!(!hot.is_empty());
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(hot[0].1, traffic.max_stress());
    }

    #[test]
    fn discharge_is_the_exact_inverse_of_charge() {
        let (topo, circuit, placement, _) = placed(7);
        let mut traffic = LinkTraffic::zero(&topo);
        let baseline = rate_bits(&traffic);
        traffic.charge_circuit(&topo, &circuit, &placement);
        assert!(traffic.loaded_edges() > 0);
        traffic.discharge_circuit(&topo, &circuit, &placement);
        assert_eq!(
            rate_bits(&traffic),
            baseline,
            "discharge must leave rates bit-identical to baseline"
        );
        // With another circuit in the background: charge A, charge B,
        // discharge B — bit-identical to the A-only state even where the
        // two circuits' paths overlap on an edge.
        // B was optimized on its own equally-sized world, so its placement
        // indexes are valid here; only the routing matters for this test.
        let (_, b_circuit, b_placement, _) = placed(8);
        traffic.charge_circuit(&topo, &circuit, &placement);
        let a_only = rate_bits(&traffic);
        traffic.charge_circuit(&topo, &b_circuit, &b_placement);
        traffic.discharge_circuit(&topo, &b_circuit, &b_placement);
        assert_eq!(rate_bits(&traffic), a_only);
    }

    #[test]
    #[should_panic(expected = "discharge must match a prior charge")]
    fn discharging_an_uncharged_circuit_panics() {
        let (topo, circuit, placement, _) = placed(9);
        let mut traffic = LinkTraffic::zero(&topo);
        traffic.discharge_circuit(&topo, &circuit, &placement);
    }

    #[test]
    fn zero_traffic_reports_nothing() {
        let (topo, _, _, _) = placed(6);
        let traffic = LinkTraffic::zero(&topo);
        assert_eq!(traffic.loaded_edges(), 0);
        assert_eq!(traffic.max_stress(), 0.0);
        assert!(traffic.top_hot_links(3).is_empty());
        assert_eq!(traffic.total_usage(&topo), 0.0);
    }
}
