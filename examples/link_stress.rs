//! Underlay link stress: where do a workload's bytes actually flow?
//!
//! The optimizer's objective — network usage = Σ rate × latency — says how
//! much data is in transit, not which physical links carry it. This example
//! deploys 12 circuits, routes them over the underlay's shortest paths, and
//! prints the hottest physical links, comparing the integrated optimizer
//! against the two-step baseline. Network-aware placement not only lowers
//! total usage, it also spreads load off the backbone.
//!
//! ```sh
//! cargo run --release --example link_stress
//! ```

use sbon::netsim::topology::NodeRole;
use sbon::overlay::LinkTraffic;
use sbon::prelude::*;

fn main() {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(200), 13);
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig::default().embed(&latency, 13);
    let mut rng = rng_from_seed(13);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.6 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
    let hosts = topo.host_candidates();

    let queries: Vec<QuerySpec> = (0..12)
        .map(|q| {
            let b = (q * 13) % (hosts.len() - 5);
            QuerySpec::join_star(
                &[hosts[b], hosts[b + 1], hosts[b + 2], hosts[b + 3]],
                hosts[b + 4],
                10.0,
                0.02,
            )
        })
        .collect();

    let report = |label: &str, usage_and_traffic: (f64, LinkTraffic)| {
        let (usage, traffic) = usage_and_traffic;
        println!("\n{label}:");
        println!(
            "  total network usage {usage:.1}; {} underlay links loaded",
            traffic.loaded_edges()
        );
        println!("  hottest links (rate / latency / kind):");
        for (edge_idx, rate) in traffic.top_hot_links(5) {
            let e = &topo.graph.edges()[edge_idx];
            let kind = match (&topo.roles[e.a.index()], &topo.roles[e.b.index()]) {
                (NodeRole::Transit { .. }, NodeRole::Transit { .. }) => "backbone",
                (NodeRole::Stub { .. }, NodeRole::Stub { .. }) => "stub",
                _ => "access",
            };
            println!("    {} ↔ {}  rate {:>7.1}  {:>6.1} ms  {kind}", e.a, e.b, rate, e.latency_ms);
        }
        println!("  max link stress: {:.1}", traffic.max_stress());
    };

    for (label, integrated) in [("two-step baseline", false), ("integrated optimizer", true)] {
        let mut traffic = LinkTraffic::zero(&topo);
        let mut usage = 0.0;
        for q in &queries {
            let placed = if integrated {
                IntegratedOptimizer::new(OptimizerConfig::default())
                    .optimize(q, &space, &latency)
                    .expect("optimizes")
            } else {
                TwoStepOptimizer::new().optimize(q, &space, &latency).expect("optimizes")
            };
            traffic.charge_circuit(&topo, &placed.circuit, &placed.placement);
            usage += placed.cost.network_usage;
        }
        report(label, (usage, traffic));
    }
}
