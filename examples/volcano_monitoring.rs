//! Volcano monitoring: the paper's motivating pinned-producer scenario.
//!
//! "Often an SBON is used to relay real-time data from a particular data
//! source ... live sensor readings from a volcano originate at a particular
//! volcano; one cannot move mountains." (Section 2, citing the Harvard
//! volcano sensor-network deployment [9].)
//!
//! Seismometer and infrasound streams originate in one stub domain (the
//! volcano's uplink); an observatory consumer lives far away. Filters
//! (station-side triggering) and a correlating join must be placed
//! in-network. We show where the optimizer puts them and what pushing the
//! filters to the sources is worth.
//!
//! ```sh
//! cargo run --release --example volcano_monitoring
//! ```

use sbon::netsim::topology::NodeRole;
use sbon::prelude::*;
use sbon::query::stream::StreamCatalog;

fn main() {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(300), 7);
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig::default().embed(&latency, 7);
    let mut rng = rng_from_seed(7);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.5 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);

    // The "volcano": every sensor uplinks through one stub domain.
    let volcano_domain: Vec<NodeId> = topo
        .roles
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            NodeRole::Stub { domain, .. } if *domain == 3 => Some(NodeId(i as u32)),
            _ => None,
        })
        .collect();
    // The observatory: a stub node in a different part of the world.
    let observatory = *topo
        .host_candidates()
        .iter()
        .rev()
        .find(|n| !volcano_domain.contains(n))
        .expect("some node is far from the volcano");

    println!(
        "volcano stub domain: {} sensor uplink nodes; observatory at {}",
        volcano_domain.len(),
        observatory
    );

    // Streams: two seismometers and one infrasound microphone, high-rate.
    let mut streams = StreamCatalog::new();
    streams.set_default_selectivity(0.01);
    let seismo_a = streams.register("seismo-a", 50.0, volcano_domain[0]);
    let seismo_b = streams.register("seismo-b", 50.0, volcano_domain[1 % volcano_domain.len()]);
    let infra = streams.register("infrasound", 20.0, volcano_domain[2 % volcano_domain.len()]);

    let base = QuerySpec::new(streams, vec![seismo_a, seismo_b, infra], observatory);

    // Variant 1: raw correlation (no source filtering).
    let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
    let raw = optimizer.optimize(&base, &space, &latency).expect("optimizes");

    // Variant 2: station-side event triggering — filters that pass 5% of
    // samples, attached above each seismometer.
    let filtered_query =
        base.clone().with_source_filter(seismo_a, 0.05).with_source_filter(seismo_b, 0.05);
    let filtered = optimizer.optimize(&filtered_query, &space, &latency).expect("optimizes");

    println!("\nraw correlation plan:      {}", raw.plan);
    println!(
        "  network usage {:.1}, worst path {:.1} ms",
        raw.cost.network_usage, raw.cost.max_path_latency
    );
    println!("triggered (σ=0.05) plan:   {}", filtered.plan);
    println!(
        "  network usage {:.1}, worst path {:.1} ms",
        filtered.cost.network_usage, filtered.cost.max_path_latency
    );
    println!(
        "\nstation-side triggering cuts network usage by {:.1}%",
        100.0 * (1.0 - filtered.cost.network_usage / raw.cost.network_usage)
    );

    // Where did the services land? Near the volcano: the optimizer keeps
    // high-rate links short by pushing operators toward the sources.
    let near = |n: NodeId| {
        volcano_domain.iter().map(|&v| latency.latency(n, v)).fold(f64::INFINITY, f64::min)
    };
    println!("\noperator hosts (distance to the volcano's stub domain):");
    for s in filtered.circuit.services() {
        if s.is_unpinned() {
            let host = filtered.placement.node_of(s.id);
            println!("  service {:?} -> {}  ({:.1} ms from the volcano)", s.id, host, near(host));
        }
    }
    let consumer_dist = near(observatory);
    println!("  (observatory itself is {consumer_dist:.1} ms away)");
}
