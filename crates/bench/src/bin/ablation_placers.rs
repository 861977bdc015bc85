//! **A2 — ablation**: relaxation vs centroid vs gradient virtual placement.
//!
//! Section 3.2 names spring relaxation as the reference algorithm and
//! centroid / gradient descent as alternatives. This ablation measures all
//! three on the same circuits: final circuit network usage (after oracle
//! mapping), the virtual (pre-mapping) objective, and placement time.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench binary: wall-clock timing is the measurement itself"
)]

use std::time::Instant;

use sbon_bench::{
    build_world, known_failure_unless, pick_hosts, printed, section, verdict, WorldConfig,
};
use sbon_core::circuit::Circuit;
use sbon_core::optimizer::QuerySpec;
use sbon_core::placement::{
    map_circuit, optimal_tree_placement, CentroidPlacer, GradientPlacer, OracleMapper,
    RelaxationPlacer, VirtualPlacer,
};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;

fn main() {
    section("A2 — virtual placement ablation: relaxation vs centroid vs gradient");
    let world = build_world(&WorldConfig::default(), 33);
    let mut rng = derive_rng(33, 0xA2);
    let hosts_all = world.topology.host_candidates();

    let placers: Vec<(&str, Box<dyn VirtualPlacer>)> = vec![
        ("relaxation", Box::new(RelaxationPlacer::default())),
        ("centroid", Box::new(CentroidPlacer)),
        ("gradient", Box::new(GradientPlacer::default())),
    ];

    // Workload: 60 five-way joins (deep circuits separate the placers).
    let trials = 60;
    let mut circuits = Vec::new();
    for _ in 0..trials {
        let picked = pick_hosts(&world, 6, &mut rng);
        let query = QuerySpec::join_star(&picked[..5], picked[5], 10.0, 0.02);
        let plan = sbon_query::enumerate::dp_best_plan(&query.catalog, &query.join_set).0;
        let circuit = Circuit::from_plan(&plan, &query.catalog, query.consumer);
        let (_, optimal) =
            optimal_tree_placement(&circuit, &hosts_all, |a, b| world.latency.latency(a, b));
        circuits.push((circuit, optimal));
    }

    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>10}",
        "placer", "virtual cost", "mapped usage", "vs optimal", "µs/place"
    );
    // Per placer, its means as the table prints them: virtual cost and
    // mapped usage to one decimal, the ratio to optimal to three.
    let mut rows = Vec::new();
    for (name, placer) in &placers {
        let mut virtual_cost = Vec::new();
        let mut mapped_usage = Vec::new();
        let mut vs_optimal = Vec::new();
        let mut micros = Vec::new();
        for (circuit, optimal) in &circuits {
            let start = Instant::now();
            let vp = placer.place(circuit, &world.space);
            micros.push(start.elapsed().as_secs_f64() * 1e6);
            virtual_cost.push(vp.virtual_cost(circuit));
            let mut mapper = OracleMapper;
            let mapped = map_circuit(circuit, &vp, &world.space, &mut mapper);
            let usage = circuit
                .cost_with(&mapped.placement, &[], |a, b| world.latency.latency(a, b))
                .network_usage;
            mapped_usage.push(usage);
            vs_optimal.push(usage / optimal.max(1e-9));
        }
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>12.3} {:>10.1}",
            name,
            Summary::of(&virtual_cost).mean,
            Summary::of(&mapped_usage).mean,
            Summary::of(&vs_optimal).mean,
            Summary::of(&micros).mean,
        );
        rows.push((
            *name,
            printed(Summary::of(&virtual_cost).mean, 1),
            printed(Summary::of(&mapped_usage).mean, 1),
            printed(Summary::of(&vs_optimal).mean, 3),
        ));
    }

    // "A modest factor" read as at most 2× the omniscient DP's usage; the
    // paper gives no number.
    const MODEST_FACTOR: f64 = 2.0;
    let [relaxation, centroid, gradient] = [0, 1, 2].map(|i| rows[i]);
    // Whether placer `a` is at or below placer `b` on both objectives.
    let below = |(_, virtual_a, usage_a, _): (&str, f64, f64, f64),
                 (_, virtual_b, usage_b, _): (&str, f64, f64, f64)| {
        let pass = virtual_a <= virtual_b && usage_a <= usage_b;
        let values = format!(
            "virtual cost {virtual_a:.1} ≤ {virtual_b:.1}, mapped usage {usage_a:.1} ≤ {usage_b:.1}"
        );
        (Some(pass), values)
    };
    let worst = rows.iter().copied().max_by(|a, b| a.3.total_cmp(&b.3)).expect("three placers");
    let (structure_aware, structure_values) = below(relaxation, centroid);
    let (refines, refines_values) = below(gradient, relaxation);
    let clauses = [
        (
            "shape check: relaxation ≤ centroid on deep circuits (structure-aware)",
            structure_aware,
            structure_values,
        ),
        ("gradient refines relaxation slightly on the linear objective", refines, refines_values),
        (
            "at extra iteration cost",
            None,
            "host time: the µs/place column is not part of the checked output".to_string(),
        ),
        (
            "all remain within a modest factor of the omniscient DP",
            Some(worst.3 <= MODEST_FACTOR),
            format!("worst mean vs optimal {:.3} ({}) ≤ {MODEST_FACTOR:.1}", worst.3, worst.0),
        ),
    ];
    println!();
    for (clause, pass, values) in &clauses {
        println!("{clause}: {} ({values})", pass.map_or("not evaluated", verdict));
    }
    known_failure_unless(clauses.iter().all(|(_, pass, _)| *pass != Some(false)));
}
