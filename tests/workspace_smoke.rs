//! Workspace-wiring smoke test: exercises the `sbon` facade's re-export path
//! end-to-end (topology from `sbon::netsim`, cost space from `sbon::coords` +
//! `sbon::core`, one circuit placed via `sbon::core::IntegratedOptimizer`),
//! so a broken re-export or prelude entry can never ship.

use sbon::prelude::*;

#[test]
fn facade_reexports_support_an_end_to_end_placement() {
    // Build a small world purely through the facade paths.
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(60), 7);
    let latency = all_pairs_latency(&topo.graph);

    let embedding = VivaldiConfig::default().embed(&latency, 7);
    let mut rng = rng_from_seed(7);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.8 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);

    let hosts = topo.host_candidates();
    assert!(hosts.len() >= 5, "transit-stub world must expose host candidates");
    let query = QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2]], hosts[3], 10.0, 0.5);

    let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
    let outcome = optimizer.optimize(&query, &space, &latency).unwrap();
    assert!(outcome.cost.network_usage > 0.0, "placed circuit must consume network");
    assert!(outcome.cost.network_usage.is_finite());
}

#[test]
fn facade_module_paths_match_member_crates() {
    // Each facade module must be the same crate as the `sbon_*` member it
    // re-exports; referencing one type through both paths proves it.
    let a: sbon::netsim::graph::NodeId = NodeId(3);
    let b: NodeId = a;
    assert_eq!(b.0, 3);

    use sbon::hilbert::SpaceFillingCurve;
    let curve = sbon::hilbert::HilbertCurve::new(2, 4);
    let cell = curve.decode(curve.encode(&[5, 9]));
    assert_eq!(cell, vec![5, 9]);

    let plan: Option<LogicalPlan> = None;
    assert!(plan.is_none());

    let catalog = StreamCatalog::new();
    let _: &sbon::query::stream::StreamCatalog = &catalog;
}
