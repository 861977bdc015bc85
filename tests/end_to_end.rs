//! End-to-end integration: topology → coordinates → cost space → optimizer,
//! across several seeds. These tests pin down the cross-crate behaviour the
//! figures rely on.

use sbon::core::placement::optimal_tree_placement;
use sbon::netsim::rng::derive_rng;
use sbon::prelude::*;

fn world(nodes: usize, seed: u64) -> (Topology, LatencyMatrix, sbon::core::costspace::CostSpace) {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(nodes), seed);
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig::default().embed(&latency, seed);
    let mut rng = rng_from_seed(seed);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.7 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
    (topo, latency, space)
}

fn random_query(topo: &Topology, seed: u64, producers: usize) -> QuerySpec {
    let mut rng = derive_rng(seed, 0xe2e);
    let hosts = topo.host_candidates();
    let mut picked = Vec::new();
    while picked.len() < producers + 1 {
        let h = hosts[rand::Rng::gen_range(&mut rng, 0..hosts.len())];
        if !picked.contains(&h) {
            picked.push(h);
        }
    }
    let consumer = picked.pop().unwrap();
    QuerySpec::join_star(&picked, consumer, 10.0, 0.02)
}

#[test]
fn integrated_dominates_two_step_on_its_selection_metric() {
    for seed in 0..6u64 {
        let (topo, latency, space) = world(150, seed);
        let q = random_query(&topo, seed, 4);
        let int = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        let two = TwoStepOptimizer::new().optimize(&q, &space, &latency).unwrap();
        // The two-step plan is within the integrated candidate set, placed
        // by the same pipeline, so the integrated estimate can never lose.
        assert!(
            int.estimated.network_usage <= two.estimated.network_usage + 1e-9,
            "seed {seed}: integrated {} vs two-step {}",
            int.estimated.network_usage,
            two.estimated.network_usage
        );
    }
}

#[test]
fn integrated_usually_beats_two_step_on_measured_usage() {
    let mut wins = 0;
    let trials = 10;
    for seed in 0..trials {
        let (topo, latency, space) = world(150, seed);
        let q = random_query(&topo, seed, 4);
        let int = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        let two = TwoStepOptimizer::new().optimize(&q, &space, &latency).unwrap();
        if int.cost.network_usage <= two.cost.network_usage + 1e-9 {
            wins += 1;
        }
    }
    // Embedding error can flip individual instances; the aggregate must
    // clearly favour the integrated optimizer (paper's Figure 1 argument).
    assert!(wins * 2 > trials, "integrated won only {wins}/{trials}");
}

#[test]
fn cost_space_pipeline_is_within_factor_of_omniscient_optimum() {
    let mut ratios = Vec::new();
    for seed in 0..6u64 {
        let (topo, latency, space) = world(150, seed);
        let q = random_query(&topo, seed, 4);
        let int = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        let hosts = topo.host_candidates();
        let (_, optimal) =
            optimal_tree_placement(&int.circuit, &hosts, |a, b| latency.latency(a, b));
        ratios.push(int.cost.network_usage / optimal.max(1e-9));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean < 4.0,
        "cost-space pipeline should stay within a small factor of optimal, got {mean} ({ratios:?})"
    );
    assert!(ratios.iter().all(|&r| r >= 1.0 - 1e-6), "nothing beats the optimum: {ratios:?}");
}

#[test]
fn dht_mapped_circuits_stay_close_to_oracle_mapped() {
    use sbon::core::placement::DhtMapper;
    for seed in 0..4u64 {
        let (topo, latency, space) = world(150, seed);
        let q = random_query(&topo, seed, 3);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let oracle = opt.optimize(&q, &space, &latency).unwrap();
        let mut dht = DhtMapper::build(&space, 12, 8);
        let dhted = opt.optimize_with_mapper(&q, &space, &latency, &mut dht).unwrap();
        assert!(dhted.mapping_hops > 0, "DHT must route");
        assert!(
            dhted.cost.network_usage <= oracle.cost.network_usage * 1.8 + 1e-9,
            "seed {seed}: dht {} vs oracle {}",
            dhted.cost.network_usage,
            oracle.cost.network_usage
        );
    }
}

#[test]
fn consumer_and_producers_never_move() {
    let (topo, latency, space) = world(120, 3);
    let q = random_query(&topo, 3, 4);
    let placed = IntegratedOptimizer::new(OptimizerConfig::default())
        .optimize(&q, &space, &latency)
        .unwrap();
    assert_eq!(placed.placement.node_of(placed.circuit.root()), q.consumer);
    for s in placed.circuit.services() {
        if let sbon::core::circuit::ServiceKind::Producer(stream) = &s.kind {
            assert_eq!(placed.placement.node_of(s.id), q.catalog.get(*stream).producer);
        }
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (topo, latency, space) = world(120, 9);
        let q = random_query(&topo, 9, 4);
        let placed = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        (placed.plan.render(), placed.cost.network_usage)
    };
    assert_eq!(run(), run());
}

#[test]
fn higher_dimensional_latency_space_works_end_to_end() {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(120), 4);
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig { dims: 4, ..Default::default() }.embed(&latency, 4);
    let mut rng = rng_from_seed(4);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.7 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
    assert_eq!(space.dims(), 5);
    let q = random_query(&topo, 4, 3);
    let placed = IntegratedOptimizer::new(OptimizerConfig::default())
        .optimize(&q, &space, &latency)
        .unwrap();
    assert!(placed.cost.network_usage > 0.0);
}
