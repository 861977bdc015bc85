//! Multi-query optimization across crates: shared stream catalogs, radius
//! sweeps, and the marginal-cost accounting.

use rand::Rng;

use sbon::core::circuit::{Operator, ServiceKind};
use sbon::core::multiquery::{MultiQueryOptimizer, ReuseScope};
use sbon::netsim::rng::derive_rng;
use sbon::prelude::*;
use sbon::query::plan::BinaryOp;
use sbon::query::stream::{StreamCatalog, StreamId};

struct Fixture {
    latency: LatencyMatrix,
    space: sbon::core::costspace::CostSpace,
    streams: StreamCatalog,
    hosts: Vec<NodeId>,
    optimizer: IntegratedOptimizer,
}

fn fixture(seed: u64) -> Fixture {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(150), seed);
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig::default().embed(&latency, seed);
    let mut rng = rng_from_seed(seed);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.5 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
    let hosts = topo.host_candidates();
    let mut streams = StreamCatalog::new();
    streams.set_default_selectivity(0.02);
    for i in 0..8 {
        let host = hosts[rng.gen_range(0..hosts.len())];
        streams.register(format!("feed{i}"), 10.0, host);
    }
    Fixture { latency, space, streams, hosts, optimizer: IntegratedOptimizer::default() }
}

fn query(f: &Fixture, streams: &[u32], consumer_idx: usize) -> QuerySpec {
    QuerySpec::new(
        f.streams.clone(),
        streams.iter().map(|&i| StreamId(i)).collect(),
        f.hosts[consumer_idx],
    )
}

#[test]
fn identical_queries_from_different_consumers_share_work() {
    let f = fixture(1);
    let mut mq = MultiQueryOptimizer::default();
    let first = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1], 5),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    assert!(first.placed.reused.is_empty());
    let second = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1], 50),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    assert_eq!(second.placed.reused.len(), 1);
    assert!(second.placed.cost.network_usage < second.standalone_cost.network_usage);
}

#[test]
fn different_stream_sets_never_merge() {
    let f = fixture(2);
    let mut mq = MultiQueryOptimizer::default();
    mq.optimize_and_deploy(
        &f.optimizer,
        &query(&f, &[0, 1], 5),
        &f.space,
        &f.latency,
        ReuseScope::All,
    )
    .unwrap();
    let other = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[2, 3], 6),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    assert!(other.placed.reused.is_empty(), "disjoint joins must not merge");
}

#[test]
fn wider_radius_never_examines_fewer_candidates() {
    let f = fixture(3);
    let mut base = MultiQueryOptimizer::default();
    let mut rng = derive_rng(3, 0x3a);
    for i in 0..20 {
        let a = rng.gen_range(0..8u32);
        let mut b = rng.gen_range(0..8u32);
        if a == b {
            b = (b + 1) % 8;
        }
        base.optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[a, b], 10 + i),
            &f.space,
            &f.latency,
            ReuseScope::None,
        )
        .unwrap();
    }
    let probe = query(&f, &[0, 1], 60);
    let mut last = 0usize;
    for r in [0.0, 20.0, 60.0, 200.0] {
        let scope = if r == 0.0 { ReuseScope::None } else { ReuseScope::Radius(r) };
        let mut mq = base.clone();
        let out =
            mq.optimize_and_deploy(&f.optimizer, &probe, &f.space, &f.latency, scope).unwrap();
        assert!(
            out.candidates_examined >= last,
            "radius {r}: {} < {last}",
            out.candidates_examined
        );
        last = out.candidates_examined;
    }
}

#[test]
fn marginal_cost_never_exceeds_standalone_under_all_scope() {
    let f = fixture(4);
    let mut mq = MultiQueryOptimizer::default();
    let mut rng = derive_rng(4, 0x4b);
    for i in 0..15 {
        let a = rng.gen_range(0..8u32);
        let mut b = rng.gen_range(0..8u32);
        if a == b {
            b = (b + 1) % 8;
        }
        let out = mq
            .optimize_and_deploy(
                &f.optimizer,
                &query(&f, &[a, b], 10 + i),
                &f.space,
                &f.latency,
                ReuseScope::All,
            )
            .unwrap();
        assert!(
            out.placed.cost.network_usage <= out.standalone_cost.network_usage + 1e-6,
            "query {i}: marginal {} > standalone {}",
            out.placed.cost.network_usage,
            out.standalone_cost.network_usage
        );
    }
}

#[test]
fn teardown_makes_instances_unavailable() {
    let f = fixture(5);
    let mut mq = MultiQueryOptimizer::default();
    let first = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1], 5),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    assert!(mq.teardown(first.id));
    let second = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1], 6),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    assert!(second.placed.reused.is_empty(), "torn-down instances must not be reused");
}

#[test]
fn three_way_queries_can_reuse_two_way_subjoins() {
    let f = fixture(6);
    let mut mq = MultiQueryOptimizer::default();
    // Deploy a 2-way join of feeds 0 and 1.
    let first = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1], 5),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    // A 3-way query over feeds 0, 1, 2 can reuse the (0 ⋈ 1) instance when
    // its chosen plan contains that subtree.
    let out = mq
        .optimize_and_deploy(
            &f.optimizer,
            &query(&f, &[0, 1, 2], 40),
            &f.space,
            &f.latency,
            ReuseScope::All,
        )
        .unwrap();
    // Reuse is plan-dependent, but the optimizer saw the candidates; at
    // minimum the accounting stayed consistent.
    assert!(out.placed.cost.network_usage <= out.standalone_cost.network_usage + 1e-6);
    // Whatever it reused stands for a join over feeds: in the new circuit
    // and in its owner, the instance is a binary join operator.
    let join = ServiceKind::Operator { op: Operator::Binary(BinaryOp::Join) };
    for &at in &out.placed.reused_at {
        assert_eq!(out.placed.circuit.service(at).kind, join);
    }
    for r in &out.placed.reused {
        assert_eq!(r.circuit, first.id, "the only running instance is the first's");
        assert_eq!(first.placed.circuit.service(r.service).kind, join);
    }
}
