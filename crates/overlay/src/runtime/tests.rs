//! Unit tests of the runtime, end to end through its public and
//! crate-private surface.

use super::*;
use rand::Rng;
use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::circuit::{Circuit, ServiceId, ServiceKind, ServicePin};
use sbon_core::optimizer::QuerySpec;
use sbon_core::reopt::ReoptPolicy;
use sbon_dht::proto::ProtoConfig;
use sbon_netsim::lazy::LazyLatency;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_obs::ObsConfig;

fn small_world(seed: u64) -> Topology {
    generate(&TransitStubConfig::with_total_nodes(80), seed)
}

fn demo_query(topo: &Topology) -> QuerySpec {
    let hosts = topo.host_candidates();
    QuerySpec::join_star(&[hosts[0], hosts[10], hosts[20], hosts[30]], hosts[40], 10.0, 0.02)
}

#[test]
fn deploy_and_run_produces_samples() {
    let topo = small_world(1);
    let mut rt =
        OverlayRuntime::new(&topo, 1, RuntimeConfig { horizon_ms: 10_000.0, ..Default::default() });
    let q = demo_query(&topo);
    rt.deploy(q).unwrap();
    let report = rt.run();
    assert_eq!(report.samples.len(), 10);
    assert!(report.samples.iter().all(|s| s.network_usage > 0.0));
    // Cumulative usage must be non-decreasing.
    for w in report.samples.windows(2) {
        assert!(w[1].cumulative_usage >= w[0].cumulative_usage);
    }
}

#[test]
fn run_is_deterministic() {
    let topo = small_world(2);
    let build = || {
        let mut rt = OverlayRuntime::new(
            &topo,
            7,
            RuntimeConfig { horizon_ms: 8_000.0, ..Default::default() },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.network_usage, y.network_usage);
    }
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn no_reopt_means_no_migrations() {
    let topo = small_world(3);
    let mut rt = OverlayRuntime::new(
        &topo,
        3,
        RuntimeConfig {
            horizon_ms: 10_000.0,
            reopt_interval_ms: None,
            full_reopt_interval_ms: None,
            ..Default::default()
        },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    let report = rt.run();
    assert_eq!(report.migrations, 0);
    assert_eq!(report.replacements, 0);
    assert_eq!(report.adaptation_cost, 0.0);
}

#[test]
fn static_network_without_churn_has_constant_usage() {
    let topo = small_world(4);
    let mut rt = OverlayRuntime::new(
        &topo,
        4,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            churn: ChurnProcess::None,
            latency_jitter: None,
            reopt_interval_ms: None,
            ..Default::default()
        },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    let report = rt.run();
    let first = report.samples[0].network_usage;
    assert!(report.samples.iter().all(|s| (s.network_usage - first).abs() < 1e-9));
}

#[test]
fn latency_jitter_moves_usage() {
    let topo = small_world(5);
    let mut rt = OverlayRuntime::new(
        &topo,
        5,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            churn: ChurnProcess::None,
            latency_jitter: Some(JitterModel {
                // Gradual edge inflation: a small slice of the
                // ~100-edge underlay rescales upward each tick, so
                // usage keeps rising across the horizon instead of
                // saturating the band inside tick 1.
                edges_per_tick: 25,
                factor_range: (1.5, 2.0),
                band: (0.5, 3.0),
            }),
            reopt_interval_ms: None,
            ..Default::default()
        },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    let report = rt.run();
    let first = report.samples[0].network_usage;
    let last = report.samples.last().unwrap().network_usage;
    assert!(last > first, "persistent inflation must raise usage: {first} -> {last}");
}

#[test]
fn multiple_circuits_add_usage() {
    let topo = small_world(6);
    let mut rt = OverlayRuntime::new(
        &topo,
        6,
        RuntimeConfig { horizon_ms: 3_000.0, churn: ChurnProcess::None, ..Default::default() },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    let one = rt.instantaneous_usage();
    rt.deploy(demo_query(&topo)).unwrap();
    let two = rt.instantaneous_usage();
    assert!(two > one * 1.5, "second circuit must add usage: {one} -> {two}");
}

#[test]
fn failing_an_operator_host_evacuates_the_service() {
    // Deterministically scan seeds for a deployment where some unpinned
    // service lives apart from every pinned (producer/consumer) host —
    // killing a pinned host would tear the circuit down instead of
    // evacuating, which is not the scenario under test.
    let (mut rt, handle, victim) = (7u64..32)
        .find_map(|seed| {
            let topo = small_world(seed);
            let mut rt = OverlayRuntime::new(
                &topo,
                seed,
                RuntimeConfig {
                    horizon_ms: 5_000.0,
                    churn: ChurnProcess::None,
                    reopt_interval_ms: None,
                    ..Default::default()
                },
            );
            let handle = rt.deploy(demo_query(&topo))?;
            let placement = rt.placement(handle)?.clone();
            let d = &rt.circuits[&CircuitHandle(0)];
            let pinned: Vec<NodeId> = d
                .circuit
                .services()
                .iter()
                .filter_map(|s| match s.pin {
                    sbon_core::circuit::ServicePin::Pinned(n) => Some(n),
                    sbon_core::circuit::ServicePin::Unpinned => None,
                })
                .collect();
            let victim = d
                .circuit
                .unpinned_services()
                .iter()
                .map(|&sid| placement.node_of(sid))
                .find(|n| !pinned.contains(n))?;
            Some((rt, handle, victim))
        })
        .expect("some seed separates an unpinned service from the pinned hosts");
    rt.schedule_failure(2_000.0, victim);
    let report = rt.run();
    assert!(!rt.is_alive(victim));
    assert!(report.migrations >= 1, "evacuation counts as migration");
    // The circuit survived and no service remains on the dead node.
    let after = rt.placement(handle).unwrap();
    assert!(after.as_slice().iter().all(|&n| n != victim));
    assert!(rt.failed_circuits().is_empty());
}

#[test]
fn failing_a_producer_kills_the_circuit() {
    let topo = small_world(8);
    let mut rt = OverlayRuntime::new(
        &topo,
        8,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            churn: ChurnProcess::None,
            reopt_interval_ms: None,
            ..Default::default()
        },
    );
    let q = demo_query(&topo);
    let producer = q.catalog.get(sbon_query::stream::StreamId(0)).producer;
    let handle = rt.deploy(q).unwrap();
    rt.schedule_failure(2_000.0, producer);
    let report = rt.run();
    assert_eq!(rt.failed_circuits(), &[handle]);
    assert!(rt.placement(handle).is_none(), "dead circuits have no placement");
    // Usage drops to zero once the only circuit is gone.
    let last = report.samples.last().unwrap();
    assert_eq!(last.network_usage, 0.0);
}

#[test]
fn rewrite_adaptation_runs_and_preserves_query_semantics() {
    let topo = small_world(10);
    let mut rt = OverlayRuntime::new(
        &topo,
        10,
        RuntimeConfig {
            horizon_ms: 30_000.0,
            reopt_interval_ms: None,
            rewrite_interval_ms: Some(5_000.0),
            churn: ChurnProcess::RandomWalk { std_dev: 0.15 },
            latency_jitter: Some(JitterModel { edges_per_tick: 500, ..Default::default() }),
            ..Default::default()
        },
    );
    let q = demo_query(&topo);
    let sources_before: Vec<_> = q.join_set.clone();
    let handle = rt.deploy(q).unwrap();
    let plan_before = rt.circuits[&CircuitHandle(0)].running_plan.clone();
    let report = rt.run();
    // Whether or not a rewrite fired (churn-dependent), the running plan
    // must still cover exactly the original sources.
    let plan_after = &rt.circuits[&CircuitHandle(0)].running_plan;
    let mut srcs = plan_after.sources();
    srcs.sort();
    let mut expect = sources_before;
    expect.sort();
    assert_eq!(srcs, expect);
    assert!(rt.placement(handle).is_some());
    // Replacements counted if any happened.
    if plan_after.render() != plan_before.render() {
        assert!(report.replacements > 0);
    }
}

/// Without jitter the two backends see bit-identical latencies at every
/// query, so entire runs — embedding, deployment, churn, re-opt — must
/// produce bit-identical reports.
#[test]
fn lazy_backend_run_is_bit_identical_to_dense() {
    let topo = small_world(11);
    let run = |backend| {
        let mut rt = OverlayRuntime::new(
            &topo,
            11,
            RuntimeConfig { horizon_ms: 10_000.0, latency_backend: backend, ..Default::default() },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run()
    };
    let dense = run(LatencyBackend::Dense);
    let lazy = run(LatencyBackend::Lazy);
    assert_eq!(dense.samples.len(), lazy.samples.len());
    for (d, l) in dense.samples.iter().zip(&lazy.samples) {
        assert_eq!(d.network_usage, l.network_usage);
        assert_eq!(d.cumulative_usage, l.cumulative_usage);
    }
    assert_eq!(dense.migrations, lazy.migrations);
    assert_eq!(dense.replacements, lazy.replacements);
}

#[test]
fn lazy_backend_jitter_run_is_deterministic_and_moves_usage() {
    let topo = small_world(12);
    let run = || {
        let mut rt = OverlayRuntime::new(
            &topo,
            12,
            RuntimeConfig {
                horizon_ms: 6_000.0,
                churn: ChurnProcess::None,
                reopt_interval_ms: None,
                latency_backend: LatencyBackend::Lazy,
                latency_jitter: Some(JitterModel {
                    // Gradual edge inflation: a small slice of the
                    // ~100-edge underlay rescales upward each tick, so
                    // usage keeps rising across the horizon instead of
                    // saturating the band inside tick 1.
                    edges_per_tick: 25,
                    factor_range: (1.5, 2.0),
                    band: (0.5, 3.0),
                }),
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        let stats = rt.lazy_latency_stats().expect("lazy backend exposes stats");
        (report, stats)
    };
    let (a, sa) = run();
    let (b, sb) = run();
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.network_usage, y.network_usage);
    }
    assert_eq!(sa, sb);
    let first = a.samples[0].network_usage;
    let last = a.samples.last().unwrap().network_usage;
    assert!(last > first, "persistent edge inflation must raise usage: {first} -> {last}");
    assert!(sa.rows_repaired + sa.rows_rebuilt > 0, "edge jitter must repair the store's tables");
    // The store is built once; every later search is an own-region row,
    // at most one a node.
    let built = LazyLatency::new(topo.graph.clone()).stats().rows_computed;
    let own = sa.rows_computed - built;
    assert!(own <= topo.num_nodes() as u64, "{own} own-region rows after the build");
}

#[test]
fn default_backend_is_dht_and_charges_catalog_traffic() {
    let topo = small_world(14);
    let mut rt =
        OverlayRuntime::new(&topo, 14, RuntimeConfig { horizon_ms: 5_000.0, ..Default::default() });
    assert_eq!(rt.mapper_name(), "hilbert-dht");
    rt.deploy(demo_query(&topo)).unwrap();
    let stats = rt.dht_stats().expect("dht backend exposes catalog stats");
    assert!(stats.lookups > 0, "deployment must route through the catalog");
}

#[test]
fn oracle_backend_runs_and_exposes_no_dht_stats() {
    let topo = small_world(15);
    let mut rt = OverlayRuntime::new(
        &topo,
        15,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            mapper_backend: MapperBackend::Oracle,
            ..Default::default()
        },
    );
    assert_eq!(rt.mapper_name(), "live-oracle");
    rt.deploy(demo_query(&topo)).unwrap();
    assert!(rt.dht_stats().is_none());
    let report = rt.run();
    assert_eq!(report.samples.len(), 5);
}

#[test]
fn control_plane_stats_track_churned_nodes_only() {
    let topo = small_world(16);
    let n = topo.num_nodes();
    let run = |churn: ChurnProcess| {
        let mut rt = OverlayRuntime::new(
            &topo,
            16,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                churn,
                reopt_interval_ms: None,
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run();
        rt.control_plane_stats()
    };
    let none = run(ChurnProcess::None);
    assert_eq!(none.dirty_nodes, 0);
    assert_eq!(none.points_updated, 0);
    assert_eq!(none.ticks, 10);

    let sparse = run(ChurnProcess::SparseWalk { nodes_per_tick: 4, std_dev: 0.2 });
    assert_eq!(sparse.dirty_nodes, 4 * 10, "sparse churn dirties its budget per tick");
    assert!(sparse.points_updated <= sparse.dirty_nodes);
    assert!(sparse.points_updated > 0);

    let full = run(ChurnProcess::RandomWalk { std_dev: 0.2 });
    assert_eq!(full.dirty_nodes, n * 10, "a full walk dirties every node every tick");
    assert!(
        sparse.dirty_nodes < full.dirty_nodes / 10,
        "delta maintenance must track churn, not overlay size"
    );
}

#[test]
fn high_dimensional_space_caps_dht_bits_instead_of_panicking() {
    // 10 Vivaldi dims + 1 scalar = 11 dims; a fixed 12-bit grid would
    // need 132 key bits. The runtime must degrade to a coarser grid.
    let topo = small_world(18);
    let mut rt = OverlayRuntime::new(
        &topo,
        18,
        RuntimeConfig {
            horizon_ms: 3_000.0,
            vivaldi: VivaldiConfig { dims: 10, ..Default::default() },
            ..Default::default()
        },
    );
    assert_eq!(rt.mapper_name(), "hilbert-dht");
    rt.deploy(demo_query(&topo)).unwrap();
    let report = rt.run();
    assert_eq!(report.samples.len(), 3);
}

#[test]
fn dht_evacuation_never_lands_on_dead_nodes() {
    // Kill several hosts mid-run under the DHT backend with churn and
    // re-opt active: every surviving placement must be on live nodes.
    let topo = small_world(17);
    let mut rt = OverlayRuntime::new(
        &topo,
        17,
        RuntimeConfig { horizon_ms: 20_000.0, ..Default::default() },
    );
    let handles: Vec<_> = (0..2).filter_map(|_| rt.deploy(demo_query(&topo))).collect();
    let victims = [topo.host_candidates()[55], topo.host_candidates()[61]];
    rt.schedule_failure(3_000.0, victims[0]);
    rt.schedule_failure(9_000.0, victims[1]);
    rt.run();
    for &h in &handles {
        if let Some(p) = rt.placement(h) {
            assert!(p.as_slice().iter().all(|&n| rt.is_alive(n)));
        }
    }
}

/// Deployment wave: the overlay grows over ticks, every admitted node
/// registers with the mapper, and placements stay confined to arrived
/// nodes throughout.
#[test]
fn deployment_wave_grows_the_overlay_over_ticks() {
    let topo = small_world(20);
    let n = topo.num_nodes();
    let mut rt = OverlayRuntime::new(
        &topo,
        20,
        RuntimeConfig {
            horizon_ms: 10_000.0,
            deployment: DeploymentModel::Wave { initial: 30, joins_per_tick: 10 },
            churn: ChurnProcess::SparseWalk { nodes_per_tick: 8, std_dev: 0.1 },
            ..Default::default()
        },
    );
    assert_eq!(rt.arrived_count(), 30);
    // Deploy a query pinned on arrived hosts only.
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    assert!(hosts.len() >= 5, "initial wave must include some stub hosts");
    let q = QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
    let handle = rt.deploy(q).unwrap();
    // Everything mapped so far must be on arrived nodes.
    let placed = rt.placement(handle).unwrap().clone();
    assert!(placed.as_slice().iter().all(|&node| rt.is_arrived(node)));
    let report = rt.run();
    assert_eq!(report.samples.len(), 10);
    // 30 initial + 10 ticks × 10 joins ≥ 80 total: everyone arrived.
    assert_eq!(rt.arrived_count(), n);
    let cp = rt.control_plane_stats();
    assert_eq!(cp.nodes_joined, n - 30, "every pending node joined exactly once");
    // The DHT catalog holds the whole overlay after the wave.
    assert_eq!(rt.mapper_name(), "hilbert-dht");
}

/// With `joins_per_tick: 0` the wave never advances: the runtime must
/// keep every placement confined to the initial membership.
#[test]
fn stalled_wave_confines_placements_to_initial_members() {
    let topo = small_world(21);
    let mut rt = OverlayRuntime::new(
        &topo,
        21,
        RuntimeConfig {
            horizon_ms: 10_000.0,
            deployment: DeploymentModel::Wave { initial: 40, joins_per_tick: 0 },
            ..Default::default()
        },
    );
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    let q = QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
    let handle = rt.deploy(q).unwrap();
    rt.run();
    assert_eq!(rt.arrived_count(), 40);
    assert_eq!(rt.control_plane_stats().nodes_joined, 0);
    let placed = rt.placement(handle).unwrap();
    assert!(
        placed.as_slice().iter().all(|&node| rt.is_arrived(node)),
        "re-optimization must never migrate onto an unarrived node"
    );
}

#[test]
fn deployment_wave_is_deterministic() {
    let topo = small_world(22);
    let run = || {
        let mut rt = OverlayRuntime::new(
            &topo,
            22,
            RuntimeConfig {
                horizon_ms: 8_000.0,
                deployment: DeploymentModel::Wave { initial: 25, joins_per_tick: 7 },
                churn: ChurnProcess::SparseWalk { nodes_per_tick: 4, std_dev: 0.1 },
                ..Default::default()
            },
        );
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        rt.deploy(q).unwrap();
        let report = rt.run();
        (report, rt.control_plane_stats())
    };
    let (a, ca) = run();
    let (b, cb) = run();
    assert_eq!(ca.nodes_joined, cb.nodes_joined);
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.network_usage, y.network_usage);
    }
}

/// A wave under the oracle backend behaves the same way: unarrived
/// nodes are invisible to mapping until admitted.
#[test]
fn deployment_wave_works_under_oracle_backend() {
    let topo = small_world(23);
    let n = topo.num_nodes();
    let mut rt = OverlayRuntime::new(
        &topo,
        23,
        RuntimeConfig {
            horizon_ms: 10_000.0,
            deployment: DeploymentModel::Wave { initial: 20, joins_per_tick: 20 },
            mapper_backend: MapperBackend::Oracle,
            ..Default::default()
        },
    );
    assert_eq!(rt.mapper_name(), "live-oracle");
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    let q = QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
    rt.deploy(q).unwrap();
    rt.run();
    assert_eq!(rt.arrived_count(), n);
    assert_eq!(rt.control_plane_stats().nodes_joined, n - 20);
}

/// A node that fails while still queued in the wave must never join.
#[test]
fn failed_pending_node_never_joins() {
    let topo = small_world(24);
    let n = topo.num_nodes();
    let mut rt = OverlayRuntime::new(
        &topo,
        24,
        RuntimeConfig {
            horizon_ms: 10_000.0,
            deployment: DeploymentModel::Wave { initial: 10, joins_per_tick: 20 },
            churn: ChurnProcess::None,
            reopt_interval_ms: None,
            ..Default::default()
        },
    );
    let victim = (0..n as u32)
        .map(NodeId)
        .find(|&node| !rt.is_arrived(node))
        .expect("some node is still pending");
    rt.schedule_failure(500.0, victim); // before the first join tick
    rt.run();
    assert!(!rt.is_alive(victim));
    assert!(!rt.is_arrived(victim), "a dead pending node must not arrive");
    assert_eq!(rt.arrived_count(), n - 1);
}

/// deploy → undeploy restores instantaneous usage bit-identically and
/// redeploying the same query reproduces the original placement.
#[test]
fn undeploy_restores_usage_and_redeploy_is_identical() {
    let topo = small_world(30);
    let mut rt = OverlayRuntime::new(
        &topo,
        30,
        RuntimeConfig { horizon_ms: 5_000.0, churn: ChurnProcess::None, ..Default::default() },
    );
    let baseline = rt.deploy(demo_query(&topo)).unwrap();
    let usage_before = rt.instantaneous_usage();
    let h = rt.deploy(demo_query(&topo)).unwrap();
    let usage_with = rt.instantaneous_usage();
    let placement_first = rt.placement(h).unwrap().clone();
    assert!(usage_with > usage_before);
    assert!(rt.undeploy(h));
    assert_eq!(rt.instantaneous_usage().to_bits(), usage_before.to_bits());
    assert!(!rt.undeploy(h), "double undeploy must fail");
    let h2 = rt.deploy(demo_query(&topo)).unwrap();
    assert_eq!(rt.placement(h2).unwrap(), &placement_first);
    assert_eq!(rt.instantaneous_usage().to_bits(), usage_with.to_bits());
    let stats = rt.lifecycle_stats();
    assert_eq!((stats.arrivals, stats.departures), (3, 1));
    assert_eq!(rt.active_queries(), 2);
    let _ = baseline;
}

/// With reuse enabled, identical queries attach to the running join,
/// the marginal cost tally stays below standalone, and full departure
/// drains every refcount and returns usage to the pre-workload state.
#[test]
fn reuse_tenancy_attaches_and_drains_to_baseline() {
    let topo = small_world(31);
    let mut rt = OverlayRuntime::new(
        &topo,
        31,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            churn: ChurnProcess::None,
            reuse: ReuseScope::All,
            ..Default::default()
        },
    );
    let baseline = rt.instantaneous_usage();
    assert_eq!(baseline, 0.0);
    let q = demo_query(&topo);
    let a = rt.deploy(q.clone()).unwrap();
    let b = rt.deploy(q.clone()).unwrap();
    let stats = rt.lifecycle_stats();
    assert_eq!(stats.reuse_hits, 1, "the second identical query attaches");
    assert!(stats.marginal_usage < stats.standalone_usage);
    let mq = rt.multiquery().expect("reuse registry active");
    assert_eq!(mq.total_subscriptions(), 1);

    // Owner departs first: the shared join is retained for b.
    assert!(rt.undeploy(a));
    assert_eq!(rt.retained_shared_subtrees(), 1);
    assert!(rt.instantaneous_usage() > 0.0, "retained subtree keeps accruing usage");
    // Last subscriber departs: everything drains to the baseline.
    assert!(rt.undeploy(b));
    assert_eq!(rt.retained_shared_subtrees(), 0);
    assert_eq!(rt.active_queries(), 0);
    assert_eq!(rt.instantaneous_usage().to_bits(), baseline.to_bits());
    let mq = rt.multiquery().unwrap();
    assert_eq!(mq.total_subscriptions(), 0);
    assert_eq!(mq.num_instances(), 0);
    assert_eq!(mq.num_retained(), 0);
}

/// A tenancy pin is lifted once the last subscriber departs: the
/// owner's instance is migratable again, and the borrower's phantom
/// copies of the shared subtree are co-pinned at the instance's host.
#[test]
fn tenancy_pin_is_lifted_when_refcount_drains() {
    let topo = small_world(33);
    let mut rt = OverlayRuntime::new(
        &topo,
        33,
        RuntimeConfig {
            horizon_ms: 5_000.0,
            churn: ChurnProcess::None,
            reuse: ReuseScope::All,
            ..Default::default()
        },
    );
    let q = demo_query(&topo);
    rt.deploy(q.clone()).unwrap();
    let owner_unpinned_before = rt.circuits[&CircuitHandle(0)].circuit.unpinned_services();
    assert!(!owner_unpinned_before.is_empty(), "owner operators start unpinned");
    let b = rt.deploy(q).unwrap();
    // The subscribed instance is pinned in the owner's circuit...
    assert!(
        rt.circuits[&CircuitHandle(0)].circuit.unpinned_services().len()
            < owner_unpinned_before.len(),
        "subscription must pin the reused instance"
    );
    // ...and the borrower's shared subtree is fully pinned (phantoms
    // co-located with the instance: no phantom migrations possible).
    let borrower = &rt.circuits[&CircuitHandle(1)];
    for (idx, &is_shared) in borrower.shared.iter().enumerate() {
        if is_shared {
            assert!(!borrower.circuit.service(ServiceId(idx as u32)).is_unpinned());
        }
    }
    assert!(rt.undeploy(b));
    assert_eq!(
        rt.circuits[&CircuitHandle(0)].circuit.unpinned_services(),
        owner_unpinned_before,
        "draining the refcount must lift the tenancy pin"
    );
}

/// Failure cascades through tenancy: killing the node that hosts a
/// reused instance tears down the owner AND its subscribers, and a
/// retained subtree with a service on the dead node drains instead of
/// accruing usage (or serving reuse) forever.
#[test]
fn failure_of_shared_instance_host_cascades_to_subscribers() {
    let topo = small_world(34);
    let mut rt = OverlayRuntime::new(
        &topo,
        34,
        RuntimeConfig {
            horizon_ms: 8_000.0,
            churn: ChurnProcess::None,
            reopt_interval_ms: None,
            reuse: ReuseScope::All,
            ..Default::default()
        },
    );
    let q = demo_query(&topo);
    let a = rt.deploy(q.clone()).unwrap();
    let b = rt.deploy(q.clone()).unwrap();
    assert_eq!(rt.lifecycle_stats().reuse_hits, 1);
    // Find the shared instance's host: the node the borrower's reused
    // root is pinned at (an operator host, not a producer/consumer).
    let pinned_ops: Vec<NodeId> = rt.circuits[&CircuitHandle(1)]
        .circuit
        .services()
        .iter()
        .filter(|s| matches!(s.kind, sbon_core::circuit::ServiceKind::Operator { .. }))
        .filter_map(|s| match s.pin {
            sbon_core::circuit::ServicePin::Pinned(n) => Some(n),
            sbon_core::circuit::ServicePin::Unpinned => None,
        })
        .collect();
    let victim = *pinned_ops.first().expect("borrower has a pinned shared instance");
    // Owner departs first so the instance survives only as a retained
    // shared subtree, then the host dies mid-run.
    assert!(rt.undeploy(a));
    assert_eq!(rt.retained_shared_subtrees(), 1);
    rt.schedule_failure(2_000.0, victim);
    rt.run();
    assert!(!rt.is_alive(victim));
    // The retained subtree is gone, the subscriber was torn down, and
    // the registry holds nothing stale.
    assert_eq!(rt.retained_shared_subtrees(), 0);
    assert_eq!(rt.active_queries(), 0);
    assert!(rt.failed_circuits().contains(&b));
    let mq = rt.multiquery().unwrap();
    assert_eq!(mq.num_instances(), 0, "no stale instance may serve future reuse");
    assert_eq!(mq.total_subscriptions(), 0);
    assert_eq!(mq.num_retained(), 0);
    assert_eq!(rt.instantaneous_usage(), 0.0);
}

/// Plan-replacement adaptation stays alive under reuse for untenanted
/// circuits: a run with full re-opt + rewrite enabled, churn, and no
/// overlapping queries keeps the registry consistent with the live
/// circuit set whether or not swaps fire.
#[test]
fn adaptation_under_reuse_keeps_registry_consistent() {
    let topo = small_world(35);
    let hosts = topo.host_candidates();
    let mut rt = OverlayRuntime::new(
        &topo,
        35,
        RuntimeConfig {
            horizon_ms: 30_000.0,
            churn: ChurnProcess::RandomWalk { std_dev: 0.35 },
            full_reopt_interval_ms: Some(3_000.0),
            rewrite_interval_ms: Some(4_000.0),
            policy: ReoptPolicy {
                migration_threshold: 0.05,
                // Any strictly-better circuit replaces: guarantees the
                // swap → reregister path actually runs.
                replacement_threshold: 0.0,
            },
            reuse: ReuseScope::All,
            ..Default::default()
        },
    );
    // Disjoint producer sets: no reuse possible, nothing entangled.
    let qa = QuerySpec::join_star(&[hosts[0], hosts[5], hosts[10]], hosts[15], 10.0, 0.02);
    let qb = QuerySpec::join_star(&[hosts[20], hosts[25], hosts[30]], hosts[35], 10.0, 0.02);
    rt.deploy(qa).unwrap();
    rt.deploy(qb).unwrap();
    assert_eq!(rt.lifecycle_stats().reuse_hits, 0);
    let instances_before = rt.multiquery().unwrap().num_instances();
    let report = rt.run();
    assert!(report.replacements > 0, "reuse must not silence plan replacement");
    let mq = rt.multiquery().unwrap();
    assert_eq!(mq.num_circuits(), rt.active_queries());
    assert_eq!(mq.total_subscriptions(), 0);
    // Replacements re-register under the same ids: no duplicate or
    // stale instances accumulate across swaps.
    assert_eq!(mq.num_instances(), instances_before);
}

/// A circuit's structure: each service's kind, output rate (by bits) and —
/// for producers and the consumer — pin, then each link's ends and rate.
#[expect(clippy::type_complexity, reason = "a test's comparable tuple, read once")]
fn structure(
    c: &Circuit,
) -> (Vec<(ServiceKind, Option<ServicePin>, u64)>, Vec<(ServiceId, ServiceId, u64)>) {
    let services = c.services().iter().map(|s| {
        let fixed = !matches!(s.kind, ServiceKind::Operator { .. });
        (s.kind, fixed.then_some(s.pin), s.output_rate.to_bits())
    });
    let links = c.links().iter().map(|l| (l.from, l.to, l.rate.to_bits()));
    (services.collect(), links.collect())
}

/// A full re-opt swap records the replacement's plan: after a run whose
/// full passes replace plans, every live circuit is the one its
/// `running_plan` builds, service for service and link for link — so the
/// next rewrite pass explores the neighbourhood of the plan that actually
/// runs.
#[test]
fn full_replacement_records_the_running_plan() {
    let topo = small_world(36);
    let hosts = topo.host_candidates();
    let mut rt = OverlayRuntime::new(
        &topo,
        36,
        RuntimeConfig {
            horizon_ms: 30_000.0,
            churn: ChurnProcess::RandomWalk { std_dev: 0.35 },
            reopt_interval_ms: None,
            full_reopt_interval_ms: Some(3_000.0),
            policy: ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.0 },
            ..Default::default()
        },
    );
    for i in 0..6 {
        let producers = [hosts[i], hosts[10 + i], hosts[20 + i], hosts[30 + i]];
        rt.deploy(QuerySpec::join_star(&producers, hosts[40 + i], 10.0, 0.02)).unwrap();
    }
    let report = rt.run();
    assert!(report.replacements > 0, "the full passes must swap some plan");
    for d in rt.circuits.values() {
        let built = Circuit::from_plan(&d.running_plan, &d.query.catalog, d.query.consumer);
        assert_eq!(structure(&d.circuit), structure(&built), "running plan {}", d.running_plan);
    }
}

/// Every writer of a circuit resets exactly the memo slots whose lists it
/// changes: a tenancy pin or unpin the circuit's own (local) placement; a
/// replacement that and the rewrite neighbourhood of the old plan — never
/// the query's full list, which a replacement leaves as it was.
#[test]
fn circuit_writers_reset_the_right_memo_slots() {
    use sbon_core::reopt::relevance::ReoptKind::{self, Full, Local, Rewrite};
    let topo = small_world(37);
    let mut rt = OverlayRuntime::new(
        &topo,
        37,
        RuntimeConfig { horizon_ms: 5_000.0, reuse: ReuseScope::All, ..Default::default() },
    );
    let q = demo_query(&topo);
    let owner = rt.deploy(q.clone()).unwrap();
    let mut session = rt.start_run();
    let mut pass = |rt: &mut OverlayRuntime, kind: ReoptKind| {
        rt.forget_clean_records();
        rt.reopt_pass(&mut session, SimTime::ZERO, kind);
        session.report.replacements
    };
    let slots = |rt: &OverlayRuntime| {
        let memo = &rt.circuits[&owner].memo;
        [Local, Rewrite, Full].map(|kind| memo.remembered(kind))
    };
    for kind in [Local, Rewrite, Full] {
        pass(&mut rt, kind);
    }
    let [local, rewrite, full] = slots(&rt);
    assert_eq!(local, (0, 1), "the local list is the running circuit's placement");
    assert!(rewrite.0 > 1 && full.0 > 1, "every candidate bounded: {rewrite:?} {full:?}");

    // A second evaluation of each list reads it back.
    let hits = rt.control_plane_stats().memo_hits;
    for kind in [Local, Rewrite, Full] {
        pass(&mut rt, kind);
    }
    let reread = rt.control_plane_stats().memo_hits - hits;
    assert!(reread as usize >= 1 + rewrite.0 + full.0, "{reread} hits");
    let [_, rewrite, full] = slots(&rt);

    // Tenancy pin, then unpin: the local slot only.
    let tenant = rt.deploy(q).unwrap();
    assert_eq!(slots(&rt), [(0, 0), rewrite, full], "a pin resets the circuit's placement");
    pass(&mut rt, Local);
    assert_eq!(slots(&rt)[0], (0, 1));
    assert!(rt.undeploy(tenant));
    assert_eq!(slots(&rt), [(0, 0), rewrite, full], "an unpin resets the circuit's placement");
    pass(&mut rt, Local);

    // A forced replacement: the best candidate clears any threshold this
    // far below zero.
    rt.config.policy.replacement_threshold = -1e9;
    assert_eq!(pass(&mut rt, Full), 1, "the pass replaced the circuit");
    // (The threshold lifts the ceiling, so the pass may place candidates
    // the old bar pruned: the full list keeps its entries and may gain.)
    let [local, rewrite, kept] = slots(&rt);
    assert_eq!((local, rewrite), ((0, 0), (0, 0)), "a replacement resets both");
    assert!(kept.0 == full.0 && kept.1 >= full.1, "the full list is the query's: {kept:?}");
}

/// The re-opt pass contract, by work: a pass costs what its dirty set
/// costs. With no churn, the first pass of each kind evaluates all K
/// circuits (none is recorded clean for it yet); once a pass of that kind
/// commits nothing, every circuit is clean for it, and the next pass
/// evaluates none and skips all K — one relevance probe each.
#[test]
fn a_pass_after_a_quiet_one_evaluates_nothing_and_skips_every_circuit() {
    use sbon_core::reopt::relevance::ReoptKind::{Full, Local, Rewrite};
    const K: usize = 8;
    let topo = small_world(40);
    let hosts = topo.host_candidates();
    let mut rt = OverlayRuntime::new(
        &topo,
        40,
        RuntimeConfig { horizon_ms: 5_000.0, churn: ChurnProcess::None, ..Default::default() },
    );
    for i in 0..K {
        let producers = [hosts[i], hosts[10 + i], hosts[20 + i], hosts[30 + i]];
        rt.deploy(QuerySpec::join_star(&producers, hosts[40 + i], 10.0, 0.02)).unwrap();
    }
    let mut session = rt.start_run();
    let work = |rt: &OverlayRuntime| {
        let s = rt.control_plane_stats();
        (s.reopt_evaluated, s.reopt_skipped)
    };
    let committed = |s: &RunSession| s.report.migrations + s.report.replacements;
    for kind in [Local, Rewrite, Full] {
        let (evaluated, skipped) = work(&rt);
        for passes in 1.. {
            let before = committed(&session);
            rt.reopt_pass(&mut session, SimTime::ZERO, kind);
            if passes == 1 {
                assert_eq!(work(&rt), (evaluated + K, skipped), "{kind:?}: the first pass");
            }
            if committed(&session) == before {
                break;
            }
            assert!(passes < 16, "{kind:?} passes keep committing");
        }
        let (evaluated, skipped) = work(&rt);
        rt.reopt_pass(&mut session, SimTime::ZERO, kind);
        assert_eq!(work(&rt), (evaluated, skipped + K), "{kind:?}: a clean circuit costs a probe");
    }
}

/// Branch-and-bound accounting: what the rewrite and full passes prune
/// lands in `ControlPlaneStats::candidates_pruned`, and the same counts
/// ride on those passes' span ends as `pruned` (local passes examine no
/// candidate plans and carry no such attribute). Likewise for what the
/// memos spare: `ControlPlaneStats::memo_hits`, and `memo` on every pass
/// kind's span end. Every other counter the passes and ticks add to is
/// checked against the event its own site emits: `evaluated` and `lists`
/// on the pass span ends, `updated` on the `churn.refresh` points, and one
/// `tick` span end per tick.
#[test]
fn pruned_candidates_are_counted_and_traced() {
    let topo = small_world(41);
    let path = std::env::temp_dir().join(format!("sbon_pruned_trace_{}.jsonl", std::process::id()));
    let mut rt = OverlayRuntime::new(
        &topo,
        41,
        RuntimeConfig {
            horizon_ms: 12_000.0,
            churn: ChurnProcess::RandomWalk { std_dev: 0.1 },
            full_reopt_interval_ms: Some(3_000.0),
            rewrite_interval_ms: Some(4_000.0),
            obs: ObsConfig { trace: Some(path.clone()), flight_capacity: 0 },
            ..Default::default()
        },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    rt.run();
    rt.finish_trace();
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let (mut pruned, mut memo, mut evaluated, mut lists, mut updated, mut ticks) =
        (0, 0, 0, 0, 0, 0);
    for line in trace.lines() {
        let field = |name: &str| {
            line.split_once(&format!(r#""{name}":"#)).map(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse::<usize>().unwrap()
            })
        };
        if line.contains(r#""ev":"point""#) {
            if line.contains(r#""kind":"churn.refresh""#) {
                updated += field("updated").expect(line);
            }
            continue;
        }
        if !line.contains(r#""ev":"end""#) {
            continue;
        }
        ticks += usize::from(line.contains(r#""kind":"tick""#));
        let plan_replacing =
            line.contains(r#""kind":"reopt.rewrite""#) || line.contains(r#""kind":"reopt.full""#);
        assert_eq!(field("pruned").is_some(), plan_replacing, "{line}");
        assert_eq!(field("lists").is_some(), plan_replacing, "{line}");
        pruned += field("pruned").unwrap_or(0);
        lists += field("lists").unwrap_or(0);
        // Every pass kind reports the circuits it evaluated and the bounds
        // and placements its memos spared.
        let reopt = plan_replacing || line.contains(r#""kind":"reopt.local""#);
        assert_eq!(field("memo").is_some(), reopt, "{line}");
        assert_eq!(field("evaluated").is_some(), reopt, "{line}");
        memo += field("memo").unwrap_or(0);
        evaluated += field("evaluated").unwrap_or(0);
    }
    let stats = rt.control_plane_stats();
    assert!(stats.candidates_pruned > 0, "a 4-way star has join orders no placement can rescue");
    assert!(stats.memo_hits > 0, "the passes reread what they remembered");
    assert!(stats.ticks > 0 && stats.points_updated > 0 && stats.candidate_lists > 0);
    // The span attributes add up to the counters.
    assert_eq!(pruned, stats.candidates_pruned);
    assert_eq!(memo as u64, stats.memo_hits);
    assert_eq!(evaluated, stats.reopt_evaluated);
    assert_eq!(lists as u64, stats.candidate_lists);
    assert_eq!(updated, stats.points_updated);
    assert_eq!(ticks, stats.ticks);
}

/// The flight recorder is the trace's tail: after a traced run, the ring's
/// 16 lines are the JSONL file's last 16 lines, byte for byte.
#[test]
fn flight_ring_is_the_trace_files_tail() {
    let topo = small_world(42);
    let path = std::env::temp_dir().join(format!("sbon_ring_tail_{}.jsonl", std::process::id()));
    let mut rt = OverlayRuntime::new(
        &topo,
        42,
        RuntimeConfig {
            horizon_ms: 6_000.0,
            churn: ChurnProcess::RandomWalk { std_dev: 0.1 },
            full_reopt_interval_ms: Some(3_000.0),
            obs: ObsConfig { trace: Some(path.clone()), flight_capacity: 16 },
            ..Default::default()
        },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    rt.run();
    let tracer = rt.obs.tracer.as_ref().expect("tracing on");
    let ring: Vec<String> = tracer.tail().map(str::to_string).collect();
    rt.finish_trace();
    let file = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = file.lines().collect();
    assert!(lines.len() > 16, "the run must overflow the ring ({} lines)", lines.len());
    assert_eq!(ring, lines[lines.len() - 16..]);
}

/// The session API: a run can be advanced tick-by-tick with mid-run
/// arrivals and departures, and matches `run()` when driven to the end
/// with no interleaved workload.
#[test]
fn session_api_matches_run_and_supports_midrun_lifecycle() {
    let topo = small_world(32);
    let build = || {
        let mut rt = OverlayRuntime::new(
            &topo,
            32,
            RuntimeConfig { horizon_ms: 8_000.0, ..Default::default() },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt
    };
    let whole = {
        let mut rt = build();
        rt.run()
    };
    let stepped = {
        let mut rt = build();
        let mut session = rt.start_run();
        while rt.advance_ticks(&mut session, 1) {}
        rt.finish_run(session)
    };
    assert_eq!(whole.samples.len(), stepped.samples.len());
    for (a, b) in whole.samples.iter().zip(&stepped.samples) {
        assert_eq!(a.network_usage.to_bits(), b.network_usage.to_bits());
        assert_eq!(a.active_queries, b.active_queries);
    }
    assert_eq!(whole.migrations, stepped.migrations);

    // Mid-run lifecycle: deploy at tick 3, undeploy at tick 6; the
    // active-query gauge tracks it in the samples.
    let mut rt = build();
    let mut session = rt.start_run();
    assert!(rt.advance_ticks(&mut session, 3));
    let h = rt.deploy(demo_query(&topo)).unwrap();
    assert!(rt.advance_ticks(&mut session, 3));
    assert!(rt.undeploy(h));
    while rt.advance_ticks(&mut session, 1) {}
    let report = rt.finish_run(session);
    assert_eq!(report.samples.len(), 8);
    assert_eq!(report.samples[2].active_queries, 1);
    assert_eq!(report.samples[4].active_queries, 2);
    assert_eq!(report.samples[7].active_queries, 1);
    assert_eq!(report.arrivals, 2);
    assert_eq!(report.departures, 1);
}

/// With the unified edge-granular jitter, both backends draw the same
/// delta sequence from the run RNG and derive pairwise latencies from
/// the same mutated graph — whole jittered runs must be bit-identical.
#[test]
fn jittered_run_is_bit_identical_across_backends() {
    let topo = small_world(40);
    let run = |backend| {
        let mut rt = OverlayRuntime::new(
            &topo,
            40,
            RuntimeConfig::builder()
                .horizon_ms(8_000.0)
                .churn(ChurnProcess::None)
                .latency_backend(backend)
                .latency_jitter(JitterModel {
                    edges_per_tick: 40,
                    factor_range: (0.8, 1.6),
                    band: (0.5, 3.0),
                })
                .build(),
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run()
    };
    let dense = run(LatencyBackend::Dense);
    let lazy = run(LatencyBackend::Lazy);
    assert_eq!(dense, lazy, "jittered runs must agree bit-for-bit across backends");
    let first = dense.samples[0].network_usage;
    assert!(
        dense.samples.iter().any(|s| s.network_usage != first),
        "jitter must actually move usage for the comparison to mean anything"
    );
}

/// The tentpole determinism contract: a run on an 8-thread pool is
/// bit-identical to a serial run, across seeds, with every parallel
/// stage active (scalar refresh, jitter-driven store repair,
/// and the landmark placement wave: 16 joiners a tick sharded over the
/// pool, one pending node failed before its turn) — on the report, every
/// node's final cost point, the latency store's counters and the control
/// plane's.
#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let topo = small_world(41);
    let n = topo.num_nodes();
    let run = |seed: u64, threads: usize| {
        let mut rt = OverlayRuntime::new(
            &topo,
            seed,
            RuntimeConfig::builder()
                .horizon_ms(10_000.0)
                .threads(threads)
                .latency_backend(LatencyBackend::Lazy)
                .deployment(DeploymentModel::Wave { initial: 30, joins_per_tick: 16 })
                .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() })
                .churn(ChurnProcess::SparseWalk { nodes_per_tick: 12, std_dev: 0.15 })
                .latency_jitter(JitterModel { edges_per_tick: 30, ..Default::default() })
                .build(),
        );
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        rt.deploy(q).unwrap();
        // The last node of the arrival order dies before the first join
        // tick: the wave skips it and still fills its per-tick budget.
        let victim = *rt.pending_joins.back().expect("the wave has pending nodes");
        rt.schedule_failure(500.0, victim);
        let report = rt.run();
        assert_eq!(rt.arrived_count(), n - 1, "everyone but the victim joins");
        let points: Vec<Vec<u64>> = (rt.space().points().iter())
            .map(|p| p.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect();
        (report, points, rt.lazy_latency_stats().unwrap(), rt.control_plane_stats())
    };
    for seed in [41u64, 97, 1234] {
        let (serial, serial_points, serial_stats, serial_cp) = run(seed, 1);
        let (parallel, parallel_points, parallel_stats, parallel_cp) = run(seed, 8);
        assert_eq!(serial, parallel, "seed {seed}: thread count must not change the run");
        assert_eq!(serial_points, parallel_points, "seed {seed}: nor where any node landed");
        assert_eq!(serial_stats, parallel_stats, "seed {seed}: cache traffic must match");
        assert_eq!(
            (serial_cp.points_updated, serial_cp.nodes_joined, serial_cp.dirty_nodes),
            (parallel_cp.points_updated, parallel_cp.nodes_joined, parallel_cp.dirty_nodes),
            "seed {seed}: control-plane counters must match"
        );
        assert_eq!(serial_cp.nodes_joined, n - 1 - 30);
    }
}

/// The builder is a pure constructor: a chained configuration and the
/// equivalent struct literal run identically.
#[test]
fn builder_run_matches_struct_literal_run() {
    let topo = small_world(42);
    let built = RuntimeConfig::builder()
        .horizon_ms(6_000.0)
        .churn(ChurnProcess::SparseWalk { nodes_per_tick: 6, std_dev: 0.1 })
        .reopt_interval_ms(2_000.0)
        .full_reopt_interval_ms(None)
        .latency_backend(LatencyBackend::Lazy)
        .threads(1)
        .build();
    let literal = RuntimeConfig {
        horizon_ms: 6_000.0,
        churn: ChurnProcess::SparseWalk { nodes_per_tick: 6, std_dev: 0.1 },
        reopt_interval_ms: Some(2_000.0),
        full_reopt_interval_ms: None,
        latency_backend: LatencyBackend::Lazy,
        threads: 1,
        ..Default::default()
    };
    let run = |config: RuntimeConfig| {
        let mut rt = OverlayRuntime::new(&topo, 42, config);
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run()
    };
    assert_eq!(run(built), run(literal));
}

/// `build()` rejects every time value the event loop cannot advance on
/// — zero reschedules a pass at the same instant forever — every penalty
/// that would poison the report's total cost, and every jitter model the
/// first jitter tick would panic on, and every Vivaldi setting that
/// would embed nothing (no dimension, no round, no sample, a dead or
/// poisoned step constant, fewer than two landmarks); the panic names the
/// field and the value.
#[test]
fn builder_rejects_non_positive_and_non_finite_times() {
    type Setter = fn(RuntimeConfigBuilder, f64) -> RuntimeConfigBuilder;
    let mut rows: Vec<(RuntimeConfigBuilder, String)> = Vec::new();
    let times: [(&str, Setter); 5] = [
        ("tick_ms", |b, v| b.tick_ms(v)),
        ("horizon_ms", |b, v| b.horizon_ms(v)),
        ("reopt_interval_ms", |b, v| b.reopt_interval_ms(v)),
        ("rewrite_interval_ms", |b, v| b.rewrite_interval_ms(v)),
        ("full_reopt_interval_ms", |b, v| b.full_reopt_interval_ms(v)),
    ];
    for (field, set) in times {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let message = format!("{field} must be finite and positive, got {bad}");
            rows.push((set(RuntimeConfig::builder(), bad), message));
        }
        set(RuntimeConfig::builder(), 1.5).build();
    }
    let penalties: [(&str, Setter); 2] = [
        ("migration_penalty", |b, v| b.migration_penalty(v)),
        ("replacement_penalty", |b, v| b.replacement_penalty(v)),
    ];
    for (field, set) in penalties {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let message = format!("{field} must be finite and non-negative, got {bad}");
            rows.push((set(RuntimeConfig::builder(), bad), message));
        }
        set(RuntimeConfig::builder(), 0.0).build();
    }
    let jitter = |factor_range, band| {
        RuntimeConfig::builder().latency_jitter(JitterModel {
            edges_per_tick: 1,
            factor_range,
            band,
        })
    };
    let nan = f64::NAN;
    for bad in [(1.2, 1.2), (1.5, 0.7), (0.0, 1.5), (-0.5, 1.5), (nan, 1.5), (0.7, f64::INFINITY)] {
        let message =
            format!("latency_jitter.factor_range must be finite with 0 < lo < hi, got {bad:?}");
        rows.push((jitter(bad, (0.5, 3.0)), message));
    }
    for bad in [(3.0, 0.5), (-0.5, 3.0), (0.5, nan), (0.5, f64::INFINITY)] {
        let message = format!("latency_jitter.band must be finite with 0 <= lo <= hi, got {bad:?}");
        rows.push((jitter((0.7, 1.45), bad), message));
    }
    // A degenerate band is legal: it pins every jittered edge to one value.
    jitter((0.7, 1.45), (1.0, 1.0)).build();
    for bad in [-1.0, nan] {
        let message = format!("reuse radius must be non-negative, got {bad}");
        rows.push((RuntimeConfig::builder().reuse(ReuseScope::Radius(bad)), message));
    }
    // An unbounded radius is `ReuseScope::All` by another name.
    RuntimeConfig::builder().reuse(ReuseScope::Radius(f64::INFINITY)).build();
    for bad in [-0.1, 1.0, nan, f64::INFINITY] {
        for (field, migration, replacement) in
            [("policy.migration_threshold", bad, 0.1), ("policy.replacement_threshold", 0.05, bad)]
        {
            let policy =
                ReoptPolicy { migration_threshold: migration, replacement_threshold: replacement };
            let message = format!("{field} must be finite in [0, 1), got {bad}");
            rows.push((RuntimeConfig::builder().policy(policy), message));
        }
    }
    let zero = ReoptPolicy { migration_threshold: 0.0, replacement_threshold: 0.0 };
    RuntimeConfig::builder().policy(zero).build();
    for (bits, scan_width, field, bad) in [
        (0, 8, "bits must be in 1..=32", 0),
        (33, 8, "bits must be in 1..=32", 33),
        (12, 0, "scan_width must be at least 1", 0),
    ] {
        let message = format!("mapper_backend.{field}, got {bad}");
        let proto = ProtoConfig::default();
        for backend in [
            MapperBackend::Dht { bits, scan_width },
            MapperBackend::Routed { bits, scan_width, proto },
        ] {
            rows.push((RuntimeConfig::builder().mapper_backend(backend), message.clone()));
        }
    }
    RuntimeConfig::builder().mapper_backend(MapperBackend::Dht { bits: 32, scan_width: 1 }).build();
    let vivaldi = |v: VivaldiConfig| RuntimeConfig::builder().vivaldi(v);
    let base = VivaldiConfig::default;
    for (field, bad) in [
        ("dims", VivaldiConfig { dims: 0, ..base() }),
        ("rounds", VivaldiConfig { rounds: 0, ..base() }),
        ("samples_per_round", VivaldiConfig { samples_per_round: 0, ..base() }),
    ] {
        rows.push((vivaldi(bad), format!("vivaldi.{field} must be at least 1, got 0")));
    }
    let too_wide = VivaldiConfig { dims: 11, ..base() };
    rows.push((vivaldi(too_wide), "vivaldi.dims must be at most 10, got 11".to_owned()));
    for bad in [0.0, -0.25, nan, f64::INFINITY] {
        for (field, config) in [
            ("ce", VivaldiConfig { ce: bad, ..base() }),
            ("cc", VivaldiConfig { cc: bad, ..base() }),
        ] {
            let message = format!("vivaldi.{field} must be finite and positive, got {bad}");
            rows.push((vivaldi(config), message));
        }
    }
    for bad in [0, 1] {
        let message = format!("vivaldi.landmarks must be at least 2, got {bad}");
        rows.push((vivaldi(VivaldiConfig { landmarks: Some(bad), ..base() }), message));
    }
    vivaldi(VivaldiConfig {
        dims: 1,
        rounds: 1,
        samples_per_round: 1,
        landmarks: Some(2),
        ..base()
    })
    .build();
    for (builder, expected) in rows {
        let built = std::panic::catch_unwind(|| builder.build());
        let panic = built.expect_err(&format!("must be rejected: {expected}"));
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        assert_eq!(message, &expected);
    }
    // Disabled cadences carry no value to check.
    RuntimeConfig::builder().reopt_interval_ms(None).full_reopt_interval_ms(None).build();
}

/// Builds a routed-mapper config whose retransmit timeout is `timeout_ms`.
fn build_routed_with_timeout(timeout_ms: f64) -> RuntimeConfig {
    let proto = ProtoConfig { timeout_ms, ..ProtoConfig::default() };
    RuntimeConfig::builder()
        .mapper_backend(MapperBackend::Routed { bits: 12, scan_width: 8, proto })
        .build()
}

/// A NaN timeout used to die at the first routed send, in `SimTime::after`.
#[test]
#[should_panic(expected = "mapper_backend.proto.timeout_ms must be finite and positive, got NaN")]
fn builder_rejects_a_nan_routed_timeout() {
    build_routed_with_timeout(f64::NAN);
}

/// An infinite timeout used to die at the first routed send, too.
#[test]
#[should_panic(expected = "mapper_backend.proto.timeout_ms must be finite and positive, got inf")]
fn builder_rejects_an_infinite_routed_timeout() {
    build_routed_with_timeout(f64::INFINITY);
}

/// A negative timeout used to die inside `EventQueue::schedule`.
#[test]
#[should_panic(expected = "mapper_backend.proto.timeout_ms must be finite and positive, got -1")]
fn builder_rejects_a_negative_routed_timeout() {
    build_routed_with_timeout(-1.0);
}

/// A zero timeout fired every retransmit timer at the instant of its
/// send: every hop spuriously retried and suspected.
#[test]
#[should_panic(expected = "mapper_backend.proto.timeout_ms must be finite and positive, got 0")]
fn builder_rejects_a_zero_routed_timeout() {
    build_routed_with_timeout(0.0);
}

/// A finite timeout whose doubling overflows died at the first retransmit
/// after a dropped message, in `SimTime::after`.
#[test]
#[should_panic(expected = "mapper_backend.proto.timeout_ms must keep the longest backoff finite \
                           under max_retries 3, got 1e308 (backoff inf)")]
fn builder_rejects_a_routed_timeout_whose_backoff_overflows() {
    build_routed_with_timeout(1e308);
}

/// A drained wave's join ticks place nobody and read nothing. With jitter
/// and no circuit, the wave's join ticks read the landmarks' latencies
/// through a view; once the last node has joined, further ticks still
/// repair the store's tables for each jitter batch but read nothing,
/// compute no row and grow the store by no byte.
#[test]
fn drained_wave_ticks_repair_no_landmark_row() {
    let topo = small_world(45);
    let n = topo.num_nodes();
    let mut rt = OverlayRuntime::new(
        &topo,
        45,
        RuntimeConfig::builder()
            .horizon_ms(20_000.0)
            .latency_backend(LatencyBackend::Lazy)
            .latency_jitter(JitterModel { edges_per_tick: 4, ..Default::default() })
            .deployment(DeploymentModel::Wave { initial: 20, joins_per_tick: 20 })
            .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() })
            .build(),
    );
    let mut session = rt.start_run();
    while rt.arrived_count() < n {
        assert!(rt.advance_ticks(&mut session, 1), "the wave drains before the horizon");
    }
    let drained = rt.lazy_latency_stats().unwrap();
    assert!(drained.cache_hits > 0, "the join ticks read the landmark view");
    assert!(rt.advance_ticks(&mut session, 3));
    let after = rt.lazy_latency_stats().unwrap();
    assert!(after.rows_repaired > drained.rows_repaired, "jitter batches repair the tables");
    assert_eq!(
        (after.cache_hits, after.rows_computed),
        (drained.cache_hits, drained.rows_computed),
        "drained-wave ticks read nothing and compute no row"
    );
    assert!(after.resident_bytes <= drained.resident_bytes, "the store does not grow");
}

/// Landmark mode under a deployment wave: construction computes nothing
/// beyond the store but the k landmarks' own-region rows (never one per
/// node), joiners are placed the tick they arrive, and the whole run is
/// deterministic.
#[test]
fn wave_with_landmarks_embeds_k_rows_and_places_joiners() {
    let topo = small_world(43);
    let n = topo.num_nodes();
    let build = || {
        OverlayRuntime::new(
            &topo,
            43,
            RuntimeConfig::builder()
                .horizon_ms(10_000.0)
                .latency_backend(LatencyBackend::Lazy)
                .deployment(DeploymentModel::Wave { initial: 25, joins_per_tick: 10 })
                .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() })
                .build(),
        )
    };
    let rt = build();
    let own = rt.lazy_latency_stats().unwrap().rows_computed
        - LazyLatency::new(topo.graph.clone()).stats().rows_computed;
    assert!(own <= 8, "bring-up computes at most the landmarks' own-region rows, not {own}");
    let run = || {
        let mut rt = build();
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        let handle = rt.deploy(q).unwrap();
        let report = rt.run();
        (report, rt.arrived_count(), rt.placement(handle).cloned())
    };
    let (a, arrived_a, placement_a) = run();
    let (b, arrived_b, placement_b) = run();
    assert_eq!(arrived_a, n, "the wave must complete");
    assert_eq!(arrived_a, arrived_b);
    assert_eq!(a, b, "landmark-mode wave runs must be deterministic");
    assert_eq!(placement_a, placement_b);
}

/// One answer for where a node lands in landmark mode: every node's vector
/// coordinate is the same bit for bit whether the overlay came up all at
/// once (`Full`), joined in a wave that has since drained, or was embedded
/// directly by `VivaldiConfig::embed` — and the `Full` bring-up keeps no
/// placer, since no join is pending.
#[test]
fn full_and_drained_wave_land_every_node_where_embed_does() {
    use sbon_netsim::dijkstra::all_pairs_latency;
    let topo = small_world(44);
    let n = topo.num_nodes();
    let vivaldi = VivaldiConfig { landmarks: Some(8), ..Default::default() };
    let runtime = |deployment| {
        let config = RuntimeConfig::builder()
            .horizon_ms(10_000.0)
            .latency_backend(LatencyBackend::Lazy)
            .deployment(deployment)
            .vivaldi(vivaldi.clone())
            .build();
        OverlayRuntime::new(&topo, 44, config)
    };
    let vector_bits = |rt: &OverlayRuntime| -> Vec<Vec<u64>> {
        (rt.space().points().iter())
            .map(|p| p.vector_part(2).iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let full = runtime(DeploymentModel::Full);
    assert!(full.placer.is_none(), "no join is pending: the placer is dropped");
    let mut wave = runtime(DeploymentModel::Wave { initial: 20, joins_per_tick: 10 });
    assert!(wave.placer.is_some());
    wave.run();
    assert_eq!(wave.arrived_count(), n, "the wave must drain");
    let embedded = vivaldi.embed(&all_pairs_latency(&topo.graph), 44);
    let embedded: Vec<Vec<u64>> =
        (embedded.coords.iter()).map(|c| c.iter().map(|x| x.to_bits()).collect()).collect();
    assert_eq!(vector_bits(&full), embedded, "Full bring-up lands every node where embed does");
    assert_eq!(vector_bits(&wave), embedded, "and so does a drained wave");
}

#[test]
fn double_failure_is_idempotent() {
    let topo = small_world(9);
    let mut rt = OverlayRuntime::new(
        &topo,
        9,
        RuntimeConfig { horizon_ms: 5_000.0, churn: ChurnProcess::None, ..Default::default() },
    );
    rt.deploy(demo_query(&topo)).unwrap();
    let victim = topo.host_candidates()[70];
    rt.schedule_failure(1_000.0, victim);
    rt.schedule_failure(2_000.0, victim);
    rt.run();
    assert!(!rt.is_alive(victim));
}

fn routed_backend() -> MapperBackend {
    MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() }
}

/// The routed backend answers every mapping from the same catalog state
/// as the Dht backend, so whole runs — placements, samples, migrations —
/// must be bit-identical; only the traffic accounting differs.
#[test]
fn routed_backend_run_is_bit_identical_to_dht_backend() {
    let topo = small_world(50);
    let run = |backend| {
        let mut rt = OverlayRuntime::new(
            &topo,
            50,
            RuntimeConfig::builder()
                .horizon_ms(10_000.0)
                .mapper_backend(backend)
                .churn(ChurnProcess::SparseWalk { nodes_per_tick: 8, std_dev: 0.15 })
                .latency_jitter(JitterModel { edges_per_tick: 25, ..Default::default() })
                .reopt_interval_ms(2_000.0)
                .build(),
        );
        let handle = rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        let placement = rt.placement(handle).cloned();
        (report, placement, rt.routed_stats().cloned())
    };
    let (dht_report, dht_placement, dht_routed) =
        run(MapperBackend::Dht { bits: 12, scan_width: 8 });
    let (routed_report, routed_placement, routed) = run(routed_backend());
    assert_eq!(dht_report, routed_report, "routed answers must match the omniscient-state Dht");
    assert_eq!(dht_placement, routed_placement);
    // The Dht backend experiences nothing; the routed backend replayed
    // every deploy/reopt lookup and churn refresh over the underlay.
    assert!(dht_routed.is_none());
    let routed = routed.expect("the routed backend keeps routed stats");
    assert!(routed.messages > 0, "routed traffic must be charged");
    assert!(routed.lookups > 0);
    let p50 = routed.p50_latency_ms().expect("a settled lookup");
    let p99 = routed.p99_latency_ms().expect("a settled lookup");
    assert!(p50 > 0.0 && p99 >= p50, "experienced latency must be positive: {p50} / {p99}");
    assert!(routed.hop_histogram().iter().sum::<u64>() > 0);
}

/// The routed protocol settles only on serial paths (tick boundary,
/// failures, deploy), so its clock and stats — like the run itself —
/// must not depend on the worker-pool width.
#[test]
fn routed_run_is_bit_identical_across_thread_counts() {
    let topo = small_world(51);
    let run = |threads: usize| {
        let mut rt = OverlayRuntime::new(
            &topo,
            51,
            RuntimeConfig::builder()
                .horizon_ms(8_000.0)
                .threads(threads)
                .mapper_backend(routed_backend())
                .churn(ChurnProcess::SparseWalk { nodes_per_tick: 10, std_dev: 0.15 })
                .latency_jitter(JitterModel { edges_per_tick: 20, ..Default::default() })
                .reopt_interval_ms(2_000.0)
                .build(),
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        (report, rt.routed_stats().cloned().unwrap())
    };
    let (serial, serial_routed) = run(1);
    let (parallel, parallel_routed) = run(8);
    assert_eq!(serial, parallel, "thread count must not change a routed run");
    assert_eq!(serial_routed, parallel_routed, "full routed stats must match bit-for-bit");
    assert!(serial_routed.messages > 0);
}

/// A node failure under the routed backend re-maps the evacuated
/// services through the live protocol and the catalog converges on
/// surviving nodes only.
#[test]
fn routed_backend_survives_failures_and_reconverges() {
    let topo = small_world(52);
    let mut rt = OverlayRuntime::new(
        &topo,
        52,
        RuntimeConfig::builder()
            .horizon_ms(8_000.0)
            .mapper_backend(routed_backend())
            .churn(ChurnProcess::None)
            .build(),
    );
    assert_eq!(rt.mapper_name(), "routed-dht");
    let handles: Vec<_> = [demo_query(&topo)].into_iter().map(|q| rt.deploy(q).unwrap()).collect();
    let victim = topo.host_candidates()[60];
    rt.schedule_failure(3_000.0, victim);
    rt.run();
    assert!(!rt.is_alive(victim));
    for &h in &handles {
        if let Some(p) = rt.placement(h) {
            assert!(p.as_slice().iter().all(|&n| rt.is_alive(n)));
        }
    }
    let routed = rt.routed_stats().unwrap();
    assert!(routed.messages > 0, "failure evacuation must re-register over the wire");
    assert_eq!(routed.timeouts, 0, "an unpartitioned underlay never times out");
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 12 })]

    /// The stored usage is exact: after every operation of a random
    /// schedule — deploys, undeploys under reuse (so retained subtrees
    /// appear and drain), each re-opt pass kind, node failures, ticks with
    /// and without a jitter batch before them — the billed usage equals
    /// re-reading every charged link, bit for bit, at one and two threads.
    #[test]
    fn stored_usage_equals_rereading_every_link(
        (seed, ops) in (0u64..1_000_000, 30usize..80)
    ) {
        let topo = generate(&TransitStubConfig::with_total_nodes(90), seed);
        let hosts = topo.host_candidates();
        for threads in [1, 2] {
            let config = RuntimeConfig::builder()
                .horizon_ms(1e9)
                .churn(ChurnProcess::Step { p: 0.3 })
                .reuse(ReuseScope::All)
                .threads(threads)
                .build();
            let jitter =
                JitterModel { edges_per_tick: 12, factor_range: (0.6, 1.8), band: (0.5, 3.0) };
            let mut rt = OverlayRuntime::new(&topo, seed, config);
            let mut session = rt.start_run();
            let mut rng = derive_rng(seed, 0xB111);
            let mut live: Vec<CircuitHandle> = Vec::new();
            // An owner and two tenants of its nested joins; the owner
            // departs, then the outer tenant: a retained subtree whose
            // charge mask shrinks after a tick billed it.
            const OPENING: [u32; 7] = [0, 0, 0, 9, 3, 9, 3];
            for op in 0..ops {
                let now = SimTime(session.now_ms());
                let kind = OPENING.get(op).copied().unwrap_or_else(|| rng.gen_range(0..10));
                match kind {
                    // Join stars over prefixes of one producer list, so
                    // later ones reuse earlier ones' joins at nested
                    // roots — or, for kind 2 past the opening, over
                    // random hosts, so most stay untenanted and the
                    // plan-replacing passes may swap them.
                    0..=2 => {
                        let prefix = |i: usize| hosts[(i * 7) % hosts.len()];
                        let k = if op < 3 { 4 - op } else { rng.gen_range(2..5) };
                        let producers: Vec<NodeId> = if kind == 2 && op >= 3 {
                            (0..k).map(|_| hosts[rng.gen_range(0..hosts.len())]).collect()
                        } else {
                            (0..k).map(prefix).collect()
                        };
                        let q = QuerySpec::join_star(
                            &producers,
                            prefix(5 + op % 3),
                            rng.gen_range(2.0..12.0),
                            0.02,
                        );
                        live.extend(rt.deploy(q));
                    }
                    3 if op < OPENING.len() => {
                        rt.undeploy(live.remove(0));
                    }
                    3 if !live.is_empty() => {
                        rt.undeploy(live.swap_remove(rng.gen_range(0..live.len())));
                    }
                    4 => rt.reopt_pass(&mut session, now, ReoptKind::Local),
                    5 => rt.reopt_pass(&mut session, now, ReoptKind::Rewrite),
                    6 => rt.reopt_pass(&mut session, now, ReoptKind::Full),
                    7 => {
                        // A host of some live circuit's service, so the
                        // failure evacuates (or tears down) something.
                        let placed: Vec<NodeId> = live
                            .iter()
                            .filter_map(|&h| rt.placement(h))
                            .flat_map(|p| p.as_slice().to_vec())
                            .collect();
                        if !placed.is_empty() {
                            let node = placed[rng.gen_range(0..placed.len())];
                            rt.handle_event(&mut session, now, Event::Fail(node));
                        }
                    }
                    8 => {
                        rt.latency.jitter(&jitter, &mut rt.rng, &mut rt.obs);
                        rt.advance_ticks(&mut session, 1);
                    }
                    _ => {
                        rt.advance_ticks(&mut session, 1);
                    }
                }
                let (billed, reread) = (rt.instantaneous_usage(), rt.usage_by_rereading());
                proptest::prop_assert!(
                    billed.to_bits() == reread.to_bits(),
                    "op {op}: billed {billed} != re-read {reread} ({threads} threads)"
                );
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig { cases: 6 })]

    /// Per-pass candidate lists are decision-identical: a run whose
    /// plan-replacing passes build each distinct list once equals, bit for
    /// bit and in candidates pruned, the reference in which every evaluated
    /// circuit generates its own (`lists_per_circuit`). The schedule deploys
    /// join stars over local stream ids (so running plans and query shapes
    /// repeat) — 3-, 4- and 6-way, the last on the DP branch and some of
    /// those with a stream rate of their own, some with a source filter that
    /// renders like another or differs from it only in its bits, some with a
    /// root aggregate — then interleaves local, rewrite and full passes,
    /// ticks under all-node churn, node failures, deploys and undeploys, at
    /// one and two threads, under the default or an eager replacement
    /// threshold. It is not vacuous: some pass replaces a plan (so a later
    /// rewrite pass keys on the new one), and the passes build fewer lists
    /// than they evaluate circuits.
    #[test]
    fn shared_candidate_lists_equal_per_circuit_generation(
        (seed, ops, eager) in (0u64..1_000_000, 40usize..70, 0u8..2)
    ) {
        // An eager policy replaces a circuit whenever its list's best is no
        // dearer, so any list that is not the circuit's own shows.
        let policy = ReoptPolicy {
            replacement_threshold: if eager == 1 { 0.0 } else { 0.1 },
            ..ReoptPolicy::default()
        };
        let topo = generate(&TransitStubConfig::with_total_nodes(90), seed);
        let hosts = topo.host_candidates();
        let query = |rng: &mut rand::rngs::StdRng| {
            let k = [3, 3, 4, 4, 6][rng.gen_range(0..5usize)];
            let producers: Vec<NodeId> =
                (0..k).map(|_| hosts[rng.gen_range(0..hosts.len())]).collect();
            let consumer = hosts[rng.gen_range(0..hosts.len())];
            let rate = [4.0, 10.0][rng.gen_range(0..2usize)];
            let mut q = QuerySpec::join_star(&producers, consumer, rate, 0.02);
            let stream = |i: usize| sbon_query::stream::StreamId(i as u32);
            if k == 6 && rng.gen_bool(0.5) {
                // Equal join sets, catalogs whose DP ranks differ.
                q = q.with_rate(stream(rng.gen_range(0..k)), 40.0);
            }
            match rng.gen_range(0..6) {
                0 => q.with_source_filter(stream(0), 0.5),
                1 => q.with_source_filter(stream(0), f64::from_bits(0.5f64.to_bits() + 1)),
                2 => q.with_source_filter(stream(0), 0.25),
                3 => q.with_root_aggregate(0.3),
                _ => q,
            }
        };
        for threads in [1, 2] {
            let run = |per_circuit: bool| {
                let config = RuntimeConfig::builder()
                    .horizon_ms(1e9)
                    .churn(ChurnProcess::RandomWalk { std_dev: 0.2 })
                    .policy(policy)
                    .threads(threads)
                    .build();
                let mut rt = OverlayRuntime::new(&topo, seed, config);
                rt.lists_per_circuit = per_circuit;
                let mut session = rt.start_run();
                let mut rng = derive_rng(seed, 0x115c);
                let mut live: Vec<CircuitHandle> = Vec::new();
                for _ in 0..12 {
                    live.extend(rt.deploy(query(&mut rng)));
                }
                let (mut evaluated, mut lists) = (0, 0);
                for _ in 0..ops {
                    let now = SimTime(session.now_ms());
                    match rng.gen_range(0..10) {
                        0 => live.extend(rt.deploy(query(&mut rng))),
                        1 if !live.is_empty() => {
                            rt.undeploy(live.swap_remove(rng.gen_range(0..live.len())));
                        }
                        2 => rt.reopt_pass(&mut session, now, ReoptKind::Local),
                        kind @ (3 | 4) => {
                            let kind = if kind == 3 { ReoptKind::Rewrite } else { ReoptKind::Full };
                            let before = rt.control_plane_stats();
                            rt.reopt_pass(&mut session, now, kind);
                            let after = rt.control_plane_stats();
                            evaluated += after.reopt_evaluated - before.reopt_evaluated;
                            lists += after.candidate_lists - before.candidate_lists;
                        }
                        5 => {
                            let placed: Vec<NodeId> = live
                                .iter()
                                .filter_map(|&h| rt.placement(h))
                                .flat_map(|p| p.as_slice().to_vec())
                                .collect();
                            if !placed.is_empty() {
                                let node = placed[rng.gen_range(0..placed.len())];
                                rt.handle_event(&mut session, now, Event::Fail(node));
                            }
                        }
                        _ => {
                            rt.advance_ticks(&mut session, 1);
                        }
                    }
                }
                let pruned = rt.control_plane_stats().candidates_pruned;
                (rt.finish_run(session), pruned, evaluated, lists)
            };
            let (reference, reference_pruned, _, _) = run(true);
            let (shared, pruned, evaluated, lists) = run(false);
            proptest::prop_assert!(shared == reference, "{threads} threads: the runs differ");
            // The bound prunes by list: a list not the circuit's own would
            // show here even where its best is the same plan.
            proptest::prop_assert_eq!(pruned, reference_pruned);
            proptest::prop_assert!(lists < evaluated as u64, "{lists} lists, {evaluated} evaluated");
            proptest::prop_assert!(shared.replacements > 0, "no plan was replaced");
        }
    }
}
