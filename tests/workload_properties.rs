//! Property tests for the query lifecycle: deploy/undeploy symmetry and
//! reuse-refcount hygiene under arbitrary arrival/departure interleavings.

use proptest::prelude::*;
use rand::Rng;

use sbon::core::multiquery::ReuseScope;
use sbon::core::optimizer::{IntegratedOptimizer, OptimizerConfig};
use sbon::core::reopt::ReoptPolicy;
use sbon::netsim::load::ChurnProcess;
use sbon::netsim::rng::derive_rng;
use sbon::overlay::{CircuitHandle, LinkTraffic, OverlayRuntime, RuntimeConfig};
use sbon::prelude::*;

fn world(seed: u64) -> Topology {
    transit_stub::generate(&TransitStubConfig::with_total_nodes(60), seed)
}

/// A small pool of queries over shared producer sets, so subtree ids collide
/// and reuse (including chains) actually happens.
fn query_pool(topo: &Topology) -> Vec<QuerySpec> {
    let hosts = topo.host_candidates();
    let p = [hosts[0], hosts[7], hosts[14], hosts[21]];
    let consumers = [hosts[30], hosts[35], hosts[40], hosts[45]];
    let mut pool = Vec::new();
    for &c in &consumers {
        pool.push(QuerySpec::join_star(&p[..2], c, 10.0, 0.02));
        pool.push(QuerySpec::join_star(&p[..3], c, 10.0, 0.02));
        pool.push(QuerySpec::join_star(&p, c, 10.0, 0.02));
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// deploy → undeploy → redeploy is bit-identical to deploying once:
    /// instantaneous usage, the redeployed placement, and the cost space
    /// are all unchanged — with reuse both off and on (alternating by
    /// seed), against a non-empty background workload.
    #[test]
    fn deploy_undeploy_redeploy_is_bit_identical(
        seed in 0u64..1_000_000,
        background in 0usize..3,
        probe in 0usize..12,
    ) {
        let topo = world(seed);
        let reuse = if seed % 2 == 0 { ReuseScope::None } else { ReuseScope::All };
        let mut rt = OverlayRuntime::new(
            &topo,
            seed,
            RuntimeConfig::builder()
                .horizon_ms(5_000.0)
                .churn(ChurnProcess::None)
                .reuse(reuse)
                .build(),
        );
        let pool = query_pool(&topo);
        for q in pool.iter().take(background) {
            prop_assert!(rt.deploy(q.clone()).is_some());
        }
        let space_before: Vec<Vec<u64>> = rt
            .space()
            .points()
            .iter()
            .map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        let usage_before = rt.instantaneous_usage().to_bits();

        let q = pool[probe % pool.len()].clone();
        let h = rt.deploy(q.clone()).unwrap();
        let usage_with = rt.instantaneous_usage().to_bits();
        let placement_first = rt.placement(h).unwrap().clone();

        prop_assert!(rt.undeploy(h));
        prop_assert_eq!(rt.instantaneous_usage().to_bits(), usage_before);
        prop_assert_eq!(rt.retained_shared_subtrees(), 0);

        let h2 = rt.deploy(q).unwrap();
        prop_assert_eq!(rt.placement(h2).unwrap(), &placement_first);
        prop_assert_eq!(rt.instantaneous_usage().to_bits(), usage_with);
        let space_after: Vec<Vec<u64>> = rt
            .space()
            .points()
            .iter()
            .map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        prop_assert_eq!(space_before, space_after);
    }

    /// Charging a circuit into the underlay traffic view and discharging it
    /// leaves every per-edge rate bit-identical to never having charged —
    /// also with other circuits charged before/after in arbitrary order.
    #[test]
    fn traffic_discharge_is_bit_identical(
        seed in 0u64..1_000_000,
        order in 0usize..6,
    ) {
        let topo = world(seed);
        let latency = all_pairs_latency(&topo.graph);
        let embedding = VivaldiConfig::default().embed(&latency, seed);
        let mut rng = derive_rng(seed, 0x7afc);
        let loads = LoadModel::Random { lo: 0.0, hi: 0.5 }.generate(topo.num_nodes(), &mut rng);
        let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
        let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed: Vec<_> = query_pool(&topo)
            .into_iter()
            .skip(order)
            .take(3)
            .map(|q| optimizer.optimize(&q, &space, &latency).unwrap())
            .collect();

        let edge_bits = |t: &LinkTraffic| -> Vec<u64> {
            (0..topo.graph.num_edges()).map(|e| t.rate_on(e).to_bits()).collect()
        };
        let mut traffic = LinkTraffic::zero(&topo);
        traffic.charge_circuit(&topo, &placed[0].circuit, &placed[0].placement);
        let background = edge_bits(&traffic);
        // Charge the probe, overlay one more circuit, then discharge the
        // probe: the result must equal background + the later circuit.
        traffic.charge_circuit(&topo, &placed[1].circuit, &placed[1].placement);
        traffic.charge_circuit(&topo, &placed[2].circuit, &placed[2].placement);
        traffic.discharge_circuit(&topo, &placed[1].circuit, &placed[1].placement);
        let mut reference = LinkTraffic::zero(&topo);
        reference.charge_circuit(&topo, &placed[0].circuit, &placed[0].placement);
        reference.charge_circuit(&topo, &placed[2].circuit, &placed[2].placement);
        prop_assert_eq!(edge_bits(&traffic), edge_bits(&reference));
        // And discharging everything restores the zero state.
        traffic.discharge_circuit(&topo, &placed[0].circuit, &placed[0].placement);
        traffic.discharge_circuit(&topo, &placed[2].circuit, &placed[2].placement);
        prop_assert_eq!(edge_bits(&traffic), edge_bits(&LinkTraffic::zero(&topo)));
        let _ = background;
    }

    /// Under random arrival/departure interleavings with reuse enabled —
    /// interleaved with simulation ticks, churn, plan-replacing re-opt
    /// passes and up to two node failures — shared-service refcounts never
    /// go negative (an underflow panics inside the registry) and fully
    /// drain to zero once every surviving query departs, with usage back at
    /// the empty baseline and the registry's subtree-id table empty.
    #[test]
    fn random_interleavings_drain_refcounts_to_zero(
        seed in 0u64..1_000_000,
        ops in 8usize..60,
        failures in 0usize..3,
    ) {
        let topo = world(seed);
        let mut rt = OverlayRuntime::new(
            &topo,
            seed,
            RuntimeConfig::builder()
                // Effectively unbounded horizon: the interleaving decides
                // how many ticks actually run.
                .horizon_ms(1e12)
                .churn(ChurnProcess::SparseWalk { nodes_per_tick: 4, std_dev: 0.1 })
                // Any strictly cheaper plan replaces, so untenanted circuits
                // do get swapped (and re-registered) under this much churn.
                .rewrite_interval_ms(2_000.0)
                .full_reopt_interval_ms(3_000.0)
                .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.0 })
                .reuse(ReuseScope::All)
                .build(),
        );
        let baseline = rt.instantaneous_usage().to_bits();
        let pool = query_pool(&topo);
        let mut rng = derive_rng(seed, 0x0b5e);
        // Failures land while ticks are still running (about a quarter of
        // the ops are ticks), mostly on the hosts the pool pins producers
        // and consumers to: any other host only ever evacuates, and it is
        // the teardown cascade through subscribers this test is after.
        let hosts = topo.host_candidates();
        for _ in 0..failures {
            let pinned = [0, 7, 14, 21, 30, 35, 40, 45];
            let host = match rng.gen_range(0..8) {
                0 => hosts[rng.gen_range(0..hosts.len())],
                _ => hosts[pinned[rng.gen_range(0..pinned.len())]],
            };
            let tick = rng.gen_range(1..=ops / 4 + 1);
            rt.schedule_failure(tick as f64 * 1_000.0 + 500.0, host);
        }
        let mut session = rt.start_run();
        let mut live: Vec<CircuitHandle> = Vec::new();
        for _ in 0..ops {
            match rng.gen_range(0..4) {
                // Arrival.
                0 | 1 => {
                    let q = pool[rng.gen_range(0..pool.len())].clone();
                    if let Some(h) = rt.deploy(q) {
                        live.push(h);
                    }
                }
                // Departure (when anyone is live).
                2 => {
                    if !live.is_empty() {
                        let h = live.swap_remove(rng.gen_range(0..live.len()));
                        prop_assert!(rt.undeploy(h));
                    }
                }
                // Let the simulation tick (churn + usage accounting over
                // whatever is live and retained).
                _ => {
                    prop_assert!(rt.advance_ticks(&mut session, 1));
                }
            }
            live.retain(|h| !rt.failed_circuits().contains(h));
            let mq = rt.multiquery().expect("reuse registry active");
            // The gauge invariants that must hold at every step.
            prop_assert!(mq.num_retained() >= rt.retained_shared_subtrees());
            if live.is_empty() {
                prop_assert_eq!(rt.active_queries(), 0);
            }
        }
        // Scenario end: everyone departs.
        for h in live.drain(..) {
            prop_assert!(rt.undeploy(h));
        }
        let mq = rt.multiquery().unwrap();
        prop_assert_eq!(mq.total_subscriptions(), 0);
        prop_assert_eq!(mq.num_instances(), 0);
        prop_assert_eq!(mq.num_subtree_ids(), 0);
        prop_assert_eq!(mq.num_retained(), 0);
        prop_assert_eq!(rt.retained_shared_subtrees(), 0);
        prop_assert_eq!(rt.active_queries(), 0);
        prop_assert_eq!(rt.instantaneous_usage().to_bits(), baseline);
    }
}
