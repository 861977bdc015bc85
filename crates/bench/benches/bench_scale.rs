//! Criterion benchmark backing C3: integrated optimization latency vs
//! overlay size, plus the omniscient tree-DP baseline at each size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sbon_bench::{build_world, pick_hosts, World, WorldConfig};
use sbon_core::circuit::Circuit;
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec};
use sbon_core::placement::optimal_tree_placement;
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::rng::derive_rng;

fn queries_for(world: &World, count: usize) -> Vec<QuerySpec> {
    let mut rng = derive_rng(world.seed, 0x5ca1e);
    (0..count)
        .map(|_| {
            let hosts = pick_hosts(world, 5, &mut rng);
            QuerySpec::join_star(&hosts[..4], hosts[4], 10.0, 0.02)
        })
        .collect()
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(20);
    for nodes in [100usize, 300, 600] {
        // The omniscient tree-DP target scans every host pair: dense
        // workload.
        let world = build_world(
            &WorldConfig {
                nodes,
                backend: sbon_bench::GroundTruthBackend::Dense,
                ..Default::default()
            },
            nodes as u64,
        );
        let queries = queries_for(&world, 8);
        let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
        group.bench_with_input(BenchmarkId::new("integrated_optimize", nodes), &nodes, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(optimizer.optimize(&queries[i], &world.space, &world.latency))
            })
        });
        let hosts = world.topology.host_candidates();
        let circuits: Vec<Circuit> = queries
            .iter()
            .map(|q| {
                let plan = sbon_query::enumerate::dp_best_plan(&q.catalog, &q.join_set).0;
                Circuit::from_plan(&plan, &q.catalog, q.consumer)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("omniscient_tree_dp", nodes), &nodes, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % circuits.len();
                black_box(optimal_tree_placement(&circuits[i], &hosts, |x, y| {
                    world.latency.latency(x, y)
                }))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
