//! Criterion benchmark backing F1: per-query optimization latency of the
//! integrated optimizer (15 placed candidates) vs the two-step baseline
//! (1 placed candidate) on a 300-node world.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sbon_bench::{build_world, pick_hosts, WorldConfig};
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec, TwoStepOptimizer};
use sbon_netsim::rng::derive_rng;

fn bench_optimizer(c: &mut Criterion) {
    let world = build_world(&WorldConfig { nodes: 300, ..Default::default() }, 1);
    let mut rng = derive_rng(1, 0xbe);
    let queries: Vec<QuerySpec> = (0..32)
        .map(|_| {
            let hosts = pick_hosts(&world, 5, &mut rng);
            QuerySpec::join_star(&hosts[..4], hosts[4], 10.0, 0.02)
        })
        .collect();

    let integrated = IntegratedOptimizer::new(OptimizerConfig::default());
    let two_step = TwoStepOptimizer::new();

    let mut group = c.benchmark_group("optimizer_300_nodes_4way");
    group.sample_size(30);
    group.bench_function("integrated", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(integrated.optimize(&queries[i], &world.space, &world.latency))
        })
    });
    group.bench_function("two_step", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(two_step.optimize(&queries[i], &world.space, &world.latency))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
