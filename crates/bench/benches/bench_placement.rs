//! Criterion benchmark backing A2: virtual-placement algorithm latency on a
//! five-way join circuit over a 600-node world.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sbon_bench::{build_world, pick_hosts, WorldConfig};
use sbon_core::circuit::Circuit;
use sbon_core::optimizer::QuerySpec;
use sbon_core::placement::{CentroidPlacer, GradientPlacer, RelaxationPlacer, VirtualPlacer};
use sbon_netsim::rng::derive_rng;

fn bench_placement(c: &mut Criterion) {
    let world = build_world(&WorldConfig::default(), 2);
    let mut rng = derive_rng(2, 0xbe);
    let circuits: Vec<Circuit> = (0..16)
        .map(|_| {
            let hosts = pick_hosts(&world, 6, &mut rng);
            let query = QuerySpec::join_star(&hosts[..5], hosts[5], 10.0, 0.02);
            let plan = sbon_query::enumerate::dp_best_plan(&query.catalog, &query.join_set).0;
            Circuit::from_plan(&plan, &query.catalog, query.consumer)
        })
        .collect();

    let mut group = c.benchmark_group("virtual_placement_5way_600n");
    group.bench_function("relaxation", |b| {
        let placer = RelaxationPlacer::default();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % circuits.len();
            black_box(placer.place(&circuits[i], &world.space))
        })
    });
    group.bench_function("centroid", |b| {
        let placer = CentroidPlacer;
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % circuits.len();
            black_box(placer.place(&circuits[i], &world.space))
        })
    });
    group.bench_function("gradient", |b| {
        let placer = GradientPlacer::default();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % circuits.len();
            black_box(placer.place(&circuits[i], &world.space))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
