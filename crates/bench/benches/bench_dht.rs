//! Criterion benchmark for the Hilbert-DHT coordinate catalog: closest-node
//! lookup and the multi-query k-nearest search at 600-node scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;
use sbon_bench::{build_world, WorldConfig};
use sbon_dht::catalog::CoordinateCatalog;
use sbon_hilbert::{HilbertCurve, Quantizer};
use sbon_netsim::rng::derive_rng;

fn bench_dht(c: &mut Criterion) {
    let world = build_world(&WorldConfig::default(), 3);
    let points: Vec<Vec<f64>> =
        world.space.points().iter().map(|p| p.as_slice().to_vec()).collect();
    let dims = world.space.dims();
    let quantizer = Quantizer::covering(&points, 12, 0.25);
    let mut catalog = CoordinateCatalog::new(HilbertCurve::new(dims, 12), quantizer, 8);
    for (i, p) in points.iter().enumerate() {
        catalog.insert(i as u32, p);
    }

    let mut rng = derive_rng(3, 0xd47);
    let targets: Vec<Vec<f64>> = (0..256)
        .map(|_| {
            let base = &points[rng.gen_range(0..points.len())];
            base.iter().map(|v| v + rng.gen_range(-5.0..5.0)).collect()
        })
        .collect();

    let mut group = c.benchmark_group("dht_600_nodes");
    group.bench_function("lookup_closest", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(catalog.lookup_closest(&targets[i]))
        })
    });
    group.bench_function("k_nearest_8", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(catalog.k_nearest(&targets[i], 8))
        })
    });
    group.bench_function("exhaustive_closest_oracle", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(catalog.exhaustive_closest(&targets[i]))
        })
    });
    group.bench_function("reinsert_coordinate_update", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % points.len();
            catalog.insert(i as u32, &points[i]);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dht);
criterion_main!(benches);
