//! Criterion benchmark for the query lifecycle: deploy/undeploy throughput
//! against a standing tenant population, with multi-query reuse off vs on,
//! at n ∈ {256, 2048}.
//!
//! Alongside the timing, each configuration prints the reuse economics of
//! its standing population (marginal vs standalone usage at deploy time) —
//! the quantity reuse buys at the cost of the discovery scan being timed.
//!
//! `deploy_lazy_cold` is the micro counterpart of the benchmark's
//! `planet-100k` `setup_s`: one deploy at 10k nodes on `Lazy` + `Dht` whose
//! hosts no earlier deploy touched, so every latency row it needs is cold.
//! It reports µs/deploy and rows/deploy; the rows are the deployed circuit's
//! link sources (7 for a 4-way join), never a rejected candidate's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{LatencyBackend, OverlayRuntime, RuntimeConfig};
use sbon_query::stream::StreamCatalog;
use sbon_workload::templates::{QueryGenerator, QueryTemplate};
use sbon_workload::CatalogSpec;

/// Builds a runtime with a standing population of `standing` deployed
/// queries, plus a bank of pre-drawn arrival queries.
fn build(nodes: usize, reuse: ReuseScope, standing: usize) -> (OverlayRuntime, Vec<QuerySpec>) {
    let seed = 0xBE7C0;
    let topo = generate(&TransitStubConfig::with_total_nodes(nodes), seed);
    let mut rt = OverlayRuntime::new(
        &topo,
        seed,
        RuntimeConfig::builder()
            .churn(ChurnProcess::None)
            .latency_backend(LatencyBackend::Lazy)
            .vivaldi(VivaldiConfig { landmarks: Some(32), ..Default::default() })
            .reuse(reuse)
            .build(),
    );
    let spec = CatalogSpec::default();
    let mut rng = derive_rng(seed, 0xCA7);
    let hosts = topo.host_candidates();
    let mut streams = StreamCatalog::new();
    for i in 0..spec.feeds {
        use rand::Rng;
        let host = hosts[rng.gen_range(0..hosts.len())];
        streams.register(format!("feed{i}"), spec.rate, host);
    }
    let generator = QueryGenerator::new(
        streams,
        spec.join_selectivity,
        spec.zipf_exponent,
        hosts,
        &[
            (QueryTemplate::PopularFeedJoin { ways: 2 }, 3.0),
            (QueryTemplate::PopularFeedJoin { ways: 3 }, 1.0),
        ],
    );
    for _ in 0..standing {
        let q = generator.draw(&mut rng);
        rt.deploy(q).expect("standing query deploys");
    }
    let bank: Vec<QuerySpec> = (0..64).map(|_| generator.draw(&mut rng)).collect();
    (rt, bank)
}

fn bench_workload(c: &mut Criterion) {
    for &nodes in &[256usize, 2048] {
        let mut group = c.benchmark_group(format!("workload_lifecycle_{nodes}_nodes"));
        group.sample_size(20);
        for (label, scope) in
            [("reuse_off", ReuseScope::None), ("reuse_on", ReuseScope::Radius(60.0))]
        {
            let (mut rt, bank) = build(nodes, scope, 32);
            let stats = rt.lifecycle_stats();
            println!(
                "  [{label} n={nodes}] standing population: marginal {:.0} vs standalone {:.0} \
                 usage at deploy time ({} reuse hits / 32 queries)",
                stats.marginal_usage, stats.standalone_usage, stats.reuse_hits
            );
            group.bench_function(format!("deploy_undeploy/{label}").as_str(), |b| {
                let mut i = 0;
                b.iter(|| {
                    i = (i + 1) % bank.len();
                    let h = rt.deploy(bank[i].clone()).expect("arrival deploys");
                    black_box(rt.undeploy(h))
                })
            });
        }
        group.finish();
    }
}

fn bench_deploy_lazy_cold(c: &mut Criterion) {
    use rand::seq::SliceRandom;
    let seed = 0xC01D;
    let topo = generate(&TransitStubConfig::with_total_nodes(10_000), seed);
    let mut rt = OverlayRuntime::new(
        &topo,
        seed,
        RuntimeConfig::builder()
            .churn(ChurnProcess::None)
            .latency_backend(LatencyBackend::Lazy)
            .vivaldi(VivaldiConfig { landmarks: Some(32), ..Default::default() })
            .build(),
    );
    // Disjoint 5-host groups: iteration i deploys onto hosts nobody has
    // read a latency out of yet.
    let mut hosts = topo.host_candidates();
    hosts.shuffle(&mut derive_rng(seed, 0xCA7));
    let bank: Vec<QuerySpec> =
        hosts.chunks_exact(5).map(|h| QuerySpec::join_star(&h[..4], h[4], 10.0, 0.02)).collect();

    let rows_before = rt.lazy_latency_stats().expect("lazy backend").rows_computed;
    let mut deploys = 0usize;
    let mut group = c.benchmark_group("deploy_lazy_cold_10000_nodes");
    group.bench_function("deploy_undeploy", |b| {
        b.iter(|| {
            let h = rt.deploy(bank[deploys].clone()).expect("arrival deploys");
            deploys += 1;
            black_box(rt.undeploy(h))
        })
    });
    group.finish();
    let rows = rt.lazy_latency_stats().expect("lazy backend").rows_computed - rows_before;
    println!(
        "  [deploy_lazy_cold] {rows} rows over {deploys} deploys = {:.2} rows/deploy \
         ({} worker threads)",
        rows as f64 / deploys as f64,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
}

criterion_group!(benches, bench_workload, bench_deploy_lazy_cold);
criterion_main!(benches);
