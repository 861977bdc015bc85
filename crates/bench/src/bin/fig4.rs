//! **F4 — Figure 4**: multi-query optimization pruned to a cost-space
//! radius r.
//!
//! The figure: a new circuit's optimizer only considers reusing services of
//! circuits "that fall within a circle with radius r" of the new service's
//! desired coordinate; far-away circuits (C1, C2) are ignored, the nearby
//! one (C3) is merged with.
//!
//! Reproduction: 120 running circuits drawn over a shared pool of 24
//! popular streams (Zipf-weighted, so identical join subtrees recur), then
//! 40 fresh queries optimized under a radius sweep
//! `r ∈ {0, 10, 20, 40, 80, 160, ∞}`. Reported per r: reuse candidates
//! examined (the pruning win), reuse rate, marginal network usage (the
//! quality cost of pruning), and wall time.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench binary: wall-clock timing is the measurement itself"
)]

use std::time::Instant;

use rand::Rng;

use sbon_bench::{build_world, known_failure_unless, pct, printed, section, verdict, WorldConfig};
use sbon_core::multiquery::{MultiQueryOptimizer, ReuseScope};
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec};
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::{derive_rng, Zipf};
use sbon_query::stream::{StreamCatalog, StreamId};

/// Draws a query over the shared stream pool: 2–3 Zipf-popular streams and
/// a random stub consumer.
fn draw_query(
    streams: &StreamCatalog,
    hosts: &[sbon_netsim::graph::NodeId],
    zipf: &Zipf,
    rng: &mut impl Rng,
) -> QuerySpec {
    let k = if rng.gen_bool(0.5) { 2 } else { 3 };
    let mut set = Vec::new();
    while set.len() < k {
        let id = StreamId(zipf.sample(rng) as u32);
        if !set.contains(&id) {
            set.push(id);
        }
    }
    let consumer = hosts[rng.gen_range(0..hosts.len())];
    QuerySpec::new(streams.clone(), set, consumer)
}

fn main() {
    section("F4 / Figure 4 — multi-query optimization with radius-r pruning");

    let world = build_world(&WorldConfig::default(), 11);
    let mut rng = derive_rng(11, 0xF4);
    let hosts = world.topology.host_candidates();

    // Shared pool of popular streams pinned around the network.
    let mut streams = StreamCatalog::new();
    streams.set_default_selectivity(0.02);
    for i in 0..24 {
        let host = hosts[rng.gen_range(0..hosts.len())];
        streams.register(format!("feed{i}"), 10.0, host);
    }
    let zipf = Zipf::new(24, 1.1);
    let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());

    // Pre-deploy the running workload (no reuse, so the instance pool is
    // maximal and identical for every scope).
    let mut base = MultiQueryOptimizer::default();
    for _ in 0..120 {
        let q = draw_query(&streams, &hosts, &zipf, &mut rng);
        base.optimize_and_deploy(&optimizer, &q, &world.space, &world.latency, ReuseScope::None)
            .expect("pre-deployment always succeeds");
    }
    println!(
        "pre-deployed {} circuits, {} reusable operator instances",
        base.num_circuits(),
        base.num_instances()
    );

    let new_queries: Vec<QuerySpec> =
        (0..40).map(|_| draw_query(&streams, &hosts, &zipf, &mut rng)).collect();

    let scopes: Vec<(String, ReuseScope)> = vec![
        ("r = 0 (no reuse)".into(), ReuseScope::None),
        ("r = 10".into(), ReuseScope::Radius(10.0)),
        ("r = 20".into(), ReuseScope::Radius(20.0)),
        ("r = 40".into(), ReuseScope::Radius(40.0)),
        ("r = 80".into(), ReuseScope::Radius(80.0)),
        ("r = 160".into(), ReuseScope::Radius(160.0)),
        ("r = ∞ (exhaustive)".into(), ReuseScope::All),
    ];

    println!();
    println!(
        "{:<20} {:>10} {:>9} {:>14} {:>14} {:>9}",
        "scope", "cand/query", "reuse%", "marginal cost", "standalone", "ms/query"
    );
    // Per scope, as printed: [cand/query, reuse %, marginal cost].
    let mut rows: Vec<[f64; 3]> = Vec::new();
    for (label, scope) in scopes {
        let mut candidates = Vec::new();
        let mut marginal = Vec::new();
        let mut standalone = Vec::new();
        let mut reused_queries = 0usize;
        let start = Instant::now();
        for q in &new_queries {
            // Fresh copy of the registry so scopes are compared on equal
            // footing and new deployments don't leak across measurements.
            let mut mq = base.clone();
            let out = mq
                .optimize_and_deploy(&optimizer, q, &world.space, &world.latency, scope)
                .expect("optimization succeeds");
            candidates.push(out.candidates_examined as f64);
            marginal.push(out.placed.cost.network_usage);
            standalone.push(out.standalone_cost.network_usage);
            if !out.placed.reused.is_empty() {
                reused_queries += 1;
            }
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0 / new_queries.len() as f64;
        let reuse = reused_queries as f64 / new_queries.len() as f64;
        rows.push(
            [Summary::of(&candidates).mean, 100.0 * reuse, Summary::of(&marginal).mean]
                .map(|x| printed(x, 1)),
        );
        println!(
            "{:<20} {:>10.1} {:>9} {:>14.1} {:>14.1} {:>9.2}",
            label,
            Summary::of(&candidates).mean,
            pct(reuse),
            Summary::of(&marginal).mean,
            Summary::of(&standalone).mean,
            elapsed_ms
        );
    }

    // §3.4's decentralized implementation: discovery through Hilbert-DHT
    // k-nearest lookups over instance hosting coordinates, instead of the
    // exact registry scan used above.
    println!();
    println!("decentralized discovery (Hilbert-DHT k-nearest, k = 16), r = 40:");
    let mut dht_base = MultiQueryOptimizer::with_dht_index(&world.space, 16);
    let mut rng2 = derive_rng(11, 0xF4);
    for _ in 0..120 {
        let q = draw_query(&streams, &hosts, &zipf, &mut rng2);
        dht_base
            .optimize_and_deploy(&optimizer, &q, &world.space, &world.latency, ReuseScope::None)
            .expect("pre-deployment succeeds");
    }
    let mut marginal = Vec::new();
    let mut reused_queries = 0usize;
    let mut lookups = 0usize;
    let mut hops = 0usize;
    for q in &new_queries {
        let mut mq = dht_base.clone();
        let out = mq
            .optimize_and_deploy(
                &optimizer,
                q,
                &world.space,
                &world.latency,
                ReuseScope::Radius(40.0),
            )
            .expect("optimization succeeds");
        marginal.push(out.placed.cost.network_usage);
        if !out.placed.reused.is_empty() {
            reused_queries += 1;
        }
        // Stats accumulate on the per-query clone, not the shared base.
        lookups += mq.discovery_stats().lookups;
        hops += mq.discovery_stats().hops;
    }
    let dht_reuse = reused_queries as f64 / new_queries.len() as f64;
    let dht_marginal = Summary::of(&marginal).mean;
    println!(
        "  reuse {}  marginal cost {:.1}  ({:.1} DHT lookups and {:.1} hops per query)",
        pct(dht_reuse),
        dht_marginal,
        lookups as f64 / new_queries.len() as f64,
        hops as f64 / new_queries.len() as f64,
    );

    // Each clause is a predicate over the values printed above. Rows run
    // r = 0, 10, 20, 40, 80, 160, ∞.
    let (no_reuse, exhaustive, registry_r40) = (rows[0], rows[6], rows[3]);
    let grows = rows.windows(2).all(|w| w[0][0] <= w[1][0]);
    let drops = rows[1..].iter().all(|row| row[2] < no_reuse[2]);
    let saturates_at = RADII.iter().zip(&rows[..6]).find(|(_, row)| row[2] == exhaustive[2]);
    let dht = [100.0 * dht_reuse, dht_marginal].map(|x| printed(x, 1));
    let matches = dht == [registry_r40[1], registry_r40[2]];
    let at = saturates_at.map_or("at no finite r".to_string(), |(r, _)| format!("at r = {r}"));
    println!();
    println!("shape check (paper): candidates examined grows with r: {};", verdict(grows));
    println!("marginal cost drops from the no-reuse level: {}", verdict(drops));
    println!(
        "and saturates at the exhaustive value well before r = ∞: {} ({at})",
        verdict(saturates_at.is_some())
    );
    println!("— nearby instances are the useful ones; the decentralized DHT discovery");
    println!("matches the exact registry scan's quality: {}.", verdict(matches));
    println!(
        "  DHT against registry at r = 40: reuse {:.1}% against {:.1}%, \
         marginal cost {:.1} against {:.1}.",
        dht[0], registry_r40[1], dht[1], registry_r40[2]
    );
    known_failure_unless(matches);
}

/// The finite radii of the sweep, in row order (r = 0 is no reuse).
const RADII: [u32; 6] = [0, 10, 20, 40, 80, 160];
