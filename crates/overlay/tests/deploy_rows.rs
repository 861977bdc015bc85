//! A deploy pays for the circuit it deploys, and for nothing else:
//! candidates are ranked in the cost space, and only the winner is
//! measured, by reading the latency store, whose tables the runtime built
//! once. So a deploy — and, under the routed mapper, the settle of its
//! lookups as messages — searches no table: the only searches it may run
//! are own-region rows, for a link whose two hosts share a stub domain
//! (one per upstream host at most), and the store grows by those rows
//! alone.

use std::collections::BTreeSet;

use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_dht::proto::ProtoConfig;
use sbon_netsim::graph::NodeId;
use sbon_netsim::lazy::LazyLatencyStats;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{LatencyBackend, MapperBackend, OverlayRuntime, RuntimeConfig};

/// The store's counters.
fn store(rt: &OverlayRuntime) -> LazyLatencyStats {
    rt.lazy_latency_stats().expect("one store under either backend")
}

/// Asserts that between `before` and `after` no table was searched,
/// repaired or rebuilt, and returns the own-region rows computed.
fn own_rows(before: LazyLatencyStats, after: LazyLatencyStats) -> u64 {
    let tables = |s: LazyLatencyStats| (s.rows_repaired, s.vertices_settled, s.rows_rebuilt);
    assert_eq!(tables(after), tables(before), "a deploy repairs and rebuilds no table");
    after.rows_computed - before.rows_computed
}

/// Deploys two overlapping join queries under `backend` and checks that
/// each computes at most one own-region row per upstream host of its
/// circuit, and that the deploys leave the store's size, in rows' worth,
/// where bring-up left it. Returns the rows the deploys computed.
fn deploy_rows(backend: MapperBackend) -> u64 {
    let topo = generate(&TransitStubConfig::with_total_nodes(200), 2005);
    let config = RuntimeConfig::builder()
        .latency_backend(LatencyBackend::Lazy)
        .mapper_backend(backend)
        .threads(2)
        .build();
    let mut rt = OverlayRuntime::new(&topo, 2005, config);
    let brought_up = store(&rt);
    let hosts = topo.host_candidates();
    // The second query shares two producers with the first.
    for producers in [[0usize, 9, 18, 27], [9, 18, 40, 51]] {
        let consumer = hosts[63];
        let query = QuerySpec::join_star(&producers.map(|i| hosts[i]), consumer, 10.0, 0.02);
        let before = store(&rt);
        let handle = rt.deploy(query).expect("query must deploy");
        let computed = own_rows(before, store(&rt));

        // A circuit is a tree: every service but the root (the consumer,
        // built last) is the upstream end of exactly one link.
        let (root, upstream) =
            rt.placement(handle).expect("deployed").as_slice().split_last().expect("services");
        assert_eq!(*root, consumer);
        let sources: BTreeSet<NodeId> = upstream.iter().copied().collect();
        assert!(computed <= sources.len() as u64, "{computed} rows for link sources {sources:?}");
    }
    let deployed = store(&rt);
    assert_eq!(deployed.rows_cached, brought_up.rows_cached, "the store does not grow");
    assert!(deployed.cache_hits > brought_up.cache_hits, "the deploys read the store");
    assert!(rt.routed_stats().is_none_or(|routed| routed.messages > 0));
    deployed.rows_computed - brought_up.rows_computed
}

#[test]
fn deploy_computes_only_the_deployed_circuits_missing_link_source_rows() {
    deploy_rows(MapperBackend::Dht { bits: 12, scan_width: 8 });
}

/// Settling the deploys' lookups as routed messages prices every message
/// off the store's tables: it adds no search to the deploys' own.
#[test]
fn routed_deploy_computes_its_link_source_rows_plus_at_most_the_origins() {
    let proto = ProtoConfig::default();
    let dht = deploy_rows(MapperBackend::Dht { bits: 12, scan_width: 8 });
    assert_eq!(deploy_rows(MapperBackend::Routed { bits: 12, scan_width: 8, proto }), dht);
}

/// A reuse deploy ranks its attached candidates in the cost space as well,
/// so it reads only the winner's links: those of its marginal placement,
/// plus — when it reused something — those of its standalone placement,
/// whose link sources are the same producers and one host per operator at
/// most. The second query here reuses the first one's join.
#[test]
fn reuse_deploy_computes_only_the_winners_missing_link_source_rows() {
    let topo = generate(&TransitStubConfig::with_total_nodes(200), 2005);
    let config = RuntimeConfig::builder()
        .latency_backend(LatencyBackend::Lazy)
        .mapper_backend(MapperBackend::Dht { bits: 12, scan_width: 8 })
        .reuse(ReuseScope::Radius(100.0))
        .threads(2)
        .build();
    let mut rt = OverlayRuntime::new(&topo, 2005, config);
    let hosts = topo.host_candidates();
    for (producers, consumer) in [(&[0usize, 9][..], 63), (&[0, 9, 40, 51][..], 70)] {
        let producers: Vec<NodeId> = producers.iter().map(|&i| hosts[i]).collect();
        let query = QuerySpec::join_star(&producers, hosts[consumer], 10.0, 0.02);
        let (before, hits) = (store(&rt), rt.lifecycle_stats().reuse_hits);
        let handle = rt.deploy(query).expect("query must deploy");
        let computed = own_rows(before, store(&rt));
        let reused = rt.lifecycle_stats().reuse_hits > hits;

        let placement = rt.placement(handle).expect("deployed").as_slice();
        let (_, upstream) = placement.split_last().expect("services");
        let sources: BTreeSet<NodeId> = upstream.iter().copied().collect();
        let operators = placement.len() - producers.len() - 1;
        let standalone = if reused { operators } else { 0 };
        assert!(
            computed <= (sources.len() + standalone) as u64,
            "{computed} rows for {} link sources (reused: {reused})",
            sources.len()
        );
    }
    assert_eq!(rt.lifecycle_stats().reuse_hits, 1, "the 4-way query reuses the 2-way join");
}
