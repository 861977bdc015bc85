//! A deploy pays shortest-path rows for the circuit it deploys, and for
//! nothing else: candidates are ranked in the cost space, so on the lazy
//! latency backend the only rows a `deploy` may fault in are those of the
//! winner's link-source hosts that are not resident yet. Under the routed
//! mapper the deploy's lookups are then settled as messages, priced by
//! row-free point-to-point reads; the one row that settle makes resident is
//! the origin member's, which sends every lookup request and receives every
//! reply.

use std::collections::BTreeSet;

use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_dht::proto::ProtoConfig;
use sbon_netsim::graph::NodeId;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{LatencyBackend, MapperBackend, OverlayRuntime, RuntimeConfig};

/// Deploys two overlapping join queries under `backend` and checks that
/// each computes exactly its missing link-source rows, plus — routed only,
/// once over the run — the origin member's row. Returns how many origin
/// rows were computed.
fn deploy_rows(backend: MapperBackend) -> usize {
    let topo = generate(&TransitStubConfig::with_total_nodes(200), 2005);
    let config = RuntimeConfig::builder()
        .latency_backend(LatencyBackend::Lazy)
        .mapper_backend(backend)
        .threads(2)
        .build();
    let mut rt = OverlayRuntime::new(&topo, 2005, config);
    let rows = |rt: &OverlayRuntime| rt.lazy_latency_stats().expect("lazy backend");
    // Full-membership bring-up embeds over every row, then drops them all.
    assert_eq!(rows(&rt).rows_cached, 0);

    let hosts = topo.host_candidates();
    let mut resident: BTreeSet<NodeId> = BTreeSet::new();
    let mut origin_rows = 0;
    // The second query shares two producers with the first, so some of its
    // link sources are already resident when it deploys.
    for producers in [[0usize, 9, 18, 27], [9, 18, 40, 51]] {
        let consumer = hosts[63];
        let query = QuerySpec::join_star(&producers.map(|i| hosts[i]), consumer, 10.0, 0.02);
        let before = rows(&rt).rows_computed;
        let handle = rt.deploy(query).expect("query must deploy");
        let computed = (rows(&rt).rows_computed - before) as usize;

        // A circuit is a tree: every service but the root (the consumer,
        // built last) is the upstream end of exactly one link.
        let (root, upstream) =
            rt.placement(handle).expect("deployed").as_slice().split_last().expect("services");
        assert_eq!(*root, consumer);
        let sources: BTreeSet<NodeId> = upstream.iter().copied().collect();
        let missing = sources.difference(&resident).count();
        assert!(missing > 0, "each query brings at least one new producer");
        let extra = computed.checked_sub(missing).unwrap_or_else(|| {
            panic!("{computed} rows for link sources {sources:?}, resident {resident:?}")
        });
        assert!(extra <= 1, "{computed} rows for {missing} missing link sources");
        origin_rows += extra;
        resident.extend(sources);
    }
    assert!(origin_rows <= 1, "the origin's row stays resident once computed");
    assert_eq!(rows(&rt).rows_cached, resident.len() + origin_rows);
    // Every request leaves the origin and every reply comes back to it:
    // under `Routed` each is read off its resident row, from either end,
    // and no pair is searched.
    let stats = rows(&rt);
    assert_eq!(
        (stats.pairs_searched, stats.pair_memo_hits, stats.pair_vertices_settled),
        (0, 0, 0)
    );
    assert!(rt.routed_stats().is_none_or(|routed| routed.messages > 0));
    origin_rows
}

#[test]
fn deploy_computes_only_the_deployed_circuits_missing_link_source_rows() {
    assert_eq!(deploy_rows(MapperBackend::Dht { bits: 12, scan_width: 8 }), 0);
}

/// Settling the deploys' lookups as routed messages faults in no sender's
/// row: the bound is the link sources plus the origin member, which hosts
/// no service here, so its row is the one extra, computed once.
#[test]
fn routed_deploy_computes_its_link_source_rows_plus_at_most_the_origins() {
    let proto = ProtoConfig::default();
    assert_eq!(deploy_rows(MapperBackend::Routed { bits: 12, scan_width: 8, proto }), 1);
}

/// A reuse deploy ranks its attached candidates in the cost space as well,
/// so it computes only the winner's missing link-source rows: those of its
/// marginal placement, plus — when it reused something — those of its
/// standalone placement, whose link sources are the same producers and one
/// host per operator at most. The second query here reuses the first one's
/// join.
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
    let rows = |rt: &OverlayRuntime| rt.lazy_latency_stats().expect("lazy backend").rows_computed;
    let hosts = topo.host_candidates();
    let mut resident: BTreeSet<NodeId> = BTreeSet::new();
    for (producers, consumer) in [(&[0usize, 9][..], 63), (&[0, 9, 40, 51][..], 70)] {
        let producers: Vec<NodeId> = producers.iter().map(|&i| hosts[i]).collect();
        let query = QuerySpec::join_star(&producers, hosts[consumer], 10.0, 0.02);
        let (before, hits) = (rows(&rt), rt.lifecycle_stats().reuse_hits);
        let handle = rt.deploy(query).expect("query must deploy");
        let computed = (rows(&rt) - before) as usize;
        let reused = rt.lifecycle_stats().reuse_hits > hits;

        let placement = rt.placement(handle).expect("deployed").as_slice();
        let (_, upstream) = placement.split_last().expect("services");
        let sources: BTreeSet<NodeId> = upstream.iter().copied().collect();
        let missing = sources.difference(&resident).count();
        let operators = placement.len() - producers.len() - 1;
        let standalone = if reused { operators } else { 0 };
        assert!(
            (missing..=missing + standalone).contains(&computed),
            "{computed} rows for {missing} missing link sources (reused: {reused})"
        );
        resident.extend(sources);
    }
    assert_eq!(rt.lifecycle_stats().reuse_hits, 1, "the 4-way query reuses the 2-way join");
}
