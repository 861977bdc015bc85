//! Compile-only pin of the public surface the benchmark driver calls.
//!
//! `benchmark/` is a package of its own outside the workspace, so tier-1
//! never builds it; a refactor that renames or re-types anything the driver
//! uses would otherwise go unseen until CI's last step. One function per
//! bullet of `benchmark/README.md`'s "Pinned public-API surface", naming
//! every listed type, method (as a path, a fn pointer, or inside a closure
//! that is never called) and field through `sbon::…`, the way the driver
//! does. Nothing here asserts anything at run time: compiling is the test.

use rand::rngs::StdRng;

/// `sbon::netsim`.
#[test]
fn netsim() {
    use sbon::netsim::dijkstra::{all_pairs_latency, single_source};
    use sbon::netsim::graph::{EdgeId, Graph, NodeId};
    use sbon::netsim::latency::LatencyProvider;
    use sbon::netsim::lazy::LazyLatency;
    use sbon::netsim::load::{ChurnProcess, LoadModel};
    use sbon::netsim::rng::derive_rng;
    use sbon::netsim::topology::transit_stub::{generate, TransitStubConfig};
    use sbon::netsim::topology::Topology;

    let _: fn(&TransitStubConfig, u64) -> Topology = generate;
    let _ = |t: &Topology| (t.graph.num_edges(), t.num_nodes(), t.host_candidates());
    let _ = (NodeId(0), EdgeId(0), Graph::num_edges, Graph::edge);
    let _: fn(u64, u64) -> StdRng = derive_rng;
    let _ = (ChurnProcess::None, LoadModel::generate::<StdRng>);
    let _ = (single_source, all_pairs_latency);
    let _ = (LazyLatency::new, LazyLatency::ensure_rows, LazyLatency::apply_edge_deltas);
    let _ = (LazyLatency::base_edge_latency, LazyLatency::graph, LazyLatency::stats);
    let _ = |p: &dyn LatencyProvider| p.latency(NodeId(0), NodeId(1));
}

/// `sbon::overlay`.
#[test]
fn overlay() {
    use sbon::coords::vivaldi::VivaldiConfig;
    use sbon::core::multiquery::ReuseScope;
    use sbon::core::reopt::ReoptPolicy;
    use sbon::dht::{CatalogStats, ProtoConfig, RoutedStats};
    use sbon::netsim::lazy::LazyLatencyStats;
    use sbon::netsim::load::ChurnProcess;
    use sbon::overlay::{
        ControlPlaneStats, DeploymentModel, JitterModel, LatencyBackend, MapperBackend,
        OverlayRuntime, QueryLifecycleStats, RunReport, RunSession, RuntimeConfig, Sample,
    };

    let _ = || {
        RuntimeConfig::builder()
            .tick_ms(1_000.0)
            .horizon_ms(30_000.0)
            .threads(1)
            .churn(ChurnProcess::SparseWalk { nodes_per_tick: 64, std_dev: 0.1 })
            .reopt_interval_ms(5_000.0)
            .rewrite_interval_ms(10_000.0)
            .full_reopt_interval_ms(15_000.0)
            .migration_penalty(25.0)
            .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
            .latency_backend(LatencyBackend::Lazy)
            .latency_jitter(JitterModel { edges_per_tick: 100, ..Default::default() })
            .vivaldi(VivaldiConfig { landmarks: Some(64), ..Default::default() })
            .reuse(ReuseScope::Radius(60.0))
            .mapper_backend(MapperBackend::Routed {
                bits: 12,
                scan_width: 8,
                proto: ProtoConfig::default(),
            })
            .deployment(DeploymentModel::Wave { initial: 2_000, joins_per_tick: 3_300 })
            .build()
    };
    let _ = |c: &RuntimeConfig| {
        let vivaldi: &VivaldiConfig = c.vivaldi();
        let wave = matches!(c.deployment(), DeploymentModel::Wave { .. });
        let dense = c.latency_backend() == LatencyBackend::Dense;
        let jitter = c.latency_jitter().map(|j| (j.edges_per_tick, j.factor_range, j.band));
        let routed = matches!(c.mapper_backend(), MapperBackend::Routed { .. });
        (vivaldi.landmarks, wave, dense, jitter, routed, MapperBackend::default())
    };

    let _ = (OverlayRuntime::new, OverlayRuntime::deploy, OverlayRuntime::undeploy);
    let _ = (OverlayRuntime::schedule_failure, OverlayRuntime::start_run);
    let _ = (OverlayRuntime::advance_ticks, OverlayRuntime::finish_run);
    let _ = (OverlayRuntime::instantaneous_usage, OverlayRuntime::is_arrived);
    let _ = (OverlayRuntime::arrived_count, OverlayRuntime::active_queries);
    let _ = (OverlayRuntime::retained_shared_subtrees, OverlayRuntime::failed_circuits);
    let _ = (OverlayRuntime::space, OverlayRuntime::latency);
    let _ = (OverlayRuntime::control_plane_stats, OverlayRuntime::lazy_latency_stats);
    let _ = (OverlayRuntime::dht_stats, OverlayRuntime::routed_stats);
    let _ = (OverlayRuntime::lifecycle_stats, RunSession::ticks_done);

    let _ = |r: &RunReport| {
        let totals = (r.migrations, r.replacements, r.adaptation_cost, r.total_cost());
        (totals, r.arrivals, r.departures, r.reuse_hits, r.samples.len())
    };
    let _ = |s: &Sample| {
        let usage = (s.time_ms, s.network_usage, s.cumulative_usage);
        (usage, s.migrations, s.replacements, s.active_queries)
    };
    let _ = |cp: &ControlPlaneStats| {
        let volume = (cp.dirty_nodes, cp.points_updated, cp.nodes_joined);
        let reopt = (cp.reopt_evaluated, cp.reopt_skipped);
        let maintain = (cp.join_ns, cp.refresh_ns, cp.evac_ns, cp.usage_ns);
        (volume, reopt, maintain, cp.local_reopt_ns, cp.rewrite_ns, cp.full_reopt_ns)
    };
    let _ = |l: &QueryLifecycleStats| {
        (l.arrivals, l.departures, l.reuse_hits, l.marginal_usage, l.standalone_usage)
    };
    let _ = |l: &LazyLatencyStats| {
        let repair = (l.rows_repaired, l.vertices_settled, l.rows_rebuilt);
        (l.rows_computed, repair, l.rows_cached, l.cache_hits)
    };
    let _ = |d: &CatalogStats| (d.lookups, d.hops, d.candidates_examined);
    let _ = |s: &RoutedStats| {
        let traffic = (s.messages, s.lookups, s.registrations, s.retries, s.timeouts);
        (traffic, s.latency_percentile_ms(0.95))
    };
}

/// `sbon::core`.
#[test]
fn core() {
    use sbon::core::costspace::{CostPoint, CostSpace};
    use sbon::core::multiquery::ReuseScope;
    use sbon::core::optimizer::{IntegratedOptimizer, OptimizerConfig};
    use sbon::core::placement::{DhtMapper, DhtMapperConfig, PhysicalMapper, RoutedMapper};
    use sbon::core::reopt::ReoptPolicy;
    use sbon::core::QuerySpec;

    let _ = (QuerySpec::join_star, ReuseScope::None, ReoptPolicy::default);
    let _ = (CostSpace::points, CostSpace::dims, CostSpace::vector_dims);
    let _ = (CostSpace::ideal_point, CostSpace::update_scalars, CostSpace::clone);
    let _ = (CostPoint::as_slice, CostPoint::vector_part);
    let _ = (IntegratedOptimizer::new, OptimizerConfig::default);
    let _ = (IntegratedOptimizer::optimize_with_mapper, IntegratedOptimizer::candidate_plans);
    let _ = (DhtMapper::build_with, DhtMapperConfig::default);
    let _ = <DhtMapper as PhysicalMapper>::map_point;
    let _ = (RoutedMapper::build_with, RoutedMapper::coordinator);
    let _ = (RoutedMapper::routed, RoutedMapper::routed_mut);
}

/// `sbon::dht`.
#[test]
fn dht() {
    use sbon::dht::{DhtConfig, DhtRing, ProtoConfig, RingKey, RoutedCatalog};
    use sbon::hilbert::HilbertCurve;

    let _ = (ProtoConfig::default, DhtConfig::default);
    let _ = (DhtRing::new, DhtRing::join, DhtRing::leave);
    let _ = |ring: &mut DhtRing, key: RingKey| ring.join(key, 0);
    let _ = RoutedCatalog::<HilbertCurve>::now;
    let _ = RoutedCatalog::<HilbertCurve>::lookup_routed;
    let _ = RoutedCatalog::<HilbertCurve>::run_to_quiescence;
}

/// `sbon::coords::vivaldi` and `sbon::hilbert`.
#[test]
fn coords_and_hilbert() {
    use sbon::coords::vivaldi::{LandmarkPlacer, VivaldiConfig};
    use sbon::hilbert::{HilbertCurve, Quantizer, SpaceFillingCurve};
    use sbon::netsim::lazy::LazyLatency;

    let _ = VivaldiConfig::embed::<LazyLatency>;
    let _ = VivaldiConfig::embed_landmarks_only::<LazyLatency>;
    let _ = LandmarkPlacer::place::<LazyLatency, StdRng>;
    let _ = |points: &[&[f64]]| Quantizer::covering_iter(points.iter().copied(), 12, 0.25);
    let _ = (Quantizer::quantize, HilbertCurve::new);
    let _ = <HilbertCurve as SpaceFillingCurve>::encode;
}

/// `sbon::workload` and `sbon::query::stream::StreamCatalog`.
#[test]
fn workload() {
    use sbon::query::stream::StreamCatalog;
    use sbon::workload::{ArrivalProcess, QueryGenerator, QueryTemplate, SessionDuration};

    let flash_crowd = ArrivalProcess::FlashCrowd {
        base_per_sec: 1.0,
        peak_per_sec: 8.0,
        start_ms: 0.0,
        end_ms: 1_000.0,
    };
    let _ = (flash_crowd, ArrivalProcess::sample_arrivals::<StdRng>);
    let _ = (SessionDuration::Exponential { mean_ms: 1.0 }, SessionDuration::sample::<StdRng>);
    let _ = (QueryTemplate::PopularFeedJoin { ways: 2 }, StreamCatalog::new);
    let _ = (QueryGenerator::new, QueryGenerator::draw::<StdRng>);
}

/// `rand` (the in-tree shim).
#[test]
fn rand_shim() {
    use rand::seq::SliceRandom;
    use rand::Rng;

    let _ = |rng: &mut StdRng, hosts: &mut [u32]| {
        hosts.shuffle(rng);
        (rng.gen::<f64>(), rng.gen_range(0..hosts.len()))
    };
}
