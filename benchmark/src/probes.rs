//! Layer attribution from outside the program. Three sources:
//!
//! 1. exact work counters read through the runtime's public accessors;
//! 2. host times — the driver's own spans plus the runtime's phase timers
//!    (`ControlPlaneStats::*_ns`), with what neither explains reported as
//!    `overlay.unattributed_ms` rather than hidden;
//! 3. unit-cost probes: a layer's public function timed in isolation on the
//!    workload's own topology and sizes. Probe × counter gives an
//!    *estimated* layer time (`*_est`), which is what explains the
//!    unattributed share until the program records spans of its own.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;

use sbon::coords::vivaldi::VivaldiConfig;
use sbon::core::costspace::CostSpace;
use sbon::core::optimizer::{IntegratedOptimizer, OptimizerConfig};
use sbon::core::placement::{DhtMapper, DhtMapperConfig, PhysicalMapper, RoutedMapper};
use sbon::core::QuerySpec;
use sbon::dht::{DhtConfig, DhtRing, ProtoConfig, RingKey};
use sbon::hilbert::{HilbertCurve, Quantizer, SpaceFillingCurve};
use sbon::netsim::dijkstra::{all_pairs_latency, single_source};
use sbon::netsim::graph::{EdgeId, NodeId};
use sbon::netsim::latency::LatencyProvider;
use sbon::netsim::lazy::LazyLatency;
use sbon::netsim::load::LoadModel;
use sbon::netsim::rng::derive_rng;
use sbon::netsim::topology::Topology;
use sbon::overlay::{
    DeploymentModel, LatencyBackend, MapperBackend, OverlayRuntime, RunReport, RuntimeConfig,
};

use crate::json::Json;
use crate::obj;
use crate::spans::Recorder;

type Metrics = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Source 1: exact work counters, by per-layer metric name. A counter a
/// workload's configuration never touches (row repair without jitter, routed
/// traffic without the routed backend) reads zero.
pub fn counters(rt: &OverlayRuntime, report: &RunReport, n: usize) -> Metrics {
    let cp = rt.control_plane_stats();
    let lazy = rt.lazy_latency_stats().unwrap_or_default();
    let dht = rt.dht_stats().unwrap_or_default();
    let life = rt.lifecycle_stats();
    let routed = rt.routed_stats();
    let r = |f: fn(&sbon::dht::RoutedStats) -> f64| routed.map_or(0.0, f);
    let candidates = (cp.reopt_evaluated + cp.reopt_skipped) as f64;
    vec![
        ("netsim.rows_computed", lazy.rows_computed as f64),
        ("netsim.rows_repaired", lazy.rows_repaired as f64),
        ("netsim.vertices_settled", lazy.vertices_settled as f64),
        ("netsim.rows_rebuilt", lazy.rows_rebuilt as f64),
        ("netsim.rows_resident", lazy.rows_cached as f64),
        ("netsim.resident_mib", (lazy.rows_cached * n * 8) as f64 / (1024.0 * 1024.0)),
        ("netsim.cache_hits", lazy.cache_hits as f64),
        ("costspace.dirty_nodes", cp.dirty_nodes as f64),
        ("costspace.points_updated", cp.points_updated as f64),
        ("dht.lookups", dht.lookups as f64),
        ("dht.hops", dht.hops as f64),
        ("dht.candidates_examined", dht.candidates_examined as f64),
        ("dht.hops_per_lookup", ratio(dht.hops as f64, dht.lookups as f64)),
        ("dht.routed_msgs", r(|s| s.messages as f64)),
        ("dht.routed_lookups", r(|s| s.lookups as f64)),
        ("dht.routed_registrations", r(|s| s.registrations as f64)),
        ("dht.routed_retries", r(|s| s.retries as f64)),
        ("dht.routed_timeouts", r(|s| s.timeouts as f64)),
        ("dht.routed_msgs_per_lookup", r(|s| ratio(s.messages as f64, s.lookups as f64))),
        ("dht.opt_latency_p50_vms", r(|s| s.latency_percentile_ms(0.50).unwrap_or(0.0))),
        ("dht.opt_latency_p95_vms", r(|s| s.latency_percentile_ms(0.95).unwrap_or(0.0))),
        ("core.reopt_evaluated", cp.reopt_evaluated as f64),
        ("core.reopt_skipped", cp.reopt_skipped as f64),
        ("core.reopt_skip_ratio", ratio(cp.reopt_skipped as f64, candidates)),
        ("core.migrations", report.migrations as f64),
        ("core.replacements", report.replacements as f64),
        ("core.reuse_hits", life.reuse_hits as f64),
        ("core.reuse_hit_ratio", ratio(life.reuse_hits as f64, life.arrivals as f64)),
        ("core.marginal_over_standalone", ratio(life.marginal_usage, life.standalone_usage)),
        ("overlay.nodes_joined", cp.nodes_joined as f64),
        ("overlay.arrivals", life.arrivals as f64),
        ("overlay.departures", life.departures as f64),
        ("overlay.usage_total", report.total_cost()),
    ]
}

/// The runtime's own phase timers, in nanoseconds, by per-layer metric name.
fn phase_ns(rt: &OverlayRuntime) -> [(&'static str, u64); 7] {
    let cp = rt.control_plane_stats();
    [
        ("overlay.join_ms", cp.join_ns as u64),
        ("costspace.refresh_ms", cp.refresh_ns as u64),
        ("core.local_reopt_ms", cp.local_reopt_ns as u64),
        ("core.rewrite_ms", cp.rewrite_ns as u64),
        ("core.full_reopt_ms", cp.full_reopt_ns as u64),
        ("overlay.evac_ms", cp.evac_ns as u64),
        ("overlay.usage_reads_ms", cp.usage_ns as u64),
    ]
}

/// Source 2: host times. `overlay.tick_ms_sum` = Σ phase timers +
/// `overlay.unattributed_ms`, by construction (see [`attribution`]).
pub fn timers(rt: &OverlayRuntime, rec: &Recorder, deploy_ms: &[f64]) -> Metrics {
    let ms = |ns: u64| ns as f64 / 1e6;
    let tick_ns = rec.total_ns("tick");
    let phases = phase_ns(rt);
    let attributed: u64 = phases.iter().map(|&(_, ns)| ns).sum();
    // Every phase runs inside `advance_ticks`, so it cannot outlast it.
    let unattributed = tick_ns.saturating_sub(attributed);
    let mut out: Metrics = vec![
        ("netsim.topology_ms", rec.total_ms("setup.topology")),
        ("overlay.new_ms", rec.total_ms("setup.runtime_new")),
        ("overlay.deploy_ms_sum", rec.total_ms("deploy")),
        // Host ms per `deploy` call — the paper's per-query optimization
        // cost. Zero where one pass has too few deploys to carry the
        // percentile (ten samples must lie beyond it).
        ("overlay.deploy_ms_p50", crate::stats::percentile(deploy_ms, 0.50).unwrap_or(0.0)),
        ("overlay.deploy_ms_p99", crate::stats::percentile(deploy_ms, 0.99).unwrap_or(0.0)),
        ("overlay.undeploy_ms_sum", rec.total_ms("undeploy")),
        ("overlay.tick_ms_sum", ms(tick_ns)),
        ("overlay.unattributed_ms", ms(unattributed)),
        ("overlay.unattributed_share", ratio(unattributed as f64, tick_ns as f64)),
        ("workload.generate_ms", rec.total_ms("generate")),
    ];
    out.extend(phases.iter().map(|&(name, ns)| (name, ms(ns))));
    out
}

/// The integer-nanosecond identity behind the unattributed residual, for
/// the trace file: `tick_ns_sum == Σ phase_ns + unattributed_ns` exactly.
pub fn attribution(rt: &OverlayRuntime, rec: &Recorder) -> Json {
    let tick_ns = rec.total_ns("tick");
    let phases = phase_ns(rt);
    let attributed: u64 = phases.iter().map(|&(_, ns)| ns).sum();
    obj! {
        "tick_ns_sum" => tick_ns,
        "phase_ns" => Json::Obj(
            phases.iter().map(|&(name, ns)| (name.to_string(), Json::from(ns))).collect(),
        ),
        "unattributed_ns" => tick_ns.saturating_sub(attributed),
    }
}

/// Microseconds per call of `f`, repeated for at least 20 ms (and 3 calls)
/// so one scheduler hiccup does not set the number.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed().as_millis() < 20 {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

fn once_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// A latency provider that costs nothing, so `core.optimize_us` times the
/// optimizer (enumeration, virtual placement, catalog mapping, costing) and
/// not the row computation a lazy provider would do underneath it.
struct FlatLatency(usize);

impl LatencyProvider for FlatLatency {
    fn len(&self) -> usize {
        self.0
    }
    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }
}

fn counter(counters: &Metrics, name: &str) -> f64 {
    counters.iter().find(|(k, _)| *k == name).map_or(0.0, |&(_, v)| v)
}

/// Source 3: unit-cost probes, run after the measured part of a traced pass.
/// They may read (and fault rows into) the runtime's latency provider — the
/// counters and the memory peak were captured before this is called.
pub fn unit_costs(
    seed: u64,
    topo: &Topology,
    rt: &OverlayRuntime,
    config: &RuntimeConfig,
    counters: &Metrics,
    sample_queries: &[QuerySpec],
) -> Metrics {
    let n = topo.num_nodes();
    let space = rt.space();
    let mut rng = derive_rng(seed, 0xbe9c_00f0);
    let mut out: Metrics = Vec::new();

    // netsim: one shortest-path row on this underlay.
    let row_us = per_call_us(|| {
        let src = NodeId(rng.gen_range(0..n as u32));
        black_box(single_source(&topo.graph, src));
    });
    out.push(("netsim.row_us", row_us));
    out.push((
        "netsim.row_compute_ms_est",
        counter(counters, "netsim.rows_computed") * row_us / 1e3,
    ));

    // netsim: in-place row repair under this workload's jitter batches.
    let repair_us = match config.latency_jitter() {
        Some(jitter) if jitter.edges_per_tick > 0 => {
            let resident = (counter(counters, "netsim.rows_resident") as usize).clamp(1, 32);
            let mut lazy = LazyLatency::new(topo.graph.clone());
            let sources: Vec<NodeId> =
                (0..resident).map(|_| NodeId(rng.gen_range(0..n as u32))).collect();
            lazy.ensure_rows(&sources, None);
            let edges = topo.graph.num_edges() as u32;
            let before = lazy.stats().vertices_settled;
            let start = Instant::now();
            for _ in 0..3 {
                let deltas: Vec<(EdgeId, f64)> = (0..jitter.edges_per_tick)
                    .map(|_| {
                        let id = EdgeId(rng.gen_range(0..edges));
                        let base = lazy.base_edge_latency(id);
                        let f = rng.gen_range(jitter.factor_range.0..jitter.factor_range.1);
                        let next = lazy.graph().edge(id).latency_ms * f;
                        (id, next.clamp(base * jitter.band.0, base * jitter.band.1))
                    })
                    .collect();
                lazy.apply_edge_deltas(&deltas);
            }
            let settled = lazy.stats().vertices_settled - before;
            ratio(start.elapsed().as_secs_f64() * 1e6, settled as f64)
        }
        _ => 0.0,
    };
    out.push(("netsim.repair_us_per_vertex", repair_us));
    out.push((
        "netsim.repair_ms_est",
        counter(counters, "netsim.vertices_settled") * repair_us / 1e3,
    ));

    // netsim + coords: what set-up pays for. Dense set-up is all-pairs then a
    // full embedding over the matrix; lazy set-up embeds over on-demand rows;
    // a deployment wave embeds the landmarks only and places joiners later.
    let vivaldi: &VivaldiConfig = config.vivaldi();
    let wave = matches!(config.deployment(), DeploymentModel::Wave { .. });
    let (allpairs_ms, embed_ms, place_us) = if wave {
        // The landmark rows are resident in the runtime's provider, so this
        // times the protocol, not the rows (those are `netsim.row_us` each).
        let provider = rt.latency();
        let (placer, embed_ms) = once_ms(|| vivaldi.embed_landmarks_only(&provider, seed));
        let place_us = per_call_us(|| {
            let node = NodeId(rng.gen_range(0..n as u32));
            black_box(placer.place(&provider, node, &mut rng));
        });
        (0.0, embed_ms, place_us)
    } else if config.latency_backend() == LatencyBackend::Dense {
        let (matrix, allpairs_ms) = once_ms(|| all_pairs_latency(&topo.graph));
        let (_, embed_ms) = once_ms(|| vivaldi.embed(&matrix, seed));
        (allpairs_ms, embed_ms, 0.0)
    } else {
        let lazy = LazyLatency::new(topo.graph.clone());
        let (_, embed_ms) = once_ms(|| vivaldi.embed(&lazy, seed));
        (0.0, embed_ms, 0.0)
    };
    out.push(("netsim.allpairs_ms", allpairs_ms));
    out.push(("coords.embed_ms", embed_ms));
    out.push(("coords.place_us", place_us));

    // hilbert: quantize + curve index of one cost point.
    let bits = 12u32.min((128 / space.dims() as u32).max(1));
    let quantizer =
        Quantizer::covering_iter(space.points().iter().map(|p| p.as_slice()), bits, 0.25);
    let curve = HilbertCurve::new(space.dims(), bits);
    let mut i = 0;
    let batch = 256;
    let key_us = per_call_us(|| {
        for _ in 0..batch {
            i = (i + 1) % n;
            black_box(curve.encode(&quantizer.quantize(space.points()[i].as_slice())));
        }
    });
    out.push(("hilbert.key_ns", key_us * 1e3 / batch as f64));

    // costspace: one dirty node's scalar refresh, alternating between two
    // load tables so every call changes the point.
    let mut own: CostSpace = space.clone();
    let tables = [
        LoadModel::Random { lo: 0.0, hi: 0.6 }.generate(n, &mut rng),
        LoadModel::Random { lo: 0.0, hi: 0.6 }.generate(n, &mut rng),
    ];
    let mut calls = 0usize;
    let update_us = per_call_us(|| {
        for _ in 0..batch {
            calls += 1;
            let node = NodeId((calls % n) as u32);
            black_box(own.update_scalars(node, &tables[(calls / n) % 2]));
        }
    });
    out.push(("costspace.update_us", update_us / batch as f64));

    // dht: catalog of the workload's (final) membership.
    let dht_cfg = DhtMapperConfig::default();
    let mut mapper = DhtMapper::build_with(space, &dht_cfg);
    let targets = ideal_targets(space, 128, &mut rng);
    let mut t = 0;
    out.push((
        "dht.lookup_us",
        per_call_us(|| {
            t = (t + 1) % targets.len();
            black_box(mapper.map_point(space, &targets[t]));
        }),
    ));
    let mut ring = DhtRing::new(DhtConfig::default());
    for member in 0..n as u32 {
        ring.join(rng.gen::<RingKey>(), member);
    }
    out.push((
        "dht.ring_update_us",
        per_call_us(|| {
            let member = rng.gen_range(0..n as u32);
            ring.leave(member);
            black_box(ring.join(rng.gen::<RingKey>(), member));
        }),
    ));
    let routed_us = if matches!(config.mapper_backend(), MapperBackend::Routed { .. }) {
        let provider = rt.latency();
        let link = |a: u32, b: u32| provider.latency(NodeId(a), NodeId(b));
        let mut routed = RoutedMapper::build_with(space, &dht_cfg, ProtoConfig::default());
        let origin = routed.coordinator().0;
        per_call_us(|| {
            t = (t + 1) % targets.len();
            let at = routed.routed().now();
            routed.routed_mut().lookup_routed(origin, targets[t].as_slice(), at, &link);
            black_box(routed.routed_mut().run_to_quiescence(&link).len());
        })
    } else {
        0.0
    };
    out.push(("dht.routed_lookup_us", routed_us));

    // core + query: the optimizer on this workload's own query shapes, and
    // plan enumeration alone on the paper's 4-way join.
    let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
    let flat = FlatLatency(n);
    let mut q = 0;
    out.push((
        "core.optimize_us",
        per_call_us(|| {
            q = (q + 1) % sample_queries.len();
            black_box(optimizer.optimize_with_mapper(
                &sample_queries[q],
                space,
                &flat,
                &mut mapper,
            ));
        }),
    ));
    let four_way =
        QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], NodeId(4), 10.0, 0.02);
    out.push((
        "query.enumerate_us",
        per_call_us(|| {
            black_box(optimizer.candidate_plans(&four_way));
        }),
    ));
    out
}

/// Random ideal points inside the bounding box of the space's vector part.
fn ideal_targets(
    space: &CostSpace,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<sbon::core::costspace::CostPoint> {
    let vd = space.vector_dims();
    let mut mins = vec![f64::INFINITY; vd];
    let mut maxs = vec![f64::NEG_INFINITY; vd];
    for p in space.points() {
        for (d, &c) in p.vector_part(vd).iter().enumerate() {
            mins[d] = mins[d].min(c);
            maxs[d] = maxs[d].max(c);
        }
    }
    (0..count)
        .map(|_| {
            let v: Vec<f64> =
                (0..vd).map(|d| rng.gen_range(mins[d]..maxs[d].max(mins[d] + 1e-9))).collect();
            space.ideal_point(&v)
        })
        .collect()
}
