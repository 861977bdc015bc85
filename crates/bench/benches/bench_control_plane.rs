//! Criterion benchmark for the delta-driven control plane: physical
//! mapping (exhaustive oracle scan vs Hilbert-DHT lookup), cost-space
//! maintenance (full scalar rebuild vs dirty-set delta refresh with DHT
//! re-registration) at n ∈ {256, 2048}, **ring membership maintenance**
//! (B-tree ring vs the seed Vec ring) at n ∈ {2048, 100_000}, and the
//! **landmark-Vivaldi accuracy-vs-cost sweep**.
//!
//! The claims under test: per-tick control-plane work tracks the *churned
//! node count*, not the overlay size, and per-update ring maintenance is
//! flat-to-logarithmic in membership. Representative run on the dev
//! container (release): the oracle scan grows 4.3 µs → 34.9 µs from 256 to
//! 2048 nodes and the bulk rebuild-with-DHT 187 µs → 1.72 ms (both ~O(n)),
//! while the DHT lookup grows 1.0 µs → 1.9 µs (~log n) and the 32-node
//! delta refresh 24 µs → 38 µs (fixed churn). Ring join+leave on the
//! B-tree stays ~0.4 µs → ~1 µs from 2k → 100k members while the seed Vec
//! ring's memmove grows linearly into the tens of µs. The Vivaldi sweep
//! prints embed wall time next to median relative error for the full
//! protocol vs `landmarks ∈ {16, 64}`.
//!
//! The **reopt_pass** group measures one dirty-driven re-optimization pass
//! over 100 circuits at dirty fractions 0/1/10/100% (2k and 10k nodes):
//! pass cost must track the dirty fraction, with a clean pass costing only
//! the relevance-index probes.
//!
//! The **routed_lookup** group compares the omniscient shared-structure
//! catalog read against the full message-passing protocol
//! (`RoutedCatalog`) at 2k and 10k nodes, printing the experienced
//! per-query latency (virtual ms over the live underlay), hop count, and
//! message count that the omniscient baseline hides.
//!
//! The **jitter-tick** group measures how the lazy latency cache absorbs a
//! batch of edge-weight deltas at 10k nodes with a 64-row working set:
//! dynamic-SSSP `Repair` fixes each resident row over the affected region
//! only, while the pre-repair `Invalidate` policy drops touched rows and
//! pays a full Dijkstra per row to serve the next read. Repair must come
//! out ≥ 5× faster per tick — that gap is what retired ROADMAP open
//! item 1's "~200 ms/tick of invalidate-and-recompute" bottleneck.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench harness: wall-clock timing is the measurement itself"
)]

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;
use sbon_bench::{build_world, pick_hosts, WorldConfig};
use sbon_coords::error::relative_errors;
use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::costspace::CostSpace;
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec};
use sbon_core::placement::{
    DhtMapper, DhtMapperConfig, OracleMapper, PhysicalMapper, RelaxationPlacer, RoutedMapper,
};
use sbon_core::reopt::relevance::{ReadSet, RelevanceIndex, ReoptKind};
use sbon_core::reopt::{reoptimize_among, CandidateLists, ReoptPolicy};
use sbon_dht::{DhtConfig, DhtRing, ProtoConfig, RingKey};
use sbon_netsim::graph::{EdgeId, NodeId};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::lazy::LazyLatency;
use sbon_netsim::load::{Attr, ChurnProcess, NodeAttrs};
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{LatencyBackend, ObsConfig, OverlayRuntime, RuntimeConfig, TraceSpec};

/// Nodes churned per delta-refresh tick (fixed across n — that is the
/// point).
const CHURNED_PER_TICK: usize = 32;

fn ideal_targets(
    space: &CostSpace,
    count: usize,
    seed: u64,
) -> Vec<sbon_core::costspace::CostPoint> {
    let mut rng = derive_rng(seed, 0x1dea);
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

fn bench_control_plane(c: &mut Criterion) {
    for nodes in [256usize, 2048] {
        let world = build_world(&WorldConfig { nodes, ..Default::default() }, nodes as u64);
        let n = world.topology.num_nodes();
        let targets = ideal_targets(&world.space, 128, nodes as u64);

        // ── Mapping: O(n) oracle scan vs O(log n) DHT lookup ─────────────
        let mut group = c.benchmark_group(format!("mapping_{n}_nodes"));
        group.bench_function("oracle_scan", |b| {
            let mut mapper = OracleMapper;
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % targets.len();
                black_box(mapper.map_point(&world.space, &targets[i]))
            })
        });
        group.bench_function("dht_lookup", |b| {
            let mut dht = DhtMapper::build_with(&world.space, &DhtMapperConfig::default());
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % targets.len();
                black_box(dht.map_point(&world.space, &targets[i]))
            })
        });
        group.finish();

        // ── Maintenance: full scalar rebuild vs 32-node delta refresh ────
        // Pre-draw churn batches so the measured loop is maintenance only.
        let batches: Vec<Vec<(NodeId, f64)>> = {
            let mut rng = derive_rng(nodes as u64, 0xC0DE);
            (0..64)
                .map(|_| {
                    (0..CHURNED_PER_TICK)
                        .map(|_| (NodeId(rng.gen_range(0..n as u32)), rng.gen_range(0.0..1.0)))
                        .collect()
                })
                .collect()
        };
        let mut group = c.benchmark_group(format!("refresh_{n}_nodes"));
        group.bench_function("full_scalar_refresh_stale_mapper", |b| {
            let mut space = world.space.clone();
            let mut attrs = world.attrs.clone();
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % batches.len();
                for &(node, v) in &batches[i] {
                    attrs.set(node, Attr::CpuLoad, v);
                }
                // The pre-refactor tick: recompute all n points (and leave
                // any coordinate consumer stale — the old runtime had no
                // maintained mapper at all, paying the oracle scan per map).
                space.refresh_scalars(&attrs);
                black_box(space.point(NodeId(0)).len())
            })
        });
        group.bench_function("full_rebuild_with_dht", |b| {
            let mut space = world.space.clone();
            let mut attrs = world.attrs.clone();
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % batches.len();
                for &(node, v) in &batches[i] {
                    attrs.set(node, Attr::CpuLoad, v);
                }
                // Bulk-only maintenance keeping DHT mapping current: full
                // scalar refresh plus a catalog rebuild — O(n) inserts.
                space.refresh_scalars(&attrs);
                let dht = DhtMapper::build_with(&space, &DhtMapperConfig::default());
                black_box(dht.len())
            })
        });
        group.bench_function("delta_32_with_dht_sync", |b| {
            let mut space = world.space.clone();
            let mut attrs: NodeAttrs = world.attrs.clone();
            let mut dht = DhtMapper::build_with(&space, &DhtMapperConfig::default());
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % batches.len();
                let mut updated = 0usize;
                for &(node, v) in &batches[i] {
                    attrs.set(node, Attr::CpuLoad, v);
                    if space.update_scalars(node, &attrs) {
                        dht.update_node(&space, node);
                        updated += 1;
                    }
                }
                black_box(updated)
            })
        });
        group.finish();
    }
}

/// Seed reference: the sorted-`Vec` ring this PR replaced. Join/leave are
/// binary search plus an `O(n)` memmove — the linear baseline the B-tree
/// ring is measured against. Deliberately a verbatim copy of the seed
/// logic; `tests/properties.rs` carries the same reference (with the query
/// surface too) as the behavioural pin — keep both aligned with the seed,
/// not with each other.
#[derive(Default)]
struct VecRingBaseline {
    members: Vec<(RingKey, u32)>,
}

impl VecRingBaseline {
    fn join(&mut self, mut key: RingKey, member: u32) -> RingKey {
        loop {
            match self.members.binary_search_by(|&(k, _)| k.cmp(&key)) {
                Ok(_) => key = key.wrapping_add(1),
                Err(pos) => {
                    self.members.insert(pos, (key, member));
                    return key;
                }
            }
        }
    }

    fn leave(&mut self, member: u32) -> usize {
        let before = self.members.len();
        self.members.retain(|&(_, m)| m != member);
        before - self.members.len()
    }
}

/// Ring membership maintenance at 2k vs 100k members: one churn op =
/// leave a random member and re-join it under a fresh key (exactly what a
/// catalog re-registration does). The claim: flat-to-logarithmic on the
/// B-tree ring, linear (memmove-bound) on the seed Vec ring.
fn bench_ring_maintenance(c: &mut Criterion) {
    for n in [2_048usize, 100_000] {
        let mut rng = derive_rng(n as u64, 0x414146);
        let keys: Vec<RingKey> = (0..n).map(|_| rng.gen()).collect();

        let mut group = c.benchmark_group(format!("ring_{n}_members"));
        group.bench_function("join_leave_btree", |b| {
            let mut ring = DhtRing::new(DhtConfig::default());
            for (i, &k) in keys.iter().enumerate() {
                ring.join(k, i as u32);
            }
            let mut rng = derive_rng(n as u64, 0xb7ee);
            b.iter(|| {
                let member = rng.gen_range(0..n as u32);
                ring.leave(member);
                black_box(ring.join(rng.gen(), member))
            })
        });
        group.bench_function("join_leave_vec_baseline", |b| {
            let mut ring = VecRingBaseline::default();
            for (i, &k) in keys.iter().enumerate() {
                ring.join(k, i as u32);
            }
            let mut rng = derive_rng(n as u64, 0xb7ee);
            b.iter(|| {
                let member = rng.gen_range(0..n as u32);
                ring.leave(member);
                black_box(ring.join(rng.gen(), member))
            })
        });
        group.finish();
    }
}

/// One jitter tick against the lazy row cache at 10k nodes: apply a batch
/// of 200 edge-weight deltas (0.1% of edges, clamped to the (0.5, 3.0)
/// band around base latency) and bring rows of the 64-row resident set
/// back to servable. The batch is only logged and `ensure_rows` fixes the
/// rows it names in place (dynamic SSSP over the affected region); the
/// `invalidate_recompute` baseline drops the resident set (`evict_all`)
/// instead, so `ensure_rows` pays a full `O((n + m) log n)` Dijkstra per
/// row. `repair_read_8_of_64` keeps
/// reading only 8 of the 64 resident rows — the other 56 are never read
/// again, so they are never repaired (and are let go once the bounded
/// delta log moves past them) — showing that a tick costs what the rows
/// *read* need, not what the rows *resident* would.
/// All arms see the identical pre-drawn delta batches: 32 edge sets, each
/// with two absolute weightings (relative to base) applied on alternate
/// passes over the cycle, so every delta really moves its edge and the
/// measured work does not drift across iterations.
fn bench_row_repair(c: &mut Criterion) {
    let n = 10_000usize;
    let topo = generate(&TransitStubConfig::with_total_nodes(n), n as u64);
    let m = topo.graph.num_edges();
    let base: Vec<f64> = topo.graph.edges().iter().map(|e| e.latency_ms).collect();
    let mut rng = derive_rng(n as u64, 0x4e7a);
    let sources: Vec<NodeId> = (0..64).map(|_| NodeId(rng.gen_range(0..n as u32))).collect();
    let batches: Vec<[Vec<(EdgeId, f64)>; 2]> = (0..32)
        .map(|_| {
            let edges: Vec<EdgeId> = (0..200).map(|_| EdgeId(rng.gen_range(0..m as u32))).collect();
            [(); 2].map(|()| {
                edges
                    .iter()
                    .map(|&e| {
                        let b = base[e.index()];
                        let f: f64 = rng.gen_range(0.7..1.45);
                        (e, (b * f).clamp(b * 0.5, b * 3.0))
                    })
                    .collect()
            })
        })
        .collect();

    let mut group = c.benchmark_group(format!("jitter_tick_{n}_nodes_64_rows"));
    for (label, drop_rows, read) in [
        ("repair", false, 64),
        ("repair_read_8_of_64", false, 8),
        ("invalidate_recompute", true, 64),
    ] {
        let mut lat = LazyLatency::new(topo.graph.clone());
        lat.ensure_rows(&sources, None);
        group.bench_function(label, |b| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                lat.apply_edge_deltas(&batches[i % batches.len()][i / batches.len() % 2]);
                if drop_rows {
                    lat.evict_all();
                }
                black_box(lat.ensure_rows(&sources[..read], None))
            })
        });
    }
    group.finish();
}

/// One dirty-driven re-optimization pass over 100 deployed circuits, at
/// dirty fractions 0% / 1% / 10% / 100% and n ∈ {2k, 10k}: the pass builds
/// the dirty circuits' rewrite neighbourhoods once per distinct running
/// plan ([`CandidateLists::rewrite`]), then each dirty circuit runs the
/// read-only rewrite evaluation (the heaviest per-circuit pass —
/// [`reoptimize_among`] its list: virtual placement, catalog mapping, and
/// cost estimation through a fresh [`DhtMapper::read_view`]), while every
/// clean circuit costs exactly what the runtime's pre-filter pays: one
/// relevance-index probe. The claim: pass cost scales with the dirty
/// fraction, not the circuit count.
fn bench_reopt_pass(c: &mut Criterion) {
    const CIRCUITS: usize = 100;
    for nodes in [2_048usize, 10_000] {
        // Landmark Vivaldi keeps the 10k build cheap: the warm-up demands
        // 32 Dijkstra rows, not n.
        let world = build_world(
            &WorldConfig {
                nodes,
                vivaldi: VivaldiConfig { landmarks: Some(32), ..Default::default() },
                ..Default::default()
            },
            nodes as u64,
        );
        let n = world.topology.num_nodes();
        let mut dht = DhtMapper::build_with(&world.space, &DhtMapperConfig::default());
        let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
        let mut rng = derive_rng(nodes as u64, 0x4e0b7);
        let placed: Vec<(QuerySpec, sbon_core::optimizer::PlacedCircuit)> = (0..CIRCUITS)
            .map(|_| {
                let hosts = pick_hosts(&world, 5, &mut rng);
                let query = QuerySpec::join_star(&hosts[..4], hosts[4], 10.0, 0.02);
                let pc = optimizer
                    .optimize_with_mapper_estimated(&query, &world.space, &mut dht, None)
                    .expect("query places");
                (query, pc)
            })
            .collect();
        // Every circuit recorded clean: the dirty set each "tick" is the
        // first `dirty` circuits, everyone else is skipped by the probe.
        let mut relevance = RelevanceIndex::new();
        for h in 0..CIRCUITS as u64 {
            relevance.record_clean(ReoptKind::Rewrite, h, ReadSet::default());
        }
        let placer = RelaxationPlacer::default();
        let policy = ReoptPolicy::default();

        let mut group = c.benchmark_group(format!("reopt_pass_{n}_nodes_{CIRCUITS}_circuits"));
        group.sample_size(10);
        for (label, pct) in
            [("dirty_0pct", 0usize), ("dirty_1pct", 1), ("dirty_10pct", 10), ("dirty_100pct", 100)]
        {
            let dirty = CIRCUITS * pct / 100;
            group.bench_function(label, |b| {
                b.iter(|| {
                    let eval: Vec<&(QuerySpec, _)> = placed
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| {
                            i < dirty || relevance.is_dirty(ReoptKind::Rewrite, i as u64)
                        })
                        .map(|(_, circuit)| circuit)
                        .collect();
                    let lists = CandidateLists::rewrite(eval.iter().map(|(_, pc)| &pc.plan));
                    for (at, (query, pc)) in eval.iter().enumerate() {
                        let mut view = dht.read_view();
                        black_box(reoptimize_among(
                            lists.of(at),
                            pc.estimated.network_usage,
                            query,
                            &world.space,
                            &placer,
                            &mut view,
                            policy,
                            None,
                        ));
                    }
                    black_box(eval.len())
                })
            });
        }
        group.finish();
    }
}

/// The message-passing control plane vs the omniscient shared structure,
/// at n ∈ {2k, 10k}: `omniscient_lookup` answers a catalog lookup by
/// reading the shared ring directly (the `MapperBackend::Dht` path), while
/// `routed_lookup` resolves the same target by driving the full protocol —
/// per-hop `Lookup`/`LookupReply` messages over the live underlay
/// latencies, timers armed and cancelled, queue drained to quiescence (the
/// `MapperBackend::Routed` path). Criterion measures the *simulation* cost
/// of the protocol machinery; the *experienced* cost — virtual
/// milliseconds of underlay delay per query, messages, hops — is printed
/// as a one-shot record next to the group (the omniscient baseline
/// experiences 0 ms and 0 messages by construction, which is exactly the
/// fiction the routed backend retires).
fn bench_routed_lookup(c: &mut Criterion) {
    for nodes in [2_048usize, 10_000] {
        let world = build_world(
            &WorldConfig {
                nodes,
                vivaldi: VivaldiConfig { landmarks: Some(32), ..Default::default() },
                ..Default::default()
            },
            nodes as u64,
        );
        let n = world.topology.num_nodes();
        let targets = ideal_targets(&world.space, 128, nodes as u64);
        let link = |a: u32, b: u32| world.latency.latency(NodeId(a), NodeId(b));

        // One-shot experienced-latency record: route every target once and
        // report the distribution the omniscient baseline cannot see.
        let mut mapper = RoutedMapper::build_with(
            &world.space,
            &DhtMapperConfig::default(),
            ProtoConfig::default(),
        );
        let origin = mapper.coordinator().0;
        let mut agree = 0usize;
        for t in &targets {
            let truth = mapper.routed().catalog().lookup_closest_traced(t.as_slice());
            let at = mapper.routed().now();
            mapper.routed_mut().lookup_routed(origin, t.as_slice(), at, &link);
            let done = mapper.routed_mut().run_to_quiescence(&link);
            if let (Some(truth), Some((_, res))) = (truth, done.last()) {
                agree += usize::from(res.member == truth.member);
            }
        }
        let rs = mapper.routed_stats();
        println!(
            "routed_lookup_{n}: experienced p50 {:.1} ms, p99 {:.1} ms; {:.1} hops/lookup \
             (log2 n = {:.1}); {:.1} msgs/lookup; {agree}/{} answers equal omniscient",
            rs.p50_latency_ms().unwrap_or(0.0),
            rs.p99_latency_ms().unwrap_or(0.0),
            rs.mean_hops(),
            (n as f64).log2(),
            rs.messages as f64 / rs.lookups.max(1) as f64,
            targets.len(),
        );

        let mut group = c.benchmark_group(format!("routed_lookup_{n}_nodes"));
        group.bench_function("omniscient_lookup", |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % targets.len();
                black_box(mapper.routed_mut().catalog_mut().lookup_closest(targets[i].as_slice()))
            })
        });
        group.bench_function("routed_lookup", |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % targets.len();
                let at = mapper.routed().now();
                mapper.routed_mut().lookup_routed(origin, targets[i].as_slice(), at, &link);
                black_box(mapper.routed_mut().run_to_quiescence(&link).len())
            })
        });
        group.finish();
    }
}

/// The landmark-Vivaldi accuracy-vs-cost sweep: embed one 512-node world
/// with the full protocol and with k ∈ {16, 64} landmarks, timing the embed
/// (the criterion measurement) and printing median relative error next to
/// the one-shot wall time, so the trade-off is recorded in the bench
/// output. Under a lazy latency backend the full protocol demands all n
/// Dijkstra rows, landmark mode only k.
fn bench_vivaldi_landmarks(c: &mut Criterion) {
    let world = build_world(&WorldConfig { nodes: 512, ..Default::default() }, 512);
    let mut group = c.benchmark_group("vivaldi_512_nodes");
    for (label, landmarks) in
        [("embed_full", None), ("embed_landmark_16", Some(16)), ("embed_landmark_64", Some(64))]
    {
        let cfg = VivaldiConfig { landmarks, ..Default::default() };
        // One-shot accuracy + wall-time record (printed, not measured).
        let t0 = Instant::now();
        let emb = cfg.embed(&world.latency, 512);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let p50 = Summary::of(&relative_errors(&emb, &world.latency, 2000, 512)).p50;
        println!("{label}: {wall_ms:.1} ms/embed, median rel err {p50:.4}");
        group.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(cfg.embed(&world.latency, seed).coords.len())
            })
        });
    }
    group.finish();
}

/// Observability overhead on the hot tick path: one runtime tick (churn,
/// scalar refresh + mapper sync, routed settle, usage accounting) with the
/// obs layer disabled, fully instrumented into a counting null sink, and
/// fully instrumented into a JSONL sink writing to an in-process void.
/// The contract under test: the *disabled* path costs one branch per
/// would-be span — well under 1% of a tick — because field closures are
/// lazy and the registry counters back the stats views in every
/// configuration (the seed paid the same counter increments as plain
/// struct fields). A one-shot record prints ms/tick per config and the
/// disabled-vs-instrumented delta next to the criterion measurement.
fn bench_obs_overhead(c: &mut Criterion) {
    let nodes = 2_048usize;
    let topo = generate(&TransitStubConfig::with_total_nodes(nodes), nodes as u64);
    let hosts = topo.host_candidates();
    let mk = |obs: ObsConfig| {
        let config = RuntimeConfig::builder()
            // Effectively unbounded: each bench iteration advances one tick.
            .horizon_ms(1e12)
            .reopt_interval_ms(4_000.0)
            .churn(ChurnProcess::SparseWalk { nodes_per_tick: CHURNED_PER_TICK, std_dev: 0.1 })
            .latency_backend(LatencyBackend::Lazy)
            .threads(1)
            .obs(obs)
            .build();
        let mut rt = OverlayRuntime::new(&topo, nodes as u64, config);
        for base in [0usize, 3] {
            let pick = |i: usize| hosts[(base + i * 7) % hosts.len()];
            let q =
                QuerySpec::join_star(&[pick(0), pick(1), pick(2), pick(3)], pick(4), 10.0, 0.02);
            rt.deploy(q).expect("query places");
        }
        let session = rt.start_run();
        (rt, session)
    };
    let configs = [
        ("obs_disabled", ObsConfig::disabled()),
        ("obs_null_trace", ObsConfig::full_null(nodes as u64)),
        (
            "obs_jsonl_trace",
            ObsConfig {
                trace: Some(TraceSpec::jsonl(nodes as u64, "/dev/null".into())),
                flight_capacity: 256,
            },
        ),
    ];

    // One-shot record: 256 warm ticks per config, printed as ms/tick.
    let mut per_tick = Vec::new();
    for (label, obs) in &configs {
        let (mut rt, mut session) = mk(obs.clone());
        rt.advance_ticks(&mut session, 32); // warm the lazy row cache
        let t0 = Instant::now();
        rt.advance_ticks(&mut session, 256);
        let ms = t0.elapsed().as_secs_f64() * 1e3 / 256.0;
        per_tick.push(ms);
        println!("obs_overhead_{nodes}: {label} {ms:.4} ms/tick");
    }
    println!(
        "obs_overhead_{nodes}: disabled-path overhead vs fully-instrumented: {:+.2}% \
         (contract: disabled obs costs <1% of a tick)",
        100.0 * (per_tick[1] - per_tick[0]) / per_tick[0].max(1e-12),
    );

    let mut group = c.benchmark_group(format!("obs_overhead_{nodes}_nodes_tick"));
    group.sample_size(10);
    for (label, obs) in &configs {
        let (mut rt, mut session) = mk(obs.clone());
        rt.advance_ticks(&mut session, 32);
        group.bench_function(*label, |b| {
            b.iter(|| {
                assert!(rt.advance_ticks(&mut session, 1), "horizon must not be reached");
                black_box(session.now_ms())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_control_plane,
    bench_ring_maintenance,
    bench_row_repair,
    bench_reopt_pass,
    bench_routed_lookup,
    bench_vivaldi_landmarks,
    bench_obs_overhead
);
criterion_main!(benches);
