//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary small worlds and workloads, not just the fixtures the unit
//! tests pin down.

use proptest::prelude::*;
use rand::Rng;

use sbon::coords::vivaldi::VivaldiEmbedding;
use sbon::core::circuit::Circuit;
use sbon::core::costspace::{CostSpaceBuilder, DimensionSpec, ScalarSource, WeightFn};
use sbon::core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec, TwoStepOptimizer};
use sbon::core::placement::{
    map_circuit, optimal_tree_placement, DhtMapper, OracleMapper, PhysicalMapper, RelaxationPlacer,
    VirtualPlacer,
};
use sbon::dht::{CoordinateCatalog, DhtRing, ProtoConfig, RingKey, RoutedCatalog};
use sbon::hilbert::{HilbertCurve, Quantizer};
use sbon::netsim::dijkstra::all_pairs_latency;
use sbon::netsim::graph::{EdgeId, NodeId};
use sbon::netsim::latency::{EuclideanLatency, LatencyProvider};
use sbon::netsim::lazy::LazyLatency;
use sbon::netsim::load::{Attr, ChurnProcess, NodeAttrs};
use sbon::netsim::rng::derive_rng;
use sbon::netsim::topology::transit_stub::{self, TransitStubConfig};
use sbon::netsim::topology::waxman::{self, WaxmanConfig};
use sbon::overlay::{JitterModel, LatencyBackend, OverlayRuntime, RuntimeConfig};
use sbon::query::enumerate::{all_join_trees, dp_best_plan};
use sbon::query::stream::{StreamCatalog, StreamId};

/// Strategy: a small Euclidean world of 6–20 nodes in a 200×200 box.
fn euclidean_world() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..200.0, 0.0f64..200.0), 6..20)
}

/// The seed `Vec`-backed ring, kept verbatim as the reference
/// implementation the B-tree [`DhtRing`] is pinned against: one sorted
/// vector, binary search everywhere, `O(n)` memmove per join/leave.
#[derive(Default)]
struct VecRing {
    members: Vec<(RingKey, u32)>,
}

impl VecRing {
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

    fn successor(&self, key: RingKey) -> Option<(RingKey, u32)> {
        if self.members.is_empty() {
            return None;
        }
        let pos = match self.members.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(pos) => pos,
            Err(pos) => pos % self.members.len(),
        };
        Some(self.members[pos])
    }

    fn predecessor(&self, key: RingKey) -> Option<(RingKey, u32)> {
        if self.members.is_empty() {
            return None;
        }
        let pos = match self.members.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(pos) | Err(pos) => pos,
        };
        let idx = (pos + self.members.len() - 1) % self.members.len();
        Some(self.members[idx])
    }

    fn walk_outward(&self, key: RingKey, count: usize) -> Vec<(RingKey, u32)> {
        let cw = |a: RingKey, b: RingKey| b.wrapping_sub(a);
        let n = self.members.len();
        if n == 0 || count == 0 {
            return Vec::new();
        }
        let start = match self.members.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(pos) => pos,
            Err(pos) => pos % n,
        };
        let take = count.min(n);
        let mut out = Vec::with_capacity(take);
        let mut fwd = start;
        let mut bwd = (start + n - 1) % n;
        for _ in 0..take {
            let fdist = cw(key, self.members[fwd].0);
            let bdist = cw(self.members[bwd].0, key);
            if fdist <= bdist {
                out.push(self.members[fwd]);
                fwd = (fwd + 1) % n;
            } else {
                out.push(self.members[bwd]);
                bwd = (bwd + n - 1) % n;
            }
        }
        out
    }
}

fn world_from(points: &[(f64, f64)]) -> (EuclideanLatency, sbon::core::costspace::CostSpace) {
    let pts: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
    let lat = EuclideanLatency::new(pts.clone());
    let space = CostSpaceBuilder::latency_space(&VivaldiEmbedding::exact(pts));
    (lat, space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The integrated optimizer's chosen estimate is the minimum over its
    /// candidate set — re-placing any candidate can never beat it.
    #[test]
    fn integrated_selection_is_minimal(points in euclidean_world(), sel in 0.001f64..0.5) {
        let (lat, space) = world_from(&points);
        let n = points.len() as u32;
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(1), NodeId(2)],
            NodeId(n - 1),
            10.0,
            sel,
        );
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let best = opt.optimize(&q, &space, &lat).unwrap();
        let placer = opt.placer();
        for plan in opt.candidate_plans(&q) {
            let circuit = Circuit::from_plan(&plan, &q.catalog, q.consumer);
            let vp = placer.place(&circuit, &space);
            let mut mapper = OracleMapper;
            let mapped = map_circuit(&circuit, &vp, &space, &mut mapper);
            let est = circuit.cost_with(&mapped.placement, &[], |a, b| space.vector_distance(a, b));
            prop_assert!(best.estimated.network_usage <= est.network_usage + 1e-6);
        }
    }

    /// With exact coordinates (zero embedding error), the integrated
    /// optimizer never does worse than two-step on *measured* usage.
    #[test]
    fn exact_embedding_integrated_never_loses(points in euclidean_world()) {
        let (lat, space) = world_from(&points);
        let n = points.len() as u32;
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            NodeId(n - 1),
            10.0,
            0.05,
        );
        let int = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &lat).unwrap();
        let two = TwoStepOptimizer::new()
            .optimize(&q, &space, &lat).unwrap();
        prop_assert!(int.cost.network_usage <= two.cost.network_usage + 1e-6);
    }

    /// Relaxation placement never increases the *spring energy* relative to
    /// the centroid seed it starts from (the energy — not the linear
    /// network-usage proxy — is what the spring system provably minimizes).
    #[test]
    fn relaxation_never_regresses_from_seed(points in euclidean_world(), rate in 1.0f64..100.0) {
        let (_, space) = world_from(&points);
        let n = points.len() as u32;
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(n - 1), rate, 0.05);
        let plan = dp_best_plan(&q.catalog, &q.join_set).0;
        let circuit = Circuit::from_plan(&plan, &q.catalog, q.consumer);
        let placer = RelaxationPlacer::default();
        let vp = placer.place(&circuit, &space);
        // The optimum of the spring system is ≤ any specific assignment,
        // in particular the all-at-centroid seed.
        let seed_cost = {
            use sbon::core::placement::VirtualPlacement;
            // Reconstruct the seed: pinned at their coords, unpinned at the
            // pinned mean. (Mirrors the internal seeding.)
            let vd = space.vector_dims();
            let mut acc = vec![0.0; vd];
            let mut count = 0;
            for s in circuit.services() {
                if let sbon::core::circuit::ServicePin::Pinned(h) = s.pin {
                    for (a, c) in acc.iter_mut().zip(space.point(h).vector_part(vd)) {
                        *a += c;
                    }
                    count += 1;
                }
            }
            for a in acc.iter_mut() { *a /= count as f64; }
            let coords: Vec<f64> = circuit.services().iter().flat_map(|s| match s.pin {
                sbon::core::circuit::ServicePin::Pinned(h) =>
                    space.point(h).vector_part(vd).to_vec(),
                sbon::core::circuit::ServicePin::Unpinned => acc.clone(),
            }).collect();
            VirtualPlacement::new(vd, coords).spring_energy(&circuit)
        };
        prop_assert!(vp.spring_energy(&circuit) <= seed_cost + 1e-6);
    }

    /// The omniscient tree DP lower-bounds every mapped placement of the
    /// same circuit.
    #[test]
    fn tree_dp_is_a_lower_bound(points in euclidean_world()) {
        let (lat, space) = world_from(&points);
        let n = points.len() as u32;
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(n - 1), 10.0, 0.05);
        let plan = dp_best_plan(&q.catalog, &q.join_set).0;
        let circuit = Circuit::from_plan(&plan, &q.catalog, q.consumer);
        let hosts: Vec<NodeId> = (0..n).map(NodeId).collect();
        let (_, optimal) = optimal_tree_placement(&circuit, &hosts, |a, b| lat.latency(a, b));
        let placer = RelaxationPlacer::default();
        let vp = placer.place(&circuit, &space);
        let mut mapper = OracleMapper;
        let mapped = map_circuit(&circuit, &vp, &space, &mut mapper);
        let usage = circuit.cost_with(&mapped.placement, &[], |a, b| lat.latency(a, b)).network_usage;
        prop_assert!(usage + 1e-6 >= optimal, "mapped {usage} < optimal {optimal}");
    }

    /// The lazy latency provider must return **bit-identical** values to
    /// the dense all-pairs matrix recomputed from the same (mutated) graph,
    /// across random topology families, jitter sequences and read
    /// orders — the contract that makes
    /// `LatencyBackend::Lazy` a drop-in for `Dense` in the overlay runtime.
    #[test]
    fn lazy_provider_is_bit_identical_to_all_pairs(
        seed in 0u64..1_000_000,
        nodes in 16usize..56,
        rounds in 1usize..5,
    ) {
        // Alternate the topology family by seed so one strategy covers
        // transit-stub and Waxman.
        let topo = if seed % 2 == 0 {
            transit_stub::generate(&TransitStubConfig::with_total_nodes(nodes), seed)
        } else {
            waxman::generate(&WaxmanConfig { nodes, ..Default::default() }, seed)
        };
        let mut lazy = LazyLatency::new(topo.graph.clone());
        let n = lazy.len();
        let m = lazy.graph().num_edges();
        let mut rng = derive_rng(seed, 0x1a27);
        for _ in 0..rounds {
            // Random interleaving of queries and edge jitter: each op is
            // either a query (possibly computing an own-region row) or a
            // mutation (possibly of a region whose rows are resident).
            for _ in 0..24 {
                if rng.gen_range(0..2) == 0 {
                    let a = NodeId(rng.gen_range(0..n as u32));
                    let b = NodeId(rng.gen_range(0..n as u32));
                    let _ = lazy.latency(a, b);
                } else {
                    let e = EdgeId(rng.gen_range(0..m as u32));
                    let f = rng.gen_range(0.4..2.2);
                    lazy.scale_edges_clamped(&[(e, f)], (0.25, 4.0));
                }
            }
            // Full equivalence sweep against a fresh dense recompute.
            let dense = all_pairs_latency(lazy.graph());
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let (l, d) = (lazy.latency(a, b), dense.latency(a, b));
                    prop_assert!(
                        l.to_bits() == d.to_bits(),
                        "lazy {l} != dense {d} for {a}->{b} (seed {seed})"
                    );
                }
            }
        }
    }

    /// Batched edge-delta absorption — the overlay's jitter-tick path
    /// (`apply_edge_deltas`) — must leave every *served* value bit-identical
    /// to a fresh all-pairs Dijkstra of the mutated graph, across random
    /// topology families and delta batches (with intra-batch duplicate
    /// edges, where the last write wins). Each batch repairs the store;
    /// between batches only `reads` random sources are read, so own-region
    /// rows are computed before, between and after batches, and the
    /// scripted edges go up in one batch, then one below its start and the
    /// other exactly back to it in the next.
    #[test]
    fn repaired_rows_match_fresh_dijkstra_under_delta_batches(
        seed in 0u64..1_000_000,
        nodes in 16usize..56,
        batches in 1usize..5,
        batch_size in 1usize..24,
        reads in 0usize..56,
    ) {
        let topo = if seed % 2 == 0 {
            transit_stub::generate(&TransitStubConfig::with_total_nodes(nodes), seed)
        } else {
            waxman::generate(&WaxmanConfig { nodes, ..Default::default() }, seed)
        };
        let mut lazy = LazyLatency::new(topo.graph.clone());
        let n = lazy.len();
        let m = lazy.graph().num_edges();
        let mut rng = derive_rng(seed, 0x5e9a);
        // Read a random working set so the batches hit resident rows.
        for _ in 0..12 {
            let a = NodeId(rng.gen_range(0..n as u32));
            let b = NodeId(rng.gen_range(0..n as u32));
            let _ = lazy.latency(a, b);
        }
        // Scripted on top of the random deltas: `swing` goes up in the
        // first batch and below its start in the second; `back` goes up
        // and returns exactly to its start (a net-zero window).
        let (swing, back) = (EdgeId(rng.gen_range(0..m as u32)), EdgeId(rng.gen_range(0..m as u32)));
        let (swing_w, back_w) =
            (lazy.graph().edge(swing).latency_ms, lazy.graph().edge(back).latency_ms);
        for batch in 0..batches {
            let mut deltas: Vec<(EdgeId, f64)> = (0..batch_size)
                .map(|_| {
                    let e = EdgeId(rng.gen_range(0..m as u32));
                    (e, rng.gen_range(0.5..12.0))
                })
                .collect();
            match batch {
                0 => deltas.extend([(swing, swing_w * 3.0), (back, back_w * 2.0)]),
                1 => deltas.extend([(swing, swing_w * 0.4), (back, back_w)]),
                _ => {}
            }
            lazy.apply_edge_deltas(&deltas);
            let dense = all_pairs_latency(lazy.graph());
            let last = batch + 1 == batches;
            let sources: Vec<u32> = if last {
                (0..n as u32).collect()
            } else {
                (0..reads).map(|_| rng.gen_range(0..n as u32)).collect()
            };
            for a in sources {
                for b in 0..n as u32 {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let (l, d) = (lazy.latency(a, b), dense.latency(a, b));
                    prop_assert!(
                        l.to_bits() == d.to_bits(),
                        "lazy {l} != dense {d} for {a}->{b} (seed {seed}, batch {batch})"
                    );
                }
            }
        }
    }

    /// The unified `JitterModel` contract: with churn disabled, a jittered
    /// run is **bit-identical across latency backends** — both draw the
    /// same edge-granular delta stream from the run RNG into one latency
    /// store, which repairs its tables for each batch, so every sample and
    /// counter in the `RunReport` must agree exactly for arbitrary seeds
    /// and jitter intensities.
    #[test]
    fn no_churn_jittered_run_is_backend_invariant(
        seed in 0u64..1_000_000,
        edges_per_tick in 1usize..80,
    ) {
        let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(60), seed);
        let hosts = topo.host_candidates();
        let run = |backend: LatencyBackend| {
            let mut rt = OverlayRuntime::new(
                &topo,
                seed,
                RuntimeConfig::builder()
                    .horizon_ms(6_000.0)
                    .reopt_interval_ms(None)
                    .churn(ChurnProcess::None)
                    .latency_jitter(JitterModel { edges_per_tick, ..Default::default() })
                    .latency_backend(backend)
                    .build(),
            );
            rt.deploy(QuerySpec::join_star(&[hosts[0], hosts[8], hosts[16]], hosts[24], 10.0, 0.02))
                .expect("query deploys");
            rt.run()
        };
        let dense = run(LatencyBackend::Dense);
        let lazy = run(LatencyBackend::Lazy);
        prop_assert_eq!(dense, lazy);
    }

    /// A cost space maintained through the delta API
    /// (`update_scalars` / `set_vector_coord`) must be **bit-identical** to
    /// a `CostSpaceBuilder` bulk rebuild from the same final embedding and
    /// attribute table, across random interleavings of attribute churn and
    /// coordinate refinement — the contract that lets the runtime refresh
    /// `O(churned)` points per tick instead of rebuilding the universe.
    #[test]
    fn incremental_costspace_matches_rebuild(
        seed in 0u64..1_000_000,
        nodes in 4usize..24,
        ops in 8usize..80,
    ) {
        let mut rng = derive_rng(seed, 0xDE17A);
        let mut coords: Vec<Vec<f64>> = (0..nodes)
            .map(|_| vec![rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)])
            .collect();
        let mut attrs = NodeAttrs::idle(nodes);
        for i in 0..nodes as u32 {
            attrs.set(NodeId(i), Attr::CpuLoad, rng.gen_range(0.0..1.0));
            attrs.set(NodeId(i), Attr::MemLoad, rng.gen_range(0.0..1.0));
        }
        let specs = vec![
            DimensionSpec {
                name: "cpu²".to_string(),
                source: ScalarSource::Attr(Attr::CpuLoad),
                weight: WeightFn::Squared { scale: 100.0 },
            },
            DimensionSpec {
                name: "mem".to_string(),
                source: ScalarSource::Attr(Attr::MemLoad),
                weight: WeightFn::Linear { scale: 50.0 },
            },
        ];
        let mut space = CostSpaceBuilder::custom(
            &VivaldiEmbedding::exact(coords.clone()),
            &attrs,
            specs.clone(),
            "delta-maintained",
        );
        for _ in 0..ops {
            let node = NodeId(rng.gen_range(0..nodes as u32));
            match rng.gen_range(0..4) {
                // Attribute churn (absolute set, possibly out of band —
                // clamped identically on both paths).
                0 => {
                    attrs.set(node, Attr::CpuLoad, rng.gen_range(-0.2..1.2));
                    space.update_scalars(node, &attrs);
                }
                // Relative attribute step.
                1 => {
                    attrs.add(node, Attr::MemLoad, rng.gen_range(-0.4..0.4));
                    space.update_scalars(node, &attrs);
                }
                // Embedding refinement of the vector prefix.
                2 => {
                    let c = vec![rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)];
                    space.set_vector_coord(node, &c);
                    coords[node.index()] = c;
                }
                // Redundant refresh of an untouched node (must be a no-op).
                _ => {
                    prop_assert!(!space.update_scalars(node, &attrs));
                }
            }
        }
        let rebuilt = CostSpaceBuilder::custom(
            &VivaldiEmbedding::exact(coords.clone()),
            &attrs,
            specs,
            "bulk-rebuilt",
        );
        for i in 0..nodes as u32 {
            let (d, r) = (space.point(NodeId(i)), rebuilt.point(NodeId(i)));
            for (a, b) in d.as_slice().iter().zip(r.as_slice()) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "node {i}: delta {a} != rebuilt {b} (seed {seed})"
                );
            }
        }
    }

    /// A `DhtMapper` maintained by forwarding cost-point deltas
    /// (`update_node`) must answer every lookup exactly like a mapper
    /// freshly built from the final space over the same quantizer — the
    /// contract that lets the runtime keep one long-lived catalog instead
    /// of rebuilding it per tick.
    #[test]
    fn dht_mapper_deltas_match_fresh_build(
        seed in 0u64..1_000_000,
        nodes in 4usize..24,
        ops in 1usize..60,
    ) {
        let mut rng = derive_rng(seed, 0xD47D);
        let coords: Vec<Vec<f64>> = (0..nodes)
            .map(|_| vec![rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)])
            .collect();
        let mut attrs = NodeAttrs::idle(nodes);
        for i in 0..nodes as u32 {
            attrs.set(NodeId(i), Attr::CpuLoad, rng.gen_range(0.0..1.0));
        }
        let mut space = CostSpaceBuilder::latency_load_space_scaled(
            &VivaldiEmbedding::exact(coords),
            &attrs,
            100.0,
        );
        // Fixed bounds with headroom for every churned value, so both
        // mappers quantize identically no matter where the deltas end up.
        let quantizer =
            Quantizer::new(vec![-50.0, -50.0, -1.0], vec![250.0, 250.0, 101.0], 12);
        let mut maintained = DhtMapper::build_with_quantizer(&space, quantizer.clone(), 8);
        for _ in 0..ops {
            let node = NodeId(rng.gen_range(0..nodes as u32));
            if rng.gen_range(0..4) == 0 {
                let c = vec![rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)];
                if space.set_vector_coord(node, &c) {
                    maintained.update_node(&space, node);
                }
            } else {
                attrs.set(node, Attr::CpuLoad, rng.gen_range(-0.1..1.1));
                if space.update_scalars(node, &attrs) {
                    maintained.update_node(&space, node);
                }
            }
        }
        let mut fresh = DhtMapper::build_with_quantizer(&space, quantizer, 8);
        prop_assert!(maintained.len() == fresh.len());
        for _ in 0..16 {
            let ideal = space
                .ideal_point(&[rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)]);
            let (m, _) = maintained.map_point(&space, &ideal);
            let (f, _) = fresh.map_point(&space, &ideal);
            prop_assert!(
                m == f,
                "maintained {m:?} != fresh {f:?} for {ideal:?} (seed {seed})"
            );
        }
    }

    /// The B-tree [`DhtRing`] must be **behaviourally identical** to the
    /// seed `Vec` ring over random interleavings of joins (including forced
    /// key collisions, so the clockwise probe is exercised), leaves,
    /// successor/predecessor queries, neighbor walks at boundary counts,
    /// and routed lookups — the contract that made swapping the membership
    /// structure a pure `O(n) → O(log n)` cost change.
    #[test]
    fn btree_ring_matches_vec_reference(
        seed in 0u64..1_000_000,
        ops in 20usize..140,
    ) {
        let mut rng = derive_rng(seed, 0xB7EE);
        let mut ring = DhtRing::default();
        let mut reference = VecRing::default();
        let mut next_member: u32 = 0;
        let mut live: Vec<u32> = Vec::new();
        for _ in 0..ops {
            match rng.gen_range(0..8) {
                0..=2 => {
                    // Join; 1 in 3 reuses an occupied key to force probing.
                    let key: RingKey = if !reference.members.is_empty() && rng.gen_range(0..3) == 0
                    {
                        reference.members[rng.gen_range(0..reference.members.len())].0
                    } else if rng.gen_range(0..8) == 0 {
                        // Occasionally probe the key-space end (wrap case).
                        RingKey::MAX - rng.gen_range(0..2) as RingKey
                    } else {
                        rng.gen()
                    };
                    let kb = ring.join(key, next_member);
                    let kv = reference.join(key, next_member);
                    prop_assert_eq!(kb, kv);
                    live.push(next_member);
                    next_member += 1;
                }
                3 => {
                    // Leave a live member — or a never-joined one (no-op).
                    let member = if !live.is_empty() && rng.gen_range(0..5) > 0 {
                        live.swap_remove(rng.gen_range(0..live.len()))
                    } else {
                        next_member + 1000
                    };
                    prop_assert_eq!(ring.leave(member), reference.leave(member));
                }
                4 => {
                    let key: RingKey = rng.gen();
                    prop_assert_eq!(ring.successor(key), reference.successor(key));
                    prop_assert_eq!(ring.predecessor(key), reference.predecessor(key));
                }
                5 => {
                    // Neighbors at the membership-boundary counts the seed
                    // walk's disjoint-arc argument is most delicate at.
                    let key: RingKey = if !reference.members.is_empty() && rng.gen_range(0..2) == 0
                    {
                        reference.members[rng.gen_range(0..reference.members.len())].0
                    } else {
                        rng.gen()
                    };
                    let n = reference.members.len();
                    for count in [n.saturating_sub(1), n, n + 1, rng.gen_range(0..n + 3)] {
                        let walked: Vec<_> = ring.walk_outward(key, count).collect();
                        prop_assert_eq!(walked, reference.walk_outward(key, count));
                    }
                }
                _ => {
                    // Routed lookup: owner must equal the reference
                    // successor (hops are an implementation detail of the
                    // finger walk, but both rings share it — compare too).
                    if reference.members.is_empty() {
                        prop_assert!(ring.lookup(0, 0).is_none());
                        continue;
                    }
                    let start = reference.members[rng.gen_range(0..reference.members.len())].0;
                    let target: RingKey = rng.gen();
                    let out = ring.lookup(start, target).unwrap();
                    let truth = reference.successor(target).unwrap();
                    prop_assert_eq!((out.owner_key, out.owner), truth);
                }
            }
            prop_assert_eq!(ring.len(), reference.members.len());
        }
        // Final sweep: the full ring orders identically.
        let btree_members: Vec<(RingKey, u32)> = ring.iter().collect();
        prop_assert_eq!(btree_members, reference.members);
    }

    /// The routed control plane, driven over the simulated underlay to
    /// quiescence after every mutation, must hold **exactly** the catalog
    /// state of an omniscient shared-structure catalog fed the same
    /// operation sequence — same registered keys, same ring order, same
    /// lookup answers — across random topologies, register / churn /
    /// unregister interleavings, scan widths, and link-latency functions.
    /// This is the contract that makes `MapperBackend::Routed` a drop-in
    /// for `MapperBackend::Dht` whose only observable difference is the
    /// experienced-latency accounting.
    #[test]
    fn routed_catalog_matches_omniscient_after_quiescence(
        seed in 0u64..1_000_000,
        nodes in 3u32..32,
        ops in 1usize..48,
    ) {
        let mut rng = derive_rng(seed, 0x207ED);
        let scan = 1 + (seed % 8) as usize;
        let fresh = || CoordinateCatalog::new(
            HilbertCurve::new(2, 8),
            Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8),
            scan,
        );
        // Seed-derived symmetric link latency with a zero diagonal.
        let salt = seed.wrapping_mul(0x9E37_79B9);
        let link = move |a: u32, b: u32| -> f64 {
            if a == b {
                return 0.0;
            }
            let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
            1.0 + ((lo.wrapping_mul(2_654_435_761).wrapping_add(hi.wrapping_mul(40_503))
                ^ salt) % 120) as f64
        };
        let mut routed = RoutedCatalog::from_catalog(fresh(), ProtoConfig::default());
        let mut omni = fresh();
        let mut live: Vec<u32> = Vec::new();
        let mut next_member: u32 = 0;
        let coord = |rng: &mut _| -> Vec<f64> {
            let r: &mut rand::rngs::StdRng = rng;
            vec![r.gen_range(0.0..1.0), r.gen_range(0.0..1.0)]
        };
        // Bootstrap membership over the wire: the very first member has no
        // owner to talk to, so it self-installs (direct), mirroring a DHT
        // bootstrap node; everyone after joins through the protocol.
        for _ in 0..nodes {
            let c = coord(&mut rng);
            if routed.catalog().is_empty() {
                routed.register_direct(next_member, &c);
            } else {
                let at = routed.now();
                prop_assert!(
                    routed.register_routed(next_member, c.clone(), at, &link).is_some()
                );
                routed.run_to_quiescence(&link);
            }
            omni.insert(next_member, &c);
            live.push(next_member);
            next_member += 1;
        }
        for _ in 0..ops {
            match rng.gen_range(0..5) {
                // Churn: a live member refines its coordinate.
                0..=1 => {
                    let m = live[rng.gen_range(0..live.len())];
                    let c = coord(&mut rng);
                    let at = routed.now();
                    prop_assert!(routed.register_routed(m, c.clone(), at, &link).is_some());
                    routed.run_to_quiescence(&link);
                    omni.insert(m, &c);
                }
                // Join of a brand-new member.
                2 => {
                    let c = coord(&mut rng);
                    let at = routed.now();
                    prop_assert!(
                        routed.register_routed(next_member, c.clone(), at, &link).is_some()
                    );
                    routed.run_to_quiescence(&link);
                    omni.insert(next_member, &c);
                    live.push(next_member);
                    next_member += 1;
                }
                // Departure over the wire (the last member must stay: an
                // unregistration has no surviving owner to address).
                3 if live.len() > 1 => {
                    let m = live.swap_remove(rng.gen_range(0..live.len()));
                    let at = routed.now();
                    prop_assert!(routed.unregister_routed(m, at, &link).is_some());
                    routed.run_to_quiescence(&link);
                    omni.remove(m);
                }
                // Lookup probe mid-sequence.
                _ => {
                    let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                    let origin = live[rng.gen_range(0..live.len())];
                    let truth = omni.lookup_closest_traced(&target).unwrap();
                    let at = routed.now();
                    prop_assert!(routed.lookup_routed(origin, &target, at, &link).is_some());
                    let (_, res) = routed.run_to_quiescence(&link).pop().unwrap();
                    prop_assert_eq!(res.member, truth.member);
                    prop_assert!(res.hops == 0 || res.latency_ms > 0.0);
                }
            }
            prop_assert!(routed.is_quiescent());
        }
        // Structural equivalence: identical membership under identical
        // post-collision keys, in identical ring order.
        prop_assert_eq!(routed.catalog().len(), omni.len());
        let routed_members: Vec<(RingKey, u32)> = routed.catalog().ring().iter().collect();
        let omni_members: Vec<(RingKey, u32)> = omni.ring().iter().collect();
        prop_assert_eq!(routed_members, omni_members);
        for &m in &live {
            prop_assert_eq!(routed.catalog().registered_key(m), omni.registered_key(m));
        }
        // Behavioural equivalence: a final sweep of lookups agrees.
        for _ in 0..12 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let origin = live[rng.gen_range(0..live.len())];
            let truth = omni.lookup_closest_traced(&target).unwrap();
            let at = routed.now();
            prop_assert!(routed.lookup_routed(origin, &target, at, &link).is_some());
            let (_, res) = routed.run_to_quiescence(&link).pop().unwrap();
            prop_assert_eq!(res.member, truth.member);
        }
        // A healthy underlay never times out, retries, or defers.
        prop_assert_eq!(routed.stats().timeouts, 0);
        prop_assert_eq!(routed.stats().retries, 0);
        prop_assert_eq!(routed.stats().deferred, 0);
    }

    /// Statistical plan costs reported by the DP agree with the
    /// tree-walking cost model for arbitrary selectivities.
    #[test]
    fn dp_cost_model_consistency(
        sels in proptest::collection::vec(0.001f64..1.0, 6),
        rates in proptest::collection::vec(1.0f64..50.0, 4),
    ) {
        let ids: Vec<StreamId> = (0..4).map(StreamId).collect();
        let mut stats = StreamCatalog::new();
        stats.set_default_selectivity(0.1);
        for (i, &r) in rates.iter().enumerate() {
            stats.register(format!("s{i}"), r, NodeId(i as u32));
        }
        let mut k = 0;
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                stats.set_join_selectivity(StreamId(i), StreamId(j), sels[k]);
                k += 1;
            }
        }
        let (plan, cost) = dp_best_plan(&stats, &ids);
        let walked = stats.statistical_cost(&plan);
        prop_assert!((walked - cost).abs() < 1e-6 * walked.max(1.0));
        // And the DP minimum matches exhaustive enumeration.
        let exhaustive = all_join_trees(&ids)
            .into_iter()
            .map(|t| stats.statistical_cost(&t))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((exhaustive - cost).abs() < 1e-6 * exhaustive.max(1.0));
    }
}
