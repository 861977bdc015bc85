//! Partition & heal: the message-passing control plane under a network
//! split.
//!
//! The catalog that backs physical mapping is, in a real SBON, *itself* a
//! distributed system: lookups and registrations are messages routed
//! member-to-member over the same underlay the circuits run on. This
//! example drives [`sbon::dht::RoutedCatalog`] — the protocol-level control
//! plane behind `MapperBackend::Routed` — through a full failure story:
//!
//! 1. **Healthy network.** Coordinate lookups route hop-by-hop from random
//!    origins; every answer must equal the omniscient shared-structure
//!    catalog's, and the run reports the *experienced* latency distribution
//!    (the sum of live link delays along each query's path, not a counter).
//! 2. **Partition.** A contiguous region of the identifier space is severed.
//!    Lookups from the surviving side time out against dead hops, retry
//!    with bounded exponential backoff, suspect the hop, and re-route —
//!    every answer still lands on a *reachable* member (failover).
//!    Registrations whose key owner sits across the cut exhaust their
//!    retries and park as deferred.
//! 3. **Heal.** The partition lifts; deferred registrations flush with
//!    their original stamps (so anything re-registered since wins by
//!    last-writer-wins), and the catalog must reconverge **bit-identically**
//!    — same members, same post-collision ring keys, same ring order, same
//!    lookup answers — to an omniscient twin that applied every operation
//!    instantaneously.
//!
//! ```sh
//! cargo run --release --example partition_heal              # ~2,000 nodes
//! SBON_SMOKE=1 cargo run --release --example partition_heal # CI-sized
//! ```

use rand::Rng;

use sbon::coords::vivaldi::VivaldiConfig;
use sbon::dht::{CoordinateCatalog, ProtoConfig, RingKey, RoutedCatalog};
use sbon::hilbert::{HilbertCurve, Quantizer};
use sbon::netsim::dijkstra::all_pairs_latency;
use sbon::netsim::graph::NodeId;
use sbon::netsim::latency::LatencyProvider;
use sbon::netsim::rng::derive_rng;
use sbon::netsim::topology::transit_stub::{self, TransitStubConfig};

fn main() {
    let smoke = std::env::var_os("SBON_SMOKE").is_some_and(|v| v == "1");
    let (total_nodes, lookups, churns) = if smoke { (300, 200, 80) } else { (2_000, 800, 300) };
    let seed = 2_005;

    // ── The underlay and its embedding ───────────────────────────────────
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(total_nodes), seed);
    let n = topo.num_nodes();
    let latency = all_pairs_latency(&topo.graph);
    let embedding = VivaldiConfig::default().embed(&latency, seed);
    let dims = embedding.dims();
    println!("underlay: {} nodes, {} edges, {dims}-d Vivaldi embedding", n, topo.graph.num_edges());

    // Quantizer bounds with headroom so churned coordinates stay in band.
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for v in 0..n as u32 {
        for (d, &c) in embedding.coord(NodeId(v)).iter().enumerate() {
            lo[d] = lo[d].min(c);
            hi[d] = hi[d].max(c);
        }
    }
    for d in 0..dims {
        let pad = 0.1 * (hi[d] - lo[d]).max(1.0);
        lo[d] -= pad;
        hi[d] += pad;
    }

    // The routed control plane and its omniscient twin: the twin applies
    // every operation instantaneously on the shared structure; the routed
    // catalog must earn the same state over the wire.
    let fresh = || {
        CoordinateCatalog::new(
            HilbertCurve::new(dims, 12),
            Quantizer::new(lo.clone(), hi.clone(), 12),
            8,
        )
    };
    let mut routed = RoutedCatalog::from_catalog(fresh(), ProtoConfig::default());
    let mut omni = fresh();
    for v in 0..n as u32 {
        let c = embedding.coord(NodeId(v));
        routed.register_direct(v, c);
        omni.insert(v, c);
    }
    // Messages experience the live underlay's shortest-path delays.
    let link = |a: u32, b: u32| latency.latency(NodeId(a), NodeId(b));

    let mut rng = derive_rng(seed, 0x9EA1);
    let random_coord = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
        lo.iter().zip(&hi).map(|(&l, &h)| rng.gen_range(l..h)).collect()
    };

    // ── Phase 1: healthy network ─────────────────────────────────────────
    for _ in 0..lookups {
        let origin = rng.gen_range(0..n as u32);
        let target = random_coord(&mut rng);
        let truth = omni.lookup_closest_traced(&target).expect("populated").member;
        let at = routed.now();
        routed.lookup_routed(origin, &target, at, &link).expect("populated");
        let (_, res) = routed.run_to_quiescence(&link).pop().expect("one lookup in flight");
        assert_eq!(res.member, truth, "healthy routed answer must equal the omniscient one");
    }
    let healthy = routed.stats().clone();
    assert_eq!(healthy.timeouts, 0, "a healthy underlay never times out");
    println!("\nphase 1 — healthy (log2 n = {:.1}):", (n as f64).log2());
    println!("  {healthy}");
    println!("  every answer equals the omniscient catalog's ✓");

    // ── Phase 2: partition ───────────────────────────────────────────────
    // Sever a contiguous quarter of the member space (one "region" of the
    // underlay); messages across the cut are dropped.
    let severed: Vec<u32> = (0..(n / 4) as u32).collect();
    routed.sever(severed.iter().copied());
    let cut_from = routed.stats().clone();

    let mut diverged = 0usize;
    for _ in 0..lookups / 4 {
        let origin = rng.gen_range((n / 4) as u32..n as u32);
        let target = random_coord(&mut rng);
        let truth = omni.lookup_closest_traced(&target).expect("populated").member;
        let at = routed.now();
        routed.lookup_routed(origin, &target, at, &link).expect("populated");
        let (_, res) = routed.run_to_quiescence(&link).pop().expect("one lookup in flight");
        assert!(
            !routed.is_severed(res.member),
            "failover: answers must come from the reachable side"
        );
        if res.member != truth {
            diverged += 1;
        }
    }
    // Churn under the partition: members re-register fresh coordinates.
    // Registrations whose key owner sits across the cut defer until heal;
    // the twin applies everything immediately.
    for _ in 0..churns {
        let m = rng.gen_range(0..n as u32);
        let c = random_coord(&mut rng);
        let at = routed.now();
        routed.register_routed(m, c.clone(), at, &link).expect("ring is populated");
        routed.run_to_quiescence(&link);
        omni.insert(m, &c);
    }
    let split = routed.stats().clone();
    let parked = split.deferred - cut_from.deferred;
    assert!(split.timeouts > cut_from.timeouts, "dead hops must time out");
    assert!(split.retries > cut_from.retries, "timeouts must drive backoff retries");
    assert!(parked > 0, "some churned registrations must straddle the cut");
    println!(
        "\nphase 2 — partition ({} members severed, {} lookups, {} re-registrations):",
        severed.len(),
        lookups / 4,
        churns,
    );
    println!(
        "  {} timeouts -> {} retries; {} lookups failed over to a reachable member",
        split.timeouts - cut_from.timeouts,
        split.retries - cut_from.retries,
        diverged,
    );
    println!("  {parked} registrations deferred (owner across the cut)");

    // ── Phase 3: heal ────────────────────────────────────────────────────
    let flushed = routed.heal(routed.now(), &link);
    routed.run_to_quiescence(&link);
    assert!(routed.is_quiescent(), "heal must drain to quiescence");
    assert_eq!(flushed as u64, parked, "heal flushes exactly the deferred registrations");

    // Reconvergence: the routed catalog earned, over the wire and through a
    // partition, exactly the state the omniscient twin holds.
    let routed_ring: Vec<(RingKey, u32)> = routed.catalog().ring().iter().collect();
    let omni_ring: Vec<(RingKey, u32)> = omni.ring().iter().collect();
    assert_eq!(
        routed_ring, omni_ring,
        "post-heal membership must be bit-identical to the omniscient twin"
    );
    for v in 0..n as u32 {
        assert_eq!(routed.catalog().registered_key(v), omni.registered_key(v));
    }
    for _ in 0..lookups / 4 {
        let origin = rng.gen_range(0..n as u32);
        let target = random_coord(&mut rng);
        let truth = omni.lookup_closest_traced(&target).expect("populated").member;
        let at = routed.now();
        routed.lookup_routed(origin, &target, at, &link).expect("populated");
        let (_, res) = routed.run_to_quiescence(&link).pop().expect("one lookup in flight");
        assert_eq!(res.member, truth, "post-heal answers must equal the omniscient one");
    }
    let healed = routed.stats();
    println!("\nphase 3 — heal:");
    println!(
        "  {flushed} deferred registrations flushed ({} arrived stale and lost last-writer-wins)",
        healed.stale_rejected,
    );
    println!(
        "  ring order, registered keys, and {} fresh lookups all bit-identical to the \
         omniscient twin ✓",
        lookups / 4,
    );
    println!("\ntotals: {healed}");
}
