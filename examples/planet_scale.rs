//! Planet scale: a 100,000-node overlay brought up as a **deployment wave**
//! with churn, jitter, and re-optimization — the regime the paper claims
//! cost spaces for ("hundreds or thousands of physical node choices",
//! §2.2), pushed two orders of magnitude past the paper's 600-node world.
//!
//! Four scaling mechanisms compose to make the run tractable:
//!
//! * **One latency store** — every ground-truth distance is a node's
//!   distance to its stub domain's backbone router, plus one backbone
//!   distance, plus the other end's (`sbon_netsim::lazy`): about 32 B a
//!   node instead of an `8 n`-byte row per source. When jitter rescales
//!   underlay edges, each batch repairs the labels it changed in the
//!   domains it touched (dynamic SSSP over the affected set), never the
//!   `O(n²)` matrix.
//! * **Landmark Vivaldi with join-time placement** — the embedding warm-up
//!   samples against `k` frozen landmarks instead of gossiping all-pairs;
//!   every wave arrival embeds itself against those landmarks at join
//!   time, reading them through one view of the store, so no coordinate
//!   is computed before its node exists.
//! * **Deployment wave + B-tree ring** — membership starts from an initial
//!   subset and grows on a per-tick join budget; every arrival, coordinate
//!   re-registration, and failure is one `O(log n)` B-tree ring update in
//!   the runtime's Hilbert-DHT catalog.
//! * **Parallel tick loop** — join-time placement and re-opt evaluation
//!   shard across a deterministic threadpool
//!   (`RuntimeConfigBuilder::threads`, default all cores); the reduction
//!   order is pinned so a parallel run is *bit-identical* to a serial one,
//!   which this example asserts by running the same tier twice.
//!
//! A final **routed control-plane pass** re-runs a tier under
//! `MapperBackend::Routed` (a dedicated ~10k-node tier in the full run):
//! catalog lookups and registrations travel as messages over the simulated
//! underlay, the run must stay bit-identical to the omniscient backend,
//! and the per-query *experienced* latency distribution (p50/p99 ms, hop
//! histogram, messages) is reported.
//!
//! ```sh
//! cargo run --release --example planet_scale            # full 100,000 nodes
//! SBON_SMOKE=1 cargo run --release --example planet_scale     # CI-sized
//! SBON_SMOKE_XL=1 cargo run --release --example planet_scale  # reduced-scale
//!                                           # 100k-tier shape, parallel-vs-serial
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "wall-clock progress reporting only, never control-plane input"
)]

use std::path::PathBuf;
use std::time::Instant;

use rand::seq::SliceRandom;

use sbon::core::reopt::ReoptPolicy;
use sbon::dht::ProtoConfig;
use sbon::netsim::graph::NodeId;
use sbon::netsim::lazy::LazyLatency;
use sbon::netsim::rng::derive_rng;
use sbon::overlay::{
    DeploymentModel, JitterModel, LatencyBackend, MapperBackend, ObsConfig, OverlayRuntime,
    RunReport, RuntimeConfig,
};
use sbon::prelude::*;

/// One scale point of the deployment-wave experiment.
struct Tier {
    label: &'static str,
    topo: TransitStubConfig,
    horizon_ms: f64,
    queries: usize,
    landmarks: usize,
    initial: usize,
    joins_per_tick: usize,
    jitter_edges: usize,
}

impl Tier {
    /// The full 100k-node / ~2M-edge tier: an 8×8 backbone homing 512 stub
    /// domains of ~195 nodes each. 30 ticks; the wave admits ~3,300
    /// nodes/tick so the whole membership is live before the horizon.
    fn planet() -> Self {
        Tier {
            label: "planet (100k nodes)",
            topo: TransitStubConfig {
                transit_domains: 8,
                transit_nodes_per_domain: 8,
                stub_domains_per_transit_node: 8,
                stub_nodes_per_domain: 195,
                ..Default::default()
            },
            horizon_ms: 30_000.0,
            queries: 8,
            landmarks: 64,
            initial: 2_000,
            joins_per_tick: 3_300,
            jitter_edges: 2_000,
        }
    }

    /// The same tier shape (backbone, wave, landmarks, jitter, lazy repair)
    /// at ~3k nodes — the `SBON_SMOKE_XL=1` equivalence smoke.
    fn planet_reduced() -> Self {
        Tier {
            label: "planet-reduced (~3k nodes, 100k-tier shape)",
            topo: TransitStubConfig {
                transit_domains: 8,
                transit_nodes_per_domain: 8,
                stub_domains_per_transit_node: 8,
                stub_nodes_per_domain: 6,
                ..Default::default()
            },
            horizon_ms: 30_000.0,
            queries: 4,
            landmarks: 16,
            initial: 500,
            joins_per_tick: 90,
            jitter_edges: 60,
        }
    }

    /// The ~10k-node tier the routed control-plane pass runs end-to-end:
    /// big enough that lookup paths take real hops, small enough to run
    /// twice (omniscient + routed) alongside the 100k tier.
    fn routed_10k() -> Self {
        Tier {
            label: "routed (~10k nodes)",
            topo: TransitStubConfig {
                transit_domains: 8,
                transit_nodes_per_domain: 8,
                stub_domains_per_transit_node: 8,
                stub_nodes_per_domain: 19,
                ..Default::default()
            },
            horizon_ms: 30_000.0,
            queries: 8,
            landmarks: 64,
            initial: 2_000,
            joins_per_tick: 300,
            jitter_edges: 200,
        }
    }

    /// The `SBON_SMOKE=1` CI tier.
    fn smoke() -> Self {
        Tier {
            label: "smoke (300 nodes)",
            topo: TransitStubConfig::with_total_nodes(300),
            horizon_ms: 10_000.0,
            queries: 4,
            landmarks: 16,
            initial: 100,
            joins_per_tick: 40,
            jitter_edges: 40,
        }
    }

    fn config(&self, threads: usize, backend: MapperBackend, obs: ObsConfig) -> RuntimeConfig {
        RuntimeConfig::builder()
            .obs(obs)
            .mapper_backend(backend)
            .tick_ms(1_000.0)
            .horizon_ms(self.horizon_ms)
            .reopt_interval_ms(5_000.0)
            .full_reopt_interval_ms(15_000.0)
            .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
            // Sparse load reports: each tick a fixed budget of nodes (not a
            // fixed fraction of n) reports fresh load, so control-plane
            // maintenance cost tracks churn, not overlay size.
            .churn(ChurnProcess::SparseWalk { nodes_per_tick: 64, std_dev: 0.1 })
            // Edge-granular jitter: congestion on a link perturbs every
            // path crossing it; each batch repairs the latency store.
            .latency_jitter(JitterModel { edges_per_tick: self.jitter_edges, ..Default::default() })
            .latency_backend(LatencyBackend::Lazy)
            // Landmark embedding: bring-up reads latencies from the
            // landmarks only; wave joiners place themselves against the
            // frozen landmarks as they arrive.
            .vivaldi(VivaldiConfig { landmarks: Some(self.landmarks), ..Default::default() })
            .deployment(DeploymentModel::Wave {
                initial: self.initial,
                joins_per_tick: self.joins_per_tick,
            })
            .threads(threads)
            .build()
    }
}

/// The latency store's resident bytes, checked against the bound its
/// layout gives (`sbon_netsim::lazy`): 32 B a node — T (8 B), the anchor
/// and the node's slot in the region table (4 B each), and two search
/// buffers of 8 B — plus D's 8 B a pair of backbone routers and 24 B a stub
/// domain for the region table, plus the own-region rows: 8 B a member of
/// the source's stub domain and 24 B of bookkeeping each, one for each
/// search run since the build at most.
fn checked_store_bytes(rt: &OverlayRuntime, tier: &Tier, n: usize, when: &str) -> usize {
    let stats = rt.lazy_latency_stats().expect("one latency store");
    let cfg = &tier.topo;
    let routers = cfg.transit_domains * cfg.transit_nodes_per_domain;
    let domains = routers * cfg.stub_domains_per_transit_node;
    let built = (routers + domains) as u64;
    let own = stats.rows_computed.saturating_sub(built) as usize;
    let bound =
        32 * n + 8 * routers * routers + 24 * domains + own * (8 * cfg.stub_nodes_per_domain + 24);
    assert!(
        stats.resident_bytes <= bound,
        "{when}: the store holds {} B, over its bound of {bound} B",
        stats.resident_bytes
    );
    stats.resident_bytes
}

/// The graph's bytes, checked against the bound its layout gives
/// (`sbon_netsim::graph`): 24 B an edge — the edge table's 16 B and two
/// 4 B CSR slots — plus 8 B a node for the CSR's offsets and the region
/// labels, one more offset (4 B), and a 12 B bridge a stub domain.
fn checked_graph_bytes(rt: &OverlayRuntime, tier: &Tier, topo: &Topology, when: &str) -> usize {
    let stats = rt.lazy_latency_stats().expect("one latency store");
    let cfg = &tier.topo;
    let domains =
        cfg.transit_domains * cfg.transit_nodes_per_domain * cfg.stub_domains_per_transit_node;
    let bound = 24 * topo.graph.num_edges() + 8 * topo.num_nodes() + 12 * domains + 4;
    assert!(
        stats.graph_bytes <= bound,
        "{when}: the graph holds {} B, over its bound of {bound} B",
        stats.graph_bytes
    );
    stats.graph_bytes
}

/// `bytes` in MiB.
fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Builds the runtime, deploys the tier's query set, and runs to the
/// horizon. Deterministic in `seed` (and, by the parallel-tick contract,
/// in `threads`).
fn run_tier(
    tier: &Tier,
    topo: &Topology,
    seed: u64,
    threads: usize,
    backend: MapperBackend,
    chatty: bool,
    obs: ObsConfig,
) -> RunReport {
    let (n, m) = (topo.num_nodes(), topo.graph.num_edges());
    let start = Instant::now();
    let mut rt = OverlayRuntime::new(topo, seed, tier.config(threads, backend, obs));
    let bytes = checked_store_bytes(&rt, tier, n, "bring-up");
    let graph = checked_graph_bytes(&rt, tier, topo, "bring-up");
    if chatty {
        println!(
            "  built in {:.2} s — latency store {:.2} MiB ({:.1} B a node), graph {:.2} MiB \
             ({:.1} B an edge); {} of {} nodes registered",
            start.elapsed().as_secs_f64(),
            mib(bytes),
            bytes as f64 / n as f64,
            mib(graph),
            graph as f64 / m as f64,
            rt.arrived_count(),
            n
        );
    }

    // Pin queries on hosts that are present from tick 0.
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    let mut rng = derive_rng(seed, 0x9a7e);
    let start = Instant::now();
    for q in 0..tier.queries {
        let mut picked = hosts.clone();
        picked.shuffle(&mut rng);
        let query = QuerySpec::join_star(&picked[..4], picked[4], 10.0, 0.02);
        rt.deploy(query).unwrap_or_else(|| panic!("query {q} deploys"));
    }
    let bytes = checked_store_bytes(&rt, tier, n, "deploys");
    let graph = checked_graph_bytes(&rt, tier, topo, "deploys");
    if chatty {
        println!(
            "  deployed {} join circuits in {:.2} s — latency store {:.2} MiB, graph {:.2} MiB",
            tier.queries,
            start.elapsed().as_secs_f64(),
            mib(bytes),
            mib(graph),
        );
    }

    let start = Instant::now();
    let report = rt.run();
    let t_run = start.elapsed().as_secs_f64();
    let ticks = report.samples.len();
    let bytes = checked_store_bytes(&rt, tier, n, "the run's end");
    let graph = checked_graph_bytes(&rt, tier, topo, "the run's end");
    if !chatty {
        return report;
    }
    let stats = rt.lazy_latency_stats().expect("one latency store");

    println!("\ndeployment-wave run:");
    println!(
        "  {} ticks in {:.2} s ({:.1} ms/tick wall); overlay grew {} -> {} nodes",
        ticks,
        t_run,
        1e3 * t_run / ticks as f64,
        tier.initial,
        rt.arrived_count()
    );
    println!(
        "  usage {:.0} -> {:.0}, {} migrations, {} replacements",
        report.samples.first().map_or(0.0, |s| s.network_usage),
        report.samples.last().map_or(0.0, |s| s.network_usage),
        report.migrations,
        report.replacements
    );
    println!(
        "  latency store: {:.2} MiB ({:.1} B a node), {} searches from scratch in all; graph \
         {:.2} MiB ({:.1} B an edge)",
        mib(bytes),
        bytes as f64 / n as f64,
        stats.rows_computed,
        mib(graph),
        graph as f64 / m as f64,
    );
    println!(
        "  jitter absorption: {} repair phases settled {} labels ({:.1} per phase), {} region \
         rebuilds and backbone recomputes",
        stats.rows_repaired,
        stats.vertices_settled,
        stats.vertices_settled as f64 / stats.rows_repaired.max(1) as f64,
        stats.rows_rebuilt,
    );

    // ── Per-tick control-plane breakdown ─────────────────────────────────
    // Every counter below lives in the runtime's metrics registry; the
    // stats structs are read-only views that print themselves.
    println!("\n[{} mapper]", rt.mapper_name());
    print!("{}", rt.control_plane_stats());
    if let Some(dht) = rt.dht_stats() {
        println!(
            "  catalog traffic: {} lookups, {} routed hops ({:.1} hops/lookup ~ log₂ n = {:.1})",
            dht.lookups,
            dht.hops,
            dht.hops as f64 / dht.lookups.max(1) as f64,
            (n as f64).log2()
        );
    }
    if let Some(rs) = rt.routed_stats() {
        // The message-passing control plane: the same lookups and
        // registrations, but *experienced* over the live underlay —
        // per-query latency in simulated milliseconds, not a hop counter.
        println!("  experienced: {rs}");
        let hist: Vec<String> = rs
            .hop_histogram()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(h, &c)| format!("{h}:{c}"))
            .collect();
        println!("  lookup hop histogram (hops:count): {}", hist.join(" "));
    }
    if let Some(emitted) = rt.trace_events_emitted() {
        println!("  trace: {emitted} events emitted");
    }
    report
}

fn main() {
    let smoke = std::env::var_os("SBON_SMOKE").is_some_and(|v| v == "1");
    let smoke_xl = std::env::var_os("SBON_SMOKE_XL").is_some_and(|v| v == "1");
    let tier = if smoke_xl {
        Tier::planet_reduced()
    } else if smoke {
        Tier::smoke()
    } else {
        Tier::planet()
    };
    let seed = 100_000;

    println!("tier: {}", tier.label);
    println!("generating the transit-stub underlay...");
    let start = Instant::now();
    let topo = transit_stub::generate(&tier.topo, seed);
    let n = topo.num_nodes();
    let m = topo.graph.num_edges();
    println!(
        "  {} nodes, {} edges, {} stub hosts  ({:.2} s)",
        n,
        m,
        topo.host_candidates().len(),
        start.elapsed().as_secs_f64()
    );

    // ── Deployment-wave run: parallel tick loop ──────────────────────────
    // Default tiers use the multi-threaded default (threads: 0 = all
    // cores). The XL smoke pins threads: 8 so the pool is exercised even
    // on single-core CI, where "auto" would degenerate to serial.
    let parallel_threads = if smoke_xl { 8 } else { 0 };
    println!(
        "\nbuilding runtime (landmark Vivaldi: {} of {n} nodes; wave: {} initial nodes, \
         {} joins/tick; threads: {})...",
        tier.landmarks,
        tier.initial,
        tier.joins_per_tick,
        if parallel_threads == 0 { "auto".to_string() } else { parallel_threads.to_string() }
    );
    // SBON_TRACE=<path>: record this run's control-plane spans as JSONL.
    // The determinism pin below still holds — the serial re-run goes
    // untraced, so `assert_eq!` doubles as a live bit-invisibility check.
    let obs = match std::env::var_os("SBON_TRACE") {
        Some(path) => ObsConfig { trace: Some(PathBuf::from(&path)), flight_capacity: 256 },
        None => ObsConfig::disabled(),
    };
    let traced = obs.trace.is_some();
    let report =
        run_tier(&tier, &topo, seed, parallel_threads, MapperBackend::default(), true, obs);
    if traced {
        println!("  wrote JSONL span trace to {:?}", std::env::var_os("SBON_TRACE").unwrap());
    }

    // ── Determinism pin: the serial run must be bit-identical ────────────
    // The parallel-tick contract: sharding join-time placement and re-opt
    // evaluation across a threadpool changes wall time only.
    // `RunReport` equality is bit-for-bit over every sample and counter.
    println!("\nre-running the tier serially (threads: 1) to pin determinism...");
    let start = Instant::now();
    let serial =
        run_tier(&tier, &topo, seed, 1, MapperBackend::default(), false, ObsConfig::disabled());
    println!("  serial run finished in {:.2} s", start.elapsed().as_secs_f64());
    assert_eq!(
        report, serial,
        "parallel and serial runs of the same tier must produce bit-identical RunReports"
    );
    println!("  parallel ≡ serial: RunReports are bit-identical ✓");

    // ── Routed control-plane pass: the message-passing backend ───────────
    // `MapperBackend::Routed` answers placements from the same catalog
    // state as the omniscient Dht backend — the RunReports must be
    // bit-identical — but replays every lookup and registration as routed
    // messages over the live underlay, so the control plane's cost is
    // *experienced* (per-query milliseconds of link delay), not estimated.
    // Smoke modes reuse their tier; the full run gets a dedicated ~10k-node
    // tier so lookup paths take real hops without doubling the 100k cost.
    let routed_tier;
    let routed_topo;
    let (tier_r, topo_r) = if smoke || smoke_xl {
        (&tier, &topo)
    } else {
        routed_tier = Tier::routed_10k();
        println!("\ngenerating the ~10k-node underlay for the routed control-plane pass...");
        routed_topo = transit_stub::generate(&routed_tier.topo, seed);
        (&routed_tier, &routed_topo)
    };
    println!(
        "\nrouted control-plane pass ({}, {} nodes): omniscient vs message-passing backend...",
        tier_r.label,
        topo_r.num_nodes()
    );
    let start = Instant::now();
    let omniscient = run_tier(
        tier_r,
        topo_r,
        seed,
        parallel_threads,
        MapperBackend::default(),
        false,
        ObsConfig::disabled(),
    );
    let routed_backend =
        MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() };
    let routed = run_tier(
        tier_r,
        topo_r,
        seed,
        parallel_threads,
        routed_backend,
        true,
        ObsConfig::disabled(),
    );
    println!("  routed pass finished in {:.2} s", start.elapsed().as_secs_f64());
    assert_eq!(
        omniscient, routed,
        "routed and omniscient mapper backends must produce bit-identical RunReports"
    );
    println!("  routed ≡ omniscient: RunReports are bit-identical ✓");

    // ── The dense baseline at the same scale (extrapolated) ──────────────
    // A full all-pairs matrix at this scale does not fit in memory; time a
    // few rows composed from one store and extrapolate instead.
    let sample_rows = 8.min(n);
    println!("\ndense baseline at {n} nodes (extrapolated from {sample_rows} sampled rows):");
    let start = Instant::now();
    let store = LazyLatency::new(topo.graph.clone());
    let t_build = start.elapsed().as_secs_f64();
    let sources: Vec<NodeId> = (0..sample_rows as u32).map(NodeId).collect();
    let start = Instant::now();
    let view = store.view(&sources, 0);
    let mut acc = 0.0f64;
    for i in 0..sample_rows {
        acc += topo.graph.nodes().map(|v| view.latency(i, v)).fold(0.0, f64::max);
    }
    let t_row = start.elapsed().as_secs_f64() / sample_rows as f64;
    let dense_mib = (2 * n * n * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "  all-pairs matrix ≈ {:.1} s to fill (store {:.2} s + {:.2} ms a row); it and its \
         jitter-band copy: {:.0} MiB resident forever",
        t_build + t_row * n as f64,
        t_build,
        1e3 * t_row,
        dense_mib
    );
    let _ = acc;

    println!(
        "\nthe latency store holds about 32 B a node plus a backbone matrix; jitter costs the \
         labels it changes in the stub domains it touches (see `sbon_netsim::lazy`). \
         membership maintenance is ring-size-insensitive: the benchmark's \
         `dht.ring_update_us` probe times B-tree join/leave from 2k to 100k members."
    );
}
