//! Planet scale: a 100,000-node overlay brought up as a **deployment wave**
//! with churn, jitter, and re-optimization — the regime the paper claims
//! cost spaces for ("hundreds or thousands of physical node choices",
//! §2.2), pushed two orders of magnitude past the paper's 600-node world.
//!
//! Four scaling mechanisms compose to make the run tractable:
//!
//! * **Lazy latency backend with row repair** — ground-truth shortest-path
//!   rows are computed on demand, and when jitter rescales underlay edges
//!   a resident row is *repaired in place when next read* (dynamic SSSP
//!   over the affected region) instead of dropped and recomputed; a steady
//!   tick touches only the vertices whose distances actually changed in
//!   rows somebody still reads, never the `O(n²)` matrix.
//! * **Landmark Vivaldi with join-time placement** — the embedding warm-up
//!   samples against `k` frozen landmarks instead of gossiping all-pairs,
//!   so only `k` Dijkstra rows are ever demanded during bring-up; every
//!   wave arrival embeds itself against those landmarks at join time, so
//!   no coordinate is computed before its node exists.
//! * **Deployment wave + B-tree ring** — membership starts from an initial
//!   subset and grows on a per-tick join budget; every arrival, coordinate
//!   re-registration, and failure is one `O(log n)` B-tree ring update in
//!   the runtime's Hilbert-DHT catalog.
//! * **Parallel tick loop** — per-source row computation and re-opt
//!   evaluation shard across a deterministic threadpool
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
use sbon::netsim::dijkstra::single_source;
use sbon::netsim::graph::NodeId;
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
            // path crossing it; resident rows are repaired, not dropped.
            .latency_jitter(JitterModel { edges_per_tick: self.jitter_edges, ..Default::default() })
            .latency_backend(LatencyBackend::Lazy)
            // Landmark embedding: bring-up demands `landmarks` Dijkstra
            // rows, not n; wave joiners place themselves against the
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
    let n = topo.num_nodes();
    let start = Instant::now();
    let mut rt = OverlayRuntime::new(topo, seed, tier.config(threads, backend, obs));
    if chatty {
        let warmup = rt.lazy_latency_stats().expect("lazy backend");
        println!(
            "  built in {:.2} s — {} Dijkstra rows computed for the embedding (full gossip would \
             need {}), {} resident; {} of {} nodes registered",
            start.elapsed().as_secs_f64(),
            warmup.rows_computed,
            n,
            warmup.rows_cached,
            rt.arrived_count(),
            n
        );
    }

    // Pin queries on hosts that are present from tick 0.
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    let mut rng = derive_rng(seed, 0x9a7e);
    let start = Instant::now();
    let rows_before = rt.lazy_latency_stats().expect("lazy backend").rows_computed;
    let mut link_sources = 0;
    for q in 0..tier.queries {
        let mut picked = hosts.clone();
        picked.shuffle(&mut rng);
        let query = QuerySpec::join_star(&picked[..4], picked[4], 10.0, 0.02);
        let handle = rt.deploy(query).unwrap_or_else(|| panic!("query {q} deploys"));
        // Every service but the consumer is the upstream end of one link.
        link_sources += rt.placement(handle).expect("just deployed").as_slice().len() - 1;
    }
    // Work-counter gate (exact in the seed, so it cannot flake): candidates
    // are ranked in the cost space, so a deploy may fault in rows for the
    // deployed circuit's link sources only — never for a rejected candidate.
    // The routed backend settles each deploy's lookups as messages priced
    // by row-free point-to-point reads; its one extra row is the origin
    // member's, which sends every lookup request.
    let deploy_rows = rt.lazy_latency_stats().expect("lazy backend").rows_computed - rows_before;
    let bound = link_sources + usize::from(rt.routed_stats().is_some());
    assert!(
        deploy_rows as usize <= bound,
        "the deploy phase computed {deploy_rows} rows for {link_sources} link sources \
         (bound {bound})"
    );
    if chatty {
        println!(
            "  deployed {} join circuits in {:.2} s — {deploy_rows} Dijkstra rows computed \
             (bound: {bound})",
            tier.queries,
            start.elapsed().as_secs_f64()
        );
    }

    let start = Instant::now();
    let report = rt.run();
    let t_run = start.elapsed().as_secs_f64();
    let ticks = report.samples.len();
    if !chatty {
        return report;
    }
    let stats = rt.lazy_latency_stats().expect("lazy backend");

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
        "  latency rows: {} computed total, {} resident ({:.2} MiB)",
        stats.rows_computed,
        stats.rows_cached,
        (stats.rows_cached * n * 8) as f64 / (1024.0 * 1024.0),
    );
    println!(
        "  jitter absorption: {} row repairs settled {} vertices ({:.0} per repair; a \
         recompute would settle {} each), {} repairs escalated to full rebuilds",
        stats.rows_repaired,
        stats.vertices_settled,
        stats.vertices_settled as f64 / stats.rows_repaired.max(1) as f64,
        n,
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
        "\nbuilding runtime (landmark Vivaldi: {} of {n} rows; wave: {} initial nodes, \
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
    // The parallel-tick contract: sharding per-source row computation and
    // re-opt evaluation across a threadpool changes wall time only.
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
    // A full all-pairs precompute at this scale runs for hours; time a few
    // sampled rows and extrapolate instead of stalling the example.
    let sample_rows = 8.min(n);
    println!("\ndense baseline at {n} nodes (extrapolated from {sample_rows} sampled rows):");
    let start = Instant::now();
    let mut acc = 0.0f64;
    for src in 0..sample_rows {
        acc += single_source(&topo.graph, NodeId(src as u32))[n - 1];
    }
    let t_row = start.elapsed().as_secs_f64() / sample_rows as f64;
    let t_allpairs = t_row * n as f64;
    let dense_mib = (2 * n * n * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "  all-pairs precompute ≈ {:.1} s; matrix + jitter-band copy: {:.0} MiB resident forever",
        t_allpairs, dense_mib
    );
    println!(
        "  keeping it truthful under edge churn: {:.1} s × {} ticks ≈ {:.0} s of recompute\n  \
         (the lazy deployment-wave run above did the whole simulation while repairing rows \
         in place)",
        t_allpairs,
        report.samples.len(),
        t_allpairs * report.samples.len() as f64,
    );
    let _ = acc;

    println!(
        "\nthe lazy backend's steady state is O(touched rows × n); jitter costs O(affected \
         region) per resident row per tick (see `sbon_netsim::lazy`), and the landmark warm-up \
         bounded the bring-up peak at {} rows. membership maintenance is ring-size-insensitive: \
         the benchmark's `dht.ring_update_us` probe times B-tree join/leave from 2k to 100k \
         members.",
        tier.landmarks
    );
}
