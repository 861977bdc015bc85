//! The four workloads and the pass that drives one of them.
//!
//! A *pass* is one complete run of a workload in this process: generate the
//! underlay, build the runtime, deploy the standing circuits (all of that is
//! set-up), drive the closed loop (the next call is issued when the previous
//! returns) to the horizon, drain, and check the post-conditions. Everything
//! the program sees is generated here from the seed; everything measured is
//! measured here, from outside, around public calls.
//!
//! Why these four (the sizing numbers are in `README.md`):
//!
//! * `paper-600` — the paper's scale and the *evaluate-everything* re-opt
//!   regime: dense latency, all nodes churn, every circuit is re-evaluated
//!   every pass, the catalog is write-heavy.
//! * `storm-2k` — the query lifecycle and the *dirty-driven* regime: tens of
//!   thousands of deploys/undeploys with reuse, catalog reads dominate,
//!   about half of re-opt candidates are skipped.
//! * `routed-5k` — the message-passing control plane under jitter: latency
//!   rows are faulted in for almost every member and then repaired in place
//!   every tick; the only workload with experienced optimization latency.
//! * `planet-100k` — the scale tier: row *compute* dominates set-up and
//!   deploy, ticks are landmark placement + ring writes + repair of wide
//!   rows; the only multi-threaded workload.
//!
//! Together they use `netsim` three ways (dense all-pairs / on-demand rows /
//! in-place repair), `dht` three ways (re-registrations / lookups / routed
//! messages) and `core::reopt` two ways (nothing vs about half skipped), so a
//! gain for one use that costs another shows.

use rand::seq::SliceRandom;
use rand::Rng;

use sbon::core::multiquery::ReuseScope;
use sbon::core::reopt::ReoptPolicy;
use sbon::dht::ProtoConfig;
use sbon::netsim::rng::derive_rng;
use sbon::overlay::{
    CircuitHandle, DeploymentModel, JitterModel, LatencyBackend, MapperBackend, OverlayRuntime,
    RunReport, RuntimeConfig,
};
use sbon::prelude::*;
use sbon::query::stream::StreamCatalog;
use sbon::workload::QueryGenerator;

use crate::json::Json;
use crate::obj;
use crate::probes;
use crate::spans::{Recorder, SpanId, ROOT};

/// Simulated milliseconds per tick, on every workload.
const TICK_MS: f64 = 1_000.0;

/// RNG stream ids for the driver's own draws (the runtime derives its own
/// streams from the same seed; these must not collide with each other).
const STREAM_HOSTS: u64 = 0xbe9c_0001;
const STREAM_QUERIES: u64 = 0xbe9c_0002;
const STREAM_ARRIVALS: u64 = 0xbe9c_0003;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper600,
    Storm2k,
    Routed5k,
    Planet100k,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Paper600, Workload::Storm2k, Workload::Routed5k, Workload::Planet100k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper600 => "paper-600",
            Workload::Storm2k => "storm-2k",
            Workload::Routed5k => "routed-5k",
            Workload::Planet100k => "planet-100k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper600 => {
                "paper scale, dense latency, all-node churn: optimizer + evaluate-everything \
                 re-opt dominate, catalog is write-heavy, netsim idle after set-up"
            }
            Workload::Storm2k => {
                "flash crowd of deploys/undeploys with reuse: query lifecycle and catalog reads \
                 dominate, re-opt is dirty-driven (about half skipped)"
            }
            Workload::Routed5k => {
                "routed control plane under jitter: rows faulted in for most members then \
                 repaired every tick; only workload with experienced optimization latency"
            }
            Workload::Planet100k => {
                "100k-node deployment wave: row compute dominates set-up and deploy, ticks are \
                 landmark placement + ring writes + wide-row repair; only multi-threaded workload"
            }
        }
    }

    /// Worker threads the runtime is given. Only the scale tier is parallel,
    /// so a parallelism change has exactly one place to show.
    pub fn threads(self) -> usize {
        match self {
            Workload::Planet100k => {
                std::thread::available_parallelism().map_or(1, |p| p.get()).min(4)
            }
            _ => 1,
        }
    }

    /// Fewest untraced passes an end-to-end measurement rests on. The scale
    /// tier gets one more: its 100k-wide Dijkstra rows miss the caches, so a
    /// busy neighbour on the shared host slows it most (two measurements of
    /// one seed up to 39 % apart in `setup_s`, 7 % in `wall_s`, where no other
    /// workload's times moved more than 12 %), and a pass is too long for
    /// `--seconds` to buy a fourth.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Planet100k => 4,
            _ => 3,
        }
    }
}

/// How queries reach a workload.
enum Traffic {
    /// `circuits` 4-way `join_star` queries deployed before the first tick
    /// and kept to the horizon.
    Static {
        circuits: usize,
        /// Draw producers / consumers from fixed pools of this many hosts
        /// (`None`: from all arrived hosts, as the `planet_scale` example).
        pools: Option<(usize, usize)>,
    },
    /// Arrivals and departures every tick (`Scenario::run_on`'s loop,
    /// re-implemented from its public pieces so each call can be timed).
    Storm { feeds: usize, base_per_sec: f64, peak_per_sec: f64, mean_session_ms: f64 },
}

/// Everything that sizes one workload. `quick` variants run the same code
/// paths in under two seconds.
struct Spec {
    topo: TransitStubConfig,
    ticks: usize,
    traffic: Traffic,
    /// Fail one uninvolved host every this many ticks.
    fail_every: Option<usize>,
    /// Deployment wave `(initial, joins_per_tick)`, sized so every node has
    /// joined before the horizon.
    wave: Option<(usize, usize)>,
    /// Underlay edges whose latency is rescaled every tick.
    jitter_edges: usize,
}

impl Spec {
    fn of(workload: Workload, quick: bool) -> Spec {
        let backbone_8x8 = |stub_nodes_per_domain| TransitStubConfig {
            transit_domains: 8,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit_node: 8,
            stub_nodes_per_domain,
            ..Default::default()
        };
        match workload {
            Workload::Paper600 => Spec {
                topo: TransitStubConfig::with_total_nodes(640),
                ticks: if quick { 40 } else { 240 },
                traffic: Traffic::Static {
                    circuits: if quick { 100 } else { 400 },
                    pools: Some((64, 32)),
                },
                fail_every: Some(20),
                wave: None,
                jitter_edges: 0,
            },
            Workload::Storm2k => Spec {
                topo: TransitStubConfig::with_total_nodes(2_048),
                ticks: if quick { 60 } else { 720 },
                traffic: Traffic::Storm {
                    feeds: 64,
                    base_per_sec: 40.0,
                    peak_per_sec: 120.0,
                    mean_session_ms: 15_000.0,
                },
                fail_every: None,
                wave: None,
                jitter_edges: 0,
            },
            Workload::Routed5k => Spec {
                topo: backbone_8x8(if quick { 2 } else { 9 }),
                ticks: if quick { 12 } else { 30 },
                traffic: Traffic::Static { circuits: 8, pools: None },
                fail_every: None,
                wave: Some(if quick { (200, 100) } else { (1_000, 150) }),
                jitter_edges: if quick { 25 } else { 100 },
            },
            Workload::Planet100k => Spec {
                topo: backbone_8x8(if quick { 4 } else { 195 }),
                ticks: if quick { 12 } else { 30 },
                traffic: Traffic::Static { circuits: 8, pools: None },
                fail_every: None,
                wave: Some(if quick { (300, 200) } else { (2_000, 3_300) }),
                jitter_edges: if quick { 40 } else { 100 },
            },
        }
    }

    /// The runtime configuration; `twin` swaps `routed-5k`'s routed mapper
    /// for the omniscient one.
    fn runtime(&self, workload: Workload, twin: bool) -> RuntimeConfig {
        let horizon_ms = self.ticks as f64 * TICK_MS;
        let b = RuntimeConfig::builder()
            .tick_ms(TICK_MS)
            .horizon_ms(horizon_ms)
            .threads(workload.threads());
        match workload {
            Workload::Paper600 => b
                .churn(ChurnProcess::RandomWalk { std_dev: 0.10 })
                .reopt_interval_ms(5_000.0)
                .rewrite_interval_ms(10_000.0)
                .full_reopt_interval_ms(15_000.0)
                .migration_penalty(25.0)
                .build(),
            Workload::Storm2k => b
                .churn(ChurnProcess::SparseWalk { nodes_per_tick: 16, std_dev: 0.1 })
                .latency_backend(LatencyBackend::Lazy)
                .vivaldi(VivaldiConfig { landmarks: Some(32), ..Default::default() })
                .reuse(ReuseScope::Radius(60.0))
                .build(),
            Workload::Routed5k | Workload::Planet100k => {
                let (initial, joins_per_tick) = self.wave.expect("wave workloads size a wave");
                let mapper = if workload == Workload::Routed5k && !twin {
                    MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() }
                } else {
                    MapperBackend::default()
                };
                b.mapper_backend(mapper)
                    .reopt_interval_ms(5_000.0)
                    .full_reopt_interval_ms(15_000.0)
                    .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
                    .churn(ChurnProcess::SparseWalk { nodes_per_tick: 64, std_dev: 0.1 })
                    .latency_jitter(JitterModel {
                        edges_per_tick: self.jitter_edges,
                        ..Default::default()
                    })
                    .latency_backend(LatencyBackend::Lazy)
                    .vivaldi(VivaldiConfig { landmarks: Some(64), ..Default::default() })
                    .deployment(DeploymentModel::Wave { initial, joins_per_tick })
                    .build()
            }
        }
    }
}

/// Which pass to run.
#[derive(Clone, Copy, Debug)]
pub struct PassOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Keep span records, run the unit-cost probes, write the trace file.
    pub traced: bool,
    pub quick: bool,
    /// `routed-5k` only: run the same inputs on the omniscient
    /// `MapperBackend::Dht`, whose `RunReport` the routed run must equal.
    pub twin: bool,
}

/// What one pass measured. Host values are wall-clock or memory of this
/// process; virtual values are exact functions of the seed.
#[derive(Clone, Debug)]
pub struct PassResult {
    pub workload: Workload,
    pub threads: usize,
    pub nodes: usize,
    pub ticks: usize,
    /// Host seconds until the first tick can run: `transit_stub::generate`,
    /// `OverlayRuntime::new` and the deploys of the standing circuits.
    pub setup_s: f64,
    /// Host seconds for everything after set-up.
    pub wall_s: f64,
    /// Host seconds inside `advance_ticks`.
    pub tick_s: f64,
    /// Host MiB: `VmHWM` when the run (not the probes) ended.
    pub peak_rss_mib: f64,
    /// Virtual: `RunReport::total_cost()` over Σ (deploy-time standalone usage
    /// × seconds the query stayed deployed).
    pub usage_ratio: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// One line per failed operation or post-condition (capped).
    pub failures: Vec<String>,
    /// Hash over every `RunReport` sample's bits and counters.
    pub digest: String,
    /// Exact work counters (functions of the seed), by per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Host-time per-layer metrics; probe results only on a traced pass.
    pub timers: Vec<(&'static str, f64)>,
}

/// Collects failed operations without letting a broken run flood the output.
struct Checks {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.lines.len() < 16 {
                self.lines.push(what());
            }
        }
    }
}

/// A deployed query the driver still has to undeploy.
struct Live {
    depart_at_ms: f64,
    handle: CircuitHandle,
    /// Standalone network usage at deploy time (`lifecycle_stats` delta).
    standalone: f64,
    deployed_at_tick: usize,
}

/// Driver-side state shared by the deploy / undeploy helpers.
struct Drive {
    rec: Recorder,
    span: SpanId,
    checks: Checks,
    deploy_ms: Vec<f64>,
    live: Vec<Live>,
    /// Σ standalone usage seen so far (to difference `lifecycle_stats`).
    standalone_seen: f64,
    /// Σ standalone × live seconds over undeployed queries.
    standalone_usage_s: f64,
    ticks_done: usize,
}

impl Drive {
    fn deploy(&mut self, rt: &mut OverlayRuntime, query: QuerySpec, depart_at_ms: f64) {
        let (handle, ns) = self.rec.time("deploy", self.span, || rt.deploy(query));
        self.deploy_ms.push(ns as f64 / 1e6);
        let seen = rt.lifecycle_stats().standalone_usage;
        let standalone = seen - self.standalone_seen;
        self.standalone_seen = seen;
        self.checks.check(handle.is_some(), || "deploy returned None".into());
        if let Some(handle) = handle {
            self.live.push(Live {
                depart_at_ms,
                handle,
                standalone,
                deployed_at_tick: self.ticks_done,
            });
        }
    }

    fn undeploy(&mut self, rt: &mut OverlayRuntime, q: Live, span: SpanId) {
        let (ok, _) = self.rec.time("undeploy", span, || rt.undeploy(q.handle));
        self.checks.check(ok, || format!("undeploy({}) returned false", q.handle.0));
        let live_s = (self.ticks_done - q.deployed_at_tick) as f64 * TICK_MS / 1_000.0;
        self.standalone_usage_s += q.standalone * live_s;
    }
}

/// Runs one pass. Panics only on a broken internal condition of the driver
/// itself; anything the program gets wrong is counted in `ops_failed`.
pub fn run_pass(opts: PassOpts) -> PassResult {
    let PassOpts { workload, seed, traced, quick, twin } = opts;
    let spec = Spec::of(workload, quick);
    let mut rec = Recorder::new(traced);
    let pass = rec.open("pass", ROOT);

    // ── Set-up: underlay, runtime (embedding, cost space, catalog), and what
    // the workload puts in place before its first tick — the standing
    // circuits, or the storm's query generator. On `planet-100k` those eight
    // deploys are ~170 cache-missing 100k-wide Dijkstra rows, which a busy
    // neighbour on the shared host slows by 20–40 % for minutes at a time:
    // too unsteady for `wall_s`, whose spread is gated.
    let span = rec.open("setup", pass);
    let (topo, _) = rec.time("setup.topology", span, || transit_stub::generate(&spec.topo, seed));
    let n = topo.num_nodes();
    let config = spec.runtime(workload, twin);
    let (mut rt, _) =
        rec.time("setup.runtime_new", span, || OverlayRuntime::new(&topo, seed, config.clone()));
    let mut d = Drive {
        rec,
        span,
        checks: Checks { attempted: 0, failed: 0, lines: Vec::new() },
        deploy_ms: Vec::new(),
        live: Vec::new(),
        standalone_seen: rt.lifecycle_stats().standalone_usage,
        standalone_usage_s: 0.0,
        ticks_done: 0,
    };
    let baseline_usage = rt.instantaneous_usage();
    let horizon_ms = spec.ticks as f64 * TICK_MS;

    // Hosts present from tick 0, in a seed-shuffled order.
    let (mut hosts, _) = d.rec.time("generate", span, || {
        let mut hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        hosts.shuffle(&mut derive_rng(seed, STREAM_HOSTS));
        hosts
    });
    let mut storm = None;
    // A few of the workload's own queries, for the optimizer probe.
    let mut sample_queries: Vec<QuerySpec> = Vec::new();
    match spec.traffic {
        Traffic::Static { circuits, pools } => {
            let (queries, _) =
                d.rec.time("generate", span, || static_queries(&mut hosts, circuits, pools, seed));
            if let Some(every) = spec.fail_every {
                // `static_queries` left only uninvolved hosts in `hosts`, so
                // evacuation runs but no pinned service dies.
                for (k, &victim) in (1..=(spec.ticks - 1) / every).zip(&hosts) {
                    rt.schedule_failure((k * every) as f64 * TICK_MS + TICK_MS / 2.0, victim);
                }
            }
            sample_queries.extend(queries.iter().take(16).cloned());
            for query in queries {
                d.deploy(&mut rt, query, f64::INFINITY);
            }
        }
        Traffic::Storm { feeds, base_per_sec, peak_per_sec, mean_session_ms } => {
            let (generator, _) = d.rec.time("generate", span, || {
                let mut rng = derive_rng(seed, STREAM_QUERIES);
                let mut streams = StreamCatalog::new();
                for i in 0..feeds {
                    let host = hosts[rng.gen_range(0..hosts.len())];
                    streams.register(format!("feed{i}"), 10.0, host);
                }
                QueryGenerator::new(streams, 0.02, 1.0, hosts.clone(), &storm_templates())
            });
            // A flash crowd over the middle quarter of the horizon.
            let arrival = ArrivalProcess::FlashCrowd {
                base_per_sec,
                peak_per_sec,
                start_ms: horizon_ms * 3.0 / 8.0,
                end_ms: horizon_ms * 5.0 / 8.0,
            };
            let session = SessionDuration::Exponential { mean_ms: mean_session_ms };
            storm = Some((generator, arrival, session, derive_rng(seed, STREAM_ARRIVALS)));
        }
    }
    let setup_ns = d.rec.close(span);

    // ── Drive: arrivals, ticks to the horizon, departures, drain, finish ──
    let span = d.rec.open("drive", pass);
    d.span = span;
    let mut session = rt.start_run();
    let mut now_ms = 0.0f64;
    loop {
        if let Some((generator, arrival, duration, rng)) = &mut storm {
            // Arrivals during the upcoming tick — only if that tick will run.
            if now_ms + TICK_MS <= horizon_ms {
                let (queries, _) = d.rec.time("generate", span, || {
                    (0..arrival.sample_arrivals(now_ms, TICK_MS, rng))
                        .map(|_| {
                            let q = generator.draw(rng);
                            (q, now_ms + TICK_MS + duration.sample(rng))
                        })
                        .collect::<Vec<_>>()
                });
                for (query, depart_at_ms) in queries {
                    if sample_queries.len() < 16 {
                        sample_queries.push(query.clone());
                    }
                    d.deploy(&mut rt, query, depart_at_ms);
                }
            }
        }
        let (more, _) = d.rec.time("tick", span, || rt.advance_ticks(&mut session, 1));
        d.ticks_done = session.ticks_done();
        now_ms += TICK_MS;
        // Departures whose session expired by the tick that just ran.
        let mut idx = 0;
        while idx < d.live.len() {
            if d.live[idx].depart_at_ms <= now_ms {
                let q = d.live.swap_remove(idx);
                d.undeploy(&mut rt, q, span);
            } else {
                idx += 1;
            }
        }
        if !more {
            break;
        }
    }
    let drain = d.rec.open("drain", span);
    for q in std::mem::take(&mut d.live) {
        d.undeploy(&mut rt, q, drain);
    }
    d.rec.close(drain);
    let (report, _) = d.rec.time("finish", span, || rt.finish_run(session));
    let wall_ns = d.rec.close(span);
    let peak_rss_mib = peak_rss_mib();

    // ── Post-conditions ──────────────────────────────────────────────────
    let Drive { mut rec, mut checks, deploy_ms, standalone_usage_s, .. } = d;
    let c = &mut checks;
    c.check(report.samples.len() == spec.ticks, || {
        format!("ran {} ticks, expected {}", report.samples.len(), spec.ticks)
    });
    for lost in rt.failed_circuits() {
        c.check(false, || format!("circuit {} lost to a failure", lost.0));
    }
    c.check(rt.active_queries() == 0, || format!("{} queries still active", rt.active_queries()));
    c.check(rt.retained_shared_subtrees() == 0, || "shared subtrees retained after drain".into());
    let final_usage = rt.instantaneous_usage();
    c.check(final_usage.to_bits() == baseline_usage.to_bits(), || {
        format!("usage {final_usage} did not return to the baseline {baseline_usage}")
    });
    let lifecycle = rt.lifecycle_stats();
    c.check(lifecycle.arrivals == lifecycle.departures, || {
        format!("{} arrivals but {} departures", lifecycle.arrivals, lifecycle.departures)
    });
    if matches!(workload, Workload::Routed5k | Workload::Planet100k) {
        c.check(rt.arrived_count() == n, || {
            format!("only {} of {n} nodes arrived", rt.arrived_count())
        });
    }
    if let Some(rs) = rt.routed_stats() {
        c.check(rs.deferred == 0, || format!("{} routed registrations never landed", rs.deferred));
    }
    c.check(standalone_usage_s > 0.0 && report.total_cost() > 0.0, || {
        "no network usage was accounted".into()
    });

    // ── Counters and timers, read through the public accessors ───────────
    let ticks = report.samples.len();
    let tick_s = rec.total_ms("tick") / 1e3;
    let counters = probes::counters(&rt, &report, n);
    let mut timers = probes::timers(&rt, &rec, &deploy_ms);
    rec.close(pass);
    if traced {
        // The identity `tick_ns_sum = Σ phase_ns + unattributed_ns` goes in
        // the trace file before the probes touch the runtime again.
        let mut doc = rec.to_json(&format!("{}-{seed}", workload.name()));
        if let Json::Obj(kv) = &mut doc {
            kv.insert(1, ("attribution".to_string(), probes::attribution(&rt, &rec)));
        }
        let path = crate::out_dir().join(format!("{}.trace.json", workload.name()));
        std::fs::create_dir_all(crate::out_dir())
            .and_then(|()| std::fs::write(&path, doc.render()))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        timers.extend(probes::unit_costs(seed, &topo, &rt, &config, &counters, &sample_queries));
    }

    PassResult {
        workload,
        threads: workload.threads(),
        nodes: n,
        ticks,
        setup_s: setup_ns as f64 / 1e9,
        wall_s: wall_ns as f64 / 1e9,
        tick_s,
        peak_rss_mib,
        usage_ratio: report.total_cost() / standalone_usage_s,
        ops_attempted: checks.attempted + ticks as u64,
        ops_failed: checks.failed,
        failures: checks.lines,
        digest: format!("{:016x}", report_digest(&report)),
        counters,
        timers,
    }
}

/// The `workload_storm` example's template mix.
fn storm_templates() -> [(QueryTemplate, f64); 4] {
    [
        (QueryTemplate::PopularFeedJoin { ways: 2 }, 4.0),
        (QueryTemplate::PopularFeedJoin { ways: 3 }, 2.0),
        (QueryTemplate::FanInAggregate { ways: 3, ratio: 0.2 }, 1.0),
        (QueryTemplate::ChainFilter { filters: 2, selectivity: 0.3 }, 1.0),
    ]
}

/// `circuits` 4-way join queries (the Figure 1 shape). With `pools`, the
/// producer and consumer pools are split off the front of `hosts`, so what
/// is left in `hosts` pins nothing.
fn static_queries(
    hosts: &mut Vec<NodeId>,
    circuits: usize,
    pools: Option<(usize, usize)>,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = derive_rng(seed, STREAM_QUERIES);
    match pools {
        Some((producers, consumers)) => {
            assert!(hosts.len() > producers + consumers, "too few hosts for the pools");
            let producers: Vec<NodeId> = hosts.drain(..producers).collect();
            let consumers: Vec<NodeId> = hosts.drain(..consumers).collect();
            (0..circuits)
                .map(|_| {
                    let mut four: Vec<NodeId> = Vec::with_capacity(4);
                    while four.len() < 4 {
                        let p = producers[rng.gen_range(0..producers.len())];
                        if !four.contains(&p) {
                            four.push(p);
                        }
                    }
                    let consumer = consumers[rng.gen_range(0..consumers.len())];
                    QuerySpec::join_star(&four, consumer, 10.0, 0.02)
                })
                .collect()
        }
        None => (0..circuits)
            .map(|_| {
                hosts.shuffle(&mut rng);
                QuerySpec::join_star(&hosts[..4], hosts[4], 10.0, 0.02)
            })
            .collect(),
    }
}

/// FNV-1a over every sample's bits and every counter of the report: two
/// runs have the same digest iff the simulation was bit-identical.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in &report.samples {
        eat(s.time_ms.to_bits());
        eat(s.network_usage.to_bits());
        eat(s.cumulative_usage.to_bits());
        eat(s.migrations as u64);
        eat(s.replacements as u64);
        eat(s.active_queries as u64);
    }
    eat(report.samples.len() as u64);
    eat(report.migrations as u64);
    eat(report.replacements as u64);
    eat(report.adaptation_cost.to_bits());
    eat(report.arrivals as u64);
    eat(report.departures as u64);
    eat(report.reuse_hits as u64);
    h
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl PassResult {
    pub fn to_json(&self) -> Json {
        let pairs = |kv: &[(&'static str, f64)]| {
            Json::Obj(kv.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect())
        };
        obj! {
            "workload" => self.workload.name(),
            "threads" => self.threads,
            "nodes" => self.nodes,
            "ticks" => self.ticks,
            "setup_s" => self.setup_s,
            "wall_s" => self.wall_s,
            "tick_s" => self.tick_s,
            "peak_rss_mib" => self.peak_rss_mib,
            "usage_ratio" => self.usage_ratio,
            "ops_attempted" => self.ops_attempted,
            "ops_failed" => self.ops_failed,
            "failures" => Json::Arr(self.failures.iter().map(|f| Json::from(f.as_str())).collect()),
            "digest" => self.digest.as_str(),
            "counters" => pairs(&self.counters),
            "timers" => pairs(&self.timers),
        }
    }

    /// Reads back what [`PassResult::to_json`] wrote (the parent process
    /// parses its children's output). Metric names are matched against the
    /// static per-layer table, so an unknown name is an error.
    pub fn from_json(j: &Json) -> Result<PassResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("pass result lacks `{k}`"));
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("`{k}` is not a number"));
        let pairs = |k: &str| -> Result<Vec<(&'static str, f64)>, String> {
            field(k)?
                .as_obj()
                .ok_or_else(|| format!("`{k}` is not an object"))?
                .iter()
                .map(|(name, v)| {
                    let name = crate::metrics::layer_def(name)
                        .ok_or_else(|| format!("unknown per-layer metric `{name}`"))?
                        .name;
                    Ok((name, v.as_f64().ok_or_else(|| format!("`{name}` is not a number"))?))
                })
                .collect()
        };
        let workload = field("workload")?.as_str().and_then(Workload::from_name);
        Ok(PassResult {
            workload: workload.ok_or("unknown workload")?,
            threads: num("threads")? as usize,
            nodes: num("nodes")? as usize,
            ticks: num("ticks")? as usize,
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            tick_s: num("tick_s")?,
            peak_rss_mib: num("peak_rss_mib")?,
            usage_ratio: num("usage_ratio")?,
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            failures: field("failures")?
                .as_arr()
                .ok_or("`failures` is not an array")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            digest: field("digest")?.as_str().ok_or("`digest` is not a string")?.to_string(),
            counters: pairs("counters")?,
            timers: pairs("timers")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Source, PER_LAYER};
    use sbon::overlay::Sample;

    fn quick(workload: Workload, traced: bool, twin: bool) -> PassResult {
        run_pass(PassOpts { workload, seed: 7, traced, quick: true, twin })
    }

    #[test]
    fn digest_is_stable_and_sees_every_bit() {
        let sample = Sample {
            time_ms: 1_000.0,
            network_usage: 5.0,
            cumulative_usage: 5.0,
            migrations: 1,
            replacements: 0,
            active_queries: 2,
        };
        let report = RunReport {
            samples: vec![sample],
            migrations: 1,
            adaptation_cost: 2.5,
            arrivals: 2,
            ..Default::default()
        };
        // Pinned (FNV-1a of 56 zero bytes): a change of the hash is a change of
        // every recorded digest.
        assert_eq!(report_digest(&RunReport::default()), 0x8ac1_23d6_f7dc_e585);
        assert_eq!(report_digest(&report), report_digest(&report.clone()));
        let mut nudged = report.clone();
        nudged.samples[0].network_usage = f64::from_bits(5.0f64.to_bits() + 1);
        assert_ne!(report_digest(&report), report_digest(&nudged));
        let mut counted = report.clone();
        counted.departures += 1;
        assert_ne!(report_digest(&report), report_digest(&counted));
    }

    /// Every workload, quick mode, twice: all post-conditions hold and the
    /// two runs are the same simulation bit for bit.
    #[test]
    fn quick_passes_hold_their_postconditions_and_repeat_exactly() {
        for workload in Workload::ALL {
            let (a, b) = (quick(workload, false, false), quick(workload, false, false));
            for p in [&a, &b] {
                assert_eq!(p.ops_failed, 0, "{}: {:?}", workload.name(), p.failures);
                assert!(p.ops_attempted > p.ticks as u64);
                assert!(p.usage_ratio > 0.0 && p.wall_s > 0.0);
            }
            assert_eq!(a.digest, b.digest, "{} is not deterministic", workload.name());
            assert_eq!(a.counters, b.counters, "{} counters differ", workload.name());
            assert_eq!(a.usage_ratio.to_bits(), b.usage_ratio.to_bits());
        }
    }

    #[test]
    fn different_seeds_are_different_inputs() {
        let a = quick(Workload::Paper600, false, false);
        let b = run_pass(PassOpts {
            seed: 8,
            ..PassOpts {
                workload: Workload::Paper600,
                seed: 7,
                traced: false,
                quick: true,
                twin: false,
            }
        });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn routed_run_equals_its_omniscient_twin() {
        let routed = quick(Workload::Routed5k, false, false);
        let twin = quick(Workload::Routed5k, false, true);
        assert_eq!(routed.digest, twin.digest);
        let get = |p: &PassResult, k: &str| p.counters.iter().find(|c| c.0 == k).unwrap().1;
        assert!(get(&routed, "dht.routed_lookups") > 0.0);
        assert_eq!(get(&twin, "dht.routed_lookups"), 0.0);
    }

    /// A traced pass reports every per-layer metric the manifest lists
    /// (bar the overhead, which needs an untraced pass to compare with) and
    /// writes a span file in which the tick attribution adds up exactly.
    #[test]
    fn traced_pass_reports_every_layer_and_an_exact_attribution() {
        let p = quick(Workload::Storm2k, true, false);
        assert_eq!(p.ops_failed, 0, "{:?}", p.failures);
        for l in PER_LAYER.iter().filter(|l| l.name != "obs.trace_overhead_pct") {
            let found = p.counters.iter().chain(&p.timers).find(|m| m.0 == l.name);
            let (_, v) = found.unwrap_or_else(|| panic!("{} missing", l.name));
            assert!(v.is_finite() && *v >= 0.0, "{} = {v}", l.name);
            if l.source == Source::Probe && !l.name.starts_with("dht.routed") {
                let expect_zero = matches!(
                    l.name,
                    "netsim.repair_us_per_vertex" | "netsim.allpairs_ms" | "coords.place_us"
                );
                assert_eq!(*v == 0.0, expect_zero, "{} = {v} on storm-2k", l.name);
            }
        }
        let path = crate::out_dir().join("storm-2k.trace.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let a = doc.get("attribution").unwrap();
        let ns = |j: &Json| j.as_f64().unwrap() as u64;
        let phases: u64 =
            a.get("phase_ns").unwrap().as_obj().unwrap().iter().map(|(_, v)| ns(v)).sum();
        assert_eq!(
            ns(a.get("tick_ns_sum").unwrap()),
            phases + ns(a.get("unattributed_ns").unwrap())
        );
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        let names = doc.get("names").unwrap().as_arr().unwrap();
        for name in [
            "pass",
            "setup",
            "setup.topology",
            "setup.runtime_new",
            "drive",
            "generate",
            "deploy",
            "tick",
            "undeploy",
            "drain",
            "finish",
        ] {
            assert!(names.iter().any(|n| n.as_str() == Some(name)), "no {name} span");
        }
        // One span per call: every deploy and every tick is in the file.
        let count = |name: &str| {
            let idx = names.iter().position(|n| n.as_str() == Some(name)).unwrap() as f64;
            spans.iter().filter(|s| s.as_arr().unwrap()[2].as_f64() == Some(idx)).count()
        };
        let arrivals = p.counters.iter().find(|c| c.0 == "overlay.arrivals").unwrap().1;
        assert!(arrivals > 0.0 && count("deploy") as f64 == arrivals);
        assert_eq!(count("tick"), p.ticks + 1, "the horizon flush is a tick call too");
    }
}
