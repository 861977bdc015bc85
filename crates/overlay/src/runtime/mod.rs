//! The simulated overlay runtime.
//!
//! The control plane is **delta-driven**: one long-lived
//! [`PhysicalMapper`](sbon_core::placement::PhysicalMapper) (the Hilbert-DHT
//! catalog by default, see [`MapperBackend`]) serves deployment, local/full
//! re-optimization, plan rewriting, and failure evacuation. Each churn tick
//! refreshes only the cost points of the nodes the churn actually touched
//! ([`ChurnProcess::tick_dirty`](sbon_netsim::load::ChurnProcess::tick_dirty)
//! → [`CostSpace::update_scalars`]) and forwards each real change to the
//! mapper (`update_node`), so per-tick control-plane work tracks the
//! churned-node count instead of the overlay size: `O(dims)` per refreshed
//! point plus one catalog re-registration per changed point (truly
//! `O(log n)` on the B-tree-backed ring). At scale, pair a fixed-budget
//! churn process (`ChurnProcess::SparseWalk`) with the default DHT backend;
//! a full-universe walk re-registers every node every tick by definition.
//! Node failures unregister from the mapper (`remove_node`): liveness
//! filtering lives in the catalog, not in per-call-site wrapper mappers.
//! Membership itself can also grow over ticks ([`DeploymentModel::Wave`]):
//! pending nodes arrive on a per-tick budget and register through the same
//! maintenance contract (`add_node`), so bring-up is incremental rather
//! than one bulk build. A tick's arrivals get their vector coordinates as
//! one batch: one landmark view holds the landmarks' latencies, each pool
//! thread places one contiguous chunk of the arrivals reading their `k`
//! latencies from the view in place, and the results are committed
//! serially in join order.
//!
//! Re-optimization is **dirty-driven**: a runtime-maintained relevance
//! index ([`sbon_core::reopt::relevance`]) remembers the exact read set of
//! every no-op circuit evaluation and invalidates it from the control-plane
//! deltas above (each mapper maintenance call returns the
//! [`MapperDelta`](sbon_core::placement::MapperDelta) it caused; a step
//! collects them with its changed hosts into one `Touches` batch that
//! `RelevanceIndex::touch` applies in one pass), so each adaptation pass
//! evaluates only the circuits a delta could actually have affected —
//! bit-identically to evaluating everything. All three pass kinds run
//! through one driver: evaluations are read-only (per-circuit
//! [`MapperReadView`](sbon_core::placement::MapperReadView)s) and shard
//! across the worker pool; mutations commit serially in circuit order, so
//! thread count never changes results.
//!
//! # Module map — one file per state owner
//!
//! * `mod.rs` — [`OverlayRuntime`], `new` (a composition of the owners
//!   below), the session API, `handle_event`, `Drop`.
//! * `config` — the backend / bring-up enums, [`RuntimeConfig`], its builder.
//! * `stats` — the stats structs and `RuntimeObs` (the stats, the tracer).
//! * `latency` — `LatencyState`: the one latency store, the jitter draw
//!   and the epoch it bumps (the graph and the step are `LazyLatency`'s).
//! * `mapper` — `MapperState`: read view, charge-back, routed settle.
//! * `membership` — wave bring-up, join admission (gather, place across
//!   the pool, commit in join order), churn refresh.
//! * `lifecycle` — the circuit table's entries, deploy / undeploy, tenancy,
//!   usage accounting.
//! * `failure` — `fail_node`: teardown cascade and evacuation.
//! * `reopt` — the one pass driver: dirty filter, evaluate, commit.

mod config;
mod failure;
mod latency;
mod lifecycle;
mod mapper;
mod membership;
mod reopt;
#[cfg(test)]
mod reopt_equivalence;
mod stats;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, VecDeque};

use sbon_coords::vivaldi::LandmarkPlacer;
use sbon_core::costspace::{CostSpace, CostSpaceBuilder};
use sbon_core::multiquery::{MultiQueryOptimizer, ReuseScope};
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig};
use sbon_core::reopt::relevance::{RelevanceIndex, ReoptKind};
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::{LoadModel, NodeAttrs};
use sbon_netsim::rng::derive_rng;
use sbon_netsim::sim::{EventQueue, SimTime};
use sbon_netsim::topology::Topology;
use sbon_obs::WallTimer;

use crate::report::{RunReport, Sample};

pub use config::{
    DeploymentModel, JitterModel, LatencyBackend, MapperBackend, RuntimeConfig,
    RuntimeConfigBuilder,
};
pub use lifecycle::CircuitHandle;
pub use stats::{ControlPlaneStats, QueryLifecycleStats};

use latency::LatencyState;
use lifecycle::{Deployed, RetainedShared};
use mapper::MapperState;
use stats::RuntimeObs;

/// Initial load model: the one value any caller ever configured.
const INITIAL_LOAD: LoadModel = LoadModel::Random { lo: 0.0, hi: 0.6 };
/// Scalar scale of the latency+load cost space — how many latency-units a
/// fully loaded node is penalized.
const LOAD_SCALE: f64 = 100.0;

/// In-flight state of a simulation run, for tick-at-a-time driving.
///
/// [`OverlayRuntime::run`] is a thin wrapper over the session API; external
/// drivers (the `sbon_workload` scenario engine) interleave
/// [`OverlayRuntime::advance_ticks`] with mid-run
/// [`OverlayRuntime::deploy`] / [`OverlayRuntime::undeploy`] calls.
pub struct RunSession {
    queue: EventQueue<Event>,
    report: RunReport,
    cumulative: f64,
    horizon: SimTime,
}

impl RunSession {
    /// Simulated time of the last processed event, in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.queue.now().millis()
    }

    /// Ticks sampled so far.
    pub fn ticks_done(&self) -> usize {
        self.report.samples.len()
    }
}

/// Events driving the simulation.
enum Event {
    Tick,
    Reopt(ReoptKind),
    Fail(NodeId),
}

/// The simulated SBON.
pub struct OverlayRuntime {
    config: RuntimeConfig,
    latency: LatencyState,
    attrs: NodeAttrs,
    space: CostSpace,
    /// Frozen landmark set for join-time Vivaldi placement; `Some` iff
    /// landmark mode is active with `k < n` and a join is pending at
    /// bring-up.
    placer: Option<LandmarkPlacer>,
    /// Worker pool for the parallel per-tick stages; `None` runs serial.
    pool: Option<rayon::ThreadPool>,
    /// The one table of live circuits. Ascending handle order is deploy
    /// order, which usage sums and re-opt commits all follow;
    /// boxed, so removing one circuit moves no other.
    circuits: BTreeMap<CircuitHandle, Box<Deployed>>,
    rng: rand::rngs::StdRng,
    optimizer: IntegratedOptimizer,
    /// Reuse-aware tenancy registry, whose attach step deploys run their
    /// candidates through; `Some` iff `config.reuse` ≠ `None`.
    multiquery: Option<MultiQueryOptimizer>,
    /// Departed circuits' subtrees still running for their subscribers.
    retained: Vec<RetainedShared>,
    /// The single long-lived physical mapper, kept in sync with `space`.
    mapper: MapperState,
    /// Dirty tracking for re-optimization: which circuits each adaptation
    /// pass may skip, and which control-plane deltas invalidate them.
    relevance: RelevanceIndex,
    /// Observability: the control-plane and lifecycle stats, plus the
    /// optional tracer.
    obs: RuntimeObs,
    /// `alive[node]` — failed nodes host nothing and map to nothing.
    alive: Vec<bool>,
    /// `arrived[node]` — nodes still waiting in the deployment wave host
    /// nothing and map to nothing (all `true` under
    /// [`DeploymentModel::Full`]).
    arrived: Vec<bool>,
    /// Wave arrivals not yet admitted, in arrival order.
    pending_joins: VecDeque<NodeId>,
    /// Failures to inject during `run`, as `(time_ms, node)`.
    pending_failures: Vec<(f64, NodeId)>,
    /// Circuits killed because a *pinned* service (producer/consumer) died.
    failed_circuits: Vec<CircuitHandle>,
    /// Monotonic handle counter — the only circuit-id counter: the reuse
    /// registry is keyed by the handles it issues.
    next_handle: usize,
    /// The reference the per-pass candidate lists are pinned against: each
    /// evaluated circuit generates its own list, as before the lists were
    /// shared.
    #[cfg(test)]
    lists_per_circuit: bool,
    /// The reference the per-circuit re-opt memos are pinned against: every
    /// evaluation recomputes every bound and placement.
    #[cfg(test)]
    memo_off: bool,
}

impl OverlayRuntime {
    /// Builds the runtime: ground-truth latency from the topology (one
    /// store, whatever [`RuntimeConfigBuilder::latency_backend`] says), a
    /// Vivaldi embedding over it, an initial load assignment, and the
    /// Figure-2-style latency+load² cost space. Deterministic in `seed`.
    pub fn new(topology: &Topology, seed: u64, config: RuntimeConfig) -> Self {
        let n = topology.num_nodes();
        let threads = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        };
        let pool = (threads > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("runtime worker pool")
        });
        let latency = LatencyState::build(topology.graph.clone());
        let (arrived, pending_joins) = membership::arrival_order(config.deployment, n, seed);
        let (embedding, placer) =
            membership::embed(&config.vivaldi, seed, &latency, pool.as_ref(), &arrived);
        let mut rng = derive_rng(seed, 0x0ead);
        let attrs = INITIAL_LOAD.generate(n, &mut rng);
        let space = CostSpaceBuilder::latency_load_space_scaled(&embedding, &attrs, LOAD_SCALE);
        let members = (0..n as u32).map(NodeId).filter(|node| arrived[node.index()]).collect();
        let mapper = MapperState::build(config.mapper_backend, &space, members);
        // The one optimizer (and, through it, the one virtual placer) every
        // control-plane path of this runtime uses, reuse deploys included.
        let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
        let multiquery = (config.reuse != ReuseScope::None).then(MultiQueryOptimizer::default);
        OverlayRuntime {
            optimizer,
            obs: RuntimeObs::new(&config.obs),
            config,
            latency,
            attrs,
            space,
            placer,
            pool,
            circuits: BTreeMap::new(),
            rng,
            multiquery,
            retained: Vec::new(),
            mapper,
            relevance: RelevanceIndex::new(),
            alive: vec![true; n],
            arrived,
            pending_joins,
            pending_failures: Vec::new(),
            failed_circuits: Vec::new(),
            next_handle: 0,
            #[cfg(test)]
            lists_per_circuit: false,
            #[cfg(test)]
            memo_off: false,
        }
    }

    /// Schedules a node failure at `at_ms` into the run. Services hosted on
    /// the dead node are immediately re-placed on live nodes; circuits whose
    /// *pinned* services (producers, consumer) die are torn down and
    /// reported in [`OverlayRuntime::failed_circuits`].
    pub fn schedule_failure(&mut self, at_ms: f64, node: NodeId) {
        self.pending_failures.push((at_ms, node));
    }

    /// Runs the simulation to the horizon, returning the usage time series.
    ///
    /// A thin wrapper over the session API ([`OverlayRuntime::start_run`] /
    /// [`OverlayRuntime::advance_ticks`] / [`OverlayRuntime::finish_run`]),
    /// which external drivers use to interleave query arrivals and
    /// departures with the simulation clock.
    pub fn run(&mut self) -> RunReport {
        let mut session = self.start_run();
        self.advance_ticks(&mut session, usize::MAX);
        self.finish_run(session)
    }

    /// Starts a run: schedules the tick train, the configured adaptation
    /// cadences, and any pending failures. Drive the returned session with
    /// [`OverlayRuntime::advance_ticks`]; deploy/undeploy freely between
    /// calls.
    pub fn start_run(&mut self) -> RunSession {
        let mut queue: EventQueue<Event> = EventQueue::new();
        queue.schedule(SimTime(self.config.tick_ms), Event::Tick);
        if let Some(interval) = self.config.reopt_interval_ms {
            queue.schedule(SimTime(interval), Event::Reopt(ReoptKind::Local));
        }
        if let Some(interval) = self.config.full_reopt_interval_ms {
            queue.schedule(SimTime(interval), Event::Reopt(ReoptKind::Full));
        }
        if let Some(interval) = self.config.rewrite_interval_ms {
            queue.schedule(SimTime(interval), Event::Reopt(ReoptKind::Rewrite));
        }
        for (at_ms, node) in std::mem::take(&mut self.pending_failures) {
            queue.schedule(SimTime(at_ms), Event::Fail(node));
        }
        RunSession {
            queue,
            report: RunReport::default(),
            cumulative: 0.0,
            horizon: SimTime(self.config.horizon_ms),
        }
    }

    /// Processes events until `ticks` churn ticks have completed (or the
    /// horizon is reached). Returns `true` while the run has more events —
    /// i.e. `false` means the horizon was exhausted and the session is
    /// ready for [`OverlayRuntime::finish_run`].
    pub fn advance_ticks(&mut self, session: &mut RunSession, ticks: usize) -> bool {
        let mut done = 0usize;
        while done < ticks {
            let Some((now, event)) = session.queue.pop_until(session.horizon) else {
                return false;
            };
            let was_tick = matches!(event, Event::Tick);
            self.handle_event(session, now, event);
            if was_tick {
                done += 1;
            }
        }
        true
    }

    /// Ends a run, folding the lifetime query-lifecycle counters into the
    /// report.
    pub fn finish_run(&mut self, session: RunSession) -> RunReport {
        let mut report = session.report;
        let lifecycle = &self.obs.lifecycle;
        report.arrivals = lifecycle.arrivals;
        report.departures = lifecycle.departures;
        report.reuse_hits = lifecycle.reuse_hits;
        report
    }

    /// Processes one simulation event.
    fn handle_event(&mut self, s: &mut RunSession, now: SimTime, event: Event) {
        // Spans are stamped with *virtual* time: the event's simulation
        // clock, never the wall clock.
        self.obs.now_ms = now.millis();
        match event {
            Event::Tick => {
                let sp = self.obs.span_start("tick", Vec::new);
                // Environment dynamics, in RNG-draw order: wave arrivals,
                // load churn and the control plane's reaction, then jitter.
                self.admit_joins();
                self.refresh_churn();
                if let Some(jitter) = self.config.latency_jitter {
                    self.latency.jitter(&jitter, &mut self.rng, &mut self.obs);
                }
                // Routed backend: replay the tick's parked registrations
                // (and any deploy-time lookups since the last boundary) as
                // message traffic over the *current* (possibly jittered)
                // latencies. (A failure's settle bills to `evac_ns`.)
                let t_settle = WallTimer::start();
                self.mapper.settle(now, &self.latency, &mut self.obs);
                self.obs.cp.settle_ns += u128::from(t_settle.elapsed_ns());
                // Accrue usage over the elapsed tick (usage·seconds). Only
                // entries whose stored usage a writer cleared or a jitter
                // batch outdated are re-read, billed to `usage_ns`.
                let t_usage = WallTimer::start();
                let (usage, reread) = self.bill_usage();
                self.obs.cp.usage_ns += u128::from(t_usage.elapsed_ns());
                let active = self.circuits.len();
                self.obs.span_end(sp, || {
                    vec![
                        ("usage", usage.into()),
                        ("active", active.into()),
                        ("reread", reread.into()),
                    ]
                });
                s.cumulative += usage * self.config.tick_ms / 1_000.0;
                s.report.samples.push(Sample {
                    time_ms: now.millis(),
                    network_usage: usage,
                    cumulative_usage: s.cumulative,
                    migrations: s.report.migrations,
                    replacements: s.report.replacements,
                    active_queries: self.circuits.len(),
                });
                if now.after(self.config.tick_ms) <= s.horizon {
                    s.queue.schedule(now.after(self.config.tick_ms), Event::Tick);
                }
            }
            Event::Reopt(kind) => self.reopt_pass(s, now, kind),
            Event::Fail(node) => {
                let t0 = WallTimer::start();
                let sp =
                    self.obs.span_start("fail", || vec![("node", (node.index() as u64).into())]);
                let evacuated = self.fail_node(node);
                // Evacuation lookups ran through the live mapper: replay
                // them as routed traffic at the failure time.
                self.mapper.settle(now, &self.latency, &mut self.obs);
                self.obs.cp.evac_ns += u128::from(t0.elapsed_ns());
                self.obs.span_end(sp, || vec![("evacuated", evacuated.into())]);
                // Evacuations are migrations: charge the same penalty.
                s.report.migrations += evacuated;
                s.report.adaptation_cost += evacuated as f64 * self.config.migration_penalty;
            }
        }
    }
}

impl Drop for OverlayRuntime {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Post-mortem: dump the tracer's ring — the trace's last lines —
            // to stderr so the last control-plane decisions survive the
            // crash. The trace is deliberately NOT finished here — flushing
            // the file can itself panic, and a panic-during-panic aborts the
            // process.
            if let Some(tracer) = &self.obs.tracer {
                if tracer.tail().next().is_some() {
                    eprintln!("{}", tracer.dump());
                }
            }
        } else if let Some(tracer) = self.obs.tracer.take() {
            // Clean shutdown without an explicit `finish_trace()` call:
            // flush buffered trace events so JSONL files are complete.
            tracer.finish();
        }
    }
}
