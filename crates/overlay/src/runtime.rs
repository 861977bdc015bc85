//! The simulated overlay runtime.
//!
//! The control plane is **delta-driven**: one long-lived
//! [`PhysicalMapper`] (the Hilbert-DHT catalog by default, see
//! [`MapperBackend`]) serves deployment, local/full re-optimization, plan
//! rewriting, and failure evacuation. Each churn tick refreshes only the
//! cost points of the nodes the churn actually touched
//! ([`ChurnProcess::tick_dirty`] → [`CostSpace::update_scalars`]) and
//! forwards each real change to the mapper (`update_node`), so per-tick
//! control-plane work tracks the churned-node count instead of the overlay
//! size: `O(dims)` per refreshed point plus one catalog re-registration
//! per changed point (truly `O(log n)` on the B-tree-backed ring). At
//! scale, pair a fixed-budget churn process ([`ChurnProcess::SparseWalk`])
//! with the default DHT backend; a full-universe walk re-registers every
//! node every tick by definition. Node failures unregister from the mapper
//! (`remove_node`): liveness filtering lives in the catalog, not in
//! per-call-site wrapper mappers. Membership itself can also grow over
//! ticks ([`DeploymentModel::Wave`]): pending nodes arrive on a per-tick
//! budget and register through the same maintenance contract
//! (`add_node`), so bring-up is incremental rather than one bulk build.
//!
//! Re-optimization is **dirty-driven** by default
//! ([`RuntimeConfig::incremental_reopt`]): a runtime-maintained relevance
//! index ([`sbon_core::reopt::relevance`]) remembers the exact read set of
//! every no-op circuit evaluation and invalidates it from the control-plane
//! deltas above (each mapper maintenance call returns the [`MapperDelta`]
//! it caused; `RelevanceIndex::touch_mapper` applies it), so each
//! adaptation pass evaluates only the circuits a delta could actually have
//! affected — bit-identically to evaluating everything. All three pass
//! kinds run through one driver: evaluations are read-only (per-circuit
//! [`MapperReadView`]s) and shard across the worker pool; mutations commit
//! serially in circuit order, so thread count never changes results.

use std::collections::{HashMap, VecDeque};

use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

use sbon_coords::vivaldi::{LandmarkPlacer, VivaldiConfig, VivaldiEmbedding};
use sbon_core::circuit::{Circuit, Link, Placement, ServiceId};
use sbon_core::costspace::{CostSpace, CostSpaceBuilder};
use sbon_core::multiquery::{CircuitId, MultiQueryOptimizer, ReuseScope};
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, PlacedCircuit, QuerySpec};
use sbon_core::placement::{
    DhtMapper, DhtMapperConfig, DhtMapperReadView, LiveOracleMapper, MapperDelta, MapperReadView,
    PhysicalMapper, ReadObservation, RelaxationPlacer, RoutedMapper,
};
use sbon_core::reopt::relevance::{ReadSet, RelevanceIndex, ReoptKind};
use sbon_core::reopt::{
    reoptimize_full, reoptimize_local, reoptimize_rewrite, FullReoptOutcome, Migration,
    ReoptPolicy, RewriteOutcome,
};
use sbon_dht::catalog::CatalogStats;
use sbon_dht::proto::{ProtoConfig, RoutedStats};
use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::{EdgeId, Graph, NodeId};
use sbon_netsim::latency::{LatencyMatrix, LatencyProvider};
use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats};
use sbon_netsim::load::{ChurnProcess, LoadModel, NodeAttrs};
use sbon_netsim::rng::derive_rng;
use sbon_netsim::sim::{EventQueue, SimTime};
use sbon_netsim::topology::Topology;
use sbon_obs::{
    CounterId, FieldValue, FlightRecorder, GaugeId, HistId, Histogram, HistogramSnapshot,
    JsonlSink, MetricsRegistry, MetricsSnapshot, NullSink, ObsConfig, SinkSpec, SpanId, TraceSink,
    Tracer, WallTimer,
};

use crate::report::{RunReport, Sample};

/// Transient latency inflation applied each tick, at **underlay-edge**
/// granularity on every [`LatencyBackend`].
///
/// Each tick draws `edges_per_tick` edges (with replacement) from the
/// topology graph and rescales their latency by a factor from
/// `factor_range`. Congestion on a link perturbs every path crossing it.
/// Mean-reverting: the perturbed latency is clamped to `band` × the edge's
/// base latency, so jitter models congestion episodes rather than an
/// unboundedly drifting network.
///
/// Both backends sample the identical delta sequence from the shared run
/// RNG and derive their pairwise latencies from the same mutated graph
/// (re-running all-pairs Dijkstra under `Dense`, repairing cached rows in
/// place under `Lazy`), so a jittered run is bit-identical across
/// backends.
#[derive(Clone, Copy, Debug)]
pub struct JitterModel {
    /// Underlay edges rescaled per tick (drawn with replacement; repeated
    /// draws of one edge compose within the tick).
    pub edges_per_tick: usize,
    /// Multiplicative factor range `(lo, hi)` applied to an edge's latency.
    pub factor_range: (f64, f64),
    /// Allowed `(min, max)` multiple of the edge's base latency.
    pub band: (f64, f64),
}

impl Default for JitterModel {
    fn default() -> Self {
        JitterModel { edges_per_tick: 0, factor_range: (0.7, 1.45), band: (0.5, 3.0) }
    }
}

/// Ground-truth latency data structure used by the runtime.
///
/// `Dense` materializes the all-pairs matrix up front — `O(n²)` memory,
/// `O(n·(m + n log n))` precompute — and stays the default for the paper's
/// ≤600-node scale. `Lazy` keeps the topology graph and computes per-source
/// shortest-path rows on demand ([`LazyLatency`]), which is what makes
/// thousand-node runs with churn tractable; see the `sbon_netsim::lazy`
/// module docs for the invalidation contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatencyBackend {
    /// Eager all-pairs matrix (the historical behaviour).
    #[default]
    Dense,
    /// Demand-driven per-source rows with churn-aware invalidation.
    Lazy,
}

/// Physical-mapping backend owned by the runtime.
///
/// The runtime keeps **one** long-lived mapper in sync with the cost space
/// (deltas via `update_node`, failures via `remove_node`) and threads it
/// through every control-plane path: deployment, local re-optimization,
/// plan rewriting, full re-optimization, and failure evacuation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapperBackend {
    /// The paper-faithful decentralized mapper: Hilbert-keyed DHT catalog,
    /// `O(log n)` routed hops per mapped service. The default.
    Dht {
        /// Per-dimension grid resolution. Capped at runtime-build time to
        /// `128 / dims` so high-dimensional cost spaces (many Vivaldi
        /// dimensions) degrade to a coarser grid instead of overflowing
        /// the 128-bit ring.
        bits: u32,
        /// Successor-list correction window.
        scan_width: usize,
    },
    /// Exhaustive oracle scan over live nodes — `O(n)` per mapped service.
    /// The centralized verification backend the DHT answers are measured
    /// against.
    Oracle,
    /// The DHT catalog driven through the message-passing control plane
    /// ([`sbon_dht::proto`]): placements stay bit-identical to
    /// [`MapperBackend::Dht`], but every lookup and registration is also
    /// replayed as routed `ControlMsg` traffic over the live latency
    /// provider, surfacing *experienced* per-query latency (ms), message
    /// counts, and retry behaviour through
    /// [`ControlPlaneStats`] / [`OverlayRuntime::routed_stats`].
    Routed {
        /// Per-dimension grid resolution (capped like the `Dht` variant).
        bits: u32,
        /// Successor-list correction window.
        scan_width: usize,
        /// Timeout / retry policy for the routed messages.
        proto: ProtoConfig,
    },
}

impl Default for MapperBackend {
    fn default() -> Self {
        MapperBackend::Dht { bits: 12, scan_width: 8 }
    }
}

/// How the overlay's membership comes up.
///
/// The historical model registers every node with the mapper during
/// construction — one `O(n log n)` bulk build. [`DeploymentModel::Wave`]
/// instead starts from an `initial` subset and **grows the overlay over
/// ticks**: each churn tick up to `joins_per_tick` pending nodes arrive (in
/// a deterministic shuffled order) and register with the runtime's mapper
/// through the [`PhysicalMapper::add_node`] maintenance contract — an
/// `O(log n)` catalog join per arrival, so bring-up cost is spread across
/// the wave instead of paid in one construction-time spike. Nodes that have
/// not arrived host nothing and are never mapped to; churn reports for them
/// are ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeploymentModel {
    /// Register every node at construction time (the historical behaviour).
    #[default]
    Full,
    /// Start with `initial` nodes (clamped to `1..=n`), then admit up to
    /// `joins_per_tick` pending nodes per churn tick until all have
    /// arrived.
    Wave {
        /// Nodes registered at construction time.
        initial: usize,
        /// Pending nodes admitted per churn tick.
        joins_per_tick: usize,
    },
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Simulation tick (ms): churn + accounting granularity.
    tick_ms: f64,
    /// Run length (ms).
    horizon_ms: f64,
    /// Local re-optimization cadence (ms); `None` disables adaptation.
    reopt_interval_ms: Option<f64>,
    /// Full re-optimization cadence (ms); `None` disables full re-opt.
    full_reopt_interval_ms: Option<f64>,
    /// Local plan-rewrite cadence (ms); `None` disables rewriting. The
    /// paper's "limited plan re-writing" (§3.3): cheaper than full re-opt,
    /// explores only the rewrite neighbourhood of the running plan.
    rewrite_interval_ms: Option<f64>,
    /// Thresholds for migrations / replacements.
    policy: ReoptPolicy,
    /// Load churn process applied each tick.
    churn: ChurnProcess,
    /// Optional latency jitter applied each tick.
    latency_jitter: Option<JitterModel>,
    /// Usage·seconds charged per migration (state transfer).
    migration_penalty: f64,
    /// Usage·seconds charged per full replacement.
    replacement_penalty: f64,
    /// Initial load model.
    initial_load: LoadModel,
    /// Scalar scale of the latency+load cost space.
    load_scale: f64,
    /// Vivaldi settings for the embedding built at start-up.
    vivaldi: VivaldiConfig,
    /// Ground-truth latency backend.
    latency_backend: LatencyBackend,
    /// Cap on resident shortest-path rows under [`LatencyBackend::Lazy`]
    /// (`None` = unbounded). Bounds steady-state latency memory at
    /// `O(cap · n)` instead of `O(n²)`; ignored by the dense backend.
    lazy_row_cache: Option<usize>,
    /// Physical-mapping backend for the runtime-owned mapper.
    mapper_backend: MapperBackend,
    /// Membership bring-up model (all-at-once or deployment wave).
    deployment: DeploymentModel,
    /// Multi-query reuse scope for arriving queries.
    ///
    /// Anything other than [`ReuseScope::None`] routes every `deploy`
    /// through a runtime-owned [`MultiQueryOptimizer`]: arriving queries may
    /// attach to running operator subtrees (a *subscription* refcount on the
    /// instance), departures release shared services only when their
    /// refcount drains to zero, and usage accounting charges each circuit
    /// its **marginal** links only. A subscribed instance is pinned in its
    /// owner's circuit (tenancy makes it load-bearing), so local re-opt
    /// stops migrating it, and the pin lifts when the last subscriber
    /// departs; plan-replacement adaptation (rewrite / full re-opt) is
    /// skipped only for *tenancy-entangled* circuits (ones that borrow
    /// shared subtrees or have subscribed instances) — replacing such a
    /// plan would strand its tenants. Untenanted circuits still adapt,
    /// re-registering their instances after the swap.
    reuse: ReuseScope,
    /// Worker threads for the embarrassingly parallel per-tick work
    /// (shortest-path row computation, scalar cost refresh): `0` sizes the
    /// pool to the machine's available parallelism, `1` runs everything on
    /// the calling thread, any other value is an explicit pool size.
    ///
    /// Thread count never changes results: parallel stages compute pure
    /// values and commit them serially in a deterministic order, so a run
    /// at any `threads` setting is bit-identical to a serial one.
    threads: usize,
    /// Dirty-driven re-optimization (default `true`): each adaptation pass
    /// evaluates only circuits whose re-opt inputs changed since their last
    /// no-op evaluation, per the runtime-maintained
    /// [`RelevanceIndex`](sbon_core::reopt::relevance::RelevanceIndex).
    /// Skipping is bit-identical to evaluating everything (see the
    /// [`sbon_core::reopt`] module docs for the closed-input-set argument);
    /// `false` restores the evaluate-everything scan, useful as the
    /// equivalence baseline.
    incremental_reopt: bool,
    /// Observability: virtual-time span tracing and the flight recorder
    /// (see [`sbon_obs::ObsConfig`]). Defaults to everything off — the
    /// metrics registry backing the stats views runs regardless, at the
    /// cost of the plain field increments it replaced. Instrumentation is
    /// **bit-invisible**: an instrumented run's [`RunReport`] is identical
    /// to an uninstrumented one.
    obs: ObsConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            tick_ms: 1_000.0,
            horizon_ms: 60_000.0,
            reopt_interval_ms: Some(5_000.0),
            full_reopt_interval_ms: None,
            rewrite_interval_ms: None,
            policy: ReoptPolicy::default(),
            churn: ChurnProcess::RandomWalk { std_dev: 0.05 },
            latency_jitter: None,
            migration_penalty: 50.0,
            replacement_penalty: 200.0,
            initial_load: LoadModel::Random { lo: 0.0, hi: 0.6 },
            load_scale: 100.0,
            vivaldi: VivaldiConfig::default(),
            latency_backend: LatencyBackend::default(),
            lazy_row_cache: None,
            mapper_backend: MapperBackend::default(),
            deployment: DeploymentModel::default(),
            reuse: ReuseScope::None,
            threads: 0,
            incremental_reopt: true,
            obs: ObsConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Starts a [`RuntimeConfigBuilder`] seeded with the defaults — the
    /// construction path. The fields are private; read access goes through
    /// the getters below.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { config: RuntimeConfig::default() }
    }

    /// Simulation tick (ms).
    pub fn tick_ms(&self) -> f64 {
        self.tick_ms
    }

    /// Run length (ms).
    pub fn horizon_ms(&self) -> f64 {
        self.horizon_ms
    }

    /// Local re-optimization cadence (ms); `None` = adaptation disabled.
    pub fn reopt_interval_ms(&self) -> Option<f64> {
        self.reopt_interval_ms
    }

    /// Full re-optimization cadence (ms); `None` = disabled.
    pub fn full_reopt_interval_ms(&self) -> Option<f64> {
        self.full_reopt_interval_ms
    }

    /// Plan-rewrite cadence (ms); `None` = disabled.
    pub fn rewrite_interval_ms(&self) -> Option<f64> {
        self.rewrite_interval_ms
    }

    /// Migration / replacement thresholds.
    pub fn policy(&self) -> ReoptPolicy {
        self.policy
    }

    /// Load churn process applied each tick.
    pub fn churn(&self) -> &ChurnProcess {
        &self.churn
    }

    /// Per-tick latency jitter; `None` = disabled.
    pub fn latency_jitter(&self) -> Option<JitterModel> {
        self.latency_jitter
    }

    /// Usage·seconds charged per migration.
    pub fn migration_penalty(&self) -> f64 {
        self.migration_penalty
    }

    /// Usage·seconds charged per full replacement.
    pub fn replacement_penalty(&self) -> f64 {
        self.replacement_penalty
    }

    /// Initial load model.
    pub fn initial_load(&self) -> &LoadModel {
        &self.initial_load
    }

    /// Scalar scale of the latency+load cost space.
    pub fn load_scale(&self) -> f64 {
        self.load_scale
    }

    /// Vivaldi settings for the start-up embedding.
    pub fn vivaldi(&self) -> &VivaldiConfig {
        &self.vivaldi
    }

    /// Ground-truth latency backend.
    pub fn latency_backend(&self) -> LatencyBackend {
        self.latency_backend
    }

    /// Resident-row cap under [`LatencyBackend::Lazy`].
    pub fn lazy_row_cache(&self) -> Option<usize> {
        self.lazy_row_cache
    }

    /// Physical-mapping backend.
    pub fn mapper_backend(&self) -> MapperBackend {
        self.mapper_backend
    }

    /// Membership bring-up model.
    pub fn deployment(&self) -> DeploymentModel {
        self.deployment
    }

    /// Multi-query reuse scope.
    pub fn reuse(&self) -> ReuseScope {
        self.reuse
    }

    /// Worker-thread count (`0` = auto, `1` = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether dirty-driven re-optimization is on.
    pub fn incremental_reopt(&self) -> bool {
        self.incremental_reopt
    }

    /// Observability configuration (tracing, flight recorder).
    pub fn obs(&self) -> &ObsConfig {
        &self.obs
    }
}

/// Fluent constructor for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
///
/// Every setter consumes and returns the builder, so configurations read as
/// one chain:
///
/// ```
/// use sbon_overlay::runtime::{JitterModel, LatencyBackend, RuntimeConfig};
///
/// let config = RuntimeConfig::builder()
///     .horizon_ms(30_000.0)
///     .latency_backend(LatencyBackend::Lazy)
///     .latency_jitter(JitterModel { edges_per_tick: 50, ..Default::default() })
///     .reopt_interval_ms(None)
///     .build();
/// assert_eq!(config.horizon_ms(), 30_000.0);
/// assert!(config.reopt_interval_ms().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the simulation tick (ms).
    pub fn tick_ms(mut self, v: f64) -> Self {
        self.config.tick_ms = v;
        self
    }

    /// Sets the run length (ms).
    pub fn horizon_ms(mut self, v: f64) -> Self {
        self.config.horizon_ms = v;
        self
    }

    /// Sets the local re-optimization cadence; `None` disables adaptation.
    pub fn reopt_interval_ms(mut self, v: impl Into<Option<f64>>) -> Self {
        self.config.reopt_interval_ms = v.into();
        self
    }

    /// Sets the full re-optimization cadence; `None` disables full re-opt.
    pub fn full_reopt_interval_ms(mut self, v: impl Into<Option<f64>>) -> Self {
        self.config.full_reopt_interval_ms = v.into();
        self
    }

    /// Sets the plan-rewrite cadence; `None` disables rewriting.
    pub fn rewrite_interval_ms(mut self, v: impl Into<Option<f64>>) -> Self {
        self.config.rewrite_interval_ms = v.into();
        self
    }

    /// Sets the migration / replacement thresholds.
    pub fn policy(mut self, v: ReoptPolicy) -> Self {
        self.config.policy = v;
        self
    }

    /// Sets the load churn process.
    pub fn churn(mut self, v: ChurnProcess) -> Self {
        self.config.churn = v;
        self
    }

    /// Sets the per-tick latency jitter; `None` disables it.
    pub fn latency_jitter(mut self, v: impl Into<Option<JitterModel>>) -> Self {
        self.config.latency_jitter = v.into();
        self
    }

    /// Sets the usage·seconds charged per migration.
    pub fn migration_penalty(mut self, v: f64) -> Self {
        self.config.migration_penalty = v;
        self
    }

    /// Sets the usage·seconds charged per full replacement.
    pub fn replacement_penalty(mut self, v: f64) -> Self {
        self.config.replacement_penalty = v;
        self
    }

    /// Sets the initial load model.
    pub fn initial_load(mut self, v: LoadModel) -> Self {
        self.config.initial_load = v;
        self
    }

    /// Sets the scalar scale of the latency+load cost space.
    pub fn load_scale(mut self, v: f64) -> Self {
        self.config.load_scale = v;
        self
    }

    /// Sets the Vivaldi settings for the start-up embedding.
    pub fn vivaldi(mut self, v: VivaldiConfig) -> Self {
        self.config.vivaldi = v;
        self
    }

    /// Sets the ground-truth latency backend.
    pub fn latency_backend(mut self, v: LatencyBackend) -> Self {
        self.config.latency_backend = v;
        self
    }

    /// Caps resident shortest-path rows under [`LatencyBackend::Lazy`];
    /// `None` leaves the cache unbounded.
    pub fn lazy_row_cache(mut self, v: impl Into<Option<usize>>) -> Self {
        self.config.lazy_row_cache = v.into();
        self
    }

    /// Sets the physical-mapping backend.
    pub fn mapper_backend(mut self, v: MapperBackend) -> Self {
        self.config.mapper_backend = v;
        self
    }

    /// Sets the membership bring-up model.
    pub fn deployment(mut self, v: DeploymentModel) -> Self {
        self.config.deployment = v;
        self
    }

    /// Sets the multi-query reuse scope.
    pub fn reuse(mut self, v: ReuseScope) -> Self {
        self.config.reuse = v;
        self
    }

    /// Sets the worker-thread count (`0` = auto, `1` = serial). Thread
    /// count never changes results — see [`RuntimeConfig::threads`].
    pub fn threads(mut self, v: usize) -> Self {
        self.config.threads = v;
        self
    }

    /// Enables/disables dirty-driven re-optimization — see
    /// [`RuntimeConfig::incremental_reopt`].
    pub fn incremental_reopt(mut self, v: bool) -> Self {
        self.config.incremental_reopt = v;
        self
    }

    /// Sets the observability configuration — see [`sbon_obs::ObsConfig`].
    /// Instrumentation never changes results, only what gets reported.
    pub fn obs(mut self, v: ObsConfig) -> Self {
        self.config.obs = v;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// If `tick_ms`, `horizon_ms` or an enabled re-optimization interval is
    /// not finite and positive — a zero interval would reschedule its pass
    /// at the same instant forever.
    pub fn build(self) -> RuntimeConfig {
        let c = &self.config;
        for (field, value) in [
            ("tick_ms", Some(c.tick_ms)),
            ("horizon_ms", Some(c.horizon_ms)),
            ("reopt_interval_ms", c.reopt_interval_ms),
            ("rewrite_interval_ms", c.rewrite_interval_ms),
            ("full_reopt_interval_ms", c.full_reopt_interval_ms),
        ] {
            if let Some(v) = value {
                assert!(v.is_finite() && v > 0.0, "{field} must be finite and positive, got {v}");
            }
        }
        self.config
    }
}

/// Handle to a deployed circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CircuitHandle(pub usize);

/// Internal per-circuit state.
struct Deployed {
    handle: CircuitHandle,
    query: QuerySpec,
    running_plan: sbon_query::plan::LogicalPlan,
    circuit: Circuit,
    placement: Placement,
    /// Registry id when the circuit was deployed through the multi-query
    /// optimizer (`RuntimeConfig::reuse` ≠ `None`).
    mq_id: Option<CircuitId>,
    /// `shared[service]` — paid for by another circuit's instance; empty
    /// when the circuit was deployed standalone. Usage accounting skips
    /// links whose downstream endpoint is shared.
    shared: Vec<bool>,
}

impl Deployed {
    /// The running circuit's network usage as the cost space estimates it —
    /// what a plan-replacing pass must beat by the replacement threshold.
    fn running_est(&self, space: &CostSpace) -> f64 {
        self.circuit.cost_with(&self.placement, |a, b| space.vector_distance(a, b)).network_usage
    }

    /// The links usage accounting bills to this circuit: all but those
    /// whose downstream endpoint another circuit's instance pays for.
    fn charged_links(&self) -> impl Iterator<Item = &Link> {
        let links = self.circuit.links().iter();
        links.filter(|l| !self.shared.get(l.to.index()).copied().unwrap_or(false))
    }
}

/// A departed circuit's subtree kept alive because other circuits still
/// subscribe to one of its operator instances. Its charged links keep
/// accruing network usage until the last subscriber releases.
struct RetainedShared {
    owner: CircuitId,
    circuit: Circuit,
    placement: Placement,
    /// The owner's own shared mask (links it never paid for stay unpaid).
    owner_shared: Vec<bool>,
    /// Still-subscribed instance roots.
    roots: Vec<ServiceId>,
    /// `charge[link]` — the link still carries data for a retained subtree
    /// and is billed to this entry.
    charge: Vec<bool>,
}

impl RetainedShared {
    /// The links still billed to this entry.
    fn charged_links(&self) -> impl Iterator<Item = &Link> {
        self.circuit.links().iter().zip(&self.charge).filter(|&(_, &c)| c).map(|(l, _)| l)
    }
}

/// `mask[service]`: the service is one of `roots` or sits beneath one.
fn subtree_mask(circuit: &Circuit, roots: &[ServiceId]) -> Vec<bool> {
    fn mark(circuit: &Circuit, sid: ServiceId, flags: &mut [bool]) {
        for child in circuit.children(sid) {
            flags[child.index()] = true;
            mark(circuit, child, flags);
        }
    }
    let mut in_subtree = vec![false; circuit.len()];
    for &root in roots {
        in_subtree[root.index()] = true;
        mark(circuit, root, &mut in_subtree);
    }
    in_subtree
}

/// The upstream host of each of `links`, in order — the node whose
/// shortest-path row a ground-truth latency read of that link is served from.
fn link_sources<'a>(
    placement: &'a Placement,
    links: impl Iterator<Item = &'a Link> + 'a,
) -> impl Iterator<Item = NodeId> + 'a {
    links.map(|l| placement.node_of(l.from))
}

/// `charge[link]`: the link feeds a subtree rooted at one of `roots` and the
/// owner actually paid for it (it is not inside a subtree the owner itself
/// borrowed).
fn charge_mask(circuit: &Circuit, roots: &[ServiceId], owner_shared: &[bool]) -> Vec<bool> {
    let in_subtree = subtree_mask(circuit, roots);
    circuit
        .links()
        .iter()
        .map(|l| {
            in_subtree[l.to.index()] && !owner_shared.get(l.to.index()).copied().unwrap_or(false)
        })
        .collect()
}

/// Accumulated query-lifecycle accounting: arrivals, departures, and the
/// reuse economics (marginal vs standalone cost of every deployed query).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryLifecycleStats {
    /// Successful `deploy` calls.
    pub arrivals: usize,
    /// `undeploy` calls.
    pub departures: usize,
    /// Arrivals that attached to ≥ 1 running operator instance.
    pub reuse_hits: usize,
    /// Running instances attached to, summed over arrivals.
    pub reused_services: usize,
    /// Σ marginal network usage at deploy time (standalone usage minus what
    /// reuse made free; equals `standalone_usage` when reuse is off).
    pub marginal_usage: f64,
    /// Σ standalone network usage the same queries would have cost with no
    /// reuse.
    pub standalone_usage: f64,
}

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

/// What one read-only circuit evaluation asks the serial commit to do.
enum Verdict {
    /// A no-op: the circuit stays as it is (and may be recorded clean).
    Keep,
    /// Local pass: adopt the placement these migrations lead to.
    Migrate(Placement, Vec<Migration>),
    /// Rewrite / full pass: swap in the replacement circuit.
    Replace(Box<PlacedCircuit>),
}

/// The runtime-owned mapper behind [`MapperBackend`].
// The runtime holds exactly one of these for its whole lifetime, so the
// Dht/Oracle size gap costs one allocation's worth of slack, not N.
#[allow(clippy::large_enum_variant)]
enum MapperState {
    Dht(DhtMapper),
    Oracle(LiveOracleMapper),
    Routed(RoutedMapper),
}

impl MapperState {
    fn as_dyn(&mut self) -> &mut dyn PhysicalMapper {
        match self {
            MapperState::Dht(m) => m,
            MapperState::Oracle(m) => m,
            MapperState::Routed(m) => m,
        }
    }

    /// A read-only view for one circuit evaluation: answers exactly like
    /// the live mapper, accumulates traffic/read-set observations locally,
    /// and memoises repeated lookups of bit-identical ideal points. The
    /// routed backend hands out the same catalog-only view the DHT backend
    /// does — routed traffic is replayed only for live-path lookups, on the
    /// serial settle points.
    fn read_view(&self) -> MapperReadView<'_> {
        match self {
            MapperState::Dht(m) => MapperReadView::Dht(m.read_view(true)),
            MapperState::Oracle(m) => MapperReadView::Oracle(m.read_view()),
            MapperState::Routed(m) => {
                MapperReadView::Dht(DhtMapperReadView::new(m.routed().catalog(), true))
            }
        }
    }

    /// Folds a read view's deferred catalog traffic back onto the live
    /// mapper (a no-op for the oracle, which has no traffic counters).
    fn charge_observed(&mut self, obs: &ReadObservation) {
        match self {
            MapperState::Dht(m) => m.charge_stats(obs.stats),
            MapperState::Oracle(_) => {}
            MapperState::Routed(m) => m.routed_mut().catalog_mut().charge_stats(obs.stats),
        }
    }
}

/// Accumulated control-plane accounting of a runtime, split so the cost of
/// *maintaining* the optimizer's view (coordinate refresh + mapper sync)
/// is visible separately from the cost of *using* it (re-optimization and
/// evacuation mapping) and from plain latency-provider reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlPlaneStats {
    /// Churn ticks processed.
    pub ticks: usize,
    /// Nodes the churn process reported touched (dirty set sizes, summed).
    pub dirty_nodes: usize,
    /// Cost points that actually changed — each one cost a mapper
    /// re-registration (`update_node`).
    pub points_updated: usize,
    /// Nodes that arrived through the deployment wave — each one cost a
    /// mapper registration (`add_node`).
    pub nodes_joined: usize,
    /// Wall time admitting deployment-wave arrivals (mapper `add_node`).
    pub join_ns: u128,
    /// Wall time in coordinate maintenance: dirty-set scalar refresh plus
    /// mapper re-registrations (and relevance-index invalidation).
    pub refresh_ns: u128,
    /// Wall time in local re-optimization passes (per-service migration
    /// checks).
    pub local_reopt_ns: u128,
    /// Wall time in plan-rewrite passes (rewrite-neighbourhood
    /// exploration).
    pub rewrite_ns: u128,
    /// Wall time in full re-optimization passes.
    pub full_reopt_ns: u128,
    /// Wall time in failure handling: teardown cascade plus service
    /// evacuation.
    pub evac_ns: u128,
    /// Circuit evaluations actually run by the adaptation passes (summed
    /// over local/rewrite/full events).
    pub reopt_evaluated: usize,
    /// Circuit evaluations skipped because the relevance index proved the
    /// circuit's re-opt inputs unchanged since its last no-op evaluation.
    pub reopt_skipped: usize,
    /// Candidate plans the rewrite and full passes rejected on their
    /// network-usage lower bound alone, before any placement or mapping
    /// work (see `sbon_core::optimizer`).
    pub candidates_pruned: usize,
    /// Wall time reading the ground-truth latency provider for usage
    /// accounting (the data-plane proxy, for comparison).
    pub usage_ns: u128,
    /// Routed control-plane messages sent (requests, replies, acks).
    /// Populated only under [`MapperBackend::Routed`], from the settled
    /// message traffic; zero otherwise.
    pub routed_messages: u64,
    /// Routed lookups completed.
    pub routed_lookups: u64,
    /// Routed retransmissions after first sends.
    pub routed_retries: u64,
    /// Routed retransmit timers that fired.
    pub routed_timeouts: u64,
    /// `routed_hop_histogram[h]` = routed lookups that took `h` round
    /// trips.
    pub routed_hop_histogram: Vec<u64>,
    /// Median experienced routed-lookup latency (simulated ms); `None`
    /// before the first settled lookup (and always under other backends).
    pub routed_p50_latency_ms: Option<f64>,
    /// Tail (p99) experienced routed-lookup latency (simulated ms).
    pub routed_p99_latency_ms: Option<f64>,
}

impl ControlPlaneStats {
    /// Total adaptation wall time: the former `reopt_ns` aggregate — local
    /// + rewrite + full re-opt passes plus failure evacuation.
    pub fn adaptation_ns(&self) -> u128 {
        self.local_reopt_ns + self.rewrite_ns + self.full_reopt_ns + self.evac_ns
    }

    /// A multi-line human-readable breakdown: maintenance volume, wall time
    /// per control-plane phase, re-opt dirty-filter effectiveness, and —
    /// when the routed backend ran — the experienced message traffic. The
    /// examples print this instead of hand-rolling their own tables.
    pub fn summary(&self) -> String {
        let ms = |ns: u128| ns as f64 / 1e6;
        let mut out = format!(
            "control plane: {} ticks, {} dirty nodes, {} points re-registered, {} joined\n",
            self.ticks, self.dirty_nodes, self.points_updated, self.nodes_joined
        );
        out.push_str(&format!(
            "  wall time (ms): join {:.1} | refresh {:.1} | local re-opt {:.1} | rewrite {:.1} \
             | full re-opt {:.1} | evac {:.1} | usage reads {:.1}\n",
            ms(self.join_ns),
            ms(self.refresh_ns),
            ms(self.local_reopt_ns),
            ms(self.rewrite_ns),
            ms(self.full_reopt_ns),
            ms(self.evac_ns),
            ms(self.usage_ns),
        ));
        let candidates = self.reopt_evaluated + self.reopt_skipped;
        if candidates > 0 {
            out.push_str(&format!(
                "  re-opt: {} evaluated, {} skipped clean ({:.1}% saved), \
                 {} candidate plans pruned by bound\n",
                self.reopt_evaluated,
                self.reopt_skipped,
                100.0 * self.reopt_skipped as f64 / candidates as f64,
                self.candidates_pruned,
            ));
        }
        if self.routed_messages > 0 {
            let hops: u64 =
                self.routed_hop_histogram.iter().enumerate().map(|(h, &c)| h as u64 * c).sum();
            let mean_hops = if self.routed_lookups > 0 {
                hops as f64 / self.routed_lookups as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  routed: {} messages, {} lookups ({:.2} hops/lookup), {} retries, \
                 {} timeouts, p50 {:.2} ms, p99 {:.2} ms\n",
                self.routed_messages,
                self.routed_lookups,
                mean_hops,
                self.routed_retries,
                self.routed_timeouts,
                self.routed_p50_latency_ms.unwrap_or(0.0),
                self.routed_p99_latency_ms.unwrap_or(0.0),
            ));
        }
        out
    }
}

impl std::fmt::Display for ControlPlaneStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Registry handles for every control-plane and lifecycle counter the
/// runtime maintains. Resolved once at construction; the hot paths
/// increment through these (a plain `Vec` index in the registry), so the
/// migration off ad-hoc struct fields costs nothing measurable.
struct StatHandles {
    ticks: CounterId,
    dirty_nodes: CounterId,
    points_updated: CounterId,
    nodes_joined: CounterId,
    join_ns: CounterId,
    refresh_ns: CounterId,
    local_reopt_ns: CounterId,
    rewrite_ns: CounterId,
    full_reopt_ns: CounterId,
    evac_ns: CounterId,
    reopt_evaluated: CounterId,
    reopt_skipped: CounterId,
    candidates_pruned: CounterId,
    usage_ns: CounterId,
    arrivals: CounterId,
    departures: CounterId,
    reuse_hits: CounterId,
    reused_services: CounterId,
    marginal_usage: GaugeId,
    standalone_usage: GaugeId,
    dirty_per_tick: HistId,
}

/// The runtime's observability state: the metrics registry backing the
/// [`ControlPlaneStats`] / [`QueryLifecycleStats`] views, the optional
/// virtual-time tracer, and the optional flight recorder.
///
/// **Bit-invisibility contract:** nothing in here feeds back into the
/// simulation. Counters are written, never read by control flow; spans are
/// emitted only from the serial orchestration paths with `SimTime`
/// stamps; the flight recorder is written and dumped, never consulted.
/// An instrumented run's [`RunReport`] is bit-identical to a bare one.
struct RuntimeObs {
    registry: MetricsRegistry,
    h: StatHandles,
    tracer: Option<Tracer>,
    flight: Option<FlightRecorder>,
    /// Virtual time (ms) of the event currently being processed; deploys
    /// and undeploys between ticks stamp at the last processed event.
    now_ms: f64,
}

impl RuntimeObs {
    fn new(config: &ObsConfig) -> RuntimeObs {
        let mut registry = MetricsRegistry::new();
        let h = StatHandles {
            ticks: registry.counter("control_plane", "ticks"),
            dirty_nodes: registry.counter("control_plane", "dirty_nodes"),
            points_updated: registry.counter("control_plane", "points_updated"),
            nodes_joined: registry.counter("control_plane", "nodes_joined"),
            join_ns: registry.counter("control_plane", "join_ns"),
            refresh_ns: registry.counter("control_plane", "refresh_ns"),
            local_reopt_ns: registry.counter("control_plane", "local_reopt_ns"),
            rewrite_ns: registry.counter("control_plane", "rewrite_ns"),
            full_reopt_ns: registry.counter("control_plane", "full_reopt_ns"),
            evac_ns: registry.counter("control_plane", "evac_ns"),
            reopt_evaluated: registry.counter("control_plane", "reopt_evaluated"),
            reopt_skipped: registry.counter("control_plane", "reopt_skipped"),
            candidates_pruned: registry.counter("control_plane", "candidates_pruned"),
            usage_ns: registry.counter("control_plane", "usage_ns"),
            arrivals: registry.counter("lifecycle", "arrivals"),
            departures: registry.counter("lifecycle", "departures"),
            reuse_hits: registry.counter("lifecycle", "reuse_hits"),
            reused_services: registry.counter("lifecycle", "reused_services"),
            marginal_usage: registry.gauge("lifecycle", "marginal_usage"),
            standalone_usage: registry.gauge("lifecycle", "standalone_usage"),
            dirty_per_tick: registry.histogram_with(
                sbon_obs::MetricKey::plain("control_plane", "dirty_per_tick"),
                Histogram::with_bounds(vec![8.0, 32.0, 128.0, 512.0, 4096.0]),
            ),
        };
        let tracer = config.trace.as_ref().map(|spec| {
            let mut t = Tracer::new(spec.sampler());
            match &spec.sink {
                SinkSpec::Null => t.add_sink(Box::new(NullSink::default())),
                SinkSpec::JsonlFile(path) => {
                    let file = std::fs::File::create(path)
                        .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display()));
                    t.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
                }
            }
            t
        });
        let flight =
            (config.flight_capacity > 0).then(|| FlightRecorder::new(config.flight_capacity));
        RuntimeObs { registry, h, tracer, flight, now_ms: 0.0 }
    }

    /// Opens a span at the current virtual time. The fields closure runs
    /// only when tracing is on and the sampler keeps the span, so the
    /// disabled path costs one branch.
    #[inline]
    fn span_start(
        &mut self,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> Option<SpanId> {
        let t = self.tracer.as_mut()?;
        t.span_start(kind, self.now_ms, fields())
    }

    /// Closes a span; `None` (tracing off or sampled out) is free.
    #[inline]
    fn span_end(
        &mut self,
        span: Option<SpanId>,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if span.is_some() {
            if let Some(t) = self.tracer.as_mut() {
                t.span_end(span, self.now_ms, fields());
            }
        }
    }

    /// Emits an instantaneous event at the current virtual time.
    #[inline]
    fn point(
        &mut self,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(t) = self.tracer.as_mut() {
            t.point(kind, self.now_ms, fields());
        }
    }

    /// Records a flight-recorder event (detail rendered only when one is
    /// configured).
    #[inline]
    fn flight(
        &mut self,
        subsystem: &'static str,
        code: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        let now = self.now_ms;
        if let Some(f) = self.flight.as_mut() {
            f.record(now, subsystem, code, detail());
        }
    }

    /// Records a flight-recorder anomaly.
    #[inline]
    fn flight_anomaly(
        &mut self,
        subsystem: &'static str,
        code: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        let now = self.now_ms;
        if let Some(f) = self.flight.as_mut() {
            f.record_anomaly(now, subsystem, code, detail());
        }
    }
}

/// Backend-selected ground-truth latency state.
enum LatencyState {
    /// Materialized all-pairs matrix, re-derived from the (possibly
    /// jittered) underlay graph whenever edges change. `base_edges` keeps
    /// the unperturbed edge latencies as the jitter band reference.
    Dense { current: LatencyMatrix, graph: Graph, base_edges: Vec<f64> },
    /// Demand-driven rows; the provider carries its own graph and base
    /// edge weights, logs edge deltas and repairs a cached row in place
    /// when it is next read.
    Lazy(LazyLatency),
}

impl LatencyState {
    /// The active provider as a trait object.
    fn provider(&self) -> &dyn LatencyProvider {
        match self {
            LatencyState::Dense { current, .. } => current,
            LatencyState::Lazy(lazy) => lazy,
        }
    }

    /// Ground-truth latency between two nodes.
    fn query(&self, a: NodeId, b: NodeId) -> f64 {
        self.provider().latency(a, b)
    }
}

/// Draws one tick of [`JitterModel`] edge deltas against the current graph
/// weights: `edges_per_tick` uniform edge draws, each composing a factor
/// onto the edge's running value and clamping to `band` × its base
/// latency. Repeated draws of an edge compose within the tick (the second
/// factor applies to the first's result); the returned list holds one
/// final `(edge, latency)` per distinct edge, in first-draw order. Both
/// latency backends feed the identical sequence to their own apply step,
/// which is what keeps jittered runs bit-identical across backends.
fn sample_edge_deltas<R: Rng, B: Fn(EdgeId) -> f64>(
    rng: &mut R,
    jitter: &JitterModel,
    graph: &Graph,
    base: B,
) -> Vec<(EdgeId, f64)> {
    let m = graph.num_edges();
    if m == 0 {
        return Vec::new();
    }
    // sbon-lint: allow(unordered-iteration): slot map for compounding
    // repeated jitter on one edge; iteration happens over `deltas` (a Vec).
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut deltas: Vec<(EdgeId, f64)> = Vec::new();
    for _ in 0..jitter.edges_per_tick {
        let e = EdgeId(rng.gen_range(0..m) as u32);
        let f = rng.gen_range(jitter.factor_range.0..jitter.factor_range.1);
        let cur = match index.get(&e.0) {
            Some(&slot) => deltas[slot].1,
            None => graph.edge(e).latency_ms,
        };
        let b = base(e);
        let next = (cur * f).clamp(b * jitter.band.0, b * jitter.band.1);
        match index.entry(e.0) {
            std::collections::hash_map::Entry::Occupied(slot) => deltas[*slot.get()].1 = next,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(deltas.len());
                deltas.push((e, next));
            }
        }
    }
    deltas
}

/// RNG stream salt for per-node join-time Vivaldi placement; the high bits
/// keep `salt ^ node` disjoint from every other derivation stream.
const PLACE_STREAM: u64 = 0x517e_9a4e << 32;

/// Runs `f` over `indices` on the pool when one is active (and there is
/// enough work to shard), serially otherwise. Results come back in input
/// order either way, and `f` is pure per index, so thread count never
/// changes what the caller commits.
fn run_parallel<T: Send>(
    pool: &Option<rayon::ThreadPool>,
    indices: &[usize],
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    match pool {
        Some(pool) if indices.len() > 1 => {
            pool.install(|| indices.par_iter().map(|&i| f(i)).collect())
        }
        _ => indices.iter().map(|&i| f(i)).collect(),
    }
}

/// The host set an evaluation's cost estimates read: every placement node
/// of the circuit, deduplicated. Cost-point changes at any of them can
/// change the estimate (and with it the pass's decision).
fn circuit_hosts(circuit: &Circuit, placement: &Placement) -> Vec<NodeId> {
    let mut hosts: Vec<NodeId> =
        circuit.services().iter().map(|s| placement.node_of(s.id)).collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}

/// The simulated SBON.
pub struct OverlayRuntime {
    config: RuntimeConfig,
    /// The construction seed, kept for per-node derived RNG streams
    /// (join-time placement must not depend on join batching).
    seed: u64,
    latency: LatencyState,
    attrs: NodeAttrs,
    space: CostSpace,
    #[allow(dead_code)]
    embedding: VivaldiEmbedding,
    /// Frozen landmark set for join-time Vivaldi placement; `Some` iff the
    /// deployment is a wave and landmark mode is active with `k < n`.
    placer: Option<LandmarkPlacer>,
    /// Worker pool for the parallel per-tick stages; `None` runs serial.
    pool: Option<rayon::ThreadPool>,
    circuits: Vec<Deployed>,
    rng: rand::rngs::StdRng,
    optimizer: IntegratedOptimizer,
    /// Reuse-aware tenancy registry; `Some` iff `config.reuse` ≠ `None`.
    multiquery: Option<MultiQueryOptimizer>,
    /// Departed circuits' subtrees still running for their subscribers.
    retained: Vec<RetainedShared>,
    /// The single long-lived physical mapper, kept in sync with `space`.
    mapper: MapperState,
    /// Dirty tracking for re-optimization: which circuits each adaptation
    /// pass may skip, and which control-plane deltas invalidate them.
    relevance: RelevanceIndex,
    /// Observability: the metrics registry behind the control-plane and
    /// lifecycle stats views, plus the optional tracer/flight recorder.
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
    /// Monotonic handle counter.
    next_handle: usize,
}

impl OverlayRuntime {
    /// Builds the runtime: ground-truth latency from the topology (dense
    /// matrix or lazy rows per [`RuntimeConfig::latency_backend`]), a Vivaldi
    /// embedding over it, an initial load assignment, and the Figure-2-style
    /// latency+load² cost space. Deterministic in `seed`; both backends
    /// serve bit-identical latencies, so the backend choice does not change
    /// results — only the cost of obtaining them.
    pub fn new(topology: &Topology, seed: u64, config: RuntimeConfig) -> Self {
        let n = topology.num_nodes();
        let pool = match config.threads {
            1 => None,
            t => {
                let t = if t == 0 {
                    std::thread::available_parallelism().map_or(1, |p| p.get())
                } else {
                    t
                };
                (t > 1).then(|| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(t)
                        .build()
                        .expect("runtime worker pool")
                })
            }
        };
        let latency = match config.latency_backend {
            LatencyBackend::Dense => {
                let graph = topology.graph.clone();
                let base_edges = graph.edges().iter().map(|e| e.latency_ms).collect();
                let current = all_pairs_latency(&graph);
                LatencyState::Dense { current, graph, base_edges }
            }
            LatencyBackend::Lazy => {
                let graph = topology.graph.clone();
                LatencyState::Lazy(match config.lazy_row_cache {
                    Some(cap) => LazyLatency::with_capacity(graph, cap),
                    None => LazyLatency::new(graph),
                })
            }
        };
        // Membership bring-up: everyone at once, or an initial subset with
        // the rest queued behind a deterministic shuffled arrival order.
        let (arrived, pending_joins): (Vec<bool>, VecDeque<NodeId>) = match config.deployment {
            DeploymentModel::Full => (vec![true; n], VecDeque::new()),
            DeploymentModel::Wave { initial, .. } => {
                let initial = initial.clamp(1, n);
                let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
                order.shuffle(&mut derive_rng(seed, 0x77a1_e5e7));
                let mut arrived = vec![false; n];
                for node in &order[..initial] {
                    arrived[node.index()] = true;
                }
                (arrived, order[initial..].iter().copied().collect())
            }
        };
        // Embedding bring-up. A deployment wave with landmark mode active
        // never embeds all n coordinates up front: the landmark half of the
        // protocol runs once, the initial members are placed against the
        // frozen landmarks, and everyone else is placed the tick they
        // join. Each node's placement uses its own derived RNG stream, so
        // *when* a node joins does not change *where* it lands.
        let landmark_draw = match config.deployment {
            DeploymentModel::Wave { .. } => config.vivaldi.landmark_ids(n, seed),
            DeploymentModel::Full => None,
        };
        let (embedding, placer) = match landmark_draw {
            Some(landmark_ids) => {
                if let LatencyState::Lazy(lazy) = &latency {
                    // The landmark rows are the only latency sources the
                    // protocol and every placement read; compute them in
                    // parallel up front and keep them resident.
                    let sources: Vec<NodeId> =
                        landmark_ids.iter().map(|&i| NodeId(i as u32)).collect();
                    lazy.ensure_rows(&sources, pool.as_ref());
                }
                let placer = config.vivaldi.embed_landmarks_only(&latency.provider(), seed);
                let dims = config.vivaldi.dims;
                let mut coords = vec![vec![0.0; dims]; n];
                let mut heights = vec![0.0; n];
                let mut errors = vec![1.0; n];
                let mut is_landmark = vec![false; n];
                for (idx, &lm) in placer.landmark_ids().iter().enumerate() {
                    let state = placer.landmark_state(idx);
                    coords[lm].copy_from_slice(&state.coord);
                    heights[lm] = state.height;
                    errors[lm] = state.error;
                    is_landmark[lm] = true;
                }
                for node in 0..n {
                    if arrived[node] && !is_landmark[node] {
                        let mut rng = derive_rng(seed, PLACE_STREAM ^ node as u64);
                        let state =
                            placer.place(&latency.provider(), NodeId(node as u32), &mut rng);
                        coords[node] = state.coord;
                        heights[node] = state.height;
                        errors[node] = state.error;
                    }
                }
                // Unarrived non-landmark nodes sit at the origin until they
                // join; they are unmapped until then, so the placeholder is
                // never served.
                (VivaldiEmbedding { coords, heights, errors }, Some(placer))
            }
            None => {
                let embedding = config.vivaldi.embed(&latency.provider(), seed);
                if let LatencyState::Lazy(lazy) = &latency {
                    // The embedding touched every row once; the steady
                    // state only reads rows of circuit hosts, so free the
                    // warm-up cache.
                    lazy.evict_all();
                }
                (embedding, None)
            }
        };
        let mut rng = derive_rng(seed, 0x0ead);
        let attrs = config.initial_load.generate(n, &mut rng);
        let space =
            CostSpaceBuilder::latency_load_space_scaled(&embedding, &attrs, config.load_scale);
        let members: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|node| arrived[node.index()]).collect();
        // The catalog backends share one sizing: grid resolution capped so
        // the Hilbert key fits the 128-bit ring whatever the space's
        // dimensionality, and the full scalar range — load churn must never
        // push a registered coordinate outside the quantizer box.
        let catalog_config = |bits: u32, scan_width| DhtMapperConfig {
            bits: bits.min((128 / space.dims() as u32).max(1)),
            scan_width,
            ..DhtMapperConfig::default()
        };
        let mapper = match config.mapper_backend {
            MapperBackend::Dht { bits, scan_width } => MapperState::Dht(
                DhtMapper::build_with_members(&space, &catalog_config(bits, scan_width), &members),
            ),
            MapperBackend::Oracle => {
                MapperState::Oracle(LiveOracleMapper::with_members(n, members))
            }
            MapperBackend::Routed { bits, scan_width, proto } => {
                MapperState::Routed(RoutedMapper::build_with_members(
                    &space,
                    &catalog_config(bits, scan_width),
                    proto,
                    &members,
                ))
            }
        };
        let multiquery = match config.reuse {
            ReuseScope::None => None,
            _ => Some(MultiQueryOptimizer::new(OptimizerConfig::default())),
        };
        let obs = RuntimeObs::new(&config.obs);
        OverlayRuntime {
            optimizer: IntegratedOptimizer::new(OptimizerConfig::default()),
            config,
            seed,
            latency,
            attrs,
            space,
            embedding,
            placer,
            pool,
            circuits: Vec::new(),
            rng,
            multiquery,
            retained: Vec::new(),
            mapper,
            relevance: RelevanceIndex::new(),
            obs,
            alive: vec![true; n],
            arrived,
            pending_joins,
            pending_failures: Vec::new(),
            failed_circuits: Vec::new(),
            next_handle: 0,
        }
    }

    /// Schedules a node failure at `at_ms` into the run. Services hosted on
    /// the dead node are immediately re-placed on live nodes; circuits whose
    /// *pinned* services (producers, consumer) die are torn down and
    /// reported in [`OverlayRuntime::failed_circuits`].
    pub fn schedule_failure(&mut self, at_ms: f64, node: NodeId) {
        self.pending_failures.push((at_ms, node));
    }

    /// Circuits lost to pinned-service failures so far.
    pub fn failed_circuits(&self) -> &[CircuitHandle] {
        &self.failed_circuits
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Whether a node has arrived (always true under
    /// [`DeploymentModel::Full`]).
    pub fn is_arrived(&self, node: NodeId) -> bool {
        self.arrived[node.index()]
    }

    /// Number of nodes that have arrived so far.
    pub fn arrived_count(&self) -> usize {
        self.arrived.iter().filter(|&&a| a).count()
    }

    /// Kills `node` now: evacuates unpinned services, tears down circuits
    /// with dead pinned services. Returns the number of evacuated services.
    fn fail_node(&mut self, node: NodeId) -> usize {
        if !self.alive[node.index()] {
            return 0;
        }
        self.alive[node.index()] = false;
        // The maintenance contract: the dead node leaves the mapper, so no
        // control-plane path can ever map onto it again. Clean records that
        // scanned its registration (or read its cost point) go dirty.
        self.relevance.touch_mapper(self.mapper.as_dyn().remove_node(node));
        self.relevance.touch_host(node);
        let placer = RelaxationPlacer::default();
        let mut evacuated = 0;

        // Tear down circuits whose pinned services died. Under reuse, each
        // dead circuit force-leaves the registry (its instances died with
        // it), and the failure **cascades**: circuits subscribed to a
        // torn-down instance lose their feed and are torn down too, as are
        // retained shared subtrees with a service on the dead node.
        let mut drained: Vec<(CircuitId, ServiceId)> = Vec::new();
        let mut idle: Vec<(CircuitId, ServiceId)> = Vec::new();
        let mut orphans: VecDeque<CircuitId> = VecDeque::new();
        let mut idx = 0;
        while idx < self.circuits.len() {
            let dead_pin =
                self.circuits[idx].circuit.services().iter().any(
                    |s| matches!(s.pin, sbon_core::circuit::ServicePin::Pinned(n) if n == node),
                );
            if dead_pin {
                let d = self.circuits.remove(idx);
                self.failed_circuits.push(d.handle);
                self.relevance.remove(d.handle.0 as u64);
                if let (Some(mq), Some(id)) = (&mut self.multiquery, d.mq_id) {
                    if let Some(rep) = mq.teardown_reporting(id) {
                        drained.extend(rep.drained);
                        idle.extend(rep.idle);
                        orphans.extend(rep.orphaned);
                    }
                }
            } else {
                idx += 1;
            }
        }
        // Retained shared subtrees with any service on the dead node are
        // broken: their (departed) owners join the teardown worklist.
        orphans.extend(self.retained.iter().filter_map(|r| {
            let mask = subtree_mask(&r.circuit, &r.roots);
            let broken = r
                .circuit
                .services()
                .iter()
                .any(|s| mask[s.id.index()] && r.placement.node_of(s.id) == node);
            broken.then_some(r.owner)
        }));
        // Cascade: tear down orphaned subscribers (and whatever their
        // teardown orphans in turn).
        while let Some(id) = orphans.pop_front() {
            if let Some(pos) = self.circuits.iter().position(|d| d.mq_id == Some(id)) {
                let d = self.circuits.remove(pos);
                self.failed_circuits.push(d.handle);
                self.relevance.remove(d.handle.0 as u64);
            }
            self.retained.retain(|r| r.owner != id);
            if let Some(mq) = &mut self.multiquery {
                if let Some(rep) = mq.teardown_reporting(id) {
                    drained.extend(rep.drained);
                    idle.extend(rep.idle);
                    orphans.extend(rep.orphaned);
                }
            }
        }
        self.apply_drains(&drained);
        self.apply_idle(&idle);

        // Evacuate unpinned services stranded on the dead node, through the
        // same runtime-owned mapper every other control-plane path uses.
        for d in &mut self.circuits {
            let stranded: Vec<_> = d
                .circuit
                .services()
                .iter()
                .filter(|s| s.is_unpinned() && d.placement.node_of(s.id) == node)
                .map(|s| s.id)
                .collect();
            if stranded.is_empty() {
                continue;
            }
            // Evacuation rewrites the placement: the circuit is dirty for
            // every pass kind.
            self.relevance.mark_dirty(d.handle.0 as u64);
            let vp = sbon_core::placement::VirtualPlacer::place(&placer, &d.circuit, &self.space);
            for sid in stranded {
                let ideal = self.space.ideal_point(vp.coord_of(sid));
                let (new_node, _) = self.mapper.as_dyn().map_point(&self.space, &ideal);
                d.placement.move_service(sid, new_node);
                // Keep the reuse-discovery index truthful about the host.
                if let (Some(mq), Some(id)) = (&mut self.multiquery, d.mq_id) {
                    mq.relocate(id, sid, new_node, &self.space);
                }
                evacuated += 1;
            }
        }
        evacuated
    }

    /// Applies cascaded drains reported by the registry: retained subtrees
    /// whose last subscriber left stop accruing usage.
    fn apply_drains(&mut self, drained: &[(CircuitId, ServiceId)]) {
        for &(owner, root) in drained {
            let Some(pos) = self.retained.iter().position(|r| r.owner == owner) else {
                continue;
            };
            let entry = &mut self.retained[pos];
            entry.roots.retain(|&s| s != root);
            if entry.roots.is_empty() {
                self.retained.remove(pos);
            } else {
                entry.charge = charge_mask(&entry.circuit, &entry.roots, &entry.owner_shared);
            }
        }
    }

    /// Whether a circuit is tenancy-entangled: it borrows shared subtrees
    /// from others, or others subscribe to one of its instances. Entangled
    /// circuits must not have their plan replaced (the swap would strand
    /// tenants); untenanted ones may, with a registry re-registration.
    fn is_entangled(multiquery: &Option<MultiQueryOptimizer>, d: &Deployed) -> bool {
        let Some(mq) = multiquery else { return false };
        let Some(id) = d.mq_id else { return false };
        d.shared.iter().any(|&s| s)
            || d.circuit.services().iter().any(|s| mq.refcount(id, s.id) > 0)
    }

    /// Serial pre-filter of one adaptation pass: the indices of circuits
    /// the pass must evaluate. `skip_entangled` applies the tenancy rule of
    /// the plan-replacing passes; the dirty filter (when
    /// [`RuntimeConfig::incremental_reopt`] is on) drops circuits whose
    /// re-opt inputs are unchanged since their last no-op `kind`
    /// evaluation. Entangled circuits count toward neither evaluated nor
    /// skipped — they were never candidates.
    fn dirty_circuits(&mut self, kind: ReoptKind, skip_entangled: bool) -> Vec<usize> {
        let mut eval = Vec::new();
        let mut skipped = 0u64;
        for (i, d) in self.circuits.iter().enumerate() {
            if skip_entangled && Self::is_entangled(&self.multiquery, d) {
                continue;
            }
            if self.config.incremental_reopt && !self.relevance.is_dirty(kind, d.handle.0 as u64) {
                skipped += 1;
                continue;
            }
            eval.push(i);
        }
        self.obs.registry.inc(self.obs.h.reopt_skipped, skipped);
        self.obs.registry.inc(self.obs.h.reopt_evaluated, eval.len() as u64);
        eval
    }

    /// Lifts the tenancy pin from instances whose last subscriber left
    /// while their owner keeps running — they are migratable again.
    fn apply_idle(&mut self, idle: &[(CircuitId, ServiceId)]) {
        for &(owner, service) in idle {
            if let Some(d) = self.circuits.iter_mut().find(|d| d.mq_id == Some(owner)) {
                d.circuit.unpin_service(service);
                // The unpin changes what the passes may migrate/replace.
                self.relevance.mark_dirty(d.handle.0 as u64);
            }
        }
    }

    /// The cost space (for inspection).
    pub fn space(&self) -> &CostSpace {
        &self.space
    }

    /// Ground-truth latency (for inspection). Backed by the dense matrix or
    /// the lazy row cache depending on [`RuntimeConfig::latency_backend`];
    /// both serve identical values.
    pub fn latency(&self) -> &dyn LatencyProvider {
        self.latency.provider()
    }

    /// Row-cache counters of the lazy backend; `None` under the dense one.
    pub fn lazy_latency_stats(&self) -> Option<LazyLatencyStats> {
        match &self.latency {
            LatencyState::Lazy(lazy) => Some(lazy.stats()),
            LatencyState::Dense { .. } => None,
        }
    }

    /// Name of the active physical-mapping backend.
    pub fn mapper_name(&self) -> &'static str {
        match &self.mapper {
            MapperState::Dht(m) => m.name(),
            MapperState::Oracle(m) => m.name(),
            MapperState::Routed(m) => m.name(),
        }
    }

    /// Catalog traffic counters of the DHT mapper; `None` under the oracle
    /// backend.
    pub fn dht_stats(&self) -> Option<CatalogStats> {
        match &self.mapper {
            MapperState::Dht(m) => Some(m.stats()),
            MapperState::Oracle(_) => None,
            MapperState::Routed(m) => Some(m.routed().catalog().stats()),
        }
    }

    /// Message-traffic statistics of the routed control plane; `None`
    /// under the other backends.
    pub fn routed_stats(&self) -> Option<&RoutedStats> {
        match &self.mapper {
            MapperState::Routed(m) => Some(m.routed_stats()),
            _ => None,
        }
    }

    /// Accumulated control-plane accounting (refresh vs mapping vs
    /// latency-read time), assembled as a view over the metrics registry.
    /// Under [`MapperBackend::Routed`] the routed message-traffic summary
    /// (experienced latency percentiles, hop histogram, retries) is folded
    /// in at call time.
    pub fn control_plane_stats(&self) -> ControlPlaneStats {
        let r = &self.obs.registry;
        let h = &self.obs.h;
        let mut cp = ControlPlaneStats {
            ticks: r.counter_value(h.ticks) as usize,
            dirty_nodes: r.counter_value(h.dirty_nodes) as usize,
            points_updated: r.counter_value(h.points_updated) as usize,
            nodes_joined: r.counter_value(h.nodes_joined) as usize,
            join_ns: u128::from(r.counter_value(h.join_ns)),
            refresh_ns: u128::from(r.counter_value(h.refresh_ns)),
            local_reopt_ns: u128::from(r.counter_value(h.local_reopt_ns)),
            rewrite_ns: u128::from(r.counter_value(h.rewrite_ns)),
            full_reopt_ns: u128::from(r.counter_value(h.full_reopt_ns)),
            evac_ns: u128::from(r.counter_value(h.evac_ns)),
            reopt_evaluated: r.counter_value(h.reopt_evaluated) as usize,
            reopt_skipped: r.counter_value(h.reopt_skipped) as usize,
            candidates_pruned: r.counter_value(h.candidates_pruned) as usize,
            usage_ns: u128::from(r.counter_value(h.usage_ns)),
            ..ControlPlaneStats::default()
        };
        if let Some(rs) = self.routed_stats() {
            cp.routed_messages = rs.messages;
            cp.routed_lookups = rs.lookups;
            cp.routed_retries = rs.retries;
            cp.routed_timeouts = rs.timeouts;
            cp.routed_hop_histogram = rs.hop_histogram();
            cp.routed_p50_latency_ms = rs.p50_latency_ms();
            cp.routed_p99_latency_ms = rs.p99_latency_ms();
        }
        cp
    }

    /// A point-in-time snapshot of the runtime's metrics registry. Under
    /// [`MapperBackend::Routed`] the routed traffic counters and the
    /// hop/latency histograms are folded in under `routed.*` keys. Two
    /// snapshots [`MetricsSnapshot::diff`] into a per-interval view.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        if let Some(rs) = self.routed_stats() {
            snap.counters.insert("routed.messages".into(), rs.messages);
            snap.counters.insert("routed.lookups".into(), rs.lookups);
            snap.counters.insert("routed.registrations".into(), rs.registrations);
            snap.counters.insert("routed.unregistrations".into(), rs.unregistrations);
            snap.counters.insert("routed.retries".into(), rs.retries);
            snap.counters.insert("routed.timeouts".into(), rs.timeouts);
            snap.histograms.insert("routed.hops".into(), HistogramSnapshot::of(&rs.hops));
            snap.histograms
                .insert("routed.latency_ms".into(), HistogramSnapshot::of(&rs.latency_ms));
        }
        snap
    }

    /// The flight recorder's retained tail, when one is configured.
    pub fn flight_dump(&self) -> Option<String> {
        self.obs.flight.as_ref().map(|f| f.dump())
    }

    /// Trace events emitted so far; `None` when tracing is off.
    pub fn trace_events_emitted(&self) -> Option<u64> {
        self.obs.tracer.as_ref().map(|t| t.emitted)
    }

    /// Finishes tracing: flushes every sink and detaches them (subsequent
    /// spans are dropped). Returns the sinks for inspection. Dropping the
    /// runtime flushes implicitly; call this to read a trace file while
    /// the runtime is still alive.
    pub fn finish_trace(&mut self) -> Option<Vec<Box<dyn TraceSink>>> {
        self.obs.tracer.take().map(Tracer::finish)
    }

    /// Replays lookups and registrations parked by the routed mapper as
    /// message traffic on the live latency provider, driving the control
    /// plane's event queue to quiescence. A no-op under the other
    /// backends. Runs only on serial paths (tick boundaries, deploy,
    /// failure handling), so thread count never touches the routed clock.
    fn settle_routed(&mut self, at: SimTime) {
        let MapperState::Routed(m) = &mut self.mapper else { return };
        if m.pending_traffic() == 0 && m.routed().is_quiescent() {
            return;
        }
        let before = {
            let rs = m.routed_stats();
            (rs.messages, rs.lookups, rs.registrations, rs.timeouts)
        };
        let provider = self.latency.provider();
        let link = |a: u32, b: u32| provider.latency(NodeId(a), NodeId(b));
        m.settle(at, &link);
        let (msgs, lookups, regs, timeouts) = {
            let rs = m.routed_stats();
            (
                rs.messages - before.0,
                rs.lookups - before.1,
                rs.registrations - before.2,
                rs.timeouts - before.3,
            )
        };
        self.obs.point("routed.settle", || {
            vec![
                ("messages", msgs.into()),
                ("lookups", lookups.into()),
                ("registrations", regs.into()),
            ]
        });
        if timeouts > 0 {
            self.obs.flight_anomaly("routed", "timeout_storm", || {
                format!("{timeouts} routed timeouts fired in one settle")
            });
        }
    }

    /// Makes the shortest-path rows of `sources` resident before they are
    /// read, computing the missing ones in parallel across the worker pool
    /// when one is active. A no-op under the dense backend and for rows
    /// already resident. Row *computation* is pure and order-free; insertion
    /// happens on this thread in first-occurrence order — for sources listed
    /// in read order, the order serial reads would first touch them — so
    /// cache state and all served values are identical at any thread count.
    fn prewarm_rows(&self, sources: &[NodeId]) {
        if let LatencyState::Lazy(lazy) = &self.latency {
            lazy.ensure_rows(sources, self.pool.as_ref());
        }
    }

    /// Prewarms every row the next usage accounting pass will read: the
    /// upstream endpoint of each charged link.
    fn prewarm_usage_rows(&self) {
        if !matches!(self.latency, LatencyState::Lazy(_)) {
            return;
        }
        let mut sources: Vec<NodeId> = Vec::new();
        for d in &self.circuits {
            sources.extend(link_sources(&d.placement, d.charged_links()));
        }
        for r in &self.retained {
            sources.extend(link_sources(&r.placement, r.charged_links()));
        }
        self.prewarm_rows(&sources);
    }

    /// Current instantaneous network usage: every live circuit's *charged*
    /// links (marginal links under reuse — links paid for by a reused
    /// instance's owner are skipped) plus the links of retained shared
    /// subtrees whose owners departed but whose subscribers remain.
    pub fn instantaneous_usage(&self) -> f64 {
        let usage = |placement: &Placement, l: &Link| {
            l.rate * self.latency.query(placement.node_of(l.from), placement.node_of(l.to))
        };
        // Summed per circuit, then across circuits: the order is part of the
        // bit-identical usage contract.
        let live: f64 = self
            .circuits
            .iter()
            .map(|d| d.charged_links().map(|l| usage(&d.placement, l)).sum::<f64>())
            .sum();
        let retained: f64 = self
            .retained
            .iter()
            .map(|r| r.charged_links().map(|l| usage(&r.placement, l)).sum::<f64>())
            .sum();
        // `+ 0.0` normalizes the empty-sum identity `-0.0` to `+0.0` (and
        // changes nothing else), so idle baselines print and compare as
        // plain zero.
        live + retained + 0.0
    }

    /// Optimizes and deploys a query; returns its handle. Candidate plans
    /// are physically mapped through the runtime-owned mapper (routed DHT
    /// lookups under the default backend). With [`RuntimeConfig::reuse`]
    /// enabled the query may attach to running operator subtrees; each
    /// attachment subscribes to (refcounts) the instance and pins it in its
    /// owner's circuit so re-optimization stops migrating it.
    pub fn deploy(&mut self, query: QuerySpec) -> Option<CircuitHandle> {
        let sp = self.obs.span_start("deploy", Vec::new);
        let deployed = self.deploy_inner(query);
        match deployed {
            Some(handle) => {
                self.obs.span_end(sp, || vec![("handle", handle.0.into())]);
                self.obs.flight("runtime", "deploy", || format!("handle {}", handle.0));
            }
            None => {
                self.obs.span_end(sp, || vec![("failed", 1u64.into())]);
                self.obs.flight_anomaly("runtime", "deploy_failed", || {
                    "optimizer produced no deployable plan".to_string()
                });
            }
        }
        deployed
    }

    fn deploy_inner(&mut self, query: QuerySpec) -> Option<CircuitHandle> {
        let (running_plan, circuit, placement, mq_id, shared, reused) = match &mut self.multiquery {
            Some(mq) => {
                let out = mq.optimize_and_deploy_with_mapper(
                    &query,
                    &self.space,
                    self.latency.provider(),
                    self.config.reuse,
                    self.mapper.as_dyn(),
                )?;
                self.obs
                    .registry
                    .gauge_add(self.obs.h.marginal_usage, out.marginal_cost.network_usage);
                self.obs
                    .registry
                    .gauge_add(self.obs.h.standalone_usage, out.standalone_cost.network_usage);
                if !out.reused.is_empty() {
                    self.obs.registry.inc(self.obs.h.reuse_hits, 1);
                }
                self.obs.registry.inc(self.obs.h.reused_services, out.reused.len() as u64);
                (out.plan, out.circuit, out.placement, Some(out.id), out.shared, out.reused)
            }
            None => {
                // Select in the cost space, then measure the winner alone,
                // its link-source rows faulted in as one batch in link order.
                let placed = self.optimizer.optimize_with_mapper_estimated(
                    &query,
                    &self.space,
                    self.mapper.as_dyn(),
                )?;
                let sources: Vec<NodeId> =
                    link_sources(&placed.placement, placed.circuit.links().iter()).collect();
                self.prewarm_rows(&sources);
                let placed = placed.measured(self.latency.provider());
                self.obs.registry.gauge_add(self.obs.h.marginal_usage, placed.cost.network_usage);
                self.obs.registry.gauge_add(self.obs.h.standalone_usage, placed.cost.network_usage);
                (placed.plan, placed.circuit, placed.placement, None, Vec::new(), Vec::new())
            }
        };
        // Tenancy pin: a subscribed instance is load-bearing for its new
        // tenant, so its owner must stop migrating it.
        for inst in &reused {
            if let Some(owner) = self.circuits.iter_mut().find(|d| d.mq_id == Some(inst.circuit)) {
                owner.circuit.pin_service(inst.service, inst.node);
                // The pin changes the owner's adaptation surface.
                self.relevance.mark_dirty(owner.handle.0 as u64);
            }
        }
        let handle = CircuitHandle(self.next_handle);
        self.next_handle += 1;
        self.obs.registry.inc(self.obs.h.arrivals, 1);
        self.circuits.push(Deployed {
            handle,
            query,
            running_plan,
            circuit,
            placement,
            mq_id,
            shared,
        });
        // Routed backend: the deployment's mapping lookups are parked in
        // the mapper's outbox — replay them as message traffic now (the
        // routed clock carries the time forward between run ticks).
        self.settle_routed(SimTime::ZERO);
        Some(handle)
    }

    /// Tears a circuit down — the inverse of [`OverlayRuntime::deploy`].
    /// Its traffic is discharged from usage accounting immediately; under
    /// reuse, shared services it owns are **retained** while subscribers
    /// remain and released only when their refcount drains to zero.
    /// Returns `false` for unknown (or already failed / undeployed)
    /// handles.
    pub fn undeploy(&mut self, handle: CircuitHandle) -> bool {
        let Some(idx) = self.circuits.iter().position(|d| d.handle == handle) else {
            return false;
        };
        let d = self.circuits.remove(idx);
        self.obs.registry.inc(self.obs.h.departures, 1);
        self.obs.point("undeploy", || vec![("handle", handle.0.into())]);
        self.relevance.remove(d.handle.0 as u64);
        if let (Some(mq), Some(mq_id)) = (&mut self.multiquery, d.mq_id) {
            if let Some(rep) = mq.release(mq_id) {
                if !rep.retained.is_empty() {
                    let charge = charge_mask(&d.circuit, &rep.retained, &d.shared);
                    self.retained.push(RetainedShared {
                        owner: mq_id,
                        circuit: d.circuit,
                        placement: d.placement,
                        owner_shared: d.shared,
                        roots: rep.retained,
                        charge,
                    });
                }
                self.apply_drains(&rep.drained);
                self.apply_idle(&rep.idle);
            }
        }
        true
    }

    /// Queries currently running (the active-query gauge; retained shared
    /// subtrees of departed queries are not counted).
    pub fn active_queries(&self) -> usize {
        self.circuits.len()
    }

    /// Departed circuits' shared subtrees still running for subscribers.
    pub fn retained_shared_subtrees(&self) -> usize {
        self.retained.len()
    }

    /// Query-lifecycle accounting so far, assembled as a view over the
    /// metrics registry.
    pub fn lifecycle_stats(&self) -> QueryLifecycleStats {
        let r = &self.obs.registry;
        let h = &self.obs.h;
        QueryLifecycleStats {
            arrivals: r.counter_value(h.arrivals) as usize,
            departures: r.counter_value(h.departures) as usize,
            reuse_hits: r.counter_value(h.reuse_hits) as usize,
            reused_services: r.counter_value(h.reused_services) as usize,
            marginal_usage: r.gauge_value(h.marginal_usage),
            standalone_usage: r.gauge_value(h.standalone_usage),
        }
    }

    /// The reuse registry, when [`RuntimeConfig::reuse`] is enabled — for
    /// inspecting refcounts and instance counts.
    pub fn multiquery(&self) -> Option<&MultiQueryOptimizer> {
        self.multiquery.as_ref()
    }

    /// The current placement of a circuit. `None` after the circuit failed.
    pub fn placement(&self, handle: CircuitHandle) -> Option<&Placement> {
        self.circuits.iter().find(|d| d.handle == handle).map(|d| &d.placement)
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
        let lifecycle = self.lifecycle_stats();
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
                self.apply_churn();
                // Routed backend: replay the tick's parked registrations
                // (and any deploy-time lookups since the last boundary) as
                // message traffic over the *current* (possibly jittered)
                // latencies.
                self.settle_routed(now);
                // Accrue usage over the elapsed tick (usage·seconds). The
                // prewarm shards the tick's missing shortest-path rows
                // across the pool; the accounting pass then reads cached
                // rows only, so both phases bill to `usage_ns`.
                let t_usage = WallTimer::start();
                self.prewarm_usage_rows();
                let usage = self.instantaneous_usage();
                self.obs.registry.inc(self.obs.h.usage_ns, t_usage.elapsed_ns());
                let active = self.circuits.len();
                self.obs.span_end(sp, || vec![("usage", usage.into()), ("active", active.into())]);
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
                self.settle_routed(now);
                self.obs.registry.inc(self.obs.h.evac_ns, t0.elapsed_ns());
                self.obs.span_end(sp, || vec![("evacuated", evacuated.into())]);
                self.obs.flight("runtime", "node_fail", || {
                    format!("node {} failed; {evacuated} operators evacuated", node.index())
                });
                // Evacuations are migrations: charge the same penalty.
                s.report.migrations += evacuated;
                s.report.adaptation_cost += evacuated as f64 * self.config.migration_penalty;
            }
        }
    }

    /// One adaptation pass — the skeleton all three kinds share.
    /// Tenancy-entangled circuits are left out of the plan-replacing kinds
    /// (a plan swap under live subscriptions would strand tenants), and
    /// clean circuits are skipped by the dirty filter: they would reproduce
    /// their last no-op evaluation exactly. The rest are evaluated
    /// **read-only** — each with a fresh mapper view and nothing shared
    /// mutating, so the evaluations are independent and shard across the
    /// pool — and then committed serially in circuit order: deferred catalog
    /// traffic, the mutation (keeping the reuse-discovery index truthful
    /// about hosts and registrations), and the relevance verdict — dirty on
    /// change, else a clean record with the evaluation's observed read set.
    fn reopt_pass(&mut self, s: &mut RunSession, now: SimTime, kind: ReoptKind) {
        let (c, h) = (&self.config, &self.obs.h);
        let (span, wall_ns, interval, migrates) = match kind {
            ReoptKind::Local => ("reopt.local", h.local_reopt_ns, c.reopt_interval_ms, true),
            ReoptKind::Rewrite => ("reopt.rewrite", h.rewrite_ns, c.rewrite_interval_ms, false),
            ReoptKind::Full => ("reopt.full", h.full_reopt_ns, c.full_reopt_interval_ms, false),
        };
        let (changes, penalty) = if migrates {
            ("migrations", c.migration_penalty)
        } else {
            ("swaps", c.replacement_penalty)
        };
        let t0 = WallTimer::start();
        let sp = self.obs.span_start(span, Vec::new);
        let eval_idx = self.dirty_circuits(kind, !migrates);
        let results: Vec<(Verdict, usize, ReadObservation)> = {
            let (circuits, space, mapper) = (&self.circuits, &self.space, &self.mapper);
            let (placer, policy) = (RelaxationPlacer::default(), self.config.policy);
            run_parallel(&self.pool, &eval_idx, |i| {
                let d = &circuits[i];
                let mut view = mapper.read_view();
                let (verdict, pruned) = match kind {
                    ReoptKind::Local => {
                        let mut to = d.placement.clone();
                        let moved = reoptimize_local(
                            &d.circuit, &mut to, space, &placer, &mut view, policy,
                        )
                        .migrations;
                        if moved.is_empty() {
                            (Verdict::Keep, 0)
                        } else {
                            (Verdict::Migrate(to, moved), 0)
                        }
                    }
                    ReoptKind::Rewrite => match reoptimize_rewrite(
                        &d.running_plan,
                        d.running_est(space),
                        &d.query,
                        space,
                        &placer,
                        &mut view,
                        policy,
                    ) {
                        RewriteOutcome::Rewrite { replacement, pruned, .. } => {
                            (Verdict::Replace(replacement), pruned)
                        }
                        RewriteOutcome::Keep { pruned } => (Verdict::Keep, pruned),
                    },
                    ReoptKind::Full => match reoptimize_full(
                        d.running_est(space),
                        &d.query,
                        space,
                        &mut view,
                        OptimizerConfig::default(),
                        policy,
                    ) {
                        FullReoptOutcome::Replace { replacement, pruned, .. } => {
                            (Verdict::Replace(replacement), pruned)
                        }
                        FullReoptOutcome::Keep { pruned } => (Verdict::Keep, pruned),
                    },
                };
                (verdict, pruned, view.into_observation())
            })
        };
        let (mut changed, mut pruned) = (0, 0);
        for (&i, (verdict, spared, obs)) in eval_idx.iter().zip(results) {
            pruned += spared;
            self.mapper.charge_observed(&obs);
            let d = &mut self.circuits[i];
            let handle = d.handle.0 as u64;
            let registry = self.multiquery.as_mut().zip(d.mq_id);
            match verdict {
                Verdict::Keep => {
                    if self.config.incremental_reopt {
                        let hosts = circuit_hosts(&d.circuit, &d.placement);
                        self.relevance.record_clean(
                            kind,
                            handle,
                            ReadSet { spans: obs.spans, hosts, whole_space: obs.whole_space },
                        );
                    }
                    continue;
                }
                Verdict::Migrate(placement, migrations) => {
                    d.placement = placement;
                    if let Some((mq, id)) = registry {
                        for m in &migrations {
                            mq.relocate(id, m.service, m.to, &self.space);
                        }
                    }
                    changed += migrations.len();
                }
                Verdict::Replace(replacement) => {
                    if kind == ReoptKind::Rewrite {
                        d.running_plan = replacement.plan;
                    }
                    d.circuit = replacement.circuit;
                    d.placement = replacement.placement;
                    d.shared = Vec::new();
                    // The swap invalidates the old registration; the
                    // replacement's operators take its place.
                    if let Some((mq, id)) = registry {
                        mq.reregister(id, &d.circuit, &d.placement, &self.space);
                    }
                    changed += 1;
                }
            }
            self.relevance.mark_dirty(handle);
        }
        self.obs.registry.inc(wall_ns, t0.elapsed_ns());
        self.obs.registry.inc(self.obs.h.candidates_pruned, pruned as u64);
        let evaluated = eval_idx.len();
        self.obs.span_end(sp, || {
            let mut fields = vec![("evaluated", evaluated.into()), (changes, changed.into())];
            if !migrates {
                fields.push(("pruned", pruned.into()));
            }
            fields
        });
        let tally = if migrates { &mut s.report.migrations } else { &mut s.report.replacements };
        *tally += changed;
        s.report.adaptation_cost += changed as f64 * penalty;
        if let Some(interval) = interval {
            if now.after(interval) <= s.horizon {
                s.queue.schedule(now.after(interval), Event::Reopt(kind));
            }
        }
    }

    /// One tick of environment dynamics. Cost-point maintenance is
    /// delta-driven: only the nodes the churn touched are recomputed, and
    /// only the points that actually changed are re-registered with the
    /// mapper — work proportional to the churned set, not the overlay.
    fn apply_churn(&mut self) {
        // Deployment wave: admit this tick's arrivals before churn so a
        // node can report load the tick it joins. Each arrival is one
        // O(log n) mapper registration (`add_node`), preceded — under
        // landmark mode — by a join-time Vivaldi placement against the
        // frozen landmarks that gives the node its vector coordinate the
        // moment it becomes mappable.
        if let DeploymentModel::Wave { joins_per_tick, .. } = self.config.deployment {
            let t_join = WallTimer::start();
            let mut joined = 0;
            while joined < joins_per_tick {
                let Some(node) = self.pending_joins.pop_front() else { break };
                if !self.alive[node.index()] {
                    continue; // failed before arrival: never joins
                }
                self.arrived[node.index()] = true;
                if let Some(placer) = &self.placer {
                    // Landmarks froze their coordinates at construction;
                    // everyone else is placed on arrival with a per-node
                    // RNG stream, so join order and batching cannot move
                    // the landing spot.
                    if !placer.landmark_ids().contains(&node.index()) {
                        let mut rng = derive_rng(self.seed, PLACE_STREAM ^ node.index() as u64);
                        let state = placer.place(&self.latency.provider(), node, &mut rng);
                        self.space.set_vector_coord(node, &state.coord);
                    }
                }
                // The arrival's catalog registration can change lookups
                // whose scanned region covers its key: invalidate exactly
                // those clean records (everything, under the oracle scan).
                let delta = self.mapper.as_dyn().add_node(&self.space, node);
                debug_assert!(
                    !matches!(delta, MapperDelta::Keys { old: Some(_), .. }),
                    "a joining node cannot be registered yet"
                );
                self.relevance.touch_mapper(delta);
                joined += 1;
            }
            self.obs.registry.inc(self.obs.h.nodes_joined, joined as u64);
            self.obs.registry.inc(self.obs.h.join_ns, t_join.elapsed_ns());
            if joined > 0 {
                self.obs.point("join.admit", || vec![("joined", joined.into())]);
            }
        }
        let dirty = self.config.churn.tick_dirty(&mut self.attrs, &mut self.rng);
        // Timing starts after the churn simulation itself: refresh_ns bills
        // only the control plane's reaction (point refresh + mapper sync).
        let t0 = WallTimer::start();
        self.obs.registry.inc(self.obs.h.ticks, 1);
        self.obs.registry.inc(self.obs.h.dirty_nodes, dirty.len() as u64);
        self.obs.registry.observe(self.obs.h.dirty_per_tick, dirty.len() as f64);
        // Dead nodes must not be re-registered with the mapper — their
        // catalog entry was removed on failure — and nodes still waiting
        // in the deployment wave are not registered yet.
        let dirty: Vec<NodeId> = dirty
            .into_iter()
            .filter(|node| self.alive[node.index()] && self.arrived[node.index()])
            .collect();
        // Evaluate the dirty points' scalar values in parallel (pure reads
        // of the space and the attribute table), then commit serially in
        // dirty order: bit-identical to the serial update at any thread
        // count, with the mapper only re-registering real changes.
        let values: Vec<Vec<f64>> = {
            let space = &self.space;
            let attrs = &self.attrs;
            let compute = |node: &NodeId| space.scalar_values(*node, attrs);
            match &self.pool {
                Some(pool) if dirty.len() > 1 => {
                    pool.install(|| dirty.par_iter().map(compute).collect())
                }
                _ => dirty.iter().map(compute).collect(),
            }
        };
        let mut updated = 0u64;
        for (&node, vals) in dirty.iter().zip(&values) {
            if self.space.apply_scalars(node, vals) {
                // Relevance invalidation rides the mapper sync: the moved
                // registration stabs clean records whose scanned ring
                // region covers either key, and the changed cost point
                // stabs every record that read this host's estimate.
                self.relevance.touch_mapper(self.mapper.as_dyn().update_node(&self.space, node));
                self.relevance.touch_host(node);
                updated += 1;
            }
        }
        self.obs.registry.inc(self.obs.h.points_updated, updated);
        self.obs.registry.inc(self.obs.h.refresh_ns, t0.elapsed_ns());
        let dirty_count = dirty.len();
        self.obs.point("churn.refresh", || {
            vec![("dirty", dirty_count.into()), ("updated", updated.into())]
        });
        let Some(jitter) = self.config.latency_jitter else {
            return;
        };
        if jitter.edges_per_tick == 0 {
            return;
        }
        // One shared edge-granular delta sequence; the backends differ only
        // in how they bring their derived state up to date.
        let rng = &mut self.rng;
        let deltas = match &self.latency {
            LatencyState::Dense { graph, base_edges, .. } => {
                sample_edge_deltas(rng, &jitter, graph, |e| base_edges[e.index()])
            }
            LatencyState::Lazy(lazy) => {
                sample_edge_deltas(rng, &jitter, lazy.graph(), |e| lazy.base_edge_latency(e))
            }
        };
        if deltas.is_empty() {
            return;
        }
        let delta_count = deltas.len();
        match &mut self.latency {
            LatencyState::Dense { current, graph, .. } => {
                for &(e, w) in &deltas {
                    graph.set_edge_latency(e, w);
                }
                *current = all_pairs_latency(graph);
                self.obs.point("latency.repair", || {
                    vec![("edges", delta_count.into()), ("dense_rebuild", 1u64.into())]
                });
            }
            LatencyState::Lazy(lazy) => {
                // Only logs the batch: each row is repaired by its next
                // read, so the point reports how many now await one.
                lazy.apply_edge_deltas(&deltas);
                self.obs.point("latency.repair", || {
                    vec![("edges", delta_count.into()), ("rows_stale", lazy.rows_stale().into())]
                });
            }
        }
    }
}

impl Drop for OverlayRuntime {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Post-mortem: dump the flight recorder's ring to stderr so the
            // last control-plane decisions survive the crash. The trace is
            // deliberately NOT finished here — flushing a sink can itself
            // panic, and a panic-during-panic aborts the process.
            if let Some(flight) = &self.obs.flight {
                if !flight.is_empty() {
                    eprintln!("{}", flight.dump());
                }
            }
        } else if let Some(tracer) = self.obs.tracer.take() {
            // Clean shutdown without an explicit `finish_trace()` call:
            // flush buffered trace events so JSONL files are complete.
            tracer.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    fn small_world(seed: u64) -> Topology {
        generate(&TransitStubConfig::with_total_nodes(80), seed)
    }

    fn demo_query(topo: &Topology) -> QuerySpec {
        let hosts = topo.host_candidates();
        QuerySpec::join_star(&[hosts[0], hosts[10], hosts[20], hosts[30]], hosts[40], 10.0, 0.02)
    }

    #[test]
    fn deploy_and_run_produces_samples() {
        let topo = small_world(1);
        let mut rt = OverlayRuntime::new(
            &topo,
            1,
            RuntimeConfig { horizon_ms: 10_000.0, ..Default::default() },
        );
        let q = demo_query(&topo);
        rt.deploy(q).unwrap();
        let report = rt.run();
        assert_eq!(report.samples.len(), 10);
        assert!(report.samples.iter().all(|s| s.network_usage > 0.0));
        // Cumulative usage must be non-decreasing.
        for w in report.samples.windows(2) {
            assert!(w[1].cumulative_usage >= w[0].cumulative_usage);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let topo = small_world(2);
        let build = || {
            let mut rt = OverlayRuntime::new(
                &topo,
                7,
                RuntimeConfig { horizon_ms: 8_000.0, ..Default::default() },
            );
            rt.deploy(demo_query(&topo)).unwrap();
            rt.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.network_usage, y.network_usage);
        }
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn no_reopt_means_no_migrations() {
        let topo = small_world(3);
        let mut rt = OverlayRuntime::new(
            &topo,
            3,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                reopt_interval_ms: None,
                full_reopt_interval_ms: None,
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        assert_eq!(report.migrations, 0);
        assert_eq!(report.replacements, 0);
        assert_eq!(report.adaptation_cost, 0.0);
    }

    #[test]
    fn static_network_without_churn_has_constant_usage() {
        let topo = small_world(4);
        let mut rt = OverlayRuntime::new(
            &topo,
            4,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                churn: ChurnProcess::None,
                latency_jitter: None,
                reopt_interval_ms: None,
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        let first = report.samples[0].network_usage;
        assert!(report.samples.iter().all(|s| (s.network_usage - first).abs() < 1e-9));
    }

    #[test]
    fn latency_jitter_moves_usage() {
        let topo = small_world(5);
        let mut rt = OverlayRuntime::new(
            &topo,
            5,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                churn: ChurnProcess::None,
                latency_jitter: Some(JitterModel {
                    // Gradual edge inflation: a small slice of the
                    // ~100-edge underlay rescales upward each tick, so
                    // usage keeps rising across the horizon instead of
                    // saturating the band inside tick 1.
                    edges_per_tick: 25,
                    factor_range: (1.5, 2.0),
                    band: (0.5, 3.0),
                }),
                reopt_interval_ms: None,
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        let first = report.samples[0].network_usage;
        let last = report.samples.last().unwrap().network_usage;
        assert!(last > first, "persistent inflation must raise usage: {first} -> {last}");
    }

    #[test]
    fn multiple_circuits_add_usage() {
        let topo = small_world(6);
        let mut rt = OverlayRuntime::new(
            &topo,
            6,
            RuntimeConfig { horizon_ms: 3_000.0, churn: ChurnProcess::None, ..Default::default() },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let one = rt.instantaneous_usage();
        rt.deploy(demo_query(&topo)).unwrap();
        let two = rt.instantaneous_usage();
        assert!(two > one * 1.5, "second circuit must add usage: {one} -> {two}");
    }

    #[test]
    fn failing_an_operator_host_evacuates_the_service() {
        // Deterministically scan seeds for a deployment where some unpinned
        // service lives apart from every pinned (producer/consumer) host —
        // killing a pinned host would tear the circuit down instead of
        // evacuating, which is not the scenario under test.
        let (mut rt, handle, victim) = (7u64..32)
            .find_map(|seed| {
                let topo = small_world(seed);
                let mut rt = OverlayRuntime::new(
                    &topo,
                    seed,
                    RuntimeConfig {
                        horizon_ms: 5_000.0,
                        churn: ChurnProcess::None,
                        reopt_interval_ms: None,
                        ..Default::default()
                    },
                );
                let handle = rt.deploy(demo_query(&topo))?;
                let placement = rt.placement(handle)?.clone();
                let d = &rt.circuits[0];
                let pinned: Vec<NodeId> = d
                    .circuit
                    .services()
                    .iter()
                    .filter_map(|s| match s.pin {
                        sbon_core::circuit::ServicePin::Pinned(n) => Some(n),
                        sbon_core::circuit::ServicePin::Unpinned => None,
                    })
                    .collect();
                let victim = d
                    .circuit
                    .unpinned_services()
                    .iter()
                    .map(|&sid| placement.node_of(sid))
                    .find(|n| !pinned.contains(n))?;
                Some((rt, handle, victim))
            })
            .expect("some seed separates an unpinned service from the pinned hosts");
        rt.schedule_failure(2_000.0, victim);
        let report = rt.run();
        assert!(!rt.is_alive(victim));
        assert!(report.migrations >= 1, "evacuation counts as migration");
        // The circuit survived and no service remains on the dead node.
        let after = rt.placement(handle).unwrap();
        assert!(after.as_slice().iter().all(|&n| n != victim));
        assert!(rt.failed_circuits().is_empty());
    }

    #[test]
    fn failing_a_producer_kills_the_circuit() {
        let topo = small_world(8);
        let mut rt = OverlayRuntime::new(
            &topo,
            8,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                churn: ChurnProcess::None,
                reopt_interval_ms: None,
                ..Default::default()
            },
        );
        let q = demo_query(&topo);
        let producer = q.producer_of(sbon_query::stream::StreamId(0));
        let handle = rt.deploy(q).unwrap();
        rt.schedule_failure(2_000.0, producer);
        let report = rt.run();
        assert_eq!(rt.failed_circuits(), &[handle]);
        assert!(rt.placement(handle).is_none(), "dead circuits have no placement");
        // Usage drops to zero once the only circuit is gone.
        let last = report.samples.last().unwrap();
        assert_eq!(last.network_usage, 0.0);
    }

    #[test]
    fn rewrite_adaptation_runs_and_preserves_query_semantics() {
        let topo = small_world(10);
        let mut rt = OverlayRuntime::new(
            &topo,
            10,
            RuntimeConfig {
                horizon_ms: 30_000.0,
                reopt_interval_ms: None,
                rewrite_interval_ms: Some(5_000.0),
                churn: ChurnProcess::RandomWalk { std_dev: 0.15 },
                latency_jitter: Some(JitterModel { edges_per_tick: 500, ..Default::default() }),
                ..Default::default()
            },
        );
        let q = demo_query(&topo);
        let sources_before: Vec<_> = q.join_set.clone();
        let handle = rt.deploy(q).unwrap();
        let plan_before = rt.circuits[0].running_plan.clone();
        let report = rt.run();
        // Whether or not a rewrite fired (churn-dependent), the running plan
        // must still cover exactly the original sources.
        let plan_after = &rt.circuits[0].running_plan;
        let mut srcs = plan_after.sources();
        srcs.sort();
        let mut expect = sources_before;
        expect.sort();
        assert_eq!(srcs, expect);
        assert!(rt.placement(handle).is_some());
        // Replacements counted if any happened.
        if plan_after.render() != plan_before.render() {
            assert!(report.replacements > 0);
        }
    }

    /// Without jitter the two backends see bit-identical latencies at every
    /// query, so entire runs — embedding, deployment, churn, re-opt — must
    /// produce bit-identical reports.
    #[test]
    fn lazy_backend_run_is_bit_identical_to_dense() {
        let topo = small_world(11);
        let run = |backend| {
            let mut rt = OverlayRuntime::new(
                &topo,
                11,
                RuntimeConfig {
                    horizon_ms: 10_000.0,
                    latency_backend: backend,
                    ..Default::default()
                },
            );
            rt.deploy(demo_query(&topo)).unwrap();
            rt.run()
        };
        let dense = run(LatencyBackend::Dense);
        let lazy = run(LatencyBackend::Lazy);
        assert_eq!(dense.samples.len(), lazy.samples.len());
        for (d, l) in dense.samples.iter().zip(&lazy.samples) {
            assert_eq!(d.network_usage, l.network_usage);
            assert_eq!(d.cumulative_usage, l.cumulative_usage);
        }
        assert_eq!(dense.migrations, lazy.migrations);
        assert_eq!(dense.replacements, lazy.replacements);
    }

    #[test]
    fn lazy_backend_jitter_run_is_deterministic_and_moves_usage() {
        let topo = small_world(12);
        let run = || {
            let mut rt = OverlayRuntime::new(
                &topo,
                12,
                RuntimeConfig {
                    horizon_ms: 6_000.0,
                    churn: ChurnProcess::None,
                    reopt_interval_ms: None,
                    latency_backend: LatencyBackend::Lazy,
                    latency_jitter: Some(JitterModel {
                        // Gradual edge inflation: a small slice of the
                        // ~100-edge underlay rescales upward each tick, so
                        // usage keeps rising across the horizon instead of
                        // saturating the band inside tick 1.
                        edges_per_tick: 25,
                        factor_range: (1.5, 2.0),
                        band: (0.5, 3.0),
                    }),
                    ..Default::default()
                },
            );
            rt.deploy(demo_query(&topo)).unwrap();
            let report = rt.run();
            let stats = rt.lazy_latency_stats().expect("lazy backend exposes stats");
            (report, stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.network_usage, y.network_usage);
        }
        assert_eq!(sa, sb);
        let first = a.samples[0].network_usage;
        let last = a.samples.last().unwrap().network_usage;
        assert!(last > first, "persistent edge inflation must raise usage: {first} -> {last}");
        assert!(
            sa.rows_repaired + sa.rows_rebuilt > 0,
            "rows read after edge jitter must be repaired in place"
        );
        // 25 deltas a tick against a ~100-edge underlay: rows the run stops
        // reading fall behind the edge-count-bounded delta log within a few
        // ticks and are let go instead of repaired. Nothing else leaves.
        assert_eq!(
            sa.rows_computed,
            sa.rows_cached as u64 + sa.rows_evicted + sa.rows_invalidated,
            "every computed row is resident, flushed after warm-up, or fell behind the log"
        );
    }

    #[test]
    fn lazy_row_cache_capacity_is_respected() {
        let topo = small_world(13);
        let mut rt = OverlayRuntime::new(
            &topo,
            13,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                latency_backend: LatencyBackend::Lazy,
                lazy_row_cache: Some(4),
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run();
        let stats = rt.lazy_latency_stats().unwrap();
        assert!(stats.rows_cached <= 4, "cache holds {} rows", stats.rows_cached);
        assert!(rt.lazy_latency_stats().is_some());
        // Dense runtimes expose no lazy stats.
        let dense = OverlayRuntime::new(&topo, 13, RuntimeConfig::default());
        assert!(dense.lazy_latency_stats().is_none());
    }

    #[test]
    fn default_backend_is_dht_and_charges_catalog_traffic() {
        let topo = small_world(14);
        let mut rt = OverlayRuntime::new(
            &topo,
            14,
            RuntimeConfig { horizon_ms: 5_000.0, ..Default::default() },
        );
        assert_eq!(rt.mapper_name(), "hilbert-dht");
        rt.deploy(demo_query(&topo)).unwrap();
        let stats = rt.dht_stats().expect("dht backend exposes catalog stats");
        assert!(stats.lookups > 0, "deployment must route through the catalog");
    }

    #[test]
    fn oracle_backend_runs_and_exposes_no_dht_stats() {
        let topo = small_world(15);
        let mut rt = OverlayRuntime::new(
            &topo,
            15,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                mapper_backend: MapperBackend::Oracle,
                ..Default::default()
            },
        );
        assert_eq!(rt.mapper_name(), "live-oracle");
        rt.deploy(demo_query(&topo)).unwrap();
        assert!(rt.dht_stats().is_none());
        let report = rt.run();
        assert_eq!(report.samples.len(), 5);
    }

    #[test]
    fn control_plane_stats_track_churned_nodes_only() {
        let topo = small_world(16);
        let n = topo.num_nodes();
        let run = |churn: ChurnProcess| {
            let mut rt = OverlayRuntime::new(
                &topo,
                16,
                RuntimeConfig {
                    horizon_ms: 10_000.0,
                    churn,
                    reopt_interval_ms: None,
                    ..Default::default()
                },
            );
            rt.deploy(demo_query(&topo)).unwrap();
            rt.run();
            rt.control_plane_stats()
        };
        let none = run(ChurnProcess::None);
        assert_eq!(none.dirty_nodes, 0);
        assert_eq!(none.points_updated, 0);
        assert_eq!(none.ticks, 10);

        let sparse = run(ChurnProcess::SparseWalk { nodes_per_tick: 4, std_dev: 0.2 });
        assert_eq!(sparse.dirty_nodes, 4 * 10, "sparse churn dirties its budget per tick");
        assert!(sparse.points_updated <= sparse.dirty_nodes);
        assert!(sparse.points_updated > 0);

        let full = run(ChurnProcess::RandomWalk { std_dev: 0.2 });
        assert_eq!(full.dirty_nodes, n * 10, "a full walk dirties every node every tick");
        assert!(
            sparse.dirty_nodes < full.dirty_nodes / 10,
            "delta maintenance must track churn, not overlay size"
        );
    }

    #[test]
    fn high_dimensional_space_caps_dht_bits_instead_of_panicking() {
        // 10 Vivaldi dims + 1 scalar = 11 dims; a fixed 12-bit grid would
        // need 132 key bits. The runtime must degrade to a coarser grid.
        let topo = small_world(18);
        let mut rt = OverlayRuntime::new(
            &topo,
            18,
            RuntimeConfig {
                horizon_ms: 3_000.0,
                vivaldi: VivaldiConfig { dims: 10, ..Default::default() },
                ..Default::default()
            },
        );
        assert_eq!(rt.mapper_name(), "hilbert-dht");
        rt.deploy(demo_query(&topo)).unwrap();
        let report = rt.run();
        assert_eq!(report.samples.len(), 3);
    }

    #[test]
    fn dht_evacuation_never_lands_on_dead_nodes() {
        // Kill several hosts mid-run under the DHT backend with churn and
        // re-opt active: every surviving placement must be on live nodes.
        let topo = small_world(17);
        let mut rt = OverlayRuntime::new(
            &topo,
            17,
            RuntimeConfig { horizon_ms: 20_000.0, ..Default::default() },
        );
        let handles: Vec<_> = (0..2).filter_map(|_| rt.deploy(demo_query(&topo))).collect();
        let victims = [topo.host_candidates()[55], topo.host_candidates()[61]];
        rt.schedule_failure(3_000.0, victims[0]);
        rt.schedule_failure(9_000.0, victims[1]);
        rt.run();
        for &h in &handles {
            if let Some(p) = rt.placement(h) {
                assert!(p.as_slice().iter().all(|&n| rt.is_alive(n)));
            }
        }
    }

    /// Deployment wave: the overlay grows over ticks, every admitted node
    /// registers with the mapper, and placements stay confined to arrived
    /// nodes throughout.
    #[test]
    fn deployment_wave_grows_the_overlay_over_ticks() {
        let topo = small_world(20);
        let n = topo.num_nodes();
        let mut rt = OverlayRuntime::new(
            &topo,
            20,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                deployment: DeploymentModel::Wave { initial: 30, joins_per_tick: 10 },
                churn: ChurnProcess::SparseWalk { nodes_per_tick: 8, std_dev: 0.1 },
                ..Default::default()
            },
        );
        assert_eq!(rt.arrived_count(), 30);
        // Deploy a query pinned on arrived hosts only.
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        assert!(hosts.len() >= 5, "initial wave must include some stub hosts");
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        let handle = rt.deploy(q).unwrap();
        // Everything mapped so far must be on arrived nodes.
        let placed = rt.placement(handle).unwrap().clone();
        assert!(placed.as_slice().iter().all(|&node| rt.is_arrived(node)));
        let report = rt.run();
        assert_eq!(report.samples.len(), 10);
        // 30 initial + 10 ticks × 10 joins ≥ 80 total: everyone arrived.
        assert_eq!(rt.arrived_count(), n);
        let cp = rt.control_plane_stats();
        assert_eq!(cp.nodes_joined, n - 30, "every pending node joined exactly once");
        // The DHT catalog holds the whole overlay after the wave.
        assert_eq!(rt.mapper_name(), "hilbert-dht");
    }

    /// With `joins_per_tick: 0` the wave never advances: the runtime must
    /// keep every placement confined to the initial membership.
    #[test]
    fn stalled_wave_confines_placements_to_initial_members() {
        let topo = small_world(21);
        let mut rt = OverlayRuntime::new(
            &topo,
            21,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                deployment: DeploymentModel::Wave { initial: 40, joins_per_tick: 0 },
                ..Default::default()
            },
        );
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        let handle = rt.deploy(q).unwrap();
        rt.run();
        assert_eq!(rt.arrived_count(), 40);
        assert_eq!(rt.control_plane_stats().nodes_joined, 0);
        let placed = rt.placement(handle).unwrap();
        assert!(
            placed.as_slice().iter().all(|&node| rt.is_arrived(node)),
            "re-optimization must never migrate onto an unarrived node"
        );
    }

    #[test]
    fn deployment_wave_is_deterministic() {
        let topo = small_world(22);
        let run = || {
            let mut rt = OverlayRuntime::new(
                &topo,
                22,
                RuntimeConfig {
                    horizon_ms: 8_000.0,
                    deployment: DeploymentModel::Wave { initial: 25, joins_per_tick: 7 },
                    churn: ChurnProcess::SparseWalk { nodes_per_tick: 4, std_dev: 0.1 },
                    ..Default::default()
                },
            );
            let hosts: Vec<NodeId> =
                topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
            let q = QuerySpec::join_star(
                &[hosts[0], hosts[1], hosts[2], hosts[3]],
                hosts[4],
                10.0,
                0.02,
            );
            rt.deploy(q).unwrap();
            let report = rt.run();
            (report, rt.control_plane_stats())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(ca.nodes_joined, cb.nodes_joined);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.network_usage, y.network_usage);
        }
    }

    /// A wave under the oracle backend behaves the same way: unarrived
    /// nodes are invisible to mapping until admitted.
    #[test]
    fn deployment_wave_works_under_oracle_backend() {
        let topo = small_world(23);
        let n = topo.num_nodes();
        let mut rt = OverlayRuntime::new(
            &topo,
            23,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                deployment: DeploymentModel::Wave { initial: 20, joins_per_tick: 20 },
                mapper_backend: MapperBackend::Oracle,
                ..Default::default()
            },
        );
        assert_eq!(rt.mapper_name(), "live-oracle");
        let hosts: Vec<NodeId> =
            topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
        let q =
            QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.02);
        rt.deploy(q).unwrap();
        rt.run();
        assert_eq!(rt.arrived_count(), n);
        assert_eq!(rt.control_plane_stats().nodes_joined, n - 20);
    }

    /// A node that fails while still queued in the wave must never join.
    #[test]
    fn failed_pending_node_never_joins() {
        let topo = small_world(24);
        let n = topo.num_nodes();
        let mut rt = OverlayRuntime::new(
            &topo,
            24,
            RuntimeConfig {
                horizon_ms: 10_000.0,
                deployment: DeploymentModel::Wave { initial: 10, joins_per_tick: 20 },
                churn: ChurnProcess::None,
                reopt_interval_ms: None,
                ..Default::default()
            },
        );
        let victim = (0..n as u32)
            .map(NodeId)
            .find(|&node| !rt.is_arrived(node))
            .expect("some node is still pending");
        rt.schedule_failure(500.0, victim); // before the first join tick
        rt.run();
        assert!(!rt.is_alive(victim));
        assert!(!rt.is_arrived(victim), "a dead pending node must not arrive");
        assert_eq!(rt.arrived_count(), n - 1);
    }

    /// deploy → undeploy restores instantaneous usage bit-identically and
    /// redeploying the same query reproduces the original placement.
    #[test]
    fn undeploy_restores_usage_and_redeploy_is_identical() {
        let topo = small_world(30);
        let mut rt = OverlayRuntime::new(
            &topo,
            30,
            RuntimeConfig { horizon_ms: 5_000.0, churn: ChurnProcess::None, ..Default::default() },
        );
        let baseline = rt.deploy(demo_query(&topo)).unwrap();
        let usage_before = rt.instantaneous_usage();
        let h = rt.deploy(demo_query(&topo)).unwrap();
        let usage_with = rt.instantaneous_usage();
        let placement_first = rt.placement(h).unwrap().clone();
        assert!(usage_with > usage_before);
        assert!(rt.undeploy(h));
        assert_eq!(rt.instantaneous_usage().to_bits(), usage_before.to_bits());
        assert!(!rt.undeploy(h), "double undeploy must fail");
        let h2 = rt.deploy(demo_query(&topo)).unwrap();
        assert_eq!(rt.placement(h2).unwrap(), &placement_first);
        assert_eq!(rt.instantaneous_usage().to_bits(), usage_with.to_bits());
        let stats = rt.lifecycle_stats();
        assert_eq!((stats.arrivals, stats.departures), (3, 1));
        assert_eq!(rt.active_queries(), 2);
        let _ = baseline;
    }

    /// With reuse enabled, identical queries attach to the running join,
    /// the marginal cost tally stays below standalone, and full departure
    /// drains every refcount and returns usage to the pre-workload state.
    #[test]
    fn reuse_tenancy_attaches_and_drains_to_baseline() {
        let topo = small_world(31);
        let mut rt = OverlayRuntime::new(
            &topo,
            31,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                churn: ChurnProcess::None,
                reuse: ReuseScope::All,
                ..Default::default()
            },
        );
        let baseline = rt.instantaneous_usage();
        assert_eq!(baseline, 0.0);
        let q = demo_query(&topo);
        let a = rt.deploy(q.clone()).unwrap();
        let b = rt.deploy(q.clone()).unwrap();
        let stats = rt.lifecycle_stats();
        assert_eq!(stats.reuse_hits, 1, "the second identical query attaches");
        assert!(stats.marginal_usage < stats.standalone_usage);
        let mq = rt.multiquery().expect("reuse registry active");
        assert_eq!(mq.total_subscriptions(), 1);

        // Owner departs first: the shared join is retained for b.
        assert!(rt.undeploy(a));
        assert_eq!(rt.retained_shared_subtrees(), 1);
        assert!(rt.instantaneous_usage() > 0.0, "retained subtree keeps accruing usage");
        // Last subscriber departs: everything drains to the baseline.
        assert!(rt.undeploy(b));
        assert_eq!(rt.retained_shared_subtrees(), 0);
        assert_eq!(rt.active_queries(), 0);
        assert_eq!(rt.instantaneous_usage().to_bits(), baseline.to_bits());
        let mq = rt.multiquery().unwrap();
        assert_eq!(mq.total_subscriptions(), 0);
        assert_eq!(mq.num_instances(), 0);
        assert_eq!(mq.num_retained(), 0);
    }

    /// A tenancy pin is lifted once the last subscriber departs: the
    /// owner's instance is migratable again, and the borrower's phantom
    /// copies of the shared subtree are co-pinned at the instance's host.
    #[test]
    fn tenancy_pin_is_lifted_when_refcount_drains() {
        let topo = small_world(33);
        let mut rt = OverlayRuntime::new(
            &topo,
            33,
            RuntimeConfig {
                horizon_ms: 5_000.0,
                churn: ChurnProcess::None,
                reuse: ReuseScope::All,
                ..Default::default()
            },
        );
        let q = demo_query(&topo);
        rt.deploy(q.clone()).unwrap();
        let owner_unpinned_before = rt.circuits[0].circuit.unpinned_services();
        assert!(!owner_unpinned_before.is_empty(), "owner operators start unpinned");
        let b = rt.deploy(q).unwrap();
        // The subscribed instance is pinned in the owner's circuit...
        assert!(
            rt.circuits[0].circuit.unpinned_services().len() < owner_unpinned_before.len(),
            "subscription must pin the reused instance"
        );
        // ...and the borrower's shared subtree is fully pinned (phantoms
        // co-located with the instance: no phantom migrations possible).
        let borrower = &rt.circuits[1];
        for (idx, &is_shared) in borrower.shared.iter().enumerate() {
            if is_shared {
                assert!(!borrower.circuit.service(ServiceId(idx as u32)).is_unpinned());
            }
        }
        assert!(rt.undeploy(b));
        assert_eq!(
            rt.circuits[0].circuit.unpinned_services(),
            owner_unpinned_before,
            "draining the refcount must lift the tenancy pin"
        );
    }

    /// Failure cascades through tenancy: killing the node that hosts a
    /// reused instance tears down the owner AND its subscribers, and a
    /// retained subtree with a service on the dead node drains instead of
    /// accruing usage (or serving reuse) forever.
    #[test]
    fn failure_of_shared_instance_host_cascades_to_subscribers() {
        let topo = small_world(34);
        let mut rt = OverlayRuntime::new(
            &topo,
            34,
            RuntimeConfig {
                horizon_ms: 8_000.0,
                churn: ChurnProcess::None,
                reopt_interval_ms: None,
                reuse: ReuseScope::All,
                ..Default::default()
            },
        );
        let q = demo_query(&topo);
        let a = rt.deploy(q.clone()).unwrap();
        let b = rt.deploy(q.clone()).unwrap();
        assert_eq!(rt.lifecycle_stats().reuse_hits, 1);
        // Find the shared instance's host: the node the borrower's reused
        // root is pinned at (an operator host, not a producer/consumer).
        let pinned_ops: Vec<NodeId> = rt.circuits[1]
            .circuit
            .services()
            .iter()
            .filter(|s| matches!(s.kind, sbon_core::circuit::ServiceKind::Operator { .. }))
            .filter_map(|s| match s.pin {
                sbon_core::circuit::ServicePin::Pinned(n) => Some(n),
                sbon_core::circuit::ServicePin::Unpinned => None,
            })
            .collect();
        let victim = *pinned_ops.first().expect("borrower has a pinned shared instance");
        // Owner departs first so the instance survives only as a retained
        // shared subtree, then the host dies mid-run.
        assert!(rt.undeploy(a));
        assert_eq!(rt.retained_shared_subtrees(), 1);
        rt.schedule_failure(2_000.0, victim);
        rt.run();
        assert!(!rt.is_alive(victim));
        // The retained subtree is gone, the subscriber was torn down, and
        // the registry holds nothing stale.
        assert_eq!(rt.retained_shared_subtrees(), 0);
        assert_eq!(rt.active_queries(), 0);
        assert!(rt.failed_circuits().contains(&b));
        let mq = rt.multiquery().unwrap();
        assert_eq!(mq.num_instances(), 0, "no stale instance may serve future reuse");
        assert_eq!(mq.total_subscriptions(), 0);
        assert_eq!(mq.num_retained(), 0);
        assert_eq!(rt.instantaneous_usage(), 0.0);
    }

    /// Plan-replacement adaptation stays alive under reuse for untenanted
    /// circuits: a run with full re-opt + rewrite enabled, churn, and no
    /// overlapping queries keeps the registry consistent with the live
    /// circuit set whether or not swaps fire.
    #[test]
    fn adaptation_under_reuse_keeps_registry_consistent() {
        let topo = small_world(35);
        let hosts = topo.host_candidates();
        let mut rt = OverlayRuntime::new(
            &topo,
            35,
            RuntimeConfig {
                horizon_ms: 30_000.0,
                churn: ChurnProcess::RandomWalk { std_dev: 0.35 },
                full_reopt_interval_ms: Some(3_000.0),
                rewrite_interval_ms: Some(4_000.0),
                policy: sbon_core::reopt::ReoptPolicy {
                    migration_threshold: 0.05,
                    // Any strictly-better circuit replaces: guarantees the
                    // swap → reregister path actually runs.
                    replacement_threshold: 0.0,
                },
                reuse: ReuseScope::All,
                ..Default::default()
            },
        );
        // Disjoint producer sets: no reuse possible, nothing entangled.
        let qa = QuerySpec::join_star(&[hosts[0], hosts[5], hosts[10]], hosts[15], 10.0, 0.02);
        let qb = QuerySpec::join_star(&[hosts[20], hosts[25], hosts[30]], hosts[35], 10.0, 0.02);
        rt.deploy(qa).unwrap();
        rt.deploy(qb).unwrap();
        assert_eq!(rt.lifecycle_stats().reuse_hits, 0);
        let instances_before = rt.multiquery().unwrap().num_instances();
        let report = rt.run();
        assert!(report.replacements > 0, "reuse must not silence plan replacement");
        let mq = rt.multiquery().unwrap();
        assert_eq!(mq.num_circuits(), rt.active_queries());
        assert_eq!(mq.total_subscriptions(), 0);
        // Replacements re-register under the same ids: no duplicate or
        // stale instances accumulate across swaps.
        assert_eq!(mq.num_instances(), instances_before);
    }

    /// Branch-and-bound accounting: what the rewrite and full passes prune
    /// lands in `ControlPlaneStats::candidates_pruned`, and the same counts
    /// ride on those passes' span ends as `pruned` (local passes examine no
    /// candidate plans and carry no such attribute).
    #[test]
    fn pruned_candidates_are_counted_and_traced() {
        let topo = small_world(41);
        let path =
            std::env::temp_dir().join(format!("sbon_pruned_trace_{}.jsonl", std::process::id()));
        let mut rt = OverlayRuntime::new(
            &topo,
            41,
            RuntimeConfig {
                horizon_ms: 12_000.0,
                churn: ChurnProcess::RandomWalk { std_dev: 0.1 },
                full_reopt_interval_ms: Some(3_000.0),
                rewrite_interval_ms: Some(4_000.0),
                obs: ObsConfig {
                    trace: Some(sbon_obs::TraceSpec::jsonl(41, path.clone())),
                    flight_capacity: 0,
                },
                ..Default::default()
            },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        rt.run();
        let pruned = rt.control_plane_stats().candidates_pruned;
        assert!(pruned > 0, "a 4-way star has join orders no placement can rescue");
        assert_eq!(
            rt.metrics_snapshot().counters["control_plane.candidates_pruned"],
            pruned as u64
        );
        drop(rt.finish_trace());
        let trace = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let mut traced = 0;
        for line in trace.lines().filter(|l| l.contains(r#""ev":"end""#)) {
            let attr = line.split_once(r#""pruned":"#).map(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse::<usize>().unwrap()
            });
            let plan_replacing = line.contains(r#""kind":"reopt.rewrite""#)
                || line.contains(r#""kind":"reopt.full""#);
            assert_eq!(attr.is_some(), plan_replacing, "{line}");
            traced += attr.unwrap_or(0);
        }
        assert_eq!(traced, pruned, "span attributes add up to the counter");
    }

    /// The session API: a run can be advanced tick-by-tick with mid-run
    /// arrivals and departures, and matches `run()` when driven to the end
    /// with no interleaved workload.
    #[test]
    fn session_api_matches_run_and_supports_midrun_lifecycle() {
        let topo = small_world(32);
        let build = || {
            let mut rt = OverlayRuntime::new(
                &topo,
                32,
                RuntimeConfig { horizon_ms: 8_000.0, ..Default::default() },
            );
            rt.deploy(demo_query(&topo)).unwrap();
            rt
        };
        let whole = {
            let mut rt = build();
            rt.run()
        };
        let stepped = {
            let mut rt = build();
            let mut session = rt.start_run();
            while rt.advance_ticks(&mut session, 1) {}
            rt.finish_run(session)
        };
        assert_eq!(whole.samples.len(), stepped.samples.len());
        for (a, b) in whole.samples.iter().zip(&stepped.samples) {
            assert_eq!(a.network_usage.to_bits(), b.network_usage.to_bits());
            assert_eq!(a.active_queries, b.active_queries);
        }
        assert_eq!(whole.migrations, stepped.migrations);

        // Mid-run lifecycle: deploy at tick 3, undeploy at tick 6; the
        // active-query gauge tracks it in the samples.
        let mut rt = build();
        let mut session = rt.start_run();
        assert!(rt.advance_ticks(&mut session, 3));
        let h = rt.deploy(demo_query(&topo)).unwrap();
        assert!(rt.advance_ticks(&mut session, 3));
        assert!(rt.undeploy(h));
        while rt.advance_ticks(&mut session, 1) {}
        let report = rt.finish_run(session);
        assert_eq!(report.samples.len(), 8);
        assert_eq!(report.samples[2].active_queries, 1);
        assert_eq!(report.samples[4].active_queries, 2);
        assert_eq!(report.samples[7].active_queries, 1);
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.departures, 1);
    }

    /// With the unified edge-granular jitter, both backends draw the same
    /// delta sequence from the run RNG and derive pairwise latencies from
    /// the same mutated graph — whole jittered runs must be bit-identical.
    #[test]
    fn jittered_run_is_bit_identical_across_backends() {
        let topo = small_world(40);
        let run = |backend| {
            let mut rt = OverlayRuntime::new(
                &topo,
                40,
                RuntimeConfig::builder()
                    .horizon_ms(8_000.0)
                    .churn(ChurnProcess::None)
                    .latency_backend(backend)
                    .latency_jitter(JitterModel {
                        edges_per_tick: 40,
                        factor_range: (0.8, 1.6),
                        band: (0.5, 3.0),
                    })
                    .build(),
            );
            rt.deploy(demo_query(&topo)).unwrap();
            rt.run()
        };
        let dense = run(LatencyBackend::Dense);
        let lazy = run(LatencyBackend::Lazy);
        assert_eq!(dense, lazy, "jittered runs must agree bit-for-bit across backends");
        let first = dense.samples[0].network_usage;
        assert!(
            dense.samples.iter().any(|s| s.network_usage != first),
            "jitter must actually move usage for the comparison to mean anything"
        );
    }

    /// The tentpole determinism contract: a run on an 8-thread pool is
    /// bit-identical to a serial run, across seeds, with every parallel
    /// stage active (row prewarm, scalar refresh, landmark placement wave,
    /// jitter-driven row repair).
    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let topo = small_world(41);
        let run = |seed: u64, threads: usize| {
            let mut rt = OverlayRuntime::new(
                &topo,
                seed,
                RuntimeConfig::builder()
                    .horizon_ms(10_000.0)
                    .threads(threads)
                    .latency_backend(LatencyBackend::Lazy)
                    .deployment(DeploymentModel::Wave { initial: 30, joins_per_tick: 10 })
                    .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() })
                    .churn(ChurnProcess::SparseWalk { nodes_per_tick: 12, std_dev: 0.15 })
                    .latency_jitter(JitterModel { edges_per_tick: 30, ..Default::default() })
                    .build(),
            );
            let hosts: Vec<NodeId> =
                topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
            let q = QuerySpec::join_star(
                &[hosts[0], hosts[1], hosts[2], hosts[3]],
                hosts[4],
                10.0,
                0.02,
            );
            rt.deploy(q).unwrap();
            let report = rt.run();
            (report, rt.lazy_latency_stats().unwrap(), rt.control_plane_stats())
        };
        for seed in [41u64, 97, 1234] {
            let (serial, serial_stats, serial_cp) = run(seed, 1);
            let (parallel, parallel_stats, parallel_cp) = run(seed, 8);
            assert_eq!(serial, parallel, "seed {seed}: thread count must not change the run");
            assert_eq!(serial_stats, parallel_stats, "seed {seed}: cache traffic must match");
            assert_eq!(
                (serial_cp.points_updated, serial_cp.nodes_joined, serial_cp.dirty_nodes),
                (parallel_cp.points_updated, parallel_cp.nodes_joined, parallel_cp.dirty_nodes),
                "seed {seed}: control-plane counters must match"
            );
        }
    }

    /// The builder is a pure constructor: a chained configuration and the
    /// equivalent struct literal run identically.
    #[test]
    fn builder_run_matches_struct_literal_run() {
        let topo = small_world(42);
        let built = RuntimeConfig::builder()
            .horizon_ms(6_000.0)
            .churn(ChurnProcess::SparseWalk { nodes_per_tick: 6, std_dev: 0.1 })
            .reopt_interval_ms(2_000.0)
            .full_reopt_interval_ms(None)
            .lazy_row_cache(16)
            .latency_backend(LatencyBackend::Lazy)
            .threads(1)
            .build();
        let literal = RuntimeConfig {
            horizon_ms: 6_000.0,
            churn: ChurnProcess::SparseWalk { nodes_per_tick: 6, std_dev: 0.1 },
            reopt_interval_ms: Some(2_000.0),
            full_reopt_interval_ms: None,
            lazy_row_cache: Some(16),
            latency_backend: LatencyBackend::Lazy,
            threads: 1,
            ..Default::default()
        };
        let run = |config: RuntimeConfig| {
            let mut rt = OverlayRuntime::new(&topo, 42, config);
            rt.deploy(demo_query(&topo)).unwrap();
            rt.run()
        };
        assert_eq!(run(built), run(literal));
    }

    /// `build()` rejects every time value the event loop cannot advance on
    /// — zero reschedules a pass at the same instant forever — and the
    /// panic names the field and the value.
    #[test]
    fn builder_rejects_non_positive_and_non_finite_times() {
        type Setter = fn(RuntimeConfigBuilder, f64) -> RuntimeConfigBuilder;
        let fields: [(&str, Setter); 5] = [
            ("tick_ms", |b, v| b.tick_ms(v)),
            ("horizon_ms", |b, v| b.horizon_ms(v)),
            ("reopt_interval_ms", |b, v| b.reopt_interval_ms(v)),
            ("rewrite_interval_ms", |b, v| b.rewrite_interval_ms(v)),
            ("full_reopt_interval_ms", |b, v| b.full_reopt_interval_ms(v)),
        ];
        for (field, set) in fields {
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let built = std::panic::catch_unwind(|| set(RuntimeConfig::builder(), bad).build());
                let panic = built.expect_err(&format!("{field} = {bad} must be rejected"));
                let message = panic.downcast_ref::<String>().expect("formatted panic message");
                assert_eq!(message, &format!("{field} must be finite and positive, got {bad}"));
            }
            set(RuntimeConfig::builder(), 1.5).build();
        }
        // Disabled cadences carry no value to check.
        RuntimeConfig::builder().reopt_interval_ms(None).full_reopt_interval_ms(None).build();
    }

    /// Landmark mode under a deployment wave: construction computes only
    /// the k landmark rows (never one per node), joiners are placed the
    /// tick they arrive, and the whole run is deterministic.
    #[test]
    fn wave_with_landmarks_embeds_k_rows_and_places_joiners() {
        let topo = small_world(43);
        let n = topo.num_nodes();
        let build = || {
            OverlayRuntime::new(
                &topo,
                43,
                RuntimeConfig::builder()
                    .horizon_ms(10_000.0)
                    .latency_backend(LatencyBackend::Lazy)
                    .deployment(DeploymentModel::Wave { initial: 25, joins_per_tick: 10 })
                    .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() })
                    .build(),
            )
        };
        let rt = build();
        let stats = rt.lazy_latency_stats().unwrap();
        assert_eq!(
            stats.rows_computed, 8,
            "bring-up must touch exactly the landmark rows, not all {n}"
        );
        let run = || {
            let mut rt = build();
            let hosts: Vec<NodeId> =
                topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
            let q = QuerySpec::join_star(
                &[hosts[0], hosts[1], hosts[2], hosts[3]],
                hosts[4],
                10.0,
                0.02,
            );
            let handle = rt.deploy(q).unwrap();
            let report = rt.run();
            (report, rt.arrived_count(), rt.placement(handle).cloned())
        };
        let (a, arrived_a, placement_a) = run();
        let (b, arrived_b, placement_b) = run();
        assert_eq!(arrived_a, n, "the wave must complete");
        assert_eq!(arrived_a, arrived_b);
        assert_eq!(a, b, "landmark-mode wave runs must be deterministic");
        assert_eq!(placement_a, placement_b);
    }

    #[test]
    fn double_failure_is_idempotent() {
        let topo = small_world(9);
        let mut rt = OverlayRuntime::new(
            &topo,
            9,
            RuntimeConfig { horizon_ms: 5_000.0, churn: ChurnProcess::None, ..Default::default() },
        );
        rt.deploy(demo_query(&topo)).unwrap();
        let victim = topo.host_candidates()[70];
        rt.schedule_failure(1_000.0, victim);
        rt.schedule_failure(2_000.0, victim);
        rt.run();
        assert!(!rt.is_alive(victim));
    }

    fn routed_backend() -> MapperBackend {
        MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() }
    }

    /// The routed backend answers every mapping from the same catalog state
    /// as the Dht backend, so whole runs — placements, samples, migrations —
    /// must be bit-identical; only the traffic accounting differs.
    #[test]
    fn routed_backend_run_is_bit_identical_to_dht_backend() {
        let topo = small_world(50);
        let run = |backend| {
            let mut rt = OverlayRuntime::new(
                &topo,
                50,
                RuntimeConfig::builder()
                    .horizon_ms(10_000.0)
                    .mapper_backend(backend)
                    .churn(ChurnProcess::SparseWalk { nodes_per_tick: 8, std_dev: 0.15 })
                    .latency_jitter(JitterModel { edges_per_tick: 25, ..Default::default() })
                    .reopt_interval_ms(2_000.0)
                    .build(),
            );
            let handle = rt.deploy(demo_query(&topo)).unwrap();
            let report = rt.run();
            let placement = rt.placement(handle).cloned();
            (report, placement, rt.control_plane_stats())
        };
        let (dht_report, dht_placement, dht_cp) =
            run(MapperBackend::Dht { bits: 12, scan_width: 8 });
        let (routed_report, routed_placement, routed_cp) = run(routed_backend());
        assert_eq!(dht_report, routed_report, "routed answers must match the omniscient-state Dht");
        assert_eq!(dht_placement, routed_placement);
        // The Dht backend experiences nothing; the routed backend replayed
        // every deploy/reopt lookup and churn refresh over the underlay.
        assert_eq!(dht_cp.routed_messages, 0);
        assert!(routed_cp.routed_messages > 0, "routed traffic must be charged");
        assert!(routed_cp.routed_lookups > 0);
        assert!(routed_cp.routed_p50_latency_ms.is_some());
        let p50 = routed_cp.routed_p50_latency_ms.unwrap();
        let p99 = routed_cp.routed_p99_latency_ms.unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "experienced latency must be positive: {p50} / {p99}");
        assert!(routed_cp.routed_hop_histogram.iter().sum::<u64>() > 0);
    }

    /// The routed protocol settles only on serial paths (tick boundary,
    /// failures, deploy), so its clock and stats — like the run itself —
    /// must not depend on the worker-pool width.
    #[test]
    fn routed_run_is_bit_identical_across_thread_counts() {
        let topo = small_world(51);
        let run = |threads: usize| {
            let mut rt = OverlayRuntime::new(
                &topo,
                51,
                RuntimeConfig::builder()
                    .horizon_ms(8_000.0)
                    .threads(threads)
                    .mapper_backend(routed_backend())
                    .churn(ChurnProcess::SparseWalk { nodes_per_tick: 10, std_dev: 0.15 })
                    .latency_jitter(JitterModel { edges_per_tick: 20, ..Default::default() })
                    .reopt_interval_ms(2_000.0)
                    .build(),
            );
            rt.deploy(demo_query(&topo)).unwrap();
            let report = rt.run();
            let routed = rt.routed_stats().cloned().unwrap();
            (report, rt.control_plane_stats(), routed)
        };
        let (serial, serial_cp, serial_routed) = run(1);
        let (parallel, parallel_cp, parallel_routed) = run(8);
        assert_eq!(serial, parallel, "thread count must not change a routed run");
        // ControlPlaneStats carries wall-clock timing fields; compare the
        // deterministic routed summary only.
        assert_eq!(
            (
                serial_cp.routed_messages,
                serial_cp.routed_lookups,
                serial_cp.routed_retries,
                serial_cp.routed_timeouts,
                &serial_cp.routed_hop_histogram,
                serial_cp.routed_p50_latency_ms,
                serial_cp.routed_p99_latency_ms,
            ),
            (
                parallel_cp.routed_messages,
                parallel_cp.routed_lookups,
                parallel_cp.routed_retries,
                parallel_cp.routed_timeouts,
                &parallel_cp.routed_hop_histogram,
                parallel_cp.routed_p50_latency_ms,
                parallel_cp.routed_p99_latency_ms,
            ),
            "routed control-plane summary must match across thread counts"
        );
        assert_eq!(serial_routed, parallel_routed, "full routed stats must match bit-for-bit");
        assert!(serial_routed.messages > 0);
    }

    /// A node failure under the routed backend re-maps the evacuated
    /// services through the live protocol and the catalog converges on
    /// surviving nodes only.
    #[test]
    fn routed_backend_survives_failures_and_reconverges() {
        let topo = small_world(52);
        let mut rt = OverlayRuntime::new(
            &topo,
            52,
            RuntimeConfig::builder()
                .horizon_ms(8_000.0)
                .mapper_backend(routed_backend())
                .churn(ChurnProcess::None)
                .build(),
        );
        assert_eq!(rt.mapper_name(), "routed-dht");
        let handles: Vec<_> =
            [demo_query(&topo)].into_iter().map(|q| rt.deploy(q).unwrap()).collect();
        let victim = topo.host_candidates()[60];
        rt.schedule_failure(3_000.0, victim);
        rt.run();
        assert!(!rt.is_alive(victim));
        for &h in &handles {
            if let Some(p) = rt.placement(h) {
                assert!(p.as_slice().iter().all(|&n| rt.is_alive(n)));
            }
        }
        let routed = rt.routed_stats().unwrap();
        assert!(routed.messages > 0, "failure evacuation must re-register over the wire");
        assert_eq!(routed.timeouts, 0, "an unpartitioned underlay never times out");
    }
}
