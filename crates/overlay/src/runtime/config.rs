//! Runtime configuration: the jitter model, the three backend / bring-up
//! selectors, [`RuntimeConfig`] and its builder. Pure data — nothing here
//! touches [`OverlayRuntime`](super::OverlayRuntime); sibling modules read
//! the `pub(super)` fields directly.

use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::multiquery::ReuseScope;
use sbon_core::reopt::ReoptPolicy;
use sbon_dht::proto::ProtoConfig;
use sbon_netsim::load::ChurnProcess;
use sbon_obs::ObsConfig;

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
/// RNG into the one row cache, which repairs each resident row in place
/// the next time it is read, so a jittered run is bit-identical across
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

/// Which ground-truth latency rows the runtime's one row cache
/// ([`sbon_netsim::lazy::LazyLatency`]) holds; both serve identical values.
///
/// `Dense` computes every row at build (`O(n²)` memory,
/// `O(n·(m + n log n))` time) and keeps them: the default at the paper's
/// ≤600-node scale. `Lazy` computes a row when it is first read, which is
/// what makes thousand-node runs with churn tractable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatencyBackend {
    /// Every row resident from construction on (the historical behaviour).
    #[default]
    Dense,
    /// Rows computed on first read; bring-up's rows evicted when it ends.
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
    /// [`OverlayRuntime::routed_stats`](super::OverlayRuntime::routed_stats).
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
/// through the [`PhysicalMapper::add_node`](sbon_core::placement::PhysicalMapper::add_node)
/// maintenance contract — an
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

/// Runtime configuration. Built through [`RuntimeConfig::builder`]; each
/// field is documented on its [`RuntimeConfigBuilder`] setter.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    pub(super) tick_ms: f64,
    pub(super) horizon_ms: f64,
    pub(super) reopt_interval_ms: Option<f64>,
    pub(super) full_reopt_interval_ms: Option<f64>,
    pub(super) rewrite_interval_ms: Option<f64>,
    pub(super) policy: ReoptPolicy,
    pub(super) churn: ChurnProcess,
    pub(super) latency_jitter: Option<JitterModel>,
    pub(super) migration_penalty: f64,
    pub(super) replacement_penalty: f64,
    pub(super) vivaldi: VivaldiConfig,
    pub(super) latency_backend: LatencyBackend,
    pub(super) mapper_backend: MapperBackend,
    pub(super) deployment: DeploymentModel,
    pub(super) reuse: ReuseScope,
    pub(super) threads: usize,
    pub(super) obs: ObsConfig,
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
            vivaldi: VivaldiConfig::default(),
            latency_backend: LatencyBackend::default(),
            mapper_backend: MapperBackend::default(),
            deployment: DeploymentModel::default(),
            reuse: ReuseScope::None,
            threads: 0,
            obs: ObsConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Starts a [`RuntimeConfigBuilder`] seeded with the defaults — the
    /// construction path. The fields are private; the getters below are the
    /// ones drivers read back.
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

    /// Per-tick latency jitter; `None` = disabled.
    pub fn latency_jitter(&self) -> Option<JitterModel> {
        self.latency_jitter
    }

    /// Vivaldi settings for the start-up embedding.
    pub fn vivaldi(&self) -> &VivaldiConfig {
        &self.vivaldi
    }

    /// Ground-truth latency backend.
    pub fn latency_backend(&self) -> LatencyBackend {
        self.latency_backend
    }

    /// Physical-mapping backend.
    pub fn mapper_backend(&self) -> MapperBackend {
        self.mapper_backend
    }

    /// Membership bring-up model.
    pub fn deployment(&self) -> DeploymentModel {
        self.deployment
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
    /// Sets the simulation tick (ms): churn + accounting granularity.
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

    /// Sets the plan-rewrite cadence; `None` disables rewriting. The
    /// paper's "limited plan re-writing" (§3.3): cheaper than full re-opt,
    /// explores only the rewrite neighbourhood of the running plan.
    pub fn rewrite_interval_ms(mut self, v: impl Into<Option<f64>>) -> Self {
        self.config.rewrite_interval_ms = v.into();
        self
    }

    /// Sets the migration / replacement thresholds.
    pub fn policy(mut self, v: ReoptPolicy) -> Self {
        self.config.policy = v;
        self
    }

    /// Sets the load churn process applied each tick.
    pub fn churn(mut self, v: ChurnProcess) -> Self {
        self.config.churn = v;
        self
    }

    /// Sets the per-tick latency jitter; `None` disables it.
    pub fn latency_jitter(mut self, v: impl Into<Option<JitterModel>>) -> Self {
        self.config.latency_jitter = v.into();
        self
    }

    /// Sets the usage·seconds charged per migration (state transfer).
    pub fn migration_penalty(mut self, v: f64) -> Self {
        self.config.migration_penalty = v;
        self
    }

    /// Sets the usage·seconds charged per full replacement.
    pub fn replacement_penalty(mut self, v: f64) -> Self {
        self.config.replacement_penalty = v;
        self
    }

    /// Sets the Vivaldi settings for the embedding built at start-up.
    pub fn vivaldi(mut self, v: VivaldiConfig) -> Self {
        self.config.vivaldi = v;
        self
    }

    /// Sets the ground-truth latency backend.
    pub fn latency_backend(mut self, v: LatencyBackend) -> Self {
        self.config.latency_backend = v;
        self
    }

    /// Sets the physical-mapping backend for the runtime-owned mapper.
    pub fn mapper_backend(mut self, v: MapperBackend) -> Self {
        self.config.mapper_backend = v;
        self
    }

    /// Sets the membership bring-up model (all-at-once or deployment wave).
    pub fn deployment(mut self, v: DeploymentModel) -> Self {
        self.config.deployment = v;
        self
    }

    /// Sets the multi-query reuse scope for arriving queries.
    ///
    /// Anything other than [`ReuseScope::None`] gives the runtime a reuse
    /// registry
    /// ([`MultiQueryOptimizer`](sbon_core::multiquery::MultiQueryOptimizer)):
    /// every `deploy` attaches its candidates to the running instances it
    /// discovers and ranks them by marginal estimate, so arriving queries
    /// may attach to running operator subtrees (a
    /// *subscription* refcount on the instance), departures release shared
    /// services only when their refcount drains to zero, and usage
    /// accounting charges each circuit its **marginal** links only. A
    /// subscribed instance is pinned in its owner's circuit (tenancy makes
    /// it load-bearing), so local re-opt stops migrating it, and the pin
    /// lifts when the last subscriber departs; plan-replacement adaptation
    /// (rewrite / full re-opt) is skipped only for *tenancy-entangled*
    /// circuits (ones that borrow shared subtrees or have subscribed
    /// instances) — replacing such a plan would strand its tenants.
    /// Untenanted circuits still adapt, re-registering their instances
    /// after the swap.
    pub fn reuse(mut self, v: ReuseScope) -> Self {
        self.config.reuse = v;
        self
    }

    /// Sets the worker threads for the embarrassingly parallel per-tick
    /// work (shortest-path row computation, re-opt evaluation, the join
    /// wave's landmark placements): `0` sizes
    /// the pool to the machine's available parallelism, `1` runs everything
    /// on the calling thread, any other value is an explicit pool size.
    ///
    /// Thread count never changes results: parallel stages compute pure
    /// values and commit them serially in a deterministic order, so a run
    /// at any `threads` setting is bit-identical to a serial one.
    pub fn threads(mut self, v: usize) -> Self {
        self.config.threads = v;
        self
    }

    /// Sets the observability configuration: a virtual-time JSONL trace
    /// file, the flight-recorder ring of its last lines, or both (see
    /// [`sbon_obs::ObsConfig`]). Defaults to
    /// everything off — the metrics registry backing the stats views runs
    /// regardless. Instrumentation is **bit-invisible**: an instrumented
    /// run's [`RunReport`](crate::RunReport) is identical to an
    /// uninstrumented one.
    pub fn obs(mut self, v: ObsConfig) -> Self {
        self.config.obs = v;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Naming the field and the value, if `tick_ms`, `horizon_ms` or an
    /// enabled re-optimization interval is not finite and positive (a zero
    /// interval would reschedule its pass at the same instant forever); if
    /// a penalty is not finite and non-negative (a NaN penalty makes the
    /// report's total cost NaN even with zero migrations); or if an enabled
    /// jitter model has a `factor_range` that is not finite with
    /// `0 < lo < hi` (the sampler needs a non-empty range) or a `band` that
    /// is not finite with `0 <= lo <= hi` (edge latencies must stay finite
    /// and non-negative); if a reuse radius is NaN or negative (no instance
    /// is ever within it: reuse silently off, registry still paid for); if
    /// a policy threshold is not finite in `[0, 1)` (a NaN never adapts, a
    /// negative one adopts worse placements); if a DHT-backed mapper has
    /// `bits` outside `1..=32` or a zero `scan_width` (the quantizer and
    /// the catalog reject those without naming the field); or if a routed
    /// mapper's `proto` fails [`ProtoConfig::validate`] or the Vivaldi
    /// configuration fails [`VivaldiConfig::validate`].
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
        for (field, v) in [
            ("migration_penalty", c.migration_penalty),
            ("replacement_penalty", c.replacement_penalty),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{field} must be finite and non-negative, got {v}");
        }
        if let Some(JitterModel { factor_range: f, band: b, .. }) = c.latency_jitter {
            assert!(
                f.0.is_finite() && f.1.is_finite() && 0.0 < f.0 && f.0 < f.1,
                "latency_jitter.factor_range must be finite with 0 < lo < hi, got {f:?}"
            );
            assert!(
                b.0.is_finite() && b.1.is_finite() && 0.0 <= b.0 && b.0 <= b.1,
                "latency_jitter.band must be finite with 0 <= lo <= hi, got {b:?}"
            );
        }
        if let ReuseScope::Radius(r) = c.reuse {
            assert!(r >= 0.0, "reuse radius must be non-negative, got {r}");
        }
        for (field, v) in [
            ("policy.migration_threshold", c.policy.migration_threshold),
            ("policy.replacement_threshold", c.policy.replacement_threshold),
        ] {
            assert!((0.0..1.0).contains(&v), "{field} must be finite in [0, 1), got {v}");
        }
        if let MapperBackend::Dht { bits, scan_width }
        | MapperBackend::Routed { bits, scan_width, .. } = c.mapper_backend
        {
            assert!((1..=32).contains(&bits), "mapper_backend.bits must be in 1..=32, got {bits}");
            assert!(
                scan_width >= 1,
                "mapper_backend.scan_width must be at least 1, got {scan_width}"
            );
        }
        if let MapperBackend::Routed { proto, .. } = c.mapper_backend {
            proto.validate("mapper_backend.proto");
        }
        c.vivaldi.validate();
        self.config
    }
}
