//! A discrete-event stream-based overlay runtime.
//!
//! This crate puts the optimizer to work over *time* — the paper's second
//! challenge: "whereas a typical database query is finite and short-lived,
//! queries in an SBON can run continuously \[and\] node and network
//! characteristics (such as load and latency) are dynamic" (Section 1).
//!
//! The runtime advances a deterministic clock; every tick it:
//!
//! 1. applies load churn and latency jitter to the ground-truth network,
//! 2. refreshes the cost space's scalar components (the decentralized
//!    coordinate-maintenance loop),
//! 3. accrues each deployed circuit's network usage over the tick
//!    (fluid-flow accounting: `Σ link rate × latency × Δt`, matching the
//!    paper's "amount of data in transit" objective), and
//! 4. on the configured cadence, runs local re-optimization (threshold
//!    migrations) and/or full re-optimization (parallel circuit swap),
//!    charging a configurable migration penalty.
//!
//! The C2 experiment (`claim_reopt`) uses this runtime to show that
//! re-optimization recoups its cost on long-running queries, which the paper
//! argues distinguishes the SBON setting from one-shot queries.
//!
//! Queries have a full **lifecycle**: `deploy` admits them mid-run through
//! the long-lived mapper, `undeploy` tears them down and returns usage
//! accounting to the pre-deploy baseline, and with
//! [`runtime::RuntimeConfigBuilder::reuse`] enabled arrivals attach to
//! running operator subtrees (refcounted, multi-query reuse §3.4) and
//! departures release shared services only when the last subscriber leaves.
//! The session API (`start_run` / `advance_ticks` / `finish_run`) lets
//! external drivers — the `sbon_workload` scenario engine — interleave
//! arrivals and departures with the simulation clock.
//!
//! The runtime is a module tree cut along the state it owns — see the
//! module map at the top of [`runtime`].
//!
//! [`dataplane`] additionally simulates circuits at the level of individual
//! tuples (Poisson producers, per-hop delays, probabilistic operator
//! emission) and validates the fluid cost model against it. [`traffic`]
//! routes circuits over the underlay's shortest paths for per-physical-link
//! stress accounting.

pub mod dataplane;
pub mod report;
pub mod runtime;
pub mod traffic;

pub use dataplane::{simulate_circuit, DataPlaneConfig, DataPlaneReport};
pub use report::{RunReport, Sample};
pub use runtime::{
    CircuitHandle, ControlPlaneStats, DeploymentModel, JitterModel, LatencyBackend, MapperBackend,
    OverlayRuntime, QueryLifecycleStats, RunSession, RuntimeConfig, RuntimeConfigBuilder,
};
// Observability wiring: re-exported so drivers can configure tracing
// without naming `sbon_obs` directly.
pub use sbon_obs::ObsConfig;
pub use traffic::LinkTraffic;
