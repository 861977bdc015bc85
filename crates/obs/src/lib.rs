//! `sbon_obs` — deterministic observability for the SBON control plane.
//!
//! Every instrumented subsystem in this workspace (churn/refresh,
//! dirty-driven re-optimization, the routed catalog protocol, the workload
//! lifecycle) counts what it did in plain fields of its own stats struct
//! (`ControlPlaneStats`, `QueryLifecycleStats`, `RoutedStats`, …) and
//! narrates it through this crate's one virtual-time event stream, the
//! [`trace`]. The [`Tracer`] formats each event once, as the JSON line
//! [`check_trace`] validates; it writes the line to the trace file when
//! one is configured and keeps the last few in a ring, the flight recorder
//! the runtime dumps on panic. Distributions are [`Histogram`]s: exact
//! samples, nearest-rank quantiles; [`hist::interpolated_sorted`] is the
//! interpolating convention.
//!
//! # The two contracts
//!
//! **Bit-invisibility.** Observability is write-only with respect to the
//! simulation: nothing recorded here may feed back into control flow, so an
//! instrumented run's `RunReport` is **bit-identical** to an uninstrumented
//! one. The overlay runtime's `obs_invisibility` proptest pins this across
//! every backend combination and thread count; when adding instrumentation,
//! the rule is simple — obs calls may observe simulation state, never
//! mutate it, and never influence a branch.
//!
//! **Virtual time.** Trace events are stamped with *simulated* milliseconds
//! (`SimTime`), never the wall clock, and are emitted only from serial
//! orchestration paths — so a trace is a deterministic function of
//! `(topology, seed, config)`, byte-identical across thread counts, and its
//! timestamps are monotone over the one stream. Wall-clock readings exist
//! solely as reporting *output* (phase timings in nanoseconds) and the
//! single non-harness read site is [`walltime::WallTimer`], the one module
//! exempt from clippy's wall-clock ban (`clippy.toml`) outside the
//! self-timing binaries.

pub mod check;
pub mod config;
pub mod hist;
pub mod trace;
pub mod walltime;

pub use check::check_trace;
pub use config::ObsConfig;
pub use hist::Histogram;
pub use trace::{FieldValue, SpanId, Tracer};
pub use walltime::WallTimer;
