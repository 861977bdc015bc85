//! # sbon_workload — workload generation and scenario-driven runs
//!
//! The cost-space optimizer exists to serve a *stream of queries* arriving
//! at and departing from a shared overlay (§3.4 of the paper treats
//! multi-query reuse as the steady state, not the exception). This crate
//! turns that into an executable workload model on top of the
//! `sbon_overlay` runtime's query-lifecycle API (`deploy` / `undeploy` /
//! `advance_ticks`):
//!
//! * [`arrival::ArrivalProcess`] — when queries arrive: memoryless
//!   [`Poisson`](arrival::ArrivalProcess::Poisson), bursty
//!   [`FlashCrowd`](arrival::ArrivalProcess::FlashCrowd), and sinusoidal
//!   [`Diurnal`](arrival::ArrivalProcess::Diurnal) rate curves, each with a
//!   closed-form per-tick integral feeding an exact Poisson draw.
//! * [`session::SessionDuration`] — how long they stay: exponential,
//!   heavy-tailed bounded-Pareto, or fixed.
//! * [`templates::QueryGenerator`] — what they ask for: a weighted mix of
//!   [`templates::QueryTemplate`]s (popular-feed joins, fan-in
//!   aggregations, chain filters) over a shared
//!   [`StreamCatalog`](sbon_query::stream::StreamCatalog), with Zipf-skewed
//!   feed popularity so tenants overlap and multi-query reuse pays.
//! * [`scenario::Scenario`] — the declarative composition: overlay size +
//!   [`RuntimeConfig`](sbon_overlay::RuntimeConfig) (deployment wave,
//!   churn, jitter, reuse scope) + catalog + workload, driven end-to-end
//!   into a [`scenario::ScenarioReport`] with arrival/departure totals,
//!   reuse economics (marginal vs standalone usage, reuse hits), the
//!   active-query gauge, and the drain-to-baseline verdict.
//!
//! ## Determinism-by-seed contract
//!
//! A scenario's `seed` is the *only* source of randomness: the topology,
//! the runtime's churn/jitter streams, the arrival counts, the template
//! draws, and the session lengths all derive from it through independent
//! [`derive_rng`](sbon_netsim::rng::derive_rng) streams. Running the same
//! scenario value twice reproduces the same report bit-for-bit — including
//! every float in the usage time series — which is what lets CI smoke-test
//! a flash-crowd run and assert exact post-conditions.
//!
//! ## Example
//!
//! ```
//! use sbon_core::multiquery::ReuseScope;
//! use sbon_overlay::RuntimeConfig;
//! use sbon_workload::prelude::*;
//!
//! let scenario = Scenario {
//!     workload: WorkloadSpec {
//!         arrival: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
//!         duration: SessionDuration::Exponential { mean_ms: 5_000.0 },
//!         ..Default::default()
//!     },
//!     ..Scenario::new(
//!         "doc",
//!         80,
//!         42,
//!         RuntimeConfig::builder().horizon_ms(8_000.0).reuse(ReuseScope::All).build(),
//!     )
//! };
//! let report = scenario.run();
//! assert_eq!(report.arrivals, report.departures); // drain_at_end
//! assert!(report.drained_to_baseline());
//! ```

pub mod arrival;
pub mod scenario;
pub mod session;
pub mod templates;

pub use arrival::{sample_poisson, ArrivalProcess};
pub use scenario::{CatalogSpec, Scenario, ScenarioReport, WorkloadSpec};
pub use session::SessionDuration;
pub use templates::{QueryGenerator, QueryTemplate};

/// One-stop imports for scenario authors.
pub mod prelude {
    pub use crate::arrival::ArrivalProcess;
    pub use crate::scenario::{CatalogSpec, Scenario, ScenarioReport, WorkloadSpec};
    pub use crate::session::SessionDuration;
    pub use crate::templates::{QueryGenerator, QueryTemplate};
}
