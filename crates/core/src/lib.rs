//! The paper's contribution: cost spaces and integrated query optimization.
//!
//! This crate implements Section 3 of *"A Cost-Space Approach to Distributed
//! Query Optimization in Stream Based Overlays"* (ICDE 2005):
//!
//! * [`costspace`] (§3.1) — multi-dimensional metric spaces combining
//!   *vector* dimensions (network-coordinate latency) and *scalar*
//!   dimensions (weighted node-local costs such as CPU load); a deployment
//!   can run several independent spaces side by side.
//! * [`circuit`] (§3) — circuits: the instantiation of a query in the SBON,
//!   with pinned services (producers, consumers) and unpinned services
//!   (placeable operators), plus the circuit cost model (network usage =
//!   Σ link rate × latency, and end-to-end data latency).
//! * [`placement`] (§3.2) — service placement as *virtual placement* in the
//!   vector dimensions (spring relaxation, centroid, gradient descent)
//!   followed by *physical mapping* back to a real node (exhaustive oracle
//!   or the decentralized Hilbert-DHT catalog), including mapping-error
//!   accounting.
//! * [`optimizer`] (§3.3) — the integrated optimizer: every candidate plan
//!   is virtually placed and physically mapped, and the cheapest *circuit*
//!   wins — against the classic two-step baseline that freezes the plan
//!   before looking at the network.
//! * [`multiquery`] (§3.4) — multi-query optimization: reuse of running
//!   service instances discovered within a cost-space radius `r` of a new
//!   service's virtual coordinate.
//! * [`reopt`] (§3.3) — re-optimization of long-running circuits: local
//!   migration when coordinates drift, and full re-optimization with a
//!   parallel-circuit swap when estimates change.

pub mod circuit;
pub mod costspace;
pub mod multiquery;
pub mod optimizer;
pub mod placement;
pub mod reopt;

pub use circuit::{Circuit, CircuitCost, Placement, Service, ServiceId, ServiceKind, ServicePin};
pub use costspace::{CostPoint, CostSpace, CostSpaceBuilder, WeightFn};
pub use optimizer::{
    IntegratedOptimizer, OptimizerConfig, PlacedCircuit, QuerySpec, TwoStepOptimizer,
};
pub use placement::{
    CentroidPlacer, DhtMapper, DhtMapperConfig, GradientPlacer, LiveOracleMapper, MappedService,
    MapperDelta, OracleMapper, PhysicalMapper, RelaxationConfig, RelaxationPlacer, RoutedMapper,
    VectorOnlyOracleMapper, VirtualPlacement, VirtualPlacer,
};
