//! # sbon — cost-space query optimization for stream-based overlays
//!
//! Facade crate for the reproduction of *"A Cost-Space Approach to
//! Distributed Query Optimization in Stream Based Overlays"* (Shneidman,
//! Pietzuch, Welsh, Seltzer, Roussopoulos — ICDE 2005).
//!
//! Each subsystem lives in its own crate and is re-exported here:
//!
//! * [`netsim`] — simulated network substrate (transit-stub topologies,
//!   shortest-path latency, load churn, discrete-event clock).
//! * [`hilbert`] — d-dimensional Hilbert space-filling curve (and Morton
//!   baseline) used to linearize cost-space coordinates into DHT keys.
//! * [`coords`] — Vivaldi network coordinates: the vector dimensions of a
//!   cost space.
//! * [`dht`] — Chord-style DHT with the Hilbert-keyed coordinate catalog
//!   that implements decentralized physical mapping.
//! * [`query`] — continuous-query model: streams, operators, logical plans,
//!   selectivity statistics, and plan enumeration.
//! * [`core`] — the paper's contribution: cost spaces, virtual placement
//!   (spring relaxation et al.), physical mapping, the integrated
//!   plan-generation + service-placement optimizer, multi-query
//!   optimization with radius pruning, and re-optimization policies.
//! * [`overlay`] — a discrete-event SBON runtime that hosts circuits, routes
//!   data, and executes migrations — with a full query lifecycle (mid-run
//!   `deploy`/`undeploy`, reuse-aware tenancy with refcounted shared
//!   services).
//! * [`workload`] — workload generation and scenario-driven runs: arrival
//!   processes (Poisson / flash crowd / diurnal), session-duration
//!   distributions, Zipf query templates over a stream catalog, and the
//!   declarative `Scenario` driver.
//! * [`obs`] — deterministic observability: exact-sample histograms and
//!   one virtual-time event stream — a JSONL trace whose last lines a ring
//!   keeps as the crash-context flight recorder.
//!   Bit-invisible by contract: instrumentation never changes a run's
//!   results.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use sbon::prelude::*;
//!
//! // 1. A 200-node transit-stub network.
//! let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(200), 42);
//! let latency = all_pairs_latency(&topo.graph);
//!
//! // 2. A 2-D latency + squared-CPU-load cost space.
//! let embedding = VivaldiConfig::default().embed(&latency, 42);
//! let mut rng = rng_from_seed(42);
//! let loads = LoadModel::Random { lo: 0.0, hi: 0.8 }.generate(topo.num_nodes(), &mut rng);
//! let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
//!
//! // 3. A 4-way join query over pinned producers, and the integrated optimizer.
//! let hosts = topo.host_candidates();
//! let query = QuerySpec::join_star(&[hosts[0], hosts[1], hosts[2], hosts[3]], hosts[4], 10.0, 0.5);
//! let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
//! let outcome = optimizer.optimize(&query, &space, &latency).unwrap();
//! assert!(outcome.cost.network_usage > 0.0);
//! ```

pub use sbon_coords as coords;
pub use sbon_core as core;
pub use sbon_dht as dht;
pub use sbon_hilbert as hilbert;
pub use sbon_netsim as netsim;
pub use sbon_obs as obs;
pub use sbon_overlay as overlay;
pub use sbon_query as query;
pub use sbon_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sbon_coords::vivaldi::{VivaldiConfig, VivaldiEmbedding};
    pub use sbon_core::circuit::{Circuit, CircuitCost, ServiceId};
    pub use sbon_core::costspace::{CostPoint, CostSpace, CostSpaceBuilder, WeightFn};
    pub use sbon_core::optimizer::{
        IntegratedOptimizer, OptimizerConfig, PlacedCircuit, TwoStepOptimizer,
    };
    pub use sbon_core::placement::{
        CentroidPlacer, DhtMapper, DhtMapperConfig, GradientPlacer, LiveOracleMapper, OracleMapper,
        PhysicalMapper, RelaxationConfig, RelaxationPlacer, VirtualPlacer,
    };
    pub use sbon_core::QuerySpec;
    pub use sbon_dht::catalog::CoordinateCatalog;
    pub use sbon_dht::ring::{DhtConfig, DhtRing};
    pub use sbon_netsim::dijkstra::all_pairs_latency;
    pub use sbon_netsim::graph::NodeId;
    pub use sbon_netsim::latency::{LatencyMatrix, LatencyProvider};
    pub use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats};
    pub use sbon_netsim::load::{Attr, ChurnProcess, LoadModel, NodeAttrs};
    pub use sbon_netsim::rng::rng_from_seed;
    pub use sbon_netsim::topology::transit_stub::{self, TransitStubConfig};
    pub use sbon_netsim::topology::Topology;
    pub use sbon_query::plan::LogicalPlan;
    pub use sbon_query::stream::StreamCatalog;
    pub use sbon_workload::{
        ArrivalProcess, CatalogSpec, QueryTemplate, Scenario, ScenarioReport, SessionDuration,
        WorkloadSpec,
    };
}
