//! Service placement (Section 3.2): virtual placement in the cost space's
//! vector dimensions, then physical mapping back to real nodes.
//!
//! "This physical placement of services is preceded by two decision phases:
//! **Virtual Placement** — a service placement algorithm ... compute\[s\] the
//! coordinates of the ideal placement locations for unpinned services in the
//! cost space ... computationally inexpensive as they do not instantiate
//! services. **Physical Mapping** — ... find a physical node that is close
//! to the coordinate calculated in the virtual placement."
//!
//! Mappers are **long-lived**: the [`PhysicalMapper`] trait carries a
//! delta/invalidation contract (`update_node` per cost-point change,
//! `remove_node` per failure) so one mapper instance serves placement,
//! re-optimization, and failure evacuation without per-call rebuilds. The
//! Hilbert-DHT mapper answers in `O(log n)` routed hops and is the
//! runtime's default; the `O(n)` oracle scans survive as verification
//! backends. See [`mapping`](self) and the `costspace` module docs for the
//! contract details.
//!
//! # Who owns what
//!
//! Evaluating a candidate is build → place → map → cost; each step's
//! behaviour is spelled once:
//!
//! * **distance** — `costspace::euclidean`, behind `CostPoint`'s
//!   `full_distance` / `vector_distance` and every placer.
//! * **seed** — `traits::seed_coords`: pinned services at their hosts,
//!   unpinned at a weighted centroid of the pinned, in one flat
//!   `services × dims` buffer (a [`VirtualPlacement`]). [`CentroidPlacer`]
//!   is that seed under rate weights; relaxation starts from it unweighted.
//! * **sweep** — `traits::sweep`, the one Gauss–Seidel loop (adjacency built
//!   once, straight from the links into one compressed table, no allocation
//!   inside a sweep): [`RelaxationPlacer`] weighs a link by its rate,
//!   [`GradientPlacer`] by `rate / distance`, warm-started.
//! * **link pass** — [`Circuit::cost_with`](crate::circuit::Circuit::cost_with):
//!   usage, stretch and longest path in one walk, `dist` read once per link,
//!   shared (reused) links left out of usage, on the numbering invariant
//!   [`Circuit`](crate::circuit::Circuit) states ([`optimal_tree_placement`]
//!   rests on it too).
//! * **candidate body** — `optimizer::select_cheapest`: bound, place,
//!   [`map_circuit`], estimate, keep the cheapest — for plain and reuse
//!   deploys, the two-step baseline (one candidate) and both plan-replacing
//!   re-opt passes, which read bounds and placements from the circuit's
//!   memo when they are remembered (`crate::reopt::ReoptMemo`).

mod centroid;
mod exhaustive;
mod gradient;
mod mapping;
mod relaxation;
mod traits;

pub use centroid::CentroidPlacer;
pub use exhaustive::optimal_tree_placement;
pub use gradient::{GradientConfig, GradientPlacer};
pub(crate) use mapping::map_unpinned;
pub use mapping::{
    map_circuit, DhtMapper, DhtMapperConfig, LiveOracleMapper, MappedCircuit, MappedService,
    MapperCatalog, MapperDelta, MapperReadView, OracleMapper, PhysicalMapper, ReadObservation,
    RoutedMapper, VectorOnlyOracleMapper,
};
pub use relaxation::{RelaxationConfig, RelaxationPlacer};
pub use traits::{VirtualPlacement, VirtualPlacer};
