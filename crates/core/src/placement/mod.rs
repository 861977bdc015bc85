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

mod centroid;
mod exhaustive;
mod gradient;
mod mapping;
mod relaxation;
mod traits;

pub use centroid::CentroidPlacer;
pub use exhaustive::optimal_tree_placement;
pub use gradient::{GradientConfig, GradientPlacer};
pub use mapping::{
    map_circuit, DhtMapper, DhtMapperConfig, LiveOracleMapper, MappedCircuit, MappedService,
    MapperCatalog, MapperDelta, MapperReadView, OracleMapper, PhysicalMapper, ReadObservation,
    RoutedMapper, VectorOnlyOracleMapper,
};
pub use relaxation::{RelaxationConfig, RelaxationPlacer};
pub use traits::{VirtualPlacement, VirtualPlacer};
