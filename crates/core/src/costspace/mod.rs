//! Cost spaces (Section 3.1).
//!
//! "A cost space is a multi-dimensional metric space that expresses cost
//! information for service placement decisions. A point in this space
//! corresponds to a physical node, where each coordinate component
//! represents an aspect of the cost of using this node."
//!
//! Vector dimensions capture pairwise relationships (latency — embedded by
//! `sbon-coords`); scalar dimensions capture node-local values passed
//! through a deployer-chosen [`WeightFn`] that is "constructed to always be
//! non-negative, where zero represents an ideal value".
//!
//! # Maintenance contract: bulk load once, delta-update forever
//!
//! [`CostSpaceBuilder`] is the **bulk-load** path: it materializes all `n`
//! points at start-up (and is the reference a delta-maintained space is
//! tested against). Steady-state churn goes through the **delta** API:
//!
//! * [`CostSpace::update_scalars`] recomputes one node's scalar components
//!   from the attribute table — `O(dims)` — and returns whether the point
//!   actually changed, so callers forward only real deltas to coordinate
//!   consumers (the Hilbert-DHT catalog re-registers via
//!   `DhtMapper::update_node`).
//! * [`CostSpace::set_vector_coord`] is the same delta path for embedding
//!   refinement of the vector (latency) prefix, and the only writer of it:
//!   a real change bumps [`CostSpace::vector_epoch`], which is how results
//!   that read vector coordinates only (virtual placements, usage lower
//!   bounds) know they are still exact.
//! * [`CostSpace::refresh_scalars`] remains as the full-universe sweep.
//!
//! Both paths evaluate the identical weighting expression, so a sequence of
//! delta updates is **bit-identical** to a rebuild from the same inputs —
//! pinned by the `incremental_costspace_matches_rebuild` property test. A
//! tick whose churn touches `k` nodes therefore costs `O(k·dims)` control
//! plane work, not `O(n·dims)`.

mod point;
mod space;
mod weight;

pub use point::CostPoint;
// The one distance behind `CostPoint::{full_distance, vector_distance}` and
// the virtual placers.
pub(crate) use sbon_netsim::latency::euclidean;
pub use space::{CostSpace, CostSpaceBuilder, DimensionSpec, ScalarSource};
pub use weight::WeightFn;
