//! Chord-style DHT with a Hilbert-keyed coordinate catalog.
//!
//! Section 3.2 of the paper: physical mapping is implemented with "a
//! decentralized catalog, such as a distributed hash table (DHT), that
//! returns nodes that are closest to a given coordinate. This requires each
//! node to store its coordinates in the DHT after transforming its
//! multi-dimensional coordinate to a one-dimensional hash key with a Hilbert
//! curve. Due to the properties of DHT routing, a look-up of a coordinate in
//! the DHT then returns the node with the closest existing coordinate in the
//! system."
//!
//! * [`id`] — 128-bit ring-key arithmetic (clockwise distance, interval
//!   tests).
//! * [`ring`] — the ring itself: membership, successor/predecessor, the
//!   outward neighbourhood walk, iterative greedy finger routing (full
//!   128-level Chord fingers) with hop accounting, join/leave churn.
//! * [`catalog`] — the coordinate catalog on top: nodes register their
//!   cost-space coordinates under their Hilbert key; `lookup_closest`
//!   resolves a target coordinate to the nearest registered node, and
//!   `k_nearest` implements the paper's radius search ("use the Hilbert DHT
//!   to look up the closest n nodes", Section 3.4). It owns the one
//!   neighbourhood ranking and the one path that charges lookup traffic.
//! * [`proto`] — the message-passing control plane: the same lookups and
//!   registrations executed as routed `ControlMsg` traffic on the
//!   simulated underlay, with experienced latency, timeout/retry, and
//!   partition semantics. Owners answer through the catalog's ranking over
//!   the members they reach: unpartitioned, the omniscient answer.

pub mod catalog;
pub mod id;
pub mod proto;
pub mod ring;

pub use catalog::{CatalogStats, CoordinateCatalog};
pub use id::RingKey;
pub use proto::{ControlMsg, ProtoConfig, RoutedCatalog, RoutedLookup, RoutedStats, Stamp};
pub use ring::{DhtConfig, DhtRing, LookupOutcome};
