//! Network substrate for the SBON reproduction.
//!
//! The ICDE'05 paper evaluates its ideas "on top of a simulated transit-stub
//! network topology with 600 nodes" (Figure 2 caption). This crate provides
//! that substrate:
//!
//! * [`graph`] — a compact weighted undirected graph.
//! * [`topology`] — GT-ITM-style transit-stub topologies plus simpler
//!   generators (Waxman, geometric, ring, star, grid) used by tests.
//! * [`dijkstra`] — the one relaxation loop, path search, and
//!   single-source rows and the all-pairs latency matrix that defines
//!   "true" network latency between overlay nodes, both composed from a
//!   [`lazy`] store.
//! * [`latency`] — the [`latency::LatencyProvider`] abstraction consumed by
//!   the coordinate and placement layers.
//! * [`lazy`] — the latency store, the alternative to the dense matrix:
//!   every node's distance to its region's bridge into the graph's core,
//!   one core distance matrix, and small same-region rows, *repaired in
//!   place* (dynamic SSSP) once per batch of edge changes.
//! * [`load`] — per-node scalar attributes (CPU load, ...) and the churn
//!   processes that drive the paper's "dynamic node and network
//!   characteristics" challenge.
//! * [`sim`] — a deterministic discrete-event clock used by the overlay
//!   runtime and the re-optimization experiments.
//! * [`rng`] — seedable RNG utilities so every experiment is reproducible.
//! * [`metrics`] — small statistics helpers (percentiles, summaries) shared
//!   by the bench harnesses.
//!
//! # Choosing a latency backend
//!
//! Two interchangeable [`latency::LatencyProvider`] ground-truth backends
//! cover different scales:
//!
//! | backend | memory | precompute | best for |
//! |---|---|---|---|
//! | [`latency::LatencyMatrix`] (via [`dijkstra::all_pairs_latency`]) | `8 n²` B | every pair, up front | `n ≲ 1000`, reading a plain matrix |
//! | [`lazy::LazyLatency`] | about `32 n` B, `8 c²` B for a core of `c` vertices, and same-region rows | one search per region and per core vertex | everything else: churn, thousand- to 100k-node runs |
//!
//! Both produce bit-identical latencies for any query: every edge weight
//! lies on one grid, so every path sum is exact and a composition of
//! shortest parts is the shortest distance itself. The store additionally
//! survives edge churn: each delta batch repairs the part of its tables
//! the batch touched (a raise recomputes only the old-tight set
//! downstream of the edge, a lower seeds an improvement propagation from
//! its endpoints), and after every batch the tables equal a fresh build.
//! See the [`lazy`] module docs for the store, its exactness argument and
//! its repair.
//!
//! # Who owns what in the latency substrate
//!
//! Every fact has one owner and every behaviour one spelling:
//!
//! * [`graph::Graph`] — the topology, the *current* edge weights (the edge
//!   table; [`graph::Graph::set_edge_latency`] is their one writer after
//!   construction), the weight grid they lie on
//!   ([`graph::LATENCY_GRID_MS`]: both writers round to it, so every
//!   shortest-path sum is exact), and the one adjacency accessor ([`graph::Graph::neighbors`]) every
//!   shortest-path relaxation reads the graph through. The adjacency is
//!   one CSR of edge ids, which read far end and weight from the edge
//!   table, derived on the first search and dropped by `add_node` /
//!   `add_edge`; an unsearched graph holds none.
//!   Its pendant regions — the core (the bridge forest's weighted
//!   centroid), each vertex's region label and each region's one bridge —
//!   are derived when a store is built and dropped with the adjacency.
//! * [`dijkstra`] — the one relaxation loop and its pop order (key, then
//!   node id, packed into one integer a heap entry): path search and every
//!   search of the store (its tables, its same-region rows, both repair
//!   phases) run it.
//! * [`lazy::LazyLatency`] — the mutable graph, the *base* edge weights
//!   (recorded for an edge by its first change), the jitter step
//!   ([`lazy::LazyLatency::scale_edges_clamped`]), the one edge-batch
//!   dedup, and the store: T (each vertex's distance from its anchor), D
//!   (the core's distances) and the own-region rows. Every read composes
//!   them; [`lazy::SourceView`] composes a few sources' reads for any
//!   number of threads.
//! * `sbon_overlay`'s `LatencyState` — one `LazyLatency` under either
//!   backend, which every read goes through (a routed settle's message
//!   delays and the wave join's landmark view included).
//! * `sbon_overlay`'s `LinkTraffic` — per-edge rate multisets, keyed by the
//!   edges [`dijkstra::shortest_path`] returns.
//! * [`latency::euclidean`] — the one Euclidean distance, shared by the
//!   coordinate layer, the cost space and the DHT catalog.

pub mod dijkstra;
pub mod graph;
pub mod latency;
pub mod lazy;
pub mod load;
pub mod metrics;
pub mod rng;
pub mod sim;
pub mod topology;

pub use graph::{EdgeId, Graph, NodeId};
pub use latency::{LatencyMatrix, LatencyProvider};
pub use lazy::{LazyLatency, LazyLatencyStats};
pub use load::{ChurnProcess, LoadModel, NodeAttrs};
pub use sim::{EventQueue, SimTime};
