//! Network substrate for the SBON reproduction.
//!
//! The ICDE'05 paper evaluates its ideas "on top of a simulated transit-stub
//! network topology with 600 nodes" (Figure 2 caption). This crate provides
//! that substrate:
//!
//! * [`graph`] — a compact weighted undirected graph.
//! * [`topology`] — GT-ITM-style transit-stub topologies plus simpler
//!   generators (Waxman, geometric, ring, star, grid) used by tests.
//! * [`dijkstra`] — single-source shortest paths, computed region by
//!   region over a batch of sources, and the all-pairs latency matrix that
//!   defines "true" network latency between overlay nodes.
//! * [`latency`] — the [`latency::LatencyProvider`] abstraction consumed by
//!   the coordinate and placement layers.
//! * [`lazy`] — a demand-driven alternative to the dense matrix:
//!   per-source shortest-path rows computed on first use, cached, and
//!   *repaired in place* (dynamic SSSP) when churn mutates edges.
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
//! | [`latency::LatencyMatrix`] (via [`dijkstra::all_pairs_latency`]) | `O(n²)` always | `O(n·(m + n log n))` up front | `n ≲ 1000`, query-everything workloads |
//! | [`lazy::LazyLatency`] | `O(rows_touched · n)` | none — each row `O(m + n log n)` on first touch | thousand-node runs, churn, sparse query sets |
//!
//! Both produce bit-identical latencies for any query (rows come from the
//! same Dijkstra); the lazy backend additionally survives edge churn by
//! *repairing* each affected row in place. A weight raise recomputes only
//! the old-tight region downstream of the edge (`O(|region| log |region| +
//! edges(region))` per row); a weight lower seeds an improvement
//! propagation from the edge's endpoints; untouched labels are provably
//! exact, and repaired rows are bit-identical to fresh Dijkstra on the
//! mutated graph. A row is dropped only when it falls a whole edge-count of
//! deltas behind the bounded log. See the [`lazy`] module docs for the full
//! repair contract and complexity.
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
//!   one CSR with the weights inline, derived on the first search and
//!   dropped by `add_node` / `add_edge`; an unsearched graph holds none.
//!   Its pendant regions — the core (the bridge forest's weighted
//!   centroid), each vertex's region label and each region's one bridge —
//!   are derived by the first row or pair search and dropped with it.
//! * [`dijkstra`] — the one relaxation loop and its pop order (key, then
//!   node id, packed into one integer a heap entry): fresh rows, path
//!   search, both repair phases and both sides of the bidirectional pair
//!   search run it. It also owns the one row kernel every row comes
//!   from (`single_source`, `all_pairs_latency`, a lazy miss, a batch, a
//!   repair's rebuild): per source the core and its own region, then region
//!   by region for the whole batch, seeded across each region's bridge.
//! * [`lazy::LazyLatency`] — the mutable graph, the *base* edge weights
//!   (recorded for an edge by its first change),
//!   the jitter step ([`lazy::LazyLatency::scale_edges_clamped`]), the
//!   delta log with its one edge-batch dedup, and the row cache.
//! * [`lazy::PairReader`] — row-free point-to-point reads over a borrow of
//!   that provider: a resident sender row, else a current receiver row,
//!   else its memo of the pairs it already searched (either way round),
//!   else one bidirectional search.
//!   Every search relaxes only into the core and the two endpoints' own
//!   regions. The borrow freezes the graph, so the memo lives exactly as
//!   long as the reader.
//! * `sbon_overlay`'s `LatencyState` — one `LazyLatency` under either
//!   backend (the dense one keeps every row resident from bring-up on), and
//!   the reader each routed settle prices its messages with.
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
