//! Ground-truth latency state: the backend-selected provider, row prewarm
//! for the lazy backend, and the per-tick jitter step. `LatencyState` is
//! self-contained — no method takes [`OverlayRuntime`]; the jitter step
//! borrows the run RNG and [`RuntimeObs`] from its caller.
//!
//! `impl OverlayRuntime` here **reads** `latency` and writes nothing.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::{EdgeId, Graph, NodeId};
use sbon_netsim::latency::{LatencyMatrix, LatencyProvider};
use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats};

use super::config::{JitterModel, LatencyBackend};
use super::stats::RuntimeObs;
use super::OverlayRuntime;

/// Backend-selected ground-truth latency state.
pub(super) enum LatencyState {
    /// Materialized all-pairs matrix, re-derived from the (possibly
    /// jittered) underlay graph whenever edges change. `base_edges` keeps
    /// the unperturbed edge latencies as the jitter band reference.
    Dense { current: LatencyMatrix, graph: Graph, base_edges: Vec<f64> },
    /// Demand-driven rows; the provider carries its own graph and base
    /// edge weights, logs edge deltas and repairs a cached row in place
    /// when it is next read.
    Lazy(LazyLatency),
}

impl LatencyState {
    /// Builds the state over `graph`: the all-pairs matrix up front, or an
    /// empty row cache bounded by `row_cache` (`None` = unbounded).
    pub(super) fn build(graph: Graph, backend: LatencyBackend, row_cache: Option<usize>) -> Self {
        match backend {
            LatencyBackend::Dense => {
                let base_edges = graph.edges().iter().map(|e| e.latency_ms).collect();
                let current = all_pairs_latency(&graph);
                LatencyState::Dense { current, graph, base_edges }
            }
            LatencyBackend::Lazy => LatencyState::Lazy(match row_cache {
                Some(cap) => LazyLatency::with_capacity(graph, cap),
                None => LazyLatency::new(graph),
            }),
        }
    }

    /// The active provider as a trait object.
    pub(super) fn provider(&self) -> &dyn LatencyProvider {
        match self {
            LatencyState::Dense { current, .. } => current,
            LatencyState::Lazy(lazy) => lazy,
        }
    }

    /// The lazy row cache; `None` under the dense backend.
    pub(super) fn lazy(&self) -> Option<&LazyLatency> {
        match self {
            LatencyState::Lazy(lazy) => Some(lazy),
            LatencyState::Dense { .. } => None,
        }
    }

    /// Makes the shortest-path rows of `sources` resident before they are
    /// read, computing the missing ones in parallel across `pool` when one
    /// is active. A no-op under the dense backend and for rows already
    /// resident. Row *computation* is pure and order-free; insertion happens
    /// on this thread in first-occurrence order — for sources listed in read
    /// order, the order serial reads would first touch them — so cache state
    /// and all served values are identical at any thread count.
    pub(super) fn prewarm_rows(&self, sources: &[NodeId], pool: Option<&rayon::ThreadPool>) {
        if let Some(lazy) = self.lazy() {
            lazy.ensure_rows(sources, pool);
        }
    }

    /// One tick of [`JitterModel`]: draws the tick's edge deltas from the
    /// run RNG and brings this backend's derived state up to date. Both
    /// backends draw the identical sequence (see [`sample_edge_deltas`]) and
    /// differ only in that second half.
    pub(super) fn jitter(&mut self, model: &JitterModel, rng: &mut StdRng, obs: &mut RuntimeObs) {
        match self {
            LatencyState::Dense { current, graph, base_edges } => {
                let deltas = sample_edge_deltas(rng, model, graph, |e| base_edges[e.index()]);
                if deltas.is_empty() {
                    return;
                }
                for &(e, w) in &deltas {
                    graph.set_edge_latency(e, w);
                }
                *current = all_pairs_latency(graph);
                obs.point("latency.repair", || {
                    vec![("edges", deltas.len().into()), ("dense_rebuild", 1u64.into())]
                });
            }
            LatencyState::Lazy(lazy) => {
                let deltas =
                    sample_edge_deltas(rng, model, lazy.graph(), |e| lazy.base_edge_latency(e));
                if deltas.is_empty() {
                    return;
                }
                // Only logs the batch: each row is repaired by its next
                // read, so the point reports how many now await one.
                lazy.apply_edge_deltas(&deltas);
                obs.point("latency.repair", || {
                    vec![("edges", deltas.len().into()), ("rows_stale", lazy.rows_stale().into())]
                });
            }
        }
    }
}

/// Draws one tick of [`JitterModel`] edge deltas against the current graph
/// weights: `edges_per_tick` uniform edge draws, each composing a factor
/// onto the edge's running value and clamping to `band` × its base
/// latency. Repeated draws of an edge compose within the tick (the second
/// factor applies to the first's result); the returned list holds one
/// final `(edge, latency)` per distinct edge, in first-draw order. Both
/// latency backends feed the identical sequence to their own apply step,
/// which is what keeps jittered runs bit-identical across backends.
fn sample_edge_deltas<R: Rng, B: Fn(EdgeId) -> f64>(
    rng: &mut R,
    jitter: &JitterModel,
    graph: &Graph,
    base: B,
) -> Vec<(EdgeId, f64)> {
    let m = graph.num_edges();
    if m == 0 {
        return Vec::new();
    }
    // sbon-lint: allow(unordered-iteration): slot map for compounding
    // repeated jitter on one edge; iteration happens over `deltas` (a Vec).
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut deltas: Vec<(EdgeId, f64)> = Vec::new();
    for _ in 0..jitter.edges_per_tick {
        let e = EdgeId(rng.gen_range(0..m) as u32);
        let f = rng.gen_range(jitter.factor_range.0..jitter.factor_range.1);
        let cur = match index.get(&e.0) {
            Some(&slot) => deltas[slot].1,
            None => graph.edge(e).latency_ms,
        };
        let b = base(e);
        let next = (cur * f).clamp(b * jitter.band.0, b * jitter.band.1);
        match index.entry(e.0) {
            std::collections::hash_map::Entry::Occupied(slot) => deltas[*slot.get()].1 = next,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(deltas.len());
                deltas.push((e, next));
            }
        }
    }
    deltas
}

impl OverlayRuntime {
    /// Ground-truth latency (for inspection). Backed by the dense matrix or
    /// the lazy row cache depending on
    /// [`RuntimeConfigBuilder::latency_backend`](super::RuntimeConfigBuilder::latency_backend);
    /// both serve identical values.
    pub fn latency(&self) -> &dyn LatencyProvider {
        self.latency.provider()
    }

    /// Row-cache counters of the lazy backend; `None` under the dense one.
    pub fn lazy_latency_stats(&self) -> Option<LazyLatencyStats> {
        self.latency.lazy().map(LazyLatency::stats)
    }
}
