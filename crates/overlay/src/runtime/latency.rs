//! Ground-truth latency state: the backend choice, the dense matrix it may
//! call for, row prewarm for the lazy backend, the row-free point-to-point
//! reader that prices a settle's routed messages, and the per-tick jitter
//! draw with the epoch it bumps.
//! `LatencyState` is self-contained — no method takes
//! [`OverlayRuntime`]; the jitter step borrows the run RNG and
//! [`RuntimeObs`] from its caller.
//!
//! `impl OverlayRuntime` here **reads** `latency` and writes nothing.

use rand::rngs::StdRng;
use rand::Rng;

use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::{EdgeId, Graph, NodeId};
use sbon_netsim::latency::{LatencyMatrix, LatencyProvider};
use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats, PairReader};

use super::config::{JitterModel, LatencyBackend};
use super::stats::RuntimeObs;
use super::OverlayRuntime;

/// Backend-selected ground-truth latency state.
pub(super) struct LatencyState {
    /// Owner of the mutable underlay graph, the base edge weights and the
    /// jitter step under either backend; under [`LatencyBackend::Lazy`]
    /// also the provider (demand-driven rows, repaired when next read).
    lazy: LazyLatency,
    /// Under [`LatencyBackend::Dense`]: the all-pairs matrix, which serves
    /// every read — `lazy`'s row cache stays empty — and is re-derived
    /// from `lazy`'s graph after each jitter batch.
    dense: Option<LatencyMatrix>,
    /// Bumped by every jitter batch that changed an edge: a usage read at
    /// an older epoch may be stale.
    epoch: u64,
    /// The reference [`PairRead`] is pinned against: price every pair with
    /// the row-faulting `provider().latency(a, b)` it replaced.
    #[cfg(test)]
    pub(super) pairs_by_rows: bool,
}

impl LatencyState {
    /// Builds the state over `graph`: the all-pairs matrix up front, or an
    /// empty row cache bounded by `row_cache` (`None` = unbounded).
    pub(super) fn build(graph: Graph, backend: LatencyBackend, row_cache: Option<usize>) -> Self {
        let dense = (backend == LatencyBackend::Dense).then(|| all_pairs_latency(&graph));
        let lazy = match row_cache {
            Some(cap) => LazyLatency::with_capacity(graph, cap),
            None => LazyLatency::new(graph),
        };
        LatencyState {
            lazy,
            dense,
            epoch: 0,
            #[cfg(test)]
            pairs_by_rows: false,
        }
    }

    /// The active provider as a trait object.
    pub(super) fn provider(&self) -> &dyn LatencyProvider {
        match &self.dense {
            Some(matrix) => matrix,
            None => &self.lazy,
        }
    }

    /// Point-to-point latencies for readers that need no row of their own —
    /// one settle's routed message delays: the matrix under the dense
    /// backend, a [`PairReader`] under the lazy one. Either way each value
    /// is bit-identical to `provider().latency(a, b)`.
    pub(super) fn pair_reader(&self) -> PairRead<'_> {
        #[cfg(test)]
        if self.pairs_by_rows {
            return PairRead::Rows(self.provider());
        }
        match &self.dense {
            Some(matrix) => PairRead::Matrix(matrix),
            None => PairRead::Lazy(self.lazy.pair_reader()),
        }
    }

    /// The latency epoch: equal epochs serve equal latencies.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lazy row cache; `None` under the dense backend.
    pub(super) fn lazy(&self) -> Option<&LazyLatency> {
        self.dense.is_none().then_some(&self.lazy)
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

    /// One tick of [`JitterModel`]: `edges_per_tick` uniform (edge, factor)
    /// draws from the run RNG, applied by
    /// [`LazyLatency::scale_edges_clamped`] as one delta batch — the same
    /// draws and the same weights under either backend, which is what keeps
    /// jittered runs bit-identical across them. The backends differ only
    /// in what is derived afterwards.
    pub(super) fn jitter(&mut self, model: &JitterModel, rng: &mut StdRng, obs: &mut RuntimeObs) {
        let m = self.lazy.graph().num_edges();
        if m == 0 {
            return;
        }
        let draws: Vec<(EdgeId, f64)> = (0..model.edges_per_tick)
            .map(|_| {
                let e = EdgeId(rng.gen_range(0..m) as u32);
                (e, rng.gen_range(model.factor_range.0..model.factor_range.1))
            })
            .collect();
        let edges = self.lazy.scale_edges_clamped(&draws, model.band);
        if edges == 0 {
            return;
        }
        self.epoch += 1;
        let derived = match &mut self.dense {
            Some(matrix) => {
                *matrix = all_pairs_latency(self.lazy.graph());
                ("dense_rebuild", 1u64.into())
            }
            // The batch is only logged: each row is repaired by its next
            // read, so the point reports how many now await one.
            None => ("rows_stale", self.lazy.rows_stale().into()),
        };
        obs.point("latency.repair", || vec![("edges", edges.into()), derived]);
    }
}

/// What [`LatencyState::pair_reader`] hands out. It borrows the state, so
/// no jitter batch lands while it lives.
pub(super) enum PairRead<'a> {
    Matrix(&'a LatencyMatrix),
    Lazy(PairReader<'a>),
    #[cfg(test)]
    Rows(&'a dyn LatencyProvider),
}

impl PairRead<'_> {
    /// The latency from `a` to `b`.
    pub(super) fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        match self {
            PairRead::Matrix(matrix) => matrix.latency(a, b),
            PairRead::Lazy(reader) => reader.latency(a, b),
            #[cfg(test)]
            PairRead::Rows(provider) => provider.latency(a, b),
        }
    }
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

#[cfg(test)]
mod tests {
    use sbon_core::optimizer::QuerySpec;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    use super::super::RuntimeConfig;
    use super::*;

    /// Under the dense backend `LazyLatency` is the owner of the graph and
    /// the jitter step only: the matrix serves every read, so a jittered
    /// run leaves the row cache untouched and reports no lazy stats.
    #[test]
    fn dense_backend_jitters_through_lazy_but_never_fills_its_row_cache() {
        let topo = generate(&TransitStubConfig::with_total_nodes(80), 40);
        let config = RuntimeConfig::builder()
            .horizon_ms(8_000.0)
            .latency_backend(LatencyBackend::Dense)
            .latency_jitter(JitterModel { edges_per_tick: 40, ..Default::default() })
            .build();
        let mut rt = OverlayRuntime::new(&topo, 40, config);
        let hosts = topo.host_candidates();
        rt.deploy(QuerySpec::join_star(&[hosts[0], hosts[10], hosts[20]], hosts[40], 10.0, 0.02))
            .unwrap();
        rt.run();
        let lazy = &rt.latency.lazy;
        assert_ne!(lazy.graph().total_edge_latency(), topo.graph.total_edge_latency());
        let stats = lazy.stats();
        assert_eq!((stats.rows_computed, stats.rows_cached, stats.cache_hits), (0, 0, 0));
        assert!(rt.lazy_latency_stats().is_none());
    }
}
