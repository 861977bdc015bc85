//! Ground-truth latency state: the one row cache every read goes through,
//! whether bring-up keeps every row (the backend's one choice), the
//! row-free reader that prices a settle's routed messages, and the
//! per-tick jitter draw with the epoch it bumps.
//! `LatencyState` is self-contained — no method takes
//! [`OverlayRuntime`]; the jitter step borrows the run RNG and
//! [`RuntimeObs`] from its caller.
//!
//! `impl OverlayRuntime` here **reads** `latency` and writes nothing.

use rand::rngs::StdRng;
use rand::Rng;

use sbon_netsim::graph::{EdgeId, Graph, NodeId};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats};

use super::config::{JitterModel, LatencyBackend};
use super::stats::RuntimeObs;
use super::OverlayRuntime;

/// Ground-truth latency: one row cache under either backend.
pub(super) struct LatencyState {
    /// The provider, owner of the mutable graph and the jitter step; a row
    /// stale after a jitter batch is repaired when it is next read.
    lazy: LazyLatency,
    /// Under [`LatencyBackend::Dense`]: every row was made resident at
    /// build, and bring-up keeps them.
    resident: bool,
    /// Bumped by every jitter batch that changed an edge: a usage read at
    /// an older epoch may be stale.
    epoch: u64,
    /// The reference [`LatencyState::pair_reader`] is pinned against: every
    /// pair read by the row-faulting `provider().latency(a, b)`.
    #[cfg(test)]
    pub(super) pairs_by_rows: bool,
}

impl LatencyState {
    /// Builds the state over `graph`; under [`LatencyBackend::Dense`] every
    /// row is computed up front, across `pool` when one is active.
    pub(super) fn build(
        graph: Graph,
        backend: LatencyBackend,
        pool: Option<&rayon::ThreadPool>,
    ) -> Self {
        let n = graph.num_nodes() as u32;
        let lazy = LazyLatency::new(graph);
        let resident = backend == LatencyBackend::Dense;
        if resident {
            lazy.ensure_rows(&(0..n).map(NodeId).collect::<Vec<_>>(), pool);
        }
        LatencyState {
            lazy,
            resident,
            epoch: 0,
            #[cfg(test)]
            pairs_by_rows: false,
        }
    }

    /// The provider.
    pub(super) fn provider(&self) -> &LazyLatency {
        &self.lazy
    }

    /// Point-to-point latencies for readers that need no row of their own —
    /// one settle's routed message delays — through one
    /// [`PairReader`](sbon_netsim::lazy::PairReader), each bit-identical to
    /// `provider().latency(a, b)`. It borrows the state, so no jitter batch
    /// lands while it lives.
    pub(super) fn pair_reader(&self) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
        let reader = self.lazy.pair_reader();
        #[cfg(test)]
        let by_rows = self.pairs_by_rows;
        move |a, b| {
            #[cfg(test)]
            if by_rows {
                return self.lazy.latency(a, b);
            }
            reader.latency(a, b)
        }
    }

    /// The latency epoch: equal epochs serve equal latencies.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ends bring-up: evicts the rows the embedding read — the steady state
    /// only reads rows of circuit hosts — unless every row stays resident.
    pub(super) fn end_bring_up(&self) {
        if !self.resident {
            self.lazy.evict_all();
        }
    }

    /// One tick of [`JitterModel`]: `edges_per_tick` uniform (edge, factor)
    /// draws from the run RNG, logged by [`LazyLatency::scale_edges_clamped`]
    /// as one delta batch that each resident row folds in when next read —
    /// the same under either backend, which keeps jittered runs
    /// bit-identical across them. The point reports the rows now stale.
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
        let stale = self.lazy.rows_stale();
        obs.point("latency.repair", || vec![("edges", edges.into()), ("rows_stale", stale.into())]);
    }
}

impl OverlayRuntime {
    /// Ground-truth latency (for inspection): the runtime's row cache, every
    /// row resident since bring-up under [`LatencyBackend::Dense`]; both
    /// backends serve identical values.
    pub fn latency(&self) -> &dyn LatencyProvider {
        self.latency.provider()
    }

    /// The row cache's counters; always `Some`.
    pub fn lazy_latency_stats(&self) -> Option<LazyLatencyStats> {
        Some(self.latency.provider().stats())
    }
}

#[cfg(test)]
mod tests {
    use sbon_core::optimizer::QuerySpec;
    use sbon_netsim::dijkstra::all_pairs_latency;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    use super::super::RuntimeConfig;
    use super::*;

    /// Under the dense backend every row is resident from `new` on. A
    /// jittered run repairs the rows it reads in place and recomputes none,
    /// and every read equals the all-pairs reference over the runtime's
    /// jittered graph. Eight ticks of 10 edges log fewer deltas than the
    /// graph has edges, so no row can fall behind the delta log.
    #[test]
    fn dense_rows_are_repaired_to_the_all_pairs_reference() {
        let topo = generate(&TransitStubConfig::with_total_nodes(80), 40);
        let n = topo.num_nodes();
        let config = RuntimeConfig::builder()
            .horizon_ms(8_000.0)
            .latency_backend(LatencyBackend::Dense)
            .latency_jitter(JitterModel { edges_per_tick: 10, ..Default::default() })
            .build();
        let mut rt = OverlayRuntime::new(&topo, 40, config);
        assert!(topo.graph.num_edges() > 80);
        let stats = rt.lazy_latency_stats().expect("one store under either backend");
        assert_eq!((stats.rows_computed, stats.rows_cached), (n as u64, n));
        let hosts = topo.host_candidates();
        rt.deploy(QuerySpec::join_star(&[hosts[0], hosts[10], hosts[20]], hosts[40], 10.0, 0.02))
            .unwrap();
        rt.run();
        let stats = rt.lazy_latency_stats().unwrap();
        assert_eq!(stats.rows_computed, n as u64, "rows are repaired, never recomputed");
        assert_eq!((stats.rows_cached, stats.rows_invalidated), (n, 0));
        assert!(stats.rows_repaired > 0, "the circuit's rows were read after jitter");
        let graph = rt.latency.provider().graph();
        assert_ne!(graph.total_edge_latency(), topo.graph.total_edge_latency());
        let reference = all_pairs_latency(graph);
        for a in (0..n as u32).map(NodeId) {
            for b in (0..n as u32).map(NodeId) {
                let (read, want) = (rt.latency().latency(a, b), reference.latency(a, b));
                assert_eq!(read.to_bits(), want.to_bits(), "{a} -> {b}");
            }
        }
    }
}
