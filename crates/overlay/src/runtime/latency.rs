//! Ground-truth latency state: the one store every read goes through, and
//! the per-tick jitter draw with the epoch it bumps.
//! `LatencyState` is self-contained — no method takes
//! [`OverlayRuntime`]; the jitter step borrows the run RNG and
//! [`RuntimeObs`] from its caller.
//!
//! `impl OverlayRuntime` here **reads** `latency` and writes nothing.

use rand::rngs::StdRng;
use rand::Rng;

use sbon_netsim::graph::{EdgeId, Graph};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::lazy::{LazyLatency, LazyLatencyStats};

use super::config::JitterModel;
use super::stats::RuntimeObs;
use super::OverlayRuntime;

/// Ground-truth latency: one store under either
/// [`LatencyBackend`](super::LatencyBackend).
pub(super) struct LatencyState {
    /// The store, owner of the mutable graph and the jitter step; each
    /// jitter batch repairs it, so every read is current.
    lazy: LazyLatency,
    /// Bumped by every jitter batch that changed an edge: a usage read at
    /// an older epoch may be stale.
    epoch: u64,
}

impl LatencyState {
    /// Builds the store over `graph`.
    pub(super) fn build(graph: Graph) -> Self {
        LatencyState { lazy: LazyLatency::new(graph), epoch: 0 }
    }

    /// The store.
    pub(super) fn provider(&self) -> &LazyLatency {
        &self.lazy
    }

    /// The latency epoch: equal epochs serve equal latencies.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One tick of [`JitterModel`]: `edges_per_tick` uniform (edge, factor)
    /// draws from the run RNG, applied by
    /// [`LazyLatency::scale_edges_clamped`] as one delta batch, which
    /// repairs the store. The point reports the labels the repair changed.
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
        let settled = || self.lazy.stats().vertices_settled;
        let before = settled();
        let edges = self.lazy.scale_edges_clamped(&draws, model.band);
        if edges == 0 {
            return;
        }
        self.epoch += 1;
        let settled = self.lazy.stats().vertices_settled - before;
        obs.point("latency.repair", || vec![("edges", edges.into()), ("settled", settled.into())]);
    }
}

impl OverlayRuntime {
    /// Ground-truth latency (for inspection): the runtime's store.
    pub fn latency(&self) -> &dyn LatencyProvider {
        self.latency.provider()
    }

    /// The store's counters; always `Some`.
    pub fn lazy_latency_stats(&self) -> Option<LazyLatencyStats> {
        Some(self.latency.provider().stats())
    }
}

#[cfg(test)]
mod tests {
    use sbon_core::optimizer::QuerySpec;
    use sbon_netsim::dijkstra::all_pairs_latency;
    use sbon_netsim::graph::NodeId;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    use super::super::{LatencyBackend, RuntimeConfig};
    use super::*;

    /// Under the dense backend, too, the runtime holds one store, built
    /// once. A jittered run repairs its tables every batch and builds
    /// nothing again, and every read equals the all-pairs reference over
    /// the runtime's jittered graph.
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
        let built = rt.lazy_latency_stats().expect("one store under either backend");
        let hosts = topo.host_candidates();
        rt.deploy(QuerySpec::join_star(&[hosts[0], hosts[10], hosts[20]], hosts[40], 10.0, 0.02))
            .unwrap();
        rt.run();
        let stats = rt.lazy_latency_stats().unwrap();
        let own = stats.rows_computed - built.rows_computed;
        assert!(own < n as u64, "only own-region rows are computed after the build: {own}");
        assert!(stats.rows_repaired > 0, "jitter batches repaired the tables");
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
