//! Control-plane and lifecycle accounting: the public stats structs, the
//! registry handles behind them, [`RuntimeObs`] — the runtime's whole
//! observability state, no method of which takes [`OverlayRuntime`] — and
//! the stats views.
//!
//! `impl OverlayRuntime` here **reads** `obs`, `mapper` (routed traffic) and
//! **writes** `obs.tracer` (`finish_trace` only).

use sbon_obs::{
    CounterId, FieldValue, GaugeId, HistId, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, ObsConfig, SpanId, Tracer,
};

use super::OverlayRuntime;

/// Accumulated query-lifecycle accounting: arrivals, departures, and the
/// reuse economics (marginal vs standalone cost of every deployed query).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryLifecycleStats {
    /// Successful `deploy` calls.
    pub arrivals: usize,
    /// `undeploy` calls.
    pub departures: usize,
    /// Arrivals that attached to ≥ 1 running operator instance.
    pub reuse_hits: usize,
    /// Running instances attached to, summed over arrivals.
    pub reused_services: usize,
    /// Σ marginal network usage at deploy time (standalone usage minus what
    /// reuse made free; equals `standalone_usage` when reuse is off).
    pub marginal_usage: f64,
    /// Σ standalone network usage the same queries would have cost with no
    /// reuse.
    pub standalone_usage: f64,
}

/// Accumulated control-plane accounting of a runtime, split so the cost of
/// *maintaining* the optimizer's view (coordinate refresh + mapper sync)
/// is visible separately from the cost of *using* it (re-optimization and
/// evacuation mapping) and from plain latency-provider reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlPlaneStats {
    /// Churn ticks processed.
    pub ticks: usize,
    /// Nodes the churn process reported touched (dirty set sizes, summed).
    pub dirty_nodes: usize,
    /// Cost points that actually changed — each one cost a mapper
    /// re-registration (`update_node`).
    pub points_updated: usize,
    /// Nodes that arrived through the deployment wave — each one cost a
    /// mapper registration (`add_node`).
    pub nodes_joined: usize,
    /// Wall time admitting deployment-wave arrivals (mapper `add_node`).
    pub join_ns: u128,
    /// Wall time in coordinate maintenance: dirty-set scalar refresh plus
    /// mapper re-registrations (and relevance-index invalidation).
    pub refresh_ns: u128,
    /// Wall time in local re-optimization passes (per-service migration
    /// checks).
    pub local_reopt_ns: u128,
    /// Wall time in plan-rewrite passes (rewrite-neighbourhood
    /// exploration).
    pub rewrite_ns: u128,
    /// Wall time in full re-optimization passes.
    pub full_reopt_ns: u128,
    /// Wall time in failure handling: teardown cascade plus service
    /// evacuation (and the routed settle of its lookups).
    pub evac_ns: u128,
    /// Wall time in the routed settle at each tick: pricing and replaying
    /// the tick's parked lookups and registrations as messages, the origin
    /// row's prewarm included. Near zero under the other backends, whose
    /// settle is a no-op.
    pub settle_ns: u128,
    /// Circuit evaluations actually run by the adaptation passes (summed
    /// over local/rewrite/full events).
    pub reopt_evaluated: usize,
    /// Circuit evaluations skipped because the relevance index proved the
    /// circuit's re-opt inputs unchanged since its last no-op evaluation.
    pub reopt_skipped: usize,
    /// Candidate plans the rewrite and full passes rejected on their
    /// network-usage lower bound alone, before any placement or mapping
    /// work (see `sbon_core::optimizer`).
    pub candidates_pruned: usize,
    /// Candidate lists the rewrite and full passes built: one per distinct
    /// running plan (rewrite) or query shape (full), however many evaluated
    /// circuits read it (see `sbon_core::reopt::CandidateLists`).
    pub candidate_lists: u64,
    /// Candidate bounds and virtual placements the passes read from their
    /// circuits' memos instead of recomputing (see
    /// `sbon_core::reopt::ReoptMemo`).
    pub memo_hits: u64,
    /// Wall time reading the ground-truth latency provider for usage
    /// accounting (the data-plane proxy, for comparison).
    pub usage_ns: u128,
    /// Entries (live circuits and retained subtrees) whose charged usage a
    /// tick re-read: migrated, replaced, evacuated, retained or drained
    /// since the last tick, or outdated by a jitter batch. The rest were
    /// billed from their stored usage.
    pub usage_rereads: u64,
}

/// A multi-line human-readable breakdown: maintenance volume, wall time per
/// control-plane phase and re-opt dirty-filter effectiveness. The examples
/// print this instead of hand-rolling their own tables; the routed message
/// traffic prints through [`OverlayRuntime::routed_stats`].
impl std::fmt::Display for ControlPlaneStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |ns: u128| ns as f64 / 1e6;
        writeln!(
            f,
            "control plane: {} ticks, {} dirty nodes, {} points re-registered, {} joined",
            self.ticks, self.dirty_nodes, self.points_updated, self.nodes_joined
        )?;
        writeln!(
            f,
            "  wall time (ms): join {:.1} | refresh {:.1} | local re-opt {:.1} | rewrite {:.1} \
             | full re-opt {:.1} | evac {:.1} | settle {:.1} | usage reads {:.1}",
            ms(self.join_ns),
            ms(self.refresh_ns),
            ms(self.local_reopt_ns),
            ms(self.rewrite_ns),
            ms(self.full_reopt_ns),
            ms(self.evac_ns),
            ms(self.settle_ns),
            ms(self.usage_ns),
        )?;
        let candidates = self.reopt_evaluated + self.reopt_skipped;
        if candidates > 0 {
            writeln!(
                f,
                "  re-opt: {} evaluated, {} skipped clean ({:.1}% saved), \
                 {} candidate plans pruned by bound",
                self.reopt_evaluated,
                self.reopt_skipped,
                100.0 * self.reopt_skipped as f64 / candidates as f64,
                self.candidates_pruned,
            )?;
        }
        Ok(())
    }
}

/// Registry handles for every control-plane and lifecycle counter the
/// runtime maintains. Resolved once at construction; the hot paths
/// increment through these (a plain `Vec` index in the registry), so the
/// migration off ad-hoc struct fields costs nothing measurable.
pub(super) struct StatHandles {
    pub(super) ticks: CounterId,
    pub(super) dirty_nodes: CounterId,
    pub(super) points_updated: CounterId,
    pub(super) nodes_joined: CounterId,
    pub(super) join_ns: CounterId,
    pub(super) refresh_ns: CounterId,
    pub(super) local_reopt_ns: CounterId,
    pub(super) rewrite_ns: CounterId,
    pub(super) full_reopt_ns: CounterId,
    pub(super) evac_ns: CounterId,
    pub(super) settle_ns: CounterId,
    pub(super) reopt_evaluated: CounterId,
    pub(super) reopt_skipped: CounterId,
    pub(super) candidates_pruned: CounterId,
    pub(super) candidate_lists: CounterId,
    pub(super) memo_hits: CounterId,
    pub(super) usage_ns: CounterId,
    pub(super) usage_rereads: CounterId,
    pub(super) arrivals: CounterId,
    pub(super) departures: CounterId,
    pub(super) reuse_hits: CounterId,
    pub(super) reused_services: CounterId,
    pub(super) marginal_usage: GaugeId,
    pub(super) standalone_usage: GaugeId,
    pub(super) dirty_per_tick: HistId,
}

/// The runtime's observability state: the metrics registry backing the
/// [`ControlPlaneStats`] / [`QueryLifecycleStats`] views, and the optional
/// virtual-time tracer (a trace file, a flight-recorder ring of its last
/// lines, or both).
///
/// **Bit-invisibility contract:** nothing in here feeds back into the
/// simulation. Counters are written, never read by control flow; spans are
/// emitted only from the serial orchestration paths with `SimTime`
/// stamps; the ring is written and dumped, never consulted.
/// An instrumented run's [`RunReport`](crate::RunReport) is bit-identical to a
/// bare one.
pub(super) struct RuntimeObs {
    pub(super) registry: MetricsRegistry,
    pub(super) h: StatHandles,
    pub(super) tracer: Option<Tracer>,
    /// Virtual time (ms) of the event currently being processed; deploys
    /// and undeploys between ticks stamp at the last processed event.
    pub(super) now_ms: f64,
}

impl RuntimeObs {
    pub(super) fn new(config: &ObsConfig) -> RuntimeObs {
        let mut registry = MetricsRegistry::new();
        let h = StatHandles {
            ticks: registry.counter("control_plane", "ticks"),
            dirty_nodes: registry.counter("control_plane", "dirty_nodes"),
            points_updated: registry.counter("control_plane", "points_updated"),
            nodes_joined: registry.counter("control_plane", "nodes_joined"),
            join_ns: registry.counter("control_plane", "join_ns"),
            refresh_ns: registry.counter("control_plane", "refresh_ns"),
            local_reopt_ns: registry.counter("control_plane", "local_reopt_ns"),
            rewrite_ns: registry.counter("control_plane", "rewrite_ns"),
            full_reopt_ns: registry.counter("control_plane", "full_reopt_ns"),
            evac_ns: registry.counter("control_plane", "evac_ns"),
            settle_ns: registry.counter("control_plane", "settle_ns"),
            reopt_evaluated: registry.counter("control_plane", "reopt_evaluated"),
            reopt_skipped: registry.counter("control_plane", "reopt_skipped"),
            candidates_pruned: registry.counter("control_plane", "candidates_pruned"),
            candidate_lists: registry.counter("control_plane", "candidate_lists"),
            memo_hits: registry.counter("control_plane", "memo_hits"),
            usage_ns: registry.counter("control_plane", "usage_ns"),
            usage_rereads: registry.counter("control_plane", "usage_rereads"),
            arrivals: registry.counter("lifecycle", "arrivals"),
            departures: registry.counter("lifecycle", "departures"),
            reuse_hits: registry.counter("lifecycle", "reuse_hits"),
            reused_services: registry.counter("lifecycle", "reused_services"),
            marginal_usage: registry.gauge("lifecycle", "marginal_usage"),
            standalone_usage: registry.gauge("lifecycle", "standalone_usage"),
            dirty_per_tick: registry.histogram_with(
                "control_plane",
                "dirty_per_tick",
                Histogram::with_bounds(vec![8.0, 32.0, 128.0, 512.0, 4096.0]),
            ),
        };
        RuntimeObs { registry, h, tracer: config.tracer(), now_ms: 0.0 }
    }

    /// Opens a span at the current virtual time. The fields closure runs
    /// only when tracing is on, so the disabled path costs one branch.
    #[inline]
    pub(super) fn span_start(
        &mut self,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> Option<SpanId> {
        let t = self.tracer.as_mut()?;
        Some(t.span_start(kind, self.now_ms, fields()))
    }

    /// Closes a span; `None` (tracing off) is free.
    #[inline]
    pub(super) fn span_end(
        &mut self,
        span: Option<SpanId>,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if let (Some(span), Some(t)) = (span, self.tracer.as_mut()) {
            t.span_end(span, self.now_ms, fields());
        }
    }

    /// Emits an instantaneous event at the current virtual time.
    #[inline]
    pub(super) fn point(
        &mut self,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(t) = self.tracer.as_mut() {
            t.point(kind, self.now_ms, fields());
        }
    }
}

impl OverlayRuntime {
    /// Accumulated control-plane accounting (refresh vs mapping vs
    /// latency-read time), assembled as a view over the metrics registry.
    /// The routed message traffic is [`OverlayRuntime::routed_stats`].
    pub fn control_plane_stats(&self) -> ControlPlaneStats {
        let r = &self.obs.registry;
        let h = &self.obs.h;
        ControlPlaneStats {
            ticks: r.counter_value(h.ticks) as usize,
            dirty_nodes: r.counter_value(h.dirty_nodes) as usize,
            points_updated: r.counter_value(h.points_updated) as usize,
            nodes_joined: r.counter_value(h.nodes_joined) as usize,
            join_ns: u128::from(r.counter_value(h.join_ns)),
            refresh_ns: u128::from(r.counter_value(h.refresh_ns)),
            local_reopt_ns: u128::from(r.counter_value(h.local_reopt_ns)),
            rewrite_ns: u128::from(r.counter_value(h.rewrite_ns)),
            full_reopt_ns: u128::from(r.counter_value(h.full_reopt_ns)),
            evac_ns: u128::from(r.counter_value(h.evac_ns)),
            settle_ns: u128::from(r.counter_value(h.settle_ns)),
            reopt_evaluated: r.counter_value(h.reopt_evaluated) as usize,
            reopt_skipped: r.counter_value(h.reopt_skipped) as usize,
            candidates_pruned: r.counter_value(h.candidates_pruned) as usize,
            candidate_lists: r.counter_value(h.candidate_lists),
            memo_hits: r.counter_value(h.memo_hits),
            usage_ns: u128::from(r.counter_value(h.usage_ns)),
            usage_rereads: r.counter_value(h.usage_rereads),
        }
    }

    /// Query-lifecycle accounting so far, assembled as a view over the
    /// metrics registry.
    pub fn lifecycle_stats(&self) -> QueryLifecycleStats {
        let r = &self.obs.registry;
        let h = &self.obs.h;
        QueryLifecycleStats {
            arrivals: r.counter_value(h.arrivals) as usize,
            departures: r.counter_value(h.departures) as usize,
            reuse_hits: r.counter_value(h.reuse_hits) as usize,
            reused_services: r.counter_value(h.reused_services) as usize,
            marginal_usage: r.gauge_value(h.marginal_usage),
            standalone_usage: r.gauge_value(h.standalone_usage),
        }
    }

    /// A point-in-time snapshot of the runtime's metrics registry. Under
    /// [`MapperBackend::Routed`](super::MapperBackend::Routed) the routed
    /// traffic counters and the hop/latency histograms are folded in under
    /// `routed.*` keys. Two snapshots [`MetricsSnapshot::diff`] into a
    /// per-interval view.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        if let Some(rs) = self.routed_stats() {
            snap.counters.insert("routed.messages".into(), rs.messages);
            snap.counters.insert("routed.lookups".into(), rs.lookups);
            snap.counters.insert("routed.registrations".into(), rs.registrations);
            snap.counters.insert("routed.unregistrations".into(), rs.unregistrations);
            snap.counters.insert("routed.retries".into(), rs.retries);
            snap.counters.insert("routed.timeouts".into(), rs.timeouts);
            snap.histograms.insert("routed.hops".into(), HistogramSnapshot::of(&rs.hops));
            snap.histograms
                .insert("routed.latency_ms".into(), HistogramSnapshot::of(&rs.latency_ms));
        }
        snap
    }

    /// Trace events emitted so far; `None` when tracing is off.
    pub fn trace_events_emitted(&self) -> Option<u64> {
        self.obs.tracer.as_ref().map(|t| t.emitted)
    }

    /// Finishes tracing: flushes the trace file and detaches the tracer
    /// (subsequent events are dropped). Dropping the runtime flushes
    /// implicitly; call this to read a trace file while the runtime is
    /// still alive.
    pub fn finish_trace(&mut self) {
        if let Some(tracer) = self.obs.tracer.take() {
            tracer.finish();
        }
    }
}
