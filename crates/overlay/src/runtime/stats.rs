//! Control-plane and lifecycle accounting: the public stats structs, which
//! are the record — the runtime adds to their fields where the work
//! happens — and [`RuntimeObs`], the runtime's whole observability state,
//! no method of which takes [`OverlayRuntime`].
//!
//! `impl OverlayRuntime` here **reads** `obs` and **writes** `obs.tracer`
//! (`finish_trace` only).

use sbon_obs::{FieldValue, ObsConfig, SpanId, Tracer};

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
    /// the tick's parked lookups and registrations as messages. Near zero
    /// under the other backends, whose
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

/// The runtime's observability state: the [`ControlPlaneStats`] and
/// [`QueryLifecycleStats`] the runtime counts into directly — the record,
/// read back by copy — and the optional virtual-time tracer (a trace file,
/// a flight-recorder ring of its last lines, or both).
///
/// **Bit-invisibility contract:** nothing in here feeds back into the
/// simulation. The stats are written, never read by control flow; spans are
/// emitted only from the serial orchestration paths with `SimTime`
/// stamps; the ring is written and dumped, never consulted.
/// An instrumented run's [`RunReport`](crate::RunReport) is bit-identical to a
/// bare one.
pub(super) struct RuntimeObs {
    pub(super) cp: ControlPlaneStats,
    /// The usage sums accumulate in call order (deploys are serial), so
    /// they are bit-deterministic.
    pub(super) lifecycle: QueryLifecycleStats,
    pub(super) tracer: Option<Tracer>,
    /// Virtual time (ms) of the event currently being processed; deploys
    /// and undeploys between ticks stamp at the last processed event.
    pub(super) now_ms: f64,
}

impl RuntimeObs {
    pub(super) fn new(config: &ObsConfig) -> RuntimeObs {
        RuntimeObs {
            cp: ControlPlaneStats::default(),
            lifecycle: QueryLifecycleStats::default(),
            tracer: config.tracer(),
            now_ms: 0.0,
        }
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
    /// latency-read time). The routed message traffic is
    /// [`OverlayRuntime::routed_stats`].
    pub fn control_plane_stats(&self) -> ControlPlaneStats {
        self.obs.cp.clone()
    }

    /// Query-lifecycle accounting so far.
    pub fn lifecycle_stats(&self) -> QueryLifecycleStats {
        self.obs.lifecycle
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
