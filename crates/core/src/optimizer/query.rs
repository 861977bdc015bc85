//! Query specifications handed to the optimizers.

use sbon_netsim::graph::NodeId;
use sbon_query::plan::LogicalPlan;
use sbon_query::stream::{StreamCatalog, StreamId};

/// A continuous query: which streams to combine, where the consumer lives,
/// and the catalog the optimizer reads producers and statistics from.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The source streams (rates + pinned producers), selectivities and
    /// window. Cloning a query shares the catalog's body; a write through
    /// [`QuerySpec::with_rate`] or [`QuerySpec::with_selectivity`] unshares
    /// this query's alone.
    pub catalog: StreamCatalog,
    /// The streams this query joins (ids into `catalog`).
    pub join_set: Vec<StreamId>,
    /// The consumer's node (pinned).
    pub consumer: NodeId,
    /// Optional per-stream filters applied at the source side:
    /// `(stream, selectivity)` — each adds a σ service above that producer.
    pub source_filters: Vec<(StreamId, f64)>,
    /// Optional aggregation above the join root (output ratio); adds a γ
    /// service feeding the consumer — e.g. a windowed rollup before
    /// delivery.
    pub root_aggregate: Option<f64>,
}

impl QuerySpec {
    /// A query joining fresh streams, one per producer, all with the same
    /// rate, and a uniform pairwise join selectivity. This is the Figure 1
    /// workload shape: "a four-way join operator is decomposed into three
    /// two-way joins and then placed in the SBON".
    pub fn join_star(producers: &[NodeId], consumer: NodeId, rate: f64, join_sel: f64) -> Self {
        assert!(!producers.is_empty(), "need at least one producer");
        let mut catalog = StreamCatalog::new();
        catalog.set_default_selectivity(join_sel);
        let join_set = producers
            .iter()
            .enumerate()
            .map(|(i, &p)| catalog.register(format!("stream{i}"), rate, p))
            .collect();
        QuerySpec::new(catalog, join_set, consumer)
    }

    /// Builds a query over an existing catalog.
    pub fn new(catalog: StreamCatalog, join_set: Vec<StreamId>, consumer: NodeId) -> Self {
        assert!(!join_set.is_empty(), "join set may not be empty");
        QuerySpec { catalog, join_set, consumer, source_filters: Vec::new(), root_aggregate: None }
    }

    /// Overrides one stream's rate (builder style).
    pub fn with_rate(mut self, stream: StreamId, rate: f64) -> Self {
        self.catalog.set_rate(stream, rate);
        self
    }

    /// Overrides one pairwise selectivity (builder style).
    pub fn with_selectivity(mut self, a: StreamId, b: StreamId, sel: f64) -> Self {
        self.catalog.set_join_selectivity(a, b, sel);
        self
    }

    /// Adds a source-side filter (builder style).
    pub fn with_source_filter(mut self, stream: StreamId, selectivity: f64) -> Self {
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "source filter selectivity must be in (0, 1], got {selectivity}"
        );
        self.source_filters.push((stream, selectivity));
        self
    }

    /// Adds a root aggregation with the given output ratio (builder style).
    pub fn with_root_aggregate(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "root aggregate ratio must be in (0, 1], got {ratio}");
        self.root_aggregate = Some(ratio);
        self
    }

    /// Wraps a raw join tree with this query's decorations: source filters
    /// on matching leaves and the optional root aggregation. Plan
    /// enumeration works on the bare join trees; decorations are reattached
    /// here so every candidate plan carries them identically.
    pub fn apply_filters(&self, plan: LogicalPlan) -> LogicalPlan {
        let decorated = self.apply_source_filters(plan);
        match self.root_aggregate {
            Some(ratio) => LogicalPlan::aggregate(ratio, decorated),
            None => decorated,
        }
    }

    fn apply_source_filters(&self, plan: LogicalPlan) -> LogicalPlan {
        if self.source_filters.is_empty() {
            return plan;
        }
        match plan {
            LogicalPlan::Source(id) => {
                let mut wrapped = LogicalPlan::Source(id);
                for &(fid, sel) in &self.source_filters {
                    if fid == id {
                        wrapped = LogicalPlan::select(sel, wrapped);
                    }
                }
                wrapped
            }
            LogicalPlan::Unary { op, input } => {
                LogicalPlan::Unary { op, input: Box::new(self.apply_source_filters(*input)) }
            }
            LogicalPlan::Binary { op, left, right } => LogicalPlan::Binary {
                op,
                left: Box::new(self.apply_source_filters(*left)),
                right: Box::new(self.apply_source_filters(*right)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operator (non-leaf) nodes: the services a circuit of `plan` places.
    fn operators(plan: &LogicalPlan) -> usize {
        let mut n = 0;
        plan.visit(&mut |p| n += usize::from(!matches!(p, LogicalPlan::Source(_))));
        n
    }

    #[test]
    fn join_star_registers_all_streams() {
        let q = QuerySpec::join_star(&[NodeId(1), NodeId(2), NodeId(3)], NodeId(9), 10.0, 0.05);
        assert_eq!(q.join_set.len(), 3);
        assert_eq!(q.catalog.get(StreamId(1)).producer, NodeId(2));
        assert_eq!(q.catalog.rate(StreamId(0)), 10.0);
        assert_eq!(q.catalog.join_selectivity(StreamId(0), StreamId(2)), 0.05);
    }

    #[test]
    fn builders_override_stats() {
        let q = QuerySpec::join_star(&[NodeId(1), NodeId(2)], NodeId(9), 10.0, 0.05)
            .with_rate(StreamId(0), 99.0)
            .with_selectivity(StreamId(0), StreamId(1), 0.5);
        assert_eq!(q.catalog.rate(StreamId(0)), 99.0);
        assert_eq!(q.catalog.join_selectivity(StreamId(1), StreamId(0)), 0.5);
    }

    /// A rate override is one write: the catalog reports it, and the
    /// producer's link carries it in every candidate circuit.
    #[test]
    fn with_rate_reaches_the_catalog_and_every_candidate_circuit() {
        use crate::circuit::{Circuit, ServiceKind};
        use crate::optimizer::{IntegratedOptimizer, OptimizerConfig};

        let producers = [NodeId(1), NodeId(2), NodeId(3)];
        let q = QuerySpec::join_star(&producers, NodeId(9), 10.0, 0.05).with_rate(StreamId(1), 4.0);
        assert_eq!(q.catalog.get(StreamId(1)).rate, 4.0);
        let plans = IntegratedOptimizer::new(OptimizerConfig::default()).candidate_plans(&q);
        assert_eq!(plans.len(), 3);
        for plan in &plans {
            let c = Circuit::from_plan(plan, &q.catalog, q.consumer);
            let link = c
                .links()
                .iter()
                .find(|l| matches!(c.service(l.from).kind, ServiceKind::Producer(StreamId(1))));
            assert_eq!(link.map(|l| l.rate), Some(4.0), "{plan}");
        }
    }

    #[test]
    fn apply_filters_wraps_matching_leaves() {
        let q = QuerySpec::join_star(&[NodeId(1), NodeId(2)], NodeId(9), 10.0, 0.05)
            .with_source_filter(StreamId(1), 0.2);
        let bare =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let filtered = q.apply_filters(bare);
        assert_eq!(filtered.render(), "(s0 ⋈ σ(s1))");
        assert_eq!(operators(&filtered), 2);
    }

    #[test]
    fn root_aggregate_wraps_the_plan() {
        let q = QuerySpec::join_star(&[NodeId(1), NodeId(2)], NodeId(9), 10.0, 0.05)
            .with_root_aggregate(0.1)
            .with_source_filter(StreamId(0), 0.5);
        let bare =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let decorated = q.apply_filters(bare);
        assert_eq!(decorated.render(), "γ((σ(s0) ⋈ s1))");
        assert_eq!(operators(&decorated), 3);
        // Aggregation shrinks the final delivery rate by the ratio.
        let join_only = LogicalPlan::join(
            LogicalPlan::select(0.5, LogicalPlan::source(StreamId(0))),
            LogicalPlan::source(StreamId(1)),
        );
        assert!(
            (q.catalog.output_rate(&decorated) - 0.1 * q.catalog.output_rate(&join_only)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn empty_join_star_rejected() {
        QuerySpec::join_star(&[], NodeId(0), 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "source filter selectivity must be in (0, 1], got 1.5")]
    fn source_filter_outside_the_unit_interval_is_rejected() {
        QuerySpec::join_star(&[NodeId(1)], NodeId(9), 10.0, 0.05)
            .with_source_filter(StreamId(0), 1.5);
    }

    #[test]
    #[should_panic(expected = "root aggregate ratio must be in (0, 1], got 0")]
    fn root_aggregate_outside_the_unit_interval_is_rejected() {
        QuerySpec::join_star(&[NodeId(1)], NodeId(9), 10.0, 0.05).with_root_aggregate(0.0);
    }
}
