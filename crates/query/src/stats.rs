//! Rate propagation over the catalog's statistics.
//!
//! "Table summary information is used to estimate costs for performing
//! different service orderings" (Section 2.1). For streams the summary is a
//! publication *rate* per source plus pairwise join selectivities and a join
//! window, all held by the [`StreamCatalog`]; an operator's output rate
//! follows the standard windowed stream-join model:
//!
//! * `rate(σ/γ (P))        = ratio · rate(P)`
//! * `rate(P₁ ⋈ P₂)        = sel(S₁, S₂) · rate(P₁) · rate(P₂) · window`
//! * `rate(P₁ ∪ P₂)        = rate(P₁) + rate(P₂)`
//!
//! where `sel(S₁, S₂) = Π sel(i, j)` over stream pairs across the two sides
//! (attribute-independence assumption). A useful consequence: the *final*
//! output rate of a join set is independent of join order, while the
//! *intermediate* rates — and hence the statistical plan cost
//! `Σ operator output rates` — depend on it. That asymmetry is exactly what
//! gives the classic two-step optimizer something to optimize.

use crate::plan::{BinaryOp, LogicalPlan};
use crate::stream::{StreamCatalog, StreamId};

impl StreamCatalog {
    /// Cross selectivity of joining two stream sets: product over pairs.
    pub fn cross_selectivity(&self, left: &[StreamId], right: &[StreamId]) -> f64 {
        let mut sel = 1.0;
        for &i in left {
            for &j in right {
                sel *= self.join_selectivity(i, j);
            }
        }
        sel
    }

    /// Output rate of a plan node (the rate flowing over its output link),
    /// recomputed top-down: the per-node reference the bottom-up builders
    /// are tested against.
    pub fn output_rate(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Source(id) => self.rate(*id),
            LogicalPlan::Unary { op, input } => op.rate_ratio() * self.output_rate(input),
            LogicalPlan::Binary { op, left, right } => self.binary_output_rate(
                *op,
                (self.output_rate(left), &left.sources()),
                (self.output_rate(right), &right.sources()),
            ),
        }
    }

    /// Output rate of a binary operator given each input's `(output rate,
    /// source streams)` — the one rate step of the model, taken by
    /// [`StreamCatalog::output_rate`], the k-best DP and every caller that
    /// walks a plan bottom-up carrying both per subtree.
    pub fn binary_output_rate(
        &self,
        op: BinaryOp,
        (rl, left): (f64, &[StreamId]),
        (rr, right): (f64, &[StreamId]),
    ) -> f64 {
        match op {
            BinaryOp::Join => self.cross_selectivity(left, right) * rl * rr * self.window(),
            BinaryOp::Union => rl + rr,
        }
    }

    /// The statistics-only plan cost used by the classic two-step optimizer:
    /// the sum of all operator output rates ("C_out"). Lower is better.
    pub fn statistical_cost(&self, plan: &LogicalPlan) -> f64 {
        let mut cost = 0.0;
        plan.visit(&mut |p| {
            if !matches!(p, LogicalPlan::Source(_)) {
                cost += self.output_rate(p);
            }
        });
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::graph::NodeId;

    fn s(i: u32) -> LogicalPlan {
        LogicalPlan::source(StreamId(i))
    }

    fn catalog3() -> StreamCatalog {
        let mut c = StreamCatalog::new();
        c.set_default_selectivity(0.1);
        for (i, rate) in [10.0, 20.0, 5.0].into_iter().enumerate() {
            c.register(format!("s{i}"), rate, NodeId(i as u32));
        }
        c
    }

    #[test]
    fn source_rate_is_base_rate() {
        let c = catalog3();
        assert_eq!(c.output_rate(&s(1)), 20.0);
    }

    #[test]
    fn join_rate_model() {
        let c = catalog3();
        // 0.1 × 10 × 20 × window(1.0) = 20
        assert_eq!(c.output_rate(&LogicalPlan::join(s(0), s(1))), 20.0);
    }

    #[test]
    fn filter_scales_rate() {
        let c = catalog3();
        let p = LogicalPlan::select(0.25, s(1));
        assert_eq!(c.output_rate(&p), 5.0);
    }

    #[test]
    fn union_adds_rates() {
        let c = catalog3();
        assert_eq!(c.output_rate(&LogicalPlan::union(s(0), s(2))), 15.0);
    }

    #[test]
    fn final_join_rate_is_order_independent() {
        let mut c = catalog3();
        c.set_join_selectivity(StreamId(0), StreamId(1), 0.5);
        c.set_join_selectivity(StreamId(1), StreamId(2), 0.01);
        let p1 = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let p2 = LogicalPlan::join(s(0), LogicalPlan::join(s(1), s(2)));
        let p3 = LogicalPlan::join(LogicalPlan::join(s(0), s(2)), s(1));
        let r = c.output_rate(&p1);
        assert!((c.output_rate(&p2) - r).abs() < 1e-9 * r);
        assert!((c.output_rate(&p3) - r).abs() < 1e-9 * r);
    }

    #[test]
    fn statistical_cost_depends_on_order() {
        let mut c = catalog3();
        // Joining 1⋈2 first is cheap (sel 0.001), 0⋈1 first is expensive.
        c.set_join_selectivity(StreamId(1), StreamId(2), 0.001);
        c.set_join_selectivity(StreamId(0), StreamId(1), 0.9);
        let cheap_first = LogicalPlan::join(LogicalPlan::join(s(1), s(2)), s(0));
        let costly_first = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        assert!(c.statistical_cost(&cheap_first) < c.statistical_cost(&costly_first));
    }

    #[test]
    fn window_scales_join_output() {
        let mut c = catalog3();
        let p = LogicalPlan::join(s(0), s(1));
        let base = c.output_rate(&p);
        c.set_window(2.0);
        assert_eq!(c.output_rate(&p), 2.0 * base);
    }

    #[test]
    fn selectivity_is_symmetric() {
        let mut c = catalog3();
        c.set_join_selectivity(StreamId(2), StreamId(0), 0.33);
        assert_eq!(c.join_selectivity(StreamId(0), StreamId(2)), 0.33);
        assert_eq!(c.join_selectivity(StreamId(2), StreamId(0)), 0.33);
    }

    #[test]
    #[should_panic(expected = "unknown stream s9")]
    fn unknown_stream_panics() {
        catalog3().rate(StreamId(9));
    }
}
