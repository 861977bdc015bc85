//! The statistics catalog and rate propagation.
//!
//! "Table summary information is used to estimate costs for performing
//! different service orderings" (Section 2.1). For streams the summary is a
//! publication *rate* per source plus pairwise join selectivities; an
//! operator's output rate follows the standard windowed stream-join model:
//!
//! * `rate(σ/π/γ (P))      = ratio · rate(P)`
//! * `rate(P₁ ⋈ P₂)        = sel(S₁, S₂) · rate(P₁) · rate(P₂) · window`
//! * `rate(P₁ ∪ P₂)        = rate(P₁) + rate(P₂)`
//!
//! where `sel(S₁, S₂) = Π sel(i, j)` over stream pairs across the two sides
//! (attribute-independence assumption). A useful consequence: the *final*
//! output rate of a join set is independent of join order, while the
//! *intermediate* rates — and hence the statistical plan cost
//! `Σ operator output rates` — depend on it. That asymmetry is exactly what
//! gives the classic two-step optimizer something to optimize.

use std::collections::HashMap;

use crate::plan::{BinaryOp, LogicalPlan};
use crate::stream::{StreamCatalog, StreamId};

/// Rates and selectivities for a deployment. Mutable: "the selectivity
/// estimates used to favor one plan over another may change as a circuit
/// matures" (Section 3.3), and re-optimization reacts to such updates.
#[derive(Clone, Debug)]
pub struct StatsCatalog {
    // sbon-lint: allow(unordered-iteration): point lookups only (insert/get
    // by stream id); neither map is ever iterated.
    rates: HashMap<StreamId, f64>,
    // sbon-lint: allow(unordered-iteration): point lookups only, see above.
    join_sel: HashMap<(StreamId, StreamId), f64>,
    default_join_sel: f64,
    window: f64,
}

impl StatsCatalog {
    /// An empty catalog with the given default pairwise join selectivity.
    pub fn new(default_join_sel: f64) -> Self {
        assert!(
            default_join_sel > 0.0 && default_join_sel.is_finite(),
            "default selectivity must be positive"
        );
        StatsCatalog {
            // sbon-lint: allow(unordered-iteration): lookup-only maps, see
            // the field declarations.
            rates: HashMap::new(),
            // sbon-lint: allow(unordered-iteration): as above.
            join_sel: HashMap::new(),
            default_join_sel,
            window: 1.0,
        }
    }

    /// Seeds rates from a stream catalog.
    pub fn from_streams(streams: &StreamCatalog, default_join_sel: f64) -> Self {
        let mut cat = StatsCatalog::new(default_join_sel);
        for s in streams.iter() {
            cat.set_rate(s.id, s.rate);
        }
        cat
    }

    /// Sets the join window factor (seconds of stream state joined against).
    pub fn set_window(&mut self, window: f64) {
        assert!(window > 0.0 && window.is_finite());
        self.window = window;
    }

    /// The current join window factor.
    pub fn window_factor(&self) -> f64 {
        self.window
    }

    /// Sets one stream's base rate.
    pub fn set_rate(&mut self, id: StreamId, rate: f64) {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        self.rates.insert(id, rate);
    }

    /// Base rate of a stream. Panics if the stream is unknown — the
    /// optimizer must never cost a plan over unregistered sources.
    pub fn rate(&self, id: StreamId) -> f64 {
        *self.rates.get(&id).unwrap_or_else(|| panic!("no rate registered for {id}"))
    }

    /// Sets the pairwise selectivity between two streams (symmetric).
    pub fn set_join_selectivity(&mut self, a: StreamId, b: StreamId, sel: f64) {
        assert!(sel > 0.0 && sel.is_finite(), "selectivity must be positive");
        let key = if a <= b { (a, b) } else { (b, a) };
        self.join_sel.insert(key, sel);
    }

    /// Pairwise selectivity (falls back to the default).
    pub fn join_selectivity(&self, a: StreamId, b: StreamId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        *self.join_sel.get(&key).unwrap_or(&self.default_join_sel)
    }

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

    /// Output rate of a plan node (the rate flowing over its output link).
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
    /// source streams)` — the one-level step of
    /// [`StatsCatalog::output_rate`], for callers that already walk the plan
    /// bottom-up and carry both per subtree.
    pub fn binary_output_rate(
        &self,
        op: BinaryOp,
        (rl, left): (f64, &[StreamId]),
        (rr, right): (f64, &[StreamId]),
    ) -> f64 {
        match op {
            BinaryOp::Join => self.cross_selectivity(left, right) * rl * rr * self.window,
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

    fn catalog3() -> StatsCatalog {
        let mut c = StatsCatalog::new(0.1);
        c.set_rate(StreamId(0), 10.0);
        c.set_rate(StreamId(1), 20.0);
        c.set_rate(StreamId(2), 5.0);
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
    fn from_streams_copies_rates() {
        let mut sc = StreamCatalog::new();
        let a = sc.register("a", 7.0, NodeId(0));
        let c = StatsCatalog::from_streams(&sc, 0.1);
        assert_eq!(c.rate(a), 7.0);
    }

    #[test]
    #[should_panic(expected = "no rate registered")]
    fn unknown_stream_panics() {
        StatsCatalog::new(0.1).rate(StreamId(9));
    }
}
