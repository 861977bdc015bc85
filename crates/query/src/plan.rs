//! Logical plans.
//!
//! "Plan generation takes as input a user query and outputs a logical plan
//! ... one or more data endpoints, possibly connected via services, to a
//! consumer" (Section 2.1). A [`LogicalPlan`] is the operator tree between
//! the producers (leaves) and the consumer (the root's output).

use crate::stream::StreamId;

/// Unary operator kinds (services with one input).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// SELECT-style filter passing the given fraction of input data.
    Select {
        /// Fraction of input data passed through, `(0, 1]`.
        selectivity: f64,
    },
    /// Windowed aggregation emitting summaries.
    Aggregate {
        /// Output-to-input data ratio, `(0, 1]`.
        ratio: f64,
    },
}

impl UnaryOp {
    /// The output-to-input rate ratio of this operator.
    pub fn rate_ratio(self) -> f64 {
        match self {
            UnaryOp::Select { selectivity } => selectivity,
            UnaryOp::Aggregate { ratio } => ratio,
        }
    }

    /// Short label: the one operator-symbol table plan rendering prints.
    pub fn label(self) -> &'static str {
        match self {
            UnaryOp::Select { .. } => "σ",
            UnaryOp::Aggregate { .. } => "γ",
        }
    }
}

/// Binary operator kinds (services with two inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    /// Windowed two-way join; its selectivity comes from the statistics
    /// catalog (it depends on *which* streams meet here, not on the node).
    Join,
    /// Stream union (merge).
    Union,
}

impl BinaryOp {
    /// Short label, as [`UnaryOp::label`].
    pub fn label(self) -> &'static str {
        match self {
            BinaryOp::Join => "⋈",
            BinaryOp::Union => "∪",
        }
    }
}

/// A logical plan tree.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// A leaf: one source stream.
    Source(StreamId),
    /// A unary service over a subplan.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The input subplan.
        input: Box<LogicalPlan>,
    },
    /// A binary service over two subplans.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Leaf constructor.
    pub fn source(id: StreamId) -> Self {
        LogicalPlan::Source(id)
    }

    /// Join of two subplans.
    pub fn join(left: LogicalPlan, right: LogicalPlan) -> Self {
        LogicalPlan::Binary { op: BinaryOp::Join, left: Box::new(left), right: Box::new(right) }
    }

    /// Union of two subplans.
    pub fn union(left: LogicalPlan, right: LogicalPlan) -> Self {
        LogicalPlan::Binary { op: BinaryOp::Union, left: Box::new(left), right: Box::new(right) }
    }

    /// Filter over a subplan.
    pub fn select(selectivity: f64, input: LogicalPlan) -> Self {
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "filter selectivity must be in (0, 1], got {selectivity}"
        );
        LogicalPlan::Unary { op: UnaryOp::Select { selectivity }, input: Box::new(input) }
    }

    /// Aggregation over a subplan.
    pub fn aggregate(ratio: f64, input: LogicalPlan) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "aggregate ratio must be in (0, 1], got {ratio}");
        LogicalPlan::Unary { op: UnaryOp::Aggregate { ratio }, input: Box::new(input) }
    }

    /// The set of source streams referenced, in first-visit order.
    pub fn sources(&self) -> Vec<StreamId> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let LogicalPlan::Source(id) = p {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Source(_) => {}
            LogicalPlan::Unary { input, .. } => input.visit(f),
            LogicalPlan::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }

    /// A canonical, order-sensitive rendering, e.g. `((s0 ⋈ s1) ⋈ s2)`.
    /// Used as a structural identity in tests and logs. Operator parameters
    /// are not printed — plans that differ only in a selectivity or ratio
    /// render alike — so it is not a key to deduplicate plans on.
    pub fn render(&self) -> String {
        match self {
            LogicalPlan::Source(id) => id.to_string(),
            LogicalPlan::Unary { op, input } => format!("{}({})", op.label(), input.render()),
            LogicalPlan::Binary { op, left, right } => {
                format!("({} {} {})", left.render(), op.label(), right.render())
            }
        }
    }

    /// Exact structural equality — plan identity: `==` with unary
    /// parameters compared by bits. Two plans are the same exactly when
    /// they build the same circuit (left/right order matters: a commuted
    /// join is a different circuit).
    pub fn same_structure(&self, other: &LogicalPlan) -> bool {
        match (self, other) {
            (LogicalPlan::Source(x), LogicalPlan::Source(y)) => x == y,
            (LogicalPlan::Unary { op: p, input: x }, LogicalPlan::Unary { op: q, input: y }) => {
                std::mem::discriminant(p) == std::mem::discriminant(q)
                    && p.rate_ratio().to_bits() == q.rate_ratio().to_bits()
                    && x.same_structure(y)
            }
            (
                LogicalPlan::Binary { op: p, left: a, right: b },
                LogicalPlan::Binary { op: q, left: c, right: d },
            ) => p == q && a.same_structure(c) && b.same_structure(d),
            _ => false,
        }
    }

    /// A deterministic hash of what [`LogicalPlan::same_structure`]
    /// compares: node kinds, stream ids, operators, unary parameters' bits,
    /// children in order — the bucket to look a plan up in before an exact
    /// comparison. Plain multiply-rotate word mixing with fixed constants —
    /// no seed, no per-process state.
    pub fn structural_hash(&self) -> u64 {
        fn mix(h: u64, word: u64) -> u64 {
            (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        }
        match self {
            LogicalPlan::Source(id) => mix(mix(0, 1), u64::from(id.0)),
            LogicalPlan::Unary { op, input } => {
                let kind = match op {
                    UnaryOp::Select { .. } => 2,
                    UnaryOp::Aggregate { .. } => 3,
                };
                mix(mix(mix(0, kind), op.rate_ratio().to_bits()), input.structural_hash())
            }
            LogicalPlan::Binary { op, left, right } => {
                let kind = match op {
                    BinaryOp::Join => 4,
                    BinaryOp::Union => 5,
                };
                mix(mix(mix(0, kind), left.structural_hash()), right.structural_hash())
            }
        }
    }
}

impl std::fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn s(i: u32) -> LogicalPlan {
        LogicalPlan::source(StreamId(i))
    }

    /// A *shape* key that ignores left/right order of commutative joins, so
    /// `A ⋈ B` and `B ⋈ A` compare equal — for tests that check enumeration
    /// output up to commutation. Parameters are not printed.
    pub(crate) fn shape_key(plan: &LogicalPlan) -> String {
        match plan {
            LogicalPlan::Source(id) => id.to_string(),
            LogicalPlan::Unary { op, input } => format!("{}({})", op.label(), shape_key(input)),
            LogicalPlan::Binary { op, left, right } => {
                let (a, b) = (shape_key(left), shape_key(right));
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                format!("({a} {} {b})", op.label())
            }
        }
    }

    /// Depth of the tree (a single source has depth 1).
    pub(crate) fn depth(plan: &LogicalPlan) -> usize {
        match plan {
            LogicalPlan::Source(_) => 1,
            LogicalPlan::Unary { input, .. } => 1 + depth(input),
            LogicalPlan::Binary { left, right, .. } => 1 + depth(left).max(depth(right)),
        }
    }

    /// Number of operator (non-leaf) nodes — the services a circuit must
    /// place.
    pub(crate) fn num_services(plan: &LogicalPlan) -> usize {
        let mut n = 0;
        plan.visit(&mut |p| n += usize::from(!matches!(p, LogicalPlan::Source(_))));
        n
    }

    #[test]
    fn sources_in_visit_order_without_duplicates() {
        let p = LogicalPlan::join(LogicalPlan::join(s(2), s(0)), s(2));
        assert_eq!(p.sources(), vec![StreamId(2), StreamId(0)]);
    }

    #[test]
    fn num_services_counts_operators_only() {
        let p = LogicalPlan::select(0.5, LogicalPlan::join(s(0), s(1)));
        assert_eq!(num_services(&p), 2);
        assert_eq!(num_services(&s(0)), 0);
    }

    #[test]
    fn depth_of_left_deep_vs_bushy() {
        let left_deep =
            LogicalPlan::join(LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2)), s(3));
        let bushy = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), LogicalPlan::join(s(2), s(3)));
        assert_eq!(depth(&left_deep), 4);
        assert_eq!(depth(&bushy), 3);
    }

    #[test]
    fn render_is_structural() {
        let p = LogicalPlan::join(s(0), s(1));
        assert_eq!(p.render(), "(s0 ⋈ s1)");
        let q = LogicalPlan::select(0.1, s(2));
        assert_eq!(q.render(), "σ(s2)");
    }

    #[test]
    fn shape_key_ignores_join_order() {
        let ab = LogicalPlan::join(s(0), s(1));
        let ba = LogicalPlan::join(s(1), s(0));
        assert_eq!(shape_key(&ab), shape_key(&ba));
        assert_ne!(ab.render(), ba.render());
    }

    #[test]
    fn shape_key_distinguishes_association() {
        let l = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let r = LogicalPlan::join(s(0), LogicalPlan::join(s(1), s(2)));
        assert_ne!(shape_key(&l), shape_key(&r));
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn select_rejects_bad_selectivity() {
        LogicalPlan::select(0.0, s(0));
    }

    #[test]
    fn rate_ratio_accessors() {
        assert_eq!(UnaryOp::Select { selectivity: 0.3 }.rate_ratio(), 0.3);
        assert_eq!(UnaryOp::Aggregate { ratio: 0.1 }.rate_ratio(), 0.1);
    }
}
