//! Local plan rewriting.
//!
//! Section 3.3: "As part of re-optimization, a node can perform limited plan
//! re-writing as long as it is running all affected services. This could
//! involve the reordering of services, the decomposition of existing
//! services into sub-services to reduce load, or the re-composition of
//! services to reduce network communication."
//!
//! This module provides exactly those three rewrite families on
//! [`LogicalPlan`]s:
//!
//! * **Reordering** — join commutation and the two associativity rotations,
//!   applied at any node ([`neighbors`] enumerates every one-step rewrite).
//! * **Decomposition** — [`split_filter`] splits a σ into two half-strength
//!   σs (two cheaper services that can run on two nodes).
//! * **Re-composition** — [`fuse_filters`] merges adjacent σs into one
//!   service (one network link instead of two).
//!
//! All rewrites preserve the plan's final output rate (the cost model's
//! invariant currency); only the *intermediate* shape changes.

use std::collections::BTreeMap;

use crate::plan::{BinaryOp, LogicalPlan, UnaryOp};

/// Swaps the two inputs of a commutative binary root. Returns `None` for
/// other shapes.
pub fn commute(plan: &LogicalPlan) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Binary { op: op @ (BinaryOp::Join | BinaryOp::Union), left, right } => {
            Some(LogicalPlan::Binary { op: *op, left: right.clone(), right: left.clone() })
        }
        _ => None,
    }
}

/// Left rotation at the root: `A ⋈ (B ⋈ C)` → `(A ⋈ B) ⋈ C`.
/// Only joins associate; returns `None` otherwise.
pub fn rotate_left(plan: &LogicalPlan) -> Option<LogicalPlan> {
    if let LogicalPlan::Binary { op: BinaryOp::Join, left: a, right } = plan {
        if let LogicalPlan::Binary { op: BinaryOp::Join, left: b, right: c } = right.as_ref() {
            return Some(LogicalPlan::join(
                LogicalPlan::join(a.as_ref().clone(), b.as_ref().clone()),
                c.as_ref().clone(),
            ));
        }
    }
    None
}

/// Right rotation at the root: `(A ⋈ B) ⋈ C` → `A ⋈ (B ⋈ C)`.
pub fn rotate_right(plan: &LogicalPlan) -> Option<LogicalPlan> {
    if let LogicalPlan::Binary { op: BinaryOp::Join, left, right: c } = plan {
        if let LogicalPlan::Binary { op: BinaryOp::Join, left: a, right: b } = left.as_ref() {
            return Some(LogicalPlan::join(
                a.as_ref().clone(),
                LogicalPlan::join(b.as_ref().clone(), c.as_ref().clone()),
            ));
        }
    }
    None
}

/// Fuses two adjacent filters at the root: `σ_a(σ_b(P))` → `σ_{a·b}(P)`.
pub fn fuse_filters(plan: &LogicalPlan) -> Option<LogicalPlan> {
    if let LogicalPlan::Unary { op: UnaryOp::Select { selectivity: a }, input } = plan {
        if let LogicalPlan::Unary { op: UnaryOp::Select { selectivity: b }, input: inner } =
            input.as_ref()
        {
            return Some(LogicalPlan::select(
                (a * b).clamp(f64::MIN_POSITIVE, 1.0),
                inner.as_ref().clone(),
            ));
        }
    }
    None
}

/// Splits a filter at the root into two half-strength stages:
/// `σ_s(P)` → `σ_√s(σ_√s(P))`. No-op (`None`) for `s = 1`.
pub fn split_filter(plan: &LogicalPlan) -> Option<LogicalPlan> {
    if let LogicalPlan::Unary { op: UnaryOp::Select { selectivity: s }, input } = plan {
        if *s < 1.0 {
            let half = s.sqrt();
            return Some(LogicalPlan::select(
                half,
                LogicalPlan::select(half, input.as_ref().clone()),
            ));
        }
    }
    None
}

/// Every plan reachable from `plan` by applying exactly one rewrite at one
/// node (any depth), deduplicated by exact structure — shape, left/right
/// order and operator parameters (left/right order matters: a commuted join
/// is a *different* circuit even though its shape key is equal, and
/// composite rewrites like commute-then-rotate need the intermediate to be
/// reachable).
pub fn neighbors(plan: &LogicalPlan) -> Vec<LogicalPlan> {
    neighbors_within(plan, 1, usize::MAX)
}

/// Every plan within `depth` rewrite steps of `plan` (excluding `plan`
/// itself), BFS in generation order, each distinct plan once, capped at
/// `max_plans` results. Depth 2 matters in practice: commutations are
/// cost-neutral on their own but open up rotations that one-step search
/// cannot reach.
///
/// Distinct means distinct in exact structure
/// ([`LogicalPlan::same_structure`]) — shape, left/right order, operators
/// and their parameters by bits — so two plans are one only if they build
/// the same circuit. Plans are bucketed by
/// [`LogicalPlan::structural_hash`] and compared exactly within a bucket: a
/// hash collision costs one comparison and never drops a plan.
pub fn neighbors_within(plan: &LogicalPlan, depth: usize, max_plans: usize) -> Vec<LogicalPlan> {
    // The start plan's slot in `seen`: it is listed, but not in `out`.
    const START: usize = usize::MAX;
    // Structural hash → indices into `out` of the plans listed under it.
    let mut seen: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    seen.insert(plan.structural_hash(), vec![START]);
    let mut out: Vec<LogicalPlan> = Vec::new();
    let mut generated = Vec::new();
    // The frontier is `plan` itself at the first level, then the slice of
    // `out` the previous level appended.
    let mut frontier = 0..0;
    for level in 0..depth {
        let level_start = out.len();
        for i in if level == 0 { 0..1 } else { frontier } {
            let from = if level == 0 { plan } else { &out[i] };
            rewrite_everywhere(from, &mut generated);
            for n in generated.drain(..) {
                if out.len() >= max_plans {
                    return out;
                }
                let listed = seen.entry(n.structural_hash()).or_default();
                let plan_at = |i: usize| if i == START { plan } else { &out[i] };
                if !listed.iter().any(|&i| plan_at(i).same_structure(&n)) {
                    listed.push(out.len());
                    out.push(n);
                }
            }
        }
        frontier = level_start..out.len();
        if frontier.is_empty() {
            break;
        }
    }
    out
}

/// Applies every root rewrite at every position of the tree, collecting the
/// full plans that result.
fn rewrite_everywhere(plan: &LogicalPlan, out: &mut Vec<LogicalPlan>) {
    // Rewrites at this node.
    for rw in [commute, rotate_left, rotate_right, fuse_filters, split_filter] {
        if let Some(p) = rw(plan) {
            out.push(p);
        }
    }
    // Rewrites in children, re-wrapped into this node.
    match plan {
        LogicalPlan::Source(_) => {}
        LogicalPlan::Unary { op, input } => {
            let mut inner = Vec::new();
            rewrite_everywhere(input, &mut inner);
            for p in inner {
                out.push(LogicalPlan::Unary { op: *op, input: Box::new(p) });
            }
        }
        LogicalPlan::Binary { op, left, right } => {
            let mut ls = Vec::new();
            rewrite_everywhere(left, &mut ls);
            for p in ls {
                out.push(LogicalPlan::Binary { op: *op, left: Box::new(p), right: right.clone() });
            }
            let mut rs = Vec::new();
            rewrite_everywhere(right, &mut rs);
            for p in rs {
                out.push(LogicalPlan::Binary { op: *op, left: left.clone(), right: Box::new(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{num_services, shape_key};
    use crate::stream::{StreamCatalog, StreamId};

    fn s(i: u32) -> LogicalPlan {
        LogicalPlan::source(StreamId(i))
    }

    fn stats(n: u32) -> StreamCatalog {
        let mut c = StreamCatalog::new();
        c.set_default_selectivity(0.1);
        for i in 0..n {
            c.register(format!("s{i}"), 10.0, sbon_netsim::graph::NodeId(i));
        }
        c
    }

    #[test]
    fn commute_swaps_join_inputs() {
        let p = LogicalPlan::join(s(0), s(1));
        let q = commute(&p).unwrap();
        assert_eq!(q.render(), "(s1 ⋈ s0)");
        assert!(commute(&s(0)).is_none());
    }

    #[test]
    fn rotations_are_inverse() {
        let p = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let rotated = rotate_right(&p).unwrap();
        assert_eq!(rotated.render(), "(s0 ⋈ (s1 ⋈ s2))");
        let back = rotate_left(&rotated).unwrap();
        assert_eq!(back.render(), p.render());
    }

    #[test]
    fn rotations_preserve_output_rate() {
        let c = stats(3);
        let p = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let r = rotate_right(&p).unwrap();
        let (a, b) = (c.output_rate(&p), c.output_rate(&r));
        assert!((a - b).abs() < 1e-9 * a);
    }

    #[test]
    fn fuse_preserves_output_rate() {
        let c = stats(1);
        let p = LogicalPlan::select(0.5, LogicalPlan::select(0.4, s(0)));
        let fused = fuse_filters(&p).unwrap();
        assert_eq!(fused.render(), "σ(s0)");
        assert!((c.output_rate(&p) - c.output_rate(&fused)).abs() < 1e-12);
        assert_eq!(num_services(&fused), 1);
    }

    #[test]
    fn split_preserves_output_rate_and_adds_a_service() {
        let c = stats(1);
        let p = LogicalPlan::select(0.25, s(0));
        let split = split_filter(&p).unwrap();
        assert_eq!(num_services(&split), 2);
        assert!((c.output_rate(&p) - c.output_rate(&split)).abs() < 1e-12);
        // Round trip: fusing the split gives the original selectivity back.
        let fused = fuse_filters(&split).unwrap();
        assert!((c.output_rate(&fused) - c.output_rate(&p)).abs() < 1e-12);
    }

    #[test]
    fn split_of_unit_filter_is_none() {
        assert!(split_filter(&LogicalPlan::select(1.0, s(0))).is_none());
    }

    #[test]
    fn neighbors_cover_join_reorderings() {
        let p = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let ns = neighbors(&p);
        let keys: Vec<String> = ns.iter().map(shape_key).collect();
        // One-step rewrites must reach the other two association classes.
        let assoc1 = shape_key(&LogicalPlan::join(s(0), LogicalPlan::join(s(1), s(2))));
        assert!(keys.contains(&assoc1), "{keys:?}");
        // Every neighbor joins the same source set.
        for n in &ns {
            let mut srcs = n.sources();
            srcs.sort();
            assert_eq!(srcs, vec![StreamId(0), StreamId(1), StreamId(2)]);
        }
    }

    #[test]
    fn neighbors_of_two_way_join_is_the_commutation() {
        let p = LogicalPlan::join(s(0), s(1));
        let ns = neighbors(&p);
        assert_eq!(ns.len(), 1);
        assert_eq!(ns[0].render(), "(s1 ⋈ s0)");
    }

    #[test]
    fn neighbors_preserve_output_rate() {
        let c = stats(4);
        let p = LogicalPlan::join(
            LogicalPlan::join(s(0), s(1)),
            LogicalPlan::select(0.5, LogicalPlan::select(0.5, s(2))),
        );
        let base = c.output_rate(&p);
        for n in neighbors(&p) {
            let r = c.output_rate(&n);
            assert!((r - base).abs() < 1e-9 * base.max(1.0), "{n}");
        }
    }

    /// The two-level, render-keyed implementation `neighbors_within`
    /// replaced: a per-plan dedup pass feeding a global one. Exact on plans
    /// without unary operators, where `render` is already injective.
    fn reference_neighbors_within(
        plan: &LogicalPlan,
        depth: usize,
        max_plans: usize,
    ) -> Vec<LogicalPlan> {
        fn reference_neighbors(plan: &LogicalPlan) -> Vec<LogicalPlan> {
            let mut out = Vec::new();
            rewrite_everywhere(plan, &mut out);
            let mut seen = std::collections::BTreeSet::new();
            seen.insert(plan.render());
            out.retain(|p| seen.insert(p.render()));
            out
        }
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(plan.render());
        let mut out: Vec<LogicalPlan> = Vec::new();
        let mut frontier = vec![plan.clone()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in &frontier {
                for n in reference_neighbors(p) {
                    if out.len() >= max_plans {
                        return out;
                    }
                    if seen.insert(n.render()) {
                        out.push(n.clone());
                        next.push(n);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// The plan's exact identity as a string: [`LogicalPlan::render`] with
    /// every unary operator's parameter spelled out (as bits) — the key the
    /// string-keyed dedup below used.
    fn identity_key(plan: &LogicalPlan) -> String {
        fn write(plan: &LogicalPlan, key: &mut String) {
            use std::fmt::Write;
            match plan {
                LogicalPlan::Source(id) => {
                    let _ = write!(key, "{id}");
                }
                LogicalPlan::Unary { op, input } => {
                    let _ = write!(key, "{}{:x}(", op.label(), op.rate_ratio().to_bits());
                    write(input, key);
                    key.push(')');
                }
                LogicalPlan::Binary { op, left, right } => {
                    key.push('(');
                    write(left, key);
                    key.push_str(op.label());
                    write(right, key);
                    key.push(')');
                }
            }
        }
        let mut key = String::new();
        write(plan, &mut key);
        key
    }

    /// The string-keyed implementation the structural dedup replaced: one
    /// `identity_key` per generated plan in a visited set.
    fn identity_keyed_neighbors_within(
        plan: &LogicalPlan,
        depth: usize,
        max_plans: usize,
    ) -> Vec<LogicalPlan> {
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(identity_key(plan));
        let mut out: Vec<LogicalPlan> = Vec::new();
        let mut generated = Vec::new();
        let mut frontier = 0..0;
        for level in 0..depth {
            let level_start = out.len();
            for i in if level == 0 { 0..1 } else { frontier } {
                let from = if level == 0 { plan } else { &out[i] };
                rewrite_everywhere(from, &mut generated);
                for n in generated.drain(..) {
                    if out.len() >= max_plans {
                        return out;
                    }
                    if seen.insert(identity_key(&n)) {
                        out.push(n);
                    }
                }
            }
            frontier = level_start..out.len();
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// A random bushy join (or union) tree over 2–6 sources, drawn from
    /// `case`. With `unary`, leaves and inner nodes carry zero to two
    /// stacked filters or aggregates, their parameters from a small set
    /// (1 among them) so that splits, fusions and equal renderings recur.
    fn random_plan(case: u64, unary: bool) -> LogicalPlan {
        fn decorate(mut plan: LogicalPlan, pick: &mut impl FnMut(usize) -> usize) -> LogicalPlan {
            const PARAMS: [f64; 4] = [0.25, 0.5, 0.81, 1.0];
            for _ in 0..pick(3) {
                let param = PARAMS[pick(PARAMS.len())];
                plan = if pick(4) == 0 {
                    LogicalPlan::aggregate(param, plan)
                } else {
                    LogicalPlan::select(param, plan)
                };
            }
            plan
        }
        let mut draws = 0;
        let mut pick = |n: usize| {
            draws += 1;
            (sbon_netsim::rng::derive_seed(case, draws) % n as u64) as usize
        };
        let ways = 2 + pick(5) as u32;
        let mut forest: Vec<LogicalPlan> = Vec::new();
        for i in 0..ways {
            forest.push(if unary { decorate(s(i), &mut pick) } else { s(i) });
        }
        while forest.len() > 1 {
            let a = forest.swap_remove(pick(forest.len()));
            let b = forest.swap_remove(pick(forest.len()));
            let merged =
                if pick(5) == 0 { LogicalPlan::union(a, b) } else { LogicalPlan::join(a, b) };
            forest.push(if unary { decorate(merged, &mut pick) } else { merged });
        }
        forest.pop().unwrap()
    }

    const DEPTHS_AND_CAPS: [(usize, usize); 5] =
        [(1, usize::MAX), (2, 128), (2, 7), (3, 40), (0, 5)];

    #[test]
    fn join_only_neighbourhoods_match_the_render_keyed_reference() {
        for case in 0..50u64 {
            let plan = random_plan(case, false);
            for (depth, max_plans) in DEPTHS_AND_CAPS {
                assert_eq!(
                    neighbors_within(&plan, depth, max_plans),
                    reference_neighbors_within(&plan, depth, max_plans),
                    "case {case}: {plan} depth {depth} max {max_plans}"
                );
            }
        }
    }

    /// The structural dedup lists exactly what the `identity_key` dedup
    /// listed — same plans, same order — on plans with filters and
    /// aggregates, where `render` is not injective and filter splits
    /// collide in rendering.
    #[test]
    fn neighbourhoods_match_the_identity_keyed_reference() {
        let mut collisions = 0;
        for case in 0..60u64 {
            let plan = random_plan(case, true);
            for (depth, max_plans) in DEPTHS_AND_CAPS {
                let got = neighbors_within(&plan, depth, max_plans);
                let want = identity_keyed_neighbors_within(&plan, depth, max_plans);
                // Compared by key: `==` on plans would hide a parameter that
                // differs only in its bits.
                let keys = |ps: &[LogicalPlan]| ps.iter().map(identity_key).collect::<Vec<_>>();
                assert_eq!(keys(&got), keys(&want), "case {case}: {plan} depth {depth}");
                let renders: std::collections::BTreeSet<String> =
                    got.iter().map(LogicalPlan::render).collect();
                collisions += got.len() - renders.len();
            }
        }
        // Not vacuous: plans that render alike but differ were listed apart.
        assert!(collisions > 0, "no rendering collision was ever exercised");
    }

    /// Regression: dedup used to key on `render()`, which prints every
    /// selectivity as `σ`. Splitting the outer or the inner filter of
    /// `σ_a(σ_b(P))` gives two different circuits that both render
    /// `σ(σ(σ(P)))`; the second was dropped as a duplicate of the first.
    #[test]
    fn filter_splits_with_equal_rendering_are_both_explored() {
        let plan = LogicalPlan::select(0.25, LogicalPlan::select(0.81, s(0)));
        let split_outer =
            LogicalPlan::select(0.5, LogicalPlan::select(0.5, LogicalPlan::select(0.81, s(0))));
        let split_inner =
            LogicalPlan::select(0.25, LogicalPlan::select(0.9, LogicalPlan::select(0.9, s(0))));
        assert_eq!(split_outer.render(), split_inner.render());
        let ns = neighbors(&plan);
        assert!(ns.contains(&split_outer), "{ns:?}");
        assert!(ns.contains(&split_inner), "{ns:?}");
        // The fused filter is the third and last one-step rewrite.
        assert_eq!(ns.len(), 3, "{ns:?}");
        // Plans that really are equal are still listed once.
        let within = neighbors_within(&plan, 2, 128);
        for (i, a) in within.iter().enumerate() {
            assert!(!within[i + 1..].contains(a), "{a} listed twice");
            assert_ne!(a, &plan, "the start plan is not its own neighbour");
        }
    }

    #[test]
    fn repeated_neighbor_expansion_reaches_all_three_way_orders() {
        // BFS over the rewrite graph from one 3-way plan must reach all 3
        // association classes (shape keys), walking rendered plans.
        let start = LogicalPlan::join(LogicalPlan::join(s(0), s(1)), s(2));
        let mut rendered = std::collections::BTreeSet::new();
        let mut shapes = std::collections::BTreeSet::new();
        let mut frontier = vec![start];
        while let Some(p) = frontier.pop() {
            if rendered.insert(p.render()) {
                shapes.insert(shape_key(&p));
                frontier.extend(neighbors(&p));
            }
        }
        assert_eq!(shapes.len(), 3, "{shapes:?}");
        // 3 shapes × 4 renderings each (2 commutations per join level).
        assert_eq!(rendered.len(), 12, "{rendered:?}");
    }
}
