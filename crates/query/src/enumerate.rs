//! Plan enumeration.
//!
//! "Many distributed optimizers use dynamic programming with pruning or some
//! other enumeration algorithm to perform plan selection" (Section 2.1).
//! Three entry points:
//!
//! * [`all_join_trees`] — exhaustive bushy enumeration (each unordered tree
//!   once). Tree counts are the double factorials (2n−3)!!: 1, 3, 15, 105,
//!   945 for n = 2..6, so this is for small queries and for tests that need
//!   ground truth.
//! * [`dp_best_plan`] — Selinger-style bushy DP over subsets minimizing the
//!   statistical cost; this is the classic two-step optimizer's plan step.
//! * [`dp_top_k_plans`] — k-best generalization of the DP. The integrated
//!   optimizer uses it as its *candidate plan set*: "a set of candidate
//!   plans is created ... each plan is virtually placed and physically
//!   mapped" (Section 3.3).

use crate::plan::{BinaryOp, LogicalPlan};
use crate::stream::{StreamCatalog, StreamId};

/// The most streams [`all_join_trees`] and [`all_left_deep_trees`]
/// enumerate: 135,135 bushy trees, 20,160 left-deep ones.
pub const MAX_EXHAUSTIVE_STREAMS: usize = 8;

/// All distinct bushy join trees over `streams` (commutative mirrors are
/// generated once). Panics above [`MAX_EXHAUSTIVE_STREAMS`] — use the DP
/// there.
pub fn all_join_trees(streams: &[StreamId]) -> Vec<LogicalPlan> {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(
        streams.len() <= MAX_EXHAUSTIVE_STREAMS,
        "exhaustive enumeration beyond {MAX_EXHAUSTIVE_STREAMS} streams is intractable; \
         use dp_top_k_plans"
    );
    build_trees(streams)
}

fn build_trees(set: &[StreamId]) -> Vec<LogicalPlan> {
    if set.len() == 1 {
        return vec![LogicalPlan::source(set[0])];
    }
    let mut out = Vec::new();
    // Enumerate unordered partitions (L, R): fix the first element in L to
    // avoid producing both (L,R) and (R,L).
    let n = set.len();
    for mask in 0..(1u32 << (n - 1)) {
        // mask selects which of set[1..] join set[0] on the left side.
        let mut left = vec![set[0]];
        let mut right = Vec::new();
        for (i, &s) in set[1..].iter().enumerate() {
            if mask & (1 << i) != 0 {
                left.push(s);
            } else {
                right.push(s);
            }
        }
        if right.is_empty() {
            continue; // not a proper partition
        }
        for l in build_trees(&left) {
            for r in build_trees(&right) {
                out.push(LogicalPlan::join(l.clone(), r));
            }
        }
    }
    out
}

/// All *left-deep* join trees over `streams`: every permutation where the
/// right input of each join is a base stream (the classic System R /
/// Selinger search space — `n!/2` trees after removing the mirrored first
/// pair instead of the bushy `(2n−3)!!`). Panics above
/// [`MAX_EXHAUSTIVE_STREAMS`].
pub fn all_left_deep_trees(streams: &[StreamId]) -> Vec<LogicalPlan> {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(
        streams.len() <= MAX_EXHAUSTIVE_STREAMS,
        "left-deep enumeration beyond {MAX_EXHAUSTIVE_STREAMS} streams is intractable"
    );
    if streams.len() == 1 {
        return vec![LogicalPlan::source(streams[0])];
    }
    let mut out = Vec::new();
    let mut perm: Vec<StreamId> = streams.to_vec();
    permute_left_deep(&mut perm, 0, &mut out);
    out
}

fn permute_left_deep(perm: &mut Vec<StreamId>, k: usize, out: &mut Vec<LogicalPlan>) {
    let n = perm.len();
    if k == n {
        // Skip mirrored duplicates: require the first pair ordered.
        if perm[0] <= perm[1] {
            let mut plan =
                LogicalPlan::join(LogicalPlan::source(perm[0]), LogicalPlan::source(perm[1]));
            for &s in &perm[2..] {
                plan = LogicalPlan::join(plan, LogicalPlan::source(s));
            }
            out.push(plan);
        }
        return;
    }
    for i in k..n {
        perm.swap(k, i);
        permute_left_deep(perm, k + 1, out);
        perm.swap(k, i);
    }
}

/// The statistically cheapest bushy plan and its cost, via subset DP.
/// Supports up to 20 streams.
pub fn dp_best_plan(catalog: &StreamCatalog, streams: &[StreamId]) -> (LogicalPlan, f64) {
    let mut best = dp_top_k_plans(catalog, streams, 1);
    best.pop().expect("k=1 DP always returns a plan")
}

/// The `k` statistically cheapest bushy plans (ascending cost).
///
/// Classic k-best DP: each subset keeps its `k` cheapest subplans; a
/// subset's candidates combine the k-lists of every split, each join's rate
/// the catalog's [`StreamCatalog::binary_output_rate`] over the two sides'
/// streams in mask order. The result is the full set's k-list. `k = 1`
/// degenerates to Selinger DP. Panics on more than 20 streams or `k == 0`.
pub fn dp_top_k_plans(
    catalog: &StreamCatalog,
    streams: &[StreamId],
    k: usize,
) -> Vec<(LogicalPlan, f64)> {
    assert!(k >= 1, "k must be at least 1");
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(streams.len() <= 20, "DP beyond 20 streams would exhaust memory");
    let n = streams.len();
    let full: u32 = (1u32 << n) - 1;
    let members = |m: u32| -> Vec<StreamId> {
        (0..n).filter(|i| m & (1u32 << i) != 0).map(|i| streams[i]).collect()
    };

    // dp[mask] = up to k of (plan, statistical cost, output rate), cost-sorted.
    let mut dp: Vec<Vec<(LogicalPlan, f64, f64)>> = vec![Vec::new(); (full as usize) + 1];
    for (i, &s) in streams.iter().enumerate() {
        dp[1usize << i] = vec![(LogicalPlan::source(s), 0.0, catalog.rate(s))];
    }

    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue; // singletons were seeded above
        }
        let mut candidates: Vec<(LogicalPlan, f64, f64)> = Vec::new();
        // Enumerate proper submask splits; anchor the lowest set bit on the
        // left to visit each unordered split once.
        let low_bit = mask & mask.wrapping_neg();
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            if sub & low_bit != 0 {
                let other = mask & !sub;
                if other != 0 && !dp[sub as usize].is_empty() && !dp[other as usize].is_empty() {
                    let (left, right) = (members(sub), members(other));
                    for (lp, lc, lr) in &dp[sub as usize] {
                        for (rp, rc, rr) in &dp[other as usize] {
                            let out_rate = catalog.binary_output_rate(
                                BinaryOp::Join,
                                (*lr, &left),
                                (*rr, &right),
                            );
                            let cost = lc + rc + out_rate;
                            candidates.push((
                                LogicalPlan::join(lp.clone(), rp.clone()),
                                cost,
                                out_rate,
                            ));
                        }
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        candidates.truncate(k);
        dp[mask as usize] = candidates;
    }

    dp[full as usize].iter().map(|(p, c, _)| (p.clone(), *c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{depth, shape_key};

    fn streams(n: u32) -> Vec<StreamId> {
        (0..n).map(StreamId).collect()
    }

    fn uniform_stats(n: u32, rate: f64, sel: f64) -> StreamCatalog {
        let mut c = StreamCatalog::new();
        c.set_default_selectivity(sel);
        for i in 0..n {
            c.register(format!("s{i}"), rate, sbon_netsim::graph::NodeId(i));
        }
        c
    }

    /// `dp_top_k_plans` before it took its join rate from
    /// `binary_output_rate`, verbatim but for the window read: its own
    /// cross-selectivity per split and its own `cross * lr * rr * window`.
    fn reference_dp_top_k_plans(
        stats: &StreamCatalog,
        streams: &[StreamId],
        k: usize,
    ) -> Vec<(LogicalPlan, f64)> {
        assert!(k >= 1, "k must be at least 1");
        assert!(!streams.is_empty(), "need at least one stream");
        assert!(streams.len() <= 20, "DP beyond 20 streams would exhaust memory");
        let n = streams.len();
        let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

        // dp[mask] = up to k of (plan, statistical cost, output rate), cost-sorted.
        let mut dp: Vec<Vec<(LogicalPlan, f64, f64)>> = vec![Vec::new(); (full as usize) + 1];
        for (i, &s) in streams.iter().enumerate() {
            dp[1usize << i] = vec![(LogicalPlan::source(s), 0.0, stats.rate(s))];
        }

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue; // singletons were seeded above
            }
            let mut candidates: Vec<(LogicalPlan, f64, f64)> = Vec::new();
            // Enumerate proper submask splits; anchor the lowest set bit on the
            // left to visit each unordered split once.
            let low_bit = mask & mask.wrapping_neg();
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                if sub & low_bit != 0 {
                    let other = mask & !sub;
                    if other != 0 && !dp[sub as usize].is_empty() && !dp[other as usize].is_empty()
                    {
                        let cross = cross_selectivity_masks(stats, streams, sub, other);
                        for (lp, lc, lr) in &dp[sub as usize] {
                            for (rp, rc, rr) in &dp[other as usize] {
                                let out_rate = cross * lr * rr * stats.window();
                                let cost = lc + rc + out_rate;
                                candidates.push((
                                    LogicalPlan::join(lp.clone(), rp.clone()),
                                    cost,
                                    out_rate,
                                ));
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
            candidates.truncate(k);
            dp[mask as usize] = candidates;
        }

        dp[full as usize].iter().map(|(p, c, _)| (p.clone(), *c)).collect()
    }

    fn cross_selectivity_masks(
        stats: &StreamCatalog,
        streams: &[StreamId],
        left: u32,
        right: u32,
    ) -> f64 {
        let members = |m: u32| -> Vec<StreamId> {
            (0..streams.len()).filter(|i| m & (1u32 << i) != 0).map(|i| streams[i]).collect()
        };
        stats.cross_selectivity(&members(left), &members(right))
    }

    /// One rate step, same result: for k ∈ {1, 3, 8} and 2–9 streams under
    /// random rates, default and pairwise selectivities and windows, the DP
    /// returns the reference's plans in the reference's order with the same
    /// cost bits. Seeded cases, each (ways, k) pair twice.
    #[test]
    fn dp_matches_the_inline_rate_reference() {
        for case in 0..48u64 {
            let mut draws = 0;
            let mut unit = || {
                draws += 1;
                (sbon_netsim::rng::derive_seed(case, draws) % 1_000_000) as f64 / 1_000_000.0
            };
            let (ways, k) = (2 + (case % 8) as u32, [1, 3, 8][(case / 8 % 3) as usize]);
            let mut c = StreamCatalog::new();
            c.set_default_selectivity(0.001 + 0.5 * unit());
            c.set_window(0.5 + 2.5 * unit());
            for i in 0..ways {
                c.register(format!("s{i}"), 0.1 + 100.0 * unit(), sbon_netsim::graph::NodeId(i));
                for j in 0..i {
                    if unit() < 0.5 {
                        c.set_join_selectivity(StreamId(i), StreamId(j), 0.001 + unit());
                    }
                }
            }
            // A join set in a scrambled order, so masks do not follow ids.
            let mut ids = streams(ways);
            ids.rotate_left(case as usize % ways as usize);
            let bits = |plans: Vec<(LogicalPlan, f64)>| -> Vec<(LogicalPlan, u64)> {
                plans.into_iter().map(|(p, cost)| (p, cost.to_bits())).collect()
            };
            assert_eq!(
                bits(dp_top_k_plans(&c, &ids, k)),
                bits(reference_dp_top_k_plans(&c, &ids, k)),
                "case {case}: {ways} ways, k = {k}"
            );
        }
    }

    #[test]
    fn tree_counts_match_double_factorial() {
        assert_eq!(all_join_trees(&streams(1)).len(), 1);
        assert_eq!(all_join_trees(&streams(2)).len(), 1);
        assert_eq!(all_join_trees(&streams(3)).len(), 3);
        assert_eq!(all_join_trees(&streams(4)).len(), 15);
        assert_eq!(all_join_trees(&streams(5)).len(), 105);
    }

    #[test]
    fn trees_are_structurally_distinct() {
        let trees = all_join_trees(&streams(4));
        let mut keys: Vec<String> = trees.iter().map(shape_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 15, "every enumerated tree must be unique");
    }

    #[test]
    fn every_tree_covers_all_sources() {
        for t in all_join_trees(&streams(4)) {
            let mut srcs = t.sources();
            srcs.sort();
            assert_eq!(srcs, streams(4));
        }
    }

    #[test]
    fn dp_matches_exhaustive_minimum() {
        let mut stats = uniform_stats(5, 10.0, 0.05);
        // Skew selectivities so order matters.
        stats.set_join_selectivity(StreamId(0), StreamId(1), 0.001);
        stats.set_join_selectivity(StreamId(2), StreamId(3), 0.9);
        stats.set_join_selectivity(StreamId(1), StreamId(4), 0.3);
        let ids = streams(5);
        let exhaustive_best = all_join_trees(&ids)
            .into_iter()
            .map(|t| {
                let c = stats.statistical_cost(&t);
                (t, c)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let (dp_plan, dp_cost) = dp_best_plan(&stats, &ids);
        assert!(
            (dp_cost - exhaustive_best.1).abs() < 1e-9 * exhaustive_best.1.max(1.0),
            "dp={dp_cost} exhaustive={}",
            exhaustive_best.1
        );
        // And the DP's reported cost must agree with the tree-walking model.
        assert!((stats.statistical_cost(&dp_plan) - dp_cost).abs() < 1e-9 * dp_cost.max(1.0));
    }

    #[test]
    fn top_k_is_sorted_and_contains_best() {
        let stats = uniform_stats(4, 10.0, 0.1);
        let ids = streams(4);
        let top = dp_top_k_plans(&stats, &ids, 5);
        assert!(top.len() >= 2);
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let (_, best_cost) = dp_best_plan(&stats, &ids);
        assert!((top[0].1 - best_cost).abs() < 1e-12);
    }

    #[test]
    fn top_k_costs_agree_with_tree_walk() {
        let mut stats = uniform_stats(4, 8.0, 0.2);
        stats.set_join_selectivity(StreamId(0), StreamId(3), 0.01);
        for (plan, cost) in dp_top_k_plans(&stats, &streams(4), 8) {
            let walked = stats.statistical_cost(&plan);
            assert!((walked - cost).abs() < 1e-9 * walked.max(1.0), "{plan}");
        }
    }

    #[test]
    fn left_deep_counts_are_half_factorials() {
        // n!/2 for n ≥ 2: 1, 3, 12, 60.
        assert_eq!(all_left_deep_trees(&streams(2)).len(), 1);
        assert_eq!(all_left_deep_trees(&streams(3)).len(), 3);
        assert_eq!(all_left_deep_trees(&streams(4)).len(), 12);
        assert_eq!(all_left_deep_trees(&streams(5)).len(), 60);
    }

    #[test]
    fn left_deep_trees_are_left_deep_and_distinct() {
        let trees = all_left_deep_trees(&streams(4));
        let mut keys: Vec<String> = trees.iter().map(shape_key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "no duplicate shapes");
        for t in &trees {
            // Left-deep: depth == number of streams.
            assert_eq!(depth(t), 4, "{t}");
            let mut srcs = t.sources();
            srcs.sort();
            assert_eq!(srcs, streams(4));
        }
    }

    #[test]
    fn left_deep_is_a_subset_of_bushy() {
        let bushy: std::collections::BTreeSet<String> =
            all_join_trees(&streams(4)).iter().map(shape_key).collect();
        for t in all_left_deep_trees(&streams(4)) {
            assert!(bushy.contains(&shape_key(&t)), "{t}");
        }
    }

    #[test]
    fn best_left_deep_never_beats_best_bushy() {
        let mut stats = uniform_stats(5, 10.0, 0.05);
        stats.set_join_selectivity(StreamId(0), StreamId(1), 0.001);
        stats.set_join_selectivity(StreamId(2), StreamId(3), 0.7);
        let ids = streams(5);
        let best_left = all_left_deep_trees(&ids)
            .iter()
            .map(|t| stats.statistical_cost(t))
            .fold(f64::INFINITY, f64::min);
        let (_, best_bushy) = dp_best_plan(&stats, &ids);
        assert!(best_bushy <= best_left + 1e-9);
    }

    #[test]
    fn top_k_plans_are_structurally_distinct() {
        let stats = uniform_stats(5, 10.0, 0.1);
        let top = dp_top_k_plans(&stats, &streams(5), 10);
        let mut keys: Vec<String> = top.iter().map(|(p, _)| shape_key(p)).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "k-best must not repeat a shape");
    }

    #[test]
    fn top_k_with_k_one_equals_best_plan() {
        let mut stats = uniform_stats(4, 10.0, 0.1);
        stats.set_join_selectivity(StreamId(0), StreamId(2), 0.003);
        let ids = streams(4);
        let top = dp_top_k_plans(&stats, &ids, 1);
        let (best, cost) = dp_best_plan(&stats, &ids);
        assert_eq!(top.len(), 1);
        assert_eq!(shape_key(&top[0].0), shape_key(&best));
        assert!((top[0].1 - cost).abs() < 1e-12);
    }

    #[test]
    fn single_stream_plan_is_source() {
        let stats = uniform_stats(1, 5.0, 0.1);
        let (p, c) = dp_best_plan(&stats, &streams(1));
        assert_eq!(p, LogicalPlan::source(StreamId(0)));
        assert_eq!(c, 0.0);
    }

    #[test]
    fn window_affects_dp_cost() {
        let mut stats = uniform_stats(3, 10.0, 0.1);
        let ids = streams(3);
        let (_, c1) = dp_best_plan(&stats, &ids);
        stats.set_window(2.0);
        let (_, c2) = dp_best_plan(&stats, &ids);
        assert!(c2 > c1);
    }

    #[test]
    #[should_panic(expected = "intractable")]
    fn exhaustive_rejects_large_n() {
        all_join_trees(&streams(9));
    }
}
