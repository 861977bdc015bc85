//! The one histogram type behind every latency/hop distribution in the
//! workspace.
//!
//! Before this crate existed three call sites had grown three private
//! percentile conventions: `sbon_netsim::metrics` interpolated linearly
//! between order statistics, `sbon_dht`'s routed stats used nearest-rank,
//! and the hop histogram was a hand-resized `Vec<u64>`. [`Histogram`]
//! subsumes the routed two — it keeps the exact sample sequence, so its
//! nearest-rank quantiles and per-value counts are bit-for-bit the old
//! ones — and [`interpolated_sorted`] is the interpolating convention,
//! over a slice the caller already sorted.

/// A recording histogram: the exact samples and their running sum.
///
/// Samples are stored in record order, so quantiles are exact. `record`
/// rejects NaN by assertion — every distribution in this workspace is of
/// finite simulated quantities, and a NaN reaching a sort comparator is the
/// PR 2 bug class the lint exists for. All internal ordering uses
/// `total_cmp`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Every recorded sample, in record order.
    samples: Vec<f64>,
    /// Running sum, accumulated in record order (deterministic on the
    /// serial paths that feed it).
    sum: f64,
}

impl Histogram {
    /// Records one sample. Panics on NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.samples.push(v);
        self.sum += v;
    }

    /// Sum of all samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The samples sorted ascending under `total_cmp`.
    pub fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.total_cmp(b));
        s
    }

    /// Nearest-rank quantile (`q` clamped to `[0, 1]`): the smallest sample
    /// whose rank is at least `ceil(q·n)`. `None` when empty. This is the
    /// convention `sbon_dht::RoutedStats::latency_percentile_ms` always
    /// used; `q = 1.0` returns the maximum, `q = 0.0` the minimum.
    pub fn quantile_nearest_rank(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        Some(sorted[rank.min(sorted.len()) - 1])
    }

    /// Per-integer-value counts: `v[i]` = samples equal to `i` after
    /// truncation. This reproduces the hop histogram the routed stats used
    /// to hand-maintain (`hop_histogram[h]` = lookups that took `h` round
    /// trips). Samples must be non-negative.
    pub fn unit_counts(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for &s in &self.samples {
            assert!(s >= 0.0, "unit_counts needs non-negative samples");
            let i = s as usize;
            if counts.len() <= i {
                counts.resize(i + 1, 0);
            }
            counts[i] += 1;
        }
        counts
    }
}

/// Linearly interpolated percentile of an already-sorted slice (`q` in
/// `[0, 1]`, asserted): the convention `sbon_netsim::metrics::percentile`
/// always used, and the function it delegates to. Empty input yields 0
/// (matching the all-zero empty `Summary`); a singleton yields itself.
pub fn interpolated_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_conventions() {
        let h = Histogram::default();
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile_nearest_rank(0.5), None);
        assert_eq!(interpolated_sorted(&h.sorted(), 0.5), 0.0);
        assert!(h.unit_counts().is_empty());
    }

    #[test]
    fn nearest_rank_extremes() {
        let mut h = Histogram::default();
        for v in [3.0, 1.0, 2.0] {
            h.record(v);
        }
        assert_eq!(h.quantile_nearest_rank(0.0), Some(1.0));
        assert_eq!(h.quantile_nearest_rank(1.0), Some(3.0));
        assert_eq!(h.quantile_nearest_rank(0.5), Some(2.0));
    }

    #[test]
    fn interpolated_matches_midpoint() {
        assert_eq!(interpolated_sorted(&[0.0, 10.0], 0.5), 5.0);
    }

    #[test]
    fn unit_counts_reproduce_hand_rolled_hop_histogram() {
        let mut h = Histogram::default();
        let mut hand = Vec::<u64>::new();
        for hops in [0u32, 3, 1, 3, 3] {
            h.record(hops as f64);
            let b = hops as usize;
            if hand.len() <= b {
                hand.resize(b + 1, 0);
            }
            hand[b] += 1;
        }
        assert_eq!(h.unit_counts(), hand);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn record_rejects_nan() {
        Histogram::default().record(f64::NAN);
    }
}
