//! Order statistics for run-to-run noise accounting.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the acceptance rule for this
//! benchmark is written in: spread = (q3 − q1) / median.

use crate::json::Json;
use crate::obj;

/// A percentile is reported only with at least this many samples beyond it;
/// fewer and the value is one or two outliers, not a percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Five-number summary of repeated measurements of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (any order). Panics on an empty slice or a NaN:
    /// both mean the measurement itself is broken.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        assert!(v.iter().all(|x| !x.is_nan()), "NaN in measurements");
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (q1, q3) = if n < 2 { (v[0], v[0]) } else { (quartile(&v, 1), quartile(&v, 3)) };
        Summary { n, min: v[0], q1, median, q3, max: v[n - 1] }
    }

    /// Interquartile range as a share of the median — the run-to-run spread
    /// a regression bound is compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        obj! {
            "n" => self.n, "min" => self.min, "q1" => self.q1, "median" => self.median,
            "q3" => self.q3, "max" => self.max, "spread" => self.spread(),
        }
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k)?.as_f64();
        Some(Summary {
            n: f("n")? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// `i`-th quartile cut of sorted `v` (len ≥ 2), Python "exclusive" method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let ld = v.len();
    let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
    let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Nearest-rank quantile `p` of `samples` (any order), or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond its position.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    (v.len() >= rank + MIN_SAMPLES_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 1.0, 2.0, 3.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.q3), (1.5, 12.0));
        assert_eq!(s.spread(), 10.5 / 4.0);
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // p50 of 19 leaves 9 beyond; of 20, ten.
        assert_eq!(percentile(&upto(19), 0.50), None);
        assert_eq!(percentile(&upto(20), 0.50), Some(10.0));
        assert_eq!(percentile(&upto(24), 0.50), Some(12.0));
        // p99 of 999 leaves 9 beyond; of 1000, ten.
        assert_eq!(percentile(&upto(999), 0.99), None);
        assert_eq!(percentile(&upto(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&upto(400), 0.99), None);
        assert_eq!(percentile(&upto(100), 0.90), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), None);
        let mut shuffled = upto(40);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Some(20.0));
    }
}
