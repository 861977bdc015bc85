//! Regression pin for the percentile unification.
//!
//! Three call sites used to carry private percentile/histogram code:
//! `sbon_netsim::metrics` (linear interpolation), `sbon_dht`'s routed
//! stats (nearest-rank latency percentiles), and the routed hop histogram
//! (a hand-resized `Vec<u64>`). All three now delegate to `sbon_obs::hist`
//! ([`interpolated_sorted`], [`Histogram`]); this test keeps **verbatim
//! copies of the old implementations** and asserts the live code
//! reproduces their outputs bit-for-bit on the kinds of data the old call
//! sites fed them — including ties, duplicates, singletons, and
//! adversarial quantiles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbon_obs::hist::interpolated_sorted;
use sbon_obs::Histogram;

/// Verbatim copy of the pre-unification
/// `sbon_netsim::metrics::percentile_sorted`.
fn old_percentile_sorted(sorted: &[f64], q: f64) -> f64 {
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

/// Verbatim copy of the pre-unification
/// `sbon_dht::RoutedStats::latency_percentile_ms` core.
fn old_nearest_rank(latencies_ms: &[f64], q: f64) -> Option<f64> {
    if latencies_ms.is_empty() {
        return None;
    }
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Verbatim copy of the pre-unification hop-histogram accumulation in
/// `RoutedStats::record_lookup`.
fn old_hop_histogram(hops: &[u32]) -> Vec<u64> {
    let mut hop_histogram: Vec<u64> = Vec::new();
    for &h in hops {
        let bucket = h as usize;
        if hop_histogram.len() <= bucket {
            hop_histogram.resize(bucket + 1, 0);
        }
        hop_histogram[bucket] += 1;
    }
    hop_histogram
}

/// Sample sets shaped like the old call sites' data: experienced lookup
/// latencies (positive ms, heavy ties from shared paths), plus edge cases.
fn latency_like_datasets() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let mut sets =
        vec![vec![], vec![4.2], vec![1.0, 1.0], vec![5.0, 1.0, 3.0, 3.0, 3.0, 2.0], vec![0.0; 17]];
    for n in [2usize, 3, 10, 97, 1000] {
        // Continuous draws (distinct values).
        sets.push((0..n).map(|_| rng.gen_range(0.1..250.0)).collect());
        // Quantized draws (many exact ties, like repeated 2-hop paths).
        sets.push((0..n).map(|_| (rng.gen_range(0..40) as f64) * 7.5).collect());
    }
    sets
}

const QS: [f64; 9] = [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0, 0.5000001];

#[test]
fn interpolated_quantiles_match_the_old_netsim_percentile() {
    for data in latency_like_datasets() {
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in QS {
            let old = old_percentile_sorted(&sorted, q);
            let new = interpolated_sorted(&sorted, q);
            assert_eq!(old.to_bits(), new.to_bits(), "q={q} on n={}", data.len());
        }
    }
}

#[test]
fn nearest_rank_quantiles_match_the_old_routed_percentile() {
    for data in latency_like_datasets() {
        let mut h = Histogram::default();
        for &v in &data {
            h.record(v);
        }
        for q in QS {
            let old = old_nearest_rank(&data, q);
            let new = h.quantile_nearest_rank(q);
            assert_eq!(old.map(f64::to_bits), new.map(f64::to_bits), "q={q} on n={}", data.len());
        }
        // The old code clamped out-of-range quantiles rather than panicking.
        assert_eq!(old_nearest_rank(&data, -3.0), h.quantile_nearest_rank(-3.0));
        assert_eq!(old_nearest_rank(&data, 7.0), h.quantile_nearest_rank(7.0));
    }
}

#[test]
fn unit_counts_match_the_old_hop_histogram() {
    let mut rng = StdRng::seed_from_u64(0x409);
    for n in [0usize, 1, 5, 64, 512] {
        let hops: Vec<u32> = (0..n).map(|_| rng.gen_range(0..14)).collect();
        let mut h = Histogram::default();
        for &hop in &hops {
            h.record(hop as f64);
        }
        assert_eq!(h.unit_counts(), old_hop_histogram(&hops), "n={n}");
        // Mean hops through the histogram equals the old Σ h·count / n.
        if n > 0 {
            let old_total: u64 =
                old_hop_histogram(&hops).iter().enumerate().map(|(h, &c)| h as u64 * c).sum();
            let old_mean = old_total as f64 / n as f64;
            assert_eq!((h.sum() / n as f64).to_bits(), old_mean.to_bits());
        }
    }
}
