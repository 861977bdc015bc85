//! Embedding-error metrics.
//!
//! The ICDE paper's feasibility argument rests on Ng & Zhang's observation
//! that latency "can be \[embedded in\] a metric space with only a slight
//! error while using a small number of dimensions" (Section 3.1, citing
//! \[16\]). These helpers quantify that error for a concrete embedding so the
//! F2 experiment can report it.

use rand::Rng;

use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;

use crate::vivaldi::{gossip_partner, VivaldiEmbedding};

/// Relative errors `|est − true| / true` over up to `max_pairs` random node
/// pairs, uniform over ordered pairs of distinct nodes (ground-truth
/// zero-latency pairs are skipped). Deterministic in `seed`.
pub fn relative_errors<L: LatencyProvider>(
    embedding: &VivaldiEmbedding,
    truth: &L,
    max_pairs: usize,
    seed: u64,
) -> Vec<f64> {
    assert_eq!(embedding.len(), truth.len(), "embedding/provider size mismatch");
    let n = truth.len();
    if n < 2 {
        return Vec::new();
    }
    let mut rng = derive_rng(seed, 0xE44);
    let mut errs = Vec::with_capacity(max_pairs);
    let mut attempts = 0;
    while errs.len() < max_pairs && attempts < max_pairs * 4 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = gossip_partner(&mut rng, a, n);
        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
        let t = truth.latency(a, b);
        if !t.is_finite() || t <= 1e-9 {
            continue;
        }
        let e = embedding.estimated_latency(a, b);
        errs.push((e - t).abs() / t);
    }
    errs
}

/// A rendered embedding-error report for the F2 harness.
#[derive(Clone, Debug)]
pub struct EmbeddingErrorReport {
    /// Summary of relative errors over sampled pairs.
    pub relative: Summary,
    /// Summary of the nodes' own (Vivaldi-internal) error estimates.
    pub node_estimates: Summary,
}

impl EmbeddingErrorReport {
    /// Measures an embedding against ground truth.
    pub fn measure<L: LatencyProvider>(
        embedding: &VivaldiEmbedding,
        truth: &L,
        max_pairs: usize,
        seed: u64,
    ) -> Self {
        EmbeddingErrorReport {
            relative: Summary::of(&relative_errors(embedding, truth, max_pairs, seed)),
            node_estimates: Summary::of(&embedding.errors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vivaldi::VivaldiEmbedding;
    use sbon_netsim::latency::{EuclideanLatency, LatencyMatrix};
    use std::cell::RefCell;

    #[test]
    fn exact_embedding_has_zero_relative_error() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![10.0, 0.0]];
        let truth = EuclideanLatency::new(pts.clone());
        let emb = VivaldiEmbedding::exact(pts);
        let errs = relative_errors(&emb, &truth, 100, 0);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|&e| e < 1e-12));
    }

    #[test]
    fn shifted_embedding_reports_error() {
        let truth = EuclideanLatency::new(vec![vec![0.0], vec![10.0]]);
        let emb = VivaldiEmbedding::exact(vec![vec![0.0], vec![20.0]]);
        let errs = relative_errors(&emb, &truth, 10, 0);
        assert!(errs.iter().all(|&e| (e - 1.0).abs() < 1e-12)); // 100% off
    }

    #[test]
    fn zero_latency_pairs_are_skipped() {
        let truth = LatencyMatrix::zeros(3);
        let emb = VivaldiEmbedding::exact(vec![vec![0.0]; 3]);
        assert!(relative_errors(&emb, &truth, 50, 0).is_empty());
    }

    #[test]
    fn report_contains_both_summaries() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]];
        let truth = EuclideanLatency::new(pts.clone());
        let emb = VivaldiEmbedding::exact(pts);
        let r = EmbeddingErrorReport::measure(&emb, &truth, 50, 1);
        assert_eq!(r.node_estimates.mean, 0.0);
        assert!(r.relative.p99 < 1e-9);
    }

    /// Frequency test for the sampled pairs: every ordered pair of distinct
    /// nodes is drawn (close to) uniformly — in particular `(a, a + 1)` must
    /// NOT appear at 1.5× frequency, which the old `(b + 1) % n` self-pair
    /// remap caused at `n = 4`.
    #[test]
    fn sampled_pairs_are_uniform() {
        struct Counting {
            truth: EuclideanLatency,
            counts: RefCell<Vec<usize>>,
        }
        impl LatencyProvider for Counting {
            fn len(&self) -> usize {
                self.truth.len()
            }
            fn latency(&self, a: NodeId, b: NodeId) -> f64 {
                self.counts.borrow_mut()[a.index() * self.len() + b.index()] += 1;
                self.truth.latency(a, b)
            }
        }
        let (n, draws) = (4, 60_000);
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let truth = Counting {
            truth: EuclideanLatency::new(pts.clone()),
            counts: RefCell::new(vec![0; n * n]),
        };
        let errs = relative_errors(&VivaldiEmbedding::exact(pts), &truth, draws, 42);
        assert_eq!(errs.len(), draws, "no pair of distinct points is skipped");
        let counts = truth.counts.into_inner();
        let expected = draws as f64 / (n * (n - 1)) as f64;
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let c = counts[a * n + b];
            if a == b {
                assert_eq!(c, 0, "a node is never paired with itself");
                continue;
            }
            let ratio = c as f64 / expected;
            // ±10% is ≈ 7σ slack at these counts; the old remap put every
            // ring-successor pair at ratio 1.5.
            assert!((0.9..1.1).contains(&ratio), "pair ({a}, {b}): count {c}, ratio {ratio:.3}");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let truth = LatencyMatrix::zeros(2);
        let emb = VivaldiEmbedding::exact(vec![vec![0.0]]);
        relative_errors(&emb, &truth, 1, 0);
    }
}
