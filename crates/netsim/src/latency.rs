//! Latency abstraction consumed by the coordinate and placement layers.
//!
//! The paper treats communication latency as the canonical *vector* cost
//! (Section 3.1). Downstream crates are written against the
//! [`LatencyProvider`] trait so they work identically on the ground-truth
//! shortest-path matrix, on a synthetic Euclidean layout used by tests, or —
//! with churn — on a time-perturbed view.

use crate::graph::NodeId;

/// Euclidean distance between two equally long coordinate slices — the one
/// spelling of the expression in the workspace: [`EuclideanLatency`], the
/// Vivaldi spring, the cost space's distances and the DHT catalog's ranking
/// call it.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Source of pairwise node-to-node latencies in milliseconds.
pub trait LatencyProvider {
    /// Number of nodes covered by this provider (ids `0..len`).
    fn len(&self) -> usize;

    /// Latency between `a` and `b` in milliseconds. Must be symmetric and
    /// zero on the diagonal.
    fn latency(&self, a: NodeId, b: NodeId) -> f64;

    /// True if the provider covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: LatencyProvider + ?Sized> LatencyProvider for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        (**self).latency(a, b)
    }
}

/// Dense all-pairs latency matrix (ground truth for the simulations).
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    n: usize,
    /// Row-major `n × n`.
    data: Vec<f64>,
}

impl LatencyMatrix {
    /// Builds from per-source rows, validating shape.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in &rows {
            assert_eq!(row.len(), n, "latency matrix must be square");
            data.extend_from_slice(row);
        }
        LatencyMatrix { n, data }
    }

    /// A zero matrix for `n` nodes (used by tests).
    pub fn zeros(n: usize) -> Self {
        LatencyMatrix { n, data: vec![0.0; n * n] }
    }

    /// Overwrites a single symmetric entry.
    pub fn set(&mut self, a: NodeId, b: NodeId, v: f64) {
        self.data[a.index() * self.n + b.index()] = v;
        self.data[b.index() * self.n + a.index()] = v;
    }

    /// Maximum finite latency in the matrix; used to normalize plots.
    pub fn max_latency(&self) -> f64 {
        self.data.iter().copied().filter(|v| v.is_finite()).fold(0.0, f64::max)
    }

    /// Mean off-diagonal latency.
    pub fn mean_latency(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: f64 = self.data.iter().copied().filter(|v| v.is_finite()).sum();
        sum / ((self.n * self.n - self.n) as f64)
    }
}

impl LatencyProvider for LatencyMatrix {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        self.data[a.index() * self.n + b.index()]
    }
}

/// Latency induced by a Euclidean point layout: `latency(a, b) = |pa − pb|`.
///
/// This provider is *exactly embeddable*, so the coordinate layer's error on
/// it must be ~0 — a key sanity check for Vivaldi.
#[derive(Clone, Debug)]
pub struct EuclideanLatency {
    points: Vec<Vec<f64>>,
}

impl EuclideanLatency {
    /// Builds from one point per node; all points must share a dimension.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        if let Some(first) = points.first() {
            let d = first.len();
            assert!(points.iter().all(|p| p.len() == d), "points must share dimensionality");
        }
        EuclideanLatency { points }
    }

    /// The underlying point of a node.
    pub fn point(&self, v: NodeId) -> &[f64] {
        &self.points[v.index()]
    }
}

impl LatencyProvider for EuclideanLatency {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        euclidean(&self.points[a.index()], &self.points[b.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip() {
        let m = LatencyMatrix::from_rows(vec![vec![0.0, 2.0], vec![2.0, 0.0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.latency(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(m.latency(NodeId(1), NodeId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn matrix_rejects_ragged_rows() {
        LatencyMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0]]);
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = LatencyMatrix::zeros(3);
        m.set(NodeId(0), NodeId(2), 8.0);
        assert_eq!(m.latency(NodeId(0), NodeId(2)), 8.0);
        assert_eq!(m.latency(NodeId(2), NodeId(0)), 8.0);
    }

    #[test]
    fn stats_ignore_diagonal() {
        let m = LatencyMatrix::from_rows(vec![vec![0.0, 4.0], vec![4.0, 0.0]]);
        assert_eq!(m.max_latency(), 4.0);
        assert_eq!(m.mean_latency(), 4.0);
    }

    #[test]
    fn euclidean_is_a_metric() {
        let e = EuclideanLatency::new(vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]);
        assert_eq!(e.latency(NodeId(0), NodeId(1)), 5.0);
        assert_eq!(e.latency(NodeId(1), NodeId(0)), 5.0);
        assert_eq!(e.latency(NodeId(0), NodeId(2)), 10.0);
        // Collinear points: triangle inequality tight.
        assert!(
            (e.latency(NodeId(0), NodeId(2))
                - e.latency(NodeId(0), NodeId(1))
                - e.latency(NodeId(1), NodeId(2)))
            .abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn euclidean_rejects_mixed_dims() {
        EuclideanLatency::new(vec![vec![0.0], vec![0.0, 1.0]]);
    }
}
