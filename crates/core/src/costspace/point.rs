//! Points in a cost space.

use super::euclidean;

/// A full cost-space coordinate: the vector (latency) components followed by
/// the weighted scalar components. Which prefix is "vector" is defined by
/// the owning [`crate::costspace::CostSpace`].
#[derive(Clone, Debug, PartialEq)]
pub struct CostPoint(pub Vec<f64>);

impl CostPoint {
    /// Wraps a raw coordinate.
    pub fn new(components: Vec<f64>) -> Self {
        assert!(components.iter().all(|c| c.is_finite()), "cost coordinates must be finite");
        CostPoint(components)
    }

    /// Total dimensionality.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the (degenerate) zero-dimensional point.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw components.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Euclidean distance over *all* dimensions — the metric physical
    /// mapping minimizes ("while N1 is closer in latency space, its high
    /// load makes N1 seem far away when the entire cost space coordinate is
    /// considered", Figure 3).
    pub fn full_distance(&self, other: &CostPoint) -> f64 {
        assert_eq!(self.len(), other.len(), "dimensionality mismatch");
        euclidean(&self.0, &other.0)
    }

    /// Euclidean distance over the first `vector_dims` dimensions only —
    /// the metric virtual placement works in ("virtual placement is
    /// performed in the x-y plane since node load does not affect the
    /// placement decision", Figure 3).
    pub fn vector_distance(&self, other: &CostPoint, vector_dims: usize) -> f64 {
        assert!(vector_dims <= self.len() && vector_dims <= other.len());
        euclidean(&self.0[..vector_dims], &other.0[..vector_dims])
    }

    /// The vector-dimension prefix.
    pub fn vector_part(&self, vector_dims: usize) -> &[f64] {
        &self.0[..vector_dims]
    }

    /// The scalar-dimension suffix.
    pub fn scalar_part(&self, vector_dims: usize) -> &[f64] {
        &self.0[vector_dims..]
    }
}

impl From<Vec<f64>> for CostPoint {
    fn from(v: Vec<f64>) -> Self {
        CostPoint::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_distance_is_euclidean() {
        let a = CostPoint::new(vec![0.0, 0.0, 0.0]);
        let b = CostPoint::new(vec![3.0, 4.0, 12.0]);
        assert_eq!(a.full_distance(&b), 13.0);
    }

    #[test]
    fn vector_distance_ignores_scalar_suffix() {
        let a = CostPoint::new(vec![0.0, 0.0, 100.0]);
        let b = CostPoint::new(vec![3.0, 4.0, 0.0]);
        assert_eq!(a.vector_distance(&b, 2), 5.0);
        assert!(a.full_distance(&b) > 100.0);
    }

    #[test]
    fn parts_split_correctly() {
        let p = CostPoint::new(vec![1.0, 2.0, 9.0]);
        assert_eq!(p.vector_part(2), &[1.0, 2.0]);
        assert_eq!(p.scalar_part(2), &[9.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        CostPoint::new(vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn distance_requires_same_dims() {
        CostPoint::new(vec![0.0]).full_distance(&CostPoint::new(vec![0.0, 1.0]));
    }

    proptest! {
        #[test]
        fn prop_metric_axioms(
            a in proptest::collection::vec(-100.0f64..100.0, 3),
            b in proptest::collection::vec(-100.0f64..100.0, 3),
            c in proptest::collection::vec(-100.0f64..100.0, 3),
        ) {
            let (pa, pb, pc) = (CostPoint::new(a), CostPoint::new(b), CostPoint::new(c));
            // Symmetry.
            prop_assert!((pa.full_distance(&pb) - pb.full_distance(&pa)).abs() < 1e-9);
            // Identity.
            prop_assert!(pa.full_distance(&pa) < 1e-12);
            // Triangle inequality.
            prop_assert!(pa.full_distance(&pc) <= pa.full_distance(&pb) + pb.full_distance(&pc) + 1e-9);
            // Non-negativity.
            prop_assert!(pa.full_distance(&pb) >= 0.0);
        }
    }
}
