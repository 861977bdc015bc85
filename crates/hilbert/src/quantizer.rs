//! Continuous-coordinate quantization.
//!
//! Cost-space coordinates are `f64` vectors; the space-filling curves work on
//! integer grids. A [`Quantizer`] carries the bounding box of the coordinate
//! space and converts both ways: points outside the box clamp to its surface
//! (coordinates drift over time in a live system, so the box is sized with
//! headroom by the catalog layer).

/// Maps points of an axis-aligned box to cells of a `2^bits`-resolution grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Quantizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer over the box `[mins[i], maxs[i]]` per dimension.
    /// Panics on mismatched lengths, non-finite bounds, inverted bounds, or
    /// `bits ∉ 1..=32`.
    pub fn new(mins: Vec<f64>, maxs: Vec<f64>, bits: u32) -> Self {
        assert_eq!(mins.len(), maxs.len(), "bounds length mismatch");
        assert!(!mins.is_empty(), "need at least one dimension");
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        for (lo, hi) in mins.iter().zip(&maxs) {
            assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
            assert!(lo < hi, "each min must be strictly below its max");
        }
        Quantizer { mins, maxs, bits }
    }

    /// A quantizer sized to cover `points` with a proportional margin (e.g.
    /// `0.25` adds 25% of each dimension's span on both sides). A span
    /// below `1e-9` pads as if it were `1e-9`; a dimension the padding
    /// still leaves empty (a constant coordinate with margin 0, or one so
    /// large that the pad vanishes below its ulp) widens by one relative
    /// epsilon of its magnitude on each side.
    pub fn covering(points: &[Vec<f64>], bits: u32, margin: f64) -> Self {
        Self::covering_iter(points.iter().map(|p| p.as_slice()), bits, margin)
    }

    /// [`Quantizer::covering`] over borrowed coordinate slices, so callers
    /// holding points in another representation need not materialize a
    /// `Vec<Vec<f64>>` to derive bounds.
    pub fn covering_iter<'a>(
        points: impl IntoIterator<Item = &'a [f64]>,
        bits: u32,
        margin: f64,
    ) -> Self {
        assert!(margin >= 0.0);
        let mut points = points.into_iter();
        let first = points.next().expect("need at least one point");
        let d = first.len();
        let mut mins = first.to_vec();
        let mut maxs = first.to_vec();
        for p in points {
            assert_eq!(p.len(), d, "points must share dimensionality");
            for i in 0..d {
                mins[i] = mins[i].min(p[i]);
                maxs[i] = maxs[i].max(p[i]);
            }
        }
        for i in 0..d {
            let span = (maxs[i] - mins[i]).max(1e-9);
            let (lo, hi) = (mins[i] - span * margin, maxs[i] + span * margin);
            // `|x|·ε` is at least one ulp of `x`, so the widened bounds
            // differ; a non-empty interval keeps its bounds bit for bit.
            let pad = if lo < hi { 0.0 } else { (lo.abs().max(hi.abs()) * f64::EPSILON).max(1e-9) };
            (mins[i], maxs[i]) = (lo - pad, hi + pad);
        }
        Quantizer::new(mins, maxs, bits)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Per-dimension lower bounds of the box.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-dimension upper bounds of the box.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Bits of resolution per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Grid cells per dimension.
    pub fn cells_per_dim(&self) -> u64 {
        1u64 << self.bits
    }

    /// Quantizes a point to its grid cell, clamping to the box.
    ///
    /// Non-finite inputs are defined explicitly: `±∞` clamps to the box
    /// surface like any other out-of-box value, while **NaN is rejected by
    /// panic** — `NaN.clamp(0.0, 1.0)` stays NaN and `NaN as u64 == 0`, so
    /// silently accepting it would alias every NaN coordinate into cell 0
    /// (a corrupted coordinate registering itself at a legitimate-looking
    /// catalog position). Mirrors the event queue's non-finite time
    /// hardening: fail loudly where the poison enters.
    pub fn quantize(&self, point: &[f64]) -> Vec<u32> {
        let mut cell = vec![0; point.len()];
        self.quantize_into(point, &mut cell);
        cell
    }

    /// [`Quantizer::quantize`] into a caller's buffer of `dims` cells, so a
    /// hot caller can keep the cell on its stack.
    pub fn quantize_into(&self, point: &[f64], cell: &mut [u32]) {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        assert_eq!(cell.len(), self.dims(), "cell dimensionality mismatch");
        let cells = self.cells_per_dim() as f64;
        for ((c, &v), (&lo, &hi)) in
            cell.iter_mut().zip(point).zip(self.mins.iter().zip(&self.maxs))
        {
            assert!(!v.is_nan(), "cannot quantize a NaN coordinate");
            let unit = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            // unit == 1.0 must land in the last cell, not one past it.
            *c = ((unit * cells) as u64).min(self.cells_per_dim() - 1) as u32;
        }
    }

    /// The center point of a grid cell.
    pub fn cell_center(&self, cell: &[u32]) -> Vec<f64> {
        assert_eq!(cell.len(), self.dims(), "cell dimensionality mismatch");
        let cells = self.cells_per_dim() as f64;
        cell.iter()
            .zip(self.mins.iter().zip(&self.maxs))
            .map(|(&c, (&lo, &hi))| lo + (c as f64 + 0.5) / cells * (hi - lo))
            .collect()
    }

    /// Worst-case quantization error: half the cell diagonal.
    pub fn max_error(&self) -> f64 {
        let cells = self.cells_per_dim() as f64;
        self.mins
            .iter()
            .zip(&self.maxs)
            .map(|(&lo, &hi)| {
                let cell_side = (hi - lo) / cells;
                cell_side * cell_side
            })
            .sum::<f64>()
            .sqrt()
            / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square(bits: u32) -> Quantizer {
        Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], bits)
    }

    #[test]
    fn corners_map_to_corner_cells() {
        let q = unit_square(3);
        assert_eq!(q.quantize(&[0.0, 0.0]), vec![0, 0]);
        assert_eq!(q.quantize(&[1.0, 1.0]), vec![7, 7]);
    }

    #[test]
    fn out_of_box_clamps() {
        let q = unit_square(3);
        assert_eq!(q.quantize(&[-5.0, 2.0]), vec![0, 7]);
    }

    /// Regression: a NaN coordinate used to sail through `clamp` (NaN stays
    /// NaN) and `as u64` (NaN casts to 0), silently registering in cell 0.
    #[test]
    #[should_panic(expected = "NaN coordinate")]
    fn nan_coordinate_is_rejected() {
        unit_square(3).quantize(&[f64::NAN, 0.5]);
    }

    /// Infinities are just extreme out-of-box values: they clamp to the box
    /// surface deterministically.
    #[test]
    fn infinite_coordinates_clamp_to_box_surface() {
        let q = unit_square(3);
        assert_eq!(q.quantize(&[f64::NEG_INFINITY, f64::INFINITY]), vec![0, 7]);
    }

    #[test]
    fn cell_center_roundtrip() {
        let q = unit_square(4);
        for cell in [[0u32, 0], [7, 3], [15, 15]] {
            let center = q.cell_center(&cell);
            assert_eq!(q.quantize(&center), cell.to_vec());
        }
    }

    #[test]
    fn covering_includes_all_points() {
        let pts = vec![vec![-3.0, 10.0], vec![5.0, 20.0], vec![0.0, 15.0]];
        let q = Quantizer::covering(&pts, 8, 0.1);
        for p in &pts {
            let cell = q.quantize(p);
            let c = q.cell_center(&cell);
            // Quantize error bounded by the cell diagonal.
            let err: f64 = p.iter().zip(&c).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            assert!(err <= 2.0 * q.max_error() + 1e-12, "err={err}");
        }
    }

    #[test]
    fn covering_handles_degenerate_span() {
        // All points identical: span collapses, the epsilon floor must save us.
        let pts = vec![vec![2.0, 2.0]; 3];
        let q = Quantizer::covering(&pts, 4, 0.25);
        let cell = q.quantize(&pts[0]);
        assert_eq!(cell.len(), 2);
    }

    /// Regression: a constant coordinate of `1e7` used to panic, because the
    /// `1e-9` span floor times the margin is below half its ulp and the
    /// padded interval came out empty.
    #[test]
    fn covering_survives_a_constant_coordinate_above_the_span_floor() {
        let pts: Vec<&[f64]> = vec![&[1e7, 0.0], &[1e7, 1.0], &[1e7, 0.5]];
        let q = Quantizer::covering_iter(pts.iter().copied(), 12, 0.25);
        assert!(q.mins()[0] < 1e7 && 1e7 < q.maxs()[0], "{q:?}");
        assert_eq!((q.mins()[1], q.maxs()[1]), (-0.25, 1.25), "other dimensions keep their pad");
        assert_eq!(q.quantize(&[1e7, 0.5])[0], 2048, "the constant lands mid-box");
    }

    /// Regression: points sharing a non-zero coordinate used to panic with
    /// margin 0, which pads nothing.
    #[test]
    fn covering_survives_a_shared_coordinate_without_margin() {
        let pts: Vec<&[f64]> = vec![&[-3.5, 2.0], &[-3.5, 4.0]];
        let q = Quantizer::covering_iter(pts.iter().copied(), 8, 0.0);
        assert!(q.mins()[0] < -3.5 && -3.5 < q.maxs()[0], "{q:?}");
        assert_eq!((q.mins()[1], q.maxs()[1]), (2.0, 4.0), "a spread dimension is untouched");
        assert_eq!(q.quantize(&[-3.5, 2.0]), vec![128, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly below")]
    fn rejects_inverted_bounds() {
        Quantizer::new(vec![1.0], vec![0.0], 4);
    }

    #[test]
    fn max_error_shrinks_with_bits() {
        assert!(unit_square(8).max_error() < unit_square(4).max_error());
    }

    proptest! {
        #[test]
        fn quantize_into_equals_quantize(
            dims in 1usize..9,
            bits in 1u32..13,
            point in proptest::collection::vec(-2.0f64..3.0, 8),
        ) {
            let q = Quantizer::new(vec![-1.0; dims], vec![2.0; dims], bits);
            let mut cell = [u32::MAX; 8];
            q.quantize_into(&point[..dims], &mut cell[..dims]);
            prop_assert_eq!(cell[..dims].to_vec(), q.quantize(&point[..dims]));
        }

        #[test]
        fn prop_quantize_in_grid(x in -10.0f64..10.0, y in -10.0f64..10.0) {
            let q = Quantizer::new(vec![-1.0, -1.0], vec![1.0, 1.0], 6);
            let cell = q.quantize(&[x, y]);
            prop_assert!(cell.iter().all(|&c| c < 64));
        }

        #[test]
        fn prop_center_error_bounded(x in 0.0f64..1.0, y in 0.0f64..1.0) {
            let q = Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8);
            let c = q.cell_center(&q.quantize(&[x, y]));
            let err = ((x - c[0]).powi(2) + (y - c[1]).powi(2)).sqrt();
            prop_assert!(err <= q.max_error() + 1e-12);
        }
    }
}
