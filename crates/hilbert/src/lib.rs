//! d-dimensional Hilbert space-filling curve.
//!
//! The paper's physical-mapping step stores each node's cost-space coordinate
//! in a DHT "after transforming its multi-dimensional coordinate to a
//! one-dimensional hash key with a Hilbert curve" (Section 3.2, citing
//! Sagan and Andrzejak & Xu). The Hilbert curve is chosen over simpler
//! interleavings because consecutive curve positions are always adjacent
//! cells, so a contiguous key range maps to a compact spatial region — which
//! is what makes the DHT's "closest existing coordinate" lookup meaningful.
//!
//! * [`HilbertCurve`] — encode/decode between grid cells and curve keys,
//!   using Skilling's transpose algorithm (J. Skilling, *Programming the
//!   Hilbert curve*, AIP 2004).
//! * [`MortonCurve`] — bit-interleaving (Z-order) baseline for the A1
//!   ablation; worse locality, same API.
//! * [`Quantizer`] — maps continuous cost-space coordinates to grid cells
//!   and back (cell centers).

pub mod curve;
pub mod morton;
pub mod quantizer;

pub use curve::HilbertCurve;
pub use morton::MortonCurve;
pub use quantizer::Quantizer;

/// A 1-D key on a space-filling curve. At most 128 bits, i.e.
/// `dims × bits_per_dim ≤ 128`.
pub type CurveKey = u128;

/// Common interface of the two space-filling curves, so the DHT catalog and
/// the ablation harness can swap them.
pub trait SpaceFillingCurve {
    /// Number of dimensions.
    fn dims(&self) -> usize;
    /// Bits of resolution per dimension.
    fn bits(&self) -> u32;
    /// Maps a grid cell (each coordinate `< 2^bits`) to its curve position.
    fn encode(&self, cell: &[u32]) -> CurveKey;
    /// Inverse of [`SpaceFillingCurve::encode`].
    fn decode(&self, key: CurveKey) -> Vec<u32>;
    /// Total number of cells = `2^(dims × bits)`, saturating at `u128::MAX`.
    fn num_cells(&self) -> u128 {
        let total_bits = (self.dims() as u32) * self.bits();
        if total_bits >= 128 {
            u128::MAX
        } else {
            1u128 << total_bits
        }
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// Chebyshev (max-axis) distance between two cells.
    fn chebyshev(a: &[u32], b: &[u32]) -> u32 {
        a.iter().zip(b).map(|(&x, &y)| x.abs_diff(y)).max().unwrap_or(0)
    }

    /// The defining locality property: walking the Hilbert curve one key at a
    /// time moves exactly one grid step. Morton does not satisfy this.
    #[test]
    fn hilbert_consecutive_keys_are_adjacent_cells() {
        for (dims, bits) in [(2usize, 3u32), (3, 2), (4, 2)] {
            let c = HilbertCurve::new(dims, bits);
            let n = c.num_cells() as u64;
            let mut prev = c.decode(0);
            for k in 1..n {
                let cur = c.decode(k as u128);
                let step: u32 = prev.iter().zip(&cur).map(|(&x, &y)| x.abs_diff(y)).sum();
                assert_eq!(step, 1, "dims={dims} bits={bits} key={k}: {prev:?} -> {cur:?}");
                prev = cur;
            }
        }
    }

    #[test]
    fn morton_violates_unit_step_somewhere() {
        let c = MortonCurve::new(2, 3);
        let mut max_step = 0;
        let mut prev = c.decode(0);
        for k in 1..c.num_cells() {
            let cur = c.decode(k);
            max_step = max_step.max(chebyshev(&prev, &cur));
            prev = cur;
        }
        assert!(max_step > 1, "Morton should jump, max_step={max_step}");
    }

    /// Average locality metric used in the A1 ablation: mean Euclidean cell
    /// distance between keys at lag 1. Hilbert must beat Morton.
    #[test]
    fn hilbert_has_better_lag1_locality_than_morton() {
        let dims = 2;
        let bits = 4;
        let h = HilbertCurve::new(dims, bits);
        let m = MortonCurve::new(dims, bits);
        let lag1 = |decode: &dyn Fn(u128) -> Vec<u32>, n: u128| -> f64 {
            let mut total = 0.0;
            let mut prev = decode(0);
            for k in 1..n {
                let cur = decode(k);
                let d: f64 = prev
                    .iter()
                    .zip(&cur)
                    .map(|(&x, &y)| {
                        let d = x.abs_diff(y) as f64;
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt();
                total += d;
                prev = cur;
            }
            total / (n - 1) as f64
        };
        let hl = lag1(&|k| h.decode(k), h.num_cells());
        let ml = lag1(&|k| m.decode(k), m.num_cells());
        assert!(hl < ml, "hilbert lag1 {hl} should beat morton {ml}");
        assert!((hl - 1.0).abs() < 1e-9, "hilbert lag1 is exactly 1");
    }
}
