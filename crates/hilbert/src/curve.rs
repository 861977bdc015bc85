//! Skilling's transpose algorithm for the d-dimensional Hilbert curve.
//!
//! Reference: John Skilling, "Programming the Hilbert curve", *AIP Conference
//! Proceedings* 707, 381 (2004). The algorithm works on the *transposed*
//! representation of a Hilbert index: an array of `dims` words where word `i`
//! carries every `dims`-th bit of the index, starting at bit
//! `dims·bits − 1 − i`.
//!
//! # The branch-free form
//!
//! Skilling's encoder branches twice on data: the inverse-undo loop either
//! inverts the low bits of `x[0]` or exchanges them with `x[i]`, depending
//! on bit `q` of `x[i]`, and the Gray-encode fix-up folds `q − 1` into its
//! mask only where bit `q` of the last word is set. Both branches pick
//! between two xors, so [`HilbertCurve::encode`] takes both with a mask —
//! `m = 0 − (bit set)`, all ones or all zeros — and keeps the one the
//! branch would have taken:
//!
//! * invert: `x[0] ^= p & m`;
//! * exchange: `t = (x[0] ^ x[i]) & p & !m`, then `x[0] ^= t`, `x[i] ^= t`
//!   (a zero `t` when the bit is set);
//! * Gray mask: `t ^= (q − 1) & m`.
//!
//! Each step xors exactly the word the branch would have, so every key
//! keeps its bits; the only change is that a pass no longer mispredicts on
//! coordinate bits, which are noise to a branch predictor. (At `i = 0` the
//! exchange is a no-op in both forms: `x[0] ^ x[0]` is zero.) The branchy
//! loop stays as the test module's reference, and a property test pins
//! `encode` to it over every `(dims, bits)` the curve admits.

use crate::{CurveKey, SpaceFillingCurve};

/// A Hilbert curve over a `dims`-dimensional grid with `bits` bits of
/// resolution per dimension.
///
/// ```
/// use sbon_hilbert::{HilbertCurve, SpaceFillingCurve};
///
/// let c = HilbertCurve::new(2, 1);
/// // First-order 2-D Hilbert curve visits the four cells in a "U":
/// assert_eq!(c.decode(0), vec![0, 0]);
/// assert_eq!(c.decode(1), vec![0, 1]);
/// assert_eq!(c.decode(2), vec![1, 1]);
/// assert_eq!(c.decode(3), vec![1, 0]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Creates a curve. Panics unless `1 ≤ dims`, `1 ≤ bits ≤ 32`, and
    /// `dims × bits ≤ 128` (keys are `u128`).
    pub fn new(dims: usize, bits: u32) -> Self {
        assert!(dims >= 1, "need at least one dimension");
        assert!((1..=32).contains(&bits), "bits per dim must be in 1..=32");
        assert!(
            (dims as u32) * bits <= 128,
            "dims*bits must fit a u128 key, got {}",
            dims as u32 * bits
        );
        HilbertCurve { dims, bits }
    }

    /// Converts axes (grid cell) to the transposed Hilbert representation,
    /// in place: Skilling's `AxestoTranspose` with its two data-dependent
    /// branches turned into masks (see the [module docs](self)).
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let m = 1u32 << (self.bits - 1);

        // Inverse undo, with `x[0]` held in a register across each pass.
        let (first, rest) = x.split_first_mut().expect("a curve has at least one dimension");
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            let mut x0 = *first;
            x0 ^= p & set_mask(x0, q); // i = 0: invert or a no-op exchange
            for xi in rest.iter_mut() {
                let invert = set_mask(*xi, q);
                let t = (x0 ^ *xi) & p & !invert;
                x0 ^= (p & invert) | t;
                *xi ^= t;
            }
            *first = x0;
            q >>= 1;
        }

        // Gray encode.
        for i in 1..x.len() {
            x[i] ^= x[i - 1];
        }
        let last = x[x.len() - 1];
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            t ^= (q - 1) & set_mask(last, q);
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Inverse of [`Self::axes_to_transpose`]; port of `TransposetoAxes`.
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = x.len();

        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;

        // Undo excess work: for Q = 2; Q != 2^bits; Q <<= 1. (u64 so the
        // bound 2^32 is representable when bits == 32.)
        let mut q: u64 = 2;
        while q < (1u64 << self.bits) {
            let p = (q - 1) as u32;
            let qq = q as u32;
            for i in (0..n).rev() {
                if x[i] & qq != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Packs a transposed representation into a `u128` key: bit `j` of word
    /// `i` becomes bit `(j·dims + (dims−1−i))` of the key... concretely, the
    /// key's bits from most significant to least are
    /// `x[0]@(bits−1), x[1]@(bits−1), …, x[n−1]@(bits−1), x[0]@(bits−2), …`.
    ///
    /// Keys of at most 64 bits accumulate in a `u64`: the same shifts and
    /// ors, at half the word width.
    fn pack(&self, x: &[u32]) -> CurveKey {
        if self.dims as u32 * self.bits <= 64 {
            let mut key: u64 = 0;
            for j in (0..self.bits).rev() {
                for xi in x {
                    key = (key << 1) | u64::from((xi >> j) & 1);
                }
            }
            return CurveKey::from(key);
        }
        let mut key: u128 = 0;
        for j in (0..self.bits).rev() {
            for xi in x {
                key = (key << 1) | u128::from((xi >> j) & 1);
            }
        }
        key
    }

    /// Inverse of [`Self::pack`].
    fn unpack(&self, key: CurveKey) -> Vec<u32> {
        let mut x = vec![0u32; self.dims];
        let total = self.bits * self.dims as u32;
        for bit in 0..total {
            // bit 0 is the most significant position in the packing order.
            let shift = total - 1 - bit;
            let b = ((key >> shift) & 1) as u32;
            let j = self.bits - 1 - bit / self.dims as u32;
            let i = (bit as usize) % self.dims;
            x[i] |= b << j;
        }
        x
    }
}

/// All ones when `x` has bit `q` set, all zeros otherwise.
fn set_mask(x: u32, q: u32) -> u32 {
    0u32.wrapping_sub(u32::from(x & q != 0))
}

impl SpaceFillingCurve for HilbertCurve {
    fn dims(&self) -> usize {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn encode(&self, cell: &[u32]) -> CurveKey {
        assert_eq!(cell.len(), self.dims, "cell dimensionality mismatch");
        let limit_ok = self.bits == 32 || cell.iter().all(|&c| c < (1u32 << self.bits));
        assert!(limit_ok, "cell coordinate out of range for {} bits", self.bits);
        // `dims ≤ 128` (`dims × bits ≤ 128`, `bits ≥ 1`): the transpose
        // fits a stack buffer.
        let mut buf = [0u32; 128];
        let x = &mut buf[..self.dims];
        x.copy_from_slice(cell);
        self.axes_to_transpose(x);
        self.pack(x)
    }

    fn decode(&self, key: CurveKey) -> Vec<u32> {
        assert!(key < self.num_cells() || self.num_cells() == u128::MAX, "key out of range");
        let mut x = self.unpack(key);
        self.transpose_to_axes(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_dimensional_curve_is_identity() {
        let c = HilbertCurve::new(1, 8);
        for v in [0u32, 1, 17, 255] {
            assert_eq!(c.encode(&[v]), v as u128);
            assert_eq!(c.decode(v as u128), vec![v]);
        }
    }

    #[test]
    fn known_2d_first_order() {
        let c = HilbertCurve::new(2, 1);
        let visited: Vec<Vec<u32>> = (0..4).map(|k| c.decode(k)).collect();
        assert_eq!(visited, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 0]]);
    }

    #[test]
    fn known_2d_second_order_start_and_end() {
        let c = HilbertCurve::new(2, 2);
        // A 2nd-order 2-D Hilbert curve starts at (0,0) and ends at (3,0).
        assert_eq!(c.decode(0), vec![0, 0]);
        assert_eq!(c.decode(15), vec![3, 0]);
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_small() {
        for (dims, bits) in [(2usize, 4u32), (3, 3), (5, 2)] {
            let c = HilbertCurve::new(dims, bits);
            for key in 0..c.num_cells() {
                let cell = c.decode(key);
                assert_eq!(c.encode(&cell), key, "dims={dims} bits={bits} key={key}");
            }
        }
    }

    #[test]
    fn decode_is_injective_small() {
        let c = HilbertCurve::new(3, 2);
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..c.num_cells() {
            assert!(seen.insert(c.decode(key)), "duplicate cell for key {key}");
        }
        assert_eq!(seen.len() as u128, c.num_cells());
    }

    #[test]
    fn max_size_key_fits() {
        // 4 dims × 32 bits = 128 bits exactly.
        let c = HilbertCurve::new(4, 32);
        let cell = vec![u32::MAX, 0, u32::MAX, 0];
        let key = c.encode(&cell);
        assert_eq!(c.decode(key), cell);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_oversized_coordinate() {
        HilbertCurve::new(2, 3).encode(&[8, 0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn encode_rejects_wrong_dims() {
        HilbertCurve::new(2, 3).encode(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "fit a u128")]
    fn new_rejects_oversized_key_space() {
        HilbertCurve::new(5, 32);
    }

    /// Skilling's `AxestoTranspose` as published, one branch per bit: the
    /// reference the branch-free transform is pinned to.
    fn axes_to_transpose_branching(c: &HilbertCurve, x: &mut [u32]) {
        let n = x.len();
        let m = 1u32 << (c.bits - 1);
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t; // exchange
                }
            }
            q >>= 1;
        }
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// `pack` with a `u128` accumulator at every width.
    fn pack_wide(c: &HilbertCurve, x: &[u32]) -> CurveKey {
        let mut key: u128 = 0;
        for j in (0..c.bits).rev() {
            for xi in x {
                key = (key << 1) | (((xi >> j) & 1) as u128);
            }
        }
        key
    }

    /// `encode` as it was before the stack buffer: the transpose in a `Vec`.
    fn encode_through_a_vec(c: &HilbertCurve, cell: &[u32]) -> CurveKey {
        let mut x = cell.to_vec();
        c.axes_to_transpose(&mut x);
        c.pack(&x)
    }

    proptest! {
        #[test]
        fn stack_encode_equals_the_vec_encode(
            dims in 1usize..9,
            bits in 1u32..13,
            draws in proptest::collection::vec(0u32..u32::MAX, 8),
        ) {
            let c = HilbertCurve::new(dims, bits);
            let cell: Vec<u32> = draws[..dims].iter().map(|d| d >> (32 - bits)).collect();
            prop_assert_eq!(c.encode(&cell), encode_through_a_vec(&c, &cell));
        }

        /// The branch-free `encode` equals Skilling's branching loop with a
        /// `u128` pack, for a random cell of every curve `new` admits:
        /// each `(dims, bits)` with `dims × bits ≤ 128`, so 32-bit
        /// coordinates, full 128-bit keys and both sides of the `u64` pack.
        #[test]
        fn branch_free_encode_equals_skillings_loop(
            draws in proptest::collection::vec(0u32..=u32::MAX, 128),
            all_ones in 0u32..8,
        ) {
            for dims in 1usize..=128 {
                for bits in 1..=(128 / dims as u32).min(32) {
                    let c = HilbertCurve::new(dims, bits);
                    let shift = 32 - bits;
                    // One case in eight checks the all-ones corner cell.
                    let cell: Vec<u32> = draws
                        .iter()
                        .cycle()
                        .skip(dims + bits as usize)
                        .take(dims)
                        .map(|&d| if all_ones == 0 { u32::MAX >> shift } else { d >> shift })
                        .collect();
                    let mut reference = cell.clone();
                    axes_to_transpose_branching(&c, &mut reference);
                    let (key, want) = (c.encode(&cell), pack_wide(&c, &reference));
                    prop_assert!(key == want, "dims={dims} bits={bits}: {key} != {want}");
                }
            }
        }

        #[test]
        fn prop_roundtrip_3d(cell in proptest::collection::vec(0u32..256, 3)) {
            let c = HilbertCurve::new(3, 8);
            let key = c.encode(&cell);
            prop_assert_eq!(c.decode(key), cell);
        }

        #[test]
        fn prop_roundtrip_high_dim(cell in proptest::collection::vec(0u32..16, 6)) {
            let c = HilbertCurve::new(6, 4);
            let key = c.encode(&cell);
            prop_assert_eq!(c.decode(key), cell);
        }

        #[test]
        fn prop_keys_in_range(cell in proptest::collection::vec(0u32..1024, 2)) {
            let c = HilbertCurve::new(2, 10);
            prop_assert!(c.encode(&cell) < c.num_cells());
        }
    }
}
