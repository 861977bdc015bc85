//! Collection strategies (`proptest::collection` stand-in).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// A length specification for [`vec()`]: a fixed size or a half-open range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        let (lo, hi) = r.into_inner();
        assert!(lo <= hi, "empty size range");
        SizeRange { lo, hi: hi + 1 }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = if self.size.lo + 1 == self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Builds a [`VecStrategy`] (mirrors `proptest::collection::vec`).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}
