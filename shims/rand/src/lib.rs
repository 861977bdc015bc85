//! In-tree, dependency-free stand-in for the `rand` crate.
//!
//! The build environment for this repository is offline: nothing may be
//! fetched from crates.io. This shim implements exactly the slice of the
//! `rand 0.8` API the workspace uses — [`Rng::gen`], [`Rng::gen_range`],
//! [`Rng::gen_bool`], [`rngs::StdRng`], [`SeedableRng::seed_from_u64`] and
//! [`seq::SliceRandom`] — with the same call-site syntax, so swapping in the
//! real crate later is a one-line manifest change.
//!
//! `StdRng` here is xoshiro256++ seeded through a SplitMix64 expansion. It is
//! deterministic per seed (the test suites rely on that) and statistically
//! strong enough for every simulation and property test in the workspace. It
//! is **not** the same stream as the real `rand::rngs::StdRng` (ChaCha12) and
//! is not cryptographically secure.

pub mod rngs;
pub mod seq;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from the generator's full word stream.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng) as f32
    }
}

/// Uniform draw in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (rng.next_u64() >> 11) as f64 * SCALE
}

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = u128::from(rng.next_u64()) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = u128::from(rng.next_u64()) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let v = self.start + (unit_f64(rng) as $t) * (self.end - self.start);
                // Guard against rounding landing exactly on the excluded bound.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                lo + (unit_f64(rng) as $t) * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// The user-facing generator interface (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value of any [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from a half-open or inclusive range.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_one(self)
    }

    /// Returns `true` with probability `p` (which must be in `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
