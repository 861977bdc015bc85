//! The one place outside harness code allowed to read the wall clock.
//!
//! Simulation results are a function of `(topology, seed, config)`; wall
//! time is *reporting output*, never an input. Phase timings (how many
//! real nanoseconds a re-opt pass took) are observability data, so the
//! wall-clock read lives here — in the obs stats module — and everything
//! simulation-side consumes the opaque [`WallTimer`] instead of touching
//! `std::time` itself. Clippy's wall-clock ban (`clippy.toml`) is lifted
//! for exactly this file, plus benches, examples and the criterion shim;
//! the runtime needs no exemption.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the one blessed wall-clock read outside harness code"
)]

use std::time::Instant;

/// A started stopwatch measuring real elapsed time for stats reporting.
///
/// The reading is exposed only as elapsed nanoseconds — there is no way to
/// get the absolute instant back out, so a `WallTimer` cannot be used to
/// order simulation events.
#[derive(Clone, Copy, Debug)]
pub struct WallTimer(Instant);

impl WallTimer {
    /// Starts the stopwatch.
    pub fn start() -> WallTimer {
        WallTimer(Instant::now())
    }

    /// Real nanoseconds since [`WallTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        let ns = self.0.elapsed().as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let t = WallTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
