//! Scalar weighting functions.
//!
//! "A node calculates its scalar component using a weighting function
//! supplied by the deployer of the cost space. The function is constructed
//! to always be non-negative, where zero represents an ideal value. As a
//! simple example ... the weighting function could be the squared function"
//! (Section 3.1, Figure 2's z-axis).

/// A weighting function mapping a raw scalar attribute (e.g. CPU load in
/// `[0, 1]`) to a cost-space coordinate. `scale` expresses the attribute in
/// latency-comparable units: a node at raw value 1.0 sits `scale` cost units
/// away from ideal (before shaping).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightFn {
    /// `scale · v` — linear.
    Linear {
        /// Cost units at raw value 1.0.
        scale: f64,
    },
    /// `scale · v²` — the paper's example; discourages loaded nodes
    /// progressively harder.
    Squared {
        /// Cost units at raw value 1.0.
        scale: f64,
    },
    /// `scale · (e^(k·v) − 1) / (e^k − 1)` — near-barrier shaping: gentle
    /// while idle, steep near saturation.
    Exponential {
        /// Cost units at raw value 1.0.
        scale: f64,
        /// Steepness; larger `k` makes the barrier harder.
        k: f64,
    },
}

impl WeightFn {
    /// Applies the function. Input is clamped to `[0, 1]`; for a finite
    /// `scale` (and `k > 0`) the output is finite and non-negative, with
    /// `apply(0) == 0` (zero = ideal). A NaN `raw` survives the clamp and a
    /// non-finite parameter the arithmetic: such a result is rejected where
    /// it would enter a space (`CostSpace::update_scalars`).
    pub fn apply(self, raw: f64) -> f64 {
        let v = raw.clamp(0.0, 1.0);
        match self {
            WeightFn::Linear { scale } => scale * v,
            WeightFn::Squared { scale } => scale * v * v,
            WeightFn::Exponential { scale, k } => {
                debug_assert!(k > 0.0);
                scale * ((k * v).exp() - 1.0) / (k.exp() - 1.0)
            }
        }
    }

    /// The scale (value at raw == 1.0).
    pub fn scale(self) -> f64 {
        match self {
            WeightFn::Linear { scale }
            | WeightFn::Squared { scale }
            | WeightFn::Exponential { scale, .. } => scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_ideal_for_all_shapes() {
        for f in [
            WeightFn::Linear { scale: 50.0 },
            WeightFn::Squared { scale: 50.0 },
            WeightFn::Exponential { scale: 50.0, k: 4.0 },
        ] {
            assert_eq!(f.apply(0.0), 0.0);
        }
    }

    #[test]
    fn full_value_hits_scale() {
        for f in [
            WeightFn::Linear { scale: 50.0 },
            WeightFn::Squared { scale: 50.0 },
            WeightFn::Exponential { scale: 50.0, k: 4.0 },
        ] {
            assert!((f.apply(1.0) - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn squared_discourages_high_load_superlinearly() {
        let f = WeightFn::Squared { scale: 100.0 };
        // Doubling the load quadruples the penalty.
        assert!((f.apply(0.8) / f.apply(0.4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_is_gentle_then_steep() {
        let f = WeightFn::Exponential { scale: 100.0, k: 6.0 };
        let low_slope = f.apply(0.2) - f.apply(0.1);
        let high_slope = f.apply(1.0) - f.apply(0.9);
        assert!(high_slope > 5.0 * low_slope);
    }

    #[test]
    fn input_is_clamped() {
        let f = WeightFn::Linear { scale: 10.0 };
        assert_eq!(f.apply(-3.0), 0.0);
        assert_eq!(f.apply(42.0), 10.0);
    }

    proptest! {
        #[test]
        fn prop_nonnegative_and_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            for f in [
                WeightFn::Linear { scale: 30.0 },
                WeightFn::Squared { scale: 30.0 },
                WeightFn::Exponential { scale: 30.0, k: 3.0 },
            ] {
                prop_assert!(f.apply(a) >= 0.0);
                if a <= b {
                    prop_assert!(f.apply(a) <= f.apply(b) + 1e-12);
                }
            }
        }
    }
}
