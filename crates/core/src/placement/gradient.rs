//! Gradient-descent virtual placement on the *linear* network-usage
//! objective (Section 3.2 mentions "a gradient descent \[18\] within the cost
//! space" as another placement option).
//!
//! Relaxation minimizes the smooth spring proxy `Σ rate·d²`; this placer
//! refines further by iterating a multi-facility Weiszfeld step on the true
//! objective `Σ rate·d`, whose fixed point is the rate-weighted geometric
//! median of each service's neighbours. Starting from the relaxation
//! solution keeps it fast and avoids the d→0 singularity in practice (a
//! small epsilon guards it anyway).

use crate::circuit::Circuit;
use crate::costspace::euclidean;
use crate::costspace::CostSpace;
use crate::placement::relaxation::RelaxationPlacer;
use crate::placement::traits::{sweep, VirtualPlacement, VirtualPlacer};

/// Tunables for [`GradientPlacer`].
#[derive(Clone, Copy, Debug)]
pub struct GradientConfig {
    /// Maximum Weiszfeld sweeps after the relaxation warm start.
    pub max_iters: usize,
    /// Stop when no service moved more than this distance in a sweep.
    pub tolerance: f64,
    /// Distance floor preventing division by zero at coincident points.
    pub epsilon: f64,
}

impl Default for GradientConfig {
    fn default() -> Self {
        GradientConfig { max_iters: 100, tolerance: 1e-6, epsilon: 1e-9 }
    }
}

/// Weiszfeld-style placer minimizing `Σ rate · distance` directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct GradientPlacer {
    /// Configuration.
    pub config: GradientConfig,
}

impl GradientPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: GradientConfig) -> Self {
        GradientPlacer { config }
    }
}

impl VirtualPlacer for GradientPlacer {
    fn place(&self, circuit: &Circuit, space: &CostSpace) -> VirtualPlacement {
        // Warm start from the spring solution.
        let mut placement = RelaxationPlacer::default().place(circuit, space);
        let GradientConfig { max_iters, tolerance, epsilon } = self.config;
        // Weiszfeld weight: rate / distance.
        let weight =
            |rate: f64, here: &[f64], there: &[f64]| rate / euclidean(here, there).max(epsilon);
        sweep(circuit, &mut placement, max_iters, tolerance, weight);
        placement
    }

    fn name(&self) -> &'static str {
        "gradient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::catalog;
    use crate::circuit::Circuit;
    use crate::costspace::CostSpaceBuilder;
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::graph::NodeId;
    use sbon_query::plan::LogicalPlan;
    use sbon_query::stream::StreamId;

    fn fixture(rates: &[f64]) -> (Circuit, crate::costspace::CostSpace) {
        let emb = VivaldiEmbedding::exact(vec![vec![0.0, 0.0], vec![100.0, 0.0], vec![50.0, 80.0]]);
        let space = CostSpaceBuilder::latency_space(&emb);
        let stats = catalog(0.001, &[(rates[0], NodeId(0)), (rates[1], NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        (Circuit::from_plan(&plan, &stats, NodeId(2)), space)
    }

    #[test]
    fn gradient_does_not_regress_linear_objective() {
        let (circuit, space) = fixture(&[10.0, 10.0]);
        let relaxed = RelaxationPlacer::default().place(&circuit, &space);
        let refined = GradientPlacer::default().place(&circuit, &space);
        assert!(
            refined.virtual_cost(&circuit) <= relaxed.virtual_cost(&circuit) + 1e-6,
            "gradient {} vs relaxation {}",
            refined.virtual_cost(&circuit),
            relaxed.virtual_cost(&circuit)
        );
    }

    #[test]
    fn skewed_rates_move_median_onto_heavy_producer() {
        // With one dominant stream the geometric median collapses onto that
        // producer (a known property of the weighted median that the
        // quadratic spring solution does NOT share).
        let (circuit, space) = fixture(&[1000.0, 1.0]);
        let refined = GradientPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let c = refined.coord_of(join);
        assert!(
            euclidean(c, &[0.0, 0.0]) < 5.0,
            "median should sit near the heavy producer, got {c:?}"
        );
    }

    #[test]
    fn fully_pinned_circuit_passes_through() {
        let (mut circuit, space) = fixture(&[10.0, 10.0]);
        let join = circuit.unpinned_services()[0];
        circuit.pin_service(join, NodeId(2));
        let vp = GradientPlacer::default().place(&circuit, &space);
        assert_eq!(vp.coord_of(join), &[50.0, 80.0]);
    }
}
