//! The classic two-step baseline (Section 2.3).
//!
//! "Many distributed databases perform plan generation and service placement
//! as a two-step optimization ... perform plan generation without
//! considering node or network state. Then, immediately before the plan is
//! executed, perform the service placement decision." Figure 1 is the
//! paper's example of the inefficiency this causes; the F1 experiment
//! reproduces it against [`crate::optimizer::IntegratedOptimizer`].

use std::borrow::Cow;

use sbon_netsim::latency::LatencyProvider;
use sbon_query::enumerate::dp_best_plan;

use crate::costspace::CostSpace;
use crate::optimizer::{select_cheapest, Candidate, PlacedCircuit, QuerySpec};
use crate::placement::{OracleMapper, PhysicalMapper, RelaxationPlacer};

/// Plan first on statistics alone, place second.
#[derive(Clone, Debug, Default)]
pub struct TwoStepOptimizer;

impl TwoStepOptimizer {
    /// Creates an optimizer. It takes no configuration: `OptimizerConfig`
    /// sizes a candidate space, and this baseline has none (one
    /// statistics-only plan).
    pub fn new() -> Self {
        TwoStepOptimizer
    }

    /// Optimizes with the centralized oracle mapper.
    pub fn optimize(
        &self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
    ) -> Option<PlacedCircuit> {
        let mut mapper = OracleMapper;
        self.optimize_with_mapper(query, space, latency, &mut mapper)
    }

    /// Optimizes with an explicit physical mapper.
    pub fn optimize_with_mapper(
        &self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        mapper: &mut dyn PhysicalMapper,
    ) -> Option<PlacedCircuit> {
        // Step 1: statistics-only plan choice (network-blind).
        let (bare_plan, _stat_cost) = dp_best_plan(&query.catalog, &query.join_set);
        let plan = query.apply_filters(bare_plan);

        // Step 2: place that single plan — the candidate loop over one
        // candidate, under a ceiling that never prunes.
        let placer = RelaxationPlacer::default();
        let bare = |plan| Candidate::bare(Cow::Owned(plan), query);
        let only = select_cheapest([plan], bare, f64::INFINITY, space, &placer, mapper, None);
        only.best.map(|placed| placed.measured(latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use crate::optimizer::{IntegratedOptimizer, OptimizerConfig};
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::graph::NodeId;
    use sbon_netsim::latency::{EuclideanLatency, LatencyProvider};

    /// A planted Figure-1 scenario: producers at the corners of a long
    /// rectangle, consumer in the middle. With uniform statistics every
    /// join order ties statistically, so the two-step optimizer picks
    /// blindly; the integrated optimizer must find a layout-aware
    /// decomposition that is at least as good.
    fn planted_world() -> (crate::costspace::CostSpace, EuclideanLatency) {
        let pts = vec![
            vec![0.0, 0.0],    // P1
            vec![0.0, 10.0],   // P2
            vec![200.0, 0.0],  // P3
            vec![200.0, 10.0], // P4
            vec![100.0, 5.0],  // consumer
            // Plenty of host candidates spread along the rectangle:
            vec![20.0, 5.0],
            vec![50.0, 5.0],
            vec![80.0, 5.0],
            vec![120.0, 5.0],
            vec![150.0, 5.0],
            vec![180.0, 5.0],
            vec![10.0, 5.0],
            vec![190.0, 5.0],
        ];
        let lat = EuclideanLatency::new(pts.clone());
        let emb = VivaldiEmbedding::exact(pts);
        (CostSpaceBuilder::latency_space(&emb), lat)
    }

    #[test]
    fn integrated_never_loses_to_two_step() {
        let (space, lat) = planted_world();
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            NodeId(4),
            10.0,
            0.01,
        );
        let two = TwoStepOptimizer::new().optimize(&q, &space, &lat).unwrap();
        let int = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &lat)
            .unwrap();
        assert!(
            int.estimated.network_usage <= two.estimated.network_usage + 1e-9,
            "integrated {} vs two-step {}",
            int.estimated.network_usage,
            two.estimated.network_usage
        );
    }

    #[test]
    fn two_step_examines_exactly_one_plan() {
        let (space, lat) = planted_world();
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            NodeId(4),
            10.0,
            0.01,
        );
        let two = TwoStepOptimizer::new().optimize(&q, &space, &lat).unwrap();
        assert_eq!(two.candidates_examined, 1);
    }

    #[test]
    fn two_step_follows_selectivity_skew() {
        // With a strongly selective pair, the stats-best plan joins that
        // pair first — even though this test gives the optimizer no
        // network reason to do so.
        let (space, lat) = planted_world();
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            NodeId(4),
            10.0,
            0.5,
        )
        .with_selectivity(
            sbon_query::stream::StreamId(2),
            sbon_query::stream::StreamId(3),
            0.0001,
        );
        let two = TwoStepOptimizer::new().optimize(&q, &space, &lat).unwrap();
        assert!(
            two.plan.render().contains("(s2 ⋈ s3)") || two.plan.render().contains("(s3 ⋈ s2)"),
            "stats-best plan should join the selective pair first: {}",
            two.plan
        );
    }

    #[test]
    fn measured_cost_uses_ground_truth() {
        let (space, lat) = planted_world();
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(2)], NodeId(4), 10.0, 0.01);
        let two = TwoStepOptimizer::new().optimize(&q, &space, &lat).unwrap();
        // Exact embedding → estimate equals measurement.
        assert!(
            (two.cost.network_usage - two.estimated.network_usage).abs()
                < 1e-6 * two.cost.network_usage.max(1.0)
        );
        assert!(
            two.cost.max_path_latency
                <= lat.latency(NodeId(0), NodeId(4)) + lat.latency(NodeId(2), NodeId(4)) + 400.0
        );
    }
}
