//! Spring-relaxation virtual placement.
//!
//! "Relaxation placement uses a spring relaxation technique ... It models
//! circuits as springs, such that the spring constant equals the data rate
//! transferred over the link and the spring extension derives from the
//! latency. Services are modeled as massless bodies between springs: pinned
//! services have a fixed location, whereas unpinned services can move
//! freely." (Section 3.2, citing Pietzuch et al., TR-26-04.)
//!
//! With zero-rest-length springs the equilibrium of each unpinned service is
//! the rate-weighted mean of its neighbours, so we solve the spring system
//! by Gauss–Seidel sweeps (exact minimizer of the spring energy
//! `½ Σ rate · dist²`, which relaxation uses as a smooth proxy for network
//! usage `Σ rate · dist`). The sweeps are also how the decentralized
//! protocol behaves: each service repeatedly re-centres itself using only
//! its neighbours' current coordinates.

use crate::circuit::Circuit;
use crate::costspace::CostSpace;
use crate::placement::traits::{seed_coords, sweep, VirtualPlacement, VirtualPlacer};

/// Tunables for [`RelaxationPlacer`].
#[derive(Clone, Copy, Debug)]
pub struct RelaxationConfig {
    /// Maximum Gauss–Seidel sweeps.
    pub max_iters: usize,
    /// Stop when no service moved more than this distance in a sweep.
    pub tolerance: f64,
}

impl Default for RelaxationConfig {
    fn default() -> Self {
        RelaxationConfig { max_iters: 200, tolerance: 1e-6 }
    }
}

/// The paper's reference virtual-placement algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct RelaxationPlacer {
    /// Configuration.
    pub config: RelaxationConfig,
}

impl RelaxationPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: RelaxationConfig) -> Self {
        RelaxationPlacer { config }
    }

    /// Runs the relaxation and additionally reports the number of sweeps
    /// used (for the A2 ablation).
    pub fn place_counted(&self, circuit: &Circuit, space: &CostSpace) -> (VirtualPlacement, usize) {
        let mut placement = seed_coords(circuit, space, |_| 1.0);
        let RelaxationConfig { max_iters, tolerance } = self.config;
        let sweeps = sweep(circuit, &mut placement, max_iters, tolerance, |rate, _, _| rate);
        (placement, sweeps)
    }
}

impl VirtualPlacer for RelaxationPlacer {
    fn place(&self, circuit: &Circuit, space: &CostSpace) -> VirtualPlacement {
        self.place_counted(circuit, space).0
    }

    fn name(&self) -> &'static str {
        "relaxation"
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

    fn space_line() -> crate::costspace::CostSpace {
        CostSpaceBuilder::latency_space(&VivaldiEmbedding::exact(vec![
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![50.0, 0.0],
        ]))
    }

    fn join_circuit(rate0: f64, rate1: f64) -> Circuit {
        let stats = catalog(0.001, &[(rate0, NodeId(0)), (rate1, NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        Circuit::from_plan(&plan, &stats, NodeId(2))
    }

    #[test]
    fn symmetric_rates_balance_midway() {
        let circuit = join_circuit(10.0, 10.0);
        let space = space_line();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let x = vp.coord_of(join)[0];
        // Producers at 0 and 100 with equal pull, consumer at 50 with a tiny
        // output rate: equilibrium is ~50.
        assert!((x - 50.0).abs() < 1.0, "x={x}");
    }

    #[test]
    fn heavier_stream_pulls_the_service() {
        let circuit = join_circuit(100.0, 10.0);
        let space = space_line();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let x = vp.coord_of(join)[0];
        assert!(x < 25.0, "heavy producer at x=0 should attract the join, x={x}");
    }

    #[test]
    fn relaxation_beats_seed_on_spring_energy() {
        let circuit = join_circuit(30.0, 10.0);
        let space = space_line();
        let placer = RelaxationPlacer::default();
        let seeded = seed_coords(&circuit, &space, |_| 1.0);
        let relaxed = placer.place(&circuit, &space);
        assert!(relaxed.spring_energy(&circuit) <= seeded.spring_energy(&circuit) + 1e-9);
    }

    #[test]
    fn converges_quickly_on_small_circuit() {
        let circuit = join_circuit(10.0, 10.0);
        let space = space_line();
        let (_, sweeps) = RelaxationPlacer::default().place_counted(&circuit, &space);
        assert!(sweeps < 200, "sweeps={sweeps}");
    }

    #[test]
    fn fully_pinned_circuit_needs_no_iterations() {
        let mut circuit = join_circuit(10.0, 10.0);
        let join = circuit.unpinned_services()[0];
        circuit.pin_service(join, NodeId(2));
        let space = space_line();
        let (vp, sweeps) = RelaxationPlacer::default().place_counted(&circuit, &space);
        assert_eq!(sweeps, 0);
        assert_eq!(vp.coord_of(join), &[50.0, 0.0]);
    }

    #[test]
    fn multi_service_chain_orders_itself() {
        // Asymmetric 3-way left-deep join: producers at 0, 100, 0 and the
        // consumer at 90. The centroid seed (47.5) is far from both join
        // equilibria (≈48 and ≈5), so relaxation must strictly improve the
        // virtual cost, and the two joins must separate.
        let space = CostSpaceBuilder::latency_space(&VivaldiEmbedding::exact(vec![
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![0.0, 0.0],
            vec![90.0, 0.0],
        ]));
        let stats = catalog(0.01, &[(10.0, NodeId(0)), (10.0, NodeId(1)), (10.0, NodeId(2))]);
        let plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1))),
            LogicalPlan::source(StreamId(2)),
        );
        let circuit = Circuit::from_plan(&plan, &stats, NodeId(3));
        let placer = RelaxationPlacer::default();
        let seeded = seed_coords(&circuit, &space, |_| 1.0);
        let relaxed = placer.place(&circuit, &space);
        assert!(relaxed.virtual_cost(&circuit) < seeded.virtual_cost(&circuit));
        let unpinned = circuit.unpinned_services();
        let x1 = relaxed.coord_of(unpinned[0])[0];
        let x2 = relaxed.coord_of(unpinned[1])[0];
        assert!((x1 - x2).abs() > 10.0, "joins should separate along the line: {x1} vs {x2}");
    }
}
