//! Centroid virtual placement — the simplest alternative the paper mentions
//! ("other virtual placement algorithms could be based on a centroid
//! calculation", Section 3.2).
//!
//! Every unpinned service is dropped at the rate-weighted centroid of the
//! circuit's *pinned* services in one shot. Structure-blind: all operators
//! of a circuit land on the same coordinate, which is exactly why the A2
//! ablation shows relaxation beating it on deep circuits.

use crate::circuit::{Circuit, Service};
use crate::costspace::CostSpace;
use crate::placement::traits::{seed_coords, VirtualPlacement, VirtualPlacer};

/// One-shot rate-weighted centroid placer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CentroidPlacer;

impl VirtualPlacer for CentroidPlacer {
    fn place(&self, circuit: &Circuit, space: &CostSpace) -> VirtualPlacement {
        // A pinned service's weight is its output rate (producers) or, for
        // the consumer (rate 0), the rate it receives, so the sink pulls too.
        let weight = |s: &Service| {
            if s.output_rate > 0.0 {
                s.output_rate
            } else {
                circuit.links().iter().filter(|l| l.to == s.id).map(|l| l.rate).sum::<f64>()
            }
        };
        seed_coords(circuit, space, weight)
    }

    fn name(&self) -> &'static str {
        "centroid"
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

    #[test]
    fn equal_rates_put_service_at_geometric_centroid() {
        let emb = VivaldiEmbedding::exact(vec![vec![0.0, 0.0], vec![12.0, 0.0], vec![0.0, 12.0]]);
        let space = CostSpaceBuilder::latency_space(&emb);
        let stats = catalog(0.1, &[(10.0, NodeId(0)), (10.0, NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let circuit = Circuit::from_plan(&plan, &stats, NodeId(2));
        let vp = CentroidPlacer.place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let c = vp.coord_of(join);
        // Producers (10, 10) at (0,0) and (12,0); consumer receives the
        // join output 0.1·10·10 = 10 at (0,12): centroid of equal weights.
        assert!((c[0] - (0.0 + 12.0 + 0.0) / 3.0).abs() < 1e-9);
        assert!((c[1] - (0.0 + 0.0 + 12.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_unpinned_services_share_the_centroid() {
        let emb = VivaldiEmbedding::exact(vec![
            vec![0.0, 0.0],
            vec![10.0, 0.0],
            vec![5.0, 5.0],
            vec![2.0, 8.0],
        ]);
        let space = CostSpaceBuilder::latency_space(&emb);
        let stats = catalog(0.1, &[(10.0, NodeId(0)), (10.0, NodeId(1)), (10.0, NodeId(2))]);
        let plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1))),
            LogicalPlan::source(StreamId(2)),
        );
        let circuit = Circuit::from_plan(&plan, &stats, NodeId(3));
        let vp = CentroidPlacer.place(&circuit, &space);
        let unpinned = circuit.unpinned_services();
        assert_eq!(unpinned.len(), 2);
        assert_eq!(vp.coord_of(unpinned[0]), vp.coord_of(unpinned[1]));
    }
}
