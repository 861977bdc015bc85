//! Virtual-placement interface.

use crate::circuit::{Circuit, Link, Service, ServiceId, ServicePin};
use crate::costspace::{euclidean, CostSpace};

/// The result of virtual placement: an ideal *vector-dimension* coordinate
/// for every service. Pinned services sit at their host's coordinate;
/// unpinned services sit wherever the placer put them.
#[derive(Clone, Debug, PartialEq)]
pub struct VirtualPlacement {
    /// `coords[service.index()]` = vector coordinate.
    pub(super) coords: Vec<Vec<f64>>,
}

impl VirtualPlacement {
    /// Wraps per-service vector coordinates (one per service, in id order).
    pub fn new(coords: Vec<Vec<f64>>) -> Self {
        VirtualPlacement { coords }
    }

    /// The ideal vector coordinate of a service.
    pub fn coord_of(&self, sid: ServiceId) -> &[f64] {
        &self.coords[sid.index()]
    }

    /// Number of services covered.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no coordinates are held.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The circuit's *virtual cost*: Σ link rate × vector distance between
    /// the ideal coordinates — the network-usage objective, evaluated on
    /// ideal coordinates before any mapping error enters.
    pub fn virtual_cost(&self, circuit: &Circuit) -> f64 {
        self.link_sum(circuit, |rate, d| rate * d)
    }

    /// The spring potential energy `½ Σ rate × distance²` — the smooth
    /// proxy objective that [`crate::placement::RelaxationPlacer`] provably
    /// minimizes (its Gauss–Seidel fixed point is the global optimum of
    /// this convex quadratic). The linear [`Self::virtual_cost`] usually
    /// improves too, but only the energy is guaranteed to.
    pub fn spring_energy(&self, circuit: &Circuit) -> f64 {
        self.link_sum(circuit, |rate, d| 0.5 * rate * d * d)
    }

    /// Σ over links of `term(rate, distance between the ends' coordinates)`.
    fn link_sum(&self, circuit: &Circuit, term: impl Fn(f64, f64) -> f64) -> f64 {
        let length = |l: &Link| euclidean(self.coord_of(l.from), self.coord_of(l.to));
        circuit.links().iter().map(|l| term(l.rate, length(l))).sum()
    }
}

/// The starting point every placer shares: pinned services at their hosts'
/// vector coordinates, unpinned ones at the `weight`ed centroid of the pinned
/// (a pinned service of weight ≤ 0 pulls nothing; the origin if none does,
/// which [`crate::circuit::Circuit::from_plan`] never produces).
pub(crate) fn seed_coords(
    circuit: &Circuit,
    space: &CostSpace,
    weight: impl Fn(&Service) -> f64,
) -> Vec<Vec<f64>> {
    let vd = space.vector_dims();
    let mut centroid = vec![0.0; vd];
    let mut total = 0.0;
    for s in circuit.services() {
        let ServicePin::Pinned(n) = s.pin else { continue };
        let w = weight(s);
        if w <= 0.0 {
            continue;
        }
        total += w;
        for (a, c) in centroid.iter_mut().zip(space.point(n).vector_part(vd)) {
            *a += w * c;
        }
    }
    if total > 0.0 {
        for a in centroid.iter_mut() {
            *a /= total;
        }
    }
    circuit
        .services()
        .iter()
        .map(|s| match s.pin {
            ServicePin::Pinned(n) => space.point(n).vector_part(vd).to_vec(),
            ServicePin::Unpinned => centroid.clone(),
        })
        .collect()
}

/// The one Gauss–Seidel loop: sweep the unpinned services in id order, moving
/// each to the weighted mean of its link neighbours' *current* coordinates,
/// until a sweep moves nothing as far as `tolerance` or `max_iters` sweeps
/// have run. `weight(rate, here, there)` is what a link of that rate to a
/// neighbour at `there` pulls with on a service at `here`: the rate itself
/// for springs, `rate / distance` for a Weiszfeld step. A service whose
/// weights sum to ≤ 0 stays where it is. Returns the sweeps run (0 for a
/// fully pinned circuit).
pub(crate) fn sweep(
    circuit: &Circuit,
    coords: &mut [Vec<f64>],
    max_iters: usize,
    tolerance: f64,
    weight: impl Fn(f64, &[f64], &[f64]) -> f64,
) -> usize {
    let adjacency: Vec<(usize, Vec<(ServiceId, f64)>)> = circuit
        .unpinned_services()
        .into_iter()
        .map(|sid| (sid.index(), circuit.incident(sid)))
        .collect();
    let mut target = vec![0.0; coords[0].len()];
    let mut sweeps = 0;
    while sweeps < max_iters && !adjacency.is_empty() {
        sweeps += 1;
        let mut max_move: f64 = 0.0;
        for (me, incident) in &adjacency {
            let mut weight_sum = 0.0;
            target.fill(0.0);
            for &(other, rate) in incident {
                let there = &coords[other.index()];
                let w = weight(rate, &coords[*me], there);
                weight_sum += w;
                for (t, c) in target.iter_mut().zip(there) {
                    *t += w * c;
                }
            }
            if weight_sum <= 0.0 {
                continue;
            }
            for t in target.iter_mut() {
                *t /= weight_sum;
            }
            max_move = max_move.max(euclidean(&coords[*me], &target));
            coords[*me].copy_from_slice(&target);
        }
        if max_move < tolerance {
            break;
        }
    }
    sweeps
}

/// A virtual-placement algorithm.
pub trait VirtualPlacer {
    /// Computes ideal vector coordinates for every service of the circuit.
    fn place(&self, circuit: &Circuit, space: &CostSpace) -> VirtualPlacement;

    /// Human-readable name for harness output.
    fn name(&self) -> &'static str;
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

    fn fixture() -> (Circuit, crate::costspace::CostSpace) {
        let emb = VivaldiEmbedding::exact(vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![5.0, 10.0]]);
        let space = CostSpaceBuilder::latency_space(&emb);
        let stats = catalog(0.1, &[(10.0, NodeId(0)), (10.0, NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let circuit = Circuit::from_plan(&plan, &stats, NodeId(2));
        (circuit, space)
    }

    #[test]
    fn seed_puts_pinned_at_their_nodes() {
        let (circuit, space) = fixture();
        let coords = seed_coords(&circuit, &space, |_| 1.0);
        assert_eq!(coords[0], vec![0.0, 0.0]); // producer 0 at node 0
        assert_eq!(coords[1], vec![10.0, 0.0]); // producer 1 at node 1
        assert_eq!(coords[3], vec![5.0, 10.0]); // consumer at node 2

        // Unpinned join seeded at the pinned centroid (5, 10/3).
        assert_eq!(coords[2], vec![5.0, 10.0 / 3.0]);
    }

    #[test]
    fn virtual_cost_is_rate_weighted_distance() {
        let (circuit, space) = fixture();
        let vp = VirtualPlacement::new(seed_coords(&circuit, &space, |_| 1.0));
        let cost = vp.virtual_cost(&circuit);
        assert!(cost > 0.0);
        // Moving the join on top of producer 0 changes the cost.
        let mut coords = seed_coords(&circuit, &space, |_| 1.0);
        coords[2] = vec![0.0, 0.0];
        let vp2 = VirtualPlacement::new(coords);
        assert_ne!(vp2.virtual_cost(&circuit), cost);
    }
}
