//! Virtual-placement interface.

use crate::circuit::{Circuit, Link, Service, ServiceId, ServicePin};
use crate::costspace::{euclidean, CostSpace};

/// The result of virtual placement: an ideal *vector-dimension* coordinate
/// for every service. Pinned services sit at their host's coordinate;
/// unpinned services sit wherever the placer put them.
#[derive(Clone, Debug, PartialEq)]
pub struct VirtualPlacement {
    /// Vector dimensions per coordinate.
    dims: usize,
    /// `coords[service.index() * dims..][..dims]` = vector coordinate: one
    /// flat `services × dims` buffer.
    coords: Vec<f64>,
}

impl VirtualPlacement {
    /// Wraps per-service vector coordinates of `dims` dimensions each, laid
    /// end to end in service id order.
    pub fn new(dims: usize, coords: Vec<f64>) -> Self {
        assert!(
            dims > 0 && coords.len() % dims == 0,
            "{} values do not split into {dims}-dimensional coordinates",
            coords.len()
        );
        VirtualPlacement { dims, coords }
    }

    /// The ideal vector coordinate of a service.
    pub fn coord_of(&self, sid: ServiceId) -> &[f64] {
        &self.coords[sid.index() * self.dims..][..self.dims]
    }

    /// Number of services covered.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
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

/// The starting point every placer shares, as one flat `services × dims`
/// buffer: pinned services at their hosts' vector coordinates, unpinned ones
/// at the `weight`ed centroid of the pinned (a pinned service of weight ≤ 0
/// pulls nothing; the origin if none does, which
/// [`crate::circuit::Circuit::from_plan`] never produces).
pub(crate) fn seed_coords(
    circuit: &Circuit,
    space: &CostSpace,
    weight: impl Fn(&Service) -> f64,
) -> VirtualPlacement {
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
    let mut coords = Vec::with_capacity(circuit.len() * vd);
    for s in circuit.services() {
        match s.pin {
            ServicePin::Pinned(n) => coords.extend_from_slice(space.point(n).vector_part(vd)),
            ServicePin::Unpinned => coords.extend_from_slice(&centroid),
        }
    }
    VirtualPlacement::new(vd, coords)
}

/// The one Gauss–Seidel loop: sweep the unpinned services in id order, moving
/// each to the weighted mean of its link neighbours' *current* coordinates,
/// until a sweep moves nothing as far as `tolerance` or `max_iters` sweeps
/// have run. `weight(rate, here, there)` is what a link of that rate to a
/// neighbour at `there` pulls with on a service at `here`: the rate itself
/// for springs, `rate / distance` for a Weiszfeld step. A service whose
/// weights sum to ≤ 0 stays where it is. Returns the sweeps run (0 for a
/// fully pinned circuit).
///
/// The adjacency is one compressed table built straight from
/// [`Circuit::links`]: each unpinned service's neighbours in link order, so
/// the sums run in the order the links are listed.
pub(crate) fn sweep(
    circuit: &Circuit,
    placement: &mut VirtualPlacement,
    max_iters: usize,
    tolerance: f64,
    weight: impl Fn(f64, &[f64], &[f64]) -> f64,
) -> usize {
    let services = circuit.services();
    if services.iter().all(|s| !s.is_unpinned()) {
        return 0;
    }
    // `start[s]..start[s + 1]`: service `s`'s slice of `incident`, in link
    // order; pinned services get an empty slice.
    let mut start = vec![0usize; services.len() + 1];
    let movable = |sid: ServiceId| services[sid.index()].is_unpinned();
    for l in circuit.links() {
        for end in [l.from, l.to] {
            if movable(end) {
                start[end.index() + 1] += 1;
            }
        }
    }
    for s in 0..services.len() {
        start[s + 1] += start[s];
    }
    let mut fill = start.clone();
    let mut incident = vec![(0usize, 0.0); start[services.len()]];
    for l in circuit.links() {
        for (me, other) in [(l.from, l.to), (l.to, l.from)] {
            if movable(me) {
                incident[fill[me.index()]] = (other.index(), l.rate);
                fill[me.index()] += 1;
            }
        }
    }

    let dims = placement.dims;
    let coords = &mut placement.coords;
    let mut target = vec![0.0; dims];
    let mut sweeps = 0;
    while sweeps < max_iters {
        sweeps += 1;
        let mut max_move: f64 = 0.0;
        for me in (0..services.len()).filter(|&s| services[s].is_unpinned()) {
            let mut weight_sum = 0.0;
            target.fill(0.0);
            let here = me * dims;
            for &(other, rate) in &incident[start[me]..start[me + 1]] {
                let there = &coords[other * dims..][..dims];
                let w = weight(rate, &coords[here..][..dims], there);
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
            let at = &mut coords[here..][..dims];
            max_move = max_move.max(euclidean(at, &target));
            at.copy_from_slice(&target);
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
        let vp = seed_coords(&circuit, &space, |_| 1.0);
        assert_eq!(vp.coord_of(ServiceId(0)), [0.0, 0.0]); // producer 0 at node 0
        assert_eq!(vp.coord_of(ServiceId(1)), [10.0, 0.0]); // producer 1 at node 1
        assert_eq!(vp.coord_of(ServiceId(3)), [5.0, 10.0]); // consumer at node 2

        // Unpinned join seeded at the pinned centroid (5, 10/3).
        assert_eq!(vp.coord_of(ServiceId(2)), [5.0, 10.0 / 3.0]);
    }

    /// The memo's premise (`crate::reopt::ReoptMemo`): a placement reads the
    /// circuit and its pinned hosts' vector coordinates, nothing else. One
    /// circuit — a random plan, some operators tenancy-pinned — placed by
    /// each placer over a load space and over a clone of it whose every
    /// scalar was redrawn comes out the same, bit for bit, at the same
    /// vector epoch.
    mod placement_reads_no_scalar {
        use super::*;
        use crate::costspace::CostSpace;
        use crate::optimizer::oracle::random_query;
        use crate::placement::{CentroidPlacer, GradientPlacer, RelaxationPlacer};
        use sbon_netsim::load::{Attr, NodeAttrs};
        use sbon_netsim::rng::derive_seed;

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig { cases: 48 })]
            #[test]
            fn placement_is_bit_identical_over_equal_vector_coordinates(
                seed in 0u64..1_000_000,
                n in 12usize..48,
                ways in 2usize..=6,
                pins in 0usize..3,
            ) {
                let unit = |stream: u64| (derive_seed(seed, stream) % 10_000) as f64 / 10_000.0;
                let points: Vec<Vec<f64>> =
                    (0..n as u64).map(|i| vec![200.0 * unit(2 * i), 200.0 * unit(2 * i + 1)]).collect();
                let emb = VivaldiEmbedding::exact(points);
                let loads = |salt: u64| {
                    let mut attrs = NodeAttrs::idle(n);
                    for i in 0..n as u32 {
                        attrs.set(NodeId(i), Attr::CpuLoad, unit(salt + u64::from(i)));
                    }
                    attrs
                };
                let space = CostSpaceBuilder::latency_load_space_scaled(&emb, &loads(1_000), 100.0);
                let mut churned: CostSpace = space.clone();
                churned.refresh_scalars(&loads(5_000));
                proptest::prop_assert!(space.points() != churned.points(), "the scalars differ");
                proptest::prop_assert_eq!(space.vector_epoch(), churned.vector_epoch());

                let q = random_query(n, ways, seed);
                let plans = crate::optimizer::IntegratedOptimizer::default().candidate_plans(&q);
                let plan = &plans[seed as usize % plans.len()];
                let mut circuit = Circuit::from_plan(plan, &q.catalog, q.consumer);
                for (k, sid) in circuit.unpinned_services().into_iter().take(pins).enumerate() {
                    circuit.pin_service(sid, NodeId(((seed as usize + 5 * k) % n) as u32));
                }
                let placers: [&dyn VirtualPlacer; 3] =
                    [&RelaxationPlacer::default(), &GradientPlacer::default(), &CentroidPlacer];
                for placer in placers {
                    let bits = |vp: VirtualPlacement| -> Vec<u64> {
                        vp.coords.iter().map(|c| c.to_bits()).collect()
                    };
                    let (here, there) =
                        (placer.place(&circuit, &space), placer.place(&circuit, &churned));
                    proptest::prop_assert_eq!((placer.name(), bits(here)), (placer.name(), bits(there)));
                }
            }
        }
    }

    #[test]
    fn virtual_cost_is_rate_weighted_distance() {
        let (circuit, space) = fixture();
        let vp = seed_coords(&circuit, &space, |_| 1.0);
        let cost = vp.virtual_cost(&circuit);
        assert!(cost > 0.0);
        // Moving the join on top of producer 0 changes the cost.
        let mut coords = vp.coords.clone();
        coords[4..6].copy_from_slice(&[0.0, 0.0]);
        let vp2 = VirtualPlacement::new(2, coords);
        assert_ne!(vp2.virtual_cost(&circuit), cost);
    }
}
