//! The cost space itself: per-node coordinates assembled from an embedding
//! plus weighted scalar attributes.

use sbon_coords::vivaldi::VivaldiEmbedding;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::{Attr, NodeAttrs};

use crate::costspace::point::CostPoint;
use crate::costspace::weight::WeightFn;

/// Where a scalar dimension reads its raw value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarSource {
    /// A node attribute from the simulator's attribute table.
    Attr(Attr),
}

/// Description of one scalar dimension.
#[derive(Clone, Debug)]
pub struct DimensionSpec {
    /// Dimension name for harness output (e.g. `"cpu²"`).
    pub name: String,
    /// Raw-value source.
    pub source: ScalarSource,
    /// Weighting function shaping the raw value into a coordinate.
    pub weight: WeightFn,
}

/// A cost space: one [`CostPoint`] per physical node.
///
/// "The semantics (dimensions, units, and weighting functions) of a
/// particular cost-space must be known by all nodes in the SBON" — here they
/// are carried by the space itself.
#[derive(Clone, Debug)]
pub struct CostSpace {
    /// Human-readable space name.
    pub name: String,
    vector_dims: usize,
    scalar_specs: Vec<DimensionSpec>,
    points: Vec<CostPoint>,
    /// Bumped by every [`CostSpace::set_vector_coord`] that changed a bit:
    /// equal epochs of one space (or of a clone and its original) mean
    /// equal vector coordinates everywhere.
    vector_epoch: u64,
}

impl CostSpace {
    /// Number of nodes with coordinates.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Total dimensionality (vector + scalar).
    pub fn dims(&self) -> usize {
        self.vector_dims + self.scalar_specs.len()
    }

    /// Number of vector (latency) dimensions.
    pub fn vector_dims(&self) -> usize {
        self.vector_dims
    }

    /// The scalar dimension descriptions.
    pub fn scalar_specs(&self) -> &[DimensionSpec] {
        &self.scalar_specs
    }

    /// The coordinate of a node.
    pub fn point(&self, node: NodeId) -> &CostPoint {
        &self.points[node.index()]
    }

    /// All coordinates, indexed by node id.
    pub fn points(&self) -> &[CostPoint] {
        &self.points
    }

    /// The vector epoch: how many [`CostSpace::set_vector_coord`] calls
    /// have changed a vector coordinate. Scalar writes never move it, so a
    /// result that reads only vector coordinates — a virtual placement, a
    /// circuit's usage lower bound — computed at an epoch is still exact at
    /// the same epoch, however the scalars churned in between.
    pub fn vector_epoch(&self) -> u64 {
        self.vector_epoch
    }

    /// Vector-only distance between two nodes (the latency estimate).
    pub fn vector_distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.point(a).vector_distance(self.point(b), self.vector_dims)
    }

    /// Extends a virtual-placement coordinate (vector dims only) to a full
    /// coordinate with ideal (zero) scalar components — the target that
    /// physical mapping resolves ("the ideal scalar components will all be
    /// zero", Section 3.2).
    pub fn ideal_point(&self, vector_coord: &[f64]) -> CostPoint {
        assert_eq!(vector_coord.len(), self.vector_dims, "vector coordinate dims");
        let mut full = Vec::with_capacity(self.dims());
        full.extend_from_slice(vector_coord);
        full.resize(self.dims(), 0.0);
        CostPoint::new(full)
    }

    /// Recomputes every node's scalar components from fresh attributes —
    /// the bulk maintenance path. Steady-state churn should prefer
    /// [`CostSpace::update_scalars`] over the dirty set: a tick touching `k`
    /// nodes then costs `O(k·dims)` instead of `O(n·dims)`. Both paths
    /// evaluate the identical weighting expression, so a dirty-set update is
    /// bit-identical to a full refresh over the same attribute table.
    pub fn refresh_scalars(&mut self, attrs: &NodeAttrs) {
        assert_eq!(attrs.len(), self.points.len(), "attribute table size");
        for i in 0..self.points.len() {
            self.update_scalars(NodeId(i as u32), attrs);
        }
    }

    /// Recomputes one node's scalar components from the attribute table —
    /// the delta path of the maintenance contract. Returns `true` when any
    /// component actually changed (bit-level), which is the signal to
    /// re-register the node with coordinate consumers such as
    /// [`PhysicalMapper::update_node`](crate::placement::PhysicalMapper::update_node); clamped or repeated
    /// attribute writes that leave the weighted value unchanged return
    /// `false` so downstream sync can be skipped. Panics, before anything is
    /// written, on a component that is not finite (a NaN attribute, a
    /// non-finite [`WeightFn`] parameter), naming node, dimension and value.
    pub fn update_scalars(&mut self, node: NodeId, attrs: &NodeAttrs) -> bool {
        let weighted = |spec: &DimensionSpec| {
            let ScalarSource::Attr(attr) = spec.source;
            spec.weight.apply(attrs.get(node, attr))
        };
        for spec in &self.scalar_specs {
            let next = weighted(spec);
            assert!(
                next.is_finite(),
                "node {node}: scalar dimension {:?} weighs to {next}, coordinates must be finite",
                spec.name
            );
        }
        let point = &mut self.points[node.index()];
        let mut changed = false;
        for (d, spec) in self.scalar_specs.iter().enumerate() {
            let next = weighted(spec);
            let slot = &mut point.0[self.vector_dims + d];
            if slot.to_bits() != next.to_bits() {
                *slot = next;
                changed = true;
            }
        }
        changed
    }

    /// Replaces one node's vector (latency) coordinate — the delta path for
    /// embedding refinement, where a node "constantly refines" its network
    /// coordinate. Scalar components are untouched. Returns `true` when the
    /// coordinate actually changed (bit-level), and only then bumps the
    /// [vector epoch](CostSpace::vector_epoch).
    pub fn set_vector_coord(&mut self, node: NodeId, coord: &[f64]) -> bool {
        assert_eq!(coord.len(), self.vector_dims, "vector coordinate dims");
        assert!(coord.iter().all(|c| c.is_finite()), "cost coordinates must be finite");
        let point = &mut self.points[node.index()];
        let mut changed = false;
        for (slot, &c) in point.0[..self.vector_dims].iter_mut().zip(coord) {
            if slot.to_bits() != c.to_bits() {
                *slot = c;
                changed = true;
            }
        }
        self.vector_epoch += u64::from(changed);
        changed
    }
}

/// Builders for the spaces used in the paper and the experiments.
pub struct CostSpaceBuilder;

impl CostSpaceBuilder {
    /// A pure latency space (Section 3.1's "sample cost space"): vector
    /// dimensions only, straight from a network-coordinate embedding.
    pub fn latency_space(embedding: &VivaldiEmbedding) -> CostSpace {
        CostSpace {
            name: "latency".to_string(),
            vector_dims: embedding.dims(),
            scalar_specs: Vec::new(),
            points: embedding.coords.iter().map(|c| CostPoint::new(c.clone())).collect(),
            vector_epoch: 0,
        }
    }

    /// The paper's Figure 2 space: latency in the vector dimensions plus a
    /// squared-CPU-load scalar dimension. `load_scale` sets how many
    /// latency-units a fully loaded node is penalized; Figure 2's plot uses
    /// a penalty comparable to the network diameter, so the default in
    /// [`CostSpaceBuilder::latency_load_space`] is 100 ms-equivalent.
    pub fn latency_load_space_scaled(
        embedding: &VivaldiEmbedding,
        attrs: &NodeAttrs,
        load_scale: f64,
    ) -> CostSpace {
        let spec = DimensionSpec {
            name: "cpu²".to_string(),
            source: ScalarSource::Attr(Attr::CpuLoad),
            weight: WeightFn::Squared { scale: load_scale },
        };
        Self::custom(embedding, attrs, vec![spec], "latency+cpu²")
    }

    /// [`CostSpaceBuilder::latency_load_space_scaled`] with the default
    /// 100.0 load scale.
    pub fn latency_load_space(embedding: &VivaldiEmbedding, attrs: &NodeAttrs) -> CostSpace {
        Self::latency_load_space_scaled(embedding, attrs, 100.0)
    }

    /// A space with arbitrary scalar dimensions appended to the embedding's
    /// vector dimensions.
    pub fn custom(
        embedding: &VivaldiEmbedding,
        attrs: &NodeAttrs,
        scalar_specs: Vec<DimensionSpec>,
        name: &str,
    ) -> CostSpace {
        assert_eq!(
            embedding.len(),
            attrs.len(),
            "embedding and attribute table must cover the same nodes"
        );
        let vector_dims = embedding.dims();
        let dims = vector_dims + scalar_specs.len();
        let unweighted = |coord: &Vec<f64>| {
            let mut full = Vec::with_capacity(dims);
            full.extend_from_slice(coord);
            full.resize(dims, 0.0);
            CostPoint::new(full)
        };
        let points = embedding.coords.iter().map(unweighted).collect();
        let mut space = CostSpace {
            name: name.to_string(),
            vector_dims,
            scalar_specs,
            points,
            vector_epoch: 0,
        };
        space.refresh_scalars(attrs);
        space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::load::LoadModel;
    use sbon_netsim::rng::rng_from_seed;

    fn embedding3() -> VivaldiEmbedding {
        VivaldiEmbedding::exact(vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]])
    }

    #[test]
    fn latency_space_has_no_scalars() {
        let s = CostSpaceBuilder::latency_space(&embedding3());
        assert_eq!(s.dims(), 2);
        assert_eq!(s.vector_dims(), 2);
        assert_eq!(s.point(NodeId(0)).full_distance(s.point(NodeId(1))), 10.0);
        assert_eq!(s.vector_distance(NodeId(0), NodeId(1)), 10.0);
    }

    #[test]
    fn load_space_appends_weighted_scalar() {
        let mut attrs = NodeAttrs::idle(3);
        attrs.set(NodeId(1), Attr::CpuLoad, 0.5);
        let s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert_eq!(s.dims(), 3);
        // Node 1's scalar component: 100 × 0.5² = 25.
        assert_eq!(s.point(NodeId(1)).scalar_part(2), &[25.0]);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[0.0]);
        // Full distance between 0 and 1 mixes latency (10) and load (25).
        let d = s.point(NodeId(0)).full_distance(s.point(NodeId(1)));
        assert!((d - (10.0f64 * 10.0 + 25.0 * 25.0).sqrt()).abs() < 1e-12);
        // Vector distance ignores load.
        assert_eq!(s.vector_distance(NodeId(0), NodeId(1)), 10.0);
    }

    #[test]
    fn ideal_point_zeroes_scalars() {
        let attrs = NodeAttrs::idle(3);
        let s = CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
        let p = s.ideal_point(&[3.0, 4.0]);
        assert_eq!(p.as_slice(), &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn refresh_scalars_tracks_churn() {
        let mut rng = rng_from_seed(1);
        let mut attrs = LoadModel::Uniform(0.2).generate(3, &mut rng);
        let mut s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[100.0 * 0.04]);
        attrs.set(NodeId(0), Attr::CpuLoad, 1.0);
        s.refresh_scalars(&attrs);
        assert_eq!(s.point(NodeId(0)).scalar_part(2), &[100.0]);
    }

    #[test]
    fn update_scalars_matches_full_refresh_and_detects_change() {
        let mut attrs = NodeAttrs::idle(3);
        let mut delta = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        let mut full = delta.clone();

        attrs.set(NodeId(1), Attr::CpuLoad, 0.7);
        assert!(delta.update_scalars(NodeId(1), &attrs), "a real change reports true");
        full.refresh_scalars(&attrs);
        for i in 0..3u32 {
            assert_eq!(delta.point(NodeId(i)), full.point(NodeId(i)));
        }
        // Re-applying the same attributes is a no-op.
        assert!(!delta.update_scalars(NodeId(1), &attrs));
        // A clamped write that leaves the weighted value unchanged too.
        attrs.set(NodeId(0), Attr::CpuLoad, -5.0);
        assert!(!delta.update_scalars(NodeId(0), &attrs));
    }

    /// A NaN attribute (`NodeAttrs::set`'s clamp and `WeightFn::apply`'s both
    /// propagate it) is refused before any dimension of the point is written,
    /// naming node, dimension and value.
    #[test]
    fn update_scalars_rejects_a_non_finite_scalar_before_mutating() {
        let spec = |name: &str, attr| DimensionSpec {
            name: name.to_string(),
            source: ScalarSource::Attr(attr),
            weight: WeightFn::Linear { scale: 10.0 },
        };
        let specs = vec![spec("cpu", Attr::CpuLoad), spec("mem", Attr::MemLoad)];
        let mut attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::custom(&embedding3(), &attrs, specs, "cpu+mem");
        let before = s.point(NodeId(1)).clone();

        let good = attrs.clone();
        attrs.set(NodeId(1), Attr::CpuLoad, 0.5); // a real change in the first dimension…
        attrs.set(NodeId(1), Attr::MemLoad, f64::NAN); // …and poison in the second
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.update_scalars(NodeId(1), &attrs)
        }))
        .expect_err("a NaN scalar must not be stored");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("node n1") && message.contains("\"mem\""), "{message}");
        assert!(message.contains("NaN") && message.contains("finite"), "{message}");
        assert_eq!(s.point(NodeId(1)), &before, "nothing was written");
        assert!(!s.update_scalars(NodeId(1), &good), "and the old attributes are still a no-op");
    }

    #[test]
    fn set_vector_coord_moves_only_the_vector_prefix() {
        let attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert!(s.set_vector_coord(NodeId(2), &[7.0, 8.0]));
        assert_eq!(s.point(NodeId(2)).as_slice(), &[7.0, 8.0, 0.0]);
        assert!(!s.set_vector_coord(NodeId(2), &[7.0, 8.0]), "identical coord is a no-op");
    }

    /// The vector epoch moves on a real vector write and on nothing else:
    /// not on a same-bits write, not on scalar maintenance of either kind.
    #[test]
    fn vector_epoch_moves_only_on_a_real_vector_change() {
        let mut attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::latency_load_space_scaled(&embedding3(), &attrs, 100.0);
        assert_eq!(s.vector_epoch(), 0);
        assert!(!s.set_vector_coord(NodeId(1), &[10.0, 0.0]), "same bits");
        assert_eq!(s.vector_epoch(), 0);
        attrs.set(NodeId(1), Attr::CpuLoad, 0.9);
        assert!(s.update_scalars(NodeId(1), &attrs), "a real scalar change");
        s.refresh_scalars(&attrs);
        assert_eq!(s.vector_epoch(), 0, "scalars never move the vector epoch");
        assert!(s.set_vector_coord(NodeId(1), &[10.0, 0.5]));
        assert_eq!(s.vector_epoch(), 1);
        // -0.0 == 0.0, but the bits differ: a change.
        assert!(s.set_vector_coord(NodeId(0), &[-0.0, 0.0]));
        assert_eq!(s.vector_epoch(), 2);
        let clone = s.clone();
        assert_eq!(clone.vector_epoch(), s.vector_epoch(), "a clone keeps the epoch");
    }

    #[test]
    #[should_panic(expected = "vector coordinate dims")]
    fn set_vector_coord_rejects_wrong_dims() {
        let attrs = NodeAttrs::idle(3);
        let mut s = CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
        s.set_vector_coord(NodeId(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn mismatched_sizes_rejected() {
        let attrs = NodeAttrs::idle(2);
        CostSpaceBuilder::latency_load_space(&embedding3(), &attrs);
    }
}
