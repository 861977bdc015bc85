//! Physical mapping (Section 3.2).
//!
//! "The basic problem solved in physical mapping is to find a physical node
//! that is close to the coordinate calculated in the virtual placement.
//! ... The mapping from cost space coordinates to physical nodes introduces
//! a mapping error if there are no physical nodes close to a desired
//! coordinate."
//!
//! The mappers:
//!
//! * [`DhtMapper`] — the decentralized implementation and the overlay
//!   runtime's default: the Hilbert-keyed [`CoordinateCatalog`], answering
//!   in `O(log n)` routed hops. Kept current through the
//!   [`PhysicalMapper`] maintenance contract (`update_node` on every
//!   cost-point delta, `remove_node` on failure — liveness lives in the
//!   catalog itself; each call reports the ring keys it moved as a
//!   [`MapperDelta`]). Adds a (small) additional error over the oracle,
//!   which the A1 ablation quantifies.
//! * [`OracleMapper`] — exhaustive full-space nearest node, `O(n)` per
//!   call. Zero routing cost, zero *algorithmic* error; the residual error
//!   is the intrinsic "no node exactly at the star" error the paper
//!   discusses, which the C1 experiment measures. Survives as the
//!   verification backend the DHT answers are compared against.
//! * [`LiveOracleMapper`] — the oracle scan restricted to live nodes; the
//!   runtime's verification backend when failures are in play.
//! * [`VectorOnlyOracleMapper`] — nearest in the *latency dimensions only*,
//!   ignoring load: the naive mapper that picks node N1 in Figure 3. Used
//!   as the baseline that shows why scalar dimensions matter.
//! * [`RoutedMapper`] — the [`DhtMapper`] catalog wrapped in the
//!   message-passing control plane ([`sbon_dht::proto`]): lookups answer
//!   synchronously (bit-identical to the DHT backend) but are additionally
//!   replayed as routed `ControlMsg` traffic on the simulated underlay when
//!   the owner calls [`RoutedMapper::settle`], yielding *experienced*
//!   per-query latency instead of abstract hop counts.
//!
//! # Who owns what
//!
//! The mapping stack is five layers, and every fact in it has one owner:
//!
//! * **ring** ([`sbon_dht::ring`]) — membership order and the member→key
//!   index (`DhtRing::key_of`); nothing above re-keeps a key.
//! * **catalog** ([`CoordinateCatalog`]) — the registered coordinates, the
//!   neighbourhood ranking every answer comes from (the routed owner's
//!   included) and the traffic statistics, which every lookup charges
//!   through [`CoordinateCatalog::charge_stats`] (`lookup_closest` and
//!   `k_nearest` at once, a read view's owner later); `insert` / `remove`
//!   report the keys they moved.
//! * **routed catalog** ([`RoutedCatalog`]) — last-writer-wins stamps,
//!   partition state and the message queue, around the catalog it wraps.
//! * **mapper** (this module) — the [`CostSpace`] → registration sync and
//!   the [`MapperDelta`] each maintenance call reports; [`MapperReadView`]
//!   is the one read-only view of any backend.
//! * **runtime** (`sbon_overlay`'s `MapperState`) — which backend runs,
//!   when routed traffic settles, and charging a view's deferred traffic
//!   back ([`CoordinateCatalog::charge_stats`]).

use sbon_dht::catalog::{CatalogStats, CoordinateCatalog, ScanSpan};
use sbon_dht::proto::{LinkFn, ProtoConfig, QueryId, RoutedCatalog, RoutedLookup, RoutedStats};
use sbon_dht::RingKey;
use sbon_hilbert::{HilbertCurve, Quantizer};
use sbon_netsim::graph::NodeId;
use sbon_netsim::sim::SimTime;

use crate::circuit::{Circuit, Placement, ServicePin};
use crate::costspace::{CostPoint, CostSpace};
use crate::placement::traits::VirtualPlacement;

/// What a maintenance call changed, as far as any *other* lookup can tell —
/// the owner's relevance index consumes it
/// ([`Touches::mapper`](crate::reopt::relevance::Touches::mapper))
/// to invalidate exactly the recorded evaluations the change can reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapperDelta {
    /// The node's catalog registration moved from ring key `old` to `new`
    /// (`None` = not registered before / after). Only lookups whose scanned
    /// ring region covers one of the two keys can answer differently.
    Keys {
        /// Key the node was registered under before the call.
        old: Option<RingKey>,
        /// Key it is registered under now.
        new: Option<RingKey>,
    },
    /// Any lookup may answer differently: the mapper re-scans the live space
    /// on every call, so it has no bounded read region to report. Also the
    /// trait default — over-invalidating costs a re-evaluation, never a
    /// wrong skip.
    WholeSpace,
}

/// A physical-mapping strategy: ideal full-space point → real node.
///
/// Beyond resolving points, the trait carries the **maintenance contract**
/// that keeps a long-lived mapper in sync with a delta-updated
/// [`CostSpace`]: the owner calls [`PhysicalMapper::update_node`] for every
/// cost-point delta, [`PhysicalMapper::add_node`] for every arrival and
/// [`PhysicalMapper::remove_node`] on node failure. Each call returns the
/// [`MapperDelta`] it caused, so "which recorded lookups does this mutation
/// invalidate" is decided by the mapper that knows its own read pattern,
/// not by its owner. Stateless mappers that re-scan the live space on every
/// call (the oracles) keep the no-op defaults and report
/// [`MapperDelta::WholeSpace`]; stateful ones (the Hilbert-DHT catalog)
/// re-register or unregister the node and report the exact keys.
pub trait PhysicalMapper {
    /// Resolves the node to host a service whose ideal coordinate is
    /// `ideal`. Returns the node and the routing hops charged.
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize);

    /// Human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// Informs the mapper that `node`'s cost point changed (scalar churn or
    /// embedding refinement). Default: no-op, for mappers without derived
    /// state.
    fn update_node(&mut self, space: &CostSpace, node: NodeId) -> MapperDelta {
        let _ = (space, node);
        MapperDelta::WholeSpace
    }

    /// Registers a node **arriving** in a deployment wave: from now on
    /// [`PhysicalMapper::map_point`] may return it. Default: delegates to
    /// [`PhysicalMapper::update_node`], which is the right behaviour for
    /// mappers whose registration is an idempotent (re-)insert. The owner
    /// must not re-add a node it already removed via
    /// [`PhysicalMapper::remove_node`].
    fn add_node(&mut self, space: &CostSpace, node: NodeId) -> MapperDelta {
        self.update_node(space, node)
    }

    /// Informs the mapper that `node` failed or left: it must never be
    /// returned by [`PhysicalMapper::map_point`] again. Default: no-op.
    fn remove_node(&mut self, node: NodeId) -> MapperDelta {
        let _ = node;
        MapperDelta::WholeSpace
    }
}

/// Every node of `space`, in id order.
fn all_nodes(space: &CostSpace) -> impl Iterator<Item = NodeId> {
    (0..space.num_nodes() as u32).map(NodeId)
}

/// The oracle scan behind all three oracle mappers: the `eligible` node
/// whose cost point is nearest by `distance`, first minimum (lowest node id)
/// winning ties. `O(n)`, charges no routing hops.
fn nearest_node(
    space: &CostSpace,
    eligible: impl Fn(NodeId) -> bool,
    distance: impl Fn(&CostPoint) -> f64,
) -> (NodeId, usize) {
    let best = all_nodes(space)
        .filter(|&n| eligible(n))
        .min_by(|&a, &b| distance(space.point(a)).total_cmp(&distance(space.point(b))))
        .expect("the cost space has at least one mappable node");
    (best, 0)
}

/// Exhaustive full-space nearest-node mapper (centralized oracle).
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleMapper;

impl PhysicalMapper for OracleMapper {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        nearest_node(space, |_| true, |p| p.full_distance(ideal))
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Nearest node in the vector (latency) dimensions only — Figure 3's
/// load-blind baseline that would pick the overloaded node N1.
#[derive(Clone, Copy, Debug, Default)]
pub struct VectorOnlyOracleMapper;

impl PhysicalMapper for VectorOnlyOracleMapper {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        let vd = space.vector_dims();
        nearest_node(space, |_| true, |p| p.vector_distance(ideal, vd))
    }

    fn name(&self) -> &'static str {
        "vector-only-oracle"
    }
}

/// Oracle scan restricted to live nodes — the runtime's verification
/// backend. Same exhaustive `O(n)` scan as [`OracleMapper`], but it honors
/// the [`PhysicalMapper::remove_node`] part of the maintenance contract so
/// failed hosts are never chosen. With no failures it selects exactly what
/// [`OracleMapper`] would (same scan order, same tie-breaking).
#[derive(Clone, Debug)]
pub struct LiveOracleMapper {
    alive: Vec<bool>,
}

impl LiveOracleMapper {
    /// A mapper over `n` initially live nodes.
    pub fn new(n: usize) -> Self {
        LiveOracleMapper { alive: vec![true; n] }
    }

    /// A mapper over `n` nodes of which only `members` are initially
    /// registered — the deployment-wave constructor. Remaining nodes join
    /// later through [`PhysicalMapper::add_node`].
    pub fn with_members(n: usize, members: impl IntoIterator<Item = NodeId>) -> Self {
        let mut mapper = LiveOracleMapper { alive: vec![false; n] };
        for node in members {
            mapper.alive[node.index()] = true;
        }
        mapper
    }

    /// Whether the mapper still considers `node` mappable.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// The oracle scan as a pure read — `map_point` delegates here, and the
    /// read-only view uses it directly, so the two answer identically by
    /// construction.
    pub fn map_point_ro(&self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        nearest_node(space, |n| self.is_alive(n), |p| p.full_distance(ideal))
    }

    /// A read-only view for one circuit evaluation. The scan reads every
    /// live node's full cost point, so the view's read set is the whole
    /// space.
    pub fn read_view(&self) -> MapperReadView<'_> {
        MapperReadView::over(ViewSource::Oracle(self))
    }
}

impl PhysicalMapper for LiveOracleMapper {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        self.map_point_ro(space, ideal)
    }

    fn name(&self) -> &'static str {
        "live-oracle"
    }

    /// A joining node becomes mappable (the scan reads its coordinate live
    /// from the space, so there is nothing else to register).
    fn add_node(&mut self, space: &CostSpace, node: NodeId) -> MapperDelta {
        let _ = space;
        if let Some(slot) = self.alive.get_mut(node.index()) {
            *slot = true;
        }
        MapperDelta::WholeSpace
    }

    fn remove_node(&mut self, node: NodeId) -> MapperDelta {
        if let Some(slot) = self.alive.get_mut(node.index()) {
            *slot = false;
        }
        MapperDelta::WholeSpace
    }
}

/// Construction options for [`DhtMapper`].
#[derive(Clone, Copy, Debug)]
pub struct DhtMapperConfig {
    /// Per-dimension grid resolution (12 is plenty at 600-node scale).
    /// `dims × bits` must fit the 128-bit ring.
    pub bits: u32,
    /// Successor-list correction window of the catalog lookup.
    pub scan_width: usize,
    /// When `true`, each scalar dimension's quantizer range is the weight
    /// function's full output range `[0, w(1.0)]` instead of the span of
    /// the current points — so attribute churn can never push a registered
    /// coordinate outside the box. Long-lived (runtime-owned) mappers want
    /// this; one-shot experiment mappers don't need it.
    pub scalar_full_range: bool,
}

impl Default for DhtMapperConfig {
    fn default() -> Self {
        DhtMapperConfig { bits: 12, scan_width: 8, scalar_full_range: true }
    }
}

/// The coordinate catalog behind both catalog mappers ([`DhtMapper`], and
/// [`RoutedMapper`] through its `RoutedCatalog`).
pub type MapperCatalog = CoordinateCatalog<HilbertCurve>;

/// The decentralized Hilbert-DHT mapper.
///
/// Once built it is **self-contained**: lookups read only the registered
/// coordinates, so the owner must forward cost-point deltas via
/// [`PhysicalMapper::update_node`] (an `O(log n)` re-registration) and
/// failures via [`PhysicalMapper::remove_node`]. Maintained this way it
/// answers exactly like a mapper freshly rebuilt from the same space over
/// the same quantizer — pinned by the `dht_mapper_deltas_match_fresh_build`
/// property test.
pub struct DhtMapper {
    catalog: MapperCatalog,
}

impl DhtMapper {
    /// Builds the catalog by registering every node of the space, sizing the
    /// quantizer to cover all current coordinates with 25% margin.
    /// `bits` is the per-dimension grid resolution (12 is plenty at 600-node
    /// scale); `scan_width` is the successor-list correction window.
    pub fn build(space: &CostSpace, bits: u32, scan_width: usize) -> Self {
        Self::build_with(space, &DhtMapperConfig { bits, scan_width, scalar_full_range: false })
    }

    /// Builds the catalog per `config` (see [`DhtMapperConfig`]).
    pub fn build_with(space: &CostSpace, config: &DhtMapperConfig) -> Self {
        Self::build_with_members(space, config, &all_nodes(space).collect::<Vec<_>>())
    }

    /// Proportional headroom every catalog quantizer adds around the
    /// coordinates it covers.
    pub(crate) const QUANTIZER_MARGIN: f64 = 0.25;

    /// Builds the catalog registering only `members` — the deployment-wave
    /// constructor. The quantizer is still sized over **every** node of the
    /// space (plus the usual margin / full scalar range), so nodes that
    /// arrive later through [`PhysicalMapper::add_node`] quantize into the
    /// same box the initial members did: an incrementally grown catalog is
    /// indistinguishable from one bulk-built after the last arrival.
    pub fn build_with_members(
        space: &CostSpace,
        config: &DhtMapperConfig,
        members: &[NodeId],
    ) -> Self {
        let dims = space.dims();
        assert!(
            (dims as u32) * config.bits <= 128,
            "dims×bits must fit the 128-bit ring; lower `bits` for high-dimensional spaces"
        );
        let covering = Quantizer::covering_iter(
            space.points().iter().map(|p| p.as_slice()),
            config.bits,
            Self::QUANTIZER_MARGIN,
        );
        let quantizer = if config.scalar_full_range {
            let vd = space.vector_dims();
            let mut mins = covering.mins().to_vec();
            let mut maxs = covering.maxs().to_vec();
            for (d, spec) in space.scalar_specs().iter().enumerate() {
                // Weight functions are monotone on the clamped [0, 1] input,
                // so [w(0), w(1)] = [0, scale] bounds every future value.
                mins[vd + d] = 0.0;
                maxs[vd + d] = spec.weight.apply(1.0).max(1e-9);
            }
            Quantizer::new(mins, maxs, config.bits)
        } else {
            covering
        };
        Self::build_members_over_quantizer(space, quantizer, config.scan_width, members)
    }

    /// Builds the catalog over an explicitly chosen quantizer — the
    /// constructor equivalence tests use to compare a delta-maintained
    /// mapper against a fresh build over identical bounds.
    pub fn build_with_quantizer(
        space: &CostSpace,
        quantizer: Quantizer,
        scan_width: usize,
    ) -> Self {
        let members: Vec<NodeId> = all_nodes(space).collect();
        Self::build_members_over_quantizer(space, quantizer, scan_width, &members)
    }

    /// Shared constructor: registers exactly `members` under the given
    /// quantizer.
    fn build_members_over_quantizer(
        space: &CostSpace,
        quantizer: Quantizer,
        scan_width: usize,
        members: &[NodeId],
    ) -> Self {
        // (`HilbertCurve::new` re-checks that dims × bits fits the ring.)
        let curve = HilbertCurve::new(space.dims(), quantizer.bits());
        let mut catalog = CoordinateCatalog::new(curve, quantizer, scan_width);
        for &node in members {
            catalog.insert(node.0, space.point(node).as_slice());
        }
        DhtMapper { catalog }
    }

    /// Accumulated catalog traffic statistics.
    pub fn stats(&self) -> CatalogStats {
        self.catalog.stats()
    }

    /// Registered members still in the catalog.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// True when every member has been removed.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// The catalog this mapper answers from.
    pub fn catalog(&self) -> &MapperCatalog {
        &self.catalog
    }

    /// Mutable catalog access — where a read view's observed traffic is
    /// charged back (`charge_stats`).
    pub fn catalog_mut(&mut self) -> &mut MapperCatalog {
        &mut self.catalog
    }

    /// A read-only view for one circuit evaluation (see
    /// [`MapperReadView::new`]).
    pub fn read_view(&self) -> MapperReadView<'_> {
        MapperReadView::new(&self.catalog)
    }
}

/// The message-passing mapper: a [`DhtMapper`] catalog driven through
/// [`RoutedCatalog`], so every lookup and registration also runs as routed
/// control traffic over the simulated underlay.
///
/// [`PhysicalMapper::map_point`] has no access to link latencies (and must
/// stay synchronous for the optimizer), so the split is:
///
/// * **Answering** is immediate and omniscient-catalog-exact — the same
///   `lookup_closest` the [`DhtMapper`] backend runs, so placements are
///   bit-identical across the two backends. Each answered point is parked
///   in an outbox.
/// * **Experiencing** happens when the owner calls
///   [`RoutedMapper::settle`] with the live link function: every parked
///   lookup is re-issued as a routed query from the coordinator and the
///   event queue is driven to quiescence, accumulating messages, hop
///   histograms, and per-query experienced latency in
///   [`RoutedMapper::routed_stats`].
///
/// Registrations follow the runtime's synchronous contract
/// (`register_direct`, keeping catalog evolution identical to the DHT
/// backend) and charge their message cost as `Register`/`Ack` refresh round
/// trips on the next settle. Removals are synchronous only — the failure
/// detector that notices a dead node is out of scope for the catalog's own
/// traffic accounting.
pub struct RoutedMapper {
    routed: RoutedCatalog<HilbertCurve>,
    /// Origin member for settled lookups (the query coordinator).
    coordinator: NodeId,
    /// Ideal points answered since the last settle.
    pending_lookups: Vec<Vec<f64>>,
    /// Members re-registered since the last settle (refresh cost pending).
    pending_refresh: Vec<NodeId>,
}

impl RoutedMapper {
    /// Builds the routed mapper over the same quantizer sizing as
    /// [`DhtMapper::build_with_members`]; `proto` sets the timeout/retry
    /// policy. The first member acts as the query coordinator.
    pub fn build_with_members(
        space: &CostSpace,
        config: &DhtMapperConfig,
        proto: ProtoConfig,
        members: &[NodeId],
    ) -> Self {
        let dht = DhtMapper::build_with_members(space, config, members);
        RoutedMapper {
            routed: RoutedCatalog::from_catalog(dht.catalog, proto),
            coordinator: members.first().copied().unwrap_or(NodeId(0)),
            pending_lookups: Vec::new(),
            pending_refresh: Vec::new(),
        }
    }

    /// Builds over every node of the space.
    pub fn build_with(space: &CostSpace, config: &DhtMapperConfig, proto: ProtoConfig) -> Self {
        Self::build_with_members(space, config, proto, &all_nodes(space).collect::<Vec<_>>())
    }

    /// The underlying routed catalog (partition scenarios sever/heal here).
    pub fn routed(&self) -> &RoutedCatalog<HilbertCurve> {
        &self.routed
    }

    /// Mutable routed-catalog access (sever/heal, manual traffic).
    pub fn routed_mut(&mut self) -> &mut RoutedCatalog<HilbertCurve> {
        &mut self.routed
    }

    /// Accumulated control-plane traffic statistics (messages, retries,
    /// experienced latency percentiles).
    pub fn routed_stats(&self) -> &RoutedStats {
        self.routed.stats()
    }

    /// The origin member settled lookups are issued from.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// Lookups and refreshes parked for the next [`RoutedMapper::settle`].
    pub fn pending_traffic(&self) -> usize {
        self.pending_lookups.len() + self.pending_refresh.len()
    }

    /// Replays everything parked since the last settle as routed control
    /// traffic at simulated time `at`: refresh round trips for
    /// re-registrations, then one routed query per answered point, issued
    /// from the coordinator, driving the event queue to quiescence.
    /// Returns the completed lookups in completion order.
    pub fn settle(&mut self, at: SimTime, link: &LinkFn) -> Vec<(QueryId, RoutedLookup)> {
        let origin = self.origin_member();
        for node in std::mem::take(&mut self.pending_refresh) {
            // Dropped silently only if the member was removed again before
            // the settle — there is no owner to refresh against then.
            let _ = self.routed.enqueue_refresh(node.0, at, link);
        }
        let lookups = std::mem::take(&mut self.pending_lookups);
        if let Some(origin) = origin {
            for target in &lookups {
                let _ = self.routed.lookup_routed(origin, target, at, link);
            }
        }
        self.routed.run_to_quiescence(link)
    }

    /// The coordinator if it is still registered, else the first member
    /// clockwise from key 0 — settled lookups always have a live origin.
    /// Iterative routing sends every lookup request of a settle from it.
    fn origin_member(&self) -> Option<sbon_dht::ring::MemberId> {
        let coord = self.coordinator.0;
        if self.routed.catalog().registered_key(coord).is_some() {
            return Some(coord);
        }
        self.routed.catalog().ring().successor(0).map(|(_, m)| m)
    }
}

impl PhysicalMapper for RoutedMapper {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        let _ = space; // coordinates were registered at build/update time
        self.pending_lookups.push(ideal.as_slice().to_vec());
        let (member, hops) =
            self.routed.catalog_mut().lookup_closest(ideal.as_slice()).expect(NON_EMPTY);
        (NodeId(member), hops)
    }

    fn name(&self) -> &'static str {
        "routed-dht"
    }

    /// Applies synchronously (`register_direct`) and parks a refresh round
    /// trip for the next settle.
    fn update_node(&mut self, space: &CostSpace, node: NodeId) -> MapperDelta {
        self.pending_refresh.push(node);
        let (old, new) = self.routed.register_direct(node.0, space.point(node).as_slice());
        MapperDelta::Keys { old, new: Some(new) }
    }

    fn remove_node(&mut self, node: NodeId) -> MapperDelta {
        MapperDelta::Keys { old: self.routed.remove_direct(node.0), new: None }
    }
}

/// Why a catalog-backed mapper's lookup always answers.
const NON_EMPTY: &str = "catalog is non-empty by construction";

/// What a read-only mapping phase observed: the traffic it would have
/// charged and the region of the catalog it depended on. The owner charges
/// the stats back onto the live mapper and records the read set in the
/// relevance index.
#[derive(Clone, Debug, Default)]
pub struct ReadObservation {
    /// Catalog traffic to charge via [`CoordinateCatalog::charge_stats`].
    pub stats: CatalogStats,
    /// Ring regions the lookups scanned (empty for oracle views).
    pub spans: Vec<ScanSpan>,
    /// True when the evaluation read the whole space (oracle scans): any
    /// cost-point change anywhere invalidates it.
    pub whole_space: bool,
}

/// What a [`MapperReadView`] answers from.
#[derive(Clone, Copy)]
enum ViewSource<'a> {
    Catalog(&'a MapperCatalog),
    Oracle(&'a LiveOracleMapper),
}

/// A backend-agnostic read-only [`PhysicalMapper`] for one circuit
/// evaluation — what the overlay runtime hands to the parallel
/// re-optimization phase. Its answers are identical to the live mapper's.
///
/// Over a catalog, lookups run through the traced catalog path: statistics
/// accumulate locally (fold them back with
/// [`CoordinateCatalog::charge_stats`]) and every scanned ring region is
/// recorded, so the evaluation's full read set is known when it finishes.
/// A per-view memo collapses repeated lookups of **bit-identical** ideal
/// points (keyed on the exact `f64` bit patterns, held flat and scanned in
/// order, so a lookup allocates no key of its own). The catalog never
/// mutates during a view's lifetime, so a memo hit returns exactly what the
/// lookup would have; it charges no new traffic and records no new span —
/// the first miss already recorded the covering span.
///
/// Over a [`LiveOracleMapper`] every lookup is the oracle scan, which has
/// no traffic and no bounded read region: the read set is the whole space.
pub struct MapperReadView<'a> {
    source: ViewSource<'a>,
    stats: CatalogStats,
    spans: Vec<ScanSpan>,
    /// The memo's keys: each answered ideal point's coordinate bits, flat
    /// with stride `dims`, in the order of `memo`.
    memo_keys: Vec<u64>,
    /// The memo's answers.
    memo: Vec<(NodeId, usize)>,
}

impl<'a> MapperReadView<'a> {
    /// A view over `catalog` — the [`DhtMapper`]'s own, or the one a
    /// [`RoutedMapper`] wraps (`routed().catalog()`): a routed view answers
    /// from the catalog alone and parks no outbox entry.
    pub fn new(catalog: &'a MapperCatalog) -> Self {
        Self::over(ViewSource::Catalog(catalog))
    }

    fn over(source: ViewSource<'a>) -> Self {
        MapperReadView {
            source,
            stats: CatalogStats::default(),
            spans: Vec::new(),
            memo_keys: Vec::new(),
            memo: Vec::new(),
        }
    }

    /// Consumes the view, yielding the evaluation's read set and traffic.
    pub fn into_observation(self) -> ReadObservation {
        let whole_space = matches!(self.source, ViewSource::Oracle(_));
        ReadObservation { stats: self.stats, spans: self.spans, whole_space }
    }
}

impl PhysicalMapper for MapperReadView<'_> {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        let catalog = match self.source {
            ViewSource::Catalog(catalog) => catalog,
            ViewSource::Oracle(live) => return live.map_point_ro(space, ideal),
        };
        let coords = ideal.as_slice();
        let same = |key: &[u64]| key.iter().zip(coords).all(|(&bits, v)| bits == v.to_bits());
        if let Some(i) = self.memo_keys.chunks_exact(coords.len()).position(same) {
            return self.memo[i];
        }
        let traced = catalog.lookup_closest_traced(coords).expect(NON_EMPTY);
        self.stats.merge(traced.stats);
        self.spans.push(traced.span);
        let answer = (NodeId(traced.member), traced.stats.hops);
        self.memo_keys.extend(coords.iter().map(|v| v.to_bits()));
        self.memo.push(answer);
        answer
    }

    fn name(&self) -> &'static str {
        match self.source {
            ViewSource::Catalog(_) => "hilbert-dht (read view)",
            ViewSource::Oracle(_) => "live-oracle (read view)",
        }
    }

    fn update_node(&mut self, _space: &CostSpace, _node: NodeId) -> MapperDelta {
        panic!("read-only mapper view cannot mutate its mapper");
    }

    fn remove_node(&mut self, _node: NodeId) -> MapperDelta {
        panic!("read-only mapper view cannot mutate its mapper");
    }
}

impl PhysicalMapper for DhtMapper {
    fn map_point(&mut self, space: &CostSpace, ideal: &CostPoint) -> (NodeId, usize) {
        let _ = space; // coordinates were registered at build/update time
        let (member, hops) = self.catalog.lookup_closest(ideal.as_slice()).expect(NON_EMPTY);
        (NodeId(member), hops)
    }

    fn name(&self) -> &'static str {
        "hilbert-dht"
    }

    /// Re-registers one node after its coordinate changed (scalar churn or
    /// embedding refinement).
    fn update_node(&mut self, space: &CostSpace, node: NodeId) -> MapperDelta {
        let (old, new) = self.catalog.insert(node.0, space.point(node).as_slice());
        MapperDelta::Keys { old, new: Some(new) }
    }

    /// Unregisters a failed node: liveness filtering is folded into the
    /// catalog itself, so lookups can never return a dead host.
    fn remove_node(&mut self, node: NodeId) -> MapperDelta {
        MapperDelta::Keys { old: self.catalog.remove(node.0), new: None }
    }
}

/// One mapped service, with its error accounting.
#[derive(Clone, Debug)]
pub struct MappedService {
    /// The service.
    pub service: crate::circuit::ServiceId,
    /// Chosen host.
    pub node: NodeId,
    /// DHT routing hops charged (0 for oracles).
    pub lookup_hops: usize,
    /// Full-space distance between the ideal coordinate and the chosen
    /// node's coordinate — the paper's *mapping error*.
    pub mapping_error: f64,
}

/// A fully mapped circuit.
#[derive(Clone, Debug)]
pub struct MappedCircuit {
    /// Host assignment for every service.
    pub placement: Placement,
    /// Per-unpinned-service mapping details.
    pub mapped: Vec<MappedService>,
}

impl MappedCircuit {
    /// Total routing hops spent mapping the circuit.
    pub fn total_hops(&self) -> usize {
        self.mapped.iter().map(|m| m.lookup_hops).sum()
    }

    /// Mean mapping error over unpinned services (0 if none).
    pub fn mean_mapping_error(&self) -> f64 {
        if self.mapped.is_empty() {
            return 0.0;
        }
        self.mapped.iter().map(|m| m.mapping_error).sum::<f64>() / self.mapped.len() as f64
    }
}

/// Maps every unpinned service of `circuit` through `mapper`; pinned
/// services keep their hosts. The ideal point of an unpinned service is its
/// virtual coordinate extended with ideal (zero) scalar components.
pub fn map_circuit(
    circuit: &Circuit,
    virtual_placement: &VirtualPlacement,
    space: &CostSpace,
    mapper: &mut dyn PhysicalMapper,
) -> MappedCircuit {
    let unpinned = circuit.services().iter().filter(|s| s.is_unpinned());
    map_unpinned(circuit, unpinned.map(|s| virtual_placement.coord_of(s.id)), space, mapper)
}

/// [`map_circuit`] over the unpinned services' virtual coordinates alone,
/// one per unpinned service in id order — the form a remembered placement
/// (`crate::reopt::ReoptMemo`) is kept in.
pub(crate) fn map_unpinned<'c>(
    circuit: &Circuit,
    mut unpinned_coords: impl Iterator<Item = &'c [f64]>,
    space: &CostSpace,
    mapper: &mut dyn PhysicalMapper,
) -> MappedCircuit {
    let mut nodes = Vec::with_capacity(circuit.len());
    let mut mapped = Vec::new();
    for s in circuit.services() {
        match s.pin {
            ServicePin::Pinned(n) => nodes.push(n),
            ServicePin::Unpinned => {
                let coord = unpinned_coords.next().expect("one coordinate per unpinned service");
                let ideal = space.ideal_point(coord);
                let (node, hops) = mapper.map_point(space, &ideal);
                let err = space.point(node).full_distance(&ideal);
                mapped.push(MappedService {
                    service: s.id,
                    node,
                    lookup_hops: hops,
                    mapping_error: err,
                });
                nodes.push(node);
            }
        }
    }
    MappedCircuit { placement: Placement::new(circuit, nodes), mapped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::catalog;
    use crate::costspace::CostSpaceBuilder;
    use crate::placement::{RelaxationPlacer, VirtualPlacer};
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::load::{Attr, NodeAttrs};
    use sbon_query::plan::LogicalPlan;
    use sbon_query::stream::StreamId;

    /// Figure 3's scenario: two candidate hosts near the star; the closer
    /// one (N1) is overloaded, the slightly farther one (N2) is idle.
    fn figure3_space() -> crate::costspace::CostSpace {
        let emb = VivaldiEmbedding::exact(vec![
            vec![0.0, 0.0],   // producer P1
            vec![100.0, 0.0], // producer P2
            vec![50.0, 40.0], // consumer C
            vec![52.0, 12.0], // N1: nearest in latency, overloaded
            vec![60.0, 20.0], // N2: a bit farther, idle
        ]);
        let mut attrs = NodeAttrs::idle(5);
        attrs.set(NodeId(3), Attr::CpuLoad, 0.95);
        CostSpaceBuilder::latency_load_space_scaled(&emb, &attrs, 100.0)
    }

    fn figure3_circuit() -> Circuit {
        let stats = catalog(0.002, &[(10.0, NodeId(0)), (10.0, NodeId(1))]);
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        Circuit::from_plan(&plan, &stats, NodeId(2))
    }

    #[test]
    fn full_space_mapping_avoids_overloaded_node() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];

        let mut full = OracleMapper;
        let mut vector_only = VectorOnlyOracleMapper;
        let ideal = space.ideal_point(vp.coord_of(join));

        let (n_full, _) = full.map_point(&space, &ideal);
        let (n_vec, _) = vector_only.map_point(&space, &ideal);
        assert_eq!(n_vec, NodeId(3), "latency-only mapping picks overloaded N1");
        assert_eq!(n_full, NodeId(4), "full-space mapping picks idle N2");
    }

    #[test]
    fn dht_mapper_agrees_with_oracle_here() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut dht = DhtMapper::build(&space, 10, 8);
        let (n, _hops) = dht.map_point(&space, &ideal);
        assert_eq!(n, NodeId(4));
        assert_eq!(dht.stats().lookups, 1);
    }

    #[test]
    fn map_circuit_places_everything() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let mut mapper = OracleMapper;
        let mc = map_circuit(&circuit, &vp, &space, &mut mapper);
        assert_eq!(mc.placement.as_slice().len(), circuit.len());
        assert_eq!(mc.mapped.len(), 1);
        assert!(mc.mean_mapping_error() >= 0.0);
        assert_eq!(mc.total_hops(), 0);
        // Pinned services kept their homes.
        assert_eq!(mc.placement.node_of(circuit.root()), NodeId(2));
    }

    #[test]
    fn mapping_error_is_distance_to_ideal() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut mapper = OracleMapper;
        let mc = map_circuit(&circuit, &vp, &space, &mut mapper);
        let m = &mc.mapped[0];
        assert_eq!(m.service, join);
        let expect = space.point(m.node).full_distance(&ideal);
        assert!((m.mapping_error - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "128-bit ring")]
    fn dht_mapper_rejects_oversized_key_space() {
        // 3 dims × 64 bits would need 192 key bits.
        DhtMapper::build(&figure3_space(), 64, 8);
    }

    #[test]
    fn live_oracle_matches_oracle_until_nodes_die() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));

        let mut oracle = OracleMapper;
        let mut live = LiveOracleMapper::new(space.num_nodes());
        assert_eq!(live.map_point(&space, &ideal).0, oracle.map_point(&space, &ideal).0);

        // Kill the winner: the live oracle must fall back to the runner-up.
        let (winner, _) = oracle.map_point(&space, &ideal);
        live.remove_node(winner);
        assert!(!live.is_alive(winner));
        let (second, _) = live.map_point(&space, &ideal);
        assert_ne!(second, winner);

        // Exact ties go to the lower node id, in every form of the scan.
        // N0 and N1 sit at bit-identical cost points; N2 and N3 are equal in
        // the vector dimensions only (N2 is the loaded one).
        let emb = VivaldiEmbedding::exact(vec![
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![10.0, 0.0],
            vec![10.0, 0.0],
        ]);
        let mut attrs = NodeAttrs::idle(4);
        attrs.set(NodeId(2), Attr::CpuLoad, 0.5);
        let space = CostSpaceBuilder::latency_load_space_scaled(&emb, &attrs, 100.0);
        assert_eq!(space.point(NodeId(0)), space.point(NodeId(1)));
        let (near_pair, near_split) =
            (space.ideal_point(&[1.0, 0.0]), space.ideal_point(&[9.0, 0.0]));
        let mut live = LiveOracleMapper::new(4);
        assert_eq!(OracleMapper.map_point(&space, &near_pair).0, NodeId(0));
        assert_eq!(live.map_point(&space, &near_pair).0, NodeId(0));
        assert_eq!(live.read_view().map_point(&space, &near_pair).0, NodeId(0));
        assert_eq!(VectorOnlyOracleMapper.map_point(&space, &near_pair).0, NodeId(0));
        assert_eq!(VectorOnlyOracleMapper.map_point(&space, &near_split).0, NodeId(2));
        assert_eq!(OracleMapper.map_point(&space, &near_split).0, NodeId(3), "load breaks it");
        live.remove_node(NodeId(0));
        assert_eq!(live.map_point(&space, &near_pair).0, NodeId(1), "the tie's survivor");
        assert_eq!(live.read_view().map_point(&space, &near_pair).0, NodeId(1));
    }

    #[test]
    fn dht_remove_node_excludes_dead_hosts() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut dht = DhtMapper::build(&space, 10, 8);
        let (winner, _) = dht.map_point(&space, &ideal);
        dht.remove_node(winner);
        assert_eq!(dht.len(), space.num_nodes() - 1);
        let (next, _) = dht.map_point(&space, &ideal);
        assert_ne!(next, winner, "a removed node must never be mapped to");
    }

    #[test]
    fn build_with_full_scalar_range_survives_out_of_band_churn() {
        let mut space = figure3_space();
        // Long-lived config: scalar bounds are [0, w(1.0)] regardless of the
        // currently observed loads.
        let mut dht = DhtMapper::build_with(&space, &DhtMapperConfig::default());
        // Flip the load: N1 cools down, N2 goes to full load — beyond the
        // initial scalar span — and re-register the two changed points.
        let mut attrs = NodeAttrs::idle(5);
        attrs.set(NodeId(4), Attr::CpuLoad, 1.0);
        space.refresh_scalars(&attrs);
        dht.update_node(&space, NodeId(3));
        dht.update_node(&space, NodeId(4));
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let (n, _) = dht.map_point(&space, &ideal);
        let mut oracle = OracleMapper;
        assert_eq!(n, oracle.map_point(&space, &ideal).0, "full-range quantizer keeps fidelity");
    }

    /// The deployment-wave contract: a catalog started from a subset and
    /// grown with `add_node` answers exactly like one bulk-built after the
    /// last arrival.
    #[test]
    fn dht_incremental_joins_match_bulk_build() {
        let space = figure3_space();
        let config = DhtMapperConfig::default();
        let initial = [NodeId(0), NodeId(2)];
        let mut grown = DhtMapper::build_with_members(&space, &config, &initial);
        assert_eq!(grown.len(), 2);
        for node in [NodeId(1), NodeId(3), NodeId(4)] {
            grown.add_node(&space, node);
        }
        let mut bulk = DhtMapper::build_with(&space, &config);
        assert_eq!(grown.len(), bulk.len());
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        assert_eq!(grown.map_point(&space, &ideal).0, bulk.map_point(&space, &ideal).0);
    }

    /// Before a node arrives it must never be mapped to; after `add_node`
    /// it becomes eligible — for both the DHT catalog and the live oracle.
    #[test]
    fn unarrived_nodes_are_unmappable_until_added() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        // Full-space oracle picks N2 (NodeId 4) in Figure 3's scenario;
        // start both mappers without it.
        let present = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let mut dht = DhtMapper::build_with_members(&space, &DhtMapperConfig::default(), &present);
        let mut live = LiveOracleMapper::with_members(space.num_nodes(), present);
        assert_ne!(dht.map_point(&space, &ideal).0, NodeId(4));
        assert_ne!(live.map_point(&space, &ideal).0, NodeId(4));
        assert!(!live.is_alive(NodeId(4)));
        dht.add_node(&space, NodeId(4));
        live.add_node(&space, NodeId(4));
        assert_eq!(dht.map_point(&space, &ideal).0, NodeId(4));
        assert_eq!(live.map_point(&space, &ideal).0, NodeId(4));
    }

    // Regression for the partial_cmp → total_cmp migration: on the finite
    // distances a cost space produces, ranking candidates with `total_cmp`
    // must reproduce the old `partial_cmp(..).unwrap()` ranking exactly
    // (both are stable sorts, so ties keep insertion order under either).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256 })]
        #[test]
        fn total_cmp_ranking_matches_partial_cmp_on_finite_distances(
            dists in proptest::collection::vec(0.0f64..1.0e9, 1..64),
        ) {
            let mut by_total: Vec<(usize, f64)> =
                dists.iter().copied().enumerate().collect();
            let mut by_partial = by_total.clone();
            by_total.sort_by(|a, b| a.1.total_cmp(&b.1));
            // The pre-migration comparator, kept as the oracle this
            // regression test is about.
            by_partial.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let total_order: Vec<usize> = by_total.iter().map(|p| p.0).collect();
            let partial_order: Vec<usize> = by_partial.iter().map(|p| p.0).collect();
            proptest::prop_assert_eq!(total_order, partial_order);
        }
    }

    #[test]
    fn dht_read_view_matches_live_mapper_and_defers_stats() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut dht = DhtMapper::build(&space, 10, 8);
        let baseline = dht.stats();

        let mut view = dht.read_view();
        let viewed = view.map_point(&space, &ideal);
        let obs = view.into_observation();
        assert_eq!(dht.stats(), baseline, "view lookups charge nothing until folded back");
        assert_eq!(obs.stats.lookups, 1);
        assert_eq!(obs.spans.len(), 1);
        assert!(!obs.whole_space);

        let live = dht.map_point(&space, &ideal);
        assert_eq!(viewed, live, "read view answers exactly like the live mapper");
        dht.catalog_mut().charge_stats(obs.stats);
        assert_eq!(dht.stats().lookups, baseline.lookups + 2);
    }

    #[test]
    fn read_view_memo_collapses_repeat_lookups() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut dht = DhtMapper::build(&space, 10, 8);
        let live = dht.map_point(&space, &ideal);

        let mut memoized = dht.read_view();
        let c = memoized.map_point(&space, &ideal);
        let d = memoized.map_point(&space, &ideal);
        let obs = memoized.into_observation();
        assert_eq!(obs.stats.lookups, 1, "second identical lookup hits the memo");
        assert_eq!(obs.spans.len(), 1);
        assert_eq!((live, live), (c, d), "memoized answers are identical");
    }

    #[test]
    fn oracle_read_view_reports_whole_space() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut live = LiveOracleMapper::new(space.num_nodes());
        let expect = live.map_point(&space, &ideal);
        let mut view = live.read_view();
        assert_eq!(view.map_point(&space, &ideal), expect);
        assert!(view.into_observation().whole_space);
    }

    /// The deltas are exactly what the runtime used to derive by hand from
    /// the `*_traced` catalog calls: the member's registered key before and
    /// after for the catalog mappers, the whole space for the scanning oracle.
    #[test]
    fn maintenance_calls_report_the_keys_they_moved() {
        let space = figure3_space();
        let present = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let config = DhtMapperConfig::default();
        let mut moved = figure3_space();
        let mut attrs = NodeAttrs::idle(5);
        attrs.set(NodeId(3), Attr::CpuLoad, 0.1);
        moved.refresh_scalars(&attrs);

        fn check<M: PhysicalMapper>(
            mut mapper: M,
            key_of: impl Fn(&M, NodeId) -> Option<RingKey>,
            space: &CostSpace,
            moved: &CostSpace,
        ) {
            assert_eq!(key_of(&mapper, NodeId(4)), None);
            let joined = mapper.add_node(space, NodeId(4));
            let held = key_of(&mapper, NodeId(4));
            assert!(held.is_some());
            assert_eq!(joined, MapperDelta::Keys { old: None, new: held }, "first-time add");

            let before = key_of(&mapper, NodeId(3));
            let updated = mapper.update_node(moved, NodeId(3));
            let after = key_of(&mapper, NodeId(3));
            assert_ne!(before, after, "the load change must move the registration");
            assert_eq!(updated, MapperDelta::Keys { old: before, new: after });

            assert_eq!(mapper.remove_node(NodeId(3)), MapperDelta::Keys { old: after, new: None });
            assert_eq!(key_of(&mapper, NodeId(3)), None);
            assert_eq!(mapper.remove_node(NodeId(3)), MapperDelta::Keys { old: None, new: None });
        }
        check(
            DhtMapper::build_with_members(&space, &config, &present),
            |m, node| m.catalog.registered_key(node.0),
            &space,
            &moved,
        );
        check(
            RoutedMapper::build_with_members(&space, &config, ProtoConfig::default(), &present),
            |m, node| m.routed().catalog().registered_key(node.0),
            &space,
            &moved,
        );

        let mut live = LiveOracleMapper::with_members(space.num_nodes(), present);
        assert_eq!(live.add_node(&space, NodeId(4)), MapperDelta::WholeSpace);
        assert_eq!(live.update_node(&moved, NodeId(3)), MapperDelta::WholeSpace);
        assert_eq!(live.remove_node(NodeId(3)), MapperDelta::WholeSpace);
        assert!(live.is_alive(NodeId(4)) && !live.is_alive(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "read-only mapper view")]
    fn read_view_rejects_mutation() {
        let space = figure3_space();
        let dht = DhtMapper::build(&space, 10, 8);
        let mut view = dht.read_view();
        view.update_node(&space, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "read-only mapper view")]
    fn oracle_read_view_rejects_mutation() {
        let live = LiveOracleMapper::new(5);
        live.read_view().remove_node(NodeId(0));
    }

    /// Deterministic per-link latency for routed-mapper tests: symmetric,
    /// zero diagonal.
    fn test_link(a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a as u64, b as u64) } else { (b as u64, a as u64) };
        5.0 + ((lo.wrapping_mul(2_654_435_761).wrapping_add(hi.wrapping_mul(40_503))) % 90) as f64
    }

    #[test]
    fn routed_mapper_answers_bit_identical_to_dht_mapper() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let config = DhtMapperConfig::default();
        let mut dht = DhtMapper::build_with(&space, &config);
        let mut routed = RoutedMapper::build_with(&space, &config, ProtoConfig::default());
        assert_eq!(routed.map_point(&space, &ideal), dht.map_point(&space, &ideal));
        // Maintenance keeps them in lock-step too.
        let mut attrs = sbon_netsim::load::NodeAttrs::idle(5);
        attrs.set(NodeId(4), sbon_netsim::load::Attr::CpuLoad, 0.95);
        let mut space2 = figure3_space();
        space2.refresh_scalars(&attrs);
        dht.update_node(&space2, NodeId(4));
        routed.update_node(&space2, NodeId(4));
        dht.remove_node(NodeId(0));
        routed.remove_node(NodeId(0));
        assert_eq!(routed.map_point(&space2, &ideal), dht.map_point(&space2, &ideal));
        assert_eq!(routed.routed().catalog().len(), dht.len());
    }

    #[test]
    fn routed_mapper_settle_experiences_parked_traffic() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut routed =
            RoutedMapper::build_with(&space, &DhtMapperConfig::default(), ProtoConfig::default());
        let (answered, _) = routed.map_point(&space, &ideal);
        routed.update_node(&space, NodeId(1));
        assert_eq!(routed.pending_traffic(), 2);

        let link = |a: u32, b: u32| test_link(a, b);
        let done = routed.settle(sbon_netsim::sim::SimTime::ZERO, &link);
        assert_eq!(routed.pending_traffic(), 0);
        assert_eq!(done.len(), 1);
        let (_, lookup) = done[0];
        assert_eq!(NodeId(lookup.member), answered, "routed answer matches the sync answer");
        let stats = routed.routed_stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.registrations, 1, "refresh round trip charged");
        assert_eq!(stats.timeouts, 0, "healthy network, no retries");
        assert!(routed.routed().is_quiescent());
        if lookup.hops > 0 {
            assert!(lookup.latency_ms > 0.0, "experienced latency accumulates per round trip");
        }
        assert_eq!(stats.p50_latency_ms(), Some(lookup.latency_ms));
    }

    #[test]
    fn routed_mapper_read_view_matches_live_answers() {
        let space = figure3_space();
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let mut routed =
            RoutedMapper::build_with(&space, &DhtMapperConfig::default(), ProtoConfig::default());
        let live = routed.map_point(&space, &ideal);
        let mut view = MapperReadView::new(routed.routed().catalog());
        assert_eq!(view.map_point(&space, &ideal), live);
        let obs = view.into_observation();
        assert_eq!(routed.pending_traffic(), 1, "a view parks nothing in the outbox");
        routed.routed_mut().catalog_mut().charge_stats(obs.stats);
        assert_eq!(routed.routed().catalog().stats().lookups, 2);
    }

    #[test]
    fn dht_update_node_tracks_churn() {
        let mut space = figure3_space();
        let mut dht = DhtMapper::build(&space, 10, 8);
        // N2 becomes overloaded; N1 cools down. Refresh and re-register.
        let mut attrs = NodeAttrs::idle(5);
        attrs.set(NodeId(4), Attr::CpuLoad, 0.95);
        space.refresh_scalars(&attrs);
        dht.update_node(&space, NodeId(3));
        dht.update_node(&space, NodeId(4));
        let circuit = figure3_circuit();
        let vp = RelaxationPlacer::default().place(&circuit, &space);
        let join = circuit.unpinned_services()[0];
        let ideal = space.ideal_point(vp.coord_of(join));
        let (n, _) = dht.map_point(&space, &ideal);
        assert_eq!(n, NodeId(3), "after the load flip, N1 is the right choice");
    }
}
