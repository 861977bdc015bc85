//! The decentralized coordinate catalog (Section 3.2 of the paper).
//!
//! Every overlay node registers its cost-space coordinate in the DHT under
//! the Hilbert key of that coordinate. Looking up an arbitrary target
//! coordinate then routes to the member whose key is the target's ring
//! successor — i.e. a node whose coordinate is *close in Hilbert order*,
//! which by the curve's locality is close in the cost space. To trim the
//! residual Hilbert-order error, the catalog inspects a small neighborhood
//! of ring members around the landing point and returns the one truly
//! closest in the cost space (a real deployment gets these neighbors for
//! free from the owner's successor/predecessor lists).

use sbon_hilbert::{Quantizer, SpaceFillingCurve};
use sbon_netsim::latency::euclidean;

use crate::ring::{DhtRing, MemberId};
use crate::RingKey;

/// Running statistics of catalog traffic, so experiments can charge for
/// routing work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Completed `lookup_closest` / `k_nearest` calls.
    pub lookups: usize,
    /// Total DHT routing hops across all lookups.
    pub hops: usize,
    /// Total candidate members examined (neighborhood scans).
    pub candidates_examined: usize,
}

impl CatalogStats {
    /// Folds another stats delta into this one — used to charge traffic
    /// observed by a read-only view back onto the owning catalog.
    pub fn merge(&mut self, other: CatalogStats) {
        self.lookups += other.lookups;
        self.hops += other.hops;
        self.candidates_examined += other.candidates_examined;
    }
}

/// Ring distance between two keys: the shorter way around the 128-bit
/// identifier circle.
fn ring_proximity(a: RingKey, b: RingKey) -> RingKey {
    a.wrapping_sub(b).min(b.wrapping_sub(a))
}

/// Conservative summary of the ring region one lookup examined: every
/// member key the neighborhood scan could have returned lies within
/// `radius` of `center` (ring distance, wrap-safe). Used by incremental
/// re-optimization to decide whether a later catalog mutation could have
/// changed this lookup's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanSpan {
    /// The ring key the lookup targeted.
    pub center: RingKey,
    /// Max ring distance from `center` among the scanned member keys.
    pub radius: RingKey,
    /// True when the scan covered the entire ring (small memberships):
    /// every key is inside the span.
    pub whole_ring: bool,
}

impl ScanSpan {
    /// True if a mutation at `key` could intersect the scanned region.
    /// Inclusive (conservative): a key exactly at the boundary counts.
    pub fn contains(&self, key: RingKey) -> bool {
        self.whole_ring || ring_proximity(key, self.center) <= self.radius
    }
}

/// The answer of a read-only [`CoordinateCatalog::lookup_closest_traced`]
/// call: the chosen member plus the traffic it *would* have charged and the
/// ring region it examined.
#[derive(Clone, Debug)]
pub struct TracedLookup {
    /// The member closest to the target among the scanned neighborhood.
    pub member: MemberId,
    /// Ring region the neighborhood scan covered.
    pub span: ScanSpan,
    /// Traffic to charge via [`CoordinateCatalog::charge_stats`]: one
    /// lookup, its routing hops and the members the scan examined.
    pub stats: CatalogStats,
}

/// A coordinate catalog: a space-filling curve + quantizer + Chord ring.
///
/// Generic over the curve so the A1 ablation can swap Hilbert for Morton.
#[derive(Clone, Debug)]
pub struct CoordinateCatalog<C: SpaceFillingCurve> {
    curve: C,
    quantizer: Quantizer,
    ring: DhtRing,
    /// Registered coordinates, dense by MemberId with stride `dims`:
    /// member `m`'s is `coords[m·dims..(m+1)·dims]`, written in place on
    /// every (re-)registration. Whether `m` is registered — and under which
    /// key — is the ring's to know ([`CoordinateCatalog::registered_key`]);
    /// an unregistered member's slots are never read.
    coords: Vec<f64>,
    /// How many ring neighbors to examine around a lookup's landing point.
    scan_width: usize,
    stats: CatalogStats,
}

impl<C: SpaceFillingCurve> CoordinateCatalog<C> {
    /// Creates an empty catalog. `scan_width` is the neighborhood size used
    /// to correct Hilbert-order error (the paper's successor-list scan);
    /// 8 is a good default at 600-node scale.
    pub fn new(curve: C, quantizer: Quantizer, scan_width: usize) -> Self {
        assert_eq!(curve.dims(), quantizer.dims(), "curve and quantizer dimensionality must match");
        assert_eq!(curve.bits(), quantizer.bits(), "curve and quantizer resolution must match");
        assert!(scan_width >= 1);
        CoordinateCatalog {
            curve,
            quantizer,
            ring: DhtRing::default(),
            coords: Vec::new(),
            scan_width,
            stats: CatalogStats::default(),
        }
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> CatalogStats {
        self.stats
    }

    /// The underlying Chord ring (read-only) — the shared structure the
    /// routed control plane derives per-node routing state from.
    pub fn ring(&self) -> &DhtRing {
        &self.ring
    }

    /// The ring key `member` is currently registered under (the exact
    /// post-collision-probing key — the one to invalidate when the member
    /// re-registers or leaves), if registered.
    pub fn registered_key(&self, member: MemberId) -> Option<RingKey> {
        self.ring.key_of(member)
    }

    /// The ring key a coordinate maps to. Quantizes and encodes on the
    /// stack: a curve has at most 128 dimensions (`dims × bits ≤ 128`).
    pub fn key_of(&self, coord: &[f64]) -> RingKey {
        let mut cell = [0u32; 128];
        let cell = &mut cell[..self.quantizer.dims()];
        self.quantizer.quantize_into(coord, cell);
        // Left-align the curve key in the 128-bit ring so keys spread over
        // the whole identifier circle.
        let used_bits = (self.curve.dims() as u32) * self.curve.bits();
        let key = self.curve.encode(cell);
        if used_bits >= 128 {
            key
        } else {
            key << (128 - used_bits)
        }
    }

    /// Registers (or re-registers) a member under its coordinate. Coordinate
    /// updates are how nodes "constantly refine" their position as the
    /// network drifts. Reports the exact ring keys affected: `(previous
    /// registered key if any, new registered key)` — both post-collision-
    /// probing keys, so span stabbing against them is exact, not
    /// approximate. A coordinate that cannot be keyed (wrong dimensionality,
    /// a NaN component) panics before anything is mutated.
    pub fn insert(&mut self, member: MemberId, coord: &[f64]) -> (Option<RingKey>, RingKey) {
        let dims = self.quantizer.dims();
        assert_eq!(coord.len(), dims, "coordinate dimensionality");
        let key = self.key_of(coord);
        let start = member as usize * dims;
        if self.coords.len() < start + dims {
            self.coords.resize(start + dims, 0.0);
        }
        let old_key = self.ring.key_of(member);
        self.ring.leave(member);
        let registered = self.ring.join(key, member);
        self.coords[start..start + dims].copy_from_slice(coord);
        (old_key, registered)
    }

    /// Unregisters a member (node failure / leave). Reports the ring key it
    /// was registered under, if it was registered.
    pub fn remove(&mut self, member: MemberId) -> Option<RingKey> {
        let old_key = self.ring.key_of(member);
        self.ring.leave(member);
        old_key
    }

    /// The registered coordinate of a member, if any.
    pub fn coord_of(&self, member: MemberId) -> Option<&[f64]> {
        self.ring.key_of(member)?;
        Some(self.stored_coord(member))
    }

    /// The coordinate `member` last registered — a ring member's live one.
    fn stored_coord(&self, member: MemberId) -> &[f64] {
        let dims = self.quantizer.dims();
        let start = member as usize * dims;
        &self.coords[start..start + dims]
    }

    /// Resolves `target` to the registered member closest to it in the cost
    /// space. Returns `(member, routing hops)`; `None` if the catalog is
    /// empty.
    ///
    /// Routing: one DHT lookup to the Hilbert successor of the target, then
    /// a `scan_width`-member neighborhood scan re-ranked by true cost-space
    /// distance.
    pub fn lookup_closest(&mut self, target: &[f64]) -> Option<(MemberId, usize)> {
        let traced = self.lookup_closest_traced(target)?;
        self.charge_stats(traced.stats);
        Some((traced.member, traced.stats.hops))
    }

    /// Read-only [`CoordinateCatalog::lookup_closest`]: the same routing,
    /// scan, and ranking, but without mutating the traffic statistics —
    /// the caller gets the would-be stats delta (apply it later with
    /// [`CoordinateCatalog::charge_stats`]) plus the [`ScanSpan`] of ring
    /// keys the scan covered. `lookup_closest` delegates here, so the two
    /// answers are identical by construction.
    pub fn lookup_closest_traced(&self, target: &[f64]) -> Option<TracedLookup> {
        let key = self.key_of(target);
        let start = self.ring.first_key()?;
        let outcome = self.ring.lookup(start, key)?;
        let (member, examined, radius) = self.scan(key, target, |_| true)?;
        let stats = CatalogStats { lookups: 1, hops: outcome.hops, candidates_examined: examined };
        let span = ScanSpan { center: key, radius, whole_ring: examined == self.ring.len() };
        Some(TracedLookup { member, span, stats })
    }

    /// The ranking every answer comes from, the routed owner's included:
    /// of the `scan_width` ring neighbours of `key` that `admit` lets
    /// through, the first at the least `total_cmp` distance to `target`,
    /// how many were admitted, and their largest ring distance from `key`;
    /// `None` when none was.
    pub(crate) fn scan(
        &self,
        key: RingKey,
        target: &[f64],
        admit: impl Fn(MemberId) -> bool,
    ) -> Option<(MemberId, usize, RingKey)> {
        let (mut admitted, mut radius) = (0, 0);
        let mut best: Option<(f64, MemberId)> = None;
        for (k, m) in self.ring.walk_outward(key, self.scan_width) {
            if !admit(m) {
                continue;
            }
            admitted += 1;
            radius = radius.max(ring_proximity(k, key));
            let d = self.distance_to(m, target);
            if best.is_none_or(|(bd, _)| d.total_cmp(&bd).is_lt()) {
                best = Some((d, m));
            }
        }
        best.map(|(_, m)| (m, admitted, radius))
    }

    /// Applies a traffic delta observed by a read-only view (traced lookups
    /// done off to the side) to this catalog's running statistics.
    pub fn charge_stats(&mut self, delta: CatalogStats) {
        self.stats.merge(delta);
    }

    /// The paper's multi-query radius search: the `k` registered members
    /// closest to `target` in the cost space, found by scanning outward
    /// along the Hilbert ring ("look up the closest n nodes", Section 3.4).
    ///
    /// Scans `max(k·overscan, scan_width)` ring neighbors and re-ranks, so
    /// recall is high but not guaranteed 100% — exactly the trade-off the A1
    /// ablation measures. Results are sorted by ascending distance.
    pub fn k_nearest(&mut self, target: &[f64], k: usize) -> Vec<(MemberId, f64)> {
        let Some(start) = self.ring.first_key().filter(|_| k > 0) else {
            return Vec::new();
        };
        let key = self.key_of(target);
        let hops = self.ring.lookup(start, key).map_or(0, |outcome| outcome.hops);
        let scan = (k * 3).max(self.scan_width);
        let mut ranked: Vec<(MemberId, f64)> = self
            .ring
            .walk_outward(key, scan)
            .map(|(_, m)| (m, self.distance_to(m, target)))
            .collect();
        // One routed lookup plus the scan, charged as `lookup_closest` is.
        let candidates_examined = ranked.len();
        self.charge_stats(CatalogStats { lookups: 1, hops, candidates_examined });
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked.truncate(k);
        ranked
    }

    /// Exhaustive nearest member — the oracle the mapping-error experiments
    /// compare the DHT answer against. Does not touch routing statistics.
    pub fn exhaustive_closest(&self, target: &[f64]) -> Option<(MemberId, f64)> {
        self.ring
            .iter()
            .map(|(_, m)| (m, self.distance_to(m, target)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Euclidean distance from a ring member's registered coordinate to
    /// `target` (every ring member registered one: only `insert` joins).
    fn distance_to(&self, member: MemberId, target: &[f64]) -> f64 {
        euclidean(self.stored_coord(member), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sbon_hilbert::{HilbertCurve, MortonCurve, Quantizer};
    use sbon_netsim::rng::rng_from_seed;

    fn unit_catalog(scan: usize) -> CoordinateCatalog<HilbertCurve> {
        CoordinateCatalog::new(
            HilbertCurve::new(2, 8),
            Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8),
            scan,
        )
    }

    #[test]
    fn insert_then_lookup_self() {
        let mut c = unit_catalog(4);
        c.insert(0, &[0.25, 0.25]);
        c.insert(1, &[0.75, 0.75]);
        let (m, _) = c.lookup_closest(&[0.26, 0.24]).unwrap();
        assert_eq!(m, 0);
        let (m, _) = c.lookup_closest(&[0.8, 0.7]).unwrap();
        assert_eq!(m, 1);
    }

    #[test]
    fn reinsert_moves_member() {
        let mut c = unit_catalog(4);
        c.insert(0, &[0.1, 0.1]);
        c.insert(1, &[0.9, 0.9]);
        // Member 0 drifts to the other corner.
        c.insert(0, &[0.95, 0.95]);
        assert_eq!(c.len(), 2);
        let (m, _) = c.lookup_closest(&[0.12, 0.1]).unwrap();
        assert_eq!(m, 1, "old registration must be gone");
    }

    #[test]
    fn remove_unregisters() {
        let mut c = unit_catalog(4);
        c.insert(0, &[0.1, 0.1]);
        c.insert(1, &[0.9, 0.9]);
        c.remove(0);
        assert_eq!(c.len(), 1);
        let (m, _) = c.lookup_closest(&[0.1, 0.1]).unwrap();
        assert_eq!(m, 1);
        assert!(c.coord_of(0).is_none());
    }

    #[test]
    fn empty_catalog_lookups_are_none() {
        let mut c = unit_catalog(4);
        assert!(c.lookup_closest(&[0.5, 0.5]).is_none());
        assert!(c.k_nearest(&[0.5, 0.5], 3).is_empty());
        assert!(c.exhaustive_closest(&[0.5, 0.5]).is_none());
    }

    #[test]
    fn dht_answer_matches_oracle_most_of_the_time() {
        let mut rng = rng_from_seed(1);
        let mut c = unit_catalog(8);
        let coords: Vec<Vec<f64>> =
            (0..300).map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]).collect();
        for (i, coord) in coords.iter().enumerate() {
            c.insert(i as MemberId, coord);
        }
        let mut agree = 0;
        let mut excess = Vec::new();
        let trials = 200;
        for _ in 0..trials {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let (dht_m, _) = c.lookup_closest(&target).unwrap();
            let (oracle_m, oracle_d) = c.exhaustive_closest(&target).unwrap();
            if dht_m == oracle_m {
                agree += 1;
            } else {
                let dht_d = coords[dht_m as usize]
                    .iter()
                    .zip(&target)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                excess.push(dht_d - oracle_d);
            }
        }
        // The paper's claim: the mapping error stays small. With a scan
        // width of 8 on 300 members, the DHT should agree with the oracle
        // in the vast majority of lookups and be near-optimal otherwise.
        assert!(agree * 10 >= trials * 7, "agreement {agree}/{trials} too low");
        if !excess.is_empty() {
            let mean_excess = excess.iter().sum::<f64>() / excess.len() as f64;
            assert!(mean_excess < 0.1, "mean excess distance {mean_excess}");
        }
    }

    #[test]
    fn k_nearest_is_sorted_and_capped() {
        let mut rng = rng_from_seed(2);
        let mut c = unit_catalog(8);
        for i in 0..50 {
            c.insert(i, &[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        let res = c.k_nearest(&[0.5, 0.5], 5);
        assert_eq!(res.len(), 5);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1, "not sorted: {res:?}");
        }
        // k larger than membership:
        let res = c.k_nearest(&[0.5, 0.5], 100);
        assert!(res.len() <= 50);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = unit_catalog(4);
        c.insert(0, &[0.2, 0.2]);
        c.insert(1, &[0.8, 0.8]);
        assert_eq!(c.stats(), CatalogStats::default());
        c.lookup_closest(&[0.5, 0.5]);
        c.k_nearest(&[0.5, 0.5], 1);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert!(s.candidates_examined >= 2);
    }

    /// Once `scan_width ≥ 3`, `k_nearest(target, 1)` scans exactly
    /// `lookup_closest`'s neighbourhood (it scans `max(3k, scan_width)`
    /// members) and charges through the same path: the same member and the
    /// same `CatalogStats` delta, ties between co-located members included.
    #[test]
    fn k_nearest_of_one_is_lookup_closest() {
        let mut rng = rng_from_seed(15);
        let mut grid = || f64::from(rng.gen_range(0..8u32)) / 8.0;
        for scan in 3..=10 {
            let mut c = unit_catalog(scan);
            // A coarse grid: co-located members tie on distance and collide
            // on keys.
            for m in 0..20 * scan as MemberId {
                c.insert(m, &[grid(), grid()]);
            }
            for trial in 0..60 {
                let target =
                    if trial % 2 == 0 { [grid(), grid()] } else { [grid() + 0.03, grid() + 0.07] };
                let (mut one, mut nearest) = (c.clone(), c.clone());
                let (m, _) = one.lookup_closest(&target).unwrap();
                let ranked = nearest.k_nearest(&target, 1);
                assert_eq!(ranked.iter().map(|&(m, _)| m).collect::<Vec<_>>(), vec![m]);
                assert_eq!(one.stats(), nearest.stats(), "scan {scan} trial {trial}");
            }
        }
    }

    #[test]
    fn works_with_morton_curve_too() {
        let mut c = CoordinateCatalog::new(
            MortonCurve::new(2, 8),
            Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8),
            8,
        );
        c.insert(0, &[0.3, 0.3]);
        c.insert(1, &[0.6, 0.6]);
        let (m, _) = c.lookup_closest(&[0.31, 0.3]).unwrap();
        assert_eq!(m, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality must match")]
    fn mismatched_curve_and_quantizer_rejected() {
        CoordinateCatalog::new(
            HilbertCurve::new(3, 8),
            Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8),
            4,
        );
    }

    #[test]
    fn traced_lookup_matches_mutable_lookup_and_charges_nothing() {
        let mut rng = rng_from_seed(7);
        let mut c = unit_catalog(8);
        for i in 0..120 {
            c.insert(i, &[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        for _ in 0..100 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let before = c.stats();
            let traced = c.lookup_closest_traced(&target).unwrap();
            assert_eq!(c.stats(), before, "traced lookup must not mutate stats");
            let (m, hops) = c.lookup_closest(&target).unwrap();
            assert_eq!((traced.member, traced.stats.hops), (m, hops));
            // The mutable path charges exactly the traced delta.
            let mut expected = before;
            expected.merge(traced.stats);
            assert_eq!(c.stats(), expected);
            // The chosen member's registered key lies inside the span.
            let key = c.registered_key(m).unwrap();
            assert!(traced.span.contains(key), "winner's key must be in the scanned span");
        }
    }

    #[test]
    fn mutations_outside_the_span_do_not_change_the_answer() {
        let mut rng = rng_from_seed(8);
        let mut c = unit_catalog(4);
        for i in 0..200 {
            c.insert(i, &[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        let mut checked = 0;
        for _ in 0..50 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let traced = c.lookup_closest_traced(&target).unwrap();
            if traced.span.whole_ring {
                continue;
            }
            // Remove every member whose registered key is outside the span:
            // by the span contract none of them could have been scanned, so
            // the answer must be unchanged.
            let mut pruned = c.clone();
            for m in 0..200 {
                if pruned.registered_key(m).is_some_and(|k| !traced.span.contains(k)) {
                    pruned.remove(m);
                }
            }
            // Only the *member* answer is the decision surface — routing
            // hop counts legitimately depend on ring members outside the
            // span (they shape the finger tables), and hops never feed a
            // placement decision.
            let after = pruned.lookup_closest_traced(&target).unwrap();
            assert_eq!(after.member, traced.member);
            checked += 1;
        }
        assert!(checked > 0, "test never exercised a partial span");
    }

    #[test]
    fn traced_insert_and_remove_report_exact_registered_keys() {
        let mut c = unit_catalog(4);
        let (old, first) = c.insert(0, &[0.2, 0.2]);
        assert!(old.is_none(), "first registration has no prior key");
        // Collision probing can shift the key; the catalog must remember the
        // key actually registered, not the nominal key_of.
        let (_, probed) = c.insert(1, &[0.2, 0.2]);
        assert_ne!(first, probed, "collision probe must produce a distinct key");
        c.insert(1, &[0.6, 0.6]);
        // A coordinate that cannot be keyed panics before the member's live
        // registration is touched.
        let hostile = std::panic::AssertUnwindSafe(|| c.insert(0, &[f64::NAN, 0.8]));
        assert!(std::panic::catch_unwind(hostile).is_err(), "a NaN coordinate must panic");
        assert_eq!(c.registered_key(0), Some(first));
        assert_eq!(c.coord_of(0), Some(&[0.2, 0.2][..]));
        assert_eq!(c.lookup_closest(&[0.2, 0.2]).map(|(m, _)| m), Some(0));
        let (old, second) = c.insert(0, &[0.8, 0.8]);
        assert_eq!(old, Some(first), "re-registration reports the prior key");
        assert_eq!(c.remove(0), Some(second));
        assert_eq!(c.remove(0), None, "double remove reports nothing");
    }

    #[test]
    fn scan_span_contains_is_wrap_safe() {
        let span = ScanSpan { center: 5, radius: 10, whole_ring: false };
        assert!(span.contains(0));
        assert!(span.contains(15));
        assert!(span.contains(RingKey::MAX - 4), "wraps below zero");
        assert!(!span.contains(16));
        assert!(!span.contains(RingKey::MAX - 6));
        let whole = ScanSpan { center: 0, radius: 0, whole_ring: true };
        assert!(whole.contains(RingKey::MAX / 2));
    }

    #[test]
    fn colliding_coordinates_both_registered() {
        let mut c = unit_catalog(4);
        c.insert(0, &[0.5, 0.5]);
        c.insert(1, &[0.5, 0.5]); // same cell → ring key collision probe
        assert_eq!(c.len(), 2);
        let res = c.k_nearest(&[0.5, 0.5], 2);
        assert_eq!(res.len(), 2);
    }
}
