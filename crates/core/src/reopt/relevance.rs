//! The relevance index: which circuits a control-plane delta can affect.
//!
//! Re-optimization passes run on a cadence, but most passes find nothing to
//! do: a circuit whose inputs did not change since its last evaluation will
//! reproduce that evaluation's no-op decision exactly (see the
//! [module docs](super) for why the input set is closed). The index makes
//! that observation operational:
//!
//! * After a pass evaluates a circuit and **changes nothing**, the owner
//!   records the evaluation's [`ReadSet`] — the catalog ring regions its
//!   lookups scanned, the circuit's host nodes (whose cost points feed the
//!   estimate), or `whole_space` for oracle-backed evaluations. The circuit
//!   is now *clean* for that pass kind.
//! * Every control-plane step collects what it moved into one [`Touches`]
//!   batch and applies it with [`RelevanceIndex::touch`]. A mapper mutation
//!   reports its own reach as a [`MapperDelta`] and [`Touches::mapper`] —
//!   the one place that rule is written — takes it in: a catalog
//!   (re-)registration adds its exact old and new ring keys, a scanning
//!   oracle marks the batch whole-space. A coordinate change at a node also
//!   adds that host ([`Touches::host`]). The batch wipes the clean records
//!   whose read sets any of its keys or hosts stabs.
//! * Any mutation *of* a circuit — migration, rewrite, replacement,
//!   evacuation, pin/unpin, reuse subscription — marks it dirty for every
//!   pass kind ([`RelevanceIndex::mark_dirty`]): its placement (and with it
//!   the running estimate every pass compares against) changed.
//!
//! A circuit with no clean record for a pass kind is *dirty* and must be
//! evaluated; a clean circuit may be skipped, and skipping is bit-identical
//! to evaluating because the skipped evaluation was a no-op with unchanged
//! inputs. Latency jitter deliberately does **not** touch anything: measured
//! latency is not a re-opt input.
//!
//! # One batch per step
//!
//! A churn tick re-registers many cost points, and each one moves two ring
//! keys and one host. Applying those touches one at a time scans every clean
//! record three times per point; the batch visits each clean record once
//! per step, testing its spans against the step's keys (sorted once, so a
//! span costs one binary search) and its hosts against a bitset of the
//! step's hosts (one bit test a host).
//! The batch is exactly equivalent to the touches applied one at a time:
//!
//! * Touches only ever remove clean records, and a record is removed iff
//!   *some* touch stabs it — the removed set is a union, so the order of
//!   touches does not matter and neither do duplicates (a churn walk may
//!   pick one node twice in a tick; the batch keeps every key it reports).
//! * No reader runs between the touches of one step: `is_dirty`,
//!   `record_clean` and `mark_dirty` are called only from passes and
//!   lifecycle events, never from inside a churn refresh, a join admission
//!   or a failure's mapper removal.
//!
//! The `#[cfg(test)]` per-touch scan this replaced is kept as the reference
//! the batch is pinned to.
//!
//! There is deliberately no endpoint or interval index over the recorded
//! spans: it would make a touch cheaper by charging every `record_clean`
//! an ordered-map insert per span and host (and a removal later), and keep a
//! second copy of every span. Nearly every evaluation records clean, so the
//! batch — no extra state, nothing paid at record time — is the cheaper
//! side while a step sees a few hundred clean records and many touches.
//!
//! Circuits are keyed by the owner's stable handle (never reused), not by
//! storage index, so compaction of the owner's circuit table is safe.

use std::collections::BTreeMap;

use sbon_dht::catalog::ScanSpan;
use sbon_dht::RingKey;
use sbon_netsim::graph::NodeId;

use crate::placement::MapperDelta;

/// The three re-optimization pass kinds with distinct cadences and read
/// patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReoptKind {
    /// Per-service migration checks ([`super::reoptimize_local`]).
    Local,
    /// Rewrite-neighbourhood exploration: [`super::reoptimize_among`] the
    /// running plan's [`super::rewrite_neighbourhood`].
    Rewrite,
    /// Full integrated re-optimization: [`super::reoptimize_among`] the
    /// optimizer's candidate plans for the query.
    Full,
}

/// All pass kinds, for iteration.
pub const REOPT_KINDS: [ReoptKind; 3] = [ReoptKind::Local, ReoptKind::Rewrite, ReoptKind::Full];

/// Everything one no-op circuit evaluation read: if none of it was touched
/// since, re-evaluating would reproduce the same no-op.
#[derive(Clone, Debug, Default)]
pub struct ReadSet {
    /// Catalog ring regions the evaluation's lookups scanned.
    pub spans: Vec<ScanSpan>,
    /// Hosts whose cost points feed the evaluation's usage estimates — the
    /// circuit's placement nodes at record time.
    pub hosts: Vec<NodeId>,
    /// True when the evaluation read every node's cost point (oracle
    /// mapper): any point change invalidates it.
    pub whole_space: bool,
}

/// What one control-plane step moved: the ring keys of every mapper
/// (re-)registration, the hosts whose cost point changed, and whether a
/// mapper could not bound its reach. Applied as one batch by
/// [`RelevanceIndex::touch`].
#[derive(Debug, Default)]
pub struct Touches {
    keys: Vec<RingKey>,
    hosts: Vec<NodeId>,
    whole_space: bool,
}

impl Touches {
    /// A mapper maintenance call (`update_node` / `add_node` /
    /// `remove_node`) returned `delta`: the keys it moved are touched, or
    /// everything when the mapper could not bound its reach.
    pub fn mapper(&mut self, delta: MapperDelta) {
        match delta {
            MapperDelta::Keys { old, new } => self.keys.extend(old.into_iter().chain(new)),
            MapperDelta::WholeSpace => self.whole_space = true,
        }
    }

    /// `node`'s cost point changed: every clean record that read it goes
    /// dirty.
    pub fn host(&mut self, node: NodeId) {
        self.hosts.push(node);
    }

    /// True when the batch touches nothing.
    fn is_empty(&self) -> bool {
        !self.whole_space && self.keys.is_empty() && self.hosts.is_empty()
    }
}

/// True when `span` contains some key of `keys` (sorted, non-empty) —
/// exactly `keys.iter().any(|&k| span.contains(k))`. The span is the cyclic
/// arc `[center − radius, center + radius]`: the key closest clockwise to
/// its low end is the first one at or after it, wrapping to the smallest,
/// and the arc holds a key iff it holds that one. A radius of `2^127` or
/// more covers the ring (no key is further than `2^127` from the centre).
fn span_holds_any(span: &ScanSpan, keys: &[RingKey]) -> bool {
    if span.whole_ring || span.radius >= 1 << 127 {
        return true;
    }
    let lo = span.center.wrapping_sub(span.radius);
    let first = keys.get(keys.partition_point(|&k| k < lo)).unwrap_or(&keys[0]);
    first.wrapping_sub(lo) <= 2 * span.radius
}

/// Per-pass-kind map from circuit handle to the read set of its last
/// *clean* (no-op) evaluation. Absence means dirty.
#[derive(Clone, Debug, Default)]
pub struct RelevanceIndex {
    clean: [BTreeMap<u64, ReadSet>; 3],
}

impl RelevanceIndex {
    /// An index in which every circuit is dirty for every kind.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when `handle` must be evaluated by a `kind` pass.
    pub fn is_dirty(&self, kind: ReoptKind, handle: u64) -> bool {
        !self.clean[kind as usize].contains_key(&handle)
    }

    /// Records that a `kind` evaluation of `handle` was a no-op with the
    /// given read set: the circuit is clean for `kind` until something in
    /// the read set is touched.
    pub fn record_clean(&mut self, kind: ReoptKind, handle: u64, read_set: ReadSet) {
        self.clean[kind as usize].insert(handle, read_set);
    }

    /// The circuit itself changed (migration, rewrite, replacement,
    /// evacuation, pin change): dirty for every pass kind.
    pub fn mark_dirty(&mut self, handle: u64) {
        for map in &mut self.clean {
            map.remove(&handle);
        }
    }

    /// The circuit was undeployed: forget it entirely.
    pub fn remove(&mut self, handle: u64) {
        self.mark_dirty(handle);
    }

    /// Applies one step's touches: every clean record whose read set any of
    /// them stabs goes dirty, in one pass over the clean records (see the
    /// [module docs](self) for why that equals applying them one at a
    /// time). Returns how many clean records were wiped, summed over kinds.
    pub fn touch(&mut self, touches: Touches) -> usize {
        let before = self.clean_total();
        if before == 0 || touches.is_empty() {
            return 0;
        }
        if touches.whole_space {
            self.touch_all();
            return before;
        }
        let Touches { mut keys, hosts, .. } = touches;
        keys.sort_unstable();
        keys.dedup();
        // A record reads about five hosts: one bit test each beats a search.
        let mut host_bits = vec![0u64; hosts.iter().map(|h| h.index() / 64 + 1).max().unwrap_or(0)];
        for h in &hosts {
            host_bits[h.index() / 64] |= 1 << (h.index() % 64);
        }
        let touched = |h: &NodeId| {
            host_bits.get(h.index() / 64).is_some_and(|w| w >> (h.index() % 64) & 1 != 0)
        };
        let stabs = |rs: &ReadSet| {
            rs.whole_space
                || (!keys.is_empty() && rs.spans.iter().any(|s| span_holds_any(s, &keys)))
                || rs.hosts.iter().any(touched)
        };
        for map in &mut self.clean {
            map.retain(|_, rs| !stabs(rs));
        }
        before - self.clean_total()
    }

    /// A delta with unbounded reach (oracle backend): everything goes
    /// dirty.
    pub fn touch_all(&mut self) {
        for map in &mut self.clean {
            map.clear();
        }
    }

    /// How many circuits are currently clean for `kind`.
    pub fn clean_count(&self, kind: ReoptKind) -> usize {
        self.clean[kind as usize].len()
    }

    /// Clean records over every kind.
    fn clean_total(&self) -> usize {
        self.clean.iter().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(center: RingKey, radius: RingKey) -> ScanSpan {
        ScanSpan { center, radius, whole_ring: false }
    }

    /// One touch as the runtime issued it before batching.
    #[derive(Clone, Copy, Debug)]
    enum Touch {
        Mapper(MapperDelta),
        Host(NodeId),
    }

    /// The per-touch reference the batch replaced: each touch scans every
    /// clean record of every kind on its own.
    impl RelevanceIndex {
        fn touch_key(&mut self, key: RingKey) {
            for map in &mut self.clean {
                map.retain(|_, rs| !(rs.whole_space || rs.spans.iter().any(|s| s.contains(key))));
            }
        }

        fn touch_host(&mut self, node: NodeId) {
            for map in &mut self.clean {
                map.retain(|_, rs| !(rs.whole_space || rs.hosts.contains(&node)));
            }
        }

        fn touch_one_at_a_time(&mut self, touches: &[Touch]) {
            for &touch in touches {
                match touch {
                    Touch::Mapper(MapperDelta::Keys { old, new }) => {
                        for key in old.into_iter().chain(new) {
                            self.touch_key(key);
                        }
                    }
                    Touch::Mapper(MapperDelta::WholeSpace) => self.touch_all(),
                    Touch::Host(node) => self.touch_host(node),
                }
            }
        }

        fn clean_handles(&self, kind: ReoptKind) -> Vec<u64> {
            self.clean[kind as usize].keys().copied().collect()
        }
    }

    fn batch(touches: &[Touch]) -> Touches {
        let mut batch = Touches::default();
        for &touch in touches {
            match touch {
                Touch::Mapper(delta) => batch.mapper(delta),
                Touch::Host(node) => batch.host(node),
            }
        }
        batch
    }

    fn key(k: RingKey) -> Touch {
        Touch::Mapper(MapperDelta::Keys { old: Some(k), new: None })
    }

    #[test]
    fn everything_starts_dirty_and_record_clean_flips_one_kind() {
        let mut idx = RelevanceIndex::new();
        assert!(idx.is_dirty(ReoptKind::Local, 7));
        idx.record_clean(ReoptKind::Local, 7, ReadSet::default());
        assert!(!idx.is_dirty(ReoptKind::Local, 7));
        assert!(idx.is_dirty(ReoptKind::Rewrite, 7), "kinds are independent");
        assert!(idx.is_dirty(ReoptKind::Full, 7));
    }

    #[test]
    fn touch_key_stabs_only_matching_spans() {
        let mut idx = RelevanceIndex::new();
        idx.record_clean(
            ReoptKind::Local,
            1,
            ReadSet { spans: vec![span(100, 10)], ..Default::default() },
        );
        idx.record_clean(
            ReoptKind::Local,
            2,
            ReadSet { spans: vec![span(1000, 10)], ..Default::default() },
        );
        assert_eq!(idx.touch(batch(&[key(105)])), 1);
        assert!(idx.is_dirty(ReoptKind::Local, 1), "105 is inside [90, 110]");
        assert!(!idx.is_dirty(ReoptKind::Local, 2), "105 is far from 1000±10");
    }

    #[test]
    fn touch_host_stabs_recorded_hosts_and_whole_space() {
        let mut idx = RelevanceIndex::new();
        idx.record_clean(
            ReoptKind::Full,
            1,
            ReadSet { hosts: vec![NodeId(3), NodeId(5)], ..Default::default() },
        );
        idx.record_clean(ReoptKind::Full, 2, ReadSet { whole_space: true, ..Default::default() });
        idx.record_clean(
            ReoptKind::Full,
            3,
            ReadSet { hosts: vec![NodeId(9)], ..Default::default() },
        );
        assert_eq!(idx.touch(batch(&[Touch::Host(NodeId(5))])), 2);
        assert!(idx.is_dirty(ReoptKind::Full, 1));
        assert!(idx.is_dirty(ReoptKind::Full, 2), "whole-space records die on any touch");
        assert!(!idx.is_dirty(ReoptKind::Full, 3));
    }

    #[test]
    fn whole_space_records_die_on_any_key_touch() {
        let mut idx = RelevanceIndex::new();
        idx.record_clean(
            ReoptKind::Rewrite,
            1,
            ReadSet { whole_space: true, ..Default::default() },
        );
        idx.touch(batch(&[key(0xdead_beef)]));
        assert!(idx.is_dirty(ReoptKind::Rewrite, 1));
    }

    #[test]
    fn mark_dirty_wipes_every_kind_and_touch_all_wipes_everyone() {
        let mut idx = RelevanceIndex::new();
        for kind in REOPT_KINDS {
            idx.record_clean(kind, 1, ReadSet::default());
            idx.record_clean(kind, 2, ReadSet::default());
        }
        idx.mark_dirty(1);
        for kind in REOPT_KINDS {
            assert!(idx.is_dirty(kind, 1));
            assert!(!idx.is_dirty(kind, 2));
            assert_eq!(idx.clean_count(kind), 1);
        }
        idx.touch_all();
        for kind in REOPT_KINDS {
            assert!(idx.is_dirty(kind, 2));
            assert_eq!(idx.clean_count(kind), 0);
        }
    }

    #[test]
    fn touch_mapper_applies_both_keys_or_everything() {
        let mut idx = RelevanceIndex::new();
        for (handle, center) in [(1, 100), (2, 1000), (3, 5000)] {
            idx.record_clean(
                ReoptKind::Local,
                handle,
                ReadSet { spans: vec![span(center, 10)], ..Default::default() },
            );
        }
        let moved = Touch::Mapper(MapperDelta::Keys { old: Some(105), new: Some(995) });
        assert_eq!(idx.touch(batch(&[moved])), 2);
        assert!(idx.is_dirty(ReoptKind::Local, 1), "old key stabs 100±10");
        assert!(idx.is_dirty(ReoptKind::Local, 2), "new key stabs 1000±10");
        assert!(!idx.is_dirty(ReoptKind::Local, 3));
        let unregistered = batch(&[Touch::Mapper(MapperDelta::Keys { old: None, new: None })]);
        assert!(unregistered.is_empty());
        assert_eq!(idx.touch(unregistered), 0);
        assert!(!idx.is_dirty(ReoptKind::Local, 3), "an unregistered no-op touches nothing");
        assert_eq!(idx.touch(batch(&[Touch::Mapper(MapperDelta::WholeSpace)])), 1);
        assert_eq!(idx.clean_count(ReoptKind::Local), 0);
    }

    #[test]
    fn empty_read_set_survives_touches_it_cannot_see() {
        // A circuit whose evaluation read nothing mutable (all services
        // pinned, oracle not involved) stays clean under unrelated churn.
        let mut idx = RelevanceIndex::new();
        idx.record_clean(ReoptKind::Local, 4, ReadSet::default());
        assert_eq!(idx.touch(batch(&[key(42), Touch::Host(NodeId(0))])), 0);
        assert!(!idx.is_dirty(ReoptKind::Local, 4));
        idx.mark_dirty(4);
        assert!(idx.is_dirty(ReoptKind::Local, 4));
    }

    #[test]
    fn span_test_is_exact_at_the_boundaries_and_across_the_wrap() {
        let max = RingKey::MAX;
        let half = 1 << 127;
        let cases = [
            (span(100, 10), vec![90], true),
            (span(100, 10), vec![110], true),
            (span(100, 10), vec![89, 111], false),
            (span(5, 10), vec![max - 4], true),
            (span(5, 10), vec![16, max - 5], false),
            (span(max - 2, 5), vec![2], true),
            (span(max - 2, 5), vec![3, max - 8], false),
            (span(7, 0), vec![7], true),
            (span(7, 0), vec![6, 8], false),
            (span(0, half - 1), vec![half], false),
            (span(0, half - 1), vec![half + 1], true),
            (span(0, half), vec![half], true),
            (span(3, max), vec![half + 3], true),
            (ScanSpan { center: 0, radius: 0, whole_ring: true }, vec![half], true),
        ];
        for (s, keys, expected) in cases {
            assert_eq!(span_holds_any(&s, &keys), expected, "{s:?} against {keys:?}");
            assert_eq!(keys.iter().any(|&k| s.contains(k)), expected, "reference {s:?}");
        }
    }

    /// A splitmix64 stream: the draws below need more shape than the
    /// strategy tuples carry, so each case expands one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn key(&mut self) -> RingKey {
            (RingKey::from(self.next()) << 64) | RingKey::from(self.next())
        }

        /// A key near an existing one, or exactly on or one past a span's
        /// boundary, so the edges get stabbed as often as the interior.
        fn key_near(&mut self, spans: &[ScanSpan]) -> RingKey {
            if spans.is_empty() || self.below(4) == 0 {
                return self.key();
            }
            let s = spans[self.below(spans.len() as u64) as usize];
            let r = s.radius;
            let offset =
                [r, r.wrapping_add(1), 0, RingKey::from(self.next() % 64)][self.below(4) as usize];
            if self.below(2) == 0 {
                s.center.wrapping_add(offset)
            } else {
                s.center.wrapping_sub(offset)
            }
        }

        fn span(&mut self) -> ScanSpan {
            let half: RingKey = 1 << 127;
            let radius = match self.below(7) {
                0 => 0,
                1 => half - 1,
                2 => half + RingKey::from(self.next()),
                3 => RingKey::from(self.next()) << self.below(64),
                _ => RingKey::from(self.below(1 << 20)),
            };
            // Centres near 0 and near the top make arcs that wrap.
            let center = match self.below(4) {
                0 => RingKey::from(self.below(1 << 10)),
                1 => RingKey::MAX - RingKey::from(self.below(1 << 10)),
                _ => self.key(),
            };
            ScanSpan { center, radius, whole_ring: self.below(16) == 0 }
        }

        fn read_set(&mut self) -> ReadSet {
            let spans = (0..self.below(4)).map(|_| self.span()).collect();
            let mut hosts: Vec<NodeId> =
                (0..self.below(5)).map(|_| NodeId(self.below(24) as u32 * 7)).collect();
            hosts.sort_unstable();
            hosts.dedup();
            ReadSet { spans, hosts, whole_space: self.below(12) == 0 }
        }

        fn touch(&mut self, spans: &[ScanSpan]) -> Touch {
            match self.below(24) {
                0 => Touch::Mapper(MapperDelta::WholeSpace),
                1 => Touch::Mapper(MapperDelta::Keys { old: None, new: None }),
                2..=8 => Touch::Host(NodeId(self.below(24) as u32 * 7)),
                _ => {
                    let old = (self.below(4) != 0).then(|| self.key_near(spans));
                    let new = (self.below(4) != 0).then(|| self.key_near(spans));
                    Touch::Mapper(MapperDelta::Keys { old, new })
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 400 })]

        /// The batch leaves exactly the clean set, per kind, that the same
        /// touches applied one at a time through the per-touch scan leave —
        /// across wrapping arcs, boundary keys, radii at and past `2^127`,
        /// whole-ring spans, whole-space records and deltas, duplicate keys
        /// and empty batches.
        #[test]
        fn batch_touch_equals_the_touches_one_at_a_time(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let mut idx = RelevanceIndex::new();
            let mut spans = Vec::new();
            for handle in 0..draw.below(40) {
                for kind in REOPT_KINDS {
                    if draw.below(3) != 0 {
                        let rs = draw.read_set();
                        spans.extend_from_slice(&rs.spans);
                        idx.record_clean(kind, handle, rs);
                    }
                }
            }
            let mut touches: Vec<Touch> =
                (0..draw.below(12)).map(|_| draw.touch(&spans)).collect();
            if draw.below(4) == 0 && !touches.is_empty() {
                // The same node re-registered twice in one step.
                let again = touches[draw.below(touches.len() as u64) as usize];
                touches.push(again);
            }
            let mut reference = idx.clone();
            reference.touch_one_at_a_time(&touches);
            let before = idx.clean_total();
            let wiped = idx.touch(batch(&touches));
            for kind in REOPT_KINDS {
                proptest::prop_assert_eq!(idx.clean_handles(kind), reference.clean_handles(kind));
            }
            proptest::prop_assert_eq!(wiped, before - reference.clean_total());
        }
    }
}
