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
//! * Every control-plane delta is translated into touches. A mapper
//!   mutation reports its own reach as a [`MapperDelta`] and
//!   [`RelevanceIndex::touch_mapper`] — the one place that rule is written —
//!   applies it: a catalog (re-)registration touches its exact old and new
//!   ring keys ([`RelevanceIndex::touch_key`]), a scanning oracle touches
//!   everything ([`RelevanceIndex::touch_all`]). A coordinate change at a
//!   node also touches that host ([`RelevanceIndex::touch_host`]). A touch
//!   wipes the clean records whose read sets it stabs.
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
    /// Rewrite-neighbourhood exploration ([`super::reoptimize_rewrite`]).
    Rewrite,
    /// Full integrated re-optimization ([`super::reoptimize_full`]).
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

impl ReadSet {
    /// Could a catalog mutation at `key` change this evaluation's answer?
    pub fn touches_key(&self, key: RingKey) -> bool {
        self.whole_space || self.spans.iter().any(|s| s.contains(key))
    }

    /// Could a cost-point change at `node` change this evaluation's answer?
    pub fn touches_host(&self, node: NodeId) -> bool {
        self.whole_space || self.hosts.contains(&node)
    }
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

    /// A catalog mutation landed at `key` (exact registered ring key):
    /// every clean record whose scanned region contains it goes dirty.
    pub fn touch_key(&mut self, key: RingKey) {
        for map in &mut self.clean {
            map.retain(|_, rs| !rs.touches_key(key));
        }
    }

    /// `node`'s cost point changed: every clean record that read it goes
    /// dirty.
    pub fn touch_host(&mut self, node: NodeId) {
        for map in &mut self.clean {
            map.retain(|_, rs| !rs.touches_host(node));
        }
    }

    /// A delta with unbounded reach (oracle backend): everything goes
    /// dirty.
    pub fn touch_all(&mut self) {
        for map in &mut self.clean {
            map.clear();
        }
    }

    /// A mapper maintenance call (`update_node` / `add_node` /
    /// `remove_node`) returned `delta`: the keys it moved are touched, or
    /// everything when the mapper could not bound its reach.
    pub fn touch_mapper(&mut self, delta: MapperDelta) {
        match delta {
            MapperDelta::Keys { old, new } => {
                for key in old.into_iter().chain(new) {
                    self.touch_key(key);
                }
            }
            MapperDelta::WholeSpace => self.touch_all(),
        }
    }

    /// How many circuits are currently clean for `kind`.
    pub fn clean_count(&self, kind: ReoptKind) -> usize {
        self.clean[kind as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(center: RingKey, radius: RingKey) -> ScanSpan {
        ScanSpan { center, radius, whole_ring: false }
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
        idx.touch_key(105);
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
        idx.touch_host(NodeId(5));
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
        idx.touch_key(0xdead_beef);
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
        let record = |idx: &mut RelevanceIndex| {
            for (handle, center) in [(1, 100), (2, 1000), (3, 5000)] {
                idx.record_clean(
                    ReoptKind::Local,
                    handle,
                    ReadSet { spans: vec![span(center, 10)], ..Default::default() },
                );
            }
        };
        let mut idx = RelevanceIndex::new();
        record(&mut idx);
        idx.touch_mapper(MapperDelta::Keys { old: Some(105), new: Some(995) });
        assert!(idx.is_dirty(ReoptKind::Local, 1), "old key stabs 100±10");
        assert!(idx.is_dirty(ReoptKind::Local, 2), "new key stabs 1000±10");
        assert!(!idx.is_dirty(ReoptKind::Local, 3));
        idx.touch_mapper(MapperDelta::Keys { old: None, new: None });
        assert!(!idx.is_dirty(ReoptKind::Local, 3), "an unregistered no-op touches nothing");
        idx.touch_mapper(MapperDelta::WholeSpace);
        assert_eq!(idx.clean_count(ReoptKind::Local), 0);
    }

    #[test]
    fn empty_read_set_survives_touches_it_cannot_see() {
        // A circuit whose evaluation read nothing mutable (all services
        // pinned, oracle not involved) stays clean under unrelated churn.
        let mut idx = RelevanceIndex::new();
        idx.record_clean(ReoptKind::Local, 4, ReadSet::default());
        idx.touch_key(42);
        idx.touch_host(NodeId(0));
        assert!(!idx.is_dirty(ReoptKind::Local, 4));
        idx.mark_dirty(4);
        assert!(idx.is_dirty(ReoptKind::Local, 4));
    }
}
