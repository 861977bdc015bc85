//! The Chord-style identifier ring.
//!
//! Membership is held in one ordered structure (this is a simulator — the
//! interesting *distributed* behaviour is routing cost, not replication), but
//! lookups are executed as **iterative greedy finger routing** exactly as a
//! real deployment would: each hop jumps to the member whose key most closely
//! precedes the target among the current member's power-of-two fingers, and
//! the hop count is reported so experiments can charge for routing.
//!
//! # Per-update cost model
//!
//! Writes go to a `BTreeMap<RingKey, MemberId>` plus a member→key index
//! that is dense by member id — a member holds exactly one key, and the
//! index is sized by the highest id ever joined (callers number members
//! densely: node ids, recycled instance ids). So **every maintenance
//! primitive is `O(log n)`**, at 100k members too: `join` is an ordered
//! insert (plus a clockwise probe over the — almost always empty — run of
//! colliding keys) and one slot write, `leave` is one slot read and one
//! ordered removal. (The seed's sorted `Vec` paid an `O(n)` memmove per
//! update; the benchmark's `dht.ring_update_us` probe times one leave +
//! join at each workload's membership.)
//!
//! Reads go to the **derived order**: the members in key order as two
//! parallel arrays (keys, members), built from the B-tree on the first read
//! after a `join` or `leave` — which drop it — and shared by every read
//! until the next write, like `Graph`'s derived adjacency in `sbon_netsim`.
//! `successor` and `predecessor` are one binary search each, `neighbors` an
//! index walk outward from one, and a `lookup` hop one binary search. A
//! control-plane step writes its keys first and reads afterwards, so a
//! write batch costs one `O(n)` rebuild, not one per write. Index
//! arithmetic on the order wraps by compare-and-subtract, never `%`. The
//! reads are pinned to the B-tree walks they replaced by
//! `derived_order_reads_equal_the_btree_walks`, and the ring as a whole to
//! the seed Vec ring by `btree_ring_matches_vec_reference`.
//!
//! The order also carries the **route memo**: one `AtomicU16` per member,
//! keyed by the index of a lookup target's predecessor, holding the hop
//! count of the route from the ring's first member (index 0) to it — the
//! one start the coordinate catalog routes from. A lookup's hop count is a
//! function of the current hop and the predecessor `p` alone: each hop
//! jumps by the largest finger below `cw(cur, p)` and the walk stops when
//! `cur == p` (see [`DhtRing::lookup`]), so from a fixed start every target
//! behind the same predecessor takes the same hops. The first lookup to
//! reach a predecessor walks and fills its slot; later ones read it. The
//! memo lives and dies with the order: `join` / `leave` drop both, and a
//! cloned ring derives both afresh. Slots are written with `Relaxed`
//! stores — concurrent readers that miss the same slot walk the same route
//! and store the same value. A paper-scale run routes about 28 lookups per
//! distinct (order, predecessor) pair, so most lookups cost two binary
//! searches and no walk. `memoized_lookup_equals_the_level_scan` pins the
//! memoized hops to the finger scan over churning rings.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;

use rand::Rng;

use crate::id::{clockwise_dist, RingKey};

/// External node identity stored on the ring (the simulator's physical node
/// id). Kept distinct from [`RingKey`]: a node's *key* derives from its
/// coordinate and changes when the coordinate drifts.
pub type MemberId = u32;

/// Ring configuration.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Number of finger levels to use in greedy routing. 128 = full Chord
    /// fingers on the u128 ring.
    pub finger_bits: u32,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig { finger_bits: 128 }
    }
}

/// Result of an iterative lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The member owning the target key (its successor on the ring).
    pub owner: MemberId,
    /// The owner's ring key.
    pub owner_key: RingKey,
    /// Number of routing hops taken (0 when the start node already owns the
    /// key's predecessor relationship).
    pub hops: usize,
}

/// The members in key order as two parallel arrays — what every read walks
/// — plus the route memo of lookups from index 0 (see the
/// [module docs](self)).
#[derive(Debug, Default)]
struct Order {
    keys: Vec<RingKey>,
    members: Vec<MemberId>,
    /// `route[p]`: 1 + the hops of the route from index 0 to a target
    /// whose predecessor is index `p`; 0 until a lookup walks it.
    route: Vec<AtomicU16>,
}

impl Order {
    /// How many members hold a key below `key`: the index of `key`'s
    /// successor, or `len` when it wraps to index 0.
    fn rank(&self, key: RingKey) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    /// The index of the first member with key ≥ `key`, wrapping.
    fn successor(&self, key: RingKey) -> usize {
        let i = self.rank(key);
        if i == self.keys.len() {
            0
        } else {
            i
        }
    }

    /// The index before `i` on the ring. `i < len`.
    fn before(&self, i: usize) -> usize {
        if i == 0 {
            self.keys.len() - 1
        } else {
            i - 1
        }
    }

    fn entry(&self, i: usize) -> (RingKey, MemberId) {
        (self.keys[i], self.members[i])
    }
}

/// A Chord-style ring over the full `u128` key space.
///
/// See the [module docs](self) for the cost model: `O(log n)` writes to a
/// B-tree, reads from an order derived from it.
#[derive(Debug, Default)]
pub struct DhtRing {
    /// Members ordered by ring key — the one write structure. Invariant:
    /// exactly the entries recorded in `keys`, one per member.
    members: BTreeMap<RingKey, MemberId>,
    /// `keys[member]` = the key the member holds (dense by `MemberId`), so
    /// `leave` needs no ring scan.
    keys: Vec<Option<RingKey>>,
    /// `members` as flat sorted arrays, derived on the first read after a
    /// write and dropped by `join` / `leave`.
    order: OnceLock<Order>,
    config: DhtConfig,
}

/// A clone derives its own order (and route memo) on its first read.
impl Clone for DhtRing {
    fn clone(&self) -> Self {
        DhtRing {
            members: self.members.clone(),
            keys: self.keys.clone(),
            order: OnceLock::new(),
            config: self.config.clone(),
        }
    }
}

impl DhtRing {
    /// An empty ring.
    pub fn new(config: DhtConfig) -> Self {
        DhtRing { config, ..DhtRing::default() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Finger levels used in greedy routing (see [`DhtConfig`]).
    pub fn finger_bits(&self) -> u32 {
        self.config.finger_bits
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The derived order, built from `members` if a write dropped it.
    fn order(&self) -> &Order {
        self.order.get_or_init(|| {
            let (keys, members): (Vec<_>, _) = self.members.iter().map(|(&k, &m)| (k, m)).unzip();
            let route = keys.iter().map(|_| AtomicU16::new(0)).collect();
            Order { keys, members, route }
        })
    }

    /// The lowest key on the ring: the first member's, where the catalog's
    /// lookups start.
    pub(crate) fn first_key(&self) -> Option<RingKey> {
        self.order().keys.first().copied()
    }

    /// Iterates `(key, member)` in ring order.
    pub fn iter(&self) -> impl Iterator<Item = (RingKey, MemberId)> + '_ {
        let order = self.order();
        order.keys.iter().copied().zip(order.members.iter().copied())
    }

    /// The key `member` currently holds (the exact post-probing key
    /// [`DhtRing::join`] returned), if it is on the ring.
    pub fn key_of(&self, member: MemberId) -> Option<RingKey> {
        self.keys.get(member as usize).copied().flatten()
    }

    /// Joins a member under `key`. If the key is taken, linear-probes
    /// clockwise for the next free key (coordinate collisions after
    /// quantization are common). Returns the key actually used. Panics if
    /// `member` is already on the ring: a member holds one key, and moves
    /// by [`DhtRing::leave`] then `join`.
    pub fn join(&mut self, key: RingKey, member: MemberId) -> RingKey {
        assert!(self.key_of(member).is_none(), "member {member} is already on the ring");
        assert!(self.members.len() < u32::MAX as usize, "ring is absurdly over-populated");
        // One descent for the usual free key; a taken one probes onward.
        let key = match self.members.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(member);
                key
            }
            Entry::Occupied(_) => {
                let key = self.first_free_key(key);
                let evicted = self.members.insert(key, member);
                debug_assert!(evicted.is_none(), "probe must land on a free key");
                key
            }
        };
        self.order = OnceLock::new();
        let idx = member as usize;
        if self.keys.len() <= idx {
            self.keys.resize(idx + 1, None);
        }
        self.keys[idx] = Some(key);
        key
    }

    /// The first unoccupied key clockwise from `from` (inclusive): occupied
    /// keys ≥ `from` can only delay the probe while they form a contiguous
    /// run starting exactly at `from`, so one ordered scan of that run finds
    /// the gap — same answer as the seed ring's key-by-key probe, without
    /// re-searching per step.
    fn first_free_key(&self, from: RingKey) -> RingKey {
        let mut candidate = from;
        for (&k, _) in self.members.range(from..) {
            if k != candidate {
                break;
            }
            match candidate.checked_add(1) {
                Some(next) => candidate = next,
                // The run reaches u128::MAX: wrap and probe from 0 (the
                // ring cannot be full — membership is capped well below
                // 2^128). Depth-1 recursion only.
                None => return self.first_free_key(0),
            }
        }
        candidate
    }

    /// Removes a member. Returns how many entries were removed: 1, or 0 if
    /// it was not on the ring.
    pub fn leave(&mut self, member: MemberId) -> usize {
        let Some(key) = self.keys.get_mut(member as usize).and_then(Option::take) else {
            return 0;
        };
        let entry = self.members.remove(&key);
        debug_assert_eq!(entry, Some(member), "member→key index tracks ring entries");
        self.order = OnceLock::new();
        usize::from(entry.is_some())
    }

    /// The member owning `key`: its successor on the ring (first member with
    /// key ≥ target, wrapping). `None` on an empty ring.
    pub fn successor(&self, key: RingKey) -> Option<(RingKey, MemberId)> {
        let order = self.order();
        (!order.keys.is_empty()).then(|| order.entry(order.successor(key)))
    }

    /// The member strictly preceding `key` on the ring (largest key < target,
    /// wrapping). `None` on an empty ring.
    pub fn predecessor(&self, key: RingKey) -> Option<(RingKey, MemberId)> {
        let order = self.order();
        (!order.keys.is_empty()).then(|| order.entry(order.before(order.successor(key))))
    }

    /// Walks the ring outward from `key` in both directions, yielding up to
    /// `count` distinct members in order of ring proximity. This is the
    /// catalog's radius-search primitive.
    ///
    /// Two cursors walk the derived order: clockwise from the target's
    /// successor, counter-clockwise from its predecessor. Each step takes
    /// the nearer one's entry — the clockwise one on a tie — and the walk
    /// stops after `min(count, n)` picks. No ring entry can be emitted twice,
    /// for any `count` (and hence no member, given each holds one key): after
    /// `f` clockwise and `b` counter-clockwise picks the two consumed arcs
    /// overlap only if `f + b > n`, which the cap makes unreachable; at
    /// `f + b = n` they exactly tile the ring. Regression tests pin this at
    /// `count ∈ {n−1, n, n+1}`.
    pub fn neighbors(&self, key: RingKey, count: usize) -> Vec<(RingKey, MemberId)> {
        self.walk_outward(key, count).collect()
    }

    /// [`DhtRing::neighbors`] without the `Vec`: the same picks in the same
    /// order.
    pub(crate) fn walk_outward(
        &self,
        key: RingKey,
        count: usize,
    ) -> impl Iterator<Item = (RingKey, MemberId)> + '_ {
        let order = self.order();
        let n = order.keys.len();
        // The next clockwise pick is `cw`, the next counter-clockwise one
        // `ccw − 1`: `cw ∈ 0..n` and `ccw ∈ 1..=n`, each wrapped by one
        // compare as it steps (neither is read on an empty ring).
        let mut cw = order.successor(key);
        let mut ccw = if cw == 0 { n } else { cw };
        (0..count.min(n)).map(move |_| {
            let bwd = ccw - 1;
            if clockwise_dist(key, order.keys[cw]) <= clockwise_dist(order.keys[bwd], key) {
                let fwd = cw;
                cw += 1;
                if cw == n {
                    cw = 0;
                }
                order.entry(fwd)
            } else {
                ccw = if bwd == 0 { n } else { bwd };
                order.entry(bwd)
            }
        })
    }

    /// Iterative greedy finger lookup of `target`, starting from the member
    /// that owns `start_key`. Returns the owner and the hop count. `None` on
    /// an empty ring.
    ///
    /// Each member's finger `i` points at `successor(own_key + 2^i)`; greedy
    /// routing forwards to the finger most closely *preceding* the target,
    /// giving the classic O(log n) expected hops.
    ///
    /// Each hop is one binary search. With `p` the target's predecessor: a
    /// probe `cur + 2^i` short of the target has its successor strictly
    /// inside `(cur, target)` iff some member lies in `[probe, target)`, iff
    /// `p` does, iff `cw(cur, p) ≥ 2^i`. So the largest finger inside is
    /// level `min(⌊log2 cw(cur, p)⌋, finger_bits − 1)` — the hop a top-down
    /// finger scan takes — and the target lies in `(cur, successor(cur)]`
    /// iff `cur == p`. The hops are thus a function of the start and `p`:
    /// from index 0 they are read from (or written to) the route memo.
    pub fn lookup(&self, start_key: RingKey, target: RingKey) -> Option<LookupOutcome> {
        let order = self.order();
        if order.keys.is_empty() {
            return None;
        }
        let start = order.successor(start_key);
        let (cur, start_member) = order.entry(start);
        // The starting member already owns the target (exact hit on its key).
        if target == cur {
            return Some(LookupOutcome { owner: start_member, owner_key: cur, hops: 0 });
        }
        let owner = order.successor(target);
        let pred = order.before(owner);
        let hops = if start == 0 {
            let slot = &order.route[pred];
            match slot.load(Ordering::Relaxed) {
                0 => {
                    let hops = self.route_hops(order, cur, order.keys[pred]);
                    // Every walk stays under `2 × finger_bits + 2` hops.
                    if let Ok(stored) = u16::try_from(hops + 1) {
                        slot.store(stored, Ordering::Relaxed);
                    }
                    hops
                }
                stored => usize::from(stored - 1),
            }
        } else {
            self.route_hops(order, cur, order.keys[pred])
        };
        let (owner_key, owner) = order.entry(owner);
        Some(LookupOutcome { owner, owner_key, hops })
    }

    /// The hops greedy finger routing takes from the member at `cur` to a
    /// target whose predecessor holds `pred`.
    fn route_hops(&self, order: &Order, mut cur: RingKey, pred: RingKey) -> usize {
        let mut hops = 0usize;
        // Hard bound to guarantee termination even on adversarial inputs:
        // 2 × finger bits is far above the expected log2(n).
        let max_hops = (2 * self.config.finger_bits as usize).max(8);
        loop {
            // Chord: if target ∈ (cur, successor(cur)] the successor owns it.
            if cur == pred {
                return hops + 1;
            }
            hops += 1;
            if self.config.finger_bits == 0 {
                // No finger at all — the target's successor is directly
                // reachable.
                return hops;
            }
            let level = clockwise_dist(cur, pred).ilog2().min(self.config.finger_bits - 1);
            cur = order.keys[order.successor(cur.wrapping_add(1u128 << level))];
            if hops > max_hops {
                // Unreachable in practice; fall back to the authoritative
                // answer rather than looping (belt and braces).
                return hops + 1;
            }
        }
    }

    /// A uniformly random member key, for choosing lookup start points.
    pub fn random_member_key<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<RingKey> {
        let keys = &self.order().keys;
        (!keys.is_empty()).then(|| keys[rng.gen_range(0..keys.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{in_open_closed, in_open_open};
    use proptest::prelude::*;
    use sbon_netsim::rng::{derive_rng, rng_from_seed};

    /// The B-tree walks every read made before the derived order: the
    /// reference the order's reads are pinned to.
    mod btree {
        use super::*;

        pub(super) fn successor(ring: &DhtRing, key: RingKey) -> Option<(RingKey, MemberId)> {
            let m = &ring.members;
            m.range(key..).next().or_else(|| m.iter().next()).map(|(&k, &v)| (k, v))
        }

        pub(super) fn predecessor(ring: &DhtRing, key: RingKey) -> Option<(RingKey, MemberId)> {
            let m = &ring.members;
            m.range(..key).next_back().or_else(|| m.iter().next_back()).map(|(&k, &v)| (k, v))
        }

        /// The two-cursor merge over full-cycle range iterators.
        pub(super) fn neighbors(
            ring: &DhtRing,
            key: RingKey,
            count: usize,
        ) -> Vec<(RingKey, MemberId)> {
            let m = &ring.members;
            let take = count.min(m.len());
            let mut fwd = m.range(key..).chain(m.range(..key)).peekable();
            let mut bwd = m.range(..key).rev().chain(m.range(key..).rev()).peekable();
            let mut out = Vec::with_capacity(take);
            while out.len() < take {
                let pick_fwd = match (fwd.peek(), bwd.peek()) {
                    (Some(&(&fk, _)), Some(&(&bk, _))) => {
                        clockwise_dist(key, fk) <= clockwise_dist(bk, key)
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                match if pick_fwd { fwd.next() } else { bwd.next() } {
                    Some((&k, &v)) => out.push((k, v)),
                    None => break,
                }
            }
            out
        }
    }

    /// `DhtRing::lookup` as it was before the finger scan was capped: every
    /// hop probes all `finger_bits` levels, top down, each probe a B-tree
    /// walk.
    fn lookup_scanning_every_level(
        ring: &DhtRing,
        start_key: RingKey,
        target: RingKey,
    ) -> Option<LookupOutcome> {
        let (mut cur_key, cur_member) = btree::successor(ring, start_key)?;
        if target == cur_key {
            return Some(LookupOutcome { owner: cur_member, owner_key: cur_key, hops: 0 });
        }
        let mut hops = 0usize;
        let max_hops = (2 * ring.config.finger_bits as usize).max(8);
        loop {
            let (succ_key, succ_member) = btree::successor(ring, cur_key.wrapping_add(1))?;
            if in_open_closed(target, cur_key, succ_key) {
                return Some(LookupOutcome {
                    owner: succ_member,
                    owner_key: succ_key,
                    hops: hops + 1,
                });
            }
            let next = (0..ring.config.finger_bits).rev().find_map(|i| {
                let (fk, _) = btree::successor(ring, cur_key.wrapping_add(1u128 << i))?;
                (fk != cur_key && in_open_open(fk, cur_key, target)).then_some(fk)
            });
            hops += 1;
            let Some(nk) = next else {
                let (k, m) = btree::successor(ring, target)?;
                return Some(LookupOutcome { owner: m, owner_key: k, hops });
            };
            cur_key = nk;
            if hops > max_hops {
                let (k, m) = btree::successor(ring, target)?;
                return Some(LookupOutcome { owner: m, owner_key: k, hops: hops + 1 });
            }
        }
    }

    proptest! {
        /// Every read of the derived order equals the B-tree walk it
        /// replaced, over random join / leave interleavings with reads
        /// between the writes (so each write's reset of the order is read
        /// through), uniform or clustered keys, every `finger_bits` the
        /// catalog and the tests use, and starts on and off the ring.
        #[test]
        fn derived_order_reads_equal_the_btree_walks(
            seed in 0u64..1_000_000,
            ops in 20usize..160,
        ) {
            let mut rng = derive_rng(seed, 0x02DE);
            let finger_bits = [128, 64, 16, 3][rng.gen_range(0..4usize)];
            // Clustered rings crowd a sliver of the key space, as Hilbert
            // keys of nearby coordinates do.
            let shift = if rng.gen_range(0..2) == 0 { 0 } else { 100 };
            let mut ring = DhtRing::new(DhtConfig { finger_bits });
            let mut live: Vec<MemberId> = Vec::new();
            let mut next_member: MemberId = 0;
            for _ in 0..ops {
                let members: Vec<RingKey> = ring.members.keys().copied().collect();
                let near = |rng: &mut rand::rngs::StdRng| match members.len() {
                    0 => rng.gen::<u128>() >> shift,
                    n => members[rng.gen_range(0..n)].wrapping_add(rng.gen_range(0..3u32).into()).wrapping_sub(1),
                };
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        let key = if rng.gen_range(0..4) == 0 { near(&mut rng) } else { rng.gen::<u128>() >> shift };
                        ring.join(key, next_member);
                        live.push(next_member);
                        next_member += 1;
                    }
                    2 if !live.is_empty() => {
                        let member = live.swap_remove(rng.gen_range(0..live.len()));
                        prop_assert_eq!(ring.leave(member), 1);
                    }
                    _ => {
                        let key = if rng.gen_range(0..2) == 0 { near(&mut rng) } else { rng.gen::<u128>() >> shift };
                        prop_assert_eq!(ring.successor(key), btree::successor(&ring, key));
                        prop_assert_eq!(ring.predecessor(key), btree::predecessor(&ring, key));
                        let n = members.len();
                        for count in [n.saturating_sub(1), n, n + 1, rng.gen_range(0..n + 3)] {
                            prop_assert_eq!(ring.neighbors(key, count), btree::neighbors(&ring, key, count));
                        }
                        let start = if rng.gen_range(0..3) == 0 { rng.gen() } else { near(&mut rng) };
                        prop_assert_eq!(
                            ring.lookup(start, key),
                            lookup_scanning_every_level(&ring, start, key)
                        );
                    }
                }
            }
            let walked: Vec<(RingKey, MemberId)> = ring.members.iter().map(|(&k, &m)| (k, m)).collect();
            prop_assert_eq!(ring.iter().collect::<Vec<_>>(), walked);
        }
    }

    proptest! {
        /// Lookups read through the route memo equal the level scan: random
        /// uniform or clustered rings, every `finger_bits`, targets repeated
        /// (memo hits), fresh (memo fills) and next to members, starts that
        /// resolve to the first member (the memoized start) and elsewhere,
        /// interleaved with joins and leaves that drop the memo.
        #[test]
        fn memoized_lookup_equals_the_level_scan(
            seed in 0u64..1_000_000,
            ops in 20usize..200,
        ) {
            let mut rng = derive_rng(seed, 0x37E0);
            let finger_bits = [128, 64, 16, 3][rng.gen_range(0..4usize)];
            let shift = if rng.gen_range(0..2) == 0 { 0 } else { 100 };
            let mut ring = DhtRing::new(DhtConfig { finger_bits });
            let mut live: Vec<MemberId> = Vec::new();
            let mut next_member: MemberId = 0;
            let mut targets: Vec<RingKey> = Vec::new();
            for _ in 0..ops {
                match rng.gen_range(0..8) {
                    0 => {
                        ring.join(rng.gen::<u128>() >> shift, next_member);
                        live.push(next_member);
                        next_member += 1;
                    }
                    1 if !live.is_empty() => {
                        let member = live.swap_remove(rng.gen_range(0..live.len()));
                        prop_assert_eq!(ring.leave(member), 1);
                    }
                    _ => {
                        let target = match rng.gen_range(0..4) {
                            0 | 1 if !targets.is_empty() => targets[rng.gen_range(0..targets.len())],
                            2 if !ring.is_empty() => {
                                let (k, _) = ring.iter().nth(rng.gen_range(0..ring.len())).unwrap();
                                k.wrapping_add(rng.gen_range(0..3u32).into()).wrapping_sub(1)
                            }
                            _ => rng.gen::<u128>() >> shift,
                        };
                        targets.push(target);
                        let last = ring.iter().last().map_or(0, |(k, _)| k);
                        let start = match rng.gen_range(0..5) {
                            0 => 0,
                            1 => last.wrapping_add(1),
                            2 => rng.gen(),
                            _ => ring.first_key().unwrap_or(0),
                        };
                        prop_assert_eq!(
                            ring.lookup(start, target),
                            lookup_scanning_every_level(&ring, start, target)
                        );
                    }
                }
            }
        }
    }

    /// The filled slots of the route memo, if the order is derived.
    fn memo(ring: &DhtRing) -> Option<Vec<u16>> {
        let order = ring.order.get()?;
        Some(order.route.iter().map(|slot| slot.load(Ordering::Relaxed)).collect())
    }

    /// A `join` or `leave` drops the route memo with the order, so a count
    /// stored for one predecessor index is never served for the member that
    /// holds that index afterwards.
    #[test]
    fn writes_drop_the_route_memo() {
        let mut r = ring_with(&[0, 10, 20, 30]);
        // From key 0: target 21 sits behind 20 (one finger hop, then the
        // successor), target 31 behind 30 (two finger hops).
        assert_eq!(r.lookup(0, 21).unwrap().hops, 2);
        assert_eq!(r.lookup(0, 31).unwrap().hops, 3);
        assert_eq!(memo(&r), Some(vec![0, 0, 3, 4]));
        assert_eq!(r.lookup(0, 31).unwrap().hops, 3, "a memo hit");

        // Without key 10, key 30 holds index 2, whose stale slot says 2 hops.
        r.leave(1);
        assert_eq!(memo(&r), None, "leave drops the memo");
        assert_eq!(r.lookup(0, 31).unwrap().hops, 3);
        assert_eq!(memo(&r), Some(vec![0, 0, 4]));

        // With key 5, key 20 holds index 2, whose stale slot says 3 hops.
        r.join(5, 4);
        assert_eq!(memo(&r), None, "join drops the memo");
        assert_eq!(r.lookup(0, 21).unwrap().hops, 2);
        assert_eq!(memo(&r), Some(vec![0, 0, 3, 0]));

        // A clone derives its own order and memo.
        let c = r.clone();
        assert_eq!(memo(&c), None);
        assert_eq!(c.lookup(0, 21), r.lookup(0, 21));
    }

    /// The capped finger scan takes the same hops to the same owner as
    /// scanning every level — over random and clustered rings, every
    /// `finger_bits`, member and off-ring starts, and targets on, next to
    /// and far from members.
    #[test]
    fn capped_finger_scan_matches_scanning_every_level() {
        let mut rng = rng_from_seed(33);
        for case in 0..60 {
            let n = rng.gen_range(1..200usize);
            let finger_bits = [128, 128, 64, 16, 3][case % 5];
            let mut ring = DhtRing::new(DhtConfig { finger_bits });
            for m in 0..n {
                // Every third ring is clustered into a sliver of the key
                // space (Hilbert keys of nearby coordinates look like this).
                let key: RingKey = if case % 3 == 0 { rng.gen::<u128>() >> 100 } else { rng.gen() };
                ring.join(key, m as MemberId);
            }
            let members: Vec<RingKey> = ring.iter().map(|(k, _)| k).collect();
            for _ in 0..80 {
                let start = match rng.gen_range(0..4) {
                    0 => rng.gen(),
                    _ => members[rng.gen_range(0..n)],
                };
                let near = members[rng.gen_range(0..n)];
                let target = match rng.gen_range(0..5) {
                    0 => near,
                    1 => near.wrapping_add(1),
                    2 => near.wrapping_sub(1),
                    3 => near.wrapping_add(rng.gen::<u128>() >> rng.gen_range(0..128)),
                    _ => rng.gen(),
                };
                assert_eq!(
                    ring.lookup(start, target),
                    lookup_scanning_every_level(&ring, start, target),
                    "case {case}: n={n} bits={finger_bits} start={start} target={target}"
                );
            }
        }
    }

    fn ring_with(keys: &[RingKey]) -> DhtRing {
        let mut r = DhtRing::new(DhtConfig::default());
        for (i, &k) in keys.iter().enumerate() {
            r.join(k, i as MemberId);
        }
        r
    }

    #[test]
    fn successor_wraps_around() {
        let r = ring_with(&[10, 20, 30]);
        assert_eq!(r.successor(15).unwrap().0, 20);
        assert_eq!(r.successor(20).unwrap().0, 20); // exact hit
        assert_eq!(r.successor(31).unwrap().0, 10); // wrap
    }

    #[test]
    fn predecessor_wraps_around() {
        let r = ring_with(&[10, 20, 30]);
        assert_eq!(r.predecessor(15).unwrap().0, 10);
        assert_eq!(r.predecessor(10).unwrap().0, 30); // strict
        assert_eq!(r.predecessor(5).unwrap().0, 30); // wrap
    }

    #[test]
    fn join_probes_on_collision() {
        let mut r = DhtRing::new(DhtConfig::default());
        assert_eq!(r.join(7, 0), 7);
        assert_eq!(r.join(7, 1), 8);
        assert_eq!(r.join(7, 2), 9);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_probe_wraps_past_key_space_end() {
        let mut r = DhtRing::new(DhtConfig::default());
        assert_eq!(r.join(u128::MAX, 0), u128::MAX);
        // MAX is taken: the probe must wrap to 0, exactly like the seed
        // ring's wrapping_add probe.
        assert_eq!(r.join(u128::MAX, 1), 0);
        assert_eq!(r.join(u128::MAX, 2), 1);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn leave_removes_member() {
        let mut r = ring_with(&[10, 20, 30]);
        assert_eq!(r.key_of(1), Some(20));
        assert_eq!(r.leave(1), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.successor(15).unwrap().0, 30);
        assert_eq!(r.key_of(1), None);
        assert_eq!(r.leave(1), 0, "a second leave finds nothing");
        assert_eq!((r.leave(99), r.key_of(99)), (0, None), "never joined, beyond the index");
        // The index holds the probed key, not the requested one, and a
        // member that left may join again under a new key.
        assert_eq!(r.join(30, 1), 31);
        assert_eq!((r.key_of(1), r.key_of(2)), (Some(31), Some(30)));
        assert_eq!(r.leave(2), 1);
        assert_eq!((r.key_of(1), r.key_of(2), r.len()), (Some(31), None, 2));
    }

    #[test]
    #[should_panic(expected = "member 7 is already on the ring")]
    fn double_join_is_rejected() {
        let mut r = DhtRing::new(DhtConfig::default());
        r.join(10, 7);
        r.join(500, 7);
    }

    #[test]
    fn lookup_matches_successor_everywhere() {
        let mut rng = rng_from_seed(1);
        let keys: Vec<RingKey> = (0..64).map(|_| rng.gen::<u128>()).collect();
        let r = ring_with(&keys);
        for _ in 0..200 {
            let start = r.random_member_key(&mut rng).unwrap();
            let target: RingKey = rng.gen();
            let out = r.lookup(start, target).unwrap();
            let truth = r.successor(target).unwrap();
            assert_eq!(out.owner_key, truth.0, "target={target}");
            assert_eq!(out.owner, truth.1);
        }
    }

    #[test]
    fn lookup_hops_scale_logarithmically() {
        let mut rng = rng_from_seed(2);
        let keys: Vec<RingKey> = (0..512).map(|_| rng.gen::<u128>()).collect();
        let r = ring_with(&keys);
        let mut total_hops = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let start = r.random_member_key(&mut rng).unwrap();
            let target: RingKey = rng.gen();
            total_hops += r.lookup(start, target).unwrap().hops;
        }
        let mean = total_hops as f64 / trials as f64;
        // log2(512) = 9; greedy finger routing should stay well under 2×.
        assert!(mean <= 14.0, "mean hops {mean} too high for 512 members");
        assert!(mean >= 1.0, "mean hops {mean} suspiciously low");
    }

    #[test]
    fn lookup_on_singleton_ring() {
        let r = ring_with(&[42]);
        let out = r.lookup(42, 7).unwrap();
        assert_eq!(out.owner_key, 42);
    }

    #[test]
    fn lookup_on_empty_ring_is_none() {
        let r = DhtRing::new(DhtConfig::default());
        assert!(r.lookup(0, 0).is_none());
        assert!(r.successor(0).is_none());
        assert!(r.predecessor(0).is_none());
    }

    #[test]
    fn neighbors_returns_ring_proximate_members() {
        let r = ring_with(&[10, 20, 30, 40, 50]);
        let n = r.neighbors(22, 3);
        let keys: Vec<RingKey> = n.iter().map(|&(k, _)| k).collect();
        // Closest on the ring to 22: 30 (dist 8 clockwise), 20 (dist 2
        // counter-clockwise), 10 or 40 next.
        assert_eq!(n.len(), 3);
        assert!(keys.contains(&20) && keys.contains(&30), "{keys:?}");
    }

    #[test]
    fn neighbors_caps_at_member_count() {
        let r = ring_with(&[10, 20]);
        assert_eq!(r.neighbors(0, 10).len(), 2);
    }

    #[test]
    fn neighbors_of_empty_ring() {
        let r = DhtRing::new(DhtConfig::default());
        assert!(r.neighbors(0, 3).is_empty());
    }

    /// The fwd-meets-bwd regression the walk's no-duplicate argument must
    /// survive: for every tiny ring size and every `count` around the
    /// membership boundary (`n−1`, `n`, `n+1`), the walk returns exactly
    /// `min(count, n)` **distinct** members.
    #[test]
    fn neighbors_never_duplicates_at_membership_boundary() {
        let mut rng = rng_from_seed(21);
        for n in 1usize..=6 {
            let keys: Vec<RingKey> = (0..n).map(|i| (i as u128) * 1000 + 10).collect();
            let r = ring_with(&keys);
            // Targets on members, between members, and off both ends.
            let mut targets: Vec<RingKey> = keys.clone();
            targets.extend(keys.iter().map(|k| k + 500));
            targets.extend([0u128, u128::MAX, rng.gen()]);
            for &key in &targets {
                for count in [n.saturating_sub(1), n, n + 1] {
                    let out = r.neighbors(key, count);
                    assert_eq!(out.len(), count.min(n), "n={n} count={count} key={key}");
                    let mut members: Vec<MemberId> = out.iter().map(|&(_, m)| m).collect();
                    members.sort_unstable();
                    members.dedup();
                    assert_eq!(
                        members.len(),
                        count.min(n),
                        "duplicate member in neighbors(n={n}, count={count}, key={key})"
                    );
                }
            }
        }
    }

    /// With `count == n`, the walk must enumerate the whole ring — the
    /// fwd and bwd arcs tile it exactly, touching each member once.
    #[test]
    fn neighbors_count_n_covers_the_whole_ring() {
        let r = ring_with(&[10, 20, 30, 40]);
        for key in [0u128, 10, 15, 39, 200] {
            let mut members: Vec<MemberId> = r.neighbors(key, 4).iter().map(|&(_, m)| m).collect();
            members.sort_unstable();
            assert_eq!(members, vec![0, 1, 2, 3], "key={key}");
        }
    }

    #[test]
    fn neighbors_orders_by_ring_proximity() {
        let r = ring_with(&[10, 20, 30, 40, 50]);
        // From 22, by ring proximity: 20 (ccw 2), 30 (cw 8), 10 (ccw 12),
        // 40 (cw 18), then 50 (cw 28; counter-clockwise it would wrap).
        let out = r.neighbors(22, 5);
        let keys: Vec<RingKey> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![20, 30, 10, 40, 50]);
    }

    #[test]
    fn lookups_stay_correct_under_interleaved_churn() {
        // Join/leave churn interleaved with lookups: after every membership
        // change, greedy finger routing must still agree with the
        // authoritative successor.
        let mut rng = rng_from_seed(9);
        let mut r = DhtRing::new(DhtConfig::default());
        let mut next_member: MemberId = 0;
        let mut live: Vec<MemberId> = Vec::new();
        for step in 0..400 {
            let action: f64 = rng.gen();
            if live.is_empty() || action < 0.45 {
                let key: RingKey = rng.gen();
                r.join(key, next_member);
                live.push(next_member);
                next_member += 1;
            } else if action < 0.65 && live.len() > 1 {
                let idx = rng.gen_range(0..live.len());
                let member = live.swap_remove(idx);
                assert_eq!(r.leave(member), 1);
            } else {
                let start = r.random_member_key(&mut rng).unwrap();
                let target: RingKey = rng.gen();
                let out = r.lookup(start, target).unwrap();
                let truth = r.successor(target).unwrap();
                assert_eq!(out.owner_key, truth.0, "step {step}");
            }
        }
        assert_eq!(r.len(), live.len());
    }

    #[test]
    fn hop_counts_shrink_when_membership_shrinks() {
        let mut rng = rng_from_seed(10);
        let keys: Vec<RingKey> = (0..256).map(|_| rng.gen()).collect();
        let mut r = ring_with(&keys);
        let mean_hops = |r: &DhtRing, rng: &mut rand::rngs::StdRng| {
            let trials = 100;
            let mut total = 0usize;
            for _ in 0..trials {
                let start = r.random_member_key(rng).unwrap();
                let target: RingKey = rng.gen();
                total += r.lookup(start, target).unwrap().hops;
            }
            total as f64 / trials as f64
        };
        let full = mean_hops(&r, &mut rng);
        for m in 16..256 {
            r.leave(m as MemberId);
        }
        assert_eq!(r.len(), 16);
        let small = mean_hops(&r, &mut rng);
        assert!(small < full, "16-member ring must route in fewer hops: {small} vs {full}");
    }
}
