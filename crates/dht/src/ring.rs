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
//! Members live in a `BTreeMap<RingKey, MemberId>` plus a member→key index
//! that is dense by member id — a member holds exactly one key, and the
//! index is sized by the highest id ever joined (callers number members
//! densely: node ids, recycled instance ids). So **every maintenance
//! primitive is `O(log n)`**: `join` is an ordered insert (plus a clockwise
//! probe over the — almost always empty — run of colliding keys) and one
//! slot write, `leave` is one slot read and one ordered removal, and
//! `successor`/`predecessor`/`neighbors` are ordered range scans. The
//! original `Vec`-backed ring answered the same queries from one sorted
//! array, which made join/leave a binary search **plus an `O(n)` memmove**
//! — fine at the paper's 600-node scale, the bottleneck at 100k+ members
//! (`bench_control_plane` measures the difference). The two representations
//! are behaviourally identical; the `btree_ring_matches_vec_reference`
//! property test pins the new ring bit-for-bit against the seed Vec
//! implementation over random join/leave/lookup interleavings.

use std::collections::BTreeMap;

use rand::Rng;

use crate::id::{clockwise_dist, in_open_closed, RingKey};

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

/// A Chord-style ring over the full `u128` key space.
///
/// See the [module docs](self) for the `O(log n)` per-update cost model.
#[derive(Clone, Debug, Default)]
pub struct DhtRing {
    /// Members ordered by ring key. Invariant: exactly the entries recorded
    /// in `keys`, one per member.
    members: BTreeMap<RingKey, MemberId>,
    /// `keys[member]` = the key the member holds (dense by `MemberId`), so
    /// `leave` needs no ring scan.
    keys: Vec<Option<RingKey>>,
    config: DhtConfig,
}

impl DhtRing {
    /// An empty ring.
    pub fn new(config: DhtConfig) -> Self {
        DhtRing { members: BTreeMap::new(), keys: Vec::new(), config }
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

    /// Iterates `(key, member)` in ring order.
    pub fn iter(&self) -> impl Iterator<Item = (RingKey, MemberId)> + '_ {
        self.members.iter().map(|(&k, &m)| (k, m))
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
        let key = self.first_free_key(key);
        let evicted = self.members.insert(key, member);
        debug_assert!(evicted.is_none(), "probe must land on a free key");
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
        usize::from(entry.is_some())
    }

    /// The member owning `key`: its successor on the ring (first member with
    /// key ≥ target, wrapping). `None` on an empty ring.
    pub fn successor(&self, key: RingKey) -> Option<(RingKey, MemberId)> {
        self.members
            .range(key..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(&k, &m)| (k, m))
    }

    /// The member strictly preceding `key` on the ring (largest key < target,
    /// wrapping). `None` on an empty ring.
    pub fn predecessor(&self, key: RingKey) -> Option<(RingKey, MemberId)> {
        self.members
            .range(..key)
            .next_back()
            .or_else(|| self.members.iter().next_back())
            .map(|(&k, &m)| (k, m))
    }

    /// Walks the ring outward from `key` in both directions, yielding up to
    /// `count` distinct members in order of ring proximity. This is the
    /// catalog's radius-search primitive.
    ///
    /// No ring entry can be emitted twice, for any `count` (including
    /// `count ≥ n`) — and hence no member either, given each holds one key
    /// ([`DhtRing::join`] rejects a second for the same member): the walk draws
    /// from two full-cycle cursors — clockwise from the target's successor,
    /// counter-clockwise from its predecessor — and stops after
    /// `min(count, n)` picks. After `f` clockwise and `b` counter-clockwise
    /// picks the two consumed arcs overlap only if `f + b > n`, which the
    /// cap makes unreachable; at the boundary `f + b = n` the arcs exactly
    /// tile the ring. (The seed Vec ring's index arithmetic relied on the
    /// same invariant implicitly; the cursor form also terminates
    /// structurally instead of trusting modular stepping, and is pinned by
    /// regression tests at `count ∈ {n−1, n, n+1}`.)
    pub fn neighbors(&self, key: RingKey, count: usize) -> Vec<(RingKey, MemberId)> {
        let n = self.members.len();
        if n == 0 || count == 0 {
            return Vec::new();
        }
        let take = count.min(n);
        // Clockwise cycle starting at successor(key); counter-clockwise
        // cycle starting at predecessor(key). Each cursor visits every
        // member exactly once.
        let mut fwd = self.members.range(key..).chain(self.members.range(..key)).peekable();
        let mut bwd =
            self.members.range(..key).rev().chain(self.members.range(key..).rev()).peekable();
        let mut out = Vec::with_capacity(take);
        while out.len() < take {
            let pick_fwd = match (fwd.peek(), bwd.peek()) {
                (Some(&(&fk, _)), Some(&(&bk, _))) => {
                    clockwise_dist(key, fk) <= clockwise_dist(bk, key)
                }
                (Some(_), None) => true,
                // Both cursors exhausted before `take` picks is impossible
                // (each holds n ≥ take items); bail rather than spin.
                (None, _) => false,
            };
            match if pick_fwd { fwd.next() } else { bwd.next() } {
                Some((&k, &m)) => out.push((k, m)),
                None => break,
            }
        }
        debug_assert!(
            {
                let mut ks: Vec<RingKey> = out.iter().map(|&(k, _)| k).collect();
                ks.sort_unstable();
                ks.windows(2).all(|w| w[0] != w[1])
            },
            "neighbors must never emit a ring entry twice"
        );
        out
    }

    /// Iterative greedy finger lookup of `target`, starting from the member
    /// that owns `start_key`. Returns the owner and the hop count. `None` on
    /// an empty ring.
    ///
    /// Each member's finger `i` points at `successor(own_key + 2^i)`; greedy
    /// routing forwards to the finger most closely *preceding* the target,
    /// giving the classic O(log n) expected hops.
    pub fn lookup(&self, start_key: RingKey, target: RingKey) -> Option<LookupOutcome> {
        if self.members.is_empty() {
            return None;
        }
        let (mut cur_key, cur_member) = self.successor(start_key)?;
        // The starting member already owns the target (exact hit on its key).
        if target == cur_key {
            return Some(LookupOutcome { owner: cur_member, owner_key: cur_key, hops: 0 });
        }
        let mut hops = 0usize;
        // Hard bound to guarantee termination even on adversarial inputs:
        // 2 × finger bits is far above the expected log2(n).
        let max_hops = (2 * self.config.finger_bits as usize).max(8);

        loop {
            // Chord: if target ∈ (cur, successor(cur)] the successor owns it.
            let (succ_key, succ_member) = self.successor(cur_key.wrapping_add(1))?;
            if in_open_closed(target, cur_key, succ_key) {
                return Some(LookupOutcome {
                    owner: succ_member,
                    owner_key: succ_key,
                    hops: hops + 1,
                });
            }
            // Otherwise forward to the closest preceding finger: the largest
            // finger of `cur` that lands strictly inside (cur, target).
            let mut next: Option<RingKey> = None;
            let levels = finger_levels_inside(clockwise_dist(cur_key, target));
            for i in (0..levels.min(self.config.finger_bits)).rev() {
                let probe = cur_key.wrapping_add(1u128 << i);
                let (fk, _) = self.successor(probe)?;
                if fk != cur_key && crate::id::in_open_open(fk, cur_key, target) {
                    next = Some(fk);
                    break;
                }
            }
            hops += 1;
            match next {
                Some(nk) => cur_key = nk,
                None => {
                    // No finger precedes the target — the target's successor
                    // is directly reachable.
                    let (k, m) = self.successor(target)?;
                    return Some(LookupOutcome { owner: m, owner_key: k, hops });
                }
            }
            if hops > max_hops {
                // Unreachable in practice; fall back to the authoritative
                // answer rather than looping (belt and braces).
                let (k, m) = self.successor(target)?;
                return Some(LookupOutcome { owner: m, owner_key: k, hops: hops + 1 });
            }
        }
    }

    /// A uniformly random member key, for choosing lookup start points.
    /// `O(n)` ordered walk — a test/experiment helper, not a maintenance
    /// primitive.
    pub fn random_member_key<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<RingKey> {
        if self.members.is_empty() {
            None
        } else {
            let idx = rng.gen_range(0..self.members.len());
            self.members.keys().nth(idx).copied()
        }
    }
}

/// How many finger levels of a member `dist` short of a target (clockwise)
/// can land strictly inside the gap: level `i` probes `2^i` ahead, and a
/// probe at or past the target has its successor in `[target, member]` — the
/// member itself closes that arc — never in `(member, target)`. So only the
/// levels with `2^i < dist`, i.e. `i ≤ log2(dist − 1)`, need a ring query.
/// (`dist == 0` is the whole ring: all 128.) Holds only for a `member` that
/// is on the ring.
fn finger_levels_inside(dist: u128) -> u32 {
    u128::BITS - dist.wrapping_sub(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::rng::rng_from_seed;

    /// `DhtRing::lookup` as it was before the finger scan was capped: every
    /// hop probes all `finger_bits` levels, top down.
    fn lookup_scanning_every_level(
        ring: &DhtRing,
        start_key: RingKey,
        target: RingKey,
    ) -> Option<LookupOutcome> {
        let (mut cur_key, cur_member) = ring.successor(start_key)?;
        if target == cur_key {
            return Some(LookupOutcome { owner: cur_member, owner_key: cur_key, hops: 0 });
        }
        let mut hops = 0usize;
        let max_hops = (2 * ring.config.finger_bits as usize).max(8);
        loop {
            let (succ_key, succ_member) = ring.successor(cur_key.wrapping_add(1))?;
            if in_open_closed(target, cur_key, succ_key) {
                return Some(LookupOutcome {
                    owner: succ_member,
                    owner_key: succ_key,
                    hops: hops + 1,
                });
            }
            let next = (0..ring.config.finger_bits).rev().find_map(|i| {
                let (fk, _) = ring.successor(cur_key.wrapping_add(1u128 << i))?;
                (fk != cur_key && crate::id::in_open_open(fk, cur_key, target)).then_some(fk)
            });
            hops += 1;
            let Some(nk) = next else {
                let (k, m) = ring.successor(target)?;
                return Some(LookupOutcome { owner: m, owner_key: k, hops });
            };
            cur_key = nk;
            if hops > max_hops {
                let (k, m) = ring.successor(target)?;
                return Some(LookupOutcome { owner: m, owner_key: k, hops: hops + 1 });
            }
        }
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

    #[test]
    fn finger_levels_inside_counts_probes_short_of_the_target() {
        assert_eq!(finger_levels_inside(1), 0, "nothing fits in a gap of one");
        assert_eq!(finger_levels_inside(2), 1, "2^0 < 2");
        assert_eq!(finger_levels_inside(4), 2, "2^2 is not < 4");
        assert_eq!(finger_levels_inside(5), 3);
        assert_eq!(finger_levels_inside(u128::MAX), 128);
        assert_eq!(finger_levels_inside(0), 128, "cur == target spans the ring");
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
