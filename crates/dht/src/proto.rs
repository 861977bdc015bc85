//! The message-passing control plane: catalog lookups and registrations
//! executed as routed messages on `sbon_netsim`'s deterministic
//! [`EventQueue`], instead of direct method calls on shared structures.
//!
//! # Message grammar
//!
//! The wire protocol is exactly five message kinds ([`ControlMsg`]):
//!
//! ```text
//! Lookup      querier → hop      "what is your routing step for key k?"
//! LookupReply hop → querier      Forward{next hop} | Answer{member}
//! Register    registrant → owner (member, coord, stamp) to apply
//! Unregister  registrant → owner (member, stamp) to drop
//! Ack         owner → registrant registration applied (or stale-rejected)
//! ```
//!
//! Lookups are **iterative and querier-driven** (classic Chord): the
//! querier contacts each hop directly, the hop answers from its *local*
//! routing state, and the querier follows the returned step. Each hop's
//! local state is its successor set plus Hilbert-greedy finger entries —
//! derived on demand from the shared [`DhtRing`] via `O(log n)` ordered
//! queries scoped to that hop's own key (`successor(key + 2^i)`), which is
//! exactly what a maintained finger table would contain on a quiescent
//! ring. No step ever scans the whole ring. Conceptually the `Lookup`
//! message also carries the target key and the querier's suspect list
//! (hops it has found unreachable); the simulator keeps both in the
//! pending-lookup table instead of re-serializing them per hop.
//!
//! Registrations go directly to the key's current owner (the registrant
//! resolves it from its local routing state) and are acknowledged; the
//! hop-by-hop cost of owner discovery is what the `Lookup` path measures.
//!
//! # Timeout / retry contract
//!
//! Every request send arms a sender-side retransmit timer. Attempt `k`
//! (1-based) times out after `timeout_ms · 2^(k-1)` — deterministic
//! exponential backoff. A reply cancels the timer (stale timers are
//! matched against a per-contact counter and ignored). After
//! `1 + max_retries` sends with no reply the peer is *suspected*: a
//! suspected lookup hop is excluded from all further routing steps of that
//! lookup and the querier re-routes from its own state; a registration
//! whose owner never answers is parked on a deferred list and re-sent by
//! [`RoutedCatalog::heal`]. Registrations resolve races by
//! last-writer-wins on a [`Stamp`] `(SimTime, seq)` pair — an apply
//! carrying an older stamp than the member's current registration is
//! detected as a stale read and rejected (counted, acknowledged,
//! idempotent), so duplicate deliveries from retries are harmless.
//!
//! # Determinism argument
//!
//! Runs are bit-reproducible because every source of ordering is
//! deterministic: the event queue pops by `(time, insertion seq)` (pinned
//! by `pop_until_loop_preserves_equal_time_insertion_order` in
//! `sbon_netsim`), link latencies come from the deterministic provider,
//! timeout schedules are pure functions of the config, suspect sets are
//! kept sorted, and per-lookup latency arithmetic happens in a fixed
//! order along each lookup's own message chain (concurrent lookups never
//! exchange state, so interleaving cannot change any per-lookup result).
//! On a quiescent, unpartitioned network the routed answer is *identical*
//! to the omniscient [`CoordinateCatalog`] answer by construction: the
//! owner answers through the catalog's own neighbourhood ranking (the
//! crate-internal `CoordinateCatalog::scan`), admitting the members it can
//! reach — with nobody severed, every member, which is the scan
//! [`CoordinateCatalog::lookup_closest_traced`] runs. There is one lookup
//! automaton — the queue-driven one above. Read-only parallel passes do
//! not route at all: they answer from the catalog through `sbon_core`'s
//! `MapperReadView`, and only the serial settle points replay lookups as
//! message traffic.

use std::collections::btree_map::{BTreeMap, Entry};

use sbon_hilbert::SpaceFillingCurve;
use sbon_netsim::sim::{EventQueue, SimTime};
use sbon_obs::Histogram;

use crate::catalog::CoordinateCatalog;
use crate::id::{in_open_closed, in_open_open};
use crate::ring::{DhtRing, MemberId, FINGER_BITS, MAX_HOPS};
use crate::RingKey;

/// Identifier of one in-flight (or completed) routed lookup.
pub type QueryId = u64;

/// Identifier of one in-flight routed registration.
pub type RegSeq = u64;

/// Per-link one-way latency in milliseconds. Implementations must be
/// symmetric and zero on the diagonal (self-contacts are free). A
/// non-finite value means the receiver is unreachable (a disconnected
/// underlay): the message is dropped, like one crossing a partition.
pub type LinkFn<'a> = dyn Fn(MemberId, MemberId) -> f64 + 'a;

/// Timeout / retry policy for the routed control plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtoConfig {
    /// Base retransmit timeout for attempt 1; attempt `k` waits
    /// `timeout_ms · 2^(k-1)`. Must exceed the worst-case round trip or
    /// reachable peers will be spuriously retried.
    pub timeout_ms: f64,
    /// Retransmissions after the first send before a peer is suspected
    /// (so `1 + max_retries` sends total).
    pub max_retries: u32,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        // 3 s is far above any simulated WAN round trip, so on a healthy
        // network the timer never fires; partitioned peers are suspected
        // after 3 s + 6 s + 12 s + 24 s = 45 s of simulated backoff.
        ProtoConfig { timeout_ms: 3_000.0, max_retries: 3 }
    }
}

impl ProtoConfig {
    /// The one validity check, run by [`RoutedCatalog::from_catalog`] and
    /// by the runtime's config builder; `field` is where the caller keeps
    /// this config (`"proto"`, `"mapper_backend.proto"`).
    ///
    /// # Panics
    ///
    /// Naming the field and the value, if `timeout_ms` is not finite and
    /// positive (NaN or ∞ dies at the first send, a negative one inside the
    /// event queue, and zero fires every retransmit timer at its send's
    /// instant), or if the longest backoff it arms, `timeout_ms ·
    /// 2^min(max_retries, 10)`, is not finite (it would die at the first
    /// retransmit that reaches it).
    pub fn validate(&self, field: &str) {
        let t = self.timeout_ms;
        assert!(
            t.is_finite() && t > 0.0,
            "{field}.timeout_ms must be finite and positive, got {t}"
        );
        let longest = self.backoff_ms(self.max_retries.saturating_add(1));
        assert!(
            longest.is_finite(),
            "{field}.timeout_ms must keep the longest backoff finite under max_retries {}, \
             got {t:e} (backoff {longest})",
            self.max_retries
        );
    }

    /// The retransmit delay armed for attempt `k` (1-based).
    fn backoff_ms(&self, attempt: u32) -> f64 {
        self.timeout_ms * (1u64 << attempt.saturating_sub(1).min(10)) as f64
    }
}

/// Last-writer-wins registration stamp: simulated send time plus a
/// process-wide sequence number to break exact-time ties.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stamp {
    /// Simulated time the registration was issued, in milliseconds.
    pub time_ms: f64,
    /// Tie-break sequence (monotone per catalog).
    pub seq: u64,
}

impl Stamp {
    /// Strict "newer than" in `(time, seq)` lexicographic order. Times are
    /// finite (they come off the event clock), so `total_cmp` agrees with
    /// numeric order.
    pub fn newer_than(self, other: Stamp) -> bool {
        self.time_ms.total_cmp(&other.time_ms).then_with(|| self.seq.cmp(&other.seq)).is_gt()
    }
}

/// One routing step returned by a contacted hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupStep {
    /// The hop does not own the key: contact `member` next (its closest
    /// preceding finger, its successor, or the key's direct successor).
    Forward {
        /// Ring key of the next hop.
        key: RingKey,
        /// The next hop to contact.
        member: MemberId,
    },
    /// The hop owns the key and answers from its neighborhood, through
    /// the catalog's ranking.
    Answer {
        /// The registered member closest to the target in cost space
        /// among the neighborhood members the owner can reach.
        member: MemberId,
        /// Reachable neighborhood members the owner ranked.
        candidates: u32,
    },
}

/// The control-plane wire grammar. See the [module docs](self) for the
/// full protocol; payload fields that a real deployment would serialize
/// but the simulator keeps in its pending tables (target key, suspect
/// hints, coordinates, stamps) are noted per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlMsg {
    /// Routing/lookup request from the querier, delivered at `at`. On the
    /// wire this also carries the target key and the querier's suspect
    /// hints.
    Lookup {
        /// The lookup this request belongs to.
        query: QueryId,
        /// The hop being contacted.
        at: MemberId,
    },
    /// A hop's reply travelling back to the querier.
    LookupReply {
        /// The lookup this reply belongs to.
        query: QueryId,
        /// The hop that produced the step.
        from: MemberId,
        /// The routing step or final answer.
        step: LookupStep,
    },
    /// Registration request travelling to the key's owner. On the wire
    /// this also carries the coordinate and the [`Stamp`].
    Register {
        /// The registration this request belongs to.
        reg: RegSeq,
        /// The resolved owner it is addressed to.
        owner: MemberId,
    },
    /// Unregistration request travelling to the departing member's
    /// successor. Carries the stamp on the wire.
    Unregister {
        /// The registration this request belongs to.
        reg: RegSeq,
        /// The resolved owner it is addressed to.
        owner: MemberId,
    },
    /// Owner's acknowledgement travelling back to the registrant.
    Ack {
        /// The registration being acknowledged.
        reg: RegSeq,
        /// The registrant it returns to.
        to: MemberId,
    },
}

/// Queue payload: a delivered wire message or a sender-local retransmit
/// timer (timers are clock events at the sender, not network messages, so
/// they live outside the [`ControlMsg`] grammar).
#[derive(Clone, Debug)]
enum Event {
    Deliver(ControlMsg),
    LookupTimer { query: QueryId, contact: u32, attempt: u32 },
    RegTimer { reg: RegSeq, attempt: u32 },
}

/// The completed record of one routed lookup: the answer plus every cost
/// the querier experienced obtaining it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedLookup {
    /// The member answered: the catalog's neighbourhood ranking over the
    /// members the owner can reach (so the omniscient catalog's answer on
    /// a quiescent, unpartitioned network).
    pub member: MemberId,
    /// Completed round trips (0 when the querier owned the key itself).
    pub hops: u32,
    /// Control messages sent on this lookup's behalf.
    pub messages: u64,
    /// Retransmissions after first sends.
    pub retries: u64,
    /// Retransmit timers that fired.
    pub timeouts: u64,
    /// Experienced wall latency in simulated milliseconds: issue time to
    /// final answer delivery, including every timeout the querier waited
    /// out.
    pub latency_ms: f64,
    /// Reachable neighborhood members the answering owner ranked.
    pub candidates: u32,
}

/// Aggregated control-plane traffic statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutedStats {
    /// Completed routed lookups.
    pub lookups: u64,
    /// Issued routed registrations (including cost-only refreshes).
    pub registrations: u64,
    /// Issued routed unregistrations.
    pub unregistrations: u64,
    /// Control messages sent (requests, replies, acks).
    pub messages: u64,
    /// Retransmit timers that fired.
    pub timeouts: u64,
    /// Retransmissions after first sends.
    pub retries: u64,
    /// Registration applies rejected as stale by last-writer-wins.
    pub stale_rejected: u64,
    /// Registrations parked for [`RoutedCatalog::heal`] after exhausting
    /// retries against an unreachable owner.
    pub deferred: u64,
    /// Round trips per completed lookup (exact samples; the legacy
    /// `hop_histogram[h]` view is [`RoutedStats::hop_histogram`]).
    pub hops: Histogram,
    /// Experienced per-lookup latency in simulated milliseconds, in
    /// completion order.
    pub latency_ms: Histogram,
}

impl RoutedStats {
    fn record_lookup(&mut self, done: &RoutedLookup) {
        self.lookups += 1;
        self.messages += done.messages;
        self.timeouts += done.timeouts;
        self.retries += done.retries;
        self.hops.record(done.hops as f64);
        self.latency_ms.record(done.latency_ms);
    }

    /// `hop_histogram[h]` = completed lookups that took `h` round trips
    /// (the pre-`sbon_obs` representation, derived from the exact samples).
    pub fn hop_histogram(&self) -> Vec<u64> {
        self.hops.unit_counts()
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) of experienced lookup
    /// latency; `None` before the first completed lookup.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        self.latency_ms.quantile_nearest_rank(q)
    }

    /// Median experienced lookup latency.
    pub fn p50_latency_ms(&self) -> Option<f64> {
        self.latency_percentile_ms(0.50)
    }

    /// Tail experienced lookup latency.
    pub fn p99_latency_ms(&self) -> Option<f64> {
        self.latency_percentile_ms(0.99)
    }

    /// Mean hops per completed lookup.
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        // Hop counts are small integers, so the f64 sum is exact and this
        // equals the historical `Σ h · hop_histogram[h] / lookups`.
        self.hops.sum() / self.lookups as f64
    }
}

/// One-paragraph human-readable summary of the experienced control traffic
/// (used by the examples in place of hand-rolled printing).
impl std::fmt::Display for RoutedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lookups, {} registrations, {} unregistrations over {} messages; \
             experienced latency p50 {:.1} ms, p99 {:.1} ms; {:.1} hops/lookup; \
             {} timeouts -> {} retries, {} deferred, {} stale-rejected",
            self.lookups,
            self.registrations,
            self.unregistrations,
            self.messages,
            self.p50_latency_ms().unwrap_or(0.0),
            self.p99_latency_ms().unwrap_or(0.0),
            self.mean_hops(),
            self.timeouts,
            self.retries,
            self.deferred,
            self.stale_rejected,
        )
    }
}

/// Querier-side routing decision computed from a member's local state.
enum Step {
    /// The member at `at_key` owns the target and should answer.
    Owns,
    /// Forward to this entry.
    Forward { key: RingKey, member: MemberId },
}

struct PendingLookup {
    origin: MemberId,
    origin_key: RingKey,
    target_key: RingKey,
    target: Vec<f64>,
    current: MemberId,
    current_key: RingKey,
    /// Monotone per-lookup contact counter — retransmit timers match on it
    /// so a timer armed for an abandoned contact can never fire against a
    /// later one.
    contact: u32,
    attempt: u32,
    suspects: Vec<RingKey>,
    hops: u32,
    messages: u64,
    retries: u64,
    timeouts: u64,
    started: f64,
}

#[derive(Clone, Debug, PartialEq)]
enum RegOp {
    /// Apply this coordinate at the owner (last-writer-wins).
    Register(Vec<f64>),
    /// Drop the member's registration at the owner (last-writer-wins).
    Unregister,
    /// Cost-only refresh: the state is already applied (the runtime's
    /// synchronous path); only the message traffic is simulated.
    Refresh,
}

struct PendingReg {
    member: MemberId,
    op: RegOp,
    key: RingKey,
    owner: MemberId,
    stamp: Stamp,
    attempt: u32,
}

/// A [`CoordinateCatalog`] whose control traffic is executed as routed
/// messages over the simulated underlay. See the [module docs](self).
pub struct RoutedCatalog<C: SpaceFillingCurve> {
    catalog: CoordinateCatalog<C>,
    queue: EventQueue<Event>,
    config: ProtoConfig,
    pending_lookups: BTreeMap<QueryId, PendingLookup>,
    pending_regs: BTreeMap<RegSeq, PendingReg>,
    deferred: Vec<PendingReg>,
    /// `stamps[member]` = stamp of the member's applied registration.
    stamps: Vec<Option<Stamp>>,
    /// `severed[member]` = true while the member is on the severed side of
    /// the partition. Messages crossing the boundary are dropped.
    severed: Vec<bool>,
    next_query: QueryId,
    next_seq: u64,
    stats: RoutedStats,
    completed: Vec<(QueryId, RoutedLookup)>,
}

impl<C: SpaceFillingCurve> RoutedCatalog<C> {
    /// Wraps an already-populated catalog (bootstrap registrations are part
    /// of deployment, not runtime message traffic).
    pub fn from_catalog(catalog: CoordinateCatalog<C>, config: ProtoConfig) -> Self {
        config.validate("proto");
        RoutedCatalog {
            catalog,
            queue: EventQueue::new(),
            config,
            pending_lookups: BTreeMap::new(),
            pending_regs: BTreeMap::new(),
            deferred: Vec::new(),
            stamps: Vec::new(),
            severed: Vec::new(),
            next_query: 0,
            next_seq: 0,
            stats: RoutedStats::default(),
            completed: Vec::new(),
        }
    }

    /// The authoritative catalog state.
    pub fn catalog(&self) -> &CoordinateCatalog<C> {
        &self.catalog
    }

    /// Mutable catalog access for the runtime's synchronous paths
    /// (bootstrap, read-view stat charging). Registrations applied here
    /// bypass the protocol — pair with [`RoutedCatalog::enqueue_refresh`]
    /// to charge their message cost.
    pub fn catalog_mut(&mut self) -> &mut CoordinateCatalog<C> {
        &mut self.catalog
    }

    /// Aggregated traffic statistics.
    pub fn stats(&self) -> &RoutedStats {
        &self.stats
    }

    /// Current simulated control-plane time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// True when no messages, timers, or unflushed registrations are
    /// outstanding (deferred registrations wait for [`RoutedCatalog::heal`]
    /// and do not count).
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty() && self.pending_lookups.is_empty() && self.pending_regs.is_empty()
    }

    /// Directly applies a registration with a fresh stamp, bypassing the
    /// message protocol — the runtime's synchronous path (bootstrap and
    /// tick-quiescent churn), which keeps catalog evolution bit-identical
    /// to the omniscient backend. Returns the key pair the catalog reports.
    /// The stamp advances only once the coordinate is in: one that cannot
    /// be keyed panics with nothing mutated.
    pub fn register_direct(
        &mut self,
        member: MemberId,
        coord: &[f64],
    ) -> (Option<RingKey>, RingKey) {
        let keys = self.catalog.insert(member, coord);
        let stamp = self.fresh_stamp();
        self.set_stamp(member, stamp);
        keys
    }

    /// Directly removes a registration with a fresh stamp (synchronous
    /// path). Returns the key the member held.
    pub fn remove_direct(&mut self, member: MemberId) -> Option<RingKey> {
        let stamp = self.fresh_stamp();
        self.set_stamp(member, stamp);
        self.catalog.remove(member)
    }

    /// Marks `members` as severed: every message between a severed and an
    /// unsevered member is dropped until [`RoutedCatalog::heal`].
    pub fn sever(&mut self, members: impl IntoIterator<Item = MemberId>) {
        for m in members {
            let idx = m as usize;
            if self.severed.len() <= idx {
                self.severed.resize(idx + 1, false);
            }
            self.severed[idx] = true;
        }
    }

    /// True while `member` sits on the severed side.
    pub fn is_severed(&self, member: MemberId) -> bool {
        self.severed.get(member as usize).copied().unwrap_or(false)
    }

    /// Heals the partition and re-sends every deferred registration (with
    /// its original stamp, so anything re-registered since the deferral
    /// wins by last-writer-wins). Returns how many were flushed.
    pub fn heal(&mut self, at: SimTime, link: &LinkFn) -> usize {
        self.severed.clear();
        let deferred = std::mem::take(&mut self.deferred);
        let flushed = deferred.len();
        let at = self.clamp(at);
        for mut p in deferred {
            // Re-resolve the owner: the ring may have changed while the
            // registration was parked.
            if let Some(owner) = self.owner_of(&p.op, p.key) {
                p.owner = owner;
                p.attempt = 1;
                let reg = self.next_seq;
                self.next_seq += 1;
                self.send_reg(reg, p, at, link);
            }
        }
        flushed
    }

    fn fresh_stamp(&mut self) -> Stamp {
        let stamp = Stamp { time_ms: self.queue.now().millis(), seq: self.next_seq };
        self.next_seq += 1;
        stamp
    }

    fn set_stamp(&mut self, member: MemberId, stamp: Stamp) {
        let idx = member as usize;
        if self.stamps.len() <= idx {
            self.stamps.resize(idx + 1, None);
        }
        self.stamps[idx] = Some(stamp);
    }

    fn stamp_of(&self, member: MemberId) -> Option<Stamp> {
        self.stamps.get(member as usize).copied().flatten()
    }

    fn reachable(&self, a: MemberId, b: MemberId) -> bool {
        self.is_severed(a) == self.is_severed(b)
    }

    fn clamp(&self, at: SimTime) -> SimTime {
        SimTime(at.millis().max(self.queue.now().millis()))
    }

    /// Issues a routed lookup of `target` from `origin` at simulated time
    /// `at` (clamped to the queue clock). The result is delivered by
    /// [`RoutedCatalog::run_to_quiescence`]. `None` when the catalog is
    /// empty or `origin` is not registered.
    pub fn lookup_routed(
        &mut self,
        origin: MemberId,
        target: &[f64],
        at: SimTime,
        link: &LinkFn,
    ) -> Option<QueryId> {
        let origin_key = self.catalog.registered_key(origin)?;
        let target_key = self.catalog.key_of(target);
        let at = self.clamp(at);
        let query = self.next_query;
        self.next_query += 1;
        let p = PendingLookup {
            origin,
            origin_key,
            target_key,
            target: target.to_vec(),
            current: origin,
            current_key: origin_key,
            contact: 0,
            attempt: 0,
            suspects: Vec::new(),
            hops: 0,
            messages: 0,
            retries: 0,
            timeouts: 0,
            started: at.millis(),
        };
        self.route(query, p, None, at, link);
        Some(query)
    }

    /// Issues a routed registration of `coord` for `member`: the coordinate
    /// is applied at the owner *when the `Register` message is delivered*
    /// (last-writer-wins on the issue-time stamp), not synchronously.
    pub fn register_routed(
        &mut self,
        member: MemberId,
        coord: Vec<f64>,
        at: SimTime,
        link: &LinkFn,
    ) -> Option<RegSeq> {
        let key = self.catalog.key_of(&coord);
        self.issue_reg(member, RegOp::Register(coord), key, at, link)
    }

    /// Issues a routed unregistration for `member` (applied at delivery,
    /// last-writer-wins). `None` when the member is not registered.
    pub fn unregister_routed(
        &mut self,
        member: MemberId,
        at: SimTime,
        link: &LinkFn,
    ) -> Option<RegSeq> {
        let key = self.catalog.registered_key(member)?;
        self.issue_reg(member, RegOp::Unregister, key, at, link)
    }

    /// Charges the message cost of a registration that was already applied
    /// synchronously via [`RoutedCatalog::register_direct`] — a `Register`
    /// / `Ack` round trip to the owner of the member's registered key,
    /// with the full timeout/retry contract but no state change.
    pub fn enqueue_refresh(
        &mut self,
        member: MemberId,
        at: SimTime,
        link: &LinkFn,
    ) -> Option<RegSeq> {
        let key = self.catalog.registered_key(member)?;
        self.issue_reg(member, RegOp::Refresh, key, at, link)
    }

    /// The owner a registrant resolves from its local routing state for a
    /// registration under `key`: the key's live successor. A departing
    /// member excludes itself.
    fn owner_of(&self, op: &RegOp, key: RingKey) -> Option<MemberId> {
        let own = [key];
        let excl = if matches!(op, RegOp::Unregister) { &own[..] } else { &[][..] };
        first_live(self.catalog.ring(), key.wrapping_add(1), excl).map(|(_, owner)| owner)
    }

    fn issue_reg(
        &mut self,
        member: MemberId,
        op: RegOp,
        key: RingKey,
        at: SimTime,
        link: &LinkFn,
    ) -> Option<RegSeq> {
        let at = self.clamp(at);
        let stamp = Stamp { time_ms: at.millis(), seq: self.next_seq };
        self.next_seq += 1;
        let owner = self.owner_of(&op, key)?;
        match op {
            RegOp::Unregister => self.stats.unregistrations += 1,
            RegOp::Register(_) | RegOp::Refresh => self.stats.registrations += 1,
        }
        let reg = self.next_seq;
        self.next_seq += 1;
        self.send_reg(reg, PendingReg { member, op, key, owner, stamp, attempt: 1 }, at, link);
        Some(reg)
    }

    /// Puts `msg` on the wire from `from` to `to` at time `at`. A message
    /// crossing the partition boundary, or priced non-finite by `link`, is
    /// dropped: paid for by its sender, never delivered. The sender's
    /// retransmit timer then retries, suspects, reroutes or defers.
    fn send(&mut self, at: SimTime, from: MemberId, to: MemberId, msg: ControlMsg, link: &LinkFn) {
        if !self.reachable(from, to) {
            return;
        }
        let delay = link(from, to);
        if delay.is_finite() {
            self.queue.schedule(at.after(delay), Event::Deliver(msg));
        }
    }

    /// Sends (or retransmits) a lookup's request to its current hop, arms
    /// the retransmit timer of `p.attempt`, and files the lookup as pending.
    fn send_lookup(&mut self, query: QueryId, mut p: PendingLookup, at: SimTime, link: &LinkFn) {
        p.messages += 1;
        self.send(at, p.origin, p.current, ControlMsg::Lookup { query, at: p.current }, link);
        self.queue.schedule(
            at.after(self.config.backoff_ms(p.attempt)),
            Event::LookupTimer { query, contact: p.contact, attempt: p.attempt },
        );
        self.pending_lookups.insert(query, p);
    }

    /// Sends (or retransmits) a registration's request to its resolved
    /// owner, arms the retransmit timer of `p.attempt`, and files the
    /// registration as pending.
    fn send_reg(&mut self, reg: RegSeq, p: PendingReg, at: SimTime, link: &LinkFn) {
        self.stats.messages += 1;
        let msg = match p.op {
            RegOp::Unregister => ControlMsg::Unregister { reg, owner: p.owner },
            _ => ControlMsg::Register { reg, owner: p.owner },
        };
        self.send(at, p.member, p.owner, msg, link);
        self.queue.schedule(
            at.after(self.config.backoff_ms(p.attempt)),
            Event::RegTimer { reg, attempt: p.attempt },
        );
        self.pending_regs.insert(reg, p);
    }

    /// Drives the queue until no message or timer is outstanding, handling
    /// each event with the live `link` latencies, and returns the lookups
    /// completed since the last drain (in completion order).
    pub fn run_to_quiescence(&mut self, link: &LinkFn) -> Vec<(QueryId, RoutedLookup)> {
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Event::Deliver(msg) => self.deliver(t, msg, link),
                Event::LookupTimer { query, contact, attempt } => {
                    self.lookup_timer(t, query, contact, attempt, link)
                }
                Event::RegTimer { reg, attempt } => self.reg_timer(t, reg, attempt, link),
            }
        }
        std::mem::take(&mut self.completed)
    }

    fn deliver(&mut self, t: SimTime, msg: ControlMsg, link: &LinkFn) {
        match msg {
            ControlMsg::Lookup { query, at } => {
                let Some(p) = self.pending_lookups.get(&query) else { return };
                if p.current != at {
                    return; // stale delivery from an abandoned retransmit
                }
                let step = match member_step(
                    self.catalog.ring(),
                    p.current_key,
                    p.target_key,
                    &p.suspects,
                ) {
                    Some(Step::Owns) => {
                        let (member, candidates) = self.answer_at(at, p.target_key, &p.target);
                        LookupStep::Answer { member, candidates }
                    }
                    Some(Step::Forward { key, member }) => LookupStep::Forward { key, member },
                    None => return,
                };
                let p = self.pending_lookups.get_mut(&query).expect("checked above");
                p.messages += 1;
                let origin = p.origin;
                self.send(t, at, origin, ControlMsg::LookupReply { query, from: at, step }, link);
            }
            ControlMsg::LookupReply { query, from, step } => {
                let Entry::Occupied(e) = self.pending_lookups.entry(query) else { return };
                if e.get().current != from {
                    return;
                }
                let mut p = e.remove();
                p.hops += 1;
                match step {
                    LookupStep::Answer { member, candidates } => {
                        self.complete(query, &p, (member, candidates), t)
                    }
                    LookupStep::Forward { key, member } => {
                        self.route(query, p, Some((key, member)), t, link)
                    }
                }
            }
            ControlMsg::Register { reg, owner } | ControlMsg::Unregister { reg, owner } => {
                let Some(p) = self.pending_regs.get(&reg) else { return };
                let (member, op, stamp) = (p.member, p.op.clone(), p.stamp);
                let stale = self.stamp_of(member).is_some_and(|cur| cur.newer_than(stamp));
                if stale {
                    self.stats.stale_rejected += 1;
                } else {
                    match op {
                        // The stamp advances only once the coordinate is in
                        // (see `register_direct`).
                        RegOp::Register(coord) => {
                            self.catalog.insert(member, &coord);
                            self.set_stamp(member, stamp);
                        }
                        RegOp::Unregister => {
                            self.catalog.remove(member);
                            self.set_stamp(member, stamp);
                        }
                        RegOp::Refresh => {}
                    }
                }
                self.stats.messages += 1;
                self.send(t, owner, member, ControlMsg::Ack { reg, to: member }, link);
            }
            ControlMsg::Ack { reg, .. } => {
                self.pending_regs.remove(&reg);
            }
        }
    }

    fn lookup_timer(
        &mut self,
        t: SimTime,
        query: QueryId,
        contact: u32,
        attempt: u32,
        link: &LinkFn,
    ) {
        let Entry::Occupied(e) = self.pending_lookups.entry(query) else { return };
        if e.get().contact != contact || e.get().attempt != attempt {
            return; // a reply (or later retransmit) superseded this timer
        }
        let mut p = e.remove();
        p.timeouts += 1;
        if attempt <= self.config.max_retries {
            // Retransmit to the same hop with doubled timeout.
            p.attempt = attempt + 1;
            p.retries += 1;
            self.send_lookup(query, p, t, link);
        } else {
            // Retries exhausted: suspect the hop and re-route from the
            // querier's own state.
            if let Err(pos) = p.suspects.binary_search(&p.current_key) {
                p.suspects.insert(pos, p.current_key);
            }
            self.route(query, p, None, t, link);
        }
    }

    fn reg_timer(&mut self, t: SimTime, reg: RegSeq, attempt: u32, link: &LinkFn) {
        let Entry::Occupied(e) = self.pending_regs.entry(reg) else { return };
        if e.get().attempt != attempt {
            return;
        }
        let mut p = e.remove();
        self.stats.timeouts += 1;
        if attempt <= self.config.max_retries {
            p.attempt = attempt + 1;
            self.stats.retries += 1;
            self.send_reg(reg, p, t, link);
        } else {
            self.stats.deferred += 1;
            self.deferred.push(p);
        }
    }

    /// Advances lookup `query` at time `t`: contacts the next hop
    /// ([`Self::choose_contact`]) as attempt 1 of a new contact, or — when
    /// the querier owns the key itself — answers locally with no traffic.
    fn route(
        &mut self,
        query: QueryId,
        mut p: PendingLookup,
        hint: Option<(RingKey, MemberId)>,
        t: SimTime,
        link: &LinkFn,
    ) {
        match self.choose_contact(&p, hint) {
            None => {
                let answer = self.answer_at(p.origin, p.target_key, &p.target);
                self.complete(query, &p, answer, t);
            }
            Some((key, member)) => {
                p.current = member;
                p.current_key = key;
                p.contact += 1;
                p.attempt = 1;
                self.send_lookup(query, p, t, link);
            }
        }
    }

    /// Closes lookup `query` at time `t` with the owner-side `answer`
    /// `(member, candidates)`: the one place a [`RoutedLookup`] is made,
    /// counted, and queued for [`RoutedCatalog::run_to_quiescence`].
    fn complete(&mut self, query: QueryId, p: &PendingLookup, answer: (MemberId, u32), t: SimTime) {
        let (member, candidates) = answer;
        let done = RoutedLookup {
            member,
            hops: p.hops,
            messages: p.messages,
            retries: p.retries,
            timeouts: p.timeouts,
            latency_ms: t.millis() - p.started,
            candidates,
        };
        self.stats.record_lookup(&done);
        self.completed.push((query, done));
    }

    /// Querier-side choice of the next hop to contact. `hint` is the
    /// forward step from the last reply (`None` when starting or
    /// re-routing from the querier's own state). `None` result = the
    /// querier owns the key and answers locally.
    fn choose_contact(
        &self,
        p: &PendingLookup,
        hint: Option<(RingKey, MemberId)>,
    ) -> Option<(RingKey, MemberId)> {
        if p.hops >= MAX_HOPS {
            // Termination backstop, mirroring `DhtRing::lookup`: contact
            // the key's live successor directly — it owns by construction.
            return Some(
                first_live(self.catalog.ring(), p.target_key, &p.suspects)
                    .expect("querier itself is always live"),
            );
        }
        if let Some(h) = hint {
            return Some(h);
        }
        match member_step(self.catalog.ring(), p.origin_key, p.target_key, &p.suspects)? {
            Step::Owns => None,
            Step::Forward { key, member } => Some((key, member)),
        }
    }

    /// The owner-side answer `(member, candidates)`: the catalog's own
    /// neighbourhood ranking ([`CoordinateCatalog::scan`]) of `target_key`,
    /// admitting only the members the answerer can reach. With nobody
    /// severed it admits every member — the omniscient lookup's scan.
    fn answer_at(
        &self,
        answerer: MemberId,
        target_key: RingKey,
        target: &[f64],
    ) -> (MemberId, u32) {
        let scan = self.catalog.scan(target_key, target, |m| self.reachable(answerer, m));
        // Degenerate: nothing reachable in the neighbourhood — the answerer
        // vouches for itself.
        scan.map_or((answerer, 0), |(member, admitted, _)| (member, admitted as u32))
    }
}

/// The first live (non-excluded) ring entry clockwise from `from`
/// (inclusive). `excl` must be sorted. `None` only when every member is
/// excluded or the ring is empty.
fn first_live(ring: &DhtRing, from: RingKey, excl: &[RingKey]) -> Option<(RingKey, MemberId)> {
    let mut probe = from;
    for _ in 0..=excl.len() {
        let (k, m) = ring.successor(probe)?;
        if excl.binary_search(&k).is_err() {
            return Some((k, m));
        }
        probe = k.wrapping_add(1);
    }
    None
}

/// The routing decision the member at `at_key` makes about `target` from
/// its local state (live successor + Hilbert-greedy fingers), excluding
/// suspected keys. Mirrors the loop body of `DhtRing::lookup` exactly
/// when `excl` is empty: successor-ownership check, then the largest
/// finger strictly inside `(at, target)`, then the target's direct
/// successor.
fn member_step(ring: &DhtRing, at_key: RingKey, target: RingKey, excl: &[RingKey]) -> Option<Step> {
    // Ownership: am I the target's first live successor?
    let (owner_key, owner_member) = first_live(ring, target, excl)?;
    if owner_key == at_key {
        return Some(Step::Owns);
    }
    // Chord: if target ∈ (me, successor] the successor owns it.
    let (succ_key, succ_member) = first_live(ring, at_key.wrapping_add(1), excl)?;
    if in_open_closed(target, at_key, succ_key) {
        return Some(Step::Forward { key: succ_key, member: succ_member });
    }
    // Largest finger strictly inside (me, target). Every level is probed:
    // `DhtRing::lookup` skips the levels that reach past the target because
    // its `cur` is a ring member and closes the arc behind such a probe, but
    // `at_key` need not be — it is excluded once suspected, and gone from the
    // ring if a registration re-keyed the member mid-flight — and then a far
    // probe's live successor can wrap round into (me, target).
    for i in (0..FINGER_BITS).rev() {
        let probe = at_key.wrapping_add(1u128 << i);
        let (fk, fm) = first_live(ring, probe, excl)?;
        if fk != at_key && in_open_open(fk, at_key, target) {
            return Some(Step::Forward { key: fk, member: fm });
        }
    }
    // No finger precedes the target: its live successor is the owner.
    Some(Step::Forward { key: owner_key, member: owner_member })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sbon_hilbert::{HilbertCurve, Quantizer};
    use sbon_netsim::latency::euclidean;
    use sbon_netsim::rng::rng_from_seed;

    fn unit_catalog(scan: usize) -> CoordinateCatalog<HilbertCurve> {
        CoordinateCatalog::new(
            HilbertCurve::new(2, 8),
            Quantizer::new(vec![0.0, 0.0], vec![1.0, 1.0], 8),
            scan,
        )
    }

    fn populated(n: u32, seed: u64, scan: usize) -> RoutedCatalog<HilbertCurve> {
        let mut rng = rng_from_seed(seed);
        let mut routed = RoutedCatalog::from_catalog(unit_catalog(scan), ProtoConfig::default());
        for m in 0..n {
            routed.register_direct(m, &[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        routed
    }

    /// A finite timeout whose doubling overflows used to pass and then die
    /// in `SimTime::after` at the first retransmit after a dropped message.
    #[test]
    #[should_panic(expected = "proto.timeout_ms must keep the longest backoff finite \
                               under max_retries 3, got 1e308 (backoff inf)")]
    fn from_catalog_rejects_a_timeout_whose_backoff_overflows() {
        let config = ProtoConfig { timeout_ms: 1e308, ..ProtoConfig::default() };
        RoutedCatalog::from_catalog(unit_catalog(4), config);
    }

    /// Deterministic synthetic link latency: symmetric, zero diagonal.
    fn link(a: MemberId, b: MemberId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        5.0 + ((lo * 2_654_435_761 + hi * 40_503) % 90) as f64
    }

    #[test]
    fn routed_answer_matches_omniscient_on_quiescent_network() {
        let mut rng = rng_from_seed(3);
        let mut routed = populated(200, 3, 8);
        for trial in 0..150 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let origin = rng.gen_range(0..200);
            let omniscient = routed.catalog().lookup_closest_traced(&target).unwrap();
            let q = routed.lookup_routed(origin, &target, SimTime::ZERO, &link).unwrap();
            let done = routed.run_to_quiescence(&link);
            let (qid, res) = done.last().copied().unwrap();
            assert_eq!(qid, q);
            assert_eq!(res.member, omniscient.member, "trial {trial} origin {origin}");
            assert_eq!(res.retries, 0, "healthy network must not retry");
            assert!(res.hops == 0 || res.latency_ms > 0.0);
        }
        assert!(routed.is_quiescent());
        assert_eq!(routed.stats().lookups, 150);
        assert_eq!(routed.stats().timeouts, 0);
    }

    /// Under a partition the routed answer must come from the querier's
    /// side: the owner ranks only the neighbourhood members it can reach.
    #[test]
    fn partitioned_lookup_answers_from_the_queriers_side() {
        let mut rng = rng_from_seed(5);
        for trial in 0..20 {
            let mut routed = populated(80, 100 + trial, 6);
            let severed: Vec<MemberId> = (0..80).filter(|_| rng.gen_bool(0.3)).collect();
            if severed.len() == 80 {
                continue;
            }
            routed.sever(severed.iter().copied());
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let origin = rng.gen_range(0..80);
            let at = routed.now();
            routed.lookup_routed(origin, &target, at, &link).unwrap();
            let (_, queued) = routed.run_to_quiescence(&link).last().copied().unwrap();
            assert_eq!(
                routed.is_severed(queued.member),
                routed.is_severed(origin),
                "trial {trial} origin {origin}: answer must come from the querier's side"
            );
        }
        // Severed: the member that wins the unfiltered ranking. The answer
        // is the ranking over the reachable neighbourhood members, and only
        // they are counted.
        let mut routed = populated(80, 99, 6);
        let target = [0.4, 0.6];
        let key = routed.catalog().key_of(&target);
        let winner = routed.catalog().lookup_closest_traced(&target).unwrap().member;
        routed.sever([winner]);
        let hood = routed.catalog().ring().walk_outward(key, 6);
        let reachable: Vec<MemberId> = hood.map(|(_, m)| m).filter(|&m| m != winner).collect();
        assert_eq!(reachable.len(), 5, "the severed winner sits in the neighbourhood");
        let dist = |m| euclidean(routed.catalog().coord_of(m).unwrap(), &target);
        let expected = reachable.iter().copied().min_by(|&a, &b| dist(a).total_cmp(&dist(b)));
        let origin = if winner == 0 { 1 } else { 0 };
        routed.lookup_routed(origin, &target, routed.now(), &link).unwrap();
        let (_, res) = routed.run_to_quiescence(&link).last().copied().unwrap();
        assert_eq!(Some(res.member), expected);
        assert_eq!(res.candidates, 5);
    }

    #[test]
    fn local_owner_answers_with_zero_messages() {
        let mut routed = populated(40, 6, 4);
        // Look up a member's own coordinate from that member: it owns its
        // own key (exact hit) and answers locally.
        let coord: Vec<f64> = routed.catalog().coord_of(7).unwrap().to_vec();
        routed.lookup_routed(7, &coord, SimTime::ZERO, &link).unwrap();
        let (_, res) = routed.run_to_quiescence(&link).last().copied().unwrap();
        assert_eq!(res.hops, 0);
        assert_eq!(res.messages, 0);
        assert_eq!(res.latency_ms, 0.0);
        assert_eq!(res.member, 7);
    }

    #[test]
    fn registration_race_resolves_last_writer_wins() {
        let mut routed = populated(30, 7, 4);
        // Two racing re-registrations for member 5: the older stamp is
        // issued first but (with a huge first-hop latency) arrives after
        // the newer one. LWW must keep the newer coordinate and count a
        // stale rejection for the straggler.
        let old_coord = vec![0.1, 0.1];
        let new_coord = vec![0.9, 0.9];
        let slow_link =
            |a: MemberId, b: MemberId| if a == 5 || b == 5 { 500.0 } else { link(a, b) };
        routed.register_routed(5, old_coord, SimTime(0.0), &slow_link).unwrap();
        routed.register_routed(5, new_coord.clone(), SimTime(1.0), &link).unwrap();
        routed.run_to_quiescence(&link);
        assert!(routed.is_quiescent());
        assert_eq!(routed.catalog().coord_of(5).unwrap(), new_coord.as_slice());
        assert_eq!(routed.stats().stale_rejected, 1);
    }

    #[test]
    fn duplicate_register_delivery_is_idempotent() {
        let mut routed = populated(20, 8, 4);
        let before = routed.catalog().registered_key(3);
        // A refresh exercises the Register/Ack path without state change.
        routed.enqueue_refresh(3, SimTime::ZERO, &link).unwrap();
        routed.run_to_quiescence(&link);
        assert_eq!(routed.catalog().registered_key(3), before);
        assert_eq!(routed.stats().messages, 2, "Register + Ack");
        assert!(routed.is_quiescent());
    }

    #[test]
    fn severed_lookup_fails_over_and_reconverges_after_heal() {
        let mut rng = rng_from_seed(9);
        let mut routed = populated(100, 9, 8);
        // Sever members 0..30. A lookup from the severed side whose
        // omniscient answer is unsevered must fail over to a severed
        // member, paying timeouts.
        routed.sever(0..30);
        let mut exercised = false;
        for _ in 0..40 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            // Pick a target whose ring owner sits across the partition, so
            // the querier is guaranteed to suspect it.
            let key = routed.catalog().key_of(&target);
            let owner = first_live(routed.catalog().ring(), key, &[]).unwrap().1;
            if owner < 30 {
                continue;
            }
            let origin = rng.gen_range(0..30);
            routed.lookup_routed(origin, &target, routed.now(), &link).unwrap();
            let (_, res) = routed.run_to_quiescence(&link).last().copied().unwrap();
            assert!(res.member < 30, "failover answer must be reachable");
            assert!(res.timeouts > 0, "crossing the partition must time out");
            exercised = true;
            // After heal the same lookup matches the omniscient answer.
            let omniscient = routed.catalog().lookup_closest_traced(&target).unwrap().member;
            let mut healed = populated(100, 9, 8);
            healed.lookup_routed(origin, &target, SimTime::ZERO, &link).unwrap();
            let (_, post) = healed.run_to_quiescence(&link).last().copied().unwrap();
            assert_eq!(post.member, omniscient);
            break;
        }
        assert!(exercised, "no cross-partition lookup was exercised");
        assert!(routed.stats().timeouts > 0);
        assert!(routed.stats().retries > 0);
    }

    #[test]
    fn partitioned_registration_defers_and_flushes_on_heal() {
        let mut routed = populated(60, 10, 6);
        // Member 2 re-registers under a coordinate whose key is owned
        // across the partition: the Register exhausts its retries and is
        // parked, leaving the catalog unchanged.
        let coord = vec![0.42, 0.42];
        let key = routed.catalog().key_of(&coord);
        let (_, owner) = first_live(routed.catalog().ring(), key.wrapping_add(1), &[]).unwrap();
        let severed: Vec<MemberId> = (0..60).filter(|&m| m != owner).collect();
        assert_ne!(owner, 2, "owner must sit across the partition from 2");
        routed.sever(severed);
        let before = routed.catalog().coord_of(2).unwrap().to_vec();
        routed.register_routed(2, coord.clone(), routed.now(), &link).unwrap();
        routed.run_to_quiescence(&link);
        assert!(routed.is_quiescent());
        assert_eq!(routed.stats().deferred, 1);
        assert_eq!(routed.catalog().coord_of(2).unwrap(), before.as_slice());
        // Heal: the deferred registration flushes and applies.
        assert_eq!(routed.heal(routed.now(), &link), 1);
        routed.run_to_quiescence(&link);
        assert_eq!(routed.catalog().coord_of(2).unwrap(), coord.as_slice());
    }

    /// An underlay that cannot reach one member prices its links
    /// `INFINITY`. Nothing panics: every message to or from it is dropped,
    /// so a lookup whose route needs it times out and fails over, and a
    /// registration it owns is deferred — exactly as across a partition.
    #[test]
    fn unreachable_member_is_suspected_and_its_registration_deferred() {
        let mut rng = rng_from_seed(14);
        let mut routed = populated(60, 14, 6);
        let coord = vec![0.42, 0.42];
        let key = routed.catalog().key_of(&coord);
        let (_, cut) = first_live(routed.catalog().ring(), key.wrapping_add(1), &[]).unwrap();
        let disconnected = |a: MemberId, b: MemberId| {
            if a != b && (a == cut || b == cut) {
                f64::INFINITY
            } else {
                link(a, b)
            }
        };
        let before = routed.catalog().coord_of(2).unwrap().to_vec();
        assert_ne!(cut, 2);
        routed.register_routed(2, coord, routed.now(), &disconnected).unwrap();
        routed.run_to_quiescence(&disconnected);
        assert_eq!(routed.stats().deferred, 1);
        assert_eq!(routed.catalog().coord_of(2).unwrap(), before.as_slice());
        let mut failed_over = false;
        for _ in 0..200 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let origin = rng.gen_range(0..60);
            if origin == cut {
                continue;
            }
            routed.lookup_routed(origin, &target, routed.now(), &disconnected).unwrap();
            let done = routed.run_to_quiescence(&disconnected);
            assert_eq!(done.len(), 1, "every lookup completes");
            failed_over |= done[0].1.timeouts > 0;
        }
        assert!(failed_over, "no lookup needed the unreachable member");
        assert!(routed.is_quiescent());
        assert!(routed.stats().retries > 0);
    }

    #[test]
    fn deferred_flush_loses_to_newer_registration() {
        let mut routed = populated(60, 10, 6);
        let coord = vec![0.42, 0.42];
        let key = routed.catalog().key_of(&coord);
        let (_, owner) = first_live(routed.catalog().ring(), key.wrapping_add(1), &[]).unwrap();
        routed.sever((0..60).filter(|&m| m != owner));
        routed.register_routed(2, coord, routed.now(), &link).unwrap();
        routed.run_to_quiescence(&link);
        assert_eq!(routed.stats().deferred, 1);
        // While the old registration is parked, member 2 registers again
        // with a newer stamp via the direct path.
        let newer = vec![0.7, 0.2];
        routed.register_direct(2, &newer);
        routed.heal(routed.now(), &link);
        routed.run_to_quiescence(&link);
        // The stale flush must lose by last-writer-wins.
        assert_eq!(routed.catalog().coord_of(2).unwrap(), newer.as_slice());
        assert_eq!(routed.stats().stale_rejected, 1);
    }

    #[test]
    fn stats_percentiles_and_histogram_accumulate() {
        let mut rng = rng_from_seed(11);
        let mut routed = populated(150, 11, 8);
        for _ in 0..60 {
            let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let origin = rng.gen_range(0..150);
            routed.lookup_routed(origin, &target, routed.now(), &link).unwrap();
        }
        routed.run_to_quiescence(&link);
        let stats = routed.stats().clone();
        assert_eq!(stats.lookups, 60);
        assert_eq!(stats.hop_histogram().iter().sum::<u64>(), 60);
        let sorted = stats.latency_ms.sorted();
        assert_eq!(sorted.len(), 60);
        let p50 = stats.p50_latency_ms().unwrap();
        let p99 = stats.p99_latency_ms().unwrap();
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        assert!(stats.mean_hops() > 0.0);
        assert_eq!(stats.latency_percentile_ms(1.0), sorted.last().copied());
    }

    #[test]
    fn identical_runs_produce_identical_stats() {
        let run = || {
            let mut rng = rng_from_seed(12);
            let mut routed = populated(90, 12, 6);
            routed.sever(0..20);
            for _ in 0..40 {
                let target = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                let origin = rng.gen_range(0..90);
                routed.lookup_routed(origin, &target, routed.now(), &link).unwrap();
                if rng.gen_bool(0.3) {
                    let m = rng.gen_range(0..90);
                    let c = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                    routed.register_routed(m, c, routed.now(), &link);
                }
            }
            routed.run_to_quiescence(&link);
            routed.heal(routed.now(), &link);
            routed.run_to_quiescence(&link);
            routed.stats().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn interleaved_lookups_match_isolated_results() {
        // Concurrent lookups share the queue but never exchange state:
        // issuing N lookups before draining must produce the same
        // per-lookup records as issuing and draining one at a time.
        let mut rng = rng_from_seed(13);
        let mut batch = populated(100, 13, 6);
        let cases: Vec<(MemberId, [f64; 2])> = (0..30)
            .map(|_| (rng.gen_range(0..100), [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        for (origin, target) in &cases {
            batch.lookup_routed(*origin, target, SimTime::ZERO, &link).unwrap();
        }
        let mut batched: Vec<(QueryId, RoutedLookup)> = batch.run_to_quiescence(&link);
        batched.sort_by_key(|&(q, _)| q);
        assert_eq!(batched.len(), cases.len());
        for (i, (origin, target)) in cases.iter().enumerate() {
            // A fresh catalog per case keeps the clock at zero, so the
            // isolated lookup's latency arithmetic starts from the same
            // origin time as the batched one.
            let mut solo = populated(100, 13, 6);
            solo.lookup_routed(*origin, target, SimTime::ZERO, &link).unwrap();
            let (_, res) = solo.run_to_quiescence(&link).last().copied().unwrap();
            assert_eq!(batched[i].1, res, "case {i}");
        }
    }
}
