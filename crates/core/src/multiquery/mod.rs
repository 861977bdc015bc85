//! Multi-query optimization with cost-space radius pruning (Section 3.4).
//!
//! "When a new circuit is added to the SBON, the cost space can be used for
//! pruning multi-query optimization decisions ... A simple idea is to
//! consider a small region in the cost space. The optimizer will then
//! process circuits that fall within this region. ... query plans that
//! involve operators hosted on physical nodes that are far away in the cost
//! space are less likely to be useful and thus can be ignored."
//!
//! Reuse identity: two operator services are mergeable when their
//! [`SubtreeId`]s are equal — the id stands for the operator *and its whole
//! input subtree* down to the producer nodes, so reusing the instance also
//! reuses everything beneath it. The registry interns the ids in a
//! hash-consed table it owns (keys compare exactly, so no collision merges
//! two subtrees; `subtree.rs`' header has the rules). Circuits carry no id;
//! ids are derived in one bottom-up pass where they are read. The attach
//! step only looks them up, once per candidate when the scope allows reuse:
//! a subtree with no live id has no instance to find. Registration interns
//! them and holds its instances' ids; the last release of an instance gives
//! its id back, so the table is bounded by the live instances' subtrees.
//!
//! # Who owns what
//!
//! The registry is not an optimizer. Candidates are selected by the one
//! candidate loop every deploy and re-optimization shares
//! ([`IntegratedOptimizer::optimize_with_mapper_estimated`]), ranked by their
//! *marginal* cost-space estimate; the registry has three jobs:
//!
//! * **tenancy facts**, keyed by the [`CircuitId`] its caller deploys under:
//!   which operator instances each circuit registered (and where the
//!   discovery index keeps them), the subscription refcount of every
//!   instance, and each circuit's borrows;
//! * **discovery**: the closest running instance of a subtree id inside a
//!   [`ReuseScope`], by exact registry scan or Hilbert-DHT lookup;
//! * **the attach step** the candidate loop runs on every candidate before
//!   its bound: discovery top-down over the candidate's operators, each hit
//!   pinning its subtree at the instance's host and marking it shared.
//!
//! It keeps no copy of any [`Circuit`](crate::circuit::Circuit),
//! [`Placement`](crate::circuit::Placement) or shared mask — those, and the
//! tenancy pins on subscribed instances, belong to the caller, which
//! reports the changes that concern the registry
//! ([`MultiQueryOptimizer::relocate`], [`MultiQueryOptimizer::reregister`])
//! and acts on what a departure reports back ([`ReleaseReport`]). The
//! marginal and standalone costs a deploy reports are the measured costs of
//! the winner alone ([`PlacedCircuit::measured`],
//! [`IntegratedOptimizer::standalone_cost`]).
//!
//! # Tenancy and refcounts
//!
//! The registry is **reuse-aware across query lifecycles**: every reuse of a
//! running instance records a *subscription* (a refcount increment on the
//! `(owner circuit, service)` pair). Departures go through
//! [`MultiQueryOptimizer::release`], the graceful inverse of deployment:
//!
//! * a departing circuit's own instances leave the discovery index
//!   immediately when nothing subscribes to them;
//! * instances that still have subscribers are **retained** — the physical
//!   subtree keeps running (and stays discoverable for new arrivals) until
//!   the last subscriber releases it;
//! * a circuit's own subscriptions (what it borrowed from others) are
//!   released only when no retained subtree of its own still needs them, so
//!   reuse *chains* (C reuses B's join, which itself consumes A's) drain in
//!   dependency order, never stranding a live consumer.
//!
//! Refcounts never go negative (underflow panics — it would mean a
//! double-release bug) and fully drain to zero once every circuit has been
//! released, which the workspace pins with a property test over random
//! arrival/departure/failure interleavings.

use std::collections::BTreeMap;

use sbon_dht::catalog::CoordinateCatalog;
use sbon_dht::ring::MemberId;
use sbon_hilbert::{HilbertCurve, Quantizer};
use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::LatencyProvider;

use crate::circuit::{CircuitCost, Service, ServiceId, ServiceKind};
use crate::costspace::CostSpace;
use crate::optimizer::{Candidate, IntegratedOptimizer, PlacedCircuit, QuerySpec};
use crate::placement::{DhtMapper, OracleMapper, VirtualPlacer};

mod subtree;

pub use subtree::SubtreeId;
use subtree::SubtreeTable;

/// Identifier of a deployed circuit in the [`MultiQueryOptimizer`]'s
/// registry — chosen by whoever deploys ([`MultiQueryOptimizer::register`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(pub u64);

/// A running service instance available for reuse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceInstance {
    /// Which circuit deployed it.
    pub circuit: CircuitId,
    /// Its id within that circuit.
    pub service: ServiceId,
    /// Where it runs.
    pub node: NodeId,
    /// Its subtree's interned identity, valid while it stays registered.
    pub subtree: SubtreeId,
}

/// How the reuse search is bounded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReuseScope {
    /// No reuse at all (every circuit stands alone).
    None,
    /// Only instances within cost-space radius `r` of the new service's
    /// virtual coordinate are considered — the paper's proposal.
    Radius(f64),
    /// Every running instance is considered (exhaustive upper bound).
    All,
}

/// What [`MultiQueryOptimizer::optimize_and_deploy`] deployed.
#[derive(Clone, Debug)]
pub struct MultiQueryOutcome {
    /// The winner as deployed — reused subtrees pinned at their instances'
    /// hosts — with its plan, placement and reuse. Its `cost` is the
    /// measured *marginal* cost: the network usage the new circuit adds,
    /// the links its reused subtrees' owners pay for excluded.
    pub placed: PlacedCircuit,
    /// The measured cost the winner would have had with no reuse, for
    /// reporting the savings ([`IntegratedOptimizer::standalone_cost`]).
    pub standalone_cost: CircuitCost,
    /// Reuse candidates discovery examined across all candidate plans — the
    /// quantity radius pruning bounds.
    pub candidates_examined: usize,
    /// The id it is registered under.
    pub id: CircuitId,
}

/// What [`MultiQueryOptimizer::release`] did.
#[derive(Clone, Debug, Default)]
pub struct ReleaseReport {
    /// The departing circuit's own services that other circuits still
    /// subscribe to: their subtrees must keep running until the refcount
    /// drains to zero.
    pub retained: Vec<ServiceId>,
    /// `(owner circuit, service)` instances whose refcount drained to zero
    /// during this release *after their owner had already departed* — the
    /// retained subtree is gone for good and its usage stops accruing. May
    /// name circuits other than the one released (cascading drains along
    /// reuse chains).
    pub drained: Vec<(CircuitId, ServiceId)>,
    /// `(owner circuit, service)` instances whose refcount drained to zero
    /// while their owner is **still running** — the tenancy pin that froze
    /// the instance in place can be lifted (it is migratable again).
    pub idle: Vec<(CircuitId, ServiceId)>,
    /// Circuits left holding a live subscription on the torn-down circuit —
    /// their shared feed no longer exists. Only populated by
    /// [`MultiQueryOptimizer::teardown_reporting`] (a graceful `release`
    /// retains subscribed subtrees instead of stranding anyone); the caller
    /// decides how the failure cascades.
    pub orphaned: Vec<CircuitId>,
}

/// Where one of a circuit's own operator instances sits in the discovery
/// index — the handle that makes removing or re-homing it touch that one
/// entry and nothing else.
#[derive(Clone)]
struct Registered {
    service: ServiceId,
    /// The subtree id whose table entry lists the instance; the
    /// registration holds it.
    subtree: SubtreeId,
    /// Its DHT member id, when the DHT index is configured.
    member: Option<MemberId>,
}

/// A subscription this circuit holds on another circuit's instance.
#[derive(Clone)]
struct Borrow {
    /// The instance's owner.
    from: CircuitId,
    /// The instance's id within its owner.
    service: ServiceId,
    /// This circuit's own operator instances the substituted service sits
    /// beneath. While any of them is still subscribed, the retained subtree
    /// under it keeps consuming the borrowed feed.
    beneath: Vec<ServiceId>,
    /// Given back already.
    released: bool,
}

/// Registry record of one deployed (possibly departed-but-retained) circuit.
#[derive(Clone)]
struct CircuitRecord {
    /// Its own operator instances still in the discovery index, in service
    /// order.
    instances: Vec<Registered>,
    /// Subscriptions held on other circuits' instances.
    borrows: Vec<Borrow>,
    /// The circuit departed; only still-subscribed subtrees survive.
    departed: bool,
}

/// Decentralized instance discovery: running operator instances registered
/// in a Hilbert-DHT catalog under the *hosting node's* cost-space
/// coordinate, searched with k-nearest lookups — the paper's §3.4
/// implementation sketch ("use the Hilbert DHT to look up the closest n
/// nodes that may already be running the same service").
#[derive(Clone)]
struct InstanceIndex {
    catalog: CoordinateCatalog<HilbertCurve>,
    /// The instance registered under each live DHT member id.
    members: BTreeMap<MemberId, ServiceInstance>,
    /// Member ids of departed instances, reissued before a new one is
    /// minted: the catalog is dense by member id, so index storage tracks
    /// the peak number of live instances, not the number ever registered.
    free: Vec<MemberId>,
    /// k for the k-nearest discovery lookups.
    k: usize,
}

/// The reuse registry: tenancy facts, the radius-pruned instance discovery
/// and the attach step built on it, and the subscription refcounts that
/// govern shared-service lifetime (module docs).
///
/// Instance discovery runs either against the in-memory registry (the
/// `Default`; an exact oracle) or against a Hilbert-DHT catalog
/// ([`MultiQueryOptimizer::with_dht_index`]) as §3.4 prescribes.
///
/// `Clone` snapshots the whole registry, which the harnesses use to compare
/// reuse scopes against an identical running workload.
#[derive(Clone, Default)]
pub struct MultiQueryOptimizer {
    /// Next id [`MultiQueryOptimizer::optimize_and_deploy`] hands out; a
    /// caller with ids of its own never advances it.
    next_id: u64,
    /// Reuse candidates discovery has examined, summed over every lookup.
    examined: usize,
    // The registries are ordered maps: `.values()` folds over them feed
    // counts and cost sums into reports, and hash iteration order is
    // process-random.
    /// The interned subtree ids — every registered instance's, and those of
    /// the subtrees beneath them — each listing its running instances.
    subtrees: SubtreeTable,
    /// All deployed circuits, including departed ones that still own
    /// retained (subscribed) subtrees.
    deployed: BTreeMap<CircuitId, CircuitRecord>,
    /// Subscription refcounts per reusable instance.
    subscribers: BTreeMap<(CircuitId, ServiceId), usize>,
    /// Optional decentralized discovery index.
    dht_index: Option<InstanceIndex>,
}

impl MultiQueryOptimizer {
    /// An empty registry with decentralized Hilbert-DHT instance discovery
    /// over `space` (the paper's §3.4 mechanism). `k` bounds each discovery
    /// lookup ("look up the closest n nodes"); 16 is plenty for the paper's
    /// workloads.
    pub fn with_dht_index(space: &CostSpace, k: usize) -> Self {
        assert!(k >= 1);
        let dims = space.dims();
        let bits = (96 / dims as u32).clamp(2, 12);
        let points: Vec<Vec<f64>> = space.points().iter().map(|p| p.as_slice().to_vec()).collect();
        let quantizer = Quantizer::covering(&points, bits, DhtMapper::QUANTIZER_MARGIN);
        let catalog = CoordinateCatalog::new(HilbertCurve::new(dims, bits), quantizer, 8);
        let index = InstanceIndex { catalog, members: BTreeMap::new(), free: Vec::new(), k };
        MultiQueryOptimizer { dht_index: Some(index), ..Self::default() }
    }

    /// Discovery traffic statistics (zeroes when the registry oracle is in
    /// use instead of the DHT).
    pub fn discovery_stats(&self) -> sbon_dht::catalog::CatalogStats {
        self.dht_index.as_ref().map(|i| i.catalog.stats()).unwrap_or_default()
    }

    /// Number of running (non-departed) circuits.
    pub fn num_circuits(&self) -> usize {
        self.deployed.values().filter(|r| !r.departed).count()
    }

    /// Number of departed circuits whose subtrees are still retained by
    /// subscribers.
    pub fn num_retained(&self) -> usize {
        self.deployed.values().filter(|r| r.departed).count()
    }

    /// Number of reusable operator instances.
    pub fn num_instances(&self) -> usize {
        self.subtrees.num_instances()
    }

    /// Number of live interned subtree ids: the registered instances'
    /// subtrees and everything beneath them. Zero once every circuit has
    /// been released.
    pub fn num_subtree_ids(&self) -> usize {
        self.subtrees.len()
    }

    /// Current subscriber count of one instance (0 when nothing reuses it).
    pub fn refcount(&self, circuit: CircuitId, service: ServiceId) -> usize {
        self.subscribers.get(&(circuit, service)).copied().unwrap_or(0)
    }

    /// Total outstanding subscriptions across every instance — the gauge
    /// that must drain to zero once all circuits are released.
    pub fn total_subscriptions(&self) -> usize {
        self.subscribers.values().sum()
    }

    /// Optimizes and deploys `query` under the registry's own numbering,
    /// mapping through the centralized oracle — the steps the overlay
    /// runtime's deploy takes, bar its row prewarm: `optimizer` selects among
    /// the candidates this registry attached
    /// ([`IntegratedOptimizer::optimize_with_mapper_estimated`]), and the
    /// winner alone is measured, costed standalone and registered.
    pub fn optimize_and_deploy(
        &mut self,
        optimizer: &IntegratedOptimizer,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        scope: ReuseScope,
    ) -> Option<MultiQueryOutcome> {
        let examined = self.examined;
        let mapper = &mut OracleMapper;
        let placed = optimizer
            .optimize_with_mapper_estimated(query, space, mapper, Some((&mut *self, scope)))?
            .measured(latency);
        let standalone_cost = optimizer.standalone_cost(&placed, query, space, mapper, latency);
        let id = CircuitId(self.next_id);
        self.next_id += 1;
        self.register(id, &placed, space);
        Some(MultiQueryOutcome {
            placed,
            standalone_cost,
            candidates_examined: self.examined - examined,
            id,
        })
    }

    /// The attach step of the candidate loop: substitutes running instances
    /// for `candidate`'s operators. It places the bare circuit virtually and
    /// walks its operators top-down (descending ids visit parents before
    /// children); an operator with a running instance of its subtree id in
    /// `scope` ([`Self::discover`]) is substituted, and its whole subtree —
    /// the largest reusable one wins — is marked shared, so its links are
    /// free. Under [`ReuseScope::None`] the candidate passes unchanged, and
    /// so does one with nothing to find in the registry scan (no operator's
    /// subtree has a running instance): it is not even placed.
    pub(crate) fn attach<'p>(
        &mut self,
        mut candidate: Candidate<'p>,
        space: &CostSpace,
        scope: ReuseScope,
        placer: &dyn VirtualPlacer,
    ) -> Candidate<'p> {
        if scope == ReuseScope::None {
            return candidate;
        }
        let circuit = &mut candidate.circuit;
        // Looked up once, before any pin: the pins below touch operators
        // only, which no subtree id reads.
        let subtrees = self.subtrees.lookup(circuit);
        let registered =
            |id: &Option<SubtreeId>| id.is_some_and(|id| !self.subtrees.instances(id).is_empty());
        if self.dht_index.is_none() && !subtrees.iter().any(registered) {
            return candidate;
        }
        let vp = placer.place(circuit, space);
        for sid in (0..circuit.len() as u32).rev().map(ServiceId) {
            let is_operator = matches!(circuit.service(sid).kind, ServiceKind::Operator { .. });
            if !is_operator || candidate.shared.get(sid.index()) == Some(&true) {
                continue;
            }
            let found = self.discover(subtrees[sid.index()], vp.coord_of(sid), scope, space);
            let Some(inst) = found else { continue };
            // The subtree's services are phantom copies of work that runs
            // inside the instance, so they are co-pinned at the instance's
            // host: the placer then anchors genuinely-new services against
            // where the data actually materializes, and no re-opt pass can
            // ever "migrate" a phantom. Producers keep their real pins (a
            // producer death must still kill this circuit).
            let subtree = circuit.subtree_mask(&[sid]);
            candidate.shared.resize(circuit.len(), false);
            for idx in (0..circuit.len()).filter(|&idx| subtree[idx]) {
                candidate.shared[idx] = true;
                if circuit.service(ServiceId(idx as u32)).is_unpinned() {
                    circuit.pin_service(ServiceId(idx as u32), inst.node);
                }
            }
            candidate.reused.push(inst);
            candidate.reused_at.push(sid);
        }
        candidate
    }

    /// Finds the closest reusable instance of `subtree` inside `scope`
    /// around the ideal point of `vector_coord`, counting the candidates it
    /// examines; `None` is a subtree with no live id, which nothing runs.
    /// Uses the DHT index when configured, otherwise the exact registry
    /// scan.
    fn discover(
        &mut self,
        subtree: Option<SubtreeId>,
        vector_coord: &[f64],
        scope: ReuseScope,
        space: &CostSpace,
    ) -> Option<ServiceInstance> {
        let in_radius = |d: f64| match scope {
            ReuseScope::None => false,
            ReuseScope::Radius(r) => d <= r,
            ReuseScope::All => true,
        };
        if let Some(index) = &mut self.dht_index {
            // Decentralized path: k-nearest *hosting coordinates*, then
            // filter by subtree id and radius. The DHT may miss a matching
            // instance beyond the k nearest hosts — that is the paper's
            // accepted approximation. The lookup is the searcher's traffic,
            // paid whether or not anything matches.
            let ideal = space.ideal_point(vector_coord);
            let nearest = index.catalog.k_nearest(ideal.as_slice(), index.k);
            self.examined += nearest.len();
            let members = &index.members;
            let best = nearest
                .into_iter()
                .filter(|&(_, d)| in_radius(d))
                .filter_map(|(member, d)| {
                    let inst = members.get(&member)?;
                    (Some(inst.subtree) == subtree).then_some((inst, d))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1));
            best.map(|(inst, _)| *inst)
        } else {
            let instances = self.subtrees.instances(subtree?);
            let ideal = space.ideal_point(vector_coord);
            let mut best: Option<(&ServiceInstance, f64)> = None;
            for inst in instances {
                let d = space.point(inst.node).full_distance(&ideal);
                if !in_radius(d) {
                    continue;
                }
                self.examined += 1;
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((inst, d));
                }
            }
            best.map(|(inst, _)| *inst)
        }
    }

    /// Registers a deployed circuit as `id` — the caller's numbering; panics
    /// if `id` is already registered. Its *own* (non-shared) operator
    /// services become reusable instances, and every reused instance gains
    /// a subscription. Shared services are deliberately **not** registered —
    /// they are someone else's physical instance, and a duplicate phantom
    /// registration would let future queries subscribe to a circuit that
    /// merely borrows the service.
    pub fn register(&mut self, id: CircuitId, placed: &PlacedCircuit, space: &CostSpace) {
        assert!(!self.deployed.contains_key(&id), "circuit {id:?} is already registered");
        let PlacedCircuit { circuit, placement, shared, reused, reused_at, .. } = placed;
        let is_own = |s: &Service| {
            matches!(s.kind, ServiceKind::Operator { .. })
                && shared.get(s.id.index()) != Some(&true)
        };
        let subtrees = self.subtrees.intern(circuit, is_own);
        let mut instances = Vec::new();
        for (s, subtree) in circuit.services().iter().zip(subtrees) {
            let Some(subtree) = subtree.filter(|_| is_own(s)) else { continue };
            let node = placement.node_of(s.id);
            let instance = ServiceInstance { circuit: id, service: s.id, node, subtree };
            let member = self.dht_index.as_mut().map(|index| {
                // With no id to reissue, ids `0..members.len()` are all live.
                let member = index.free.pop().unwrap_or(index.members.len() as MemberId);
                index.members.insert(member, instance);
                index.catalog.insert(member, space.point(node).as_slice());
                member
            });
            self.subtrees.instances_mut(subtree).push(instance);
            instances.push(Registered { service: s.id, subtree, member });
        }
        let borrows: Vec<Borrow> = reused
            .iter()
            .zip(reused_at)
            .map(|(inst, &at)| Borrow {
                from: inst.circuit,
                service: inst.service,
                beneath: instances
                    .iter()
                    .map(|own| own.service)
                    .filter(|&own| circuit.subtree_mask(&[own])[at.index()])
                    .collect(),
                released: false,
            })
            .collect();
        for b in &borrows {
            *self.subscribers.entry((b.from, b.service)).or_default() += 1;
        }
        self.deployed.insert(id, CircuitRecord { instances, borrows, departed: false });
    }

    /// The departing-or-departed circuit's still-subscribed own services.
    fn subscribed_roots(&self, id: CircuitId) -> Vec<ServiceId> {
        let Some(rec) = self.deployed.get(&id) else { return Vec::new() };
        let own = rec.instances.iter().map(|own| own.service);
        own.filter(|&s| self.refcount(id, s) > 0).collect()
    }

    /// Marks as released — and returns — every not-yet-released borrow of
    /// `id` that no subtree in `keep` still needs. An empty `keep` releases
    /// everything outstanding.
    fn release_borrows_outside(
        &mut self,
        id: CircuitId,
        keep: &[ServiceId],
    ) -> Vec<(CircuitId, ServiceId)> {
        let Some(rec) = self.deployed.get_mut(&id) else { return Vec::new() };
        let mut freed = Vec::new();
        for b in &mut rec.borrows {
            if !b.released && !b.beneath.iter().any(|own| keep.contains(own)) {
                b.released = true;
                freed.push((b.from, b.service));
            }
        }
        freed
    }

    /// Takes one instance out of the discovery index (its subtree id's list
    /// and its DHT member) and gives back its hold on the id; its member id
    /// becomes reusable.
    fn unindex(&mut self, circuit: CircuitId, own: &Registered) {
        let list = self.subtrees.instances_mut(own.subtree);
        list.retain(|inst| !(inst.circuit == circuit && inst.service == own.service));
        self.subtrees.release(own.subtree);
        if let (Some(index), Some(member)) = (&mut self.dht_index, own.member) {
            index.members.remove(&member);
            index.catalog.remove(member);
            index.free.push(member);
        }
    }

    /// Removes one of `circuit`'s instances from its record and the index.
    fn remove_instance(&mut self, circuit: CircuitId, service: ServiceId) {
        let Some(rec) = self.deployed.get_mut(&circuit) else { return };
        let Some(pos) = rec.instances.iter().position(|own| own.service == service) else {
            return;
        };
        let own = rec.instances.remove(pos);
        self.unindex(circuit, &own);
    }

    /// Decrements subscriptions along `queue`, draining retained subtrees
    /// whose refcount hits zero and cascading the releases their owners
    /// held. Fully drained (departed, subscriber-free) records are removed.
    /// Reports what `drained` and what went `idle`.
    fn drain_subscriptions(&mut self, mut queue: Vec<(CircuitId, ServiceId)>) -> ReleaseReport {
        let mut report = ReleaseReport::default();
        while let Some((oc, os)) = queue.pop() {
            let hit_zero = match self.subscribers.get_mut(&(oc, os)) {
                // The owner was force-torn down (`teardown`) and took its
                // refcounts with it; nothing left to release.
                None => false,
                Some(count) => {
                    assert!(
                        *count > 0,
                        "subscription refcount underflow on {oc:?}/{os:?} (double release)"
                    );
                    *count -= 1;
                    *count == 0
                }
            };
            if !hit_zero {
                continue;
            }
            self.subscribers.remove(&(oc, os));
            let owner_departed = self.deployed.get(&oc).is_some_and(|r| r.departed);
            if !owner_departed {
                // The owner still runs it for itself; report the instance
                // idle so the caller can lift the tenancy pin.
                report.idle.push((oc, os));
                continue;
            }
            // The retained subtree drains: out of the index, usage stops,
            // and the borrows only it was holding cascade.
            self.remove_instance(oc, os);
            report.drained.push((oc, os));
            let surviving = self.subscribed_roots(oc);
            queue.extend(self.release_borrows_outside(oc, &surviving));
            if surviving.is_empty() {
                self.deployed.remove(&oc);
            }
        }
        report
    }

    /// Releases a circuit — the graceful departure path. Its unsubscribed
    /// instances leave the discovery index; still-subscribed ones are
    /// retained until their refcount drains (module docs). Returns `None`
    /// if the circuit is unknown or was already released.
    pub fn release(&mut self, id: CircuitId) -> Option<ReleaseReport> {
        if self.deployed.get(&id).is_none_or(|r| r.departed) {
            return None;
        }
        let retained = self.subscribed_roots(id);
        // Unsubscribed own instances leave the index now; retained ones stay
        // discoverable (they keep running, new arrivals may still attach).
        let rec = self.deployed.get_mut(&id).expect("checked above");
        rec.departed = true;
        let (kept, gone) = std::mem::take(&mut rec.instances)
            .into_iter()
            .partition(|own| retained.contains(&own.service));
        rec.instances = kept;
        for own in &gone {
            self.unindex(id, own);
        }
        let freed = self.release_borrows_outside(id, &retained);
        if retained.is_empty() {
            self.deployed.remove(&id);
        }
        Some(ReleaseReport { retained, ..self.drain_subscriptions(freed) })
    }

    /// Re-homes one instance after its host changed (migration or failure
    /// evacuation): updates the discovery index so future reuse pins at the
    /// new node. No-op if the instance is not registered.
    pub fn relocate(
        &mut self,
        circuit: CircuitId,
        service: ServiceId,
        node: NodeId,
        space: &CostSpace,
    ) {
        let record = self.deployed.get(&circuit);
        let Some(own) = record.and_then(|r| r.instances.iter().find(|own| own.service == service))
        else {
            return;
        };
        let list = self.subtrees.instances_mut(own.subtree);
        for inst in list.iter_mut().filter(|i| i.circuit == circuit && i.service == service) {
            inst.node = node;
        }
        if let (Some(index), Some(member)) = (&mut self.dht_index, own.member) {
            index.members.get_mut(&member).expect("live member").node = node;
            // `insert` re-registers: the member leaves its old key first.
            index.catalog.insert(member, space.point(node).as_slice());
        }
    }

    /// Replaces a running circuit's registration after a plan swap
    /// (rewrite / full re-optimization): the old circuit's instances leave
    /// the discovery index and the replacement's operators register in
    /// their place — behind every older registration — under the same
    /// [`CircuitId`].
    ///
    /// Only **untenanted** circuits may be swapped — panics if the circuit
    /// borrows from others or any of its instances has subscribers (a swap
    /// would strand those tenants; the caller must check first).
    pub fn reregister(&mut self, id: CircuitId, replacement: &PlacedCircuit, space: &CostSpace) {
        let rec = self.deployed.get(&id).expect("reregister of an unknown circuit");
        assert!(!rec.departed, "cannot reregister a departed circuit");
        assert!(
            rec.borrows.iter().all(|b| b.released),
            "cannot reregister a circuit that borrows from others"
        );
        assert!(
            rec.instances.iter().all(|own| self.refcount(id, own.service) == 0),
            "cannot reregister a circuit with subscribed instances"
        );
        let rec = self.deployed.remove(&id).expect("checked above");
        for own in &rec.instances {
            self.unindex(id, own);
        }
        self.register(id, replacement, space);
    }

    /// Force-tears a circuit down, removing its instances from the reuse
    /// index **regardless of subscribers** — the failure path (the service
    /// died; subscribers' releases become no-ops). Use
    /// [`MultiQueryOptimizer::release`] for graceful departures.
    pub fn teardown(&mut self, id: CircuitId) -> bool {
        self.teardown_reporting(id).is_some()
    }

    /// [`MultiQueryOptimizer::teardown`] that also reports the retained
    /// subtrees of *other* departed circuits that drained as the torn-down
    /// circuit's subscriptions cascaded (`retained` is always empty: force
    /// teardown retains nothing of its own).
    pub fn teardown_reporting(&mut self, id: CircuitId) -> Option<ReleaseReport> {
        let rec = self.deployed.remove(&id)?;
        // Circuits still subscribing to the torn-down circuit lose their
        // feed: report them so the caller can cascade the failure.
        let orphaned: Vec<CircuitId> = self
            .deployed
            .iter()
            .filter(|(_, r)| r.borrows.iter().any(|b| !b.released && b.from == id))
            .map(|(&c, _)| c)
            .collect();
        // Its refcounts die with its instances; later releases by its
        // subscribers are tolerated as no-ops (drain_subscriptions' None
        // branch).
        for own in &rec.instances {
            self.unindex(id, own);
            self.subscribers.remove(&(id, own.service));
        }
        // Its own outstanding subscriptions cascade like a release.
        let freed: Vec<(CircuitId, ServiceId)> =
            rec.borrows.iter().filter(|b| !b.released).map(|b| (b.from, b.service)).collect();
        Some(ReleaseReport { orphaned, ..self.drain_subscriptions(freed) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::latency::EuclideanLatency;

    /// A 12-node line world with exact coordinates.
    fn world() -> (crate::costspace::CostSpace, EuclideanLatency) {
        let pts: Vec<Vec<f64>> = (0..12).map(|i| vec![10.0 * i as f64, 0.0]).collect();
        (
            CostSpaceBuilder::latency_space(&VivaldiEmbedding::exact(pts.clone())),
            EuclideanLatency::new(pts),
        )
    }

    fn query(consumer: u32) -> QuerySpec {
        QuerySpec::join_star(&[NodeId(0), NodeId(2)], NodeId(consumer), 10.0, 0.01)
    }

    fn opt() -> IntegratedOptimizer {
        IntegratedOptimizer::default()
    }

    #[test]
    fn identical_queries_reuse_the_join() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let first = mq
            .optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::Radius(50.0))
            .unwrap();
        assert!(first.placed.reused.is_empty(), "nothing to reuse yet");
        assert_eq!(mq.num_circuits(), 1);

        let second = mq
            .optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::Radius(50.0))
            .unwrap();
        assert_eq!(second.placed.reused.len(), 1, "the s0⋈s2 instance should be shared");
        assert!(
            second.placed.cost.network_usage < second.standalone_cost.network_usage,
            "reuse must cut the marginal cost: {} vs {}",
            second.placed.cost.network_usage,
            second.standalone_cost.network_usage
        );
    }

    #[test]
    fn zero_radius_blocks_reuse() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        let second =
            mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::None).unwrap();
        assert!(second.placed.reused.is_empty());
        assert_eq!(second.candidates_examined, 0);
    }

    #[test]
    fn all_scope_examines_more_than_small_radius() {
        let (space, lat) = world();
        // Deploy several identical joins with different consumers.
        let mut mq = MultiQueryOptimizer::default();
        for c in [5, 6, 7, 8] {
            mq.optimize_and_deploy(&opt(), &query(c), &space, &lat, ReuseScope::None).unwrap();
        }
        let mut mq_all = mq; // continue on the same registry
        let all =
            mq_all.optimize_and_deploy(&opt(), &query(9), &space, &lat, ReuseScope::All).unwrap();
        assert!(all.candidates_examined >= 4, "examined {}", all.candidates_examined);
    }

    #[test]
    fn radius_prunes_far_instances() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        // A join far to the right: its operator lives near x≈100+.
        let far = QuerySpec::join_star(&[NodeId(10), NodeId(11)], NodeId(9), 10.0, 0.01);
        mq.optimize_and_deploy(&opt(), &far, &space, &lat, ReuseScope::None).unwrap();
        // A new query near x≈0 with a *different* join subtree would not
        // match anyway; use the same subtree but far away:
        let near = QuerySpec::join_star(&[NodeId(10), NodeId(11)], NodeId(0), 10.0, 0.01);
        let tiny =
            mq.optimize_and_deploy(&opt(), &near, &space, &lat, ReuseScope::Radius(5.0)).unwrap();
        // The reusable instance sits ~100 away in the cost space, far
        // outside radius 5 as measured from the new virtual coordinate...
        // but virtual placement for the same producers lands close to it.
        // The meaningful assertion: radius ∞ reuses, and the candidate
        // count under the small radius is no larger than under All.
        let mut mq2 = MultiQueryOptimizer::default();
        mq2.optimize_and_deploy(&opt(), &far, &space, &lat, ReuseScope::None).unwrap();
        let all = mq2.optimize_and_deploy(&opt(), &near, &space, &lat, ReuseScope::All).unwrap();
        assert!(tiny.candidates_examined <= all.candidates_examined);
        assert_eq!(all.placed.reused.len(), 1);
    }

    #[test]
    fn dht_index_discovers_reuse_like_the_registry() {
        let (space, lat) = world();
        let mut registry = MultiQueryOptimizer::default();
        let mut dht = MultiQueryOptimizer::with_dht_index(&space, 16);
        for mq in [&mut registry, &mut dht] {
            mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        }
        let from_registry =
            registry.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        let from_dht =
            dht.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(from_registry.placed.reused.len(), 1);
        assert_eq!(from_dht.placed.reused.len(), 1);
        assert_eq!(from_dht.placed.reused[0].node, from_registry.placed.reused[0].node);
        // The DHT path did actual catalog work.
        assert!(dht.discovery_stats().lookups > 0);
        assert_eq!(registry.discovery_stats().lookups, 0);
    }

    #[test]
    fn dht_index_teardown_blocks_future_reuse() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::with_dht_index(&space, 16);
        let first =
            mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        assert!(mq.teardown(first.id));
        let second =
            mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert!(
            second.placed.reused.is_empty(),
            "DHT-indexed instance must be gone after teardown"
        );
    }

    /// Member ids of departed instances are reissued: index storage tracks
    /// the live instances, not the circuits ever deployed.
    #[test]
    fn dht_index_storage_is_bounded_by_peak_live_instances() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::with_dht_index(&space, 16);
        let anchor =
            mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        let mut peak = mq.num_instances();
        for i in 0..1_000 {
            let scope = if i % 2 == 0 { ReuseScope::None } else { ReuseScope::All };
            let out =
                mq.optimize_and_deploy(&opt(), &query(6 + i % 4), &space, &lat, scope).unwrap();
            peak = peak.max(mq.num_instances());
            mq.release(out.id).expect("released once");
        }
        let index = mq.dht_index.as_ref().unwrap();
        let minted = index.members.len() + index.free.len();
        assert!(minted <= peak, "{minted} member ids for a peak of {peak} live instances");
        assert_eq!(index.catalog.len(), mq.num_instances());
        assert_eq!(index.members.len(), mq.num_instances());
        let late =
            mq.optimize_and_deploy(&opt(), &query(9), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(late.placed.reused.len(), 1, "the live instance is still discoverable");
        assert_eq!(late.placed.reused[0].circuit, anchor.id);
    }

    /// Among same-subtree instances at equal distance the first
    /// *registered* wins, and a re-registration queues behind older ones.
    #[test]
    fn equidistant_instances_tie_break_by_registration_order() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        let b = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        assert_eq!(
            a.placed.placement, b.placed.placement,
            "identical queries co-locate their joins"
        );
        let c = mq.optimize_and_deploy(&opt(), &query(7), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(c.placed.reused[0].circuit, a.id, "first registered wins the tie");
        mq.release(c.id).unwrap();
        mq.reregister(a.id, &a.placed, &space);
        let d = mq.optimize_and_deploy(&opt(), &query(7), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(d.placed.reused[0].circuit, b.id, "a's re-registration queued behind b");
    }

    #[test]
    fn teardown_removes_instances() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let first =
            mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        assert!(mq.num_instances() > 0);
        assert!(mq.teardown(first.id));
        assert_eq!(mq.num_instances(), 0);
        assert_eq!(mq.num_circuits(), 0);
        assert!(!mq.teardown(first.id), "double teardown must fail");
    }

    #[test]
    fn reused_subtree_is_pinned_in_new_circuit() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let first =
            mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        let join_node = first
            .placed
            .circuit
            .services()
            .iter()
            .find_map(|s| match &s.kind {
                ServiceKind::Operator { .. } => Some(first.placed.placement.node_of(s.id)),
                _ => None,
            })
            .unwrap();
        let second =
            mq.optimize_and_deploy(&opt(), &query(7), &space, &lat, ReuseScope::All).unwrap();
        let reused_node = second.placed.reused[0].node;
        assert_eq!(reused_node, join_node, "second circuit reuses the first's host");
    }

    #[test]
    fn reuse_increments_and_release_decrements_refcounts() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        let (oc, os) = (b.placed.reused[0].circuit, b.placed.reused[0].service);
        assert_eq!((oc, os), (a.id, b.placed.reused[0].service));
        assert_eq!(mq.refcount(oc, os), 1);
        assert_eq!(mq.total_subscriptions(), 1);

        let rep = mq.release(b.id).expect("b releases once");
        assert!(rep.retained.is_empty(), "nothing subscribes to b");
        assert!(rep.drained.is_empty(), "a still runs its own join");
        assert_eq!(mq.refcount(oc, os), 0);
        assert_eq!(mq.total_subscriptions(), 0);
        assert!(mq.release(b.id).is_none(), "double release must fail");
    }

    #[test]
    fn departed_owner_retains_subscribed_instance_until_drain() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        let shared_sid = b.placed.reused[0].service;

        // Owner departs first: the subscribed join must be retained and
        // stay discoverable.
        let rep = mq.release(a.id).expect("a releases");
        assert_eq!(rep.retained, vec![shared_sid]);
        assert!(rep.drained.is_empty());
        assert_eq!(mq.num_circuits(), 1, "only b still counts as running");
        assert_eq!(mq.num_retained(), 1);
        assert!(mq.num_instances() > 0, "retained instance stays discoverable");

        // New arrival can still attach to the retained instance.
        let c = mq.optimize_and_deploy(&opt(), &query(7), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(c.placed.reused.len(), 1);
        assert_eq!(c.placed.reused[0].circuit, a.id, "c attaches to the retained instance");
        assert_eq!(mq.refcount(a.id, shared_sid), 2);

        // Last subscriber out drains the retained subtree.
        let rep_b = mq.release(b.id).unwrap();
        assert!(rep_b.drained.is_empty(), "c still subscribes");
        let rep_c = mq.release(c.id).unwrap();
        assert_eq!(rep_c.drained, vec![(a.id, shared_sid)]);
        assert_eq!(mq.total_subscriptions(), 0);
        assert_eq!(mq.num_instances(), 0);
        assert_eq!(mq.num_retained(), 0);
        assert_eq!(mq.num_circuits(), 0);
    }

    #[test]
    fn shared_services_are_not_reregistered_by_borrowers() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        let before = mq.num_instances();
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        // b's only operator is the reused join: no new instance appears.
        assert_eq!(mq.num_instances(), before);
        // So any third subscriber necessarily attaches to a's registration.
        let c = mq.optimize_and_deploy(&opt(), &query(8), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(c.placed.reused[0].circuit, a.id);
    }

    #[test]
    fn reregister_swaps_instances_under_the_same_id() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        assert_eq!(mq.num_instances(), 1);
        // Swap in a replacement circuit (same query re-optimized alone —
        // shape is what matters) and move its operator host.
        let mut replacement = a.placed.clone();
        let join = replacement
            .circuit
            .services()
            .iter()
            .find(|s| matches!(s.kind, ServiceKind::Operator { .. }))
            .unwrap()
            .id;
        replacement.placement.move_service(join, NodeId(9));
        replacement.circuit.pin_service(join, NodeId(9));
        mq.reregister(a.id, &replacement, &space);
        assert_eq!(mq.num_circuits(), 1, "same circuit count after the swap");
        assert_eq!(mq.num_instances(), 1, "old instance replaced, not duplicated");
        // Future reuse attaches to the replacement's host under a's id.
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        assert_eq!(b.placed.reused[0].circuit, a.id);
        assert_eq!(b.placed.reused[0].node, NodeId(9));
    }

    #[test]
    #[should_panic(expected = "subscribed instances")]
    fn reregister_rejects_subscribed_circuits() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::None).unwrap();
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        mq.reregister(a.id, &a.placed, &space);
    }

    #[test]
    fn relocate_moves_future_reuse_to_the_new_host() {
        let (space, lat) = world();
        let mut mq = MultiQueryOptimizer::default();
        let a = mq.optimize_and_deploy(&opt(), &query(5), &space, &lat, ReuseScope::All).unwrap();
        let join_sid = a
            .placed
            .circuit
            .services()
            .iter()
            .find(|s| matches!(s.kind, ServiceKind::Operator { .. }))
            .unwrap()
            .id;
        mq.relocate(a.id, join_sid, NodeId(11), &space);
        let b = mq.optimize_and_deploy(&opt(), &query(6), &space, &lat, ReuseScope::All).unwrap();
        assert_eq!(b.placed.reused.len(), 1);
        assert_eq!(b.placed.reused[0].node, NodeId(11));
    }
}
