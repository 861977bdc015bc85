//! Query lifecycle: per-circuit state, reuse-aware tenancy (subscription
//! pins, retained shared subtrees) and the usage accounting that bills it.
//!
//! The runtime owns every circuit, placement, shared mask and tenancy pin —
//! `circuits` is the one table of them, keyed by [`CircuitHandle`] — and the
//! reuse registry (`multiquery`) owns instances, refcounts and borrows under
//! the same id ([`CircuitHandle::id`]); nothing is stored on both sides.
//!
//! `impl OverlayRuntime` here **reads** `config.reuse`, `space`, `latency`,
//! `optimizer` and **writes** `circuits` (insert at deploy, keyed
//! remove at undeploy, keyed pin / unpin of a subscribed owner — resetting
//! its re-opt memo's placement slot — each circuit's stored usage at a
//! tick), `retained` (push in departure order,
//! drained by owner, each entry's stored usage at a tick), `multiquery`
//! (attach, register, release), `mapper`, `relevance`, `next_handle`, `obs`.
//!
//! # Stored usage
//!
//! Each live circuit and retained subtree keeps its charged usage —
//! Σ `rate × latency` over its charged links, in link order — as a
//! [`Billed`] stamped with the latency epoch it was read at. Deploy seeds it
//! from the measured cost (`cost_with` sums the same products in the same
//! order); the `Tick` arm's `bill_usage` re-reads only the entries without
//! one or with one from an older epoch (a jitter batch bumps the epoch).
//! Every writer of what the sum reads clears it: the `Migrate` and `Replace`
//! commits of `reopt_pass` (placement, circuit, shared mask), evacuation in
//! `fail_node` (placement) and `apply_drains` (a retained entry's charge
//! mask). No other write reaches a charged link's endpoints or rate, so a
//! stored value is always the sum a re-read would return, bit for bit —
//! `runtime::tests::stored_usage_equals_rereading_every_link` pins it.

use sbon_core::circuit::{Circuit, Link, Placement, ServiceId};
use sbon_core::costspace::CostSpace;
use sbon_core::multiquery::{CircuitId, MultiQueryOptimizer};
use sbon_core::optimizer::{PlacedCircuit, QuerySpec};
use sbon_core::reopt::ReoptMemo;
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::sim::SimTime;

use super::OverlayRuntime;

/// Handle to a deployed circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitHandle(pub usize);

impl CircuitHandle {
    /// The id this circuit is registered under in the reuse registry — the
    /// one place the two id types convert.
    pub(super) fn id(self) -> CircuitId {
        CircuitId(self.0 as u64)
    }

    /// The handle of the circuit the registry calls `id`.
    pub(super) fn of(id: CircuitId) -> CircuitHandle {
        CircuitHandle(id.0 as usize)
    }
}

/// Internal per-circuit state; its handle is its key in `circuits`.
pub(super) struct Deployed {
    pub(super) query: QuerySpec,
    pub(super) running_plan: sbon_query::plan::LogicalPlan,
    pub(super) circuit: Circuit,
    pub(super) placement: Placement,
    /// `shared[service]` — paid for by another circuit's instance; empty
    /// when the circuit was deployed standalone. Usage accounting skips
    /// links whose downstream endpoint is shared.
    pub(super) shared: Vec<bool>,
    /// The charged usage as last read; `None` after a migration, a
    /// replacement or an evacuation.
    pub(super) billed: Option<Billed>,
    /// What the re-opt passes remember about this circuit's candidates:
    /// reset in part by every write of `circuit` (a replacement, a tenancy
    /// pin or unpin), wholly by a vector-coordinate change.
    pub(super) memo: ReoptMemo,
}

impl Deployed {
    /// The running circuit's network usage as the cost space estimates it —
    /// what a plan-replacing pass must beat by the replacement threshold.
    pub(super) fn running_est(&self, space: &CostSpace) -> f64 {
        self.circuit
            .cost_with(&self.placement, &[], |a, b| space.vector_distance(a, b))
            .network_usage
    }

    /// The links usage accounting bills to this circuit: all but those
    /// whose downstream endpoint another circuit's instance pays for.
    fn charged_links(&self) -> impl Iterator<Item = &Link> {
        self.circuit.links().iter().filter(|l| !l.is_free(&self.shared))
    }
}

/// A departed circuit's subtree kept alive because other circuits still
/// subscribe to one of its operator instances. Its charged links keep
/// accruing network usage until the last subscriber releases.
pub(super) struct RetainedShared {
    pub(super) owner: CircuitId,
    pub(super) circuit: Circuit,
    pub(super) placement: Placement,
    /// The owner's own shared mask (links it never paid for stay unpaid).
    pub(super) owner_shared: Vec<bool>,
    /// Still-subscribed instance roots.
    pub(super) roots: Vec<ServiceId>,
    /// `charge[link]` — the link still carries data for a retained subtree
    /// and is billed to this entry.
    pub(super) charge: Vec<bool>,
    /// The charged usage as last read; `None` after `charge` changed.
    billed: Option<Billed>,
}

impl RetainedShared {
    /// The links still billed to this entry.
    fn charged_links(&self) -> impl Iterator<Item = &Link> {
        self.circuit.links().iter().zip(&self.charge).filter(|&(_, &c)| c).map(|(l, _)| l)
    }
}

/// An entry's charged usage as read at latency epoch `epoch`.
#[derive(Clone, Copy, Debug)]
pub(super) struct Billed {
    usage: f64,
    epoch: u64,
}

/// The stored usage of an entry if it is current at `epoch`.
fn current(billed: Option<Billed>, epoch: u64) -> Option<f64> {
    billed.filter(|b| b.epoch == epoch).map(|b| b.usage)
}

/// Σ `rate × latency` over `links`, in link order: the one sum usage
/// accounting bills per entry.
fn read_usage<'a>(
    placement: &Placement,
    links: impl Iterator<Item = &'a Link>,
    latency: &dyn LatencyProvider,
) -> f64 {
    links
        .map(|l| l.rate * latency.latency(placement.node_of(l.from), placement.node_of(l.to)))
        .sum()
}

/// `charge[link]`: the link feeds a subtree rooted at one of `roots` and the
/// owner actually paid for it (it is not inside a subtree the owner itself
/// borrowed).
fn charge_mask(circuit: &Circuit, roots: &[ServiceId], owner_shared: &[bool]) -> Vec<bool> {
    let in_subtree = circuit.subtree_mask(roots);
    circuit.links().iter().map(|l| in_subtree[l.to.index()] && !l.is_free(owner_shared)).collect()
}

impl OverlayRuntime {
    /// Applies cascaded drains reported by the registry: retained subtrees
    /// whose last subscriber left stop accruing usage.
    pub(super) fn apply_drains(&mut self, drained: &[(CircuitId, ServiceId)]) {
        for &(owner, root) in drained {
            let Some(pos) = self.retained.iter().position(|r| r.owner == owner) else {
                continue;
            };
            let entry = &mut self.retained[pos];
            entry.roots.retain(|&s| s != root);
            if entry.roots.is_empty() {
                self.retained.remove(pos);
            } else {
                entry.charge = charge_mask(&entry.circuit, &entry.roots, &entry.owner_shared);
                entry.billed = None;
            }
        }
    }

    /// Lifts the tenancy pin from instances whose last subscriber left
    /// while their owner keeps running — they are migratable again.
    pub(super) fn apply_idle(&mut self, idle: &[(CircuitId, ServiceId)]) {
        for &(owner, service) in idle {
            if let Some(d) = self.circuits.get_mut(&CircuitHandle::of(owner)) {
                d.circuit.unpin_service(service);
                d.memo.circuit_changed();
                // The unpin changes what the passes may migrate/replace.
                self.relevance.mark_dirty(owner.0);
            }
        }
    }

    /// Bills the tick: re-reads the charged usage of every entry whose
    /// stored value was cleared or read at an older latency epoch, and
    /// stores it. Returns the usage [`OverlayRuntime::instantaneous_usage`]
    /// reports and the number of entries re-read.
    pub(super) fn bill_usage(&mut self) -> (f64, u64) {
        let epoch = self.latency.epoch();
        let stale = |billed: Option<Billed>| current(billed, epoch).is_none();
        let latency = self.latency.provider();
        let mut reread = 0;
        for d in self.circuits.values_mut().filter(|d| stale(d.billed)) {
            let usage = read_usage(&d.placement, d.charged_links(), latency);
            d.billed = Some(Billed { usage, epoch });
            reread += 1;
        }
        for r in self.retained.iter_mut().filter(|r| stale(r.billed)) {
            let usage = read_usage(&r.placement, r.charged_links(), latency);
            r.billed = Some(Billed { usage, epoch });
            reread += 1;
        }
        self.obs.cp.usage_rereads += reread;
        (self.instantaneous_usage(), reread)
    }

    /// Current instantaneous network usage: every live circuit's *charged*
    /// links (marginal links under reuse — links paid for by a reused
    /// instance's owner are skipped) plus the links of retained shared
    /// subtrees whose owners departed but whose subscribers remain.
    ///
    /// Each entry contributes its stored usage when that is current, and is
    /// read on the fly — not stored — otherwise; either way the value is
    /// the sum of its charged links' `rate × latency` in link order.
    pub fn instantaneous_usage(&self) -> f64 {
        let (latency, epoch) = (self.latency.provider(), self.latency.epoch());
        // Summed per circuit, then across circuits: the order is part of the
        // bit-identical usage contract.
        let live: f64 = self
            .circuits
            .values()
            .map(|d| {
                current(d.billed, epoch)
                    .unwrap_or_else(|| read_usage(&d.placement, d.charged_links(), latency))
            })
            .sum();
        let retained: f64 = self
            .retained
            .iter()
            .map(|r| {
                current(r.billed, epoch)
                    .unwrap_or_else(|| read_usage(&r.placement, r.charged_links(), latency))
            })
            .sum();
        // `+ 0.0` normalizes the empty-sum identity `-0.0` to `+0.0` (and
        // changes nothing else), so idle baselines print and compare as
        // plain zero.
        live + retained + 0.0
    }

    /// The reference the stored usage is pinned to: every charged link of
    /// every entry re-read, whatever is stored.
    #[cfg(test)]
    pub(super) fn usage_by_rereading(&self) -> f64 {
        let latency = self.latency.provider();
        let live: f64 = self
            .circuits
            .values()
            .map(|d| read_usage(&d.placement, d.charged_links(), latency))
            .sum();
        let retained: f64 = self
            .retained
            .iter()
            .map(|r| read_usage(&r.placement, r.charged_links(), latency))
            .sum();
        live + retained + 0.0
    }

    /// Optimizes and deploys a query; returns its handle. Candidate plans
    /// are physically mapped through the runtime-owned mapper (routed DHT
    /// lookups under the default backend). With reuse enabled
    /// ([`RuntimeConfigBuilder::reuse`](super::RuntimeConfigBuilder::reuse))
    /// the query may attach to running operator subtrees; each
    /// attachment subscribes to (refcounts) the instance and pins it in its
    /// owner's circuit so re-optimization stops migrating it.
    pub fn deploy(&mut self, query: QuerySpec) -> Option<CircuitHandle> {
        let sp = self.obs.span_start("deploy", Vec::new);
        let deployed = self.deploy_inner(query);
        match deployed {
            Some(handle) => self.obs.span_end(sp, || vec![("handle", handle.0.into())]),
            None => self.obs.span_end(sp, || vec![("failed", 1u64.into())]),
        }
        deployed
    }

    fn deploy_inner(&mut self, query: QuerySpec) -> Option<CircuitHandle> {
        let handle = CircuitHandle(self.next_handle);
        // Select in the cost space — candidates attached to running
        // instances first when reuse is on — then measure the winner alone.
        let reuse = self.multiquery.as_mut().map(|mq| (mq, self.config.reuse));
        let (space, mapper) = (&self.space, self.mapper.as_dyn_mut());
        let placed = self.optimizer.optimize_with_mapper_estimated(&query, space, mapper, reuse)?;
        let placed = placed.measured(self.latency.provider());
        let standalone = self.optimizer.standalone_cost(
            &placed,
            &query,
            &self.space,
            self.mapper.as_dyn_mut(),
            self.latency.provider(),
        );
        let life = &mut self.obs.lifecycle;
        life.marginal_usage += placed.cost.network_usage;
        life.standalone_usage += standalone.network_usage;
        if let Some(mq) = &mut self.multiquery {
            mq.register(handle.id(), &placed, &self.space);
            if !placed.reused.is_empty() {
                life.reuse_hits += 1;
            }
            life.reused_services += placed.reused.len();
        }
        // Tenancy pin: a subscribed instance is load-bearing for its new
        // tenant, so its owner must stop migrating it.
        for inst in &placed.reused {
            if let Some(owner) = self.circuits.get_mut(&CircuitHandle::of(inst.circuit)) {
                owner.circuit.pin_service(inst.service, inst.node);
                owner.memo.circuit_changed();
                // The pin changes the owner's adaptation surface.
                self.relevance.mark_dirty(inst.circuit.0);
            }
        }
        self.next_handle += 1;
        self.obs.lifecycle.arrivals += 1;
        // `measured` summed the same products over the same links in the
        // same order: the circuit's usage is billed as of now.
        let billed = Some(Billed { usage: placed.cost.network_usage, epoch: self.latency.epoch() });
        let PlacedCircuit { plan: running_plan, circuit, placement, shared, .. } = placed;
        let memo = ReoptMemo::default();
        let deployed = Deployed { query, running_plan, circuit, placement, shared, billed, memo };
        self.circuits.insert(handle, Box::new(deployed));
        // Routed backend: the deployment's mapping lookups are parked in
        // the mapper's outbox — replay them as message traffic now (the
        // routed clock carries the time forward between run ticks).
        self.mapper.settle(SimTime::ZERO, &self.latency, &mut self.obs);
        Some(handle)
    }

    /// Tears a circuit down — the inverse of [`OverlayRuntime::deploy`].
    /// Its traffic is discharged from usage accounting immediately; under
    /// reuse, shared services it owns are **retained** while subscribers
    /// remain and released only when their refcount drains to zero.
    /// Returns `false` for unknown (or already failed / undeployed)
    /// handles.
    pub fn undeploy(&mut self, handle: CircuitHandle) -> bool {
        let Some(d) = self.circuits.remove(&handle).map(|boxed| *boxed) else {
            return false;
        };
        self.obs.lifecycle.departures += 1;
        self.obs.point("undeploy", || vec![("handle", handle.0.into())]);
        self.relevance.remove(handle.id().0);
        if let Some(mq) = &mut self.multiquery {
            if let Some(rep) = mq.release(handle.id()) {
                if !rep.retained.is_empty() {
                    let charge = charge_mask(&d.circuit, &rep.retained, &d.shared);
                    self.retained.push(RetainedShared {
                        owner: handle.id(),
                        circuit: d.circuit,
                        placement: d.placement,
                        owner_shared: d.shared,
                        roots: rep.retained,
                        charge,
                        billed: None,
                    });
                }
                self.apply_drains(&rep.drained);
                self.apply_idle(&rep.idle);
            }
        }
        true
    }

    /// Queries currently running (the active-query gauge; retained shared
    /// subtrees of departed queries are not counted).
    pub fn active_queries(&self) -> usize {
        self.circuits.len()
    }

    /// Departed circuits' shared subtrees still running for subscribers.
    pub fn retained_shared_subtrees(&self) -> usize {
        self.retained.len()
    }

    /// The reuse registry, when reuse is enabled — for inspecting refcounts
    /// and instance counts.
    pub fn multiquery(&self) -> Option<&MultiQueryOptimizer> {
        self.multiquery.as_ref()
    }

    /// The current placement of a circuit. `None` after the circuit failed.
    pub fn placement(&self, handle: CircuitHandle) -> Option<&Placement> {
        self.circuits.get(&handle).map(|d| &d.placement)
    }
}
