//! Node failure: mapper removal, the tenancy-aware teardown cascade, and
//! evacuation of stranded services through the runtime-owned mapper.
//!
//! `impl OverlayRuntime` here **reads** `space`, `optimizer` (its placer)
//! and **writes** `alive`, `mapper`, `relevance`, `circuits` (keyed remove of
//! every dead or orphaned circuit, evacuated placements and their stored
//! usage), `retained` (the
//! torn-down owners' entries), `multiquery` (teardown, relocate),
//! `failed_circuits`.

use sbon_core::circuit::ServicePin;
use sbon_core::multiquery::{CircuitId, ReleaseReport};
use sbon_core::placement::VirtualPlacer;
use sbon_core::reopt::relevance::Touches;
use sbon_netsim::graph::NodeId;

use super::lifecycle::{CircuitHandle, Deployed};
use super::OverlayRuntime;

impl OverlayRuntime {
    /// Circuits lost to pinned-service failures so far.
    pub fn failed_circuits(&self) -> &[CircuitHandle] {
        &self.failed_circuits
    }

    /// Force-removes circuit `id` — live (it is reported failed) or departed
    /// with a retained subtree — from the table, the retained list and the
    /// reuse registry, adding what the registry reports to `cascade`.
    fn tear_down(&mut self, id: CircuitId, cascade: &mut ReleaseReport) {
        let handle = CircuitHandle::of(id);
        if self.circuits.remove(&handle).is_some() {
            self.failed_circuits.push(handle);
            self.relevance.remove(id.0);
        }
        self.retained.retain(|r| r.owner != id);
        if let Some(rep) = self.multiquery.as_mut().and_then(|mq| mq.teardown_reporting(id)) {
            cascade.drained.extend(rep.drained);
            cascade.idle.extend(rep.idle);
            cascade.orphaned.extend(rep.orphaned);
        }
    }

    /// Kills `node` now: evacuates unpinned services, tears down circuits
    /// with dead pinned services. Returns the number of evacuated services.
    pub(super) fn fail_node(&mut self, node: NodeId) -> usize {
        if !self.alive[node.index()] {
            return 0;
        }
        self.alive[node.index()] = false;
        // The maintenance contract: the dead node leaves the mapper, so no
        // control-plane path can ever map onto it again. Clean records that
        // scanned its registration (or read its cost point) go dirty.
        let mut touches = Touches::default();
        touches.mapper(self.mapper.as_dyn_mut().remove_node(node));
        touches.host(node);
        self.relevance.touch(touches);
        let mut evacuated = 0;

        // Tear down circuits whose pinned services died. Under reuse, each
        // dead circuit force-leaves the registry (its instances died with
        // it), and the failure **cascades**: circuits subscribed to a
        // torn-down instance lose their feed and are torn down too, as are
        // retained shared subtrees with a service on the dead node.
        let mut cascade = ReleaseReport::default();
        let dead_pin = |d: &Deployed| {
            d.circuit.services().iter().any(|s| matches!(s.pin, ServicePin::Pinned(n) if n == node))
        };
        let dead: Vec<CircuitId> =
            self.circuits.iter().filter(|(_, d)| dead_pin(d)).map(|(h, _)| h.id()).collect();
        for id in dead {
            self.tear_down(id, &mut cascade);
        }
        // Retained shared subtrees with any service on the dead node are
        // broken: their (departed) owners join the teardown worklist.
        cascade.orphaned.extend(self.retained.iter().filter_map(|r| {
            let mask = r.circuit.subtree_mask(&r.roots);
            let broken = r
                .circuit
                .services()
                .iter()
                .any(|s| mask[s.id.index()] && r.placement.node_of(s.id) == node);
            broken.then_some(r.owner)
        }));
        // Cascade: tear down orphaned subscribers in the order they were
        // reported (and whatever their teardown orphans in turn).
        let mut next = 0;
        while let Some(&id) = cascade.orphaned.get(next) {
            next += 1;
            self.tear_down(id, &mut cascade);
        }
        self.apply_drains(&cascade.drained);
        self.apply_idle(&cascade.idle);

        // Evacuate unpinned services stranded on the dead node, through the
        // same runtime-owned mapper every other control-plane path uses.
        for (handle, d) in &mut self.circuits {
            let stranded: Vec<_> = d
                .circuit
                .services()
                .iter()
                .filter(|s| s.is_unpinned() && d.placement.node_of(s.id) == node)
                .map(|s| s.id)
                .collect();
            if stranded.is_empty() {
                continue;
            }
            // Evacuation rewrites the placement: the circuit is dirty for
            // every pass kind, and its stored usage is stale.
            self.relevance.mark_dirty(handle.id().0);
            d.billed = None;
            let vp = self.optimizer.placer().place(&d.circuit, &self.space);
            for sid in stranded {
                let ideal = self.space.ideal_point(vp.coord_of(sid));
                let (new_node, _) = self.mapper.as_dyn_mut().map_point(&self.space, &ideal);
                d.placement.move_service(sid, new_node);
                // Keep the reuse-discovery index truthful about the host.
                if let Some(mq) = &mut self.multiquery {
                    mq.relocate(handle.id(), sid, new_node, &self.space);
                }
                evacuated += 1;
            }
        }
        evacuated
    }
}
