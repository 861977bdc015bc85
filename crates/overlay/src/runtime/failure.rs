//! Node failure: mapper removal, the tenancy-aware teardown cascade, and
//! evacuation of stranded services through the runtime-owned mapper.
//!
//! `impl OverlayRuntime` here **reads** `space` and **writes** `alive`,
//! `mapper`, `relevance`, `circuits`, `retained`, `multiquery`,
//! `failed_circuits`.

use std::collections::VecDeque;

use sbon_core::circuit::{ServiceId, ServicePin};
use sbon_core::multiquery::CircuitId;
use sbon_core::placement::{RelaxationPlacer, VirtualPlacer};
use sbon_netsim::graph::NodeId;

use super::lifecycle::{subtree_mask, CircuitHandle};
use super::OverlayRuntime;

impl OverlayRuntime {
    /// Circuits lost to pinned-service failures so far.
    pub fn failed_circuits(&self) -> &[CircuitHandle] {
        &self.failed_circuits
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
        self.relevance.touch_mapper(self.mapper.as_dyn_mut().remove_node(node));
        self.relevance.touch_host(node);
        let placer = RelaxationPlacer::default();
        let mut evacuated = 0;

        // Tear down circuits whose pinned services died. Under reuse, each
        // dead circuit force-leaves the registry (its instances died with
        // it), and the failure **cascades**: circuits subscribed to a
        // torn-down instance lose their feed and are torn down too, as are
        // retained shared subtrees with a service on the dead node.
        let mut drained: Vec<(CircuitId, ServiceId)> = Vec::new();
        let mut idle: Vec<(CircuitId, ServiceId)> = Vec::new();
        let mut orphans: VecDeque<CircuitId> = VecDeque::new();
        let mut idx = 0;
        while idx < self.circuits.len() {
            let dead_pin = self.circuits[idx]
                .circuit
                .services()
                .iter()
                .any(|s| matches!(s.pin, ServicePin::Pinned(n) if n == node));
            if dead_pin {
                let d = self.circuits.remove(idx);
                self.failed_circuits.push(d.handle);
                self.relevance.remove(d.handle.0 as u64);
                if let (Some(mq), Some(id)) = (&mut self.multiquery, d.mq_id) {
                    if let Some(rep) = mq.teardown_reporting(id) {
                        drained.extend(rep.drained);
                        idle.extend(rep.idle);
                        orphans.extend(rep.orphaned);
                    }
                }
            } else {
                idx += 1;
            }
        }
        // Retained shared subtrees with any service on the dead node are
        // broken: their (departed) owners join the teardown worklist.
        orphans.extend(self.retained.iter().filter_map(|r| {
            let mask = subtree_mask(&r.circuit, &r.roots);
            let broken = r
                .circuit
                .services()
                .iter()
                .any(|s| mask[s.id.index()] && r.placement.node_of(s.id) == node);
            broken.then_some(r.owner)
        }));
        // Cascade: tear down orphaned subscribers (and whatever their
        // teardown orphans in turn).
        while let Some(id) = orphans.pop_front() {
            if let Some(pos) = self.circuits.iter().position(|d| d.mq_id == Some(id)) {
                let d = self.circuits.remove(pos);
                self.failed_circuits.push(d.handle);
                self.relevance.remove(d.handle.0 as u64);
            }
            self.retained.retain(|r| r.owner != id);
            if let Some(mq) = &mut self.multiquery {
                if let Some(rep) = mq.teardown_reporting(id) {
                    drained.extend(rep.drained);
                    idle.extend(rep.idle);
                    orphans.extend(rep.orphaned);
                }
            }
        }
        self.apply_drains(&drained);
        self.apply_idle(&idle);

        // Evacuate unpinned services stranded on the dead node, through the
        // same runtime-owned mapper every other control-plane path uses.
        for d in &mut self.circuits {
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
            // every pass kind.
            self.relevance.mark_dirty(d.handle.0 as u64);
            let vp = placer.place(&d.circuit, &self.space);
            for sid in stranded {
                let ideal = self.space.ideal_point(vp.coord_of(sid));
                let (new_node, _) = self.mapper.as_dyn_mut().map_point(&self.space, &ideal);
                d.placement.move_service(sid, new_node);
                // Keep the reuse-discovery index truthful about the host.
                if let (Some(mq), Some(id)) = (&mut self.multiquery, d.mq_id) {
                    mq.relocate(id, sid, new_node, &self.space);
                }
                evacuated += 1;
            }
        }
        evacuated
    }
}
