//! Membership: which nodes are in the overlay, and keeping the control
//! plane's view of them current. Bring-up (arrival order and the
//! embedding, landmark mode included) runs once inside
//! [`OverlayRuntime::new`]; join admission and churn refresh are the first
//! two steps of every tick.
//!
//! `impl OverlayRuntime` here **reads** `config.{deployment, churn}`,
//! `placer`, `latency`, `pool`, `alive` and **writes** `arrived`,
//! `pending_joins`, `attrs`, `rng`, `space`, `mapper`, `relevance`, `obs`.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rayon::prelude::*;

use sbon_coords::vivaldi::{LandmarkPlacer, VivaldiConfig, VivaldiEmbedding, VivaldiNode};
use sbon_core::costspace::CostSpace;
use sbon_core::placement::MapperDelta;
use sbon_core::reopt::relevance::Touches;
use sbon_netsim::graph::NodeId;
use sbon_netsim::rng::derive_rng;
use sbon_obs::WallTimer;

use super::config::DeploymentModel;
use super::latency::LatencyState;
use super::OverlayRuntime;

/// Membership bring-up: everyone at once, or an initial subset with the
/// rest queued behind a deterministic shuffled arrival order. Returns the
/// `arrived` flags and the pending queue.
pub(super) fn arrival_order(
    deployment: DeploymentModel,
    n: usize,
    seed: u64,
) -> (Vec<bool>, VecDeque<NodeId>) {
    match deployment {
        DeploymentModel::Full => (vec![true; n], VecDeque::new()),
        DeploymentModel::Wave { initial, .. } => {
            let initial = initial.clamp(1, n);
            let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            order.shuffle(&mut derive_rng(seed, 0x77a1_e5e7));
            let mut arrived = vec![false; n];
            for node in &order[..initial] {
                arrived[node.index()] = true;
            }
            (arrived, order[initial..].iter().copied().collect())
        }
    }
}

/// Embedding bring-up, one path whatever the deployment model. In landmark
/// mode the landmark half of the protocol runs once over prewarmed rows and
/// the arrived nodes (every node under [`DeploymentModel::Full`]) are
/// placed against the frozen landmarks; the rest are placed the tick they
/// join, through the returned placer. Otherwise the full protocol embeds
/// everyone. When no join is pending, bring-up ends
/// ([`LatencyState::end_bring_up`]).
pub(super) fn embed(
    vivaldi: &VivaldiConfig,
    seed: u64,
    latency: &LatencyState,
    pool: Option<&rayon::ThreadPool>,
    arrived: &[bool],
) -> (VivaldiEmbedding, Option<LandmarkPlacer>) {
    let n = arrived.len();
    let (embedding, placer) = match vivaldi.landmark_ids(n, seed) {
        None => (vivaldi.embed(&latency.provider(), seed), None),
        Some(landmarks) => {
            // The landmark rows are the only latency sources the protocol
            // and every placement read: compute them in parallel up front.
            let sources: Vec<NodeId> = landmarks.iter().map(|&i| NodeId(i as u32)).collect();
            latency.provider().ensure_rows(&sources, pool);
            let placer = vivaldi.embed_landmarks_only(&latency.provider(), seed);
            let initial = (0..n as u32).map(NodeId).filter(|node| arrived[node.index()]);
            let placed = place_batch(&placer, latency, pool, initial);
            (placer.embedding(n, &placed), Some(placer))
        }
    };
    let placer = placer.filter(|_| arrived.contains(&false));
    if placer.is_none() {
        latency.end_bring_up();
    }
    (embedding, placer)
}

/// The one placement call site: every non-landmark of `nodes` (landmarks
/// froze their coordinates at construction) placed against the frozen
/// landmarks, in input order. An empty batch reads no row. Otherwise one
/// lending read ([`LazyLatency::lend_rows`](sbon_netsim::lazy::LazyLatency::lend_rows))
/// makes the `k` landmark rows current — a stale one is repaired on the
/// calling thread, in landmark order — and counts the `nodes × k` values
/// read; the nodes are split into one contiguous chunk per pool thread,
/// and each chunk reads its nodes' latencies from the rows in place and
/// runs the kernel ([`LandmarkPlacer::place_nodes`]). Every node draws from
/// its own stream, so neither batching, join order nor thread count can
/// move a landing spot.
fn place_batch(
    placer: &LandmarkPlacer,
    latency: &LatencyState,
    pool: Option<&rayon::ThreadPool>,
    nodes: impl Iterator<Item = NodeId>,
) -> Vec<(NodeId, VivaldiNode)> {
    let landmarks = placer.landmark_ids();
    let nodes: Vec<NodeId> = nodes.filter(|node| !landmarks.contains(&node.index())).collect();
    if nodes.is_empty() {
        return Vec::new();
    }
    let sources: Vec<NodeId> = landmarks.iter().map(|&l| NodeId(l as u32)).collect();
    let reads = (nodes.len() * landmarks.len()) as u64;
    let states = latency.provider().lend_rows(&sources, reads, pool, |rows| match pool {
        Some(pool) if nodes.len() > 1 => {
            let chunks: Vec<&[NodeId]> =
                nodes.chunks(nodes.len().div_ceil(pool.current_num_threads())).collect();
            let batches: Vec<Vec<VivaldiNode>> = pool.install(|| {
                chunks.par_iter().map(|chunk| placer.place_nodes(chunk, rows)).collect()
            });
            batches.into_iter().flatten().collect()
        }
        _ => placer.place_nodes(&nodes, rows),
    });
    nodes.into_iter().zip(states).collect()
}

impl OverlayRuntime {
    /// The cost space (for inspection).
    pub fn space(&self) -> &CostSpace {
        &self.space
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Whether a node has arrived (always true under
    /// [`DeploymentModel::Full`]).
    pub fn is_arrived(&self, node: NodeId) -> bool {
        self.arrived[node.index()]
    }

    /// Number of nodes that have arrived so far.
    pub fn arrived_count(&self) -> usize {
        self.arrived.iter().filter(|&&a| a).count()
    }

    /// Deployment wave: admits this tick's arrivals — before churn, so a
    /// node can report load the tick it joins. Under landmark mode the
    /// arrivals are first placed against the frozen landmarks as one batch
    /// ([`place_batch`]: one lending read of the landmark rows, the kernel
    /// across the pool reading them in place), so each has its vector
    /// coordinate before it becomes mappable; then each is committed,
    /// serially and in join order, by one O(log n) mapper registration
    /// (`add_node`).
    pub(super) fn admit_joins(&mut self) {
        let DeploymentModel::Wave { joins_per_tick, .. } = self.config.deployment else { return };
        let t_join = WallTimer::start();
        let mut joiners = Vec::new();
        while joiners.len() < joins_per_tick {
            let Some(node) = self.pending_joins.pop_front() else { break };
            // Failed before arrival: never joins.
            if self.alive[node.index()] {
                joiners.push(node);
            }
        }
        if let Some(placer) = &self.placer {
            let joiners = joiners.iter().copied();
            let pool = self.pool.as_ref();
            for (node, state) in place_batch(placer, &self.latency, pool, joiners) {
                self.space.set_vector_coord(node, &state.coord);
            }
        }
        let mut touches = Touches::default();
        for &node in &joiners {
            self.arrived[node.index()] = true;
            // The arrival's catalog registration can change lookups whose
            // scanned region covers its key: the tick's batch invalidates
            // exactly those clean records (everything, under the oracle
            // scan).
            let delta = self.mapper.as_dyn_mut().add_node(&self.space, node);
            debug_assert!(
                !matches!(delta, MapperDelta::Keys { old: Some(_), .. }),
                "a joining node cannot be registered yet"
            );
            touches.mapper(delta);
        }
        let wiped = self.relevance.touch(touches);
        let joined = joiners.len();
        self.obs.registry.inc(self.obs.h.nodes_joined, joined as u64);
        self.obs.registry.inc(self.obs.h.join_ns, t_join.elapsed_ns());
        if joined > 0 {
            self.obs
                .point("join.admit", || vec![("joined", joined.into()), ("wiped", wiped.into())]);
        }
    }

    /// One tick of load churn and the control plane's reaction to it.
    /// Cost-point maintenance is delta-driven: only the nodes the churn
    /// touched are recomputed, and only the points that actually changed
    /// are re-registered with the mapper — work proportional to the churned
    /// set, not the overlay.
    pub(super) fn refresh_churn(&mut self) {
        let dirty = self.config.churn.tick_dirty(&mut self.attrs, &mut self.rng);
        // Timing starts after the churn simulation itself: refresh_ns bills
        // only the control plane's reaction (point refresh + mapper sync).
        let t0 = WallTimer::start();
        self.obs.registry.inc(self.obs.h.ticks, 1);
        self.obs.registry.inc(self.obs.h.dirty_nodes, dirty.len() as u64);
        self.obs.registry.observe(self.obs.h.dirty_per_tick, dirty.len() as f64);
        let (mut refreshed, mut updated) = (0usize, 0u64);
        let mut touches = Touches::default();
        for node in dirty {
            // Dead nodes must not be re-registered with the mapper — their
            // catalog entry was removed on failure — and nodes still waiting
            // in the deployment wave are not registered yet.
            if !(self.alive[node.index()] && self.arrived[node.index()]) {
                continue;
            }
            refreshed += 1;
            if self.space.update_scalars(node, &self.attrs) {
                // Relevance invalidation rides the mapper sync: the moved
                // registration stabs clean records whose scanned ring
                // region covers either key, and the changed cost point
                // stabs every record that read this host's estimate. The
                // tick's touches are applied once, as one batch.
                touches.mapper(self.mapper.as_dyn_mut().update_node(&self.space, node));
                touches.host(node);
                updated += 1;
            }
        }
        let wiped = self.relevance.touch(touches);
        self.obs.registry.inc(self.obs.h.points_updated, updated);
        self.obs.registry.inc(self.obs.h.refresh_ns, t0.elapsed_ns());
        self.obs.point("churn.refresh", || {
            vec![("dirty", refreshed.into()), ("updated", updated.into()), ("wiped", wiped.into())]
        });
    }
}
