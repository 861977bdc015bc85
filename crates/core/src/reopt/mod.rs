//! Re-optimization of long-running circuits (Sections 2 & 3.3).
//!
//! "Over time, as network dynamics change, each node that hosts part of a
//! circuit is capable of re-optimization. This is a local procedure, where a
//! node can re-run placement and mapping for any service that it hosts. The
//! result may be to migrate the service to a cooperating node. ... But it is
//! also possible that a stronger form of re-optimization is required \[when\]
//! the selectivity estimates ... change as a circuit matures. In this
//! scenario, a node can trigger the full circuit optimization while the
//! original circuit is still running. If warranted, a new parallel circuit
//! is deployed, cancelling the original less ideal circuit."
//!
//! # The relevance / skip contract
//!
//! Every re-optimization decision in this module reads exactly two kinds of
//! input: **cost-space coordinates** (via the mapper's catalog or oracle
//! scan, and via `CostSpace::vector_distance` estimates over the circuit's
//! own hosts) and the **circuit itself** (services, pins, link rates,
//! current placement). Measured link latency is *never* an input — candidate
//! selection and migration/replacement thresholds all compare estimated
//! network usage — which is why latency jitter alone can never change a
//! re-opt decision, and why these functions take no latency provider.
//!
//! That closed input set is what makes dirty-driven skipping exact (see
//! [`relevance`]): an evaluation that made no state change, and whose
//! recorded read set (scanned catalog [`ScanSpan`]s, the circuit's host
//! nodes, or "the whole space" for oracle scans) contains no
//! subsequently-touched key or node, would reproduce its no-op decision
//! bit-for-bit — so the owner may skip it entirely. Anything that mutates a
//! circuit (migration, rewrite, replacement, evacuation, pin changes) marks
//! it dirty for every pass kind.
//!
//! The plan-replacing passes add a third input that stays inside that set:
//! the **pruning bound** (see [`crate::optimizer`]'s candidate loop). A
//! candidate's [`Circuit::usage_lower_bound`] reads the vector coordinates
//! of its *pinned* hosts — the query's producers and consumer, which every
//! candidate shares with the running circuit — and it is compared against
//! the running estimate and the estimates of the candidates mapped before
//! it; all of that is either in the recorded host set or derived from reads
//! that are. A pruned candidate is never mapped, so it contributes no scan
//! spans — and needs none: replay the evaluation with the recorded hosts and
//! spans untouched and the bounds, the running estimate and every surviving
//! candidate's mapping come out the same, hence the same bar at every step,
//! hence the same candidates pruned. The read set of the survivors alone is
//! a complete read set.
//!
//! # Per-pass candidate lists
//!
//! A plan-replacing pass builds every **distinct** candidate list once,
//! serially and in circuit order, before its evaluations run
//! ([`CandidateLists`]); each evaluation reads its list by reference, and a
//! candidate borrows its plan, cloning it only when it becomes the incumbent
//! best. The keys are exactly what each list is a function of:
//!
//! * a rewrite list ([`rewrite_neighbourhood`]) reads the running plan and
//!   nothing else, so circuits running the same plan — exact structure,
//!   [`LogicalPlan::same_structure`] within a
//!   [`LogicalPlan::structural_hash`] bucket — share one list;
//! * a full list on the exhaustive branch
//!   ([`IntegratedOptimizer::enumerates_exhaustively`]) reads the join set,
//!   the source filters and the root aggregate and nothing else, so queries
//!   of one shape (all three equal, parameters by bits) share one plan
//!   space;
//! * a full list on the k-best DP branch ranks join orders by the query's
//!   catalog — rates and selectivities, which two queries over equal join
//!   sets need not share — so it is never shared.
//!
//! Sharing is therefore decision-identical: every circuit sees exactly the
//! list, in exactly the order, it would have generated itself. A list is a
//! function of the circuit itself, so it adds nothing to the read set above.
//!
//! # What a pass cannot change
//!
//! Half of a candidate's evaluation reads nothing that load churn moves. Its
//! bound ([`Circuit::usage_lower_bound`]) and its virtual placement
//! ([`VirtualPlacer::place`]) read the candidate circuit and the **vector**
//! coordinates of its pinned hosts; only the mapping reads the scalar
//! dimensions churn rewrites, and vector coordinates change only through
//! [`CostSpace::set_vector_coord`], which bumps the space's
//! [vector epoch](CostSpace::vector_epoch) on a bit-level change. So each
//! deployed circuit keeps a [`ReoptMemo`] of those outputs — flat: one bound
//! per candidate, one coordinate buffer for the unpinned services of every
//! placed candidate — keyed as follows, with every entry stamped with the
//! epoch it was computed at:
//!
//! * **full list** — by index into the query's
//!   [`candidate_plans`](IntegratedOptimizer::candidate_plans), which are a
//!   function of the query alone; never reset but by the epoch;
//! * **rewrite list** — by index into the running plan's
//!   [`rewrite_neighbourhood`]; reset by a `Replace` commit
//!   ([`ReoptMemo::plan_changed`]), the one writer of the running plan;
//! * **local** — the running circuit's own placement, which reads its pins;
//!   reset wherever the circuit is written: a `Replace` commit, a tenancy
//!   `pin_service` or `unpin_service` ([`ReoptMemo::circuit_changed`]).
//!   Migrations and evacuations write the *physical* placement only, which
//!   no virtual placement reads.
//!
//! A hit is bit-identical to recomputing: the same circuit (built from the
//! same plan, query and consumer, or the same running circuit) placed by the
//! same placer over bit-equal vector coordinates runs the same floating-point
//! operations in the same order, and so does the bound. A stale epoch makes
//! the whole memo read as empty. [`crate::optimizer`]'s candidate loop
//! therefore never builds a candidate whose remembered bound prunes (a
//! pruned candidate leaves no trace but the count), and maps a survivor
//! from its remembered placement without a sweep; mapping and costing still
//! run every time, so the read set above is unchanged. Evaluations read the
//! memo through a [`MemoSlot`] and return what they computed; the owner
//! stores it serially, so thread count changes nothing.
//!
//! [`ScanSpan`]: sbon_dht::catalog::ScanSpan

pub mod relevance;

use std::borrow::Cow;
use std::collections::BTreeMap;

use sbon_query::plan::LogicalPlan;
use sbon_query::stream::StreamId;

use crate::circuit::{Circuit, Placement, ServiceId};
use crate::costspace::CostSpace;
use crate::optimizer::{
    select_cheapest, Candidate, IntegratedOptimizer, PlacedCircuit, QuerySpec, BOUND_SLACK,
};
use crate::placement::{PhysicalMapper, VirtualPlacer};
use relevance::ReoptKind;

/// One executed migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Which service moved.
    pub service: ServiceId,
    /// Old host.
    pub from: sbon_netsim::graph::NodeId,
    /// New host.
    pub to: sbon_netsim::graph::NodeId,
}

/// Policy for local re-optimization.
#[derive(Clone, Copy, Debug)]
pub struct ReoptPolicy {
    /// A migration happens only when it improves the circuit's estimated
    /// network usage by at least this fraction (hysteresis damping —
    /// without it, coordinate jitter would keep services sloshing between
    /// near-equal hosts).
    pub migration_threshold: f64,
    /// A full re-optimization replaces the running circuit only when the
    /// new circuit is at least this fraction cheaper.
    pub replacement_threshold: f64,
}

impl Default for ReoptPolicy {
    fn default() -> Self {
        ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.10 }
    }
}

/// Re-runs virtual placement + physical mapping for every unpinned service
/// of a running circuit, migrating those whose move clears the policy
/// threshold. This is the cheap, local adaptation path — no plan rewrite.
/// Returns the executed migrations, in application order; `placement` ends
/// where they lead. With a `memo` slot the circuit's virtual placement is
/// read from it when remembered (it is entry 0 of the local list) and
/// recorded in it when not.
pub fn reoptimize_local(
    circuit: &Circuit,
    placement: &mut Placement,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
    memo: Option<&mut MemoSlot<'_>>,
) -> Vec<Migration> {
    let estimate =
        |p: &Placement| circuit.cost_with(p, &[], |a, b| space.vector_distance(a, b)).network_usage;
    let mut migrations = Vec::new();
    let mut standing = None;

    let mut unplaced = MemoSlot::default();
    let coords = memo.unwrap_or(&mut unplaced).placement(0, circuit, space, placer);
    let unpinned = circuit.services().iter().filter(|s| s.is_unpinned());
    for (s, coord) in unpinned.zip(coords.chunks_exact(space.vector_dims())) {
        let ideal = space.ideal_point(coord);
        let (candidate, _hops) = mapper.map_point(space, &ideal);
        let current = placement.node_of(s.id);
        if candidate == current {
            continue;
        }
        // Trial move; keep it only if the improvement clears the threshold.
        // The estimate it must beat is costed once and then carried: a
        // revert restores it, an accepted move's estimate succeeds it.
        let before = *standing.get_or_insert_with(|| estimate(placement));
        placement.move_service(s.id, candidate);
        let after = estimate(placement);
        if after < before * (1.0 - policy.migration_threshold) {
            migrations.push(Migration { service: s.id, from: current, to: candidate });
            standing = Some(after);
        } else {
            placement.move_service(s.id, current); // revert
        }
    }
    migrations
}

/// The paper's "limited plan re-writing" (Section 3.3): the rewrite pass's
/// candidate list for a circuit running `running_plan` is its local rewrite
/// neighbourhood — join reorderings, filter decomposition and
/// re-composition (see [`sbon_query::rewrite`]) up to two rewrite steps, at
/// most 128 plans. Cheaper than full re-optimization: the candidate set is
/// the rewrite neighbourhood, not the whole plan space. (Depth two, because
/// commutations are cost-neutral on their own but unlock rotations.) It
/// reads `running_plan` and nothing else.
pub fn rewrite_neighbourhood(running_plan: &LogicalPlan) -> Vec<LogicalPlan> {
    sbon_query::rewrite::neighbors_within(running_plan, 2, 128)
}

/// The candidate lists of one plan-replacing pass: the `i`-th evaluated
/// circuit's list is [`CandidateLists::of`]`(i)`, and each *distinct* list
/// is built once, in circuit order, before any circuit is evaluated (see
/// the module docs for the keys). It lives for one pass.
#[derive(Debug, Default)]
pub struct CandidateLists {
    /// The distinct lists, in order of first use.
    lists: Vec<Vec<LogicalPlan>>,
    /// `list_of[i]`: the index into `lists` of the `i`-th circuit's list.
    list_of: Vec<usize>,
}

impl CandidateLists {
    /// A rewrite pass's lists: each circuit's [`rewrite_neighbourhood`] of
    /// its running plan, one list per distinct plan
    /// ([`LogicalPlan::same_structure`], bucketed by
    /// [`LogicalPlan::structural_hash`]).
    pub fn rewrite<'p>(running_plans: impl IntoIterator<Item = &'p LogicalPlan>) -> Self {
        let mut table = CandidateLists::default();
        let mut seen: BTreeMap<u64, Vec<(&LogicalPlan, usize)>> = BTreeMap::new();
        for plan in running_plans {
            let listed = seen.entry(plan.structural_hash()).or_default();
            let at = match listed.iter().find(|(key, _)| key.same_structure(plan)) {
                Some(&(_, at)) => at,
                None => {
                    let at = table.push(rewrite_neighbourhood(plan));
                    listed.push((plan, at));
                    at
                }
            };
            table.list_of.push(at);
        }
        table
    }

    /// A full pass's lists: each circuit's
    /// [`IntegratedOptimizer::candidate_plans`] for its query. Queries on
    /// the exhaustive branch share one list per distinct join set, source
    /// filters and root aggregate (parameters by bits); a query on the
    /// k-best DP branch, which reads its catalog, gets a list of its own.
    pub fn full<'q>(
        optimizer: &IntegratedOptimizer,
        queries: impl IntoIterator<Item = &'q QuerySpec>,
    ) -> Self {
        type Shape = (Vec<StreamId>, Vec<(StreamId, u64)>, Option<u64>);
        let mut table = CandidateLists::default();
        let mut seen: BTreeMap<Shape, usize> = BTreeMap::new();
        for query in queries {
            let at = if optimizer.enumerates_exhaustively(query) {
                let shape = (
                    query.join_set.clone(),
                    query.source_filters.iter().map(|&(s, sel)| (s, sel.to_bits())).collect(),
                    query.root_aggregate.map(f64::to_bits),
                );
                *seen.entry(shape).or_insert_with(|| table.push(optimizer.candidate_plans(query)))
            } else {
                table.push(optimizer.candidate_plans(query))
            };
            table.list_of.push(at);
        }
        table
    }

    /// Appends a distinct list; returns its index.
    fn push(&mut self, list: Vec<LogicalPlan>) -> usize {
        self.lists.push(list);
        self.lists.len() - 1
    }

    /// The `i`-th circuit's candidate list.
    pub fn of(&self, i: usize) -> &[LogicalPlan] {
        &self.lists[self.list_of[i]]
    }

    /// How many distinct lists were built.
    pub fn built(&self) -> usize {
        self.lists.len()
    }
}

/// What one circuit's evaluations remember between passes (see the module
/// docs, "What a pass cannot change"): per candidate list, each candidate's
/// [`Circuit::usage_lower_bound`] and the virtual coordinates of its
/// unpinned services, all computed at one [vector
/// epoch](CostSpace::vector_epoch). The owner keeps one per deployed circuit
/// and resets its slots where the lists' inputs change:
/// [`ReoptMemo::plan_changed`] when a replacement commits,
/// [`ReoptMemo::circuit_changed`] when a tenancy pin is set or lifted.
#[derive(Debug, Default)]
pub struct ReoptMemo {
    /// The vector epoch every entry below was computed at.
    epoch: u64,
    /// The running circuit's own placement, as entry 0 (no bounds).
    local: ListMemo,
    /// The running plan's rewrite neighbourhood, by list index.
    rewrite: ListMemo,
    /// The query's full candidate list, by list index.
    full: ListMemo,
}

/// One candidate list's remembered outputs, keyed by list index: a pointer
/// that stays empty until the list remembers something, so a circuit that
/// never runs a kind of pass pays one word for it.
#[derive(Debug, Default)]
pub struct ListMemo(Option<Box<Entries>>);

/// A list's entries, flat: one bound per candidate and one coordinate
/// buffer for all placements.
#[derive(Debug, Default)]
struct Entries {
    /// `bounds[i]`: candidate `i`'s usage lower bound. Every evaluation
    /// bounds every candidate, so this is empty or covers the whole list.
    bounds: Vec<f64>,
    /// Where each placed candidate's coordinates sit, ascending in
    /// candidate.
    placed: Vec<Placed>,
    /// The remembered unpinned coordinates, one placement after another.
    coords: Vec<f64>,
}

/// Candidate `candidate`'s unpinned coordinates are `coords[start..end]`:
/// `unpinned services × vector dims` values.
#[derive(Clone, Copy, Debug)]
struct Placed {
    candidate: u32,
    start: u32,
    end: u32,
}

/// A memo index (candidate position or coordinate offset) in its stored
/// width.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a memo holds fewer than 2^32 candidates and coordinates")
}

/// The one empty list a memo reads as when its epoch is stale.
static FORGOTTEN: ListMemo = ListMemo(None);

impl ListMemo {
    /// Candidate `i`'s remembered bound.
    fn bound(&self, i: usize) -> Option<f64> {
        self.0.as_ref()?.bounds.get(i).copied()
    }

    /// Candidate `i`'s remembered placement, which must be `len` values
    /// long: a length that differs means an owner skipped a reset.
    fn placement(&self, i: usize, len: usize) -> Option<&[f64]> {
        let entries = self.0.as_ref()?;
        let at = entries.placed.binary_search_by_key(&index(i), |p| p.candidate).ok()?;
        let Placed { start, end, .. } = entries.placed[at];
        assert_eq!((end - start) as usize, len, "candidate {i}'s remembered placement is stale");
        Some(&entries.coords[start as usize..end as usize])
    }

    /// `(bounds, placements)` remembered.
    fn counts(&self) -> (usize, usize) {
        self.0.as_ref().map_or((0, 0), |e| (e.bounds.len(), e.placed.len()))
    }

    /// The entries, allocated on first write.
    fn entries_mut(&mut self) -> &mut Entries {
        self.0.get_or_insert_with(Box::default)
    }

    /// Stores the entries `fill` computed: they are exactly those this list
    /// lacked. Stored buffers are sized exactly.
    fn absorb(&mut self, fill: ListMemo) {
        let Some(fill) = fill.0 else { return };
        let entries = self.entries_mut();
        if !fill.bounds.is_empty() {
            entries.bounds = fill.bounds;
            entries.bounds.shrink_to_fit();
        }
        let shift = entries.coords.len();
        entries.coords.reserve_exact(fill.coords.len());
        entries.coords.extend_from_slice(&fill.coords);
        entries.placed.reserve_exact(fill.placed.len());
        let shifted = |p: &Placed| Placed {
            start: index(p.start as usize + shift),
            end: index(p.end as usize + shift),
            ..*p
        };
        entries.placed.extend(fill.placed.iter().map(shifted));
        entries.placed.sort_unstable_by_key(|p| p.candidate);
    }
}

impl ReoptMemo {
    /// The slot a `kind` evaluation reads and fills: this memo's `kind` list
    /// if it was computed at `space`'s current vector epoch, an empty one
    /// otherwise.
    pub fn slot(&self, kind: ReoptKind, space: &CostSpace) -> MemoSlot<'_> {
        let current = self.epoch == space.vector_epoch();
        MemoSlot { known: if current { self.list(kind) } else { &FORGOTTEN }, ..Default::default() }
    }

    /// Stores what a `kind` evaluation at `space`'s current vector epoch
    /// computed ([`MemoSlot::into_fill`]); entries from an older epoch are
    /// dropped first.
    pub fn store(&mut self, kind: ReoptKind, space: &CostSpace, fill: ListMemo) {
        if self.epoch != space.vector_epoch() {
            *self = ReoptMemo { epoch: space.vector_epoch(), ..ReoptMemo::default() };
        }
        let list = match kind {
            ReoptKind::Local => &mut self.local,
            ReoptKind::Rewrite => &mut self.rewrite,
            ReoptKind::Full => &mut self.full,
        };
        list.absorb(fill);
    }

    /// The running circuit's pins changed: its own placement is stale.
    pub fn circuit_changed(&mut self) {
        self.local = ListMemo::default();
    }

    /// A replacement committed: the running circuit and plan changed, so its
    /// own placement and its rewrite neighbourhood are stale. The full list
    /// is the query's and stays.
    pub fn plan_changed(&mut self) {
        self.circuit_changed();
        self.rewrite = ListMemo::default();
    }

    /// What the `kind` list remembers: `(bounds, placements)`.
    pub fn remembered(&self, kind: ReoptKind) -> (usize, usize) {
        self.list(kind).counts()
    }

    fn list(&self, kind: ReoptKind) -> &ListMemo {
        match kind {
            ReoptKind::Local => &self.local,
            ReoptKind::Rewrite => &self.rewrite,
            ReoptKind::Full => &self.full,
        }
    }
}

/// One evaluation's view of a [`ReoptMemo`] list: it reads the remembered
/// entries and collects the ones it computes, so evaluations of different
/// circuits can run in parallel and the owner stores their fills serially.
/// `MemoSlot::default()` remembers nothing.
#[derive(Debug)]
pub struct MemoSlot<'m> {
    known: &'m ListMemo,
    fill: ListMemo,
    hits: usize,
}

impl Default for MemoSlot<'_> {
    fn default() -> Self {
        MemoSlot { known: &FORGOTTEN, fill: ListMemo::default(), hits: 0 }
    }
}

impl MemoSlot<'_> {
    /// Candidate `i`'s remembered bound, counted as a hit.
    pub(crate) fn bound(&mut self, i: usize) -> Option<f64> {
        let bound = self.known.bound(i);
        self.hits += usize::from(bound.is_some());
        bound
    }

    /// Records the bound of the next candidate of a `list_len` list (lists
    /// are bounded in order, all of them).
    pub(crate) fn remember_bound(&mut self, bound: f64, list_len: usize) {
        let bounds = &mut self.fill.entries_mut().bounds;
        if bounds.is_empty() {
            bounds.reserve_exact(list_len);
        }
        bounds.push(bound);
    }

    /// Candidate `i`'s unpinned virtual coordinates (one per unpinned
    /// service of `circuit`, in id order, `space.vector_dims()` values
    /// each): remembered — a hit — or placed with `placer` now and recorded.
    pub(crate) fn placement(
        &mut self,
        i: usize,
        circuit: &Circuit,
        space: &CostSpace,
        placer: &dyn VirtualPlacer,
    ) -> &[f64] {
        let unpinned = circuit.services().iter().filter(|s| s.is_unpinned());
        let len = unpinned.clone().count() * space.vector_dims();
        let known = self.known;
        if let Some(coords) = known.placement(i, len) {
            self.hits += 1;
            return coords;
        }
        let vp = placer.place(circuit, space);
        let fill = self.fill.entries_mut();
        let start = fill.coords.len();
        for s in unpinned {
            fill.coords.extend_from_slice(vp.coord_of(s.id));
        }
        let end = fill.coords.len();
        fill.placed.push(Placed { candidate: index(i), start: index(start), end: index(end) });
        &fill.coords[start..]
    }

    /// Remembered bounds and placements this evaluation reused.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// The entries this evaluation computed, for [`ReoptMemo::store`].
    pub fn into_fill(self) -> ListMemo {
        self.fill
    }
}

/// Result of a plan-replacing pass ([`reoptimize_among`]).
#[derive(Debug)]
pub enum ReplaceOutcome {
    /// No candidate cleared the threshold: the running circuit stays.
    Keep {
        /// Candidates the lower bound rejected unplaced.
        pruned: usize,
    },
    /// A cheaper circuit was found; deploy it in parallel, then cancel the
    /// original ("a new parallel circuit is deployed, cancelling the
    /// original less ideal circuit").
    Replace {
        /// The replacement circuit.
        replacement: Box<PlacedCircuit>,
        /// Estimated relative improvement in `[0, 1]`.
        improvement: f64,
        /// Candidates the lower bound rejected unplaced.
        pruned: usize,
    },
}

/// The decision both plan-replacing passes make: the cheapest of
/// `candidates` by estimate, if it undercuts the running circuit's estimate
/// by the replacement threshold — with its relative improvement — and how
/// many candidates the bound pruned on the way. A rewrite pass hands in the
/// running plan's [`rewrite_neighbourhood`]; a full pass re-runs the
/// integrated optimization by handing in the optimizer's
/// [`candidate_plans`](IntegratedOptimizer::candidate_plans) for the query
/// against its (possibly updated) statistics, and the optimizer's placer.
/// Either way a pass builds its lists once ([`CandidateLists`]) and every
/// candidate borrows its plan: only a new incumbent best is cloned.
///
/// The threshold is handed to the selection as a ceiling, so a candidate
/// that provably cannot clear it is never placed or mapped; the threshold
/// test itself still runs on whatever comes back. Candidates are costed and
/// selected by estimate only, and the returned circuit's `cost` is its
/// estimate (see the module docs — measured latency is never a re-opt
/// input). A `memo` slot keyed by index into `candidates` spares the bounds
/// and placements it remembers and records the rest.
#[expect(
    clippy::too_many_arguments,
    reason = "the one plan-replacing entry point; every argument is a distinct selection input"
)]
pub fn reoptimize_among(
    candidates: &[LogicalPlan],
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
    memo: Option<&mut MemoSlot<'_>>,
) -> ReplaceOutcome {
    // A non-positive running estimate is an unconditional Keep — bail out
    // before any placement or mapping work whose answer is discarded.
    if running_cost_estimate <= 0.0 {
        return ReplaceOutcome::Keep { pruned: 0 };
    }
    let ceiling =
        (1.0 - policy.replacement_threshold) * running_cost_estimate * (1.0 + BOUND_SLACK);
    let bare = |plan| Candidate::bare(Cow::Borrowed(plan), query);
    let selection = select_cheapest(candidates, bare, ceiling, space, placer, mapper, memo);
    let pruned = selection.pruned;
    let improved = |best: PlacedCircuit| {
        (1.0 - best.estimated.network_usage / running_cost_estimate, Box::new(best))
    };
    match selection.best.map(improved) {
        Some((improvement, replacement)) if improvement >= policy.replacement_threshold => {
            ReplaceOutcome::Replace { replacement, improvement, pruned }
        }
        _ => ReplaceOutcome::Keep { pruned },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use crate::optimizer::{OptimizerConfig, QuerySpec};
    use crate::placement::{OracleMapper, RelaxationPlacer};
    use sbon_coords::vivaldi::VivaldiEmbedding;
    use sbon_netsim::graph::NodeId;
    use sbon_netsim::latency::EuclideanLatency;
    use sbon_netsim::load::{Attr, NodeAttrs};

    /// The per-circuit reference of a rewrite evaluation: the circuit
    /// generates its own neighbourhood.
    fn reoptimize_rewrite(
        running_plan: &LogicalPlan,
        running_cost_estimate: f64,
        query: &QuerySpec,
        space: &CostSpace,
        placer: &dyn VirtualPlacer,
        mapper: &mut dyn PhysicalMapper,
        policy: ReoptPolicy,
    ) -> ReplaceOutcome {
        let plans = rewrite_neighbourhood(running_plan);
        reoptimize_among(&plans, running_cost_estimate, query, space, placer, mapper, policy, None)
    }

    /// The per-circuit reference of a full evaluation: the circuit generates
    /// its own plan space.
    fn reoptimize_full(
        running_cost_estimate: f64,
        query: &QuerySpec,
        space: &CostSpace,
        optimizer: &IntegratedOptimizer,
        mapper: &mut dyn PhysicalMapper,
        policy: ReoptPolicy,
    ) -> ReplaceOutcome {
        let (plans, placer) = (optimizer.candidate_plans(query), optimizer.placer());
        reoptimize_among(&plans, running_cost_estimate, query, space, placer, mapper, policy, None)
    }

    /// Line world with a spare host at each end and one in the middle.
    fn world() -> (Vec<Vec<f64>>, EuclideanLatency) {
        let pts: Vec<Vec<f64>> = (0..9).map(|i| vec![12.5 * i as f64, 0.0]).collect();
        let lat = EuclideanLatency::new(pts.clone());
        (pts, lat)
    }

    #[test]
    fn local_reopt_migrates_off_newly_loaded_node() {
        let (pts, lat) = world();
        let n = pts.len();
        let emb = VivaldiEmbedding::exact(pts);
        let mut attrs = NodeAttrs::idle(n);
        let mut space = CostSpaceBuilder::latency_load_space_scaled(&emb, &attrs, 200.0);

        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(7), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let join = placed.circuit.unpinned_services()[0];
        let host0 = placed.placement.node_of(join);

        // The join's host becomes overloaded; the space is refreshed.
        attrs.set(host0, Attr::CpuLoad, 1.0);
        space.refresh_scalars(&attrs);

        let mut placement = placed.placement.clone();
        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let migrations = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            // Load doesn't change the latency-estimate cost, so accept any
            // move the full-space mapper proposes.
            ReoptPolicy { migration_threshold: -1.0, replacement_threshold: 0.1 },
            None,
        );
        assert_eq!(migrations.len(), 1);
        assert_ne!(placement.node_of(join), host0, "service must flee the hot node");
    }

    #[test]
    fn local_reopt_is_stable_when_nothing_changed() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let mut placement = placed.placement.clone();
        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let migrations = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy::default(),
            None,
        );
        assert!(migrations.is_empty(), "{migrations:?}");
        assert_eq!(placement, placed.placement);
    }

    #[test]
    fn hysteresis_blocks_marginal_migrations() {
        let (pts, _lat) = world();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        // Build a circuit and deliberately misplace the join one hop off
        // the optimum — a small improvement that a high threshold rejects.
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let lat = EuclideanLatency::new(pts);
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        let join = placed.circuit.unpinned_services()[0];
        let mut placement = placed.placement.clone();
        let optimal = placement.node_of(join);
        let neighbour = NodeId(if optimal.0 >= 1 { optimal.0 - 1 } else { optimal.0 + 1 });
        placement.move_service(join, neighbour);

        let placer = RelaxationPlacer::default();
        let mut mapper = OracleMapper;
        let migrations = reoptimize_local(
            &placed.circuit,
            &mut placement,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy { migration_threshold: 0.9, replacement_threshold: 0.1 },
            None,
        );
        assert!(migrations.is_empty(), "90% threshold must reject a one-hop gain");
        assert_eq!(placement.node_of(join), neighbour);
    }

    #[test]
    fn full_reopt_replaces_when_savings_clear_threshold() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        // Pretend the running circuit costs 10× the optimum.
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let inflated = fresh.estimated.network_usage * 10.0;
        let mut mapper = OracleMapper;
        match reoptimize_full(inflated, &q, &space, &opt, &mut mapper, ReoptPolicy::default()) {
            ReplaceOutcome::Replace { improvement, .. } => {
                assert!(improvement > 0.8, "improvement {improvement}");
            }
            ReplaceOutcome::Keep { .. } => panic!("must replace a 10× overpriced circuit"),
        }
    }

    #[test]
    fn rewrite_reopt_improves_a_bad_join_order() {
        // Producers clustered on the left, the running plan pairs a left
        // producer with the far-right one first. A one-step reordering must
        // do better.
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],   // p0
            vec![5.0, 0.0],   // p1
            vec![200.0, 0.0], // p2 (far away)
            vec![100.0, 0.0], // consumer
            vec![2.0, 0.0],
            vec![50.0, 0.0],
            vec![150.0, 0.0],
        ];
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(3), 10.0, 0.01);

        use sbon_query::plan::LogicalPlan;
        use sbon_query::stream::StreamId;
        // Bad running plan: (s0 ⋈ s2) first, dragging s0's data 200ms east.
        let bad_plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(2))),
            LogicalPlan::source(StreamId(1)),
        );
        let circuit = Circuit::from_plan(&bad_plan, &q.catalog, q.consumer);
        let placer = crate::placement::RelaxationPlacer::default();
        let mut mapper = crate::placement::OracleMapper;
        let vp = crate::placement::VirtualPlacer::place(&placer, &circuit, &space);
        let mapped = crate::placement::map_circuit(&circuit, &vp, &space, &mut mapper);
        let running_est = circuit
            .cost_with(&mapped.placement, &[], |a, b| space.vector_distance(a, b))
            .network_usage;

        match reoptimize_rewrite(
            &bad_plan,
            running_est,
            &q,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.05 },
        ) {
            ReplaceOutcome::Replace { replacement, improvement, .. } => {
                assert!(improvement > 0.05, "improvement {improvement}");
                // Not a commutation of the bad order: s0 and s2 no longer
                // meet first.
                let LogicalPlan::Binary { left, right, .. } = &replacement.plan else {
                    panic!("a 3-way join: {}", replacement.plan)
                };
                let inner = if matches!(**left, LogicalPlan::Binary { .. }) { left } else { right };
                let mut met = inner.sources();
                met.sort();
                assert_ne!(met, [StreamId(0), StreamId(2)], "{}", replacement.plan);
            }
            ReplaceOutcome::Keep { .. } => panic!("a one-step reorder must beat the bad plan"),
        }
    }

    #[test]
    fn rewrite_reopt_keeps_an_already_good_plan() {
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![15.0 * i as f64, 0.0]).collect();
        let emb = VivaldiEmbedding::exact(pts.clone());
        let space = CostSpaceBuilder::latency_space(&emb);
        let lat = EuclideanLatency::new(pts);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(7), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let placer = crate::placement::RelaxationPlacer::default();
        let mut mapper = crate::placement::OracleMapper;
        match reoptimize_rewrite(
            &fresh.plan,
            fresh.estimated.network_usage,
            &q,
            &space,
            &placer,
            &mut mapper,
            ReoptPolicy::default(),
        ) {
            ReplaceOutcome::Keep { .. } => {}
            ReplaceOutcome::Replace { improvement, .. } => panic!(
                "the integrated optimum must not be beaten by a local rewrite ({improvement})"
            ),
        }
    }

    /// A mapper that fails the test if the optimizer ever consults it.
    struct PanickingMapper;

    impl PhysicalMapper for PanickingMapper {
        fn map_point(
            &mut self,
            _space: &CostSpace,
            _ideal: &crate::costspace::CostPoint,
        ) -> (NodeId, usize) {
            panic!("the optimizer must not run for an unconditional Keep");
        }

        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    /// Regression: full re-opt used to run the whole integrated
    /// optimization *before* checking `running_cost_estimate <= 0.0`,
    /// paying full optimization cost on circuits it then unconditionally
    /// kept. The guard must fire before any mapping work.
    #[test]
    fn full_reopt_guard_fires_before_the_optimizer_runs() {
        let (pts, _lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let mut mapper = PanickingMapper;
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        for estimate in [0.0, -1.0] {
            match reoptimize_full(estimate, &q, &space, &opt, &mut mapper, ReoptPolicy::default()) {
                ReplaceOutcome::Keep { .. } => {}
                ReplaceOutcome::Replace { .. } => {
                    panic!("estimate {estimate} must be an unconditional Keep")
                }
            }
        }
    }

    #[test]
    fn full_reopt_keeps_good_circuits() {
        let (pts, lat) = world();
        let emb = VivaldiEmbedding::exact(pts);
        let space = CostSpaceBuilder::latency_space(&emb);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(8)], NodeId(4), 10.0, 0.01);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let fresh = opt.optimize(&q, &space, &lat).unwrap();
        let mut mapper = OracleMapper;
        match reoptimize_full(
            fresh.estimated.network_usage,
            &q,
            &space,
            &opt,
            &mut mapper,
            ReoptPolicy::default(),
        ) {
            ReplaceOutcome::Keep { .. } => {}
            ReplaceOutcome::Replace { improvement, .. } => {
                panic!("an optimal circuit must be kept, claimed improvement {improvement}")
            }
        }
    }

    /// The mapper the runtime hands a pass, counting the points it maps.
    struct CountingMapper {
        inner: crate::placement::DhtMapper,
        calls: usize,
    }

    impl PhysicalMapper for CountingMapper {
        fn map_point(
            &mut self,
            space: &CostSpace,
            ideal: &crate::costspace::CostPoint,
        ) -> (NodeId, usize) {
            self.calls += 1;
            self.inner.map_point(space, ideal)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// The tier-1 work-counter gate for branch and bound: a full re-opt of
    /// an incumbent — the circuit the optimizer itself would deploy — on a
    /// 320-node world keeps it while placing and mapping fewer than half of
    /// the 15 join orders of a 4-way star (3 unpinned joins each).
    #[test]
    fn full_reopt_of_an_incumbent_maps_fewer_than_half_its_candidates() {
        use crate::optimizer::oracle::exact_world;
        let (space, _lat) = exact_world(320, 11);
        let q = QuerySpec::join_star(
            &[NodeId(3), NodeId(90), NodeId(170), NodeId(250)],
            NodeId(319),
            10.0,
            0.02,
        );
        let mut dht = crate::placement::DhtMapper::build(&space, 10, 8);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let incumbent = opt.optimize_with_mapper_estimated(&q, &space, &mut dht, None).unwrap();
        assert_eq!(incumbent.candidates_examined, 15);

        let mut mapper = CountingMapper { inner: dht, calls: 0 };
        let outcome = reoptimize_full(
            incumbent.estimated.network_usage,
            &q,
            &space,
            &opt,
            &mut mapper,
            ReoptPolicy::default(),
        );
        let ReplaceOutcome::Keep { pruned } = outcome else {
            panic!("the optimizer's own choice must be kept: {outcome:?}")
        };
        assert_eq!(mapper.calls, 3 * (15 - pruned), "three joins mapped per surviving candidate");
        assert!(pruned > 7, "only {pruned} of 15 candidates pruned");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24 })]
        /// Full and rewrite re-opt decide exactly what the exhaustive loop
        /// plus the threshold test decides — same verdict, same replacement
        /// (every selection field, floats by bits), same improvement — for
        /// incumbents cheaper and dearer than the field and thresholds from
        /// "any change at all" (negative) to "halve it".
        #[test]
        fn plan_replacing_passes_match_the_exhaustive_reference(
            seed in 0u64..1_000_000,
            n in 24usize..56,
            ways in 2usize..=5,
            use_dht in 0u8..2,
        ) {
            use crate::optimizer::oracle::{
                bare, exact_world, no_more_traffic, random_query, select_exhaustive, selection_of,
            };
            let (space, _lat) = exact_world(n, seed);
            let q = random_query(n, ways, seed);
            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let placer = opt.placer();
            let plans = opt.candidate_plans(&q);
            // The running circuit: some candidate plan, placed a while ago.
            let running = select_exhaustive(
                bare(vec![plans[seed as usize % plans.len()].clone()], &q),
                &space, placer, &mut OracleMapper, None,
            ).unwrap();

            for estimate_scale in [0.5, 1.0, 1.5] {
                for threshold in [-0.5, 0.0, 0.1, 0.5] {
                    let estimate = estimate_scale * running.estimated.network_usage;
                    let policy =
                        ReoptPolicy { migration_threshold: 0.05, replacement_threshold: threshold };
                    let reference = |plans: Vec<LogicalPlan>, mapper: &mut dyn PhysicalMapper| {
                        select_exhaustive(bare(plans, &q), &space, placer, mapper, None)
                            .map(|best| {
                                (1.0 - best.estimated.network_usage / estimate, best)
                            })
                            .filter(|(improvement, _)| *improvement >= threshold)
                            .map(|(improvement, best)| (selection_of(&best), improvement.to_bits()))
                    };
                    let run = |old: &mut dyn PhysicalMapper, new: &mut dyn PhysicalMapper| {
                        let full = match reoptimize_full(estimate, &q, &space, &opt, new, policy) {
                            ReplaceOutcome::Replace { replacement, improvement, .. } => {
                                Some((selection_of(&replacement), improvement.to_bits()))
                            }
                            ReplaceOutcome::Keep { .. } => None,
                        };
                        let rewrite = match reoptimize_rewrite(
                            &running.plan, estimate, &q, &space, placer, new, policy,
                        ) {
                            ReplaceOutcome::Replace { replacement, improvement, .. } => {
                                Some((selection_of(&replacement), improvement.to_bits()))
                            }
                            ReplaceOutcome::Keep { .. } => None,
                        };
                        let neighbourhood =
                            sbon_query::rewrite::neighbors_within(&running.plan, 2, 128);
                        (
                            (full, rewrite),
                            (reference(plans.clone(), old), reference(neighbourhood, old)),
                        )
                    };
                    let (new, old) = if use_dht == 1 {
                        let mut old_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                        let mut new_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                        let out = run(&mut old_dht, &mut new_dht);
                        proptest::prop_assert!(no_more_traffic(new_dht.stats(), old_dht.stats()));
                        out
                    } else {
                        run(&mut OracleMapper, &mut OracleMapper)
                    };
                    proptest::prop_assert_eq!(new, old);
                }
            }
        }
    }

    /// A pass's verdict, floats by bits.
    fn verdict_of(
        outcome: ReplaceOutcome,
    ) -> (usize, Option<(impl PartialEq + std::fmt::Debug, u64)>) {
        use crate::optimizer::oracle::selection_of;
        match outcome {
            ReplaceOutcome::Keep { pruned } => (pruned, None),
            ReplaceOutcome::Replace { replacement, improvement, pruned } => {
                (pruned, Some((selection_of(&replacement), improvement.to_bits())))
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 16 })]
        /// A memo hit is what recomputing gives (see the module docs, "What a
        /// pass cannot change"). One circuit's three lists are evaluated over
        /// four rounds of scalar churn — each round every load is redrawn, so
        /// mappings, estimates, bars and survivors move — with the memo slot
        /// stored after every evaluation, and every verdict, pruned count and
        /// migration equals the memo-free evaluation's. Then a vector
        /// coordinate moves and the memo reads as empty.
        #[test]
        fn memo_passes_equal_recomputing(
            seed in 0u64..1_000_000,
            n in 24usize..56,
            ways in 2usize..=5,
            threshold in 0usize..3,
        ) {
            use crate::optimizer::oracle::{bare, random_query, select_exhaustive};
            use sbon_netsim::rng::derive_seed;
            let unit = |stream: u64| (derive_seed(seed, stream) % 10_000) as f64 / 10_000.0;
            let points: Vec<Vec<f64>> =
                (0..n as u64).map(|i| vec![150.0 * unit(2 * i), 150.0 * unit(2 * i + 1)]).collect();
            let loads = |round: u64| {
                let mut attrs = NodeAttrs::idle(n);
                for i in 0..n as u32 {
                    attrs.set(NodeId(i), Attr::CpuLoad, unit(1_000 * (round + 1) + u64::from(i)));
                }
                attrs
            };
            let emb = VivaldiEmbedding::exact(points);
            let mut space = CostSpaceBuilder::latency_load_space_scaled(&emb, &loads(0), 60.0);
            let q = random_query(n, ways, seed);
            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let placer = opt.placer();
            let plans = opt.candidate_plans(&q);
            let running = select_exhaustive(
                bare(vec![plans[seed as usize % plans.len()].clone()], &q),
                &space, placer, &mut OracleMapper, None,
            ).unwrap();
            let neighbourhood = rewrite_neighbourhood(&running.plan);
            let policy = ReoptPolicy {
                migration_threshold: [-1.0, 0.0, 0.05][threshold],
                replacement_threshold: [-0.5, 0.0, 0.1][threshold],
            };
            let estimate = running.estimated.network_usage;

            let mut memo = ReoptMemo::default();
            let mut hits = 0;
            for round in 0..4 {
                space.refresh_scalars(&loads(round));
                for (kind, list) in [(ReoptKind::Full, &plans), (ReoptKind::Rewrite, &neighbourhood)] {
                    let mut slot = memo.slot(kind, &space);
                    let with = reoptimize_among(
                        list, estimate, &q, &space, placer, &mut OracleMapper, policy, Some(&mut slot),
                    );
                    let without = reoptimize_among(
                        list, estimate, &q, &space, placer, &mut OracleMapper, policy, None,
                    );
                    proptest::prop_assert_eq!(verdict_of(with), verdict_of(without));
                    hits += slot.hits();
                    memo.store(kind, &space, slot.into_fill());
                }
                let mut slot = memo.slot(ReoptKind::Local, &space);
                let (mut with, mut without) = (running.placement.clone(), running.placement.clone());
                let circuit = &running.circuit;
                let moved = reoptimize_local(
                    circuit, &mut with, &space, placer, &mut OracleMapper, policy, Some(&mut slot),
                );
                let reference =
                    reoptimize_local(circuit, &mut without, &space, placer, &mut OracleMapper, policy, None);
                proptest::prop_assert_eq!((moved, with), (reference, without));
                hits += slot.hits();
                memo.store(ReoptKind::Local, &space, slot.into_fill());
            }
            // Rounds 1–3 reread at least every full-list bound and the local
            // placement.
            proptest::prop_assert!(hits >= 3 * (plans.len() + 1), "{hits} hits");
            proptest::prop_assert_eq!(memo.remembered(ReoptKind::Full).0, plans.len());

            let moved = emb.coord(q.consumer).iter().map(|c| c + 1.0).collect::<Vec<_>>();
            proptest::prop_assert!(space.set_vector_coord(q.consumer, &moved));
            for kind in [ReoptKind::Local, ReoptKind::Rewrite, ReoptKind::Full] {
                let mut slot = memo.slot(kind, &space);
                proptest::prop_assert_eq!(slot.bound(0), None);
                proptest::prop_assert_eq!(slot.hits(), 0);
            }
        }
    }

    /// Parameters drawn for filters and aggregates: a small set, so equal
    /// plans and equal query shapes recur, with 0.5's bit-neighbour so that
    /// some differ only in bits.
    const PARAMS: [f64; 4] = [0.25, 0.5, 0.500_000_000_000_000_1, 1.0];

    /// A random running plan over 2–6 streams, drawn from `pick`: a bushy
    /// join tree (some inner nodes unions), zero to two source filters per
    /// leaf (so split and fuse fire) and an optional root aggregate.
    fn random_plan(pick: &mut impl FnMut(usize) -> usize) -> LogicalPlan {
        let ways = 2 + pick(5) as u32;
        let mut forest: Vec<LogicalPlan> = (0..ways)
            .map(|i| {
                let mut leaf = LogicalPlan::source(StreamId(i));
                for _ in 0..pick(3) {
                    leaf = LogicalPlan::select(PARAMS[pick(PARAMS.len())], leaf);
                }
                leaf
            })
            .collect();
        while forest.len() > 1 {
            let a = forest.swap_remove(pick(forest.len()));
            let b = forest.swap_remove(pick(forest.len()));
            forest.push(if pick(6) == 0 {
                LogicalPlan::union(a, b)
            } else {
                LogicalPlan::join(a, b)
            });
        }
        let plan = forest.pop().unwrap();
        match pick(3) {
            0 => LogicalPlan::aggregate(PARAMS[pick(PARAMS.len())], plan),
            _ => plan,
        }
    }

    /// `plan` with every filter and aggregate parameter moved to the next
    /// smaller `f64`: it renders alike and differs only in bits (or is
    /// `plan` itself, when it has none).
    fn bit_twin(plan: &LogicalPlan) -> LogicalPlan {
        use sbon_query::plan::UnaryOp;
        match plan {
            LogicalPlan::Source(_) => plan.clone(),
            LogicalPlan::Unary { op, input } => {
                let twin = f64::from_bits(op.rate_ratio().to_bits() - 1);
                let op = match op {
                    UnaryOp::Select { .. } => UnaryOp::Select { selectivity: twin },
                    UnaryOp::Aggregate { .. } => UnaryOp::Aggregate { ratio: twin },
                };
                LogicalPlan::Unary { op, input: Box::new(bit_twin(input)) }
            }
            LogicalPlan::Binary { op, left, right } => LogicalPlan::Binary {
                op: *op,
                left: Box::new(bit_twin(left)),
                right: Box::new(bit_twin(right)),
            },
        }
    }

    /// A random query: a join star over 2–7 local streams (so equal join
    /// sets recur, on both sides of `exhaustive_below`), its rate from two
    /// values (so equal join sets come with equal and with different
    /// catalogs), source filters and a root aggregate from [`PARAMS`].
    fn random_query(pick: &mut impl FnMut(usize) -> usize) -> QuerySpec {
        let ways = 2 + pick(6);
        let producers: Vec<NodeId> = (0..ways as u32).map(NodeId).collect();
        let rate = [6.0, 10.0][pick(2)];
        let mut q = QuerySpec::join_star(&producers, NodeId(99), rate, 0.02);
        for _ in 0..pick(3) {
            q = q.with_source_filter(StreamId(pick(ways) as u32), PARAMS[pick(PARAMS.len())]);
        }
        if pick(3) == 0 {
            q = q.with_root_aggregate(PARAMS[pick(PARAMS.len())]);
        }
        q
    }

    /// `got` and `want` list the same plans in the same order.
    fn same_list(got: &[LogicalPlan], want: &[LogicalPlan]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.same_structure(w))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 40 })]
        /// The per-pass table hands every circuit exactly the list it would
        /// have generated itself — same length, same order, same plans by
        /// [`LogicalPlan::same_structure`] — for multisets of running plans
        /// in which some repeat exactly and some differ from another only
        /// in their parameters' bits ([`bit_twin`]), and for queries on both
        /// sides of `exhaustive_below`; a DP-branch list is never shared.
        /// Rewrite lists are shared exactly between equal plans.
        #[test]
        fn candidate_lists_equal_per_circuit_generation(
            (seed, distinct, circuits) in (0u64..u64::MAX, 1usize..8, 1usize..24)
        ) {
            let mut draws = 0;
            let mut pick = |n: usize| {
                draws += 1;
                (sbon_netsim::rng::derive_seed(seed, draws) % n as u64) as usize
            };

            let mut pool: Vec<LogicalPlan> = Vec::new();
            for i in 0..distinct {
                let plan = if i % 2 == 1 { bit_twin(&pool[i - 1]) } else { random_plan(&mut pick) };
                pool.push(plan);
            }
            let running: Vec<LogicalPlan> =
                (0..circuits).map(|_| pool[pick(distinct)].clone()).collect();
            let table = CandidateLists::rewrite(&running);
            proptest::prop_assert!(table.built() <= distinct.min(circuits));
            for (i, plan) in running.iter().enumerate() {
                let own = sbon_query::rewrite::neighbors_within(plan, 2, 128);
                proptest::prop_assert!(same_list(table.of(i), &own), "circuit {i}: {plan}");
                for (j, other) in running.iter().enumerate() {
                    let shared = table.list_of[i] == table.list_of[j];
                    proptest::prop_assert_eq!(shared, plan.same_structure(other));
                }
            }

            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let queries: Vec<QuerySpec> = (0..circuits).map(|_| random_query(&mut pick)).collect();
            let table = CandidateLists::full(&opt, &queries);
            for (i, query) in queries.iter().enumerate() {
                let own = opt.candidate_plans(query);
                proptest::prop_assert!(same_list(table.of(i), &own), "query {i}: {query:?}");
                if !opt.enumerates_exhaustively(query) {
                    let sharers = table.list_of.iter().filter(|&&at| at == table.list_of[i]);
                    proptest::prop_assert!(sharers.count() == 1, "DP list {i} shared");
                }
            }
        }
    }

    /// The draws above do share: over a fixed set of seeds, rewrite tables
    /// build fewer lists than circuits, exhaustive queries of one shape
    /// share a list, and DP queries with equal join sets occur (and are
    /// kept apart by the property above).
    #[test]
    fn candidate_list_draws_exercise_sharing() {
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let (mut rewrite_shared, mut full_shared, mut dp_twins) = (0, 0, 0);
        for seed in 0..40u64 {
            let mut draws = 0;
            let mut pick = |n: usize| {
                draws += 1;
                (sbon_netsim::rng::derive_seed(seed, draws) % n as u64) as usize
            };
            let pool: Vec<LogicalPlan> = (0..3).map(|_| random_plan(&mut pick)).collect();
            let running: Vec<LogicalPlan> = (0..12).map(|_| pool[pick(3)].clone()).collect();
            rewrite_shared += 12 - CandidateLists::rewrite(&running).built();
            let queries: Vec<QuerySpec> = (0..12).map(|_| random_query(&mut pick)).collect();
            full_shared += 12 - CandidateLists::full(&opt, &queries).built();
            let dp: Vec<&QuerySpec> =
                queries.iter().filter(|q| !opt.enumerates_exhaustively(q)).collect();
            for (i, a) in dp.iter().enumerate() {
                dp_twins += dp[i + 1..].iter().filter(|b| b.join_set == a.join_set).count();
            }
        }
        assert!(rewrite_shared > 0 && full_shared > 0 && dp_twins > 0);
        assert_eq!(PARAMS[2].to_bits(), PARAMS[1].to_bits() + 1);
    }
}
