//! Re-optimization: the one pass driver all three kinds share — dirty
//! filter, read-only parallel evaluation, serial commit.
//!
//! `impl OverlayRuntime` here **reads** `config.{policy, *_interval_ms,
//! *_penalty}`, `space`, `pool`, `optimizer` (candidate plans and placer of
//! every kind; a plan-replacing pass builds each distinct candidate list
//! once, before its evaluations) and **writes** `circuits` (keyed, in
//! ascending handle order: the re-opt memo with what each evaluation
//! computed, placement on migrate, circuit / plan / shared mask on replace,
//! clearing the stored usage on either and the memo's plan-dependent slots
//! on replace), `mapper`
//! (traffic charge-back), `multiquery` (relocate, reregister — refcounts
//! are only read), `relevance`, `obs`, plus the session's report and queue.

use rayon::prelude::*;

use sbon_core::circuit::{Circuit, Placement};
use sbon_core::multiquery::{CircuitId, MultiQueryOptimizer};
use sbon_core::optimizer::PlacedCircuit;
use sbon_core::placement::ReadObservation;
use sbon_core::reopt::relevance::{ReadSet, ReoptKind};
use sbon_core::reopt::{
    reoptimize_among, reoptimize_local, CandidateLists, ListMemo, Migration, ReplaceOutcome,
};
use sbon_netsim::graph::NodeId;
use sbon_netsim::sim::SimTime;
use sbon_obs::WallTimer;

use super::lifecycle::{CircuitHandle, Deployed};
use super::{Event, OverlayRuntime, RunSession};

/// What one read-only circuit evaluation hands the serial commit: its
/// verdict, the candidates it pruned, what its mapper view observed, and
/// the memo entries it computed with the number it reused.
type Evaluation = (Verdict, usize, ReadObservation, ListMemo, usize);

/// What one read-only circuit evaluation asks the serial commit to do.
enum Verdict {
    /// A no-op: the circuit stays as it is (and may be recorded clean).
    Keep,
    /// Local pass: adopt the placement these migrations lead to.
    Migrate(Placement, Vec<Migration>),
    /// Rewrite / full pass: swap in the replacement circuit.
    Replace(Box<PlacedCircuit>),
}

impl Verdict {
    /// The verdict of a plan-replacing pass, with the candidates it pruned.
    fn of_replacing(outcome: ReplaceOutcome) -> (Verdict, usize) {
        match outcome {
            ReplaceOutcome::Replace { replacement, pruned, .. } => {
                (Verdict::Replace(replacement), pruned)
            }
            ReplaceOutcome::Keep { pruned } => (Verdict::Keep, pruned),
        }
    }
}

/// Runs `f` over `handles` — each with its position — on the pool when one
/// is active (and there is enough work to shard), serially otherwise.
/// Results come back in input order either way, and `f` is pure per
/// circuit, so thread count never changes what the caller commits.
fn run_parallel<T: Send>(
    pool: &Option<rayon::ThreadPool>,
    handles: &[CircuitHandle],
    f: impl Fn(usize, CircuitHandle) -> T + Sync,
) -> Vec<T> {
    match pool {
        Some(pool) if handles.len() > 1 => {
            let positions: Vec<usize> = (0..handles.len()).collect();
            pool.install(|| positions.par_iter().map(|&i| f(i, handles[i])).collect())
        }
        _ => handles.iter().enumerate().map(|(i, &h)| f(i, h)).collect(),
    }
}

/// The host set an evaluation's cost estimates read: every placement node
/// of the circuit, deduplicated. Cost-point changes at any of them can
/// change the estimate (and with it the pass's decision).
fn circuit_hosts(circuit: &Circuit, placement: &Placement) -> Vec<NodeId> {
    let mut hosts: Vec<NodeId> =
        circuit.services().iter().map(|s| placement.node_of(s.id)).collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}

impl OverlayRuntime {
    /// Whether a circuit is tenancy-entangled: it borrows shared subtrees
    /// from others, or others subscribe to one of its instances. Entangled
    /// circuits must not have their plan replaced (the swap would strand
    /// tenants); untenanted ones may, with a registry re-registration.
    fn is_entangled(mq: &MultiQueryOptimizer, id: CircuitId, d: &Deployed) -> bool {
        d.shared.iter().any(|&s| s)
            || d.circuit.services().iter().any(|s| mq.refcount(id, s.id) > 0)
    }

    /// Serial pre-filter of one adaptation pass: the circuits the pass must
    /// evaluate, in ascending handle order. `skip_entangled` applies the
    /// tenancy rule of the plan-replacing passes; the dirty filter drops
    /// circuits whose re-opt inputs are unchanged since their last no-op
    /// `kind` evaluation. Entangled circuits count toward neither evaluated
    /// nor skipped — they were never candidates.
    fn dirty_circuits(&mut self, kind: ReoptKind, skip_entangled: bool) -> Vec<CircuitHandle> {
        let tenancy = self.multiquery.as_ref().filter(|_| skip_entangled);
        let mut eval = Vec::new();
        let mut skipped = 0;
        for (&handle, d) in &self.circuits {
            if tenancy.is_some_and(|mq| Self::is_entangled(mq, handle.id(), d)) {
                continue;
            }
            if !self.relevance.is_dirty(kind, handle.id().0) {
                skipped += 1;
                continue;
            }
            eval.push(handle);
        }
        self.obs.cp.reopt_skipped += skipped;
        self.obs.cp.reopt_evaluated += eval.len();
        eval
    }

    /// The evaluate-everything reference of the incremental ≡ full-scan
    /// contract: with every clean record forgotten, the next pass of each
    /// kind evaluates every circuit.
    #[cfg(test)]
    pub(super) fn forget_clean_records(&mut self) {
        self.relevance.touch_all();
    }

    /// The candidate lists of a `kind` pass over `eval` (none for a local
    /// pass), built serially in handle order: circuits running the same
    /// plan share one rewrite neighbourhood, queries of one shape one plan
    /// space.
    fn candidate_lists(&self, kind: ReoptKind, eval: &[CircuitHandle]) -> CandidateLists {
        let deployed = eval.iter().map(|handle| &*self.circuits[handle]);
        match kind {
            ReoptKind::Local => CandidateLists::default(),
            ReoptKind::Rewrite => CandidateLists::rewrite(deployed.map(|d| &d.running_plan)),
            ReoptKind::Full => CandidateLists::full(&self.optimizer, deployed.map(|d| &d.query)),
        }
    }

    /// The per-circuit reference of [`Self::candidate_lists`]: the list
    /// circuit `d` generates for itself.
    #[cfg(test)]
    fn own_candidates(
        kind: ReoptKind,
        d: &Deployed,
        optimizer: &sbon_core::optimizer::IntegratedOptimizer,
    ) -> Vec<sbon_query::plan::LogicalPlan> {
        match kind {
            ReoptKind::Rewrite => sbon_core::reopt::rewrite_neighbourhood(&d.running_plan),
            _ => optimizer.candidate_plans(&d.query),
        }
    }

    /// One adaptation pass — the skeleton all three kinds share.
    /// Tenancy-entangled circuits are left out of the plan-replacing kinds
    /// (a plan swap under live subscriptions would strand tenants), and
    /// clean circuits are skipped by the dirty filter: they would reproduce
    /// their last no-op evaluation exactly. The rest are evaluated
    /// **read-only** — each with a fresh mapper view and nothing shared
    /// mutating, so the evaluations are independent and shard across the
    /// pool; a plan-replacing kind's candidate lists are built once before
    /// them — and then committed serially in circuit order: deferred catalog
    /// traffic, the mutation (keeping the reuse-discovery index truthful
    /// about hosts and registrations), and the relevance verdict — dirty on
    /// change, else a clean record with the evaluation's observed read set.
    pub(super) fn reopt_pass(&mut self, s: &mut RunSession, now: SimTime, kind: ReoptKind) {
        let c = &self.config;
        let (span, interval, migrates) = match kind {
            ReoptKind::Local => ("reopt.local", c.reopt_interval_ms, true),
            ReoptKind::Rewrite => ("reopt.rewrite", c.rewrite_interval_ms, false),
            ReoptKind::Full => ("reopt.full", c.full_reopt_interval_ms, false),
        };
        let (changes, penalty) = if migrates {
            ("migrations", c.migration_penalty)
        } else {
            ("swaps", c.replacement_penalty)
        };
        let t0 = WallTimer::start();
        let sp = self.obs.span_start(span, Vec::new);
        let eval = self.dirty_circuits(kind, !migrates);
        let lists = self.candidate_lists(kind, &eval);
        let results: Vec<Evaluation> = {
            let (circuits, space, mapper) = (&self.circuits, &self.space, &self.mapper);
            let (optimizer, policy) = (&self.optimizer, self.config.policy);
            let placer = optimizer.placer();
            #[cfg(test)]
            let (per_circuit, memo_off) = (self.lists_per_circuit, self.memo_off);
            run_parallel(&self.pool, &eval, |at, handle| {
                let d = &circuits[&handle];
                let mut view = mapper.read_view();
                let mut slot = d.memo.slot(kind, space);
                let memo = Some(&mut slot);
                #[cfg(test)]
                let memo = memo.filter(|_| !memo_off);
                let (verdict, pruned) = match kind {
                    ReoptKind::Local => {
                        let mut to = d.placement.clone();
                        let moved = reoptimize_local(
                            &d.circuit, &mut to, space, placer, &mut view, policy, memo,
                        );
                        if moved.is_empty() {
                            (Verdict::Keep, 0)
                        } else {
                            (Verdict::Migrate(to, moved), 0)
                        }
                    }
                    ReoptKind::Rewrite | ReoptKind::Full => {
                        let candidates = lists.of(at);
                        #[cfg(test)]
                        let own = per_circuit.then(|| Self::own_candidates(kind, d, optimizer));
                        #[cfg(test)]
                        let candidates = own.as_deref().unwrap_or(candidates);
                        Verdict::of_replacing(reoptimize_among(
                            candidates,
                            d.running_est(space),
                            &d.query,
                            space,
                            placer,
                            &mut view,
                            policy,
                            memo,
                        ))
                    }
                };
                let hits = slot.hits();
                (verdict, pruned, view.into_observation(), slot.into_fill(), hits)
            })
        };
        let (mut changed, mut pruned, mut memo_hits) = (0, 0, 0);
        for (&handle, (verdict, spared, obs, fill, hits)) in eval.iter().zip(results) {
            pruned += spared;
            memo_hits += hits;
            self.mapper.charge_observed(&obs);
            let d = self.circuits.get_mut(&handle).expect("evaluated circuits are live");
            d.memo.store(kind, &self.space, fill);
            let id = handle.id();
            match verdict {
                Verdict::Keep => {
                    let hosts = circuit_hosts(&d.circuit, &d.placement);
                    self.relevance.record_clean(
                        kind,
                        id.0,
                        ReadSet { spans: obs.spans, hosts, whole_space: obs.whole_space },
                    );
                    continue;
                }
                Verdict::Migrate(placement, migrations) => {
                    d.placement = placement;
                    d.billed = None;
                    if let Some(mq) = &mut self.multiquery {
                        for m in &migrations {
                            mq.relocate(id, m.service, m.to, &self.space);
                        }
                    }
                    changed += migrations.len();
                }
                Verdict::Replace(replacement) => {
                    // The swap invalidates the old registration; the
                    // replacement's operators take its place.
                    if let Some(mq) = &mut self.multiquery {
                        mq.reregister(id, &replacement, &self.space);
                    }
                    // Either kind records the plan that now runs: the next
                    // rewrite pass explores *its* neighbourhood.
                    let PlacedCircuit { plan, circuit, placement, shared, .. } = *replacement;
                    (d.running_plan, d.circuit, d.placement, d.shared, d.billed) =
                        (plan, circuit, placement, shared, None);
                    d.memo.plan_changed();
                    changed += 1;
                }
            }
            self.relevance.mark_dirty(id.0);
        }
        let cp = &mut self.obs.cp;
        let wall_ns = match kind {
            ReoptKind::Local => &mut cp.local_reopt_ns,
            ReoptKind::Rewrite => &mut cp.rewrite_ns,
            ReoptKind::Full => &mut cp.full_reopt_ns,
        };
        *wall_ns += u128::from(t0.elapsed_ns());
        cp.candidates_pruned += pruned;
        cp.memo_hits += memo_hits as u64;
        let (evaluated, built) = (eval.len(), lists.built());
        cp.candidate_lists += built as u64;
        self.obs.span_end(sp, || {
            let mut fields = vec![
                ("evaluated", evaluated.into()),
                (changes, changed.into()),
                ("memo", memo_hits.into()),
            ];
            if !migrates {
                fields.push(("pruned", pruned.into()));
                fields.push(("lists", built.into()));
            }
            fields
        });
        let tally = if migrates { &mut s.report.migrations } else { &mut s.report.replacements };
        *tally += changed;
        s.report.adaptation_cost += changed as f64 * penalty;
        if let Some(interval) = interval {
            if now.after(interval) <= s.horizon {
                s.queue.schedule(now.after(interval), Event::Reopt(kind));
            }
        }
    }
}
