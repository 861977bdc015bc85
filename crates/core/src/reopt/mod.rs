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
//! [`ScanSpan`]: sbon_dht::catalog::ScanSpan

pub mod relevance;

use sbon_query::plan::LogicalPlan;

use crate::circuit::{Circuit, Placement, ServiceId};
use crate::costspace::CostSpace;
use crate::optimizer::{
    select_cheapest, Candidate, IntegratedOptimizer, PlacedCircuit, QuerySpec, BOUND_SLACK,
};
use crate::placement::{PhysicalMapper, VirtualPlacer};

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
/// where they lead.
pub fn reoptimize_local(
    circuit: &Circuit,
    placement: &mut Placement,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> Vec<Migration> {
    let estimate =
        |p: &Placement| circuit.cost_with(p, &[], |a, b| space.vector_distance(a, b)).network_usage;
    let mut migrations = Vec::new();
    let mut standing = None;

    let vp = placer.place(circuit, space);
    for s in circuit.services().iter().filter(|s| s.is_unpinned()) {
        let ideal = space.ideal_point(vp.coord_of(s.id));
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

/// Result of a plan-replacing pass ([`reoptimize_rewrite`] or
/// [`reoptimize_full`]).
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

/// The paper's "limited plan re-writing" (Section 3.3): explore the local
/// rewrite neighbourhood — join reorderings, filter decomposition and
/// re-composition (see [`sbon_query::rewrite`]) up to two rewrite steps —
/// re-place each candidate that could still win, and return the best if it
/// beats the running circuit's estimate by the replacement threshold.
/// Cheaper than full re-optimization: the candidate set is the rewrite
/// neighbourhood, not the whole plan space. (Depth two, because commutations
/// are cost-neutral on their own but unlock rotations.) The returned
/// circuit's `cost` is its estimate (see the module docs — measured latency
/// is never a re-opt input).
pub fn reoptimize_rewrite(
    running_plan: &LogicalPlan,
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> ReplaceOutcome {
    let plans = || sbon_query::rewrite::neighbors_within(running_plan, 2, 128);
    replacement_among(plans, running_cost_estimate, query, space, placer, mapper, policy)
}

/// Re-runs the full integrated optimization against (possibly updated)
/// statistics and compares with the running circuit's current cost. The
/// caller supplies the optimizer and the physical mapper — typically the
/// same long-lived instances that served the initial deployment — so full
/// re-opt shares the control-plane state instead of instantiating either
/// per call. Candidates are costed and selected by estimate only (see the
/// module docs — measured latency is never a re-opt input).
pub fn reoptimize_full(
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    optimizer: &IntegratedOptimizer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> ReplaceOutcome {
    let plans = || optimizer.candidate_plans(query);
    let placer = optimizer.placer();
    replacement_among(plans, running_cost_estimate, query, space, placer, mapper, policy)
}

/// The decision both plan-replacing passes make: the cheapest of `plans` by
/// estimate, if it undercuts the running circuit's estimate by the
/// replacement threshold — with its relative improvement — and how many
/// candidates the bound pruned on the way.
///
/// The threshold is handed to the selection as a ceiling, so a candidate
/// that provably cannot clear it is never placed or mapped; the threshold
/// test itself still runs on whatever comes back.
fn replacement_among(
    plans: impl FnOnce() -> Vec<LogicalPlan>,
    running_cost_estimate: f64,
    query: &QuerySpec,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    policy: ReoptPolicy,
) -> ReplaceOutcome {
    // A non-positive running estimate is an unconditional Keep — bail out
    // before paying for candidate enumeration whose answer is discarded.
    if running_cost_estimate <= 0.0 {
        return ReplaceOutcome::Keep { pruned: 0 };
    }
    let ceiling =
        (1.0 - policy.replacement_threshold) * running_cost_estimate * (1.0 + BOUND_SLACK);
    let candidates = plans().into_iter().map(|plan| Candidate::bare(plan, query));
    let selection = select_cheapest(candidates, ceiling, space, placer, mapper);
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
                assert_ne!(replacement.plan.shape_key(), bad_plan.shape_key());
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

    /// Regression: `reoptimize_full` used to run the whole integrated
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
}
