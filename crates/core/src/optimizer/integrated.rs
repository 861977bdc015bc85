//! The integrated optimizer (Section 3.3).
//!
//! Candidates are ranked **in the cost space**: coordinates are the cheap
//! estimate that spares the optimizer from probing the network, so the
//! estimate alone decides. Measured (ground-truth latency) cost therefore
//! exists for the *selected* circuit only — a rejected candidate's measured
//! cost could not have changed the decision, and on a demand-driven latency
//! provider each one costs a shortest-path row per link-source host.
//!
//! Ranking is **rank → bound → place/map the survivors**
//! ([`select_cheapest`], the one candidate loop plain and reuse deploys,
//! full re-opt and rewrite re-opt share): every candidate plan is built into
//! a circuit (on a reuse deploy, attached to running instances), but only a
//! candidate whose [`Circuit::usage_lower_bound`] — a floor under its
//! (marginal) estimate for *every* placement, read off the pinned hosts'
//! coordinates alone — can still undercut the cheapest estimate so far (and,
//! on re-opt, the estimate a replacement must reach) is virtually placed,
//! physically mapped and costed. A pruned candidate's estimate is at least
//! its bound, so it could not have been selected: the choice is the one the
//! evaluate-everything loop makes, bit for bit.

use std::borrow::Cow;

use sbon_netsim::latency::LatencyProvider;
use sbon_query::enumerate::{all_join_trees, dp_top_k_plans, MAX_EXHAUSTIVE_STREAMS};
use sbon_query::plan::LogicalPlan;

use crate::circuit::{Circuit, CircuitCost, ServiceId};
use crate::costspace::CostSpace;
use crate::multiquery::{MultiQueryOptimizer, ReuseScope, ServiceInstance};
use crate::optimizer::{OptimizerConfig, PlacedCircuit, QuerySpec};
use crate::placement::{
    map_circuit, map_unpinned, OracleMapper, PhysicalMapper, RelaxationPlacer, VirtualPlacer,
};
use crate::reopt::MemoSlot;

/// Integrated plan generation + service placement: every candidate plan is
/// virtually placed, physically mapped, and costed as a *circuit*; the
/// cheapest circuit wins. This is the paper's contribution.
#[derive(Clone, Debug, Default)]
pub struct IntegratedOptimizer {
    config: OptimizerConfig,
    placer: RelaxationPlacer,
}

impl IntegratedOptimizer {
    /// Creates an optimizer. Panics, naming the field and its value, on a
    /// config whose plan space cannot be enumerated: `candidate_plans` 0
    /// (the DP keeps no plan) or `exhaustive_below` above
    /// [`MAX_EXHAUSTIVE_STREAMS`].
    pub fn new(config: OptimizerConfig) -> Self {
        assert!(
            config.candidate_plans >= 1,
            "OptimizerConfig::candidate_plans must be at least 1, got {}",
            config.candidate_plans
        );
        assert!(
            config.exhaustive_below <= MAX_EXHAUSTIVE_STREAMS,
            "OptimizerConfig::exhaustive_below must be at most {MAX_EXHAUSTIVE_STREAMS}, got {}",
            config.exhaustive_below
        );
        IntegratedOptimizer { config, placer: RelaxationPlacer::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The virtual placer every candidate is placed with — and the one a
    /// caller re-placing a circuit this optimizer produced should use.
    pub fn placer(&self) -> &RelaxationPlacer {
        &self.placer
    }

    /// Candidate logical plans for a query: the full bushy space for small
    /// join sets, the k-best DP plans otherwise; source filters attached.
    pub fn candidate_plans(&self, query: &QuerySpec) -> Vec<LogicalPlan> {
        let bare: Vec<LogicalPlan> = if self.enumerates_exhaustively(query) {
            all_join_trees(&query.join_set)
        } else {
            dp_top_k_plans(&query.catalog, &query.join_set, self.config.candidate_plans)
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        };
        bare.into_iter().map(|p| query.apply_filters(p)).collect()
    }

    /// Whether [`Self::candidate_plans`] takes the exhaustive branch for
    /// `query`: the bushy join trees of its join set, decorated with its
    /// source filters and root aggregate — and nothing else. The k-best DP
    /// branch reads the query's catalog too.
    pub fn enumerates_exhaustively(&self, query: &QuerySpec) -> bool {
        query.join_set.len() <= self.config.exhaustive_below
    }

    /// Optimizes with the centralized oracle mapper (the default for
    /// experiments that isolate optimizer behaviour from DHT error).
    pub fn optimize(
        &self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
    ) -> Option<PlacedCircuit> {
        let mut mapper = OracleMapper;
        self.optimize_with_mapper(query, space, latency, &mut mapper)
    }

    /// Optimizes with an explicit physical mapper (e.g. the Hilbert-DHT
    /// mapper, which charges routing hops): selects by estimate, then costs
    /// the selected circuit — and only it — under `latency`.
    pub fn optimize_with_mapper(
        &self,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        mapper: &mut dyn PhysicalMapper,
    ) -> Option<PlacedCircuit> {
        Some(self.optimize_with_mapper_estimated(query, space, mapper, None)?.measured(latency))
    }

    /// The selection step of [`IntegratedOptimizer::optimize_with_mapper`]:
    /// every candidate is virtually placed, physically mapped and costed
    /// from the cost space **estimate only**, and the cheapest estimate
    /// wins. No latency provider is touched, so the returned circuit's
    /// `cost` is a copy of `estimated` until [`PlacedCircuit::measured`]
    /// replaces it.
    ///
    /// With a reuse registry (§3.4) every candidate first passes through
    /// its attach step, so candidates are ranked by their *marginal*
    /// estimate; with nothing to attach the selection is the plain one.
    ///
    /// Re-optimization stops here — which keeps a full re-opt pass free of
    /// on-demand shortest-path row computations and safe to run against a
    /// read-only mapper view — and so does a deploy, which makes the
    /// winner's latency rows resident before measuring it.
    pub fn optimize_with_mapper_estimated(
        &self,
        query: &QuerySpec,
        space: &CostSpace,
        mapper: &mut dyn PhysicalMapper,
        mut reuse: Option<(&mut MultiQueryOptimizer, ReuseScope)>,
    ) -> Option<PlacedCircuit> {
        let build = |plan| {
            let bare = Candidate::bare(Cow::Owned(plan), query);
            match &mut reuse {
                Some((registry, scope)) => registry.attach(bare, space, *scope, &self.placer),
                None => bare,
            }
        };
        let plans = self.candidate_plans(query);
        select_cheapest(plans, build, f64::INFINITY, space, &self.placer, mapper, None).best
    }

    /// The measured cost the [`measured`](PlacedCircuit::measured) `placed`
    /// would have had with no reuse: its plan's bare circuit mapped at its
    /// first virtual placement — `placed.cost` when nothing was reused.
    pub fn standalone_cost(
        &self,
        placed: &PlacedCircuit,
        query: &QuerySpec,
        space: &CostSpace,
        mapper: &mut dyn PhysicalMapper,
        latency: &dyn LatencyProvider,
    ) -> CircuitCost {
        if placed.reused.is_empty() {
            return placed.cost;
        }
        let bare = Circuit::from_plan(&placed.plan, &query.catalog, query.consumer);
        let vp = self.placer.place(&bare, space);
        let mapped = map_circuit(&bare, &vp, space, mapper);
        bare.cost_with(&mapped.placement, &[], |a, b| latency.latency(a, b))
    }
}

/// One entry of the candidate loop: a plan, its circuit, and what it
/// reuses (the [`PlacedCircuit`] fields of the same names) — nothing, until
/// the reuse registry's attach step fills them in. A deploy's plan is owned
/// and moves into the winner; a re-opt pass's is borrowed from the pass's
/// candidate list and cloned only when it becomes the incumbent best.
pub(crate) struct Candidate<'p> {
    pub(crate) plan: Cow<'p, LogicalPlan>,
    pub(crate) circuit: Circuit,
    pub(crate) shared: Vec<bool>,
    pub(crate) reused: Vec<ServiceInstance>,
    pub(crate) reused_at: Vec<ServiceId>,
}

impl<'p> Candidate<'p> {
    /// `plan`'s circuit for `query`, reusing nothing.
    pub(crate) fn bare(plan: Cow<'p, LogicalPlan>, query: &QuerySpec) -> Candidate<'p> {
        let circuit = Circuit::from_plan(&plan, &query.catalog, query.consumer);
        Candidate { plan, circuit, shared: Vec::new(), reused: Vec::new(), reused_at: Vec::new() }
    }
}

/// What [`select_cheapest`] found.
pub(crate) struct Selection {
    /// The first candidate of minimum estimate, if its estimate could be at
    /// or under the ceiling; `candidates_examined` counts every candidate
    /// considered, pruned ones included.
    pub best: Option<PlacedCircuit>,
    /// Candidates the bound rejected before any placement or mapping work.
    pub pruned: usize,
}

/// Relative slack on the pruning test (and on the ceiling re-optimization
/// derives from its threshold): far above the rounding of a handful of
/// multiply-adds, far below any difference a threshold acts on. It only ever
/// keeps a candidate that exact arithmetic would prune.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// The candidate loop: virtually places, physically maps and costs each
/// candidate's circuit **by estimate** — its marginal estimate under its
/// shared mask — and keeps the first of minimum estimated network usage
/// (strict `<`). Each of `items` becomes a candidate through `build`.
///
/// Branch and bound: a candidate whose [`Circuit::usage_lower_bound`]
/// exceeds `min(cheapest estimate so far, ceiling)` is skipped before
/// `place` — its estimate is at least the bound, so it can neither become
/// the strict-`<` minimum nor come in under `ceiling`. Callers that accept
/// any winner pass `f64::INFINITY`; callers that will discard a winner above
/// some estimate pass that estimate, and must still apply their own test to
/// what is returned (a survivor may sit above the ceiling). Every comparison
/// with a NaN is false, so NaNs never prune.
///
/// A re-opt pass hands in its circuit's [`MemoSlot`], keyed by position in
/// `items`: a candidate whose remembered bound prunes is never built, and a
/// survivor's remembered placement stands in for `place` — each the value
/// the loop would compute, bit for bit. Deploys pass `None`.
pub(crate) fn select_cheapest<'p, I>(
    items: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator>,
    mut build: impl FnMut(I) -> Candidate<'p>,
    ceiling: f64,
    space: &CostSpace,
    placer: &dyn VirtualPlacer,
    mapper: &mut dyn PhysicalMapper,
    mut memo: Option<&mut MemoSlot<'_>>,
) -> Selection {
    let dist = |a, b| space.vector_distance(a, b);
    let prunes = |bound: f64, bar: f64| bound * (1.0 - BOUND_SLACK) > bar;
    let items = items.into_iter();
    let examined = items.len();
    let mut best: Option<PlacedCircuit> = None;
    let mut pruned = 0;
    for (i, item) in items.enumerate() {
        let bar = best.as_ref().map_or(ceiling, |b| ceiling.min(b.estimated.network_usage));
        let known = memo.as_deref_mut().and_then(|m| m.bound(i));
        if known.is_some_and(|bound| prunes(bound, bar)) {
            pruned += 1;
            continue;
        }
        let Candidate { plan, circuit, shared, reused, reused_at } = build(item);
        let bound = known.unwrap_or_else(|| {
            let bound = circuit.usage_lower_bound(&shared, dist);
            if let Some(m) = memo.as_deref_mut() {
                m.remember_bound(bound, examined);
            }
            bound
        });
        if prunes(bound, bar) {
            pruned += 1;
            continue;
        }
        let mapped = match memo.as_deref_mut() {
            Some(m) => {
                let coords = m.placement(i, &circuit, space, placer);
                map_unpinned(&circuit, coords.chunks_exact(space.vector_dims()), space, mapper)
            }
            None => map_circuit(&circuit, &placer.place(&circuit, space), space, mapper),
        };
        let estimated = circuit.cost_with(&mapped.placement, &shared, dist);
        if best.as_ref().is_none_or(|b| estimated.network_usage < b.estimated.network_usage) {
            best = Some(PlacedCircuit {
                plan: plan.into_owned(),
                mapping_hops: mapped.total_hops(),
                mean_mapping_error: mapped.mean_mapping_error(),
                placement: mapped.placement,
                circuit,
                cost: estimated,
                estimated,
                candidates_examined: examined,
                shared,
                reused,
                reused_at,
            });
        }
    }
    Selection { best, pruned }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::costspace::CostSpaceBuilder;
    use crate::multiquery::CircuitId;

    use sbon_netsim::dijkstra::all_pairs_latency;
    use sbon_netsim::graph::NodeId;
    use sbon_netsim::topology::simple::random_geometric;

    /// A small world where coordinates are exact, so estimated == measured
    /// up to shortest-path-vs-euclidean discrepancies are avoided entirely
    /// by using the euclidean world as ground truth too.
    pub(crate) fn exact_world(
        n: usize,
        seed: u64,
    ) -> (crate::costspace::CostSpace, sbon_netsim::latency::LatencyMatrix) {
        let topo = random_geometric(n, 100.0, 35.0, seed);
        let lat = all_pairs_latency(&topo.graph);
        // Embed with exact ground-truth 2-D positions is impossible for a
        // graph metric; use Vivaldi for realism at small scale.
        let emb = sbon_coords::vivaldi::VivaldiConfig { rounds: 80, ..Default::default() }
            .embed(&lat, seed);
        (CostSpaceBuilder::latency_space(&emb), lat)
    }

    #[test]
    fn optimizer_returns_a_placed_circuit() {
        let (space, lat) = exact_world(40, 1);
        let q = QuerySpec::join_star(
            &[NodeId(0), NodeId(5), NodeId(10), NodeId(15)],
            NodeId(20),
            10.0,
            0.02,
        );
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        assert!(placed.cost.network_usage > 0.0);
        assert_eq!(placed.candidates_examined, 15); // exhaustive 4-way
        assert_eq!(placed.placement.as_slice().len(), placed.circuit.len());
        // Consumer stayed pinned.
        assert_eq!(placed.placement.node_of(placed.circuit.root()), NodeId(20));
    }

    #[test]
    fn integrated_is_no_worse_than_any_single_candidate() {
        let (space, lat) = exact_world(40, 2);
        let q = QuerySpec::join_star(
            &[NodeId(1), NodeId(7), NodeId(13), NodeId(19)],
            NodeId(25),
            10.0,
            0.02,
        );
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let best = opt.optimize(&q, &space, &lat).unwrap();
        // Re-run each candidate plan individually; none may beat the
        // optimizer's selection on the selection metric (the estimate).
        let placer = opt.placer();
        for plan in opt.candidate_plans(&q) {
            let circuit = Circuit::from_plan(&plan, &q.catalog, q.consumer);
            let vp = placer.place(&circuit, &space);
            let mut mapper = OracleMapper;
            let mapped = map_circuit(&circuit, &vp, &space, &mut mapper);
            let est = circuit.cost_with(&mapped.placement, &[], |a, b| space.vector_distance(a, b));
            assert!(
                best.estimated.network_usage <= est.network_usage + 1e-9,
                "candidate {plan} beat the optimizer"
            );
        }
    }

    #[test]
    fn large_join_set_uses_dp_candidates() {
        let (space, lat) = exact_world(40, 3);
        let producers: Vec<NodeId> = (0..7).map(|i| NodeId(i * 5)).collect();
        let q = QuerySpec::join_star(&producers, NodeId(36), 5.0, 0.01);
        let opt =
            IntegratedOptimizer::new(OptimizerConfig { candidate_plans: 6, ..Default::default() });
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        assert!(placed.candidates_examined <= 6);
        assert!(placed.cost.network_usage > 0.0);
    }

    #[test]
    #[should_panic(expected = "OptimizerConfig::candidate_plans must be at least 1, got 0")]
    fn zero_candidate_plans_are_rejected_at_construction() {
        IntegratedOptimizer::new(OptimizerConfig { candidate_plans: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "OptimizerConfig::exhaustive_below must be at most 8, got 9")]
    fn exhaustive_below_beyond_the_enumerable_is_rejected_at_construction() {
        IntegratedOptimizer::new(OptimizerConfig { exhaustive_below: 9, ..Default::default() });
    }

    #[test]
    fn root_aggregate_appears_in_every_candidate() {
        let (space, lat) = exact_world(30, 6);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(9), NodeId(18)], NodeId(25), 10.0, 0.05)
            .with_root_aggregate(0.2);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        for plan in opt.candidate_plans(&q) {
            assert!(plan.render().starts_with('γ'), "{plan}");
        }
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        // producers(3) + joins(2) + aggregate(1) + consumer(1) = 7 services.
        assert_eq!(placed.circuit.len(), 7);
    }

    /// The evaluate-everything loop [`select_cheapest`] replaced, kept as the
    /// oracle: every candidate is placed, mapped and costed — under
    /// `latency` too when one is given, as deploy did before it measured the
    /// winner only — and the first of minimum estimate wins.
    pub(crate) fn select_exhaustive(
        candidates: Vec<Candidate<'_>>,
        space: &CostSpace,
        placer: &dyn VirtualPlacer,
        mapper: &mut dyn PhysicalMapper,
        latency: Option<&dyn LatencyProvider>,
    ) -> Option<PlacedCircuit> {
        let examined = candidates.len();
        let mut best: Option<PlacedCircuit> = None;
        for Candidate { plan, circuit, shared, reused, reused_at } in candidates {
            let vp = placer.place(&circuit, space);
            let mapped = map_circuit(&circuit, &vp, space, mapper);
            let estimated =
                circuit.cost_with(&mapped.placement, &shared, |a, b| space.vector_distance(a, b));
            let cost = match latency {
                Some(latency) => {
                    circuit.cost_with(&mapped.placement, &shared, |a, b| latency.latency(a, b))
                }
                None => estimated,
            };
            let candidate = PlacedCircuit {
                plan: plan.into_owned(),
                mapping_hops: mapped.total_hops(),
                mean_mapping_error: mapped.mean_mapping_error(),
                placement: mapped.placement,
                circuit,
                cost,
                estimated,
                candidates_examined: examined,
                shared,
                reused,
                reused_at,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.estimated.network_usage < b.estimated.network_usage)
            {
                best = Some(candidate);
            }
        }
        best
    }

    /// `plans` as bare candidates for `query`.
    pub(crate) fn bare(plans: Vec<LogicalPlan>, query: &QuerySpec) -> Vec<Candidate<'static>> {
        plans.into_iter().map(|plan| Candidate::bare(Cow::Owned(plan), query)).collect()
    }

    /// `optimize_with_mapper` as it was: cost every candidate under measured
    /// latency *and* the estimate.
    fn reference_optimize(
        opt: &IntegratedOptimizer,
        query: &QuerySpec,
        space: &CostSpace,
        latency: &dyn LatencyProvider,
        mapper: &mut dyn PhysicalMapper,
    ) -> Option<PlacedCircuit> {
        let candidates = bare(opt.candidate_plans(query), query);
        select_exhaustive(candidates, space, opt.placer(), mapper, Some(latency))
    }

    /// What a [`PlacedCircuit`] borrows: shared mask, reused instances and
    /// the services they stand in for.
    pub(crate) type Reuse = (Vec<bool>, Vec<ServiceInstance>, Vec<ServiceId>);

    /// Everything about a [`PlacedCircuit`] except its measured `cost`,
    /// floats as bit patterns.
    pub(crate) fn selection_of(
        p: &PlacedCircuit,
    ) -> (String, Vec<NodeId>, [u64; 3], usize, u64, usize, Reuse) {
        (
            p.plan.render(),
            p.placement.as_slice().to_vec(),
            cost_bits(&p.estimated),
            p.mapping_hops,
            p.mean_mapping_error.to_bits(),
            p.candidates_examined,
            (p.shared.clone(), p.reused.clone(), p.reused_at.clone()),
        )
    }

    /// `new ≤ old`, field by field.
    pub(crate) fn no_more_traffic(
        new: sbon_dht::catalog::CatalogStats,
        old: sbon_dht::catalog::CatalogStats,
    ) -> bool {
        new.lookups <= old.lookups
            && new.hops <= old.hops
            && new.candidates_examined <= old.candidates_examined
    }

    fn cost_bits(c: &crate::circuit::CircuitCost) -> [u64; 3] {
        [c.network_usage.to_bits(), c.max_path_latency.to_bits(), c.total_link_latency.to_bits()]
    }

    /// Records the `from` node of every latency read it serves.
    struct CountingLatency<'a> {
        inner: &'a sbon_netsim::latency::LatencyMatrix,
        reads_from: std::cell::RefCell<Vec<NodeId>>,
    }

    impl LatencyProvider for CountingLatency<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn latency(&self, a: NodeId, b: NodeId) -> f64 {
            self.reads_from.borrow_mut().push(a);
            self.inner.latency(a, b)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24 })]
        #[test]
        fn selected_only_costing_matches_the_cost_every_candidate_reference(
            seed in 0u64..1_000_000,
            n in 24usize..56,
            ways in 2usize..=5,
            use_dht in 0u8..2,
        ) {
            let (space, lat) = exact_world(n, seed);
            // Distinct producers and a consumer, spread by a seed-derived stride.
            let stride = 1 + (seed as usize % 3);
            let producers: Vec<NodeId> =
                (0..ways).map(|i| NodeId(((seed as usize + i * stride) % (n - 1)) as u32)).collect();
            let q = QuerySpec::join_star(&producers, NodeId(n as u32 - 1), 10.0, 0.02);
            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let counting = CountingLatency { inner: &lat, reads_from: Default::default() };

            let run = |old: &mut dyn PhysicalMapper, new: &mut dyn PhysicalMapper| {
                (
                    reference_optimize(&opt, &q, &space, &lat, old).unwrap(),
                    opt.optimize_with_mapper(&q, &space, &counting, new).unwrap(),
                )
            };
            let (reference, new) = if use_dht == 1 {
                let mut old_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                let mut new_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                let placed = run(&mut old_dht, &mut new_dht);
                // The bound only ever spares lookups.
                proptest::prop_assert!(no_more_traffic(new_dht.stats(), old_dht.stats()));
                placed
            } else {
                run(&mut OracleMapper, &mut OracleMapper)
            };

            proptest::prop_assert_eq!(selection_of(&new), selection_of(&reference));
            proptest::prop_assert_eq!(cost_bits(&new.cost), cost_bits(&reference.cost));
            // Measured latency was read for the winner alone: every read
            // goes out of one of its link sources.
            let sources: Vec<NodeId> =
                new.circuit.links().iter().map(|l| new.placement.node_of(l.from)).collect();
            let reads = counting.reads_from.borrow();
            proptest::prop_assert!(!reads.is_empty());
            proptest::prop_assert!(
                reads.iter().all(|a| sources.contains(a)),
                "reads from {:?}, link sources {:?}", reads, sources
            );
        }
    }

    /// A random query over `space`: 2–5 producers and a consumer on distinct
    /// seed-derived hosts, uneven rates, sometimes a source filter and a
    /// root aggregate.
    pub(crate) fn random_query(n: usize, ways: usize, seed: u64) -> QuerySpec {
        use sbon_netsim::rng::derive_seed;
        use sbon_query::stream::StreamId;
        let stride = 1 + (seed as usize % 3);
        let producers: Vec<NodeId> =
            (0..ways).map(|i| NodeId(((seed as usize + i * stride) % (n - 1)) as u32)).collect();
        let unit = |stream: u64| (derive_seed(seed, stream) % 1000) as f64 / 1000.0;
        let mut q =
            QuerySpec::join_star(&producers, NodeId(n as u32 - 1), 10.0, 0.005 + 0.1 * unit(0));
        for i in 0..ways {
            q = q.with_rate(StreamId(i as u32), 1.0 + 30.0 * unit(1 + i as u64));
        }
        if seed % 3 == 0 {
            q = q.with_source_filter(StreamId(0), 0.1 + 0.8 * unit(10));
        }
        if seed % 4 == 0 {
            q = q.with_root_aggregate(0.2 + 0.7 * unit(11));
        }
        q
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24 })]
        /// Branch and bound selects what evaluate-everything selects: under
        /// every ceiling, either both loops return the same circuit (every
        /// selection field, floats by bits, shared mask and reused
        /// instances included) or neither found one at or under the ceiling
        /// — on bare and reuse-attached candidates, on oracle and DHT
        /// mappers alike, the latter never routing more than the exhaustive
        /// loop.
        #[test]
        fn pruned_selection_matches_the_exhaustive_loop(
            seed in 0u64..1_000_000,
            n in 24usize..56,
            ways in 2usize..=5,
            use_dht in 0u8..2,
            reuse in 0u8..2,
        ) {
            let (space, _lat) = exact_world(n, seed);
            let q = random_query(n, ways, seed);
            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let placer = opt.placer();
            let plans = opt.candidate_plans(&q);
            // The incumbent: some candidate as deployed a while ago.
            let incumbent = select_exhaustive(
                bare(vec![plans[seed as usize % plans.len()].clone()], &q),
                &space, placer, &mut OracleMapper, None,
            ).unwrap();
            // The reuse dimension: the incumbent and the plain winner run,
            // and every candidate is attached to what they registered.
            let mut registry = (reuse == 1).then(|| {
                let winner = opt.optimize_with_mapper_estimated(&q, &space, &mut OracleMapper, None);
                let mut registry = MultiQueryOptimizer::default();
                registry.register(CircuitId(0), &incumbent, &space);
                registry.register(CircuitId(1), &winner.unwrap(), &space);
                registry
            });
            let mut candidates = || match &mut registry {
                Some(registry) => plans
                    .iter()
                    .map(|p| {
                        let bare = Candidate::bare(Cow::Borrowed(p), &q);
                        registry.attach(bare, &space, ReuseScope::All, placer)
                    })
                    .collect(),
                None => bare(plans.clone(), &q),
            };
            let attached: Vec<Candidate> = candidates();
            let reusing = attached.iter().filter(|c| !c.reused.is_empty()).count();
            // Not vacuous: the incumbent's own plan reuses at least its root.
            proptest::prop_assert_eq!(reusing > 0, reuse == 1);

            let mut pruned_any = 0;
            for scale in [f64::INFINITY, 0.5, 0.9, 1.1] {
                let ceiling = scale * incumbent.estimated.network_usage;
                let (all, again) = (candidates(), candidates());
                let run = |old: &mut dyn PhysicalMapper, new: &mut dyn PhysicalMapper| {
                    (
                        select_exhaustive(all, &space, placer, old, None),
                        select_cheapest(again, |c| c, ceiling, &space, placer, new, None),
                    )
                };
                let (exhaustive, pruned) = if use_dht == 1 {
                    let mut old_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                    let mut new_dht = crate::placement::DhtMapper::build(&space, 10, 8);
                    let out = run(&mut old_dht, &mut new_dht);
                    proptest::prop_assert!(no_more_traffic(new_dht.stats(), old_dht.stats()));
                    out
                } else {
                    run(&mut OracleMapper, &mut OracleMapper)
                };
                let under = |p: &Option<PlacedCircuit>| {
                    p.as_ref().filter(|p| p.estimated.network_usage <= ceiling).map(selection_of)
                };
                proptest::prop_assert_eq!(under(&pruned.best), under(&exhaustive));
                // Whatever was not pruned was evaluated, and the first of
                // those is at least a provisional best.
                proptest::prop_assert_eq!(pruned.best.is_none(), pruned.pruned == attached.len());
                pruned_any += pruned.pruned;
            }
            // Not vacuous: with three or more ways some plan pairs distant
            // producers first, and the 0.5× ceiling alone rejects most.
            proptest::prop_assert!(ways < 3 || pruned_any > 0, "nothing was ever pruned");
        }

        /// With nothing to reuse — `ReuseScope::None` over a populated
        /// registry, or any scope over an empty one — a reuse deploy selects
        /// bit for bit what a plain deploy selects, and the composed entry
        /// point measures it as `optimize` does, its standalone cost equal
        /// to its marginal one.
        #[test]
        fn reuse_with_nothing_to_reuse_selects_the_plain_circuit(
            seed in 0u64..1_000_000,
            n in 24usize..56,
            ways in 2usize..=5,
        ) {
            let (space, lat) = exact_world(n, seed);
            let q = random_query(n, ways, seed);
            let opt = IntegratedOptimizer::new(OptimizerConfig::default());
            let plain = opt.optimize_with_mapper_estimated(&q, &space, &mut OracleMapper, None).unwrap();
            let measured = opt.optimize(&q, &space, &lat).unwrap();
            let mut populated = MultiQueryOptimizer::default();
            populated.register(CircuitId(7), &measured, &space);
            for (mut registry, scope) in [
                (MultiQueryOptimizer::default(), ReuseScope::All),
                (MultiQueryOptimizer::default(), ReuseScope::Radius(f64::INFINITY)),
                (populated, ReuseScope::None),
            ] {
                let reuse = Some((&mut registry, scope));
                let selected =
                    opt.optimize_with_mapper_estimated(&q, &space, &mut OracleMapper, reuse);
                proptest::prop_assert_eq!(selection_of(&selected.unwrap()), selection_of(&plain));
                let out = registry.optimize_and_deploy(&opt, &q, &space, &lat, scope).unwrap();
                proptest::prop_assert_eq!(selection_of(&out.placed), selection_of(&measured));
                proptest::prop_assert_eq!(cost_bits(&out.placed.cost), cost_bits(&measured.cost));
                proptest::prop_assert_eq!(cost_bits(&out.standalone_cost), cost_bits(&measured.cost));
            }
        }
    }

    #[test]
    fn estimated_path_selects_the_same_circuit_as_the_full_path() {
        let (space, lat) = exact_world(40, 7);
        let q = QuerySpec::join_star(
            &[NodeId(2), NodeId(8), NodeId(14), NodeId(22)],
            NodeId(30),
            10.0,
            0.02,
        );
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let full = reference_optimize(&opt, &q, &space, &lat, &mut OracleMapper).unwrap();
        let est = opt.optimize_with_mapper_estimated(&q, &space, &mut OracleMapper, None).unwrap();
        assert_eq!(selection_of(&est), selection_of(&full));
        assert_eq!(est.cost, est.estimated, "estimate-only cost is the estimate");
        assert_eq!(cost_bits(&est.measured(&lat).cost), cost_bits(&full.cost));
    }

    #[test]
    fn filters_travel_into_the_chosen_plan() {
        let (space, lat) = exact_world(30, 4);
        let q = QuerySpec::join_star(&[NodeId(0), NodeId(9)], NodeId(20), 10.0, 0.05)
            .with_source_filter(sbon_query::stream::StreamId(0), 0.1);
        let opt = IntegratedOptimizer::new(OptimizerConfig::default());
        let placed = opt.optimize(&q, &space, &lat).unwrap();
        assert!(placed.plan.render().contains('σ'), "{}", placed.plan);
        // 2 producers + filter + join + consumer = 5 services.
        assert_eq!(placed.circuit.len(), 5);
    }
}
