//! Circuits: instantiated queries in the SBON.
//!
//! "We will refer to the instantiation of a query in an SBON as a circuit.
//! A circuit can contain unpinned services, which are services that can be
//! placed, and pinned services, which have a pre-defined network location"
//! (Section 3). Producers and consumers are pinned; operators are unpinned
//! until placement assigns them nodes.

mod cost;

pub use cost::{CircuitCost, Placement};

use sbon_netsim::graph::NodeId;
use sbon_query::plan::{BinaryOp, LogicalPlan, UnaryOp};
use sbon_query::stream::{StreamCatalog, StreamId};

/// Identifier of a service within one circuit (dense).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

impl ServiceId {
    /// The id as a usize, for table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a service's location is fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicePin {
    /// Must run at this node (producers, consumers, reused instances).
    Pinned(NodeId),
    /// Placeable by the optimizer.
    Unpinned,
}

/// The plan operator an operator service runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operator {
    /// A one-input operator (filter, aggregate).
    Unary(UnaryOp),
    /// A two-input operator (join, union).
    Binary(BinaryOp),
}

/// What a service does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceKind {
    /// A data source for one stream.
    Producer(StreamId),
    /// The query's sink.
    Consumer,
    /// An operator service, carrying the plan operator it runs. Its reuse
    /// identity — the operator *and its whole input subtree* — is not
    /// stored: the reuse registry interns it as a
    /// [`SubtreeId`](crate::multiquery::SubtreeId) where it reads it, from
    /// the circuit's producers and operators.
    Operator {
        /// The plan operator.
        op: Operator,
    },
}

/// One service of a circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct Service {
    /// Dense id within the circuit.
    pub id: ServiceId,
    /// Role.
    pub kind: ServiceKind,
    /// Pinning state.
    pub pin: ServicePin,
    /// Rate of the service's *output* link (0 for the consumer).
    pub output_rate: f64,
}

impl Service {
    /// True if the service may be moved by the optimizer.
    pub fn is_unpinned(&self) -> bool {
        matches!(self.pin, ServicePin::Unpinned)
    }
}

/// A directed data-flow link (child service → parent service).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Upstream (data leaves here).
    pub from: ServiceId,
    /// Downstream (data arrives here).
    pub to: ServiceId,
    /// Data rate carried, in the statistics catalog's units.
    pub rate: f64,
}

impl Link {
    /// True when `shared` marks the link's downstream service: it is a
    /// reused instance's root or sits beneath one, so another circuit pays
    /// for the data arriving there. An empty mask marks nothing.
    pub fn is_free(&self, shared: &[bool]) -> bool {
        shared.get(self.to.index()).copied().unwrap_or(false)
    }
}

/// A circuit: the service tree of one query.
///
/// **Numbering invariant.** [`Circuit::from_plan`] numbers services
/// children-first (left subtree, right subtree, then the operator; the
/// consumer last) and pushes a service's in-links when it numbers it. So
/// every link has `from < to`, every service but the consumer has exactly
/// one uplink, and in [`Circuit::links`] a service's in-links precede its
/// uplink. Ascending ids — or links in order — therefore visit children
/// before parents, descending ids parents before children, with no
/// recursion and no adjacency map: [`Circuit::usage_lower_bound`],
/// [`Circuit::cost_with`]'s path depth,
/// [`optimal_tree_placement`](crate::placement::optimal_tree_placement) and
/// multi-query reuse's top-down discovery all rest on it.
#[derive(Clone, Debug)]
pub struct Circuit {
    services: Vec<Service>,
    links: Vec<Link>,
    root: ServiceId,
}

impl Circuit {
    /// Builds the circuit for `plan`: one producer service per source leaf,
    /// pinned where the catalog says the stream is produced, one unpinned
    /// operator service per operator node (carrying its plan operator), and
    /// a pinned consumer service at `consumer` fed by the plan root. Link
    /// rates come from the catalog's statistics. No reuse identity is
    /// stored: the reuse registry derives subtree ids where it reads them.
    pub fn from_plan(plan: &LogicalPlan, catalog: &StreamCatalog, consumer: NodeId) -> Circuit {
        // One service per plan node plus the consumer, one link out of each
        // but the consumer: reserve exactly that, nothing speculative.
        let mut nodes = 0;
        plan.visit(&mut |_| nodes += 1);
        let mut circuit = Circuit {
            services: Vec::with_capacity(nodes + 1),
            links: Vec::with_capacity(nodes),
            root: ServiceId(0),
        };
        let plan_root = circuit.build_subtree(plan, catalog, &mut Vec::new());
        let root_rate = circuit.services[plan_root.index()].output_rate;
        let consumer_id =
            circuit.push_service(ServiceKind::Consumer, ServicePin::Pinned(consumer), 0.0);
        circuit.links.push(Link { from: plan_root, to: consumer_id, rate: root_rate });
        circuit.root = consumer_id;
        circuit
    }

    /// Builds the services of `plan` children-first, returns its root
    /// service and appends the subtree's source streams to `sources`
    /// (first-visit order, each once, as [`LogicalPlan::sources`]). Rate and
    /// sources of a node are each one step from its children's — the same
    /// step [`StreamCatalog::output_rate`] takes, so the rates are
    /// bit-equal to calling it per node, without re-walking every subtree
    /// at every node.
    fn build_subtree(
        &mut self,
        plan: &LogicalPlan,
        catalog: &StreamCatalog,
        sources: &mut Vec<StreamId>,
    ) -> ServiceId {
        match plan {
            LogicalPlan::Source(id) => {
                sources.push(*id);
                let stream = catalog.get(*id);
                self.push_service(
                    ServiceKind::Producer(*id),
                    ServicePin::Pinned(stream.producer),
                    stream.rate,
                )
            }
            LogicalPlan::Unary { op, input } => {
                let child = self.build_subtree(input, catalog, sources);
                let child_rate = self.services[child.index()].output_rate;
                let me = self.push_service(
                    ServiceKind::Operator { op: Operator::Unary(*op) },
                    ServicePin::Unpinned,
                    op.rate_ratio() * child_rate,
                );
                self.links.push(Link { from: child, to: me, rate: child_rate });
                me
            }
            LogicalPlan::Binary { op, left, right } => {
                let start = sources.len();
                let l = self.build_subtree(left, catalog, sources);
                let mid = sources.len();
                let r = self.build_subtree(right, catalog, sources);
                let l_rate = self.services[l.index()].output_rate;
                let r_rate = self.services[r.index()].output_rate;
                let (l_sources, r_sources) = sources[start..].split_at(mid - start);
                let rate =
                    catalog.binary_output_rate(*op, (l_rate, l_sources), (r_rate, r_sources));
                let me = self.push_service(
                    ServiceKind::Operator { op: Operator::Binary(*op) },
                    ServicePin::Unpinned,
                    rate,
                );
                self.links.push(Link { from: l, to: me, rate: l_rate });
                self.links.push(Link { from: r, to: me, rate: r_rate });
                // This subtree's sources: the left's, then the right's that
                // the left does not already list.
                let mut end = mid;
                for i in mid..sources.len() {
                    if !sources[start..mid].contains(&sources[i]) {
                        sources[end] = sources[i];
                        end += 1;
                    }
                }
                sources.truncate(end);
                me
            }
        }
    }

    fn push_service(&mut self, kind: ServiceKind, pin: ServicePin, output_rate: f64) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(Service { id, kind, pin, output_rate });
        id
    }

    /// All services.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The consumer (root) service.
    pub fn root(&self) -> ServiceId {
        self.root
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True for a circuit with no services (never produced by
    /// [`Circuit::from_plan`]).
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Ids of the unpinned (placeable) services.
    pub fn unpinned_services(&self) -> Vec<ServiceId> {
        self.services.iter().filter(|s| s.is_unpinned()).map(|s| s.id).collect()
    }

    /// Children of `sid` in data-flow order (services streaming into it).
    pub fn children(&self, sid: ServiceId) -> Vec<ServiceId> {
        self.links.iter().filter(|l| l.to == sid).map(|l| l.from).collect()
    }

    /// `mask[service]`: the service is one of `roots` or sits beneath one
    /// (streams into it, directly or through other services).
    pub fn subtree_mask(&self, roots: &[ServiceId]) -> Vec<bool> {
        let mut mask = vec![false; self.len()];
        let mut pending = roots.to_vec();
        while let Some(sid) = pending.pop() {
            mask[sid.index()] = true;
            pending.extend(self.links.iter().filter(|l| l.to == sid).map(|l| l.from));
        }
        mask
    }

    /// One bottom-up pass over the services: `step(service, inputs, done)`
    /// returns the service's value, where `inputs` are its input services
    /// (left before right) and `done` the values of every service before it,
    /// its inputs' among them. Services ascend children-first and a
    /// service's in-links sit together, left before right (the numbering
    /// invariant), so walking services and links side by side hands each
    /// service its inputs' finished values. Returns the values by service
    /// id. Multi-query reuse derives subtree identities in it.
    pub(crate) fn bottom_up<T>(
        &self,
        mut step: impl FnMut(&Service, &[ServiceId], &[T]) -> T,
    ) -> Vec<T> {
        let mut done = Vec::with_capacity(self.len());
        let mut links = self.links.iter().peekable();
        for s in &self.services {
            let mut inputs = [ServiceId(0); 2];
            let mut arity = 0;
            while let Some(l) = links.next_if(|l| l.to == s.id) {
                inputs[arity] = l.from;
                arity += 1;
            }
            let value = step(s, &inputs[..arity], &done);
            done.push(value);
        }
        done
    }

    /// Every service's reuse signature as a string, indexed by service id:
    /// the reference the registry's interned subtree ids are pinned to. It
    /// is the operator *and its whole input subtree* as the plan's shape key
    /// with every source leaf qualified by its producer node (`s0@n5`),
    /// order-insensitive for commutative joins. Two circuits computing the
    /// same sub-result over the same physical sources have equal signatures
    /// — the identity multi-query reuse merges on ("merge identical
    /// services (serving different queries) into one physical service
    /// instance", Section 2.2); qualifying by producer prevents false
    /// merges between queries that number their local streams alike. A
    /// producer's entry is its qualified leaf, the consumer's is empty.
    ///
    /// A signature reads producers' pins only, and a producer is never
    /// re-pinned — [`Circuit::pin_service`] and [`Circuit::unpin_service`]
    /// touch operators alone — so the result is the same before and after
    /// any reuse pinning.
    #[cfg(test)]
    pub(crate) fn signatures(&self) -> Vec<String> {
        self.bottom_up(|s, inputs, done: &[String]| {
            let input = |i: usize| done[inputs[i].index()].as_str();
            match (s.kind, s.pin) {
                (ServiceKind::Producer(id), ServicePin::Pinned(node)) => source_signature(id, node),
                (ServiceKind::Operator { op: Operator::Unary(op) }, _) => {
                    unary_signature(op, input(0))
                }
                (ServiceKind::Operator { op: Operator::Binary(op) }, _) => {
                    binary_signature(op, input(0), input(1))
                }
                (ServiceKind::Consumer, _) => String::new(),
                (ServiceKind::Producer(_), ServicePin::Unpinned) => {
                    unreachable!("producers are pinned at construction and never unpinned")
                }
            }
        })
    }

    /// Pins an operator service to a node — used when multi-query
    /// optimization reuses an existing instance. Producers and the
    /// consumer keep the pins [`Circuit::from_plan`] gave them.
    pub fn pin_service(&mut self, sid: ServiceId, node: NodeId) {
        self.debug_assert_operator(sid);
        self.services[sid.index()].pin = ServicePin::Pinned(node);
    }

    /// Returns an operator service to the placeable pool — the inverse of
    /// [`Circuit::pin_service`], used when the last reuse subscription on
    /// an instance drains while its owner keeps running.
    pub fn unpin_service(&mut self, sid: ServiceId) {
        self.debug_assert_operator(sid);
        self.services[sid.index()].pin = ServicePin::Unpinned;
    }

    /// Reuse identities read producers' pins: only operators may be
    /// re-pinned.
    fn debug_assert_operator(&self, sid: ServiceId) {
        debug_assert!(
            matches!(self.services[sid.index()].kind, ServiceKind::Operator { .. }),
            "only operators are re-pinned, not {:?}",
            self.services[sid.index()].kind
        );
    }

    /// A service by id.
    pub fn service(&self, sid: ServiceId) -> &Service {
        &self.services[sid.index()]
    }
}

#[cfg(test)]
fn source_signature(id: StreamId, producer: NodeId) -> String {
    format!("{id}@{producer}")
}

/// The shape-key operator label carrying its parameter, around the qualified
/// child.
#[cfg(test)]
fn unary_signature(op: UnaryOp, inner: &str) -> String {
    format!("{}{}({inner})", op.label(), op.rate_ratio())
}

#[cfg(test)]
fn binary_signature(op: BinaryOp, a: &str, b: &str) -> String {
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    format!("({a} {} {b})", op.label())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::costspace::euclidean;

    /// A catalog of `(rate, producer)` streams s0, s1, … joining at
    /// `default_selectivity`.
    pub(crate) fn catalog(default_selectivity: f64, streams: &[(f64, NodeId)]) -> StreamCatalog {
        let mut c = StreamCatalog::new();
        c.set_default_selectivity(default_selectivity);
        for (i, &(rate, producer)) in streams.iter().enumerate() {
            c.register(format!("s{i}"), rate, producer);
        }
        c
    }

    /// Streams s0–s2 at rates 10, 20 and 5, produced at nodes `first`,
    /// `first + 1`, `first + 2`; default selectivity 0.1.
    fn stats_at(first: u32) -> StreamCatalog {
        catalog(0.1, &[(10.0, NodeId(first)), (20.0, NodeId(first + 1)), (5.0, NodeId(first + 2))])
    }

    /// [`stats_at`] with producers at nodes 100–102.
    fn stats2() -> StreamCatalog {
        stats_at(100)
    }

    /// The canonical reuse signature of a plan subtree: its shape key with each
    /// source leaf qualified by its producer node (`s0@n5`), order-insensitive
    /// for commutative joins.
    fn canonical_signature(plan: &LogicalPlan, catalog: &StreamCatalog) -> String {
        match plan {
            LogicalPlan::Source(id) => source_signature(*id, catalog.get(*id).producer),
            LogicalPlan::Unary { op, input } => {
                unary_signature(*op, &canonical_signature(input, catalog))
            }
            LogicalPlan::Binary { op, left, right } => binary_signature(
                *op,
                &canonical_signature(left, catalog),
                &canonical_signature(right, catalog),
            ),
        }
    }

    #[test]
    fn two_way_join_circuit_shape() {
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        // Services: 2 producers + 1 join + 1 consumer.
        assert_eq!(c.len(), 4);
        assert_eq!(c.links().len(), 3);
        assert_eq!(c.unpinned_services().len(), 1);
        // Producers pinned at their nodes, consumer at 7.
        let producers: Vec<NodeId> = c
            .services()
            .iter()
            .filter_map(|s| match (&s.kind, s.pin) {
                (ServiceKind::Producer(_), ServicePin::Pinned(n)) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(producers, vec![NodeId(100), NodeId(101)]);
        assert_eq!(c.service(c.root()).pin, ServicePin::Pinned(NodeId(7)));
    }

    #[test]
    fn link_rates_follow_stats() {
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let stats = stats2();
        let c = Circuit::from_plan(&plan, &stats, NodeId(7));
        let rates: Vec<f64> = c.links().iter().map(|l| l.rate).collect();
        // Producer links carry base rates; root link carries join output.
        assert!(rates.contains(&10.0));
        assert!(rates.contains(&20.0));
        assert!(rates.contains(&stats.output_rate(&plan)));
    }

    #[test]
    fn three_way_join_has_two_operators() {
        let plan = LogicalPlan::join(
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1))),
            LogicalPlan::source(StreamId(2)),
        );
        let c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        assert_eq!(c.unpinned_services().len(), 2);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn signatures_identify_equal_subtrees() {
        let p1 =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let p2 =
            LogicalPlan::join(LogicalPlan::source(StreamId(1)), LogicalPlan::source(StreamId(0)));
        let c1 = Circuit::from_plan(&p1, &stats2(), NodeId(7));
        let c2 = Circuit::from_plan(&p2, &stats2(), NodeId(8));
        assert_eq!(join_signature(&c1), join_signature(&c2), "commutative joins share a signature");
        assert_eq!(join_signature(&c1), "(s0@n100 ⋈ s1@n101)");
    }

    /// The signature of a one-operator circuit's operator.
    fn join_signature(c: &Circuit) -> String {
        let join = c.unpinned_services()[0];
        c.signatures().swap_remove(join.index())
    }

    #[test]
    fn signatures_distinguish_different_producers() {
        // Same local stream ids, different physical producers: must NOT
        // share a signature (this would falsely merge unrelated queries).
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let c1 = Circuit::from_plan(&plan, &stats_at(0), NodeId(7));
        let c2 = Circuit::from_plan(&plan, &stats_at(50), NodeId(7));
        assert_ne!(join_signature(&c1), join_signature(&c2));
    }

    #[test]
    fn filter_selectivity_is_part_of_the_signature() {
        let mk = |sel: f64| {
            let plan = LogicalPlan::select(sel, LogicalPlan::source(StreamId(0)));
            canonical_signature(&plan, &stats_at(0))
        };
        assert_ne!(mk(0.5), mk(0.25), "different filters must not merge");
        assert_eq!(mk(0.5), mk(0.5));
    }

    #[test]
    fn children_and_incident_agree() {
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        let join_sid = c.unpinned_services()[0];
        assert_eq!(c.children(join_sid).len(), 2);
        // Links touching the join: 2 children + 1 parent (consumer).
        assert_eq!(c.links().iter().filter(|l| l.from == join_sid || l.to == join_sid).count(), 3);
    }

    #[test]
    fn pin_service_changes_pinning() {
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        let mut c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        let sid = c.unpinned_services()[0];
        c.pin_service(sid, NodeId(3));
        assert!(c.unpinned_services().is_empty());
        assert_eq!(c.service(sid).pin, ServicePin::Pinned(NodeId(3)));
    }

    #[test]
    fn unary_chain_builds_linear_circuit() {
        let plan = LogicalPlan::select(0.5, LogicalPlan::source(StreamId(0)));
        let c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        assert_eq!(c.len(), 3); // producer, filter, consumer
        assert_eq!(c.links().len(), 2);
        let filter = c.unpinned_services()[0];
        assert_eq!(c.service(filter).output_rate, 5.0);
    }

    /// Uniform draws handed in by proptest, consumed in order.
    pub(crate) struct Draws(pub(crate) std::vec::IntoIter<f64>);

    impl Draws {
        pub(crate) fn unit(&mut self) -> f64 {
            self.0.next().expect("enough draws")
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f64) as usize).min(n - 1)
        }

        pub(crate) fn between(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    /// A random bushy tree of joins and unions over `ways` leaves, filters
    /// and aggregates sprinkled on leaves and inner nodes; now and then a
    /// leaf repeats an earlier stream (a self-join), so source lists must
    /// dedup.
    pub(crate) fn random_plan(d: &mut Draws, ways: usize) -> LogicalPlan {
        fn decorate(d: &mut Draws, plan: LogicalPlan) -> LogicalPlan {
            match d.below(4) {
                0 => LogicalPlan::select(d.between(0.05, 1.0), plan),
                1 => LogicalPlan::aggregate(d.between(0.05, 1.0), plan),
                _ => plan,
            }
        }
        let mut forest: Vec<LogicalPlan> = (0..ways)
            .map(|i| {
                let stream = if i > 0 && d.below(6) == 0 { d.below(i) } else { i };
                decorate(d, LogicalPlan::source(StreamId(stream as u32)))
            })
            .collect();
        while forest.len() > 1 {
            let a = forest.swap_remove(d.below(forest.len()));
            let b = forest.swap_remove(d.below(forest.len()));
            let merged =
                if d.below(4) == 0 { LogicalPlan::union(a, b) } else { LogicalPlan::join(a, b) };
            forest.push(decorate(d, merged));
        }
        forest.pop().unwrap()
    }

    /// Random rates, default and pairwise selectivities and window over one
    /// stream per producer.
    pub(crate) fn random_stats(d: &mut Draws, producers: &[NodeId]) -> StreamCatalog {
        let mut stats = StreamCatalog::new();
        stats.set_default_selectivity(d.between(0.001, 0.5));
        stats.set_window(d.between(0.5, 3.0));
        for (i, &producer) in producers.iter().enumerate() {
            let id = stats.register(format!("s{i}"), d.between(0.1, 100.0), producer);
            if i > 0 && d.below(2) == 0 {
                stats.set_join_selectivity(id, StreamId(id.0 - 1), d.between(0.001, 1.0));
            }
        }
        stats
    }

    /// A `random_plan` circuit whose producers, consumer and reuse-style
    /// pins (on random operators) sit among 12 hosts scattered in `dims`
    /// dimensions; returns the hosts' points with it.
    fn random_pinned_circuit(d: &mut Draws, ways: usize, dims: usize) -> (Circuit, Vec<Vec<f64>>) {
        let plan = random_plan(d, ways);
        let points: Vec<Vec<f64>> =
            (0..HOSTS).map(|_| (0..dims).map(|_| d.between(-100.0, 100.0)).collect()).collect();
        let producers: Vec<NodeId> = (0..ways).map(|_| NodeId(d.below(HOSTS) as u32)).collect();
        let consumer = NodeId(d.below(HOSTS) as u32);
        let stats = random_stats(d, &producers);
        let mut c = Circuit::from_plan(&plan, &stats, consumer);
        for sid in c.unpinned_services() {
            if d.below(4) == 0 {
                c.pin_service(sid, NodeId(d.below(HOSTS) as u32));
            }
        }
        (c, points)
    }

    const HOSTS: usize = 12;

    /// Pinned services at their pins, unpinned ones scattered anywhere.
    fn random_hosts(d: &mut Draws, c: &Circuit) -> Placement {
        let host = |s: &Service| match s.pin {
            ServicePin::Pinned(n) => n,
            ServicePin::Unpinned => NodeId(d.below(HOSTS) as u32),
        };
        Placement::new(c, c.services().iter().map(host).collect())
    }

    /// Sub-plans in the order `from_plan` numbers their services:
    /// children first, left before right.
    fn build_order<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
        match plan {
            LogicalPlan::Source(_) => {}
            LogicalPlan::Unary { input, .. } => build_order(input, out),
            LogicalPlan::Binary { left, right, .. } => {
                build_order(left, out);
                build_order(right, out);
            }
        }
        out.push(plan);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64 })]
        /// The one-recursion build and the one-pass signature derivation
        /// carry exactly what the per-node functions compute from scratch:
        /// each service's rate (by bits) is its sub-plan's `output_rate`,
        /// each operator runs its sub-plan's operator, each signature —
        /// producers' and operators' — is its sub-plan's
        /// `canonical_signature` (byte for byte), each link carries its
        /// source's rate. Plans are random bushy trees with self-joins,
        /// unions, filters and aggregates.
        #[test]
        fn from_plan_matches_the_per_node_reference_functions(
            ways in 2usize..=6,
            draws in proptest::collection::vec(0.0f64..1.0, 96),
        ) {
            let mut d = Draws(draws.into_iter());
            let plan = random_plan(&mut d, ways);
            let producers: Vec<NodeId> = (0..ways as u32).map(|i| NodeId(100 + 7 * i)).collect();
            let stats = random_stats(&mut d, &producers);
            let c = Circuit::from_plan(&plan, &stats, NodeId(5));
            let signatures = c.signatures();

            let mut subs = Vec::new();
            build_order(&plan, &mut subs);
            proptest::prop_assert_eq!(c.len(), subs.len() + 1);
            proptest::prop_assert_eq!(signatures.len(), c.len());
            proptest::prop_assert_eq!(&signatures[c.root().index()], "");
            for (service, sub) in c.services().iter().zip(&subs) {
                proptest::prop_assert_eq!(
                    service.output_rate.to_bits(), stats.output_rate(sub).to_bits()
                );
                proptest::prop_assert_eq!(
                    &signatures[service.id.index()], &canonical_signature(sub, &stats)
                );
                match (&service.kind, sub) {
                    (ServiceKind::Producer(id), LogicalPlan::Source(sid)) => {
                        proptest::prop_assert_eq!(id, sid);
                        proptest::prop_assert_eq!(service.pin, ServicePin::Pinned(producers[id.index()]));
                    }
                    (
                        ServiceKind::Operator { op: Operator::Unary(op) },
                        LogicalPlan::Unary { op: sub_op, .. },
                    ) => {
                        proptest::prop_assert_eq!(op, sub_op);
                    }
                    (
                        ServiceKind::Operator { op: Operator::Binary(op) },
                        LogicalPlan::Binary { op: sub_op, .. },
                    ) => {
                        proptest::prop_assert_eq!(op, sub_op);
                    }
                    other => proptest::prop_assert!(false, "mismatched service {:?}", other),
                }
            }
            proptest::prop_assert_eq!(c.links().len(), c.len() - 1);
            for l in c.links() {
                proptest::prop_assert_eq!(l.rate.to_bits(), c.service(l.from).output_rate.to_bits());
            }
            let root_link = c.links().last().unwrap();
            proptest::prop_assert_eq!(root_link.to, c.root());
            proptest::prop_assert_eq!(root_link.rate.to_bits(), stats.output_rate(&plan).to_bits());
        }

        /// Signatures read producers' pins only: pinning random operators
        /// (a reuse subtree's phantoms, a tenancy pin) and unpinning some
        /// again (a drained subscription) leaves every signature byte-equal
        /// to the freshly built circuit's.
        #[test]
        fn reuse_pins_leave_signatures_unchanged(
            ways in 2usize..=6,
            draws in proptest::collection::vec(0.0f64..1.0, 200),
        ) {
            let mut d = Draws(draws.into_iter());
            let plan = random_plan(&mut d, ways);
            let producers: Vec<NodeId> = (0..ways).map(|_| NodeId(d.below(HOSTS) as u32)).collect();
            let mut c = Circuit::from_plan(&plan, &random_stats(&mut d, &producers), NodeId(0));
            let expected = c.signatures();
            let operators: Vec<ServiceId> = c
                .services()
                .iter()
                .filter(|s| matches!(s.kind, ServiceKind::Operator { .. }))
                .map(|s| s.id)
                .collect();
            for _ in 0..8 {
                let sid = operators[d.below(operators.len())];
                if d.below(2) == 0 {
                    c.pin_service(sid, NodeId(d.below(HOSTS) as u32));
                } else {
                    c.unpin_service(sid);
                }
                proptest::prop_assert_eq!(&c.signatures(), &expected);
            }
        }

        /// The path-packing bound never exceeds the usage of any placement:
        /// random trees and rates, reuse-style pins on random operators,
        /// unpinned services scattered anywhere, Euclidean distance.
        #[test]
        fn usage_lower_bound_is_below_every_placement(
            ways in 2usize..=6,
            dims in 1usize..=3,
            draws in proptest::collection::vec(0.0f64..1.0, 200),
        ) {
            let mut d = Draws(draws.into_iter());
            let (c, points) = random_pinned_circuit(&mut d, ways, dims);
            let dist = |a: NodeId, b: NodeId| euclidean(&points[a.index()], &points[b.index()]);
            let bound = c.usage_lower_bound(&[], dist);
            proptest::prop_assert!(bound >= 0.0);
            for _ in 0..6 {
                let usage = c.cost_with(&random_hosts(&mut d, &c), &[], dist).network_usage;
                proptest::prop_assert!(
                    bound * (1.0 - 1e-12) <= usage,
                    "bound {} above usage {} of {:?}", bound, usage, c
                );
            }
        }

        /// Under a reuse outcome the bound still floors the marginal usage:
        /// a random operator's subtree is shared, its phantom operators
        /// co-pinned at a random host, its producers at their real pins, and
        /// both sides skip the free links into it.
        #[test]
        fn masked_usage_lower_bound_is_below_every_masked_placement(
            ways in 2usize..=6,
            dims in 1usize..=3,
            draws in proptest::collection::vec(0.0f64..1.0, 220),
        ) {
            let mut d = Draws(draws.into_iter());
            let (mut c, points) = random_pinned_circuit(&mut d, ways, dims);
            let is_operator = |s: &&Service| matches!(s.kind, ServiceKind::Operator { .. });
            let operators: Vec<ServiceId> =
                c.services().iter().filter(is_operator).map(|s| s.id).collect();
            let root = operators[d.below(operators.len())];
            let host = NodeId(d.below(HOSTS) as u32);
            let shared = c.subtree_mask(&[root]);
            for &sid in operators.iter().filter(|s| shared[s.index()]) {
                c.pin_service(sid, host);
            }
            let dist = |a: NodeId, b: NodeId| euclidean(&points[a.index()], &points[b.index()]);
            let bound = c.usage_lower_bound(&shared, dist);
            proptest::prop_assert!(bound >= 0.0);
            for _ in 0..6 {
                let usage = c.cost_with(&random_hosts(&mut d, &c), &shared, dist).network_usage;
                proptest::prop_assert!(
                    bound * (1.0 - 1e-12) <= usage,
                    "bound {} above marginal usage {} of {:?} sharing {:?}", bound, usage, c, shared
                );
            }
        }

        /// One pass over the links costs a placement: `dist` is read once per
        /// link, and the path depth carried along them is, bit for bit, the
        /// longest leaf → consumer path walked link by link.
        #[test]
        fn cost_with_reads_each_link_once_and_finds_the_longest_path(
            ways in 2usize..=6,
            dims in 1usize..=3,
            draws in proptest::collection::vec(0.0f64..1.0, 200),
        ) {
            let mut d = Draws(draws.into_iter());
            let (c, points) = random_pinned_circuit(&mut d, ways, dims);
            let placement = random_hosts(&mut d, &c);
            let reads = std::cell::Cell::new(0);
            let cost = c.cost_with(&placement, &[], |a, b| {
                reads.set(reads.get() + 1);
                euclidean(&points[a.index()], &points[b.index()])
            });
            proptest::prop_assert_eq!(reads.get(), c.links().len());

            let mut longest = 0.0_f64;
            let is_leaf = |s: &&Service| matches!(s.kind, ServiceKind::Producer(_));
            for leaf in c.services().iter().filter(is_leaf) {
                let (mut at, mut path) = (leaf.id, 0.0);
                while let Some(up) = c.links().iter().find(|l| l.from == at) {
                    let (a, b) = (placement.node_of(up.from), placement.node_of(up.to));
                    path += euclidean(&points[a.index()], &points[b.index()]);
                    at = up.to;
                }
                proptest::prop_assert_eq!(at, c.root());
                longest = longest.max(path);
            }
            proptest::prop_assert_eq!(cost.max_path_latency.to_bits(), longest.to_bits());
        }

        /// The numbering invariant `Circuit`'s docs state, which every
        /// recursion-free walker rests on.
        #[test]
        fn services_are_numbered_children_first(
            ways in 2usize..=6,
            draws in proptest::collection::vec(0.0f64..1.0, 96),
        ) {
            let mut d = Draws(draws.into_iter());
            let plan = random_plan(&mut d, ways);
            let stats = random_stats(&mut d, &(0..ways as u32).map(NodeId).collect::<Vec<_>>());
            let c = Circuit::from_plan(&plan, &stats, NodeId(9));
            proptest::prop_assert_eq!(c.root().index(), c.len() - 1);
            for s in c.services() {
                let uplinks: Vec<usize> =
                    (0..c.links().len()).filter(|&i| c.links()[i].from == s.id).collect();
                proptest::prop_assert_eq!(uplinks.len(), usize::from(s.id != c.root()));
                for (i, l) in c.links().iter().enumerate().filter(|(_, l)| l.to == s.id) {
                    proptest::prop_assert!(l.from < l.to);
                    proptest::prop_assert!(uplinks.iter().all(|&up| i < up), "after its uplink");
                }
            }
        }
    }

    /// On a line the bound is easy to follow by hand, and exact whenever the
    /// surplus of the larger input is what the output link carries on.
    #[test]
    fn usage_lower_bound_packs_paths_between_pinned_hosts() {
        let line = |a: NodeId, b: NodeId| (a.0 as f64 - b.0 as f64).abs();
        let plan =
            LogicalPlan::join(LogicalPlan::source(StreamId(0)), LogicalPlan::source(StreamId(1)));
        // p0@100 (rate 10), p1@101 (rate 20), join out 0.1·10·20 = 20, consumer@7.
        let mut c = Circuit::from_plan(&plan, &stats2(), NodeId(7));
        // 10 units p0↔p1 over distance 1; p1's other 10 climb to the
        // consumer, 94 away.
        assert_eq!(c.usage_lower_bound(&[], line), 10.0 * 1.0 + 10.0 * 94.0);
        // Pin the join (a reused instance) at 50: every link is now fixed.
        let join = c.unpinned_services()[0];
        c.pin_service(join, NodeId(50));
        let pinned = Placement::new(&c, vec![NodeId(100), NodeId(101), NodeId(50), NodeId(7)]);
        assert_eq!(c.usage_lower_bound(&[], line), c.cost_with(&pinned, &[], line).network_usage);
    }
}
