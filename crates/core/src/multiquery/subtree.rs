//! Interned subtree identities: the reuse identity of an operator and its
//! whole input subtree as one integer.
//!
//! The table is hash-consed bottom-up. A source is keyed by its stream and
//! producer node, an operator by its kind, its parameter's bits and its
//! inputs' ids — a commutative binary operator's two ids in min/max order.
//! Keys compare exactly, so no collision can merge two subtrees: two
//! services get one id exactly when their subtrees compute the same
//! sub-result over the same physical sources, the identity the
//! `#[cfg(test)]` string reference `Circuit::signatures` spells out.
//!
//! An entry lives while something holds it: a registered instance of the
//! subtree (which the entry lists, for discovery), or the entry of a
//! subtree directly above it (whose key names it). The last holder's
//! release removes the entry and releases its inputs, so the table is
//! bounded by the live instances' subtrees, and an id is reissued only once
//! nothing holds it.

use std::collections::BTreeMap;

use sbon_netsim::graph::NodeId;
use sbon_query::plan::{BinaryOp, UnaryOp};
use sbon_query::stream::StreamId;

use super::ServiceInstance;
use crate::circuit::{Circuit, Operator, Service, ServiceId, ServiceKind, ServicePin};

/// The interned identity of a running subtree: equal ids ⇔ the same
/// operator over the same inputs, down to the same physical sources. Valid
/// while the registry holds it — an instance's id for as long as the
/// instance stays registered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubtreeId(u32);

impl SubtreeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What one id stands for, compared exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SubtreeKey {
    Source(StreamId, NodeId),
    /// A filter: its selectivity's bits, its input.
    Select(u64, SubtreeId),
    /// An aggregate: its ratio's bits, its input.
    Aggregate(u64, SubtreeId),
    /// A join of two inputs, the smaller id first.
    Join(SubtreeId, SubtreeId),
    /// A union of two inputs, the smaller id first.
    Union(SubtreeId, SubtreeId),
}

impl SubtreeKey {
    /// The key of `service` given its inputs' ids; `None` for the consumer
    /// and for an operator with an input the table does not know.
    fn of(service: &Service, inputs: &[ServiceId], ids: &[Option<SubtreeId>]) -> Option<Self> {
        let input = |i: usize| ids[inputs[i].index()];
        let key = match (service.kind, service.pin) {
            (ServiceKind::Producer(stream), ServicePin::Pinned(node)) => {
                SubtreeKey::Source(stream, node)
            }
            (ServiceKind::Operator { op: Operator::Unary(op) }, _) => {
                debug_assert_eq!(inputs.len(), 1);
                match op {
                    UnaryOp::Select { selectivity } => {
                        SubtreeKey::Select(selectivity.to_bits(), input(0)?)
                    }
                    UnaryOp::Aggregate { ratio } => {
                        SubtreeKey::Aggregate(ratio.to_bits(), input(0)?)
                    }
                }
            }
            (ServiceKind::Operator { op: Operator::Binary(op) }, _) => {
                debug_assert_eq!(inputs.len(), 2);
                let (a, b) = (input(0)?, input(1)?);
                let (low, high) = (a.min(b), a.max(b));
                match op {
                    BinaryOp::Join => SubtreeKey::Join(low, high),
                    BinaryOp::Union => SubtreeKey::Union(low, high),
                }
            }
            (ServiceKind::Consumer, _) => return None,
            (ServiceKind::Producer(_), ServicePin::Unpinned) => {
                unreachable!("producers are pinned at construction and never unpinned")
            }
        };
        Some(key)
    }

    /// The ids this key names: the entries it holds.
    fn inputs(self) -> [Option<SubtreeId>; 2] {
        match self {
            SubtreeKey::Source(..) => [None, None],
            SubtreeKey::Select(_, input) | SubtreeKey::Aggregate(_, input) => [Some(input), None],
            SubtreeKey::Join(a, b) | SubtreeKey::Union(a, b) => [Some(a), Some(b)],
        }
    }
}

/// One live id: its key, how many holders it has, and the registered
/// instances of its subtree (each one of the holders).
#[derive(Clone)]
struct Entry {
    key: SubtreeKey,
    holders: u32,
    /// In registration order: discovery breaks distance ties towards the
    /// first registered.
    instances: Vec<ServiceInstance>,
}

/// The hash-consed id table (module docs).
#[derive(Clone, Default)]
pub(crate) struct SubtreeTable {
    ids: BTreeMap<SubtreeKey, SubtreeId>,
    /// Dense by id; `None` is a released id waiting in `free`.
    entries: Vec<Option<Entry>>,
    /// Released ids, reissued before a new one is minted.
    free: Vec<SubtreeId>,
}

impl SubtreeTable {
    /// Number of live ids.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of listed instances, over every id.
    pub(crate) fn num_instances(&self) -> usize {
        self.entries.iter().flatten().map(|e| e.instances.len()).sum()
    }

    /// The listed instances of `id`'s subtree, in registration order.
    pub(crate) fn instances(&self, id: SubtreeId) -> &[ServiceInstance] {
        self.entries[id.index()].as_ref().map_or(&[], |e| &e.instances)
    }

    /// The list behind [`SubtreeTable::instances`]. An instance is listed
    /// only under an id it holds ([`SubtreeTable::intern`]) and unlisted
    /// before it gives the hold back.
    pub(crate) fn instances_mut(&mut self, id: SubtreeId) -> &mut Vec<ServiceInstance> {
        &mut self.entry(id).instances
    }

    /// Every service's id, where the table has one; it adds none. A subtree
    /// with no id has no registered instance, nor has any subtree above it.
    pub(crate) fn lookup(&self, circuit: &Circuit) -> Vec<Option<SubtreeId>> {
        circuit.bottom_up(|s, inputs, ids| {
            SubtreeKey::of(s, inputs, ids).and_then(|key| self.ids.get(&key).copied())
        })
    }

    /// Every service's id (`None` for the consumer alone), minting the ones
    /// the table lacks. Each service `hold` accepts keeps one hold on its id,
    /// which its holder gives back with [`SubtreeTable::release`].
    pub(crate) fn intern(
        &mut self,
        circuit: &Circuit,
        hold: impl Fn(&Service) -> bool,
    ) -> Vec<Option<SubtreeId>> {
        let ids = circuit.bottom_up(|s, inputs, ids| {
            SubtreeKey::of(s, inputs, ids).map(|key| self.acquire(key))
        });
        // Every id above was acquired once; the entries above hold their
        // inputs, so giving back the holds no service keeps removes only
        // what no kept subtree contains.
        for (s, id) in circuit.services().iter().zip(&ids) {
            if let Some(id) = id.filter(|_| !hold(s)) {
                self.release(id);
            }
        }
        ids
    }

    /// One more hold on `key`'s id, minting the entry (which holds its
    /// inputs) if there is none.
    fn acquire(&mut self, key: SubtreeKey) -> SubtreeId {
        if let Some(&id) = self.ids.get(&key) {
            self.entry(id).holders += 1;
            return id;
        }
        for input in key.inputs().into_iter().flatten() {
            self.entry(input).holders += 1;
        }
        let entry = Some(Entry { key, holders: 1, instances: Vec::new() });
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id.index()] = entry;
                id
            }
            None => {
                self.entries.push(entry);
                SubtreeId(self.entries.len() as u32 - 1)
            }
        };
        self.ids.insert(key, id);
        id
    }

    /// Gives back one hold on `id`; the last one removes the entry and
    /// releases its inputs.
    pub(crate) fn release(&mut self, id: SubtreeId) {
        let mut pending = vec![id];
        while let Some(id) = pending.pop() {
            let entry = self.entry(id);
            entry.holders -= 1;
            if entry.holders > 0 {
                continue;
            }
            debug_assert!(entry.instances.is_empty(), "a listed instance holds its id");
            let key = entry.key;
            self.entries[id.index()] = None;
            self.ids.remove(&key);
            self.free.push(id);
            pending.extend(key.inputs().into_iter().flatten());
        }
    }

    fn entry(&mut self, id: SubtreeId) -> &mut Entry {
        self.entries[id.index()].as_mut().expect("a held id is live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::{random_plan, random_stats, Draws};
    use sbon_query::plan::LogicalPlan;

    /// `plan` with the inputs of every binary operator swapped.
    fn commuted(plan: &LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Source(id) => LogicalPlan::Source(*id),
            LogicalPlan::Unary { op, input } => {
                LogicalPlan::Unary { op: *op, input: Box::new(commuted(input)) }
            }
            LogicalPlan::Binary { op, left, right } => LogicalPlan::Binary {
                op: *op,
                left: Box::new(commuted(right)),
                right: Box::new(commuted(left)),
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64 })]
        /// The interned ids are the reference strings' identity: over a
        /// handful of random plans, their commuted twins and two catalogs
        /// whose producers partly coincide, two services share an id exactly
        /// when their `Circuit::signatures` strings are equal. A lookup
        /// finds every interned id, and giving back every hold empties the
        /// table.
        #[test]
        fn equal_ids_are_equal_reference_strings(
            ways in 2usize..=5,
            draws in proptest::collection::vec(0.0f64..1.0, 400),
        ) {
            let mut d = Draws(draws.into_iter());
            // Few hosts, so distinct streams often share a producer.
            let producers = |d: &mut Draws| -> Vec<NodeId> {
                (0..ways).map(|_| NodeId(d.below(3) as u32)).collect()
            };
            let catalogs: Vec<_> = (0..2)
                .map(|_| {
                    let hosts = producers(&mut d);
                    random_stats(&mut d, &hosts)
                })
                .collect();
            let mut table = SubtreeTable::default();
            let mut seen: Vec<(SubtreeId, String)> = Vec::new();
            let mut held = Vec::new();
            for _ in 0..3 {
                let plan = random_plan(&mut d, ways);
                for catalog in &catalogs {
                    for plan in [&plan, &commuted(&plan)] {
                        let c = Circuit::from_plan(plan, catalog, NodeId(9));
                        let ids = table.intern(&c, |_| true);
                        proptest::prop_assert_eq!(&table.lookup(&c), &ids);
                        proptest::prop_assert_eq!(ids[c.root().index()], None);
                        let signatures = c.signatures();
                        for (id, signature) in ids.iter().zip(signatures).filter_map(|(id, s)| Some(((*id)?, s))) {
                            held.push(id);
                            seen.push((id, signature));
                        }
                    }
                }
            }
            for (a, sa) in &seen {
                for (b, sb) in &seen {
                    proptest::prop_assert!((a == b) == (sa == sb), "{:?} {} vs {:?} {}", a, sa, b, sb);
                }
            }
            for id in held {
                table.release(id);
            }
            proptest::prop_assert_eq!(table.len(), 0);
            proptest::prop_assert!(table.entries.iter().all(Option::is_none));
        }
    }
}
