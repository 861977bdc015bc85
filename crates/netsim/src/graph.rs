//! Compact weighted undirected graph.
//!
//! Nodes are dense `u32` indices so the all-pairs latency matrix and the
//! per-node attribute tables in [`crate::load`] can be plain vectors. A
//! graph owns its node count and edge table (16 B an edge), all an
//! unsearched graph holds. The adjacency is derived: a CSR built by
//! counting sort on the first [`Graph::neighbors`] call (once, even from a
//! pool), dropped by `add_node` / `add_edge`. Vertex `v`'s slots,
//! `slots[offsets[v]..offsets[v + 1]]`, are 4 B edge ids, one per edge
//! end, in edge-id order — the push-built lists' order, so equal-cost ties
//! and the edges `shortest_path` walks are unchanged. A slot reads its far
//! end and weight from the edge table: the far end of edge `(a, b)` seen
//! from `v` is `a ^ b ^ v`, with no branch, and `v` itself for a
//! self-loop. Searched: 24 B an edge + 4 B a node. Each weight lies in the
//! table once, so its writer writes one place; copies in the slots paid
//! only for 100k-wide row searches, which the store ([`crate::lazy`]) no
//! longer runs. Ids and offsets are `u32`; a count past that panics before
//! anything is mutated.
//!
//! The graph also derives its **pendant regions**: label 0 for the
//! *core*, one 2-edge-connected class, and for every other vertex `1 +`
//! the index of its component of G − core, numbered in order of each
//! component's lowest vertex. A region in the core's component touches
//! the core through exactly one edge, a bridge (two would close a cycle
//! through the core, and their ends would be in it); a region in another
//! component touches it through none. So a simple path between two
//! vertices stays inside the core and their own regions: entering any
//! third region leaves it by the bridge it came in on.
//!
//! The core is the **weighted centroid of the bridge forest** (the classes
//! as its nodes, weighing their vertex counts; the bridges as its edges):
//! the class whose removal leaves the smallest largest region, ties going
//! to the class that holds the lowest vertex id. The latency store
//! ([`crate::lazy`]) searches one region at a time, so what bounds a
//! search is the largest region. The largest class is no
//! centroid: on a transit-stub graph whose stub domains outnumber its
//! backbone routers (43 against 16 at 2,048 nodes, 195 against 64 at 100k)
//! it picks a stub domain, and the backbone with every other stub domain
//! becomes one region holding nearly the whole graph.
//!
//! With the labels (4 B a node) the graph derives each touching region's
//! bridge as (core end, region end, edge id), 12 B a region. Two passes
//! over the CSR derive both, when a latency store is first built: one
//! depth-first search finds the classes and the core, one flood of the
//! other vertices the regions and their bridges. Their temporaries hold
//! nothing an edge — 8 B a node, 16 B a class and 16 B a vertex on the
//! search path — and are freed before it returns.
//! `add_node` / `add_edge` drop the regions with the CSR, and a weight
//! change keeps both: neither holds a weight.
//!
//! # The weight grid
//!
//! Every weight the graph holds is a whole multiple of [`LATENCY_GRID_MS`],
//! 2⁻²⁰ ms: its two writers, `add_edge` and `set_edge_latency`, round what
//! they are given to the nearest grid point ([`on_grid`]). A sum of grid
//! weights below 2³³ ms is a whole number of grid steps below 2⁵³, so `f64`
//! holds it exactly, whatever order it is added in; and where the CSR is
//! built, or a weight is written to a built one, a weight `w` with
//! `(n − 1) × w ≥ 2³³` ms panics, so every simple path of `n` or fewer
//! vertices sums below that. The distance between two vertices is then one
//! number, read off either end's row or met in the middle of a search.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a physical node in the simulated network.
///
/// Dense: a graph with `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize, for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an undirected edge, indexing [`Graph::edges`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a usize, for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected edge with a latency weight in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency of the link, in milliseconds: finite,
    /// non-negative and a whole multiple of [`LATENCY_GRID_MS`] (the
    /// graph's writers round to it).
    pub latency_ms: f64,
}

/// One edge end as its vertex sees it: the edge's id.
type Slot = u32;

/// The derived adjacency (module docs).
#[derive(Clone, Debug, PartialEq)]
struct Csr {
    offsets: Vec<u32>,
    slots: Vec<Slot>,
}

impl Csr {
    /// Counting sort of the edge ends by vertex, each run in edge-id order.
    fn build(nodes: usize, edges: &[Edge]) -> Csr {
        let mut offsets = vec![0u32; nodes + 1];
        for e in edges {
            offsets[e.a.index() + 1] += 1;
            offsets[e.b.index() + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut slots = vec![0; 2 * edges.len()];
        for (id, e) in (0..).zip(edges) {
            assert_exact_sums(nodes, id, e.latency_ms);
            for at in [e.a, e.b] {
                let slot = &mut next[at.index()];
                slots[*slot as usize] = id;
                *slot += 1;
            }
        }
        Csr { offsets, slots }
    }

    #[inline]
    fn run(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    fn bytes(&self) -> usize {
        size_of_val(&*self.offsets) + size_of_val(&*self.slots)
    }
}

/// The far end of `edge` from its end `v` (`v` for a self-loop).
#[inline]
fn far_end(edge: &Edge, v: u32) -> u32 {
    edge.a.0 ^ edge.b.0 ^ v
}

/// The weight grid, in ms: 2⁻²⁰, about a nanosecond. Every edge weight
/// is a whole multiple of it (module docs).
pub const LATENCY_GRID_MS: f64 = 1.0 / (1u64 << 20) as f64;

/// Grid weights sum exactly below this many ms: 2⁵³ grid steps.
const EXACT_SUM_MS: f64 = (1u64 << 33) as f64;

/// `latency_ms` rounded to the nearest multiple of [`LATENCY_GRID_MS`],
/// halves away from zero: what the graph's weight writers store. From
/// 2⁵² ms up every `f64` is a whole number, on the grid already, and is
/// returned as it is.
pub fn on_grid(latency_ms: f64) -> f64 {
    const WHOLE_FROM: f64 = (1u64 << 52) as f64;
    if latency_ms.abs() >= WHOLE_FROM {
        return latency_ms;
    }
    (latency_ms / LATENCY_GRID_MS).round() * LATENCY_GRID_MS
}

/// Panics, naming the edge, the weight and `nodes`, unless a path of
/// `nodes` vertices over edges weighing `w` sums below 2³³ ms, where every
/// sum of grid weights is exact. [`crate::lazy`] checks a delta batch with
/// it before writing any of it.
pub(crate) fn assert_exact_sums(nodes: usize, edge: u32, w: f64) {
    let longest = nodes.saturating_sub(1) as f64 * w;
    assert!(
        longest < EXACT_SUM_MS,
        "edge {edge} latency {w} ms times n - 1 = {nodes} - 1 reaches 2^33 ms: path sums would not be exact"
    );
}

/// A node no label (or search order) has been given yet.
const UNLABELLED: u32 = u32::MAX;

/// The pendant regions of a graph (module docs).
#[derive(Clone, Debug)]
pub(crate) struct Regions {
    /// Each vertex's label: 0 for the core, else its region, from 1.
    pub(crate) label: Box<[u32]>,
    /// The bridge of every region that touches the core, in label order:
    /// every region of the core's component, and no other.
    pub(crate) bridges: Box<[Bridge]>,
}

/// The one edge between a region and the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Bridge {
    /// Its end in the core.
    pub(crate) core: NodeId,
    /// Its end in the region.
    pub(crate) end: NodeId,
    /// The edge, whose current weight the graph's edge table holds.
    pub(crate) edge: EdgeId,
}

/// Panics, naming the count, unless `count` items of `width` `u32` ids or
/// offsets each still fit a `u32`, where an `as` cast would wrap.
fn assert_fits_u32(count: usize, width: usize, what: &str) {
    let fits = u32::try_from(count.saturating_mul(width)).is_ok();
    assert!(fits, "{count} {what} overflow the graph's u32 ids and offsets");
}

/// A weighted undirected graph: an edge table and its derived adjacency.
///
/// ```
/// use sbon_netsim::graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0.into(), 1.into(), 10.0);
/// g.add_edge(1.into(), 2.into(), 5.0);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1.into()).count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: u32,
    edges: Vec<Edge>,
    csr: OnceLock<Csr>,
    regions: OnceLock<Regions>,
    /// Times `csr` was derived (shared with clones): what the tests count.
    #[cfg(test)]
    pub(crate) csr_builds: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    /// Times `regions` was derived, likewise.
    #[cfg(test)]
    pub(crate) region_builds: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        assert_fits_u32(n, 1, "nodes");
        Graph { nodes: n as u32, ..Graph::default() }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId)
    }

    /// The edge table.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        assert_fits_u32(self.num_nodes() + 1, 1, "nodes");
        self.csr = OnceLock::new();
        self.regions = OnceLock::new();
        self.nodes += 1;
        NodeId(self.nodes - 1)
    }

    /// Adds an undirected edge weighing `latency_ms` rounded to the grid
    /// ([`on_grid`]). Panics if an endpoint is out of range, the latency is
    /// not finite, or the latency is negative.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, latency_ms: f64) -> EdgeId {
        assert!(a.index() < self.num_nodes(), "edge endpoint {a} out of range");
        assert!(b.index() < self.num_nodes(), "edge endpoint {b} out of range");
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "edge latency must be finite and non-negative, got {latency_ms}"
        );
        assert_fits_u32(self.edges.len() + 1, 2, "edges");
        self.csr = OnceLock::new();
        self.regions = OnceLock::new();
        self.edges.push(Edge { a, b, latency_ms: on_grid(latency_ms) });
        EdgeId(self.edges.len() as u32 - 1)
    }

    /// The edge with the given id. Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Overwrites the latency of an existing edge with `latency_ms`
    /// rounded to the grid ([`on_grid`]), returning the previous value.
    /// Panics if `id` is out of range, or the new latency is not finite or
    /// is negative — the same contract as [`Graph::add_edge`] — and, on a
    /// built adjacency, if it leaves the range of exact path sums (module
    /// docs).
    ///
    /// This is the mutation hook used by churn/jitter processes that perturb
    /// the underlay over time, and the one weight writer after
    /// construction. It writes one place, the edge table, which every
    /// search reads the weight from, so nothing the graph derives goes
    /// stale ([`crate::lazy`] repairs its store for each batch of changes).
    pub fn set_edge_latency(&mut self, id: EdgeId, latency_ms: f64) -> f64 {
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "edge latency must be finite and non-negative, got {latency_ms}"
        );
        let latency_ms = on_grid(latency_ms);
        if self.csr.get().is_some() {
            assert_exact_sums(self.num_nodes(), id.0, latency_ms);
        }
        std::mem::replace(&mut self.edges[id.index()].latency_ms, latency_ms)
    }

    /// Neighbors of `v` with the connecting edge's id and current latency —
    /// the one adjacency accessor: every shortest-path relaxation reads the
    /// graph through it ([`crate::dijkstra`]), and the edge id lets repair
    /// look up *historical* weights and path reconstruction name the edge
    /// it walked. The first call derives the adjacency.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, f64)> + '_ {
        let csr = self.csr();
        csr.slots[csr.run(v)].iter().map(move |&id| {
            let edge = &self.edges[id as usize];
            (NodeId(far_end(edge, v.0)), EdgeId(id), edge.latency_ms)
        })
    }

    /// The adjacency, derived by the first call.
    #[inline]
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| {
            #[cfg(test)]
            self.csr_builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Csr::build(self.num_nodes(), &self.edges)
        })
    }

    /// Returns true if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.component_labels().iter().all(|&c| c == 0)
    }

    /// Connected-component label of every node, numbered in order of each
    /// component's smallest node.
    pub(crate) fn component_labels(&self) -> Vec<u32> {
        let mut label = vec![UNLABELLED; self.num_nodes()];
        let mut stack = Vec::new();
        let mut next = 0;
        for start in 0..self.nodes {
            if label[start as usize] != UNLABELLED {
                continue;
            }
            label[start as usize] = next;
            stack.push(NodeId(start));
            while let Some(v) = stack.pop() {
                for (u, ..) in self.neighbors(v) {
                    if label[u.index()] == UNLABELLED {
                        label[u.index()] = next;
                        stack.push(u);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// The pendant regions (module docs): each node's label, 0 for the
    /// core, else its component of G − core, counted from 1; and the bridge
    /// of each region touching the core. Derived by the first call after
    /// the graph's last `add_node` / `add_edge`.
    pub(crate) fn regions(&self) -> &Regions {
        self.regions.get_or_init(|| {
            #[cfg(test)]
            self.region_builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let csr = self.csr();
            let (mut label, core) = self.classes();
            for c in label.iter_mut() {
                *c = if *c == core { 0 } else { UNLABELLED };
            }
            // Each region flooded from its lowest vertex; the one edge by
            // which it meets the core is its bridge.
            let (mut bridges, mut stack, mut next) = (Vec::new(), Vec::new(), 1);
            for start in 0..self.nodes {
                if label[start as usize] != UNLABELLED {
                    continue;
                }
                label[start as usize] = next;
                stack.push(start);
                while let Some(v) = stack.pop() {
                    for &edge in &csr.slots[csr.run(NodeId(v))] {
                        let to = far_end(&self.edges[edge as usize], v);
                        match label[to as usize] {
                            UNLABELLED => {
                                label[to as usize] = next;
                                stack.push(to);
                            }
                            0 => bridges.push(Bridge {
                                core: NodeId(to),
                                end: NodeId(v),
                                edge: EdgeId(edge),
                            }),
                            _ => {}
                        }
                    }
                }
                next += 1;
            }
            Regions { label: label.into_boxed_slice(), bridges: bridges.into_boxed_slice() }
        })
    }

    /// Each vertex's 2-edge-connected class, numbered as the classes close,
    /// and which class is the core (module docs): one iterative depth-first
    /// low-link pass over the CSR.
    ///
    /// A search skips the tree edge it arrived by, by id, so a parallel copy
    /// of it counts as the cycle it is, and a self-loop leads back to its
    /// own vertex and lowers nothing. A vertex goes on the `open` stack when
    /// reached. When `v` is done and no edge out of its subtree climbs above
    /// it, the edge it was reached by is a bridge (or `v` is a root), and
    /// `v` with every vertex above it on the stack is its class. Rooted at
    /// its lowest vertex, each tree of the bridge forest gives `v`'s class
    /// exactly `v`'s search subtree as its subtree, whose size the clock
    /// gives. Its heaviest child subtree is carried up the path: a closing
    /// class hands its weight to its parent's frame, a member hands what it
    /// holds to its parent. Removing class `c` leaves its child subtrees,
    /// the rest of its tree and every other tree.
    fn classes(&self) -> (Vec<u32>, u32) {
        /// A vertex on the search path.
        struct Frame {
            v: u32,
            /// The tree edge it was reached by.
            via: u32,
            /// Its next slot.
            next: u32,
            /// The heaviest subtree of a class closed below it or below a
            /// finished member of its class.
            heaviest: u32,
        }
        /// A closed class: its subtree's and heaviest child subtree's
        /// vertex counts, its lowest vertex and its tree.
        struct Class {
            weight: u32,
            heaviest: u32,
            lowest: u32,
            tree: u32,
        }
        let (n, csr) = (self.num_nodes(), self.csr());
        // `order[v]`: when the search reached `v`; `low[v]`: the earliest
        // `order` that `v`'s subtree reaches by one non-tree edge, then, once
        // `v`'s class closed, the class.
        let (mut order, mut low) = (vec![UNLABELLED; n], vec![0u32; n]);
        let (mut open, mut path) = (Vec::new(), Vec::<Frame>::new());
        let (mut classes, mut trees) = (Vec::<Class>::new(), Vec::new());
        let mut clock = 0;
        for root in 0..self.nodes {
            if order[root as usize] != UNLABELLED {
                continue;
            }
            // The vertex to reach next, and the tree edge it is reached by.
            let mut reach = Some((root, u32::MAX));
            loop {
                if let Some((u, via)) = reach.take() {
                    (order[u as usize], low[u as usize], clock) = (clock, clock, clock + 1);
                    open.push(u);
                    path.push(Frame { v: u, via, next: csr.offsets[u as usize], heaviest: 0 });
                }
                let Some(frame) = path.last_mut() else { break };
                // `v`'s slots up to its next unreached neighbour, if any.
                let v = frame.v as usize;
                while frame.next < csr.offsets[v + 1] {
                    let edge = csr.slots[frame.next as usize];
                    let to = far_end(&self.edges[edge as usize], frame.v);
                    frame.next += 1;
                    if edge == frame.via {
                        continue;
                    } else if order[to as usize] == UNLABELLED {
                        reach = Some((to, edge));
                        break;
                    }
                    low[v] = low[v].min(order[to as usize]);
                }
                if reach.is_some() {
                    continue;
                }
                let heaviest = frame.heaviest;
                path.pop();
                match path.last_mut() {
                    Some(p) if low[v] <= order[p.v as usize] => {
                        low[p.v as usize] = low[p.v as usize].min(low[v]);
                        p.heaviest = p.heaviest.max(heaviest);
                    }
                    parent => {
                        let (id, mut lowest) = (classes.len() as u32, u32::MAX);
                        let top = open.iter().rposition(|&u| u as usize == v).expect("v is open");
                        for u in open.drain(top..) {
                            (low[u as usize], lowest) = (id, lowest.min(u));
                        }
                        let weight = clock - order[v];
                        classes.push(Class { weight, heaviest, lowest, tree: trees.len() as u32 });
                        if let Some(p) = parent {
                            p.heaviest = p.heaviest.max(weight);
                        }
                    }
                }
            }
            trees.push(clock - order[root as usize]);
        }
        // The heaviest tree (the lowest root among equals) and the weight of
        // the heaviest other one.
        let (mut first, mut second) = ((0, u32::MAX), 0);
        for (&w, t) in trees.iter().zip(0..) {
            if w > first.0 {
                (first, second) = ((w, t), first.0);
            } else if w > second {
                second = w;
            }
        }
        let largest_left = |c: &Class| {
            let other_trees = if c.tree == first.1 { second } else { first.0 };
            (trees[c.tree as usize] - c.weight).max(c.heaviest).max(other_trees)
        };
        let core = (classes.iter().zip(0..)).min_by_key(|(c, _)| (largest_left(c), c.lowest));
        (low, core.map_or(UNLABELLED, |(_, id)| id))
    }

    /// Bytes the graph holds: its edge table, and its CSR and regions once
    /// derived (module docs).
    pub(crate) fn bytes(&self) -> usize {
        let region_bytes = |r: &Regions| size_of_val(&*r.label) + size_of_val(&*r.bridges);
        self.edges.capacity() * size_of::<Edge>()
            + self.csr.get().map_or(0, Csr::bytes)
            + self.regions.get().map_or(0, region_bytes)
    }

    /// Sum of all edge latencies; used by tests as a cheap fingerprint.
    pub fn total_edge_latency(&self) -> f64 {
        self.edges.iter().map(|e| e.latency_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;

    use super::*;
    use crate::topology::transit_stub::{generate, TransitStubConfig};

    fn builds(g: &Graph) -> usize {
        g.csr_builds.load(Ordering::Relaxed)
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn two_isolated_nodes_are_disconnected() {
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 3.5);
        assert_eq!(g.neighbors(NodeId(0)).collect::<Vec<_>>(), vec![(NodeId(1), e, 3.5)]);
        assert_eq!(g.neighbors(NodeId(1)).collect::<Vec<_>>(), vec![(NodeId(0), e, 3.5)]);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = Graph::new(0);
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_bad_endpoint() {
        let mut g = Graph::new(1);
        g.add_edge(NodeId(0), NodeId(7), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn add_edge_rejects_negative_latency() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    fn set_edge_latency_updates_both_directions() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 3.0);
        let old = g.set_edge_latency(e, 9.0);
        assert_eq!(old, 3.0);
        assert_eq!(g.edge(e).latency_ms, 9.0);
        assert_eq!(g.neighbors(NodeId(0)).next(), Some((NodeId(1), e, 9.0)));
        assert_eq!(g.neighbors(NodeId(1)).next(), Some((NodeId(0), e, 9.0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_edge_latency_rejects_nan() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.set_edge_latency(e, f64::NAN);
    }

    #[test]
    fn connectivity_detects_path() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        assert!(!g.is_connected());
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        assert!(g.is_connected());
    }

    /// The check `add_node` / `add_edge` run first: the largest counts pass,
    /// one more panics naming it — 2³¹ edges need 2³² slots.
    #[test]
    #[should_panic(expected = "2147483648 edges overflow the graph's u32 ids and offsets")]
    fn id_check_names_the_overflowing_count() {
        assert_fits_u32(u32::MAX as usize, 1, "nodes");
        assert_fits_u32(u32::MAX as usize / 2, 2, "edges");
        assert_fits_u32(u32::MAX as usize / 2 + 1, 2, "edges");
    }

    #[test]
    fn a_clone_of_an_unsearched_graph_holds_no_csr() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let copy = g.clone();
        assert!(copy.csr.get().is_none());
        assert!(!copy.is_connected());
        assert!(copy.csr.get().is_some());
        assert!(g.csr.get().is_none(), "searching the clone derives nothing for the original");
    }

    #[test]
    fn the_first_search_builds_the_csr_once_and_adding_drops_it() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        assert_eq!(builds(&g), 0, "adding builds nothing");
        g.neighbors(NodeId(0)).count();
        g.neighbors(NodeId(2)).count();
        assert!(!g.is_connected());
        assert_eq!(builds(&g), 1);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        assert!(g.csr.get().is_none(), "add_edge drops it");
        assert!(g.is_connected());
        g.add_node();
        assert!(g.csr.get().is_none(), "add_node drops it");
        assert_eq!(g.neighbors(NodeId(3)).count(), 0);
        assert_eq!(builds(&g), 3);
    }

    /// Written through a built CSR, an edge's weight is read from both of
    /// its ends — both slots of a self-loop included — and the CSR, which
    /// holds no weight, stays what a fresh derivation from the edge table
    /// gives, with nothing rebuilt.
    #[test]
    fn set_edge_latency_on_a_built_csr_is_read_from_both_ends() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let parallel = g.add_edge(NodeId(1), NodeId(0), 2.0);
        let self_loop = g.add_edge(NodeId(1), NodeId(1), 3.0);
        g.add_edge(NodeId(1), NodeId(2), 4.0);
        g.neighbors(NodeId(0)).count();
        g.set_edge_latency(parallel, 20.0);
        g.set_edge_latency(self_loop, 30.0);
        let weights = |v, id| -> Vec<(NodeId, f64)> {
            g.neighbors(NodeId(v)).filter(|&(_, e, _)| e == id).map(|(u, _, w)| (u, w)).collect()
        };
        assert_eq!(weights(0, parallel), [(NodeId(1), 20.0)]);
        assert_eq!(weights(1, parallel), [(NodeId(0), 20.0)]);
        assert_eq!(weights(1, self_loop), [(NodeId(1), 30.0), (NodeId(1), 30.0)]);
        assert_eq!(g.csr.get(), Some(&Csr::build(g.num_nodes(), g.edges())));
        assert_eq!(builds(&g), 1);
    }

    /// An unsearched graph holds its edge table alone (16 B an edge); a
    /// searched one adds a 4 B slot an edge end, `n + 1` offsets, and with
    /// its regions a 4 B label a node and a 12 B bridge a touching region;
    /// `add_edge` drops both again.
    #[test]
    fn searched_graph_bytes_follow_the_layout() {
        let mut g = from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 1), (3, 4)]);
        let table = |g: &Graph| g.edges.capacity() * 16;
        assert_eq!(g.bytes(), table(&g), "the edge table only");
        g.neighbors(NodeId(0)).count();
        let csr = 8 * g.num_edges() + 4 * (g.num_nodes() + 1);
        assert_eq!(g.bytes(), table(&g) + csr);
        let bridges = g.regions().bridges.len();
        assert_eq!(bridges, 1, "vertex 4 hangs off the core by one bridge");
        assert_eq!(g.bytes(), table(&g) + csr + 4 * g.num_nodes() + 12 * bridges);
        g.add_edge(NodeId(4), NodeId(0), 1.0);
        assert_eq!(g.bytes(), table(&g), "back to the table");
    }

    fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
        }
        g
    }

    /// Checks `g.regions()` against a brute-force reading of the module
    /// docs: an edge is a bridge iff removing it disconnects its ends; the
    /// core is the class of the bridgeless graph whose removal from `g`
    /// leaves the smallest largest component, ties going to the class
    /// holding the lowest vertex; two other vertices share a label iff
    /// they are connected in G − core, labels counting from 1 in order of
    /// lowest vertex; and [`check_bridge_table`].
    fn check_regions(g: &Graph) {
        let n = g.num_nodes();
        // Component labels of `g` with only the edges `keep` admits.
        let components = |keep: &dyn Fn(usize, &Edge) -> bool| {
            let mut h = Graph::new(n);
            for (_, e) in g.edges().iter().enumerate().filter(|(i, e)| keep(*i, e)) {
                h.add_edge(e.a, e.b, e.latency_ms);
            }
            h.component_labels()
        };
        let bridge: Vec<bool> = (0..g.num_edges())
            .map(|i| {
                let e = g.edge(EdgeId(i as u32));
                let comp = components(&|j, _| j != i);
                comp[e.a.index()] != comp[e.b.index()]
            })
            .collect();
        let class = components(&|i, _| !bridge[i]);
        // The largest component left by removing class `c`: its vertices
        // and every edge touching them.
        let largest_left = |c: u32| {
            let rest = components(&|_, e| class[e.a.index()] != c && class[e.b.index()] != c);
            let mut size = vec![0usize; n];
            (0..n).filter(|&v| class[v] != c).for_each(|v| size[rest[v] as usize] += 1);
            size.into_iter().max().unwrap_or(0)
        };
        // The class of each vertex in turn: the first smallest met holds
        // the lowest vertex id among the smallest.
        let core = class.iter().copied().reduce(|best, c| {
            if largest_left(c) < largest_left(best) {
                c
            } else {
                best
            }
        });
        let in_core: Vec<bool> = class.iter().map(|&c| Some(c) == core).collect();
        let rest = components(&|_, e| !in_core[e.a.index()] && !in_core[e.b.index()]);
        let regions = &g.regions().label;
        assert_eq!(regions.len(), n);
        let mut expected = vec![0u32; n];
        let mut seen = Vec::new();
        for v in 0..n {
            if in_core[v] {
                continue;
            }
            if !seen.contains(&rest[v]) {
                seen.push(rest[v]);
            }
            expected[v] = 1 + seen.iter().position(|&r| r == rest[v]).unwrap() as u32;
        }
        assert_eq!(&regions[..], &expected[..]);
        check_bridge_table(g);
    }

    /// Each region touches the core through exactly one edge if it lies in
    /// the core's component, else through none; and the bridge table lists
    /// that edge, core end first, for each region that has one, in label
    /// order.
    fn check_bridge_table(g: &Graph) {
        let Regions { label: regions, bridges } = g.regions();
        let component = g.component_labels();
        let core_component = regions.iter().position(|&r| r == 0).map(|v| component[v]);
        let mut table = Vec::new();
        for label in 1..=regions.iter().max().copied().unwrap_or(0) {
            let touching: Vec<Bridge> = (g.edges().iter().zip(0..))
                .filter_map(|(e, id)| {
                    let (ra, rb) = (regions[e.a.index()], regions[e.b.index()]);
                    let edge = EdgeId(id);
                    match (ra, rb) {
                        (0, r) if r == label => Some(Bridge { core: e.a, end: e.b, edge }),
                        (r, 0) if r == label => Some(Bridge { core: e.b, end: e.a, edge }),
                        _ => None,
                    }
                })
                .collect();
            let member = regions.iter().position(|&r| r == label).unwrap();
            let attached = Some(component[member]) == core_component;
            assert_eq!(touching.len(), usize::from(attached), "region {label}");
            table.extend(touching);
        }
        assert_eq!(&bridges[..], &table[..]);
    }

    /// The labels on paths, trees, cycles joined by bridges (two of equal
    /// size, in either id order), multigraphs, transit-stub graphs — at
    /// 2,048 nodes too, where its 43-node stub domains outnumber the 16
    /// routers — and disconnected graphs.
    #[test]
    fn regions_label_the_core_and_the_regions_hanging_off_it() {
        let path = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            &*path.regions().label,
            [1, 0, 2, 2],
            "removing 1 or 2 leaves two vertices together: the tie goes to 1"
        );
        // Two triangles and a bridge: the tie goes to the one holding 0.
        let tied = from_edges(6, &[(1, 2), (2, 3), (3, 1), (4, 5), (5, 0), (0, 4), (3, 4)]);
        assert_eq!(&*tied.regions().label, [0, 1, 1, 1, 0, 0]);
        // A parallel pair is a cycle; a self-loop is not.
        let multi = from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 2), (2, 3)]);
        assert_eq!(&*multi.regions().label, [0, 0, 1, 1]);
        // A square with a tail whose far end grows a triangle of its own.
        let tail = from_edges(
            9,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
        );
        assert_eq!(&*tail.regions().label, [0, 0, 0, 0, 1, 1, 1, 1, 2]);
        let star_tree = from_edges(7, &[(3, 0), (3, 1), (3, 2), (0, 4), (4, 5), (1, 6)]);
        assert_eq!(&*star_tree.regions().label, [1, 2, 3, 0, 1, 1, 2], "the tree's centroid is 3");
        let mut graphs = vec![path, tied, multi, tail, star_tree, Graph::new(0), Graph::new(3)];
        graphs.push(from_edges(7, &[(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]));
        for (nodes, seed) in [(200, 1), (200, 7), (200, 2005), (2048, 2005)] {
            let t = generate(&TransitStubConfig::with_total_nodes(nodes), seed);
            let Regions { label, bridges } = t.graph.regions();
            let core: Vec<u32> = t.transit_nodes().iter().map(|v| label[v.index()]).collect();
            assert!(core.iter().all(|&r| r == 0), "the backbone is the core");
            assert_eq!(label.iter().filter(|&&r| r == 0).count(), core.len());
            let regions = label.iter().max().copied().unwrap_or(0) as usize;
            assert_eq!(bridges.len(), regions, "every stub domain hangs off the core");
            if nodes > 200 {
                // 43-node stub domains against 16 routers: the largest class
                // would be a stub domain. Too large for the brute force.
                check_bridge_table(&t.graph);
            } else {
                graphs.push(t.graph);
            }
        }
        // Random forests and sparse multigraphs, a vertex or two isolated.
        let mut rng = crate::rng::rng_from_seed(46);
        for _ in 0..40 {
            let n = rng.gen_range(1..24u32);
            let mut g = Graph::new(n as usize + 1);
            for v in 1..n {
                if rng.gen_range(0..4) > 0 {
                    g.add_edge(NodeId(v), NodeId(rng.gen_range(0..v)), 1.0);
                }
            }
            for _ in 0..rng.gen_range(0..n / 2 + 1) {
                g.add_edge(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)), 1.0);
            }
            graphs.push(g);
        }
        for g in &graphs {
            check_regions(g);
        }
    }

    /// A 100,000-vertex path, past the brute force's reach: the search runs
    /// 100,000 frames deep, and its subtree weights put the core on the
    /// lower of the two middle vertices.
    #[test]
    fn regions_of_a_long_path_split_it_at_its_centroid() {
        let edges: Vec<(u32, u32)> = (1..100_000).map(|v| (v - 1, v)).collect();
        let path = from_edges(100_000, &edges);
        let Regions { label, bridges } = path.regions();
        let expected = |v: usize| match v {
            ..49_999 => 1,
            49_999 => 0,
            _ => 2,
        };
        assert!(label.iter().enumerate().all(|(v, &r)| r == expected(v)));
        let bridge =
            |end, edge| Bridge { core: NodeId(49_999), end: NodeId(end), edge: EdgeId(edge) };
        assert_eq!(&bridges[..], [bridge(49_998, 49_998), bridge(50_000, 49_999)]);
    }

    /// Labels are derived once, kept by a weight change and dropped with
    /// the CSR by `add_edge` / `add_node`.
    #[test]
    fn regions_are_dropped_with_the_csr() {
        let mut g = from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(&*g.regions().label, [0, 0, 0, 1]);
        g.set_edge_latency(EdgeId(3), 7.0);
        assert!(g.regions.get().is_some(), "a weight change keeps them");
        g.add_edge(NodeId(3), NodeId(0), 1.0);
        assert!(g.regions.get().is_none());
        assert_eq!(&*g.regions().label, [0, 0, 0, 0]);
        g.add_node();
        assert!(g.regions.get().is_none());
        assert_eq!(&*g.regions().label, [0, 0, 0, 0, 1]);
    }

    /// Writers round to the grid: an off-grid weight is stored at its
    /// nearest grid point, halfway up for a tie, and what is on it already
    /// (zero, whole and binary fractions down to 2⁻²⁰) is stored as given.
    #[test]
    fn writers_round_weights_to_the_grid() {
        let step = LATENCY_GRID_MS;
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 0.1);
        let w = g.edge(e).latency_ms;
        assert_eq!(w, (0.1 / step).round() * step);
        assert_eq!(w / step, (w / step).round(), "on the grid");
        assert!((w - 0.1).abs() <= step / 2.0);
        let mut before = w;
        for on in [0.0, 3.5, 12.0, 7.0 * step, 1e12] {
            assert_eq!(g.set_edge_latency(e, on + step / 8.0).to_bits(), before.to_bits());
            assert_eq!(g.edge(e).latency_ms, on, "{on} + 2^-23 rounds back to {on}");
            assert_eq!(on_grid(on + step / 2.0), on + step, "a tie rounds away from zero");
            before = on;
        }
        assert_eq!(on_grid(f64::MAX), f64::MAX, "whole numbers stay as they are");
    }

    /// A weight that `n − 1` copies of take to 2³³ ms panics where the CSR
    /// is built, naming the edge, the value and `n`; one grid step less
    /// passes.
    #[test]
    #[should_panic(
        expected = "edge 1 latency 4294967296 ms times n - 1 = 3 - 1 reaches 2^33 ms: path sums would not be exact"
    )]
    fn a_weight_past_exact_path_sums_panics_where_the_csr_is_built() {
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.set_edge_latency(e, 2f64.powi(32) - LATENCY_GRID_MS);
        g.add_edge(NodeId(1), NodeId(2), 2f64.powi(32));
        g.neighbors(NodeId(0)).count();
    }

    /// On a built CSR, `set_edge_latency` checks the bound before it
    /// writes anything.
    #[test]
    fn a_weight_past_exact_path_sums_panics_on_a_built_csr() {
        let mut g = Graph::new(5);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.neighbors(NodeId(0)).count();
        g.set_edge_latency(e, 2f64.powi(31) - LATENCY_GRID_MS);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.set_edge_latency(e, 2f64.powi(31));
        }));
        let message = *caught.expect_err("past the bound").downcast::<String>().unwrap();
        assert!(
            message.starts_with("edge 0 latency 2147483648 ms times n - 1 = 5 - 1"),
            "{message}"
        );
        assert_eq!(g.edge(e).latency_ms, 2f64.powi(31) - LATENCY_GRID_MS);
        assert_eq!(g.neighbors(NodeId(1)).next().map(|(.., w)| w), Some(g.edge(e).latency_ms));
    }

    /// The representation the CSR replaced, as its reference: per-vertex
    /// lists pushed to by `add_edge`, weights read from their own table —
    /// rounded to the grid, as the graph's writers round them.
    struct PushBuilt {
        adjacency: Vec<Vec<(NodeId, EdgeId)>>,
        weights: Vec<f64>,
    }

    impl PushBuilt {
        fn add_edge(&mut self, a: NodeId, b: NodeId, w: f64) {
            let id = EdgeId(self.weights.len() as u32);
            self.weights.push(on_grid(w));
            self.adjacency[a.index()].push((b, id));
            self.adjacency[b.index()].push((a, id));
        }

        fn neighbors(&self, v: usize) -> Vec<(NodeId, EdgeId, u64)> {
            self.adjacency[v]
                .iter()
                .map(|&(u, e)| (u, e, self.weights[e.index()].to_bits()))
                .collect()
        }
    }

    fn same_neighbors(g: &Graph, reference: &PushBuilt) -> Result<(), TestCaseError> {
        prop_assert_eq!(g.num_nodes(), reference.adjacency.len());
        for v in 0..g.num_nodes() {
            let csr: Vec<_> =
                g.neighbors(NodeId(v as u32)).map(|(u, e, w)| (u, e, w.to_bits())).collect();
            prop_assert_eq!((v, csr), (v, reference.neighbors(v)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random multigraphs — self-loops, parallel edges, isolated
        /// vertices — grown and re-weighted with searches interleaved, so
        /// nodes and edges arrive after a search and weights change both
        /// before and after the CSR exists: every `neighbors(v)` (ids, edge
        /// ids, weight bits) equals the push-built lists'.
        #[test]
        fn csr_neighbors_equal_the_push_built_lists(
            n in 0usize..5,
            ops in vec((0u8..6, 0u32..1000, 0u32..1000, 0.0f64..50.0), 0..48),
        ) {
            let mut g = Graph::new(n);
            let mut reference = PushBuilt { adjacency: vec![Vec::new(); n], weights: Vec::new() };
            for (op, x, y, w) in ops {
                let (n, m) = (g.num_nodes() as u32, g.num_edges() as u32);
                match op {
                    0 => {
                        g.add_node();
                        reference.adjacency.push(Vec::new());
                    }
                    // An edge between two vertices, or a self-loop.
                    1 | 2 if n > 0 => {
                        let (a, b) = (NodeId(x % n), NodeId(if op == 1 { y % n } else { x % n }));
                        g.add_edge(a, b, w);
                        reference.add_edge(a, b, w);
                    }
                    // A parallel copy of an existing edge, reversed.
                    3 if m > 0 => {
                        let Edge { a, b, .. } = g.edge(EdgeId(x % m));
                        g.add_edge(b, a, w);
                        reference.add_edge(b, a, w);
                    }
                    4 if m > 0 => {
                        g.set_edge_latency(EdgeId(x % m), w);
                        reference.weights[(x % m) as usize] = on_grid(w);
                    }
                    5 => same_neighbors(&g, &reference)?,
                    _ => {}
                }
            }
            same_neighbors(&g, &reference)?;
        }
    }
}
