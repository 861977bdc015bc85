//! The latency store: every shortest-path distance of a mutable topology
//! graph, composed from one shared table instead of per-source rows.
//!
//! [`crate::dijkstra::all_pairs_latency`] materializes the full `n × n`
//! matrix: `O(n²)` memory. That is fine at the paper's 600-node scale but
//! caps the runs the cost-space argument is about. [`LazyLatency`] keeps
//! the topology graph and a store that grows with `n`, not `n²`.
//!
//! # The store
//!
//! The graph's pendant regions ([`crate::graph`]) split it into a core and
//! regions that each touch the core through one bridge, or not at all. On
//! a transit-stub underlay the core is the backbone and each stub domain a
//! region. The **anchor** of a vertex in region `S` is the core end `c_S`
//! of `S`'s bridge; a core vertex is its own anchor. The store holds:
//!
//! * **T**, one shared `n`-array: each vertex's distance from its anchor
//!   inside `S ∪ {c_S}` — `0` in the core, `INFINITY` in a region no
//!   bridge reaches — and each vertex's anchor (4 B a node);
//! * **D**, the `|core| × |core|` matrix of core distances;
//! * **own-region rows**: for a source in a region, its distances to that
//!   region's members, stored compactly (at most 195 values at 100k nodes).
//!   One is computed on first use and dropped when a delta batch touches
//!   its region.
//!
//! A read between `a` and `b` in different regions, or with an end in the
//! core, is `T[a] + D[anchor(a)][anchor(b)] + T[b]`. When both lie in one
//! region it is `a`'s own-region row (`0` for `a == b`). This is
//! transit-node routing (Bast, Funke, Matijevic, Sanders & Schultes, *In
//! Transit to Constant Time Shortest-Path Queries in Road Networks*, ALENEX
//! 2007), the bridge ends being the transit nodes.
//!
//! **Exactness.** Every weight is on the graph's grid, and every simple
//! path sums below 2³³ ms ([`crate::graph`]), so every sum along a simple
//! path is exact, whatever order its terms are added in: a value is the
//! shortest distance itself, not one rounding of it. A simple path leaves
//! a region only through its bridge, and never enters a third region (it
//! would have to leave by the bridge it came in on). So a simple path
//! between different regions runs from `a` to `c_S` inside `S ∪ {c_S}`,
//! from `c_S` to `c_{S'}` inside the core, and from `c_{S'}` to `b` inside
//! `S' ∪ {c_{S'}}`; with an end in the core, that part is empty. The
//! shortest such path is the sum of the three shortest parts, which is
//! the composition, bit for bit. A simple path between two vertices of one
//! region never leaves it (it would leave and come back by its one
//! bridge), so a search scoped to the region — the own-region row — finds
//! the distance. A region with no bridge lies in another component than
//! the core: its `T` is `INFINITY`, so a read between it and anything
//! outside it is `INFINITY`.
//!
//! **Building** takes one search per bridged region, seeded at the
//! region's end of its bridge with the bridge's weight (`T[c_S] = 0`), and
//! one search per core vertex, scoped to the core, for D. A region's
//! search never leaves it: its one arc out is the bridge back, which
//! cannot improve `c_S`'s `0`. On a graph without bridges the core is the
//! whole graph and D is `n²`: no caller runs the store on a large
//! bridgeless graph (the suite's underlays are all transit-stub).
//!
//! [`crate::dijkstra::single_source`] and
//! [`crate::dijkstra::all_pairs_latency`] compose their rows from a store
//! built for the call.
//!
//! # One repair per delta batch
//!
//! Edge mutations go through [`LazyLatency::apply_edge_deltas`] (or the
//! single-edge [`LazyLatency::set_edge_latency`] / the jitter step
//! [`LazyLatency::scale_edges_clamped`], which both end in it). Weights
//! must stay finite and non-negative — a hostile value panics before
//! anything is mutated — and each is rounded to the graph's weight grid
//! ([`crate::graph`]) before anything compares it with the weight it
//! replaces, so a write that rounds to the edge's current weight changes
//! nothing. Duplicate edges in a batch collapse to their final value.
//!
//! The batch's net deltas are grouped by the region each edge lies in (a
//! bridge belongs to its region; an edge with both ends in the core to the
//! core). The own-region rows of every touched region are dropped. Each
//! touched bridged region has its part of T repaired in two phases,
//! rooted at `c_S`:
//!
//! * **Raises** (`w_now > w_start`) can only *increase* distances. The
//!   vertices a raise can affect are exactly those reachable from a raised
//!   edge's far endpoint by a chain of *old-tight* edges
//!   (`d[x] + w_start(e) = d[y]`, every sum being exact) — a cheap BFS over
//!   old labels marks that set. The marked labels are reset and recomputed
//!   by a Dijkstra restricted to the set — [`crate::dijkstra`]'s one
//!   relaxation loop (`settle`), with the set as its scope — seeded with
//!   the best boundary relaxation of each marked vertex (unmarked labels
//!   are provably unchanged and act as fixed sources). The graph already
//!   holds the whole batch, so this phase reads the region's changed edges
//!   at their start weight (the BFS) or at the larger of the two (the
//!   Dijkstra): the graph with the raises applied and the lowers pending.
//!   If the marked set reaches a quarter of the region, the region's part
//!   of T is rebuilt outright on the current graph, which is final (the
//!   lower phase is skipped).
//! * **Lowers** (`w_now < w_start`) can only *decrease* distances. Each
//!   lowered edge seeds at most two heap entries (`d[a] + w_now < d[b]`
//!   and symmetrically) and the same `settle` loop, unscoped, over current
//!   weights, pushes the shortcut outward.
//!
//! Neither phase needs a scope to stay inside `S ∪ {c_S}`: a region's only
//! edge out is its bridge, the BFS never expands the root, and the root's
//! `0` never improves. If any core edge changed, D is recomputed. The
//! window is the batch itself, so nothing is ever stale: after every batch
//! T and D equal a fresh build bit for bit, and every read is exact.
//!
//! # Traffic
//!
//! Measured on the four suite underlays (seed 2005, release build, a
//! 2-core host), 30 batches of 100 uniform edge draws each, with the
//! runtime's jitter factor range and band. "Rows" is the per-source design
//! this store replaced: 120 random resident rows, all read back after
//! every batch.
//!
//! | underlay | core / regions / largest | store (T + anchors + D) | build | 120 rows | their repair | store upkeep |
//! |---|---|---|---|---|---|---|
//! | `paper-600` | 16 / 48 / 13 | 9.7 KB | 0.07 ms | 1.2 ms | 64.2 ms | 0.90 ms |
//! | `storm-2k` | 16 / 48 / 43 | 27 KB | 0.22 ms | 8.6 ms | 53.0 ms | 0.82 ms |
//! | `routed-5k` | 64 / 512 / 9 | 89 KB | 0.62 ms | 9.2 ms | 157.1 ms | 7.42 ms |
//! | `planet-100k` | 64 / 512 / 195 | 1.23 MB | 27.6 ms | 1,127 ms | 33.6 ms | 1.79 ms |
//!
//! Batches touched 41–91 regions each; a core edge changed in 23, 7, 24
//! and 0 of the 30 batches, in row order. Recomputing each touched region
//! whole instead of repairing it cost 131 ms on `planet-100k`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BinaryHeap};

use crate::dijkstra::{settle, HeapEntry};
use crate::graph::{assert_exact_sums, on_grid, Bridge, EdgeId, Graph, NodeId, LATENCY_GRID_MS};
use crate::latency::LatencyProvider;

/// Counters describing how a [`LazyLatency`] has been exercised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyLatencyStats {
    /// Searches run from scratch: building the tables (one per bridged
    /// region and one per core vertex) and each own-region row.
    pub rows_computed: u64,
    /// Reads served: every [`LatencyProvider::latency`] call, and the
    /// values each [`LazyLatency::view`] was taken for.
    pub cache_hits: u64,
    /// Table-repair phases that changed at least one label of T: up to two
    /// (the raises, then the lowers) per region a delta batch touched.
    pub rows_repaired: u64,
    /// Labels of T those phases changed (a rebuild counts its region).
    pub vertices_settled: u64,
    /// Repairs past the rebuild threshold, which recomputed their region's
    /// part of T, plus recomputations of D (one per batch that changed a
    /// core edge).
    pub rows_rebuilt: u64,
    /// [`resident_bytes`](Self::resident_bytes) over `8 n` (one dense
    /// row), rounded up.
    pub rows_cached: usize,
    /// Bytes the store holds: T, the anchors, D and the region layout, the
    /// resident own-region rows and the search buffers (the graph not
    /// included).
    pub resident_bytes: usize,
}

/// Which vertices each label holds, and each region's bridge.
struct Layout {
    /// Every vertex, grouped by label (the core, label 0, first), in id
    /// order within a group.
    members: Box<[u32]>,
    /// `members[starts[l]..starts[l + 1]]` is label `l`'s group.
    starts: Box<[u32]>,
    /// Each label's bridge: `None` for the core and for a region in
    /// another component.
    bridges: Box<[Option<Bridge>]>,
}

impl Layout {
    fn group(&self, label: u32) -> &[u32] {
        let l = label as usize;
        &self.members[self.starts[l] as usize..self.starts[l + 1] as usize]
    }

    /// Where `v` sits in its group, whose label is `label`.
    fn position(&self, label: u32, v: NodeId) -> usize {
        self.group(label).binary_search(&v.0).expect("a member of its own group")
    }
}

/// The tables every read composes (module docs).
struct Tables {
    /// `t[v]`: `v`'s distance from its anchor.
    t: Box<[f64]>,
    /// `anchor[v]`: the position of `v`'s anchor in the core group.
    anchor: Box<[u32]>,
    /// `d[i * |core| + j]`: the distance between core members `i` and `j`.
    d: Box<[f64]>,
    layout: Layout,
}

impl Tables {
    /// The tables of `graph`, through `work`. Returns them and the
    /// searches run.
    fn build(graph: &Graph, work: &mut Work) -> (Tables, u64) {
        let label = &graph.regions().label;
        let n = graph.num_nodes();
        let labels = label.iter().max().map_or(1, |&l| l as usize + 1);
        let mut starts = vec![0u32; labels + 1];
        for &l in label.iter() {
            starts[l as usize + 1] += 1;
        }
        for l in 0..labels {
            starts[l + 1] += starts[l];
        }
        let mut members = vec![0; n];
        let mut next = starts.clone();
        for (v, &l) in (0..).zip(label.iter()) {
            members[next[l as usize] as usize] = v;
            next[l as usize] += 1;
        }
        let mut bridges = vec![None; labels];
        for bridge in graph.regions().bridges.iter() {
            bridges[label[bridge.end.index()] as usize] = Some(*bridge);
        }
        let layout =
            Layout { members: members.into(), starts: starts.into(), bridges: bridges.into() };
        let (mut t, mut anchor) = (vec![f64::INFINITY; n], vec![0; n]);
        for (i, &v) in (0..).zip(layout.group(0)) {
            (t[v as usize], anchor[v as usize]) = (0.0, i);
        }
        let mut searches = layout.group(0).len() as u64;
        for (l, bridge) in (0..).zip(layout.bridges.iter()) {
            if let Some(bridge) = *bridge {
                let at = anchor[bridge.core.index()];
                for &v in layout.group(l) {
                    anchor[v as usize] = at;
                }
                fill_region(graph, &mut t, layout.group(l), bridge, &mut work.heap);
                searches += 1;
            }
        }
        let mut tables = Tables { t: t.into(), anchor: anchor.into(), d: Box::default(), layout };
        tables.fill_core(graph, work);
        (tables, searches)
    }

    /// Recomputes D: one search per core vertex, scoped to the core (a
    /// simple path between two core vertices never enters a region).
    fn fill_core(&mut self, graph: &Graph, work: &mut Work) {
        let label = &graph.regions().label;
        let core = self.layout.group(0);
        let mut d = vec![0.0; core.len() * core.len()];
        for (row, &src) in d.chunks_mut(core.len().max(1)).zip(core) {
            scoped_row(graph, work, NodeId(src), core, |u| label[u.index()] == 0, row);
        }
        self.d = d.into();
    }

    /// `src`'s own-region row: its distances to its group's members, in
    /// member order, by one search scoped to the group.
    fn own_row(&self, graph: &Graph, work: &mut Work, src: NodeId) -> Box<[f64]> {
        let label = &graph.regions().label;
        let region = label[src.index()];
        let members = self.layout.group(region);
        let mut row = vec![0.0; members.len()].into_boxed_slice();
        scoped_row(graph, work, src, members, |u| label[u.index()] == region, &mut row);
        row
    }

    /// `T[a] + D[anchor(a)][anchor(b)] + T[b]`: the distance between `a`
    /// and `b` unless both lie in one region.
    #[inline]
    fn compose(&self, a: NodeId, b: NodeId) -> f64 {
        let k = self.layout.group(0).len();
        let (i, j) = (self.anchor[a.index()] as usize, self.anchor[b.index()] as usize);
        self.t[a.index()] + self.d[i * k + j] + self.t[b.index()]
    }

    fn bytes(&self) -> usize {
        let Layout { members, starts, bridges } = &self.layout;
        size_of_val(&*self.t)
            + size_of_val(&*self.anchor)
            + size_of_val(&*self.d)
            + size_of_val(&**members)
            + size_of_val(&**starts)
            + size_of_val(&**bridges)
    }
}

/// Overwrites T over a bridged region (`members`, `bridge`) with their
/// distances from the bridge's core end: the labels reset, the region's end
/// seeded across the bridge, then one search, which stays in the region
/// (module docs).
fn fill_region(
    graph: &Graph,
    t: &mut [f64],
    members: &[u32],
    bridge: Bridge,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    for &v in members {
        t[v as usize] = f64::INFINITY;
    }
    let seed = t[bridge.core.index()] + graph.edge(bridge.edge).latency_ms;
    t[bridge.end.index()] = seed;
    heap.push(HeapEntry::new(seed, bridge.end));
    settle(graph, t, heap, |_, _| false, |_, w| w, |_| true, |_, _, _, _| {});
}

/// Writes the distances from `src` to each of `members` into `out`, by one
/// search relaxing into `scope`, which must admit exactly `members`
/// (`src` among them). `work.dist` is all `INFINITY` before and after.
fn scoped_row(
    graph: &Graph,
    work: &mut Work,
    src: NodeId,
    members: &[u32],
    scope: impl Fn(NodeId) -> bool,
    out: &mut [f64],
) {
    let Work { dist, heap, .. } = work;
    if dist.len() < graph.num_nodes() {
        dist.resize(graph.num_nodes(), f64::INFINITY);
    }
    dist[src.index()] = 0.0;
    heap.push(HeapEntry::new(0.0, src));
    settle(graph, dist, heap, |_, _| false, |_, w| w, scope, |_, _, _, _| {});
    for (x, &v) in out.iter_mut().zip(members) {
        *x = std::mem::replace(&mut dist[v as usize], f64::INFINITY);
    }
}

/// Buffers reused across searches and repairs, so neither allocates once
/// they have grown.
#[derive(Default)]
struct Work {
    /// Bumped once per raise phase; validates `mark` entries.
    stamp: u64,
    /// `mark[v] == stamp` ⇔ `v` is in the current raise phase's marked set.
    mark: Vec<u64>,
    /// The marked set, in BFS discovery order.
    marked: Vec<u32>,
    /// Every search's heap; empty between them.
    heap: BinaryHeap<HeapEntry>,
    /// Labels of the scoped searches (D, own-region rows): `INFINITY`
    /// between them.
    dist: Vec<f64>,
}

impl Work {
    fn bytes(&self) -> usize {
        self.mark.capacity() * size_of::<u64>()
            + self.marked.capacity() * size_of::<u32>()
            + self.heap.capacity() * size_of::<HeapEntry>()
            + self.dist.capacity() * size_of::<f64>()
    }
}

/// What `&self` reads may write: own-region rows, the search buffers and
/// the work counters.
#[derive(Default)]
struct Cache {
    /// Own-region rows by source.
    own: BTreeMap<u32, Box<[f64]>>,
    work: Work,
    /// Every counter but `cache_hits` and the sizes.
    stats: LazyLatencyStats,
}

impl Cache {
    /// `src`'s own-region row, computed if it is not resident.
    fn own_row(&mut self, graph: &Graph, tables: &Tables, src: NodeId) -> &[f64] {
        let Cache { own, work, stats } = self;
        own.entry(src.0).or_insert_with(|| {
            stats.rows_computed += 1;
            tables.own_row(graph, work, src)
        })
    }
}

/// One edge-weight change, resolved against the graph it applies to.
#[derive(Clone, Copy)]
struct EdgeDelta {
    id: EdgeId,
    a: NodeId,
    b: NodeId,
    w_old: f64,
    w_new: f64,
}

/// The delta of edge `id` in `net`, added — weighing what `graph` holds now
/// before and after — unless an earlier call already did. The one dedup of
/// an edge batch.
fn open<'a>(net: &'a mut BTreeMap<u32, EdgeDelta>, graph: &Graph, id: EdgeId) -> &'a mut EdgeDelta {
    net.entry(id.0).or_insert_with(|| {
        let edge = graph.edge(id);
        EdgeDelta { id, a: edge.a, b: edge.b, w_old: edge.latency_ms, w_new: edge.latency_ms }
    })
}

/// Shortest-path latency over a mutable topology graph, read from the
/// store the [module docs](self) describe.
///
/// ```
/// use sbon_netsim::graph::{Graph, NodeId};
/// use sbon_netsim::latency::LatencyProvider;
/// use sbon_netsim::lazy::LazyLatency;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 2.0);
/// let e = g.add_edge(NodeId(1), NodeId(2), 3.0);
/// let mut lat = LazyLatency::new(g);
/// assert_eq!(lat.latency(NodeId(0), NodeId(2)), 5.0);
/// lat.set_edge_latency(e, 1.0); // the batch repairs the store...
/// assert_eq!(lat.latency(NodeId(0), NodeId(2)), 3.0); // ...so every read is current
/// ```
pub struct LazyLatency {
    graph: Graph,
    /// Construction-time latencies of the edges that have changed since,
    /// sorted by edge, each recorded by the first batch that changed it:
    /// the reference for jitter bands (an edge missing here still holds
    /// its base). 16 B a changed edge where a dense copy would take 8 B an
    /// edge: a run jitters a few thousand of `planet-100k`'s 2M edges and
    /// about a third of `routed-5k`'s.
    base_edges: Vec<(EdgeId, f64)>,
    tables: Tables,
    cache: RefCell<Cache>,
    /// Reads served.
    hits: Cell<u64>,
}

impl LazyLatency {
    /// Wraps a topology graph and builds its store.
    pub fn new(graph: Graph) -> Self {
        let mut cache = Cache::default();
        let (tables, searches) = Tables::build(&graph, &mut cache.work);
        cache.stats.rows_computed = searches;
        LazyLatency {
            graph,
            base_edges: Vec::new(),
            tables,
            cache: RefCell::new(cache),
            hits: Cell::new(0),
        }
    }

    /// The underlying (possibly mutated) topology graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The latency an edge had at construction time.
    pub fn base_edge_latency(&self, id: EdgeId) -> f64 {
        base_weight(&self.base_edges, &self.graph, id)
    }

    /// Overwrites the latency of edge `id` with `latency_ms` rounded to the
    /// grid, repairing the store. Returns the previous latency. No-op if
    /// the rounded value is unchanged; panics if it is not finite and
    /// non-negative.
    pub fn set_edge_latency(&mut self, id: EdgeId, latency_ms: f64) -> f64 {
        let old = self.graph.edge(id).latency_ms;
        if latency_ms != old {
            self.apply_edge_deltas(&[(id, latency_ms)]);
        }
        old
    }

    /// The jitter step: multiplies each drawn edge by its factor, rounds
    /// the result to the grid and clamps it to the grid points inside
    /// `band` × the edge's *base* latency — from the first at or above
    /// `base × band.0` to the last at or below `base × band.1` (that last
    /// one alone if the band holds none) — giving mean-reverting
    /// edge-granular jitter. Repeated draws of an edge compose in order
    /// (the second factor applies to the first's clamped result), and the
    /// net weights land as **one**
    /// [`apply_edge_deltas`](Self::apply_edge_deltas) batch. Returns the
    /// number of distinct edges drawn. Panics if a result is not finite and
    /// non-negative (e.g. a NaN factor) — before anything is mutated.
    pub fn scale_edges_clamped(&mut self, draws: &[(EdgeId, f64)], band: (f64, f64)) -> usize {
        let graph = &self.graph;
        let grid = |ms: f64, to: fn(f64) -> f64| to(ms / LATENCY_GRID_MS) * LATENCY_GRID_MS;
        let mut net = BTreeMap::new();
        for &(id, factor) in draws {
            let base = base_weight(&self.base_edges, graph, id);
            let hi = grid(base * band.1, f64::floor);
            let lo = grid(base * band.0, f64::ceil).min(hi);
            let delta = open(&mut net, graph, id);
            delta.w_new = on_grid(delta.w_new * factor).clamp(lo, hi);
        }
        let net: Vec<(EdgeId, f64)> = net.values().map(|d| (d.id, d.w_new)).collect();
        self.apply_edge_deltas(&net);
        net.len()
    }

    /// Applies a batch of edge-weight deltas `(edge, new_latency_ms)` to
    /// the graph, each rounded to the grid first, as the graph stores it,
    /// and repairs the store once for the whole batch ([module
    /// docs](self)). Duplicate edges collapse to their final value (no
    /// read can observe an intermediate weight). Values served afterwards
    /// are bit-identical to shortest paths on the mutated graph.
    ///
    /// # Panics
    ///
    /// If any new latency is NaN, infinite or negative, or past the range
    /// of exact path sums ([`crate::graph`]) — before the graph or the
    /// store is touched.
    pub fn apply_edge_deltas(&mut self, deltas: &[(EdgeId, f64)]) {
        let mut net = BTreeMap::new();
        for &(id, w) in deltas {
            assert!(
                w.is_finite() && w >= 0.0,
                "edge {id:?} latency must be finite and non-negative, got {w}"
            );
            let w = on_grid(w);
            assert_exact_sums(self.graph.num_nodes(), id.0, w);
            open(&mut net, &self.graph, id).w_new = w;
        }
        let mut net: Vec<EdgeDelta> = net.into_values().filter(|d| d.w_new != d.w_old).collect();
        if net.is_empty() {
            return;
        }
        // Grow exactly: at 16 B an entry, a doubled capacity could cost more
        // than 8 B an edge.
        let known = self.base_edges.len();
        self.base_edges.reserve_exact(net.len());
        for d in &net {
            self.graph.set_edge_latency(d.id, d.w_new);
            if self.base_edges[..known].binary_search_by_key(&d.id.0, |&(id, _)| id.0).is_err() {
                self.base_edges.push((d.id, d.w_old)); // its first change
            }
        }
        if self.base_edges.len() > known {
            self.base_edges.sort_unstable_by_key(|&(id, _)| id.0);
        }
        self.repair(&mut net);
    }

    /// Brings the store up to the batch `net` (net deltas in edge order),
    /// which the graph already holds: region by region, then D.
    fn repair(&mut self, net: &mut [EdgeDelta]) {
        let LazyLatency { graph, tables, cache, .. } = self;
        let Cache { own, work, stats } = cache.get_mut();
        let label = &graph.regions().label;
        let region = |d: &EdgeDelta| label[d.a.index()].max(label[d.b.index()]);
        // Stable: each region's deltas stay in edge order.
        net.sort_by_key(region);
        own.retain(|&src, _| net.binary_search_by_key(&label[src as usize], region).is_err());
        let Tables { t, layout, .. } = &mut *tables;
        let mut core_changed = false;
        for group in net.chunk_by(|x, y| region(x) == region(y)) {
            let l = region(&group[0]);
            core_changed |= l == 0;
            let Some(bridge) = layout.bridges[l as usize] else { continue };
            let members = layout.group(l);
            let (raised, rebuilt) = repair_increase(graph, t, bridge, members, group, work);
            let lowered =
                if rebuilt { 0 } else { repair_decrease(graph, t, group, &mut work.heap) };
            stats.rows_rebuilt += u64::from(rebuilt);
            stats.rows_repaired += u64::from(raised > 0) + u64::from(lowered > 0);
            stats.vertices_settled += (raised + lowered) as u64;
        }
        if core_changed {
            tables.fill_core(graph, work);
            stats.rows_rebuilt += 1;
        }
    }

    /// Makes the own-region rows of `sources` resident (a source in the
    /// core needs none; duplicates are ignored). Returns the number of rows
    /// computed. The `pool` is not used: an own-region row is one search
    /// of at most one region.
    pub fn ensure_rows(&self, sources: &[NodeId], _pool: Option<&rayon::ThreadPool>) -> u64 {
        let label = &self.graph.regions().label;
        let cache = &mut *self.cache.borrow_mut();
        let before = cache.stats.rows_computed;
        for &src in sources.iter().filter(|s| label[s.index()] != 0) {
            cache.own_row(&self.graph, &self.tables, src);
        }
        cache.stats.rows_computed - before
    }

    /// The latencies out of `sources`, for reading in place from any number
    /// of threads: `view.latency(i, v)` is what
    /// [`LatencyProvider::latency`] serves for `(sources[i], v)`. Makes the
    /// sources' own-region rows resident, and counts `reads` cache hits:
    /// the values the caller will read, each counted as if `latency` had
    /// served it.
    pub fn view(&self, sources: &[NodeId], reads: u64) -> SourceView<'_> {
        self.ensure_rows(sources, None);
        self.hits.set(self.hits.get() + reads);
        let cache = self.cache.borrow();
        let own = |src: NodeId| cache.own.get(&src.0).cloned().unwrap_or_default();
        SourceView::new(&self.graph, &self.tables, sources, own)
    }

    /// Usage counters so far.
    pub fn stats(&self) -> LazyLatencyStats {
        let cache = self.cache.borrow();
        let own =
            cache.own.values().map(|row| size_of::<(u32, Box<[f64]>)>() + size_of_val(&**row));
        let resident_bytes = self.tables.bytes() + cache.work.bytes() + own.sum::<usize>();
        LazyLatencyStats {
            cache_hits: self.hits.get(),
            rows_cached: resident_bytes.div_ceil(8 * self.graph.num_nodes().max(1)),
            resident_bytes,
            ..cache.stats
        }
    }
}

/// The construction-time latency of edge `id`: its recorded base if it has
/// changed, else the weight `graph` still holds.
fn base_weight(base_edges: &[(EdgeId, f64)], graph: &Graph, id: EdgeId) -> f64 {
    match base_edges.binary_search_by_key(&id.0, |&(e, _)| e.0) {
        Ok(at) => base_edges[at].1,
        Err(_) => graph.edge(id).latency_ms,
    }
}

/// Phase 1 of a region's repair: the net raises of `group`, the batch's
/// deltas in that region (edge order). `t` holds labels exact for the
/// graph before the batch; `graph` already holds all of it. Returns
/// `(labels recomputed, fell back to a rebuild)`; without a rebuild the
/// region is left exact for the intermediate graph (raises applied, lowers
/// pending).
///
/// Only vertices reachable from a raised edge's far endpoint through a
/// chain of old-tight edges can change (any vertex whose distance grows
/// loses *every* old shortest path, and one such path witnesses the
/// tight chain), so the BFS-marked set is a superset of the changed
/// set and everything outside it keeps its label.
fn repair_increase(
    graph: &Graph,
    t: &mut [f64],
    bridge: Bridge,
    members: &[u32],
    group: &[EdgeDelta],
    work: &mut Work,
) -> (usize, bool) {
    let Work { stamp, mark, marked, heap, .. } = work;
    if mark.len() < graph.num_nodes() {
        mark.resize(graph.num_nodes(), 0);
    }
    *stamp += 1;
    let stamp = *stamp;
    marked.clear();
    let root = bridge.core;
    // Weight of edge `e` (now `w_now`) before the batch, and on the
    // intermediate graph: lowered edges still at their start weight.
    let w_start = |e: EdgeId, w_now: f64| {
        group.binary_search_by_key(&e.0, |d| d.id.0).map_or(w_now, |at| group[at].w_old)
    };
    let w_mid = |e: EdgeId, w_now: f64| w_start(e, w_now).max(w_now);

    // Seed: far endpoints of raised edges that were old-tight. The root
    // itself never moves (its label is 0).
    for d in group.iter().filter(|d| d.w_new > d.w_old) {
        let (da, db) = (t[d.a.index()], t[d.b.index()]);
        if d.b != root && mark[d.b.index()] != stamp && da + d.w_old <= db {
            mark[d.b.index()] = stamp;
            marked.push(d.b.0);
        }
        if d.a != root && mark[d.a.index()] != stamp && db + d.w_old <= da {
            mark[d.a.index()] = stamp;
            marked.push(d.a.0);
        }
    }
    if marked.is_empty() {
        return (0, false);
    }

    // Propagate through old-tight edges (old labels, start weights). Past a
    // quarter of the region, a restricted Dijkstra stops paying for its
    // bookkeeping; the set only grows, so the region is rebuilt outright
    // as soon as it gets there.
    let mut qi = 0;
    loop {
        if marked.len() * 4 >= members.len() {
            fill_region(graph, t, members, bridge, heap);
            return (members.len(), true);
        }
        let Some(&x) = marked.get(qi) else { break };
        let x = NodeId(x);
        qi += 1;
        let dx = t[x.index()];
        for (y, e, w_now) in graph.neighbors(x) {
            if y == root || mark[y.index()] == stamp {
                continue;
            }
            if dx + w_start(e, w_now) <= t[y.index()] {
                mark[y.index()] = stamp;
                marked.push(y.0);
            }
        }
    }

    // Recompute the marked set: unmarked labels are fixed and correct, so
    // each marked vertex restarts from its best boundary relaxation and
    // the heap settles the set's interior in distance order.
    for &x in marked.iter() {
        t[x as usize] = f64::INFINITY;
    }
    for &x in marked.iter() {
        let x = NodeId(x);
        let mut best = f64::INFINITY;
        for (y, e, w_now) in graph.neighbors(x) {
            if mark[y.index()] != stamp {
                let cand = t[y.index()] + w_mid(e, w_now);
                if cand < best {
                    best = cand;
                }
            }
        }
        if best < f64::INFINITY {
            t[x.index()] = best;
            heap.push(HeapEntry::new(best, x));
        }
    }
    let in_marked = |u: NodeId| mark[u.index()] == stamp;
    settle(graph, t, heap, |_, _| false, w_mid, in_marked, |_, _, _, _| {});
    (marked.len(), false)
}

/// Phase 2 of a region's repair: the net lowers of `group`. `graph` holds
/// the final weights; `t` holds exact labels for the intermediate graph.
/// Each lowered edge seeds at most two improvements and a standard
/// improvement-propagation Dijkstra pushes them outward. Returns the
/// number of labels improved.
fn repair_decrease(
    graph: &Graph,
    t: &mut [f64],
    group: &[EdgeDelta],
    heap: &mut BinaryHeap<HeapEntry>,
) -> usize {
    for d in group.iter().filter(|d| d.w_new < d.w_old) {
        let nd = t[d.a.index()] + d.w_new;
        if nd < t[d.b.index()] {
            t[d.b.index()] = nd;
            heap.push(HeapEntry::new(nd, d.b));
        }
        let nd = t[d.b.index()] + d.w_new;
        if nd < t[d.a.index()] {
            t[d.a.index()] = nd;
            heap.push(HeapEntry::new(nd, d.a));
        }
    }
    settle(graph, t, heap, |_, _| false, |_, w| w, |_| true, |_, _, _, _| {})
}

/// The latencies out of a few sources over one store, from
/// [`LazyLatency::view`]: plain tables, so any number of threads may read
/// them. For source `i`, `base` holds `T[s] + D[anchor(s)][c]` for every
/// core member `c`, so a read is `base[anchor(v)] + T[v]`, or the
/// source's own-region row when `v` shares its region.
pub struct SourceView<'a> {
    tables: &'a Tables,
    label: &'a [u32],
    /// `base[i * |core| + c]`.
    base: Vec<f64>,
    /// Each source's label and own-region row (empty in the core).
    own: Vec<(u32, Box<[f64]>)>,
}

impl<'a> SourceView<'a> {
    fn new(
        graph: &'a Graph,
        tables: &'a Tables,
        sources: &[NodeId],
        mut own: impl FnMut(NodeId) -> Box<[f64]>,
    ) -> Self {
        let label = &graph.regions().label;
        let core = tables.layout.group(0).len();
        let mut base = Vec::with_capacity(sources.len() * core);
        for &src in sources {
            let at = tables.anchor[src.index()] as usize;
            let d = &tables.d[at * core..][..core];
            base.extend(d.iter().map(|&d| tables.t[src.index()] + d));
        }
        let own = sources.iter().map(|&src| (label[src.index()], own(src))).collect();
        SourceView { tables, label, base, own }
    }

    /// The latency between source `i` and `v`, bit-identical to
    /// [`LatencyProvider::latency`].
    #[inline]
    pub fn latency(&self, i: usize, v: NodeId) -> f64 {
        let (region, row) = &self.own[i];
        if *region != 0 && *region == self.label[v.index()] {
            return row[self.tables.layout.position(*region, v)];
        }
        let Tables { t, anchor, layout, .. } = self.tables;
        let core = layout.group(0).len();
        self.base[i * core + anchor[v.index()] as usize] + t[v.index()]
    }
}

/// Every row of `sources` over `graph`, composed from a store built for the
/// call: `rows[i][v]` is the distance between `sources[i]` and `v`
/// (`INFINITY` where unreachable).
pub(crate) fn composed_rows(graph: &Graph, sources: &[NodeId]) -> Vec<Vec<f64>> {
    let mut work = Work::default();
    let (tables, _) = Tables::build(graph, &mut work);
    let label = &graph.regions().label;
    let own = |src: NodeId| match label[src.index()] {
        0 => Box::default(),
        _ => tables.own_row(graph, &mut work, src),
    };
    let view = SourceView::new(graph, &tables, sources, own);
    (0..sources.len()).map(|i| graph.nodes().map(|v| view.latency(i, v)).collect()).collect()
}

impl LatencyProvider for LazyLatency {
    fn len(&self) -> usize {
        self.graph.num_nodes()
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        self.hits.set(self.hits.get() + 1);
        let label = &self.graph.regions().label;
        let region = label[a.index()];
        if region == 0 || region != label[b.index()] {
            return self.tables.compose(a, b);
        }
        if a == b {
            return 0.0;
        }
        let at = self.tables.layout.position(region, b);
        self.cache.borrow_mut().own_row(&self.graph, &self.tables, a)[at]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dijkstra::tests::flat_row;
    use crate::rng::rng_from_seed;
    use crate::topology::simple::grid;
    use crate::topology::transit_stub::{generate, TransitStubConfig};
    use crate::topology::waxman::{self, WaxmanConfig};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use std::sync::atomic::Ordering;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|d| d.to_bits()).collect()
    }

    /// Whether the store's tables equal a fresh build on its current graph
    /// bit for bit, with its search buffers clean; `None` if so, else what
    /// differs.
    fn stale_part(lazy: &LazyLatency) -> Option<&'static str> {
        let (fresh, _) = Tables::build(lazy.graph(), &mut Work::default());
        let cache = lazy.cache.borrow();
        if bits(&lazy.tables.t) != bits(&fresh.t) {
            Some("T")
        } else if lazy.tables.anchor != fresh.anchor {
            Some("anchors")
        } else if bits(&lazy.tables.d) != bits(&fresh.d) {
            Some("D")
        } else if cache.work.dist.iter().any(|d| *d != f64::INFINITY) || !cache.work.heap.is_empty()
        {
            Some("search buffers")
        } else {
            None
        }
    }

    /// Every read equals the flat reference row on the current graph, bit
    /// for bit, and the tables a fresh build.
    fn assert_matches_dense(lazy: &LazyLatency) {
        assert_eq!(stale_part(lazy), None);
        let n = lazy.len() as u32;
        for a in (0..n).map(NodeId) {
            let (row, _) = flat_row(lazy.graph(), a);
            for b in (0..n).map(NodeId) {
                assert_eq!(lazy.latency(a, b).to_bits(), row[b.index()].to_bits(), "{a}->{b}");
            }
        }
    }

    /// The vertices of the largest region of `lazy`'s graph (not the core).
    fn largest_region(lazy: &LazyLatency) -> Vec<NodeId> {
        let layout = &lazy.tables.layout;
        let labels = layout.starts.len() as u32 - 1;
        let region = (1..labels).max_by_key(|&l| (layout.group(l).len(), u32::MAX - l));
        region.map_or(Vec::new(), |l| layout.group(l).iter().map(|&v| NodeId(v)).collect())
    }

    #[test]
    fn matches_dense_on_fresh_topology() {
        let t = generate(&TransitStubConfig::with_total_nodes(80), 11);
        let lazy = LazyLatency::new(t.graph);
        assert_matches_dense(&lazy);
    }

    /// Random churn through the repair path: the tables stay equal to a
    /// fresh build and every read to the flat reference on the mutated
    /// graph.
    #[test]
    fn matches_dense_after_random_edge_churn() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 3);
        let mut lazy = LazyLatency::new(t.graph);
        let mut rng = rng_from_seed(3);
        let m = lazy.graph().num_edges();
        for round in 0..6 {
            for _ in 0..10 {
                let a = NodeId(rng.gen_range(0..lazy.len() as u32));
                let b = NodeId(rng.gen_range(0..lazy.len() as u32));
                lazy.latency(a, b);
            }
            for _ in 0..8 {
                let e = EdgeId(rng.gen_range(0..m as u32));
                let f = rng.gen_range(0.5..2.0);
                lazy.scale_edges_clamped(&[(e, f)], (0.25, 4.0));
            }
            assert_matches_dense(&lazy);
            assert!(lazy.stats().rows_computed > 0, "round {round}");
        }
    }

    /// A batched delta set must leave the store identical to applying the
    /// same deltas one by one (and both identical to dense), including a
    /// duplicate edge whose intermediate value must not be observable.
    #[test]
    fn batched_deltas_match_sequential_application() {
        let t = generate(&TransitStubConfig::with_total_nodes(50), 17);
        let mut batched = LazyLatency::new(t.graph.clone());
        let mut sequential = LazyLatency::new(t.graph);
        let n = batched.len();
        for src in [0u32, 7, 23, 41] {
            batched.latency(NodeId(src), NodeId(1));
            sequential.latency(NodeId(src), NodeId(1));
        }
        let deltas = [
            (EdgeId(3), 40.0),
            (EdgeId(10), 0.5),
            (EdgeId(3), 2.0), // duplicate: final value wins
            (EdgeId(21), 9.0),
        ];
        batched.apply_edge_deltas(&deltas);
        for &(e, w) in &deltas {
            sequential.set_edge_latency(e, w);
        }
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(batched.latency(a, b), sequential.latency(a, b), "{a}->{b}");
            }
        }
        assert_matches_dense(&batched);
    }

    /// Every read is a hit. A read between two vertices of one region
    /// computes the source's own-region row the first time, and no read
    /// computes anything else.
    #[test]
    fn repeat_queries_hit_the_cache() {
        let t = generate(&TransitStubConfig::with_total_nodes(120), 5);
        let lazy = LazyLatency::new(t.graph);
        let built = lazy.stats().rows_computed;
        let region = largest_region(&lazy);
        assert!(region.len() >= 3, "a stub domain of three");
        let core = NodeId(lazy.tables.layout.group(0)[0]);
        lazy.latency(region[0], region[1]);
        lazy.latency(region[0], region[2]);
        lazy.latency(region[0], core);
        lazy.latency(region[1], region[1]);
        let s = lazy.stats();
        assert_eq!(s.rows_computed, built + 1);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.rows_cached, s.resident_bytes.div_ceil(8 * lazy.len()));
    }

    #[test]
    fn irrelevant_edge_mutation_keeps_rows_untouched() {
        // Line 0 -1- 1 -1- 2, plus a far-away pair 3 -1- 4 in a component
        // of its own: changing the (3,4) edge cannot affect any table.
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let far = g.add_edge(NodeId(3), NodeId(4), 1.0);
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 2.0);
        let before = lazy.stats();
        lazy.set_edge_latency(far, 5.0);
        let s = lazy.stats();
        assert_eq!(
            (s.rows_repaired, s.vertices_settled, s.rows_rebuilt),
            (0, 0, 0),
            "an edge in another component touches no table"
        );
        assert_eq!(s, before);
        assert_eq!(lazy.latency(NodeId(3), NodeId(4)), 5.0);
        assert_matches_dense(&lazy);
    }

    /// A raise on a used edge repairs the table in place: no search from
    /// scratch, and only the labels past it move.
    #[test]
    fn raise_repairs_rows_in_place() {
        // An 8-cycle (the core) with an 8-vertex path hanging off vertex 7.
        let mut g = Graph::new(16);
        for v in 0..8u32 {
            g.add_edge(NodeId(v), NodeId((v + 1) % 8), 1.0);
        }
        let mut last = None;
        for v in 7..15u32 {
            last = Some(g.add_edge(NodeId(v), NodeId(v + 1), 1.0));
        }
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(3), NodeId(15)), 12.0);
        let before = lazy.stats();
        lazy.set_edge_latency(last.expect("the path's last edge"), 10.0);
        let s = lazy.stats();
        assert_eq!(s.rows_computed, before.rows_computed, "repair, not recompute");
        assert_eq!((s.rows_repaired, s.vertices_settled, s.rows_rebuilt), (1, 1, 0));
        assert_eq!(lazy.latency(NodeId(3), NodeId(15)), 21.0);
        assert_eq!(lazy.latency(NodeId(15), NodeId(3)), 21.0);
        assert_matches_dense(&lazy);
    }

    /// A lower that creates a shortcut propagates through the table.
    #[test]
    fn lower_propagates_shortcut() {
        // 0 -10- 1 -1- 2; lowering (0,1) to 1 must update d(0,2) too.
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 11.0);
        lazy.set_edge_latency(e, 1.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 1.0);
        assert!(lazy.stats().rows_repaired >= 1);
        assert_matches_dense(&lazy);
    }

    /// When the marked set covers a quarter of its region the repair falls
    /// back to rebuilding the region — and still matches dense.
    #[test]
    fn large_region_falls_back_to_rebuild() {
        // A line of 8: the core is vertex 3, and raising the first edge
        // marks one of the three vertices of {0, 1, 2}.
        let mut g = Graph::new(8);
        let first = g.add_edge(NodeId(0), NodeId(1), 1.0);
        for i in 1..7u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0);
        }
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(7));
        lazy.set_edge_latency(first, 5.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(7)), 11.0);
        let s = lazy.stats();
        assert_eq!((s.rows_rebuilt, s.vertices_settled), (1, 3), "the region is rebuilt");
        assert_matches_dense(&lazy);
    }

    /// One batch holding every sign pattern at once: an edge raised and
    /// then lowered below its start, one lowered and then raised above
    /// it, and one returned exactly to its start (which must drop out).
    #[test]
    fn mixed_sign_window_folds_to_the_net_delta() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 31);
        let mut lazy = LazyLatency::new(t.graph);
        let w = |lazy: &LazyLatency, e: u32| lazy.graph().edge(EdgeId(e)).latency_ms;
        let (w0, w1, w2) = (w(&lazy, 0), w(&lazy, 1), w(&lazy, 2));
        let built = lazy.stats().rows_computed;
        lazy.apply_edge_deltas(&[
            (EdgeId(0), w0 * 3.0),
            (EdgeId(1), w1 * 0.25),
            (EdgeId(2), w2 * 5.0),
            (EdgeId(0), w0 * 0.5),
            (EdgeId(1), w1 * 4.0),
            (EdgeId(2), w2),
        ]);
        assert_eq!(lazy.base_edges.len(), 2, "the edge back at its start is no change");
        assert_matches_dense(&lazy);
        assert_eq!(lazy.stats().rows_computed, built, "tables are repaired, never rebuilt whole");
    }

    /// The jitter contract, by work: on a 2k-node transit-stub, 32 batches
    /// each changing 0.1 % of the edges repair the tables in place,
    /// settling at most a fifth of the labels that rebuilding T outright
    /// after each batch would (n a batch), and every read stays exact.
    #[test]
    fn jitter_read_back_settles_a_fraction_of_recomputing() {
        const BATCHES: u64 = 32;
        let t = generate(&TransitStubConfig::with_total_nodes(2_000), 2_000);
        let base: Vec<f64> = t.graph.edges().iter().map(|e| e.latency_ms).collect();
        let mut lazy = LazyLatency::new(t.graph);
        let (n, m) = (lazy.len(), base.len());
        let built = lazy.stats();
        let mut rng = rng_from_seed(0x4e7a);
        for _ in 0..BATCHES {
            let deltas: Vec<(EdgeId, f64)> = (0..(m / 1_000).max(1))
                .map(|_| {
                    let e = rng.gen_range(0..m);
                    (EdgeId(e as u32), base[e] * rng.gen_range(0.7..1.45))
                })
                .collect();
            lazy.apply_edge_deltas(&deltas);
        }
        let s = lazy.stats();
        assert_eq!(s.rows_computed, built.rows_computed, "no table is built twice");
        assert!(s.rows_repaired > 0);
        let rebuild = BATCHES * n as u64;
        assert!(
            s.vertices_settled * 5 <= rebuild,
            "{} labels settled against {rebuild} to rebuild",
            s.vertices_settled
        );
        assert_eq!(stale_part(&lazy), None);
        for src in (0..64).map(|i| NodeId((i * n / 64) as u32)) {
            let (row, _) = flat_row(lazy.graph(), src);
            for (b, want) in row.iter().enumerate() {
                assert_eq!(lazy.latency(src, NodeId(b as u32)).to_bits(), want.to_bits());
            }
        }
    }

    /// Runs `mutate`, which must panic, on the line 0 -4- 1 -4- 2; checks
    /// that no weight, table or counter moved — a hostile value fails
    /// before anything is written — and re-raises the panic for
    /// `#[should_panic]` to match.
    fn rejected_leaving_all_untouched(mutate: impl FnOnce(&mut LazyLatency, [EdgeId; 2])) {
        let mut g = Graph::new(3);
        let edges = [g.add_edge(NodeId(0), NodeId(1), 4.0), g.add_edge(NodeId(1), NodeId(2), 4.0)];
        let mut lazy = LazyLatency::new(g);
        let before = lazy.stats();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mutate(&mut lazy, edges);
        }));
        for e in edges {
            assert_eq!(lazy.graph().edge(e).latency_ms, 4.0);
        }
        assert_eq!(lazy.stats(), before);
        assert_eq!(stale_part(&lazy), None);
        std::panic::resume_unwind(caught.expect_err("a hostile weight must panic"));
    }

    #[test]
    #[should_panic(expected = "EdgeId(0) latency must be finite and non-negative, got NaN")]
    fn nan_jitter_factor_is_rejected() {
        rejected_leaving_all_untouched(|lazy, [e0, e1]| {
            lazy.scale_edges_clamped(&[(e1, 2.0), (e0, f64::NAN)], (0.5, 3.0));
        });
    }

    /// A hostile weight anywhere in a batch panics before the graph or the
    /// tables have been touched by the deltas ahead of it.
    #[test]
    #[should_panic(expected = "EdgeId(1) latency must be finite and non-negative, got -1")]
    fn negative_weight_is_rejected() {
        rejected_leaving_all_untouched(|lazy, [e0, e1]| {
            lazy.apply_edge_deltas(&[(e0, 2.0), (e1, -1.0)]);
        });
    }

    /// So does a weight past the range of exact path sums: on three nodes,
    /// 2³² ms.
    #[test]
    #[should_panic(expected = "edge 1 latency 4294967296 ms times n - 1 = 3 - 1 reaches 2^33 ms")]
    fn weight_past_exact_sums_is_rejected() {
        rejected_leaving_all_untouched(|lazy, [e0, e1]| {
            lazy.apply_edge_deltas(&[(e0, 2.0), (e1, 2f64.powi(32))]);
        });
    }

    /// A write that rounds to the edge's current weight records nothing and
    /// repairs nothing.
    #[test]
    fn unchanged_weight_is_a_noop() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 4.0);
        let mut lazy = LazyLatency::new(g);
        let before = lazy.stats();
        lazy.set_edge_latency(e, 4.0);
        let off_grid = 4.0 + LATENCY_GRID_MS / 8.0;
        assert_eq!(lazy.set_edge_latency(e, off_grid), 4.0);
        lazy.apply_edge_deltas(&[(e, off_grid)]);
        // Last write wins: a batch that ends where it started is one too.
        lazy.apply_edge_deltas(&[(e, 9.0), (e, 4.0)]);
        lazy.apply_edge_deltas(&[(e, 9.0), (e, off_grid)]);
        assert_eq!(lazy.stats(), before, "nothing repaired");
        assert!(lazy.base_edges.is_empty(), "no base recorded");
        assert_eq!(lazy.graph().edge(e).latency_ms, 4.0);
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 4.0);
    }

    /// `ensure_rows` makes the own-region rows of its region sources
    /// resident, once each: core sources need none, and duplicates and
    /// resident rows are skipped.
    #[test]
    fn ensure_rows_dedups_and_counts() {
        let t = generate(&TransitStubConfig::with_total_nodes(120), 13);
        let lazy = LazyLatency::new(t.graph);
        let built = lazy.stats().rows_computed;
        let region = largest_region(&lazy);
        let core = NodeId(lazy.tables.layout.group(0)[0]);
        lazy.latency(region[0], region[1]); // region[0]'s row is resident
        let (a, b) = (region[1], region[2]);
        let computed = lazy.ensure_rows(&[region[0], a, core, b, a, region[0]], None);
        assert_eq!(computed, 2, "the core needs no row, region[0] has one and a repeats");
        assert_eq!(lazy.stats().rows_computed, built + 3);
        assert_eq!(lazy.ensure_rows(&[a, b], None), 0);
        assert_matches_dense(&lazy);
    }

    /// A view serves what `latency` does — for sources in the core, in a
    /// region and in a region no bridge reaches, toward every vertex —
    /// after a delta batch, counts exactly `reads` cache hits, and computes
    /// nothing but its sources' missing own-region rows.
    #[test]
    fn view_serves_what_latency_does_and_counts_the_reads() {
        let mut g = generate(&TransitStubConfig::with_total_nodes(120), 17).graph;
        let apart = [g.add_node(), g.add_node()];
        g.add_edge(apart[0], apart[1], 3.0);
        let mut lazy = LazyLatency::new(g);
        let batch: Vec<(EdgeId, f64)> = (0..12u32)
            .map(|e| (EdgeId(e * 7), lazy.graph().edge(EdgeId(e * 7)).latency_ms * 3.0))
            .collect();
        lazy.apply_edge_deltas(&batch);
        let region = largest_region(&lazy);
        let core = NodeId(lazy.tables.layout.group(0)[0]);
        let sources = [region[0], core, apart[0], region[1], region[0]];
        lazy.ensure_rows(&sources[..1], None);
        let before = lazy.stats();
        let view = lazy.view(&sources, 1234);
        let after = lazy.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1234);
        assert_eq!(after.rows_computed, before.rows_computed + 2, "apart[0] and region[1]");
        for (i, &src) in sources.iter().enumerate() {
            let (row, _) = flat_row(lazy.graph(), src);
            let served: Vec<f64> = lazy.graph().nodes().map(|v| view.latency(i, v)).collect();
            assert_eq!(bits(&served), bits(&row), "source {src}");
        }
    }

    /// `ensure_rows` with a pool of 2, 3 or 6 threads leaves the store,
    /// its counters and every served value identical to the serial call.
    #[test]
    fn ensure_rows_parallel_is_bit_identical_to_serial() {
        let t = generate(&TransitStubConfig::with_total_nodes(980), 21);
        let sources: Vec<NodeId> = (0..20u32).map(|v| NodeId(v * 47 % 980)).collect();
        let serial = LazyLatency::new(t.graph.clone());
        serial.ensure_rows(&sources, None);
        let (n, twice) = (serial.len() as u32, sources.iter().chain(sources.iter().rev()));
        let read = |lazy: &LazyLatency| {
            let reads = twice.clone().flat_map(|&a| (0..n).map(move |b| (a, NodeId(b))));
            reads.map(|(a, b)| lazy.latency(a, b).to_bits()).collect::<Vec<_>>()
        };
        let (before, want) = (serial.stats(), read(&serial));
        for threads in [2, 3, 6] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let parallel = LazyLatency::new(t.graph.clone());
            parallel.ensure_rows(&sources, Some(&pool));
            assert_eq!(before, parallel.stats(), "{threads} threads");
            assert!(read(&parallel) == want, "{threads} threads");
        }
    }

    /// Building the store derives the graph's adjacency and its regions
    /// exactly once each; reads, own-region rows (from a pool too) and
    /// repairs reuse them.
    #[test]
    fn rows_first_computed_on_a_pool_derive_the_adjacency_once() {
        // Copied edge by edge, so no generator check has searched it.
        let t = generate(&TransitStubConfig::with_total_nodes(120), 8);
        let mut graph = Graph::new(t.num_nodes());
        for e in t.graph.edges() {
            graph.add_edge(e.a, e.b, e.latency_ms);
        }
        let builds = |g: &Graph| {
            (g.csr_builds.load(Ordering::Relaxed), g.region_builds.load(Ordering::Relaxed))
        };
        assert_eq!(builds(&graph), (0, 0), "an unsearched graph holds no adjacency and no regions");
        let mut lazy = LazyLatency::new(graph);
        assert_eq!(builds(lazy.graph()), (1, 1));
        let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().expect("pool");
        let sources: Vec<NodeId> = (0..120u32).map(NodeId).collect();
        assert!(lazy.ensure_rows(&sources, Some(&pool)) > 0);
        lazy.scale_edges_clamped(&[(EdgeId(0), 2.0), (EdgeId(9), 0.5)], (0.25, 4.0));
        assert_matches_dense(&lazy);
        assert_eq!(builds(lazy.graph()), (1, 1));
    }

    #[test]
    fn unreachable_pairs_are_infinite() {
        let g = Graph::new(2);
        let lazy = LazyLatency::new(g);
        assert!(lazy.latency(NodeId(0), NodeId(1)).is_infinite());
        assert!(lazy.latency(NodeId(1), NodeId(0)).is_infinite());
        assert_eq!(lazy.latency(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(lazy.latency(NodeId(1), NodeId(1)), 0.0);
    }

    /// A graph from one of the families the read proptest covers: 0
    /// transit-stub; 1 an integer-weight grid (ties everywhere); 2 a random
    /// multigraph where a third of the edges weigh zero; 3 the same split
    /// into components plus isolated vertices (most pairs unreachable); 4
    /// pendant-heavy ([`pendant_graph`]).
    pub(crate) fn pair_test_graph(kind: u8, seed: u64) -> Graph {
        let mut rng = rng_from_seed(seed);
        let weight = |rng: &mut StdRng| {
            if rng.gen_range(0..3) == 0 {
                0.0
            } else {
                rng.gen_range(0.1..20.0)
            }
        };
        match kind {
            0 => generate(&TransitStubConfig::with_total_nodes(rng.gen_range(30..120)), seed).graph,
            1 => {
                let mut g = grid(rng.gen_range(1..9), rng.gen_range(2..9), 1.0).graph;
                for e in 0..g.num_edges() as u32 {
                    g.set_edge_latency(EdgeId(e), rng.gen_range(1..4) as f64);
                }
                g
            }
            4 => pendant_graph(&mut rng, weight),
            _ => {
                let n = rng.gen_range(2..60u32);
                let mut g = Graph::new(n as usize);
                // Family 3 keeps every edge inside one of `parts` id classes
                // and leaves the last vertex isolated.
                let parts = if kind == 3 { rng.gen_range(2..4u32) } else { 1 };
                let span = if kind == 3 { n - 1 } else { n };
                for _ in 0..rng.gen_range(0..3 * n) {
                    let a = rng.gen_range(0..span);
                    let b = rng.gen_range(0..span);
                    if a % parts == b % parts {
                        let w = weight(&mut rng);
                        g.add_edge(NodeId(a), NodeId(b), w);
                    }
                }
                g
            }
        }
    }

    /// Pendant-heavy graphs, where the regions do most of the work: one or
    /// two components, each a cycle — or two cycles of equal size joined by
    /// a bridge, so the core is decided by the tie-break — with cycles (a
    /// parallel pair and a lone vertex among them) and trees hanging off it
    /// by one edge, off its pendants too, so regions have bridges of their
    /// own; sometimes an isolated vertex. Every edge, bridges included,
    /// weighs zero a third of the time; ids are shuffled.
    fn pendant_graph(rng: &mut StdRng, weight: impl Fn(&mut StdRng) -> f64) -> Graph {
        // `len` new vertices, after the `n` so far, as a cycle or a tree;
        // returns the first.
        fn grow(
            edges: &mut Vec<(u32, u32)>,
            n: &mut u32,
            len: u32,
            tree: bool,
            rng: &mut StdRng,
        ) -> u32 {
            let first = *n;
            *n += len;
            for v in first + 1..*n {
                edges.push((if tree { rng.gen_range(first..v) } else { v - 1 }, v));
            }
            if !tree && len > 1 {
                edges.push((*n - 1, first)); // a parallel pair when `len` is 2
            }
            first
        }
        let (mut edges, mut n) = (Vec::new(), 0u32);
        for _ in 0..rng.gen_range(1..3) {
            let len = rng.gen_range(3..7);
            let first = grow(&mut edges, &mut n, len, false, rng);
            if rng.gen_bool(0.5) {
                let twin = grow(&mut edges, &mut n, len, false, rng);
                edges.push((rng.gen_range(first..twin), rng.gen_range(twin..n)));
            }
            for _ in 0..rng.gen_range(0..8) {
                let at = rng.gen_range(first..n);
                let (len, tree) = (rng.gen_range(1..5), rng.gen_bool(0.5));
                let root = grow(&mut edges, &mut n, len, tree, rng);
                edges.push((at, root));
            }
        }
        let mut ids: Vec<u32> = (0..n + u32::from(rng.gen_bool(0.3))).collect();
        ids.shuffle(rng);
        let mut g = Graph::new(ids.len());
        for (a, b) in edges {
            g.add_edge(NodeId(ids[a as usize]), NodeId(ids[b as usize]), weight(rng));
        }
        g
    }

    /// A random delta batch over `m` edges: 1 to 5 of them, a quarter
    /// weighing zero.
    fn random_batch(rng: &mut StdRng, m: u32) -> Vec<(EdgeId, f64)> {
        (0..rng.gen_range(1..6))
            .map(|_| {
                let zero = rng.gen_range(0..4) == 0;
                (EdgeId(rng.gen_range(0..m)), if zero { 0.0 } else { rng.gen_range(0.1..30.0) })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Reads are bit-identical to the flat reference row on the current
        /// graph — over the five graph families, through random
        /// `apply_edge_deltas` and `scale_edges_clamped` batches, along read
        /// sequences that mix fresh, reversed and repeated pairs, `a == b`
        /// and adjacent pairs, with own-region rows absent or resident. A
        /// read is one cache hit, and computes the sender's own-region row
        /// only when both ends are distinct vertices of one region and the
        /// row is not resident; nothing else.
        #[test]
        fn latency_pair_equals_the_single_source_row(
            kind in 0u8..5,
            seed in 0u64..1_000_000,
            steps in vec((0u8..9, 0u32..1_000_000, 0u32..1_000_000), 1..60),
        ) {
            let mut lazy = LazyLatency::new(pair_test_graph(kind, seed));
            let mut rng = rng_from_seed(seed ^ 0x9a1);
            let (n, m) = (lazy.len() as u32, lazy.graph().num_edges() as u32);
            let mut last = (NodeId(0), NodeId(0));
            for (op, x, y) in steps {
                match op {
                    1 if m > 0 => {
                        lazy.apply_edge_deltas(&random_batch(&mut rng, m));
                        continue;
                    }
                    2 if m > 0 => {
                        let draws: Vec<(EdgeId, f64)> = (0..rng.gen_range(1..6))
                            .map(|_| (EdgeId(rng.gen_range(0..m)), rng.gen_range(0.5..2.0)))
                            .collect();
                        lazy.scale_edges_clamped(&draws, (0.0, 3.0));
                        continue;
                    }
                    _ => {}
                }
                let (mut a, mut b) = (NodeId(x % n), NodeId(y % n));
                match op {
                    3 => b = a,
                    4 if m > 0 => {
                        let edge = lazy.graph().edge(EdgeId(x % m));
                        (a, b) = if y % 2 == 0 { (edge.a, edge.b) } else { (edge.b, edge.a) };
                    }
                    5 => (a, b) = (last.1, last.0),
                    6 => (a, b) = last,
                    _ => {}
                }
                last = (a, b);
                let label = &lazy.graph().regions().label;
                let own = a != b && label[a.index()] != 0 && label[a.index()] == label[b.index()];
                let missing = own && !lazy.cache.borrow().own.contains_key(&a.0);
                let before = lazy.stats();
                let got = lazy.latency(a, b);
                let want = flat_row(lazy.graph(), a).0[b.index()];
                prop_assert_eq!((a, b, got.to_bits()), (a, b, want.to_bits()));
                let after = lazy.stats();
                prop_assert_eq!(after.rows_computed, before.rows_computed + u64::from(missing));
                prop_assert_eq!(after.cache_hits, before.cache_hits + 1);
            }
            prop_assert_eq!(stale_part(&lazy), None);
        }
    }

    /// A graph of the grid property test's families, about a third of its
    /// edges re-weighted off the grid through `Graph::set_edge_latency`: 0
    /// pendant-heavy, 1 transit-stub, 2 Waxman, 3 a bridgeless grid, 4 a
    /// transit-stub graph beside a component of its own (a cycle with a
    /// tail), which no bridge joins to the core.
    fn off_grid_family(kind: u8, seed: u64, rng: &mut StdRng) -> Graph {
        let mut g = match kind {
            0 => pair_test_graph(4, seed),
            1 => generate(&TransitStubConfig::with_total_nodes(rng.gen_range(30..80)), seed).graph,
            2 => {
                let cfg = WaxmanConfig { nodes: rng.gen_range(10..50), ..WaxmanConfig::default() };
                waxman::generate(&cfg, seed).graph
            }
            3 => grid(rng.gen_range(2..8), rng.gen_range(2..8), 1.0).graph,
            _ => {
                let mut g = generate(&TransitStubConfig::with_total_nodes(30), seed).graph;
                let len = rng.gen_range(2..6u32);
                let first = g.num_nodes() as u32;
                (0..=len).for_each(|_| _ = g.add_node());
                for v in first..first + len {
                    let next = if v + 1 == first + len { first } else { v + 1 };
                    g.add_edge(NodeId(v), NodeId(next), rng.gen_range(0.5..9.0));
                }
                g.add_edge(NodeId(first), NodeId(first + len), rng.gen_range(0.5..9.0));
                g
            }
        };
        for e in 0..g.num_edges() as u32 {
            if rng.gen_range(0..3) == 0 {
                g.set_edge_latency(EdgeId(e), rng.gen_range(0.0..20.0));
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Grid weights make every read exact, so every read is the flat
        /// reference's value bit for bit, and `d(a, b)` is one number: on
        /// the five families of [`off_grid_family`], through batches of
        /// off-grid `apply_edge_deltas` over any edges, over core edges only
        /// and over bridges only, and jitter, every read (same-region ones
        /// included) and every value of a view over a few sources equals
        /// `flat_row`, whose rows agree from either end; and after every
        /// batch T and D equal a fresh build bit for bit.
        #[test]
        fn grid_weights_make_every_read_equal_the_flat_row(
            kind in 0u8..5,
            seed in 0u64..1_000_000,
            batches in 1usize..6,
        ) {
            let mut rng = rng_from_seed(seed ^ 0x51d);
            let mut lazy = LazyLatency::new(off_grid_family(kind, seed, &mut rng));
            let (n, m) = (lazy.len() as u32, lazy.graph().num_edges() as u32);
            let label = lazy.graph().regions().label.clone();
            let core: Vec<EdgeId> = (0..m)
                .map(EdgeId)
                .filter(|&e| {
                    let edge = lazy.graph().edge(e);
                    label[edge.a.index()] == 0 && label[edge.b.index()] == 0
                })
                .collect();
            let bridges: Vec<EdgeId> = lazy.graph().regions().bridges.iter().map(|b| b.edge).collect();
            for batch in 0..=batches {
                if batch > 0 && m > 0 {
                    let pool: Vec<EdgeId> = match rng.gen_range(0..3) {
                        0 if !core.is_empty() => core.clone(),
                        1 if !bridges.is_empty() => bridges.clone(),
                        _ => (0..m).map(EdgeId).collect(),
                    };
                    let deltas: Vec<(EdgeId, f64)> = (0..rng.gen_range(1..8))
                        .map(|_| (pool[rng.gen_range(0..pool.len())], rng.gen_range(0.0..30.0)))
                        .collect();
                    lazy.apply_edge_deltas(&deltas);
                    prop_assert_eq!(stale_part(&lazy), None);
                    let draws: Vec<(EdgeId, f64)> = (0..rng.gen_range(0..8))
                        .map(|_| (EdgeId(rng.gen_range(0..m)), rng.gen_range(0.3..3.3)))
                        .collect();
                    lazy.scale_edges_clamped(&draws, (0.3, 3.3));
                    prop_assert_eq!(stale_part(&lazy), None);
                }
                let flat: Vec<Vec<u64>> =
                    (0..n).map(|v| bits(&flat_row(lazy.graph(), NodeId(v)).0)).collect();
                for (a, row) in lazy.graph().nodes().zip(&flat) {
                    for (b, &want) in lazy.graph().nodes().zip(row) {
                        prop_assert_eq!((a, b, want), (a, b, flat[b.index()][a.index()]));
                        prop_assert_eq!((a, b, lazy.latency(a, b).to_bits()), (a, b, want));
                    }
                }
                let sources: Vec<NodeId> =
                    (0..rng.gen_range(1..5)).map(|_| NodeId(rng.gen_range(0..n))).collect();
                let view = lazy.view(&sources, 0);
                for (i, &src) in sources.iter().enumerate() {
                    let served: Vec<f64> = lazy.graph().nodes().map(|v| view.latency(i, v)).collect();
                    prop_assert_eq!((src, bits(&served)), (src, flat[src.index()].clone()));
                }
            }
        }
    }

    /// Reads where ties decide which path a search finds: jittered
    /// transit-stub graphs, and grids whose equal-length paths tie (weight
    /// 1, and 0.1 rounded to the grid). Every `(a, b)` read and its
    /// reverse equal the flat reference row bit for bit, from either end.
    #[test]
    fn reads_from_either_end_equal_the_row_on_ties() {
        let mut graphs: Vec<Graph> = vec![grid(9, 9, 1.0).graph, grid(9, 9, 0.1).graph];
        for seed in [3, 41, 97] {
            let mut lazy =
                LazyLatency::new(generate(&TransitStubConfig::with_total_nodes(90), seed).graph);
            let mut rng = rng_from_seed(seed);
            let m = lazy.graph().num_edges() as u32;
            let draws: Vec<(EdgeId, f64)> =
                (0..m).map(|e| (EdgeId(e), rng.gen_range(0.5..2.0))).collect();
            lazy.scale_edges_clamped(&draws, (0.25, 4.0));
            graphs.push(lazy.graph().clone());
        }
        for graph in graphs {
            let n = graph.num_nodes() as u32;
            let rows: Vec<Vec<f64>> = (0..n).map(|v| flat_row(&graph, NodeId(v)).0).collect();
            let lazy = LazyLatency::new(graph);
            for a in (0..n).map(NodeId) {
                for b in (0..n).map(NodeId) {
                    let want = rows[a.index()][b.index()].to_bits();
                    assert_eq!(lazy.latency(a, b).to_bits(), want, "{a}->{b}");
                    assert_eq!(lazy.latency(b, a).to_bits(), want, "{b}->{a}");
                    assert_eq!(rows[b.index()][a.index()].to_bits(), want);
                }
            }
        }
    }

    /// The search buffers are allocated by the build's first search, and
    /// every search — D's rows, an own-region row of a same-region read,
    /// one toward a region no bridge reaches — leaves them clean: every
    /// label back at `INFINITY` and the heap empty.
    #[test]
    fn pair_scratch_is_allocated_by_the_first_search_and_left_clean() {
        let mut g = generate(&TransitStubConfig::with_total_nodes(60), 7).graph;
        let apart = g.add_node();
        let lazy = LazyLatency::new(g);
        let clean = |lazy: &LazyLatency| {
            let work = &lazy.cache.borrow().work;
            work.dist.len() == lazy.len()
                && work.dist.iter().all(|d| *d == f64::INFINITY)
                && work.heap.is_empty()
        };
        assert!(clean(&lazy), "the build's searches left the buffers clean");
        let region = largest_region(&lazy);
        for pair in region.windows(2) {
            lazy.latency(pair[0], pair[1]);
        }
        assert!(lazy.stats().rows_computed > 0);
        assert_eq!(lazy.latency(region[0], apart), f64::INFINITY);
        assert_eq!(lazy.latency(apart, apart), 0.0);
        assert!(clean(&lazy));
    }

    /// An edge's base weight is recorded by its first change only: after
    /// an edge moved away and back, a batch that nets to nothing and
    /// several jitter batches, every edge's base is its construction-time
    /// latency, and the record holds exactly the edges that ever changed,
    /// sorted by edge.
    #[test]
    fn base_weights_are_the_construction_latencies() {
        let t = generate(&TransitStubConfig::with_total_nodes(80), 45);
        let built: Vec<f64> = t.graph.edges().iter().map(|e| e.latency_ms).collect();
        let m = built.len() as u32;
        let mut lazy = LazyLatency::new(t.graph);
        lazy.latency(NodeId(0), NodeId(1));
        let (back, net_zero) = (EdgeId(m - 1), EdgeId(0));
        lazy.set_edge_latency(back, built[back.index()] * 2.0);
        lazy.set_edge_latency(back, built[back.index()]);
        lazy.apply_edge_deltas(&[(net_zero, 9.0), (net_zero, built[0])]);
        assert_eq!(lazy.base_edges, vec![(back, built[back.index()])]);
        let mut changed = vec![back.0];
        let mut rng = rng_from_seed(45);
        for _ in 0..6 {
            let draws: Vec<(EdgeId, f64)> =
                (0..8).map(|_| (EdgeId(rng.gen_range(0..m)), rng.gen_range(0.5..2.0))).collect();
            lazy.scale_edges_clamped(&draws, (0.25, 4.0));
            let moved = |&e: &u32| lazy.graph().edge(EdgeId(e)).latency_ms != built[e as usize];
            changed.extend((0..m).filter(moved));
        }
        changed.sort_unstable();
        changed.dedup();
        let recorded: Vec<u32> = lazy.base_edges.iter().map(|(e, _)| e.0).collect();
        assert_eq!(recorded, changed);
        for e in 0..m {
            assert_eq!(lazy.base_edge_latency(EdgeId(e)).to_bits(), built[e as usize].to_bits());
        }
        assert_matches_dense(&lazy);
    }

    #[test]
    fn scale_edge_respects_band() {
        let mut graph = Graph::new(2);
        let e = graph.add_edge(NodeId(0), NodeId(1), 10.0);
        let mut lazy = LazyLatency::new(graph.clone());
        // Repeated inflation saturates at band.1 × base.
        for _ in 0..10 {
            lazy.scale_edges_clamped(&[(e, 2.0)], (0.5, 3.0));
        }
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 30.0);
        assert_eq!(lazy.base_edge_latency(e), 10.0);
        // And repeated deflation saturates at band.0 × base.
        for _ in 0..10 {
            lazy.scale_edges_clamped(&[(e, 0.5)], (0.5, 3.0));
        }
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 5.0);

        // Off-grid factors and band ends: every result is on the grid and
        // inside the band, its ends rounded inwards; a band holding no grid
        // point gives the one below it.
        let step = LATENCY_GRID_MS;
        let on_the_grid = |w: f64| w / step == (w / step).round();
        let mut rng = rng_from_seed(2089);
        for _ in 0..200 {
            let band = (rng.gen_range(0.3..1.0), rng.gen_range(1.0..3.3));
            lazy.scale_edges_clamped(&[(e, rng.gen_range(0.2..4.0))], band);
            let w = lazy.graph().edge(e).latency_ms;
            assert!(on_the_grid(w) && 10.0 * band.0 <= w && w <= 10.0 * band.1, "{w} {band:?}");
        }
        let sliver = (0.1 + step / 40.0, 0.1 + step / 20.0);
        lazy.scale_edges_clamped(&[(e, 0.5)], sliver);
        assert_eq!(lazy.graph().edge(e).latency_ms, 1.0, "the grid point below 1 + a quarter step");

        // Two draws of one edge in one call compose like two one-draw calls
        // (the first is clamped before the second applies: 10 → 30 → 27, not
        // 10 · 8 · 0.9 = 72 → 30), count as one edge, and land as one batch
        // — one repair — where the two calls are two.
        let (mut once, mut twice) = (LazyLatency::new(graph.clone()), LazyLatency::new(graph));
        assert_eq!(once.scale_edges_clamped(&[(e, 8.0), (e, 0.9)], (0.5, 3.0)), 1);
        twice.scale_edges_clamped(&[(e, 8.0)], (0.5, 3.0));
        twice.scale_edges_clamped(&[(e, 0.9)], (0.5, 3.0));
        let repairs = |lazy: &LazyLatency| lazy.stats().rows_repaired;
        assert_eq!((repairs(&once), repairs(&twice)), (1, 2));
        let composed = once.graph().edge(e).latency_ms;
        assert_eq!(composed.to_bits(), twice.graph().edge(e).latency_ms.to_bits());
        assert_eq!(once.latency(NodeId(0), NodeId(1)), 27.0);
    }
}
