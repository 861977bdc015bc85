//! Lazy, churn-aware shortest-path latency provider with dynamic row repair.
//!
//! [`crate::dijkstra::all_pairs_latency`] materializes the full `n × n`
//! matrix up front: `O(n²)` memory and `O(n·(m + n log n))` precompute.
//! That is fine at the paper's 600-node scale but caps the thousand-node
//! runs the cost-space argument is about — the baseline's *data structure*
//! becomes the bottleneck before the placement algorithm does.
//!
//! [`LazyLatency`] keeps the topology graph instead and computes
//! **per-source single-source-shortest-path rows on demand**, caching each
//! row the first time any latency out of that source is queried. A steady
//! simulation tick therefore touches only the rows the optimizer actually
//! reads (the hosts of deployed circuits), not all `n` of them.
//!
//! # Repair contract (demand-driven dynamic SSSP)
//!
//! Edge mutations go through [`LazyLatency::apply_edge_deltas`] (or the
//! single-edge [`LazyLatency::set_edge_latency`] / the jitter step
//! [`LazyLatency::scale_edges_clamped`], which both end in it). Weights
//! must stay finite and non-negative — the precondition of the
//! bit-identity argument below — and a hostile value panics before
//! anything is mutated.
//!
//! A weight change neither drops nor touches cached rows.
//! `apply_edge_deltas` mutates the graph,
//! advances a batch **epoch** and appends `(epoch, edge, weight before)`
//! to a **delta log** — `O(batch)`. Every resident row carries the epoch
//! it is exact for, and a row is brought up to date **when it is next
//! read**: the first [`LatencyProvider::latency`] or
//! [`LazyLatency::ensure_rows`] that touches a stale row folds the log
//! suffix the row missed into one net delta per edge (the *first* logged
//! weight is the one the row was computed under; the graph holds the
//! current one; an edge that returned exactly to its start drops out) and
//! patches the row in place once, however many batches it lagged, in two
//! phases. A row nobody reads again is never repaired, and a cache hit
//! pays one integer comparison while no resident row is stale (always,
//! on a graph nobody mutates) and a second one, against the row's own
//! epoch, otherwise.
//!
//! * **Raises** (`w_now > w_start`) can only *increase* distances. The
//!   vertices a raise can affect are exactly those reachable from a raised
//!   edge's far endpoint by a chain of *old-tight* edges
//!   (`d[x] + w_start(e) ≤ d[y] + ε`, with `ε = TIGHT_EPS_MS` (1e-9 ms) absorbing
//!   float ties) — a cheap BFS over old labels marks that region. The
//!   marked labels are reset and recomputed by a Dijkstra *restricted to
//!   the region* — [`crate::dijkstra`]'s one relaxation loop (`settle`),
//!   with the region as its scope — seeded with the best boundary
//!   relaxation of each marked vertex (unmarked labels are provably
//!   unchanged and act as fixed sources). The graph already holds *every*
//!   change of the window, so
//!   this phase reads edge weights through an edge-indexed overlay of the
//!   window's start weights: the BFS sees each changed edge at its start
//!   weight, the Dijkstra sees lowered edges at their start weight and
//!   everything else as it is now — i.e. the intermediate graph with the
//!   raises applied and the lowers still pending. If the region exceeds a
//!   quarter of the graph the row is rebuilt outright, in place, as
//!   [`single_source`] computes it on the current graph, which is final
//!   (the lower phase is skipped).
//! * **Lowers** (`w_now < w_start`) can only *decrease* distances. Each
//!   lowered edge seeds at most two heap entries
//!   (`d[a] + w_now < d[b]` and symmetrically) and a standard
//!   improvement-propagation Dijkstra — the same `settle` loop, unscoped,
//!   over current weights — pushes the shortcut outward.
//!
//! Cost: `O(batch)` per delta batch, and per (row, read-after-change)
//! `O(L + |A| log |A| + edges(A))`, where `L` is the length of the log
//! suffix folded and `A` the affected region of the *net* change — against
//! `O(n log n + m)` per row for dropping and recomputing it, and against
//! one repair per resident row *per batch* for an eager scheme. The test
//! `jitter_read_back_settles_a_fraction_of_recomputing` pins both by work
//! at 2k nodes. The two phases split one window so each phase's
//! precondition (monotone effect on distances) holds exactly.
//!
//! **The log is bounded by the graph's edge count, with no knob.** When an
//! append outgrows that, the rows that still need the oldest entries are
//! dropped (counted in `rows_invalidated`; folding that many deltas would
//! have escalated to a rebuild anyway, and a dropped row is rebuilt only
//! if it is read again), and the log is cut back to the oldest epoch a
//! surviving row needs. Rows inserted by a miss or by `ensure_rows` are
//! stamped with the current epoch.
//!
//! Repaired rows are **bit-identical** to recomputing with
//! [`single_source`] on the mutated graph, whatever the number of batches
//! one repair spans. This is not approximate: with non-negative weights,
//! float addition is monotone under rounding, so a row's value at `v`
//! equals the minimum over all paths of the fold-left float sum — a
//! function of the *current* graph alone, independent of the order any
//! correct algorithm relaxes edges in and of the weights the graph passed
//! through in between. Both the region recompute and the improvement
//! propagation compose exactly such fold-left sums, and the only history
//! they need is which labels may be wrong, which the net delta against
//! the row's own epoch determines. The property suite in
//! `tests/properties.rs` pins this equivalence across random topologies,
//! delta batches, read patterns (rows lagging by differing numbers of
//! batches), and cache capacities.
//!
//! # Point-to-point reads
//!
//! [`LazyLatency::pair_reader`] hands out a [`PairReader`], which answers
//! one `(a, b)` at a time without an SSSP row of its own. **Contract:**
//! every value it serves is bit-identical to `single_source(graph, a)[b]`
//! on the current graph — to what [`LatencyProvider::latency`] serves — and
//! no read computes, inserts or evicts a row. A read takes the first of
//! these cases that applies:
//!
//! 1. **`a`'s row is resident:** it is read exactly as `latency` reads it,
//!    repaired first if stale and counted in `cache_hits`. Otherwise
//!    `a == b` is `0.0`.
//! 2. **The reader already knows `(a, b)`** — it served the pair before, or
//!    derived it as the reverse of a bidirectional search: the memo answers
//!    (`pair_memo_hits`).
//! 3. **`b`'s row is resident and current:** one goal-directed search from
//!    `a` (`pairs_goal_directed`).
//! 4. **Otherwise:** one bidirectional search (`pairs_searched`). When `b`
//!    has no resident row it also yields `(b, a)`, and the memo keeps that
//!    value for the reply.
//!
//! The memo needs no epoch check and no size bound: the reader borrows the
//! provider, so while it lives nothing can reach `apply_edge_deltas` (which
//! takes `&mut self`) and every later read is on the graph each memoised
//! value was computed on; the memo dies with the reader. Rows may still
//! come and go through `&self` calls — case 1 serves whatever is resident,
//! with the same value. The search buffers are allocated on the first
//! search, reset through touched-lists and never shrunk.
//!
//! **Bidirectional search.** Both sides run `settle`: a forward heap grows
//! from `a` and a backward heap from `b`, the side with the smaller top
//! advancing, and every label improvement updates `μ = min(d_f[u] +
//! d_b[u])`. Phase 1 ends when `b` reaches the forward top (its label is
//! final: done), when a side exhausts its component with `μ` still
//! infinite (`b` is unreachable: `INFINITY`), or when the tops cross,
//! `top_f + top_b > μ + TIGHT_EPS_MS`. At that point a vertex `v` on any
//! path no longer than `μ` has `d(a, v) + d(v, b) ≤ μ < top_f + top_b − ε`,
//! so it lies below one of the two tops: one side has settled it. The
//! fold-left-optimal path is such a path (its real length is within float
//! rounding of the optimum, which is at most `μ`; ε absorbs the rounding,
//! as it does for the repair's tight edges). Phase 2 continues the
//! **forward** side alone until `b` reaches its top, relaxing only into
//! vertices the backward side labelled. Forward-settled vertices are final
//! and never improve, so that scope needs no second mark array. Every label
//! is the fold-left sum of a real path from `a`, and the optimal path's
//! prefix up to its last forward-settled vertex can be replaced by that
//! vertex's settled path, whose fold-left sum is no larger (adding a
//! non-negative weight is monotone under rounding), leaving the rest of the
//! path inside the scope. So `d_f[b]` is the minimum fold-left sum from
//! `a` — the row's value — and not `d_f[u] + w + d_b[v]`, whose additions
//! run in another order.
//!
//! The **reverse** `(b, a)` is the mirror image: the backward side alone,
//! relaxing only into vertices the forward side labelled, until `a`
//! reaches its top. By the same argument with the sides swapped, `d_b[a]`
//! is then the minimum fold-left sum from `b` — `single_source(graph,
//! b)[a]` bit for bit. The argument needs crossed tops, so when phase 1
//! ended with `b` on the forward top the backward side first continues,
//! unscoped, until they cross; and a backward label at or below its own
//! top is already final and needs no completion.
//!
//! **Goal-directed search.** With `b`'s row resident and current,
//! `h(v) = row_b[v]` — the shortest distance between `v` and `b`, the graph
//! being undirected — is an exact potential, and the read is one A* search
//! from `a` through the same `settle`, keyed `d[v] + h(v)`, stopped when
//! the top key exceeds `d[b] + TIGHT_EPS_MS`. The potential only orders the
//! heap: labels stay fold-left sums of real paths from `a`, so `d[b]` is
//! never below the row's value `D(b)`. Nor does the search stop above it.
//! Take the path `single_source` reached `b` along, whose every prefix sum
//! is the row's value `D(v)` at its end vertex. While `d[b] > D(b)`, the
//! first vertex of that path not yet expanded with label `D(v)` holds that
//! label (its predecessor was expanded with its own, and relaxed it), so
//! its entry is in the heap keyed `D(v) + h(v)`: the length of the path up
//! to `v` plus the shortest distance from `v` to `b`, which is at most the
//! path's length, within float rounding of `D(b) < d[b]`. ε absorbs the
//! rounding, so the top key is at most `d[b] + ε`. Rounding can let a
//! stale entry's key equal its vertex's improved one; the vertex then
//! settles twice and relaxes nothing new the second time. Only vertices
//! within ε of a shortest `a`–`b` path settle at all: on the routed
//! benchmark's topology a read settles about 7 against about 377 for a
//! bidirectional search.
//!
//! `row_b[a]` itself is never served for `(a, b)`: it is the minimum of the
//! fold-left sums from `b`, and summing a path's edges from the other end
//! can round differently in the last bits.
//!
//! # Memory bound
//!
//! [`LazyLatency::with_capacity`] caps the number of resident rows with
//! FIFO eviction, bounding memory at `O(capacity · n)` regardless of query
//! pattern; [`LazyLatency::evict_all`] drops the whole cache (useful after
//! a warm-up phase whose rows the steady state will never read again).
//! [`LazyLatency::ensure_rows`] makes a set of rows resident and current:
//! it repairs the stale ones and batch-computes the missing ones —
//! optionally sharded across a thread pool, with insertion order (and
//! therefore FIFO order, statistics, and every served value) independent
//! of the thread count. The delta log adds at most one entry per edge.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use rayon::prelude::*;

use crate::dijkstra::{
    fill_single_source, settle, single_source, HeapEntry, NoPotential, Potential,
};
use crate::graph::{EdgeId, Graph, NodeId};
use crate::latency::LatencyProvider;

/// Absolute slack (ms) used when testing whether an edge is tight on a
/// cached shortest-path row. Latencies are milliseconds-scale, so this is
/// far below any real tie yet far above accumulated float error.
const TIGHT_EPS_MS: f64 = 1e-9;

/// Counters describing how a [`LazyLatency`] has been exercised.
///
/// Repair work happens when a stale row is *read*, not when the delta
/// arrives, so `rows_repaired`,
/// `vertices_settled` and `rows_rebuilt` move inside
/// [`LatencyProvider::latency`] / [`LazyLatency::ensure_rows`] and stay
/// put across [`LazyLatency::apply_edge_deltas`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyLatencyStats {
    /// Dijkstra rows computed (cache misses and [`LazyLatency::ensure_rows`]).
    pub rows_computed: u64,
    /// Queries answered from a cached row (current, or repaired on the
    /// spot).
    pub cache_hits: u64,
    /// Rows dropped because edge mutations made them stale: rows so far
    /// behind that the bounded delta log had to let go of the entries they
    /// needed.
    pub rows_invalidated: u64,
    /// Rows dropped while still valid: capacity-bound evictions plus
    /// explicit [`LazyLatency::evict_all`] calls (e.g. the runtime's
    /// post-embedding warm-up flush).
    pub rows_evicted: u64,
    /// Repair phases that changed at least one distance: up to two (the
    /// raises, then the lowers) per read of a stale row, however many
    /// delta batches that read caught up on.
    pub rows_repaired: u64,
    /// Distance labels recomputed by dynamic repair, summed over repairs —
    /// the work the repair path actually did, all of it at read time.
    pub vertices_settled: u64,
    /// Repairs whose affected region exceeded the rebuild threshold and
    /// fell back to a full-row [`single_source`] recompute.
    pub rows_rebuilt: u64,
    /// Bidirectional searches run by a [`PairReader`]: its reads of a pair
    /// whose sender row was not resident, that it had not memoised, and
    /// whose receiver row was not resident and current.
    pub pairs_searched: u64,
    /// Goal-directed searches run by a [`PairReader`]: its reads of a pair
    /// whose sender row was not resident, that it had not memoised, and
    /// whose receiver row was resident and current.
    pub pairs_goal_directed: u64,
    /// [`PairReader`] reads its memo served: a pair it had read before, or
    /// the reverse of one of its bidirectional searches.
    pub pair_memo_hits: u64,
    /// Rows currently resident.
    pub rows_cached: usize,
}

/// One logged weight change: `edge` held `w_before` until batch `epoch`.
#[derive(Clone, Copy)]
struct LogEntry {
    epoch: u64,
    edge: EdgeId,
    w_before: f64,
}

struct RowCache {
    /// `rows[src]` — cached SSSP distances from `src`, if resident.
    rows: Vec<Option<Box<[f64]>>>,
    /// `epochs[src]` — the delta epoch a resident `rows[src]` is exact for.
    epochs: Vec<u64>,
    /// Number of non-empty delta batches logged so far: the epoch the
    /// graph is at. A resident row is exact iff its own epoch equals this.
    head: u64,
    /// Resident rows behind `head`. While it is zero — always, for a graph
    /// nobody mutates — a cache hit never looks at `epochs`.
    stale: usize,
    /// Insertion order of resident rows, for FIFO eviction.
    order: VecDeque<u32>,
    /// Weight changes some resident row may not have absorbed yet, in
    /// epoch order.
    log: VecDeque<LogEntry>,
    /// Boxed: only the (cold) repair path looks inside, and the provider
    /// stays small enough to sit inline next to a dense matrix.
    scratch: Box<RepairScratch>,
    /// The point-to-point searches' buffers, allocated by the first
    /// search: a provider that only serves rows never holds them.
    pair: Option<Box<PairScratch>>,
    /// The usage counters; `rows_cached` is filled in from `order` when
    /// [`LazyLatency::stats`] hands a copy out.
    stats: LazyLatencyStats,
}

impl RowCache {
    fn new(n: usize) -> Self {
        RowCache {
            rows: vec![None; n],
            epochs: vec![0; n],
            head: 0,
            stale: 0,
            order: VecDeque::new(),
            log: VecDeque::new(),
            scratch: Box::default(),
            pair: None,
            stats: LazyLatencyStats::default(),
        }
    }

    /// `row(a)[b]` when `a`'s row is resident — repaired first if it is
    /// stale — counted as a cache hit; `None` when it is not resident.
    /// `always`: left to the compiler, a provider hit (a join's landmark
    /// gather is millions of them) measured ≈ 4 ns slower than inline.
    #[inline(always)]
    fn read(&mut self, graph: &Graph, a: NodeId, b: NodeId) -> Option<f64> {
        let row = match self.rows[a.index()].as_deref() {
            Some(row) if self.is_current(a) => row,
            Some(_) => {
                self.sync_row(graph, a);
                self.rows[a.index()].as_deref().expect("sync keeps the row resident")
            }
            None => return None,
        };
        self.stats.cache_hits += 1;
        Some(row[b.index()])
    }

    /// Whether a resident row of `v` is exact for the current graph.
    #[inline(always)]
    fn is_current(&self, v: NodeId) -> bool {
        self.stale == 0 || self.epochs[v.index()] == self.head
    }

    /// Inserts a row freshly computed on the current graph, evicting FIFO
    /// victims to stay under `capacity`. The single insertion path keeps
    /// the `order` invariant (each resident source appears exactly once).
    fn insert(&mut self, src: NodeId, row: Box<[f64]>, capacity: Option<usize>) {
        self.stats.rows_computed += 1;
        if let Some(cap) = capacity {
            while self.order.len() >= cap {
                let victim = self.order.pop_front().expect("capacity >= 1") as usize;
                self.rows[victim] = None;
                self.stale -= usize::from(self.epochs[victim] != self.head);
                self.stats.rows_evicted += 1;
            }
        }
        self.rows[src.index()] = Some(row);
        self.epochs[src.index()] = self.head;
        self.order.push_back(src.0);
    }

    /// Keeps the delta log within `max_len` entries. If it has outgrown
    /// that, the rows needing the entries that must go are dropped, then
    /// everything no surviving row needs is cut.
    fn bound_log(&mut self, max_len: usize) {
        if self.log.len() <= max_len {
            return;
        }
        // A deduped batch never exceeds the edge count, so `cut` is always
        // behind the newest epoch.
        let cut = self.log[self.log.len() - max_len - 1].epoch;
        let (rows, epochs) = (&mut self.rows, &self.epochs);
        let mut oldest = u64::MAX;
        let before = self.order.len();
        self.order.retain(|&src| {
            let epoch = epochs[src as usize];
            if epoch < cut {
                rows[src as usize] = None;
                return false;
            }
            oldest = oldest.min(epoch);
            true
        });
        let dropped = before - self.order.len();
        self.stale -= dropped;
        self.stats.rows_invalidated += dropped as u64;
        let keep_from = self.log.partition_point(|entry| entry.epoch <= oldest);
        self.log.drain(..keep_from);
    }

    /// Brings the resident, stale row of `src` from its own epoch up to
    /// `head` (the epoch `graph` is at): folds the log suffix it missed
    /// into one net delta per edge and runs the two repair phases once.
    #[cold]
    fn sync_row(&mut self, graph: &Graph, src: NodeId) {
        let row = self.rows[src.index()].as_mut().expect("synced rows are resident");
        let epoch = &mut self.epochs[src.index()];
        let scratch = &mut self.scratch;
        scratch.begin(graph);
        // The first logged weight of an edge is the one the row was built
        // under; the graph holds where the window ended up.
        let missed = self.log.partition_point(|entry| entry.epoch <= *epoch);
        for entry in self.log.range(missed..) {
            scratch.window.open(graph, entry.edge, entry.w_before);
        }
        let (raised, rebuilt) = repair_increase(graph, row, src, scratch);
        // A rebuilt row was computed on the current graph: already final.
        let lowered = if rebuilt { 0 } else { repair_decrease(graph, row, scratch) };
        *epoch = self.head;
        self.stale -= 1;
        self.stats.rows_rebuilt += u64::from(rebuilt);
        self.stats.rows_repaired += u64::from(raised > 0) + u64::from(lowered > 0);
        self.stats.vertices_settled += (raised + lowered) as u64;
    }
}

/// Scratch buffers reused across repairs, so a repair — a rebuild included
/// — allocates nothing once they have grown.
#[derive(Default)]
struct RepairScratch {
    /// Bumped once per repair; validates `mark` entries.
    stamp: u64,
    /// `mark[v] == stamp` ⇔ `v` is in the current repair's affected region.
    mark: Vec<u64>,
    /// The marked region, in BFS discovery order.
    region: Vec<u32>,
    window: Window,
    /// Both phases' Dijkstra heap; empty between them.
    heap: BinaryHeap<HeapEntry>,
}

/// What one repair has to absorb: the net change of every edge logged
/// since the row's epoch, as a sparse set keyed by edge.
#[derive(Default)]
struct Window {
    /// One delta per touched edge, in first-logged order: `w_old` is the
    /// weight the row was built under, `w_new` the graph's current one
    /// (equal for an edge that came back to its start).
    deltas: Vec<EdgeDelta>,
    /// Edge-indexed position in `deltas`: edge `e` is in the window iff
    /// `deltas[slot[e]].id == e`, so stale slots never need resetting.
    slot: Vec<u32>,
}

impl Window {
    /// The weight edge `e` held when the window opened, if it is in it.
    #[inline]
    fn start_weight(&self, e: EdgeId) -> Option<f64> {
        self.deltas.get(self.slot[e.index()] as usize).filter(|d| d.id == e).map(|d| d.w_old)
    }

    /// Empties the window and sizes its slots for `graph`.
    fn reset(&mut self, graph: &Graph) {
        if self.slot.len() < graph.num_edges() {
            self.slot.resize(graph.num_edges(), 0);
        }
        self.deltas.clear();
    }

    /// The window's delta for edge `e`, added — as weighing `w_before` when
    /// the window opened and what `graph` holds now — unless an earlier
    /// call already did. This is the one dedup of an edge batch.
    fn open(&mut self, graph: &Graph, e: EdgeId, w_before: f64) -> &mut EdgeDelta {
        if self.start_weight(e).is_none() {
            let edge = graph.edge(e);
            self.slot[e.index()] = self.deltas.len() as u32;
            self.deltas.push(EdgeDelta {
                id: e,
                a: edge.a,
                b: edge.b,
                w_old: w_before,
                w_new: edge.latency_ms,
            });
        }
        &mut self.deltas[self.slot[e.index()] as usize]
    }
}

impl RepairScratch {
    fn begin(&mut self, graph: &Graph) {
        if self.mark.len() < graph.num_nodes() {
            self.mark.resize(graph.num_nodes(), 0);
        }
        self.stamp += 1;
        self.region.clear();
        self.window.reset(graph);
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

/// Demand-driven shortest-path latency over a mutable topology graph.
///
/// Implements [`LatencyProvider`]; see the [module docs](self) for the
/// caching and repair contract.
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
/// lat.set_edge_latency(e, 1.0); // logged; the cached row is untouched...
/// assert_eq!(lat.latency(NodeId(0), NodeId(2)), 3.0); // ...until read again
/// ```
pub struct LazyLatency {
    graph: Graph,
    /// Edge latencies at construction time — the reference for jitter bands.
    base_edges: Vec<f64>,
    capacity: Option<usize>,
    cache: RefCell<RowCache>,
}

impl LazyLatency {
    /// Wraps a topology graph with an unbounded row cache.
    pub fn new(graph: Graph) -> Self {
        Self::build(graph, None)
    }

    /// Wraps a topology graph keeping at most `capacity` rows resident
    /// (FIFO eviction). `capacity` is clamped to at least 1.
    pub fn with_capacity(graph: Graph, capacity: usize) -> Self {
        Self::build(graph, Some(capacity.max(1)))
    }

    fn build(graph: Graph, capacity: Option<usize>) -> Self {
        let n = graph.num_nodes();
        let base_edges = graph.edges().iter().map(|e| e.latency_ms).collect();
        LazyLatency { graph, base_edges, capacity, cache: RefCell::new(RowCache::new(n)) }
    }

    /// The underlying (possibly mutated) topology graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The latency an edge had at construction time.
    pub fn base_edge_latency(&self, id: EdgeId) -> f64 {
        self.base_edges[id.index()]
    }

    /// Overwrites the latency of edge `id`; affected cached rows are
    /// repaired when next read. Returns the previous latency. No-op if the
    /// value is unchanged; panics if it is not finite and non-negative.
    pub fn set_edge_latency(&mut self, id: EdgeId, latency_ms: f64) -> f64 {
        let old = self.graph.edge(id).latency_ms;
        if latency_ms != old {
            self.apply_edge_deltas(&[(id, latency_ms)]);
        }
        old
    }

    /// The jitter step: multiplies each drawn edge by its factor and clamps
    /// the result to `band` × the edge's *base* latency, giving
    /// mean-reverting edge-granular jitter. Repeated draws of an edge
    /// compose in order (the second factor applies to the first's clamped
    /// result), and the net weights land as **one**
    /// [`apply_edge_deltas`](Self::apply_edge_deltas) batch. Returns the
    /// number of distinct edges drawn. Panics if a result is not finite and
    /// non-negative (e.g. a NaN factor) — before anything is mutated.
    pub fn scale_edges_clamped(&mut self, draws: &[(EdgeId, f64)], band: (f64, f64)) -> usize {
        let window = &mut self.cache.get_mut().scratch.window;
        window.reset(&self.graph);
        for &(id, factor) in draws {
            let base = self.base_edges[id.index()];
            let delta = window.open(&self.graph, id, self.graph.edge(id).latency_ms);
            delta.w_new = (delta.w_new * factor).clamp(base * band.0, base * band.1);
        }
        let net: Vec<(EdgeId, f64)> = window.deltas.iter().map(|d| (d.id, d.w_new)).collect();
        self.apply_edge_deltas(&net);
        net.len()
    }

    /// Applies a batch of edge-weight deltas `(edge, new_latency_ms)` to
    /// the graph in `O(batch)`, touching no cached row.
    ///
    /// The batch is logged under a new epoch and each resident row absorbs
    /// it — together with every other batch
    /// it has missed — the next time it is read; a row that is never read
    /// again never pays. Duplicate edges collapse to their final value (no
    /// query can observe an intermediate weight), and a batch that changes
    /// nothing does not advance the epoch. Values served afterwards are
    /// bit-identical to fresh [`single_source`] rows on the mutated graph
    /// (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// If any new latency is NaN, infinite or negative — before the graph
    /// or the cache is touched.
    pub fn apply_edge_deltas(&mut self, deltas: &[(EdgeId, f64)]) {
        let cache = self.cache.get_mut();
        let window = &mut cache.scratch.window;
        window.reset(&self.graph);
        for &(id, w) in deltas {
            assert!(
                w.is_finite() && w >= 0.0,
                "edge {id:?} latency must be finite and non-negative, got {w}"
            );
            window.open(&self.graph, id, self.graph.edge(id).latency_ms).w_new = w;
        }
        let net = || window.deltas.iter().filter(|d| d.w_new != d.w_old);
        if net().next().is_none() {
            return;
        }
        cache.head += 1;
        cache.stale = cache.order.len();
        for d in net() {
            self.graph.set_edge_latency(d.id, d.w_new);
            cache.log.push_back(LogEntry { epoch: cache.head, edge: d.id, w_before: d.w_old });
        }
        cache.bound_log(self.graph.num_edges());
    }

    /// A reader of point-to-point latencies on the current graph: each
    /// value bit-identical to [`LatencyProvider::latency`], and no read
    /// computes, inserts or evicts a row (see the [module docs](self)).
    ///
    /// ```
    /// use sbon_netsim::graph::{Graph, NodeId};
    /// use sbon_netsim::lazy::LazyLatency;
    ///
    /// let mut g = Graph::new(3);
    /// g.add_edge(NodeId(0), NodeId(1), 2.0);
    /// g.add_edge(NodeId(1), NodeId(2), 3.0);
    /// let lat = LazyLatency::new(g);
    /// let pairs = lat.pair_reader();
    /// assert_eq!(pairs.latency(NodeId(0), NodeId(2)), 5.0); // one search...
    /// assert_eq!(pairs.latency(NodeId(2), NodeId(0)), 5.0); // ...and its reverse
    /// let stats = lat.stats();
    /// assert_eq!((stats.pairs_searched, stats.pair_memo_hits, stats.rows_computed), (1, 1, 0));
    /// ```
    pub fn pair_reader(&self) -> PairReader<'_> {
        PairReader { lazy: self, memo: RefCell::default() }
    }

    /// Makes the rows for `sources` resident **and current**: resident
    /// rows that have fallen behind the latest delta batch are repaired
    /// (serially), and the missing ones are batch-computed and inserted in
    /// first-occurrence order (duplicates ignored). Returns the number of
    /// rows computed.
    ///
    /// With a `pool`, the independent [`single_source`] computations are
    /// sharded across its threads; insertion happens afterwards on the
    /// calling thread in the same deterministic order, so the cache state,
    /// FIFO eviction sequence, statistics, and every subsequently served
    /// value are identical at any thread count.
    pub fn ensure_rows(&self, sources: &[NodeId], pool: Option<&rayon::ThreadPool>) -> u64 {
        let missing: Vec<NodeId> = {
            let mut cache = self.cache.borrow_mut();
            let mut seen = vec![false; self.graph.num_nodes()];
            sources
                .iter()
                .copied()
                .filter(|s| {
                    if std::mem::replace(&mut seen[s.index()], true) {
                        return false;
                    }
                    if cache.rows[s.index()].is_none() {
                        return true;
                    }
                    if cache.epochs[s.index()] != cache.head {
                        cache.sync_row(&self.graph, *s);
                    }
                    false
                })
                .collect()
        };
        if missing.is_empty() {
            return 0;
        }
        let graph = &self.graph;
        let compute = |s: &NodeId| single_source(graph, *s).into_boxed_slice();
        let rows: Vec<Box<[f64]>> = match pool {
            Some(pool) if missing.len() > 1 => {
                pool.install(|| missing.par_iter().map(compute).collect())
            }
            _ => missing.iter().map(compute).collect(),
        };
        let mut cache = self.cache.borrow_mut();
        for (&s, row) in missing.iter().zip(rows) {
            cache.insert(s, row, self.capacity);
        }
        missing.len() as u64
    }

    /// Drops every cached row. Counters other than `rows_cached` are kept.
    pub fn evict_all(&self) {
        let mut cache = self.cache.borrow_mut();
        let dropped = cache.order.len() as u64;
        cache.stats.rows_evicted += dropped;
        cache.order.clear();
        cache.stale = 0;
        for row in cache.rows.iter_mut() {
            *row = None;
        }
    }

    /// Usage counters so far.
    pub fn stats(&self) -> LazyLatencyStats {
        let cache = self.cache.borrow();
        LazyLatencyStats { rows_cached: cache.order.len(), ..cache.stats }
    }

    /// Resident rows that are behind the latest delta batch, i.e. whose
    /// next read will run a repair.
    pub fn rows_stale(&self) -> usize {
        self.cache.borrow().stale
    }
}

/// Phase 1 of row repair: the net raises of `scratch.window`. `row` holds
/// labels exact for the graph at the window's start; `graph` already holds
/// every change of the window. Returns `(labels recomputed, fell back to
/// full rebuild)`; without a rebuild the row is left exact for the
/// intermediate graph (raises applied, lowers pending).
///
/// Only vertices reachable from a raised edge's far endpoint through a
/// chain of old-tight edges can change (any vertex whose distance grows
/// loses *every* old shortest path, and one such path witnesses the
/// tight chain), so the BFS-marked region is a superset of the changed
/// set and everything outside it keeps its label.
fn repair_increase(
    graph: &Graph,
    row: &mut [f64],
    src: NodeId,
    scratch: &mut RepairScratch,
) -> (usize, bool) {
    let n = graph.num_nodes();
    let RepairScratch { stamp, mark, region, window, heap } = scratch;
    let stamp = *stamp;
    // Weight of edge `e` (now `w_now`) when the window opened, and on the
    // intermediate graph: lowered edges still at their start weight.
    let w_start = |e: EdgeId, w_now: f64| window.start_weight(e).unwrap_or(w_now);
    let w_mid = |e: EdgeId, w_now: f64| w_start(e, w_now).max(w_now);

    // Seed: far endpoints of raised edges that were old-tight. The source
    // itself never moves (d[src] = 0 by definition).
    for d in window.deltas.iter().filter(|d| d.w_new > d.w_old) {
        let (da, db) = (row[d.a.index()], row[d.b.index()]);
        if !da.is_finite() || !db.is_finite() {
            continue;
        }
        if d.b != src && mark[d.b.index()] != stamp && da + d.w_old <= db + TIGHT_EPS_MS {
            mark[d.b.index()] = stamp;
            region.push(d.b.0);
        }
        if d.a != src && mark[d.a.index()] != stamp && db + d.w_old <= da + TIGHT_EPS_MS {
            mark[d.a.index()] = stamp;
            region.push(d.a.0);
        }
    }
    if region.is_empty() {
        return (0, false);
    }

    // Propagate through old-tight edges (old labels, start weights).
    let mut qi = 0;
    while qi < region.len() {
        let x = NodeId(region[qi]);
        qi += 1;
        let dx = row[x.index()];
        for (y, e, w_now) in graph.neighbors(x) {
            if y == src || mark[y.index()] == stamp || !row[y.index()].is_finite() {
                continue;
            }
            if dx + w_start(e, w_now) <= row[y.index()] + TIGHT_EPS_MS {
                mark[y.index()] = stamp;
                region.push(y.0);
            }
        }
    }

    // Past a quarter of the graph, a restricted Dijkstra stops paying for
    // its bookkeeping; rebuild the row outright, in place.
    if region.len() * 4 >= n {
        fill_single_source(graph, src, row, heap);
        return (n, true);
    }

    // Recompute the region: unmarked labels are fixed and correct, so each
    // marked vertex restarts from its best boundary relaxation and the
    // heap settles the region's interior in distance order.
    for &x in region.iter() {
        row[x as usize] = f64::INFINITY;
    }
    for &x in region.iter() {
        let x = NodeId(x);
        let mut best = f64::INFINITY;
        for (y, e, w_now) in graph.neighbors(x) {
            if mark[y.index()] != stamp {
                let cand = row[y.index()] + w_mid(e, w_now);
                if cand < best {
                    best = cand;
                }
            }
        }
        if best < f64::INFINITY {
            row[x.index()] = best;
            heap.push(HeapEntry { key: best, node: x });
        }
    }
    // Outside the region every label is fixed.
    let in_region = |u: NodeId| mark[u.index()] == stamp;
    settle(graph, row, heap, NoPotential, |_, _| false, w_mid, in_region, |_, _, _, _| {});
    (region.len(), false)
}

/// Phase 2 of row repair: the net lowers of `scratch.window`. `graph` holds the
/// final weights; `row` holds exact labels for the pre-lower intermediate
/// graph. Each lowered edge seeds at most two improvements and a standard
/// improvement-propagation Dijkstra pushes them outward. Returns the
/// number of labels improved. (`d[src] = 0` can never improve, so the
/// source needs no special-casing.)
fn repair_decrease(graph: &Graph, row: &mut [f64], scratch: &mut RepairScratch) -> usize {
    let RepairScratch { window, heap, .. } = scratch;
    for d in window.deltas.iter().filter(|d| d.w_new < d.w_old) {
        // INF endpoints fall out naturally: INF + w < x is never true.
        let nd = row[d.a.index()] + d.w_new;
        if nd < row[d.b.index()] {
            row[d.b.index()] = nd;
            heap.push(HeapEntry { key: nd, node: d.b });
        }
        let nd = row[d.b.index()] + d.w_new;
        if nd < row[d.a.index()] {
            row[d.a.index()] = nd;
            heap.push(HeapEntry { key: nd, node: d.a });
        }
    }
    settle(graph, row, heap, NoPotential, |_, _| false, |_, w| w, |_| true, |_, _, _, _| {})
}

/// Point-to-point latencies without SSSP rows, from
/// [`LazyLatency::pair_reader`]; see the [module docs](self) for the four
/// cases a read goes through. The reader borrows its provider, so the graph
/// cannot change under it:
///
/// ```compile_fail
/// use sbon_netsim::graph::{Graph, NodeId};
/// use sbon_netsim::lazy::LazyLatency;
///
/// let mut g = Graph::new(2);
/// let e = g.add_edge(NodeId(0), NodeId(1), 2.0);
/// let mut lat = LazyLatency::new(g);
/// let pairs = lat.pair_reader();
/// lat.apply_edge_deltas(&[(e, 4.0)]);
/// pairs.latency(NodeId(0), NodeId(1));
/// ```
pub struct PairReader<'a> {
    lazy: &'a LazyLatency,
    /// `(a, b)` → `single_source(graph, a)[b]` for the pairs this reader
    /// searched or derived; valid for as long as the borrow of `lazy`.
    memo: RefCell<BTreeMap<(u32, u32), f64>>,
}

impl PairReader<'_> {
    /// The latency from `a` to `b`, bit-identical to
    /// [`LatencyProvider::latency`], by the first of the [module
    /// docs](self)' four cases that applies.
    pub fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        let LazyLatency { graph, cache, .. } = self.lazy;
        let cache = &mut *cache.borrow_mut();
        if let Some(value) = cache.read(graph, a, b) {
            return value;
        }
        if a == b {
            return 0.0;
        }
        let memo = &mut *self.memo.borrow_mut();
        if let Some(&value) = memo.get(&(a.0, b.0)) {
            cache.stats.pair_memo_hits += 1;
            return value;
        }
        let current = cache.is_current(b);
        let RowCache { rows, pair, stats, .. } = cache;
        let pair = pair.get_or_insert_with(Box::default);
        let value = match rows[b.index()].as_deref() {
            Some(to_b) if current => {
                stats.pairs_goal_directed += 1;
                pair.toward(graph, a, b, to_b)
            }
            resident => {
                stats.pairs_searched += 1;
                let (value, reverse) = pair.search(graph, a, b, resident.is_none());
                if let Some(reverse) = reverse {
                    memo.insert((b.0, a.0), reverse);
                }
                value
            }
        };
        memo.insert((a.0, b.0), value);
        value
    }
}

/// One side of a point-to-point search: labels from its root, its heap,
/// and the vertices it labelled. Outside a search every label is
/// `INFINITY` and the heap and the list are empty.
#[derive(Default)]
struct Side {
    dist: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    /// Every vertex labelled this search (repeats allowed): the reset list.
    touched: Vec<u32>,
}

impl Side {
    /// Starts a search from `root`, keyed `key`, over `n` vertices, growing
    /// the labels on first use.
    fn begin(&mut self, n: usize, root: NodeId, key: f64) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
        }
        self.dist[root.index()] = 0.0;
        self.touched.push(root.0);
        self.heap.push(HeapEntry { key, node: root });
    }

    /// The heap's smallest key — without a potential, a lower bound on
    /// every label this side has still to settle — or `INFINITY` once it
    /// is exhausted.
    fn top(&self) -> f64 {
        self.heap.peek().map_or(f64::INFINITY, |e| e.key)
    }

    /// Runs this side's `settle` under `potential` until `stop`, relaxing
    /// into `in_scope` vertices only; each improvement goes on the
    /// touched-list and to `seen` with its new label.
    fn advance(
        &mut self,
        graph: &Graph,
        potential: impl Potential,
        stop: impl Fn(f64, NodeId) -> bool,
        in_scope: impl Fn(NodeId) -> bool,
        mut seen: impl FnMut(NodeId, f64),
    ) {
        let Side { dist, heap, touched } = self;
        let improve = |u: NodeId, _, _, d: f64| {
            touched.push(u.0);
            seen(u, d);
        };
        settle(graph, dist, heap, potential, stop, |_, w| w, in_scope, improve);
    }

    /// Restores the between-searches state through the touched-list.
    fn end(&mut self) {
        for v in self.touched.drain(..) {
            self.dist[v as usize] = f64::INFINITY;
        }
        self.heap.clear();
    }
}

/// The potential of a goal-directed read: the goal's own current row.
#[derive(Clone, Copy)]
struct Toward<'r>(&'r [f64]);

impl Potential for Toward<'_> {
    #[inline(always)]
    fn key(&self, d: f64, v: NodeId) -> f64 {
        d + self.0[v.index()]
    }
}

/// The buffers of a [`PairReader`]'s searches: two sides for the
/// bidirectional one, the forward side alone for the goal-directed one.
#[derive(Default)]
struct PairScratch {
    fwd: Side,
    bwd: Side,
}

impl PairScratch {
    /// `single_source(graph, a)[b]`, bit for bit, by the bidirectional
    /// search with the ε stop and the restricted forward completion the
    /// [module docs](self) describe; with `reverse`, also
    /// `single_source(graph, b)[a]` by the mirrored completion. Requires
    /// `a != b`.
    fn search(&mut self, graph: &Graph, a: NodeId, b: NodeId, reverse: bool) -> (f64, Option<f64>) {
        let PairScratch { fwd, bwd } = self;
        fwd.begin(graph.num_nodes(), a, 0.0);
        bwd.begin(graph.num_nodes(), b, 0.0);
        let mu = Cell::new(f64::INFINITY);
        let meet = |other: &[f64], u: NodeId, d: f64| mu.set(mu.get().min(d + other[u.index()]));
        let past = |tf: f64, tb: f64| tf + tb > mu.get() + TIGHT_EPS_MS;
        let labelled = |side: &Side, u: NodeId| side.dist[u.index()] != f64::INFINITY;
        // `crossed`: phase 1 did not end with `b` on the forward top.
        let (value, crossed) = loop {
            if fwd.heap.peek().is_some_and(|e| e.node == b) {
                break (fwd.dist[b.index()], false);
            }
            let (tf, tb) = (fwd.top(), bwd.top());
            if mu.get() == f64::INFINITY && (tf == f64::INFINITY || tb == f64::INFINITY) {
                break (f64::INFINITY, true); // a side exhausted its component unmet
            }
            if past(tf, tb) {
                // The completion: the forward side alone, into the backward
                // side's labelled vertices only, until `b` reaches its top.
                let scope = |u| labelled(bwd, u);
                fwd.advance(graph, NoPotential, |_, v| v == b, scope, |_, _| {});
                break (fwd.dist[b.index()], true);
            }
            if tf <= tb {
                let stop = |d: f64, v| v == b || d > tb || past(d, tb);
                fwd.advance(graph, NoPotential, stop, |_| true, |u, d| meet(&bwd.dist, u, d));
            } else {
                let stop = |d: f64, _| d > tf || past(tf, d);
                bwd.advance(graph, NoPotential, stop, |_| true, |u, d| meet(&fwd.dist, u, d));
            }
        };
        let reverse = reverse.then(|| {
            if value == f64::INFINITY {
                return value; // the graph is undirected
            }
            if !crossed {
                // `b` topped the forward heap first: the backward side
                // catches up, unscoped, until the tops cross.
                let tf = fwd.top();
                let stop = |d: f64, _| past(tf, d);
                bwd.advance(graph, NoPotential, stop, |_| true, |u, d| meet(&fwd.dist, u, d));
            }
            if bwd.dist[a.index()] > bwd.top() {
                // The mirrored completion.
                let scope = |u| labelled(fwd, u);
                bwd.advance(graph, NoPotential, |_, v| v == a, scope, |_, _| {});
            }
            bwd.dist[a.index()]
        });
        fwd.end();
        bwd.end();
        (value, reverse)
    }

    /// `single_source(graph, a)[b]`, bit for bit, by the goal-directed
    /// search the [module docs](self) describe, `to_b` being `b`'s current
    /// row. Requires `a != b`.
    fn toward(&mut self, graph: &Graph, a: NodeId, b: NodeId, to_b: &[f64]) -> f64 {
        if to_b[a.index()] == f64::INFINITY {
            return f64::INFINITY; // another component
        }
        let (side, potential) = (&mut self.fwd, Toward(to_b));
        side.begin(graph.num_nodes(), a, potential.key(0.0, a));
        // `d[b]`, kept where the stop predicate can read it.
        let reached = Cell::new(f64::INFINITY);
        let stop = |key: f64, _| key > reached.get() + TIGHT_EPS_MS;
        let seen = |u, d| {
            if u == b {
                reached.set(d);
            }
        };
        side.advance(graph, potential, stop, |_| true, seen);
        side.end();
        reached.get()
    }
}

impl LatencyProvider for LazyLatency {
    fn len(&self) -> usize {
        self.graph.num_nodes()
    }

    fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        let cache = &mut *self.cache.borrow_mut();
        if let Some(value) = cache.read(&self.graph, a, b) {
            return value;
        }
        let row = single_source(&self.graph, a).into_boxed_slice();
        let value = row[b.index()];
        cache.insert(a, row, self.capacity);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::all_pairs_latency;
    use crate::rng::rng_from_seed;
    use crate::topology::simple::grid;
    use crate::topology::transit_stub::{generate, TransitStubConfig};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;
    use std::sync::atomic::Ordering;

    /// Every (source, destination) latency must be bit-identical to the
    /// dense matrix built from the same graph.
    fn assert_matches_dense(lazy: &LazyLatency) {
        {
            let cache = lazy.cache.borrow();
            let behind = |&&src: &&u32| cache.epochs[src as usize] != cache.head;
            assert_eq!(cache.stale, cache.order.iter().filter(behind).count(), "stale-row count");
        }
        let dense = all_pairs_latency(lazy.graph());
        let n = lazy.len();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                let (l, d) = (lazy.latency(a, b), dense.latency(a, b));
                assert!(l == d || (l.is_nan() && d.is_nan()), "lazy {l} != dense {d} for {a}->{b}");
            }
        }
    }

    #[test]
    fn matches_dense_on_fresh_topology() {
        let t = generate(&TransitStubConfig::with_total_nodes(80), 11);
        let lazy = LazyLatency::new(t.graph);
        assert_matches_dense(&lazy);
    }

    /// Random churn through the repair path: every cached (and fresh) row
    /// stays bit-identical to the dense matrix on the mutated graph.
    #[test]
    fn matches_dense_after_random_edge_churn() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 3);
        let mut lazy = LazyLatency::new(t.graph);
        let mut rng = rng_from_seed(3);
        let m = lazy.graph().num_edges();
        for round in 0..6 {
            // Warm some rows, mutate some edges, then verify everything.
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

    /// A batched delta set must leave rows identical to applying the same
    /// deltas one by one (and both identical to dense), including a
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

    #[test]
    fn repeat_queries_hit_the_cache() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 5);
        let lazy = LazyLatency::new(t.graph);
        lazy.latency(NodeId(0), NodeId(7));
        lazy.latency(NodeId(0), NodeId(9));
        let s = lazy.stats();
        assert_eq!(s.rows_computed, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.rows_cached, 1);
    }

    #[test]
    fn irrelevant_edge_mutation_keeps_rows_untouched() {
        // Line 0 -1- 1 -1- 2, plus a far-away pair 3 -1- 4: changing the
        // (3,4) edge cannot affect distances out of node 0 — repair must
        // not do any work at all.
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let far = g.add_edge(NodeId(3), NodeId(4), 1.0);
        let mut lazy = LazyLatency::new(g);
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 2.0);
        lazy.set_edge_latency(far, 5.0);
        let s = lazy.stats();
        assert_eq!(s.rows_repaired, 0, "disconnected-component edge must not touch row 0");
        assert_eq!(s.vertices_settled, 0);
        assert_eq!(s.rows_cached, 1);
    }

    /// A raise on a used edge repairs affected rows *in place*: they stay
    /// resident (no recompute on next query) and serve the new distances.
    #[test]
    fn raise_repairs_rows_in_place() {
        // 0 -1- 1 -1- 2 (a line). Rows from 0 and from 2 both cross edge
        // (1,2); raising it must fix both without dropping either.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e = g.add_edge(NodeId(1), NodeId(2), 1.0);
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(2));
        lazy.latency(NodeId(2), NodeId(0));
        lazy.set_edge_latency(e, 10.0);
        let s = lazy.stats();
        assert_eq!(s.rows_cached, 2, "a delta keeps rows resident");
        assert_eq!(s.rows_repaired, 0, "nothing is repaired before it is read");
        let computed_before = s.rows_computed;
        assert_eq!(lazy.latency(NodeId(0), NodeId(2)), 11.0);
        assert_eq!(lazy.latency(NodeId(2), NodeId(0)), 11.0);
        let s = lazy.stats();
        assert_eq!(s.rows_repaired, 2, "each stale row is repaired by its first read");
        assert!(s.vertices_settled > 0);
        assert_eq!(s.rows_computed, computed_before, "repair, not recompute");
    }

    /// A lower that creates a shortcut propagates through the row.
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
    }

    /// When the affected region covers most of the graph the repair falls
    /// back to a full-row rebuild — and still matches dense.
    #[test]
    fn large_region_falls_back_to_rebuild() {
        // A star: every distance from the hub crosses the raised edge's
        // tight tree, so raising a spoke adjacent to everything marks a
        // large region. Use a line where raising the first edge affects
        // every downstream vertex.
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
        assert_eq!(s.rows_rebuilt, 1, "7 of 8 vertices affected: rebuild threshold");
        assert_matches_dense(&lazy);
    }

    /// Delta batches nobody reads after cost no repair work at all; the
    /// one read that finally comes folds all of them into a single repair
    /// and serves exactly what a fresh Dijkstra on the current graph would.
    #[test]
    fn unread_batches_settle_nothing_until_a_read() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 29);
        let mut lazy = LazyLatency::new(t.graph);
        let m = lazy.graph().num_edges() as u32;
        let mut rng = rng_from_seed(29);
        let src = NodeId(7);
        lazy.latency(src, NodeId(1));
        for _ in 0..5 {
            let deltas: Vec<(EdgeId, f64)> =
                (0..6).map(|_| (EdgeId(rng.gen_range(0..m)), rng.gen_range(0.5..12.0))).collect();
            lazy.apply_edge_deltas(&deltas);
        }
        let s = lazy.stats();
        assert_eq!((s.rows_repaired, s.vertices_settled, s.rows_rebuilt), (0, 0, 0));
        assert_eq!(lazy.rows_stale(), 1);
        let fresh = single_source(lazy.graph(), src);
        for (b, want) in fresh.iter().enumerate() {
            assert_eq!(lazy.latency(src, NodeId(b as u32)).to_bits(), want.to_bits(), "7->{b}");
        }
        let s = lazy.stats();
        assert!(s.rows_repaired <= 2, "five batches, one repair of two phases");
        assert_eq!(s.rows_computed, 1);
        assert_eq!(lazy.rows_stale(), 0);
    }

    /// One repair window holding every sign pattern at once: an edge raised
    /// and then lowered below its start, one lowered and then raised above
    /// it, and one returned exactly to its start (which must drop out).
    #[test]
    fn mixed_sign_window_folds_to_the_net_delta() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 31);
        let mut lazy = LazyLatency::new(t.graph);
        let w = |lazy: &LazyLatency, e: u32| lazy.graph().edge(EdgeId(e)).latency_ms;
        let (w0, w1, w2) = (w(&lazy, 0), w(&lazy, 1), w(&lazy, 2));
        for src in 0..lazy.len() as u32 {
            lazy.latency(NodeId(src), NodeId(0));
        }
        lazy.apply_edge_deltas(&[(EdgeId(0), w0 * 3.0), (EdgeId(1), w1 * 0.25)]);
        lazy.apply_edge_deltas(&[(EdgeId(2), w2 * 5.0)]);
        lazy.apply_edge_deltas(&[(EdgeId(0), w0 * 0.5), (EdgeId(1), w1 * 4.0), (EdgeId(2), w2)]);
        assert_eq!(lazy.stats().vertices_settled, 0);
        assert_matches_dense(&lazy);
        assert_eq!(
            lazy.stats().rows_computed,
            lazy.len() as u64,
            "rows are repaired, never recomputed"
        );
    }

    /// A stale row pushed out by the capacity bound and faulted back in is
    /// computed on the current graph and stamped current: no repair runs.
    #[test]
    fn evicted_stale_row_refaults_current() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 33);
        let mut lazy = LazyLatency::with_capacity(t.graph, 2);
        lazy.latency(NodeId(0), NodeId(5));
        lazy.latency(NodeId(1), NodeId(5));
        let e = EdgeId(0);
        lazy.set_edge_latency(e, lazy.graph().edge(e).latency_ms * 4.0);
        assert_eq!(lazy.rows_stale(), 2);
        lazy.latency(NodeId(2), NodeId(5)); // evicts stale row 0
        lazy.latency(NodeId(0), NodeId(5)); // evicts stale row 1, re-faults 0
        let s = lazy.stats();
        assert_eq!((s.rows_computed, s.rows_evicted, s.rows_cached), (4, 2, 2));
        assert_eq!(lazy.rows_stale(), 0, "rows computed after the delta are current");
        assert_eq!(s.rows_repaired + s.rows_rebuilt, 0);
        assert_matches_dense(&lazy);
    }

    /// The delta log never outgrows the edge count: rows too far behind are
    /// let go (and recomputed if read again), rows that keep up survive,
    /// and every served value stays exact.
    #[test]
    fn many_unread_batches_keep_the_log_bounded() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 35);
        let mut lazy = LazyLatency::new(t.graph);
        let m = lazy.graph().num_edges();
        let mut rng = rng_from_seed(35);
        let (read, unread) = (NodeId(3), NodeId(11));
        lazy.latency(read, NodeId(0));
        lazy.latency(unread, NodeId(0));
        for _ in 0..m {
            let deltas: Vec<(EdgeId, f64)> = (0..4)
                .map(|_| (EdgeId(rng.gen_range(0..m as u32)), rng.gen_range(0.5..12.0)))
                .collect();
            lazy.apply_edge_deltas(&deltas);
            assert!(lazy.cache.borrow().log.len() <= m);
            lazy.latency(read, NodeId(0));
        }
        let s = lazy.stats();
        assert_eq!(s.rows_invalidated, 1, "only the row nobody read fell behind the log");
        assert_eq!(s.rows_cached, 1);
        assert!(lazy.cache.borrow().log.len() <= 4, "a row that keeps up needs one batch");
        assert_matches_dense(&lazy);
    }

    /// The jitter-tick contract, by work rather than time: on a 2k-node
    /// transit-stub with 64 resident rows, each batch changing 0.1 % of the
    /// edges, reading all 64 rows back repairs them in place and settles at
    /// least 5× fewer vertices than recomputing them would (64 × n a
    /// batch); reading back 8 leaves the other 56 stale and unrepaired.
    #[test]
    fn jitter_read_back_settles_a_fraction_of_recomputing() {
        const ROWS: usize = 64;
        const BATCHES: u64 = 32;
        let t = generate(&TransitStubConfig::with_total_nodes(2_000), 2_000);
        let base: Vec<f64> = t.graph.edges().iter().map(|e| e.latency_ms).collect();
        let mut lazy = LazyLatency::new(t.graph);
        let (n, m) = (lazy.len(), base.len());
        let sources: Vec<NodeId> = (0..ROWS).map(|i| NodeId((i * n / ROWS) as u32)).collect();
        lazy.ensure_rows(&sources, None);
        let mut rng = rng_from_seed(0x4e7a);
        let mut jitter = |lazy: &mut LazyLatency| {
            let deltas: Vec<(EdgeId, f64)> = (0..(m / 1_000).max(1))
                .map(|_| {
                    let e = rng.gen_range(0..m);
                    (EdgeId(e as u32), base[e] * rng.gen_range(0.7..1.45))
                })
                .collect();
            lazy.apply_edge_deltas(&deltas);
            assert_eq!(lazy.rows_stale(), ROWS, "a batch leaves every resident row stale");
        };
        for _ in 0..BATCHES {
            jitter(&mut lazy);
            lazy.ensure_rows(&sources, None);
            assert_eq!(lazy.rows_stale(), 0);
        }
        let s = lazy.stats();
        // A read that dropped and recomputed its row would count here.
        assert_eq!((s.rows_computed, s.rows_evicted, s.rows_invalidated), (ROWS as u64, 0, 0));
        let recompute = BATCHES * (ROWS * n) as u64;
        assert!(
            s.vertices_settled * 5 <= recompute,
            "{} vertices settled against {recompute} to recompute",
            s.vertices_settled
        );
        for &src in &sources {
            let fresh = single_source(lazy.graph(), src);
            for (b, want) in fresh.iter().enumerate() {
                assert_eq!(lazy.latency(src, NodeId(b as u32)).to_bits(), want.to_bits());
            }
        }

        jitter(&mut lazy);
        lazy.ensure_rows(&sources[..8], None);
        assert_eq!(lazy.rows_stale(), ROWS - 8, "rows nobody read stay stale");
        let after = lazy.stats();
        assert_eq!((after.rows_computed, after.rows_cached), (ROWS as u64, ROWS));
        assert!((after.vertices_settled - s.vertices_settled) * 5 <= (8 * n) as u64);
    }

    /// Runs `mutate`, which must panic, on the line 0 -4- 1 -4- 2 with row 0
    /// resident; checks that no weight, epoch or log entry moved — a
    /// hostile value fails before anything but the scratch window is
    /// written — and re-raises the panic for `#[should_panic]` to match.
    fn rejected_leaving_all_untouched(mutate: impl FnOnce(&mut LazyLatency, [EdgeId; 2])) {
        let mut g = Graph::new(3);
        let edges = [g.add_edge(NodeId(0), NodeId(1), 4.0), g.add_edge(NodeId(1), NodeId(2), 4.0)];
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(2));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mutate(&mut lazy, edges);
        }));
        for e in edges {
            assert_eq!(lazy.graph().edge(e).latency_ms, 4.0);
        }
        assert_eq!(lazy.rows_stale(), 0);
        assert!(lazy.cache.borrow().log.is_empty());
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
    /// log has been touched by the deltas ahead of it.
    #[test]
    #[should_panic(expected = "EdgeId(1) latency must be finite and non-negative, got -1")]
    fn negative_weight_is_rejected() {
        rejected_leaving_all_untouched(|lazy, [e0, e1]| {
            lazy.apply_edge_deltas(&[(e0, 2.0), (e1, -1.0)]);
        });
    }

    #[test]
    fn unchanged_weight_is_a_noop() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 4.0);
        let mut lazy = LazyLatency::new(g);
        lazy.latency(NodeId(0), NodeId(1));
        lazy.set_edge_latency(e, 4.0);
        // Last write wins: a batch that ends where it started is one too.
        lazy.apply_edge_deltas(&[(e, 9.0), (e, 4.0)]);
        assert_eq!(lazy.rows_stale(), 0, "no epoch advanced");
        assert!(lazy.cache.borrow().log.is_empty());
        assert_eq!(lazy.stats().rows_repaired, 0);
        assert_eq!(lazy.stats().rows_cached, 1);
    }

    #[test]
    fn capacity_bounds_resident_rows() {
        let t = generate(&TransitStubConfig::with_total_nodes(50), 7);
        let lazy = LazyLatency::with_capacity(t.graph, 3);
        for src in 0..10u32 {
            lazy.latency(NodeId(src), NodeId(20));
        }
        let s = lazy.stats();
        assert_eq!(s.rows_cached, 3);
        assert_eq!(s.rows_computed, 10);
        assert_eq!(s.rows_evicted, 7);
        // Evicted rows recompute correctly.
        assert_matches_dense(&lazy);
    }

    /// A row that is invalidated and then refetched must be *re-enqueued*
    /// in the FIFO order, not duplicated: a stale duplicate entry would make
    /// one capacity eviction pop the ghost and a later one over-evict a
    /// still-valid row (and `rows_cached` would double-count). Pins the
    /// invariant that `order` holds each resident source exactly once.
    /// (The bounded delta log's drop in `bound_log` is the one path that
    /// removes rows mid-order.)
    #[test]
    fn invalidated_then_refetched_row_does_not_duplicate_in_fifo() {
        // Square: 0 —10— 1, 0 —1— 2 —1— 3 —1— 1. The (0,1) edge stays the
        // long way round whatever it is re-weighted to below, so no served
        // distance ever changes — only the log grows.
        let mut g = Graph::new(4);
        let e01 = g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(3), NodeId(1), 1.0);
        let m = g.num_edges();
        let mut lazy = LazyLatency::with_capacity(g, 2);
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 3.0); // order: [0]
        assert_eq!(lazy.latency(NodeId(2), NodeId(1)), 2.0); // order: [0, 2]
        assert_eq!(lazy.stats().rows_cached, 2);

        // Row 2 is read after every batch and keeps up; row 0 is never read
        // and falls one delta more than the log holds behind, so the log
        // lets go of row 0 only. The FIFO order must become [2].
        for step in 0..=m {
            lazy.set_edge_latency(e01, 9.0 - step as f64);
            assert_eq!(lazy.latency(NodeId(2), NodeId(1)), 2.0);
        }
        assert_eq!(lazy.stats().rows_invalidated, 1, "only row 0 fell behind the log");
        assert_eq!(lazy.stats().rows_cached, 1);
        // Refetch it: [2, 0], each source present exactly once.
        assert_eq!(lazy.latency(NodeId(0), NodeId(1)), 3.0); // recompute
        assert_eq!(lazy.stats().rows_computed, 3);
        assert_eq!(lazy.stats().rows_cached, 2);

        // One more source at capacity 2 evicts exactly one row — the
        // oldest (2) — and must leave the refetched row 0 resident. A stale
        // duplicate of 0 at the queue front would instead evict 0's fresh
        // row (over-eviction) while `rows_cached` double-counted it.
        let evicted_before = lazy.stats().rows_evicted;
        lazy.latency(NodeId(3), NodeId(0)); // order: [0, 3]
        assert_eq!(lazy.stats().rows_evicted, evicted_before + 1);
        assert_eq!(lazy.stats().rows_cached, 2);
        let hits_before = lazy.stats().cache_hits;
        lazy.latency(NodeId(0), NodeId(2)); // must still be a cache hit
        assert_eq!(lazy.stats().cache_hits, hits_before + 1);
        assert_eq!(lazy.stats().rows_cached, 2, "no ghost entries inflate residency");
    }

    #[test]
    fn ensure_rows_dedups_and_counts() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 13);
        let lazy = LazyLatency::new(t.graph);
        lazy.latency(NodeId(5), NodeId(1)); // row 5 already resident
        let computed =
            lazy.ensure_rows(&[NodeId(5), NodeId(2), NodeId(9), NodeId(2), NodeId(5)], None);
        assert_eq!(computed, 2, "5 is resident and 2 is repeated");
        let s = lazy.stats();
        assert_eq!(s.rows_computed, 3);
        assert_eq!(s.rows_cached, 3);
        // Values match on-demand computation.
        assert_matches_dense(&lazy);
    }

    /// `ensure_rows` with a pool must leave cache state and served values
    /// identical to the serial path — and FIFO eviction order too.
    #[test]
    fn ensure_rows_parallel_is_bit_identical_to_serial() {
        let t = generate(&TransitStubConfig::with_total_nodes(60), 21);
        let sources: Vec<NodeId> = (0..20u32).map(NodeId).collect();
        let serial = LazyLatency::with_capacity(t.graph.clone(), 8);
        serial.ensure_rows(&sources, None);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(6).build().expect("pool");
        let parallel = LazyLatency::with_capacity(t.graph, 8);
        parallel.ensure_rows(&sources, Some(&pool));
        assert_eq!(serial.stats(), parallel.stats());
        let n = serial.len();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(
                    serial.latency(a, b).to_bits(),
                    parallel.latency(a, b).to_bits(),
                    "{a}->{b}"
                );
            }
        }
    }

    /// Eight pool threads computing the first rows at once derive the
    /// graph's adjacency exactly once, and later searches reuse it.
    #[test]
    fn rows_first_computed_on_a_pool_derive_the_adjacency_once() {
        let lazy = LazyLatency::new(grid(8, 8, 1.0).graph);
        let builds = || lazy.graph().csr_builds.load(Ordering::Relaxed);
        assert_eq!(builds(), 0, "an unsearched graph holds no adjacency");
        let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().expect("pool");
        let sources: Vec<NodeId> = (0..64u32).map(NodeId).collect();
        assert_eq!(lazy.ensure_rows(&sources, Some(&pool)), 64);
        assert_eq!(builds(), 1);
        assert_matches_dense(&lazy);
        assert_eq!(builds(), 1);
    }

    #[test]
    fn evict_all_clears_cache_but_not_the_graph() {
        let t = generate(&TransitStubConfig::with_total_nodes(40), 9);
        let lazy = LazyLatency::new(t.graph);
        let before = lazy.latency(NodeId(1), NodeId(30));
        lazy.evict_all();
        assert_eq!(lazy.stats().rows_cached, 0);
        assert_eq!(lazy.latency(NodeId(1), NodeId(30)), before);
    }

    #[test]
    fn unreachable_pairs_are_infinite() {
        let g = Graph::new(2);
        let lazy = LazyLatency::new(g);
        assert!(lazy.latency(NodeId(0), NodeId(1)).is_infinite());
        assert_eq!(lazy.latency(NodeId(0), NodeId(0)), 0.0);
    }

    /// A graph from one of the families the pair-read proptest covers:
    /// 0 transit-stub; 1 an integer-weight grid (ties everywhere); 2 a
    /// random multigraph where a third of the edges weigh zero; 3 the same
    /// split into components plus isolated vertices (most pairs
    /// unreachable).
    fn pair_test_graph(kind: u8, seed: u64) -> Graph {
        let mut rng = rng_from_seed(seed);
        let weight = |rng: &mut rand::rngs::StdRng| {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Pair reads are bit-identical to a fresh `single_source` row on
        /// the current graph — over the four graph families, one reader per
        /// delta batch (random `apply_edge_deltas` and
        /// `scale_edges_clamped`), through read sequences that mix fresh,
        /// reversed and repeated pairs, `a == b` and adjacent pairs, with
        /// `a`'s and `b`'s rows absent, resident, or resident several
        /// batches behind (rows are faulted in while a reader lives, too).
        /// No read computes or caches a row, and each takes the case the
        /// module docs give it: a resident sender row is a hit, then the
        /// memo, then a current receiver row's goal-directed search, else
        /// a bidirectional search.
        #[test]
        fn latency_pair_equals_the_single_source_row(
            kind in 0u8..4,
            seed in 0u64..1_000_000,
            steps in vec((0u8..9, 0u32..1_000_000, 0u32..1_000_000), 1..60),
        ) {
            let mut lazy = LazyLatency::new(pair_test_graph(kind, seed));
            let mut rng = rng_from_seed(seed ^ 0x9a1);
            let (n, m) = (lazy.len() as u32, lazy.graph().num_edges() as u32);
            let mutates = |op: u8| m > 0 && (op == 1 || op == 2);
            let mut steps = steps.into_iter().peekable();
            while steps.peek().is_some() {
                let pairs = lazy.pair_reader();
                let mut last = (NodeId(0), NodeId(0));
                while let Some((op, x, y)) = steps.next_if(|&(op, ..)| !mutates(op)) {
                    let (mut a, mut b) = (NodeId(x % n), NodeId(y % n));
                    match op {
                        // Fault `a`'s row in, so later reads find it resident
                        // and, after a delta, stale.
                        0 => {
                            lazy.latency(a, b);
                            continue;
                        }
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
                    let expect = {
                        let cache = lazy.cache.borrow();
                        if cache.rows[a.index()].is_some() {
                            "hit"
                        } else if a == b {
                            "zero"
                        } else if pairs.memo.borrow().contains_key(&(a.0, b.0)) {
                            "memo"
                        } else if cache.rows[b.index()].is_some() && cache.is_current(b) {
                            "goal-directed"
                        } else {
                            "bidirectional"
                        }
                    };
                    let before = lazy.stats();
                    let got = pairs.latency(a, b);
                    let want = single_source(lazy.graph(), a)[b.index()];
                    prop_assert_eq!((a, b, expect, got.to_bits()), (a, b, expect, want.to_bits()));
                    let after = lazy.stats();
                    prop_assert_eq!(after.rows_computed, before.rows_computed);
                    prop_assert_eq!(after.rows_cached, before.rows_cached);
                    let count = |case: &str| u64::from(expect == case);
                    prop_assert_eq!(after.cache_hits, before.cache_hits + count("hit"));
                    prop_assert_eq!(after.pair_memo_hits, before.pair_memo_hits + count("memo"));
                    let goal = count("goal-directed");
                    prop_assert_eq!(after.pairs_goal_directed, before.pairs_goal_directed + goal);
                    let searched = count("bidirectional");
                    prop_assert_eq!(after.pairs_searched, before.pairs_searched + searched);
                }
                drop(pairs);
                match steps.next() {
                    Some((1, ..)) => {
                        let batch: Vec<(EdgeId, f64)> = (0..rng.gen_range(1..6))
                            .map(|_| {
                                let zero = rng.gen_range(0..4) == 0;
                                let w = if zero { 0.0 } else { rng.gen_range(0.1..30.0) };
                                (EdgeId(rng.gen_range(0..m)), w)
                            })
                            .collect();
                        lazy.apply_edge_deltas(&batch);
                    }
                    Some(_) => {
                        let draws: Vec<(EdgeId, f64)> = (0..rng.gen_range(1..6))
                            .map(|_| (EdgeId(rng.gen_range(0..m)), rng.gen_range(0.5..2.0)))
                            .collect();
                        lazy.scale_edges_clamped(&draws, (0.0, 3.0));
                    }
                    None => {}
                }
            }
        }
    }

    /// The goal-directed read and the reversed bidirectional search where
    /// rounding decides: jittered transit-stub graphs, and grids whose
    /// equal-length paths tie exactly (weight 1) or sum to different last
    /// bits (weight 0.1). Every `(a, b)` read with `b`'s row resident and
    /// `a`'s not, and every reverse a fresh reader derives, equals
    /// `single_source` bit for bit.
    #[test]
    fn goal_directed_and_reversed_reads_equal_the_row_on_ties() {
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
            let rows: Vec<Vec<f64>> = (0..n).map(|v| single_source(&graph, NodeId(v))).collect();
            let lazy = LazyLatency::new(graph);
            for a in 0..n {
                for b in 0..n {
                    let pairs = lazy.pair_reader();
                    let (a, b) = (NodeId(a), NodeId(b));
                    assert_eq!(pairs.latency(a, b).to_bits(), rows[a.index()][b.index()].to_bits());
                    assert_eq!(pairs.latency(b, a).to_bits(), rows[b.index()][a.index()].to_bits());
                }
            }
            let s = lazy.stats();
            let pairs = (n * (n - 1)) as u64;
            assert_eq!(
                (s.pairs_searched, s.pair_memo_hits),
                (pairs, pairs),
                "each reverse memoised"
            );
            let receivers: Vec<NodeId> = (0..n).step_by(7).map(NodeId).collect();
            lazy.ensure_rows(&receivers, None);
            let pairs = lazy.pair_reader();
            for a in (0..n).map(NodeId).filter(|a| !receivers.contains(a)) {
                for &b in &receivers {
                    assert_eq!(pairs.latency(a, b).to_bits(), rows[a.index()][b.index()].to_bits());
                }
            }
            let goal = lazy.stats().pairs_goal_directed;
            assert_eq!(goal, (n as usize - receivers.len()) as u64 * receivers.len() as u64);
        }
    }

    /// The search buffers exist only once a search has run, and every
    /// search — goal-directed, bidirectional, reversed — leaves them
    /// clean: every label back at `INFINITY`, both heaps and touched-lists
    /// empty.
    #[test]
    fn pair_scratch_is_allocated_by_the_first_search_and_left_clean() {
        let lazy = LazyLatency::new(grid(6, 6, 1.0).graph);
        lazy.latency(NodeId(0), NodeId(35));
        let pairs = lazy.pair_reader();
        pairs.latency(NodeId(0), NodeId(35));
        pairs.latency(NodeId(3), NodeId(3));
        assert!(lazy.cache.borrow().pair.is_none(), "row reads and a == b search nothing");
        assert_eq!(pairs.latency(NodeId(35), NodeId(0)), 10.0);
        assert_eq!(pairs.latency(NodeId(7), NodeId(20)), 3.0);
        assert_eq!(pairs.latency(NodeId(20), NodeId(7)), 3.0);
        let cache = lazy.cache.borrow();
        let pair = cache.pair.as_deref().expect("allocated by the search");
        for side in [&pair.fwd, &pair.bwd] {
            assert_eq!(side.dist.len(), 36);
            assert!(side.dist.iter().all(|d| *d == f64::INFINITY));
            assert!(side.heap.is_empty() && side.touched.is_empty());
        }
        let s = cache.stats;
        assert_eq!((s.pairs_goal_directed, s.pairs_searched, s.pair_memo_hits), (1, 1, 1));
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

        // Two draws of one edge in one call compose like two one-draw calls
        // (the first is clamped before the second applies: 10 → 30 → 27, not
        // 10 · 8 · 0.9 = 72 → 30), count as one edge, and land as one batch
        // where the two calls are two.
        let fresh = || {
            let lazy = LazyLatency::new(graph.clone());
            lazy.latency(NodeId(0), NodeId(1));
            lazy
        };
        let (mut once, mut twice) = (fresh(), fresh());
        assert_eq!(once.scale_edges_clamped(&[(e, 8.0), (e, 0.9)], (0.5, 3.0)), 1);
        twice.scale_edges_clamped(&[(e, 8.0)], (0.5, 3.0));
        twice.scale_edges_clamped(&[(e, 0.9)], (0.5, 3.0));
        assert_eq!((once.cache.borrow().head, twice.cache.borrow().head), (1, 2));
        assert_eq!(once.rows_stale(), 1);
        let composed = once.graph().edge(e).latency_ms;
        assert_eq!(composed.to_bits(), twice.graph().edge(e).latency_ms.to_bits());
        assert_eq!(once.latency(NodeId(0), NodeId(1)), 27.0);
        assert_eq!(once.stats().rows_repaired, 1, "one raise phase for the one batch");
    }
}
