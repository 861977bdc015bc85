//! Shortest-path latency computation.
//!
//! The simulated network's ground-truth latency between two overlay nodes is
//! the shortest-path propagation latency in the underlying topology graph,
//! which [`all_pairs_latency`] materializes into a dense matrix. The network
//! coordinate layer (`sbon-coords`) then embeds this matrix, and the cost
//! space measures its embedding against it.
//!
//! # Rows, region by region
//!
//! Every row — [`single_source`], [`all_pairs_latency`], a
//! [`crate::lazy::LazyLatency`] miss, its batch `ensure_rows` and its
//! repair's in-place rebuild — comes from one kernel, `fill_rows`, over a
//! batch of sources. It reads the graph's pendant regions ([`crate::graph`]:
//! a core, and regions that each touch it through one bridge, or not at
//! all) in two steps:
//!
//! 1. **Per source**, `settle` runs scoped to the core and the source's
//!    own region (the core alone for a source in it).
//! 2. **Per region**, in label order, for every source of the batch outside
//!    it: the region's end of its bridge is seeded with the row's value at
//!    the core end plus the bridge's current weight — unless that sum is
//!    `INFINITY`, the core end being unreachable — and `settle` runs
//!    unscoped. The only arc out of the region is the bridge back, which
//!    cannot improve the core end, so the search stays inside.
//!
//! While step 2 walks one region for the whole batch, that region's
//! adjacency stays in cache, and each heap holds one region's frontier, not
//! the whole graph's.
//!
//! **Exactness.** Every weight is on the graph's grid, and every simple
//! path sums below 2³³ ms ([`crate::graph`]), so every sum a search forms
//! along a simple path is exact: a row's value at `v` is the shortest
//! distance itself, whatever order the edges were relaxed in. Every simple
//! path from the source to a vertex of the core or of its own region stays
//! inside them (entering a third region leaves it by the bridge it came in
//! on), so step 1 finds those distances. Every simple path into another
//! region crosses its bridge, core end first, so its shortest distance is
//! the core end's, which step 1 found, plus the bridge, plus the shortest
//! distance from the bridge's end inside the region — what step 2 computes
//! from that seed. A region not touching the core lies in another component
//! than the core; only a source inside it reaches it, in step 1. Each
//! reachable vertex settles exactly once, as in the flat whole-graph search
//! that is the tests' reference, and every row is bit-identical to it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, Graph, NodeId, Regions};
use crate::latency::LatencyMatrix;

/// A heap entry: one `u128` packing `(key + 0.0).to_bits() << 32 | node`,
/// `Reverse`-ordered so `BinaryHeap` pops the minimum (key, node id) with
/// one integer comparison a sift. The key is the vertex's label when it
/// was pushed.
///
/// Keys must be non-negative and not NaN (a `debug_assert!` checks it).
/// Every key [`settle`] pushes is: labels are sums of validated weights.
/// On such keys the IEEE bit
/// pattern read as an unsigned integer orders exactly as `f64::total_cmp`,
/// so the packed order is the (key, node id) order. `+ 0.0` maps a `-0.0`
/// key, the one value whose bits would sort out of place, to `+0.0`.
/// `pub(crate)` so the dynamic repair in [`crate::lazy`] seeds
/// [`settle`]'s heap itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct HeapEntry(Reverse<u128>);

impl HeapEntry {
    #[inline(always)]
    pub(crate) fn new(key: f64, node: NodeId) -> Self {
        debug_assert!(key >= 0.0, "heap keys are non-negative and not NaN, got {key}");
        HeapEntry(Reverse(u128::from((key + 0.0).to_bits()) << 32 | u128::from(node.0)))
    }

    /// The key it was pushed with (`+0.0` for `-0.0`).
    #[inline(always)]
    pub(crate) fn key(self) -> f64 {
        f64::from_bits((self.0 .0 >> 32) as u64)
    }

    #[inline(always)]
    pub(crate) fn node(self) -> NodeId {
        NodeId(self.0 .0 as u32)
    }
}

/// The one Dijkstra relaxation loop: from-scratch rows, path search, both
/// phases of [`crate::lazy`]'s row repair and both sides of its
/// point-to-point search run it, so they pop in the same (key, node id)
/// order and relax by the same strict `<`. The heap holds packed
/// [`HeapEntry`]s, so that order is one integer comparison; it requires
/// every key to be non-negative and not NaN.
///
/// The caller seeds `dist` and `heap`, each entry keyed by its label.
/// Before each pop the loop asks `stop(key, node)` of the heap's top entry;
/// on `true` it returns and leaves that entry in the heap, so a caller can
/// pause a search and resume it with another call (the point-to-point
/// search alternates two heaps this way). The top is the heap's minimum
/// label, stale or not, so it is a lower bound on every label still to
/// settle, and a vertex whose entry reaches the top has a final label.
/// Otherwise the entry is popped: one keyed above its vertex's current
/// label is stale and skipped; every other pop settles its vertex `v` and
/// relaxes each neighbour `u` that is `in_scope`, from `v`'s current label,
/// reading edge `e` at `weight(e, current latency)`. A strict improvement
/// stores the label `nd`, calls `on_improve(u, v, e, nd)` and pushes `u`.
/// Rows and repairs stop only when the heap is empty (`|_, _| false`);
/// [`shortest_path`] stops when its target reaches the top. Returns the
/// number of vertices settled.
#[inline]
pub(crate) fn settle(
    graph: &Graph,
    dist: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
    stop: impl Fn(f64, NodeId) -> bool,
    weight: impl Fn(EdgeId, f64) -> f64,
    in_scope: impl Fn(NodeId) -> bool,
    mut on_improve: impl FnMut(NodeId, NodeId, EdgeId, f64),
) -> usize {
    let mut settled = 0;
    while let Some(&top) = heap.peek() {
        let (key, v) = (top.key(), top.node());
        if stop(key, v) {
            break;
        }
        heap.pop();
        let d = dist[v.index()];
        if key > d {
            continue; // stale entry
        }
        settled += 1;
        for (u, e, w) in graph.neighbors(v) {
            if !in_scope(u) {
                continue;
            }
            let nd = d + weight(e, w);
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                on_improve(u, v, e, nd);
                heap.push(HeapEntry::new(nd, u));
            }
        }
    }
    settled
}

/// The rows of a batch of sources, region by region ([module
/// docs](self)): overwrites all of `rows[i]` with the shortest-path
/// latencies from `sources[i]` (`INFINITY` where unreachable), through
/// `heap` (empty on entry and on return). Sources may repeat. Returns the
/// number of vertices settled: each row's reachable ones, once each.
pub(crate) fn fill_rows<R: AsMut<[f64]>>(
    graph: &Graph,
    sources: &[NodeId],
    rows: &mut [R],
    heap: &mut BinaryHeap<HeapEntry>,
) -> usize {
    assert_eq!(sources.len(), rows.len(), "one row a source");
    let Regions { label, bridges } = graph.regions();
    // Every search runs to an empty heap, reads weights as they are and
    // keeps no predecessors.
    let (never, current, ignore) = (|_, _| false, |_, w| w, |_, _, _, _| {});
    let mut settled = 0;
    for (&src, row) in sources.iter().zip(rows.iter_mut()) {
        let row = row.as_mut();
        row.fill(f64::INFINITY);
        row[src.index()] = 0.0;
        heap.push(HeapEntry::new(0.0, src));
        let own = label[src.index()];
        let scope = |u: NodeId| {
            let region = label[u.index()];
            region == 0 || region == own
        };
        settled += settle(graph, row, heap, never, current, scope, ignore);
    }
    for bridge in bridges.iter() {
        let (region, w) = (label[bridge.end.index()], graph.edge(bridge.edge).latency_ms);
        for (&src, row) in sources.iter().zip(rows.iter_mut()) {
            if label[src.index()] == region {
                continue; // step 1 settled it
            }
            let row = row.as_mut();
            let seed = row[bridge.core.index()] + w;
            if seed < f64::INFINITY {
                row[bridge.end.index()] = seed;
                heap.push(HeapEntry::new(seed, bridge.end));
                settled += settle(graph, row, heap, never, current, |_| true, ignore);
            }
        }
    }
    settled
}

/// [`fill_rows`] into fresh rows, one a source, in order.
pub(crate) fn rows(graph: &Graph, sources: &[NodeId]) -> Vec<Box<[f64]>> {
    let mut rows = vec![vec![0.0; graph.num_nodes()].into_boxed_slice(); sources.len()];
    fill_rows(graph, sources, &mut rows, &mut BinaryHeap::new());
    rows
}

/// Single-source shortest path latencies from `src`.
///
/// Unreachable nodes get `f64::INFINITY`.
pub fn single_source(graph: &Graph, src: NodeId) -> Vec<f64> {
    let mut row = vec![0.0; graph.num_nodes()];
    fill_rows(graph, &[src], std::slice::from_mut(&mut row), &mut BinaryHeap::new());
    row
}

/// Shortest path from `src` to `dst` as the edges it walks, in order from
/// `src` (empty when `src == dst`), or `None` if unreachable. Used by the
/// overlay's link-stress accounting to charge per-hop traffic to underlay
/// links.
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<EdgeId>> {
    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry::new(0.0, src));
    let keep_prev = |u: NodeId, v, e, _| prev[u.index()] = Some((v, e));
    let to_dst = |_, v| v == dst;
    settle(graph, &mut dist, &mut heap, to_dst, |_, w| w, |_| true, keep_prev);

    if dist[dst.index()].is_infinite() {
        return None;
    }
    // `src` never improves (weights are non-negative), so the chain of
    // predecessors of a reached `dst` ends exactly there.
    let mut path = Vec::new();
    let mut cur = dst;
    while let Some((p, e)) = prev[cur.index()] {
        path.push(e);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// Materializes the all-pairs shortest-path latency matrix: one
/// `fill_rows` batch over every node.
///
/// O(n · (m log n)); fine for the paper's 600-node scale and the ≤2000-node
/// sweeps in the bench harness.
pub fn all_pairs_latency(graph: &Graph) -> LatencyMatrix {
    let n = graph.num_nodes();
    let mut rows = vec![vec![0.0; n]; n];
    let sources: Vec<NodeId> = graph.nodes().collect();
    fill_rows(graph, &sources, &mut rows, &mut BinaryHeap::new());
    LatencyMatrix::from_rows(rows)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::latency::LatencyProvider;
    use crate::lazy::tests::pair_test_graph;
    use crate::rng::rng_from_seed;
    use crate::topology::transit_stub::{generate, TransitStubConfig};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;

    /// The row loop [`fill_rows`] replaced, as its reference: one flat
    /// search over the whole graph through one graph-wide heap. Returns the
    /// row and the vertices it settled.
    pub(crate) fn flat_row(graph: &Graph, src: NodeId) -> (Vec<f64>, usize) {
        let mut dist = vec![f64::INFINITY; graph.num_nodes()];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(HeapEntry::new(0.0, src));
        let none = |_, _, _, _| {};
        let settled = settle(graph, &mut dist, &mut heap, |_, _| false, |_, w| w, |_| true, none);
        (dist, settled)
    }

    /// A transit-stub graph whose stub domains (5 to 11 nodes) outnumber
    /// its 4 routers, so the largest 2-edge-connected class is a stub
    /// domain; with `apart`, plus a small component of its own (a cycle
    /// with a tail) that no bridge joins to the core, from the returned
    /// vertex id on.
    fn stub_heavy_graph(seed: u64, apart: bool) -> (Graph, u32) {
        let mut rng = rng_from_seed(seed);
        let cfg = TransitStubConfig {
            transit_domains: 2,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            stub_nodes_per_domain: rng.gen_range(5..12),
            ..TransitStubConfig::default()
        };
        let mut g = generate(&cfg, seed).graph;
        let first = g.num_nodes() as u32;
        if apart {
            let len = rng.gen_range(1..6u32);
            (0..len + 2).for_each(|_| _ = g.add_node());
            for v in first..first + len {
                let next = if v + 1 == first + len { first } else { v + 1 };
                g.add_edge(NodeId(v), NodeId(next), rng.gen_range(0.5..9.0));
            }
            g.add_edge(NodeId(first), NodeId(first + len), rng.gen_range(0.5..9.0));
            g.add_edge(NodeId(first + len), NodeId(first + len + 1), 0.0);
        }
        (g, first)
    }

    /// A batch of `len` sources on `g`: random vertices, core vertices,
    /// vertices of the previous source's region, repeats of it, and — when
    /// the graph has vertices after `small_from` — vertices of its small
    /// component.
    fn batch(g: &Graph, len: usize, small_from: u32, rng: &mut impl Rng) -> Vec<NodeId> {
        let (n, label) = (g.num_nodes() as u32, &g.regions().label);
        let pick = |rng: &mut dyn rand::RngCore, want: &dyn Fn(u32) -> bool| {
            let hits: Vec<u32> = (0..n).filter(|&v| want(v)).collect();
            (!hits.is_empty()).then(|| NodeId(hits[rng.gen_range(0..hits.len())]))
        };
        let mut sources: Vec<NodeId> = Vec::with_capacity(len);
        while sources.len() < len {
            let last = sources.last().copied().unwrap_or(NodeId(0));
            let source = match rng.gen_range(0..5) {
                0 => pick(rng, &|v| label[v as usize] == 0),
                1 => pick(rng, &|v| label[v as usize] == label[last.index()]),
                2 => sources.last().copied(),
                3 => pick(rng, &|v| v >= small_from),
                _ => Some(NodeId(rng.gen_range(0..n))),
            };
            sources.extend(source);
        }
        sources
    }

    /// Asserts `fill_rows` over `sources` equals the flat reference bit for
    /// bit, row by row, and settles exactly the vertices it does.
    fn same_as_flat(g: &Graph, sources: &[NodeId]) -> Result<(), TestCaseError> {
        let mut rows = vec![vec![f64::NAN; g.num_nodes()]; sources.len()];
        let mut heap = BinaryHeap::new();
        let settled = fill_rows(g, sources, &mut rows, &mut heap);
        prop_assert!(heap.is_empty());
        let mut flat_settled = 0;
        for (&src, row) in sources.iter().zip(&rows) {
            let (flat, count) = flat_row(g, src);
            flat_settled += count;
            let bits = |r: &[f64]| r.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!((src, bits(row)), (src, bits(&flat)));
        }
        prop_assert_eq!(settled, flat_settled);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The region-by-region kernel is bit-identical to the flat
        /// whole-graph search, and settles exactly what it settles, on the
        /// five pair-read graph families, stub-heavy transit-stub graphs
        /// (alone, or beside a small component no bridge reaches), with
        /// every zero weight read as `-0.0` half the time — before and
        /// after random `set_edge_latency` changes that take bridges to
        /// and from zero after the regions were derived. Batches of 1 to 9
        /// sources mix core vertices, vertices sharing a region, repeats
        /// and vertices of a small component.
        #[test]
        fn region_rows_equal_the_flat_reference(
            kind in 0u8..7,
            seed in 0u64..1_000_000,
            negative_zero in 0u8..2,
            changes in 0usize..12,
        ) {
            let (mut g, small_from) = match kind {
                5 | 6 => stub_heavy_graph(seed, kind == 6),
                _ => {
                    let g = pair_test_graph(kind, seed);
                    let n = g.num_nodes() as u32;
                    (g, n)
                }
            };
            let zero = if negative_zero == 1 { -0.0 } else { 0.0 };
            for e in 0..g.num_edges() as u32 {
                if g.edge(EdgeId(e)).latency_ms == 0.0 {
                    g.set_edge_latency(EdgeId(e), zero);
                }
            }
            let mut rng = rng_from_seed(seed ^ 0x47);
            if g.num_nodes() == 0 {
                return Ok(());
            }
            let len = rng.gen_range(1..10);
            same_as_flat(&g, &batch(&g, len, small_from, &mut rng))?;
            let bridges: Vec<EdgeId> = g.regions().bridges.iter().map(|b| b.edge).collect();
            for _ in 0..changes {
                let m = g.num_edges() as u32;
                let e = match rng.gen_range(0..2) {
                    0 if !bridges.is_empty() => bridges[rng.gen_range(0..bridges.len())],
                    _ if m > 0 => EdgeId(rng.gen_range(0..m)),
                    _ => continue,
                };
                let w = if rng.gen_range(0..3) == 0 { zero } else { rng.gen_range(0.1..40.0) };
                g.set_edge_latency(e, w);
            }
            let len = rng.gen_range(1..10);
            same_as_flat(&g, &batch(&g, len, small_from, &mut rng))?;
        }
    }

    fn line_graph() -> Graph {
        // 0 -1ms- 1 -2ms- 2 -4ms- 3
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 4.0);
        g
    }

    #[test]
    fn single_source_on_line() {
        let d = single_source(&line_graph(), NodeId(0));
        assert_eq!(d, vec![0.0, 1.0, 3.0, 7.0]);
    }

    #[test]
    fn picks_shorter_of_two_routes() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(1), 2.0);
        let d = single_source(&g, NodeId(0));
        assert_eq!(d[1], 3.0); // via node 2, not the 10ms direct edge
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::new(2);
        let d = single_source(&g, NodeId(0));
        assert!(d[1].is_infinite());
    }

    /// The node sequence a returned edge path visits, `src` included.
    fn nodes_along(g: &Graph, src: NodeId, path: &[EdgeId]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        for &e in path {
            let (edge, at) = (g.edge(e), nodes[nodes.len() - 1]);
            assert!(at == edge.a || at == edge.b, "{e:?} does not leave {at}");
            nodes.push(if at == edge.a { edge.b } else { edge.a });
        }
        nodes
    }

    #[test]
    fn shortest_path_reconstruction() {
        let g = line_graph();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(
            nodes_along(&g, NodeId(0), &p),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn shortest_path_self_is_singleton() {
        let g = line_graph();
        let p = shortest_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(nodes_along(&g, NodeId(2), &p), vec![NodeId(2)]);
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let g = Graph::new(2);
        assert!(shortest_path(&g, NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn path_latencies_sum_to_matrix_entries_on_random_topology() {
        use crate::topology::transit_stub::{generate, TransitStubConfig};
        let t = generate(&TransitStubConfig::with_total_nodes(80), 3);
        let m = all_pairs_latency(&t.graph);
        for (a, b) in [(0u32, 40u32), (5, 70), (12, 33)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let path = shortest_path(&t.graph, a, b).unwrap();
            assert_eq!(*nodes_along(&t.graph, a, &path).last().unwrap(), b);
            let total: f64 = path.iter().map(|&e| t.graph.edge(e).latency_ms).sum();
            assert!((total - m.latency(a, b)).abs() < 1e-9, "{a}->{b}");
        }
    }

    /// The order `HeapEntry` had before it was packed — by `total_cmp` key,
    /// then node id — as a min-order, the reference for the packed one.
    fn reference_order(a: (f64, u32), b: (f64, u32)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over non-negative keys — exact ties, `0.0` and `-0.0`,
        /// subnormals, `+∞`, any finite value — and node ids that tie or
        /// span the whole `u32` range, the packed entries sort every batch
        /// exactly as the reference orders `(key + 0.0, node)`, pop from a
        /// `BinaryHeap` in that order, and read back their key and node;
        /// `+ 0.0` is the identity on every key but `-0.0`, which comes
        /// back as `+0.0`.
        #[test]
        fn packed_entries_order_as_total_cmp_then_node(
            batch in vec((0u8..6, 0u64..u64::MAX, 0u32..u32::MAX), 1..48),
        ) {
            let batch: Vec<(f64, u32)> = batch
                .into_iter()
                .map(|(kind, raw, node)| {
                    let key = match kind {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::from_bits(raw % (1 << 52)), // subnormal (or 0.0)
                        3 => f64::INFINITY,
                        4 => [0.1 + 0.2, 0.3, 1.0, f64::MAX][(raw % 4) as usize], // ties
                        _ => f64::from_bits(raw % f64::INFINITY.to_bits()),
                    };
                    (key, if raw % 3 == 0 { node % 4 } else { node })
                })
                .collect();
            let entries: Vec<HeapEntry> =
                batch.iter().map(|&(key, node)| HeapEntry::new(key, NodeId(node))).collect();
            for (&(key, node), entry) in batch.iter().zip(&entries) {
                let stored = if key == 0.0 { 0.0 } else { key };
                prop_assert_eq!((key + 0.0).to_bits(), stored.to_bits());
                prop_assert_eq!(entry.key().to_bits(), stored.to_bits());
                prop_assert_eq!(entry.node(), NodeId(node));
            }
            let bits = |v: Vec<(f64, u32)>| {
                v.into_iter().map(|(k, n)| (k.to_bits(), n)).collect::<Vec<_>>()
            };
            let mut reference: Vec<(f64, u32)> =
                batch.iter().map(|&(k, n)| (k + 0.0, n)).collect();
            reference.sort_by(|&a, &b| reference_order(a, b));
            let mut packed = entries.clone();
            packed.sort_by(|a, b| b.cmp(a));
            let packed: Vec<(f64, u32)> = packed.iter().map(|e| (e.key(), e.node().0)).collect();
            let mut heap: BinaryHeap<HeapEntry> = entries.into_iter().collect();
            let popped: Vec<(f64, u32)> =
                std::iter::from_fn(|| heap.pop()).map(|e| (e.key(), e.node().0)).collect();
            prop_assert_eq!(bits(packed), bits(reference.clone()));
            prop_assert_eq!(bits(popped), bits(reference));
        }
    }

    /// An edge of weight `-0.0`, which `Graph::add_edge` accepts, reads
    /// exactly as one of `+0.0`: rows, pair reads (searched, memoised and
    /// served from the receiver's row) and `shortest_path` edges are
    /// bit-identical.
    #[test]
    fn negative_zero_edges_read_as_positive_zero() {
        use crate::lazy::LazyLatency;
        use crate::topology::transit_stub::{generate, TransitStubConfig};
        let t = generate(&TransitStubConfig::with_total_nodes(60), 45);
        let with_zero = |zero: f64| {
            let mut g = Graph::new(t.graph.num_nodes());
            for (i, e) in t.graph.edges().iter().enumerate() {
                g.add_edge(e.a, e.b, if i % 3 == 0 { zero } else { e.latency_ms });
            }
            g
        };
        let (pos, neg) = (with_zero(0.0), with_zero(-0.0));
        let n = pos.num_nodes() as u32;
        let receivers: Vec<NodeId> = (0..n).step_by(5).map(NodeId).collect();
        let reads = |g: &Graph| {
            let lazy = LazyLatency::new(g.clone());
            let mut out = Vec::new();
            for pass in 0..2 {
                if pass == 1 {
                    lazy.ensure_rows(&receivers, None); // reads off the receiver's row
                }
                let pairs = lazy.pair_reader();
                for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (NodeId(a), NodeId(b)))) {
                    out.push(pairs.latency(a, b).to_bits());
                }
            }
            let s = lazy.stats();
            // Every read from or to a receiver, in the second pass.
            let r = receivers.len() as u64;
            assert_eq!(s.cache_hits, r * (2 * u64::from(n) - r));
            assert!(s.pairs_searched > 0 && s.pair_memo_hits > 0);
            out
        };
        assert_eq!(reads(&pos), reads(&neg));
        for a in pos.nodes() {
            let row =
                |g: &Graph| single_source(g, a).iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(row(&pos), row(&neg), "row {a}");
            for b in pos.nodes() {
                assert_eq!(shortest_path(&pos, a, b), shortest_path(&neg, a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn all_pairs_is_symmetric_and_triangle_holds() {
        let g = line_graph();
        let m = all_pairs_latency(&g);
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(m.latency(NodeId(a), NodeId(b)), m.latency(NodeId(b), NodeId(a)));
                for c in 0..4u32 {
                    // Shortest-path metrics satisfy the triangle inequality.
                    assert!(
                        m.latency(NodeId(a), NodeId(b))
                            <= m.latency(NodeId(a), NodeId(c))
                                + m.latency(NodeId(c), NodeId(b))
                                + 1e-9
                    );
                }
            }
        }
    }
}
