//! The Vivaldi decentralized network-coordinate algorithm.
//!
//! Dabek, Cox, Kaashoek, Morris: "Vivaldi: A Decentralized Network
//! Coordinate System", SIGCOMM 2004 — the adaptive-timestep variant
//! (Algorithm 3 in the paper): each node holds a coordinate `x_i` and a
//! local error estimate `e_i`; a latency sample `rtt(i, j)` moves `x_i`
//! along the spring force `(rtt − |x_i − x_j|)·u(x_i − x_j)` with a step
//! size weighted by how confident `i` is relative to `j`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use sbon_netsim::graph::NodeId;
use sbon_netsim::latency::{euclidean, LatencyProvider};
use sbon_netsim::rng::derive_rng;

/// RNG stream salt of the full protocol: the `n` starts and the gossip.
const GOSSIP_STREAM: u64 = 0x0071_7141;
/// RNG stream salt of landmark mode's first phase: the landmark draw, the
/// `n` starts and the landmarks' gossip.
const LANDMARK_STREAM: u64 = 0x1a4d_3a4c;
/// RNG stream salt of a non-landmark node's placement; the high bits keep
/// `PLACE_STREAM ^ node` disjoint from every other derivation stream.
const PLACE_STREAM: u64 = 0x517e_9a4e << 32;

/// The largest [`VivaldiConfig::dims`]: the placement kernel keeps a node's
/// coordinate in a fixed-size array and is compiled once per dimension up
/// to this bound ([`VivaldiConfig::validate`] names it). Each dimension
/// adds four copies of the kernel to every binary that places nodes; at a
/// bound of 16 the benchmark driver's code grew by 0.3 MB and its peak
/// resident memory by about 0.13 MiB on a workload that never places one.
pub const MAX_DIMS: usize = 10;

/// Tunables of the Vivaldi run. Defaults follow the SIGCOMM paper
/// (`ce = cc = 0.25`).
#[derive(Clone, Debug)]
pub struct VivaldiConfig {
    /// Embedding dimensionality. The ICDE paper's figures use 2 latency
    /// dimensions, so that is the default.
    pub dims: usize,
    /// Coordinate adaptation constant (step-size scale), `ce`.
    pub ce: f64,
    /// Error adaptation constant, `cc`.
    pub cc: f64,
    /// Gossip rounds to run; in each round every node takes
    /// [`VivaldiConfig::samples_per_round`] samples.
    pub rounds: usize,
    /// Latency samples per node per round (random partners).
    pub samples_per_round: usize,
    /// Use the SIGCOMM paper's *height vector* model: each node carries a
    /// non-negative height `h` modelling its access-link latency, and
    /// `dist(a, b) = |a − b| + h_a + h_b`. Improves accuracy on topologies
    /// with per-node access links (e.g. transit-stub). Note the cost-space
    /// placement machinery operates on the Euclidean part only; heights
    /// refine *latency estimation* (see
    /// [`VivaldiEmbedding::estimated_latency`]).
    pub use_height: bool,
    /// Height floor (ms) when the height model is on.
    pub min_height: f64,
    /// `Some(k)`: **landmark mode** — embed `k` landmark nodes with the
    /// full all-pairs gossip protocol, then place every remaining node
    /// against the (frozen) landmarks only, each on its own RNG stream
    /// ([`LandmarkPlacer::place_node`]). Cuts the warm-up's latency
    /// sampling from all `n` sources to `k` sources: under a lazy
    /// shortest-path backend only `k` Dijkstra rows are ever computed,
    /// instead of one per node. Costs accuracy — non-landmark nodes
    /// trilaterate against `k` references instead of gossiping with the
    /// whole overlay. The tests `landmark_embedding_is_accurate_on_embeddable_world`
    /// and `landmark_mode_touches_only_k_lazy_rows` pin both sides of the
    /// trade-off; the benchmark's `coords.embed_ms` probe times the embed.
    /// `None` (the default) runs the full decentralized protocol;
    /// `Some(k)` with `k ≥ n` falls back to it too.
    pub landmarks: Option<usize>,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dims: 2,
            ce: 0.25,
            cc: 0.25,
            rounds: 60,
            samples_per_round: 8,
            use_height: false,
            min_height: 0.1,
            landmarks: None,
        }
    }
}

impl VivaldiConfig {
    /// The one validity check, run by every entry point that embeds and by
    /// the runtime's config builder.
    ///
    /// # Panics
    ///
    /// Naming the field and the value, if `dims`, `rounds` or
    /// `samples_per_round` is zero (no rounds or no samples would serve
    /// every node its random start coordinate), if `dims` exceeds
    /// [`MAX_DIMS`] (the placement kernel's bound), if `ce` or `cc` is not
    /// finite and positive, if `min_height` is not finite and non-negative
    /// (a NaN floor poisons every height through `.max(min_height)`), or if
    /// `landmarks` is `Some(k)` with `k < 2`.
    pub fn validate(&self) {
        for (field, value) in [
            ("dims", self.dims),
            ("rounds", self.rounds),
            ("samples_per_round", self.samples_per_round),
        ] {
            assert!(value >= 1, "vivaldi.{field} must be at least 1, got {value}");
        }
        assert!(
            self.dims <= MAX_DIMS,
            "vivaldi.dims must be at most {MAX_DIMS}, got {}",
            self.dims
        );
        for (field, value) in [("ce", self.ce), ("cc", self.cc)] {
            assert!(
                value.is_finite() && value > 0.0,
                "vivaldi.{field} must be finite and positive, got {value}"
            );
        }
        assert!(
            self.min_height.is_finite() && self.min_height >= 0.0,
            "vivaldi.min_height must be finite and non-negative, got {}",
            self.min_height
        );
        if let Some(k) = self.landmarks {
            assert!(k >= 2, "vivaldi.landmarks must be at least 2, got {k}");
        }
    }

    /// The deterministic landmark draw for an `n`-node overlay, or `None`
    /// when landmark mode is off (or would fall back to the full
    /// protocol because `k ≥ n`). The same ids — in the same order — that
    /// [`VivaldiConfig::embed`] and
    /// [`VivaldiConfig::embed_landmarks_only`] use for this `(n, seed)`,
    /// so callers can pre-warm exactly the latency rows the embedding
    /// will demand.
    pub fn landmark_ids(&self, n: usize, seed: u64) -> Option<Vec<usize>> {
        self.validate();
        let k = self.landmarks.filter(|&k| k < n)?;
        Some(draw_landmarks(&mut derive_rng(seed, LANDMARK_STREAM), n, k))
    }

    /// Runs the protocol over `latency` and returns the converged
    /// embedding: the full decentralized gossip by default; in landmark
    /// mode, [`VivaldiConfig::embed_landmarks_only`] followed by
    /// [`LandmarkPlacer::place`] for every non-landmark on its own stream —
    /// the coordinate [`LandmarkPlacer::place_node`] gives it at a join.
    /// Deterministic in `seed`.
    pub fn embed<L: LatencyProvider>(&self, latency: &L, seed: u64) -> VivaldiEmbedding {
        self.validate();
        let n = latency.len();
        if self.landmarks.is_some_and(|k| k < n) {
            let placer = self.embed_landmarks_only(latency, seed);
            let placed: Vec<(NodeId, VivaldiNode)> = (0..n as u32)
                .map(NodeId)
                .filter(|v| !placer.landmarks.contains(&v.index()))
                .map(|v| (v, placer.place(latency, v, &mut placer.node_rng(v))))
                .collect();
            return placer.embedding(n, &placed);
        }
        // No landmarks, or k ≥ n: the landmark set would be the whole
        // overlay — the full protocol is both cheaper and more accurate.
        let members: Vec<usize> = (0..n).collect();
        let nodes = self.gossip(latency, &mut derive_rng(seed, GOSSIP_STREAM), &members);
        VivaldiEmbedding::from_states(n, self.dims, nodes.iter().enumerate())
    }

    /// Runs only the landmark half of the protocol and returns a
    /// [`LandmarkPlacer`]: the `k` deterministically drawn landmarks,
    /// frozen at their converged coordinates, ready to place individual
    /// nodes on demand via [`LandmarkPlacer::place_node`].
    ///
    /// This is the bring-up path for incremental deployments: instead of
    /// embedding all `n` coordinates up front (and touching `n` rows of
    /// the latency provider), the runtime embeds the landmarks once and
    /// places each node when it actually joins. [`VivaldiConfig::embed`]
    /// runs the same two steps for every node at once, so a node lands on
    /// the same coordinate whichever way it is placed.
    ///
    /// Latency is only ever queried **with a landmark as the source**
    /// (here and by every placement; the underlay is undirected, so rows
    /// are symmetric) — that is what caps a lazy backend's warm-up at `k`
    /// shortest-path rows total.
    ///
    /// Panics unless [`VivaldiConfig::landmarks`] is `Some(k)` with
    /// `2 ≤ k < n`.
    pub fn embed_landmarks_only<L: LatencyProvider>(
        &self,
        latency: &L,
        seed: u64,
    ) -> LandmarkPlacer {
        self.validate();
        let n = latency.len();
        let k = self.landmarks.expect("embed_landmarks_only requires VivaldiConfig::landmarks");
        assert!(k < n, "landmark set ({k}) must be smaller than the overlay ({n})");
        let mut rng = derive_rng(seed, LANDMARK_STREAM);
        let landmarks = draw_landmarks(&mut rng, n, k);
        let states = self.gossip(latency, &mut rng, &landmarks);
        LandmarkPlacer { config: self.clone(), seed, landmarks, states }
    }

    /// The one gossip loop: `rounds` rounds in which every member takes
    /// `samples_per_round` latency samples against uniformly drawn other
    /// members — all `n` nodes under the full protocol, the landmarks in
    /// landmark mode. All `n` nodes draw their random start first, in id
    /// order, members or not: the draws decide the members' coordinates,
    /// but only the members' states are kept, index-aligned with
    /// `members` (which must be distinct). A non-finite latency
    /// (partitioned pair) skips the sample.
    fn gossip<L: LatencyProvider, R: Rng + ?Sized>(
        &self,
        latency: &L,
        rng: &mut R,
        members: &[usize],
    ) -> Vec<VivaldiNode> {
        let mut by_id: Vec<(usize, usize)> = members.iter().copied().zip(0..).collect();
        by_id.sort_unstable();
        let mut starts = vec![None; members.len()];
        let mut skipped = vec![0.0; self.dims];
        let mut next = by_id.iter().peekable();
        for v in 0..latency.len() {
            match next.next_if(|&&(id, _)| id == v) {
                Some(&(_, at)) => starts[at] = Some(VivaldiNode::random_start(self, rng)),
                None => draw_start(rng, &mut skipped),
            }
        }
        let mut nodes: Vec<VivaldiNode> =
            starts.into_iter().map(|start| start.expect("members are node ids")).collect();
        if members.len() < 2 {
            return nodes;
        }
        for _round in 0..self.rounds {
            for (mi, &i) in members.iter().enumerate() {
                for _ in 0..self.samples_per_round {
                    let mj = gossip_partner(rng, mi, members.len());
                    let rtt = latency.latency(NodeId(i as u32), NodeId(members[mj] as u32));
                    if !rtt.is_finite() {
                        continue;
                    }
                    let remote = nodes[mj].clone();
                    nodes[mi].observe_with(&remote, rtt, self, rng);
                }
            }
        }
        nodes
    }
}

/// Deterministic landmark draw: `k` distinct node ids out of `n`,
/// consuming one full shuffle of the caller's RNG. Factored out so the
/// embedding and [`VivaldiConfig::landmark_ids`] can never drift apart.
fn draw_landmarks<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    ids.truncate(k);
    ids
}

/// Frozen landmark coordinates plus the Vivaldi configuration and the
/// seed — everything needed to place one node at a time against the
/// landmark set, long after the warm-up embedding ran. Produced by
/// [`VivaldiConfig::embed_landmarks_only`].
#[derive(Clone, Debug)]
pub struct LandmarkPlacer {
    config: VivaldiConfig,
    /// The seed the landmarks were embedded under; each node's placement
    /// stream derives from it.
    seed: u64,
    /// Landmark node ids, in draw order.
    landmarks: Vec<usize>,
    /// Converged landmark states, index-aligned with `landmarks`.
    states: Vec<VivaldiNode>,
}

impl LandmarkPlacer {
    /// The landmark node ids, in draw order (the same order
    /// [`VivaldiConfig::landmark_ids`] reports).
    pub fn landmark_ids(&self) -> &[usize] {
        &self.landmarks
    }

    /// Places one node against the frozen landmarks: `k` latency reads —
    /// one per landmark, each with the landmark as the source, so a lazy
    /// provider serves them from the `k` already-computed rows — then the
    /// kernel of [`LandmarkPlacer::place_from_rtts`] over those `k`
    /// values, drawing from `rng`.
    pub fn place<L: LatencyProvider, R: Rng + ?Sized>(
        &self,
        latency: &L,
        node: NodeId,
        rng: &mut R,
    ) -> VivaldiNode {
        let rtts: Vec<f64> =
            self.landmarks.iter().map(|&l| latency.latency(NodeId(l as u32), node)).collect();
        self.place_from_rtts(&rtts, rng)
    }

    /// Where `node` lands, given its latency from each landmark (draw
    /// order): the kernel on the node's own RNG stream, derived from the
    /// embedding seed and the node id alone — so neither the bring-up
    /// model, batching, join order nor thread count can move it.
    pub fn place_node(&self, node: NodeId, rtts: &[f64]) -> VivaldiNode {
        self.place_from_rtts(rtts, &mut self.node_rng(node))
    }

    fn node_rng(&self, node: NodeId) -> StdRng {
        derive_rng(self.seed, PLACE_STREAM ^ node.index() as u64)
    }

    /// A batch of [`LandmarkPlacer::place_node`] calls over latency rows
    /// read in place: `rows[li]` is landmark `li`'s row (draw order), so
    /// `nodes[j]`'s latency from it is `rows[li][nodes[j].index()]`.
    /// Consecutive nodes run through the kernel two at a time, each on its
    /// own stream, so every state equals the one `place_node` gives it;
    /// they come back in input order.
    pub fn place_nodes(&self, nodes: &[NodeId], rows: &[&[f64]]) -> Vec<VivaldiNode> {
        assert_eq!(rows.len(), self.landmarks.len(), "one row per landmark");
        dispatch(&self.config, Batch { placer: self, nodes, rows })
    }

    /// One lane of the placement kernel: a fresh start, then rounds ×
    /// samples steps for a single node whose latency from landmark `li`
    /// (draw order) is `rtts[li]`, drawing from `rng`. Pure — it reads only
    /// the frozen landmark states — so placements can run on any threads.
    pub fn place_from_rtts<R: Rng + ?Sized>(&self, rtts: &[f64], rng: &mut R) -> VivaldiNode {
        assert_eq!(rtts.len(), self.landmarks.len(), "one latency per landmark");
        dispatch(&self.config, OneLane { placer: self, rtts, rng })
    }

    /// The frozen landmark states in the kernel's fixed-size form.
    fn springs<const D: usize>(&self) -> Vec<Spring<D>> {
        self.states.iter().map(Spring::of).collect()
    }

    /// The placement kernel — the one non-landmark refinement loop. `L`
    /// nodes advance in lockstep, sample by sample: lane `l` starts fresh
    /// from `rngs[l]`, then each of its rounds × samples steps draws a
    /// landmark `li` from `rngs[l]` and, unless `rtts[l][li]` is not
    /// finite (an unreachable landmark skips the sample), observes it.
    /// Lanes share nothing but the frozen landmarks, so each performs the
    /// float operations and draws of a node placed alone, in the same
    /// order; running two at once only lets their dependency chains — the
    /// division and the square root of every step — overlap. Never
    /// inlined: one copy per lane count, dimension and height model serves
    /// every caller (it runs for thousands of steps a call).
    #[inline(never)]
    fn refine<const L: usize, const D: usize, const H: bool, R: Rng + ?Sized>(
        &self,
        landmarks: &[Spring<D>],
        rtts: [&[f64]; L],
        mut rngs: [&mut R; L],
    ) -> [Spring<D>; L] {
        let cfg = &self.config;
        let k = landmarks.len();
        let mut lanes = [Spring { coord: [0.0; D], height: 0.0, error: 0.0 }; L];
        for (lane, rng) in lanes.iter_mut().zip(&mut rngs) {
            *lane = Spring::start(cfg, &mut **rng);
        }
        for _round in 0..cfg.rounds {
            for _ in 0..cfg.samples_per_round {
                for l in 0..L {
                    let li = rngs[l].gen_range(0..k);
                    let rtt = rtts[l][li];
                    if rtt.is_finite() {
                        lanes[l].observe::<H, R>(&landmarks[li], rtt, cfg, &mut *rngs[l]);
                    }
                }
            }
        }
        lanes
    }

    /// The embedding of an `n`-node overlay whose landmarks sit at their
    /// frozen coordinates and whose `placed` nodes at theirs; every other
    /// node is a placeholder at the origin (height 0, error 1) — a node not
    /// yet placed is not yet mapped, so the placeholder is never served.
    pub fn embedding(&self, n: usize, placed: &[(NodeId, VivaldiNode)]) -> VivaldiEmbedding {
        let landmarks = self.landmarks.iter().copied().zip(&self.states);
        let placed = placed.iter().map(|(v, state)| (v.index(), state));
        VivaldiEmbedding::from_states(n, self.config.dims, landmarks.chain(placed))
    }
}

/// A computation over node states whose dimension `D` and height model `H`
/// are compile-time constants; [`dispatch`] picks them from a
/// configuration, so the kernel's coordinate loops unroll and the height
/// model's branches are resolved before its sample loop runs.
trait Lockstep {
    type Output;
    fn run<const D: usize, const H: bool>(self) -> Self::Output;
}

/// Runs `kernel` with `cfg.dims` and `cfg.use_height` as constants.
fn dispatch<K: Lockstep>(cfg: &VivaldiConfig, kernel: K) -> K::Output {
    macro_rules! arms {
        ($($d:literal)*) => {
            match (cfg.dims, cfg.use_height) {
                $(
                    ($d, false) => kernel.run::<$d, false>(),
                    ($d, true) => kernel.run::<$d, true>(),
                )*
                (dims, _) => panic!("vivaldi.dims must be in 1..={MAX_DIMS}, got {dims}"),
            }
        };
    }
    arms!(1 2 3 4 5 6 7 8 9 10)
}

/// [`LandmarkPlacer::place_nodes`]: pairs of nodes through two lanes, an
/// odd last node through one.
struct Batch<'a> {
    placer: &'a LandmarkPlacer,
    nodes: &'a [NodeId],
    rows: &'a [&'a [f64]],
}

impl Lockstep for Batch<'_> {
    type Output = Vec<VivaldiNode>;

    fn run<const D: usize, const H: bool>(self) -> Vec<VivaldiNode> {
        let Batch { placer, nodes, rows } = self;
        let landmarks = placer.springs::<D>();
        let k = landmarks.len();
        // One node's k latencies per lane, read node-major from the rows.
        let mut rtts = vec![0.0; 2 * k];
        let gather = |node: NodeId, rtts: &mut [f64]| {
            for (rtt, row) in rtts.iter_mut().zip(rows) {
                *rtt = row[node.index()];
            }
        };
        let mut out = Vec::with_capacity(nodes.len());
        let mut pairs = nodes.chunks_exact(2);
        for pair in &mut pairs {
            let (a, b) = rtts.split_at_mut(k);
            gather(pair[0], a);
            gather(pair[1], b);
            let rngs = [&mut placer.node_rng(pair[0]), &mut placer.node_rng(pair[1])];
            let lanes = placer.refine::<2, D, H, StdRng>(&landmarks, [a, b], rngs);
            out.extend(lanes.into_iter().map(Spring::to_node));
        }
        if let &[node] = pairs.remainder() {
            let a = &mut rtts[..k];
            gather(node, a);
            let [lane] =
                placer.refine::<1, D, H, StdRng>(&landmarks, [a], [&mut placer.node_rng(node)]);
            out.push(lane.to_node());
        }
        out
    }
}

/// [`LandmarkPlacer::place_from_rtts`]: one lane on the caller's stream.
struct OneLane<'a, R: ?Sized> {
    placer: &'a LandmarkPlacer,
    rtts: &'a [f64],
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> Lockstep for OneLane<'_, R> {
    type Output = VivaldiNode;

    fn run<const D: usize, const H: bool>(self) -> VivaldiNode {
        let OneLane { placer, rtts, rng } = self;
        let [lane] = placer.refine::<1, D, H, R>(&placer.springs(), [rtts], [rng]);
        lane.to_node()
    }
}

/// A node's state inside the placement kernel: [`VivaldiNode`] with the
/// coordinate in a fixed-size array.
#[derive(Clone, Copy)]
struct Spring<const D: usize> {
    coord: [f64; D],
    height: f64,
    error: f64,
}

impl<const D: usize> Spring<D> {
    fn of(state: &VivaldiNode) -> Self {
        let mut coord = [0.0; D];
        coord.copy_from_slice(&state.coord);
        Spring { coord, height: state.height, error: state.error }
    }

    fn to_node(self) -> VivaldiNode {
        VivaldiNode { coord: self.coord.to_vec(), height: self.height, error: self.error }
    }

    /// [`VivaldiNode::random_start`]: the same draws, the same state.
    fn start<R: Rng + ?Sized>(cfg: &VivaldiConfig, rng: &mut R) -> Self {
        let mut coord = [0.0; D];
        draw_start(rng, &mut coord);
        let height = if cfg.use_height { cfg.min_height } else { 0.0 };
        Spring { coord, height, error: 1.0 }
    }

    /// [`VivaldiNode::observe_with`] with the height model `H` a constant:
    /// the same float operations in the same order and the same draws.
    /// Without the height model the planar fraction is the constant 1.0,
    /// which the compiler folds away (multiplying by one is exact), and the
    /// height block is not emitted.
    #[inline(always)]
    fn observe<const H: bool, R: Rng + ?Sized>(
        &mut self,
        remote: &Self,
        rtt: f64,
        cfg: &VivaldiConfig,
        rng: &mut R,
    ) {
        debug_assert!(rtt.is_finite() && rtt >= 0.0);
        // `euclidean`'s sum of squares, in its order. Adding the first
        // square (+0.0 or positive) to -0.0 returns it unchanged, so the
        // compiler can drop the start value.
        let mut squares = -0.0;
        for d in 0..D {
            let diff = self.coord[d] - remote.coord[d];
            squares += diff * diff;
        }
        let planar = squares.sqrt();
        let dist = if H { planar + self.height + remote.height } else { planar };
        let w = if self.error + remote.error > 0.0 {
            self.error / (self.error + remote.error)
        } else {
            0.5
        };
        let es = if rtt > 1e-9 { (dist - rtt).abs() / rtt } else { 0.0 };
        self.error = (es * cfg.cc * w + self.error * (1.0 - cfg.cc * w)).clamp(0.0, 10.0);
        let push = cfg.ce * w * (rtt - dist);
        let mut planar_frac = 1.0;
        if H && dist > 1e-12 {
            let height_frac = (self.height + remote.height) / dist.max(1e-12);
            planar_frac = (1.0 - height_frac.min(1.0)).max(0.0);
            self.height = (self.height + push * height_frac).max(cfg.min_height);
        }
        if planar < 1e-12 {
            self.push_coincident(push, planar_frac, rng);
        } else {
            for d in 0..D {
                let x = &mut self.coord[d];
                *x += push * ((*x - remote.coord[d]) / planar) * planar_frac;
            }
        }
    }

    /// The coincident-points step of [`VivaldiNode::observe_with`]: a
    /// random direction, `D` draws.
    #[cold]
    fn push_coincident<R: Rng + ?Sized>(&mut self, push: f64, planar_frac: f64, rng: &mut R) {
        let mut dir = [0.0; D];
        for u in &mut dir {
            *u = rng.gen_range(-1.0..1.0);
        }
        let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        for (x, u) in self.coord.iter_mut().zip(dir) {
            *x += push * (u / norm) * planar_frac;
        }
    }
}

/// A random start coordinate: one uniform draw in `[-0.5, 0.5)` per
/// component, in order.
fn draw_start<R: Rng + ?Sized>(rng: &mut R, coord: &mut [f64]) {
    for x in coord {
        *x = rng.gen_range(-0.5..0.5);
    }
}

/// Per-node Vivaldi state.
#[derive(Clone, Debug)]
pub struct VivaldiNode {
    /// Current coordinate.
    pub coord: Vec<f64>,
    /// Height component (0 when the height model is off).
    pub height: f64,
    /// Local relative-error estimate in `[0, ~1]`; lower is more confident.
    pub error: f64,
}

impl VivaldiNode {
    /// A fresh node at a small random coordinate (symmetric starts at the
    /// exact origin make the force direction degenerate for every pair, so a
    /// tiny random jitter is the standard bootstrap), at the height floor
    /// when the height model is on.
    pub fn random_start<R: Rng + ?Sized>(cfg: &VivaldiConfig, rng: &mut R) -> Self {
        let mut coord = vec![0.0; cfg.dims];
        draw_start(rng, &mut coord);
        VivaldiNode { coord, height: if cfg.use_height { cfg.min_height } else { 0.0 }, error: 1.0 }
    }

    /// Processes one latency sample against a remote node (height model
    /// honoured when `cfg` enables it). `rtt` must be finite and
    /// non-negative.
    pub fn observe_with<R: Rng + ?Sized>(
        &mut self,
        remote: &VivaldiNode,
        rtt: f64,
        cfg: &VivaldiConfig,
        rng: &mut R,
    ) {
        debug_assert!(rtt.is_finite() && rtt >= 0.0);
        let planar = euclidean(&self.coord, &remote.coord);
        let dist = if cfg.use_height { planar + self.height + remote.height } else { planar };

        // Confidence-balanced sample weight.
        let w = if self.error + remote.error > 0.0 {
            self.error / (self.error + remote.error)
        } else {
            0.5
        };

        // Update the local error estimate with the sample's relative error.
        // Guard rtt≈0 (same host): treat relative error as 0 there.
        let es = if rtt > 1e-9 { (dist - rtt).abs() / rtt } else { 0.0 };
        self.error = (es * cfg.cc * w + self.error * (1.0 - cfg.cc * w)).clamp(0.0, 10.0);

        // Move along the unit vector away from (or toward) the remote. In
        // the height model, the "unit vector" of `(v, h)` scales the planar
        // part by `v/‖·‖` and pushes the height by `h_sum/‖·‖` (heights only
        // ever push *apart*; Dabek et al., §5.4).
        let push = cfg.ce * w * (rtt - dist);
        let mut planar_frac = 1.0;
        if cfg.use_height && dist > 1e-12 {
            let height_frac = (self.height + remote.height) / dist.max(1e-12);
            planar_frac = (1.0 - height_frac.min(1.0)).max(0.0);
            self.height = (self.height + push * height_frac).max(cfg.min_height);
        }
        // The direction `(self − remote) / planar` is written straight into
        // the update: no per-sample buffer.
        if planar < 1e-12 {
            // Coincident points: pick a random direction (rare; the one
            // case that needs every component before it can normalize).
            let dir: Vec<f64> = self.coord.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            for (x, u) in self.coord.iter_mut().zip(dir) {
                *x += push * (u / norm) * planar_frac;
            }
        } else {
            for (x, r) in self.coord.iter_mut().zip(&remote.coord) {
                *x += push * ((*x - r) / planar) * planar_frac;
            }
        }
    }
}

/// The finished embedding: one coordinate per node.
#[derive(Clone, Debug)]
pub struct VivaldiEmbedding {
    /// `coords[node]` = embedded coordinate.
    pub coords: Vec<Vec<f64>>,
    /// `heights[node]` — all zeros unless the height model was enabled.
    pub heights: Vec<f64>,
    /// Final per-node error estimates.
    pub errors: Vec<f64>,
}

impl VivaldiEmbedding {
    /// Number of embedded nodes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no node was embedded.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.coords.first().map_or(0, Vec::len)
    }

    /// Coordinate of one node.
    pub fn coord(&self, v: NodeId) -> &[f64] {
        &self.coords[v.index()]
    }

    /// Estimated latency: Euclidean distance between embedded coordinates,
    /// plus both heights under the height model.
    pub fn estimated_latency(&self, a: NodeId, b: NodeId) -> f64 {
        euclidean(self.coord(a), self.coord(b)) + self.heights[a.index()] + self.heights[b.index()]
    }

    /// Builds an *exact* embedding directly from ground-truth points —
    /// used by tests and by experiments that want to isolate placement
    /// behaviour from embedding error.
    pub fn exact(points: Vec<Vec<f64>>) -> Self {
        let n = points.len();
        VivaldiEmbedding { coords: points, heights: vec![0.0; n], errors: vec![0.0; n] }
    }

    /// The one embedding writer: `n` nodes of `dims` dimensions, each node
    /// of `states` written from its state, every other one a placeholder
    /// at the origin with height 0 and error 1.
    fn from_states<'a>(
        n: usize,
        dims: usize,
        states: impl IntoIterator<Item = (usize, &'a VivaldiNode)>,
    ) -> Self {
        let mut embedding = VivaldiEmbedding {
            coords: vec![vec![0.0; dims]; n],
            heights: vec![0.0; n],
            errors: vec![1.0; n],
        };
        for (v, state) in states {
            embedding.coords[v].copy_from_slice(&state.coord);
            embedding.heights[v] = state.height;
            embedding.errors[v] = state.error;
        }
        embedding
    }
}

/// Draws a uniform gossip partner for node `i` among the other `n - 1`
/// nodes by rejection sampling. Remapping a self-draw to a fixed neighbour
/// (the old `(i + 1) % n`) gave that neighbour twice the probability of any
/// other partner — a systematic ring-successor bias in the embedding.
/// Still deterministic in the caller's seeded RNG; the expected number of
/// draws per call is `n / (n - 1) ≤ 2` (i.e. `1 / (n - 1)` expected
/// redraws).
pub fn gossip_partner<R: Rng + ?Sized>(rng: &mut R, i: usize, n: usize) -> usize {
    // Hard assert: with n <= 1 the rejection loop below could never
    // terminate, so fail loudly instead of hanging in release builds.
    assert!(n >= 2, "a partner requires at least two nodes, got {n}");
    loop {
        let j = rng.gen_range(0..n);
        if j != i {
            return j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::relative_errors;
    use proptest::prelude::*;
    use sbon_netsim::latency::EuclideanLatency;
    use sbon_netsim::metrics::Summary;
    use sbon_netsim::rng::rng_from_seed;

    fn euclidean_world(n: usize, seed: u64) -> EuclideanLatency {
        let mut rng = rng_from_seed(seed);
        EuclideanLatency::new(
            (0..n).map(|_| vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]).collect(),
        )
    }

    #[test]
    fn embeds_exactly_embeddable_world_well() {
        let world = euclidean_world(40, 1);
        let emb = VivaldiConfig { rounds: 120, ..Default::default() }.embed(&world, 1);
        let errs = relative_errors(&emb, &world, 2000, 1);
        let s = Summary::of(&errs);
        assert!(s.p50 < 0.05, "median rel err {}", s.p50);
    }

    #[test]
    fn deterministic_in_seed() {
        let world = euclidean_world(20, 2);
        let cfg = VivaldiConfig::default();
        let a = cfg.embed(&world, 7);
        let b = cfg.embed(&world, 7);
        assert_eq!(a.coords, b.coords);
        let c = cfg.embed(&world, 8);
        assert_ne!(a.coords, c.coords);
    }

    #[test]
    fn error_estimates_fall_below_start() {
        let world = euclidean_world(30, 3);
        let emb = VivaldiConfig::default().embed(&world, 3);
        let mean_err = emb.errors.iter().sum::<f64>() / emb.errors.len() as f64;
        assert!(mean_err < 0.5, "mean node error {mean_err} should drop from 1.0");
    }

    #[test]
    fn more_rounds_do_not_hurt() {
        let world = euclidean_world(30, 4);
        let short = VivaldiConfig { rounds: 5, ..Default::default() }.embed(&world, 4);
        let long = VivaldiConfig { rounds: 150, ..Default::default() }.embed(&world, 4);
        let e_short = Summary::of(&relative_errors(&short, &world, 1000, 2)).p50;
        let e_long = Summary::of(&relative_errors(&long, &world, 1000, 2)).p50;
        assert!(e_long <= e_short * 1.05, "short={e_short} long={e_long}");
    }

    #[test]
    fn single_node_embedding_is_fine() {
        let world = EuclideanLatency::new(vec![vec![0.0, 0.0]]);
        let emb = VivaldiConfig::default().embed(&world, 0);
        assert_eq!(emb.len(), 1);
        assert_eq!(emb.dims(), 2);
    }

    #[test]
    fn exact_embedding_has_zero_estimated_error() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0]];
        let emb = VivaldiEmbedding::exact(pts);
        assert_eq!(emb.estimated_latency(NodeId(0), NodeId(1)), 5.0);
        assert_eq!(emb.errors, vec![0.0, 0.0]);
    }

    #[test]
    fn observe_moves_toward_distant_remote() {
        let mut rng = rng_from_seed(5);
        let mut a = VivaldiNode { coord: vec![0.0, 0.0], height: 0.0, error: 0.5 };
        let b = VivaldiNode { coord: vec![10.0, 0.0], height: 0.0, error: 0.5 };
        // True rtt 2ms but embedded distance 10 → the spring is compressed
        // and must push a *away* from b... wait: force = rtt − dist = −8,
        // direction = a − b = (−1, 0), so a moves +x toward b. Verify that.
        a.observe_with(&b, 2.0, &VivaldiConfig::default(), &mut rng);
        assert!(a.coord[0] > 0.0, "a should move toward b, got {:?}", a.coord);
    }

    #[test]
    fn height_model_helps_on_access_link_topology() {
        // Ground truth: 2-D positions plus a per-node access-link latency —
        // exactly what the height model represents and a plain Euclidean
        // embedding cannot.
        use sbon_netsim::latency::LatencyMatrix;
        let mut rng = rng_from_seed(11);
        let n = 40;
        let pos: Vec<(f64, f64)> =
            (0..n).map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))).collect();
        let access: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..20.0)).collect();
        let mut m = LatencyMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = pos[i].0 - pos[j].0;
                let dy = pos[i].1 - pos[j].1;
                let d = (dx * dx + dy * dy).sqrt() + access[i] + access[j];
                m.set(NodeId(i as u32), NodeId(j as u32), d);
            }
        }
        let flat = VivaldiConfig { rounds: 120, ..Default::default() }.embed(&m, 11);
        let tall =
            VivaldiConfig { rounds: 120, use_height: true, ..Default::default() }.embed(&m, 11);
        let err = |e: &VivaldiEmbedding| Summary::of(&relative_errors(e, &m, 2000, 3)).p50;
        let (ef, et) = (err(&flat), err(&tall));
        assert!(et < ef, "height model should win on access-link truth: {et} vs {ef}");
        assert!(tall.heights.iter().all(|&h| h >= 0.1), "heights respect the floor");
    }

    #[test]
    fn heights_are_zero_without_the_model() {
        let world = euclidean_world(10, 12);
        let emb = VivaldiConfig::default().embed(&world, 12);
        assert!(emb.heights.iter().all(|&h| h == 0.0));
    }

    /// Frequency test for the gossip partner distribution: every `j != i`
    /// must be drawn (close to) uniformly — in particular the ring successor
    /// `i + 1` must NOT appear at double frequency, which the old
    /// `(i + 1) % n` self-sample remap caused.
    #[test]
    fn gossip_partner_distribution_is_uniform() {
        let n = 8;
        let i = 3;
        let draws = 70_000;
        let mut counts = vec![0usize; n];
        let mut rng = rng_from_seed(42);
        for _ in 0..draws {
            counts[gossip_partner(&mut rng, i, n)] += 1;
        }
        assert_eq!(counts[i], 0, "a node never samples itself");
        let expected = draws as f64 / (n - 1) as f64;
        for (j, &c) in counts.iter().enumerate() {
            if j == i {
                continue;
            }
            let ratio = c as f64 / expected;
            // ±10% is > 5σ slack at these counts; the old remap put the
            // successor at ratio 2.0.
            assert!((0.9..1.1).contains(&ratio), "partner {j}: count {c}, ratio {ratio:.3}");
        }
        let successor = (i + 1) % n;
        assert!(
            (counts[successor] as f64) < expected * 1.1,
            "ring successor must not be over-sampled: {}",
            counts[successor]
        );
    }

    #[test]
    fn landmark_embedding_is_accurate_on_embeddable_world() {
        let world = euclidean_world(60, 21);
        let full = VivaldiConfig { rounds: 120, ..Default::default() }.embed(&world, 21);
        let lm = VivaldiConfig { rounds: 120, landmarks: Some(16), ..Default::default() }
            .embed(&world, 21);
        let err = |e: &VivaldiEmbedding| Summary::of(&relative_errors(e, &world, 2000, 4)).p50;
        let (ef, el) = (err(&full), err(&lm));
        // Landmark placement trades accuracy for warm-up cost; on an
        // exactly-embeddable world it must still be a *good* embedding.
        assert!(el < 0.15, "landmark median rel err {el} too high (full: {ef})");
    }

    #[test]
    fn landmark_embedding_is_deterministic_in_seed() {
        let world = euclidean_world(30, 22);
        let cfg = VivaldiConfig { landmarks: Some(8), ..Default::default() };
        let a = cfg.embed(&world, 5);
        let b = cfg.embed(&world, 5);
        assert_eq!(a.coords, b.coords);
        let c = cfg.embed(&world, 6);
        assert_ne!(a.coords, c.coords);
    }

    #[test]
    fn oversized_landmark_set_falls_back_to_full_protocol() {
        let world = euclidean_world(20, 23);
        let full = VivaldiConfig::default().embed(&world, 9);
        let lm = VivaldiConfig { landmarks: Some(20), ..Default::default() }.embed(&world, 9);
        // k ≥ n: bit-identical to the full protocol (same rng stream).
        assert_eq!(full.coords, lm.coords);
    }

    #[test]
    #[should_panic(expected = "vivaldi.landmarks must be at least 2, got 1")]
    fn single_landmark_is_rejected() {
        let world = euclidean_world(10, 24);
        VivaldiConfig { landmarks: Some(1), ..Default::default() }.embed(&world, 0);
    }

    /// The point of landmark mode: under a lazy shortest-path backend the
    /// warm-up demands exactly `k` Dijkstra rows — not one per node.
    #[test]
    fn landmark_mode_touches_only_k_lazy_rows() {
        use sbon_netsim::lazy::LazyLatency;
        use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
        let topo = generate(&TransitStubConfig::with_total_nodes(80), 25);
        let n = topo.num_nodes();
        let k = 8;
        let lazy = LazyLatency::new(topo.graph.clone());
        let emb = VivaldiConfig { landmarks: Some(k), ..Default::default() }.embed(&lazy, 25);
        assert_eq!(emb.len(), n);
        let rows = lazy.stats().rows_computed;
        assert_eq!(rows, k as u64, "landmark warm-up must compute exactly k rows");

        // The full protocol on the same world touches every row.
        let lazy_full = LazyLatency::new(topo.graph.clone());
        VivaldiConfig::default().embed(&lazy_full, 25);
        assert_eq!(lazy_full.stats().rows_computed, n as u64);
    }

    #[test]
    fn landmark_mode_supports_the_height_model() {
        let world = euclidean_world(40, 26);
        let emb = VivaldiConfig { landmarks: Some(10), use_height: true, ..Default::default() }
            .embed(&world, 26);
        assert!(emb.heights.iter().all(|&h| h >= 0.1), "heights respect the floor");
    }

    /// One answer for where a node lands: the batch embedding is the
    /// incremental path — the landmarks' frozen states, and every other
    /// node placed by `place` on the placer's per-node stream — bit for bit,
    /// coordinate, height and error, height model on and off.
    #[test]
    fn embed_landmarks_only_matches_batch_landmark_coords() {
        let world = euclidean_world(50, 31);
        for use_height in [false, true] {
            let cfg = VivaldiConfig { landmarks: Some(12), use_height, ..Default::default() };
            let batch = cfg.embed(&world, 31);
            let placer = cfg.embed_landmarks_only(&world, 31);
            let ids = cfg.landmark_ids(50, 31).expect("landmark mode active");
            assert_eq!(placer.landmark_ids(), &ids[..]);
            for v in (0..50u32).map(NodeId) {
                let state = match ids.iter().position(|&l| l == v.index()) {
                    Some(idx) => placer.states[idx].clone(),
                    None => placer.place(&world, v, &mut placer.node_rng(v)),
                };
                let embedded = VivaldiNode {
                    coord: batch.coords[v.index()].clone(),
                    height: batch.heights[v.index()],
                    error: batch.errors[v.index()],
                };
                assert_eq!(bits(&embedded), bits(&state), "node {v:?} lands apart");
            }
        }
    }

    /// `VivaldiConfig::validate` guards every entry point: a config that
    /// would embed nothing, or poison every step, is refused by name.
    #[test]
    #[should_panic(expected = "vivaldi.rounds must be at least 1, got 0")]
    fn embed_landmarks_only_rejects_zero_rounds() {
        let world = euclidean_world(20, 34);
        VivaldiConfig { rounds: 0, landmarks: Some(4), ..Default::default() }
            .embed_landmarks_only(&world, 0);
    }

    #[test]
    #[should_panic(expected = "vivaldi.ce must be finite and positive, got NaN")]
    fn embed_landmarks_only_rejects_nan_ce() {
        let world = euclidean_world(20, 35);
        VivaldiConfig { ce: f64::NAN, landmarks: Some(4), ..Default::default() }
            .embed_landmarks_only(&world, 0);
    }

    #[test]
    #[should_panic(expected = "vivaldi.min_height must be finite and non-negative, got NaN")]
    fn embed_rejects_nan_min_height() {
        let world = euclidean_world(10, 36);
        VivaldiConfig { use_height: true, min_height: f64::NAN, ..Default::default() }
            .embed(&world, 0);
    }

    #[test]
    #[should_panic(expected = "vivaldi.min_height must be finite and non-negative, got inf")]
    fn landmark_ids_rejects_infinite_min_height() {
        VivaldiConfig { min_height: f64::INFINITY, landmarks: Some(4), ..Default::default() }
            .landmark_ids(20, 0);
    }

    #[test]
    #[should_panic(expected = "vivaldi.min_height must be finite and non-negative, got -1")]
    fn embed_landmarks_only_rejects_negative_min_height() {
        let world = euclidean_world(20, 37);
        VivaldiConfig { min_height: -1.0, landmarks: Some(4), ..Default::default() }
            .embed_landmarks_only(&world, 0);
    }

    #[test]
    fn landmark_ids_is_none_when_mode_inactive() {
        let cfg = VivaldiConfig::default();
        assert!(cfg.landmark_ids(50, 1).is_none(), "no landmark mode");
        let oversized = VivaldiConfig { landmarks: Some(50), ..Default::default() };
        assert!(oversized.landmark_ids(50, 1).is_none(), "k >= n falls back to full protocol");
    }

    /// Join-time placement is deterministic in its RNG and accurate enough
    /// to serve as a coordinate for cost-space placement.
    #[test]
    fn place_is_deterministic_and_accurate() {
        let world = euclidean_world(60, 32);
        let cfg = VivaldiConfig { rounds: 120, landmarks: Some(16), ..Default::default() };
        let placer = cfg.embed_landmarks_only(&world, 32);
        let landmark_set: std::collections::BTreeSet<usize> =
            placer.landmark_ids().iter().copied().collect();
        let joiners: Vec<usize> = (0..60).filter(|i| !landmark_set.contains(i)).collect();
        // Ordered map: the pairwise-error loop below iterates it, and a
        // float error sum must not depend on hash order.
        let mut placed = std::collections::BTreeMap::new();
        for &i in &joiners {
            let a = placer.place(&world, NodeId(i as u32), &mut derive_rng(99, i as u64));
            let b = placer.place(&world, NodeId(i as u32), &mut derive_rng(99, i as u64));
            assert_eq!(a.coord, b.coord, "same RNG, same placement");
            placed.insert(i, a);
        }
        // Pairwise error between *placed* nodes (neither saw the other —
        // both trilaterated off the landmarks alone) stays moderate on an
        // exactly-embeddable world.
        let mut errs = Vec::new();
        for (ai, a) in &placed {
            for (bi, b) in &placed {
                if ai >= bi {
                    continue;
                }
                let truth = world.latency(NodeId(*ai as u32), NodeId(*bi as u32));
                if truth < 1.0 {
                    continue;
                }
                errs.push((euclidean(&a.coord, &b.coord) - truth).abs() / truth);
            }
        }
        let p50 = Summary::of(&errs).p50;
        assert!(p50 < 0.25, "median pairwise rel err of placed nodes: {p50}");
    }

    /// Placement must demand no latency rows beyond the `k` landmark rows
    /// the phase-1 embedding already computed.
    #[test]
    fn place_touches_only_landmark_lazy_rows() {
        use sbon_netsim::lazy::LazyLatency;
        use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
        let topo = generate(&TransitStubConfig::with_total_nodes(80), 33);
        let k = 8;
        let lazy = LazyLatency::new(topo.graph.clone());
        let cfg = VivaldiConfig { landmarks: Some(k), ..Default::default() };
        let placer = cfg.embed_landmarks_only(&lazy, 33);
        assert_eq!(lazy.stats().rows_computed, k as u64);
        for i in 0..20u32 {
            placer.place(&lazy, NodeId(i), &mut derive_rng(7, u64::from(i)));
        }
        assert_eq!(
            lazy.stats().rows_computed,
            k as u64,
            "placement must be served entirely from landmark rows"
        );
    }

    /// A provider with one node cut off: every latency to or from `cut`
    /// reads ∞ — an unreachable landmark.
    struct Severed<'a, L> {
        inner: &'a L,
        cut: Option<NodeId>,
    }

    impl<L: LatencyProvider> LatencyProvider for Severed<'_, L> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn latency(&self, a: NodeId, b: NodeId) -> f64 {
            if a != b && (self.cut == Some(a) || self.cut == Some(b)) {
                return f64::INFINITY;
            }
            self.inner.latency(a, b)
        }
    }

    fn bits(v: &VivaldiNode) -> (Vec<u64>, u64, u64) {
        (v.coord.iter().map(|x| x.to_bits()).collect(), v.height.to_bits(), v.error.to_bits())
    }

    /// The read-per-sample loop `place` was before it became gather +
    /// kernel: the reference the kernel is pinned bit-identical to.
    fn place_reading_every_sample<L: LatencyProvider, R: Rng + ?Sized>(
        placer: &LandmarkPlacer,
        latency: &L,
        node: NodeId,
        rng: &mut R,
    ) -> VivaldiNode {
        let cfg = &placer.config;
        let k = placer.landmarks.len();
        let mut state = VivaldiNode::random_start(cfg, rng);
        for _round in 0..cfg.rounds {
            for _ in 0..cfg.samples_per_round {
                let li = rng.gen_range(0..k);
                let rtt = latency.latency(NodeId(placer.landmarks[li] as u32), node);
                if !rtt.is_finite() {
                    continue;
                }
                state.observe_with(&placer.states[li], rtt, cfg, rng);
            }
        }
        state
    }

    /// Landmark `li`'s row of `latency`, read one value at a time.
    fn landmark_rows<L: LatencyProvider>(placer: &LandmarkPlacer, latency: &L) -> Vec<Vec<f64>> {
        let landmark = |l: usize| NodeId(l as u32);
        let row =
            |l| (0..latency.len() as u32).map(move |v| latency.latency(landmark(l), NodeId(v)));
        placer.landmarks.iter().map(|&l| row(l).collect()).collect()
    }

    /// Every non-landmark node placed four ways — the batch kernel over rows
    /// read from `fast`, `place_node` on its own stream, `place` on `fast`
    /// with another stream, and the read-per-sample reference on `truth`
    /// with the same streams.
    fn placements_match_reference<A: LatencyProvider, B: LatencyProvider>(
        placer: &LandmarkPlacer,
        fast: &A,
        truth: &B,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let nodes: Vec<NodeId> = (0..fast.len())
            .filter(|i| !placer.landmark_ids().contains(i))
            .map(|i| NodeId(i as u32))
            .collect();
        let rows = landmark_rows(placer, fast);
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let batch = placer.place_nodes(&nodes, &rows);
        prop_assert_eq!(batch.len(), nodes.len());
        for (&node, state) in nodes.iter().zip(&batch) {
            let reference =
                place_reading_every_sample(placer, truth, node, &mut placer.node_rng(node));
            let rtts: Vec<f64> = rows.iter().map(|row| row[node.index()]).collect();
            prop_assert_eq!(bits(state), bits(&reference));
            prop_assert_eq!(bits(&placer.place_node(node, &rtts)), bits(&reference));
            let rng = || derive_rng(seed, u64::from(node.0));
            let reference = bits(&place_reading_every_sample(placer, truth, node, &mut rng()));
            prop_assert_eq!(bits(&placer.place(fast, node, &mut rng())), reference);
        }
        Ok(())
    }

    /// Latencies served from explicit landmark rows: `rows[li][v]` is the
    /// latency between landmark `li` (draw order) and node `v`.
    struct FromRows<'a> {
        landmarks: &'a [usize],
        rows: &'a [Vec<f64>],
    }

    impl LatencyProvider for FromRows<'_> {
        fn len(&self) -> usize {
            self.rows[0].len()
        }

        fn latency(&self, a: NodeId, b: NodeId) -> f64 {
            let li = self.landmarks.iter().position(|&l| l == a.index()).expect("a landmark");
            self.rows[li][b.index()]
        }
    }

    /// The batch kernel over hand-made rows, pinned to the read-per-sample
    /// reference: rows of random latencies, some exactly zero, some (with
    /// `nonfinite`) infinite or NaN — skipped samples — and (with
    /// `coincident`) the first node's first landmark moved onto its start,
    /// so its first sample takes the coincident-points step, whose
    /// direction draws shift the rest of that lane's stream.
    fn batch_matches_reference(
        seed: u64,
        batch: usize,
        dims: usize,
        use_height: bool,
        nonfinite: bool,
        coincident: bool,
    ) -> Result<(), TestCaseError> {
        let (n, k) = (24, 6);
        let cfg =
            VivaldiConfig { dims, use_height, rounds: 6, landmarks: Some(k), ..Default::default() };
        let mut placer = cfg.embed_landmarks_only(&euclidean_world(n, seed), seed);
        let mut rng = rng_from_seed(seed);
        let mut rows: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 if nonfinite => f64::INFINITY,
                        2 if nonfinite => f64::NAN,
                        _ => rng.gen_range(0.0..100.0),
                    })
                    .collect()
            })
            .collect();
        let mut nodes: Vec<NodeId> =
            (0..n).filter(|i| !placer.landmarks.contains(i)).map(|i| NodeId(i as u32)).collect();
        nodes.shuffle(&mut rng);
        nodes.truncate(batch);
        if coincident {
            let node = nodes[0];
            let mut rng = placer.node_rng(node);
            let mut state = VivaldiNode::random_start(&cfg, &mut rng);
            let li = rng.gen_range(0..k);
            placer.states[li].coord = state.coord.clone();
            rows[li][node.index()] = 5.0;
            // The step draws a direction: the stream moves on by `dims`
            // draws more than an ordinary step's none.
            let mut ordinary = rng.clone();
            state.observe_with(&placer.states[li].clone(), 5.0, &cfg, &mut rng);
            for _ in 0..dims {
                ordinary.gen::<u64>();
            }
            prop_assert_eq!(rng.gen::<u64>(), ordinary.gen::<u64>());
        }
        let lent: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let placed = placer.place_nodes(&nodes, &lent);
        prop_assert_eq!(placed.len(), nodes.len());
        let truth = FromRows { landmarks: &placer.landmarks, rows: &rows };
        for (&node, state) in nodes.iter().zip(&placed) {
            let reference =
                place_reading_every_sample(&placer, &truth, node, &mut placer.node_rng(node));
            prop_assert_eq!(bits(state), bits(&reference));
        }
        Ok(())
    }

    /// Every dimension `validate` accepts runs through the kernel.
    #[test]
    fn every_accepted_dimension_places_like_the_reference() {
        for dims in 1..=MAX_DIMS {
            VivaldiConfig { dims, ..Default::default() }.validate();
            for use_height in [false, true] {
                batch_matches_reference(
                    u64::try_from(dims).unwrap(),
                    3,
                    dims,
                    use_height,
                    true,
                    true,
                )
                .unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "vivaldi.dims must be at most 10, got 11")]
    fn dims_beyond_the_kernel_bound_are_rejected() {
        VivaldiConfig { dims: MAX_DIMS + 1, ..Default::default() }.validate();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        /// The batch kernel is the read-per-sample loop, bit for bit
        /// (coord, height, error): batches of 1–9 nodes (so the last pair
        /// is sometimes half full) × `dims` 1–10 × height model on/off ×
        /// non-finite latencies × the coincident-points step.
        #[test]
        fn batch_kernel_equals_reading_every_sample(
            (seed, batch, dims, flags) in (0u64..u64::MAX, 1usize..10, 1usize..11, 0u8..8)
        ) {
            batch_matches_reference(seed, batch, dims, flags & 1 != 0, flags & 2 != 0, flags & 4 != 0)?;
        }

        /// Batch and one-lane kernels are the read-per-sample loop, bit for bit (coord,
        /// height, error): random worlds × seeds × height model on/off ×
        /// one unreachable landmark.
        #[test]
        fn place_equals_reading_every_sample_on_euclidean_worlds(
            (seed, n, flags) in (0u64..u64::MAX, 12usize..48, 0u8..4)
        ) {
            let cfg = VivaldiConfig {
                rounds: 12,
                landmarks: Some(6),
                use_height: flags & 1 != 0,
                ..Default::default()
            };
            let world = euclidean_world(n, seed);
            let ids = cfg.landmark_ids(n, seed).expect("landmark mode active");
            let cut = (flags & 2 != 0).then(|| NodeId(ids[seed as usize % ids.len()] as u32));
            let world = Severed { inner: &world, cut };
            let placer = cfg.embed_landmarks_only(&world, seed);
            placements_match_reference(&placer, &world, &world, seed)?;
        }

        /// The same pin on a lazy provider whose landmark rows are all
        /// stale when the gather runs (a delta batch is pending): the
        /// reference reads the dense matrix of the mutated graph.
        #[test]
        fn place_equals_reading_every_sample_on_stale_lazy_rows(
            (seed, n, flags) in (0u64..u64::MAX, 40usize..90, 0u8..4)
        ) {
            use sbon_netsim::dijkstra::all_pairs_latency;
            use sbon_netsim::graph::EdgeId;
            use sbon_netsim::lazy::LazyLatency;
            use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
            let cfg = VivaldiConfig {
                rounds: 12,
                landmarks: Some(6),
                use_height: flags & 1 != 0,
                ..Default::default()
            };
            let topo = generate(&TransitStubConfig::with_total_nodes(n), seed);
            let n = topo.num_nodes();
            let ids = cfg.landmark_ids(n, seed).expect("landmark mode active");
            let cut = (flags & 2 != 0).then(|| NodeId(ids[seed as usize % ids.len()] as u32));
            let mut lazy = LazyLatency::new(topo.graph.clone());
            let placer = cfg.embed_landmarks_only(&Severed { inner: &lazy, cut }, seed);
            let mut rng = rng_from_seed(seed);
            let m = lazy.graph().num_edges();
            let batch: Vec<(EdgeId, f64)> = (0..8)
                .map(|_| {
                    let e = EdgeId(rng.gen_range(0..m) as u32);
                    (e, lazy.graph().edge(e).latency_ms * rng.gen_range(0.5..2.0))
                })
                .collect();
            lazy.apply_edge_deltas(&batch);
            // `Severed` never reads the cut landmark's row: it is not resident.
            prop_assert_eq!(lazy.rows_stale(), ids.len() - usize::from(cut.is_some()));
            let truth = all_pairs_latency(lazy.graph());
            placements_match_reference(
                &placer,
                &Severed { inner: &lazy, cut },
                &Severed { inner: &truth, cut },
                seed,
            )?;
            prop_assert_eq!(lazy.rows_stale(), 0);
        }
    }

    #[test]
    fn observe_handles_coincident_coordinates() {
        let mut rng = rng_from_seed(6);
        let mut a = VivaldiNode { coord: vec![1.0, 1.0], height: 0.0, error: 1.0 };
        let b = VivaldiNode { coord: vec![1.0, 1.0], height: 0.0, error: 1.0 };
        a.observe_with(&b, 5.0, &VivaldiConfig::default(), &mut rng);
        // Must have moved off the coincident point in SOME direction.
        assert!(euclidean(&a.coord, &b.coord) > 0.0);
    }
}
