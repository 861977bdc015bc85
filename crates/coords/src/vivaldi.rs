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
    /// every node its random start coordinate), if `ce` or `cc` is not
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
        let nodes = self.gossip(latency, &mut rng, &landmarks);
        let states = landmarks.iter().map(|&l| nodes[l].clone()).collect();
        LandmarkPlacer { config: self.clone(), seed, landmarks, states }
    }

    /// The one gossip loop: `rounds` rounds in which every member takes
    /// `samples_per_round` latency samples against uniformly drawn other
    /// members — all `n` nodes under the full protocol, the landmarks in
    /// landmark mode. All `n` nodes draw their random start first, members
    /// or not. A non-finite latency (partitioned pair) skips the sample.
    fn gossip<L: LatencyProvider, R: Rng + ?Sized>(
        &self,
        latency: &L,
        rng: &mut R,
        members: &[usize],
    ) -> Vec<VivaldiNode> {
        let mut nodes: Vec<VivaldiNode> =
            (0..latency.len()).map(|_| VivaldiNode::random_start(self, rng)).collect();
        if members.len() < 2 {
            return nodes;
        }
        for _round in 0..self.rounds {
            for (mi, &i) in members.iter().enumerate() {
                for _ in 0..self.samples_per_round {
                    let j = members[gossip_partner(rng, mi, members.len())];
                    let rtt = latency.latency(NodeId(i as u32), NodeId(j as u32));
                    if !rtt.is_finite() {
                        continue;
                    }
                    let remote = nodes[j].clone();
                    nodes[i].observe_with(&remote, rtt, self, rng);
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
    /// rounds × samples refinement of [`LandmarkPlacer::place_from_rtts`]
    /// over those `k` values, drawing from `rng`.
    pub fn place<L: LatencyProvider, R: Rng + ?Sized>(
        &self,
        latency: &L,
        node: NodeId,
        rng: &mut R,
    ) -> VivaldiNode {
        self.place_from_rtts(&self.gather_rtts(latency, &[node]), rng)
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

    /// The latency reads of a batch of placements, as one flat
    /// `nodes × k` table: `table[j * k + li]` is the latency from landmark
    /// `li` (draw order) to `nodes[j]`, so `chunks(k)` yields what
    /// [`LandmarkPlacer::place_from_rtts`] takes per node. Reads run
    /// landmark-major — all of one landmark's row before the next — and
    /// always with the landmark as the source: only landmark rows are ever
    /// demanded from the provider, and a stale row is repaired by its
    /// first read.
    pub fn gather_rtts<L: LatencyProvider>(&self, latency: &L, nodes: &[NodeId]) -> Vec<f64> {
        let k = self.landmarks.len();
        let mut table = vec![0.0; nodes.len() * k];
        for (li, &l) in self.landmarks.iter().enumerate() {
            for (j, &node) in nodes.iter().enumerate() {
                table[j * k + li] = latency.latency(NodeId(l as u32), node);
            }
        }
        table
    }

    /// The placement kernel — the one non-landmark refinement loop: a
    /// fresh start, then rounds × samples steps for a single node whose
    /// latency from landmark `li` (draw order) is `rtts[li]`. Each sample
    /// draws its landmark from `rng`; a non-finite latency (unreachable
    /// landmark) skips the sample. Pure — it reads only the frozen
    /// landmark states — so a batch of placements can run on any threads.
    pub fn place_from_rtts<R: Rng + ?Sized>(&self, rtts: &[f64], rng: &mut R) -> VivaldiNode {
        let cfg = &self.config;
        let k = self.landmarks.len();
        assert_eq!(rtts.len(), k, "one latency per landmark");
        let mut state = VivaldiNode::random_start(cfg, rng);
        for _round in 0..cfg.rounds {
            for _ in 0..cfg.samples_per_round {
                let li = rng.gen_range(0..k);
                let rtt = rtts[li];
                if !rtt.is_finite() {
                    continue;
                }
                state.observe_with(&self.states[li], rtt, cfg, rng);
            }
        }
        state
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
        VivaldiNode {
            coord: (0..cfg.dims).map(|_| rng.gen_range(-0.5..0.5)).collect(),
            height: if cfg.use_height { cfg.min_height } else { 0.0 },
            error: 1.0,
        }
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
    /// kernel: the reference the split is pinned bit-identical to.
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

    /// Every non-landmark node placed three ways — one batch gather over
    /// `fast` fed to the kernel chunk by chunk, `place` on `fast`, and the
    /// read-per-sample reference on `truth` — with the same per-node RNG.
    fn placements_match_reference<A: LatencyProvider, B: LatencyProvider>(
        placer: &LandmarkPlacer,
        fast: &A,
        truth: &B,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let k = placer.landmark_ids().len();
        let nodes: Vec<NodeId> = (0..fast.len())
            .filter(|i| !placer.landmark_ids().contains(i))
            .map(|i| NodeId(i as u32))
            .collect();
        let table = placer.gather_rtts(fast, &nodes);
        prop_assert_eq!(table.len(), nodes.len() * k);
        for (&node, rtts) in nodes.iter().zip(table.chunks(k)) {
            let rng = || derive_rng(seed, u64::from(node.0));
            let reference = bits(&place_reading_every_sample(placer, truth, node, &mut rng()));
            prop_assert_eq!(bits(&placer.place_from_rtts(rtts, &mut rng())), reference.clone());
            prop_assert_eq!(bits(&placer.place(fast, node, &mut rng())), reference);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        /// Gather + kernel is the read-per-sample loop, bit for bit (coord,
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
