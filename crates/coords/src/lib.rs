//! Network coordinates: the *vector* dimensions of a cost space.
//!
//! The paper builds its latency dimensions on decentralized network
//! coordinates: "Vector costs \[can\] be calculated in a distributed and
//! iterative nature by constantly refining the coordinates and correcting
//! for network dynamism \[17\]" — citation \[17\] is Vivaldi (Dabek et al.,
//! SIGCOMM 2004), which this crate implements.
//!
//! * [`vivaldi`] — the Vivaldi algorithm: each node keeps a coordinate and a
//!   confidence weight, and nudges its coordinate after every latency sample
//!   so that Euclidean distance approximates measured latency.
//! * [`error`] — embedding-error metrics (the paper's argument depends on
//!   the embedding error being "slight" \[16\]).
//!
//! # Who owns what in the coordinate stack
//!
//! Every fact has one owner and every behaviour one spelling:
//!
//! * [`VivaldiConfig::validate`] — whether a configuration can embed at all
//!   (the runtime's config builder calls it too).
//! * `Spring` — a node's state with the coordinate in a fixed-size array
//!   whose length ([`VivaldiConfig::dims`], at most [`vivaldi::MAX_DIMS`])
//!   and the height model are compile-time constants, picked by one
//!   `dispatch`. Its `start` is the one node start and its `observe` the
//!   one spring step, laid out lane by lane over `L` nodes (every branch a
//!   per-lane select, then a per-lane commit) so that the placement
//!   kernel's lanes share each division and square root; the tests pin
//!   both, bit for bit, to a `VivaldiNode` reference that spells them over
//!   a `Vec`.
//! * `VivaldiConfig::gossip` — the one gossip loop, a kernel over
//!   `Spring`s (the step at one lane), over all `n` nodes (the full
//!   protocol) or over the landmarks (landmark mode's first phase),
//!   keeping only its members' states; every node draws its start, in id
//!   order.
//! * [`LandmarkPlacer`] — the frozen landmarks and where every other node
//!   lands. Its private `refine` is the one non-landmark refinement loop,
//!   a kernel that advances four nodes in lockstep (or one), sample by
//!   sample, each on its own RNG stream; every lane performs the float
//!   operations and draws of a node placed alone, in their order, so a
//!   landing spot does not depend on its lane partners.
//!   [`LandmarkPlacer::place_nodes`] runs it over quads of nodes reading
//!   landmark rows in place, the one to three left over through one lane,
//!   each node on its own stream (a function of the seed and the node
//!   alone); [`LandmarkPlacer::place`] is its one-lane call on the
//!   caller's stream. So [`VivaldiConfig::embed`] in landmark mode and
//!   `sbon_overlay`'s join-time placement land a node on the same
//!   coordinate, bit for bit.
//! * `VivaldiEmbedding::from_states` — the one writer of an embedding's
//!   coordinates, heights and errors, behind the full protocol and
//!   [`LandmarkPlacer::embedding`].
//! * [`vivaldi::gossip_partner`] — the one uniform draw of "another node",
//!   for the gossip and for [`relative_errors`]' sampled pairs.
//! * `sbon_netsim::latency::euclidean` — the distance, shared with the cost
//!   space.
//! * `sbon_overlay`'s `membership` — when a node is placed: once at
//!   bring-up for every arrived node, at its join tick for the rest.

pub mod error;
pub mod vivaldi;

pub use error::{relative_errors, EmbeddingErrorReport};
pub use vivaldi::{LandmarkPlacer, VivaldiConfig, VivaldiEmbedding, VivaldiNode};
