//! Continuous-query model: streams and their statistics, operators, logical
//! plans, and plan enumeration.
//!
//! This crate is deliberately latency-agnostic — it knows about data rates,
//! selectivities and the node each stream's producer is pinned to, not about
//! latencies or where operators run. The classic two-step optimizer uses
//! *only* this crate's statistics to rank plans; the paper's integrated
//! optimizer (in `sbon-core`) re-ranks the same candidate plans by their
//! placed-circuit cost.
//!
//! * [`stream`] — the catalog: source streams with publication rates and
//!   pinned producers, pairwise join selectivities and the join window.
//! * [`plan`] — logical plan trees (sources, unary and binary operators).
//! * [`stats`] — rate propagation through a plan over the catalog, and the
//!   statistics-only plan cost used by the two-step baseline.
//! * [`rewrite`] — local plan rewriting (reorder / decompose / re-compose
//!   services) used by re-optimization (paper §3.3).
//! * [`enumerate`] — exhaustive bushy join-tree enumeration for small
//!   queries and Selinger-style dynamic programming (with a k-best
//!   generalization) for larger ones.
//!
//! # Who owns what in the query model
//!
//! Every fact has one owner and every behaviour one spelling:
//!
//! * [`StreamCatalog`] — each stream's rate and producer (dense by
//!   [`StreamId`]), the pairwise selectivities (an ordered map, a default for
//!   unlisted pairs) and the window. Nothing else stores a rate; a
//!   `QuerySpec` (in `sbon-core`) holds one catalog, and `Circuit::from_plan`
//!   reads producers and rates from it. A clone shares the catalog's body
//!   until its first write (copy on write), so queries drawn from one
//!   catalog hold one copy of it.
//! * [`StreamCatalog::binary_output_rate`] — the one rate step of a join or
//!   union, taken bottom-up by [`dp_top_k_plans`] and `Circuit::from_plan`;
//!   [`StreamCatalog::output_rate`] and [`StreamCatalog::statistical_cost`]
//!   recompute top-down, the per-node references both are tested against.
//! * [`UnaryOp::label`] / [`BinaryOp::label`] — the σ/γ/⋈/∪ table that
//!   [`LogicalPlan::render`] prints (and the test-only string reference of
//!   circuit reuse identities). The rewrite neighbourhood prints
//!   nothing: [`rewrite::neighbors_within`] dedups on exact structure
//!   through a structural hash.
//! * [`LogicalPlan::same_structure`] / [`LogicalPlan::structural_hash`] —
//!   plan identity (exact structure, parameters by bits) and its bucket:
//!   the rewrite neighbourhood's dedup and re-optimization's per-pass
//!   candidate lists (`sbon-core`) key on them, and on nothing else.

pub mod enumerate;
pub mod plan;
pub mod rewrite;
pub mod stats;
pub mod stream;

pub use enumerate::{all_join_trees, all_left_deep_trees, dp_best_plan, dp_top_k_plans};
pub use plan::{BinaryOp, LogicalPlan, UnaryOp};
pub use rewrite::{commute, fuse_filters, neighbors, rotate_left, rotate_right, split_filter};
pub use stream::{StreamCatalog, StreamDef, StreamId};
