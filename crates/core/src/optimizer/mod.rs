//! Integrated plan generation + service placement (Section 3.3), and the
//! classic two-step baseline it is evaluated against.
//!
//! "When a query is introduced into the system ... a set of candidate plans
//! is created. But in the integrated approach, each plan is virtually placed
//! and physically mapped using the desired cost space. This yields exactly
//! one candidate circuit per plan, with the cost of the circuit representing
//! the current node and network state. The cheapest of these candidate
//! circuits is selected."

mod integrated;
mod query;
mod twostep;

#[cfg(test)]
pub(crate) use integrated::tests as oracle;
pub use integrated::IntegratedOptimizer;
pub(crate) use integrated::{select_cheapest, Candidate, BOUND_SLACK};
pub use query::QuerySpec;
pub use twostep::TwoStepOptimizer;

use sbon_netsim::latency::LatencyProvider;
use sbon_query::plan::LogicalPlan;

use crate::circuit::{Circuit, CircuitCost, Placement, ServiceId};
use crate::multiquery::ServiceInstance;

/// Optimizer tunables: how the integrated optimizer sizes its plan space.
/// Virtual placement is not one of them — every optimizer places with the
/// paper's reference algorithm, [`crate::placement::RelaxationPlacer`] at its
/// defaults ([`IntegratedOptimizer::placer`]); the centroid and gradient
/// placers are ablation subjects `ablation_placers` calls directly.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Candidate plans the integrated optimizer places (`k` of the k-best
    /// DP). Ignored when exhaustive enumeration applies.
    pub candidate_plans: usize,
    /// Use exhaustive bushy enumeration when the join set has at most this
    /// many streams (the F1 experiment wants the full 15-tree space of a
    /// 4-way join).
    pub exhaustive_below: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { candidate_plans: 8, exhaustive_below: 5 }
    }
}

/// A fully optimized, placed circuit — the optimizer's output.
#[derive(Clone, Debug)]
pub struct PlacedCircuit {
    /// The chosen logical plan.
    pub plan: LogicalPlan,
    /// Its circuit.
    pub circuit: Circuit,
    /// Host assignment.
    pub placement: Placement,
    /// Cost under ground-truth latency (what the deployment experiences).
    pub cost: CircuitCost,
    /// Cost under cost-space vector distance (what the optimizer estimated).
    pub estimated: CircuitCost,
    /// DHT routing hops spent on physical mapping (0 with oracle mappers).
    pub mapping_hops: usize,
    /// Mean full-space mapping error over unpinned services.
    pub mean_mapping_error: f64,
    /// How many candidate plans were examined.
    pub candidates_examined: usize,
    /// `shared[service]` — the service is a reused instance's root or sits
    /// beneath one, so the links into it are free: `cost` and `estimated`
    /// are *marginal* ([`Circuit::cost_with`]). Empty when nothing is reused.
    pub shared: Vec<bool>,
    /// Running instances the circuit reuses, in discovery order (empty for
    /// a standalone circuit).
    pub reused: Vec<ServiceInstance>,
    /// For each entry of `reused`: the service of this circuit it stands in
    /// for.
    pub reused_at: Vec<ServiceId>,
}

impl PlacedCircuit {
    /// Replaces `cost` with the circuit's (marginal) cost under
    /// ground-truth `latency`. Every read goes out of a link's upstream host.
    pub fn measured(mut self, latency: &dyn LatencyProvider) -> Self {
        self.cost =
            self.circuit.cost_with(&self.placement, &self.shared, |a, b| latency.latency(a, b));
        self
    }
}
