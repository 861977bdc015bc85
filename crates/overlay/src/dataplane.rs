//! Tuple-level data-plane simulation.
//!
//! The optimizer and the runtime account for traffic with the *fluid* model
//! (`network usage = Σ link rate × latency` — Little's law's `L = λ·W`).
//! This module simulates a placed circuit at the level of individual tuples
//! — Poisson producers, per-hop propagation delay, probabilistic operator
//! emission matched to the statistics catalog — and measures the same
//! quantities empirically. The `fluid_model_matches_tuple_level` tests are
//! the evidence that the cost model the paper's optimizer ranks circuits by
//! is the cost a real data plane would experience.

use rand::rngs::StdRng;
use rand::Rng;

use sbon_core::circuit::{Circuit, Placement, ServiceId, ServiceKind};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::rng::{derive_rng, sample_exponential};
use sbon_netsim::sim::{EventQueue, SimTime};

/// Data-plane simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct DataPlaneConfig {
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig { duration_ms: 60_000.0, seed: 0 }
    }
}

/// Results of a tuple-level run.
#[derive(Clone, Debug)]
pub struct DataPlaneReport {
    /// Tuples emitted by all producers.
    pub tuples_emitted: usize,
    /// Tuples that reached the consumer.
    pub tuples_delivered: usize,
    /// Empirical network usage: Σ per-tuple-hop latency / duration —
    /// the tuple-level estimate of `Σ rate × latency` (Little's law).
    pub measured_network_usage: f64,
    /// The fluid-model prediction for the same placement.
    pub predicted_network_usage: f64,
    /// Mean end-to-end latency of delivered tuples (ms), producer → consumer.
    pub mean_delivery_latency_ms: f64,
    /// Worst observed end-to-end latency (ms).
    pub max_delivery_latency_ms: f64,
    /// The fluid model's worst-path prediction (ms).
    pub predicted_max_path_latency_ms: f64,
}

impl DataPlaneReport {
    /// Relative error of the tuple-level usage vs the fluid prediction.
    pub fn usage_relative_error(&self) -> f64 {
        if self.predicted_network_usage <= 0.0 {
            return 0.0;
        }
        (self.measured_network_usage - self.predicted_network_usage).abs()
            / self.predicted_network_usage
    }
}

/// A tuple in flight: which service it is about to arrive at, and the
/// accumulated path latency since its source emission.
struct InFlight {
    to: ServiceId,
    path_latency_ms: f64,
}

enum Event {
    /// A producer emits its next tuple.
    Emit(ServiceId),
    /// A tuple arrives at a service.
    Arrive(InFlight),
}

/// Simulates one placed circuit at the tuple level.
///
/// Producers emit Poisson streams at their `output_rate` (tuples/s); each
/// operator emits downstream with probability `output_rate / Σ input
/// rates`, so every link's *expected* tuple rate equals the fluid model's
/// link rate. Deterministic in `config.seed`.
pub fn simulate_circuit(
    circuit: &Circuit,
    placement: &Placement,
    latency: &dyn LatencyProvider,
    config: DataPlaneConfig,
) -> DataPlaneReport {
    // A zero or non-finite horizon would divide the usage estimate into
    // NaN/∞ below — the same empty-sample-set poison `RunReport` and
    // `Summary` already guard against; reject it at the entry point.
    assert!(
        config.duration_ms.is_finite() && config.duration_ms > 0.0,
        "duration_ms must be positive and finite"
    );
    let mut rng: StdRng = derive_rng(config.seed, 0xDA7A);
    let horizon = SimTime(config.duration_ms);

    // Per-service forwarding probability and downstream target.
    let n = circuit.len();
    let mut forward_prob = vec![1.0f64; n];
    let mut parent: Vec<Option<ServiceId>> = vec![None; n];
    for l in circuit.links() {
        parent[l.from.index()] = Some(l.to);
    }
    for s in circuit.services() {
        let inbound: f64 = circuit.links().iter().filter(|l| l.to == s.id).map(|l| l.rate).sum();
        if inbound > 0.0 {
            forward_prob[s.id.index()] = (s.output_rate / inbound).clamp(0.0, 1.0);
        }
    }

    let mut queue: EventQueue<Event> = EventQueue::new();
    // Schedule first emissions.
    for s in circuit.services() {
        if matches!(s.kind, ServiceKind::Producer(_)) && s.output_rate > 0.0 {
            let dt = sample_exponential(&mut rng, s.output_rate) * 1_000.0;
            queue.schedule(SimTime(dt), Event::Emit(s.id));
        }
    }

    let mut emitted = 0usize;
    let mut delivered = 0usize;
    let mut hop_latency_sum = 0.0f64;
    let mut delivery_latencies: Vec<f64> = Vec::new();

    while let Some((now, event)) = queue.pop_until(horizon) {
        match event {
            Event::Emit(sid) => {
                emitted += 1;
                let s = circuit.service(sid);
                // Send the tuple up the circuit.
                if let Some(p) = parent[sid.index()] {
                    let d = latency.latency(placement.node_of(sid), placement.node_of(p));
                    hop_latency_sum += d;
                    queue.schedule(
                        now.after(d),
                        Event::Arrive(InFlight { to: p, path_latency_ms: d }),
                    );
                }
                // Schedule the next emission.
                let dt = sample_exponential(&mut rng, s.output_rate) * 1_000.0;
                queue.schedule(now.after(dt), Event::Emit(sid));
            }
            Event::Arrive(tuple) => {
                let sid = tuple.to;
                match &circuit.service(sid).kind {
                    ServiceKind::Consumer => {
                        delivered += 1;
                        delivery_latencies.push(tuple.path_latency_ms);
                    }
                    _ => {
                        // Operator: thin the stream to the modeled rate.
                        if rng.gen_bool(forward_prob[sid.index()]) {
                            if let Some(p) = parent[sid.index()] {
                                let d =
                                    latency.latency(placement.node_of(sid), placement.node_of(p));
                                hop_latency_sum += d;
                                queue.schedule(
                                    now.after(d),
                                    Event::Arrive(InFlight {
                                        to: p,
                                        path_latency_ms: tuple.path_latency_ms + d,
                                    }),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    let duration_s = config.duration_ms / 1_000.0;
    let fluid = circuit.cost_with(placement, &[], |a, b| latency.latency(a, b));
    let mean_latency = if delivery_latencies.is_empty() {
        0.0
    } else {
        delivery_latencies.iter().sum::<f64>() / delivery_latencies.len() as f64
    };
    DataPlaneReport {
        tuples_emitted: emitted,
        tuples_delivered: delivered,
        measured_network_usage: hop_latency_sum / duration_s,
        predicted_network_usage: fluid.network_usage,
        mean_delivery_latency_ms: mean_latency,
        max_delivery_latency_ms: delivery_latencies.iter().copied().fold(0.0, f64::max),
        predicted_max_path_latency_ms: fluid.max_path_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_coords::vivaldi::VivaldiConfig;
    use sbon_core::costspace::CostSpaceBuilder;
    use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec};
    use sbon_netsim::dijkstra::all_pairs_latency;

    use sbon_netsim::load::LoadModel;
    use sbon_netsim::rng::rng_from_seed;
    use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

    fn placed_fixture(seed: u64) -> (Circuit, Placement, sbon_netsim::latency::LatencyMatrix) {
        let topo = generate(&TransitStubConfig::with_total_nodes(100), seed);
        let latency = all_pairs_latency(&topo.graph);
        let embedding = VivaldiConfig::default().embed(&latency, seed);
        let mut rng = rng_from_seed(seed);
        let loads = LoadModel::Random { lo: 0.0, hi: 0.5 }.generate(topo.num_nodes(), &mut rng);
        let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
        let hosts = topo.host_candidates();
        let q = QuerySpec::join_star(&[hosts[0], hosts[20], hosts[40]], hosts[60], 20.0, 0.02);
        let placed = IntegratedOptimizer::new(OptimizerConfig::default())
            .optimize(&q, &space, &latency)
            .unwrap();
        (placed.circuit, placed.placement, latency)
    }

    /// Regression: a zero-duration run used to divide the measured usage
    /// into NaN; it is now rejected at the entry point.
    #[test]
    #[should_panic(expected = "duration_ms must be positive")]
    fn zero_duration_is_rejected() {
        let (circuit, placement, latency) = placed_fixture(40);
        simulate_circuit(
            &circuit,
            &placement,
            &latency,
            DataPlaneConfig { duration_ms: 0.0, seed: 0 },
        );
    }

    #[test]
    fn fluid_model_matches_tuple_level() {
        let (circuit, placement, latency) = placed_fixture(1);
        let report = simulate_circuit(
            &circuit,
            &placement,
            &latency,
            DataPlaneConfig { duration_ms: 120_000.0, seed: 1 },
        );
        assert!(report.tuples_emitted > 1000, "emitted {}", report.tuples_emitted);
        assert!(report.tuples_delivered > 0);
        assert!(
            report.usage_relative_error() < 0.10,
            "tuple-level usage {} vs fluid {} (err {})",
            report.measured_network_usage,
            report.predicted_network_usage,
            report.usage_relative_error()
        );
    }

    #[test]
    fn delivery_latency_bounded_by_worst_path() {
        let (circuit, placement, latency) = placed_fixture(2);
        // Long enough that the (selectivity-thinned) join output certainly
        // delivers tuples at this seed.
        let report = simulate_circuit(
            &circuit,
            &placement,
            &latency,
            DataPlaneConfig { duration_ms: 120_000.0, seed: 2 },
        );
        // Propagation-only data plane: nothing can take longer than the
        // longest producer→consumer path.
        assert!(
            report.max_delivery_latency_ms <= report.predicted_max_path_latency_ms + 1e-9,
            "observed {} > predicted max {}",
            report.max_delivery_latency_ms,
            report.predicted_max_path_latency_ms
        );
        assert!(report.tuples_delivered > 0, "delivered {}", report.tuples_delivered);
        assert!(report.mean_delivery_latency_ms > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let (circuit, placement, latency) = placed_fixture(3);
        let run = |seed| {
            simulate_circuit(
                &circuit,
                &placement,
                &latency,
                DataPlaneConfig { duration_ms: 10_000.0, seed },
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.tuples_emitted, b.tuples_emitted);
        assert_eq!(a.tuples_delivered, b.tuples_delivered);
        assert_eq!(a.measured_network_usage, b.measured_network_usage);
        let c = run(8);
        assert_ne!(a.tuples_emitted, c.tuples_emitted);
    }

    #[test]
    fn emission_rates_match_configured_rates() {
        let (circuit, placement, latency) = placed_fixture(4);
        let report = simulate_circuit(
            &circuit,
            &placement,
            &latency,
            DataPlaneConfig { duration_ms: 60_000.0, seed: 4 },
        );
        // 3 producers × 20 tuples/s × 60 s = 3600 expected emissions.
        let expected = 3.0 * 20.0 * 60.0;
        let ratio = report.tuples_emitted as f64 / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "emitted {} vs expected {expected}",
            report.tuples_emitted
        );
    }
}
