//! **F1 — Figure 1**: inefficiency of two-step optimization vs the
//! integrated cost-space optimizer.
//!
//! The paper's Figure 1 shows a 4-way join whose statistics-chosen
//! decomposition ("Query Plan 1") places worse than a network-aware
//! alternative ("Query Plan 2"), "assuming the selectivities of the two
//! plans were roughly the same". We reproduce this quantitatively:
//!
//! * **Uniform selectivities** (the figure's assumption): every join order
//!   ties statistically, so the two-step optimizer picks blindly while the
//!   integrated optimizer places all 15 bushy trees and keeps the cheapest
//!   circuit.
//! * **Skewed selectivities**: the statistics actively *mislead* — the
//!   selective pair's producers sit on opposite sides of the network.
//!
//! The paper's shape: integrated ≤ two-step always (same candidate space);
//! strictly better in a large fraction of instances. The first clause is
//! computed, not asserted: it holds for the cost-space estimates the
//! optimizers rank by, and fails for the measured cost in some trials,
//! because the estimate under-rates the circuit it picks (ROADMAP's
//! "close the estimate gap" item).

use rand::Rng;

use sbon_bench::{build_world, geomean, pct, pick_hosts, section, subsection, WorldConfig};
use sbon_core::optimizer::{IntegratedOptimizer, OptimizerConfig, QuerySpec, TwoStepOptimizer};
use sbon_core::placement::optimal_tree_placement;
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;
use sbon_query::stream::StreamId;

struct TrialResult {
    two_step: f64,
    integrated: f64,
    two_step_estimated: f64,
    integrated_estimated: f64,
    optimal_bound: f64,
    two_step_latency: f64,
    integrated_latency: f64,
}

fn run_trial(world: &sbon_bench::World, rng: &mut impl Rng, skewed: bool) -> TrialResult {
    let hosts = pick_hosts(world, 5, rng);
    let mut query = QuerySpec::join_star(&hosts[..4], hosts[4], 10.0, 0.02);
    if skewed {
        // The statistically attractive pair (tiny selectivity → tiny
        // intermediate result) is the *physically distant* pair: producers 0
        // and 3 were drawn independently, so joining them first is usually a
        // bad circuit. The stats-only optimizer will take the bait.
        query = query.with_selectivity(StreamId(0), StreamId(3), 0.0005);
    }

    let cfg = OptimizerConfig::default();
    let two = TwoStepOptimizer::new()
        .optimize(&query, &world.space, &world.latency)
        .expect("two-step always yields a plan");
    let int = IntegratedOptimizer::new(cfg)
        .optimize(&query, &world.space, &world.latency)
        .expect("integrated always yields a plan");

    // Omniscient bound: the integrated winner's plan placed optimally by
    // the ground-truth tree DP.
    let host_set = world.topology.host_candidates();
    let (_, optimal_bound) =
        optimal_tree_placement(&int.circuit, &host_set, |a, b| world.latency.latency(a, b));

    TrialResult {
        two_step: two.cost.network_usage,
        integrated: int.cost.network_usage,
        two_step_estimated: two.estimated.network_usage,
        integrated_estimated: int.estimated.network_usage,
        optimal_bound,
        two_step_latency: two.cost.max_path_latency,
        integrated_latency: int.cost.max_path_latency,
    }
}

/// `a` is below `b` by more than 0.1 %: a strict win rather than a tie.
fn strictly_below(a: f64, b: f64) -> bool {
    a < b * 0.999
}

/// Prints one regime's table. Returns how many of its trials' integrated
/// circuits are strictly worse than the two-step ones, in `(measured,
/// estimated)` network usage.
fn report(label: &str, results: &[TrialResult]) -> (usize, usize) {
    subsection(label);
    let ratios: Vec<f64> = results.iter().map(|r| r.two_step / r.integrated).collect();
    let wins = results.iter().filter(|r| strictly_below(r.integrated, r.two_step)).count();
    let count = |worse: fn(&TrialResult) -> bool| results.iter().filter(|r| worse(r)).count();
    let measured_worse = count(|r| strictly_below(r.two_step, r.integrated));
    let estimated_worse = count(|r| strictly_below(r.two_step_estimated, r.integrated_estimated));
    let gap_to_optimal: Vec<f64> =
        results.iter().map(|r| r.integrated / r.optimal_bound.max(1e-9)).collect();

    println!(
        "trials: {:<4}  integrated strictly better: {} ({})",
        results.len(),
        wins,
        pct(wins as f64 / results.len() as f64)
    );
    println!(
        "integrated worse than two-step: measured {measured_worse} / {n}, estimated \
         {estimated_worse} / {n}",
        n = results.len()
    );
    println!(
        "two-step / integrated network usage:  geomean {:.3}×   {}",
        geomean(&ratios),
        Summary::of(&ratios).row()
    );
    println!(
        "integrated / omniscient-optimal:      geomean {:.3}×   {}",
        geomean(&gap_to_optimal),
        Summary::of(&gap_to_optimal).row()
    );
    let two_usage = Summary::of(&results.iter().map(|r| r.two_step).collect::<Vec<_>>());
    let int_usage = Summary::of(&results.iter().map(|r| r.integrated).collect::<Vec<_>>());
    println!("two-step   network usage: {}", two_usage.row());
    println!("integrated network usage: {}", int_usage.row());
    // Figure 1's caption argues in terms of "total data latency" as well.
    let two_lat = Summary::of(&results.iter().map(|r| r.two_step_latency).collect::<Vec<_>>());
    let int_lat = Summary::of(&results.iter().map(|r| r.integrated_latency).collect::<Vec<_>>());
    println!("two-step   worst-path ms: {}", two_lat.row());
    println!("integrated worst-path ms: {}", int_lat.row());
    (measured_worse, estimated_worse)
}

fn main() {
    section("F1 / Figure 1 — two-step vs integrated optimization (4-way join)");
    println!("world: transit-stub, 600 nodes; 5 worlds × 20 query instances each");

    let trials_per_world = 20;
    let mut uniform = Vec::new();
    let mut skewed = Vec::new();
    for world_seed in 0..5u64 {
        // The omniscient tree-DP bound scans every host pair: a dense
        // workload, so own the matrix.
        let world = build_world(
            &WorldConfig { backend: sbon_bench::GroundTruthBackend::Dense, ..Default::default() },
            world_seed,
        );
        let mut rng = derive_rng(world_seed, 0xF1);
        for _ in 0..trials_per_world {
            uniform.push(run_trial(&world, &mut rng, false));
            skewed.push(run_trial(&world, &mut rng, true));
        }
    }

    let regimes = [
        report("uniform selectivities (the figure's 'roughly the same' assumption)", &uniform),
        report("skewed selectivities (statistics actively mislead)", &skewed),
    ];
    let measured: usize = regimes.iter().map(|r| r.0).sum();
    let estimated: usize = regimes.iter().map(|r| r.1).sum();
    let n = uniform.len() + skewed.len();
    let verdict = if measured == 0 { "PASS" } else { "FAIL" };
    println!();
    println!(
        "shape check (paper): integrated never worse: {verdict} ({measured} / {n} trials \
         measured worse, {estimated} / {n} estimated worse);"
    );
    if measured > 0 {
        println!(
            "  a known failure: the estimate under-rates the circuit it picks \
             (ROADMAP: \"close the estimate gap\");"
        );
    }
    println!("strictly better often; the gap grows when statistics and network layout disagree.");
}
