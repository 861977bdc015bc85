//! Adaptive re-optimization of long-running circuits under churn.
//!
//! The paper's "time" challenge: continuous queries outlive the network
//! conditions they were optimized for. This example runs the same workload
//! twice on the discrete-event overlay runtime — once static, once with
//! threshold-based local re-optimization — and prints the usage timelines
//! of seed 5. One seed is one anecdote (a single near-threshold migration
//! can move its saving by ten points), so it then prints the saving of
//! five seeds and their median.
//!
//! ```sh
//! cargo run --release --example adaptive_reopt
//! ```

use sbon::core::reopt::ReoptPolicy;
use sbon::overlay::{JitterModel, OverlayRuntime, RuntimeConfig};
use sbon::prelude::*;

/// Seeds of the saving summary; the first one's timelines are printed.
const SEEDS: [u64; 5] = [5, 6, 7, 8, 9];

fn run(adaptive: bool, seed: u64) -> sbon::overlay::RunReport {
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(150), seed);
    let config = RuntimeConfig::builder()
        .tick_ms(1_000.0)
        .horizon_ms(120_000.0) // 2 simulated minutes
        .reopt_interval_ms(adaptive.then_some(10_000.0))
        .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
        .churn(ChurnProcess::RandomWalk { std_dev: 0.10 })
        .latency_jitter(JitterModel { edges_per_tick: 120, ..Default::default() })
        .migration_penalty(25.0)
        .build();
    let mut rt = OverlayRuntime::new(&topo, seed, config);
    let hosts = topo.host_candidates();
    for q in 0..4 {
        let base = q * 12;
        let query = QuerySpec::join_star(
            &[hosts[base], hosts[base + 3], hosts[base + 6], hosts[base + 9]],
            hosts[base + 11],
            10.0,
            0.02,
        );
        rt.deploy(query).expect("deployment succeeds");
    }
    rt.run()
}

/// The share of cumulative network usage adaptation saves.
fn saving(static_report: &sbon::overlay::RunReport, adaptive: &sbon::overlay::RunReport) -> f64 {
    100.0 * (1.0 - adaptive.total_cost() / static_report.total_cost())
}

fn main() {
    println!("running static policy...");
    let static_report = run(false, SEEDS[0]);
    println!("running adaptive policy...");
    let adaptive_report = run(true, SEEDS[0]);

    println!("\n{:>8} {:>14} {:>14}", "t (s)", "static usage", "adaptive usage");
    for (s, a) in static_report.samples.iter().zip(&adaptive_report.samples).step_by(10) {
        println!("{:>8.0} {:>14.1} {:>14.1}", s.time_ms / 1000.0, s.network_usage, a.network_usage);
    }

    println!("\nstatic   total cost: {:>12.0}", static_report.total_cost());
    println!(
        "adaptive total cost: {:>12.0} ({} migrations, adaptation penalty {:.0})",
        adaptive_report.total_cost(),
        adaptive_report.migrations,
        adaptive_report.adaptation_cost
    );

    println!("\nseed  adaptation saves (share of cumulative network usage)");
    let mut savings = vec![saving(&static_report, &adaptive_report)];
    savings.extend(SEEDS[1..].iter().map(|&seed| saving(&run(false, seed), &run(true, seed))));
    for (seed, saved) in SEEDS.iter().zip(&savings) {
        println!("{seed:>4}  {saved:.1}%");
    }
    savings.sort_by(f64::total_cmp);
    println!(
        "median adaptation saving over {} seeds: {:.1}%",
        SEEDS.len(),
        savings[SEEDS.len() / 2]
    );
}
