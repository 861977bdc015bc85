//! **C2 — text claims (§2.1, §3.3)**: long-running queries make
//! re-optimization worthwhile ("in a long-running query, recouping costs is
//! less of an issue"), via local migrations and full parallel-circuit swaps.
//!
//! A 200-node overlay runs 8 continuous queries for 10 simulated minutes
//! under load churn and latency jitter. Three policies: no adaptation,
//! local re-optimization (threshold migrations), local + periodic full
//! re-optimization. Reported: cumulative network usage (incl. adaptation
//! penalties), migrations, and the usage time series' head/tail.

use sbon_bench::{printed, section, subsection, verdict};
use sbon_core::optimizer::QuerySpec;
use sbon_core::reopt::ReoptPolicy;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_overlay::{JitterModel, OverlayRuntime, RuntimeConfig};

use rand::seq::SliceRandom;

fn run(policy_label: &str, local: bool, full: bool, seed: u64) -> (String, f64, usize, usize) {
    let topo = generate(&TransitStubConfig::with_total_nodes(200), seed);
    let config = RuntimeConfig::builder()
        .tick_ms(1_000.0)
        .horizon_ms(600_000.0) // 10 simulated minutes
        .reopt_interval_ms(local.then_some(10_000.0))
        .full_reopt_interval_ms(full.then_some(60_000.0))
        .policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.15 })
        .churn(ChurnProcess::RandomWalk { std_dev: 0.08 })
        .latency_jitter(JitterModel { edges_per_tick: 160, ..Default::default() })
        .migration_penalty(25.0)
        .replacement_penalty(100.0)
        .build();
    let mut rt = OverlayRuntime::new(&topo, seed, config);
    let mut rng = derive_rng(seed, 0xC2);
    let mut hosts = topo.host_candidates();
    hosts.shuffle(&mut rng);
    for q in 0..8 {
        let base = q * 5;
        let query = QuerySpec::join_star(
            &[hosts[base], hosts[base + 1], hosts[base + 2], hosts[base + 3]],
            hosts[base + 4],
            10.0,
            0.02,
        );
        rt.deploy(query).expect("deployment succeeds");
    }
    let report = rt.run();
    let head = report.samples.first().map_or(0.0, |s| s.network_usage);
    let tail = report.samples.last().map_or(0.0, |s| s.network_usage);
    println!(
        "{:<28} total cost {:>12.0} (adaptation {:>8.0})  usage {:>8.0} → {:>8.0}  migrations {:>4}  swaps {:>3}",
        policy_label,
        report.total_cost(),
        report.adaptation_cost,
        head,
        tail,
        report.migrations,
        report.replacements
    );
    (policy_label.to_string(), report.total_cost(), report.migrations, report.replacements)
}

fn main() {
    section("C2 — re-optimization recoups cost on long-running queries");
    println!("world: transit-stub 200 nodes; 8 four-way-join circuits; 10 sim-minutes");
    println!("dynamics: load random-walk (σ=0.08/s) + latency jitter (×0.7–1.45)");
    subsection("per-policy results (3 seeds each)");

    let mut totals: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, local, full) in [
        ("static (no adaptation)", false, false),
        ("local re-opt (10s)", true, false),
        ("local + full re-opt (60s)", true, true),
    ] {
        let mut costs = Vec::new();
        for seed in [1u64, 2, 3] {
            let (_, cost, _, _) = run(label, local, full, seed);
            costs.push(cost);
        }
        totals.push((label.to_string(), costs));
    }

    subsection("summary (mean across seeds)");
    let mean = |costs: &[f64]| costs.iter().sum::<f64>() / costs.len() as f64;
    let static_mean = mean(&totals[0].1);
    let mut shares = Vec::new(); // each adaptive policy's printed % of static
    for (label, costs) in &totals {
        let share = 100.0 * mean(costs) / static_mean;
        println!(
            "{:<28} mean total cost {:>12.0}   vs static: {:>6.1}%",
            label,
            mean(costs),
            share
        );
        shares.push(format!("{share:.1}%"));
    }

    // The clause is a predicate over the totals printed above: every
    // adaptive policy costs less than static on every seed and in the mean.
    let whole = |x: f64| printed(x, 0);
    let (fixed, adaptive) = totals.split_first().expect("static runs first");
    let pays = adaptive.iter().all(|(_, costs)| {
        costs.iter().zip(&fixed.1).all(|(&c, &s)| whole(c) < whole(s))
            && whole(mean(costs)) < whole(static_mean)
    });
    println!();
    println!("shape check (paper): adaptation lowers cumulative usage despite the");
    println!(
        "migration penalties: {} (on every seed; in the mean {} of static)",
        verdict(pays),
        shares[1..].join(", ")
    );
    println!("— re-optimization pays for itself on long-running queries, which is");
    println!("the paper's argument for revisiting the 'niche' view.");
}
