//! Workload storm: a flash crowd of arriving and departing tenants over a
//! 2,048-node overlay with reuse-aware tenancy.
//!
//! The acceptance bar for the workload engine: sustain ≥ 1,000 query
//! arrivals + departures with reuse enabled, deterministic by seed, report
//! marginal-vs-standalone cost and reuse hits, and end with usage
//! accounting bit-identical to the pre-workload baseline (every shared
//! service's refcount drained to zero).
//!
//! ```sh
//! cargo run --release --example workload_storm          # full 2,048 nodes
//! SBON_SMOKE=1 cargo run --release --example workload_storm   # CI-sized
//! ```
//!
//! The smoke mode is the CI bench-smoke job's workload-scenario check: a
//! flash-crowd arrival burst plus departures over a 30-tick run, asserting
//! the active-query gauge returns to zero.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "wall-clock progress reporting only, never control-plane input"
)]

use std::time::Instant;

use sbon::core::multiquery::ReuseScope;
use sbon::overlay::{LatencyBackend, RuntimeConfig};
use sbon::prelude::*;

fn main() {
    let smoke = std::env::var_os("SBON_SMOKE").is_some_and(|v| v == "1");
    let nodes = if smoke { 300 } else { 2_048 };
    let horizon_ms = if smoke { 30_000.0 } else { 120_000.0 };
    let seed = 2_048;

    let runtime = RuntimeConfig::builder()
        .horizon_ms(horizon_ms)
        .churn(ChurnProcess::SparseWalk { nodes_per_tick: 16, std_dev: 0.1 })
        // Demand-driven ground truth: a 2,048-node dense matrix would cost
        // 64 MiB (× 2 with the jitter reference) before the first arrival.
        .latency_backend(LatencyBackend::Lazy)
        .vivaldi(VivaldiConfig { landmarks: Some(32), ..Default::default() })
        .reuse(ReuseScope::Radius(60.0))
        .build();
    let scenario = Scenario {
        catalog: CatalogSpec { feeds: 16, rate: 10.0, zipf_exponent: 1.1, join_selectivity: 0.02 },
        workload: WorkloadSpec {
            // A breaking-news flash crowd in the middle third of the run on
            // top of steady base traffic.
            arrival: if smoke {
                ArrivalProcess::FlashCrowd {
                    base_per_sec: 0.5,
                    peak_per_sec: 4.0,
                    start_ms: 8_000.0,
                    end_ms: 16_000.0,
                }
            } else {
                ArrivalProcess::FlashCrowd {
                    base_per_sec: 8.0,
                    peak_per_sec: 24.0,
                    start_ms: 40_000.0,
                    end_ms: 70_000.0,
                }
            },
            duration: SessionDuration::Exponential {
                mean_ms: if smoke { 6_000.0 } else { 15_000.0 },
            },
            templates: vec![
                (QueryTemplate::PopularFeedJoin { ways: 2 }, 4.0),
                (QueryTemplate::PopularFeedJoin { ways: 3 }, 2.0),
                (QueryTemplate::FanInAggregate { ways: 3, ratio: 0.2 }, 1.0),
                (QueryTemplate::ChainFilter { filters: 2, selectivity: 0.3 }, 1.0),
            ],
            max_arrivals: None,
            drain_at_end: true,
        },
        ..Scenario::new("workload storm", nodes, seed, runtime)
    };

    println!(
        "driving a flash-crowd workload over a {nodes}-node overlay ({} ticks)...",
        (horizon_ms / 1_000.0) as usize
    );
    let start = Instant::now();
    let report = scenario.run();
    let wall = start.elapsed().as_secs_f64();
    println!();
    report.print_summary();
    println!(
        "\n{} arrivals + {} departures in {:.2} s wall ({:.1} lifecycle ops/s of wall time)",
        report.arrivals,
        report.departures,
        wall,
        (report.arrivals + report.departures) as f64 / wall
    );

    // The flash-crowd shape in the gauge.
    let peak_tick =
        report.run.samples.iter().max_by_key(|s| s.active_queries).expect("samples exist");
    println!(
        "flash crowd peaked at {} active queries (t={:.0} ms); final gauge {}",
        peak_tick.active_queries, peak_tick.time_ms, report.final_active
    );

    // ── Hard post-conditions (the CI smoke assertion set) ────────────────
    assert_eq!(report.final_active, 0, "active-query gauge must return to zero");
    assert!(report.drained_to_baseline(), "usage accounting must return to the baseline");
    assert!(report.reuse_hits > 0, "Zipf-overlapping tenants must produce reuse");
    assert!(report.marginal_usage < report.standalone_usage);
    if !smoke {
        assert!(
            report.arrivals >= 1_000 && report.departures >= 1_000,
            "acceptance: ≥ 1,000 arrivals + departures (got {} + {})",
            report.arrivals,
            report.departures
        );
    }
    println!("all workload post-conditions hold");
}
