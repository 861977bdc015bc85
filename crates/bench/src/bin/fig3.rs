//! **F3 — Figure 3**: virtual placement + physical mapping in the
//! latency+load² cost space.
//!
//! The figure's story: the ideal coordinate (the "star") for an unpinned
//! service is computed in the latency plane; physical mapping then finds the
//! closest node in the *full* space — so an overloaded node N1 that is
//! nearest in latency "seems far away when the entire cost space coordinate
//! is considered", and idle N2 is chosen instead.
//!
//! We run 1000 placement trials and compare three mappers:
//! latency-only oracle (the N1-picker), full-space oracle, and the
//! decentralized Hilbert-DHT catalog. Reported: how loaded the chosen hosts
//! are, how often an overloaded node is chosen, the mapping error, DHT
//! routing hops, and the measured circuit cost.

use sbon_bench::{
    build_world, known_failure_unless, pct, pick_hosts, printed, section, subsection, verdict,
    WorldConfig,
};
use sbon_core::circuit::Circuit;
use sbon_core::optimizer::QuerySpec;
use sbon_core::placement::{
    map_circuit, DhtMapper, OracleMapper, PhysicalMapper, RelaxationPlacer, VectorOnlyOracleMapper,
    VirtualPlacer,
};
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::load::{Attr, LoadModel};
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;

#[derive(Default)]
struct MapperStats {
    chosen_load: Vec<f64>,
    overloaded_picks: usize,
    mapping_error: Vec<f64>,
    circuit_usage: Vec<f64>,
    hops: Vec<f64>,
}

fn main() {
    section("F3 / Figure 3 — service placement: virtual placement + physical mapping");

    let cfg = WorldConfig {
        nodes: 600,
        // Heavy-tailed load: a third of the network is busy, some very busy.
        load: LoadModel::Random { lo: 0.0, hi: 1.0 },
        load_scale: 100.0,
        ..Default::default()
    };
    let world = build_world(&cfg, 7);
    let mut rng = derive_rng(7, 0xF3);
    let trials = 1000;

    let mut dht = DhtMapper::build(&world.space, 12, 8);
    let mut stats_latency_only = MapperStats::default();
    let mut stats_full = MapperStats::default();
    let mut stats_dht = MapperStats::default();

    for _ in 0..trials {
        let hosts = pick_hosts(&world, 3, &mut rng);
        let query = QuerySpec::join_star(&hosts[..2], hosts[2], 10.0, 0.02);
        let plan = sbon_query::plan::LogicalPlan::join(
            sbon_query::plan::LogicalPlan::source(sbon_query::stream::StreamId(0)),
            sbon_query::plan::LogicalPlan::source(sbon_query::stream::StreamId(1)),
        );
        let circuit = Circuit::from_plan(&plan, &query.catalog, query.consumer);
        let placer = RelaxationPlacer::default();
        let vp = placer.place(&circuit, &world.space);

        let run = |mapper: &mut dyn PhysicalMapper, stats: &mut MapperStats| {
            let mapped = map_circuit(&circuit, &vp, &world.space, mapper);
            for m in &mapped.mapped {
                let load = world.attrs.get(m.node, Attr::CpuLoad);
                stats.chosen_load.push(load);
                if load > 0.8 {
                    stats.overloaded_picks += 1;
                }
                stats.mapping_error.push(m.mapping_error);
                stats.hops.push(m.lookup_hops as f64);
            }
            let cost =
                circuit.cost_with(&mapped.placement, &[], |a, b| world.latency.latency(a, b));
            stats.circuit_usage.push(cost.network_usage);
        };

        run(&mut VectorOnlyOracleMapper, &mut stats_latency_only);
        run(&mut OracleMapper, &mut stats_full);
        run(&mut dht, &mut stats_dht);
    }

    let report = |label: &str, s: &MapperStats| {
        subsection(label);
        println!("chosen-host load:   {}", Summary::of(&s.chosen_load).row());
        println!(
            "overloaded (>0.8) picks: {} / {} ({})",
            s.overloaded_picks,
            s.chosen_load.len(),
            pct(s.overloaded_picks as f64 / s.chosen_load.len() as f64)
        );
        println!("mapping error:      {}", Summary::of(&s.mapping_error).row());
        println!("circuit usage:      {}", Summary::of(&s.circuit_usage).row());
        println!("DHT lookup hops:    {}", Summary::of(&s.hops).row());
    };

    report("latency-only mapping (the naive N1-picker)", &stats_latency_only);
    report("full-space oracle mapping (the paper's N2 choice)", &stats_full);
    report("Hilbert-DHT mapping (decentralized implementation)", &stats_dht);

    // Each clause over the means as the rows print them (three decimals).
    let mean = |xs: &[f64]| printed(Summary::of(xs).mean, 3);
    let load = (mean(&stats_full.chosen_load), mean(&stats_latency_only.chosen_load));
    let usage = (mean(&stats_full.circuit_usage), mean(&stats_latency_only.circuit_usage));
    let hops = (mean(&stats_dht.hops), (cfg.nodes as f64).log2());
    let error = (mean(&stats_dht.mapping_error), mean(&stats_full.mapping_error));
    let clauses = [
        (
            "shape check (paper): full-space mapping picks much less loaded hosts",
            load.0 <= 0.5 * load.1,
            format!("mean load {:.3} ≤ ½ × latency-only's {:.3}", load.0, load.1),
        ),
        (
            "at a small latency premium",
            usage.0 <= 1.10 * usage.1,
            format!("mean usage {:.3} ≤ 1.10 × latency-only's {:.3}", usage.0, usage.1),
        ),
        (
            "the DHT approximates the oracle with O(log n) routing hops",
            hops.0 <= hops.1,
            format!("mean {:.3} ≤ log₂ {} = {:.3}", hops.0, cfg.nodes, hops.1),
        ),
        (
            "and slightly higher mapping error",
            error.1 <= error.0 && error.0 <= 1.25 * error.1,
            format!("mean {:.3} in 1–1.25 × the oracle's {:.3}", error.0, error.1),
        ),
    ];
    println!();
    for (clause, pass, values) in &clauses {
        println!("{clause}: {} ({values})", verdict(*pass));
    }
    known_failure_unless(clauses.iter().all(|(_, pass, _)| *pass));
}
