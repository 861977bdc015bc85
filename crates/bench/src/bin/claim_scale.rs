//! **C3 — text claim (§2.2)**: overlay scale is "the nail in the coffin for
//! traditional service placement techniques unless there is substantial
//! guidance on where to focus the search".
//!
//! Sweep node count 100 → 1600. Baseline: the omniscient centralized
//! placement (exact tree DP over the full latency matrix — `O(s·n²)` work
//! *after* an `O(n·m log n)` all-pairs computation nobody gets for free).
//! Cost-space pipeline: virtual placement (network-size independent) +
//! physical mapping (oracle scan `O(n)`, or DHT at `O(log n)` routed hops).
//! Reported per n: wall time of each step, DHT hops, and the quality gap of
//! the cost-space circuit vs the optimal bound.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench binary: wall-clock timing is the measurement itself"
)]

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;

use sbon_bench::{build_world, pick_hosts, section, smoke, WorldConfig};
use sbon_core::circuit::Circuit;
use sbon_core::optimizer::QuerySpec;
use sbon_core::placement::{
    map_circuit, optimal_tree_placement, DhtMapper, OracleMapper, RelaxationPlacer, VirtualPlacer,
};
use sbon_netsim::dijkstra::all_pairs_latency;
use sbon_netsim::graph::EdgeId;
use sbon_netsim::latency::LatencyProvider;
use sbon_netsim::lazy::LazyLatency;
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};

fn main() {
    let smoke = smoke();
    section("C3 — placement cost vs overlay scale");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>9} | {:>12}",
        "nodes", "tree-DP µs", "virtual µs", "map µs", "DHT hops", "cs/optimal"
    );

    let sizes: &[usize] = if smoke { &[100, 200, 400] } else { &[100, 200, 400, 800, 1600] };
    for &nodes in sizes {
        // The centralized baseline being timed owns the dense matrix by
        // construction (that hidden cost is part of the claim).
        let world = build_world(&WorldConfig { nodes, ..Default::default() }, nodes as u64);
        let mut rng = derive_rng(nodes as u64, 0xC3);
        let hosts_all = world.topology.host_candidates();

        let trials = if smoke { 8 } else { 30 };
        let mut t_dp = Vec::new();
        let mut t_virtual = Vec::new();
        let mut t_map = Vec::new();
        let mut hops = Vec::new();
        let mut quality = Vec::new();
        let mut dht = DhtMapper::build(&world.space, 12, 8);

        for _ in 0..trials {
            let picked = pick_hosts(&world, 5, &mut rng);
            let query = QuerySpec::join_star(&picked[..4], picked[4], 10.0, 0.02);
            // One representative plan (the optimizers' candidate loop would
            // multiply all columns identically).
            let plan = sbon_query::enumerate::dp_best_plan(&query.catalog, &query.join_set).0;
            let circuit = Circuit::from_plan(&plan, &query.catalog, query.consumer);

            // Baseline: omniscient tree DP over all candidate hosts.
            let start = Instant::now();
            let (_, optimal) =
                optimal_tree_placement(&circuit, &hosts_all, |a, b| world.latency.latency(a, b));
            t_dp.push(start.elapsed().as_secs_f64() * 1e6);

            // Cost-space: virtual placement ...
            let placer = RelaxationPlacer::default();
            let start = Instant::now();
            let vp = placer.place(&circuit, &world.space);
            t_virtual.push(start.elapsed().as_secs_f64() * 1e6);

            // ... then decentralized mapping (DHT), oracle for reference.
            let start = Instant::now();
            let mapped = map_circuit(&circuit, &vp, &world.space, &mut dht);
            t_map.push(start.elapsed().as_secs_f64() * 1e6);
            hops.push(mapped.total_hops() as f64);

            let mut oracle = OracleMapper;
            let mapped_oracle = map_circuit(&circuit, &vp, &world.space, &mut oracle);
            let cs_cost = circuit
                .cost_with(&mapped_oracle.placement, &[], |a, b| world.latency.latency(a, b))
                .network_usage;
            quality.push(cs_cost / optimal.max(1e-9));
        }

        println!(
            "{:>6} | {:>12.0} {:>12.0} {:>12.0} | {:>9.1} | {:>12.3}",
            world.topology.num_nodes(),
            Summary::of(&t_dp).mean,
            Summary::of(&t_virtual).mean,
            Summary::of(&t_map).mean,
            Summary::of(&hops).mean,
            Summary::of(&quality).mean,
        );
    }

    println!();
    println!("shape check (paper): the centralized baseline's per-query work grows");
    println!("~quadratically with n (plus the hidden all-pairs state), while virtual");
    println!("placement is independent of n and DHT mapping grows ~log n — at a small");
    println!("constant-factor cost premium over the true optimum.");

    backend_comparison(smoke);
}

/// C3b — the *state* side of the scale claim: what it costs just to hold
/// and maintain ground-truth latency at size n. Dense pays `O(n²)` memory
/// up front and a full all-pairs recompute whenever edge churn dirties the
/// underlay; the lazy backend computes only the rows an optimizer workload
/// touches and, after churn, recomputes only the touched-AND-dirty ones.
fn backend_comparison(smoke: bool) {
    section("C3b — dense vs lazy latency backend (state + churn cost)");
    println!(
        "{:>6} | {:>11} {:>9} | {:>11} {:>7} {:>9} | {:>11} {:>11} | {:>7}",
        "nodes",
        "dense ms",
        "dense MB",
        "lazy ms",
        "rows",
        "lazy MB",
        "churn:dense",
        "churn:lazy",
        "speedup"
    );

    let sizes: &[usize] = if smoke { &[200, 400] } else { &[400, 800, 1600, 3200] };
    for &nodes in sizes {
        let topo = generate(&TransitStubConfig::with_total_nodes(nodes), nodes as u64);
        let n = topo.num_nodes();
        let mut rng = derive_rng(nodes as u64, 0xC3B);

        // Dense: materialize everything.
        let start = Instant::now();
        let dense = all_pairs_latency(&topo.graph);
        let t_dense_ms = start.elapsed().as_secs_f64() * 1e3;
        // current + base copy, as the jitter-capable runtime holds them.
        let dense_mb = (2 * n * n * 8) as f64 / (1024.0 * 1024.0);

        // Lazy: serve a realistic optimizer workload — host pairs of a
        // few dozen queries — computing only the touched rows.
        let mut lazy = LazyLatency::new(topo.graph.clone());
        let queries = 30;
        let workload: Vec<Vec<sbon_netsim::graph::NodeId>> = (0..queries)
            .map(|_| {
                let mut hosts = topo.host_candidates();
                hosts.shuffle(&mut rng);
                hosts.truncate(6);
                hosts
            })
            .collect();
        let run_workload = |lazy: &LazyLatency| {
            let mut acc = 0.0;
            for hosts in &workload {
                for &a in hosts {
                    for &b in hosts {
                        acc += lazy.latency(a, b);
                    }
                }
            }
            acc
        };
        let start = Instant::now();
        let check_lazy = run_workload(&lazy);
        let t_lazy_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = lazy.stats();
        let lazy_mb = (stats.rows_cached * n * 8) as f64 / (1024.0 * 1024.0);

        // Spot-check equivalence while the dense matrix is still around.
        let check_dense: f64 = workload
            .iter()
            .flat_map(|hosts| hosts.iter().flat_map(|&a| hosts.iter().map(move |&b| (a, b))))
            .map(|(a, b)| dense.latency(a, b))
            .sum();
        assert_eq!(check_lazy, check_dense, "backends must serve identical latencies");

        // One churn tick dirties 64 random edges. Ground truth under the
        // dense backend needs a full all-pairs recompute; the lazy backend
        // re-runs the workload, recomputing only dirty touched rows.
        let m = lazy.graph().num_edges();
        for _ in 0..64 {
            let e = EdgeId(rng.gen_range(0..m) as u32);
            let f = rng.gen_range(0.7..1.45);
            lazy.scale_edges_clamped(&[(e, f)], (0.5, 3.0));
        }
        let start = Instant::now();
        let refreshed = all_pairs_latency(lazy.graph());
        let t_churn_dense_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let check_after = run_workload(&lazy);
        let t_churn_lazy_ms = start.elapsed().as_secs_f64() * 1e3;
        let check_refreshed: f64 = workload
            .iter()
            .flat_map(|hosts| hosts.iter().flat_map(|&a| hosts.iter().map(move |&b| (a, b))))
            .map(|(a, b)| refreshed.latency(a, b))
            .sum();
        assert_eq!(check_after, check_refreshed, "churned backends must still agree");

        println!(
            "{:>6} | {:>11.1} {:>9.1} | {:>11.2} {:>7} {:>9.3} | {:>11.1} {:>11.2} | {:>6.0}x",
            n,
            t_dense_ms,
            dense_mb,
            t_lazy_ms,
            stats.rows_computed,
            lazy_mb,
            t_churn_dense_ms,
            t_churn_lazy_ms,
            t_churn_dense_ms / t_churn_lazy_ms.max(1e-9),
        );
    }

    println!();
    println!("shape check: dense precompute and memory grow ~n² while the lazy");
    println!("backend's cost tracks the workload's touched rows (~queries·hosts),");
    println!("and a churn tick costs a full recompute only for the dense path.");
}
