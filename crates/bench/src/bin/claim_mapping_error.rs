//! **C1 — text claim (§3.2)**: "The magnitude of the mapping error depends
//! on the dimensionality of the cost space and the distribution of physical
//! nodes within that cost space. However, experiments have shown that for
//! realistic topologies and latency cost spaces this error remains small."
//!
//! Sweep: vector dimensionality (2–5) × node count (100–1000), transit-stub
//! topologies. For random virtual coordinates drawn inside the populated
//! region we report the *relative* mapping error — the full-space distance
//! from the ideal point to (a) the oracle-nearest node (the intrinsic error
//! the paper describes: nobody sits exactly at the star) and (b) the
//! DHT-returned node, both normalized by the network's mean latency. The
//! DHT's excess over the oracle is the decentralization penalty.

use rand::Rng;

use sbon_bench::{build_world, known_failure_unless, printed, section, verdict, WorldConfig};
use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::placement::{DhtMapper, OracleMapper, PhysicalMapper};
use sbon_netsim::metrics::Summary;
use sbon_netsim::rng::derive_rng;

fn main() {
    // `SBON_SMOKE=1` shrinks the sweep (fewer dims/nodes/samples) so CI can
    // exercise this binary end-to-end in seconds; any other value, or unset,
    // runs the full paper sweep.
    let smoke = sbon_bench::smoke();
    let (dims_sweep, node_sweep, samples): (&[usize], &[usize], usize) =
        if smoke { (&[2, 3], &[100], 60) } else { (&[2, 3, 4, 5], &[100, 300, 600, 1000], 300) };

    section("C1 — mapping error across dimensionality and scale");
    println!(
        "{:>5} {:>6} | {:>24} | {:>24} | {:>8}",
        "dims", "nodes", "oracle err (rel, p50/p90)", "DHT err (rel, p50/p90)", "DHT hops"
    );

    // One row per (dims, nodes): dims, node count, oracle p50, DHT p50.
    let mut rows = Vec::new();
    for &dims in dims_sweep {
        for &nodes in node_sweep {
            let cfg = WorldConfig {
                nodes,
                vivaldi: VivaldiConfig { dims, ..Default::default() },
                ..Default::default()
            };
            let world = build_world(&cfg, (dims * 1000 + nodes) as u64);
            let mut rng = derive_rng(world.seed, 0xC1);
            let mean_lat = world.latency.mean_latency();

            // Sample random ideal points inside the populated bounding box
            // of the *vector* dims (scalars ideal = 0, as in placement).
            let vd = world.space.vector_dims();
            let mut mins = vec![f64::INFINITY; vd];
            let mut maxs = vec![f64::NEG_INFINITY; vd];
            for p in world.space.points() {
                for (d, &c) in p.vector_part(vd).iter().enumerate() {
                    mins[d] = mins[d].min(c);
                    maxs[d] = maxs[d].max(c);
                }
            }

            let mut dht =
                DhtMapper::build(&world.space, (96 / world.space.dims()).min(12) as u32, 8);
            let mut oracle = OracleMapper;
            let mut oracle_err = Vec::new();
            let mut dht_err = Vec::new();
            let mut hops = Vec::new();
            for _ in 0..samples {
                let coord: Vec<f64> = (0..vd).map(|d| rng.gen_range(mins[d]..maxs[d])).collect();
                let ideal = world.space.ideal_point(&coord);
                let (n_o, _) = oracle.map_point(&world.space, &ideal);
                let (n_d, h) = dht.map_point(&world.space, &ideal);
                oracle_err.push(world.space.point(n_o).full_distance(&ideal) / mean_lat);
                dht_err.push(world.space.point(n_d).full_distance(&ideal) / mean_lat);
                hops.push(h as f64);
            }
            let so = Summary::of(&oracle_err);
            let sd = Summary::of(&dht_err);
            let sh = Summary::of(&hops);
            println!(
                "{:>5} {:>6} | {:>11.3} /{:>10.3} | {:>11.3} /{:>10.3} | {:>8.1}",
                dims,
                world.topology.num_nodes(),
                so.p50,
                so.p90,
                sd.p50,
                sd.p90,
                sh.mean
            );
            rows.push((dims, world.topology.num_nodes(), printed(so.p50, 3), printed(sd.p50, 3)));
        }
    }

    // Each clause over the p50 columns as they print (three decimals).
    // "≪ 1×" is read as at most 0.25, "modest" as fig3's 1.25 × the oracle;
    // a clause the sweep cannot decide reads `None`.
    let at = |dims: usize| rows.iter().filter(move |r| r.0 == dims);
    let small = at(2).map(|r| r.2).fold(0.0, f64::max);
    let grows: Vec<_> = at(2).zip(at(3)).collect();
    let grows_values: Vec<_> = grows
        .iter()
        .map(|(two, three)| format!("{} nodes: 3-D {:.3} > 2-D {:.3}", two.1, three.2, two.2))
        .collect();
    // Per dims, the densest world's row against the sparsest one's.
    let ends: Vec<_> =
        dims_sweep.iter().map(|&d| at(d).next().zip(at(d).next_back()).expect("a row")).collect();
    let shrinks = (node_sweep.len() > 1).then(|| ends.iter().all(|(s, d)| d.2 < s.2));
    let shrinks_values = match shrinks {
        Some(_) => ends
            .iter()
            .map(|(s, d)| format!("{}-D: {:.3} at {} nodes < {:.3} at {}", d.0, d.2, d.1, s.2, s.1))
            .collect::<Vec<_>>()
            .join(", "),
        None => "the sweep has one node count".to_string(),
    };
    let worst = rows.iter().max_by(|a, b| (a.3 / a.2).total_cmp(&(b.3 / b.2))).expect("a row");
    let clauses = [
        (
            "shape check (paper): relative error small (≪1× mean latency) for 2-D \
             latency spaces and realistic topologies",
            Some(small <= 0.25),
            format!("largest 2-D oracle p50 {small:.3} ≤ 0.25"),
        ),
        (
            "grows with dimensionality",
            Some(grows.iter().all(|(two, three)| three.2 > two.2)),
            grows_values.join(", "),
        ),
        ("shrinks with node density", shrinks, shrinks_values),
        (
            "DHT adds only a modest excess over oracle",
            Some(rows.iter().all(|r| r.3 <= 1.25 * r.2)),
            format!(
                "largest DHT / oracle p50 {:.2} ≤ 1.25 ({}-D, {} nodes: {:.3} / {:.3})",
                worst.3 / worst.2,
                worst.0,
                worst.1,
                worst.3,
                worst.2
            ),
        ),
    ];
    println!();
    for (clause, pass, values) in &clauses {
        println!("{clause}: {} ({values})", pass.map_or("not evaluated", verdict));
    }
    known_failure_unless(clauses.iter().all(|(_, pass, _)| *pass != Some(false)));
}
