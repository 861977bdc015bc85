//! Quickstart: build a network, a cost space, and optimize one query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sbon::prelude::*;

fn main() {
    // 1. A 200-node transit-stub network (the paper's topology family) and
    //    its ground-truth shortest-path latency.
    let topo = transit_stub::generate(&TransitStubConfig::with_total_nodes(200), 42);
    let latency = all_pairs_latency(&topo.graph);
    println!(
        "network: {} nodes ({} stub hosts), mean latency {:.1} ms",
        topo.num_nodes(),
        topo.host_candidates().len(),
        latency.mean_latency()
    );

    // 2. Vivaldi network coordinates (the vector dimensions) plus a
    //    squared-CPU-load scalar dimension: the paper's Figure-2 cost space.
    let embedding = VivaldiConfig::default().embed(&latency, 42);
    let mut rng = rng_from_seed(42);
    let loads = LoadModel::Random { lo: 0.0, hi: 0.8 }.generate(topo.num_nodes(), &mut rng);
    let space = CostSpaceBuilder::latency_load_space(&embedding, &loads);
    println!(
        "cost space '{}': {} dims ({} vector + {} scalar)",
        space.name,
        space.dims(),
        space.vector_dims(),
        space.dims() - space.vector_dims()
    );

    // 3. A 4-way join over pinned producers, consumer elsewhere.
    let hosts = topo.host_candidates();
    let query = QuerySpec::join_star(
        &[hosts[0], hosts[40], hosts[80], hosts[120]],
        hosts[160],
        10.0, // rate units/s per stream
        0.02, // pairwise join selectivity
    );

    // 4. Integrated optimization: all 15 bushy join trees are virtually
    //    placed (spring relaxation), physically mapped, and costed; the
    //    cheapest circuit wins.
    let optimizer = IntegratedOptimizer::new(OptimizerConfig::default());
    let placed = optimizer.optimize(&query, &space, &latency).expect("optimization succeeds");
    println!("\nchosen plan:      {}", placed.plan);
    println!("candidates tried: {}", placed.candidates_examined);
    println!(
        "network usage:    {:.1} (estimated {:.1})",
        placed.cost.network_usage, placed.estimated.network_usage
    );
    println!("worst path:       {:.1} ms", placed.cost.max_path_latency);

    // 5. Compare with the classic two-step optimizer.
    let two_step =
        TwoStepOptimizer::new().optimize(&query, &space, &latency).expect("optimization succeeds");
    println!("\ntwo-step plan:    {}", two_step.plan);
    println!("two-step usage:   {:.1}", two_step.cost.network_usage);
    println!(
        "integrated saves: {:.1}%",
        100.0 * (1.0 - placed.cost.network_usage / two_step.cost.network_usage)
    );
}
