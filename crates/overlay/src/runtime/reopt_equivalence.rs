//! Property pins for dirty-driven incremental re-optimization.
//!
//! The relevance index ([`sbon_core::reopt::relevance`]) lets the runtime
//! skip re-optimization passes for circuits it can prove clean. The skip is
//! only legal if it is **exact**: on the full [`RunReport`] — every sample,
//! every migration, every usage figure — a run with skipping enabled must be
//! bit-identical to one that evaluates every circuit at every pass. These
//! properties pin that contract across random topologies, churn and jitter
//! schedules, all three mapper backends, reuse on/off,
//! mid-run node failures, and 3 or 16 live circuits — with 16, a churn
//! tick's batch of touches is tested against many surviving clean records.
//!
//! A second pin holds the sharded phases — read-only re-opt evaluation and
//! the join wave's placement batch (wave scenarios admit `n / 8` ≥ 7
//! joiners a tick) — to the serial ones: `threads = 8` ≡ `threads = 1`, on
//! the whole report and on the latency store's counters, with a query
//! deployed mid-run.

use proptest::prelude::*;
use sbon_coords::vivaldi::VivaldiConfig;
use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_core::reopt::ReoptPolicy;
use sbon_dht::ProtoConfig;
use sbon_netsim::graph::NodeId;
use sbon_netsim::lazy::LazyLatencyStats;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_netsim::topology::Topology;

use crate::{
    DeploymentModel, JitterModel, MapperBackend, OverlayRuntime, RunReport, RuntimeConfig,
};

/// One randomly drawn run scenario. Everything that shapes the simulation is
/// in here so both runs of a comparison replay the identical schedule.
#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    nodes: usize,
    /// Selects the mapper backend: DHT catalog, oracle scan or routed
    /// catalog.
    backend: u8,
    sparse_churn: bool,
    jitter: bool,
    failure: bool,
    reuse: bool,
    /// Deployment wave (about half the nodes initially, an eighth more per
    /// tick) with landmark Vivaldi and join-time placement.
    wave: bool,
    /// Join stars deployed over the run (3 or 16); the last one arrives
    /// mid-run.
    stars: usize,
    /// A replacement threshold of 0: plan-replacing passes swap whenever
    /// a candidate ties the running estimate, so circuits are rewritten
    /// pass after pass.
    eager_replace: bool,
}

impl Scenario {
    /// Decodes a strategy draw: `flags` carries the five booleans and the
    /// star count as bits so the whole scenario fits the shim's
    /// tuple-strategy arity.
    fn decode(seed: u64, nodes: usize, backend: u8, flags: u8) -> Scenario {
        Scenario {
            seed,
            nodes,
            backend,
            sparse_churn: flags & 1 != 0,
            jitter: flags & 2 != 0,
            failure: flags & 4 != 0,
            reuse: flags & 8 != 0,
            wave: flags & 16 != 0,
            stars: if flags & 32 != 0 { 16 } else { 3 },
            eager_replace: false,
        }
    }

    /// Catalog-backed mapper (not the oracle scan, whose every cost-point
    /// change touches the whole space, so no clean record survives a tick).
    fn catalog_mapper(&self) -> bool {
        self.backend != 1
    }
}

fn topology(s: &Scenario) -> Topology {
    generate(&TransitStubConfig::with_total_nodes(s.nodes), s.seed)
}

/// A small join star over the stub hosts, offset so the two deployed queries
/// overlap on some hosts (exercising reuse pins) without being identical.
fn star(hosts: &[NodeId], base: usize, rate: f64) -> QuerySpec {
    let pick = |i: usize| hosts[(base + i * 7) % hosts.len()];
    QuerySpec::join_star(&[pick(0), pick(1), pick(2), pick(3)], pick(4), rate, 0.02)
}

/// Runs the drawn scenario once. `incremental = false` is the
/// evaluate-everything reference: it forgets every clean record after each
/// deploy and each tick, and since a tick always separates consecutive
/// same-kind passes (cadences 2 s / 3 s / 4 s at a 1 s tick) every pass then
/// evaluates every circuit. `threads` sets the worker pool for the parallel
/// phases. All three re-optimization pass kinds fire within the 8-tick
/// horizon, the last star is deployed after tick 3, and the optional failure
/// lands between the first and second local pass. `memo = false` is the
/// recompute-everything reference of the re-opt memos. Returns the report,
/// the latency store's counters, the evaluations the dirty
/// filter skipped and the memo hits.
fn run_once(
    s: &Scenario,
    topo: &Topology,
    incremental: bool,
    threads: usize,
    memo: bool,
) -> (RunReport, Option<LazyLatencyStats>, usize, u64) {
    let mapper = match s.backend {
        0 => MapperBackend::Dht { bits: 12, scan_width: 8 },
        1 => MapperBackend::Oracle,
        _ => MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() },
    };
    // Kept light on purpose: heavy churn dirties every circuit every tick
    // and the skip path never fires. At ~2 touched nodes per tick a good
    // fraction of passes find provably-clean circuits (up to ~half of the
    // candidacies in probe runs), so the equivalence below actually
    // compares skipped work against evaluated work.
    let churn = if s.sparse_churn {
        ChurnProcess::SparseWalk { nodes_per_tick: 2, std_dev: 0.08 }
    } else {
        ChurnProcess::Step { p: 0.02 }
    };
    let jitter = s.jitter.then_some(JitterModel {
        edges_per_tick: 10,
        factor_range: (0.8, 1.6),
        band: (0.5, 3.0),
    });
    let reuse = if s.reuse { ReuseScope::All } else { ReuseScope::None };

    let mut config = RuntimeConfig::builder()
        .horizon_ms(8_000.0)
        .reopt_interval_ms(2_000.0)
        .rewrite_interval_ms(3_000.0)
        .full_reopt_interval_ms(4_000.0)
        .churn(churn)
        .latency_jitter(jitter)
        .mapper_backend(mapper)
        .reuse(reuse)
        .threads(threads);
    if s.eager_replace {
        config =
            config.policy(ReoptPolicy { migration_threshold: 0.05, replacement_threshold: 0.0 });
    }
    if s.wave {
        let n = topo.num_nodes();
        config = config
            .deployment(DeploymentModel::Wave { initial: n / 2, joins_per_tick: n / 8 })
            .vivaldi(VivaldiConfig { landmarks: Some(8), ..Default::default() });
    }

    let mut rt = OverlayRuntime::new(topo, s.seed, config.build());
    rt.memo_off = !memo;
    let reference = |rt: &mut OverlayRuntime| {
        if !incremental {
            rt.forget_clean_records();
        }
    };
    // Queries are pinned on hosts present from tick 0 (all of them, unless
    // the scenario is a wave).
    let hosts: Vec<NodeId> =
        topo.host_candidates().into_iter().filter(|&h| rt.is_arrived(h)).collect();
    rt.deploy(star(&hosts, 0, 10.0)).expect("first query must deploy");
    rt.deploy(star(&hosts, 3, 6.0)).expect("second query must deploy");
    for k in 0..s.stars - 3 {
        rt.deploy(star(&hosts, 11 + 2 * k, 4.0 + k as f64)).expect("extra query must deploy");
    }
    reference(&mut rt);
    if s.failure {
        // Kill a producer host of the first query mid-run: evacuation (or
        // teardown, if it strands the circuit) must stay equivalent too.
        rt.schedule_failure(3_500.0, hosts[7 % hosts.len()]);
    }
    let mut session = rt.start_run();
    let mut more = true;
    while more {
        if session.ticks_done() == 3 {
            rt.deploy(star(&hosts, 5, 8.0)).expect("mid-run query must deploy");
            reference(&mut rt);
        }
        more = rt.advance_ticks(&mut session, 1);
        reference(&mut rt);
    }
    let stats = rt.control_plane_stats();
    (rt.finish_run(session), rt.lazy_latency_stats(), stats.reopt_skipped, stats.memo_hits)
}

proptest! {
    // Runtime runs are the expensive end of the workspace's property tests,
    // so the case counts stay small; the draws still cover the full backend
    // grid and the churn/jitter/failure/reuse combinations.
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Dirty-driven skipping is exact: skipping provably-clean circuits
    /// produces the bit-identical `RunReport` to evaluating everything. With
    /// 16 circuits under sparse churn on a catalog mapper the incremental
    /// run must actually skip, so the equivalence cannot hold vacuously.
    #[test]
    fn incremental_reopt_equals_full_scan(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..3, 0u8..64)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let (incremental, _, skipped, _) = run_once(&s, &topo, true, 1, true);
        let (full_scan, _, _, _) = run_once(&s, &topo, false, 1, true);
        prop_assert_eq!(incremental, full_scan);
        if s.stars == 16 && s.sparse_churn && s.catalog_mapper() {
            prop_assert!(skipped > 0, "nothing skipped in {s:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The sharded read-only evaluation phase commits serially in circuit
    /// order, and a tick's joiners are placed from one landmark view and
    /// committed in join order, so the thread count must never show up in
    /// the report or in the latency store.
    #[test]
    fn parallel_reopt_equals_serial(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..3, 0u8..64)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let parallel = run_once(&s, &topo, true, 8, true);
        let serial = run_once(&s, &topo, true, 1, true);
        prop_assert_eq!(parallel, serial);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// A memo hit is the value recomputing gives: with every circuit
    /// evaluated at every pass (the full-scan reference, so each list is
    /// evaluated again and again), the memo run sharded over 8 threads
    /// reports exactly what the serial recompute-everything run reports.
    /// Half the draws replace eagerly, so plans change under the memos.
    /// Off the wave — whose joins move vector coordinates every tick, so the
    /// memos forget every tick — it must have read something back.
    #[test]
    fn memo_reopt_equals_recomputing(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..3, 0u8..128)
    ) {
        let s = Scenario { eager_replace: flags & 64 != 0, ..Scenario::decode(seed, nodes, backend, flags) };
        let topo = topology(&s);
        let (with_memo, _, _, hits) = run_once(&s, &topo, false, 8, true);
        let (recomputed, _, _, none) = run_once(&s, &topo, false, 1, false);
        prop_assert_eq!(with_memo, recomputed);
        prop_assert_eq!(none, 0);
        if !s.wave {
            prop_assert!(hits > 0, "no memo hit in {s:?}");
        }
    }
}
