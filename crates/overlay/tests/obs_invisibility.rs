//! Bit-invisibility pins for the observability layer.
//!
//! The contract (`sbon_obs` crate docs): metrics and the trace (its file
//! and its flight-recorder ring) may *watch* the control plane but never
//! *steer* it. An instrumented run — every event formatted into the ring —
//! must produce the bit-identical [`RunReport`] to an uninstrumented run of
//! the same scenario, across every mapper backend,
//! and the thread count must show up in neither the report nor the trace.
//!
//! These properties draw random scenarios (topology, churn, jitter,
//! failures, reuse) like `reopt_equivalence.rs` and pin:
//!
//! 1. obs-on ≡ obs-off on the full report (the instrumented run must also
//!    actually emit events, so the pin cannot pass vacuously);
//! 2. with obs on, `threads = 8` ≡ `threads = 1`, on the report *and* on
//!    the emitted-event count;
//! 3. the JSONL trace bytes are identical across thread counts, and the
//!    trace — the one with every span kind — passes `check_trace`.

use proptest::prelude::*;
use sbon_core::multiquery::ReuseScope;
use sbon_core::optimizer::QuerySpec;
use sbon_dht::ProtoConfig;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::ChurnProcess;
use sbon_netsim::topology::transit_stub::{generate, TransitStubConfig};
use sbon_netsim::topology::Topology;
use sbon_obs::{check_trace, ObsConfig};
use sbon_overlay::{JitterModel, MapperBackend, OverlayRuntime, RunReport, RuntimeConfig};

/// One randomly drawn run scenario (see `reopt_equivalence.rs`).
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
}

impl Scenario {
    fn decode(seed: u64, nodes: usize, backend: u8, flags: u8) -> Scenario {
        Scenario {
            seed,
            nodes,
            backend,
            sparse_churn: flags & 1 != 0,
            jitter: flags & 2 != 0,
            failure: flags & 4 != 0,
            reuse: flags & 8 != 0,
        }
    }

    fn mapper(&self) -> MapperBackend {
        match self.backend {
            0 => MapperBackend::Dht { bits: 12, scan_width: 8 },
            1 => MapperBackend::Oracle,
            _ => MapperBackend::Routed { bits: 12, scan_width: 8, proto: ProtoConfig::default() },
        }
    }
}

fn topology(s: &Scenario) -> Topology {
    generate(&TransitStubConfig::with_total_nodes(s.nodes), s.seed)
}

fn star(hosts: &[NodeId], base: usize, rate: f64) -> QuerySpec {
    let pick = |i: usize| hosts[(base + i * 7) % hosts.len()];
    QuerySpec::join_star(&[pick(0), pick(1), pick(2), pick(3)], pick(4), rate, 0.02)
}

/// Runs the drawn scenario once under the given observability config,
/// returning the report and how many trace events were emitted (None when
/// tracing is off). All three re-opt pass kinds fire within the horizon,
/// and the optional failure lands mid-run — so deploy, tick, re-opt, fail,
/// and routed-settle instrumentation sites all execute.
fn run_once(
    s: &Scenario,
    topo: &Topology,
    threads: usize,
    obs: ObsConfig,
) -> (RunReport, Option<u64>) {
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

    let config = RuntimeConfig::builder()
        .horizon_ms(8_000.0)
        .reopt_interval_ms(2_000.0)
        .rewrite_interval_ms(3_000.0)
        .full_reopt_interval_ms(4_000.0)
        .churn(churn)
        .latency_jitter(jitter)
        .mapper_backend(s.mapper())
        .reuse(reuse)
        .threads(threads)
        .obs(obs)
        .build();

    let mut rt = OverlayRuntime::new(topo, s.seed, config);
    let hosts = topo.host_candidates();
    rt.deploy(star(&hosts, 0, 10.0)).expect("first query must deploy");
    rt.deploy(star(&hosts, 3, 6.0)).expect("second query must deploy");
    if s.failure {
        rt.schedule_failure(3_500.0, hosts[7 % hosts.len()]);
    }
    let report = rt.run();
    let emitted = rt.trace_events_emitted();
    (report, emitted)
}

/// Ring-only tracing: every event is formatted, none is written anywhere.
const RING: ObsConfig = ObsConfig { trace: None, flight_capacity: 256 };

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Keep-everything instrumentation is invisible: the instrumented run's
    /// report is bit-identical to the uninstrumented run's.
    #[test]
    fn instrumented_run_is_bit_identical_to_uninstrumented(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..3, 0u8..16)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let (plain, no_trace) = run_once(&s, &topo, 1, ObsConfig::disabled());
        let (watched, emitted) = run_once(&s, &topo, 1, RING);
        prop_assert!(no_trace.is_none(), "disabled obs must not build a tracer");
        prop_assert!(
            emitted.expect("tracer on") > 0,
            "the instrumented run must emit events, or this pin is vacuous"
        );
        prop_assert_eq!(plain, watched);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// With instrumentation on, the worker-pool width must show up neither
    /// in the report nor in the number of emitted trace events (spans come
    /// only from serial orchestration paths).
    #[test]
    fn traced_run_is_thread_count_invariant(
        (seed, nodes, backend, flags) in (0u64..u64::MAX, 60usize..140, 0u8..3, 0u8..16)
    ) {
        let s = Scenario::decode(seed, nodes, backend, flags);
        let topo = topology(&s);
        let (parallel, emitted_p) = run_once(&s, &topo, 8, RING);
        let (serial, emitted_s) = run_once(&s, &topo, 1, RING);
        prop_assert_eq!(parallel, serial);
        prop_assert_eq!(emitted_p, emitted_s);
    }
}

/// The JSONL trace itself is deterministic across thread counts:
/// byte-identical files from a `threads = 8` and a `threads = 1` run.
#[test]
fn jsonl_trace_bytes_are_identical_across_thread_counts() {
    let s = Scenario {
        seed: 0x000b_171d,
        nodes: 90,
        backend: 2, // Routed: the most instrumentation sites
        sparse_churn: true,
        jitter: true,
        failure: true,
        reuse: true,
    };
    let topo = topology(&s);
    let dir = std::env::temp_dir();
    let path = |threads: usize| {
        dir.join(format!("sbon_obs_invisibility_{}_{threads}.jsonl", std::process::id()))
    };
    let mut reports = Vec::new();
    for threads in [8usize, 1] {
        let obs = ObsConfig { trace: Some(path(threads)), flight_capacity: 64 };
        // `run_once` drops the runtime on return, which flushes the file.
        reports.push(run_once(&s, &topo, threads, obs));
    }
    assert_eq!(reports[0], reports[1], "traced runs stay thread-count invariant");
    let a = std::fs::read(path(8)).expect("parallel trace written");
    let b = std::fs::read(path(1)).expect("serial trace written");
    assert!(!a.is_empty(), "the trace must not be empty");
    assert_eq!(a, b, "JSONL trace bytes must not depend on the thread count");
    for threads in [8usize, 1] {
        let text = std::fs::read_to_string(path(threads)).expect("trace written");
        let _ = std::fs::remove_file(path(threads));
        let events = check_trace(&text).unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        assert_eq!(Some(events), reports[0].1);
        for kind in
            ["deploy", "fail", "routed.settle", "reopt.local", "reopt.rewrite", "reopt.full"]
        {
            let tag = format!(r#""kind":"{kind}""#);
            assert!(text.contains(&tag), "the trace carries every span kind: no {kind}");
        }
    }
}
