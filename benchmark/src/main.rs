//! `sbon_benchmark` — the repo's benchmark driver. See `README.md`.
//!
//! ```text
//! sbon_benchmark --workload W --seed S --seconds T --trace 0|1   one measurement, result as the last line
//! sbon_benchmark run [--seed S] [--workload W] [--seconds T] [--quick] [--out FILE]
//! sbon_benchmark compare <parent.json> <change.json>
//! sbon_benchmark manifest                                         prints BENCHMARK.json
//! sbon_benchmark pass --workload W --seed S [--traced] [--twin]   one pass (what the above re-exec)
//! ```

// Benchmark harness: wall-clock timing is the measurement itself (the root
// `clippy.toml` bans `Instant` for simulator code, which this is not).
#![allow(clippy::disallowed_methods)]

mod compare;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use suite::{Host, WorkloadResult};
use workloads::{PassOpts, Workload};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2005;

/// Where traces and result files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed command line: one optional leading subcommand, `--key value`
/// options, bare `--flags`, and positional arguments.
struct Args {
    command: Option<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const VALUE_OPTIONS: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out"];
const FLAGS: [&str; 3] = ["--quick", "--traced", "--twin"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args =
            Args { command: None, options: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut raw = raw.peekable();
        if raw.peek().is_some_and(|a| !a.starts_with("--")) {
            args.command = raw.next();
        }
        while let Some(a) = raw.next() {
            if VALUE_OPTIONS.contains(&a.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.options.push((a, v));
            } else if FLAGS.contains(&a.as_str()) {
                args.flags.push(a);
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn option(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.option(key)
            .map(|v| v.parse::<T>().map_err(|_| format!("{key} {v} is not a valid number")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.option("--workload")
            .map(|name| Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sbon_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(raw: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    let seed = args.number::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.flag("--quick");
    let seconds = args.number::<f64>("--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64);
    match args.command.as_deref() {
        None => {
            let workload = args.workload()?.ok_or("--workload is required")?;
            let traced = match args.option("--trace") {
                Some("0") | None => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            measurement(workload, seed, quick, seconds, traced)
        }
        Some("run") => suite_run(&args, seed, quick, seconds),
        Some("compare") => match args.positional.as_slice() {
            [parent, change] => compare::run(parent, change),
            _ => Err("usage: compare <parent.json> <change.json>".into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("pass") => {
            let workload = args.workload()?.ok_or("--workload is required")?;
            let result = workloads::run_pass(PassOpts {
                workload,
                seed,
                traced: args.flag("--traced"),
                quick,
                twin: args.flag("--twin"),
            });
            println!("{}", result.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

/// One measurement of one workload, in the form the benchmark contract
/// fixes: every metric printed by name, then one JSON object as the last
/// line of standard output — the end-to-end metrics from untraced passes
/// (`--trace 0`), or the per-layer metrics from a traced pass (`--trace 1`).
fn measurement(
    workload: Workload,
    seed: u64,
    quick: bool,
    seconds: f64,
    traced: bool,
) -> Result<ExitCode, String> {
    let host = Host::read();
    let result = suite::measure(workload, seed, quick, seconds, !traced, traced)?;
    result.print(&host);
    let metrics: Vec<(String, Json)> = if traced {
        result
            .per_layer()?
            .into_iter()
            .map(|(name, v)| {
                let unit = metrics::layer_def(name).expect("per-layer name is in the table").unit;
                (name.to_string(), obj! { "value" => v, "unit" => unit })
            })
            .collect()
    } else {
        result
            .end_to_end()
            .iter()
            .map(|m| (m.def.name.to_string(), obj! { "value" => m.value(), "unit" => m.def.unit }))
            .collect()
    };
    let failed = result.ops_failed();
    println!(
        "{}",
        obj! {
            "correct" => failed == 0,
            "attempted" => result.ops_attempted(),
            "failed" => failed,
            "metrics" => Json::Obj(metrics),
        }
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

/// The whole suite (or one workload of it): end-to-end and per-layer numbers
/// for each workload, printed and written to one result file `compare` reads.
fn suite_run(args: &Args, seed: u64, quick: bool, seconds: f64) -> Result<ExitCode, String> {
    let host = Host::read();
    let selected: Vec<Workload> = match args.workload()? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    for workload in selected {
        let result = suite::measure(workload, seed, quick, seconds, true, true)?;
        result.print(&host);
        results.push(result);
    }
    let failed: u64 = results.iter().map(WorkloadResult::ops_failed).sum();
    let rows = results.iter().map(WorkloadResult::to_json).collect::<Result<Vec<_>, _>>()?;
    let doc = obj! {
        "schema" => "sbon-benchmark/1",
        "seed" => seed,
        "quick" => quick,
        "seconds_per_workload" => seconds,
        "host" => host.to_json(),
        "workloads" => Json::Arr(rows),
        "ops_failed" => failed,
        // This benchmark measures; it claims nothing.
        "claim" => Json::Null,
    };
    let path = args.option("--out").map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!("{}", doc.render());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
