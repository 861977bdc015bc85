//! Measuring one workload: repeated passes, each in a fresh child process
//! (so `peak_rss_mib` is per pass and every cache starts cold), folded into
//! end-to-end numbers — the quietest pass for host times, see
//! [`crate::metrics::Kind`] — with their run-to-run noise, plus one traced
//! pass for the per-layer numbers.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, EndToEnd, END_TO_END, PER_LAYER};
use crate::obj;
use crate::stats::{self, Summary};
use crate::workloads::{PassOpts, PassResult, Workload};

/// Most untraced passes, however short they are.
const MAX_PASSES: usize = 9;

/// The machine as the measurement found it.
pub struct Host {
    pub nproc: usize,
    /// 1-minute load average when the measurement started.
    pub loadavg_1m: f64,
}

impl Host {
    pub fn read() -> Host {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Host { nproc: std::thread::available_parallelism().map_or(1, |p| p.get()), loadavg_1m }
    }

    pub fn to_json(&self) -> Json {
        obj! { "nproc" => self.nproc, "loadavg_1m" => self.loadavg_1m }
    }
}

/// One end-to-end metric of one workload.
pub struct Measured {
    pub def: &'static EndToEnd,
    /// The per-pass values.
    pub noise: Summary,
}

impl Measured {
    /// The value the measurement reports.
    pub fn value(&self) -> f64 {
        self.def.reported(&self.noise)
    }

    /// Run-to-run spread wider than the regression bound: a later comparison
    /// on this metric is unresolved, and the output says so instead of
    /// averaging it away.
    pub fn flagged(&self) -> bool {
        self.noise.spread() > self.def.bound
    }
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    /// Untraced passes, in the order they ran.
    pub passes: Vec<PassResult>,
    pub traced: Option<PassResult>,
    /// Failed cross-pass checks (digest, counters, twin), one line each.
    pub failures: Vec<String>,
    pub checks_attempted: u64,
}

/// Runs one pass in a child process and reads its result back.
fn child_pass(opts: PassOpts) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the driver: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("pass").args(["--workload", opts.workload.name()]);
    cmd.args(["--seed", &opts.seed.to_string()]);
    for (flag, on) in [("--traced", opts.traced), ("--quick", opts.quick), ("--twin", opts.twin)] {
        if on {
            cmd.arg(flag);
        }
    }
    // `output` waits for the child to end; its stderr goes to ours.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass of {} ended with {}", opts.workload.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("pass printed nothing")?;
    PassResult::from_json(&Json::parse(last)?)
}

/// Measures `workload`: untraced passes until about `seconds` have gone by
/// (never fewer than [`Workload::min_passes`]) when `end_to_end` is wanted — one
/// otherwise, as the baseline for the tracing overhead — then one traced
/// pass when `layers` is wanted, then the cross-pass correctness checks.
pub fn measure(
    workload: Workload,
    seed: u64,
    quick: bool,
    seconds: f64,
    end_to_end: bool,
    layers: bool,
) -> Result<WorkloadResult, String> {
    let opts = PassOpts { workload, seed, traced: false, quick, twin: false };
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(child_pass(opts)?);
        let elapsed = start.elapsed().as_secs_f64();
        let enough = !end_to_end
            || passes.len() >= MAX_PASSES
            || (passes.len() >= workload.min_passes()
                && elapsed + elapsed / passes.len() as f64 > seconds);
        if enough {
            break;
        }
    }
    let traced = if layers { Some(child_pass(PassOpts { traced: true, ..opts })?) } else { None };

    let mut failures = Vec::new();
    let mut checks_attempted = 0;
    let first = &passes[0];
    for (i, p) in passes.iter().chain(&traced).enumerate().skip(1) {
        checks_attempted += 1;
        if let Some(what) = first_difference(first, p) {
            failures.push(format!("pass {i} differs from pass 0 in {what}"));
        }
    }
    if workload == Workload::Routed5k {
        // The routed control plane must leave the simulation exactly as the
        // omniscient catalog does; one twin run outside the timed passes.
        let twin = child_pass(PassOpts { twin: true, ..opts })?;
        checks_attempted += 1;
        if twin.digest != first.digest {
            failures.push(format!(
                "routed digest {} differs from its omniscient twin's {}",
                first.digest, twin.digest
            ));
        }
    }
    Ok(WorkloadResult { workload, seed, quick, passes, traced, failures, checks_attempted })
}

/// The first exact (seed-determined) quantity two passes disagree on.
fn first_difference(a: &PassResult, b: &PassResult) -> Option<String> {
    if a.digest != b.digest {
        return Some(format!("report_digest ({} vs {})", a.digest, b.digest));
    }
    if a.usage_ratio.to_bits() != b.usage_ratio.to_bits() {
        return Some(format!("usage_ratio ({} vs {})", a.usage_ratio, b.usage_ratio));
    }
    a.counters
        .iter()
        .zip(&b.counters)
        .find(|(x, y)| x.0 != y.0 || x.1.to_bits() != y.1.to_bits())
        .map(|(x, y)| format!("counter {} ({} vs {})", x.0, x.1, y.1))
}

impl WorkloadResult {
    pub fn ops_attempted(&self) -> u64 {
        self.all_passes().map(|p| p.ops_attempted).sum::<u64>() + self.checks_attempted
    }

    pub fn ops_failed(&self) -> u64 {
        self.all_passes().map(|p| p.ops_failed).sum::<u64>() + self.failures.len() as u64
    }

    pub fn failure_lines(&self) -> Vec<String> {
        self.all_passes()
            .flat_map(|p| p.failures.iter().cloned())
            .chain(self.failures.clone())
            .collect()
    }

    fn all_passes(&self) -> impl Iterator<Item = &PassResult> {
        self.passes.iter().chain(&self.traced)
    }

    /// Every end-to-end metric, from the untraced passes.
    pub fn end_to_end(&self) -> Vec<Measured> {
        END_TO_END
            .iter()
            .map(|def| {
                let of: fn(&PassResult) -> f64 = match def.name {
                    "setup_s" => |p| p.setup_s,
                    "wall_s" => |p| p.wall_s,
                    "ticks_per_s" => |p| p.ticks as f64 / p.tick_s,
                    "peak_rss_mib" => |p| p.peak_rss_mib,
                    "usage_ratio" => |p| p.usage_ratio,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                let noise = Summary::of(&self.passes.iter().map(of).collect::<Vec<_>>());
                Measured { def, noise }
            })
            .collect()
    }

    /// Every per-layer metric, from the traced pass; `obs.trace_overhead_pct`
    /// compares its `wall_s` with the untraced median.
    pub fn per_layer(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let traced = self.traced.as_ref().ok_or("no traced pass was run")?;
        let untraced_wall =
            stats::median(&self.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let overhead_pct = (traced.wall_s / untraced_wall - 1.0) * 100.0;
        PER_LAYER
            .iter()
            .map(|l| {
                let found =
                    traced.counters.iter().chain(&traced.timers).find(|(k, _)| *k == l.name);
                match (l.name, found) {
                    ("obs.trace_overhead_pct", _) => Ok((l.name, overhead_pct)),
                    (_, Some(&(_, v))) if v.is_finite() => Ok((l.name, v)),
                    (name, _) => Err(format!("traced pass did not report {name}")),
                }
            })
            .collect()
    }

    /// Prints every metric by name with its unit, host vs virtual, and the
    /// run-to-run noise; flags what a comparison could not resolve.
    pub fn print(&self, host: &Host) {
        let w = self.workload;
        let first = &self.passes[0];
        println!(
            "== {} (seed {}{}) — {} nodes, {} ticks, threads {}, {} untraced passes{}; nproc {}, load {:.2}",
            w.name(),
            self.seed,
            if self.quick { ", quick" } else { "" },
            first.nodes,
            first.ticks,
            first.threads,
            self.passes.len(),
            if self.traced.is_some() { " + 1 traced" } else { "" },
            host.nproc,
            host.loadavg_1m,
        );
        if self.passes.len() >= self.workload.min_passes() {
            for m in self.end_to_end() {
                let s = m.noise;
                println!(
                    "   {:<16} {:>14.6} {:<6} {:<7} n={} min {:.6} q1 {:.6} med {:.6} q3 {:.6} max {:.6} spread {:.2}%{}",
                    m.def.name,
                    m.value(),
                    m.def.unit,
                    if m.def.is_virtual() { "virtual" } else { "host" },
                    s.n,
                    s.min,
                    s.q1,
                    s.median,
                    s.q3,
                    s.max,
                    s.spread() * 100.0,
                    if m.flagged() {
                        format!("  ** wider than the {:.0}% bound: unresolved **", m.def.bound * 100.0)
                    } else {
                        String::new()
                    },
                );
            }
        }
        if let Ok(layers) = self.per_layer() {
            for (name, v) in layers {
                let def = metrics::layer_def(name).expect("per-layer name is in the table");
                println!("   {:<32} {:>16.4} {:<8} {:?}", name, v, def.unit, def.source);
            }
        }
        println!(
            "   report_digest {}  ops {} attempted, {} failed",
            first.digest,
            self.ops_attempted(),
            self.ops_failed()
        );
        for line in self.failure_lines() {
            println!("   FAILED: {line}");
        }
    }

    /// This workload's row of a `run` result file.
    pub fn to_json(&self) -> Result<Json, String> {
        let first = &self.passes[0];
        let end_to_end = self
            .end_to_end()
            .iter()
            .map(|m| {
                let mut row = vec![
                    ("value".to_string(), Json::from(m.value())),
                    ("unit".to_string(), Json::from(m.def.unit)),
                    (
                        "kind".to_string(),
                        Json::from(if m.def.is_virtual() { "virtual" } else { "host" }),
                    ),
                    ("better".to_string(), Json::from(m.def.better.as_str())),
                    ("bound".to_string(), Json::from(m.def.bound)),
                    ("flagged".to_string(), Json::from(m.flagged())),
                ];
                if let Json::Obj(noise) = m.noise.to_json() {
                    row.extend(noise);
                }
                (m.def.name.to_string(), Json::Obj(row))
            })
            .collect();
        let pairs = |kv: &[(&'static str, f64)]| {
            Json::Obj(kv.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect())
        };
        Ok(obj! {
            "name" => self.workload.name(),
            "why" => self.workload.why(),
            "seed" => self.seed,
            "nodes" => first.nodes,
            "ticks" => first.ticks,
            "threads" => first.threads,
            "repeats" => self.passes.len(),
            "ops_attempted" => self.ops_attempted(),
            "ops_failed" => self.ops_failed(),
            "failures" => Json::Arr(self.failure_lines().into_iter().map(Json::from).collect()),
            "report_digest" => first.digest.as_str(),
            "end_to_end" => Json::Obj(end_to_end),
            "counters" => pairs(&first.counters),
            "per_layer" => pairs(&self.per_layer()?),
        })
    }
}
