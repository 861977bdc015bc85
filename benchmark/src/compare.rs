//! `compare <parent.json> <change.json>`: two `run` result files side by
//! side, one row per (workload, end-to-end metric), judged against the bound
//! the benchmark fixed — never against a combined score.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread on either side is wider than the bound, so the
    /// medians cannot tell a regression from noise.
    Unresolved,
}

/// Judges one metric. `worse_by` is the change's value relative to the
/// parent's, signed so that positive is *worse* whatever the metric's
/// direction. A gain counts only beyond both sides' own spread.
pub fn verdict(worse_by: f64, parent_spread: f64, change_spread: f64, bound: f64) -> Verdict {
    let spread = parent_spread.max(change_spread);
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sbon-benchmark/1") => Ok(doc),
        _ => Err(format!("{path} is not a `run` result file")),
    }
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn failed_share(row: &Json) -> f64 {
    let n = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("ops_failed") / n("ops_attempted").max(1.0)
}

pub fn run(parent_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut worse_rows = 0usize;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  {:<10} parent [q1 .. q3] / change [q1 .. q3]",
        "workload", "metric", "parent", "change", "delta", "bound", "verdict"
    );
    for p_row in workloads(&parent) {
        let name = p_row.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(c_row) = workloads(&change).iter().find(|w| w.get("name") == p_row.get("name"))
        else {
            println!("{name:<12} missing from {change_path}");
            worse_rows += 1;
            continue;
        };
        for def in &metrics::END_TO_END {
            let cell = |row: &Json| {
                let m = row.get("end_to_end")?.get(def.name)?;
                Some((m.get("value")?.as_f64()?, Summary::from_json(m)?))
            };
            let (Some((pv, ps)), Some((cv, cs))) = (cell(p_row), cell(c_row)) else {
                println!("{name:<12} {:<16} not measured on both sides", def.name);
                continue;
            };
            // Every ratio with its base: delta is relative to the parent.
            let delta = (cv - pv) / pv;
            let worse_by = if def.better == Better::Lower { delta } else { -delta };
            let v = verdict(worse_by, ps.spread(), cs.spread(), def.bound);
            worse_rows += usize::from(v == Verdict::Worse);
            println!(
                "{name:<12} {:<16} {pv:>14.6} {cv:>14.6} {:>+8.2}% {:>6.0}%  {:<10} [{:.6} .. {:.6}] / [{:.6} .. {:.6}] {}",
                def.name,
                delta * 100.0,
                def.bound * 100.0,
                format!("{v:?}").to_lowercase(),
                ps.q1,
                ps.q3,
                cs.q1,
                cs.q3,
                def.unit,
            );
        }
        // Exact quantities: any difference means the simulation changed.
        let digest =
            |row: &Json| row.get("report_digest").and_then(Json::as_str).map(str::to_string);
        if digest(p_row) != digest(c_row) {
            println!(
                "{name:<12} report_digest differs: {} -> {}",
                digest(p_row).unwrap_or_default(),
                digest(c_row).unwrap_or_default()
            );
        }
        let counters = |row: &Json| row.get("counters").and_then(Json::as_obj).map(<[_]>::to_vec);
        if let (Some(pc), Some(cc)) = (counters(p_row), counters(c_row)) {
            for (key, pv) in &pc {
                let cv = cc.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if cv != Some(pv) {
                    let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::render);
                    println!(
                        "{name:<12} counter {key} differs: {} -> {}",
                        show(Some(pv)),
                        show(cv)
                    );
                }
            }
        }
        let (pf, cf) = (failed_share(p_row), failed_share(c_row));
        if cf > pf {
            println!("{name:<12} failed share grew: {pf:.6} -> {cf:.6}");
            worse_rows += 1;
        }
    }
    println!("{worse_rows} row(s) worse");
    Ok(if worse_rows == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // 20% slower against a 10% bound, quiet runs: worse.
        assert_eq!(verdict(0.20, 0.01, 0.02, 0.10), Verdict::Worse);
        // Same medians but one side's spread exceeds the bound: unresolved,
        // not "same" — and a big swing under that much noise is unresolved too.
        assert_eq!(verdict(0.00, 0.01, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.30, 0.12, 0.01, 0.10), Verdict::Unresolved);
        // 8% slower, inside the bound: same.
        assert_eq!(verdict(0.08, 0.01, 0.01, 0.10), Verdict::Same);
        // 5% faster with 2% spread: better; 1% faster is inside the spread.
        assert_eq!(verdict(-0.05, 0.02, 0.01, 0.10), Verdict::Better);
        assert_eq!(verdict(-0.01, 0.02, 0.01, 0.10), Verdict::Same);
        // An exact (virtual) metric has no spread: any gain is a gain.
        assert_eq!(verdict(-1e-9, 0.0, 0.0, 0.05), Verdict::Better);
        assert_eq!(verdict(0.0, 0.0, 0.0, 0.05), Verdict::Same);
    }
}
