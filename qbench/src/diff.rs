//! `qbench diff <parent.json> <change.json>`: compare two results files
//! metric by metric.
//!
//! For each (workload, metric) present in both files it prints both
//! sides' median and quartiles, and how many index-matched run pairs the
//! change won (ties count for neither side). The verdict on an end-to-end
//! metric, whose bound comes from `BENCHMARK.json`:
//!
//! * **better** — the change wins at least 9 of every 10 pairs and its
//!   median beats the parent's by more than the parent's interquartile
//!   distance;
//! * **unresolved** — otherwise, when the parent's own spread (IQR over
//!   median) is wider than the bound, no smaller change can be told apart;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound (as a share of the parent's median);
//! * **no change** — none of the above.
//!
//! Per-layer metrics, and the diagnostics a run records beyond the
//! declared metrics, have no bound; they get the pair counts and the
//! *better* test only.

use crate::json::{self, Value};
use crate::report::{self, RunResult};
use std::fmt::Write as _;
use std::path::Path;

/// One metric's declaration from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median (end-to-end only).
    pub bound: Option<f64>,
}

/// Read the metric declarations of a `BENCHMARK.json`.
pub fn declared(bench: &Value) -> Result<Vec<Declared>, String> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = bench
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric has no name")?;
            out.push(Declared {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// Read a results file's runs.
pub fn load_runs(path: &Path) -> Result<Vec<RunResult>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no `runs` list", path.display()))?
        .iter()
        .map(|r| RunResult::from_json(r, "", 0))
        .collect()
}

/// The verdict on one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Resolved improvement.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound.
    NoChange,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// A per-layer metric with no improvement shown.
    Diagnostic,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::NoChange => "no change",
            Verdict::Unresolved => "unresolved",
            Verdict::Diagnostic => "-",
        }
    }
}

/// Judge one metric from both sides' per-run values (index-matched pairs).
pub fn judge(parent: &[f64], change: &[f64], decl: &Declared) -> (Verdict, usize, usize) {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| {
        if decl.lower_is_better {
            c < p
        } else {
            c > p
        }
    };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (Some(pm), Some(cm), Some((q1, q3))) = (
        report::median(parent),
        report::median(change),
        report::quartiles(parent),
    ) else {
        return (Verdict::Unresolved, wins, pairs);
    };
    let gain = if decl.lower_is_better {
        pm - cm
    } else {
        cm - pm
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return (Verdict::Better, wins, pairs);
    }
    let Some(bound) = decl.bound else {
        return (Verdict::Diagnostic, wins, pairs);
    };
    if pm != 0.0 && (q3 - q1) / pm.abs() > bound {
        return (Verdict::Unresolved, wins, pairs);
    }
    if -gain > bound * pm.abs() {
        return (Verdict::Worse, wins, pairs);
    }
    (Verdict::NoChange, wins, pairs)
}

/// Compare two results files under `BENCHMARK.json`'s declarations.
/// Returns the report and the overall verdict (the worst of the
/// end-to-end verdicts: worse, then unresolved, then better, then no
/// change).
pub fn diff(parent: &Path, change: &Path, bench: &Path) -> Result<(String, Verdict), String> {
    let bench_text =
        std::fs::read_to_string(bench).map_err(|e| format!("read {}: {e}", bench.display()))?;
    let mut decls =
        declared(&json::parse(&bench_text).map_err(|e| format!("{}: {e}", bench.display()))?)?;
    let (p_runs, c_runs) = (load_runs(parent)?, load_runs(change)?);
    // Diagnostics the runs record beyond the declared metrics (the write
    // path's latencies) are compared too, as lower-is-better with no bound.
    for m in p_runs.iter().flat_map(|r| &r.metrics) {
        if !decls.iter().any(|d| d.name == m.name) {
            decls.push(Declared {
                name: m.name.clone(),
                lower_is_better: true,
                bound: None,
            });
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<30} {:>13} {:>25} {:>13} {:>25} {:>6}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "wins"
    );
    let mut verdicts = Vec::new();
    let mut workloads: Vec<&str> = Vec::new();
    for r in &p_runs {
        if !workloads.contains(&r.workload.as_str())
            && c_runs.iter().any(|c| c.workload == r.workload)
        {
            workloads.push(&r.workload);
        }
    }
    for w in workloads {
        let p: Vec<&RunResult> = p_runs.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&RunResult> = c_runs.iter().filter(|r| r.workload == w).collect();
        for d in &decls {
            let (pv, cv) = (
                report::values_of(&p, &d.name),
                report::values_of(&c, &d.name),
            );
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (verdict, wins, pairs) = judge(&pv, &cv, d);
            if d.bound.is_some() {
                verdicts.push(verdict);
            }
            let side = |v: &[f64]| {
                let med = report::median(v).unwrap_or(f64::NAN);
                let (q1, q3) = report::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
                (med, format!("[{q1:.4}, {q3:.4}]"))
            };
            let ((pm, pq), (cm, cq)) = (side(&pv), side(&cv));
            let _ = writeln!(
                out,
                "{w:<13} {:<30} {pm:>13.4} {pq:>25} {cm:>13.4} {cq:>25} {:>6}  {}",
                d.name,
                format!("{wins}/{pairs}"),
                verdict.name()
            );
        }
    }
    let overall = [Verdict::Worse, Verdict::Unresolved, Verdict::Better]
        .into_iter()
        .find(|v| verdicts.contains(v))
        .unwrap_or(Verdict::NoChange);
    let _ = writeln!(out, "verdict: {}", overall.name());
    Ok((out, overall))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower: bool, bound: Option<f64>) -> Declared {
        Declared {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let same: Vec<f64> = (0..10).map(|i| 100.5 + i as f64).collect();
        assert_eq!(
            judge(&parent, &same, &decl(true, Some(0.1))).0,
            Verdict::NoChange
        );
        // 30% faster in every pair: better.
        let fast: Vec<f64> = parent.iter().map(|v| v * 0.7).collect();
        assert_eq!(
            judge(&parent, &fast, &decl(true, Some(0.1))),
            (Verdict::Better, 10, 10)
        );
        // 30% slower: worse.
        let slow: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            judge(&parent, &slow, &decl(true, Some(0.1))).0,
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&parent, &slow, &decl(false, Some(0.1))).0,
            Verdict::Better
        );
        // A parent spread wider than the bound cannot resolve a small move.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * i as f64).collect();
        let nudged: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&noisy, &nudged, &decl(true, Some(0.1))).0,
            Verdict::Unresolved
        );
        // Per-layer metrics get no bound.
        assert_eq!(
            judge(&parent, &slow, &decl(true, None)).0,
            Verdict::Diagnostic
        );
    }
}
