//! `benchmark check <runsA> <runsB>`: compares two sets of result files
//! against the end-to-end bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tempart_cli::json::{self, Value};

use crate::stats::quartiles;

/// One gated end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// An unreadable file or a malformed entry.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// Untraced result files of one directory: workload → metric → values.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Loads every untraced result file (`*.json` with `"trace": false`) in
/// `dir`.
///
/// # Errors
///
/// An unreadable directory or file, or a result that is not correct.
pub fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !matches!(v.get("trace"), Some(Value::Bool(false))) {
            continue;
        }
        if !matches!(v.get("correct"), Some(Value::Bool(true))) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        if v.get("profile").and_then(Value::as_str) != Some("release") {
            return Err(format!("{}: not a release-build run", path.display()));
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}: no workload", path.display()))?;
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let row = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                row.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(set)
}

/// Verdict of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread of A or B exceeds the bound, and B does not
    /// beat A on every run.
    Unresolved,
    /// A workload or metric missing from one side.
    Missing,
}

/// Compares `b` against the baseline `a`: `(verdict, worse)` where `worse`
/// is B's change relative to A's median in the "worse" direction.
pub fn compare(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return (Verdict::Missing, 0.0);
    };
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse = if am == 0.0 {
        sign * (bm - am)
    } else {
        sign * (bm - am) / am.abs()
    };
    let b_beats_all = b.iter().all(|&x| a.iter().all(|&y| sign * (x - y) < 0.0));
    let verdict =
        if (spread(a1, am, a3) > bound.bound || spread(b1, bm, b3) > bound.bound) && !b_beats_all {
            Verdict::Unresolved
        } else if worse > bound.bound {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
    (verdict, worse)
}

/// The comparison table, one row per workload and end-to-end metric, and
/// whether every row is `ok`.
pub fn report(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> (String, bool) {
    let mut out = format!(
        "{:<8} {:<14} {:<5} {:>28} {:>28} {:>8} {:>6}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut all_ok = true;
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let empty = BTreeMap::new();
    for w in workloads {
        let (ra, rb) = (a.get(w).unwrap_or(&empty), b.get(w).unwrap_or(&empty));
        for bound in bounds {
            let va = ra.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let vb = rb.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let (verdict, worse) = compare(va, vb, bound);
            all_ok &= verdict == Verdict::Ok;
            let cell = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, m, q3)| {
                    format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
                })
            };
            let _ = writeln!(
                out,
                "{:<8} {:<14} {:<5} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                w,
                bound.name,
                bound.unit,
                cell(va),
                cell(vb),
                100.0 * worse,
                100.0 * bound.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "missing",
                }
            );
        }
    }
    (out, all_ok)
}
