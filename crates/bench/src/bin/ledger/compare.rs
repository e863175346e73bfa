//! `ledger compare <base.jsonl> <change.jsonl>` — hold the runs of a
//! change against the runs of its base with the bounds `BENCHMARK.json`
//! fixes, one verdict per (end-to-end metric, workload):
//!
//! * `regressed` — the change's median is worse than the base's by more
//!   than the bound (or the change failed operations the base did not);
//! * `unresolved` — not regressed by the medians, but the run-to-run
//!   spread of either side is wider than the bound, so "no regression"
//!   cannot be told from noise — unless every run of the change reads
//!   better than every run of the base;
//! * `unchanged` — no regression, resolved.
//!
//! Each file holds one record per line, as `--out` appends them. Every
//! ratio is printed with its base. Exits 1 when anything regressed.

use crate::report::{number, Declaration, MetricDecl};
use crate::stats::{iqr_share, median};
use serde::Json;
use std::collections::BTreeMap;

/// Per workload: per metric, the values of the untraced runs; and the
/// failed-operation count over all its runs.
#[derive(Default, Debug)]
pub struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, u64>,
}

impl Runs {
    pub fn parse(text: &str) -> Result<Runs, String> {
        let mut runs = Runs::default();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let record = serde::parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let Some(Json::String(workload)) = record.get("workload") else {
                return Err(format!("line {}: no `workload`", n + 1));
            };
            let failed = record.get("failed").and_then(number).unwrap_or(0.0) as u64;
            *runs.failed.entry(workload.clone()).or_default() += failed;
            let Some(Json::Object(metrics)) = record.get("metrics") else {
                return Err(format!("line {}: no `metrics`", n + 1));
            };
            for (name, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(number) {
                    let of_workload = runs.values.entry(workload.clone()).or_default();
                    of_workload.entry(name.clone()).or_default().push(value);
                }
            }
        }
        Ok(runs)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    base_median: f64,
    change_median: f64,
    /// How much worse the change's median is, as a share of the base's
    /// (negative: better).
    worse_by: f64,
    spread: f64,
    bound: f64,
    unit: String,
}

fn judge(metric: &MetricDecl, base: &[f64], change: &[f64]) -> (Verdict, f64, f64) {
    let bound = metric.bound.unwrap_or(0.0);
    let (b, c) = (median(base), median(change));
    let worse_by = if metric.higher_is_better { (b - c) / b } else { (c - b) / b };
    let spread = iqr_share(base).max(iqr_share(change));
    let change_always_better = base
        .iter()
        .all(|b| change.iter().all(|c| if metric.higher_is_better { c > b } else { c < b }));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !change_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by, spread)
}

/// Every (end-to-end metric, workload) pair both sides measured, plus a
/// `failed` row for each workload where the change fails more.
pub fn compare(decl: &Declaration, base: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics) in &base.values {
        let Some(changed) = change.values.get(workload) else { continue };
        for metric in &decl.end_to_end {
            let (Some(b), Some(c)) = (metrics.get(&metric.name), changed.get(&metric.name)) else {
                continue;
            };
            let (verdict, worse_by, spread) = judge(metric, b, c);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                verdict,
                base_median: median(b),
                change_median: median(c),
                worse_by,
                spread,
                bound: metric.bound.unwrap_or(0.0),
                unit: metric.unit.clone(),
            });
        }
        let failed = |runs: &Runs| runs.failed.get(workload).copied().unwrap_or(0);
        if failed(change) > failed(base) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed".to_string(),
                verdict: Verdict::Regressed,
                base_median: failed(base) as f64,
                change_median: failed(change) as f64,
                worse_by: f64::INFINITY,
                spread: 0.0,
                bound: 0.0,
                unit: "count".to_string(),
            });
        }
    }
    rows
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [base_path, change_path] = args else {
        return Err("usage: ledger compare <base.jsonl> <change.jsonl>".to_string());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Runs::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&Declaration::compiled_in()?, &read(base_path)?, &read(change_path)?);
    if rows.is_empty() {
        return Err("the two files share no (end-to-end metric, workload) pair".to_string());
    }
    println!("base = {base_path}, change = {change_path}; ratios are change / base");
    for row in &rows {
        println!(
            "{:<10} {:<16} {:<12} base {:.6} {unit}  change {:.6} {unit}  ratio {:.4} of base  \
             worse by {:+.2}% (bound {:.0}%)  spread {:.2}%",
            row.verdict.label(),
            row.workload,
            row.metric,
            row.base_median,
            row.change_median,
            row.change_median / row.base_median,
            row.worse_by * 100.0,
            row.bound * 100.0,
            row.spread * 100.0,
            unit = row.unit,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} regressed, {} unresolved, {} unchanged",
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Unchanged)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl() -> Declaration {
        Declaration::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}, {"name": "v", "why": "y"}],
                "run_seconds": 1,
                "end_to_end": [
                  {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    fn runs(workload: &str, metric: &str, values: &[f64], failed: u64) -> String {
        values
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\":\"{workload}\",\"failed\":{failed},\
                     \"metrics\":{{\"{metric}\":{{\"value\":{v},\"unit\":\"u\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdict_of(metric: &str, base: &[f64], change: &[f64]) -> Verdict {
        let base = Runs::parse(&runs("w", metric, base, 0)).unwrap();
        let change = Runs::parse(&runs("w", metric, change, 0)).unwrap();
        let rows = compare(&decl(), &base, &change);
        assert_eq!(rows.len(), 1, "{rows:?}");
        rows[0].verdict
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses_in_either_direction() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict_of("lat_ms", &steady, &[11.5, 11.6, 11.4, 11.5]), Verdict::Regressed);
        assert_eq!(verdict_of("lat_ms", &steady, &[10.5, 10.6, 10.4, 10.5]), Verdict::Unchanged);
        assert_eq!(verdict_of("lat_ms", &steady, &[8.0, 8.1, 7.9, 8.0]), Verdict::Unchanged);
        assert_eq!(verdict_of("rate", &steady, &[8.5, 8.6, 8.4, 8.5]), Verdict::Regressed);
        assert_eq!(verdict_of("rate", &steady, &[12.0, 12.1, 11.9, 12.0]), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict_of("lat_ms", &noisy, &[10.2, 9.8, 10.0, 10.1]), Verdict::Unresolved);
        assert_eq!(verdict_of("lat_ms", &[10.0, 10.0], &noisy), Verdict::Unresolved);
        // Every run of the change beats every run of the base.
        assert_eq!(verdict_of("lat_ms", &noisy, &[7.0, 7.5, 6.0, 7.9]), Verdict::Unchanged);
        // A regression by the medians stays a regression, noise or not.
        assert_eq!(verdict_of("lat_ms", &noisy, &[12.0, 16.0, 13.0, 15.0]), Verdict::Regressed);
    }

    #[test]
    fn more_failures_regress_and_foreign_rows_are_skipped() {
        let base = Runs::parse(&runs("w", "lat_ms", &[10.0], 0)).unwrap();
        let text = runs("w", "lat_ms", &[10.0], 2) + &runs("v", "lat_ms", &[1.0], 0);
        let change = Runs::parse(&text).unwrap();
        let rows = compare(&decl(), &base, &change);
        let seen: Vec<(&str, &str, Verdict)> =
            rows.iter().map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict)).collect();
        assert_eq!(
            seen,
            [("w", "lat_ms", Verdict::Unchanged), ("w", "failed", Verdict::Regressed)],
            "workload `v` has no base, and undeclared metrics are ignored"
        );
        assert!(Runs::parse("{\"metrics\":{}}").is_err(), "a record names its workload");
    }
}
