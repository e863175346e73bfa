//! What a run hands back, and how it is printed: every metric by name
//! with its unit, then the one-line JSON result the driver reads.
//!
//! `BENCHMARK.json` is compiled in and is the only list of metric names,
//! units and bounds: a run prints exactly the metrics it declares
//! (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`),
//! and a value computed under a name it does not declare is an error.

use serde::Json;
use std::collections::BTreeMap;

/// The benchmark's declaration, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger reads.
#[derive(Clone, Debug)]
pub struct Declaration {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declaration {
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let json = serde::parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match json.get(key) {
            Some(Json::Array(items)) => Ok(items.as_slice()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
        };
        let text_of = |item: &Json, key: &str| match item.get(key) {
            Some(Json::String(s)) => Ok(s.clone()),
            _ => Err(format!("BENCHMARK.json: an entry has no `{key}`")),
        };
        let metrics = |key: &str| {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricDecl {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: text_of(item, "better")? == "higher",
                        bound: item.get("bound").and_then(number),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Declaration {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: json.get("run_seconds").and_then(number).unwrap_or(0.0) as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration compiled into this binary.
    pub fn compiled_in() -> Result<Declaration, String> {
        Declaration::parse(BENCHMARK_JSON)
    }
}

/// A JSON number as `f64`.
pub fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (iterations or jobs) issued in measured windows.
    pub attempted: u64,
    /// Of those, how many failed, timed out, or produced bytes that
    /// differ from the strict-serial reference.
    pub failed: u64,
    /// The first failure, for the operator's eyes.
    pub first_error: Option<String>,
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form facts printed with the report (never parsed).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one failed operation, keeping the first message.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    /// Pair the measured values with the declared list for this trace
    /// mode. A per-layer metric no layer of this workload produced reads
    /// 0 (the layer did no work); a missing end-to-end metric, or a
    /// value under an undeclared name, is an error.
    pub fn declared(
        &self,
        decl: &Declaration,
        traced: bool,
    ) -> Result<Vec<(MetricDecl, f64)>, String> {
        let wanted = if traced { &decl.per_layer } else { &decl.end_to_end };
        if let Some(stray) = self.metrics.keys().find(|k| wanted.iter().all(|m| m.name != **k)) {
            return Err(format!("metric `{stray}` is not declared in BENCHMARK.json"));
        }
        wanted
            .iter()
            .map(|m| match self.metrics.get(m.name.as_str()) {
                Some(value) if value.is_finite() => Ok((m.clone(), *value)),
                Some(value) => Err(format!("metric `{}` is {value}", m.name)),
                None if traced => Ok((m.clone(), 0.0)),
                None => Err(format!("end-to-end metric `{}` was not measured", m.name)),
            })
            .collect()
    }
}

/// The `{"name": {"value": v, "unit": u}}` object of a result line.
pub fn metrics_json(values: &[(MetricDecl, f64)]) -> Json {
    Json::Object(
        values
            .iter()
            .map(|(m, value)| {
                let entry = Json::Object(vec![
                    ("value".to_string(), Json::Float(*value)),
                    ("unit".to_string(), Json::String(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The four fields of a result, in the contract's order.
fn result_fields(outcome: &Outcome, values: &[(MetricDecl, f64)]) -> Vec<(String, Json)> {
    vec![
        ("correct".to_string(), Json::Bool(outcome.failed == 0)),
        ("attempted".to_string(), Json::Int(outcome.attempted.max(1) as i128)),
        ("failed".to_string(), Json::Int(outcome.failed as i128)),
        ("metrics".to_string(), metrics_json(values)),
    ]
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, values: &[(MetricDecl, f64)]) -> String {
    serde::write_json_compact(&Json::Object(result_fields(outcome, values)))
}

/// Where the numbers were taken: the block every saved record carries.
pub fn machine_block(disk: &str) -> Vec<(String, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_model".to_string(), cpu_model),
        ("rustc".to_string(), tool_line("rustc", &["--version"])),
        ("git_rev".to_string(), tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ("build_profile".to_string(), profile.to_string()),
        ("disk_profile".to_string(), disk.to_string()),
    ]
}

/// First line a tool prints, or `unknown` (the driver's checkout is not
/// a git repository, and a box may lack the tool).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The record `--out` appends: the result line's fields plus what
/// identifies the run, one JSON object per line.
pub fn saved_record(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    machine: &[(String, String)],
    outcome: &Outcome,
    values: &[(MetricDecl, f64)],
) -> String {
    let strings = |pairs: &[(String, String)]| {
        Json::Object(pairs.iter().map(|(k, v)| (k.clone(), Json::String(v.clone()))).collect())
    };
    let mut fields = vec![
        ("workload".to_string(), Json::String(workload.to_string())),
        ("seed".to_string(), Json::Int(seed as i128)),
        ("seconds".to_string(), Json::Int(seconds as i128)),
        ("trace".to_string(), Json::Int(traced as i128)),
        ("machine".to_string(), strings(machine)),
    ];
    fields.extend(result_fields(outcome, values));
    fields.push(("notes".to_string(), strings(&outcome.notes)));
    serde::write_json_compact(&Json::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_declaration_is_well_formed() {
        let decl = Declaration::compiled_in().unwrap();
        assert!((2..=8).contains(&decl.workloads.len()));
        assert!((1..=60).contains(&decl.run_seconds));
        let setup = decl.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &decl.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            assert!(setup.bound >= m.bound, "setup_s carries the largest bound");
        }
        assert!(decl.per_layer.len() <= 128);
        let mut names: Vec<&String> =
            decl.end_to_end.iter().chain(&decl.per_layer).map(|m| &m.name).collect();
        names.extend(&decl.workloads);
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let decl = Declaration::compiled_in().unwrap();
        let mut outcome = Outcome { attempted: 42, ..Default::default() };
        for m in &decl.end_to_end {
            outcome.metrics.insert(Box::leak(m.name.clone().into_boxed_str()), 1.5);
        }
        let values = outcome.declared(&decl, false).unwrap();
        let line = result_line(&outcome, &values);
        let Json::Object(pairs) = serde::parse_json(&line).unwrap() else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"), "{line}");
    }

    #[test]
    fn undeclared_and_missing_metrics_are_errors() {
        let decl = Declaration::compiled_in().unwrap();
        let mut outcome = Outcome::default();
        assert!(outcome.declared(&decl, false).is_err(), "end-to-end metrics are required");
        let per_layer = outcome.declared(&decl, true).unwrap();
        assert!(per_layer.iter().all(|(_, v)| *v == 0.0), "idle layers read 0");
        outcome.set("no.such.metric", 1.0);
        assert!(outcome.declared(&decl, true).is_err());
    }
}
