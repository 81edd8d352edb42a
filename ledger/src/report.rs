//! What one `ledger run` prints and writes.

use serde_json::{Map, Value};

use crate::span::Span;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of one workload in one process.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Ops attempted and ops failed, refused, wrong against the oracle or
    /// acked but lost.
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line each. Empty on a correct run.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this kind of run: every
    /// end-to-end metric on a plain run, every layer metric on a traced one.
    pub metrics: Vec<Metric>,
    /// Metrics defined on this workload only, sample counts, and which
    /// exactly-repeating counts did repeat. Printed and written, never
    /// part of the contract line.
    pub extra: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let mut top = Map::new();
        top.insert("correct".to_owned(), Value::Bool(self.correct()));
        top.insert("attempted".to_owned(), Value::from(self.attempted.max(1)));
        top.insert("failed".to_owned(), Value::from(self.failed));
        top.insert("metrics".to_owned(), metrics_json(&self.metrics));
        Value::Object(top).to_string()
    }

    /// Everything, for `--out` and for `run --all` to merge.
    pub fn to_json(&self) -> Value {
        let mut top = Map::new();
        top.insert("workload".to_owned(), Value::from(self.workload.as_str()));
        top.insert("seed".to_owned(), Value::from(self.seed));
        top.insert("traced".to_owned(), Value::Bool(self.traced));
        top.insert("attempted".to_owned(), Value::from(self.attempted));
        top.insert("failed".to_owned(), Value::from(self.failed));
        top.insert(
            "problems".to_owned(),
            Value::Array(self.problems.iter().map(|p| p.as_str().into()).collect()),
        );
        top.insert("metrics".to_owned(), metrics_json(&self.metrics));
        top.insert("extra".to_owned(), metrics_json(&self.extra));
        Value::Object(top)
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "plain" }
        );
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("{:<36} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "{:<36} {:>16.6} ratio  ({} failed of {})\n",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        let mut entry = Map::new();
        entry.insert("value".to_owned(), Value::from(m.value));
        entry.insert("unit".to_owned(), Value::from(m.unit));
        map.insert(m.name.clone(), Value::Object(entry));
    }
    Value::Object(map)
}
