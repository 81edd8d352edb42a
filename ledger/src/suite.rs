//! Everything above one workload run: `run --all`, `repeat` and
//! `compare`, and the suite file they exchange.
//!
//! A suite file holds a host descriptor and, per workload, every metric
//! by name. Written by `run --all` it carries single values; written by
//! `repeat` each value is the median over the repetitions and carries its
//! quartiles and relative spread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{Map, Value};

use crate::catalog::Better;
use crate::host::Host;
use crate::stats::{spread, Spread};
use crate::workload::Workload;

/// How a suite is run: each workload in a fresh `ledger run` process.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// The `ledger` binary to spawn (normally this one).
    pub exe: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Also run the traced pass of each workload.
    pub traced: bool,
    pub smoke: bool,
    /// Where per-run reports and span files go.
    pub out_dir: PathBuf,
}

/// One metric of one workload in a suite file.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub value: f64,
    pub unit: String,
    /// Present when the value is a median over repetitions.
    pub spread: Option<Spread>,
}

impl Entry {
    /// Read `{"value", "unit"}`, with `{"q1", "q3", "spread", "n"}` when
    /// the value is a median over repetitions.
    fn from_json(m: &Value) -> Entry {
        let num = |k: &str| field(m, k).and_then(Value::as_f64);
        let value = num("value").unwrap_or(f64::NAN);
        let spread = match (num("q1"), num("q3"), num("spread"), num("n")) {
            (Some(q1), Some(q3), Some(relative), Some(n)) => Some(Spread {
                n: n as usize,
                q1,
                median: value,
                q3,
                relative,
            }),
            _ => None,
        };
        Entry {
            value,
            unit: field(m, "unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            spread,
        }
    }
}

/// The wider of two entries' relative spreads, when either has one.
fn widest_spread(a: &Entry, b: &Entry) -> Option<f64> {
    [a.spread, b.spread]
        .into_iter()
        .flatten()
        .map(|s| s.relative)
        .reduce(f64::max)
}

/// `workload → metric → entry`, plus pass/fail per workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Suite {
    pub workloads: BTreeMap<String, BTreeMap<String, Entry>>,
    pub attempted: BTreeMap<String, u64>,
    pub failed: BTreeMap<String, u64>,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object().and_then(|o| o.get(key))
}

impl Suite {
    /// Fold one `ledger run --out` report into the suite.
    fn absorb_report(&mut self, report: &Value) -> Result<(), String> {
        let workload = field(report, "workload")
            .and_then(Value::as_str)
            .ok_or("report has no workload")?
            .to_owned();
        let metrics = self.workloads.entry(workload.clone()).or_default();
        for section in ["metrics", "extra"] {
            let Some(map) = field(report, section).and_then(Value::as_object) else {
                continue;
            };
            for (name, m) in map {
                metrics.insert(name.clone(), Entry::from_json(m));
            }
        }
        for (key, into) in [
            ("attempted", &mut self.attempted),
            ("failed", &mut self.failed),
        ] {
            let n = field(report, key).and_then(Value::as_u64).unwrap_or(0);
            *into.entry(workload.clone()).or_insert(0) += n;
        }
        Ok(())
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn to_json(&self, host: &Host, cfg: &SuiteConfig, runs: usize) -> Value {
        let mut workloads = Map::new();
        for (name, metrics) in &self.workloads {
            let mut ms = Map::new();
            for (metric, e) in metrics {
                let mut m = Map::new();
                m.insert("value".to_owned(), Value::from(e.value));
                m.insert("unit".to_owned(), Value::from(e.unit.as_str()));
                if let Some(s) = e.spread {
                    m.insert("q1".to_owned(), Value::from(s.q1));
                    m.insert("q3".to_owned(), Value::from(s.q3));
                    m.insert("spread".to_owned(), Value::from(s.relative));
                    m.insert("n".to_owned(), Value::from(s.n));
                }
                ms.insert(metric.clone(), Value::Object(m));
            }
            let mut w = Map::new();
            w.insert(
                "attempted".to_owned(),
                Value::from(self.attempted.get(name).copied().unwrap_or(0)),
            );
            w.insert(
                "failed".to_owned(),
                Value::from(self.failed.get(name).copied().unwrap_or(0)),
            );
            w.insert("metrics".to_owned(), Value::Object(ms));
            workloads.insert(name.clone(), Value::Object(w));
        }
        let mut top = Map::new();
        top.insert(
            "host".to_owned(),
            serde_json::to_value(host).unwrap_or(Value::Null),
        );
        top.insert("seed".to_owned(), Value::from(cfg.seed));
        top.insert("seconds".to_owned(), Value::from(cfg.seconds));
        top.insert("runs".to_owned(), Value::from(runs));
        top.insert("workloads".to_owned(), Value::Object(workloads));
        Value::Object(top)
    }

    pub fn load(path: &Path) -> Result<Suite, String> {
        let v = read_json(path)?;
        let mut suite = Suite::default();
        let workloads = field(&v, "workloads")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no \"workloads\" object", path.display()))?;
        for (name, w) in workloads {
            let mut metrics = BTreeMap::new();
            if let Some(ms) = field(w, "metrics").and_then(Value::as_object) {
                for (metric, m) in ms {
                    metrics.insert(metric.clone(), Entry::from_json(m));
                }
            }
            suite.workloads.insert(name.clone(), metrics);
            for (key, into) in [
                ("attempted", &mut suite.attempted),
                ("failed", &mut suite.failed),
            ] {
                let n = field(w, key).and_then(Value::as_u64).unwrap_or(0);
                into.insert(name.clone(), n);
            }
        }
        Ok(suite)
    }
}

/// Run the five workloads in sequence, each in a fresh process (plain,
/// then traced when asked). The children's listings go to our stdout.
pub fn run_all(cfg: &SuiteConfig) -> Result<Suite, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{:?}: {e}", cfg.out_dir))?;
    let mut suite = Suite::default();
    for workload in Workload::ALL {
        for traced in [false, true] {
            if traced && !cfg.traced {
                continue;
            }
            let report_path = cfg.out_dir.join(format!(
                "report_{}_{}.json",
                workload.name(),
                if traced { "traced" } else { "plain" }
            ));
            let mut cmd = Command::new(&cfg.exe);
            cmd.arg("run")
                .args(["--workload", workload.name()])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&report_path)
                .arg("--out-dir")
                .arg(&cfg.out_dir);
            if cfg.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot spawn {:?}: {e}", cfg.exe))?;
            // A failing workload still wrote its report; fold it in so the
            // failure shows in the suite, and go on to the next workload.
            match read_json(&report_path) {
                Ok(report) => suite.absorb_report(&report)?,
                Err(e) => {
                    return Err(format!(
                        "{} ({status}) left no report: {e}",
                        workload.name()
                    ))
                }
            }
            let _ = std::fs::remove_file(&report_path);
        }
    }
    Ok(suite)
}

/// Run the suite `n` times; every metric becomes its median with
/// quartiles and relative spread.
pub fn repeat(cfg: &SuiteConfig, n: usize) -> Result<Suite, String> {
    let mut values: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    let mut merged = Suite::default();
    for _ in 0..n {
        let suite = run_all(cfg)?;
        for (workload, metrics) in &suite.workloads {
            for (metric, e) in metrics {
                let slot = values
                    .entry((workload.clone(), metric.clone()))
                    .or_insert_with(|| (Vec::new(), e.unit.clone()));
                slot.0.push(e.value);
            }
        }
        for (from, into) in [
            (&suite.attempted, &mut merged.attempted),
            (&suite.failed, &mut merged.failed),
        ] {
            for (w, n) in from {
                *into.entry(w.clone()).or_insert(0) += n;
            }
        }
    }
    for ((workload, metric), (vals, unit)) in values {
        let entry = match spread(&vals) {
            Some(s) => Entry {
                value: s.median,
                unit,
                spread: Some(s),
            },
            None => Entry {
                value: vals.first().copied().unwrap_or(f64::NAN),
                unit,
                spread: None,
            },
        };
        merged
            .workloads
            .entry(workload)
            .or_default()
            .insert(metric, entry);
    }
    Ok(merged)
}

/// Per metric: median, quartiles and relative spread.
pub fn render_spreads(suite: &Suite) -> String {
    let mut out = String::new();
    for (workload, metrics) in &suite.workloads {
        out.push_str(&format!(
            "== {workload} ==\n{:<40} {:>14} {:>14} {:>14} {:>8}  unit\n",
            "metric", "q1", "median", "q3", "spread"
        ));
        for (metric, e) in metrics {
            match e.spread {
                Some(s) => out.push_str(&format!(
                    "{metric:<40} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%  {}\n",
                    s.q1,
                    s.median,
                    s.q3,
                    s.relative * 100.0,
                    e.unit
                )),
                None => out.push_str(&format!(
                    "{metric:<40} {:>14} {:>14.4} {:>14} {:>8}  {}\n",
                    "-", e.value, "-", "-", e.unit
                )),
            }
        }
    }
    out
}

/// The bounds and directions `BENCHMARK.json` fixes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bounds {
    /// `metric → (better, bound)`; layer metrics have no bound.
    pub metrics: BTreeMap<String, (Better, Option<f64>)>,
}

impl Bounds {
    pub fn load(path: &Path) -> Result<Bounds, String> {
        let v = read_json(path)?;
        let mut bounds = Bounds::default();
        for section in ["end_to_end", "per_layer"] {
            let list = field(&v, section)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{}: no {section:?} list", path.display()))?;
            for m in list {
                let name = field(m, "name").and_then(Value::as_str).unwrap_or_default();
                let better = match field(m, "better").and_then(Value::as_str) {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                };
                let bound = field(m, "bound").and_then(Value::as_f64);
                bounds.metrics.insert(name.to_owned(), (better, bound));
            }
        }
        Ok(bounds)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
    /// A metric with no bound (a layer metric): the ratio is shown, no
    /// verdict is given.
    Unbounded,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// `b` against `a`: by how much it is worse (positive) or better
/// (negative) as a share of `a`, and what that amounts to under `bound`.
pub fn judge(a: &Entry, b: &Entry, better: Better, bound: Option<f64>) -> (f64, Verdict) {
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let Some(bound) = bound else {
        return (worse_by, Verdict::Unbounded);
    };
    let verdict = if widest_spread(a, b).is_some_and(|w| w > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// The ledger diff: one row per (workload, metric) present in both files,
/// with both values, the ratio and its base, the bound, and the verdict.
pub fn render_compare(a: &Suite, b: &Suite, bounds: &Bounds) -> (String, usize) {
    let mut out = format!(
        "{:<16} {:<36} {:>14} {:>14} {:>12} {:>7} {:>8}  verdict\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "spread"
    );
    let mut worse = 0;
    for (workload, metrics_a) in &a.workloads {
        let Some(metrics_b) = b.workloads.get(workload) else {
            continue;
        };
        for (metric, ea) in metrics_a {
            let (Some(eb), Some((better, bound))) =
                (metrics_b.get(metric), bounds.metrics.get(metric))
            else {
                continue;
            };
            let (_, verdict) = judge(ea, eb, *better, *bound);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            out.push_str(&format!(
                "{workload:<16} {metric:<36} {:>14.4} {:>14.4} {:>12.4} {:>7} {:>8}  {}\n",
                ea.value,
                eb.value,
                eb.value / ea.value,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                widest_spread(ea, eb).map_or("-".to_owned(), |w| format!("{:.1}%", w * 100.0)),
                verdict.as_str()
            ));
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, relative: Option<f64>) -> Entry {
        Entry {
            value,
            unit: "ms".to_owned(),
            spread: relative.map(|relative| Spread {
                n: 5,
                q1: value,
                median: value,
                q3: value,
                relative,
            }),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = entry(100.0, Some(0.01));
        // Lower is better: +20% is worse, -20% better, +5% the same.
        assert_eq!(
            judge(&a, &entry(120.0, None), Better::Lower, Some(0.1)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &entry(80.0, None), Better::Lower, Some(0.1)).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &entry(105.0, None), Better::Lower, Some(0.1)).1,
            Verdict::Same
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(&a, &entry(120.0, None), Better::Higher, Some(0.1)).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &entry(80.0, None), Better::Higher, Some(0.1)).1,
            Verdict::Worse
        );
        // A spread wider than the bound on either side: no call.
        let noisy = entry(120.0, Some(0.15));
        assert_eq!(
            judge(&a, &noisy, Better::Lower, Some(0.1)).1,
            Verdict::Unresolved
        );
        // No bound (a layer metric): the change is reported, not judged.
        let (worse_by, v) = judge(&a, &entry(150.0, None), Better::Lower, None);
        assert_eq!(v, Verdict::Unbounded);
        assert!((worse_by - 0.5).abs() < 1e-12);
    }

    #[test]
    fn suite_files_round_trip_and_compare() {
        let mut a = Suite::default();
        let m = a.workloads.entry("batch_narrow".to_owned()).or_default();
        m.insert("op_p50_ms".to_owned(), entry(100.0, Some(0.02)));
        m.insert("dataflow.scan_ms".to_owned(), entry(10.0, None));
        a.attempted.insert("batch_narrow".to_owned(), 9);
        a.failed.insert("batch_narrow".to_owned(), 0);
        let cfg = SuiteConfig {
            exe: PathBuf::new(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            smoke: true,
            out_dir: PathBuf::new(),
        };
        let dir = std::env::temp_dir().join(format!("ledger-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        let json = a.to_json(&Host::describe(), &cfg, 5);
        std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap()).unwrap();
        assert_eq!(Suite::load(&path).unwrap(), a);
        std::fs::remove_dir_all(&dir).unwrap();

        let mut b = a.clone();
        b.workloads
            .get_mut("batch_narrow")
            .unwrap()
            .get_mut("op_p50_ms")
            .unwrap()
            .value = 130.0;
        let mut bounds = Bounds::default();
        bounds
            .metrics
            .insert("op_p50_ms".to_owned(), (Better::Lower, Some(0.1)));
        bounds
            .metrics
            .insert("dataflow.scan_ms".to_owned(), (Better::Lower, None));
        let (table, worse) = render_compare(&a, &b, &bounds);
        assert_eq!(worse, 1);
        assert!(table.contains("worse"), "{table}");
        assert!(
            table.contains("dataflow.scan_ms"),
            "layer rows are listed too"
        );
    }
}
