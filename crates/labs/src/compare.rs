//! Run comparison: the Labs' core affordance.
//!
//! §3: "this kind of experience is usually not available in the
//! professional Big Data platforms today in the market, where the
//! architectural and data complexity make it difficult to compare different
//! runs of a composite BDA." Here, comparison is a first-class operation
//! over [`RunRecord`]s: choice diffs, indicator deltas, plan diffs,
//! objective flips — plus a consequence matrix with Pareto analysis over
//! many runs.

use std::collections::BTreeSet;

use toreador_core::declarative::Indicator;
use toreador_dataflow::trace::{PipelineTotals, ResilienceTotals, SpillTotals, StreamTotals};

use crate::error::{LabsError, Result};
use crate::run::RunRecord;

/// The structured difference between two runs of the same challenge.
#[derive(Debug, Clone, PartialEq)]
pub struct RunComparison {
    pub run_a: u64,
    pub run_b: u64,
    /// (choice point index, a's answer, b's answer) where they differ.
    pub choice_diffs: Vec<(usize, String, String)>,
    /// Indicator deltas, sorted by name.
    pub indicator_deltas: Vec<IndicatorDelta>,
    /// Services only in a's plan / only in b's plan.
    pub services_only_a: Vec<String>,
    pub services_only_b: Vec<String>,
    /// Objectives whose satisfaction changed: (objective, a, b).
    pub objective_flips: Vec<(String, Option<bool>, Option<bool>)>,
    /// Compliance verdict change, if any.
    pub compliance_change: Option<(Option<bool>, Option<bool>)>,
    /// Per-operator timing movement, derived from the runs' trace journals
    /// (union of operator names, sorted).
    pub operator_deltas: Vec<OperatorDelta>,
    /// Per-operator vectorized batch counts, derived from the runs' trace
    /// journals (union of operator names, sorted), with whether each
    /// operator ran in a fused chain — so a plan change that splits or joins
    /// a narrow chain shows up here even when timings are noisy.
    pub batch_deltas: Vec<BatchDelta>,
    /// Worst task-skew ratio of each run, when both runs recorded task spans.
    pub skew_change: Option<(f64, f64)>,
    /// Resilience overhead of each run (retries, backoff, timeouts, panics,
    /// speculation), when both runs recorded traces.
    pub resilience_change: Option<(ResilienceTotals, ResilienceTotals)>,
    /// Morsel-pipeline activity of each run (waves, morsels, units run off
    /// their home worker, worker skew), when both runs recorded traces. A
    /// morsel-size or thread-count ablation diffs cleanly here.
    pub pipeline_change: Option<(PipelineTotals, PipelineTotals)>,
    /// Continuous-streaming activity of each run (acked batches, stalls,
    /// watermark motion, late-data accounting), when both runs recorded
    /// traces. A late-policy or buffer-size ablation diffs cleanly here.
    pub stream_change: Option<(StreamTotals, StreamTotals)>,
    /// Out-of-core activity of each run (spilled runs, merges, page faults,
    /// evictions, peak pool residency), when both runs recorded traces. A
    /// memory-budget ablation diffs cleanly here.
    pub spill_change: Option<(SpillTotals, SpillTotals)>,
}

/// One indicator's movement between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorDelta {
    pub indicator: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// b - a when both measured.
    pub delta: Option<f64>,
}

/// One operator's timing movement between two runs (journal-derived).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorDelta {
    pub operator: String,
    /// Total attributed time in the first run, µs (None = operator absent).
    pub a_us: Option<u64>,
    pub b_us: Option<u64>,
    /// b - a when the operator ran in both.
    pub delta_us: Option<i64>,
}

/// One operator's vectorized batch-count movement between two runs
/// (journal-derived). `(batches, fused)`: how many column batches the
/// operator evaluated, and whether any ran inside a fused narrow chain.
/// None = the operator recorded no batch events in that run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDelta {
    pub operator: String,
    pub a: Option<(u64, bool)>,
    pub b: Option<(u64, bool)>,
}

impl RunComparison {
    /// Diff two records. They must belong to the same challenge — comparing
    /// across challenges compares nothing meaningful.
    pub fn diff(a: &RunRecord, b: &RunRecord) -> Result<RunComparison> {
        if a.challenge_id != b.challenge_id {
            return Err(LabsError::Incomparable(format!(
                "run {} is {:?}, run {} is {:?}",
                a.run_id, a.challenge_id, b.run_id, b.challenge_id
            )));
        }
        let choice_diffs = a
            .choices
            .iter()
            .zip(&b.choices)
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, (x, y))| (i, x.clone(), y.clone()))
            .collect();

        let names: BTreeSet<&String> = a.indicators.keys().chain(b.indicators.keys()).collect();
        let indicator_deltas = names
            .into_iter()
            .map(|name| {
                let av = a.indicators.get(name).copied();
                let bv = b.indicators.get(name).copied();
                IndicatorDelta {
                    indicator: name.clone(),
                    a: av,
                    b: bv,
                    delta: match (av, bv) {
                        (Some(x), Some(y)) => Some(y - x),
                        _ => None,
                    },
                }
            })
            .collect();

        let set_a: BTreeSet<&String> = a.plan_services.iter().collect();
        let set_b: BTreeSet<&String> = b.plan_services.iter().collect();
        let services_only_a = set_a.difference(&set_b).map(|s| (*s).clone()).collect();
        let services_only_b = set_b.difference(&set_a).map(|s| (*s).clone()).collect();

        let objective_flips = a
            .objectives
            .iter()
            .zip(&b.objectives)
            .filter(|((oa, sa), (_, sb))| {
                let _ = oa;
                sa != sb
            })
            .map(|((o, sa), (_, sb))| (o.clone(), *sa, *sb))
            .collect();

        let compliance_change = if a.compliant != b.compliant {
            Some((a.compliant, b.compliant))
        } else {
            None
        };

        let ops_a = a.operator_elapsed_us();
        let ops_b = b.operator_elapsed_us();
        let op_names: BTreeSet<&String> = ops_a.keys().chain(ops_b.keys()).collect();
        let operator_deltas = op_names
            .into_iter()
            .map(|name| {
                let a_us = ops_a.get(name).copied();
                let b_us = ops_b.get(name).copied();
                OperatorDelta {
                    operator: name.clone(),
                    a_us,
                    b_us,
                    delta_us: match (a_us, b_us) {
                        (Some(x), Some(y)) => Some(y as i64 - x as i64),
                        _ => None,
                    },
                }
            })
            .collect();
        let batches_a = a.operator_batches();
        let batches_b = b.operator_batches();
        let batch_names: BTreeSet<&String> = batches_a.keys().chain(batches_b.keys()).collect();
        let batch_deltas = batch_names
            .into_iter()
            .map(|name| BatchDelta {
                operator: name.clone(),
                a: batches_a.get(name).copied(),
                b: batches_b.get(name).copied(),
            })
            .collect();
        let skew_change = match (a.max_skew_ratio(), b.max_skew_ratio()) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        };
        let resilience_change = if a.traces.is_empty() || b.traces.is_empty() {
            None
        } else {
            Some((a.resilience_totals(), b.resilience_totals()))
        };
        let pipeline_change = if a.traces.is_empty() || b.traces.is_empty() {
            None
        } else {
            Some((a.pipeline_totals(), b.pipeline_totals()))
        };
        let stream_change = if a.traces.is_empty() || b.traces.is_empty() {
            None
        } else {
            Some((a.stream_totals(), b.stream_totals()))
        };
        let spill_change = if a.traces.is_empty() || b.traces.is_empty() {
            None
        } else {
            Some((a.spill_totals(), b.spill_totals()))
        };

        Ok(RunComparison {
            run_a: a.run_id,
            run_b: b.run_id,
            choice_diffs,
            indicator_deltas,
            services_only_a,
            services_only_b,
            objective_flips,
            compliance_change,
            operator_deltas,
            batch_deltas,
            skew_change,
            resilience_change,
            pipeline_change,
            stream_change,
            spill_change,
        })
    }

    /// True when the two runs differ in nothing the record captures.
    pub fn is_identical(&self) -> bool {
        self.choice_diffs.is_empty()
            && self.services_only_a.is_empty()
            && self.services_only_b.is_empty()
            && self.objective_flips.is_empty()
            && self.compliance_change.is_none()
    }

    /// Render as a text report.
    pub fn render(&self) -> String {
        let mut out = format!("run {} vs run {}\n", self.run_a, self.run_b);
        if self.choice_diffs.is_empty() {
            out.push_str("choices: identical\n");
        }
        for (i, a, b) in &self.choice_diffs {
            out.push_str(&format!("choice {i}: {a} -> {b}\n"));
        }
        for d in &self.indicator_deltas {
            if let (Some(a), Some(b), Some(delta)) = (d.a, d.b, d.delta) {
                let pct = if a.abs() > 1e-12 {
                    100.0 * delta / a
                } else {
                    f64::NAN
                };
                out.push_str(&format!(
                    "{}: {a:.3} -> {b:.3} ({delta:+.3}, {pct:+.1}%)\n",
                    d.indicator
                ));
            }
        }
        for s in &self.services_only_a {
            out.push_str(&format!("plan: only first run uses {s}\n"));
        }
        for s in &self.services_only_b {
            out.push_str(&format!("plan: only second run uses {s}\n"));
        }
        for (o, a, b) in &self.objective_flips {
            out.push_str(&format!("objective {o}: {a:?} -> {b:?}\n"));
        }
        if let Some((a, b)) = self.compliance_change {
            out.push_str(&format!("compliance: {a:?} -> {b:?}\n"));
        }
        for d in &self.operator_deltas {
            match (d.a_us, d.b_us) {
                (Some(a), Some(b)) => out.push_str(&format!(
                    "operator {}: {a} us -> {b} us ({:+} us)\n",
                    d.operator,
                    d.delta_us.unwrap_or(0)
                )),
                (Some(a), None) => out.push_str(&format!(
                    "operator {}: only first run ({a} us)\n",
                    d.operator
                )),
                (None, Some(b)) => out.push_str(&format!(
                    "operator {}: only second run ({b} us)\n",
                    d.operator
                )),
                (None, None) => {}
            }
        }
        let show = |v: (u64, bool)| {
            if v.1 {
                format!("{} batches (fused)", v.0)
            } else {
                format!("{} batches", v.0)
            }
        };
        for d in &self.batch_deltas {
            match (d.a, d.b) {
                (Some(a), Some(b)) if a != b => out.push_str(&format!(
                    "batches {}: {} -> {}\n",
                    d.operator,
                    show(a),
                    show(b)
                )),
                (Some(a), None) => out.push_str(&format!(
                    "batches {}: only first run ({})\n",
                    d.operator,
                    show(a)
                )),
                (None, Some(b)) => out.push_str(&format!(
                    "batches {}: only second run ({})\n",
                    d.operator,
                    show(b)
                )),
                _ => {}
            }
        }
        if let Some((a, b)) = self.skew_change {
            out.push_str(&format!("max task skew: {a:.2} -> {b:.2}\n"));
        }
        if let Some((a, b)) = &self.pipeline_change {
            if !a.is_zero() || !b.is_zero() {
                out.push_str(&format!(
                    "pipelines: morsels {} -> {}, stolen {} -> {}, \
                     worker skew {:.2} -> {:.2}\n",
                    a.morsels, b.morsels, a.stolen, b.stolen, a.worker_skew, b.worker_skew,
                ));
            }
        }
        if let Some((a, b)) = &self.stream_change {
            if !a.is_zero() || !b.is_zero() {
                out.push_str(&format!(
                    "stream: acked {} -> {}, stalls {} -> {}, \
                     late dropped {} -> {}, side-channelled {} -> {}\n",
                    a.batches_acked,
                    b.batches_acked,
                    a.stalls,
                    b.stalls,
                    a.late_dropped,
                    b.late_dropped,
                    a.late_side_channelled,
                    b.late_side_channelled,
                ));
            }
        }
        if let Some((a, b)) = &self.spill_change {
            if !a.is_zero() || !b.is_zero() {
                out.push_str(&format!(
                    "spill: runs spilled {} -> {}, rows {} -> {}, merges {} -> {}, \
                     page faults {} -> {}, evictions {} -> {}, peak pool {} B -> {} B\n",
                    a.spills,
                    b.spills,
                    a.spilled_rows,
                    b.spilled_rows,
                    a.merges,
                    b.merges,
                    a.page_faults,
                    b.page_faults,
                    a.page_evictions,
                    b.page_evictions,
                    a.peak_pool_bytes,
                    b.peak_pool_bytes,
                ));
            }
        }
        if let Some((a, b)) = &self.resilience_change {
            if !a.is_zero() || !b.is_zero() {
                out.push_str(&format!(
                    "resilience: retries {} -> {}, backoff {} us -> {} us, \
                     timeouts {} -> {}, panics {} -> {}, speculative {} -> {}\n",
                    a.retries,
                    b.retries,
                    a.backoff_us,
                    b.backoff_us,
                    a.timeouts,
                    b.timeouts,
                    a.panics,
                    b.panics,
                    a.speculative_launched,
                    b.speculative_launched,
                ));
            }
        }
        out
    }
}

/// A consequence matrix over many runs of one challenge: rows are runs,
/// columns are indicators.
#[derive(Debug, Clone)]
pub struct ConsequenceMatrix {
    pub challenge_id: String,
    pub indicator_names: Vec<String>,
    /// (run id, choices, per-indicator values in `indicator_names` order).
    pub rows: Vec<(u64, Vec<String>, Vec<Option<f64>>)>,
}

impl ConsequenceMatrix {
    /// Build from records (all must share a challenge).
    pub fn build(records: &[RunRecord]) -> Result<ConsequenceMatrix> {
        let first = records
            .first()
            .ok_or_else(|| LabsError::Incomparable("no runs to tabulate".to_owned()))?;
        let mut names: BTreeSet<String> = BTreeSet::new();
        for r in records {
            if r.challenge_id != first.challenge_id {
                return Err(LabsError::Incomparable(format!(
                    "mixed challenges: {:?} and {:?}",
                    first.challenge_id, r.challenge_id
                )));
            }
            names.extend(r.indicators.keys().cloned());
        }
        let indicator_names: Vec<String> = names.into_iter().collect();
        let rows = records
            .iter()
            .map(|r| {
                let values = indicator_names
                    .iter()
                    .map(|n| r.indicators.get(n).copied())
                    .collect();
                (r.run_id, r.choices.clone(), values)
            })
            .collect();
        Ok(ConsequenceMatrix {
            challenge_id: first.challenge_id.clone(),
            indicator_names,
            rows,
        })
    }

    /// Does row `a` weakly dominate row `b` on every *comparable* indicator
    /// (respecting each indicator's orientation), strictly on at least one?
    ///
    /// Timing-derived indicators (runtime, throughput, batch latency) are
    /// excluded — they are noisy across repeated runs, and the design
    /// trade-offs the Labs teach live in the data-derived indicators (cost,
    /// accuracy, risk, coverage).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let comparable =
            |name: &str| !matches!(name, "runtime_ms" | "throughput" | "batch_latency_ms");
        let mut strict = false;
        for (i, name) in self.indicator_names.iter().enumerate() {
            if !comparable(name) {
                continue;
            }
            let (Some(va), Some(vb)) = (self.rows[a].2[i], self.rows[b].2[i]) else {
                continue;
            };
            let higher_better = Indicator::parse(name)
                .map(|x| x.higher_is_better())
                .unwrap_or(true);
            let (better, worse) = if higher_better {
                (va > vb + 1e-12, va < vb - 1e-12)
            } else {
                (va < vb - 1e-12, va > vb + 1e-12)
            };
            if worse {
                return false;
            }
            if better {
                strict = true;
            }
        }
        strict
    }

    /// Indices of rows not dominated by any other row.
    pub fn pareto_front(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&i| !(0..self.rows.len()).any(|j| j != i && self.dominates(j, i)))
            .collect()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut header = vec!["run".to_owned(), "choices".to_owned()];
        header.extend(self.indicator_names.iter().cloned());
        let mut grid: Vec<Vec<String>> = vec![header];
        for (id, choices, values) in &self.rows {
            let mut row = vec![id.to_string(), choices.join("/")];
            row.extend(values.iter().map(|v| match v {
                Some(x) => format!("{x:.3}"),
                None => "-".to_owned(),
            }));
            grid.push(row);
        }
        let widths: Vec<usize> = (0..grid[0].len())
            .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for row in &grid {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat(' ').take(widths[c] - cell.len()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use toreador_dataflow::trace::{RunTrace, TraceEvent, TraceEventKind};

    fn record(id: u64, challenge: &str, choices: &[&str], indicators: &[(&str, f64)]) -> RunRecord {
        RunRecord {
            schema_version: crate::run::RUN_RECORD_SCHEMA_VERSION,
            run_id: id,
            challenge_id: challenge.to_owned(),
            choices: choices.iter().map(|s| s.to_string()).collect(),
            plan_services: vec!["processing.filter".to_owned()],
            platform: "lab-free-tier".to_owned(),
            indicators: indicators
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
            objectives: vec![("runtime_ms <= 100".to_owned(), Some(true))],
            compliant: None,
            warnings: vec![],
            rows_in: 100,
            rows_out: 50,
            shuffle_bytes: 1024,
            reports: vec![],
            traces: vec![],
        }
    }

    #[test]
    fn diff_identifies_exactly_the_differences() {
        let mut a = record(
            1,
            "c",
            &["full", "batch"],
            &[("cost", 10.0), ("accuracy", 0.8)],
        );
        let mut b = record(
            2,
            "c",
            &["sample", "batch"],
            &[("cost", 4.0), ("accuracy", 0.7)],
        );
        b.plan_services = vec![
            "processing.sample".to_owned(),
            "processing.filter".to_owned(),
        ];
        a.objectives = vec![("accuracy >= 0.75".to_owned(), Some(true))];
        b.objectives = vec![("accuracy >= 0.75".to_owned(), Some(false))];
        let d = RunComparison::diff(&a, &b).unwrap();
        assert_eq!(
            d.choice_diffs,
            vec![(0, "full".to_owned(), "sample".to_owned())]
        );
        assert_eq!(d.services_only_b, vec!["processing.sample".to_owned()]);
        assert!(d.services_only_a.is_empty());
        assert_eq!(d.objective_flips.len(), 1);
        let cost = d
            .indicator_deltas
            .iter()
            .find(|x| x.indicator == "cost")
            .unwrap();
        assert_eq!(cost.delta, Some(-6.0));
        assert!(!d.is_identical());
        let rendered = d.render();
        assert!(rendered.contains("full -> sample"));
        assert!(rendered.contains("cost"));
    }

    #[test]
    fn identical_runs_diff_to_nothing() {
        let a = record(1, "c", &["x"], &[("cost", 1.0)]);
        let b = record(2, "c", &["x"], &[("cost", 1.0)]);
        let d = RunComparison::diff(&a, &b).unwrap();
        assert!(d.is_identical());
        assert!(d.operator_deltas.is_empty());
        assert!(d.skew_change.is_none());
    }

    fn trace_with(ops: &[(&str, u64)], task_spans_us: &[(u64, u64)]) -> RunTrace {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut push = |kind: TraceEventKind, at_us: u64| {
            events.push(TraceEvent { seq, at_us, kind });
            seq += 1;
        };
        push(TraceEventKind::RunStarted, 0);
        for (p, (start, end)) in task_spans_us.iter().enumerate() {
            push(
                TraceEventKind::TaskStarted {
                    stage: 0,
                    partition: p,
                    attempt: 0,
                },
                *start,
            );
            push(
                TraceEventKind::TaskFinished {
                    stage: 0,
                    partition: p,
                    attempt: 0,
                    ok: true,
                },
                *end,
            );
        }
        for (op, us) in ops {
            push(
                TraceEventKind::OperatorFinished {
                    operator: (*op).to_owned(),
                    stage: 0,
                    rows_out: 1,
                    elapsed_us: *us,
                    shuffle_bytes: 0,
                },
                *us,
            );
        }
        RunTrace { events }
    }

    #[test]
    fn operator_and_skew_deltas_come_from_the_traces() {
        let mut a = record(1, "c", &["x"], &[]);
        let mut b = record(2, "c", &["x"], &[]);
        a.traces = vec![trace_with(
            &[("Scan", 100), ("Aggregate", 50)],
            &[(0, 10), (0, 10)],
        )];
        b.traces = vec![trace_with(
            &[("Scan", 70), ("Sort", 30)],
            &[(0, 30), (0, 10)],
        )];
        let d = RunComparison::diff(&a, &b).unwrap();
        let scan = d
            .operator_deltas
            .iter()
            .find(|x| x.operator == "Scan")
            .unwrap();
        assert_eq!(
            (scan.a_us, scan.b_us, scan.delta_us),
            (Some(100), Some(70), Some(-30))
        );
        let agg = d
            .operator_deltas
            .iter()
            .find(|x| x.operator == "Aggregate")
            .unwrap();
        assert_eq!((agg.a_us, agg.b_us, agg.delta_us), (Some(50), None, None));
        // a's tasks are even (skew 1.0); b's slowest is 30 vs mean 20 (1.5).
        let (sa, sb) = d.skew_change.unwrap();
        assert!((sa - 1.0).abs() < 1e-9);
        assert!((sb - 1.5).abs() < 1e-9);
        let rendered = d.render();
        assert!(rendered.contains("operator Scan: 100 us -> 70 us (-30 us)"));
        assert!(rendered.contains("operator Aggregate: only first run"));
        assert!(rendered.contains("operator Sort: only second run"));
        assert!(rendered.contains("max task skew: 1.00 -> 1.50"));
        // Neither trace recorded pipeline waves: present but all-zero, and
        // silent in the report.
        let (pa, pb) = d.pipeline_change.unwrap();
        assert!(pa.is_zero() && pb.is_zero());
        assert!(!rendered.contains("pipelines:"));
    }

    #[test]
    fn scheduler_mode_ablation_diffs_in_pipeline_totals() {
        let mut a = record(1, "c", &["x"], &[]);
        let mut b = record(2, "c", &["x"], &[]);
        // a ran only whole-partition tasks (no pipeline events); b ran a
        // morsel wave whose units moved off a skewed partition's worker.
        a.traces = vec![trace_with(&[("Scan", 100)], &[(0, 10)])];
        let mut t = trace_with(&[("Scan", 80)], &[(0, 10)]);
        t.events.push(TraceEvent {
            seq: t.events.len() as u64,
            at_us: 90,
            kind: TraceEventKind::PipelineCompleted {
                stage: 0,
                partitions: 4,
                morsels: 32,
                stolen: 7,
                workers: 4,
                slowest_worker_us: 60,
                mean_worker_us: 40.0,
            },
        });
        b.traces = vec![t];
        let d = RunComparison::diff(&a, &b).unwrap();
        let (pa, pb) = d.pipeline_change.unwrap();
        assert!(pa.is_zero());
        assert_eq!((pb.pipelines, pb.morsels, pb.stolen), (1, 32, 7));
        assert!((pb.worker_skew - 1.5).abs() < 1e-9);
        let rendered = d.render();
        assert!(rendered
            .contains("pipelines: morsels 0 -> 32, stolen 0 -> 7, worker skew 1.00 -> 1.50"));
    }

    #[test]
    fn engine_mode_ablation_diffs_in_batch_counts() {
        let op = "Filter(price > 10)";
        let batches = |trace: &mut RunTrace, batches: u64, fused: bool| {
            let seq = trace.events.len() as u64;
            trace.events.push(TraceEvent {
                seq,
                at_us: 50,
                kind: TraceEventKind::OperatorBatches {
                    operator: op.to_owned(),
                    stage: 0,
                    batches,
                    fused,
                },
            });
        };
        // a ran in a fused chain; b is a stored record from an engine that
        // still had a row-at-a-time mode (zero batches) — old provenance
        // must keep diffing.
        let mut a = record(1, "c", &["x"], &[]);
        let mut va = trace_with(&[(op, 100)], &[(0, 10)]);
        batches(&mut va, 4, true);
        a.traces = vec![va];
        let mut b = record(2, "c", &["x"], &[]);
        let mut vb = trace_with(&[(op, 180)], &[(0, 10)]);
        batches(&mut vb, 0, false);
        b.traces = vec![vb];
        let d = RunComparison::diff(&a, &b).unwrap();
        assert_eq!(
            d.batch_deltas,
            vec![BatchDelta {
                operator: op.to_owned(),
                a: Some((4, true)),
                b: Some((0, false)),
            }]
        );
        let rendered = d.render();
        assert!(
            rendered.contains("batches Filter(price > 10): 4 batches (fused) -> 0 batches"),
            "got: {rendered}"
        );
        // Identical batch profiles stay silent in the report.
        let d = RunComparison::diff(&a, &a).unwrap();
        assert!(!d.render().contains("batches Filter"));
    }

    #[test]
    fn resilience_overhead_diffs_from_the_traces() {
        let mut a = record(1, "c", &["x"], &[]);
        let mut b = record(2, "c", &["x"], &[]);
        a.traces = vec![trace_with(&[("Scan", 10)], &[(0, 5)])];
        // b's trace shows the chaos plan biting: a retry behind backoff and
        // one isolated panic.
        let mut chaotic = trace_with(&[("Scan", 40)], &[(0, 20)]);
        let base = chaotic.events.len() as u64;
        for (i, kind) in [
            TraceEventKind::BackoffScheduled {
                stage: 0,
                partition: 0,
                attempt: 1,
                delay_us: 750,
            },
            TraceEventKind::TaskRetried {
                stage: 0,
                partition: 0,
                attempt: 1,
            },
            TraceEventKind::TaskPanicked {
                stage: 0,
                partition: 0,
                attempt: 1,
                message: "boom".to_owned(),
            },
        ]
        .into_iter()
        .enumerate()
        {
            chaotic.events.push(TraceEvent {
                seq: base + i as u64,
                at_us: 100,
                kind,
            });
        }
        b.traces = vec![chaotic];
        let d = RunComparison::diff(&a, &b).unwrap();
        let (ra, rb) = d.resilience_change.unwrap();
        assert!(ra.is_zero(), "calm run has zero resilience cost");
        assert_eq!(rb.retries, 1);
        assert_eq!(rb.backoff_us, 750);
        assert_eq!(rb.panics, 1);
        let rendered = d.render();
        assert!(rendered.contains("resilience: retries 0 -> 1"));
        assert!(rendered.contains("backoff 0 us -> 750 us"));

        // No traces on either side: the field stays empty and render is calm.
        let calm = RunComparison::diff(&record(3, "c", &["x"], &[]), &record(4, "c", &["x"], &[]))
            .unwrap();
        assert!(calm.resilience_change.is_none());
        assert!(!calm.render().contains("resilience:"));
    }

    #[test]
    fn late_policy_ablation_diffs_in_stream_totals() {
        let mut a = record(1, "c", &["x"], &[]);
        let mut b = record(2, "c", &["x"], &[]);
        // a absorbed its late rows; b dropped them and stalled once.
        let mut ta = trace_with(&[("Scan", 50)], &[(0, 10)]);
        let mut tb = trace_with(&[("Scan", 50)], &[(0, 10)]);
        let push = |t: &mut RunTrace, kind: TraceEventKind| {
            let seq = t.events.len() as u64;
            t.events.push(TraceEvent {
                seq,
                at_us: 100,
                kind,
            });
        };
        for t in [&mut ta, &mut tb] {
            push(
                t,
                TraceEventKind::BatchAcked {
                    offset: 0,
                    rows: 64,
                    latency_us: 500,
                },
            );
        }
        push(
            &mut ta,
            TraceEventKind::LateDataAbsorbed { offset: 0, rows: 9 },
        );
        push(
            &mut tb,
            TraceEventKind::LateDataDropped { offset: 0, rows: 9 },
        );
        push(
            &mut tb,
            TraceEventKind::BackpressureStall {
                offset: 0,
                waited_us: 2_000,
            },
        );
        a.traces = vec![ta];
        b.traces = vec![tb];
        let d = RunComparison::diff(&a, &b).unwrap();
        let (sa, sb) = d.stream_change.unwrap();
        assert_eq!((sa.late_absorbed, sa.late_dropped), (9, 0));
        assert_eq!((sb.late_absorbed, sb.late_dropped), (0, 9));
        assert_eq!((sa.stalls, sb.stalls), (0, 1));
        let rendered = d.render();
        assert!(
            rendered.contains("stream: acked 1 -> 1, stalls 0 -> 1, late dropped 0 -> 9"),
            "got: {rendered}"
        );
        // Batch-only runs keep the report calm.
        let d = RunComparison::diff(&record(3, "c", &["x"], &[]), &record(4, "c", &["x"], &[]))
            .unwrap();
        assert!(d.stream_change.is_none());
    }

    #[test]
    fn memory_budget_ablation_diffs_in_spill_totals() {
        let mut a = record(1, "c", &["x"], &[]);
        let mut b = record(2, "c", &["x"], &[]);
        // a ran unbudgeted (no spill events); b spilled one shuffle run
        // through a one-frame pool and merged it back.
        a.traces = vec![trace_with(&[("Aggregate", 50)], &[(0, 10)])];
        let mut tight = trace_with(&[("Aggregate", 90)], &[(0, 30)]);
        let push = |t: &mut RunTrace, kind: TraceEventKind| {
            let seq = t.events.len() as u64;
            t.events.push(TraceEvent {
                seq,
                at_us: 100,
                kind,
            });
        };
        push(
            &mut tight,
            TraceEventKind::SpillStarted {
                op: "shuffle".to_owned(),
                target: 0,
                rows: 512,
                bytes: 40_000,
            },
        );
        push(
            &mut tight,
            TraceEventKind::PageFaulted {
                file: 0,
                page: 1,
                bytes: 32 << 10,
                pool_bytes: 32 << 10,
            },
        );
        push(
            &mut tight,
            TraceEventKind::PageEvicted {
                file: 0,
                page: 1,
                bytes: 32 << 10,
                dirty: true,
                pool_bytes: 0,
            },
        );
        push(
            &mut tight,
            TraceEventKind::SpillMerged {
                op: "shuffle".to_owned(),
                target: 0,
                runs: 1,
                rows: 512,
                bytes: 40_000,
            },
        );
        b.traces = vec![tight];
        let d = RunComparison::diff(&a, &b).unwrap();
        let (sa, sb) = d.spill_change.unwrap();
        assert!(sa.is_zero(), "unbudgeted run never spilled");
        assert_eq!((sb.spills, sb.merges), (1, 1));
        assert_eq!(sb.spilled_rows, 512);
        assert_eq!(sb.page_faults, 1);
        assert_eq!(sb.page_evictions, 1);
        assert_eq!(sb.peak_pool_bytes, 32 << 10);
        let rendered = d.render();
        assert!(
            rendered.contains("spill: runs spilled 0 -> 1"),
            "got: {rendered}"
        );
        assert!(rendered.contains("peak pool 0 B -> 32768 B"), "{rendered}");
        // Two unbudgeted runs keep the report calm.
        let calm = RunComparison::diff(&a, &a).unwrap();
        assert!(!calm.render().contains("spill:"));
    }

    #[test]
    fn cross_challenge_diff_refused() {
        let a = record(1, "c1", &["x"], &[]);
        let b = record(2, "c2", &["x"], &[]);
        assert!(matches!(
            RunComparison::diff(&a, &b),
            Err(LabsError::Incomparable(_))
        ));
    }

    #[test]
    fn matrix_collects_union_of_indicators() {
        let a = record(1, "c", &["x"], &[("cost", 1.0), ("accuracy", 0.9)]);
        let b = record(2, "c", &["y"], &[("cost", 2.0)]);
        let m = ConsequenceMatrix::build(&[a, b]).unwrap();
        assert_eq!(m.indicator_names, vec!["accuracy", "cost"]);
        assert_eq!(m.rows[1].2[0], None, "b has no accuracy");
        let rendered = m.render();
        assert!(rendered.contains("accuracy"));
        assert!(rendered.contains('-'));
    }

    #[test]
    fn dominance_respects_orientation() {
        // a: cheaper AND more accurate -> dominates.
        let a = record(1, "c", &["a"], &[("cost", 1.0), ("accuracy", 0.9)]);
        let b = record(2, "c", &["b"], &[("cost", 2.0), ("accuracy", 0.8)]);
        let m = ConsequenceMatrix::build(&[a, b]).unwrap();
        assert!(m.dominates(0, 1));
        assert!(!m.dominates(1, 0));
        assert_eq!(m.pareto_front(), vec![0]);
    }

    #[test]
    fn tradeoffs_keep_both_on_the_front() {
        // a cheaper, b more accurate: neither dominates.
        let a = record(1, "c", &["a"], &[("cost", 1.0), ("accuracy", 0.7)]);
        let b = record(2, "c", &["b"], &[("cost", 5.0), ("accuracy", 0.9)]);
        let m = ConsequenceMatrix::build(&[a, b]).unwrap();
        assert!(!m.dominates(0, 1));
        assert!(!m.dominates(1, 0));
        assert_eq!(m.pareto_front(), vec![0, 1]);
    }

    #[test]
    fn timing_indicators_do_not_drive_dominance() {
        let a = record(1, "c", &["a"], &[("cost", 1.0), ("runtime_ms", 500.0)]);
        let b = record(2, "c", &["b"], &[("cost", 1.0), ("runtime_ms", 100.0)]);
        let m = ConsequenceMatrix::build(&[a, b]).unwrap();
        assert!(!m.dominates(1, 0), "runtime alone must not dominate");
    }

    #[test]
    fn empty_matrix_refused() {
        assert!(ConsequenceMatrix::build(&[]).is_err());
    }
}
