//! Execution metrics.
//!
//! Every run of the engine produces a [`RunMetrics`] record. The Labs crate
//! persists these in run provenance records and diffs them across runs —
//! the paper's "compare different runs of a composite BDA".

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::trace::{TraceEventKind, TraceJournal};

/// Metrics for one plan node (operator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// One-line operator description (`Filter (price > 10)` etc.).
    pub operator: String,
    /// Stage index the operator executed in.
    pub stage: usize,
    /// Rows produced by the operator (across all partitions).
    pub rows_out: u64,
    /// Wall-clock time attributed to the operator, in microseconds.
    pub elapsed_us: u64,
    /// Bytes moved through the shuffle, if the operator required one.
    pub shuffle_bytes: u64,
}

/// Metrics for one complete run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    pub nodes: Vec<NodeMetrics>,
    /// Total wall-clock, in microseconds.
    pub total_elapsed_us: u64,
    /// Tasks executed (including retried attempts).
    pub tasks_run: u64,
    /// Tasks that failed and were retried.
    pub task_retries: u64,
    /// Rows in the final result.
    pub result_rows: u64,
    /// Partitions in the final result.
    pub result_partitions: u64,
}

impl RunMetrics {
    /// Sum of shuffle traffic over all operators.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.shuffle_bytes).sum()
    }

    /// Number of distinct stages observed.
    pub fn stage_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.stage)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Rows processed per second over the whole run (based on result rows).
    pub fn throughput_rows_per_sec(&self) -> f64 {
        if self.total_elapsed_us == 0 {
            0.0
        } else {
            self.result_rows as f64 / (self.total_elapsed_us as f64 / 1e6)
        }
    }
}

/// Thread-safe collector the executor threads write into.
///
/// Every record goes to one book, the structured [`TraceJournal`]; the
/// metrics a run reports are derived from it ([`Self::finish`]).
#[derive(Debug, Default)]
pub struct MetricsCollector {
    journal: TraceJournal,
}

impl MetricsCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying event journal (for shuffle waves and snapshots).
    pub fn trace(&self) -> &TraceJournal {
        &self.journal
    }

    /// Record a completed operator.
    pub fn record_node(
        &self,
        operator: impl Into<String>,
        stage: usize,
        rows_out: u64,
        elapsed: Duration,
        shuffle_bytes: u64,
    ) {
        self.journal.record(TraceEventKind::OperatorFinished {
            operator: operator.into(),
            stage,
            rows_out,
            elapsed_us: elapsed.as_micros() as u64,
            shuffle_bytes,
        });
    }

    /// Finalise into a [`RunMetrics`], derived entirely from the journal.
    pub fn finish(
        &self,
        total_elapsed: Duration,
        result_rows: u64,
        result_partitions: u64,
    ) -> RunMetrics {
        self.journal.record(TraceEventKind::RunFinished {
            total_elapsed_us: total_elapsed.as_micros() as u64,
            result_rows,
            result_partitions,
        });
        self.journal.snapshot().derive_metrics(
            total_elapsed.as_micros() as u64,
            result_rows,
            result_partitions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind::*;

    /// One task attempt, journalled start to finish.
    fn attempt(c: &MetricsCollector, stage: usize, partition: usize, attempt: u32, ok: bool) {
        c.trace().record(TaskStarted {
            stage,
            partition,
            attempt,
        });
        c.trace().record(TaskFinished {
            stage,
            partition,
            attempt,
            ok,
        });
    }

    #[test]
    fn collector_aggregates_across_calls() {
        let c = MetricsCollector::new();
        c.record_node("Scan", 0, 100, Duration::from_micros(50), 0);
        c.record_node("Shuffle", 1, 100, Duration::from_micros(70), 4096);
        c.trace().record(FaultInjected {
            stage: 1,
            partition: 0,
            attempt: 0,
        });
        attempt(&c, 1, 0, 0, false);
        c.trace().record(TaskRetried {
            stage: 1,
            partition: 0,
            attempt: 1,
        });
        attempt(&c, 1, 0, 1, true);
        let m = c.finish(Duration::from_millis(1), 100, 4);
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.tasks_run, 2);
        assert_eq!(m.task_retries, 1);
        assert_eq!(m.total_shuffle_bytes(), 4096);
        assert_eq!(m.stage_count(), 2);
        assert_eq!(m.result_rows, 100);
    }

    /// Journal-only events carry no metric weight: the derived metrics hold
    /// exactly the task attempts and retries recorded, and no operators.
    fn assert_only_tasks(m: &RunMetrics, tasks_run: u64, task_retries: u64) {
        assert_eq!(
            (m.tasks_run, m.task_retries, m.nodes.len()),
            (tasks_run, task_retries, 0),
            "journal-only events must not skew the metrics"
        );
    }

    #[test]
    fn resilience_events_are_journal_only_and_keep_parity() {
        let c = MetricsCollector::new();
        let j = c.trace();
        j.record(TaskTimedOut {
            stage: 0,
            partition: 0,
            attempt: 0,
            deadline_us: 500,
        });
        attempt(&c, 0, 0, 0, false);
        j.record(BackoffScheduled {
            stage: 0,
            partition: 0,
            attempt: 1,
            delay_us: 250,
        });
        j.record(TaskRetried {
            stage: 0,
            partition: 0,
            attempt: 1,
        });
        j.record(TaskPanicked {
            stage: 0,
            partition: 0,
            attempt: 1,
            message: "boom".to_owned(),
        });
        attempt(&c, 0, 0, 1, false);
        j.record(SpeculativeLaunched {
            stage: 0,
            partition: 1,
            attempt: 1,
        });
        j.record(SpeculativeWon {
            stage: 0,
            partition: 1,
            attempt: 1,
        });
        j.record(SpeculativeLost {
            stage: 0,
            partition: 1,
            attempt: 0,
        });
        j.record(RunCancelled {
            stage: 0,
            reason: "doomed".to_owned(),
        });
        assert_only_tasks(&c.finish(Duration::from_millis(1), 0, 0), 2, 1);
        let counters = c.trace().snapshot().counters();
        assert_eq!(counters.count("dataflow.timeouts"), 1);
        assert_eq!(counters.count("dataflow.panics"), 1);
        assert_eq!(counters.count("dataflow.backoff_us"), 250);
        assert_eq!(counters.count("dataflow.speculative_launched"), 1);
        assert_eq!(counters.count("dataflow.cancellations"), 1);
    }

    #[test]
    fn checkpoint_events_are_journal_only_and_keep_parity() {
        let c = MetricsCollector::new();
        attempt(&c, 0, 0, 0, true);
        c.trace().record(StageCheckpointed {
            stage: 0,
            wave: 0,
            partitions: 4,
            bytes: 2_048,
        });
        c.trace().record(StageRestored {
            stage: 1,
            wave: 1,
            partitions: 4,
            rows: 100,
        });
        assert_only_tasks(&c.finish(Duration::from_millis(1), 100, 4), 1, 0);
        let trace = c.trace().snapshot();
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, StageCheckpointed { bytes: 2_048, .. })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, StageRestored { rows: 100, .. })));
    }

    #[test]
    fn spill_events_are_journal_only_and_keep_parity() {
        // The pager writes spill events straight to the journal (pinning a
        // resident page is memory-speed work; it must not take the metrics
        // lock). They carry no metric weight.
        let c = MetricsCollector::new();
        attempt(&c, 0, 0, 0, true);
        c.trace().record(SpillStarted {
            op: "shuffle".to_owned(),
            target: 3,
            rows: 1_024,
            bytes: 80_000,
        });
        c.trace().record(PageFaulted {
            file: 0,
            page: 2,
            bytes: 32 << 10,
            pool_bytes: 32 << 10,
        });
        c.trace().record(PageEvicted {
            file: 0,
            page: 2,
            bytes: 32 << 10,
            dirty: false,
            pool_bytes: 0,
        });
        c.trace().record(SpillMerged {
            op: "shuffle".to_owned(),
            target: 3,
            runs: 1,
            rows: 1_024,
            bytes: 80_000,
        });
        assert_only_tasks(&c.finish(Duration::from_millis(1), 64, 1), 1, 0);
        let totals = c.trace().snapshot().spill_totals();
        assert_eq!((totals.spills, totals.merges), (1, 1));
        assert_eq!(totals.page_faults, 1);
        assert_eq!(totals.page_evictions, 1);
        assert_eq!(totals.peak_pool_bytes, 32 << 10);
    }

    #[test]
    fn morsel_events_are_journal_only_and_keep_parity() {
        let c = MetricsCollector::new();
        let j = c.trace();
        for (morsel, worker) in [(0, 0), (1, 1)] {
            j.record(MorselDispatched {
                stage: 0,
                partition: 0,
                morsel,
                rows: 64,
                worker,
            });
            if worker == 1 {
                j.record(MorselStolen {
                    stage: 0,
                    partition: 0,
                    morsel,
                    home: 0,
                    worker,
                });
            }
            j.record(MorselCompleted {
                stage: 0,
                partition: 0,
                morsel,
            });
        }
        attempt(&c, 0, 0, 0, true);
        j.record(PipelineCompleted {
            stage: 0,
            partitions: 1,
            morsels: 2,
            stolen: 1,
            workers: 2,
            slowest_worker_us: 120,
            mean_worker_us: 100.0,
        });
        assert_only_tasks(&c.finish(Duration::from_millis(1), 128, 1), 1, 0);
        let totals = c.trace().snapshot().pipeline_totals();
        assert_eq!(totals.pipelines, 1);
        assert_eq!(totals.morsels, 2);
        assert_eq!(totals.stolen, 1);
        assert!((totals.worker_skew - 1.2).abs() < 1e-9);
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        let m = RunMetrics::default();
        assert_eq!(m.throughput_rows_per_sec(), 0.0);
        let m = RunMetrics {
            total_elapsed_us: 2_000_000,
            result_rows: 10,
            ..Default::default()
        };
        assert_eq!(m.throughput_rows_per_sec(), 5.0);
    }

    #[test]
    fn metrics_serialize() {
        let m = RunMetrics {
            total_elapsed_us: 7,
            ..Default::default()
        };
        let j = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }
}
