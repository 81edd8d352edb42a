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

    /// Record batches evaluated by a narrow operator. Journal-only: the
    /// derived [`RunMetrics`] ignore it, so runs that fuse a chain
    /// differently stay metrics-compatible while their traces diff the
    /// counts.
    pub fn record_operator_batches(
        &self,
        operator: impl Into<String>,
        stage: usize,
        batches: u64,
        fused: bool,
    ) {
        self.journal.record(TraceEventKind::OperatorBatches {
            operator: operator.into(),
            stage,
            batches,
            fused,
        });
    }

    /// Record that a chain of narrow operators fused into one pass.
    /// Journal-only, like [`Self::record_operator_batches`].
    pub fn record_fused_chain(&self, stage: usize, operators: Vec<String>) {
        self.journal
            .record(TraceEventKind::NarrowChainFused { stage, operators });
    }

    /// A task attempt began on a worker.
    pub fn task_started(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::TaskStarted {
            stage,
            partition,
            attempt,
        });
    }

    /// The matching end of a started attempt.
    pub fn task_finished(&self, stage: usize, partition: usize, attempt: u32, ok: bool) {
        self.journal.record(TraceEventKind::TaskFinished {
            stage,
            partition,
            attempt,
            ok,
        });
    }

    /// The fault plan killed this attempt.
    pub fn fault_injected(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::FaultInjected {
            stage,
            partition,
            attempt,
        });
    }

    /// A failed attempt was rescheduled as `attempt`.
    pub fn task_retried(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::TaskRetried {
            stage,
            partition,
            attempt,
        });
    }

    /// A retry was scheduled behind a backoff delay (journal-only: the
    /// retry itself is counted when it dispatches).
    pub fn backoff_scheduled(&self, stage: usize, partition: usize, attempt: u32, delay_us: u64) {
        self.journal.record(TraceEventKind::BackoffScheduled {
            stage,
            partition,
            attempt,
            delay_us,
        });
    }

    /// The watchdog declared a running attempt dead past its deadline.
    pub fn task_timed_out(&self, stage: usize, partition: usize, attempt: u32, deadline_us: u64) {
        self.journal.record(TraceEventKind::TaskTimedOut {
            stage,
            partition,
            attempt,
            deadline_us,
        });
    }

    /// A task body panicked and the panic was isolated.
    pub fn task_panicked(&self, stage: usize, partition: usize, attempt: u32, message: &str) {
        self.journal.record(TraceEventKind::TaskPanicked {
            stage,
            partition,
            attempt,
            message: message.to_owned(),
        });
    }

    /// A speculative backup attempt was launched for a straggler.
    pub fn speculative_launched(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::SpeculativeLaunched {
            stage,
            partition,
            attempt,
        });
    }

    /// This attempt won its speculation race.
    pub fn speculative_won(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::SpeculativeWon {
            stage,
            partition,
            attempt,
        });
    }

    /// This attempt lost its speculation race and was cancelled.
    pub fn speculative_lost(&self, stage: usize, partition: usize, attempt: u32) {
        self.journal.record(TraceEventKind::SpeculativeLost {
            stage,
            partition,
            attempt,
        });
    }

    /// A completed shuffle wave's output was durably checkpointed.
    /// Journal-only, like [`Self::record_operator_batches`]: checkpointed
    /// and checkpoint-off runs stay metrics-compatible.
    pub fn stage_checkpointed(&self, stage: usize, wave: usize, partitions: usize, bytes: u64) {
        self.journal.record(TraceEventKind::StageCheckpointed {
            stage,
            wave,
            partitions,
            bytes,
        });
    }

    /// A wave's output was restored from its checkpoint instead of being
    /// recomputed. Journal-only.
    pub fn stage_restored(&self, stage: usize, wave: usize, partitions: usize, rows: u64) {
        self.journal.record(TraceEventKind::StageRestored {
            stage,
            wave,
            partitions,
            rows,
        });
    }

    /// A morsel was pushed through a pipeline body. Journal-only, like
    /// [`Self::record_operator_batches`]: morsel and whole-partition waves
    /// stay metrics-compatible.
    pub fn morsel_dispatched(
        &self,
        stage: usize,
        partition: usize,
        morsel: usize,
        rows: u64,
        worker: usize,
    ) {
        self.journal.record(TraceEventKind::MorselDispatched {
            stage,
            partition,
            morsel,
            rows,
            worker,
        });
    }

    /// A morsel unit ran on a worker other than its home worker.
    /// Journal-only.
    pub fn morsel_stolen(
        &self,
        stage: usize,
        partition: usize,
        morsel: usize,
        home: usize,
        worker: usize,
    ) {
        self.journal.record(TraceEventKind::MorselStolen {
            stage,
            partition,
            morsel,
            home,
            worker,
        });
    }

    /// The matching end of a dispatched morsel. Journal-only.
    pub fn morsel_completed(&self, stage: usize, partition: usize, morsel: usize) {
        self.journal.record(TraceEventKind::MorselCompleted {
            stage,
            partition,
            morsel,
        });
    }

    /// A morsel wave finished all its units. Journal-only.
    #[allow(clippy::too_many_arguments)]
    pub fn pipeline_completed(
        &self,
        stage: usize,
        partitions: usize,
        morsels: u64,
        stolen: u64,
        workers: usize,
        slowest_worker_us: u64,
        mean_worker_us: f64,
    ) {
        self.journal.record(TraceEventKind::PipelineCompleted {
            stage,
            partitions,
            morsels,
            stolen,
            workers,
            slowest_worker_us,
            mean_worker_us,
        });
    }

    /// The run tripped cooperative cancellation.
    pub fn run_cancelled(&self, stage: usize, reason: &str) {
        self.journal.record(TraceEventKind::RunCancelled {
            stage,
            reason: reason.to_owned(),
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

    #[test]
    fn collector_aggregates_across_calls() {
        let c = MetricsCollector::new();
        c.record_node("Scan", 0, 100, Duration::from_micros(50), 0);
        c.record_node("Shuffle", 1, 100, Duration::from_micros(70), 4096);
        c.task_started(1, 0, 0);
        c.fault_injected(1, 0, 0);
        c.task_finished(1, 0, 0, false);
        c.task_retried(1, 0, 1);
        c.task_started(1, 0, 1);
        c.task_finished(1, 0, 1, true);
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
        c.task_started(0, 0, 0);
        c.task_timed_out(0, 0, 0, 500);
        c.task_finished(0, 0, 0, false);
        c.backoff_scheduled(0, 0, 1, 250);
        c.task_retried(0, 0, 1);
        c.task_started(0, 0, 1);
        c.task_panicked(0, 0, 1, "boom");
        c.task_finished(0, 0, 1, false);
        c.speculative_launched(0, 1, 1);
        c.speculative_won(0, 1, 1);
        c.speculative_lost(0, 1, 0);
        c.run_cancelled(0, "doomed");
        assert_only_tasks(&c.finish(Duration::from_millis(1), 0, 0), 2, 1);
        let totals = c.trace().snapshot().resilience_totals();
        assert_eq!(totals.timeouts, 1);
        assert_eq!(totals.panics, 1);
        assert_eq!(totals.backoff_us, 250);
        assert_eq!(totals.speculative_launched, 1);
        assert_eq!(totals.cancellations, 1);
    }

    #[test]
    fn checkpoint_events_are_journal_only_and_keep_parity() {
        let c = MetricsCollector::new();
        c.task_started(0, 0, 0);
        c.task_finished(0, 0, 0, true);
        c.stage_checkpointed(0, 0, 4, 2_048);
        c.stage_restored(1, 1, 4, 100);
        assert_only_tasks(&c.finish(Duration::from_millis(1), 100, 4), 1, 0);
        let trace = c.trace().snapshot();
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::StageCheckpointed { bytes: 2_048, .. }
        )));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::StageRestored { rows: 100, .. })));
    }

    #[test]
    fn spill_events_are_journal_only_and_keep_parity() {
        // The pager writes spill events straight to the journal (pinning a
        // resident page is memory-speed work; it must not take the metrics
        // lock). They carry no metric weight.
        let c = MetricsCollector::new();
        c.task_started(0, 0, 0);
        c.task_finished(0, 0, 0, true);
        c.trace().record(TraceEventKind::SpillStarted {
            op: "shuffle".to_owned(),
            target: 3,
            rows: 1_024,
            bytes: 80_000,
        });
        c.trace().record(TraceEventKind::PageFaulted {
            file: 0,
            page: 2,
            bytes: 32 << 10,
            pool_bytes: 32 << 10,
        });
        c.trace().record(TraceEventKind::PageEvicted {
            file: 0,
            page: 2,
            bytes: 32 << 10,
            dirty: false,
            pool_bytes: 0,
        });
        c.trace().record(TraceEventKind::SpillMerged {
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
        c.task_started(0, 0, 0);
        c.morsel_dispatched(0, 0, 0, 64, 0);
        c.morsel_completed(0, 0, 0);
        c.morsel_dispatched(0, 0, 1, 64, 1);
        c.morsel_stolen(0, 0, 1, 0, 1);
        c.morsel_completed(0, 0, 1);
        c.task_finished(0, 0, 0, true);
        c.pipeline_completed(0, 1, 2, 1, 2, 120, 100.0);
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
