//! Flight-recorder trace journal.
//!
//! Where [`crate::metrics`] answers "how did the run go overall", the
//! journal answers "what happened, in order": every task attempt on the
//! scheduler becomes a start/end span keyed by `(stage, partition,
//! attempt)`, every injected fault and retry is an event, every operator
//! records a span when it completes, and every shuffle logs a wave. The
//! journal is the single source of truth — [`RunMetrics`] is *derived* from
//! it (see [`RunTrace::derive_metrics`]) — and it serialises, so Labs run
//! provenance can carry the full recording for post-hoc comparison.
//!
//! [`RunTrace::summarize`] folds the journal once into per-stage rows and
//! one ordered map of named [`Counters`] (`dataflow.retries`,
//! `dataflow.spill_runs`, `streaming.stalls`, …). `toreador trace` renders
//! that map, `labs::compare` diffs it, and `RunRecord` merges it across a
//! campaign's engine runs; [`SpillTotals`], [`PipelineTotals`] and
//! [`StreamTotals`] are projections of it kept for the benchmark ledger.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use toreador_data::table::render_grid;

use crate::metrics::{NodeMetrics, RunMetrics};

/// One structured event. `seq` is dense and assigned at record time;
/// `at_us` is microseconds since the journal's epoch (its creation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub seq: u64,
    pub at_us: u64,
    pub kind: TraceEventKind,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// The journal (and hence the run) began.
    RunStarted,
    /// A task attempt began on a scheduler worker.
    TaskStarted {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// The matching end of a [`TraceEventKind::TaskStarted`] span. `ok` is
    /// false for injected faults and task errors alike.
    TaskFinished {
        stage: usize,
        partition: usize,
        attempt: u32,
        ok: bool,
    },
    /// The fault plan killed this attempt before the task body ran.
    FaultInjected {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// A failed attempt was rescheduled; `attempt` is the *new* attempt.
    TaskRetried {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// A retry was scheduled with a backoff delay; `attempt` is the attempt
    /// the delay precedes. Recorded instead of an immediate `TaskRetried`
    /// dispatch — the `TaskRetried` event follows when the delay elapses.
    BackoffScheduled {
        stage: usize,
        partition: usize,
        attempt: u32,
        delay_us: u64,
    },
    /// The watchdog declared a running attempt dead: it exceeded the task
    /// deadline and was cancelled cooperatively. The attempt's own
    /// `TaskFinished` still arrives when the worker notices.
    TaskTimedOut {
        stage: usize,
        partition: usize,
        attempt: u32,
        deadline_us: u64,
    },
    /// A task body panicked; the panic was isolated into a classified
    /// error rather than unwinding through the worker pool.
    TaskPanicked {
        stage: usize,
        partition: usize,
        attempt: u32,
        message: String,
    },
    /// A speculative backup attempt was launched for a straggling task;
    /// `attempt` is the backup's attempt number.
    SpeculativeLaunched {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// This attempt finished first in a speculation race and its result was
    /// taken.
    SpeculativeWon {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// This attempt lost a speculation race and was cancelled.
    SpeculativeLost {
        stage: usize,
        partition: usize,
        attempt: u32,
    },
    /// The run was cancelled cooperatively (permanent failure or exhausted
    /// budgets): in-flight workers stop claiming tasks.
    RunCancelled { stage: usize, reason: String },
    /// An operator completed (rows and timing across all its partitions).
    OperatorFinished {
        operator: String,
        stage: usize,
        rows_out: u64,
        elapsed_us: u64,
        shuffle_bytes: u64,
    },
    /// One shuffle wave moved rows between partition sets.
    ShuffleWave {
        /// Number of key columns (0 = keyless gather).
        keys: usize,
        rows: u64,
        bytes: u64,
        sources: usize,
        targets: usize,
    },
    /// Batches evaluated by a narrow operator: one batch per partition.
    /// `fused` is true when the operator ran in a chain of two or more
    /// (which also journals [`Self::NarrowChainFused`]), false for a lone
    /// operator. Journal-only — derived [`RunMetrics`] ignore it, while
    /// `labs::compare` can still diff the counts.
    OperatorBatches {
        operator: String,
        stage: usize,
        batches: u64,
        fused: bool,
    },
    /// A chain of narrow operators was fused into a single per-partition
    /// pass (no intermediate tables between them). Journal-only.
    NarrowChainFused {
        stage: usize,
        operators: Vec<String>,
    },
    /// A completed shuffle wave was durably checkpointed: its partitioned
    /// output is on disk, CRC-framed and fsynced, keyed by `wave` (the
    /// run's dense shuffle-wave index). Journal-only — derived
    /// [`RunMetrics`] ignore it, so checkpointed and checkpoint-off runs
    /// stay metrics-compatible.
    StageCheckpointed {
        stage: usize,
        wave: usize,
        partitions: usize,
        bytes: u64,
    },
    /// A wave's output was restored from its checkpoint instead of being
    /// recomputed: zero `TaskStarted` events exist for it. Journal-only.
    StageRestored {
        stage: usize,
        wave: usize,
        partitions: usize,
        rows: u64,
    },
    /// A morsel (a small row range of one partition) was pushed through a
    /// pipeline body. `worker` is the executing pool worker's index (0 on
    /// the calling thread).
    /// Journal-only — derived [`RunMetrics`] ignore it, so morsel and
    /// whole-partition waves stay metrics-compatible.
    MorselDispatched {
        stage: usize,
        partition: usize,
        morsel: usize,
        rows: u64,
        worker: usize,
    },
    /// An attempt at a morsel unit ran on a worker other than its home
    /// worker (`partition % workers`): the pool moved it off a busy
    /// worker. Journal-only.
    MorselStolen {
        stage: usize,
        partition: usize,
        /// The unit's first morsel.
        morsel: usize,
        /// The unit's home worker.
        home: usize,
        /// The worker that ran it.
        worker: usize,
    },
    /// The matching end of a [`TraceEventKind::MorselDispatched`].
    /// Journal-only.
    MorselCompleted {
        stage: usize,
        partition: usize,
        morsel: usize,
    },
    /// A morsel wave finished all its units. Carries the per-worker load
    /// balance, busy time summed per worker index:
    /// `slowest_worker_us / mean_worker_us` is the *worker* skew, which
    /// (unlike the per-partition task skew) shows what sharing a skewed
    /// partition's morsels bought. Journal-only.
    PipelineCompleted {
        stage: usize,
        partitions: usize,
        morsels: u64,
        stolen: u64,
        workers: usize,
        slowest_worker_us: u64,
        mean_worker_us: f64,
    },
    /// A source batch entered the bounded in-flight buffer. `depth` is the
    /// buffer occupancy *after* the push — the backpressure proof reads
    /// these and asserts `depth <= cap` at every event. Journal-only —
    /// derived [`RunMetrics`] ignore it, so continuous and oracle stream
    /// runs stay metrics-compatible.
    BatchIngested { offset: u64, rows: u64, depth: u64 },
    /// The source blocked because the in-flight buffer was full: the engine
    /// fell behind and backpressure throttled ingestion for `waited_us`.
    /// Journal-only.
    BackpressureStall { offset: u64, waited_us: u64 },
    /// The event-time watermark moved forward after observing a batch.
    /// Journal-only.
    WatermarkAdvanced { offset: u64, watermark_ms: i64 },
    /// Rows older than the watermark were folded into state anyway
    /// (`LatePolicy::Absorb`). Journal-only.
    LateDataAbsorbed { offset: u64, rows: u64 },
    /// Rows older than the watermark were diverted to the side channel
    /// (`LatePolicy::SideChannel`). Journal-only.
    LateDataSideChannelled { offset: u64, rows: u64 },
    /// Rows older than the watermark were discarded (`LatePolicy::Drop`).
    /// Journal-only.
    LateDataDropped { offset: u64, rows: u64 },
    /// End-to-end acknowledgement: the batch's state delta and offset are
    /// durable (WAL-committed and fsynced) — a crash after this event
    /// resumes *past* this batch. `latency_us` spans dequeue to ack.
    /// Journal-only.
    BatchAcked {
        offset: u64,
        rows: u64,
        latency_us: u64,
    },
    /// A continuous stream run recovered its state from the ack log and
    /// will begin at `next_offset`; acked batches are not re-executed.
    /// Journal-only.
    StreamResumed {
        next_offset: u64,
        watermark_ms: Option<i64>,
    },
    /// A buffer-pool read missed the pool and loaded the page from its
    /// backing file; `pool_bytes` was the resident pool size after the
    /// fault. No longer recorded (the pool is gone); read from stored
    /// runs, whose journals still carry it. Journal-only.
    PageFaulted {
        file: u64,
        page: u32,
        bytes: u64,
        pool_bytes: u64,
    },
    /// The pool's clock hand reclaimed a page frame; `dirty` pages were
    /// written back first. No longer recorded; read from stored runs.
    /// Journal-only.
    PageEvicted {
        file: u64,
        page: u32,
        bytes: u64,
        dirty: bool,
        pool_bytes: u64,
    },
    /// An operator exceeded its memory budget and spilled a run of rows to
    /// a paged file. `op` names the spilling operator family: `shuffle`,
    /// the one that spills; traces stored when the aggregation's map
    /// output spilled too also carry `aggregate`, and fold the same way.
    /// `target` is the partition the run belongs to, `bytes` its staged
    /// row-codec bytes. Journal-only.
    SpillStarted {
        op: String,
        target: usize,
        rows: u64,
        bytes: u64,
    },
    /// Spilled runs were read back and merged with the in-memory tail to
    /// produce the partition's final output. `rows` counts the tail too;
    /// `bytes` sums the runs' `SpillStarted` bytes. Journal-only.
    SpillMerged {
        op: String,
        target: usize,
        runs: usize,
        rows: u64,
        bytes: u64,
    },
    /// The run finalised into a [`RunMetrics`].
    RunFinished {
        total_elapsed_us: u64,
        result_rows: u64,
        result_partitions: u64,
    },
}

/// Thread-safe append-only event journal. Workers on every scheduler thread
/// record into the same journal; one short mutex hold per event keeps the
/// overhead far below the cost of the task bodies being measured.
#[derive(Debug)]
pub struct TraceJournal {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceJournal {
    /// A fresh journal whose epoch is now; records [`TraceEventKind::RunStarted`].
    pub fn new() -> Self {
        let journal = TraceJournal {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        };
        journal.record(TraceEventKind::RunStarted);
        journal
    }

    /// Append an event, assigning its sequence number and timestamp.
    /// The clock is read under the lock, so `at_us` never decreases in
    /// `seq` order.
    pub fn record(&self, kind: TraceEventKind) {
        let mut events = self.events.lock();
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let seq = events.len() as u64;
        events.push(TraceEvent { seq, at_us, kind });
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An owned, serialisable copy of everything recorded so far.
    pub fn snapshot(&self) -> RunTrace {
        RunTrace {
            events: self.events.lock().clone(),
        }
    }
}

/// The serialisable recording of one run: every event, in sequence order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunTrace {
    pub events: Vec<TraceEvent>,
}

/// One matched task span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpan {
    pub stage: usize,
    pub partition: usize,
    pub attempt: u32,
    pub start_us: u64,
    pub end_us: u64,
    pub ok: bool,
}

impl TaskSpan {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Per-stage roll-up of the journal.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StageSummary {
    pub stage: usize,
    /// Task attempts started in this stage.
    pub tasks: u64,
    pub retries: u64,
    pub faults: u64,
    /// Duration of the slowest completed task attempt, µs.
    pub slowest_task_us: u64,
    /// Mean duration over completed task attempts, µs.
    pub mean_task_us: f64,
    /// Slowest / mean task duration; 1.0 when there is nothing to compare.
    /// A barrier stage finishes when its slowest task does, so this is the
    /// straggler factor the stage pays over its average.
    pub skew_ratio: f64,
    /// Operators that completed in this stage, in completion order.
    pub operators: Vec<String>,
    pub rows_out: u64,
    pub shuffle_bytes: u64,
    /// Total backoff delay scheduled before retries in this stage, µs.
    #[serde(default)]
    pub backoff_us: u64,
    /// Attempts declared dead by the deadline watchdog.
    #[serde(default)]
    pub timeouts: u64,
    /// Attempts that panicked (isolated into classified errors).
    #[serde(default)]
    pub panics: u64,
    /// Speculative backup attempts launched / won in this stage.
    #[serde(default)]
    pub speculative_launched: u64,
    #[serde(default)]
    pub speculative_won: u64,
    /// Morsels pushed through fused pipelines in this stage (0 when the
    /// stage ran only whole-partition tasks).
    #[serde(default)]
    pub morsels: u64,
    /// Morsel-unit attempts run on a worker other than their home worker.
    #[serde(default)]
    pub stolen: u64,
}

/// Whole-run roll-up: what `toreador trace` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    pub stages: Vec<StageSummary>,
    /// Sum over stages of the slowest task — the barrier-to-barrier lower
    /// bound on wall clock, no matter how many workers are added.
    pub critical_path_us: u64,
    pub total_tasks: u64,
    pub shuffle_waves: u64,
    /// The whole run's journal folded into named counters.
    pub counters: Counters,
}

/// How a counter folds a new observation into its value — across the
/// events of one run and across the runs of a campaign alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterKind {
    /// Counts and sums: observations add up.
    Sum,
    /// Peaks, skews and the final watermark: the largest observation wins.
    Max,
}

/// One named counter: its kind and its value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    pub kind: CounterKind,
    pub value: f64,
}

impl Counter {
    fn fold(&mut self, value: f64) {
        match self.kind {
            CounterKind::Sum => self.value += value,
            CounterKind::Max => self.value = self.value.max(value),
        }
    }
}

/// Whole numbers print as integers, anything else (a skew) to two places.
impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value.fract() == 0.0 {
            write!(f, "{:.0}", self.value)
        } else {
            write!(f, "{:.2}", self.value)
        }
    }
}

/// A journal folded into one ordered map from counter name to value, keyed
/// by the benchmark ledger's layer names (`dataflow.spill_runs`,
/// `streaming.stalls`, …; DESIGN §6 has the table). A counter no event
/// touched is absent: absent means unobserved, not zero.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Counters(BTreeMap<String, Counter>);

impl Counters {
    fn observe(&mut self, name: &'static str, kind: CounterKind, value: f64) {
        match self.0.get_mut(name) {
            Some(counter) => counter.fold(value),
            None => {
                self.0.insert(name.to_owned(), Counter { kind, value });
            }
        }
    }

    fn sum(&mut self, name: &'static str, value: u64) {
        self.observe(name, CounterKind::Sum, value as f64);
    }

    fn max(&mut self, name: &'static str, value: f64) {
        self.observe(name, CounterKind::Max, value);
    }

    pub fn get(&self, name: &str) -> Option<Counter> {
        self.0.get(name).copied()
    }

    /// A counter's value as a whole number; 0 when unobserved.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |c| c.value as u64)
    }

    /// True when no event touched any counter.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every observed counter, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Counter)> {
        self.0.iter().map(|(name, c)| (name.as_ref(), *c))
    }

    /// Fold `other` in, counter by counter, each by its kind (for
    /// aggregating across a campaign's engine runs).
    pub fn merge(mut self, other: &Counters) -> Counters {
        for (name, c) in &other.0 {
            match self.0.get_mut(name) {
                Some(mine) => mine.fold(c.value),
                None => {
                    self.0.insert(name.clone(), *c);
                }
            }
        }
        self
    }
}

/// Aggregate morsel-pipeline activity of a run: a projection of
/// [`Counters`] kept for the benchmark ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineTotals {
    /// Pipeline waves completed.
    pub pipelines: u64,
    /// Morsels dispatched across all pipeline waves.
    pub morsels: u64,
    /// Morsel-unit attempts run on a worker other than their home worker.
    pub stolen: u64,
    /// Worst per-wave worker-balance skew (slowest worker busy time over
    /// mean worker busy time); 1.0 when no pipeline ran.
    pub worker_skew: f64,
}

impl From<&Counters> for PipelineTotals {
    fn from(c: &Counters) -> Self {
        PipelineTotals {
            pipelines: c.count("dataflow.pipelines"),
            morsels: c.count("dataflow.morsels"),
            stolen: c.count("dataflow.morsels_stolen"),
            worker_skew: c.get("dataflow.worker_skew").map_or(1.0, |s| s.value),
        }
    }
}

/// Aggregate continuous-streaming activity of a run: a projection of
/// [`Counters`] kept for the benchmark ledger and the backpressure /
/// late-data acceptance proofs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamTotals {
    /// Batches whose state delta and offset reached the WAL (end-to-end
    /// acknowledged).
    pub batches_acked: u64,
    /// Input rows across all acked batches.
    pub rows_acked: u64,
    /// Times the producer blocked on a full in-flight buffer.
    pub stalls: u64,
    /// Total time the producer spent blocked, µs.
    pub stall_us: u64,
    /// Deepest journalled in-flight buffer occupancy. The backpressure
    /// bound: never exceeds the configured cap.
    pub max_in_flight: u64,
    /// Watermark advances observed.
    pub watermark_advances: u64,
    /// Final event-time watermark, ms (None when no batch carried rows).
    pub final_watermark_ms: Option<i64>,
    /// Late rows folded into state under `LatePolicy::Absorb`.
    pub late_absorbed: u64,
    /// Late rows diverted under `LatePolicy::SideChannel`.
    pub late_side_channelled: u64,
    /// Late rows discarded under `LatePolicy::Drop`.
    pub late_dropped: u64,
    /// Resume points seen (offset the run restarted from, when it did).
    pub resumes: u64,
}

impl From<&Counters> for StreamTotals {
    fn from(c: &Counters) -> Self {
        StreamTotals {
            batches_acked: c.count("streaming.batches"),
            rows_acked: c.count("streaming.rows"),
            stalls: c.count("streaming.stalls"),
            stall_us: c.count("streaming.stall_us"),
            max_in_flight: c.count("streaming.max_in_flight"),
            watermark_advances: c.count("streaming.watermark_advances"),
            final_watermark_ms: c.get("streaming.watermark_ms").map(|w| w.value as i64),
            late_absorbed: c.count("streaming.late_absorbed"),
            late_side_channelled: c.count("streaming.late_side_channelled"),
            late_dropped: c.count("streaming.late_dropped"),
            resumes: c.count("streaming.resumes"),
        }
    }
}

/// Aggregate out-of-core activity of a run: a projection of [`Counters`]
/// kept for the benchmark ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpillTotals {
    /// Runs spilled to paged files when a budget was exceeded.
    pub spills: u64,
    /// Rows across all spilled runs.
    pub spilled_rows: u64,
    /// Encoded bytes across all spilled runs.
    pub spilled_bytes: u64,
    /// Merge passes that read spilled runs back into partition output.
    pub merges: u64,
    /// Spilled runs consumed across all merge passes.
    pub merged_runs: u64,
    /// Buffer-pool misses that loaded a page from disk. The three page
    /// fields fold [`TraceEventKind::PageFaulted`] and
    /// [`TraceEventKind::PageEvicted`], which only stored runs carry: they
    /// read 0 for new runs and stay for the frozen benchmark ledger.
    pub page_faults: u64,
    /// Page frames the pool's clock hand reclaimed (0 for new runs).
    pub page_evictions: u64,
    /// Deepest journalled resident pool size, bytes (0 for new runs).
    pub peak_pool_bytes: u64,
}

impl From<&Counters> for SpillTotals {
    fn from(c: &Counters) -> Self {
        SpillTotals {
            spills: c.count("dataflow.spill_runs"),
            spilled_rows: c.count("dataflow.spilled_rows"),
            spilled_bytes: c.count("dataflow.spilled_bytes"),
            merges: c.count("dataflow.merges"),
            merged_runs: c.count("dataflow.merged_runs"),
            page_faults: c.count("dataflow.page_faults"),
            page_evictions: c.count("dataflow.page_evictions"),
            peak_pool_bytes: c.count("dataflow.peak_pool_bytes"),
        }
    }
}

impl SpillTotals {
    /// Count-wise sum, keeping the deepest pool (for aggregating across a
    /// campaign's engine runs).
    pub fn merge(&self, other: &SpillTotals) -> SpillTotals {
        SpillTotals {
            spills: self.spills + other.spills,
            spilled_rows: self.spilled_rows + other.spilled_rows,
            spilled_bytes: self.spilled_bytes + other.spilled_bytes,
            merges: self.merges + other.merges,
            merged_runs: self.merged_runs + other.merged_runs,
            page_faults: self.page_faults + other.page_faults,
            page_evictions: self.page_evictions + other.page_evictions,
            peak_pool_bytes: self.peak_pool_bytes.max(other.peak_pool_bytes),
        }
    }
}

/// Full export bundle for the CLI's `--format json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    pub summary: TraceSummary,
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// Match start events to their end events. Unfinished spans (a crashed
    /// worker) are omitted — callers that care test start/end pairing
    /// directly on the events.
    pub fn task_spans(&self) -> Vec<TaskSpan> {
        let mut open: BTreeMap<(usize, usize, u32), u64> = BTreeMap::new();
        let mut spans = Vec::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::TaskStarted {
                    stage,
                    partition,
                    attempt,
                } => {
                    open.insert((stage, partition, attempt), e.at_us);
                }
                TraceEventKind::TaskFinished {
                    stage,
                    partition,
                    attempt,
                    ok,
                } => {
                    if let Some(start_us) = open.remove(&(stage, partition, attempt)) {
                        spans.push(TaskSpan {
                            stage,
                            partition,
                            attempt,
                            start_us,
                            end_us: e.at_us,
                            ok,
                        });
                    }
                }
                _ => {}
            }
        }
        spans
    }

    /// Rebuild a [`RunMetrics`] from the journal alone. This is what
    /// [`crate::metrics::MetricsCollector::finish`] returns: operators from
    /// `OperatorFinished`, attempts from `TaskStarted`, retries from
    /// `TaskRetried` — every other event kind carries no metric weight.
    pub fn derive_metrics(
        &self,
        total_elapsed_us: u64,
        result_rows: u64,
        result_partitions: u64,
    ) -> RunMetrics {
        let mut nodes = Vec::new();
        let mut tasks_run = 0u64;
        let mut task_retries = 0u64;
        for e in &self.events {
            match &e.kind {
                TraceEventKind::OperatorFinished {
                    operator,
                    stage,
                    rows_out,
                    elapsed_us,
                    shuffle_bytes,
                } => nodes.push(NodeMetrics {
                    operator: operator.clone(),
                    stage: *stage,
                    rows_out: *rows_out,
                    elapsed_us: *elapsed_us,
                    shuffle_bytes: *shuffle_bytes,
                }),
                TraceEventKind::TaskStarted { .. } => tasks_run += 1,
                TraceEventKind::TaskRetried { .. } => task_retries += 1,
                _ => {}
            }
        }
        RunMetrics {
            nodes,
            total_elapsed_us,
            tasks_run,
            task_retries,
            result_rows,
            result_partitions,
        }
    }

    /// Total operator-attributed elapsed time per operator name, µs.
    pub fn operator_elapsed_us(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.events {
            if let TraceEventKind::OperatorFinished {
                operator,
                elapsed_us,
                ..
            } = &e.kind
            {
                *totals.entry(operator.clone()).or_insert(0) += elapsed_us;
            }
        }
        totals
    }

    /// Batches evaluated per operator, with whether the operator ran
    /// inside a fused narrow chain — comparing this map across two runs is
    /// how a plan change that splits or joins a chain diffs cleanly.
    pub fn operator_batches(&self) -> BTreeMap<String, (u64, bool)> {
        let mut totals: BTreeMap<String, (u64, bool)> = BTreeMap::new();
        for e in &self.events {
            if let TraceEventKind::OperatorBatches {
                operator,
                batches,
                fused,
                ..
            } = &e.kind
            {
                let entry = totals.entry(operator.clone()).or_insert((0, false));
                entry.0 += batches;
                entry.1 |= fused;
            }
        }
        totals
    }

    /// Roll the journal up per stage, and fold it into [`Counters`].
    pub fn summarize(&self) -> TraceSummary {
        fn at(stages: &mut BTreeMap<usize, StageSummary>, stage: usize) -> &mut StageSummary {
            stages.entry(stage).or_insert_with(|| StageSummary {
                stage,
                skew_ratio: 1.0,
                ..StageSummary::default()
            })
        }
        let mut stages: BTreeMap<usize, StageSummary> = BTreeMap::new();
        let mut shuffle_waves = 0u64;
        let mut c = Counters::default();
        for e in &self.events {
            match &e.kind {
                TraceEventKind::TaskStarted { stage, .. } => at(&mut stages, *stage).tasks += 1,
                TraceEventKind::TaskRetried { stage, .. } => {
                    at(&mut stages, *stage).retries += 1;
                    c.sum("dataflow.retries", 1);
                }
                TraceEventKind::FaultInjected { stage, .. } => {
                    at(&mut stages, *stage).faults += 1;
                    c.sum("dataflow.faults", 1);
                }
                TraceEventKind::OperatorFinished {
                    operator,
                    stage,
                    rows_out,
                    shuffle_bytes,
                    ..
                } => {
                    let s = at(&mut stages, *stage);
                    s.operators.push(operator.clone());
                    s.rows_out += rows_out;
                    s.shuffle_bytes += shuffle_bytes;
                }
                TraceEventKind::ShuffleWave { .. } => shuffle_waves += 1,
                TraceEventKind::BackoffScheduled {
                    stage, delay_us, ..
                } => {
                    at(&mut stages, *stage).backoff_us += delay_us;
                    c.sum("dataflow.backoff_us", *delay_us);
                }
                TraceEventKind::TaskTimedOut { stage, .. } => {
                    at(&mut stages, *stage).timeouts += 1;
                    c.sum("dataflow.timeouts", 1);
                }
                TraceEventKind::TaskPanicked { stage, .. } => {
                    at(&mut stages, *stage).panics += 1;
                    c.sum("dataflow.panics", 1);
                }
                TraceEventKind::SpeculativeLaunched { stage, .. } => {
                    at(&mut stages, *stage).speculative_launched += 1;
                    c.sum("dataflow.speculative_launched", 1);
                }
                TraceEventKind::SpeculativeWon { stage, .. } => {
                    at(&mut stages, *stage).speculative_won += 1;
                    c.sum("dataflow.speculative_won", 1);
                }
                TraceEventKind::RunCancelled { .. } => c.sum("dataflow.cancellations", 1),
                TraceEventKind::MorselDispatched { stage, .. } => {
                    at(&mut stages, *stage).morsels += 1;
                }
                TraceEventKind::MorselStolen { stage, .. } => at(&mut stages, *stage).stolen += 1,
                TraceEventKind::PipelineCompleted {
                    morsels,
                    stolen,
                    slowest_worker_us,
                    mean_worker_us,
                    ..
                } => {
                    c.sum("dataflow.pipelines", 1);
                    c.sum("dataflow.morsels", *morsels);
                    c.sum("dataflow.morsels_stolen", *stolen);
                    let skew = if *mean_worker_us > 0.0 {
                        *slowest_worker_us as f64 / mean_worker_us
                    } else {
                        1.0
                    };
                    c.max("dataflow.worker_skew", skew);
                }
                TraceEventKind::BatchIngested { depth, .. } => {
                    c.max("streaming.max_in_flight", *depth as f64);
                }
                TraceEventKind::BackpressureStall { waited_us, .. } => {
                    c.sum("streaming.stalls", 1);
                    c.sum("streaming.stall_us", *waited_us);
                }
                TraceEventKind::WatermarkAdvanced { watermark_ms, .. } => {
                    c.sum("streaming.watermark_advances", 1);
                    c.max("streaming.watermark_ms", *watermark_ms as f64);
                }
                TraceEventKind::LateDataAbsorbed { rows, .. } => {
                    c.sum("streaming.late_absorbed", *rows);
                }
                TraceEventKind::LateDataSideChannelled { rows, .. } => {
                    c.sum("streaming.late_side_channelled", *rows);
                }
                TraceEventKind::LateDataDropped { rows, .. } => {
                    c.sum("streaming.late_dropped", *rows);
                }
                TraceEventKind::BatchAcked { rows, .. } => {
                    c.sum("streaming.batches", 1);
                    c.sum("streaming.rows", *rows);
                }
                TraceEventKind::StreamResumed { .. } => c.sum("streaming.resumes", 1),
                TraceEventKind::PageFaulted { pool_bytes, .. } => {
                    c.sum("dataflow.page_faults", 1);
                    c.max("dataflow.peak_pool_bytes", *pool_bytes as f64);
                }
                TraceEventKind::PageEvicted { pool_bytes, .. } => {
                    c.sum("dataflow.page_evictions", 1);
                    c.max("dataflow.peak_pool_bytes", *pool_bytes as f64);
                }
                TraceEventKind::SpillStarted { rows, bytes, .. } => {
                    c.sum("dataflow.spill_runs", 1);
                    c.sum("dataflow.spilled_rows", *rows);
                    c.sum("dataflow.spilled_bytes", *bytes);
                }
                TraceEventKind::SpillMerged { runs, .. } => {
                    c.sum("dataflow.merges", 1);
                    c.sum("dataflow.merged_runs", *runs as u64);
                }
                _ => {}
            }
        }
        // Task timing per stage from the matched spans.
        let mut durations: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for span in self.task_spans() {
            durations
                .entry(span.stage)
                .or_default()
                .push(span.duration_us());
        }
        for (stage, ds) in durations {
            let s = at(&mut stages, stage);
            s.slowest_task_us = ds.iter().copied().max().unwrap_or(0);
            s.mean_task_us = ds.iter().sum::<u64>() as f64 / ds.len() as f64;
            s.skew_ratio = if s.mean_task_us > 0.0 {
                s.slowest_task_us as f64 / s.mean_task_us
            } else {
                1.0
            };
        }
        let stages: Vec<StageSummary> = stages.into_values().collect();
        for s in stages.iter().filter(|s| s.tasks > 0) {
            c.max("dataflow.task_skew", s.skew_ratio);
        }
        TraceSummary {
            critical_path_us: stages.iter().map(|s| s.slowest_task_us).sum(),
            total_tasks: stages.iter().map(|s| s.tasks).sum(),
            shuffle_waves,
            counters: c,
            stages,
        }
    }

    /// The journal folded into named counters.
    pub fn counters(&self) -> Counters {
        self.summarize().counters
    }

    /// The run's morsel-pipeline counters, projected.
    pub fn pipeline_totals(&self) -> PipelineTotals {
        PipelineTotals::from(&self.counters())
    }

    /// The run's continuous-streaming counters, projected.
    pub fn stream_totals(&self) -> StreamTotals {
        StreamTotals::from(&self.counters())
    }

    /// The run's out-of-core counters, projected.
    pub fn spill_totals(&self) -> SpillTotals {
        SpillTotals::from(&self.counters())
    }

    /// Summary plus the raw events, for JSON export.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            summary: self.summarize(),
            events: self.events.clone(),
        }
    }
}

impl TraceSummary {
    /// Render as an aligned per-stage table, a critical-path footer, and a
    /// table of every observed counter.
    pub fn render(&self) -> String {
        let header = [
            "stage",
            "tasks",
            "retries",
            "faults",
            "slowest(us)",
            "skew",
            "rows_out",
            "shuffle(B)",
            "operators",
        ];
        let mut grid: Vec<Vec<String>> = vec![header.map(str::to_owned).to_vec()];
        for s in &self.stages {
            grid.push(vec![
                s.stage.to_string(),
                s.tasks.to_string(),
                s.retries.to_string(),
                s.faults.to_string(),
                s.slowest_task_us.to_string(),
                format!("{:.2}", s.skew_ratio),
                s.rows_out.to_string(),
                s.shuffle_bytes.to_string(),
                s.operators.join(", "),
            ]);
        }
        let mut out = render_grid(&grid);
        out.push_str(&format!(
            "critical path: {} us over {} stage(s); {} task(s), {} retried, {} fault(s), {} shuffle wave(s)\n",
            self.critical_path_us,
            self.stages.len(),
            self.total_tasks,
            self.counters.count("dataflow.retries"),
            self.counters.count("dataflow.faults"),
            self.shuffle_waves,
        ));
        if !self.counters.is_empty() {
            let mut grid = vec![vec!["counter".to_owned(), "value".to_owned()]];
            grid.extend(
                self.counters
                    .iter()
                    .map(|(name, c)| vec![name.to_owned(), c.to_string()]),
            );
            out.push_str(&render_grid(&grid));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESILIENCE: [&str; 8] = [
        "dataflow.retries",
        "dataflow.faults",
        "dataflow.backoff_us",
        "dataflow.timeouts",
        "dataflow.panics",
        "dataflow.speculative_launched",
        "dataflow.speculative_won",
        "dataflow.cancellations",
    ];
    const PIPELINE: [&str; 4] = [
        "dataflow.pipelines",
        "dataflow.morsels",
        "dataflow.morsels_stolen",
        "dataflow.worker_skew",
    ];
    const SPILL: [&str; 8] = [
        "dataflow.spill_runs",
        "dataflow.spilled_rows",
        "dataflow.spilled_bytes",
        "dataflow.merges",
        "dataflow.merged_runs",
        "dataflow.page_faults",
        "dataflow.page_evictions",
        "dataflow.peak_pool_bytes",
    ];
    const STREAM: [&str; 11] = [
        "streaming.batches",
        "streaming.rows",
        "streaming.stalls",
        "streaming.stall_us",
        "streaming.max_in_flight",
        "streaming.watermark_advances",
        "streaming.watermark_ms",
        "streaming.late_absorbed",
        "streaming.late_side_channelled",
        "streaming.late_dropped",
        "streaming.resumes",
    ];

    /// The value `render` printed on the counter table row for `name`.
    fn rendered_counter<'a>(rendered: &'a str, name: &str) -> Option<&'a str> {
        rendered.lines().find_map(|line| {
            let mut cells = line.split_whitespace();
            (cells.next() == Some(name)).then(|| cells.next()).flatten()
        })
    }

    fn journal_with_two_stage_run() -> TraceJournal {
        let j = TraceJournal::new();
        // Stage 0: two clean tasks and an operator.
        for p in 0..2 {
            j.record(TraceEventKind::TaskStarted {
                stage: 0,
                partition: p,
                attempt: 0,
            });
            j.record(TraceEventKind::TaskFinished {
                stage: 0,
                partition: p,
                attempt: 0,
                ok: true,
            });
        }
        j.record(TraceEventKind::OperatorFinished {
            operator: "Scan t".to_owned(),
            stage: 0,
            rows_out: 100,
            elapsed_us: 40,
            shuffle_bytes: 0,
        });
        // A wave, then stage 1 with a fault + retry.
        j.record(TraceEventKind::ShuffleWave {
            keys: 1,
            rows: 100,
            bytes: 2_048,
            sources: 2,
            targets: 4,
        });
        j.record(TraceEventKind::TaskStarted {
            stage: 1,
            partition: 0,
            attempt: 0,
        });
        j.record(TraceEventKind::FaultInjected {
            stage: 1,
            partition: 0,
            attempt: 0,
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 1,
            partition: 0,
            attempt: 0,
            ok: false,
        });
        j.record(TraceEventKind::TaskRetried {
            stage: 1,
            partition: 0,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskStarted {
            stage: 1,
            partition: 0,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 1,
            partition: 0,
            attempt: 1,
            ok: true,
        });
        j.record(TraceEventKind::OperatorFinished {
            operator: "Aggregate".to_owned(),
            stage: 1,
            rows_out: 5,
            elapsed_us: 120,
            shuffle_bytes: 2_048,
        });
        j
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let trace = journal_with_two_stage_run().snapshot();
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert!(matches!(trace.events[0].kind, TraceEventKind::RunStarted));
        for w in trace.events.windows(2) {
            assert!(w[0].at_us <= w[1].at_us, "timestamps must be monotone");
        }
    }

    #[test]
    fn spans_match_starts_to_finishes() {
        let trace = journal_with_two_stage_run().snapshot();
        let spans = trace.task_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().filter(|s| !s.ok).count() == 1);
        let faulted = spans
            .iter()
            .find(|s| s.stage == 1 && s.attempt == 0)
            .unwrap();
        assert!(!faulted.ok);
    }

    #[test]
    fn derived_metrics_count_events() {
        let trace = journal_with_two_stage_run().snapshot();
        let m = trace.derive_metrics(1_000, 5, 4);
        assert_eq!(m.tasks_run, 4);
        assert_eq!(m.task_retries, 1);
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.nodes[0].operator, "Scan t");
        assert_eq!(m.total_shuffle_bytes(), 2_048);
        assert_eq!(m.result_rows, 5);
    }

    #[test]
    fn summary_rolls_up_per_stage() {
        let trace = journal_with_two_stage_run().snapshot();
        let s = trace.summarize();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].tasks, 2);
        assert_eq!(s.stages[1].retries, 1);
        assert_eq!(s.stages[1].faults, 1);
        assert_eq!(s.stages[1].shuffle_bytes, 2_048);
        assert_eq!(s.total_tasks, 4);
        assert_eq!(s.shuffle_waves, 1);
        assert_eq!(
            s.critical_path_us,
            s.stages.iter().map(|x| x.slowest_task_us).sum::<u64>()
        );
        let rendered = s.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("skew"));
        assert!(rendered.contains("Aggregate"));
    }

    #[test]
    fn operator_totals_and_skew() {
        let trace = journal_with_two_stage_run().snapshot();
        let totals = trace.operator_elapsed_us();
        assert_eq!(totals.get("Scan t"), Some(&40));
        assert_eq!(totals.get("Aggregate"), Some(&120));
        assert!(trace.counters().get("dataflow.task_skew").unwrap().value >= 1.0);
    }

    #[test]
    fn traces_serialize_round_trip() {
        let trace = journal_with_two_stage_run().snapshot();
        let j = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&j).unwrap();
        assert_eq!(trace, back);
        let report = trace.report();
        let j = serde_json::to_string_pretty(&report).unwrap();
        let back: TraceReport = serde_json::from_str(&j).unwrap();
        assert_eq!(report, back);
    }

    fn journal_with_resilience_events() -> TraceJournal {
        let j = journal_with_two_stage_run();
        j.record(TraceEventKind::TaskStarted {
            stage: 2,
            partition: 0,
            attempt: 0,
        });
        j.record(TraceEventKind::TaskTimedOut {
            stage: 2,
            partition: 0,
            attempt: 0,
            deadline_us: 1_000,
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 2,
            partition: 0,
            attempt: 0,
            ok: false,
        });
        j.record(TraceEventKind::BackoffScheduled {
            stage: 2,
            partition: 0,
            attempt: 1,
            delay_us: 400,
        });
        j.record(TraceEventKind::TaskRetried {
            stage: 2,
            partition: 0,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskStarted {
            stage: 2,
            partition: 0,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskPanicked {
            stage: 2,
            partition: 0,
            attempt: 1,
            message: "boom".to_owned(),
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 2,
            partition: 0,
            attempt: 1,
            ok: false,
        });
        j.record(TraceEventKind::TaskStarted {
            stage: 2,
            partition: 1,
            attempt: 0,
        });
        j.record(TraceEventKind::SpeculativeLaunched {
            stage: 2,
            partition: 1,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskStarted {
            stage: 2,
            partition: 1,
            attempt: 1,
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 2,
            partition: 1,
            attempt: 1,
            ok: true,
        });
        j.record(TraceEventKind::SpeculativeWon {
            stage: 2,
            partition: 1,
            attempt: 1,
        });
        j.record(TraceEventKind::SpeculativeLost {
            stage: 2,
            partition: 1,
            attempt: 0,
        });
        j.record(TraceEventKind::TaskFinished {
            stage: 2,
            partition: 1,
            attempt: 0,
            ok: false,
        });
        j.record(TraceEventKind::RunCancelled {
            stage: 2,
            reason: "budget spent".to_owned(),
        });
        j
    }

    #[test]
    fn resilience_events_roll_up_per_stage_and_run() {
        let trace = journal_with_resilience_events().snapshot();
        let s = trace.summarize();
        let stage2 = s.stages.iter().find(|x| x.stage == 2).unwrap();
        assert_eq!(stage2.timeouts, 1);
        assert_eq!(stage2.panics, 1);
        assert_eq!(stage2.backoff_us, 400);
        assert_eq!(stage2.speculative_launched, 1);
        assert_eq!(stage2.speculative_won, 1);
        let c = &s.counters;
        assert_eq!(c.count("dataflow.timeouts"), 1);
        assert_eq!(c.count("dataflow.panics"), 1);
        assert_eq!(c.count("dataflow.backoff_us"), 400);
        assert_eq!(c.count("dataflow.speculative_launched"), 1);
        assert_eq!(c.count("dataflow.speculative_won"), 1);
        assert_eq!(c.count("dataflow.cancellations"), 1);
        let stage_retries: u64 = s.stages.iter().map(|x| x.retries).sum();
        assert_eq!(c.count("dataflow.retries"), stage_retries);
        assert!(!c.is_empty());
        let merged = c.clone().merge(c);
        assert_eq!(merged.count("dataflow.timeouts"), 2);
        assert_eq!(merged.count("dataflow.backoff_us"), 800);
        let rendered = s.render();
        assert_eq!(rendered_counter(&rendered, "dataflow.timeouts"), Some("1"));
        assert_eq!(rendered_counter(&rendered, "dataflow.panics"), Some("1"));
    }

    #[test]
    fn resilience_footer_absent_for_calm_runs() {
        let trace = journal_with_two_stage_run().snapshot();
        let s = trace.summarize();
        // This journal has a retry + fault, so their counters appear …
        assert_eq!(rendered_counter(&s.render(), "dataflow.retries"), Some("1"));
        assert_eq!(rendered_counter(&s.render(), "dataflow.faults"), Some("1"));
        // … but a genuinely calm run omits it.
        let calm = TraceJournal::new();
        calm.record(TraceEventKind::TaskStarted {
            stage: 0,
            partition: 0,
            attempt: 0,
        });
        calm.record(TraceEventKind::TaskFinished {
            stage: 0,
            partition: 0,
            attempt: 0,
            ok: true,
        });
        let summary = calm.snapshot().summarize();
        let rendered = summary.render();
        for name in RESILIENCE {
            assert_eq!(summary.counters.get(name), None, "{name}");
            assert_eq!(rendered_counter(&rendered, name), None, "{name}");
        }
    }

    #[test]
    fn resilience_events_do_not_disturb_derived_metrics() {
        // derive_metrics must keep counting only starts/retries/operators,
        // whatever resilience events sit between them.
        let trace = journal_with_resilience_events().snapshot();
        let m = trace.derive_metrics(1_000, 5, 4);
        let starts = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStarted { .. }))
            .count() as u64;
        let retries = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskRetried { .. }))
            .count() as u64;
        assert_eq!(m.tasks_run, starts);
        assert_eq!(m.task_retries, retries);
        assert_eq!(m.nodes.len(), 2, "operator list unchanged");
    }

    fn journal_with_pipeline_events() -> TraceJournal {
        let j = journal_with_two_stage_run();
        for (m, worker) in [(0usize, 0usize), (1, 0), (2, 1)] {
            j.record(TraceEventKind::MorselDispatched {
                stage: 0,
                partition: 0,
                morsel: m,
                rows: 64,
                worker,
            });
            if m == 2 {
                j.record(TraceEventKind::MorselStolen {
                    stage: 0,
                    partition: 0,
                    morsel: m,
                    home: 0,
                    worker,
                });
            }
            j.record(TraceEventKind::MorselCompleted {
                stage: 0,
                partition: 0,
                morsel: m,
            });
        }
        j.record(TraceEventKind::PipelineCompleted {
            stage: 0,
            partitions: 1,
            morsels: 3,
            stolen: 1,
            workers: 2,
            slowest_worker_us: 300,
            mean_worker_us: 250.0,
        });
        j
    }

    #[test]
    fn pipeline_events_roll_up_per_stage_and_run() {
        let trace = journal_with_pipeline_events().snapshot();
        let s = trace.summarize();
        let stage0 = s.stages.iter().find(|x| x.stage == 0).unwrap();
        assert_eq!(stage0.morsels, 3);
        assert_eq!(stage0.stolen, 1);
        let p = trace.pipeline_totals();
        assert_eq!(p.pipelines, 1);
        assert_eq!(p.morsels, 3);
        assert_eq!(p.stolen, 1);
        assert!((p.worker_skew - 1.2).abs() < 1e-9, "skew {}", p.worker_skew);
        assert!(s.counters.get("dataflow.pipelines").is_some());
        let mut other = Counters::default();
        other.sum("dataflow.pipelines", 1);
        other.sum("dataflow.morsels", 5);
        other.sum("dataflow.morsels_stolen", 0);
        other.max("dataflow.worker_skew", 1.7);
        let merged = PipelineTotals::from(&s.counters.clone().merge(&other));
        assert_eq!(merged.pipelines, 2);
        assert_eq!(merged.morsels, 8);
        assert_eq!(merged.worker_skew, 1.7, "merge keeps the worst skew");
        let rendered = s.render();
        assert_eq!(rendered_counter(&rendered, "dataflow.pipelines"), Some("1"));
        assert_eq!(
            rendered_counter(&rendered, "dataflow.morsels_stolen"),
            Some("1")
        );
        assert_eq!(
            rendered_counter(&rendered, "dataflow.worker_skew"),
            Some("1.20")
        );
        // A run that never pipelined has no pipeline counters.
        let barrier = journal_with_two_stage_run().snapshot().summarize();
        for name in PIPELINE {
            assert_eq!(barrier.counters.get(name), None, "{name}");
            assert_eq!(rendered_counter(&barrier.render(), name), None, "{name}");
        }
    }

    #[test]
    fn pipeline_events_do_not_disturb_derived_metrics() {
        // Morsel events are journal-only: derive_metrics must keep counting
        // only starts/retries/operators, so morsel-driven and barrier runs
        // derive the same metrics.
        let trace = journal_with_pipeline_events().snapshot();
        let m = trace.derive_metrics(1_000, 5, 4);
        assert_eq!(m.tasks_run, 4);
        assert_eq!(m.task_retries, 1);
        assert_eq!(m.nodes.len(), 2);
    }

    fn journal_with_spill_events() -> TraceJournal {
        let j = journal_with_two_stage_run();
        j.record(TraceEventKind::SpillStarted {
            op: "shuffle".to_owned(),
            target: 2,
            rows: 500,
            bytes: 12_000,
        });
        j.record(TraceEventKind::PageFaulted {
            file: 1,
            page: 0,
            bytes: 32_768,
            pool_bytes: 32_768,
        });
        j.record(TraceEventKind::PageEvicted {
            file: 1,
            page: 0,
            bytes: 32_768,
            dirty: true,
            pool_bytes: 65_536,
        });
        j.record(TraceEventKind::SpillStarted {
            op: "aggregate".to_owned(),
            target: 2,
            rows: 100,
            bytes: 3_000,
        });
        j.record(TraceEventKind::SpillMerged {
            op: "shuffle".to_owned(),
            target: 2,
            runs: 2,
            rows: 600,
            bytes: 15_000,
        });
        j
    }

    #[test]
    fn spill_events_roll_up_and_render() {
        let trace = journal_with_spill_events().snapshot();
        let totals = trace.spill_totals();
        assert_eq!(totals.spills, 2);
        assert_eq!(totals.spilled_rows, 600);
        assert_eq!(totals.spilled_bytes, 15_000);
        assert_eq!(totals.merges, 1);
        assert_eq!(totals.merged_runs, 2);
        assert_eq!(totals.page_faults, 1);
        assert_eq!(totals.page_evictions, 1);
        assert_eq!(totals.peak_pool_bytes, 65_536);
        assert_ne!(totals, SpillTotals::default());
        let merged = totals.merge(&SpillTotals {
            spills: 1,
            spilled_rows: 10,
            spilled_bytes: 100,
            merges: 1,
            merged_runs: 1,
            page_faults: 0,
            page_evictions: 0,
            peak_pool_bytes: 10,
        });
        assert_eq!(merged.spills, 3);
        assert_eq!(merged.merged_runs, 3);
        assert_eq!(merged.peak_pool_bytes, 65_536, "merge keeps deepest pool");
        let rendered = trace.summarize().render();
        assert_eq!(
            rendered_counter(&rendered, "dataflow.spill_runs"),
            Some("2")
        );
        assert_eq!(
            rendered_counter(&rendered, "dataflow.peak_pool_bytes"),
            Some("65536")
        );
        // An in-memory run has no spill counters.
        let calm = journal_with_two_stage_run().snapshot().summarize();
        assert_eq!(SpillTotals::from(&calm.counters), SpillTotals::default());
        for name in SPILL {
            assert_eq!(calm.counters.get(name), None, "{name}");
            assert_eq!(rendered_counter(&calm.render(), name), None, "{name}");
        }
    }

    #[test]
    fn stored_page_events_still_load_and_fold() {
        // A budgeted run recorded while the engine had a buffer pool, in
        // the exact shape its journal serialised to; stored run records
        // carry such traces, so both events must keep loading.
        let json = r#"{"events":[{"seq":0,"at_us":0,"kind":"RunStarted"},{"seq":1,"at_us":1,"kind":{"PageFaulted":{"file":3,"page":1,"bytes":32768,"pool_bytes":32768}}},{"seq":2,"at_us":1,"kind":{"PageEvicted":{"file":3,"page":1,"bytes":32768,"dirty":true,"pool_bytes":65536}}}]}"#;
        let trace: RunTrace = serde_json::from_str(json).unwrap();
        let totals = trace.spill_totals();
        assert_eq!(totals.page_faults, 1);
        assert_eq!(totals.page_evictions, 1);
        assert_eq!(totals.peak_pool_bytes, 65_536);
        assert_eq!(serde_json::to_string(&trace).unwrap(), json);
    }

    #[test]
    fn spill_events_do_not_disturb_derived_metrics() {
        // Spill and page events are journal-only: derive_metrics must keep
        // counting only starts/retries/operators, so budgeted and in-memory
        // runs derive the same metrics.
        let trace = journal_with_spill_events().snapshot();
        let m = trace.derive_metrics(1_000, 5, 4);
        assert_eq!(m.tasks_run, 4);
        assert_eq!(m.task_retries, 1);
        assert_eq!(m.nodes.len(), 2);
    }

    fn journal_with_stream_events() -> TraceJournal {
        let j = TraceJournal::new();
        j.record(TraceEventKind::StreamResumed {
            next_offset: 3,
            watermark_ms: Some(1_000),
        });
        for (offset, rows, depth) in [(3u64, 64u64, 1u64), (4, 32, 2)] {
            j.record(TraceEventKind::BatchIngested {
                offset,
                rows,
                depth,
            });
        }
        j.record(TraceEventKind::BackpressureStall {
            offset: 4,
            waited_us: 150,
        });
        for (offset, watermark_ms) in [(3u64, 1_500i64), (4, 2_500)] {
            j.record(TraceEventKind::WatermarkAdvanced {
                offset,
                watermark_ms,
            });
        }
        j.record(TraceEventKind::LateDataAbsorbed { offset: 3, rows: 3 });
        j.record(TraceEventKind::LateDataSideChannelled { offset: 4, rows: 2 });
        j.record(TraceEventKind::LateDataDropped { offset: 4, rows: 1 });
        for (offset, rows) in [(3u64, 64u64), (4, 32)] {
            j.record(TraceEventKind::BatchAcked {
                offset,
                rows,
                latency_us: 900,
            });
        }
        j
    }

    #[test]
    fn stream_events_roll_up_and_render() {
        let s = journal_with_stream_events().snapshot().summarize();
        let c = &s.counters;
        let values: Vec<f64> = STREAM.iter().map(|n| c.get(n).unwrap().value).collect();
        assert_eq!(
            values,
            [2.0, 96.0, 1.0, 150.0, 2.0, 2.0, 2_500.0, 3.0, 2.0, 1.0, 1.0]
        );
        assert_eq!(
            c.get("streaming.max_in_flight").unwrap().kind,
            CounterKind::Max
        );
        assert_eq!(
            c.get("streaming.watermark_ms").unwrap().kind,
            CounterKind::Max
        );
        // Merging two runs sums the counts and keeps the peaks.
        let merged = StreamTotals::from(&c.clone().merge(c));
        assert_eq!((merged.batches_acked, merged.late_dropped), (4, 2));
        assert_eq!(
            (merged.max_in_flight, merged.final_watermark_ms),
            (2, Some(2_500))
        );
        let rendered = s.render();
        assert_eq!(rendered_counter(&rendered, "streaming.batches"), Some("2"));
        assert_eq!(
            rendered_counter(&rendered, "streaming.watermark_ms"),
            Some("2500")
        );
        // A batch run has no streaming counters.
        let batch = journal_with_two_stage_run().snapshot().summarize();
        for name in STREAM {
            assert_eq!(batch.counters.get(name), None, "{name}");
        }
    }

    #[test]
    fn totals_project_every_field_from_its_counter() {
        for trace in [
            journal_with_spill_events().snapshot(),
            journal_with_pipeline_events().snapshot(),
            journal_with_stream_events().snapshot(),
            journal_with_resilience_events().snapshot(),
        ] {
            let c = trace.counters();
            let count = |name: &str| c.count(name);
            let sp = trace.spill_totals();
            let spill = [
                sp.spills,
                sp.spilled_rows,
                sp.spilled_bytes,
                sp.merges,
                sp.merged_runs,
                sp.page_faults,
                sp.page_evictions,
                sp.peak_pool_bytes,
            ];
            assert_eq!(spill, SPILL.map(count));
            let p = trace.pipeline_totals();
            assert_eq!(
                [p.pipelines, p.morsels, p.stolen],
                [PIPELINE[0], PIPELINE[1], PIPELINE[2]].map(count)
            );
            let skew = c.get("dataflow.worker_skew").map_or(1.0, |s| s.value);
            assert_eq!(p.worker_skew, skew);
            let st = trace.stream_totals();
            let stream = [
                st.batches_acked,
                st.rows_acked,
                st.stalls,
                st.stall_us,
                st.max_in_flight,
                st.watermark_advances,
                st.late_absorbed,
                st.late_side_channelled,
                st.late_dropped,
                st.resumes,
            ];
            let names = STREAM.iter().filter(|n| **n != "streaming.watermark_ms");
            assert_eq!(stream.to_vec(), names.map(|n| count(n)).collect::<Vec<_>>());
            let watermark = c.get("streaming.watermark_ms").map(|w| w.value as i64);
            assert_eq!(st.final_watermark_ms, watermark);
        }
        // Each fixture exercises its own domain, so the checks above are
        // not all comparing zeros.
        assert_eq!(
            journal_with_spill_events().snapshot().spill_totals().spills,
            2
        );
        assert_eq!(
            journal_with_pipeline_events()
                .snapshot()
                .pipeline_totals()
                .morsels,
            3
        );
        assert_eq!(
            journal_with_stream_events()
                .snapshot()
                .stream_totals()
                .rows_acked,
            96
        );
    }

    #[test]
    fn journal_is_usable_from_many_threads() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let j = TraceJournal::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        j.record(TraceEventKind::TaskStarted {
                            stage: 0,
                            partition: t * PER_THREAD + i,
                            attempt: 0,
                        });
                    }
                });
            }
        });
        let trace = j.snapshot();
        // RunStarted, then every thread's records.
        assert_eq!(trace.events.len(), 1 + THREADS * PER_THREAD);
        // No lost or duplicated sequence numbers.
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Contended records still timestamp in sequence order.
        for w in trace.events.windows(2) {
            assert!(w[0].at_us <= w[1].at_us, "{:?} after {:?}", w[1], w[0]);
        }
    }
}
