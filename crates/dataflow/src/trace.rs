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

use std::collections::BTreeMap;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

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
    /// backing file. `pool_bytes` is the resident pool size *after* the
    /// fault — the bounded-memory proof reads these and asserts
    /// `pool_bytes <= budget` at every event. Journal-only — derived
    /// [`RunMetrics`] ignore it, so budgeted and unbudgeted runs stay
    /// metrics-compatible.
    PageFaulted {
        file: u64,
        page: u32,
        bytes: u64,
        pool_bytes: u64,
    },
    /// The clock hand reclaimed a page frame to make room; `dirty` pages
    /// were written back to their backing file first. Journal-only.
    PageEvicted {
        file: u64,
        page: u32,
        bytes: u64,
        dirty: bool,
        pool_bytes: u64,
    },
    /// An operator exceeded its memory budget and spilled a run of rows to
    /// a paged file. `op` names the spilling operator family (`shuffle`,
    /// `aggregate`); `target` is the partition the run belongs to.
    /// Journal-only.
    SpillStarted {
        op: String,
        target: usize,
        rows: u64,
        bytes: u64,
    },
    /// Spilled runs were read back and merged with the in-memory tail to
    /// produce the partition's final output. Journal-only.
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
    pub fn record(&self, kind: TraceEventKind) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut events = self.events.lock();
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub total_retries: u64,
    pub total_faults: u64,
    pub shuffle_waves: u64,
    /// Whole-run resilience cost (backoff, timeouts, panics, speculation).
    #[serde(default)]
    pub resilience: ResilienceTotals,
    /// Whole-run morsel-pipeline activity (zero when every wave ran
    /// whole-partition tasks).
    #[serde(default)]
    pub pipelines: PipelineTotals,
    /// Whole-run continuous-streaming activity (zero for batch runs and
    /// the pre-materialised oracle path).
    #[serde(default)]
    pub stream: StreamTotals,
    /// Whole-run out-of-core activity (zero when everything fit in the
    /// memory budget, or no budget was set).
    #[serde(default)]
    pub spill: SpillTotals,
}

/// Aggregate resilience cost of a run, counted from the journal. What
/// `labs::compare` diffs between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResilienceTotals {
    pub retries: u64,
    pub faults: u64,
    /// Total scheduled backoff delay, µs.
    pub backoff_us: u64,
    pub timeouts: u64,
    pub panics: u64,
    pub speculative_launched: u64,
    pub speculative_won: u64,
    pub cancellations: u64,
}

impl ResilienceTotals {
    /// True when the run paid no resilience cost at all.
    pub fn is_zero(&self) -> bool {
        *self == ResilienceTotals::default()
    }

    /// Field-wise sum (for aggregating across a campaign's engine runs).
    pub fn merge(&self, other: &ResilienceTotals) -> ResilienceTotals {
        ResilienceTotals {
            retries: self.retries + other.retries,
            faults: self.faults + other.faults,
            backoff_us: self.backoff_us + other.backoff_us,
            timeouts: self.timeouts + other.timeouts,
            panics: self.panics + other.panics,
            speculative_launched: self.speculative_launched + other.speculative_launched,
            speculative_won: self.speculative_won + other.speculative_won,
            cancellations: self.cancellations + other.cancellations,
        }
    }
}

/// Aggregate morsel-pipeline activity of a run, counted from the journal.
/// What `labs::compare` diffs between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineTotals {
    /// Pipeline waves completed.
    pub pipelines: u64,
    /// Morsels dispatched across all pipeline waves.
    pub morsels: u64,
    /// Morsel-unit attempts run on a worker other than their home worker.
    pub stolen: u64,
    /// Worst per-wave worker-balance skew (slowest worker busy time over
    /// mean worker busy time); 1.0 when no pipeline ran or load was even.
    pub worker_skew: f64,
}

impl Default for PipelineTotals {
    fn default() -> Self {
        PipelineTotals {
            pipelines: 0,
            morsels: 0,
            stolen: 0,
            worker_skew: 1.0,
        }
    }
}

impl PipelineTotals {
    /// True when the run never entered the morsel path.
    pub fn is_zero(&self) -> bool {
        self.pipelines == 0 && self.morsels == 0 && self.stolen == 0
    }

    /// Count-wise sum, keeping the worst worker skew (for aggregating
    /// across a campaign's engine runs).
    pub fn merge(&self, other: &PipelineTotals) -> PipelineTotals {
        PipelineTotals {
            pipelines: self.pipelines + other.pipelines,
            morsels: self.morsels + other.morsels,
            stolen: self.stolen + other.stolen,
            worker_skew: self.worker_skew.max(other.worker_skew),
        }
    }
}

/// Aggregate continuous-streaming activity of a run, counted from the
/// journal. What `labs::compare` diffs between streaming runs and what the
/// backpressure / late-data acceptance proofs read.
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

impl StreamTotals {
    /// True when the run never entered the continuous streaming loop.
    pub fn is_zero(&self) -> bool {
        *self == StreamTotals::default()
    }

    /// Count-wise sum, keeping the deepest buffer and latest watermark
    /// (for aggregating across a campaign's engine runs).
    pub fn merge(&self, other: &StreamTotals) -> StreamTotals {
        StreamTotals {
            batches_acked: self.batches_acked + other.batches_acked,
            rows_acked: self.rows_acked + other.rows_acked,
            stalls: self.stalls + other.stalls,
            stall_us: self.stall_us + other.stall_us,
            max_in_flight: self.max_in_flight.max(other.max_in_flight),
            watermark_advances: self.watermark_advances + other.watermark_advances,
            final_watermark_ms: match (self.final_watermark_ms, other.final_watermark_ms) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            late_absorbed: self.late_absorbed + other.late_absorbed,
            late_side_channelled: self.late_side_channelled + other.late_side_channelled,
            late_dropped: self.late_dropped + other.late_dropped,
            resumes: self.resumes + other.resumes,
        }
    }
}

/// Aggregate out-of-core activity of a run, counted from the journal. What
/// `labs::compare` diffs between a budgeted run and an in-memory run, and
/// what the bounded-memory acceptance proof reads.
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
    /// Buffer-pool misses that loaded a page from disk.
    pub page_faults: u64,
    /// Page frames reclaimed by the clock hand.
    pub page_evictions: u64,
    /// Deepest journalled resident pool size, bytes. The bounded-memory
    /// invariant: never exceeds the configured budget (rounded up to one
    /// page).
    pub peak_pool_bytes: u64,
}

impl SpillTotals {
    /// True when the run never left memory.
    pub fn is_zero(&self) -> bool {
        *self == SpillTotals::default()
    }

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

    /// The worst per-stage straggler factor, if any stage ran tasks.
    pub fn max_skew_ratio(&self) -> Option<f64> {
        self.summarize()
            .stages
            .iter()
            .filter(|s| s.tasks > 0)
            .map(|s| s.skew_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Roll the journal up per stage.
    pub fn summarize(&self) -> TraceSummary {
        let mut stages: BTreeMap<usize, StageSummary> = BTreeMap::new();
        let blank = |stage| StageSummary {
            stage,
            tasks: 0,
            retries: 0,
            faults: 0,
            slowest_task_us: 0,
            mean_task_us: 0.0,
            skew_ratio: 1.0,
            operators: Vec::new(),
            rows_out: 0,
            shuffle_bytes: 0,
            backoff_us: 0,
            timeouts: 0,
            panics: 0,
            speculative_launched: 0,
            speculative_won: 0,
            morsels: 0,
            stolen: 0,
        };
        let mut shuffle_waves = 0u64;
        let mut cancellations = 0u64;
        let mut pipelines = PipelineTotals::default();
        let mut stream = StreamTotals::default();
        let mut spill = SpillTotals::default();
        for e in &self.events {
            match &e.kind {
                TraceEventKind::TaskStarted { stage, .. } => {
                    stages.entry(*stage).or_insert_with(|| blank(*stage)).tasks += 1;
                }
                TraceEventKind::TaskRetried { stage, .. } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .retries += 1;
                }
                TraceEventKind::FaultInjected { stage, .. } => {
                    stages.entry(*stage).or_insert_with(|| blank(*stage)).faults += 1;
                }
                TraceEventKind::OperatorFinished {
                    operator,
                    stage,
                    rows_out,
                    shuffle_bytes,
                    ..
                } => {
                    let s = stages.entry(*stage).or_insert_with(|| blank(*stage));
                    s.operators.push(operator.clone());
                    s.rows_out += rows_out;
                    s.shuffle_bytes += shuffle_bytes;
                }
                TraceEventKind::ShuffleWave { .. } => shuffle_waves += 1,
                TraceEventKind::BackoffScheduled {
                    stage, delay_us, ..
                } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .backoff_us += delay_us;
                }
                TraceEventKind::TaskTimedOut { stage, .. } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .timeouts += 1;
                }
                TraceEventKind::TaskPanicked { stage, .. } => {
                    stages.entry(*stage).or_insert_with(|| blank(*stage)).panics += 1;
                }
                TraceEventKind::SpeculativeLaunched { stage, .. } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .speculative_launched += 1;
                }
                TraceEventKind::SpeculativeWon { stage, .. } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .speculative_won += 1;
                }
                TraceEventKind::RunCancelled { .. } => cancellations += 1,
                TraceEventKind::MorselDispatched { stage, .. } => {
                    stages
                        .entry(*stage)
                        .or_insert_with(|| blank(*stage))
                        .morsels += 1;
                }
                TraceEventKind::MorselStolen { stage, .. } => {
                    stages.entry(*stage).or_insert_with(|| blank(*stage)).stolen += 1;
                }
                TraceEventKind::PipelineCompleted {
                    morsels,
                    stolen,
                    slowest_worker_us,
                    mean_worker_us,
                    ..
                } => {
                    pipelines.pipelines += 1;
                    pipelines.morsels += morsels;
                    pipelines.stolen += stolen;
                    let skew = if *mean_worker_us > 0.0 {
                        *slowest_worker_us as f64 / mean_worker_us
                    } else {
                        1.0
                    };
                    pipelines.worker_skew = pipelines.worker_skew.max(skew);
                }
                TraceEventKind::BatchIngested { depth, .. } => {
                    stream.max_in_flight = stream.max_in_flight.max(*depth);
                }
                TraceEventKind::BackpressureStall { waited_us, .. } => {
                    stream.stalls += 1;
                    stream.stall_us += waited_us;
                }
                TraceEventKind::WatermarkAdvanced { watermark_ms, .. } => {
                    stream.watermark_advances += 1;
                    stream.final_watermark_ms = Some(
                        stream
                            .final_watermark_ms
                            .map_or(*watermark_ms, |w| w.max(*watermark_ms)),
                    );
                }
                TraceEventKind::LateDataAbsorbed { rows, .. } => stream.late_absorbed += rows,
                TraceEventKind::LateDataSideChannelled { rows, .. } => {
                    stream.late_side_channelled += rows;
                }
                TraceEventKind::LateDataDropped { rows, .. } => stream.late_dropped += rows,
                TraceEventKind::BatchAcked { rows, .. } => {
                    stream.batches_acked += 1;
                    stream.rows_acked += rows;
                }
                TraceEventKind::StreamResumed { .. } => stream.resumes += 1,
                TraceEventKind::PageFaulted {
                    pool_bytes: pool, ..
                } => {
                    spill.page_faults += 1;
                    spill.peak_pool_bytes = spill.peak_pool_bytes.max(*pool);
                }
                TraceEventKind::PageEvicted {
                    pool_bytes: pool, ..
                } => {
                    spill.page_evictions += 1;
                    spill.peak_pool_bytes = spill.peak_pool_bytes.max(*pool);
                }
                TraceEventKind::SpillStarted { rows, bytes, .. } => {
                    spill.spills += 1;
                    spill.spilled_rows += rows;
                    spill.spilled_bytes += bytes;
                }
                TraceEventKind::SpillMerged { runs, .. } => {
                    spill.merges += 1;
                    spill.merged_runs += *runs as u64;
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
            let s = stages.entry(stage).or_insert_with(|| blank(stage));
            s.slowest_task_us = ds.iter().copied().max().unwrap_or(0);
            s.mean_task_us = ds.iter().sum::<u64>() as f64 / ds.len() as f64;
            s.skew_ratio = if s.mean_task_us > 0.0 {
                s.slowest_task_us as f64 / s.mean_task_us
            } else {
                1.0
            };
        }
        let stages: Vec<StageSummary> = stages.into_values().collect();
        TraceSummary {
            critical_path_us: stages.iter().map(|s| s.slowest_task_us).sum(),
            total_tasks: stages.iter().map(|s| s.tasks).sum(),
            total_retries: stages.iter().map(|s| s.retries).sum(),
            total_faults: stages.iter().map(|s| s.faults).sum(),
            shuffle_waves,
            resilience: ResilienceTotals {
                retries: stages.iter().map(|s| s.retries).sum(),
                faults: stages.iter().map(|s| s.faults).sum(),
                backoff_us: stages.iter().map(|s| s.backoff_us).sum(),
                timeouts: stages.iter().map(|s| s.timeouts).sum(),
                panics: stages.iter().map(|s| s.panics).sum(),
                speculative_launched: stages.iter().map(|s| s.speculative_launched).sum(),
                speculative_won: stages.iter().map(|s| s.speculative_won).sum(),
                cancellations,
            },
            pipelines,
            stream,
            spill,
            stages,
        }
    }

    /// The run's aggregate morsel-pipeline activity (waves, morsels, steals,
    /// worst worker-balance skew), counted from the journal.
    pub fn pipeline_totals(&self) -> PipelineTotals {
        self.summarize().pipelines
    }

    /// The run's aggregate resilience cost (retries, backoff, timeouts,
    /// panics, speculation, cancellations), counted from the journal.
    pub fn resilience_totals(&self) -> ResilienceTotals {
        self.summarize().resilience
    }

    /// The run's aggregate continuous-streaming activity (acked batches,
    /// backpressure stalls, watermark motion, late-data accounting),
    /// counted from the journal.
    pub fn stream_totals(&self) -> StreamTotals {
        self.summarize().stream
    }

    /// The run's aggregate out-of-core activity (spilled runs, merges,
    /// page faults/evictions, peak pool residency), counted from the
    /// journal.
    pub fn spill_totals(&self) -> SpillTotals {
        self.summarize().spill
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
    /// Render as an aligned text table with a critical-path footer.
    pub fn render(&self) -> String {
        let header = vec![
            "stage".to_owned(),
            "tasks".to_owned(),
            "retries".to_owned(),
            "faults".to_owned(),
            "slowest(us)".to_owned(),
            "skew".to_owned(),
            "rows_out".to_owned(),
            "shuffle(B)".to_owned(),
            "operators".to_owned(),
        ];
        let mut grid: Vec<Vec<String>> = vec![header];
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
        out.push_str(&format!(
            "critical path: {} us over {} stage(s); {} task(s), {} retried, {} fault(s), {} shuffle wave(s)\n",
            self.critical_path_us,
            self.stages.len(),
            self.total_tasks,
            self.total_retries,
            self.total_faults,
            self.shuffle_waves,
        ));
        let r = &self.resilience;
        if !r.is_zero() {
            out.push_str(&format!(
                "resilience: {} retried, {} us backoff, {} timeout(s), {} panic(s), {} speculative ({} won), {} cancellation(s)\n",
                r.retries,
                r.backoff_us,
                r.timeouts,
                r.panics,
                r.speculative_launched,
                r.speculative_won,
                r.cancellations,
            ));
        }
        let p = &self.pipelines;
        if !p.is_zero() {
            out.push_str(&format!(
                "pipelines: {} pipeline wave(s), {} morsel(s), {} stolen, worker skew {:.2}\n",
                p.pipelines, p.morsels, p.stolen, p.worker_skew,
            ));
        }
        let st = &self.stream;
        if !st.is_zero() {
            out.push_str(&format!(
                "stream: {} batch(es) acked ({} rows), {} stall(s) ({} us), max in-flight {}, \
                 watermark {} (advanced {}x), late {} absorbed / {} side-channelled / {} dropped\n",
                st.batches_acked,
                st.rows_acked,
                st.stalls,
                st.stall_us,
                st.max_in_flight,
                st.final_watermark_ms
                    .map_or_else(|| "-".to_owned(), |w| format!("{w} ms")),
                st.watermark_advances,
                st.late_absorbed,
                st.late_side_channelled,
                st.late_dropped,
            ));
        }
        let sp = &self.spill;
        if !sp.is_zero() {
            out.push_str(&format!(
                "spill: {} run(s) spilled ({} rows, {} B), {} merge(s) over {} run(s), \
                 {} page fault(s), {} eviction(s), peak pool {} B\n",
                sp.spills,
                sp.spilled_rows,
                sp.spilled_bytes,
                sp.merges,
                sp.merged_runs,
                sp.page_faults,
                sp.page_evictions,
                sp.peak_pool_bytes,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(trace.max_skew_ratio().unwrap() >= 1.0);
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
        let totals = trace.resilience_totals();
        assert_eq!(totals.timeouts, 1);
        assert_eq!(totals.panics, 1);
        assert_eq!(totals.backoff_us, 400);
        assert_eq!(totals.speculative_launched, 1);
        assert_eq!(totals.speculative_won, 1);
        assert_eq!(totals.cancellations, 1);
        assert_eq!(totals.retries, s.total_retries);
        assert!(!totals.is_zero());
        let merged = totals.merge(&totals);
        assert_eq!(merged.timeouts, 2);
        assert_eq!(merged.backoff_us, 800);
        let rendered = s.render();
        assert!(rendered.contains("resilience:"), "{rendered}");
        assert!(rendered.contains("1 timeout(s)"));
        assert!(rendered.contains("1 panic(s)"));
    }

    #[test]
    fn resilience_footer_absent_for_calm_runs() {
        let trace = journal_with_two_stage_run().snapshot();
        let s = trace.summarize();
        // This journal has a retry + fault, so the footer appears …
        assert!(s.render().contains("resilience:"));
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
        assert!(summary.resilience.is_zero());
        assert!(!summary.render().contains("resilience:"));
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
        assert!(!p.is_zero());
        let merged = p.merge(&PipelineTotals {
            pipelines: 1,
            morsels: 5,
            stolen: 0,
            worker_skew: 1.7,
        });
        assert_eq!(merged.pipelines, 2);
        assert_eq!(merged.morsels, 8);
        assert_eq!(merged.worker_skew, 1.7, "merge keeps the worst skew");
        let rendered = s.render();
        assert!(rendered.contains("pipelines:"), "{rendered}");
        assert!(rendered.contains("1 stolen"));
        // A run that never pipelined omits the footer.
        let barrier = journal_with_two_stage_run().snapshot().summarize();
        assert!(barrier.pipelines.is_zero());
        assert!(!barrier.render().contains("pipelines:"));
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
        assert!(!totals.is_zero());
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
        assert!(rendered.contains("spill:"), "{rendered}");
        assert!(rendered.contains("2 run(s) spilled"));
        assert!(rendered.contains("peak pool 65536 B"));
        // An in-memory run omits the footer.
        let calm = journal_with_two_stage_run().snapshot().summarize();
        assert!(calm.spill.is_zero());
        assert!(!calm.render().contains("spill:"));
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

    #[test]
    fn journal_is_usable_from_many_threads() {
        let j = TraceJournal::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..100 {
                        j.record(TraceEventKind::TaskStarted {
                            stage: 0,
                            partition: t * 100 + i,
                            attempt: 0,
                        });
                    }
                });
            }
        });
        let trace = j.snapshot();
        assert_eq!(trace.events.len(), 801); // RunStarted + 800
                                             // No lost or duplicated sequence numbers.
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }
}
