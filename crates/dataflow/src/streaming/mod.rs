//! Continuous, crash-survivable streaming execution: the production
//! topology around a per-batch engine:
//!
//! * a [`Source`] produces offset-ordered micro-batches on its own thread,
//!   through a **bounded in-flight buffer** whose producer blocks when the
//!   engine falls behind (backpressure; the journalled depth never exceeds
//!   the cap);
//! * **event-time watermarks** advance per batch, with a configurable
//!   [`LatePolicy`] for rows that arrive behind the watermark — absorbed,
//!   side-channelled, or dropped, each counted and journalled;
//! * **end-to-end acknowledgement**: a batch's offset is acked only after
//!   its [`StateDelta`] and offset are WAL-committed (append + fsync via
//!   the store crate's [`toreador_store::log::DurableLog`]), so a killed
//!   process resumes from the last acked offset with byte-identical state
//!   and zero re-executed acked batches;
//! * [`crate::resilience::RunControl`] cancellation is checked before
//!   every batch. [`crate::fault::ChaosPlan`] faults strike inside the
//!   per-batch engines, which retry them through the one scheduler, so the
//!   loop keeps the identical-state-or-classified-failure invariant without
//!   a retry loop of its own;
//! * a panicking [`Source`] fails the run with a classified
//!   [`FlowError::Stream`], and a panicking per-batch processor propagates
//!   to the caller; neither leaves the other side blocked.
//!
//! The loop's own journal (ingestion depths, stalls, watermark motion,
//! late-data counts, acks) rolls up into [`crate::trace::StreamTotals`],
//! which `toreador trace` renders and `labs::compare` diffs.

pub mod durable;
pub mod source;
pub mod watermark;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use toreador_data::table::Table;

use crate::error::{FlowError, Result};
use crate::fault::KillMode;
use crate::logical::Dataflow;
use crate::metrics::RunMetrics;
use crate::scheduler::panic_message;
use crate::session::{Engine, EngineConfig};
use crate::trace::{RunTrace, StreamTotals, TraceEventKind, TraceJournal};

pub use durable::{
    AckLog, AckRecord, DurableSpec, RunningTotals, StateDelta, StreamRecovery, StreamState,
};
pub use source::{ArrivalSource, Source, SourceBatch};
pub use watermark::{count_late, event_bounds, split_on_time, LatePolicy, WatermarkClock};

use source::{AbortOnDrop, BoundedBuffer};

/// A deterministic kill point: die immediately after acking `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillAtAck {
    pub offset: u64,
    pub mode: KillMode,
}

/// Configuration of a continuous stream run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Per-batch engine configuration. Its resilience block (retry policy +
    /// chaos plan) governs each batch's engine, the stream's fault domain;
    /// its RunControl is also checked by the loop before every batch.
    /// Checkpointing and boundary kills are stripped from per-batch engines
    /// (the ack log is the stream's durability).
    pub engine: EngineConfig,
    /// Event-time column consulted for watermarks.
    pub ts_column: String,
    /// How far behind the max observed event time the watermark trails, ms.
    pub allowed_lateness_ms: i64,
    /// What happens to rows behind the watermark.
    pub late_policy: LatePolicy,
    /// Bounded in-flight buffer capacity (batches), >= 1.
    pub buffer: usize,
    /// Durable ack log (None = flow control + watermarks only, no resume).
    pub durable: Option<DurableSpec>,
    /// Deterministic kill point fired after an ack becomes durable.
    pub kill_at_ack: Option<KillAtAck>,
    /// Caller-supplied pipeline identity folded into the resume-guard
    /// fingerprint (e.g. the flow description).
    pub pipeline_id: String,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            engine: EngineConfig::default(),
            ts_column: "ts".to_owned(),
            allowed_lateness_ms: 0,
            late_policy: LatePolicy::Absorb,
            buffer: 8,
            durable: None,
            kill_at_ack: None,
            pipeline_id: String::new(),
        }
    }
}

impl StreamConfig {
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    pub fn with_ts_column(mut self, ts_column: impl Into<String>) -> Self {
        self.ts_column = ts_column.into();
        self
    }

    pub fn with_allowed_lateness(mut self, ms: i64) -> Self {
        self.allowed_lateness_ms = ms.max(0);
        self
    }

    pub fn with_late_policy(mut self, policy: LatePolicy) -> Self {
        self.late_policy = policy;
        self
    }

    pub fn with_buffer(mut self, cap: usize) -> Self {
        self.buffer = cap.max(1);
        self
    }

    pub fn with_durable(mut self, spec: DurableSpec) -> Self {
        self.durable = Some(spec);
        self
    }

    pub fn with_kill_at_ack(mut self, offset: u64, mode: KillMode) -> Self {
        self.kill_at_ack = Some(KillAtAck { offset, mode });
        self
    }

    pub fn with_pipeline_id(mut self, id: impl Into<String>) -> Self {
        self.pipeline_id = id.into();
        self
    }

    /// FNV-1a fingerprint of everything a resumed stream must agree on.
    /// Guards the ack log: a changed window policy or pipeline would merge
    /// incompatible state, so [`AckLog::open`] refuses it as stale.
    pub fn fingerprint(&self, state_cols: Option<&StateColumns>) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(self.ts_column.as_bytes());
        eat(&self.allowed_lateness_ms.to_le_bytes());
        eat(self.late_policy.to_string().as_bytes());
        eat(self.pipeline_id.as_bytes());
        if let Some(cols) = state_cols {
            eat(cols.key.as_bytes());
            eat(cols.count.as_deref().unwrap_or("-").as_bytes());
            eat(cols.sum.as_deref().unwrap_or("-").as_bytes());
        }
        format!("{h:016x}")
    }
}

/// Which result columns feed the carried [`StreamState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateColumns {
    pub key: String,
    pub count: Option<String>,
    pub sum: Option<String>,
}

/// What the per-batch processor hands back to the loop.
#[derive(Debug)]
pub struct BatchOutput {
    pub table: Table,
    pub metrics: Option<RunMetrics>,
    pub trace: Option<RunTrace>,
}

/// Wire-shaped record of one acknowledged batch (what `toreador stream
/// --json` emits per batch).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AckSummary {
    /// The acked (durable) offset.
    pub offset: u64,
    /// Input rows the batch carried.
    pub rows_in: u64,
    /// Result rows the processed batch emitted.
    pub rows_out: u64,
    /// Watermark after the batch, ms.
    pub watermark_ms: Option<i64>,
    /// Rows the late policy classified as late in this batch.
    pub late_rows: u64,
    /// Dequeue-to-durable-ack latency, µs.
    pub latency_us: u64,
}

/// Outcome of a continuous stream run.
#[derive(Debug)]
pub struct ContinuousRun {
    /// Final carried state (recovered prefix + this process's batches).
    pub state: StreamState,
    /// The stream loop's own journal: ingestion, stalls, watermarks, late
    /// data, acks. Per-batch engine journals are in `batch_traces`.
    pub stream_trace: RunTrace,
    /// Per-executed-batch engine metrics (empty batches run no engine).
    pub batch_metrics: Vec<RunMetrics>,
    /// Per-executed-batch engine journals, aligned with `batch_metrics`.
    pub batch_traces: Vec<RunTrace>,
    /// Per-executed-batch result tables, aligned with `batch_metrics`.
    pub batch_outputs: Vec<Table>,
    /// One entry per acked batch, in offset order (this process only).
    pub acked: Vec<AckSummary>,
    /// Late rows diverted under [`LatePolicy::SideChannel`].
    pub side_channel: Vec<Table>,
    /// Recovery the run started from, when it resumed.
    pub recovery: Option<StreamRecovery>,
}

impl ContinuousRun {
    /// This process's stream totals, counted from the journal.
    pub fn totals(&self) -> StreamTotals {
        self.stream_trace.stream_totals()
    }

    /// Totals across the whole stream lifetime: the recovered prefix's
    /// durable counters plus this process's journal. This is what the
    /// late-data accounting proof checks across kills.
    pub fn cumulative_totals(&self) -> StreamTotals {
        let mut t = self.totals();
        if let Some(r) = &self.recovery {
            t.batches_acked += r.totals.batches_acked;
            t.rows_acked += r.totals.rows_acked;
            t.late_absorbed += r.totals.late_absorbed;
            t.late_side_channelled += r.totals.late_side_channelled;
            t.late_dropped += r.totals.late_dropped;
        }
        t
    }

    /// Canonical (key-sorted) JSON of the final state — the byte-identity
    /// witness for the kill/resume proof.
    pub fn canonical_state(&self) -> String {
        canonical_state_json(&self.state)
    }

    /// Mean dequeue-to-ack latency over this process's acked batches, µs.
    pub fn mean_ack_latency_us(&self) -> f64 {
        if self.acked.is_empty() {
            return 0.0;
        }
        self.acked.iter().map(|a| a.latency_us as f64).sum::<f64>() / self.acked.len() as f64
    }
}

/// Canonical (key-sorted) JSON rendering of a [`StreamState`]. Two states
/// are byte-identical exactly when these strings are equal.
pub fn canonical_state_json(state: &StreamState) -> String {
    #[derive(Serialize)]
    struct Canonical {
        counts: std::collections::BTreeMap<String, i64>,
        sums: std::collections::BTreeMap<String, f64>,
    }
    serde_json::to_string(&Canonical {
        counts: state.counts_sorted(),
        sums: state.sums_sorted(),
    })
    .expect("state serialises")
}

/// Run a continuous stream where each batch executes `make_flow` on a fresh
/// engine and the keyed aggregate columns feed the carried state.
pub fn run_continuous(
    source: &mut dyn Source,
    config: &StreamConfig,
    make_flow: &dyn Fn(&Engine, &str) -> Result<Dataflow>,
    key_col: &str,
    count_col: Option<&str>,
    sum_col: Option<&str>,
) -> Result<ContinuousRun> {
    let cols = StateColumns {
        key: key_col.to_owned(),
        count: count_col.map(str::to_owned),
        sum: sum_col.map(str::to_owned),
    };
    let mut engine_cfg = config.engine.clone();
    // The ack log is the stream's durability; per-batch checkpoints would
    // collide on the same run id, and boundary kills belong to batch runs.
    engine_cfg.checkpoint = None;
    engine_cfg.resilience.chaos.boundary_kills.clear();
    run_continuous_with(source, config, Some(&cols), &mut |_, table| {
        let mut engine = Engine::new(engine_cfg.clone());
        engine.register("__batch", table)?;
        let flow = make_flow(&engine, "__batch")?;
        let result = engine.run(&flow)?;
        Ok(BatchOutput {
            table: result.table,
            metrics: Some(result.metrics),
            trace: Some(result.trace),
        })
    })
}

/// The generic continuous loop: backpressure, watermarks, late policy,
/// cancellation, and durable acks around an arbitrary per-batch
/// processor. `process` is invoked only for batches with on-time rows to
/// execute, and is handed those rows to keep (under [`LatePolicy::Absorb`]
/// they are the source's own batch, moved, never copied); every batch —
/// silent ones included — is still acked, so resume offsets stay dense.
pub fn run_continuous_with(
    source: &mut dyn Source,
    config: &StreamConfig,
    state_cols: Option<&StateColumns>,
    process: &mut dyn FnMut(u64, Table) -> Result<BatchOutput>,
) -> Result<ContinuousRun> {
    let journal = TraceJournal::new();
    let fingerprint = config.fingerprint(state_cols);

    // Open the ack log first: recovery decides where the source starts.
    let (mut ack_log, recovery) = match &config.durable {
        Some(spec) => {
            let (log, rec) = AckLog::open(spec, &fingerprint)?;
            (Some(log), Some(rec))
        }
        None => (None, None),
    };
    let resumed = recovery.as_ref().is_some_and(|r| r.resumed);
    let mut state = recovery
        .as_ref()
        .map(|r| r.state.clone())
        .unwrap_or_default();
    let mut clock = match &recovery {
        Some(r) => WatermarkClock::restore(config.allowed_lateness_ms, r.watermark_ms),
        None => WatermarkClock::new(config.allowed_lateness_ms),
    };
    let next_offset = recovery.as_ref().map_or(0, |r| r.next_offset);
    if resumed {
        journal.record(TraceEventKind::StreamResumed {
            next_offset,
            watermark_ms: clock.watermark(),
        });
    }
    source.seek(next_offset)?;

    let control = config.engine.control.clone();

    let mut batch_metrics = Vec::new();
    let mut batch_traces = Vec::new();
    let mut batch_outputs = Vec::new();
    let mut acked = Vec::new();
    let mut side_channel = Vec::new();

    let buffer = BoundedBuffer::new(config.buffer);
    let outcome: Result<()> = std::thread::scope(|s| {
        s.spawn(|| {
            let mut last_offset = None;
            loop {
                // A panicking source must still release the consumer, or it
                // would wait in `pop` forever.
                match catch_unwind(AssertUnwindSafe(|| source.next_batch())) {
                    Ok(Ok(Some(batch))) => {
                        let offset = batch.offset;
                        if !buffer.push(batch, &journal) {
                            break;
                        }
                        last_offset = Some(offset);
                    }
                    Ok(Ok(None)) => {
                        buffer.finish();
                        break;
                    }
                    Ok(Err(e)) => {
                        buffer.fail(e);
                        break;
                    }
                    Err(payload) => {
                        let after = last_offset.map_or_else(
                            || "before any batch".to_owned(),
                            |o| format!("after offset {o}"),
                        );
                        buffer.fail(FlowError::Stream(format!(
                            "source panicked {after}: {}",
                            panic_message(payload)
                        )));
                        break;
                    }
                }
            }
        });

        // Wake a producer blocked on a full buffer before leaving the scope,
        // on an error and on a processor panic alike, or the join would
        // deadlock.
        let _abort = AbortOnDrop(&buffer);
        (|| -> Result<()> {
            while let Some(batch) = buffer.pop()? {
                let t_start = Instant::now();
                let offset = batch.offset;

                if let Some(ctrl) = &control {
                    if ctrl.is_cancelled() {
                        let reason = ctrl
                            .reason()
                            .unwrap_or_else(|| "stream cancelled".to_owned());
                        journal.record(TraceEventKind::RunCancelled {
                            stage: offset as usize,
                            reason: reason.clone(),
                        });
                        return Err(FlowError::Cancelled(reason));
                    }
                }

                // Classify against the watermark as it stood before this
                // batch, then let the batch advance it.
                let watermark_before = clock.watermark();
                let rows_in = batch.rows.num_rows() as u64;
                let bounds = event_bounds(&batch.rows, &config.ts_column)?;
                let (to_process, late_counts) = match config.late_policy {
                    LatePolicy::Absorb => {
                        // Only the late count is used: build no halves and
                        // move the source's batch on as it is.
                        let late_rows =
                            count_late(&batch.rows, &config.ts_column, watermark_before)?;
                        if late_rows > 0 {
                            journal.record(TraceEventKind::LateDataAbsorbed {
                                offset,
                                rows: late_rows,
                            });
                        }
                        (batch.rows, (late_rows, 0, 0))
                    }
                    LatePolicy::SideChannel => {
                        let (on_time, late) =
                            split_on_time(&batch.rows, &config.ts_column, watermark_before)?;
                        let late_rows = late.num_rows() as u64;
                        if late_rows > 0 {
                            journal.record(TraceEventKind::LateDataSideChannelled {
                                offset,
                                rows: late_rows,
                            });
                            side_channel.push(late);
                        }
                        (on_time, (0, late_rows, 0))
                    }
                    LatePolicy::Drop => {
                        let (on_time, late) =
                            split_on_time(&batch.rows, &config.ts_column, watermark_before)?;
                        let late_rows = late.num_rows() as u64;
                        if late_rows > 0 {
                            journal.record(TraceEventKind::LateDataDropped {
                                offset,
                                rows: late_rows,
                            });
                        }
                        (on_time, (0, 0, late_rows))
                    }
                };
                let late_rows = late_counts.0 + late_counts.1 + late_counts.2;
                if let Some((_, max_ts)) = bounds {
                    if let Some(watermark_ms) = clock.observe(max_ts) {
                        journal.record(TraceEventKind::WatermarkAdvanced {
                            offset,
                            watermark_ms,
                        });
                    }
                }

                let output = if to_process.num_rows() > 0 {
                    Some(process(offset, to_process)?)
                } else {
                    None
                };
                let rows_out = output.as_ref().map_or(0, |o| o.table.num_rows() as u64);

                let delta = match (state_cols, &output) {
                    (Some(cols), Some(out)) => StateDelta::from_batch(
                        &out.table,
                        offset,
                        &cols.key,
                        cols.count.as_deref(),
                        cols.sum.as_deref(),
                    )?,
                    _ => StateDelta::default(),
                };
                // Live state goes through the same delta-apply path WAL
                // replay uses — that sameness is the byte-identity proof.
                delta.apply_to(&mut state);

                let rec = AckRecord {
                    offset,
                    rows: rows_in,
                    watermark_ms: clock.watermark(),
                    late_absorbed: late_counts.0,
                    late_side_channelled: late_counts.1,
                    late_dropped: late_counts.2,
                    delta,
                };
                if let Some(log) = ack_log.as_mut() {
                    log.ack(&rec, &state)?;
                }
                let latency_us = t_start.elapsed().as_micros() as u64;
                journal.record(TraceEventKind::BatchAcked {
                    offset,
                    rows: rec.rows,
                    latency_us,
                });
                acked.push(AckSummary {
                    offset,
                    rows_in: rec.rows,
                    rows_out,
                    watermark_ms: rec.watermark_ms,
                    late_rows,
                    latency_us,
                });
                if let Some(out) = output {
                    batch_outputs.push(out.table);
                    batch_metrics.push(out.metrics.unwrap_or_default());
                    batch_traces.push(out.trace.unwrap_or_default());
                }

                if let Some(kill) = &config.kill_at_ack {
                    if kill.offset == offset {
                        match kill.mode {
                            // The ack above is durable: a real death here is
                            // exactly the boundary the resume proof kills at.
                            KillMode::Exit { code } => std::process::exit(code),
                            KillMode::Halt => {
                                return Err(FlowError::KilledAtAck { offset });
                            }
                        }
                    }
                }
            }
            Ok(())
        })()
    });
    outcome?;

    Ok(ContinuousRun {
        state,
        stream_trace: journal.snapshot(),
        batch_metrics,
        batch_traces,
        batch_outputs,
        acked,
        side_channel,
        recovery,
    })
}
