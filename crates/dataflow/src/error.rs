//! Error type for the dataflow engine.

use std::fmt;

use toreador_data::error::DataError;

/// Errors raised while planning or executing a dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// An error bubbled up from the data layer.
    Data(DataError),
    /// The plan referenced a dataset that was never registered.
    UnknownDataset(String),
    /// An expression failed type checking against its input schema.
    TypeCheck(String),
    /// The plan is structurally invalid (e.g. join keys missing).
    Plan(String),
    /// A task failed after exhausting its retry budget.
    TaskFailed {
        stage: usize,
        partition: usize,
        attempts: u32,
        message: String,
    },
    /// A task attempt exceeded its deadline too many times. Transient: the
    /// watchdog cancels the attempt and retries under the policy; this
    /// surfaces only once the retry budget is spent.
    TaskTimedOut {
        stage: usize,
        partition: usize,
        attempts: u32,
        deadline_us: u64,
    },
    /// A task body panicked and the panic was isolated into an error
    /// instead of collapsing the worker pool.
    TaskPanicked {
        stage: usize,
        partition: usize,
        attempts: u32,
        message: String,
    },
    /// Execution was cancelled (quota exhausted, user abort, or a
    /// permanent failure dooming the stage).
    Cancelled(String),
    /// A row or lane payload could not be decoded.
    Codec(String),
    /// A checkpoint could not be written or read back (I/O failure,
    /// truncation, CRC mismatch, malformed manifest).
    Checkpoint(String),
    /// A resume was refused because the checkpointed run no longer matches
    /// the recompiled campaign. `mismatch` names what changed ("plan",
    /// "inputs" or "engine config") — serving stale partitions would be
    /// silently wrong, so this is a hard, permanent error.
    StaleCheckpoint { run_id: String, mismatch: String },
    /// A deterministic chaos kill point fired at a stage boundary. The wave
    /// that just completed was durably checkpointed first, so a resume
    /// re-enters after it.
    KilledAtBoundary { stage: usize, wave: usize },
    /// The continuous streaming loop failed outside any single task: the
    /// ack log could not be written or recovered, the source errored, or
    /// the stream configuration is invalid.
    Stream(String),
    /// A deterministic kill point fired immediately after a batch was
    /// acknowledged. The batch's state delta and offset are already
    /// durable, so a resume re-enters at `offset + 1`.
    KilledAtAck { offset: u64 },
    /// An out-of-core page file or spill run could not be written or read
    /// back (I/O failure, truncation, CRC mismatch, malformed directory).
    Spill(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Data(e) => write!(f, "data error: {e}"),
            FlowError::UnknownDataset(name) => write!(f, "unknown dataset: {name:?}"),
            FlowError::TypeCheck(msg) => write!(f, "type check failed: {msg}"),
            FlowError::Plan(msg) => write!(f, "invalid plan: {msg}"),
            FlowError::TaskFailed { stage, partition, attempts, message } => write!(
                f,
                "task failed (stage {stage}, partition {partition}) after {attempts} attempts: {message}"
            ),
            FlowError::TaskTimedOut { stage, partition, attempts, deadline_us } => write!(
                f,
                "task timed out (stage {stage}, partition {partition}) after {attempts} attempts: deadline {deadline_us} us exceeded"
            ),
            FlowError::TaskPanicked { stage, partition, attempts, message } => write!(
                f,
                "task panicked (stage {stage}, partition {partition}) after {attempts} attempts: {message}"
            ),
            FlowError::Cancelled(msg) => write!(f, "execution cancelled: {msg}"),
            FlowError::Codec(msg) => write!(f, "codec error: {msg}"),
            FlowError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            FlowError::StaleCheckpoint { run_id, mismatch } => write!(
                f,
                "stale checkpoint for run {run_id:?}: {mismatch} changed since the checkpoint was written"
            ),
            FlowError::KilledAtBoundary { stage, wave } => write!(
                f,
                "killed at stage boundary (stage {stage}, wave {wave})"
            ),
            FlowError::Stream(msg) => write!(f, "stream error: {msg}"),
            FlowError::KilledAtAck { offset } => {
                write!(f, "killed at ack boundary (offset {offset})")
            }
            FlowError::Spill(msg) => write!(f, "spill error: {msg}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for FlowError {
    fn from(e: DataError) -> Self {
        FlowError::Data(e)
    }
}

/// Convenience result alias for the dataflow layer.
pub type Result<T> = std::result::Result<T, FlowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_data_errors_with_source() {
        let e: FlowError = DataError::ColumnNotFound("x".into()).into();
        assert!(e.to_string().contains("column not found"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn timeout_and_panic_errors_report_location() {
        let t = FlowError::TaskTimedOut {
            stage: 1,
            partition: 4,
            attempts: 2,
            deadline_us: 5_000,
        };
        let s = t.to_string();
        assert!(s.contains("stage 1") && s.contains("partition 4") && s.contains("5000 us"));
        let p = FlowError::TaskPanicked {
            stage: 0,
            partition: 2,
            attempts: 1,
            message: "boom".into(),
        };
        let s = p.to_string();
        assert!(s.contains("panicked") && s.contains("partition 2") && s.contains("boom"));
    }

    #[test]
    fn checkpoint_errors_name_the_cause() {
        let s = FlowError::Checkpoint("bad crc in wave-0003".into()).to_string();
        assert!(s.contains("checkpoint error") && s.contains("wave-0003"));
        let s = FlowError::StaleCheckpoint {
            run_id: "run-7".into(),
            mismatch: "plan".into(),
        }
        .to_string();
        assert!(s.contains("run-7") && s.contains("plan changed"));
        let s = FlowError::KilledAtBoundary { stage: 2, wave: 3 }.to_string();
        assert!(s.contains("stage 2") && s.contains("wave 3"));
    }

    #[test]
    fn task_failure_reports_location() {
        let e = FlowError::TaskFailed {
            stage: 2,
            partition: 5,
            attempts: 3,
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("stage 2") && s.contains("partition 5") && s.contains("3 attempts"));
    }
}
