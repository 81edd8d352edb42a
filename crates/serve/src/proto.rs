//! The wire protocol: JSON request/response bodies and error classes.
//!
//! Every endpoint speaks JSON over HTTP/1.1. Failures carry a machine
//! [`ErrorClass`] so a load driver (or a trainee's tooling) can tell a
//! quota rejection from a saturated service from a bug — the distinction
//! the paper's PaaS free tier needs to meter fairly.

use serde::{Deserialize, Serialize};

use toreador_core::declarative::Indicator;
use toreador_labs::prelude::{Quota, RunRecord, SessionMeta};
use toreador_store::TraineeState;

/// Machine-readable failure classes. The HTTP status follows the class
/// (see [`ErrorClass::http_status`]), but clients should switch on the
/// class, not the status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The tenant's metered quota (runs / cost) is exhausted. Permanent
    /// until the quota changes: retrying does not help.
    QuotaExceeded,
    /// The service-wide admission queue is full. Transient: back off and
    /// retry.
    Overloaded,
    /// This tenant already has its maximum attempts in flight. Transient:
    /// finish or cancel one, or back off.
    Busy,
    /// The request was malformed (bad JSON, missing field, bad choices).
    BadRequest,
    /// The named entity (trainee, run, challenge) does not exist.
    Unknown,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The campaign compiled or executed into an error, or the store
    /// failed — the service-side catch-all.
    Internal,
}

impl ErrorClass {
    /// The stable wire name (snake_case; the vendored serde derive has no
    /// `rename_all`, so the mapping is spelled out).
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorClass::QuotaExceeded => "quota_exceeded",
            ErrorClass::Overloaded => "overloaded",
            ErrorClass::Busy => "busy",
            ErrorClass::BadRequest => "bad_request",
            ErrorClass::Unknown => "unknown",
            ErrorClass::ShuttingDown => "shutting_down",
            ErrorClass::Internal => "internal",
        }
    }

    fn from_wire_name(name: &str) -> Option<ErrorClass> {
        Some(match name {
            "quota_exceeded" => ErrorClass::QuotaExceeded,
            "overloaded" => ErrorClass::Overloaded,
            "busy" => ErrorClass::Busy,
            "bad_request" => ErrorClass::BadRequest,
            "unknown" => ErrorClass::Unknown,
            "shutting_down" => ErrorClass::ShuttingDown,
            "internal" => ErrorClass::Internal,
            _ => return None,
        })
    }

    /// The HTTP status this class travels under.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorClass::QuotaExceeded | ErrorClass::Busy => 429,
            ErrorClass::Overloaded | ErrorClass::ShuttingDown => 503,
            ErrorClass::BadRequest => 400,
            ErrorClass::Unknown => 404,
            ErrorClass::Internal => 500,
        }
    }
}

impl Serialize for ErrorClass {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde_json::Value::String(self.wire_name().to_owned()))
    }
}

impl<'de> Deserialize<'de> for ErrorClass {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        let name = value
            .as_str()
            .ok_or_else(|| serde::de::Error::custom("error class must be a string"))?;
        ErrorClass::from_wire_name(name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown error class {name:?}")))
    }
}

/// The error body every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    pub class: ErrorClass,
    pub message: String,
}

/// `POST /v1/session/open`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenSessionRequest {
    pub trainee: String,
    /// Quota for a NEW trainee; an existing trainee resumes with the
    /// persisted quota (this field is then ignored, mirroring
    /// `LabSession::open`). `None` = the free tier.
    #[serde(default)]
    pub quota: Option<Quota>,
    /// Data seed for a new trainee (persisted seed wins on resume).
    #[serde(default)]
    pub seed: Option<u64>,
}

/// Response to `open`, and the per-tenant half of `status`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionInfo {
    pub trainee: String,
    pub quota: Quota,
    pub runs_used: u64,
    pub cost_used: f64,
    pub seed: u64,
    /// Whether the trainee already existed in the store.
    pub resumed: bool,
}

/// `POST /v1/attempt`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttemptRequest {
    pub trainee: String,
    pub challenge: String,
    pub choices: Vec<String>,
    /// Row count; the scenario default when absent. The tenant quota caps
    /// it either way.
    #[serde(default)]
    pub rows: Option<usize>,
}

/// The slice of a `RunRecord` an attempt response reports. The full
/// record (traces included) stays in the store; `GET /v1/run` serves it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttemptReply {
    pub trainee: String,
    pub run_id: u64,
    pub challenge: String,
    pub score: f64,
    pub rows_in: usize,
    pub rows_out: usize,
    pub cost: f64,
    pub runtime_ms: f64,
    /// Quota headroom after this attempt (runs remaining).
    pub runs_left: u64,
    /// Whether this attempt's compile was coalesced onto a cached plan.
    pub plan_cached: bool,
}

/// `GET /v1/history?trainee=<t>` — one row per persisted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryEntry {
    pub run_id: u64,
    pub challenge: String,
    pub choices: Vec<String>,
    pub score: Option<f64>,
    pub rows_in: usize,
    pub rows_out: usize,
    pub cost: Option<f64>,
}

/// Response to `GET /v1/history`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryReply {
    pub trainee: String,
    pub runs: Vec<HistoryEntry>,
}

impl HistoryReply {
    /// The history of `trainee` from its state in a session store, one
    /// entry per persisted run in run-id order: what the daemon answers
    /// and what `toreador history --json` prints.
    pub fn from_state(trainee: &str, state: &TraineeState<SessionMeta, RunRecord>) -> Self {
        let runs = state
            .runs
            .values()
            .map(|r| HistoryEntry {
                run_id: r.run_id,
                challenge: r.challenge_id.clone(),
                choices: r.choices.clone(),
                score: state.scores.get(&r.run_id).copied(),
                rows_in: r.rows_in,
                rows_out: r.rows_out,
                cost: r.indicator(Indicator::Cost),
            })
            .collect();
        HistoryReply {
            trainee: trainee.to_owned(),
            runs,
        }
    }
}

/// Response to `GET /v1/compare?trainee=<t>&a=<id>&b=<id>` — the choice
/// and indicator deltas between two runs, rendered service-side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareReply {
    pub trainee: String,
    pub run_a: u64,
    pub run_b: u64,
    /// `(choice point index, option in a, option in b)` for every
    /// diverging choice.
    pub choice_diffs: Vec<(usize, String, String)>,
    /// `(indicator, value in a, value in b)` for every shared indicator.
    pub indicator_deltas: Vec<(String, f64, f64)>,
}

/// `GET /v1/status` — service-wide counters for operators and the fleet
/// driver.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusReply {
    /// Attempts currently executing.
    pub inflight: usize,
    /// Attempts waiting in the admission queue.
    pub queued: usize,
    /// Attempts admitted since start.
    pub admitted: u64,
    /// Attempts committed (run + score + meta durable) since start.
    pub completed: u64,
    /// Rejections by class since start.
    pub rejected_quota: u64,
    pub rejected_overloaded: u64,
    pub rejected_busy: u64,
    /// Plan-cache accounting.
    pub plans_compiled: u64,
    pub plans_shared: u64,
    /// Known tenants.
    pub tenants: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
}

/// Everything 2xx the service can answer with. Keeping the envelope as a
/// plain enum-free union (one type per endpoint) keeps clients simple; this
/// alias just documents the JSON framing: bodies are the types above.
pub type JsonBody = serde_json::Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classes_map_to_stable_statuses_and_names() {
        assert_eq!(ErrorClass::QuotaExceeded.http_status(), 429);
        assert_eq!(ErrorClass::Busy.http_status(), 429);
        assert_eq!(ErrorClass::Overloaded.http_status(), 503);
        assert_eq!(ErrorClass::ShuttingDown.http_status(), 503);
        assert_eq!(ErrorClass::BadRequest.http_status(), 400);
        assert_eq!(ErrorClass::Unknown.http_status(), 404);
        assert_eq!(ErrorClass::Internal.http_status(), 500);
        let j = serde_json::to_string(&ErrorClass::QuotaExceeded).unwrap();
        assert_eq!(j, "\"quota_exceeded\"");
        let back: ErrorClass = serde_json::from_str("\"overloaded\"").unwrap();
        assert_eq!(back, ErrorClass::Overloaded);
    }

    #[test]
    fn requests_round_trip_with_defaults() {
        let r: AttemptRequest = serde_json::from_str(
            r#"{"trainee":"ada","challenge":"ecomm-revenue","choices":["full","batch"]}"#,
        )
        .unwrap();
        assert_eq!(r.rows, None);
        let o: OpenSessionRequest = serde_json::from_str(r#"{"trainee":"ada"}"#).unwrap();
        assert!(o.quota.is_none() && o.seed.is_none());
        let body = ErrorBody {
            class: ErrorClass::Busy,
            message: "2 attempts in flight".into(),
        };
        let back: ErrorBody = serde_json::from_str(&serde_json::to_string(&body).unwrap()).unwrap();
        assert_eq!(back, body);
    }
}
