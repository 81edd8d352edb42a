//! The carried stream state and the durable ack log that makes it survive
//! a kill: end-to-end acknowledgement over the store's WAL.
//!
//! A batch is *acked* only once its [`StateDelta`] and offset are appended
//! to a [`DurableLog`] and fsynced. Recovery replays snapshot-then-records
//! through the **same** `StateDelta::apply_to` path live execution uses, so
//! a killed process resumes with byte-identical state: identical per-key
//! totals applied in identical order, with floats surviving the JSON round
//! trip exactly (the vendored serde_json round-trips f64).
//!
//! The log is guarded by a manifest fingerprint (stream config + pipeline
//! identity): resuming under a changed configuration would silently merge
//! incompatible state, so it is refused as a stale checkpoint instead.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use toreador_data::column::Column;
use toreador_data::table::Table;
use toreador_data::value::Value;
use toreador_store::log::{DurableLog, LogConfig};

use crate::error::{FlowError, Result};

/// Where and how the ack log persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableSpec {
    /// Directory holding the WAL segments and snapshots (one stream per
    /// directory; the store's DirLock enforces single ownership).
    pub dir: PathBuf,
    /// Resume from existing state instead of requiring a fresh directory.
    pub resume: bool,
    /// Cut a state snapshot every this many acks (compacts the WAL).
    pub snapshot_every: u64,
}

impl DurableSpec {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableSpec {
            dir: dir.into(),
            resume: false,
            snapshot_every: 64,
        }
    }

    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every.max(1);
        self
    }
}

/// Carry-over state for streaming aggregation: keyed running counts/sums.
///
/// Keys and fields are strings so state survives across batches regardless
/// of the pipeline's schema details.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StreamState {
    counts: HashMap<String, i64>,
    sums: HashMap<String, f64>,
}

impl StreamState {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn count(&self, key: &str) -> i64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn keys(&self) -> Vec<&str> {
        let mut ks: Vec<&str> = self
            .counts
            .keys()
            .chain(self.sums.keys())
            .map(String::as_str)
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// Add `delta` to the running count for `key`. The continuous streaming
    /// loop applies batch deltas through this (live and WAL-replay paths
    /// share it, which is what makes resume byte-identical).
    pub fn add_count(&mut self, key: &str, delta: i64) {
        *self.counts.entry(key.to_owned()).or_insert(0) += delta;
    }

    /// Add `delta` to the running sum for `key`.
    pub fn add_sum(&mut self, key: &str, delta: f64) {
        *self.sums.entry(key.to_owned()).or_insert(0.0) += delta;
    }

    /// The counts, key-sorted — the canonical (deterministic) view used for
    /// snapshots and byte-identity comparison.
    pub fn counts_sorted(&self) -> BTreeMap<String, i64> {
        self.counts.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// The sums, key-sorted — canonical view, see [`StreamState::counts_sorted`].
    pub fn sums_sorted(&self) -> BTreeMap<String, f64> {
        self.sums.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// One batch's additive contribution to the carried [`StreamState`],
/// key-sorted so serialisation (and therefore replay) is deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateDelta {
    pub counts: BTreeMap<String, i64>,
    pub sums: BTreeMap<String, f64>,
}

impl StateDelta {
    /// Aggregate the result of the batch at stream `offset` into a delta:
    /// `key_col` identifies the group, and the present, non-null cells of
    /// `count_col`/`sum_col` accumulate additively, in row order. Each
    /// column is looked up once per batch.
    ///
    /// State is keyed by text, and a NULL renders as `""`, so a NULL key
    /// would silently merge with an empty-string key: it is refused as a
    /// [`FlowError::Stream`] naming the column and the batch's offset.
    pub fn from_batch(
        batch_result: &Table,
        offset: u64,
        key_col: &str,
        count_col: Option<&str>,
        sum_col: Option<&str>,
    ) -> Result<Self> {
        let mut delta = StateDelta::default();
        if batch_result.num_rows() == 0 {
            return Ok(delta);
        }
        let keys = batch_result.column(key_col)?;
        let counts = count_col.map(|c| batch_result.column(c)).transpose()?;
        let sums = sum_col.map(|c| batch_result.column(c)).transpose()?;
        for row in 0..batch_result.num_rows() {
            let key = match keys {
                Column::Str { data, validity } if validity.get(row) => data[row].to_owned(),
                _ => match keys.value(row)? {
                    Value::Null => {
                        return Err(FlowError::Stream(format!(
                            "batch at offset {offset}: state key column {key_col:?} is NULL in \
                             row {row}; a NULL key would merge with the empty-string key"
                        )))
                    }
                    v => v.to_string(),
                },
            };
            let count = match counts {
                Some(Column::Int { data, validity }) => validity.get(row).then(|| data[row]),
                Some(col) => match col.value(row)? {
                    Value::Null => None,
                    v => Some(v.as_int()?),
                },
                None => None,
            };
            let sum = match sums {
                Some(Column::Float { data, validity }) => validity.get(row).then(|| data[row]),
                Some(col) => match col.value(row)? {
                    Value::Null => None,
                    v => Some(v.as_float()?),
                },
                None => None,
            };
            if let Some(n) = count {
                *delta.counts.entry(key.clone()).or_insert(0) += n;
            }
            if let Some(s) = sum {
                *delta.sums.entry(key).or_insert(0.0) += s;
            }
        }
        Ok(delta)
    }

    /// Fold this delta into `state` in key order. Live execution and WAL
    /// replay both come through here — the shared path is the byte-identity
    /// argument, not a convenience.
    pub fn apply_to(&self, state: &mut StreamState) {
        for (k, v) in &self.counts {
            state.add_count(k, *v);
        }
        for (k, v) in &self.sums {
            state.add_sum(k, *v);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.sums.is_empty()
    }
}

/// One WAL entry: the acknowledgement of a single batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AckRecord {
    /// The batch's stream offset (dense; recovery verifies contiguity).
    pub offset: u64,
    /// Input rows the batch carried.
    pub rows: u64,
    /// Watermark after the batch was observed.
    pub watermark_ms: Option<i64>,
    pub late_absorbed: u64,
    pub late_side_channelled: u64,
    pub late_dropped: u64,
    pub delta: StateDelta,
}

/// On-disk record envelope. The manifest is always the log's first entry;
/// a fingerprint mismatch on resume is refused as stale.
#[derive(Debug, Serialize, Deserialize)]
enum LogRecord {
    Manifest { fingerprint: String },
    Ack(AckRecord),
}

/// Snapshot payload: the full canonical state plus resume coordinates.
#[derive(Debug, Serialize, Deserialize)]
struct StreamSnapshot {
    fingerprint: String,
    next_offset: u64,
    watermark_ms: Option<i64>,
    counts: BTreeMap<String, i64>,
    sums: BTreeMap<String, f64>,
    totals: RunningTotals,
}

/// Counters that must survive a kill so accounting stays exact across
/// resumes (the late-data acceptance proof reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningTotals {
    pub batches_acked: u64,
    pub rows_acked: u64,
    pub late_absorbed: u64,
    pub late_side_channelled: u64,
    pub late_dropped: u64,
}

impl RunningTotals {
    fn apply(&mut self, rec: &AckRecord) {
        self.batches_acked += 1;
        self.rows_acked += rec.rows;
        self.late_absorbed += rec.late_absorbed;
        self.late_side_channelled += rec.late_side_channelled;
        self.late_dropped += rec.late_dropped;
    }
}

/// What opening the ack log recovered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamRecovery {
    /// The first offset the loop should execute (last acked + 1; 0 fresh).
    pub next_offset: u64,
    /// Watermark as of the last ack.
    pub watermark_ms: Option<i64>,
    /// The recovered carried state.
    pub state: StreamState,
    /// Accounting carried over from before the kill.
    pub totals: RunningTotals,
    /// True when any durable state existed (the run is a resume).
    pub resumed: bool,
}

fn stream_err(context: &str, e: impl std::fmt::Display) -> FlowError {
    FlowError::Stream(format!("{context}: {e}"))
}

/// The ack WAL: append-fsync per batch, periodic snapshot compaction.
pub struct AckLog {
    log: DurableLog,
    dir: PathBuf,
    fingerprint: String,
    snapshot_every: u64,
    acks_since_snapshot: u64,
    totals: RunningTotals,
    next_offset: u64,
}

impl AckLog {
    /// Open the log, recovering any durable state. A non-empty directory
    /// with `resume == false` is refused (accidentally merging two streams'
    /// state would be silent corruption); a fingerprint mismatch on resume
    /// is refused as a stale checkpoint.
    pub fn open(spec: &DurableSpec, fingerprint: &str) -> Result<(AckLog, StreamRecovery)> {
        let (mut log, recovered) = DurableLog::open(&spec.dir, LogConfig::default())
            .map_err(|e| stream_err("opening ack log", e))?;
        let dir_name = spec.dir.display().to_string();
        let had_state = recovered.snapshot.is_some() || !recovered.records.is_empty();
        if had_state && !spec.resume {
            return Err(FlowError::Stream(format!(
                "ack log {dir_name:?} already holds a stream; pass resume to continue it"
            )));
        }

        let mut recovery = StreamRecovery::default();
        if let Some(snap_bytes) = &recovered.snapshot {
            let snap: StreamSnapshot = std::str::from_utf8(snap_bytes)
                .map_err(|e| stream_err("decoding stream snapshot", e))
                .and_then(|s| {
                    serde_json::from_str(s).map_err(|e| stream_err("decoding stream snapshot", e))
                })?;
            if snap.fingerprint != fingerprint {
                return Err(FlowError::StaleCheckpoint {
                    run_id: dir_name,
                    mismatch: "stream config".to_owned(),
                });
            }
            for (k, v) in &snap.counts {
                recovery.state.add_count(k, *v);
            }
            for (k, v) in &snap.sums {
                recovery.state.add_sum(k, *v);
            }
            recovery.next_offset = snap.next_offset;
            recovery.watermark_ms = snap.watermark_ms;
            recovery.totals = snap.totals;
        }
        for (lsn, payload) in &recovered.records {
            let record: LogRecord = std::str::from_utf8(payload)
                .map_err(|e| stream_err(&format!("decoding ack record lsn {lsn}"), e))
                .and_then(|s| {
                    serde_json::from_str(s)
                        .map_err(|e| stream_err(&format!("decoding ack record lsn {lsn}"), e))
                })?;
            match record {
                LogRecord::Manifest { fingerprint: f } => {
                    if f != fingerprint {
                        return Err(FlowError::StaleCheckpoint {
                            run_id: dir_name,
                            mismatch: "stream config".to_owned(),
                        });
                    }
                }
                LogRecord::Ack(rec) => {
                    if rec.offset != recovery.next_offset {
                        return Err(FlowError::Stream(format!(
                            "ack log {dir_name:?} is not contiguous: expected offset {}, \
                             found {} at lsn {lsn}",
                            recovery.next_offset, rec.offset
                        )));
                    }
                    rec.delta.apply_to(&mut recovery.state);
                    recovery.watermark_ms = rec.watermark_ms;
                    recovery.totals.apply(&rec);
                    recovery.next_offset = rec.offset + 1;
                }
            }
        }
        recovery.resumed = had_state;

        if !had_state {
            let manifest = serde_json::to_string(&LogRecord::Manifest {
                fingerprint: fingerprint.to_owned(),
            })
            .map_err(|e| stream_err("encoding manifest", e))?;
            log.append(manifest.as_bytes())
                .and_then(|_| log.sync())
                .map_err(|e| stream_err("writing manifest", e))?;
        }

        let ack_log = AckLog {
            log,
            dir: spec.dir.clone(),
            fingerprint: fingerprint.to_owned(),
            snapshot_every: spec.snapshot_every.max(1),
            acks_since_snapshot: 0,
            totals: recovery.totals,
            next_offset: recovery.next_offset,
        };
        Ok((ack_log, recovery))
    }

    /// Durably acknowledge one batch: append + fsync its record, then cut a
    /// snapshot of `state` (which must already include the record's delta)
    /// every `snapshot_every` acks. Only after this returns may the caller
    /// journal `BatchAcked` or fire a kill point.
    pub fn ack(&mut self, rec: &AckRecord, state: &StreamState) -> Result<()> {
        debug_assert_eq!(rec.offset, self.next_offset, "acks must stay dense");
        let payload = serde_json::to_string(&LogRecord::Ack(rec.clone()))
            .map_err(|e| stream_err("encoding ack record", e))?;
        self.log
            .append(payload.as_bytes())
            .and_then(|_| self.log.sync())
            .map_err(|e| stream_err("appending ack record", e))?;
        self.totals.apply(rec);
        self.next_offset = rec.offset + 1;
        self.acks_since_snapshot += 1;
        if self.acks_since_snapshot >= self.snapshot_every {
            let snap = StreamSnapshot {
                fingerprint: self.fingerprint.clone(),
                next_offset: self.next_offset,
                watermark_ms: rec.watermark_ms,
                counts: state.counts_sorted(),
                sums: state.sums_sorted(),
                totals: self.totals,
            };
            let bytes = serde_json::to_string(&snap)
                .map_err(|e| stream_err("encoding stream snapshot", e))?;
            self.log
                .snapshot(bytes.as_bytes())
                .map_err(|e| stream_err("writing stream snapshot", e))?;
            self.acks_since_snapshot = 0;
        }
        Ok(())
    }

    /// The directory this log owns.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "toreador-acklog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn delta(key: &str, n: i64, s: f64) -> StateDelta {
        let mut d = StateDelta::default();
        d.counts.insert(key.to_owned(), n);
        d.sums.insert(key.to_owned(), s);
        d
    }

    fn rec(offset: u64, d: StateDelta) -> AckRecord {
        AckRecord {
            offset,
            rows: 10,
            watermark_ms: Some(offset as i64 * 100),
            late_absorbed: 0,
            late_side_channelled: 0,
            late_dropped: offset, // distinguishable accounting per record
            delta: d,
        }
    }

    #[test]
    fn acks_replay_to_identical_state() {
        let dir = tmp_dir("replay");
        let mut live = StreamState::new();
        {
            let (mut log, recovery) = AckLog::open(&DurableSpec::new(&dir), "fp-1").unwrap();
            assert!(!recovery.resumed);
            for k in 0..5u64 {
                let r = rec(k, delta("a", 1, 0.25));
                r.delta.apply_to(&mut live);
                log.ack(&r, &live).unwrap();
            }
        }
        let spec = DurableSpec::new(&dir).with_resume(true);
        let (_log, recovery) = AckLog::open(&spec, "fp-1").unwrap();
        assert!(recovery.resumed);
        assert_eq!(recovery.next_offset, 5);
        assert_eq!(recovery.watermark_ms, Some(400));
        assert_eq!(recovery.state, live);
        assert_eq!(recovery.totals.batches_acked, 5);
        assert_eq!(recovery.totals.rows_acked, 50);
        assert_eq!(recovery.totals.late_dropped, 10, "sum of per-record counts");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_compact_and_recover_through_the_same_path() {
        let dir = tmp_dir("snap");
        let mut live = StreamState::new();
        {
            let spec = DurableSpec::new(&dir).with_snapshot_every(3);
            let (mut log, _) = AckLog::open(&spec, "fp-1").unwrap();
            for k in 0..8u64 {
                let r = rec(k, delta(&format!("k{}", k % 2), 2, 0.5));
                r.delta.apply_to(&mut live);
                log.ack(&r, &live).unwrap();
            }
        }
        let spec = DurableSpec::new(&dir).with_resume(true);
        let (_log, recovery) = AckLog::open(&spec, "fp-1").unwrap();
        assert_eq!(recovery.next_offset, 8);
        assert_eq!(
            recovery.state, live,
            "snapshot + tail replay must match live"
        );
        assert_eq!(recovery.totals.batches_acked, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_refuses_existing_stream_and_stale_fingerprints() {
        let dir = tmp_dir("guard");
        {
            let (mut log, _) = AckLog::open(&DurableSpec::new(&dir), "fp-1").unwrap();
            let mut live = StreamState::new();
            let r = rec(0, delta("a", 1, 1.0));
            r.delta.apply_to(&mut live);
            log.ack(&r, &live).unwrap();
        }
        // Same dir, no resume: refused.
        let err = AckLog::open(&DurableSpec::new(&dir), "fp-1")
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FlowError::Stream(_)), "got {err:?}");
        // Resume under a different config: stale.
        let spec = DurableSpec::new(&dir).with_resume(true);
        let err = AckLog::open(&spec, "fp-2").map(|_| ()).unwrap_err();
        assert!(
            matches!(err, FlowError::StaleCheckpoint { ref mismatch, .. } if mismatch == "stream config"),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_application_matches_absorb() {
        let mut a = StreamState::new();
        a.add_count("x", 2);
        a.add_count("x", 3);
        a.add_sum("x", 1.5);
        assert_eq!(a.count("x"), 5);
        assert_eq!(a.sum("x"), 1.5);
        let counts = a.counts_sorted();
        assert_eq!(counts.get("x"), Some(&5));
        assert!(a.sums_sorted().contains_key("x"));
    }
}
