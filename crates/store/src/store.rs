//! The typed campaign store on top of [`DurableLog`].
//!
//! A [`LabStore`] materialises, per trainee, one **session meta** record
//! (quota, seed, cumulative cost — whatever the caller's `M` carries),
//! every **run record** keyed by `(trainee, run_id)`, and every **attempt
//! score**. Each mutation is one WAL record (JSON envelope, CRC-framed by
//! the log) written and fsynced *before* the in-memory view changes; the
//! view is rebuilt on open by applying snapshot-then-tail through the same
//! code path live writes use, so recovery and normal operation cannot
//! drift apart.
//!
//! An attempt — a run, its score and the meter it moved — is **one**
//! record ([`LabStore::put_attempt`], envelope tag `attempt`): the frame
//! CRC covers all three parts, so a torn tail drops them together and a
//! recovered store never holds a run without its score and meter. Logs
//! written before that tag existed carry the same facts as separate
//! `run` / `score` / `meta` records and replay unchanged.
//!
//! The store is deliberately generic over the meta (`M`) and run (`R`)
//! payloads: it sits *below* the Labs crate in the dependency DAG, so the
//! Labs instantiate it with their own `SessionMeta` / `RunRecord` types
//! (and tests with tiny local ones). Payloads only need `serde`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{DeserializeOwned, Serialize};
use serde_json::{Map, Value};

use crate::error::{Result, StoreError};
use crate::log::{DurableLog, LogConfig, LogStats, Recovery};

/// Snapshot schema version (the WAL envelope is versioned implicitly by
/// the `t` tag set).
const STATE_VERSION: u64 = 1;

/// Tuning knobs for the typed store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Segment rotation threshold, bytes (see [`LogConfig`]).
    pub segment_bytes: u64,
    /// Automatically snapshot + compact once this many WAL records have
    /// accumulated past the last snapshot. `u64::MAX` disables.
    pub snapshot_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 1 << 20,
            snapshot_every: 256,
        }
    }
}

/// Everything the store knows about one trainee.
#[derive(Debug, Clone, PartialEq)]
pub struct TraineeState<M, R> {
    /// Session meta — last write wins.
    pub meta: M,
    /// Run records by run id.
    pub runs: BTreeMap<u64, R>,
    /// Attempt scores by run id.
    pub scores: BTreeMap<u64, f64>,
}

/// A durable, crash-recoverable store of lab sessions, runs and scores.
pub struct LabStore<M, R> {
    log: DurableLog,
    cfg: StoreConfig,
    trainees: BTreeMap<String, TraineeState<M, R>>,
    /// Bytes truncated from a torn tail during open (0 = clean).
    recovered_torn_bytes: u64,
}

impl<M, R> LabStore<M, R>
where
    M: Serialize + DeserializeOwned + Clone,
    R: Serialize + DeserializeOwned + Clone,
{
    /// Open (or create) a store in `dir` with default tuning.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// Open (or create) a store in `dir`.
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self> {
        let (log, recovery) = DurableLog::open(
            dir,
            LogConfig {
                segment_bytes: cfg.segment_bytes,
            },
        )?;
        let Recovery {
            snapshot,
            records,
            torn_bytes,
            ..
        } = recovery;
        let mut store = LabStore {
            log,
            cfg,
            trainees: BTreeMap::new(),
            recovered_torn_bytes: torn_bytes,
        };
        if let Some(state) = snapshot {
            store.trainees = decode_state(&state)?;
        }
        for (lsn, payload) in records {
            let envelope = parse_envelope(&payload)
                .map_err(|e| StoreError::Corrupt(format!("wal record {lsn}: {e}")))?;
            store
                .apply(envelope)
                .map_err(|e| StoreError::Corrupt(format!("wal record {lsn}: {e}")))?;
        }
        Ok(store)
    }

    /// Record (or overwrite) a trainee's session meta.
    pub fn put_meta(&mut self, trainee: &str, meta: &M) -> Result<()> {
        self.commit(Envelope::Meta {
            trainee: trainee.to_owned(),
            value: to_value(meta)?,
        })
    }

    /// Record one run. The trainee's meta must have been written first —
    /// the WAL guarantees every run replays against a known session.
    pub fn put_run(&mut self, trainee: &str, run_id: u64, run: &R) -> Result<()> {
        self.require_session(trainee, format_args!("run {run_id}"))?;
        self.commit(Envelope::Run {
            trainee: trainee.to_owned(),
            run_id,
            value: to_value(run)?,
        })
    }

    /// Record the score of one attempt.
    pub fn put_score(&mut self, trainee: &str, run_id: u64, score: f64) -> Result<()> {
        self.require_session(trainee, "score")?;
        self.commit(Envelope::Score {
            trainee: trainee.to_owned(),
            run_id,
            score,
        })
    }

    /// Record one attempt — the run, its score and the trainee's updated
    /// meta — as a single WAL record and a single fsync. All three become
    /// visible (and durable) together or not at all.
    pub fn put_attempt(
        &mut self,
        trainee: &str,
        run_id: u64,
        run: &R,
        score: f64,
        meta: &M,
    ) -> Result<()> {
        self.require_session(trainee, format_args!("attempt {run_id}"))?;
        self.commit(Envelope::Attempt {
            trainee: trainee.to_owned(),
            run_id,
            run: to_value(run)?,
            score,
            meta: to_value(meta)?,
        })
    }

    /// All trainees, sorted by name.
    pub fn trainees(&self) -> impl Iterator<Item = (&String, &TraineeState<M, R>)> {
        self.trainees.iter()
    }

    /// One trainee's state.
    pub fn trainee(&self, name: &str) -> Option<&TraineeState<M, R>> {
        self.trainees.get(name)
    }

    /// One run record.
    pub fn run(&self, trainee: &str, run_id: u64) -> Option<&R> {
        self.trainees.get(trainee)?.runs.get(&run_id)
    }

    /// One attempt score.
    pub fn score(&self, trainee: &str, run_id: u64) -> Option<f64> {
        self.trainees.get(trainee)?.scores.get(&run_id).copied()
    }

    /// The next unused run id for a trainee (1 for a fresh trainee).
    pub fn next_run_id(&self, trainee: &str) -> u64 {
        self.trainees
            .get(trainee)
            .and_then(|t| t.runs.keys().next_back())
            .map_or(1, |last| last + 1)
    }

    /// Snapshot the full state and drop the WAL segments it covers.
    pub fn compact(&mut self) -> Result<()> {
        let state = encode_state(&self.trainees)?;
        self.log.snapshot(&state)
    }

    /// Force everything written so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// On-disk shape of the underlying log.
    pub fn stats(&self) -> LogStats {
        self.log.stats()
    }

    /// Bytes truncated from a torn WAL tail while opening (0 = clean).
    pub fn recovered_torn_bytes(&self) -> u64 {
        self.recovered_torn_bytes
    }

    /// Runs, scores and attempts may only follow their trainee's session
    /// meta, so every record replays against a known session.
    fn require_session(&self, trainee: &str, what: impl std::fmt::Display) -> Result<()> {
        if self.trainees.contains_key(trainee) {
            Ok(())
        } else {
            Err(StoreError::Invalid(format!(
                "{what} for trainee {trainee:?} recorded before session meta"
            )))
        }
    }

    /// WAL-then-apply: encode, append + fsync, then mutate the view, then
    /// maybe auto-compact.
    fn commit(&mut self, envelope: Envelope) -> Result<()> {
        let bytes = encode_envelope(&envelope)?;
        self.log.append(&bytes)?;
        self.log.sync()?;
        self.apply(envelope)?;
        if self.log.records_since_snapshot() >= self.cfg.snapshot_every {
            self.compact()?;
        }
        Ok(())
    }

    /// Apply one envelope to the in-memory view. Shared by live commits
    /// and recovery replay.
    fn apply(&mut self, envelope: Envelope) -> Result<()> {
        match envelope {
            Envelope::Meta { trainee, value } => {
                let meta: M = from_value(value)?;
                match self.trainees.get_mut(&trainee) {
                    Some(state) => state.meta = meta,
                    None => {
                        self.trainees.insert(
                            trainee,
                            TraineeState {
                                meta,
                                runs: BTreeMap::new(),
                                scores: BTreeMap::new(),
                            },
                        );
                    }
                }
            }
            Envelope::Run {
                trainee,
                run_id,
                value,
            } => {
                let run: R = from_value(value)?;
                let state = self.trainees.get_mut(&trainee).ok_or_else(|| {
                    StoreError::Invalid(format!("run {run_id} for unknown trainee {trainee:?}"))
                })?;
                state.runs.insert(run_id, run);
            }
            Envelope::Score {
                trainee,
                run_id,
                score,
            } => {
                let state = self.trainees.get_mut(&trainee).ok_or_else(|| {
                    StoreError::Invalid(format!("score for unknown trainee {trainee:?}"))
                })?;
                state.scores.insert(run_id, score);
            }
            Envelope::Attempt {
                trainee,
                run_id,
                run,
                score,
                meta,
            } => {
                // Decode every part before touching the view, so a bad
                // payload leaves it as it was.
                let run: R = from_value(run)?;
                let meta: M = from_value(meta)?;
                let state = self.trainees.get_mut(&trainee).ok_or_else(|| {
                    StoreError::Invalid(format!("attempt {run_id} for unknown trainee {trainee:?}"))
                })?;
                state.runs.insert(run_id, run);
                state.scores.insert(run_id, score);
                state.meta = meta;
            }
        }
        Ok(())
    }
}

/// One decoded WAL record.
enum Envelope {
    Meta {
        trainee: String,
        value: Value,
    },
    Run {
        trainee: String,
        run_id: u64,
        value: Value,
    },
    Score {
        trainee: String,
        run_id: u64,
        score: f64,
    },
    /// A whole attempt: the run, its score and the meta it updated.
    Attempt {
        trainee: String,
        run_id: u64,
        run: Value,
        score: f64,
        meta: Value,
    },
}

fn encode_envelope(envelope: &Envelope) -> Result<Vec<u8>> {
    let mut obj = Map::new();
    match envelope {
        Envelope::Meta { trainee, value } => {
            obj.insert("t".to_owned(), Value::String("meta".to_owned()));
            obj.insert("trainee".to_owned(), Value::String(trainee.clone()));
            obj.insert("v".to_owned(), value.clone());
        }
        Envelope::Run {
            trainee,
            run_id,
            value,
        } => {
            obj.insert("t".to_owned(), Value::String("run".to_owned()));
            obj.insert("trainee".to_owned(), Value::String(trainee.clone()));
            obj.insert("id".to_owned(), to_value(run_id)?);
            obj.insert("v".to_owned(), value.clone());
        }
        Envelope::Score {
            trainee,
            run_id,
            score,
        } => {
            obj.insert("t".to_owned(), Value::String("score".to_owned()));
            obj.insert("trainee".to_owned(), Value::String(trainee.clone()));
            obj.insert("id".to_owned(), to_value(run_id)?);
            obj.insert("v".to_owned(), to_value(score)?);
        }
        Envelope::Attempt {
            trainee,
            run_id,
            run,
            score,
            meta,
        } => {
            obj.insert("t".to_owned(), Value::String("attempt".to_owned()));
            obj.insert("trainee".to_owned(), Value::String(trainee.clone()));
            obj.insert("id".to_owned(), to_value(run_id)?);
            obj.insert("run".to_owned(), run.clone());
            obj.insert("score".to_owned(), to_value(score)?);
            obj.insert("meta".to_owned(), meta.clone());
        }
    }
    serde_json::to_string(&Value::Object(obj))
        .map(String::into_bytes)
        .map_err(|e| StoreError::Codec(e.to_string()))
}

fn parse_envelope(bytes: &[u8]) -> Result<Envelope> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| StoreError::Codec(format!("envelope is not utf-8: {e}")))?;
    let value =
        serde_json::parse(text).map_err(|e| StoreError::Codec(format!("bad envelope: {e}")))?;
    let Value::Object(mut obj) = value else {
        return Err(StoreError::Codec("envelope is not an object".to_owned()));
    };
    let tag = take_str(&mut obj, "t")?;
    let trainee = take_str(&mut obj, "trainee")?;
    let payload = obj.remove("v");
    match tag.as_str() {
        "meta" => Ok(Envelope::Meta {
            trainee,
            value: payload
                .ok_or_else(|| StoreError::Codec("meta envelope without payload".to_owned()))?,
        }),
        "run" => Ok(Envelope::Run {
            trainee,
            run_id: take_u64(&mut obj, "id")?,
            value: payload
                .ok_or_else(|| StoreError::Codec("run envelope without payload".to_owned()))?,
        }),
        "score" => Ok(Envelope::Score {
            trainee,
            run_id: take_u64(&mut obj, "id")?,
            score: payload
                .and_then(|v| v.as_f64())
                .ok_or_else(|| StoreError::Codec("score envelope without value".to_owned()))?,
        }),
        "attempt" => Ok(Envelope::Attempt {
            trainee,
            run_id: take_u64(&mut obj, "id")?,
            run: obj
                .remove("run")
                .ok_or_else(|| StoreError::Codec("attempt envelope without run".to_owned()))?,
            score: obj
                .remove("score")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| StoreError::Codec("attempt envelope without score".to_owned()))?,
            meta: obj
                .remove("meta")
                .ok_or_else(|| StoreError::Codec("attempt envelope without meta".to_owned()))?,
        }),
        other => Err(StoreError::Codec(format!(
            "unknown envelope tag {other:?} (written by a newer store?)"
        ))),
    }
}

fn take_str(obj: &mut Map<String, Value>, key: &str) -> Result<String> {
    match obj.remove(key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(StoreError::Codec(format!("envelope field {key:?} missing"))),
    }
}

fn take_u64(obj: &mut Map<String, Value>, key: &str) -> Result<u64> {
    obj.remove(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| StoreError::Codec(format!("envelope field {key:?} missing")))
}

fn encode_state<M, R>(trainees: &BTreeMap<String, TraineeState<M, R>>) -> Result<Vec<u8>>
where
    M: Serialize,
    R: Serialize,
{
    let mut all = Map::new();
    for (name, state) in trainees {
        let mut t = Map::new();
        t.insert("meta".to_owned(), to_value(&state.meta)?);
        let mut runs = Map::new();
        for (id, run) in &state.runs {
            runs.insert(id.to_string(), to_value(run)?);
        }
        t.insert("runs".to_owned(), Value::Object(runs));
        let mut scores = Map::new();
        for (id, score) in &state.scores {
            scores.insert(id.to_string(), to_value(score)?);
        }
        t.insert("scores".to_owned(), Value::Object(scores));
        all.insert(name.clone(), Value::Object(t));
    }
    let mut root = Map::new();
    root.insert("version".to_owned(), to_value(&STATE_VERSION)?);
    root.insert("trainees".to_owned(), Value::Object(all));
    serde_json::to_string(&Value::Object(root))
        .map(String::into_bytes)
        .map_err(|e| StoreError::Codec(e.to_string()))
}

fn decode_state<M, R>(bytes: &[u8]) -> Result<BTreeMap<String, TraineeState<M, R>>>
where
    M: DeserializeOwned,
    R: DeserializeOwned,
{
    let text = std::str::from_utf8(bytes)
        .map_err(|e| StoreError::Codec(format!("snapshot is not utf-8: {e}")))?;
    let value =
        serde_json::parse(text).map_err(|e| StoreError::Codec(format!("bad snapshot: {e}")))?;
    let Value::Object(mut root) = value else {
        return Err(StoreError::Codec("snapshot is not an object".to_owned()));
    };
    let version = take_u64(&mut root, "version")?;
    if version != STATE_VERSION {
        return Err(StoreError::Codec(format!(
            "snapshot version {version} is not supported (want {STATE_VERSION})"
        )));
    }
    let Some(Value::Object(all)) = root.remove("trainees") else {
        return Err(StoreError::Codec("snapshot without trainees".to_owned()));
    };
    let mut trainees = BTreeMap::new();
    for (name, entry) in all {
        let Value::Object(mut t) = entry else {
            return Err(StoreError::Codec(format!(
                "snapshot trainee {name:?} is not an object"
            )));
        };
        let meta: M = from_value(t.remove("meta").ok_or_else(|| {
            StoreError::Codec(format!("snapshot trainee {name:?} without meta"))
        })?)?;
        let mut runs = BTreeMap::new();
        if let Some(Value::Object(entries)) = t.remove("runs") {
            for (id, run) in entries {
                let id: u64 = id.parse().map_err(|_| {
                    StoreError::Codec(format!("snapshot run id {id:?} is not a number"))
                })?;
                runs.insert(id, from_value(run)?);
            }
        }
        let mut scores = BTreeMap::new();
        if let Some(Value::Object(entries)) = t.remove("scores") {
            for (id, score) in entries {
                let id: u64 = id.parse().map_err(|_| {
                    StoreError::Codec(format!("snapshot score id {id:?} is not a number"))
                })?;
                let score = score.as_f64().ok_or_else(|| {
                    StoreError::Codec(format!("snapshot score for run {id} is not a number"))
                })?;
                scores.insert(id, score);
            }
        }
        trainees.insert(name, TraineeState { meta, runs, scores });
    }
    Ok(trainees)
}

fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde_json::to_value(value).map_err(|e| StoreError::Codec(e.to_string()))
}

fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde_json::from_value(value).map_err(|e| StoreError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::fs;
    use std::path::PathBuf;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Meta {
        seed: u64,
        cost: f64,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Run {
        challenge: String,
        rows: u64,
    }

    type Store = LabStore<Meta, Run>;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("toreador-store-typed-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn run(i: u64) -> Run {
        Run {
            challenge: "ecomm-revenue".to_owned(),
            rows: 100 * i,
        }
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut store = Store::open(&dir).unwrap();
            store.put_meta("ada", &Meta { seed: 7, cost: 0.0 }).unwrap();
            store.put_run("ada", 1, &run(1)).unwrap();
            store.put_score("ada", 1, 97.5).unwrap();
            store
                .put_meta(
                    "ada",
                    &Meta {
                        seed: 7,
                        cost: 12.5,
                    },
                )
                .unwrap();
            store.put_meta("bob", &Meta { seed: 3, cost: 0.0 }).unwrap();
            // A whole attempt in one record.
            let meter = Meta { seed: 3, cost: 4.0 };
            store.put_attempt("bob", 1, &run(9), 55.0, &meter).unwrap();
            assert_eq!(store.stats().last_lsn, 6, "one record per attempt");
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.trainees().count(), 2);
        let ada = store.trainee("ada").unwrap();
        assert_eq!(
            ada.meta,
            Meta {
                seed: 7,
                cost: 12.5
            },
            "last meta wins"
        );
        assert_eq!(ada.runs.len(), 1);
        assert_eq!(store.run("ada", 1), Some(&run(1)));
        assert_eq!(store.score("ada", 1), Some(97.5));
        assert_eq!(store.run("bob", 1), Some(&run(9)));
        assert_eq!(store.score("bob", 1), Some(55.0));
        assert_eq!(store.trainee("bob").unwrap().meta.cost, 4.0);
        assert_eq!(store.next_run_id("ada"), 2);
        assert_eq!(store.next_run_id("carol"), 1);
        assert_eq!(store.recovered_torn_bytes(), 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_before_meta_is_refused() {
        let dir = tmp_dir("order");
        let mut store = Store::open(&dir).unwrap();
        let err = store.put_run("ghost", 1, &run(1)).unwrap_err();
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
        let err = store.put_score("ghost", 1, 1.0).unwrap_err();
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
        let meta = Meta { seed: 1, cost: 0.0 };
        let err = store
            .put_attempt("ghost", 1, &run(1), 1.0, &meta)
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_drops_segments() {
        let dir = tmp_dir("compact");
        let cfg = StoreConfig {
            segment_bytes: 256,
            snapshot_every: u64::MAX,
        };
        {
            let mut store = Store::open_with(&dir, cfg).unwrap();
            store.put_meta("ada", &Meta { seed: 1, cost: 0.0 }).unwrap();
            for i in 1..=20 {
                store.put_run("ada", i, &run(i)).unwrap();
            }
            assert!(store.stats().segments > 1);
            store.compact().unwrap();
            assert_eq!(store.stats().segments, 1);
            // Post-compaction writes land in the fresh tail.
            store.put_run("ada", 21, &run(21)).unwrap();
        }
        let store = Store::open_with(&dir, cfg).unwrap();
        assert_eq!(store.trainee("ada").unwrap().runs.len(), 21);
        assert_eq!(store.run("ada", 21), Some(&run(21)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn auto_compaction_kicks_in() {
        let dir = tmp_dir("auto");
        let cfg = StoreConfig {
            segment_bytes: 1 << 20,
            snapshot_every: 10,
        };
        let mut store = Store::open_with(&dir, cfg).unwrap();
        store.put_meta("ada", &Meta { seed: 1, cost: 0.0 }).unwrap();
        for i in 1..=30 {
            store.put_run("ada", i, &run(i)).unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.snapshot_lsn > 0,
            "auto snapshot should have happened: {stats:?}"
        );
        assert!(stats.last_lsn - stats.snapshot_lsn < 10);
        drop(store);
        let store = Store::open_with(&dir, cfg).unwrap();
        assert_eq!(store.trainee("ada").unwrap().runs.len(), 30);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_on_typed_store_loses_only_the_last_write() {
        let dir = tmp_dir("torn-typed");
        {
            let mut store = Store::open(&dir).unwrap();
            store.put_meta("ada", &Meta { seed: 1, cost: 0.0 }).unwrap();
            store.put_run("ada", 1, &run(1)).unwrap();
            store.put_run("ada", 2, &run(2)).unwrap();
        }
        // Tear the last record's frame.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.recovered_torn_bytes() > 0);
        let ada = store.trainee("ada").unwrap();
        assert_eq!(ada.runs.len(), 1, "only the torn final run is lost");
        assert_eq!(store.run("ada", 1), Some(&run(1)));
        fs::remove_dir_all(dir).unwrap();
    }
}
