//! Stage-boundary checkpointing with crash-resume.
//!
//! After each shuffle wave completes, the executor atomically materialises
//! the wave's partitioned output (in the row layout of [`crate::codec`])
//! plus a manifest into a per-run checkpoint directory,
//! following the `toreador-store` WAL conventions: temp-write + rename +
//! directory fsync on the write side, CRC-checked frames on the read side.
//! A process killed at any stage boundary can then [`RunCheckpoint::resume`]:
//! the manifest is validated against the recompiled plan (fingerprint
//! mismatch ⇒ [`FlowError::StaleCheckpoint`], never stale data), completed
//! waves are loaded instead of recomputed, and the scheduler re-enters at
//! the first incomplete wave. Restores are provable from the trace journal:
//! zero `TaskStarted` events for restored waves, `StageRestored` events
//! instead.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/<run_id>/
//!   manifest.json     run identity: plan/config/input fingerprints, seeds
//!   wave-0000.ckpt    one file per completed shuffle wave
//!   wave-0001.ckpt
//! ```
//!
//! A wave file is `TORCKPT1` magic followed by CRC-framed records
//! (`[len: u32 LE][crc32: u32 LE][payload]`): frame 0 is a JSON header
//! (stage id, wave index, per-partition row counts and CRCs, schema), then
//! one frame per partition holding its rows in that layout, which load
//! decodes straight into columns. Torn or corrupt frames, and payloads
//! that do not decode as the header claims, fail the load with
//! [`FlowError::Checkpoint`] naming the file — a checkpoint is either
//! provably intact or not used.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use toreador_data::partition::PartitionedTable;
use toreador_data::schema::Schema;
use toreador_data::table::Table;

use toreador_store::crc::crc32;

use crate::codec::{decode_table, encode_table, push_frame, sync_dir, take_frame, write_atomic};
use crate::error::{FlowError, Result};

/// Wave-file magic: 8 bytes, versioned by the trailing digit.
const WAVE_MAGIC: &[u8; 8] = b"TORCKPT1";

/// Manifest format version; bumped on breaking layout changes.
pub(crate) const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Fingerprints: FNV-1a folded over the things that must not change between
// the checkpointed run and its resume.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of the *optimized* plan, via its `explain()` rendering: any
/// operator, expression or ordering change invalidates checkpoints.
pub fn plan_fingerprint(explain: &str) -> String {
    format!("{:016x}", fnv(explain.bytes(), FNV_OFFSET))
}

/// Fingerprint of the engine-config knob that shapes the wave layout: the
/// partition count changes the shape of every wave.
///
/// The hashed text keeps the four execution-mode settings earlier engines
/// made configurable, at the values every production run used. None of
/// them shapes a wave any more, but dropping them from the text would
/// change every fingerprint and make checkpoints written by those engines
/// refuse to resume.
pub fn config_fingerprint(partitions: usize) -> String {
    let s = format!(
        "partitions={partitions} partial_agg=true \
         vectorized=true fuse_narrow=true pipelined=true"
    );
    format!("{:016x}", fnv(s.bytes(), FNV_OFFSET))
}

/// Fingerprint of the scanned input datasets: name, schema, row count, and
/// every row's stable hash (via the shuffle layer's columnar hasher), folded
/// in dataset order. `scanned` must already be sorted and deduplicated, as
/// `LogicalPlan::scanned_datasets` returns it.
pub fn input_fingerprint(
    datasets: &HashMap<String, PartitionedTable>,
    scanned: &[String],
) -> Result<String> {
    let mut h = FNV_OFFSET;
    for name in scanned {
        let data = datasets
            .get(name)
            .ok_or_else(|| FlowError::UnknownDataset(name.clone()))?;
        h = fnv(name.bytes(), h);
        for part in data.parts() {
            let schema = part.schema();
            for f in schema.fields() {
                h = fnv(f.name.bytes(), h);
                h = fnv(format!("{:?}:{}", f.data_type, f.nullable).bytes(), h);
            }
            h = fnv((part.num_rows() as u64).to_le_bytes(), h);
            for col in part.columns() {
                for code in crate::shuffle::column_hash_codes(col) {
                    h = fnv(code.to_le_bytes(), h);
                }
            }
        }
    }
    Ok(format!("{h:016x}"))
}

// ---------------------------------------------------------------------------
// Spec + manifest
// ---------------------------------------------------------------------------

/// Where a run checkpoints and whether it first tries to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Root checkpoint directory; runs get per-`run_id` subdirectories.
    pub root: PathBuf,
    /// Stable identity of the run (may contain `/` for per-engine subruns).
    pub run_id: String,
    /// When true, load any completed waves before executing.
    pub resume: bool,
}

impl CheckpointSpec {
    /// Checkpoint a fresh run under `root/run_id`.
    pub fn new(root: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        CheckpointSpec {
            root: root.into(),
            run_id: run_id.into(),
            resume: false,
        }
    }

    /// Resume (or start, if nothing was checkpointed) run `run_id`.
    pub fn resume(root: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        CheckpointSpec {
            root: root.into(),
            run_id: run_id.into(),
            resume: true,
        }
    }

    /// The run's checkpoint directory.
    pub fn dir(&self) -> PathBuf {
        self.root.join(&self.run_id)
    }
}

/// Run identity persisted alongside the wave files. A resume refuses to
/// serve checkpointed partitions unless every fingerprint still matches the
/// freshly recompiled campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    pub format_version: u32,
    pub run_id: String,
    /// FNV-1a of the optimized plan's `explain()` text.
    pub plan_fingerprint: String,
    /// FNV-1a of the wave-shaping engine-config knobs.
    pub config_fingerprint: String,
    /// FNV-1a of the scanned datasets (schemas, row counts, row hashes).
    pub input_fingerprint: String,
    /// Chaos seed the run was recorded under (provenance, not validated:
    /// resumes deliberately run with a different — usually empty — plan).
    pub chaos_seed: u64,
    /// Configured partition count (redundant with the config fingerprint,
    /// kept readable for humans and the CLI).
    pub partitions: usize,
}

/// Header frame of one wave file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WaveHeader {
    stage: usize,
    wave: usize,
    partitions: usize,
    row_counts: Vec<usize>,
    /// CRC32 of each partition's encoded payload, cross-checked against the
    /// frame CRCs on load (belt and braces: the header travels in its own
    /// frame, so either record can vouch for the other).
    partition_crcs: Vec<u32>,
    schema: Schema,
}

/// One wave loaded back from disk, waiting for the scheduler to claim it.
#[derive(Debug)]
pub struct RestoredWave {
    pub stage: usize,
    pub tables: Vec<Table>,
    pub rows: u64,
}

// ---------------------------------------------------------------------------
// I/O helpers. The store WAL conventions themselves (atomic publish, CRC
// framing) live in `crate::codec`; this layer only maps their plain error
// payloads into `FlowError::Checkpoint` with the historical wording.
// ---------------------------------------------------------------------------

fn io_err(what: &str, path: &Path, e: std::io::Error) -> FlowError {
    FlowError::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// [`crate::codec::write_atomic`] with the error wrapped for this layer.
fn publish(path: &Path, bytes: &[u8]) -> Result<()> {
    write_atomic(path, bytes).map_err(FlowError::Checkpoint)
}

fn wave_path(dir: &Path, wave: usize) -> PathBuf {
    dir.join(format!("wave-{wave:04}.ckpt"))
}

/// `wave-<n>.ckpt` → `n`.
pub(crate) fn parse_wave_name(name: &str) -> Option<usize> {
    name.strip_prefix("wave-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// RunCheckpoint
// ---------------------------------------------------------------------------

/// The live checkpoint of one run: persists completed waves, and on resume
/// hands restored waves back to the scheduler exactly once each.
#[derive(Debug)]
pub struct RunCheckpoint {
    dir: PathBuf,
    restored: Mutex<HashMap<usize, RestoredWave>>,
}

impl RunCheckpoint {
    /// Start checkpointing a fresh run: create the directory and publish
    /// the manifest before any wave executes.
    pub fn create(spec: &CheckpointSpec, manifest: &CheckpointManifest) -> Result<Self> {
        let dir = spec.dir();
        let io = toreador_store::io::io_for(&dir);
        io.create_dir_all(&dir)
            .map_err(|e| io_err("create dir", &dir, e))?;
        // Clear any stale waves from a previous run under the same id: they
        // belong to a manifest about to be overwritten.
        for path in io.list_dir(&dir).map_err(|e| io_err("read dir", &dir, e))? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if parse_wave_name(&name).is_some() || name.ends_with(".tmp") {
                let _ = io.remove_file(&path);
            }
        }
        let json = serde_json::to_string(manifest)
            .map_err(|e| FlowError::Checkpoint(format!("encode manifest: {e}")))?;
        publish(&dir.join("manifest.json"), json.as_bytes())?;
        if let Some(parent) = dir.parent() {
            sync_dir(parent);
        }
        Ok(RunCheckpoint {
            dir,
            restored: Mutex::new(HashMap::new()),
        })
    }

    /// True when a manifest exists for this run id (i.e. a previous run got
    /// far enough to be resumable at all).
    pub fn manifest_exists(spec: &CheckpointSpec) -> bool {
        let path = spec.dir().join("manifest.json");
        toreador_store::io::io_for(&path).exists(&path)
    }

    /// Resume a previously checkpointed run: validate the stored manifest
    /// against `expected` (the freshly recompiled identity) and eagerly
    /// load every intact wave file. Fingerprint mismatches refuse with
    /// [`FlowError::StaleCheckpoint`] naming what changed.
    pub fn resume(spec: &CheckpointSpec, expected: &CheckpointManifest) -> Result<Self> {
        let dir = spec.dir();
        let io = toreador_store::io::io_for(&dir);
        let manifest_path = dir.join("manifest.json");
        let text = io
            .read_to_string(&manifest_path)
            .map_err(|e| io_err("read manifest", &manifest_path, e))?;
        let stored: CheckpointManifest = serde_json::from_str(&text)
            .map_err(|e| FlowError::Checkpoint(format!("decode manifest: {e}")))?;
        let stale = |mismatch: &str| FlowError::StaleCheckpoint {
            run_id: spec.run_id.clone(),
            mismatch: mismatch.to_owned(),
        };
        if stored.format_version != FORMAT_VERSION {
            return Err(stale("checkpoint format version"));
        }
        if stored.run_id != expected.run_id {
            return Err(stale("run id"));
        }
        if stored.plan_fingerprint != expected.plan_fingerprint {
            return Err(stale("plan"));
        }
        // Config before inputs: a partition-count change also reshapes the
        // registered inputs' layout, and naming the config is the more
        // precise diagnosis of the two.
        if stored.config_fingerprint != expected.config_fingerprint {
            return Err(stale("engine config"));
        }
        if stored.input_fingerprint != expected.input_fingerprint {
            return Err(stale("inputs"));
        }
        let mut restored = HashMap::new();
        let mut names: Vec<usize> = io
            .list_dir(&dir)
            .map_err(|e| io_err("read dir", &dir, e))?
            .into_iter()
            .filter_map(|path| parse_wave_name(&path.file_name()?.to_string_lossy()))
            .collect();
        names.sort_unstable();
        for wave in names {
            let path = wave_path(&dir, wave);
            restored.insert(wave, load_wave(&path, wave)?);
        }
        Ok(RunCheckpoint {
            dir,
            restored: Mutex::new(restored),
        })
    }

    /// Claim the restored output of `wave`, if this run checkpointed it.
    /// Each wave is claimable once: the scheduler consumes it in place of
    /// running the wave's tasks.
    pub fn take_restored(&self, wave: usize) -> Option<RestoredWave> {
        self.restored.lock().remove(&wave)
    }

    /// Number of restored waves not yet claimed by the scheduler.
    pub fn restored_pending(&self) -> usize {
        self.restored.lock().len()
    }

    /// Durably persist the completed output of `wave` (executed at `stage`).
    /// Returns the encoded payload bytes written. The file only appears
    /// under its final name after the fsync — a kill at any point leaves
    /// either the previous state or the complete wave, nothing between.
    pub fn persist_wave(&self, stage: usize, wave: usize, out: &[Table]) -> Result<u64> {
        let schema = out
            .first()
            .map(|t| t.schema().clone())
            .unwrap_or_else(Schema::empty);
        let mut payloads = Vec::with_capacity(out.len());
        let mut row_counts = Vec::with_capacity(out.len());
        let mut partition_crcs = Vec::with_capacity(out.len());
        let mut payload_bytes = 0u64;
        for t in out {
            let mut buf = Vec::new();
            encode_table(t, &mut buf);
            payload_bytes += buf.len() as u64;
            row_counts.push(t.num_rows());
            partition_crcs.push(crc32(&buf));
            payloads.push(buf);
        }
        let header = WaveHeader {
            stage,
            wave,
            partitions: out.len(),
            row_counts,
            partition_crcs,
            schema,
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| FlowError::Checkpoint(format!("encode wave header: {e}")))?
            .into_bytes();
        let mut file = Vec::with_capacity(
            WAVE_MAGIC.len() + 8 + header_json.len() + payload_bytes as usize + 8 * payloads.len(),
        );
        file.extend_from_slice(WAVE_MAGIC);
        push_frame(&mut file, &header_json);
        for p in &payloads {
            push_frame(&mut file, p);
        }
        publish(&wave_path(&self.dir, wave), &file)?;
        Ok(payload_bytes)
    }
}

/// Read one wave file back, CRC-checking every frame and cross-checking the
/// header's per-partition row counts and CRCs.
pub(crate) fn load_wave(path: &Path, wave: usize) -> Result<RestoredWave> {
    let corrupt =
        |what: &str| FlowError::Checkpoint(format!("corrupt wave file {}: {what}", path.display()));
    let bytes = toreador_store::io::io_for(path)
        .read(path)
        .map_err(|e| io_err("read", path, e))?;
    let mut rest = bytes.as_slice();
    if rest.len() < WAVE_MAGIC.len() || &rest[..WAVE_MAGIC.len()] != WAVE_MAGIC {
        return Err(corrupt("bad magic"));
    }
    rest = &rest[WAVE_MAGIC.len()..];
    let header_text =
        std::str::from_utf8(take_frame(&mut rest).map_err(|e| corrupt(e.describe()))?)
            .map_err(|_| corrupt("wave header is not utf-8"))?;
    let header: WaveHeader = serde_json::from_str(header_text)
        .map_err(|e| corrupt(&format!("decode wave header: {e}")))?;
    if header.wave != wave {
        return Err(corrupt("wave index does not match file name"));
    }
    if header.row_counts.len() != header.partitions
        || header.partition_crcs.len() != header.partitions
    {
        return Err(corrupt("header partition counts disagree"));
    }
    let mut tables = Vec::with_capacity(header.partitions);
    let mut rows = 0u64;
    for i in 0..header.partitions {
        let payload = take_frame(&mut rest).map_err(|e| corrupt(e.describe()))?;
        if crc32(payload) != header.partition_crcs[i] {
            return Err(corrupt("partition crc does not match header"));
        }
        let table = decode_table(&header.schema, header.row_counts[i], payload)
            .map_err(|e| corrupt(&e.to_string()))?;
        rows += table.num_rows() as u64;
        tables.push(table);
    }
    if !rest.is_empty() {
        return Err(corrupt("trailing bytes after last partition"));
    }
    Ok(RestoredWave {
        stage: header.stage,
        tables,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use toreador_data::generate::random_table;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toreador-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(run_id: &str) -> CheckpointManifest {
        CheckpointManifest {
            format_version: FORMAT_VERSION,
            run_id: run_id.to_owned(),
            plan_fingerprint: "aaaa".into(),
            config_fingerprint: "bbbb".into(),
            input_fingerprint: "cccc".into(),
            chaos_seed: 7,
            partitions: 4,
        }
    }

    #[test]
    fn waves_round_trip_through_disk() {
        let root = temp_root("roundtrip");
        let spec = CheckpointSpec::new(&root, "run-1");
        let ck = RunCheckpoint::create(&spec, &manifest("run-1")).unwrap();
        let parts: Vec<Table> = (0..3).map(|i| random_table(40 + i, 4, i as u64)).collect();
        let bytes = ck.persist_wave(2, 0, &parts).unwrap();
        assert!(bytes > 0);
        ck.persist_wave(3, 1, &parts[..1]).unwrap();

        let resumed =
            RunCheckpoint::resume(&CheckpointSpec::resume(&root, "run-1"), &manifest("run-1"))
                .unwrap();
        assert_eq!(resumed.restored_pending(), 2);
        let wave0 = resumed.take_restored(0).unwrap();
        assert_eq!(wave0.stage, 2);
        assert_eq!(wave0.tables, parts);
        assert_eq!(
            wave0.rows,
            parts.iter().map(|t| t.num_rows() as u64).sum::<u64>()
        );
        // Each wave is claimable exactly once.
        assert!(resumed.take_restored(0).is_none());
        assert!(resumed.take_restored(1).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_wave_output_round_trips() {
        let root = temp_root("empty");
        let spec = CheckpointSpec::new(&root, "run-e");
        let ck = RunCheckpoint::create(&spec, &manifest("run-e")).unwrap();
        ck.persist_wave(0, 0, &[]).unwrap();
        let resumed =
            RunCheckpoint::resume(&CheckpointSpec::resume(&root, "run-e"), &manifest("run-e"))
                .unwrap();
        let wave = resumed.take_restored(0).unwrap();
        assert!(wave.tables.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_manifests_refuse_with_named_mismatch() {
        let root = temp_root("stale");
        let spec = CheckpointSpec::new(&root, "run-2");
        RunCheckpoint::create(&spec, &manifest("run-2")).unwrap();
        let rspec = CheckpointSpec::resume(&root, "run-2");
        for (mutate, expect) in [
            (
                Box::new(|m: &mut CheckpointManifest| m.plan_fingerprint = "zz".into())
                    as Box<dyn Fn(&mut CheckpointManifest)>,
                "plan",
            ),
            (
                Box::new(|m: &mut CheckpointManifest| m.input_fingerprint = "zz".into()),
                "inputs",
            ),
            (
                Box::new(|m: &mut CheckpointManifest| m.config_fingerprint = "zz".into()),
                "engine config",
            ),
        ] {
            let mut expected = manifest("run-2");
            mutate(&mut expected);
            match RunCheckpoint::resume(&rspec, &expected) {
                Err(FlowError::StaleCheckpoint { run_id, mismatch }) => {
                    assert_eq!(run_id, "run-2");
                    assert_eq!(mismatch, expect);
                }
                other => panic!("expected StaleCheckpoint({expect}), got {other:?}"),
            }
        }
        // Chaos seed is provenance only: a different seed still resumes.
        let mut expected = manifest("run-2");
        expected.chaos_seed = 999;
        assert!(RunCheckpoint::resume(&rspec, &expected).is_ok());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_is_detected_not_served() {
        let root = temp_root("corrupt");
        let spec = CheckpointSpec::new(&root, "run-3");
        let ck = RunCheckpoint::create(&spec, &manifest("run-3")).unwrap();
        let t = random_table(64, 3, 9);
        ck.persist_wave(1, 0, std::slice::from_ref(&t)).unwrap();
        let path = wave_path(&spec.dir(), 0);
        let pristine = fs::read(&path).unwrap();
        let rspec = CheckpointSpec::resume(&root, "run-3");
        // Flip one payload byte, truncate, and scribble the magic: every
        // corruption must surface as FlowError::Checkpoint.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        for broken in [
            flipped,
            pristine[..pristine.len() - 3].to_vec(),
            b"NOTCKPT0".to_vec(),
        ] {
            fs::write(&path, &broken).unwrap();
            match RunCheckpoint::resume(&rspec, &manifest("run-3")) {
                Err(FlowError::Checkpoint(_)) => {}
                other => panic!("corrupted wave must fail the load, got {other:?}"),
            }
        }
        // Restore the pristine bytes: loads again.
        fs::write(&path, &pristine).unwrap();
        assert!(RunCheckpoint::resume(&rspec, &manifest("run-3")).is_ok());
        let _ = fs::remove_dir_all(&root);
    }

    /// Publish wave 0 of `dir` with a CRC-valid header claiming `claimed`
    /// rows for a partition that holds one.
    fn craft_wave(dir: &Path, claimed: usize) {
        use toreador_data::schema::Field;
        use toreador_data::value::{DataType, Value};
        let schema = Schema::new(vec![Field::new("i", DataType::Int)]).unwrap();
        let one = Table::from_rows(schema.clone(), vec![vec![Value::Int(7)]]).unwrap();
        let mut payload = Vec::new();
        encode_table(&one, &mut payload);
        let header = WaveHeader {
            stage: 0,
            wave: 0,
            partitions: 1,
            row_counts: vec![claimed],
            partition_crcs: vec![crc32(&payload)],
            schema,
        };
        let mut file = WAVE_MAGIC.to_vec();
        push_frame(
            &mut file,
            serde_json::to_string(&header).unwrap().as_bytes(),
        );
        push_frame(&mut file, &payload);
        fs::write(wave_path(dir, 0), file).unwrap();
    }

    #[test]
    fn untrusted_row_counts_are_corruption_not_aborts() {
        let root = temp_root("claims");
        let spec = CheckpointSpec::new(&root, "run-5");
        RunCheckpoint::create(&spec, &manifest("run-5")).unwrap();
        let rspec = CheckpointSpec::resume(&root, "run-5");
        let path = wave_path(&spec.dir(), 0);
        for claimed in [3, 1 << 40, (1 << 62) - 1] {
            craft_wave(&spec.dir(), claimed);
            match RunCheckpoint::resume(&rspec, &manifest("run-5")) {
                Err(FlowError::Checkpoint(msg)) => {
                    assert!(msg.contains(&path.display().to_string()), "{msg}")
                }
                other => panic!("a claim of {claimed} rows must fail the load, got {other:?}"),
            }
            let artifacts = crate::fsck::scan_tree(&root).unwrap();
            let wave = artifacts.iter().find(|a| a.path == path).unwrap();
            assert!(wave.verdict.is_corrupt(), "{:?}", wave.verdict);
        }
        craft_wave(&spec.dir(), 1);
        let resumed = RunCheckpoint::resume(&rspec, &manifest("run-5")).unwrap();
        assert_eq!(resumed.take_restored(0).unwrap().rows, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn create_clears_stale_waves_from_a_prior_identity() {
        let root = temp_root("recreate");
        let spec = CheckpointSpec::new(&root, "run-4");
        let ck = RunCheckpoint::create(&spec, &manifest("run-4")).unwrap();
        ck.persist_wave(0, 0, &[random_table(10, 2, 1)]).unwrap();
        // A fresh create under the same id must not leave the old wave
        // behind — a later resume would restore a wave the new manifest
        // never produced.
        RunCheckpoint::create(&spec, &manifest("run-4")).unwrap();
        let resumed =
            RunCheckpoint::resume(&CheckpointSpec::resume(&root, "run-4"), &manifest("run-4"))
                .unwrap();
        assert_eq!(resumed.restored_pending(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        assert_eq!(plan_fingerprint("Scan"), plan_fingerprint("Scan"));
        assert_ne!(plan_fingerprint("Scan"), plan_fingerprint("Scan\nFilter"));
        assert_eq!(config_fingerprint(8), config_fingerprint(8));
        assert_ne!(config_fingerprint(8), config_fingerprint(4));
        let mut datasets = HashMap::new();
        datasets.insert(
            "t".to_owned(),
            PartitionedTable::split(random_table(100, 3, 5), 4).unwrap(),
        );
        let scanned = vec!["t".to_owned()];
        let a = input_fingerprint(&datasets, &scanned).unwrap();
        assert_eq!(a, input_fingerprint(&datasets, &scanned).unwrap());
        datasets.insert(
            "t".to_owned(),
            PartitionedTable::split(random_table(100, 3, 6), 4).unwrap(),
        );
        assert_ne!(a, input_fingerprint(&datasets, &scanned).unwrap());
        assert!(matches!(
            input_fingerprint(&datasets, &["missing".to_owned()]),
            Err(FlowError::UnknownDataset(_))
        ));
    }

    #[test]
    fn config_fingerprint_matches_checkpoints_already_on_disk() {
        // The default engine config's fingerprint as every earlier manifest
        // recorded it: a change here makes existing checkpoints refuse to
        // resume.
        assert_eq!(config_fingerprint(4), "7a99b88f5b1dbe7a");
    }
}
