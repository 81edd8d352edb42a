//! Out-of-core spilling: over-budget runs become spill files, read back
//! and merged when their partition finalises.
//!
//! The TOREADOR paper scouts campaigns over datasets that do not fit in
//! RAM; this module is the engine's answer. The memory budget threads in
//! from `ExecConfig::memory_budget_bytes`: the shuffle compares its
//! per-target staged bytes against [`SpillManager::budget_bytes`] and
//! spills whole runs. That staging is the engine's one spill point, and
//! the budget bounds it and nothing else: a spilled run is written and
//! read back whole, so the run itself is resident on both sides of the
//! disk.
//!
//! A spill file (`run-NNNNNN.pages`) is the magic `TORSPIL1`, then a CRC
//! frame holding a JSON header (`rows`, `schema`), then one CRC frame per
//! column holding that column's cells in the lane layout
//! ([`crate::codec::encode_lane`]). The frames and cells are the ones
//! checkpoint waves use ([`crate::codec`]), so a spilled run's cells are
//! byte-identical to a checkpointed partition's by construction, and
//! reading a run back decodes each frame straight into a column.
//!
//! One [`SpillManager`] serves one run. Its directory is derived from the
//! run's checkpoint directory when checkpointing is on (`<ckpt>/spill`),
//! or a process-unique temp directory otherwise; constructing a manager
//! **sweeps** any stale `*.pages` / `*.tmp` files left by a killed
//! predecessor, and dropping it removes the directory outright — spill
//! files are scratch, never a durability surface. Each run is published
//! with [`crate::codec::write_atomic`] (temp-write + fsync + rename +
//! dir-fsync), so a kill at any instant leaves either a complete published
//! run or a `.tmp` orphan — both swept on the next start — never a
//! readable half-file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_store::io::io_for;

use crate::codec::{decode_lane, encode_lane, lanes, push_frame, take_frame, write_atomic};
use crate::error::{FlowError, Result};

/// The operator family tag carried by `SpillStarted` / `SpillMerged`
/// events: the shuffle's staging is the one operator that spills.
pub const SPILL_OP_SHUFFLE: &str = "shuffle";

/// Leading bytes of every spill file.
const SPILL_MAGIC: &[u8; 8] = b"TORSPIL1";

/// The header frame: everything besides the lanes needed to rebuild the
/// table.
#[derive(Serialize, Deserialize)]
struct SpillHeader {
    rows: usize,
    schema: Schema,
}

/// A spilled run: the ticket [`SpillManager::read_back`] redeems.
#[derive(Debug)]
pub struct SpillHandle {
    path: PathBuf,
    bytes: u64,
}

impl SpillHandle {
    /// Encoded lane bytes of the spilled run (excluding the magic, header
    /// and framing) — the number the shuffle's `bytes_moved` accounting
    /// and the merge trace events report.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Owns one run's spill directory and spill files.
#[derive(Debug)]
pub struct SpillManager {
    budget: u64,
    dir: PathBuf,
    seq: AtomicU64,
}

impl SpillManager {
    /// A manager spilling into `dir` under `budget` bytes. The directory
    /// is not created until the first spill; stale spill files from a
    /// killed predecessor are swept immediately.
    pub fn new(budget: u64, dir: PathBuf) -> SpillManager {
        sweep(&dir);
        SpillManager {
            budget,
            dir,
            seq: AtomicU64::new(0),
        }
    }

    /// The memory budget operators compare their staging size against.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Spill one run: encode `t` into one framed file and publish it. The
    /// caller records the `SpillStarted` event — it knows which operator
    /// and partition the run belongs to.
    pub fn spill_table(&self, t: &Table) -> Result<SpillHandle> {
        io_for(&self.dir).create_dir_all(&self.dir).map_err(|e| {
            FlowError::Spill(format!("create spill dir {}: {e}", self.dir.display()))
        })?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("run-{seq:06}.pages"));
        let (file, bytes) = encode_run(t)?;
        write_atomic(&path, &file).map_err(FlowError::Spill)?;
        Ok(SpillHandle { path, bytes })
    }

    /// Read a spilled run back from its published file, decoding each
    /// lane frame straight into a column — in the exact row order it was
    /// spilled with. A run is read once: a successful read deletes its
    /// file, so spill files never outlive their merge; a failed one leaves
    /// it for the manager's drop.
    pub fn read_back(&self, handle: SpillHandle) -> Result<Table> {
        let path = &handle.path;
        let io = io_for(path);
        let raw = io
            .read(path)
            .map_err(|e| FlowError::Spill(format!("read {}: {e}", path.display())))?;
        let t = decode_run(path, &raw)?;
        let _ = io.remove_file(path);
        Ok(t)
    }
}

/// Encode `t` as a spill file's bytes, and count its encoded lane bytes.
fn encode_run(t: &Table) -> Result<(Vec<u8>, u64)> {
    let header = SpillHeader {
        rows: t.num_rows(),
        schema: t.schema().clone(),
    };
    let json = serde_json::to_string(&header)
        .map_err(|e| FlowError::Spill(format!("encode spill header: {e}")))?;
    let mut file = SPILL_MAGIC.to_vec();
    push_frame(&mut file, json.as_bytes());
    let mut lane_bytes = 0;
    let mut buf = Vec::new();
    for lane in &lanes(t) {
        buf.clear();
        encode_lane(lane, header.rows, &mut buf);
        lane_bytes += buf.len() as u64;
        push_frame(&mut file, &buf);
    }
    Ok((file, lane_bytes))
}

/// Decode the bytes of the spill file at `path` — the inverse of
/// [`encode_run`]. Damage to the magic, header or framing is a
/// [`FlowError::Spill`] naming the file and what broke; a CRC-valid frame
/// whose cells do not fit its field is the cell decoder's
/// [`FlowError::Codec`].
fn decode_run(path: &Path, raw: &[u8]) -> Result<Table> {
    let corrupt =
        |what: String| FlowError::Spill(format!("corrupt spill file {}: {what}", path.display()));
    let mut rest = raw
        .strip_prefix(SPILL_MAGIC)
        .ok_or_else(|| corrupt("bad magic".to_owned()))?;
    let mut frame =
        |what: &str| take_frame(&mut rest).map_err(|e| corrupt(format!("{what} {}", e.describe())));
    let json = std::str::from_utf8(frame("header")?)
        .map_err(|e| corrupt(format!("malformed header: {e}")))?;
    let header: SpillHeader =
        serde_json::from_str(json).map_err(|e| corrupt(format!("malformed header: {e}")))?;
    let mut columns = Vec::with_capacity(header.schema.fields().len());
    for field in header.schema.fields() {
        let lane = frame(&format!("lane {:?}", field.name))?;
        columns.push(decode_lane(field, header.rows, lane)?);
    }
    if !rest.is_empty() {
        return Err(corrupt("trailing bytes after the last lane".to_owned()));
    }
    Ok(Table::new(header.schema, columns)?)
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = io_for(&self.dir).remove_dir_all(&self.dir);
    }
}

/// Remove stale spill artifacts (`*.pages` and `*.tmp`) from `dir`. Errors
/// are ignored: a missing directory simply means a clean start, and a
/// sweep failure surfaces later as a create/write failure with context.
fn sweep(dir: &Path) {
    let io = io_for(dir);
    let Ok(entries) = io.list_dir(dir) else {
        return;
    };
    for path in entries {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if name.ends_with(".pages") || name.ends_with(".tmp") {
            let _ = io.remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::fs;

    use toreador_data::generate;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("toreador-spill-test-{}-{tag}", std::process::id()))
    }

    fn has_tmp(dir: &Path) -> bool {
        fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
    }

    #[test]
    fn spill_and_read_back_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let t = generate::clickstream(700, 13);
        let manager = SpillManager::new(1 << 20, dir.clone());
        let handle = manager.spill_table(&t).unwrap();
        assert!(handle.bytes() > 0);
        // The published file exists, with no temp residue.
        assert!(handle.path.exists());
        assert!(!has_tmp(&dir));
        let back = manager.read_back(handle).unwrap();
        assert_eq!(back, t, "round trip must be value- and order-identical");
        drop(manager);
        assert!(!dir.exists(), "drop removes the spill dir");
    }

    #[test]
    fn read_back_deletes_the_run_file() {
        let dir = temp_dir("read-once");
        let t = generate::clickstream(50, 5);
        let manager = SpillManager::new(1 << 20, dir.clone());
        let handle = manager.spill_table(&t).unwrap();
        let path = handle.path.clone();
        assert!(path.exists());
        manager.read_back(handle).unwrap();
        assert!(!path.exists(), "a read run's file is deleted");
    }

    #[test]
    fn multi_page_run_round_trips_under_a_zero_budget() {
        let dir = temp_dir("multipage");
        let t = generate::clickstream(5_000, 21);
        let manager = SpillManager::new(0, dir.clone());
        let handle = manager.spill_table(&t).unwrap();
        assert_eq!(manager.read_back(handle).unwrap(), t);
        assert!(!has_tmp(&dir));
        drop(manager);
        assert!(!dir.exists());
    }

    #[test]
    fn new_manager_sweeps_stale_spill_files() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("run-000007.pages"), b"stale").unwrap();
        fs::write(dir.join("run-000008.pages.tmp"), b"orphan").unwrap();
        fs::write(dir.join("KEEP.txt"), b"unrelated").unwrap();
        let manager = SpillManager::new(1 << 20, dir.clone());
        assert!(!dir.join("run-000007.pages").exists(), "stale run swept");
        assert!(!dir.join("run-000008.pages.tmp").exists(), "orphan swept");
        assert!(dir.join("KEEP.txt").exists(), "unrelated files untouched");
        drop(manager);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_spill_files_are_classified_spill_errors() {
        let dir = temp_dir("damage");
        let manager = SpillManager::new(0, dir.clone());
        let handle = manager.spill_table(&generate::clickstream(200, 3)).unwrap();
        let raw = fs::read(&handle.path).unwrap();
        let mut bad_header = SPILL_MAGIC.to_vec();
        push_frame(&mut bad_header, b"not json");
        let cases: [(Vec<u8>, &str); 4] = [
            (b"NOTMAGIC".to_vec(), "bad magic"),
            (raw[..raw.len() - 1].to_vec(), "truncated frame payload"),
            ([&raw[..], b"x"].concat(), "trailing bytes"),
            (bad_header, "malformed header"),
        ];
        for (bytes, want) in cases {
            fs::write(&handle.path, bytes).unwrap();
            let again = SpillHandle {
                path: handle.path.clone(),
                bytes: handle.bytes,
            };
            match manager.read_back(again) {
                Err(FlowError::Spill(msg)) => {
                    assert!(msg.contains("corrupt spill file"), "{msg}");
                    assert!(msg.contains(want), "{msg} vs {want}");
                }
                other => panic!("{want}: got {other:?}"),
            }
            assert!(handle.path.exists(), "a failed read leaves the file");
        }
        drop(manager);
        assert!(!dir.exists(), "drop removes what a failed read left");
    }
}
