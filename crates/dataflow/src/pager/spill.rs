//! The spill manager: over-budget runs become page files, read back and
//! merged when their partition finalises.
//!
//! One [`SpillManager`] serves one run. Its directory is derived from the
//! run's checkpoint directory when checkpointing is on (`<ckpt>/spill`),
//! or a process-unique temp directory otherwise; constructing a manager
//! **sweeps** any stale `*.pages` / `*.tmp` files left by a killed
//! predecessor, and dropping it removes the directory outright — spill
//! files are scratch, never a durability surface. Each spilled run is
//! written page by page straight into its [`PageFile`] and published with
//! the temp-write + fsync + rename + dir-fsync discipline, so a kill at
//! any instant leaves either a complete published run (swept on the next
//! start) or a `.tmp` orphan (also swept) — never a readable half-file.
//!
//! A run is stored lane by lane: each column's cells, encoded with the
//! cell codec checkpointing uses ([`crate::codec`]), fill an extent of
//! consecutive pages. Reading it back decodes each extent straight into a
//! column, so a spilled run's cells are byte-identical to a checkpointed
//! partition's by construction and no row is ever rebuilt.
//!
//! A run is written and read whole: one lane's encoded bytes, and the
//! whole run's table, are resident while it moves. What the budget bounds
//! is what the operators stage before they spill, not the spill I/O.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use toreador_store::io::io_for;

use toreador_data::table::Table;

use crate::codec::{decode_lane, encode_lane, lanes};
use crate::error::{FlowError, Result};

use super::file::{LaneExtent, PageDirectory, PageFile, PAGE_PAYLOAD};

/// Operator family tags carried by `SpillStarted` / `SpillMerged` events.
pub const SPILL_OP_SHUFFLE: &str = "shuffle";
pub const SPILL_OP_AGGREGATE: &str = "aggregate";

/// A spilled run: the ticket [`SpillManager::read_back`] redeems. It holds
/// the run's open page file, whose descriptor stays valid across the
/// publish rename.
#[derive(Debug)]
pub struct SpillHandle {
    file: PageFile,
    bytes: u64,
}

impl SpillHandle {
    /// Encoded payload bytes of the spilled run (excluding page framing
    /// and padding) — the number the shuffle's `bytes_moved` accounting
    /// and the merge trace events report.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Owns one run's spill directory and page files.
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

    /// Spill one run: encode `t` lane by lane into a fresh page file, then
    /// publish it. The caller records the `SpillStarted` event — it knows
    /// which operator and partition the run belongs to.
    pub fn spill_table(&self, t: &Table) -> Result<SpillHandle> {
        io_for(&self.dir).create_dir_all(&self.dir).map_err(|e| {
            FlowError::Spill(format!("create spill dir {}: {e}", self.dir.display()))
        })?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let file = PageFile::create(&self.dir.join(format!("run-{seq:06}.pages")))?;
        // Any failure past this point must remove the `.tmp` — a failed
        // spill (ENOSPC, EIO) leaves no orphan for the next sweep.
        let bytes = write_run(&file, t)
            .and_then(|bytes| file.finalize().map(|_| bytes))
            .map_err(|e| {
                file.discard();
                e
            })?;
        Ok(SpillHandle { file, bytes })
    }

    /// Read a spilled run back: read the directory page, reassemble each
    /// lane from its extent pages and decode it straight into a column —
    /// in the exact row order it was spilled with.
    pub fn read_back(&self, handle: &SpillHandle) -> Result<Table> {
        let file = &handle.file;
        let directory = PageDirectory::from_payload(&file.read_page(0)?)?;
        let corrupt = |what: String| {
            FlowError::Spill(format!(
                "corrupt page file {}: {what}",
                file.path().display()
            ))
        };
        let fields = directory.schema.fields();
        if directory.lanes.len() != fields.len() {
            return Err(corrupt(format!(
                "directory lists {} lanes for {} fields",
                directory.lanes.len(),
                fields.len()
            )));
        }
        let mut columns = Vec::with_capacity(fields.len());
        for (extent, field) in directory.lanes.iter().zip(fields) {
            // The directory is untrusted: size the buffer by the pages
            // actually read, not by the byte count it claims.
            let cap = extent.bytes.min(extent.pages as u64 * PAGE_PAYLOAD as u64);
            let mut buf = Vec::with_capacity(cap as usize);
            for p in 0..extent.pages {
                buf.extend_from_slice(&file.read_page(extent.first_page + p)?);
            }
            if buf.len() as u64 != extent.bytes {
                return Err(corrupt(format!(
                    "lane extent carries {} bytes, directory says {}",
                    buf.len(),
                    extent.bytes
                )));
            }
            columns.push(decode_lane(field, directory.rows, &buf)?);
        }
        Ok(Table::new(directory.schema, columns)?)
    }

    /// A spilled run was merged into its partition's output: close and
    /// delete its file — spill files never outlive their merge.
    pub fn release(&self, handle: SpillHandle) {
        let path = handle.file.path().to_owned();
        drop(handle);
        let _ = io_for(&path).remove_file(&path);
    }
}

/// Encode `t` lane by lane into the data pages of `file`, then write the
/// directory page, and return the total encoded payload bytes.
fn write_run(file: &PageFile, t: &Table) -> Result<u64> {
    let rows = t.num_rows();
    let table_lanes = lanes(t);
    let mut extents = Vec::with_capacity(table_lanes.len());
    let mut next_page: u32 = 1; // page 0 is the directory
    let mut payload_bytes = 0u64;
    let mut buf = Vec::new();
    for lane in &table_lanes {
        buf.clear();
        encode_lane(lane, rows, &mut buf);
        let first_page = next_page;
        for chunk in buf.chunks(PAGE_PAYLOAD) {
            file.write_page(next_page, chunk)?;
            next_page += 1;
        }
        let bytes = buf.len() as u64;
        payload_bytes += bytes;
        extents.push(LaneExtent {
            first_page,
            pages: next_page - first_page,
            bytes,
        });
    }
    let directory = PageDirectory {
        rows,
        schema: t.schema().clone(),
        lanes: extents,
    };
    file.write_page(0, &directory.to_payload()?)?;
    Ok(payload_bytes)
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = io_for(&self.dir).remove_dir_all(&self.dir);
    }
}

/// Remove stale spill artifacts (`*.pages` and `*.tmp`) from `dir`. Errors
/// are ignored: a missing directory simply means a clean start, and a
/// sweep failure surfaces later as a create/write failure with context.
fn sweep(dir: &std::path::Path) {
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
    use std::path::Path;

    use toreador_data::generate;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("toreador-pager-spill-{}-{tag}", std::process::id()))
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
        let back = manager.read_back(&handle).unwrap();
        assert_eq!(back, t, "round trip must be value- and order-identical");
        // The published file exists, with no temp residue.
        assert!(handle.file.path().exists());
        assert!(!has_tmp(&dir));
        manager.release(handle);
        drop(manager);
        assert!(!dir.exists(), "drop removes the spill dir");
    }

    #[test]
    fn release_deletes_the_run_file() {
        let dir = temp_dir("release");
        let t = generate::clickstream(50, 5);
        let manager = SpillManager::new(1 << 20, dir.clone());
        let handle = manager.spill_table(&t).unwrap();
        let path = handle.file.path().to_owned();
        assert!(path.exists());
        manager.release(handle);
        assert!(!path.exists(), "release must delete the spill file");
    }

    #[test]
    fn multi_page_run_round_trips_under_a_zero_budget() {
        let dir = temp_dir("multipage");
        let t = generate::clickstream(5_000, 21);
        let manager = SpillManager::new(0, dir.clone());
        let handle = manager.spill_table(&t).unwrap();
        // 5 000 Int cells are 45 000 bytes: lanes span several pages, so
        // extents and page order matter.
        let directory = PageDirectory::from_payload(&handle.file.read_page(0).unwrap()).unwrap();
        assert!(directory.lanes.iter().any(|l| l.pages > 1), "{directory:?}");
        assert_eq!(manager.read_back(&handle).unwrap(), t);
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
}
