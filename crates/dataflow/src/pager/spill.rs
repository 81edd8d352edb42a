//! The spill manager: over-budget runs become page files, read back and
//! merged when their partition finalises.
//!
//! One [`SpillManager`] serves one run. Its directory is derived from the
//! run's checkpoint directory when checkpointing is on (`<ckpt>/spill`),
//! or a process-unique temp directory otherwise; constructing a manager
//! **sweeps** any stale `*.pages` / `*.tmp` files left by a killed
//! predecessor, and dropping it removes the directory outright — spill
//! files are scratch, never a durability surface. Each spilled run is
//! written through the shared [`BufferPool`], flushed, and published with
//! the temp-write + fsync + rename + dir-fsync discipline, so a kill at
//! any instant leaves either a complete published run (swept on the next
//! start) or a `.tmp` orphan (also swept) — never a readable half-file.
//!
//! A run is stored lane by lane: each column's cells, encoded with the
//! cell codec checkpointing uses ([`crate::codec`]), fill an extent of
//! consecutive pages. Reading it back decodes each extent straight into a
//! column, so a spilled run's cells are byte-identical to a checkpointed
//! partition's by construction and no row is ever rebuilt.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use toreador_store::io::io_for;

use toreador_data::table::Table;

use crate::codec::{decode_lane, encode_lane, lanes};
use crate::error::{FlowError, Result};
use crate::trace::TraceJournal;

use super::file::{LaneExtent, PageDirectory, PageFile, PAGE_PAYLOAD};
use super::pool::{BufferPool, FileId, PoolStats};

/// Operator family tags carried by `SpillStarted` / `SpillMerged` events.
pub const SPILL_OP_SHUFFLE: &str = "shuffle";
pub const SPILL_OP_AGGREGATE: &str = "aggregate";

/// A spilled run: the ticket [`SpillManager::read_back`] redeems.
#[derive(Debug)]
pub struct SpillHandle {
    file: FileId,
    path: PathBuf,
    rows: usize,
    bytes: u64,
}

impl SpillHandle {
    /// Rows in the spilled run.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Encoded payload bytes of the spilled run (excluding page framing
    /// and padding) — the number the shuffle's `bytes_moved` accounting
    /// and the merge trace events report.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Owns one run's spill directory, page files and buffer pool.
#[derive(Debug)]
pub struct SpillManager {
    budget: u64,
    dir: PathBuf,
    pool: BufferPool,
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
            pool: BufferPool::new(budget),
            seq: AtomicU64::new(0),
        }
    }

    /// The memory budget operators compare their staging size against.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The spill directory (created lazily on first spill).
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The shared buffer pool (for residency and hit/fault statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Pool counters: hits, faults, evictions, peak residency.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Spill one run: encode `t` lane by lane into a fresh page file
    /// through the pool, then flush and publish it. The caller records the
    /// `SpillStarted` event — it knows which operator and partition the
    /// run belongs to.
    pub fn spill_table(&self, t: &Table, journal: &TraceJournal) -> Result<SpillHandle> {
        io_for(&self.dir).create_dir_all(&self.dir).map_err(|e| {
            FlowError::Spill(format!("create spill dir {}: {e}", self.dir.display()))
        })?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("run-{seq:06}.pages"));
        let file = Arc::new(PageFile::create(&path)?);
        let id = self.pool.register(file.clone());
        // Any failure past this point must unregister the file from the
        // pool and remove its `.tmp` — a failed spill (ENOSPC, EIO) leaves
        // no orphan for the next sweep and no dangling pool entry.
        let payload_bytes = self
            .write_run(t, id, journal)
            .and_then(|bytes| file.finalize().map(|_| bytes))
            .map_err(|e| {
                self.pool.drop_file(id);
                file.discard();
                e
            })?;
        Ok(SpillHandle {
            file: id,
            path,
            rows: t.num_rows(),
            bytes: payload_bytes,
        })
    }

    /// Encode `t` lane by lane into pages of file `id`, flush, and return
    /// the total encoded payload bytes. Split out of
    /// [`SpillManager::spill_table`] so its caller can clean up the pool
    /// registration and temp file on any error.
    fn write_run(&self, t: &Table, id: FileId, journal: &TraceJournal) -> Result<u64> {
        let rows = t.num_rows();
        let table_lanes = lanes(t);
        let mut extents = Vec::with_capacity(table_lanes.len());
        let mut next_page: u32 = 1; // page 0 is the directory
        let mut payload_bytes = 0u64;
        for lane in &table_lanes {
            let mut buf = Vec::new();
            encode_lane(lane, rows, &mut buf);
            let bytes = buf.len() as u64;
            let first_page = next_page;
            let mut pages = 0u32;
            for chunk in buf.chunks(PAGE_PAYLOAD) {
                self.pool.write(id, next_page, chunk.to_vec(), journal)?;
                next_page += 1;
                pages += 1;
            }
            payload_bytes += bytes;
            extents.push(LaneExtent {
                first_page,
                pages,
                bytes,
            });
        }
        let directory = PageDirectory {
            rows,
            schema: t.schema().clone(),
            lanes: extents,
        };
        self.pool.write(id, 0, directory.to_payload()?, journal)?;
        self.pool.flush_file(id)?;
        Ok(payload_bytes)
    }

    /// Read a spilled run back: pin the directory, reassemble each lane
    /// from its extent pages and decode it straight into a column — in the
    /// exact row order it was spilled with.
    pub fn read_back(&self, handle: &SpillHandle, journal: &TraceJournal) -> Result<Table> {
        let directory = {
            let page = self.pool.pin(handle.file, 0, journal)?;
            PageDirectory::from_payload(&page)?
        };
        let corrupt = |what: String| {
            FlowError::Spill(format!(
                "corrupt page file {}: {what}",
                handle.path.display()
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
                let page = self.pool.pin(handle.file, extent.first_page + p, journal)?;
                buf.extend_from_slice(&page);
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

    /// A spilled run was merged into its partition's output: drop its
    /// frames and delete its file — spill files never outlive their merge.
    pub fn release(&self, handle: SpillHandle) {
        self.pool.drop_file(handle.file);
        let _ = io_for(&handle.path).remove_file(&handle.path);
    }
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

    use toreador_data::generate;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("toreador-pager-spill-{}-{tag}", std::process::id()))
    }

    #[test]
    fn spill_and_read_back_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let t = generate::clickstream(700, 13);
        let manager = SpillManager::new(1 << 20, dir.clone());
        let journal = TraceJournal::new();
        let handle = manager.spill_table(&t, &journal).unwrap();
        assert!(handle.bytes() > 0);
        assert_eq!(handle.rows(), 700);
        let back = manager.read_back(&handle, &journal).unwrap();
        assert_eq!(back, t, "round trip must be value- and order-identical");
        // The published file exists, with no temp residue.
        assert!(handle.path.exists());
        assert!(!handle.path.with_extension("pages.tmp").exists());
        manager.release(handle);
        drop(manager);
        assert!(!dir.exists(), "drop removes the spill dir");
    }

    #[test]
    fn release_deletes_the_run_file() {
        let dir = temp_dir("release");
        let t = generate::clickstream(50, 5);
        let manager = SpillManager::new(1 << 20, dir.clone());
        let journal = TraceJournal::new();
        let handle = manager.spill_table(&t, &journal).unwrap();
        let path = handle.path.clone();
        assert!(path.exists());
        manager.release(handle);
        assert!(!path.exists(), "release must delete the spill file");
    }

    #[test]
    fn tiny_pool_still_round_trips_with_bounded_residency() {
        let dir = temp_dir("tiny");
        // Budget zero: the pool floors at one 32 KiB frame, so a
        // multi-page run must churn through evictions and faults.
        let t = generate::clickstream(2_000, 21);
        let manager = SpillManager::new(0, dir.clone());
        let journal = TraceJournal::new();
        let handle = manager.spill_table(&t, &journal).unwrap();
        let back = manager.read_back(&handle, &journal).unwrap();
        assert_eq!(back, t);
        let stats = manager.pool_stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.faults > 0, "{stats:?}");
        assert_eq!(
            stats.peak_bytes,
            manager.pool().capacity_bytes(),
            "one-frame pool peaks at exactly one frame"
        );
        // The journalled invariant the acceptance criteria read: resident
        // pool never exceeded its capacity at any fault or eviction.
        let trace = journal.snapshot();
        assert!(trace.spill_totals().peak_pool_bytes <= manager.pool().capacity_bytes());
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
