//! The durable log: segmented write-ahead log + snapshots + recovery.
//!
//! ## On-disk layout
//!
//! A log lives in one directory:
//!
//! ```text
//! store/
//!   wal-00000000000000000001.log     segment: records with LSN >= 1
//!   wal-00000000000000000042.log     segment: records with LSN >= 42
//!   snapshot-00000000000000000041.snap   state covering LSN <= 41
//! ```
//!
//! Every appended record gets a dense **log sequence number** (LSN,
//! starting at 1). A segment file holds a contiguous LSN range; its first
//! LSN is in both the filename and the header, and records inside are
//! implicitly numbered from it. Segments rotate once they exceed
//! [`LogConfig::segment_bytes`].
//!
//! A **snapshot** is the application state after applying every record up
//! to its covered LSN. Snapshots are written to a `.tmp` file, fsynced,
//! then renamed — so a crash mid-snapshot leaves the previous snapshot and
//! the full WAL intact. After a successful snapshot the covered segments
//! are deleted (compaction).
//!
//! ## Record framing
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! ## Recovery invariants
//!
//! * Replay = newest valid snapshot, then every WAL record with a higher
//!   LSN, in LSN order.
//! * A **torn tail** — a final record with missing bytes or a failing
//!   checksum, the signature of a crash mid-append — is truncated away,
//!   not an error. Everything before it is returned intact.
//! * Damage anywhere *else* (bad magic, checksum failure before the tail,
//!   a gap in the segment chain) is [`StoreError::Corrupt`]: recovery
//!   refuses to silently drop interior history.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{storage, Result, StoreError};
use crate::io::{io_for, StorageFile, StorageIo};
use crate::lock::DirLock;

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"TWALSEG1";
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"TSNAPSH1";
pub(crate) const FORMAT_VERSION: u32 = 1;
/// magic + version + first/covered LSN.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8;
/// len + crc.
pub(crate) const FRAME_HEADER_LEN: usize = 4 + 4;

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes. Rotation happens *before* an append, so a segment exceeds
    /// the threshold by at most one record.
    pub segment_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`DurableLog::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Payload of the newest valid snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// LSN covered by that snapshot (0 = none).
    pub snapshot_lsn: u64,
    /// Every durable record after the snapshot: `(lsn, payload)`, dense
    /// and ascending.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes truncated from a torn tail (0 = clean shutdown).
    pub torn_bytes: u64,
}

/// An append-only, checksummed, segmented log with snapshot compaction.
#[derive(Debug)]
pub struct DurableLog {
    dir: PathBuf,
    cfg: LogConfig,
    /// The filesystem backend, resolved once at open (see [`crate::io`]).
    io: Arc<dyn StorageIo>,
    /// Current segment, open for appending.
    file: Box<dyn StorageFile>,
    current_path: PathBuf,
    current_records: u64,
    current_bytes: u64,
    /// Sealed (no longer written) segments, kept until the next snapshot.
    sealed: Vec<PathBuf>,
    /// Nothing has been appended since the last successful sync, so a
    /// snapshot has no WAL bytes to force out first.
    synced: bool,
    next_lsn: u64,
    snapshot_lsn: u64,
    snapshot_path: Option<PathBuf>,
    /// Exclusive ownership of the directory; released when the log drops.
    _lock: DirLock,
}

/// Point-in-time observability numbers for tests, stats and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStats {
    /// Segment files currently on disk (sealed + current).
    pub segments: usize,
    /// LSN covered by the newest snapshot (0 = none).
    pub snapshot_lsn: u64,
    /// LSN of the last appended record (0 = empty log).
    pub last_lsn: u64,
    /// Bytes in the current segment (header included).
    pub current_segment_bytes: u64,
}

impl DurableLog {
    /// Open (or create) the log in `dir`, recovering durable state.
    pub fn open(dir: impl AsRef<Path>, cfg: LogConfig) -> Result<(DurableLog, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        let io = io_for(&dir);
        io.create_dir_all(&dir)
            .map_err(|e| storage("create store dir", &dir, e))?;

        // One process per store directory: take the advisory lock before
        // reading or writing any segment.
        let lock = DirLock::acquire(&dir)?;

        // Inventory the directory. Leftover `.tmp` files are incomplete
        // snapshot writes from a crash — discard them.
        let mut segment_firsts: Vec<u64> = Vec::new();
        let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
        for path in io
            .list_dir(&dir)
            .map_err(|e| storage("list store dir", &dir, e))?
        {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                let _ = io.remove_file(&path);
            } else if let Some(lsn) = parse_name(&name, "wal-", ".log") {
                segment_firsts.push(lsn);
            } else if let Some(lsn) = parse_name(&name, "snapshot-", ".snap") {
                snapshots.push((lsn, path));
            }
        }

        // Newest readable snapshot wins; torn snapshots are deleted, and
        // older superseded snapshots are compacted away.
        snapshots.sort_by_key(|(lsn, _)| std::cmp::Reverse(*lsn));
        let mut snapshot: Option<Vec<u8>> = None;
        let mut snapshot_lsn = 0u64;
        let mut snapshot_path = None;
        for (lsn, path) in snapshots {
            if snapshot.is_some() {
                io.remove_file(&path)
                    .map_err(|e| storage("remove superseded snapshot", &path, e))?;
            } else if let Some(payload) = read_snapshot(io.as_ref(), &path, lsn)? {
                snapshot = Some(payload);
                snapshot_lsn = lsn;
                snapshot_path = Some(path);
            } else {
                io.remove_file(&path)
                    .map_err(|e| storage("remove torn snapshot", &path, e))?;
            }
        }

        // Drop segments the snapshot fully covers: segment i spans
        // [first_i, first_{i+1}); if that whole range is <= snapshot_lsn
        // it has nothing to replay. (Normally compaction already deleted
        // them — this handles a crash between snapshot and compaction.)
        segment_firsts.sort_unstable();
        let mut remaining: Vec<u64> = Vec::new();
        for (i, &first) in segment_firsts.iter().enumerate() {
            let covered = segment_firsts
                .get(i + 1)
                .is_some_and(|&next| next <= snapshot_lsn + 1);
            if covered {
                let path = segment_path(&dir, first);
                io.remove_file(&path)
                    .map_err(|e| storage("remove covered segment", &path, e))?;
            } else {
                remaining.push(first);
            }
        }

        // Replay the chain.
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut torn_bytes = 0u64;
        let mut expected_first = snapshot_lsn + 1;
        let mut tail: Option<(PathBuf, u64, u64, u64)> = None; // path, first, records, good_bytes
        let last_index = remaining.len().wrapping_sub(1);
        for (i, &first) in remaining.iter().enumerate() {
            let path = segment_path(&dir, first);
            if first > expected_first {
                return Err(StoreError::Corrupt(format!(
                    "gap in wal chain: expected a segment covering lsn {expected_first}, \
                     next segment starts at {first}"
                )));
            }
            let is_last = i == last_index;
            let scan = read_segment(io.as_ref(), &path, first, is_last)?;
            let Some(scan) = scan else {
                // Torn header on the final, freshly-created segment: it
                // holds no durable records. Remove it; a fresh segment is
                // created below.
                torn_bytes += io.file_len(&path).unwrap_or(0);
                io.remove_file(&path)
                    .map_err(|e| storage("remove torn segment", &path, e))?;
                continue;
            };
            torn_bytes += scan.torn_bytes;
            for (k, payload) in scan.records.into_iter().enumerate() {
                let lsn = first + k as u64;
                if lsn > snapshot_lsn {
                    records.push((lsn, payload));
                }
            }
            expected_first = first + scan.record_count;
            if is_last {
                tail = Some((path, first, scan.record_count, scan.good_bytes));
            } else {
                // Sealed segments stay around until the next snapshot.
            }
        }

        let next_lsn = expected_first;
        let mut sealed: Vec<PathBuf> = Vec::new();
        for &first in &remaining {
            let path = segment_path(&dir, first);
            if tail.as_ref().is_some_and(|(tp, ..)| *tp == path) || !io.exists(&path) {
                continue;
            }
            sealed.push(path);
        }

        // Reopen the tail segment for appending (truncating any torn
        // bytes), or start a fresh one.
        let (file, current_path, current_records, current_bytes) = match tail {
            Some((path, _, record_count, good_bytes)) => {
                let file = io
                    .open_rw(&path)
                    .map_err(|e| storage("open wal tail", &path, e))?;
                let len = file.len().map_err(|e| storage("stat wal tail", &path, e))?;
                if len > good_bytes {
                    file.set_len(good_bytes)
                        .map_err(|e| storage("truncate torn tail", &path, e))?;
                    file.sync_all()
                        .map_err(|e| storage("fsync wal tail", &path, e))?;
                }
                (file, path, record_count, good_bytes)
            }
            None => {
                let (file, path) = create_durable_segment(io.as_ref(), &dir, next_lsn)?;
                (file, path, 0, HEADER_LEN as u64)
            }
        };

        let log = DurableLog {
            dir,
            cfg,
            io,
            file,
            current_path,
            current_records,
            current_bytes,
            sealed,
            synced: true,
            next_lsn,
            snapshot_lsn,
            snapshot_path,
            _lock: lock,
        };
        let recovery = Recovery {
            snapshot,
            snapshot_lsn,
            records,
            torn_bytes,
        };
        Ok((log, recovery))
    }

    /// Append one record; returns its LSN. The bytes reach the kernel
    /// before this returns; call [`DurableLog::sync`] to force them to
    /// stable storage.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.current_bytes >= self.cfg.segment_bytes && self.current_records > 0 {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.synced = false;
        self.file
            .write_all_at(self.current_bytes, &frame)
            .map_err(|e| storage("append wal record", &self.current_path, e))?;
        self.current_bytes += frame.len() as u64;
        self.current_records += 1;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| storage("fsync wal", &self.current_path, e))?;
        self.synced = true;
        Ok(())
    }

    /// Write a snapshot covering every record appended so far, then drop
    /// the segments (and older snapshots) it supersedes.
    pub fn snapshot(&mut self, state: &[u8]) -> Result<()> {
        if !self.synced {
            self.sync()?;
        }
        let covered = self.next_lsn - 1;

        // Write-then-rename so a crash leaves either the old snapshot or
        // the new one, never a half-written file that parses. A failure
        // mid-write removes the temp file — no orphan survives the error.
        let final_path = self.dir.join(format!("snapshot-{covered:020}.snap"));
        let tmp_path = self.dir.join(format!("snapshot-{covered:020}.snap.tmp"));
        {
            let f = self
                .io
                .create(&tmp_path)
                .map_err(|e| storage("create snapshot temp", &tmp_path, e))?;
            let mut buf = Vec::with_capacity(HEADER_LEN + FRAME_HEADER_LEN + state.len());
            buf.extend_from_slice(SNAPSHOT_MAGIC);
            buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            buf.extend_from_slice(&covered.to_le_bytes());
            buf.extend_from_slice(&(state.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(state).to_le_bytes());
            buf.extend_from_slice(state);
            if let Err(e) = f.write_all_at(0, &buf).and_then(|_| f.sync_all()) {
                let _ = self.io.remove_file(&tmp_path);
                return Err(storage("write snapshot", &tmp_path, e));
            }
        }
        if let Err(e) = self.io.rename(&tmp_path, &final_path) {
            let _ = self.io.remove_file(&tmp_path);
            return Err(storage("publish snapshot", &final_path, e));
        }
        // Compaction swaps the covered current segment for a fresh one.
        // Create it now, so the one directory fsync below publishes it
        // together with the snapshot, before the log switches to it. If
        // that fsync fails the fresh file goes and nothing is switched.
        let fresh = if self.current_records > 0 {
            Some(create_segment(self.io.as_ref(), &self.dir, self.next_lsn)?)
        } else {
            None
        };
        if let Err(e) = self.io.sync_dir(&self.dir) {
            if let Some((_, path)) = &fresh {
                let _ = self.io.remove_file(path);
            }
            return Err(storage("fsync store dir", &self.dir, e));
        }

        // Compaction: every sealed segment is now covered, and so is the
        // current one once the fresh segment replaces it. The closing
        // directory fsync makes the removals durable.
        if let Some((file, path)) = fresh {
            let old_path = std::mem::replace(&mut self.current_path, path);
            self.file = file;
            self.current_records = 0;
            self.current_bytes = HEADER_LEN as u64;
            self.io
                .remove_file(&old_path)
                .map_err(|e| storage("remove covered segment", &old_path, e))?;
        }
        for seg in self.sealed.drain(..) {
            self.io
                .remove_file(&seg)
                .map_err(|e| storage("remove covered segment", &seg, e))?;
        }
        if let Some(old) = self.snapshot_path.take() {
            if old != final_path {
                self.io
                    .remove_file(&old)
                    .map_err(|e| storage("remove superseded snapshot", &old, e))?;
            }
        }
        self.snapshot_path = Some(final_path);
        self.snapshot_lsn = covered;
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| storage("fsync store dir", &self.dir, e))?;
        Ok(())
    }

    /// LSN of the last appended record (0 = nothing appended yet).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// LSN covered by the newest snapshot (0 = none).
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// Records appended since the last snapshot.
    pub fn records_since_snapshot(&self) -> u64 {
        self.last_lsn() - self.snapshot_lsn
    }

    /// Directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current on-disk shape.
    pub fn stats(&self) -> LogStats {
        LogStats {
            segments: self.sealed.len() + 1,
            snapshot_lsn: self.snapshot_lsn,
            last_lsn: self.last_lsn(),
            current_segment_bytes: self.current_bytes,
        }
    }

    /// Seal the current segment and start a new one at `next_lsn`.
    fn rotate(&mut self) -> Result<()> {
        // Seal with sync_all (not sync_data): the sealed segment's final
        // length is metadata, and recovery trusts it.
        self.file
            .sync_all()
            .map_err(|e| storage("seal segment", &self.current_path, e))?;
        let (file, path) = create_durable_segment(self.io.as_ref(), &self.dir, self.next_lsn)?;
        let old_path = std::mem::replace(&mut self.current_path, path);
        self.sealed.push(old_path);
        self.file = file;
        self.current_records = 0;
        self.current_bytes = HEADER_LEN as u64;
        Ok(())
    }
}

/// A freshly created, header-only segment open for appending. A failure
/// writing or syncing the header removes the partial file — a half-born
/// segment must not survive to confuse the next recovery. The directory
/// entry is the caller's to make durable, with one directory fsync that
/// must succeed before the log switches to the segment: a record synced
/// into a file whose entry a power loss can drop is not durable.
fn create_segment(
    io: &dyn StorageIo,
    dir: &Path,
    first_lsn: u64,
) -> Result<(Box<dyn StorageFile>, PathBuf)> {
    let path = segment_path(dir, first_lsn);
    let file = io
        .create(&path)
        .map_err(|e| storage("create segment", &path, e))?;
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(SEGMENT_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&first_lsn.to_le_bytes());
    let written = file.write_all_at(0, &header).and_then(|_| file.sync_all());
    if let Err(e) = written {
        let _ = io.remove_file(&path);
        return Err(storage("initialise segment", &path, e));
    }
    Ok((file, path))
}

/// [`create_segment`] plus the directory fsync that publishes it. If that
/// fsync fails the new file is removed, so the caller keeps appending to
/// the segment it already had.
fn create_durable_segment(
    io: &dyn StorageIo,
    dir: &Path,
    first_lsn: u64,
) -> Result<(Box<dyn StorageFile>, PathBuf)> {
    let (file, path) = create_segment(io, dir, first_lsn)?;
    if let Err(e) = io.sync_dir(dir) {
        let _ = io.remove_file(&path);
        return Err(storage("fsync store dir", dir, e));
    }
    Ok((file, path))
}

pub(crate) fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

/// `wal-<n>.log` / `snapshot-<n>.snap` → `n`.
pub(crate) fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// What scanning one segment produced.
pub(crate) struct SegmentScan {
    pub(crate) records: Vec<Vec<u8>>,
    pub(crate) record_count: u64,
    /// Offset of the end of the last intact frame.
    pub(crate) good_bytes: u64,
    /// Bytes after `good_bytes` (torn tail), if this was the last segment.
    pub(crate) torn_bytes: u64,
}

/// Read and validate one segment.
///
/// `is_last` selects the recovery discipline: the final segment may end in
/// a torn record (truncated by the caller); any earlier segment must be
/// perfectly formed. Returns `Ok(None)` when the final segment's *header*
/// is torn — it holds no records and should be deleted.
pub(crate) fn read_segment(
    io: &dyn StorageIo,
    path: &Path,
    expected_first_lsn: u64,
    is_last: bool,
) -> Result<Option<SegmentScan>> {
    let bytes = io
        .read(path)
        .map_err(|e| storage("read segment", path, e))?;
    scan_segment_bytes(&bytes, path, expected_first_lsn, is_last)
}

/// [`read_segment`] on bytes already in memory (shared with `fsck`).
pub(crate) fn scan_segment_bytes(
    bytes: &[u8],
    path: &Path,
    expected_first_lsn: u64,
    is_last: bool,
) -> Result<Option<SegmentScan>> {
    if bytes.len() < HEADER_LEN {
        if is_last {
            return Ok(None);
        }
        return Err(StoreError::Corrupt(format!(
            "segment {path:?}: truncated header in a non-final segment"
        )));
    }
    if &bytes[0..8] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt(format!("segment {path:?}: bad magic")));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "segment {path:?}: unsupported format version {version}"
        )));
    }
    let first_lsn = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if first_lsn != expected_first_lsn {
        return Err(StoreError::Corrupt(format!(
            "segment {path:?}: header says first lsn {first_lsn}, name says {expected_first_lsn}"
        )));
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        if offset == bytes.len() {
            break; // clean end
        }
        let frame = read_frame(bytes, offset);
        match frame {
            Some((payload, next)) => {
                records.push(payload);
                offset = next;
            }
            None if is_last => break, // torn tail: truncate at `offset`
            None => {
                return Err(StoreError::Corrupt(format!(
                    "segment {path:?}: damaged record at offset {offset} \
                     in a non-final segment"
                )));
            }
        }
    }
    Ok(Some(SegmentScan {
        record_count: records.len() as u64,
        records,
        good_bytes: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    }))
}

/// One frame at `offset`, or `None` if it is incomplete/damaged.
pub(crate) fn read_frame(bytes: &[u8], offset: usize) -> Option<(Vec<u8>, usize)> {
    let header_end = offset.checked_add(FRAME_HEADER_LEN)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
    let payload_end = header_end.checked_add(len)?;
    if payload_end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..payload_end];
    if crc32(payload) != want {
        return None;
    }
    Some((payload.to_vec(), payload_end))
}

/// Read and validate a snapshot file; `Ok(None)` = torn/invalid payload
/// (ignore this snapshot and fall back).
fn read_snapshot(io: &dyn StorageIo, path: &Path, expected_lsn: u64) -> Result<Option<Vec<u8>>> {
    let bytes = io
        .read(path)
        .map_err(|e| storage("read snapshot", path, e))?;
    Ok(scan_snapshot_bytes(&bytes, expected_lsn))
}

/// Validate snapshot bytes; `None` = torn/invalid (shared with `fsck`).
pub(crate) fn scan_snapshot_bytes(bytes: &[u8], expected_lsn: u64) -> Option<Vec<u8>> {
    if bytes.len() < HEADER_LEN || &bytes[0..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let covered = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if version != FORMAT_VERSION || covered != expected_lsn {
        return None;
    }
    match read_frame(bytes, HEADER_LEN) {
        Some((payload, end)) if end == bytes.len() => Some(payload),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("toreador-store-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: usize) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat(i % 7)).into_bytes()
    }

    #[test]
    fn round_trip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut log, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
            assert!(rec.records.is_empty() && rec.snapshot.is_none());
            for i in 0..10 {
                assert_eq!(log.append(&payload(i)).unwrap(), i as u64 + 1);
            }
            log.sync().unwrap();
        }
        let (log, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.torn_bytes, 0);
        for (i, (lsn, p)) in rec.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(*p, payload(i));
        }
        assert_eq!(log.last_lsn(), 10);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_caps_segment_size_and_replay_spans_segments() {
        let dir = tmp_dir("rotate");
        let cfg = LogConfig { segment_bytes: 128 };
        {
            let (mut log, _) = DurableLog::open(&dir, cfg).unwrap();
            for i in 0..50 {
                log.append(&payload(i)).unwrap();
            }
            assert!(log.stats().segments > 1, "{:?}", log.stats());
            log.sync().unwrap();
        }
        let (_, rec) = DurableLog::open(&dir, cfg).unwrap();
        assert_eq!(rec.records.len(), 50);
        assert!(rec.records.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_segments_and_recovery_prefers_it() {
        let dir = tmp_dir("snapshot");
        let cfg = LogConfig { segment_bytes: 96 };
        {
            let (mut log, _) = DurableLog::open(&dir, cfg).unwrap();
            for i in 0..30 {
                log.append(&payload(i)).unwrap();
            }
            let before = log.stats().segments;
            assert!(before > 1);
            log.snapshot(b"STATE-AT-30").unwrap();
            assert_eq!(log.stats().segments, 1);
            assert_eq!(log.snapshot_lsn(), 30);
            // Tail records after the snapshot.
            for i in 30..35 {
                log.append(&payload(i)).unwrap();
            }
            log.sync().unwrap();
        }
        let (log, rec) = DurableLog::open(&dir, cfg).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE-AT-30"[..]));
        assert_eq!(rec.snapshot_lsn, 30);
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![31, 32, 33, 34, 35]);
        assert_eq!(log.records_since_snapshot(), 5);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmp_dir("torn");
        {
            let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..5 {
                log.append(&payload(i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Tear the final record: chop 3 bytes off the segment.
        let seg = segment_path(&dir, 1);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (mut log, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 4, "durable prefix survives");
        assert!(rec.torn_bytes > 0);
        // The torn LSN is reused by the next append.
        assert_eq!(log.append(b"after-recovery").unwrap(), 5);
        log.sync().unwrap();
        drop(log); // release the directory lock before reopening
        let (_, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.records[4].1, b"after-recovery");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn interior_damage_is_corruption_not_silent_loss() {
        let dir = tmp_dir("interior");
        let cfg = LogConfig { segment_bytes: 96 };
        {
            let (mut log, _) = DurableLog::open(&dir, cfg).unwrap();
            for i in 0..30 {
                log.append(&payload(i)).unwrap();
            }
            assert!(log.stats().segments > 1);
            log.sync().unwrap();
        }
        // Flip a payload byte in the FIRST (non-final) segment.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let k = HEADER_LEN + FRAME_HEADER_LEN + 1;
        bytes[k] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let err = DurableLog::open(&dir, cfg).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_segment_is_a_chain_gap() {
        let dir = tmp_dir("gap");
        let cfg = LogConfig { segment_bytes: 96 };
        {
            let (mut log, _) = DurableLog::open(&dir, cfg).unwrap();
            for i in 0..30 {
                log.append(&payload(i)).unwrap();
            }
            assert!(log.stats().segments > 2);
            log.sync().unwrap();
        }
        // Delete a middle segment.
        let mut firsts: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_name(&e.unwrap().file_name().to_string_lossy(), "wal-", ".log"))
            .collect();
        firsts.sort_unstable();
        fs::remove_file(segment_path(&dir, firsts[1])).unwrap();
        let err = DurableLog::open(&dir, cfg).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_snapshot_falls_back_to_wal_replay() {
        let dir = tmp_dir("torn-snap");
        {
            let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..8 {
                log.append(&payload(i)).unwrap();
            }
            log.snapshot(b"GOOD").unwrap();
            for i in 8..12 {
                log.append(&payload(i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Fake a *newer* snapshot that is torn mid-payload.
        let bogus = dir.join(format!("snapshot-{:020}.snap", 12));
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&12u64.to_le_bytes());
        buf.extend_from_slice(&100u32.to_le_bytes()); // claims 100 bytes
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"only-a-few");
        fs::write(&bogus, &buf).unwrap();
        let (_, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"GOOD"[..]));
        assert_eq!(rec.snapshot_lsn, 8);
        assert_eq!(rec.records.len(), 4);
        assert!(!bogus.exists(), "torn snapshot deleted");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_payloads_and_empty_log_are_fine() {
        let dir = tmp_dir("empty");
        {
            let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
            log.append(b"").unwrap();
            log.append(b"x").unwrap();
            log.append(b"").unwrap();
            log.sync().unwrap();
        }
        let (log, rec) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0].1, b"");
        assert_eq!(log.stats().segments, 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
