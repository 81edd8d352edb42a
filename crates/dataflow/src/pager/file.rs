//! The paged on-disk columnar format.
//!
//! A page file is a sequence of fixed-size [`PAGE_SIZE`] slots. Each slot
//! holds one CRC32 frame — `[payload_len u32 LE][crc32 u32 LE][payload]`,
//! written and checked by the same [`crate::codec::push_frame`] and
//! [`crate::codec::take_frame`] as a checkpoint wave frame — zero-padded
//! to the slot boundary so page `n` always starts at byte
//! `n * PAGE_SIZE`. Page 0 is the directory: a magic tag plus a JSON
//! [`PageDirectory`] naming the row count, schema and per-lane extents.
//! Pages 1.. hold the lane extents: each column's cells encoded
//! contiguously with [`crate::codec::encode_lane`], split across as many
//! pages as they need.
//!
//! Files are written to `<path>.tmp` and only renamed to `<path>` by
//! [`PageFile::finalize`] after an fsync (followed by a directory fsync) —
//! the same publish discipline as checkpoint waves and the store WAL, so a
//! crash mid-spill leaves at most a `.tmp` orphan that the next
//! [`super::SpillManager`] sweeps, never a readable half-file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use toreador_data::schema::Schema;

use toreador_store::io::{io_for, StorageFile, StorageIo};

use crate::codec::{push_frame, take_frame};
use crate::error::{FlowError, Result};

/// Fixed page-slot size. 32 KiB holds a few thousand encoded cells per
/// page while keeping the minimum pool (one frame) small.
pub const PAGE_SIZE: usize = 32 << 10;

/// Bytes of payload a page slot can carry after its 8-byte frame header.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 8;

/// Leading bytes of the directory page.
const PAGE_MAGIC: &[u8; 8] = b"TORPAGE1";

fn spill_err(msg: String) -> FlowError {
    FlowError::Spill(msg)
}

/// Where one lane's cells live in the file: `pages` consecutive page slots
/// starting at `first_page`, carrying `bytes` of encoded payload in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneExtent {
    pub first_page: u32,
    pub pages: u32,
    pub bytes: u64,
}

/// The directory stored in page 0: everything needed to rebuild the table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageDirectory {
    pub rows: usize,
    pub schema: Schema,
    pub lanes: Vec<LaneExtent>,
}

impl PageDirectory {
    /// Serialise as the page-0 payload: magic + JSON. Fails if the
    /// directory would not fit in one page (a schema would need hundreds
    /// of columns to get close).
    pub fn to_payload(&self) -> Result<Vec<u8>> {
        let mut payload = PAGE_MAGIC.to_vec();
        let json = serde_json::to_string(self)
            .map_err(|e| spill_err(format!("encode page directory: {e}")))?;
        payload.extend_from_slice(json.as_bytes());
        if payload.len() > PAGE_PAYLOAD {
            return Err(spill_err(format!(
                "page directory too large: {} bytes over the {PAGE_PAYLOAD} byte page payload",
                payload.len()
            )));
        }
        Ok(payload)
    }

    /// Parse a page-0 payload, checking the magic.
    pub fn from_payload(payload: &[u8]) -> Result<PageDirectory> {
        if payload.len() < PAGE_MAGIC.len() || &payload[..PAGE_MAGIC.len()] != PAGE_MAGIC {
            return Err(spill_err("bad page-file magic".to_owned()));
        }
        let json = std::str::from_utf8(&payload[PAGE_MAGIC.len()..])
            .map_err(|e| spill_err(format!("malformed page directory: {e}")))?;
        serde_json::from_str(json).map_err(|e| spill_err(format!("malformed page directory: {e}")))
    }
}

/// One paged file: random-access page reads and writes plus the atomic
/// finalize. Writable files live at `<path>.tmp` until finalized; the file
/// descriptor stays valid across the rename, so a pool can keep faulting
/// pages back in without reopening the published file.
#[derive(Debug)]
pub struct PageFile {
    io: Arc<dyn StorageIo>,
    file: Box<dyn StorageFile>,
    path: PathBuf,
    tmp: Option<PathBuf>,
    finalized: AtomicBool,
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

impl PageFile {
    /// Create a fresh writable page file. Bytes land in `<path>.tmp` until
    /// [`PageFile::finalize`] publishes them at `path`.
    pub fn create(path: &Path) -> Result<PageFile> {
        let io = io_for(path);
        let tmp = tmp_path(path);
        let file = io
            .create(&tmp)
            .map_err(|e| spill_err(format!("create {}: {e}", tmp.display())))?;
        Ok(PageFile {
            io,
            file,
            path: path.to_owned(),
            tmp: Some(tmp),
            finalized: AtomicBool::new(false),
        })
    }

    /// Open an existing finalized page file read-only.
    pub fn open(path: &Path) -> Result<PageFile> {
        let io = io_for(path);
        let file = io
            .open_read(path)
            .map_err(|e| spill_err(format!("open {}: {e}", path.display())))?;
        Ok(PageFile {
            io,
            file,
            path: path.to_owned(),
            tmp: None,
            finalized: AtomicBool::new(true),
        })
    }

    /// The file's published path (the rename target for a writable file).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read one page slot and return its verified payload.
    pub fn read_page(&self, page: u32) -> Result<Vec<u8>> {
        let mut slot = vec![0u8; PAGE_SIZE];
        self.file
            .read_exact_at(page as u64 * PAGE_SIZE as u64, &mut slot)
            .map_err(|e| spill_err(format!("read page {page} of {}: {e}", self.path.display())))?;
        // The slot bounds the frame, so its length cannot exceed
        // `PAGE_PAYLOAD`.
        let len = take_frame(&mut slot.as_slice())
            .map_err(|e| {
                spill_err(format!(
                    "corrupt page file {}: page {page} {}",
                    self.path.display(),
                    e.describe()
                ))
            })?
            .len();
        slot.truncate(8 + len);
        slot.drain(..8);
        Ok(slot)
    }

    /// Frame, pad and write one page slot. Only valid before finalize —
    /// published files are immutable.
    pub fn write_page(&self, page: u32, payload: &[u8]) -> Result<()> {
        if self.finalized.load(Ordering::Acquire) {
            return Err(spill_err(format!(
                "write to finalized page file {}",
                self.path.display()
            )));
        }
        if payload.len() > PAGE_PAYLOAD {
            return Err(spill_err(format!(
                "page payload {} bytes exceeds the {PAGE_PAYLOAD} byte page payload",
                payload.len()
            )));
        }
        let mut slot = Vec::with_capacity(PAGE_SIZE);
        push_frame(&mut slot, payload);
        slot.resize(PAGE_SIZE, 0);
        self.file
            .write_all_at(page as u64 * PAGE_SIZE as u64, &slot)
            .map_err(|e| spill_err(format!("write page {page} of {}: {e}", self.path.display())))
    }

    /// Publish: fsync the temp file, rename it to the final path, fsync
    /// the directory. The open descriptor stays valid, so resident pages
    /// can still be re-read after the rename.
    pub fn finalize(&self) -> Result<()> {
        let Some(tmp) = &self.tmp else {
            return Ok(()); // opened read-only: already published
        };
        if self.finalized.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.file
            .sync_all()
            .map_err(|e| spill_err(format!("sync {}: {e}", tmp.display())))?;
        self.io.rename(tmp, &self.path).map_err(|e| {
            spill_err(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                self.path.display()
            ))
        })?;
        if let Some(parent) = self.path.parent() {
            let _ = self.io.sync_dir(parent);
        }
        Ok(())
    }

    /// Abandon an unfinalized writable file: remove the `.tmp` so a failed
    /// spill leaves no residue. A no-op for finalized or read-only files.
    pub fn discard(&self) {
        if self.finalized.load(Ordering::Acquire) {
            return;
        }
        if let Some(tmp) = &self.tmp {
            let _ = self.io.remove_file(tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use toreador_data::schema::Field;
    use toreador_data::value::DataType;

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "toreador-pager-file-{}-{tag}.pages",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tmp_path(path));
    }

    #[test]
    fn pages_round_trip_through_write_finalize_read() {
        let path = temp_file("roundtrip");
        cleanup(&path);
        let f = PageFile::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = vec![
            b"page zero".to_vec(),
            vec![0xAB; PAGE_PAYLOAD], // a full page
            Vec::new(),               // an empty payload is legal
        ];
        for (i, p) in payloads.iter().enumerate() {
            f.write_page(i as u32, p).unwrap();
        }
        assert!(tmp_path(&path).exists(), "writes go to the temp file");
        assert!(!path.exists());
        f.finalize().unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists(), "finalize consumes the temp file");
        // Reads through the original (still-open) descriptor and a fresh
        // open both see the same pages.
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&f.read_page(i as u32).unwrap(), p);
        }
        let reopened = PageFile::open(&path).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&reopened.read_page(i as u32).unwrap(), p);
        }
        cleanup(&path);
    }

    #[test]
    fn oversized_payload_and_post_finalize_writes_are_rejected() {
        let path = temp_file("immutable");
        cleanup(&path);
        let f = PageFile::create(&path).unwrap();
        let err = f.write_page(0, &vec![0u8; PAGE_PAYLOAD + 1]).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        f.write_page(0, b"ok").unwrap();
        f.finalize().unwrap();
        let err = f.write_page(1, b"late").unwrap_err();
        assert!(err.to_string().contains("finalized"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn damaged_pages_are_detected() {
        let path = temp_file("damage");
        cleanup(&path);
        let f = PageFile::create(&path).unwrap();
        f.write_page(0, b"precious bytes").unwrap();
        f.finalize().unwrap();
        // Flip one payload byte on disk.
        let mut raw = std::fs::read(&path).unwrap();
        raw[10] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = PageFile::open(&path).unwrap().read_page(0).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
        // Truncate mid-slot: the read itself fails.
        std::fs::write(&path, &raw[..100]).unwrap();
        assert!(PageFile::open(&path).unwrap().read_page(0).is_err());
        cleanup(&path);
    }

    #[test]
    fn directory_round_trips_and_rejects_bad_magic() {
        let dir = PageDirectory {
            rows: 42,
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
            ])
            .unwrap(),
            lanes: vec![
                LaneExtent {
                    first_page: 1,
                    pages: 2,
                    bytes: 40_000,
                },
                LaneExtent {
                    first_page: 3,
                    pages: 1,
                    bytes: 900,
                },
            ],
        };
        let payload = dir.to_payload().unwrap();
        assert!(payload.starts_with(PAGE_MAGIC));
        assert_eq!(PageDirectory::from_payload(&payload).unwrap(), dir);
        let err = PageDirectory::from_payload(b"NOTMAGIC{}").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let err = PageDirectory::from_payload(b"TORPAGE1 not json").unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }
}
