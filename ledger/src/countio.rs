//! A counting [`StorageIo`] shim: every call goes to the real filesystem,
//! and writes, bytes written and fsyncs are counted per class of file.
//!
//! Installed with `toreador_store::io::inject(<scratch dir>, …)` around
//! the in-process labs / hub / streaming probes, it turns "how many
//! device operations does one attempt (or one ack) cost" into a count
//! made where the work happens. With a single client the counts must
//! repeat exactly; the probes run twice and report any that do not.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use toreador_store::io::{StorageFile, StorageIo};

/// What kind of file an operation touched, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// WAL segments (`*.log`).
    Wal,
    /// Published snapshots (`*.snap`).
    Snapshot,
    /// Temp files on their way to a rename (`*.tmp`).
    Temp,
    /// Directories (fsync after create / rename / remove).
    Dir,
    /// Lock files, page files, manifests and anything else.
    Other,
}

const CLASSES: [FileClass; 5] = [
    FileClass::Wal,
    FileClass::Snapshot,
    FileClass::Temp,
    FileClass::Dir,
    FileClass::Other,
];

impl FileClass {
    pub fn of(path: &Path) -> FileClass {
        match path.extension().and_then(|e| e.to_str()) {
            Some("log") => FileClass::Wal,
            Some("snap") => FileClass::Snapshot,
            Some("tmp") => FileClass::Temp,
            _ => FileClass::Other,
        }
    }
}

/// Device operations seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub writes: u64,
    pub write_bytes: u64,
    pub fsyncs: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            writes: self.writes - rhs.writes,
            write_bytes: self.write_bytes - rhs.write_bytes,
            fsyncs: self.fsyncs - rhs.fsyncs,
        }
    }
}

#[derive(Debug, Default)]
struct Cell {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    fsyncs: AtomicU64,
}

/// The shared tallies, one cell per [`FileClass`] in declaration order. Statistics only, so
/// relaxed ordering: nothing is published through them.
#[derive(Debug, Default)]
struct Tally {
    cells: [Cell; CLASSES.len()],
}

impl Tally {
    fn cell(&self, class: FileClass) -> &Cell {
        &self.cells[class as usize]
    }

    fn wrote(&self, class: FileClass, bytes: usize) {
        let c = self.cell(class);
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn synced(&self, class: FileClass) {
        self.cell(class).fsyncs.fetch_add(1, Ordering::Relaxed);
    }
}

/// The counting backend. Clone the `Arc` into `inject`, keep one to read.
#[derive(Debug, Default)]
pub struct CountingIo {
    tally: Arc<Tally>,
}

impl CountingIo {
    pub fn new() -> Arc<CountingIo> {
        Arc::new(CountingIo::default())
    }

    pub fn class(&self, class: FileClass) -> Counts {
        let c = self.tally.cell(class);
        Counts {
            writes: c.writes.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
        }
    }

    /// All classes together.
    pub fn total(&self) -> Counts {
        CLASSES.iter().fold(Counts::default(), |acc, class| {
            let c = self.class(*class);
            Counts {
                writes: acc.writes + c.writes,
                write_bytes: acc.write_bytes + c.write_bytes,
                fsyncs: acc.fsyncs + c.fsyncs,
            }
        })
    }

    fn wrap(&self, file: File, path: &Path) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            file,
            class: FileClass::of(path),
            tally: Arc::clone(&self.tally),
        })
    }
}

#[derive(Debug)]
struct CountingFile {
    file: File,
    class: FileClass,
    tally: Arc<Tally>,
}

impl StorageFile for CountingFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.tally.wrote(self.class, data.len());
        std::os::unix::fs::FileExt::write_all_at(&self.file, data, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.tally.synced(self.class);
        self.file.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.tally.synced(self.class);
        self.file.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn as_file(&self) -> Option<&File> {
        Some(&self.file)
    }
}

impl StorageIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(self.wrap(file, path))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(self.wrap(file, path))
    }

    fn open_rw_create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(self.wrap(file, path))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(File::open(path)?, path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<PathBuf>>>()?;
        entries.sort();
        Ok(entries)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::remove_dir_all(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.tally.synced(FileClass::Dir);
        File::open(dir)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_store::io::inject;
    use toreador_store::{DurableLog, LogConfig};

    #[test]
    fn counts_what_a_log_writes_and_recovery_still_reads_it() {
        let dir = std::env::temp_dir().join(format!("ledger-countio-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = CountingIo::new();
        {
            let _guard = inject(&dir, io.clone());
            let (mut log, _) = DurableLog::open(&dir, LogConfig::default()).unwrap();
            let before = io.class(FileClass::Wal);
            for _ in 0..3 {
                log.append(&[7u8; 100]).unwrap();
                log.sync().unwrap();
            }
            let wal = io.class(FileClass::Wal) - before;
            assert_eq!(wal.writes, 3);
            assert_eq!(wal.fsyncs, 3);
            assert_eq!(wal.write_bytes, 3 * (100 + 8), "payload + len + crc");
            log.snapshot(b"state").unwrap();
            assert!(
                io.class(FileClass::Temp).writes >= 1,
                "snapshot goes via a temp file"
            );
            assert!(
                io.class(FileClass::Dir).fsyncs >= 1,
                "and a directory fsync"
            );
            assert!(io.total().fsyncs > wal.fsyncs);
        }
        // Everything went to the real filesystem: a plain reopen sees it.
        let (_, recovery) = DurableLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(recovery.snapshot.as_deref(), Some(&b"state"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }
}
