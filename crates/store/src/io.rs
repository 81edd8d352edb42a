//! The virtual-filesystem seam every durability layer writes through.
//!
//! The store WAL, the dataflow checkpoint and spill layers and the streaming
//! ack log all talk to disk via [`StorageIo`] (directory-level operations:
//! create/open/read/rename/remove/dir-fsync) and [`StorageFile`]
//! (positional reads and writes plus fsync on one open file). The default
//! implementation, [`RealIo`], is a thin veneer over `std::fs` — and in
//! the common case (nothing injected) [`io_for`] short-circuits on one
//! relaxed atomic load and hands back the shared `RealIo`, so production
//! code pays nothing for the seam.
//!
//! Tests and the `toreador chaos diskful` profile *inject* an alternate
//! backend — [`crate::chaos::DiskChaos`] — for a directory prefix via
//! [`inject`]. Injection is scoped: it applies only to paths under the
//! registered prefix (longest prefix wins), so concurrent tests faulting
//! their own temp directories never see each other's chaos, and it is
//! withdrawn when the returned [`IoGuard`] drops.
//!
//! Layers resolve their backend once per opened object (`io_for(dir)` at
//! construction), so an injected backend stays in force for the object's
//! lifetime even if the guard is dropped later — tests that want a clean
//! post-mortem read should disarm the injector rather than race the
//! guard.

use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One open file: positional I/O plus durability control. Positional
/// (offset-addressed) writes cover the WAL's append pattern — the log
/// tracks its own tail offset — without per-file seek state; whole-file
/// writers (checkpoint waves, spill runs) write once at offset 0.
// `len` here is a fallible size query, not a collection length — an
// `is_empty` twin would be noise.
#[allow(clippy::len_without_is_empty)]
pub trait StorageFile: Send + Sync + Debug {
    /// Fill `buf` from `offset`, failing on a short read.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Write all of `data` at `offset`, extending the file if needed.
    fn write_all_at(&self, offset: u64, data: &[u8]) -> io::Result<()>;
    /// Force file *data* to stable storage (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Force data and metadata to stable storage (`fsync`).
    fn sync_all(&self) -> io::Result<()>;
    /// Truncate (or extend) to exactly `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// The underlying OS file, when this backend has one — the directory
    /// lock uses it for `flock(2)`. Injected backends that wrap a real
    /// file should delegate; purely synthetic ones return `None` and the
    /// lock degrades to its PID-stamp protocol.
    fn as_file(&self) -> Option<&File> {
        None
    }
}

/// A filesystem backend: everything the durability layers do to a
/// directory. All methods take explicit paths — the backend holds no
/// current-directory state.
pub trait StorageIo: Send + Sync + Debug {
    /// Create (truncating if present) a file open for read + write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Open an existing file for read + write (no create).
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Open for read + write, creating if absent, never truncating —
    /// the lock-file open mode.
    fn open_rw_create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Open an existing file read-only.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Length of a file without opening it.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Whether `path` exists at all.
    fn exists(&self, path: &Path) -> bool;
    /// Entries of `dir`, sorted by name for deterministic scans.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Make file creations/renames in `dir` durable. Best-effort where
    /// the platform has no directory fsync.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Read a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.read(path)?;
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

// ---------------------------------------------------------------------------
// RealIo: the std::fs-backed default.
// ---------------------------------------------------------------------------

/// A real OS file with positional I/O. On unix this is `pread`/`pwrite`
/// (no shared seek cursor, safe under concurrent page reads); elsewhere a
/// mutex serialises seek + access pairs.
#[derive(Debug)]
pub struct RealFile {
    file: File,
    #[cfg(not(unix))]
    seek_lock: Mutex<()>,
}

impl RealFile {
    fn new(file: File) -> RealFile {
        RealFile {
            file,
            #[cfg(not(unix))]
            seek_lock: Mutex::new(()),
        }
    }
}

impl StorageFile for RealFile {
    #[cfg(unix)]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.seek_lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    #[cfg(unix)]
    fn write_all_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(data, offset)
    }

    #[cfg(not(unix))]
    fn write_all_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _guard = self.seek_lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
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

/// The default backend: plain `std::fs`.
#[derive(Debug, Default)]
pub struct RealIo;

impl StorageIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile::new(file)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile::new(file)))
    }

    fn open_rw_create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(RealFile::new(file)))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile::new(File::open(path)?)))
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
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
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
        // Directory fsync is POSIX-only; on other platforms the rename is
        // already as durable as the platform offers.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The injection registry.
// ---------------------------------------------------------------------------

/// How many injections are currently registered. The common-case fast
/// path: zero means `io_for` returns the shared `RealIo` without taking
/// any lock.
static INJECTED: AtomicUsize = AtomicUsize::new(0);

/// Monotonic ids so a guard removes exactly its own entry.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

type Registry = Mutex<Vec<(u64, PathBuf, Arc<dyn StorageIo>)>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The shared default backend.
pub fn real_io() -> Arc<dyn StorageIo> {
    static REAL: OnceLock<Arc<RealIo>> = OnceLock::new();
    REAL.get_or_init(|| Arc::new(RealIo)).clone() as Arc<dyn StorageIo>
}

/// The backend responsible for `path`: the injected backend with the
/// longest registered prefix containing it, or the shared [`RealIo`]
/// when none matches. Prefixes match whole path components, so an
/// injection on `/tmp/a` never captures `/tmp/ab`.
pub fn io_for(path: &Path) -> Arc<dyn StorageIo> {
    if INJECTED.load(Ordering::Acquire) == 0 {
        return real_io();
    }
    let reg = registry().lock().unwrap();
    reg.iter()
        .filter(|(_, prefix, _)| path.starts_with(prefix))
        .max_by_key(|(_, prefix, _)| prefix.as_os_str().len())
        .map(|(_, _, io)| io.clone())
        .unwrap_or_else(real_io)
}

/// Withdraws an injection when dropped.
#[derive(Debug)]
pub struct IoGuard {
    id: u64,
}

impl Drop for IoGuard {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap();
        if let Some(i) = reg.iter().position(|(id, _, _)| *id == self.id) {
            reg.remove(i);
            INJECTED.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Route every path under `prefix` through `io` until the guard drops.
/// Objects resolve their backend at construction, so inject *before*
/// opening the layer under test.
pub fn inject(prefix: impl Into<PathBuf>, io: Arc<dyn StorageIo>) -> IoGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut reg = registry().lock().unwrap();
    reg.push((id, prefix.into(), io));
    INJECTED.fetch_add(1, Ordering::Release);
    IoGuard { id }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toreador-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_file_positional_io_round_trips() {
        let dir = tmp_dir("posio");
        let io = RealIo;
        let f = io.create(&dir.join("f")).unwrap();
        f.write_all_at(0, b"hello world").unwrap();
        f.write_all_at(6, b"there").unwrap();
        let mut buf = [0u8; 11];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello there");
        assert_eq!(f.len().unwrap(), 11);
        f.set_len(5).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        f.sync_all().unwrap();
        assert!(f.as_file().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_for_defaults_to_real_and_respects_prefix_scope() {
        let dir = tmp_dir("scope");
        // Nothing injected: the shared RealIo.
        let base = io_for(&dir.join("x"));
        base.create(&dir.join("x")).unwrap();

        #[derive(Debug)]
        struct Marker;
        impl StorageIo for Marker {
            fn create(&self, _: &Path) -> io::Result<Box<dyn StorageFile>> {
                Err(io::Error::other("marker"))
            }
            fn open_rw(&self, _: &Path) -> io::Result<Box<dyn StorageFile>> {
                Err(io::Error::other("marker"))
            }
            fn open_rw_create(&self, _: &Path) -> io::Result<Box<dyn StorageFile>> {
                Err(io::Error::other("marker"))
            }
            fn open_read(&self, _: &Path) -> io::Result<Box<dyn StorageFile>> {
                Err(io::Error::other("marker"))
            }
            fn read(&self, _: &Path) -> io::Result<Vec<u8>> {
                Err(io::Error::other("marker"))
            }
            fn file_len(&self, _: &Path) -> io::Result<u64> {
                Err(io::Error::other("marker"))
            }
            fn exists(&self, _: &Path) -> bool {
                false
            }
            fn list_dir(&self, _: &Path) -> io::Result<Vec<PathBuf>> {
                Err(io::Error::other("marker"))
            }
            fn create_dir_all(&self, _: &Path) -> io::Result<()> {
                Err(io::Error::other("marker"))
            }
            fn remove_file(&self, _: &Path) -> io::Result<()> {
                Err(io::Error::other("marker"))
            }
            fn remove_dir_all(&self, _: &Path) -> io::Result<()> {
                Err(io::Error::other("marker"))
            }
            fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
                Err(io::Error::other("marker"))
            }
            fn sync_dir(&self, _: &Path) -> io::Result<()> {
                Err(io::Error::other("marker"))
            }
        }

        let sub = dir.join("inner");
        let guard = inject(&sub, Arc::new(Marker));
        // In scope: the marker backend answers.
        assert!(io_for(&sub.join("f")).read(&sub.join("f")).is_err());
        // Out of scope (sibling path): still real.
        let sibling = dir.join("inner-other");
        fs::create_dir_all(&sibling).unwrap();
        io_for(&sibling.join("f"))
            .create(&sibling.join("f"))
            .unwrap();
        drop(guard);
        // Withdrawn: the prefix is real again.
        fs::create_dir_all(&sub).unwrap();
        io_for(&sub.join("f")).create(&sub.join("f")).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
