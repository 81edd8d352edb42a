//! Deterministic seeded disk-fault injection over the [`crate::io`] seam.
//!
//! [`DiskChaos`] wraps the real backend and, per the schedule in its
//! [`DiskChaosPlan`], makes individual operations fail the way commodity
//! storage fails:
//!
//! * **EIO** — the operation errors before touching the disk;
//! * **ENOSPC** — writes start failing once a byte budget is exhausted;
//! * **torn writes** — a write persists only its first `keep` bytes and
//!   then errors, the on-disk signature of a crash mid-`write(2)`;
//! * **fsync lies** — `fsync` reports success without making anything
//!   durable, and a later [`DiskChaos::power_cut`] rolls every unsynced
//!   write back, simulating power loss on a drive with a volatile cache.
//!
//! Faults are targetable per **path class** (WAL segment, snapshot, wave,
//! page file, temp file, …) × **operation** × **ordinal** — "the 3rd
//! write to a wave file" — mirroring the `targeted:stage:partition:
//! attempt:kind` schedule syntax of the executor's `ChaosPlan`, with the
//! spec form `class:op:ordinal:fault`. Background rates (`eio_rate`) draw
//! from a seeded hash of the operation serial, so a given seed replays
//! the same fault schedule.
//!
//! Everything here injects at *our* I/O call sites: it proves the
//! recovery and error-classification paths, not the kernel's. See
//! DESIGN.md §15 for the honest limits.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

use crate::io::{inject, real_io, IoGuard, StorageFile, StorageIo};

/// Marker embedded in every injected error message, so tests can tell an
/// injected fault from a real one.
pub const INJECTED_MARKER: &str = "disk-chaos injected";

// ---------------------------------------------------------------------------
// Taxonomy
// ---------------------------------------------------------------------------

/// What kind of on-disk artifact a path is, derived from its file name.
/// Directory-level operations (list, create-dir, dir-fsync) classify as
/// [`PathClass::Dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// `wal-<lsn>.log`
    WalSegment,
    /// `snapshot-<lsn>.snap`
    Snapshot,
    /// `LOCK`
    Lock,
    /// `manifest.json`
    Manifest,
    /// `wave-<n>.ckpt`
    Wave,
    /// `*.pages`
    Pages,
    /// `*.tmp` (any layer's unpublished atomic write)
    Temp,
    /// A directory, for dir-level operations.
    Dir,
    /// Anything else.
    Other,
}

impl PathClass {
    /// Classify a file path by name. `.tmp` wins over every other
    /// suffix: an unpublished `wave-0001.ckpt.tmp` is a temp file.
    pub fn of(path: &Path) -> PathClass {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy()) else {
            return PathClass::Other;
        };
        if name.ends_with(".tmp") {
            PathClass::Temp
        } else if name.starts_with("wal-") && name.ends_with(".log") {
            PathClass::WalSegment
        } else if name.starts_with("snapshot-") && name.ends_with(".snap") {
            PathClass::Snapshot
        } else if name == "LOCK" {
            PathClass::Lock
        } else if name == "manifest.json" {
            PathClass::Manifest
        } else if name.starts_with("wave-") && name.ends_with(".ckpt") {
            PathClass::Wave
        } else if name.ends_with(".pages") {
            PathClass::Pages
        } else {
            PathClass::Other
        }
    }

    fn parse(s: &str) -> Option<PathClass> {
        Some(match s {
            "wal" => PathClass::WalSegment,
            "snapshot" => PathClass::Snapshot,
            "lock" => PathClass::Lock,
            "manifest" => PathClass::Manifest,
            "wave" => PathClass::Wave,
            "pages" => PathClass::Pages,
            "tmp" => PathClass::Temp,
            "dir" => PathClass::Dir,
            "other" => PathClass::Other,
            _ => return None,
        })
    }

    /// The spec-syntax name of the class.
    pub fn name(&self) -> &'static str {
        match self {
            PathClass::WalSegment => "wal",
            PathClass::Snapshot => "snapshot",
            PathClass::Lock => "lock",
            PathClass::Manifest => "manifest",
            PathClass::Wave => "wave",
            PathClass::Pages => "pages",
            PathClass::Temp => "tmp",
            PathClass::Dir => "dir",
            PathClass::Other => "other",
        }
    }
}

/// The I/O operations the injector can intercept. `set_len` counts as a
/// write; `create_dir_all` as a create on the directory class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    Create,
    Open,
    Read,
    Write,
    Sync,
    Rename,
    Remove,
    List,
    SyncDir,
}

impl IoOp {
    fn parse(s: &str) -> Option<IoOp> {
        Some(match s {
            "create" => IoOp::Create,
            "open" => IoOp::Open,
            "read" => IoOp::Read,
            "write" => IoOp::Write,
            "sync" => IoOp::Sync,
            "rename" => IoOp::Rename,
            "remove" => IoOp::Remove,
            "list" => IoOp::List,
            "syncdir" => IoOp::SyncDir,
            _ => return None,
        })
    }

    fn name(&self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::List => "list",
            IoOp::SyncDir => "syncdir",
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Fail the operation outright.
    Eio,
    /// Fail a write as if the volume were full.
    Enospc,
    /// Persist only the first `keep` bytes of the write, then fail —
    /// a short/torn write at an arbitrary byte offset.
    Torn { keep: u64 },
    /// Report fsync success without making anything durable; the data is
    /// lost on the next [`DiskChaos::power_cut`].
    FsyncLie,
}

impl DiskFault {
    fn describe(&self) -> String {
        match self {
            DiskFault::Eio => "EIO".to_owned(),
            DiskFault::Enospc => "ENOSPC".to_owned(),
            DiskFault::Torn { keep } => format!("torn write (kept {keep} bytes)"),
            DiskFault::FsyncLie => "fsync lie".to_owned(),
        }
    }
}

/// A scheduled fault: the `ordinal`-th `op` on a path of `class` (or any
/// class when `class` is `None`) fails with `fault`. Ordinals count from
/// zero per (class, op) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskTarget {
    pub class: Option<PathClass>,
    pub op: IoOp,
    pub ordinal: u64,
    pub fault: DiskFault,
}

impl DiskTarget {
    /// Parse `class:op:ordinal:fault`, e.g. `wal:write:3:torn@12`,
    /// `wave:rename:0:eio`, `any:sync:1:fsynclie` — the disk-side mirror
    /// of the executor's `targeted:stage:partition:attempt:kind` syntax.
    pub fn parse(spec: &str) -> Result<DiskTarget, String> {
        let bad = || format!("bad disk fault spec {spec:?} (want class:op:ordinal:fault)");
        let mut parts = spec.split(':');
        let class_s = parts.next().ok_or_else(bad)?;
        let class = if class_s == "any" {
            None
        } else {
            Some(PathClass::parse(class_s).ok_or_else(|| {
                format!("unknown path class {class_s:?} (wal|snapshot|lock|manifest|wave|pages|tmp|dir|any)")
            })?)
        };
        let op_s = parts.next().ok_or_else(bad)?;
        let op = IoOp::parse(op_s).ok_or_else(|| {
            format!(
                "unknown io op {op_s:?} (create|open|read|write|sync|rename|remove|list|syncdir)"
            )
        })?;
        let ordinal: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let fault_s = parts.next().ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(bad());
        }
        let fault = match fault_s {
            "eio" => DiskFault::Eio,
            "enospc" => DiskFault::Enospc,
            "fsynclie" => DiskFault::FsyncLie,
            other => match other.strip_prefix("torn@") {
                Some(k) => DiskFault::Torn {
                    keep: k.parse().map_err(|_| bad())?,
                },
                None => {
                    return Err(format!(
                        "unknown disk fault {fault_s:?} (eio|enospc|torn@K|fsynclie)"
                    ))
                }
            },
        };
        Ok(DiskTarget {
            class,
            op,
            ordinal,
            fault,
        })
    }
}

/// The full fault schedule for one injector.
#[derive(Debug, Clone, Default)]
pub struct DiskChaosPlan {
    /// Seed for the background-rate draws.
    pub seed: u64,
    /// Probability that any intercepted read/write/sync fails with EIO.
    pub eio_rate: f64,
    /// Writes start failing with ENOSPC once this many bytes have been
    /// written through the injector.
    pub enospc_after_bytes: Option<u64>,
    /// When true, every fsync lies (reports success, syncs nothing) —
    /// pair with [`DiskChaos::power_cut`] to model power loss.
    pub fsync_lies: bool,
    /// Scheduled point faults.
    pub targeted: Vec<DiskTarget>,
}

impl DiskChaosPlan {
    /// A plan with only scheduled faults.
    pub fn targeted(targets: Vec<DiskTarget>) -> DiskChaosPlan {
        DiskChaosPlan {
            targeted: targets,
            ..DiskChaosPlan::default()
        }
    }

    /// A background EIO rate with no point faults.
    pub fn flaky(seed: u64, eio_rate: f64) -> DiskChaosPlan {
        DiskChaosPlan {
            seed,
            eio_rate: eio_rate.clamp(0.0, 1.0),
            ..DiskChaosPlan::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic draws (SplitMix64 finaliser, as in the executor's fault
// plan — re-implemented here because `store` sits below `dataflow`).
// ---------------------------------------------------------------------------

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn uniform(seed: u64, serial: u64) -> f64 {
    (mix(seed ^ mix(serial)) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// The injector
// ---------------------------------------------------------------------------

/// Rolled-back state for one file, enabling `power_cut`.
#[derive(Debug, Default)]
struct Shadow {
    /// The file did not exist at the last real sync (it was created and
    /// never fsynced): a power cut removes it.
    created_unsynced: bool,
    /// Undo records for writes since the last real sync, oldest first.
    undo: Vec<UndoRecord>,
}

#[derive(Debug)]
struct UndoRecord {
    offset: u64,
    /// Bytes previously at `[offset, offset + old.len())`.
    old: Vec<u8>,
    /// File length before the write.
    old_len: u64,
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Per-(class, op) ordinal counters for targeted faults.
    counters: HashMap<(PathClass, IoOp), u64>,
    /// Serial number of intercepted operations, for rate draws.
    serial: u64,
    /// Bytes successfully written through the injector (ENOSPC budget).
    bytes_written: u64,
    /// Faults injected so far.
    faults: u64,
    /// Per-path unsynced-write shadows, for `power_cut`.
    shadows: HashMap<PathBuf, Shadow>,
    /// Files created through the injector whose directory entry no real
    /// directory fsync has covered yet: `power_cut` removes them even when
    /// their contents were synced.
    unpublished: HashSet<PathBuf>,
    /// When false, the injector passes everything through (post-mortem
    /// verification mode).
    armed: bool,
}

/// The seeded disk-fault injector: a [`StorageIo`] that wraps the real
/// backend. Register it over a directory prefix with
/// [`DiskChaos::register`]; keep the returned `Arc` to disarm it, count
/// injected faults, or pull the power.
#[derive(Debug)]
pub struct DiskChaos {
    plan: DiskChaosPlan,
    inner: Arc<dyn StorageIo>,
    state: Mutex<ChaosState>,
    /// Self-reference so opened files can hold the injector alive.
    me: Weak<DiskChaos>,
}

impl DiskChaos {
    /// Build an injector for `plan` over the real backend.
    pub fn new(plan: DiskChaosPlan) -> Arc<DiskChaos> {
        Arc::new_cyclic(|me| DiskChaos {
            plan,
            inner: real_io(),
            state: Mutex::new(ChaosState {
                armed: true,
                ..ChaosState::default()
            }),
            me: me.clone(),
        })
    }

    /// Build the injector and route every path under `prefix` through it
    /// until the guard drops.
    pub fn register(prefix: impl Into<PathBuf>, plan: DiskChaosPlan) -> (Arc<DiskChaos>, IoGuard) {
        let chaos = DiskChaos::new(plan);
        let guard = inject(prefix, chaos.clone() as Arc<dyn StorageIo>);
        (chaos, guard)
    }

    /// Stop injecting (pass every operation through). Shadows are kept:
    /// a later [`DiskChaos::power_cut`] still rolls back writes that were
    /// never truly synced.
    pub fn disarm(&self) {
        self.state.lock().unwrap().armed = false;
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().unwrap().faults
    }

    /// `op` operations on `class` intercepted so far, armed or not — the
    /// ordinal the next one will get.
    pub fn ops(&self, class: PathClass, op: IoOp) -> u64 {
        let state = self.state.lock().unwrap();
        state.counters.get(&(class, op)).copied().unwrap_or(0)
    }

    /// Simulate power loss: every write acknowledged since the last
    /// *real* sync is rolled back (contents and length restored), and
    /// files created but never synced, or whose directory entry no real
    /// directory fsync covered, are removed. Call after running a
    /// workload and before reopening the layer to check that recovery
    /// still finds a consistent prefix.
    ///
    /// Limit: renames and removals are not rolled back — the model covers
    /// data-page loss and lost file creations, not journal reordering
    /// (see DESIGN.md §15).
    pub fn power_cut(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        let shadows = std::mem::take(&mut state.shadows);
        let unpublished = std::mem::take(&mut state.unpublished);
        drop(state);
        for path in &unpublished {
            let _ = self.inner.remove_file(path);
        }
        for (path, shadow) in shadows {
            if unpublished.contains(&path) {
                continue;
            }
            if shadow.created_unsynced {
                let _ = self.inner.remove_file(&path);
                continue;
            }
            if shadow.undo.is_empty() {
                continue;
            }
            let Ok(file) = self.inner.open_rw(&path) else {
                continue; // already removed by the workload
            };
            for rec in shadow.undo.iter().rev() {
                file.set_len(rec.old_len)?;
                if !rec.old.is_empty() {
                    file.write_all_at(rec.offset, &rec.old)?;
                }
            }
            file.sync_all()?;
        }
        Ok(())
    }

    /// Decide the fate of one intercepted operation. Counts the ordinal
    /// even when disarmed, so schedules line up with operation counts.
    fn decide(&self, class: PathClass, op: IoOp) -> Option<DiskFault> {
        let mut state = self.state.lock().unwrap();
        let ordinal = {
            let c = state.counters.entry((class, op)).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let serial = state.serial;
        state.serial += 1;
        if !state.armed {
            return None;
        }
        for t in &self.plan.targeted {
            if t.op == op && t.ordinal == ordinal && t.class.map_or(true, |c| c == class) {
                state.faults += 1;
                return Some(t.fault);
            }
        }
        if op == IoOp::Write {
            if let Some(limit) = self.plan.enospc_after_bytes {
                if state.bytes_written >= limit {
                    state.faults += 1;
                    return Some(DiskFault::Enospc);
                }
            }
        }
        if self.plan.fsync_lies && matches!(op, IoOp::Sync | IoOp::SyncDir) {
            state.faults += 1;
            return Some(DiskFault::FsyncLie);
        }
        if self.plan.eio_rate > 0.0
            && matches!(op, IoOp::Read | IoOp::Write | IoOp::Sync)
            && uniform(self.plan.seed, serial) < self.plan.eio_rate
        {
            state.faults += 1;
            return Some(DiskFault::Eio);
        }
        None
    }

    fn injected_err(&self, fault: DiskFault, op: IoOp, path: &Path) -> io::Error {
        io::Error::other(format!(
            "{INJECTED_MARKER} {} during {} of {}",
            fault.describe(),
            op.name(),
            path.display()
        ))
    }

    fn note_bytes(&self, n: u64) {
        self.state.lock().unwrap().bytes_written += n;
    }

    fn note_created(&self, path: &Path) {
        let mut state = self.state.lock().unwrap();
        state.unpublished.insert(path.to_owned());
        state.shadows.insert(
            path.to_owned(),
            Shadow {
                created_unsynced: true,
                undo: Vec::new(),
            },
        );
    }

    /// Record the pre-image of `[offset, offset + len)` of `path` before
    /// it is overwritten, so `power_cut` can restore it.
    fn note_write(&self, path: &Path, file: &dyn StorageFile, offset: u64, len: u64) {
        let old_len = file.len().unwrap_or(0);
        let overlap_end = old_len.min(offset + len);
        let mut old = Vec::new();
        if overlap_end > offset {
            old = vec![0u8; (overlap_end - offset) as usize];
            if file.read_exact_at(offset, &mut old).is_err() {
                old.clear();
            }
        }
        let mut state = self.state.lock().unwrap();
        let shadow = state.shadows.entry(path.to_owned()).or_default();
        if !shadow.created_unsynced {
            shadow.undo.push(UndoRecord {
                offset,
                old,
                old_len,
            });
        }
    }

    /// A real sync happened on `path`: its writes are durable, drop the
    /// rollback state.
    fn note_synced(&self, path: &Path) {
        let mut state = self.state.lock().unwrap();
        if let Some(shadow) = state.shadows.get_mut(path) {
            shadow.created_unsynced = false;
            shadow.undo.clear();
        }
    }

    fn note_renamed(&self, from: &Path, to: &Path) {
        let mut state = self.state.lock().unwrap();
        if let Some(shadow) = state.shadows.remove(from) {
            state.shadows.insert(to.to_owned(), shadow);
        }
        if state.unpublished.remove(from) {
            state.unpublished.insert(to.to_owned());
        }
    }

    fn note_removed(&self, path: &Path) {
        let mut state = self.state.lock().unwrap();
        state.shadows.remove(path);
        state.unpublished.remove(path);
    }

    /// A real directory fsync happened on `dir`: the entries of files
    /// created in it are durable.
    fn note_dir_synced(&self, dir: &Path) {
        let mut state = self.state.lock().unwrap();
        state.unpublished.retain(|p| p.parent() != Some(dir));
    }
}

// ---------------------------------------------------------------------------
// StorageIo / StorageFile plumbing
// ---------------------------------------------------------------------------

impl StorageIo for DiskChaos {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Create) {
            return Err(self.injected_err(f, IoOp::Create, path));
        }
        let existed = self.inner.exists(path);
        let inner = self.inner.create(path)?;
        if !existed {
            self.note_created(path);
        }
        Ok(Box::new(ChaosFile {
            chaos: self.arc(),
            class,
            path: path.to_owned(),
            inner,
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Open) {
            return Err(self.injected_err(f, IoOp::Open, path));
        }
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(ChaosFile {
            chaos: self.arc(),
            class,
            path: path.to_owned(),
            inner,
        }))
    }

    fn open_rw_create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Open) {
            return Err(self.injected_err(f, IoOp::Open, path));
        }
        let existed = self.inner.exists(path);
        let inner = self.inner.open_rw_create(path)?;
        if !existed {
            self.note_created(path);
        }
        Ok(Box::new(ChaosFile {
            chaos: self.arc(),
            class,
            path: path.to_owned(),
            inner,
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Open) {
            return Err(self.injected_err(f, IoOp::Open, path));
        }
        let inner = self.inner.open_read(path)?;
        Ok(Box::new(ChaosFile {
            chaos: self.arc(),
            class,
            path: path.to_owned(),
            inner,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Read) {
            return Err(self.injected_err(f, IoOp::Read, path));
        }
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if let Some(f) = self.decide(PathClass::Dir, IoOp::List) {
            return Err(self.injected_err(f, IoOp::List, dir));
        }
        self.inner.list_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some(f) = self.decide(PathClass::Dir, IoOp::Create) {
            return Err(self.injected_err(f, IoOp::Create, dir));
        }
        self.inner.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let class = PathClass::of(path);
        if let Some(f) = self.decide(class, IoOp::Remove) {
            return Err(self.injected_err(f, IoOp::Remove, path));
        }
        self.inner.remove_file(path)?;
        self.note_removed(path);
        Ok(())
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some(f) = self.decide(PathClass::Dir, IoOp::Remove) {
            return Err(self.injected_err(f, IoOp::Remove, dir));
        }
        self.inner.remove_dir_all(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Classify by the destination: "fault the wave publish" targets
        // the rename that installs wave-0001.ckpt, not its .tmp source.
        let class = PathClass::of(to);
        if let Some(f) = self.decide(class, IoOp::Rename) {
            return Err(self.injected_err(f, IoOp::Rename, to));
        }
        self.inner.rename(from, to)?;
        self.note_renamed(from, to);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.decide(PathClass::Dir, IoOp::SyncDir) {
            Some(DiskFault::FsyncLie) => Ok(()), // the lie
            Some(f) => Err(self.injected_err(f, IoOp::SyncDir, dir)),
            None => {
                self.inner.sync_dir(dir)?;
                self.note_dir_synced(dir);
                Ok(())
            }
        }
    }
}

impl DiskChaos {
    /// The owning `Arc`, so file handles keep the injector alive.
    fn arc(&self) -> Arc<DiskChaos> {
        self.me.upgrade().expect("DiskChaos is always Arc-owned")
    }
}

/// One chaos-wrapped open file.
#[derive(Debug)]
struct ChaosFile {
    chaos: Arc<DiskChaos>,
    class: PathClass,
    path: PathBuf,
    inner: Box<dyn StorageFile>,
}

impl StorageFile for ChaosFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if let Some(f) = self.chaos.decide(self.class, IoOp::Read) {
            return Err(self.chaos.injected_err(f, IoOp::Read, &self.path));
        }
        self.inner.read_exact_at(offset, buf)
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.chaos.decide(self.class, IoOp::Write) {
            Some(DiskFault::Torn { keep }) => {
                let k = (keep.min(data.len() as u64)) as usize;
                if k > 0 {
                    self.chaos
                        .note_write(&self.path, self.inner.as_ref(), offset, k as u64);
                    self.inner.write_all_at(offset, &data[..k])?;
                    self.chaos.note_bytes(k as u64);
                }
                Err(self
                    .chaos
                    .injected_err(DiskFault::Torn { keep }, IoOp::Write, &self.path))
            }
            Some(f) => Err(self.chaos.injected_err(f, IoOp::Write, &self.path)),
            None => {
                self.chaos
                    .note_write(&self.path, self.inner.as_ref(), offset, data.len() as u64);
                self.inner.write_all_at(offset, data)?;
                self.chaos.note_bytes(data.len() as u64);
                Ok(())
            }
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        match self.chaos.decide(self.class, IoOp::Sync) {
            Some(DiskFault::FsyncLie) => Ok(()), // acknowledged, not durable
            Some(f) => Err(self.chaos.injected_err(f, IoOp::Sync, &self.path)),
            None => {
                self.inner.sync_data()?;
                self.chaos.note_synced(&self.path);
                Ok(())
            }
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        match self.chaos.decide(self.class, IoOp::Sync) {
            Some(DiskFault::FsyncLie) => Ok(()),
            Some(f) => Err(self.chaos.injected_err(f, IoOp::Sync, &self.path)),
            None => {
                self.inner.sync_all()?;
                self.chaos.note_synced(&self.path);
                Ok(())
            }
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        // Truncation is a write for scheduling purposes.
        if let Some(f) = self.chaos.decide(self.class, IoOp::Write) {
            return Err(self.chaos.injected_err(f, IoOp::Write, &self.path));
        }
        let old_len = self.inner.len().unwrap_or(0);
        if len < old_len {
            // Preserve the truncated tail for power_cut.
            self.chaos
                .note_write(&self.path, self.inner.as_ref(), len, old_len - len);
        }
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn as_file(&self) -> Option<&File> {
        self.inner.as_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toreador-chaos-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn path_classes_from_names() {
        assert_eq!(
            PathClass::of(Path::new("/s/wal-00000000000000000001.log")),
            PathClass::WalSegment
        );
        assert_eq!(
            PathClass::of(Path::new("/s/snapshot-00000000000000000009.snap")),
            PathClass::Snapshot
        );
        assert_eq!(PathClass::of(Path::new("/s/LOCK")), PathClass::Lock);
        assert_eq!(
            PathClass::of(Path::new("/c/manifest.json")),
            PathClass::Manifest
        );
        assert_eq!(
            PathClass::of(Path::new("/c/wave-0001.ckpt")),
            PathClass::Wave
        );
        assert_eq!(
            PathClass::of(Path::new("/p/run-000001.pages")),
            PathClass::Pages
        );
        // .tmp wins over the published suffix.
        assert_eq!(
            PathClass::of(Path::new("/c/wave-0001.ckpt.tmp")),
            PathClass::Temp
        );
        assert_eq!(PathClass::of(Path::new("/x/notes.txt")), PathClass::Other);
    }

    #[test]
    fn target_spec_round_trips() {
        let t = DiskTarget::parse("wal:write:3:torn@12").unwrap();
        assert_eq!(t.class, Some(PathClass::WalSegment));
        assert_eq!(t.op, IoOp::Write);
        assert_eq!(t.ordinal, 3);
        assert_eq!(t.fault, DiskFault::Torn { keep: 12 });
        let t = DiskTarget::parse("any:sync:0:fsynclie").unwrap();
        assert_eq!(t.class, None);
        assert_eq!(t.fault, DiskFault::FsyncLie);
        assert!(DiskTarget::parse("wal:write:x:eio").is_err());
        assert!(DiskTarget::parse("wal:write:1:melt").is_err());
        assert!(DiskTarget::parse("blob:write:1:eio").is_err());
    }

    #[test]
    fn targeted_write_fails_at_exactly_its_ordinal() {
        let dir = tmp_dir("ordinal");
        let plan = DiskChaosPlan::targeted(vec![DiskTarget::parse("other:write:1:eio").unwrap()]);
        let (chaos, _guard) = DiskChaos::register(&dir, plan);
        let io = crate::io::io_for(&dir.join("f"));
        let f = io.create(&dir.join("f")).unwrap();
        f.write_all_at(0, b"first").unwrap();
        let err = f.write_all_at(5, b"second").unwrap_err();
        assert!(err.to_string().contains(INJECTED_MARKER), "{err}");
        assert!(err.to_string().contains("EIO"), "{err}");
        f.write_all_at(5, b"third").unwrap();
        assert_eq!(chaos.faults_injected(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_persists_a_prefix_then_errors() {
        let dir = tmp_dir("torn");
        let plan =
            DiskChaosPlan::targeted(vec![DiskTarget::parse("other:write:0:torn@3").unwrap()]);
        let (_chaos, _guard) = DiskChaos::register(&dir, plan);
        let io = crate::io::io_for(&dir.join("f"));
        let f = io.create(&dir.join("f")).unwrap();
        let err = f.write_all_at(0, b"abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(f.len().unwrap(), 3);
        let mut buf = [0u8; 3];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_budget_halts_writes() {
        let dir = tmp_dir("enospc");
        let plan = DiskChaosPlan {
            enospc_after_bytes: Some(8),
            ..DiskChaosPlan::default()
        };
        let (_chaos, _guard) = DiskChaos::register(&dir, plan);
        let io = crate::io::io_for(&dir.join("f"));
        let f = io.create(&dir.join("f")).unwrap();
        f.write_all_at(0, b"12345678").unwrap();
        let err = f.write_all_at(8, b"x").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_lie_then_power_cut_loses_unsynced_writes_only() {
        let dir = tmp_dir("powercut");
        let path = dir.join("f");
        // Phase 1 (no chaos): write + really sync a prefix.
        {
            let io = crate::io::real_io();
            let f = io.create(&path).unwrap();
            f.write_all_at(0, b"durable!").unwrap();
            f.sync_all().unwrap();
        }
        // Phase 2: chaos with lying fsyncs; overwrite and extend.
        let plan = DiskChaosPlan {
            fsync_lies: true,
            ..DiskChaosPlan::default()
        };
        let (chaos, _guard) = DiskChaos::register(&dir, plan);
        {
            let io = crate::io::io_for(&path);
            let f = io.open_rw(&path).unwrap();
            f.write_all_at(0, b"clobber!").unwrap();
            f.write_all_at(8, b"-extended").unwrap();
            f.sync_all().unwrap(); // lie: reports Ok, durable nothing
        }
        // Also create a brand-new file that is never really synced.
        {
            let io = crate::io::io_for(&dir.join("ghost"));
            let f = io.create(&dir.join("ghost")).unwrap();
            f.write_all_at(0, b"gone").unwrap();
            f.sync_all().unwrap(); // lie
        }
        chaos.power_cut().unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"durable!");
        assert!(!dir.join("ghost").exists(), "unsynced creation is lost");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_rates_are_deterministic() {
        let a: Vec<bool> = (0..200).map(|s| uniform(42, s) < 0.2).collect();
        let b: Vec<bool> = (0..200).map(|s| uniform(42, s) < 0.2).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "some ops fault at 20%");
        assert!(a.iter().any(|&x| !x), "some ops pass at 20%");
        let c: Vec<bool> = (0..200).map(|s| uniform(43, s) < 0.2).collect();
        assert_ne!(a, c, "different seeds, different schedule");
    }

    #[test]
    fn disarm_stops_injection() {
        let dir = tmp_dir("disarm");
        let (chaos, _guard) = DiskChaos::register(&dir, DiskChaosPlan::flaky(7, 1.0));
        let io = crate::io::io_for(&dir.join("f"));
        let f = io.create(&dir.join("f")).unwrap();
        assert!(f.write_all_at(0, b"x").is_err(), "rate 1.0 faults all");
        chaos.disarm();
        f.write_all_at(0, b"x").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
