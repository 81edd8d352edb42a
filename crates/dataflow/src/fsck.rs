//! Offline integrity scrubbing for dataflow durability artifacts.
//!
//! [`scan_tree`] walks a directory tree and assigns every artifact it
//! understands a typed verdict, reusing the taxonomy from
//! [`toreador_store::fsck`]:
//!
//! * **store directories** (anything [`toreador_store::fsck::looks_like_store_dir`]
//!   recognises) are delegated wholesale to the store scanner — WAL
//!   segments, snapshots, the streaming ack log;
//! * **checkpoint run directories** hold a `manifest.json` (JSON-parsed:
//!   clean or corrupt) and `wave-NNNN.ckpt` files, each fully re-verified
//!   through the same loader a resume uses ([`crate::checkpoint`]) —
//!   every frame CRC plus the header's per-partition row counts and
//!   checksums. Waves are published atomically, so *any* damage — torn
//!   tail included — is **corrupt**, never truncatable: a partial wave
//!   is not a shorter wave, and a wave without its manifest is an
//!   **orphan** (nothing can ever resume from it);
//! * **spill artifacts** (`*.pages`) and unpublished atomic writes
//!   (`*.tmp`) are **orphans** by construction: spill files are scratch
//!   that never outlives its run, and a `.tmp` was never published. Both
//!   are exactly what [`crate::spill::SpillManager`]'s sweep removes.
//!
//! Repair goes through [`toreador_store::fsck::repair`], which acts on
//! the verdict alone: orphans are removed, corruption is reported but
//! never guessed at.

use std::path::Path;

use toreador_store::fsck::{looks_like_store_dir, scan_store_dir, Artifact, Verdict};
use toreador_store::io::io_for;

use crate::checkpoint::{load_wave, parse_wave_name, CheckpointManifest};
use crate::error::{FlowError, Result};

/// Recursively scan `root`, returning one [`Artifact`] per file fsck
/// understands (sorted by path). Unknown files are ignored — fsck judges
/// only what it can prove something about.
pub fn scan_tree(root: &Path) -> Result<Vec<Artifact>> {
    let mut out = Vec::new();
    scan_dir(root, &mut out)?;
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn scan_dir(dir: &Path, out: &mut Vec<Artifact>) -> Result<()> {
    if looks_like_store_dir(dir) {
        out.extend(scan_store_dir(dir).map_err(|e| FlowError::Checkpoint(e.to_string()))?);
        return Ok(());
    }
    let io = io_for(dir);
    let entries = io
        .list_dir(dir)
        .map_err(|e| FlowError::Checkpoint(format!("list {}: {e}", dir.display())))?;
    let has_manifest = entries
        .iter()
        .any(|p| p.file_name().is_some_and(|n| n == "manifest.json"));
    for path in entries {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if !io.exists(&path) {
            continue; // raced with a concurrent sweep
        }
        if is_dir(&path) {
            scan_dir(&path, out)?;
        } else if name == "manifest.json" {
            out.push(scan_manifest(&path));
        } else if let Some(wave) = parse_wave_name(&name) {
            out.push(scan_wave(&path, wave, has_manifest));
        } else if name.ends_with(".pages") {
            out.push(Artifact {
                path,
                kind: "spill",
                verdict: Verdict::Orphan {
                    detail: "spill scratch; never outlives its run".to_owned(),
                },
            });
        } else if name.ends_with(".tmp") {
            out.push(Artifact {
                path,
                kind: "temp",
                verdict: Verdict::Orphan {
                    detail: "unpublished atomic write".to_owned(),
                },
            });
        }
    }
    Ok(())
}

/// `list_dir` yields plain paths; only real directories recurse. Injected
/// synthetic backends answer `exists` but not `is_dir`, so fall back to
/// the filesystem here — fsck is an offline tool over real directories.
fn is_dir(path: &Path) -> bool {
    path.is_dir()
}

fn scan_manifest(path: &Path) -> Artifact {
    let verdict = match io_for(path).read_to_string(path) {
        Err(e) => Verdict::Corrupt {
            detail: format!("unreadable manifest: {e}"),
        },
        Ok(text) => match serde_json::from_str::<CheckpointManifest>(&text) {
            Ok(_) => Verdict::Clean,
            Err(e) => Verdict::Corrupt {
                detail: format!("malformed manifest: {e}"),
            },
        },
    };
    Artifact {
        path: path.to_owned(),
        kind: "manifest",
        verdict,
    }
}

fn scan_wave(path: &Path, wave: usize, has_manifest: bool) -> Artifact {
    let verdict = if !has_manifest {
        Verdict::Orphan {
            detail: "wave file without a manifest; nothing can resume from it".to_owned(),
        }
    } else {
        match load_wave(path, wave) {
            Ok(_) => Verdict::Clean,
            Err(e) => Verdict::Corrupt {
                detail: format!("waves publish atomically, so damage is never a torn tail: {e}"),
            },
        }
    };
    Artifact {
        path: path.to_owned(),
        kind: "wave",
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::fs;
    use std::path::PathBuf;

    use toreador_data::generate;

    use crate::checkpoint::{CheckpointSpec, RunCheckpoint, FORMAT_VERSION};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("toreador-flow-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn manifest(run_id: &str) -> CheckpointManifest {
        CheckpointManifest {
            format_version: FORMAT_VERSION,
            run_id: run_id.to_owned(),
            plan_fingerprint: "aaaa".into(),
            config_fingerprint: "bbbb".into(),
            input_fingerprint: "cccc".into(),
            chaos_seed: 0,
            partitions: 2,
        }
    }

    fn seed_checkpoint(root: &Path) -> PathBuf {
        let spec = CheckpointSpec {
            root: root.to_owned(),
            run_id: "run".into(),
            resume: false,
        };
        let ckpt = RunCheckpoint::create(&spec, &manifest("run")).unwrap();
        let t = generate::clickstream(120, 7);
        ckpt.persist_wave(3, 0, &[t]).unwrap();
        spec.dir()
    }

    #[test]
    fn clean_checkpoint_tree_scans_clean() {
        let root = tmp_root("clean");
        seed_checkpoint(&root);
        let arts = scan_tree(&root).unwrap();
        assert!(arts.iter().any(|a| a.kind == "manifest"));
        assert!(arts.iter().any(|a| a.kind == "wave"));
        assert!(arts.iter().all(|a| a.verdict.is_clean()), "{arts:?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flipped_wave_is_classified_corrupt() {
        let root = tmp_root("wave-flip");
        let dir = seed_checkpoint(&root);
        let wave = dir.join("wave-0000.ckpt");
        let mut bytes = fs::read(&wave).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&wave, &bytes).unwrap();
        let arts = scan_tree(&root).unwrap();
        let bad = arts.iter().find(|a| a.path == wave).unwrap();
        assert!(bad.verdict.is_corrupt(), "{:?}", bad.verdict);
        // Corruption is never auto-repaired.
        assert!(toreador_store::fsck::repair(bad).unwrap().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_wave_is_corrupt_not_truncatable() {
        let root = tmp_root("wave-torn");
        let dir = seed_checkpoint(&root);
        let wave = dir.join("wave-0000.ckpt");
        let bytes = fs::read(&wave).unwrap();
        fs::write(&wave, &bytes[..bytes.len() - 3]).unwrap();
        let arts = scan_tree(&root).unwrap();
        let bad = arts.iter().find(|a| a.path == wave).unwrap();
        assert!(
            bad.verdict.is_corrupt(),
            "waves publish atomically, so a torn wave is corrupt: {:?}",
            bad.verdict
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn garbled_manifest_is_corrupt_and_orphan_wave_is_removable() {
        let root = tmp_root("manifest");
        let dir = seed_checkpoint(&root);
        fs::write(dir.join("manifest.json"), b"{ not json").unwrap();
        let arts = scan_tree(&root).unwrap();
        let m = arts.iter().find(|a| a.kind == "manifest").unwrap();
        assert!(m.verdict.is_corrupt(), "{:?}", m.verdict);

        // Without any manifest at all, the wave is an orphan and repair
        // removes it.
        fs::remove_file(dir.join("manifest.json")).unwrap();
        let arts = scan_tree(&root).unwrap();
        let w = arts.iter().find(|a| a.kind == "wave").unwrap();
        assert!(
            matches!(w.verdict, Verdict::Orphan { .. }),
            "{:?}",
            w.verdict
        );
        assert_eq!(
            toreador_store::fsck::repair(w).unwrap().as_deref(),
            Some("removed")
        );
        assert!(!w.path.exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn spill_and_tmp_files_are_orphans_and_store_dirs_delegate() {
        let root = tmp_root("mixed");
        let spill = root.join("spill");
        fs::create_dir_all(&spill).unwrap();
        fs::write(spill.join("run-000001.pages"), b"scratch").unwrap();
        fs::write(spill.join("run-000002.pages.tmp"), b"orphan").unwrap();
        // A nested store directory is judged by the store scanner.
        let store = root.join("store");
        {
            use toreador_store::log::{DurableLog, LogConfig};
            let (mut log, _) = DurableLog::open(&store, LogConfig::default()).unwrap();
            log.append(b"rec").unwrap();
            log.sync().unwrap();
        }
        let arts = scan_tree(&root).unwrap();
        assert!(
            arts.iter()
                .filter(|a| a.kind == "spill" || a.kind == "temp")
                .all(|a| matches!(a.verdict, Verdict::Orphan { .. })),
            "{arts:?}"
        );
        assert!(
            arts.iter().any(|a| a.kind == "wal-segment"),
            "store dir delegated: {arts:?}"
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
