//! What the ledger reads from the operating system: peak memory of a
//! process, the host descriptor a baseline is stamped with, and the one
//! signal it sends.

use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

/// `VmHWM` (peak resident set) of process `pid`, MiB, from
/// `/proc/<pid>/status`. `None` where procfs is absent or the process is
/// gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process, MiB.
pub fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(std::process::id())
}

/// Ask `pid` to terminate (SIGTERM), as an operator's `kill` would.
#[cfg(unix)]
pub fn terminate(pid: u32) -> bool {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // `pid` is a child this process spawned and has not yet reaped, so it
    // cannot have been recycled for another process.
    unsafe { kill(pid as i32, SIGTERM) == 0 }
}

#[cfg(not(unix))]
pub fn terminate(_pid: u32) -> bool {
    false
}

/// Where and on what a set of numbers was taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Host {
    pub fn describe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: first_line_of("rustc", &["--version"]),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh, empty directory at `path` (any previous content removed).
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(own_peak_rss_mb().unwrap() > 0.0);
        }
        assert_eq!(peak_rss_mb(u32::MAX), None);
    }
}
