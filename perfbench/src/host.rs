//! What the benchmark records about the machine it ran on, and the
//! guards that keep a run from touching the repository's results.

use bfgts_bench::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The host block every result carries. Timings from hosts whose blocks
/// differ do not compare.
pub fn host_block(seed: u64, jobs: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::UInt(nproc as u64)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest", Json::Str(source_digest())),
        ("cpu_model", Json::Str(cpu_model)),
        ("seed", Json::UInt(seed)),
        ("jobs", Json::UInt(jobs as u64)),
    ])
}

/// Content hash of the sources the benchmark builds (`Cargo.lock`,
/// `crates/` and `perfbench/src/`), so runs from checkouts without git
/// history still say which code they measured.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.lock")];
    let mut stack = vec![PathBuf::from("crates"), PathBuf::from("perfbench/src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut text = String::new();
    for path in &files {
        if let Ok(content) = std::fs::read_to_string(path) {
            text.push_str(&path.display().to_string());
            text.push('\0');
            text.push_str(&content);
        }
    }
    format!("{:016x}", bfgts_scenario::fnv1a(&text, 0))
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a checkout without git history).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size in MiB of process `pid` (`"self"` for this
/// process), from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Every file below `dir` with its length and modification time. An
/// absent directory snapshots as empty.
pub fn snapshot(dir: &Path) -> BTreeMap<String, (u64, Option<std::time::SystemTime>)> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(path) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&path) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                out.insert(
                    entry.path().display().to_string(),
                    (meta.len(), meta.modified().ok()),
                );
            }
        }
    }
    // The directory's own existence is part of the state: a run must not
    // create `results/cache`.
    if dir.join("cache").is_dir() {
        out.insert(format!("{}/cache/", dir.display()), (0, None));
    }
    out
}
