//! Workspace discovery: which files to scan and how strictly to treat
//! each crate.

use crate::rules::CrateClass;
use std::path::{Path, PathBuf};

/// Crates whose output never feeds simulation results; exempt from the
/// hash-order rules, still subject to D002. Everything else — including
/// any crate added later — defaults to critical, so a new crate must
/// opt *out* of the policy, never accidentally out of enforcement.
const TOOLING_CRATES: &[&str] = &["testkit", "bench", "detlint"];

/// Directory names never scanned.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// detlint's rule fixtures contain violations on purpose; they are only
/// read by `--self-test` and the fixture tests.
const FIXTURE_DIR: &str = "crates/detlint/fixtures";

/// Classifies a workspace-relative path: `(crate name, class)`.
pub fn classify(rel_path: &str) -> (String, CrateClass) {
    let name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("bfgts-repro")
        .to_string();
    let class = if TOOLING_CRATES.contains(&name.as_str()) {
        CrateClass::Tooling
    } else {
        CrateClass::Critical
    };
    (name, class)
}

/// True for paths under a `tests/` directory (integration tests):
/// P/A-rules are test-exempt there, matching the `#[cfg(test)]`
/// exemption inside source files.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| seg == "tests")
}

/// True if `dir` holds a `Cargo.toml` declaring `[workspace]`.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every lintable `.rs` file under `root`, workspace-relative,
/// sorted (deterministic output is rather the point of this tool).
/// A subdirectory that declares a workspace of its own is not part of
/// this one and is skipped.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name)
                || name.starts_with('.')
                || rel == FIXTURE_DIR
                || is_workspace_root(&path)
            {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            files.push(PathBuf::from(rel));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_and_tooling_classification() {
        assert_eq!(
            classify("crates/htm/src/state.rs"),
            ("htm".into(), CrateClass::Critical)
        );
        assert_eq!(
            classify("crates/bench/src/runner.rs"),
            ("bench".into(), CrateClass::Tooling)
        );
        assert_eq!(
            classify("crates/detlint/src/main.rs"),
            ("detlint".into(), CrateClass::Tooling)
        );
        // Root crate and unknown future crates stay critical by default.
        assert_eq!(
            classify("src/lib.rs"),
            ("bfgts-repro".into(), CrateClass::Critical)
        );
        assert_eq!(
            classify("crates/newthing/src/lib.rs").1,
            CrateClass::Critical
        );
    }

    #[test]
    fn test_paths_are_detected() {
        assert!(is_test_path("crates/sim/tests/determinism.rs"));
        assert!(is_test_path("tests/smoke.rs"));
        assert!(!is_test_path("crates/sim/src/engine.rs"));
        assert!(!is_test_path("crates/testkit/src/lib.rs"));
    }

    #[test]
    fn workspace_walk_finds_this_crate_but_not_fixtures() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let files = collect_files(&root).expect("walk");
        assert!(files
            .iter()
            .any(|f| f.to_string_lossy() == "crates/detlint/src/main.rs"));
        assert!(files
            .iter()
            .any(|f| f.to_string_lossy() == "crates/htm/src/state.rs"));
        assert!(!files
            .iter()
            .any(|f| f.to_string_lossy().contains("detlint/fixtures")));
        // `perfbench/` declares a workspace of its own.
        assert!(!files.iter().any(|f| f.starts_with("perfbench")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be sorted");
    }
}
