//! Fixture-driven self-test: every rule has positive, negative and
//! waived example files under `fixtures/`, each paired with a golden
//! diagnostic listing under `fixtures/expected/`. `detlint --self-test`
//! and `cargo test -p detlint` both run this, so the lint cannot drift
//! from its own spec silently.
//!
//! Plain fixtures are single `.rs` files scanned as a critical crate
//! named `fixture` unless a directive comment says otherwise:
//!
//! - `detlint-fixture-class: tooling` — scan as a tooling crate.
//! - `detlint-fixture-crate: sim` — scan under that crate name (the
//!   P/A-rules gate on explicit crate lists, so panic/arithmetic
//!   fixtures opt in this way).
//! - `detlint-fixture-mode: workspace` — scan with workspace-mode
//!   semantics (W002 promoted to an error).

use crate::engine::scan_source;
use crate::rules::{CrateClass, ScanCtx};
use std::fmt::Write as _;
use std::path::Path;

/// Outcome of a self-test run.
#[derive(Debug, Default)]
pub struct SelfTest {
    /// Number of fixture files checked.
    pub fixtures: usize,
    /// One human-readable entry per failing fixture; empty = pass.
    pub failures: Vec<String>,
}

impl SelfTest {
    /// True when every fixture matched its golden output.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.fixtures > 0
    }
}

/// Directive that marks a fixture as tooling-classed (see
/// [`CrateClass`]); everything else is scanned as critical.
const TOOLING_DIRECTIVE: &str = "detlint-fixture-class: tooling";
/// Directive prefix that sets the crate name a fixture scans under.
const CRATE_DIRECTIVE: &str = "detlint-fixture-crate:";
/// Directive that turns on workspace-mode semantics for a fixture.
const WORKSPACE_DIRECTIVE: &str = "detlint-fixture-mode: workspace";

/// Extracts the value of a `key: value` directive from fixture source.
fn directive_value<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let pos = src.find(key)?;
    src[pos + key.len()..]
        .lines()
        .next()
        .map(str::trim)?
        .split_whitespace()
        .next()
}

/// Runs every fixture and compares against its golden file.
pub fn run(fixture_dir: &Path) -> std::io::Result<SelfTest> {
    let mut result = SelfTest::default();
    let mut names: Vec<_> = std::fs::read_dir(fixture_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();

    for path in names {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<fixture>")
            .to_string();
        let stem = name.trim_end_matches(".rs");
        let src = std::fs::read_to_string(&path)?;
        let class = if src.contains(TOOLING_DIRECTIVE) {
            CrateClass::Tooling
        } else {
            CrateClass::Critical
        };
        let crate_name = directive_value(&src, CRATE_DIRECTIVE).unwrap_or("fixture");
        let ctx = ScanCtx {
            class,
            crate_name,
            workspace: src.contains(WORKSPACE_DIRECTIVE),
            test_file: false,
        };
        let report = scan_source(&name, &src, &ctx);
        let mut got = String::new();
        for d in &report.diags {
            writeln!(got, "{}", d.render()).unwrap();
        }
        check_golden(fixture_dir, stem, &name, &got, &mut result);
    }

    Ok(result)
}

fn check_golden(fixture_dir: &Path, stem: &str, name: &str, got: &str, result: &mut SelfTest) {
    let golden_path = fixture_dir.join("expected").join(format!("{stem}.txt"));
    let want = std::fs::read_to_string(&golden_path).unwrap_or_default();
    result.fixtures += 1;
    if normalise(got) != normalise(&want) {
        result.failures.push(format!(
            "fixture {name}: diagnostics diverge from {}\n--- expected ---\n{want}\n--- got ---\n{got}",
            golden_path.display()
        ));
    }
}

fn normalise(text: &str) -> Vec<String> {
    text.lines().map(|l| l.trim_end().to_string()).collect()
}

/// The crate's own fixture directory (compile-time path; the fixtures
/// ship in-tree).
pub fn default_fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}
