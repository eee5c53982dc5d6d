//! Golden-file fixture suite: the same corpus `--self-test` runs.
//!
//! Each `fixtures/*.rs` file is scanned and its rendered diagnostics are
//! compared against `fixtures/expected/<stem>.txt`. A fixture without a
//! golden file (or with an empty one) is expected to be clean.

use detlint::selftest;

#[test]
fn fixture_corpus_matches_golden_output() {
    let report = selftest::run(&selftest::default_fixture_dir()).expect("fixture dir readable");
    for failure in &report.failures {
        eprintln!("{failure}");
    }
    assert!(
        report.passed(),
        "{} of {} fixtures diverged from their golden output",
        report.failures.len(),
        report.fixtures
    );
}

#[test]
fn fixture_corpus_covers_every_rule() {
    let dir = selftest::default_fixture_dir();
    let expected_dir = dir.join("expected");
    let mut goldens = String::new();
    for entry in std::fs::read_dir(&expected_dir).expect("read expected dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            goldens.push_str(&std::fs::read_to_string(&path).expect("read golden"));
        }
    }
    for code in [
        "D001", "D002", "D003", "D004", "D005", "P001", "P002", "P003", "A001", "W001", "W002",
    ] {
        assert!(
            goldens.contains(&format!("[{code}:")),
            "no fixture exercises rule {code}"
        );
    }
    // Both severities and the workspace-mode W002 escalation must be
    // pinned by at least one golden.
    for tag in ["[P001:error]", "[P001:warn]", "[W002:error]", "[W002:warn]"] {
        assert!(goldens.contains(tag), "no fixture pins {tag}");
    }
}
