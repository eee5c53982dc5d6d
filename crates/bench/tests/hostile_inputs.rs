//! Hostile inputs at the binaries' trust boundaries: a document nested
//! far past the JSON parser's depth limit must be reported as an error,
//! never overflow the stack, and a server must go on serving after it.

use bfgts_bench::trace_export::to_jsonl;
use bfgts_scenario::{ManagerSpec, Platform, Scenario, WorkloadSpec};
use bfgts_trace::{AuditInputs, TraceRecording};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// 200,000 unclosed `[`: deep enough to overflow any default stack if
/// the parser recursed without a bound.
fn deep_line() -> String {
    "[".repeat(200_000)
}

#[test]
fn trace_dump_reports_a_deeply_nested_line() {
    let header = to_jsonl(
        &TraceRecording {
            events: Vec::new(),
            dropped: 0,
        },
        &AuditInputs {
            makespan: 0,
            num_cpus: 1,
            per_thread: Vec::new(),
            window_seed: None,
        },
    );
    let path =
        std::env::temp_dir().join(format!("bfgts_hostile_{}_deep.jsonl", std::process::id()));
    std::fs::write(&path, header + &deep_line() + "\n").expect("temp file writable");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .arg(&path)
        .arg("--audit")
        .output()
        .expect("trace_dump runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("line 2: nesting deeper than"), "{stderr}");
}

#[test]
fn bfgts_serve_reports_a_deeply_nested_document_and_serves_the_next() {
    let scenario = Scenario::new(
        WorkloadSpec::Preset {
            name: "Kmeans".into(),
            total_txs: 50,
        },
        ManagerSpec::Serial,
        Platform::small(),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_bfgts_serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bfgts_serve starts");
    let input = format!("{}\n{}\n", deep_line(), scenario.to_json());
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("stdin accepts the documents");
    let out = child.wait_with_output().expect("bfgts_serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The bad document fails the run (exit 1), but does not abort it.
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: stdin:1:") && stderr.contains("nesting deeper than"),
        "{stderr}"
    );
    assert!(stderr.contains("serve: stdin:2: 1 scenario(s)"), "{stderr}");
    let summary = format!("\"scenario\":\"{}\"", scenario.id());
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("\"kind\":\"summary\"") && l.contains(&summary)),
        "{stdout}"
    );
}
