//! Hostile inputs at the binaries' trust boundaries: a document nested
//! far past the JSON parser's depth limit, declaring a platform far
//! wider than any experiment runs, or asking for a Bloom filter no
//! signature can be built as or a confidence table no run can hold,
//! must be reported as an error — never overflow the stack, panic or
//! abort on allocation — and a server must go on serving after it.

use bfgts_bench::trace_export::to_jsonl;
use bfgts_core::{BfgtsConfig, MAX_ALIAS_SLOTS, MAX_BLOOM_BITS};
use bfgts_scenario::{BfgtsTunables, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec};
use bfgts_trace::{AuditInputs, TraceRecording};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// 200,000 unclosed `[`: deep enough to overflow any default stack if
/// the parser recursed without a bound.
fn deep_line() -> String {
    "[".repeat(200_000)
}

fn empty_trace(num_cpus: usize) -> String {
    to_jsonl(
        &TraceRecording {
            events: Vec::new(),
            dropped: 0,
        },
        &AuditInputs {
            makespan: 0,
            num_cpus,
            per_thread: Vec::new(),
            window_seed: None,
        },
    )
}

/// Runs `trace_dump FILE --audit` on `text`; returns (exit code, stderr).
fn trace_dump_audit(tag: &str, text: &str) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("bfgts_hostile_{}_{tag}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("temp file writable");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .arg(&path)
        .arg("--audit")
        .output()
        .expect("trace_dump runs");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn trace_dump_reports_a_deeply_nested_line() {
    let (code, stderr) = trace_dump_audit("deep", &(empty_trace(1) + &deep_line() + "\n"));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("line 2: nesting deeper than"), "{stderr}");
}

#[test]
fn trace_dump_reports_a_huge_header_cpu_count() {
    let (code, stderr) = trace_dump_audit("cpus", &empty_trace(9_000_000_000_000));
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("line 1: header declares 9000000000000 cpus"),
        "{stderr}"
    );
}

/// A valid small scenario stretched to `cpus` × `threads`.
fn wide_scenario(cpus: usize, threads: usize) -> Scenario {
    Scenario::new(
        WorkloadSpec::Preset {
            name: "Kmeans".into(),
            total_txs: 50,
        },
        ManagerSpec::Kind {
            kind: ManagerKind::Backoff,
            bloom_bits: None,
        },
        Platform {
            cpus,
            threads,
            ..Platform::small()
        },
    )
}

/// Runs `bfgts_run FILE --no-cache` on the document `doc` and requires
/// exit 2 with `expect` on stderr.
fn bfgts_run_rejects(tag: &str, doc: &str, expect: &str) {
    let path = std::env::temp_dir().join(format!(
        "bfgts_hostile_{}_{tag}.scenario.json",
        std::process::id()
    ));
    std::fs::write(&path, doc).expect("temp file writable");
    let out = Command::new(env!("CARGO_BIN_EXE_bfgts_run"))
        .arg(&path)
        .arg("--no-cache")
        .output()
        .expect("bfgts_run runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{tag}: stderr: {stderr}");
    assert!(stderr.contains(expect), "{tag}: {stderr}");
}

#[test]
fn bfgts_run_reports_a_huge_platform() {
    for (tag, cpus, threads) in [
        ("threads", 4, 9_000_000_000),
        ("cpus", 4_000_000_000_000, 8),
    ] {
        bfgts_run_rejects(
            tag,
            &wide_scenario(cpus, threads).to_json().to_string(),
            &format!("platform of {cpus} cpus / {threads} threads exceeds the limit"),
        );
    }
}

/// The roster and the tuned BFGTS-HW manager documents, each with its
/// `bloom_bits` field set to `bits`.
fn bloom_bits_documents(bits: u64) -> [(&'static str, String); 2] {
    let roster = ManagerSpec::Kind {
        kind: ManagerKind::BfgtsHw,
        bloom_bits: Some(512),
    };
    let tuned = ManagerSpec::Bfgts(BfgtsTunables::from_config(
        &BfgtsConfig::hw().bloom_bits(512),
    ));
    [("roster", roster), ("tuned", tuned)].map(|(tag, manager)| {
        let doc = Scenario::new(
            WorkloadSpec::Preset {
                name: "Kmeans".into(),
                total_txs: 50,
            },
            manager,
            Platform {
                cpus: 4,
                threads: 8,
                ..Platform::small()
            },
        )
        .to_json()
        .to_string();
        assert!(doc.contains("\"bloom_bits\":512"), "{doc}");
        (
            tag,
            doc.replace("\"bloom_bits\":512", &format!("\"bloom_bits\":{bits}")),
        )
    })
}

/// Sizes no signature can be built as: not whole 64-bit words, or far
/// past the largest filter any experiment sweeps.
const BAD_BLOOM_BITS: [u64; 5] = [0, 1, 65, 100, 4_000_000_000];

fn bloom_bits_error(bits: u64) -> String {
    format!(
        "manager field 'bloom_bits' must be a multiple of 64 in 64..={MAX_BLOOM_BITS}, got {bits}"
    )
}

#[test]
fn bfgts_run_reports_an_impossible_bloom_size() {
    for bits in BAD_BLOOM_BITS {
        for (tag, doc) in bloom_bits_documents(bits) {
            bfgts_run_rejects(
                &format!("{tag}_bloom_{bits}"),
                &doc,
                &bloom_bits_error(bits),
            );
        }
    }
}

/// A tuned BFGTS-HW manager on Intruder, whose conflicts fill the
/// confidence table, with its `alias_slots` field set to `slots`.
fn alias_slots_document(slots: u64) -> String {
    let manager = ManagerSpec::Bfgts(BfgtsTunables::from_config(
        &BfgtsConfig::hw().with_alias_slots(4),
    ));
    let doc = Scenario::new(
        WorkloadSpec::Preset {
            name: "Intruder".into(),
            total_txs: 400,
        },
        manager,
        Platform {
            cpus: 4,
            threads: 8,
            ..Platform::small()
        },
    )
    .to_json()
    .to_string();
    assert!(doc.contains("\"alias_slots\":4"), "{doc}");
    doc.replace("\"alias_slots\":4", &format!("\"alias_slots\":{slots}"))
}

/// Aliased confidence tables no run can hold: no slot at all, or far
/// more slots² entries than memory.
const BAD_ALIAS_SLOTS: [u64; 2] = [0, 4_000_000_000];

fn alias_slots_error(slots: u64) -> String {
    format!("manager field 'alias_slots' must be in 1..={MAX_ALIAS_SLOTS}, got {slots}")
}

#[test]
fn bfgts_run_reports_an_impossible_alias_table() {
    for slots in BAD_ALIAS_SLOTS {
        bfgts_run_rejects(
            &format!("alias_{slots}"),
            &alias_slots_document(slots),
            &alias_slots_error(slots),
        );
    }
}

/// Feeds `bad` then a valid scenario to `bfgts_serve --stdin`: the bad
/// document fails the run (exit 1) with a report matching `expect`, and
/// the valid one is still served.
fn serve_after(bad: &str, expect: &str) {
    let scenario = wide_scenario(4, 8);
    let mut child = Command::new(env!("CARGO_BIN_EXE_bfgts_serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bfgts_serve starts");
    let input = format!("{bad}\n{}\n", scenario.to_json());
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
        stderr.contains("error: stdin:1:") && stderr.contains(expect),
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

#[test]
fn bfgts_serve_reports_a_deeply_nested_document_and_serves_the_next() {
    serve_after(&deep_line(), "nesting deeper than");
}

#[test]
fn bfgts_serve_reports_a_huge_platform_and_serves_the_next() {
    serve_after(
        &wide_scenario(4, 9_000_000_000).to_json().to_string(),
        "platform of 4 cpus / 9000000000 threads exceeds the limit",
    );
}

#[test]
fn bfgts_serve_reports_an_impossible_bloom_size_and_serves_the_next() {
    for bits in [100, 4_000_000_000] {
        for (_, doc) in bloom_bits_documents(bits) {
            serve_after(&doc, &bloom_bits_error(bits));
        }
    }
}

#[test]
fn bfgts_serve_reports_an_impossible_alias_table_and_serves_the_next() {
    for slots in BAD_ALIAS_SLOTS {
        serve_after(&alias_slots_document(slots), &alias_slots_error(slots));
    }
}
