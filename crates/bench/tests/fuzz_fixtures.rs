//! The fuzz campaign pinned byte for byte: the stdout of
//! `bfgts_fuzz --seeds 0..64` and the seeded control's repro file must
//! match the committed fixtures, so any change to how a fuzz cell is
//! built, run, audited or fingerprinted shows up as a diff.

use std::process::Command;

const CAMPAIGN: &str = include_str!("fixtures/fuzz_campaign_0_64.txt");
const CONTROL_REPRO: &str = include_str!("fixtures/fuzz_control_repro.json");

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bfgts_fuzz_fixture_{}_{tag}", std::process::id()))
}

#[test]
fn campaign_stdout_matches_the_fixture() {
    let out_dir = scratch_dir("campaign");
    let out = Command::new(env!("CARGO_BIN_EXE_bfgts_fuzz"))
        .args(["--seeds", "0..64", "--jobs", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("bfgts_fuzz runs");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), CAMPAIGN);
}

#[test]
fn control_repro_matches_the_fixture_and_replays() {
    let out_dir = scratch_dir("control");
    let out = Command::new(env!("CARGO_BIN_EXE_bfgts_fuzz"))
        .arg("--seeded-violation")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("bfgts_fuzz runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the control must be caught: {stderr}"
    );
    let path = out_dir.join("12601089.json");
    let written = std::fs::read_to_string(&path).expect("the control writes its repro");
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(written, CONTROL_REPRO);

    // The committed repro replays: still violating, same fingerprint.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/fuzz_control_repro.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_bfgts_fuzz"))
        .args(["--repro", fixture])
        .output()
        .expect("bfgts_fuzz runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("fingerprint 84b4dfb2bfe34447"), "{stdout}");
}
