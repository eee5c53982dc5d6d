//! End-to-end identity of the scenario path (DESIGN.md §10): a grid
//! emitted as a scenario file and re-executed through
//! [`RunCell::from_scenario`] — the `bfgts_run` path — must produce the
//! same cache keys, byte-identical summaries and the identical set of
//! disk-cache entries as the originating binary's grid.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{emit_scenarios, run_grid, RunCell, RunnerOptions};
use bfgts_bench::{BfgtsTunables, ManagerKind, ManagerSpec, Platform, Scenario};
use bfgts_core::BfgtsVariant;
use bfgts_workloads::presets;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bfgts-scenario-identity-{tag}-{}",
        std::process::id()
    ))
}

fn cache_entries(dir: &Path) -> BTreeSet<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(_) => BTreeSet::new(),
    }
}

/// A small grid shaped like the experiment binaries build: serial
/// baseline, roster managers, a tuned BFGTS cell, a faulted cell.
fn sample_grid() -> Vec<RunCell> {
    let spec = presets::kmeans().scaled(0.02);
    let genome = presets::genome().scaled(0.02);
    let p = Platform::small();
    vec![
        RunCell::serial(&spec, p),
        RunCell::one(&spec, ManagerKind::Backoff, p),
        RunCell::one(&spec, ManagerKind::BfgtsHw, p),
        RunCell::with_manager(
            &spec,
            p,
            ManagerSpec::Bfgts(
                BfgtsTunables::new(BfgtsVariant::Hw)
                    .bloom_bits(512)
                    .small_tx_interval(10),
            ),
        ),
        RunCell::one(&genome, ManagerKind::Pts, p).stm(),
        RunCell::one(&genome, ManagerKind::BfgtsSw, p).faulted(11),
    ]
}

#[test]
fn emitted_scenarios_replay_byte_identically() {
    let dir = temp_dir("emit");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("grid.scenarios.json");

    let cells = sample_grid();
    emit_scenarios(&file, &cells).unwrap();

    let text = std::fs::read_to_string(&file).unwrap();
    let scenarios = bfgts_scenario::scenarios_from_str(&text).unwrap();
    assert_eq!(scenarios.len(), cells.len());
    let replayed: Vec<RunCell> = scenarios
        .into_iter()
        .map(|s| RunCell::from_scenario(s).expect("emitted scenarios are executable"))
        .collect();

    for (original, replay) in cells.iter().zip(&replayed) {
        assert_eq!(
            original.cache_key(),
            replay.cache_key(),
            "the scenario file must preserve the cache identity"
        );
        assert_eq!(
            original.execute(),
            replay.execute(),
            "the scenario file must preserve the result, byte for byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_paths_share_one_disk_cache() {
    let grid_cache = temp_dir("grid-cache");
    let replay_cache = temp_dir("replay-cache");
    let _ = std::fs::remove_dir_all(&grid_cache);
    let _ = std::fs::remove_dir_all(&replay_cache);

    let cells = sample_grid();
    let direct = run_grid(
        &cells,
        &RunnerOptions {
            jobs: 2,
            cache_dir: Some(grid_cache.clone()),
        },
    );

    let file = temp_dir("emit2").join("grid.scenarios.json");
    emit_scenarios(&file, &cells).unwrap();
    let replayed: Vec<RunCell> =
        bfgts_scenario::scenarios_from_str(&std::fs::read_to_string(&file).unwrap())
            .unwrap()
            .into_iter()
            .map(|s| RunCell::from_scenario(s).unwrap())
            .collect();
    let via_file = run_grid(
        &replayed,
        &RunnerOptions {
            jobs: 2,
            cache_dir: Some(replay_cache.clone()),
        },
    );

    assert_eq!(direct, via_file, "summaries must match byte for byte");
    assert_eq!(
        cache_entries(&grid_cache),
        cache_entries(&replay_cache),
        "both execution paths must write the identical cache file set"
    );

    // And a second replay run is served entirely from the first run's
    // cache: the file set does not change.
    let before = cache_entries(&replay_cache);
    let again = run_grid(
        &replayed,
        &RunnerOptions {
            jobs: 1,
            cache_dir: Some(replay_cache.clone()),
        },
    );
    assert_eq!(again, via_file);
    assert_eq!(before, cache_entries(&replay_cache));

    let _ = std::fs::remove_dir_all(&grid_cache);
    let _ = std::fs::remove_dir_all(&replay_cache);
    let _ = std::fs::remove_dir_all(temp_dir("emit2"));
}

#[test]
fn custom_cells_stay_out_of_the_cache_and_the_scenario_path() {
    let cache = temp_dir("custom");
    let _ = std::fs::remove_dir_all(&cache);

    // A scenario file may name an opaque custom manager; it parses, but
    // nothing can rebuild the manager from data.
    let spec = presets::kmeans().scaled(0.02);
    let mut cell = RunCell::one(&spec, ManagerKind::Backoff, Platform::small());
    let mut doc = cell.scenario.to_json();
    if let Json::Obj(map) = &mut doc {
        map.insert(
            "manager".to_string(),
            Json::parse(r#"{"kind":"custom","tag":"opaque"}"#).unwrap(),
        );
    }
    let parsed = Scenario::from_json(&doc).expect("custom managers parse");
    assert!(RunCell::from_scenario(parsed.clone()).is_err());

    // Smuggled into a cell anyway, it is not cacheable: the grid refuses
    // to run it and leaves the disk cache untouched.
    cell.scenario = parsed;
    assert!(!cell.cacheable());
    let opts = RunnerOptions {
        jobs: 1,
        cache_dir: Some(cache.clone()),
    };
    let ran = std::panic::catch_unwind(|| run_grid(std::slice::from_ref(&cell), &opts));
    assert!(ran.is_err(), "a custom manager cannot be executed");
    assert_eq!(
        cache_entries(&cache).len(),
        0,
        "custom cells must never be persisted"
    );
    let _ = std::fs::remove_dir_all(&cache);
}
