//! The benchmark's own tests: the decorators are transparent, every
//! workload runs clean at a tiny size, and the metric set matches
//! `BENCHMARK.json`.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{CellSummary, RunCell};
use bfgts_sim::TraceMode;
use perfbench::bench::{self, Options};
use perfbench::cells::{Workload, DEFAULT_SEED};
use perfbench::spans::Lowered;
use perfbench::{valid_metric_name, MetricDef, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

#[test]
fn decorators_and_lowering_are_transparent_on_the_fig4_smoke_grid() {
    let path = repo_root().join("examples/scenarios/fig4_kmeans_smoke.scenarios.json");
    let text = std::fs::read_to_string(path).expect("the smoke grid is committed");
    let scenarios = bfgts_scenario::scenarios_from_str(&text).expect("the smoke grid parses");
    assert!(!scenarios.is_empty());
    for scenario in scenarios {
        let cell = RunCell::from_scenario(scenario).expect("the smoke grid runs from data");
        let want = cell.execute();
        for spanned in [false, true] {
            let lowered = Lowered::new(&cell, TraceMode::Off).expect("lowers");
            let sources = lowered.sources(&cell);
            let (report, hooks) = lowered.run(sources, spanned);
            assert_eq!(
                CellSummary::from_report(&report),
                want,
                "{} (spanned: {spanned})",
                cell.scenario.id()
            );
            assert_eq!(hooks.begin.calls > 0, spanned);
        }
        let lowered = Lowered::new(&cell, TraceMode::Full).expect("lowers");
        let sources = lowered.sources(&cell);
        let (report, _) = lowered.run(sources, true);
        report
            .audit()
            .expect("a full-traced decorated run audits clean");
        assert_eq!(CellSummary::from_report(&report), want);
    }
}

/// Builds `bfgts_serve` from the repository's workspace.
fn serve_bin() -> PathBuf {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "bfgts-bench",
            "--bin",
            "bfgts_serve",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "bfgts_serve builds");
    target.join("release").join("bfgts_serve")
}

fn tiny(workload: Workload, trace: bool, serve_bin: Option<PathBuf>) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        jobs: workload.jobs(),
        scale: 0.02,
        serve_bin,
        digest_dir: Some(repo_root().join("perfbench/digests")),
    }
}

fn assert_clean(opts: &Options) {
    let outcome = bench::run(opts).expect("the run completes");
    let what = format!("{} trace={}", opts.workload.name(), opts.trace);
    assert!(outcome.ledger.attempted > 0, "{what}");
    assert_eq!(
        outcome.ledger.failed, 0,
        "{what}: {:?}",
        outcome.ledger.notes
    );
    let metrics = outcome.metrics_json(opts.trace);
    let Json::Obj(map) = metrics else {
        panic!("{what}: metrics are an object")
    };
    for (name, entry) in &map {
        assert!(entry.get("value").is_some(), "{what}: {name}");
    }
    if !opts.trace {
        for def in END_TO_END {
            let Some(Json::Float(v)) = map[def.name].get("value") else {
                panic!("{what}: {} is a float", def.name)
            };
            assert!(*v > 0.0, "{what}: end-to-end metric {} is {v}", def.name);
        }
    }
}

#[test]
fn every_workload_runs_clean_at_a_tiny_size() {
    for workload in [Workload::PaperGrid, Workload::Wide1024] {
        assert_clean(&tiny(workload, false, None));
        assert_clean(&tiny(workload, true, None));
    }
    assert_clean(&tiny(Workload::ServeStream, false, Some(serve_bin())));
    assert_clean(&tiny(Workload::ServeStream, true, None));
}

#[test]
fn the_default_seed_matches_the_committed_digest() {
    // The wide cells are the cheapest full-size workload to replay.
    let opts = Options {
        workload: Workload::Wide1024,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        jobs: 1,
        scale: 1.0,
        serve_bin: None,
        digest_dir: Some(repo_root().join("perfbench/digests")),
    };
    let outcome = bench::run(&opts).expect("the run completes");
    assert_eq!(outcome.ledger.failed, 0, "{:?}", outcome.ledger.notes);
    assert_eq!(outcome.digest.len(), 2);
}

/// `(name, unit, better)` of every metric listed under `key`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_metric_name(def.name), "{}", def.name);
        assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names are unique");

    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is committed");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("named"))
        .collect();
    let names: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
