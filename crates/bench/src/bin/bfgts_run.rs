//! Executes scenario files (DESIGN.md §10).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bfgts_run -- FILE... [options]
//! ```
//!
//! A scenario file is the JSON written by any experiment binary's
//! `--emit PATH` flag (or by hand): a single scenario object or an array
//! of them, each a complete run description — platform, cost model,
//! workload, manager, optional fault plan. Every entry is executed
//! through the same grid runner the experiment binaries use, with the
//! same cache keys, so a scenario file replays a binary's cells
//! byte-identically and shares its `results/cache` entries.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{self, finish_grid, run_grid, RunCell, RunnerOptions};
use bfgts_bench::write_artifact;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bfgts_run FILE... [options]
  FILE           scenario file: one JSON scenario object or an array of
                 them (the format --emit writes)
options:
  --jobs N       worker threads for the grid
                 (default: available parallelism)
  --no-cache     ignore and bypass results/cache
  --json PATH    also write per-cell results as JSON to PATH
  --trace PATH   re-run the first parallel cell with full event tracing
                 and write it as JSONL to PATH (plus a Chrome trace
                 next to it)
  --audit        re-run every distinct cell with full tracing and
                 verify the accounting invariants (exits 1 on the
                 first violation)
  --bench-json PATH
                 write a machine-readable benchmark record (scenario ids,
                 makespans, wall-clock) to PATH
  -h, --help     show this help";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

struct Args {
    files: Vec<PathBuf>,
    jobs: usize,
    use_cache: bool,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    audit: bool,
    bench_json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut out = Args {
        files: Vec::new(),
        jobs: runner::default_jobs(),
        use_cache: true,
        json: None,
        trace: None,
        audit: false,
        bench_json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => return Ok(None),
            "--jobs" => {
                let v = value(&mut i, "--jobs")?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => out.jobs = n,
                    _ => return Err(format!("--jobs needs a positive integer, got '{v}'")),
                }
            }
            "--no-cache" => out.use_cache = false,
            "--json" => out.json = Some(PathBuf::from(value(&mut i, "--json")?)),
            "--trace" => out.trace = Some(PathBuf::from(value(&mut i, "--trace")?)),
            "--audit" => out.audit = true,
            "--bench-json" => out.bench_json = Some(PathBuf::from(value(&mut i, "--bench-json")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown argument '{flag}'")),
            file => out.files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    if out.files.is_empty() {
        return Err("at least one scenario FILE is required".to_string());
    }
    Ok(Some(out))
}

/// Loads every scenario in `path` as an executable cell, with the file
/// and entry index in any error.
fn load_cells(path: &std::path::Path) -> Result<Vec<RunCell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenarios = bfgts_scenario::scenarios_from_str(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            RunCell::from_scenario(scenario)
                .map_err(|e| format!("{}: scenario {i}: {e}", path.display()))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(&msg),
    };

    let mut cells = Vec::new();
    for file in &args.files {
        match load_cells(file) {
            Ok(mut loaded) => cells.append(&mut loaded),
            Err(msg) => return fail(&msg),
        }
    }
    let unique: std::collections::BTreeSet<String> = cells.iter().map(RunCell::cache_key).collect();
    println!(
        "bfgts_run: {} scenario(s) from {} file(s), {} unique",
        cells.len(),
        args.files.len(),
        unique.len()
    );

    let opts = RunnerOptions {
        jobs: args.jobs,
        cache_dir: args
            .use_cache
            .then(|| PathBuf::from(runner::DEFAULT_CACHE_DIR)),
    };
    // Wall-clock is reported only in the --bench-json artifact, never on
    // stdout: the printed table must stay byte-identical across runs.
    let (results, wall_ms) = bfgts_bench::timed_ms(|| run_grid(&cells, &opts));

    println!(
        "{:<12} {:<18} {:<14} {:>12} {:>10} {:>8} {:>8}",
        "scenario", "manager", "workload", "makespan", "commits", "aborts", "stalls"
    );
    for (cell, summary) in cells.iter().zip(&results) {
        println!(
            "{:<12} {:<18} {:<14} {:>12} {:>10} {:>8} {:>8}",
            &cell.scenario.id()[..12],
            cell.scenario.manager.label(),
            cell.scenario.workload.name(),
            summary.makespan,
            summary.commits,
            summary.aborts,
            summary.stalls
        );
    }

    if let Some(path) = &args.bench_json {
        let doc = Json::obj([
            ("version", Json::UInt(1)),
            ("bin", Json::Str("bfgts_run".to_string())),
            ("cells", Json::UInt(cells.len() as u64)),
            ("unique", Json::UInt(unique.len() as u64)),
            ("wall_ms", Json::UInt(wall_ms)),
            (
                "scenarios",
                Json::Arr(
                    cells
                        .iter()
                        .zip(&results)
                        .map(|(cell, summary)| {
                            Json::obj([
                                ("id", Json::Str(cell.scenario.id())),
                                ("makespan", Json::UInt(summary.makespan)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(msg) = write_artifact(path, &doc) {
            eprintln!("warning: {msg}");
        }
    }
    if !finish_grid(
        &cells,
        &results,
        args.json.as_deref(),
        args.audit,
        args.trace.as_deref(),
    ) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
