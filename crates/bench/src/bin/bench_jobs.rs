//! Grid-parallelism benchmark: one fixed scenario grid, run at
//! `--jobs` 1/2/4/8, wall-clock recorded per setting.
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bench_jobs -- [options]
//! ```
//!
//! The grid is a fig4-style smoke slice (four managers × two STAMP
//! presets on the paper's 16-CPU platform) chosen to be wide enough
//! that worker parallelism matters and small enough to finish in
//! seconds. Every jobs setting must produce identical summaries —
//! asserted cell by cell, which is the determinism contract `--jobs`
//! carries everywhere else. Only the `wall_ms` fields of the artifact
//! vary run to run; it lands in `results/BENCH_jobs.json` by default.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{self, run_grid, RunCell, RunnerOptions};
use bfgts_bench::{
    timed_ms, write_artifact, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec,
};
use bfgts_scenario::EXPERIMENT_SEED;
use bfgts_workloads::presets;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_jobs [options]
options:
  --scale F      workload scale factor of the fixed grid (default 0.1)
  --out PATH     artifact path (default results/BENCH_jobs.json)
  --seed N       master RNG seed (default 0xB16B00B5)
  -h, --help     show this help";

/// The swept worker counts (ROADMAP item 5).
const JOB_POINTS: [usize; 4] = [1, 2, 4, 8];

struct Args {
    scale: f64,
    out: PathBuf,
    seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut out = Args {
        scale: 0.1,
        out: PathBuf::from("results/BENCH_jobs.json"),
        seed: EXPERIMENT_SEED,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => return Ok(None),
            "--scale" => {
                i += 1;
                let v = argv.get(i).ok_or("--scale needs a value")?;
                out.scale = v
                    .parse()
                    .map_err(|_| format!("--scale needs a number, got '{v}'"))?;
            }
            "--out" => {
                i += 1;
                out.out = PathBuf::from(argv.get(i).ok_or("--out needs a value")?);
            }
            "--seed" => {
                i += 1;
                let v = argv.get(i).ok_or("--seed needs a value")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(Some(out))
}

/// The fixed grid: every (manager × preset) cell, all distinct, so every
/// jobs setting does the same real work (no cache, no dedup shortcut).
fn grid(scale: f64, seed: u64) -> Vec<RunCell> {
    let managers = [
        ManagerKind::Backoff,
        ManagerKind::Ats,
        ManagerKind::BfgtsHw,
        ManagerKind::BfgtsHwBackoff,
    ];
    let workloads = [
        presets::kmeans().scaled(scale),
        presets::vacation().scaled(scale),
    ];
    let mut platform = Platform::paper();
    platform.seed = seed;
    let mut cells = Vec::new();
    for kind in managers {
        for spec in &workloads {
            let scenario = Scenario::new(
                WorkloadSpec::from_benchmark(spec),
                ManagerSpec::Kind {
                    kind,
                    bloom_bits: None,
                },
                platform,
            );
            cells.push(RunCell::from_scenario(scenario).expect("grid scenarios are executable"));
        }
    }
    cells
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let cells = grid(args.scale, args.seed);
    println!(
        "bench_jobs: {} cells, jobs swept over {JOB_POINTS:?}",
        cells.len()
    );
    let mut baseline = None;
    let mut rows = Vec::new();
    for jobs in JOB_POINTS {
        let opts = RunnerOptions {
            jobs,
            cache_dir: None,
        };
        let (results, wall_ms) = timed_ms(|| run_grid(&cells, &opts));
        match &baseline {
            None => baseline = Some(results),
            Some(expected) => assert_eq!(
                &results, expected,
                "--jobs {jobs} changed grid results — worker count must be invisible"
            ),
        }
        println!("bench_jobs: --jobs {jobs}: {wall_ms} ms");
        rows.push(Json::obj([
            ("jobs", Json::UInt(jobs as u64)),
            ("wall_ms", Json::UInt(wall_ms)),
        ]));
    }

    let doc = Json::obj([
        ("bin", Json::Str("bench_jobs".to_string())),
        ("version", Json::UInt(1)),
        ("cells", Json::UInt(cells.len() as u64)),
        // Wall-clock context: on a 1-core host every jobs setting is
        // expected to be flat; the determinism assertion above is the
        // load-bearing part either way.
        (
            "host_parallelism",
            Json::UInt(runner::default_jobs() as u64),
        ),
        ("scale_bits", Json::UInt(args.scale.to_bits())),
        ("seed", Json::UInt(args.seed)),
        ("rows", Json::Arr(rows)),
    ]);
    if let Err(msg) = write_artifact(&args.out, &doc) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    println!("bench_jobs: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
