//! Scale-out sweep: the same fig4-style cell at 16 → 1024 CPUs
//! (DESIGN.md §11).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bench_scale -- [options]
//! ```
//!
//! Each row runs one BFGTS-HW cell on an N-CPU platform (4 threads per
//! CPU, conflict detection sharded at one shard per 16 CPUs) with the
//! workload rescaled into the 10⁵–10⁶ transaction band, and records
//! makespan, commits, aborts and wall-clock. Every row is an ordinary
//! [`RunCell`], lowered and run exactly as a scenario file would be.
//!
//! Simulation results in the artifact are deterministic; only the
//! `wall_ms` fields vary run to run. The artifact lands in
//! `results/BENCH_scale.json` by default.

use bfgts_bench::json::Json;
use bfgts_bench::runner::RunCell;
use bfgts_bench::{parse_artifact_args, timed_ms, write_artifact, ManagerKind, Platform};
use bfgts_htm::TmRunReport;
use bfgts_sim::TraceMode;
use bfgts_workloads::presets;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_scale [options]
options:
  --quick        divide every row's transaction count by 20
  --out PATH     artifact path (default results/BENCH_scale.json)
  --seed N       master RNG seed (default 0xB16B00B5)
  -h, --help     show this help";

/// CPUs per conflict-detection shard: the paper's 16-CPU platform maps
/// to one shard, 1024 CPUs to 64.
const CPUS_PER_SHARD: usize = 16;

/// The swept platform widths.
const CPU_POINTS: [usize; 4] = [16, 64, 256, 1024];

/// Total dynamic transactions for an N-CPU row: 6250 per CPU, capped at
/// the top of the 10⁵–10⁶ band (16 → 100k, 64 → 400k, 256+ → 1M).
fn txns_for(cpus: usize, quick: bool) -> u64 {
    let full = (cpus as u64 * 6_250).min(1_000_000);
    if quick {
        full / 20
    } else {
        full
    }
}

fn run_row(cpus: usize, txns: u64, seed: u64) -> TmRunReport {
    let mut spec = presets::kmeans();
    spec.total_txs = txns;
    let platform = Platform {
        cpus,
        threads: cpus * 4,
        seed,
        ..Platform::paper()
    }
    .sharded((cpus / CPUS_PER_SHARD).max(1) as u32);
    RunCell::with_bloom(&spec, ManagerKind::BfgtsHw, platform, 512).execute_report(TraceMode::Off)
}

fn row_json(cpus: usize, txns: u64, report: &TmRunReport, wall_ms: u64) -> Json {
    Json::obj([
        ("cpus", Json::UInt(cpus as u64)),
        ("threads", Json::UInt(cpus as u64 * 4)),
        ("shards", Json::UInt((cpus / CPUS_PER_SHARD).max(1) as u64)),
        ("txns", Json::UInt(txns)),
        ("makespan", Json::UInt(report.sim.makespan.as_u64())),
        ("commits", Json::UInt(report.stats.commits())),
        ("aborts", Json::UInt(report.stats.aborts())),
        ("wall_ms", Json::UInt(wall_ms)),
    ])
}

fn main() -> ExitCode {
    let args = parse_artifact_args(USAGE, "results/BENCH_scale.json");

    let mut rows = Vec::new();
    for cpus in CPU_POINTS {
        let txns = txns_for(cpus, args.quick);
        let (report, wall_ms) = timed_ms(|| run_row(cpus, txns, args.seed));
        println!(
            "bench_scale: {cpus:>4} cpus, {txns:>7} txns: makespan {} ({} commits, {wall_ms} ms)",
            report.sim.makespan.as_u64(),
            report.stats.commits()
        );
        rows.push(row_json(cpus, txns, &report, wall_ms));
    }

    let doc = Json::obj([
        ("bin", Json::Str("bench_scale".to_string())),
        ("version", Json::UInt(1)),
        ("workload", Json::Str("Kmeans".to_string())),
        (
            "manager",
            Json::Str(ManagerKind::BfgtsHw.label().to_string()),
        ),
        ("seed", Json::UInt(args.seed)),
        ("quick", Json::Bool(args.quick)),
        ("rows", Json::Arr(rows)),
    ]);
    if let Err(msg) = write_artifact(&args.out, &doc) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    println!("bench_scale: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
