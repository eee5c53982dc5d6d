//! Capacity sweep: BFGTS-HW vs Backoff on capacity-limited signature
//! hardware (DESIGN.md §13).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bench_capacity -- [options]
//! ```
//!
//! Each row runs one cell on the small platform with bounded detection:
//! per-thread read/write Bloom signatures of the given width, a tracked-
//! address bound of the given capacity, and the software-fallback latch
//! beyond it. Conflict checks run on signature intersection, so aliases
//! become real aborts (`false_positive_conflict` events) and overflows
//! become `capacity_abort` events; every run is audited through I1–I10
//! before its numbers are recorded. A perfect-detection reference row
//! per manager anchors the sweep.
//!
//! The whole artifact is deterministic — no wall-clock fields — and
//! lands in `results/BENCH_capacity.json` by default.

use bfgts_bench::json::Json;
use bfgts_bench::runner::RunCell;
use bfgts_bench::{parse_artifact_args, write_artifact, ManagerKind};
use bfgts_scenario::Platform;
use bfgts_sim::TraceMode;
use bfgts_workloads::presets;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_capacity [options]
options:
  --quick        divide the workload's transaction count by 4
  --out PATH     artifact path (default results/BENCH_capacity.json)
  --seed N       master RNG seed (default the experiment seed)
  -h, --help     show this help";

/// Swept signature widths, in bits per filter.
const BITS_POINTS: [u32; 3] = [64, 256, 1024];

/// Swept tracked-address bounds.
const CAPACITY_POINTS: [u32; 4] = [8, 16, 32, 64];

/// Hash functions per signature, fixed across the sweep.
const HASHES: u32 = 2;

/// The managers under comparison: the scheduler whose learning the
/// noisy oracle feeds, and the baseline that never learns.
const KINDS: [ManagerKind; 2] = [ManagerKind::BfgtsHw, ManagerKind::Backoff];

struct Row {
    kind: ManagerKind,
    detection: &'static str,
    bits: u32,
    capacity: u32,
    makespan: u64,
    commits: u64,
    aborts: u64,
    false_positives: u64,
    capacity_aborts: u64,
}

fn run_row(
    kind: ManagerKind,
    platform: Platform,
    detection: &'static str,
    bits: u32,
    capacity: u32,
    quick: bool,
) -> Row {
    let spec = presets::kmeans().scaled(if quick { 0.0625 } else { 0.25 });
    let report = RunCell::one(&spec, kind, platform).execute_report(TraceMode::Full);
    let summary = match report.audit() {
        Ok(summary) => summary,
        Err(violations) => {
            for v in &violations {
                eprintln!("bench_capacity: audit violation: {v}");
            }
            panic!(
                "bench_capacity: {} at {bits}b/cap{capacity} failed its audit",
                kind.label()
            );
        }
    };
    Row {
        kind,
        detection,
        bits,
        capacity,
        makespan: report.sim.makespan.as_u64(),
        commits: report.stats.commits(),
        aborts: report.stats.aborts(),
        false_positives: summary.false_positive_conflicts,
        capacity_aborts: summary.capacity_aborts,
    }
}

fn row_json(row: &Row) -> Json {
    Json::obj([
        ("manager", Json::Str(row.kind.label().to_string())),
        ("detection", Json::Str(row.detection.to_string())),
        ("bits", Json::UInt(u64::from(row.bits))),
        ("capacity", Json::UInt(u64::from(row.capacity))),
        ("makespan", Json::UInt(row.makespan)),
        ("commits", Json::UInt(row.commits)),
        ("aborts", Json::UInt(row.aborts)),
        ("false_positive_conflicts", Json::UInt(row.false_positives)),
        ("capacity_aborts", Json::UInt(row.capacity_aborts)),
    ])
}

fn main() -> ExitCode {
    let args = parse_artifact_args(USAGE, "results/BENCH_capacity.json");

    let mut platform = Platform::small();
    platform.seed = args.seed;

    let mut rows = Vec::new();
    for kind in KINDS {
        let perfect = run_row(kind, platform, "perfect", 0, 0, args.quick);
        println!(
            "bench_capacity: {:<10} perfect:          makespan {:>9} ({} commits, {} aborts)",
            kind.label(),
            perfect.makespan,
            perfect.commits,
            perfect.aborts
        );
        rows.push(perfect);
        for bits in BITS_POINTS {
            for capacity in CAPACITY_POINTS {
                let row = run_row(
                    kind,
                    platform.bounded(bits, HASHES, capacity),
                    "bounded",
                    bits,
                    capacity,
                    args.quick,
                );
                println!(
                    "bench_capacity: {:<10} {bits:>4}b cap {capacity:>3}: makespan {:>9} \
                     ({} commits, {} aborts, {} fp, {} cap)",
                    row.kind.label(),
                    row.makespan,
                    row.commits,
                    row.aborts,
                    row.false_positives,
                    row.capacity_aborts
                );
                rows.push(row);
            }
        }
    }

    // Sanity on the sweep's shape: the bounded axis has to actually
    // bite somewhere, or the artifact is a table of noise.
    assert!(
        rows.iter().any(|r| r.capacity_aborts > 0),
        "no swept cell ever overflowed — capacities are too generous to measure anything"
    );

    let doc = Json::obj([
        ("bin", Json::Str("bench_capacity".to_string())),
        ("version", Json::UInt(1)),
        ("workload", Json::Str("Kmeans".to_string())),
        ("hashes", Json::UInt(u64::from(HASHES))),
        ("seed", Json::UInt(args.seed)),
        ("quick", Json::Bool(args.quick)),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ]);
    if let Err(msg) = write_artifact(&args.out, &doc) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    println!("bench_capacity: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
