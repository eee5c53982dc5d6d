//! Calibration report: measured workload statistics vs. the paper's
//! Tables 1 and 4 targets, under the plain Backoff manager.
//!
//! Each benchmark runs as its own one-cell grid so the per-benchmark
//! wall clock stays meaningful (a warm cache reports near-zero wall;
//! pass `--no-cache` to force fresh simulations).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin calibrate [--quick] [--seed N]
//! ```

use bfgts_bench::runner::{run_grid, write_grid_json, RunCell, RunnerOptions};
use bfgts_bench::{parse_common_args, ManagerKind};
use bfgts_workloads::presets;
use std::time::Instant;

fn main() {
    let args = parse_common_args();
    let opts = RunnerOptions::from_args(&args);
    println!(
        "calibration on {} CPUs / {} threads, scale {}, seed {:#x}",
        args.platform.cpus, args.platform.threads, args.scale, args.platform.seed
    );
    let mut done: Vec<(RunCell, bfgts_bench::runner::CellSummary)> = Vec::new();
    for spec in presets::all() {
        let spec = spec.scaled(args.scale);
        let cell = RunCell::one(&spec, ManagerKind::Backoff, args.platform);
        #[expect(
            clippy::disallowed_methods,
            reason = "reports per-benchmark wall clock; simulation results never depend on it"
        )]
        let t0 = Instant::now();
        let summary = run_grid(std::slice::from_ref(&cell), &opts)
            .pop()
            .expect("one summary");
        let wall = t0.elapsed();
        println!(
            "\n=== {} ({} txs, {:.2}s wall) ===",
            spec.name,
            spec.total_txs,
            wall.as_secs_f64()
        );
        println!(
            "contention: measured {:.1}% vs paper {:.1}%   (commits {}, aborts {}, stalls {})",
            summary.contention_rate() * 100.0,
            spec.expected.backoff_contention * 100.0,
            summary.commits,
            summary.aborts,
            summary.stalls,
        );
        println!("  stx | paper sim | measured | paper conflicts | measured conflicts");
        for (stx, paper_sim) in &spec.expected.similarity {
            let measured = summary
                .measured_similarity(*stx)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "--".into());
            let paper_row = spec
                .expected
                .conflict_rows
                .iter()
                .find(|(s, _)| s == stx)
                .map(|(_, row)| format!("{row:?}"))
                .unwrap_or_default();
            let measured_row = summary.conflict_row(*stx);
            println!(
                "  {stx:3} | {paper_sim:9.2} | {measured:>8} | {paper_row:15} | {measured_row:?}"
            );
        }
        println!("  makespan {} cycles", summary.makespan);
        done.push((cell, summary));
    }
    if let Some(path) = &args.json {
        let (cells, summaries): (Vec<_>, Vec<_>) = done.into_iter().unzip();
        if let Err(err) = write_grid_json(path, &cells, &summaries) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
}
