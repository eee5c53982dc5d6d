//! Seeded fault-injection fuzz campaign driver (DESIGN.md §9).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bfgts_fuzz -- [options]
//! ```
//!
//! Runs one cell per seed in the range: an adversarial workload, a BFGTS
//! flavour and a randomized fault plan, all derived from the seed. Every
//! cell is audited through the accounting invariants I1–I11 and checked
//! against the graceful-degradation bound versus Backoff. Violating
//! cells are auto-minimized and written as replayable repro JSON;
//! `--repro PATH` re-executes such a file and verifies both that the
//! violation still reproduces and that the event trace is byte-identical
//! (fingerprint match). `--seeded-violation` runs a control cell that is
//! guaranteed to violate, proving the harness catches failures.

use bfgts_bench::fuzz;
use bfgts_bench::runner;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bfgts_fuzz [options]
options:
  --seeds A..B        half-open campaign seed range (default 0..32)
  --jobs N            worker threads (default: available parallelism)
  --out DIR           directory for repro JSON files
                      (default results/repros)
  --repro PATH        replay a repro file instead of running a campaign;
                      exit 0 only if it still violates with a
                      byte-identical trace
  --seeded-violation  run the known-violating control cell; it must be
                      caught (exit 1) and leave a minimized repro
  -h, --help          show this help";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_seed_range(text: &str) -> Option<(u64, u64)> {
    let (lo, hi) = text.split_once("..")?;
    let lo: u64 = lo.parse().ok()?;
    let hi: u64 = hi.parse().ok()?;
    (lo < hi).then_some((lo, hi))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = (0u64, 32u64);
    let mut jobs = runner::default_jobs();
    let mut out = PathBuf::from("results/repros");
    let mut repro_path: Option<PathBuf> = None;
    let mut control = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--seeds" => match value(&mut i, "--seeds") {
                Ok(v) => match parse_seed_range(&v) {
                    Some(range) => seeds = range,
                    None => return fail(&format!("--seeds needs A..B with A < B, got '{v}'")),
                },
                Err(msg) => return fail(&msg),
            },
            "--jobs" => match value(&mut i, "--jobs") {
                Ok(v) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = n,
                    _ => return fail(&format!("--jobs needs a positive integer, got '{v}'")),
                },
                Err(msg) => return fail(&msg),
            },
            "--out" => match value(&mut i, "--out") {
                Ok(v) => out = PathBuf::from(v),
                Err(msg) => return fail(&msg),
            },
            "--repro" => match value(&mut i, "--repro") {
                Ok(v) => repro_path = Some(PathBuf::from(v)),
                Err(msg) => return fail(&msg),
            },
            "--seeded-violation" => control = true,
            other => return fail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    if let Some(path) = repro_path {
        return replay(&path);
    }
    if control {
        return seeded_violation(&out);
    }
    campaign(seeds, jobs, &out)
}

fn replay(path: &std::path::Path) -> ExitCode {
    let repro = match fuzz::load_repro(path) {
        Ok(repro) => repro,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match fuzz::replay(&repro) {
        Ok(report) => {
            println!(
                "repro {} confirmed: {} on {} still violates with a \
                 byte-identical trace (fingerprint {:016x})",
                path.display(),
                repro.bfgts_key(),
                repro.scenario.workload.name(),
                repro.fingerprint,
            );
            for v in &report.violations {
                println!("  {v}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("repro {} did NOT reproduce: {msg}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn seeded_violation(out: &std::path::Path) -> ExitCode {
    let cell = fuzz::violating_control();
    let report = fuzz::run_cell(&cell.scenario, cell.min_fraction_pct)
        .expect("the control is an executable BFGTS run");
    if report.passed() {
        // Exit 0 here: CI inverts this command's status, so a missed
        // control comes out as a red job.
        println!("seeded violation was NOT caught — the harness is broken");
        return ExitCode::SUCCESS;
    }
    println!(
        "seeded violation caught ({} finding(s)):",
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v}");
    }
    let minimized = fuzz::minimize_failure(&cell);
    let repro = fuzz::make_repro(&cell, &minimized);
    match fuzz::write_repro(out, &repro) {
        Ok(path) => println!(
            "minimized to {} fault(s); repro written to {}",
            minimized.faults.len(),
            path.display()
        ),
        Err(err) => eprintln!("warning: could not write repro: {err}"),
    }
    ExitCode::FAILURE
}

fn campaign(seeds: (u64, u64), jobs: usize, out: &std::path::Path) -> ExitCode {
    let seed_list: Vec<u64> = (seeds.0..seeds.1).collect();
    // The worker count is deliberately not echoed: stdout must be
    // byte-identical at any --jobs value.
    println!(
        "fuzz campaign: seeds {}..{} ({} cells)",
        seeds.0,
        seeds.1,
        seed_list.len()
    );
    let results = fuzz::run_campaign(&seed_list, jobs);
    let mut failures = Vec::new();
    for (cell, report) in &results {
        let status = if report.passed() { "pass" } else { "FAIL" };
        println!(
            "  seed {:>4}  {:<20} {:<11} {} faults  bfgts {:>9}c  backoff {:>9}c  {status}",
            cell.seed,
            cell.scenario.workload.name(),
            cell.bfgts_key,
            cell.plan.faults.len(),
            report.bfgts_makespan,
            report.backoff_makespan,
        );
        if !report.passed() {
            failures.push((cell, report));
        }
    }
    if failures.is_empty() {
        println!(
            "campaign clean: {} cells passed the audit and the degradation bound",
            results.len()
        );
        return ExitCode::SUCCESS;
    }
    for (cell, report) in &failures {
        for v in &report.violations {
            println!("seed {}: {v}", cell.seed);
        }
        let minimized = fuzz::minimize_failure(cell);
        let repro = fuzz::make_repro(cell, &minimized);
        match fuzz::write_repro(out, &repro) {
            Ok(path) => println!(
                "seed {}: minimized {} -> {} fault(s); repro written to {}",
                cell.seed,
                cell.plan.faults.len(),
                minimized.faults.len(),
                path.display()
            ),
            Err(err) => eprintln!(
                "warning: could not write repro for seed {}: {err}",
                cell.seed
            ),
        }
    }
    println!(
        "campaign FAILED: {} of {} cells violated",
        failures.len(),
        results.len()
    );
    ExitCode::FAILURE
}
