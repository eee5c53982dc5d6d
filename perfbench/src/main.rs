//! Command-line entry of the benchmark. `perfbench/run.py` builds this
//! binary and `bfgts_serve`, then runs:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     [--serve-bin PATH] [--out DIR] [--digests DIR] [--write-digest]
//! ```
//!
//! The last line of standard output is the result object; the host
//! block, failures and paper-fidelity figures go to standard error and,
//! with `--out`, into a result file next to the spans JSONL.

use bfgts_bench::json::Json;
use perfbench::bench::{self, Options};
use perfbench::cells::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfbench --workload paper_grid|wide_1024|serve_stream [options]
  --seed N          benchmark seed (decimal or 0x-hex; default 0xB16B00B5)
  --seconds S       seconds of measurement (default 10)
  --trace 0|1       1: the spanned per-layer run instead of the end-to-end one
  --jobs N          worker threads (default: 2 for paper_grid, else 1)
  --serve-bin PATH  the bfgts_serve binary (serve_stream)
  --out DIR         write the result record and the spans JSONL to DIR
  --digests DIR     committed default-seed digests to check against
  --write-digest    write this run's digest into --digests and exit";

struct Cli {
    opts: Options,
    out: Option<PathBuf>,
    write_digest: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PaperGrid,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        jobs: 1,
        // Only the library's tests shrink the workloads.
        scale: 1.0,
        serve_bin: None,
        digest_dir: None,
    };
    let mut jobs = None;
    let mut out = None;
    let mut write_digest = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--write-digest" {
            write_digest = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                opts.seed = parse_u64(value).ok_or_else(|| format!("bad --seed '{value}'"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--jobs" => {
                jobs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&j: &usize| j >= 1)
                        .ok_or_else(|| format!("bad --jobs '{value}'"))?,
                )
            }
            "--serve-bin" => opts.serve_bin = Some(PathBuf::from(value)),
            "--digests" => opts.digest_dir = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
        i += 2;
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.jobs = jobs.unwrap_or_else(|| opts.workload.jobs());
    Ok(Cli {
        opts,
        out,
        write_digest,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = &cli.opts;
    let results_dir = PathBuf::from("results");
    let before = perfbench::host::snapshot(&results_dir);
    let host = perfbench::host::host_block(opts.seed, opts.jobs);
    eprintln!("host: {host}");

    // A run that writes the digest must not check against the old one.
    let run_opts = Options {
        digest_dir: opts.digest_dir.clone().filter(|_| !cli.write_digest),
        ..opts.clone()
    };
    let mut outcome = match bench::run(&run_opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if perfbench::host::snapshot(&results_dir) != before {
        outcome.ledger.op(Err(
            "the run changed results/ (the cell cache must stay untouched)".into(),
        ));
    }
    for note in &outcome.ledger.notes {
        eprintln!("check failed: {note}");
    }
    if let Some(fidelity) = &outcome.fidelity {
        eprintln!("fidelity: {fidelity}");
    }

    if cli.write_digest {
        let Some(dir) = &opts.digest_dir else {
            eprintln!("error: --write-digest needs --digests DIR");
            return ExitCode::from(2);
        };
        let path = bench::digest_path(dir, opts.workload);
        let text = bench::digest_json(opts.seed, &outcome.digest).to_string() + "\n";
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("digest: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let ledger = &outcome.ledger;
    let result = Json::obj([
        ("correct", Json::Bool(ledger.failed == 0)),
        ("attempted", Json::UInt(ledger.attempted)),
        ("failed", Json::UInt(ledger.failed)),
        ("metrics", outcome.metrics_json(opts.trace)),
    ]);
    if let Some(dir) = &cli.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace)
        );
        let mut record = vec![
            ("host", host),
            ("workload", Json::Str(opts.workload.name().into())),
            ("result", result.clone()),
            (
                "failures",
                Json::Arr(ledger.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ];
        if let Some(fidelity) = outcome.fidelity.clone() {
            record.push(("fidelity", fidelity));
        }
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.json")),
                    Json::obj(record).to_string() + "\n",
                )
            })
            .and_then(|()| {
                if outcome.spans.is_empty() {
                    Ok(())
                } else {
                    std::fs::write(
                        dir.join(format!("{stem}.spans.jsonl")),
                        perfbench::spans::to_jsonl(&outcome.spans),
                    )
                }
            });
        if let Err(e) = written {
            eprintln!("warning: cannot write to {}: {e}", dir.display());
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
