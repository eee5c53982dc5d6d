//! One benchmark run: the untraced end-to-end measurement or the spanned
//! per-layer run of one workload, with its correctness checks.

use crate::cells::{self, Workload, SERVE_CYCLE};
use crate::micro;
use crate::serve::Server;
use crate::spans::{self, Hooks, Lowered, Span, SpanLog};
use crate::stats::{median, percentile, ratio, secs_since};
use crate::{END_TO_END, PER_LAYER};
use bfgts_bench::json::Json;
use bfgts_bench::runner::{run_grid, CellSummary, RunCell, RunnerOptions};
use bfgts_bench::{arithmetic_mean, percent_improvement, ManagerKind, Scenario};
use bfgts_sim::{Bucket, TraceEvent, TraceMode};
use bfgts_workloads::presets;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups timed per run, spread over the run in proportion to time:
/// the host's speed shifts from one second to the next.
const SETUPS: usize = 100;

/// How many of `SETUPS` are due once `elapsed` of `seconds` has passed.
fn setups_due(elapsed: f64, seconds: f64) -> usize {
    if elapsed >= seconds {
        SETUPS
    } else {
        ((SETUPS as f64 * elapsed / seconds).ceil() as usize).min(SETUPS)
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed every scenario seed derives from.
    pub seed: u64,
    /// Seconds of measurement (`--trace 0`).
    pub seconds: f64,
    /// Run the spanned per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Worker threads for the cells ([`Workload::jobs`] by default).
    pub jobs: usize,
    /// Transaction-count factor: 1.0 is the benchmark, tests use less.
    pub scale: f64,
    /// The `bfgts_serve` binary (`serve_stream` only).
    pub serve_bin: Option<PathBuf>,
    /// Directory of the committed default-seed digests.
    pub digest_dir: Option<PathBuf>,
}

/// The correctness record of one simulated cell or served document,
/// compared against the committed digest at the default seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDigest {
    /// Scenario id.
    pub id: String,
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// Commits.
    pub commits: u64,
    /// Aborts.
    pub aborts: u64,
    /// Stalls.
    pub stalls: u64,
}

impl OpDigest {
    fn of(cell: &RunCell, summary: &CellSummary) -> Self {
        Self {
            id: cell.scenario.id(),
            makespan: summary.makespan,
            commits: summary.commits,
            aborts: summary.aborts,
            stalls: summary.stalls,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("makespan", Json::UInt(self.makespan)),
            ("commits", Json::UInt(self.commits)),
            ("aborts", Json::UInt(self.aborts)),
            ("stalls", Json::UInt(self.stalls)),
        ])
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(Self {
            id: value.get("id")?.as_str()?.to_string(),
            makespan: value.get("makespan")?.as_u64()?,
            commits: value.get("commits")?.as_u64()?,
            aborts: value.get("aborts")?.as_u64()?,
            stalls: value.get("stalls")?.as_u64()?,
        })
    }
}

/// The digest file of `workload` in `dir`.
pub fn digest_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join(format!("{}.json", workload.name()))
}

/// Serialises the digest of one pass at `seed`.
pub fn digest_json(seed: u64, ops: &[OpDigest]) -> Json {
    Json::obj([
        ("seed", Json::UInt(seed)),
        (
            "ops",
            Json::Arr(ops.iter().map(OpDigest::to_json).collect()),
        ),
    ])
}

fn load_digest(opts: &Options) -> Result<Option<Vec<OpDigest>>, String> {
    let Some(dir) = &opts.digest_dir else {
        return Ok(None);
    };
    if opts.scale != 1.0 {
        return Ok(None);
    }
    let path = digest_path(dir, opts.workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if value.get("seed").and_then(Json::as_u64) != Some(opts.seed) {
        return Ok(None);
    }
    value
        .get("ops")
        .and_then(Json::as_arr)
        .and_then(|ops| ops.iter().map(OpDigest::from_json).collect())
        .map(Some)
        .ok_or_else(|| format!("{}: malformed digest", path.display()))
}

/// Counts operations and the checks they failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (cells run, documents served).
    pub attempted: u64,
    /// Operations that failed a check or errored.
    pub failed: u64,
    /// The first failure messages.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records one operation; an `Err` counts it as failed.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = check {
            self.fail(msg);
        }
    }

    /// Records a failure of an operation already counted.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the first pass, in pass order.
    pub digest: Vec<OpDigest>,
    /// Model-fidelity figures (`paper_grid` only).
    pub fidelity: Option<Json>,
    /// The spanned run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The metrics as the result line's `metrics` object. Panics if the
    /// run did not produce exactly the metrics its mode promises, or if
    /// one of them is not a finite number.
    pub fn metrics_json(&self, trace: bool) -> Json {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let names: Vec<&str> = self.metrics.keys().copied().collect();
        let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        expected.sort_unstable();
        assert_eq!(
            names, expected,
            "the run must report exactly its metric set"
        );
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.metrics[d.name];
                    assert!(value.is_finite(), "metric {} is {value}", d.name);
                    (
                        d.name.to_string(),
                        Json::obj([
                            ("value", Json::Float(value)),
                            ("unit", Json::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let digest = load_digest(opts)?;
    let mut out = match (opts.workload, opts.trace) {
        (Workload::ServeStream, false) => serve_e2e(opts)?,
        (_, false) => cells_e2e(opts)?,
        (_, true) => layers(opts)?,
    };
    if let Some(expected) = digest {
        check_digest(&mut out, &expected);
    }
    Ok(out)
}

/// Compares the first pass against the committed digest: one failed
/// operation per mismatching cell or document.
fn check_digest(out: &mut Outcome, expected: &[OpDigest]) {
    if out.digest.len() != expected.len() {
        out.ledger.fail(format!(
            "digest has {} operations, the run {}",
            expected.len(),
            out.digest.len()
        ));
        return;
    }
    let mismatches: Vec<String> = out
        .digest
        .iter()
        .zip(expected)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("digest mismatch: got {got:?}, committed {want:?}"))
        .collect();
    for msg in mismatches {
        out.ledger.fail(msg);
    }
}

fn parse_cells(text: &str) -> Result<Vec<RunCell>, String> {
    bfgts_scenario::scenarios_from_str(text)?
        .into_iter()
        .map(RunCell::from_scenario)
        .collect()
}

/// Parses every document of the workload into cells.
fn workload_cells(workload: Workload, scenarios: &[Scenario]) -> Result<Vec<RunCell>, String> {
    let mut cells = Vec::new();
    for doc in cells::documents(workload, scenarios) {
        cells.extend(parse_cells(&doc)?);
    }
    Ok(cells)
}

/// Checks that every cell commits exactly its workload (closed runs) or
/// every arrival (open runs), the invariant any seed must keep.
fn check_commits(cell: &RunCell, summary: &CellSummary) -> Result<(), String> {
    let want = cell.scenario.workload.total_txs();
    if summary.commits == want {
        Ok(())
    } else {
        Err(format!(
            "{}: committed {} of {want} transactions",
            cell.scenario.id(),
            summary.commits
        ))
    }
}

fn attempts(summaries: &[CellSummary]) -> u64 {
    summaries.iter().map(|s| s.commits + s.aborts).sum()
}

fn sim_metrics(metrics: &mut BTreeMap<&'static str, f64>, summaries: &[CellSummary]) {
    let makespan: u64 = summaries.iter().map(|s| s.makespan).sum();
    let commits: u64 = summaries.iter().map(|s| s.commits).sum();
    let aborts: u64 = summaries.iter().map(|s| s.aborts).sum();
    metrics.insert("sim_makespan_mcycles", makespan as f64 / 1e6);
    metrics.insert(
        "sim_aborts_per_commit",
        ratio(aborts as f64, commits as f64),
    );
}

/// Seconds it takes to turn the workload's documents into everything
/// `run_workload` needs: parse, `RunCell::from_scenario`, lowering,
/// managers and sources. Timed in the benchmark's own process, many
/// times a run: a fresh process adds first-touch page faults whose cost
/// shifts with the host's memory state, not with the program.
fn setup_once(docs: &[String]) -> Result<f64, String> {
    let start = Instant::now();
    let mut lowered = Vec::new();
    for doc in docs {
        for cell in parse_cells(doc)? {
            let l = Lowered::new(&cell, TraceMode::Off)?;
            lowered.push((l.sources(&cell), l));
        }
    }
    let secs = secs_since(start);
    drop(lowered);
    Ok(secs)
}

/// `paper_grid` and `wide_1024` end to end: passes through `run_grid`
/// with the cache off until the time is up, set-ups between them.
fn cells_e2e(opts: &Options) -> Result<Outcome, String> {
    let workload = opts.workload;
    let scenarios = workload.scenarios(opts.seed, opts.scale);
    let docs = cells::documents(workload, &scenarios);
    let cells = parse_cells(&docs[0])?;
    let runner = RunnerOptions {
        jobs: opts.jobs,
        cache_dir: None,
    };
    // One pass is one request: a single `run_grid` call over all cells.
    let mut walls = Vec::new();
    let mut passes: Vec<Vec<CellSummary>> = Vec::new();
    let mut setups = Vec::new();
    let measure = Instant::now();
    loop {
        let start = Instant::now();
        passes.push(run_grid(&cells, &runner));
        let wall = secs_since(start);
        walls.push(wall);
        // Start another pass only if it is expected to end in time.
        let elapsed = secs_since(measure);
        let last = elapsed + wall > opts.seconds;
        let due = if last {
            SETUPS
        } else {
            setups_due(elapsed, opts.seconds)
        };
        while setups.len() < due {
            setups.push(setup_once(&docs)?);
        }
        if last {
            break;
        }
    }
    let peak_rss = crate::host::peak_rss_mib("self").unwrap_or(0.0);
    eprintln!("passes: wall_s {walls:?}");
    eprintln!("setup: setup_s {setups:?}");
    let mut out = Outcome::default();
    let first = &passes[0];
    for pass in &passes {
        for ((cell, summary), reference) in cells.iter().zip(pass).zip(first) {
            out.ledger.op(check_commits(cell, summary).and_then(|()| {
                if summary == reference {
                    Ok(())
                } else {
                    Err(format!("{}: passes disagree", cell.scenario.id()))
                }
            }));
        }
    }
    out.digest = cells
        .iter()
        .zip(first)
        .map(|(cell, s)| OpDigest::of(cell, s))
        .collect();
    if workload == Workload::PaperGrid {
        out.fidelity = Some(fidelity(first));
    }
    let total_attempts: u64 = passes.iter().map(|p| attempts(p)).sum();
    let m = &mut out.metrics;
    m.insert("wall_s", median(&walls));
    m.insert(
        "attempts_per_s",
        ratio(total_attempts as f64, walls.iter().sum()),
    );
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss);
    let requests_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    m.insert("doc_ms_p50", median(&requests_ms));
    m.insert("doc_ms_p95", percentile(&requests_ms, 95.0));
    sim_metrics(m, first);
    Ok(out)
}

/// Figure 4(b)'s average gain of BFGTS-HW over PTS and Table 4's
/// Backoff contention error, from one pass of the paper grid (serial
/// plus the seven managers per preset, in `ManagerKind::ALL` order).
fn fidelity(grid: &[CellSummary]) -> Json {
    let stride = ManagerKind::ALL.len() + 1;
    let col = |kind: ManagerKind| {
        1 + ManagerKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("roster manager")
    };
    let mut gains = Vec::new();
    let mut errors = Vec::new();
    for (row, spec) in grid.chunks(stride).zip(presets::all()) {
        let serial = row[0].makespan;
        let hw = row[col(ManagerKind::BfgtsHw)].speedup_over(serial);
        let pts = row[col(ManagerKind::Pts)].speedup_over(serial);
        gains.push(percent_improvement(hw, pts));
        let contention = row[col(ManagerKind::Backoff)].contention_rate();
        errors.push((contention - spec.expected.backoff_contention).abs() * 100.0);
    }
    Json::obj([
        ("sim_hw_vs_pts_pct", Json::Float(arithmetic_mean(&gains))),
        ("paper_hw_vs_pts_pct", Json::Float(19.0)),
        (
            "hw_vs_pts_note",
            Json::Str("held-out: Figure 4 was not a calibration target".into()),
        ),
        (
            "sim_contention_err_pp",
            Json::Float(arithmetic_mean(&errors)),
        ),
        (
            "contention_note",
            Json::Str("tuning data: the presets were tuned on Table 4".into()),
        ),
    ])
}

/// The summary row `bfgts_serve` must print for `cell`, from an
/// in-process replay.
fn expected_row(cell: &RunCell, summary: &CellSummary) -> BTreeMap<&'static str, Json> {
    let mut row = BTreeMap::from([
        ("scenario", Json::Str(cell.scenario.id())),
        ("manager", Json::Str(cell.scenario.manager.label())),
        ("workload", Json::Str(cell.scenario.workload.name().into())),
        ("makespan", Json::UInt(summary.makespan)),
        ("commits", Json::UInt(summary.commits)),
        ("aborts", Json::UInt(summary.aborts)),
        ("stalls", Json::UInt(summary.stalls)),
    ]);
    if let Some(lat) = &summary.latency {
        row.insert(
            "latency",
            Json::obj([
                ("count", Json::UInt(lat.count)),
                ("p50", Json::UInt(lat.p50)),
                ("p95", Json::UInt(lat.p95)),
                ("p99", Json::UInt(lat.p99)),
                ("total_cycles", Json::UInt(lat.total_cycles)),
                ("tx_per_sec_bits", Json::UInt(lat.tx_per_sec.to_bits())),
            ]),
        );
    }
    row
}

fn check_row(row: &str, want: &BTreeMap<&'static str, Json>) -> Result<(), String> {
    let got = Json::parse(row).map_err(|e| format!("unparsable summary row: {e}"))?;
    for (key, value) in want {
        if got.get(key) != Some(value) {
            return Err(format!(
                "summary row field {key}: served {:?}, replayed {value:?}",
                got.get(key)
            ));
        }
    }
    Ok(())
}

/// `serve_stream` end to end: one closed-loop client until the time is
/// up, set-ups of the rotation's documents between documents, every row
/// checked against an in-process replay of its document.
fn serve_e2e(opts: &Options) -> Result<Outcome, String> {
    let bin = opts
        .serve_bin
        .as_deref()
        .ok_or("serve_stream needs --serve-bin")?;
    let scenarios = Workload::ServeStream.scenarios(opts.seed, opts.scale);
    let docs = cells::documents(Workload::ServeStream, &scenarios);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut server = Server::spawn(bin)?;
    let mut served: Vec<(usize, String, f64)> = Vec::new();
    let measure = Instant::now();
    let mut n = 0;
    while n == 0 || secs_since(measure) < opts.seconds {
        match server.serve(&docs[n % SERVE_CYCLE]) {
            Ok((row, secs)) => served.push((n, row, secs)),
            Err(msg) => {
                out.ledger.op(Err(format!("document {n}: {msg}")));
                break;
            }
        }
        n += 1;
        while setups.len() < setups_due(secs_since(measure), opts.seconds) {
            setups.push(setup_once(&docs)?);
        }
    }
    while setups.len() < SETUPS {
        setups.push(setup_once(&docs)?);
    }
    let peak_rss = server.peak_rss_mib().unwrap_or(0.0);
    if let Err(msg) = server.close() {
        out.ledger.fail(msg);
    }

    let cells = workload_cells(Workload::ServeStream, &scenarios)?;
    let replays: Vec<CellSummary> = cells.iter().map(RunCell::execute).collect();
    let rows: Vec<_> = cells
        .iter()
        .zip(&replays)
        .map(|(c, s)| expected_row(c, s))
        .collect();
    let mut served_attempts = 0u64;
    for (n, row, _) in &served {
        let i = n % SERVE_CYCLE;
        out.ledger.op(check_row(row, &rows[i])
            .and_then(|()| check_commits(&cells[i], &replays[i]))
            .map_err(|e| format!("document {n}: {e}")));
        served_attempts += replays[i].commits + replays[i].aborts;
    }
    out.digest = cells
        .iter()
        .zip(&replays)
        .map(|(c, s)| OpDigest::of(c, s))
        .collect();

    let latencies: Vec<f64> = served.iter().map(|(_, _, s)| *s).collect();
    let cycle_walls: Vec<f64> = latencies
        .chunks_exact(SERVE_CYCLE)
        .map(|c| c.iter().sum())
        .collect();
    let doc_ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    eprintln!("documents: latency_ms {doc_ms:?}");
    eprintln!("setup: setup_s {setups:?}");
    let m = &mut out.metrics;
    m.insert(
        "wall_s",
        if cycle_walls.is_empty() {
            latencies.iter().sum()
        } else {
            median(&cycle_walls)
        },
    );
    m.insert(
        "attempts_per_s",
        ratio(served_attempts as f64, latencies.iter().sum()),
    );
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss);
    m.insert("doc_ms_p50", median(&doc_ms));
    m.insert("doc_ms_p95", percentile(&doc_ms, 95.0));
    sim_metrics(m, &replays);
    Ok(out)
}

/// What the spanned pass returns per cell.
struct SpannedCell {
    summary: CellSummary,
    hooks: Hooks,
    run_span: usize,
}

/// What the full-trace pass returns per cell.
#[derive(Default)]
struct FullCell {
    records: u64,
    context_switches: u64,
    false_positive: u64,
    capacity: u64,
    sched_decisions: u64,
    bloom_samples: u64,
}

/// The spanned per-layer run: a timed reference pass through `RunCell`
/// (`run_grid` plus one timed `execute` per cell on the grids), an
/// undecorated pass, the spanned pass, a full-trace pass with the audit,
/// and the microbenchmarks.
fn layers(opts: &Options) -> Result<Outcome, String> {
    let workload = opts.workload;
    let jobs = opts.jobs;
    let scenarios = workload.scenarios(opts.seed, opts.scale);
    let docs = cells::documents(workload, &scenarios);
    let cells = workload_cells(workload, &scenarios)?;
    let ids: Vec<String> = cells.iter().map(|c| c.scenario.id()).collect();
    let n = cells.len();
    let mut out = Outcome::default();

    // The reference: what users get from RunCell, timed. The grids go
    // through run_grid with the cache off, serve_stream runs one
    // execute per document as bfgts_serve does. run_grid does not expose
    // per-cell times, so the grids' cells run once more, each
    // `RunCell::execute` timed on a pool of the same number of workers.
    let timed_execute = |i: usize| {
        let start = Instant::now();
        let summary = cells[i].execute();
        (summary, secs_since(start))
    };
    let start = Instant::now();
    let (reference, executed, cell_secs, grid_wall) = match workload {
        Workload::ServeStream => {
            let (summaries, secs): (Vec<_>, Vec<_>) = (0..n).map(timed_execute).unzip();
            (summaries.clone(), summaries, secs, secs_since(start))
        }
        _ => {
            let reference = run_grid(
                &cells,
                &RunnerOptions {
                    jobs,
                    cache_dir: None,
                },
            );
            let wall = secs_since(start);
            let (summaries, secs): (Vec<_>, Vec<_>) =
                spans::pool(n, jobs, timed_execute).into_iter().unzip();
            (reference, summaries, secs, wall)
        }
    };
    out.digest = cells
        .iter()
        .zip(&reference)
        .map(|(c, s)| OpDigest::of(c, s))
        .collect();

    // Undecorated, untraced: the baseline of the measuring cost.
    let plain_ns: Vec<f64> = spans::pool(n, jobs, |i| {
        let lowered = Lowered::new(&cells[i], TraceMode::Off).expect("cells lower");
        let sources = lowered.sources(&cells[i]);
        let start = Instant::now();
        let _ = lowered.run(sources, false);
        secs_since(start) * 1e9
    });

    // The spanned pass.
    let log = SpanLog::default();
    let pass = log.open("bench.pass", None, workload.name());
    let grid_scenarios = match workload {
        Workload::ServeStream => None,
        _ => Some(
            log.time("scenario.parse", Some(pass), workload.name(), || {
                bfgts_scenario::scenarios_from_str(&docs[0])
            })
            .0?,
        ),
    };
    let spanned: Vec<Result<SpannedCell, String>> = spans::pool(n, jobs, |i| {
        let op = ids[i].as_str();
        let cell_span = log.open("runner.cell", Some(pass), op);
        let scenario = match &grid_scenarios {
            Some(parsed) => parsed[i].clone(),
            None => log
                .time("scenario.parse", Some(cell_span), op, || {
                    bfgts_scenario::scenarios_from_str(&docs[i])
                })
                .0?
                .remove(0),
        };
        let (lowering, _) = log.time("scenario.lower", Some(cell_span), op, || {
            let cell = RunCell::from_scenario(scenario)?;
            let lowered = Lowered::new(&cell, TraceMode::Off)?;
            Ok::<_, String>((cell, lowered))
        });
        let (cell, lowered) = lowering?;
        let (sources, _) = log.time("workloads.sources", Some(cell_span), op, || {
            lowered.sources(&cell)
        });
        let run_span = log.open("htm.run_workload", Some(cell_span), op);
        let (report, hooks) = lowered.run(sources, true);
        log.close(run_span);
        log.hooks(run_span, op, &hooks);
        log.close(cell_span);
        Ok(SpannedCell {
            summary: CellSummary::from_report(&report),
            hooks,
            run_span,
        })
    });
    log.close(pass);

    // Full tracing and the audit.
    let full_pass = log.open("bench.full_pass", None, workload.name());
    let full: Vec<Result<FullCell, String>> = spans::pool(n, jobs, |i| {
        let op = ids[i].as_str();
        let cell_span = log.open("runner.cell.full", Some(full_pass), op);
        let lowered = Lowered::new(&cells[i], TraceMode::Full)?;
        let sources = lowered.sources(&cells[i]);
        let ((report, _), _) = log.time("htm.run_workload.full", Some(cell_span), op, || {
            lowered.run(sources, false)
        });
        let (audit, _) = log.time("trace.audit", Some(cell_span), op, || report.audit());
        log.close(cell_span);
        audit.map_err(|v| {
            format!(
                "{op}: audit failed with {} violation(s), first: {}",
                v.len(),
                v.first().map(|v| v.to_string()).unwrap_or_default()
            )
        })?;
        if CellSummary::from_report(&report) != reference[i] {
            return Err(format!("{op}: the full-trace run differs from RunCell"));
        }
        let mut cell = FullCell {
            records: report.sim.trace.events.len() as u64,
            ..FullCell::default()
        };
        for rec in &report.sim.trace.events {
            match rec.ev {
                TraceEvent::ContextSwitch { .. } => cell.context_switches += 1,
                TraceEvent::FalsePositiveConflict { .. } => cell.false_positive += 1,
                TraceEvent::CapacityAbort { .. } => cell.capacity += 1,
                TraceEvent::SchedDecision { .. } => cell.sched_decisions += 1,
                TraceEvent::BloomSample { .. } => cell.bloom_samples += 1,
                _ => {}
            }
        }
        Ok(cell)
    });
    log.close(full_pass);
    let spans_all = log.spans();

    // Checks: the decorated lowering is transparent, full-traced cells
    // audit clean and agree with RunCell, spans nest.
    let mut hooks = Hooks::default();
    let mut run_spans = Vec::new();
    for (i, result) in spanned.iter().enumerate() {
        out.ledger.op(match result {
            Ok(_) if executed[i] != reference[i] => Err(format!(
                "{}: RunCell::execute differs from run_grid",
                ids[i]
            )),
            Ok(cell) if cell.summary == reference[i] => {
                hooks.merge(&cell.hooks);
                run_spans.push(cell.run_span);
                Ok(())
            }
            Ok(_) => Err(format!(
                "{}: spanned run differs from RunCell::execute",
                ids[i]
            )),
            Err(msg) => Err(msg.clone()),
        });
    }
    let mut full_cells = Vec::new();
    for (i, result) in full.into_iter().enumerate() {
        out.ledger.op(result
            .map(|cell| full_cells.push(cell))
            .and_then(|()| check_commits(&cells[i], &reference[i])));
    }
    let self_ns = match spans::self_times(&spans_all) {
        Ok(v) => v,
        Err(msg) => {
            out.ledger.fail(msg);
            vec![0; spans_all.len()]
        }
    };

    let micro = micro::run(&scenarios, opts.seed, opts.scale);

    let durs = |name: &str| -> Vec<f64> {
        spans_all
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let cell_ms: Vec<f64> = cell_secs.iter().map(|s| s * 1e3).collect();
    let run_ns: f64 = run_spans
        .iter()
        .map(|&i| spans_all[i].dur_ns() as f64)
        .sum();
    let engine_ns: f64 = run_spans.iter().map(|&i| self_ns[i] as f64).sum();
    let plain_total: f64 = plain_ns.iter().sum();
    let full_total: f64 = durs("htm.run_workload.full").iter().sum();
    let records: u64 = full_cells.iter().map(|c| c.records).sum();
    let sum = |f: fn(&FullCell) -> u64| -> f64 { full_cells.iter().map(f).sum::<u64>() as f64 };
    let mean_of = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64);
    let per_call = |agg: spans::Agg| ratio(agg.ns as f64, agg.calls as f64);
    let total_attempts = attempts(&reference) as f64;
    let aborts: u64 = reference.iter().map(|s| s.aborts).sum();
    let mut buckets = [0u64; 5];
    for s in &reference {
        for (slot, bucket) in buckets.iter_mut().zip(Bucket::ALL) {
            *slot += s.buckets.get(bucket);
        }
    }
    let cycles: u64 = buckets.iter().sum();
    let frac = |i: usize| ratio(buckets[i] as f64, cycles as f64);

    let m = &mut out.metrics;
    m.insert("runner.cells", n as f64);
    m.insert("runner.cell_ms_p50", percentile(&cell_ms, 50.0));
    m.insert("runner.cell_ms_p80", percentile(&cell_ms, 80.0));
    m.insert(
        "runner.busy_frac",
        ratio(cell_secs.iter().sum(), jobs as f64 * grid_wall),
    );
    m.insert("scenario.docs", n as f64);
    m.insert(
        "scenario.parse_us",
        durs("scenario.parse").iter().sum::<f64>() / 1e3 / n as f64,
    );
    m.insert("scenario.lower_us", mean_of(durs("scenario.lower")) / 1e3);
    m.insert(
        "workloads.sources_ms",
        mean_of(durs("workloads.sources")) / 1e6,
    );
    m.insert("workloads.polls", hooks.poll.calls as f64);
    m.insert("workloads.poll_ns", per_call(hooks.poll));
    m.insert("cm.begin_calls", hooks.begin.calls as f64);
    m.insert("cm.begin_ns", per_call(hooks.begin));
    m.insert("cm.conflict_calls", hooks.conflict.calls as f64);
    m.insert("cm.conflict_ns", per_call(hooks.conflict));
    m.insert("cm.commit_calls", hooks.commit.calls as f64);
    m.insert("cm.commit_ns", per_call(hooks.commit));
    m.insert("cm.self_frac", ratio(hooks.cm_ns() as f64, run_ns));
    m.insert("engine.self_frac", ratio(engine_ns, run_ns));
    m.insert(
        "engine.self_ns_per_attempt",
        ratio(engine_ns, total_attempts),
    );
    m.insert("sim.equeue_calendar_ns", micro.equeue_calendar_ns);
    m.insert("sim.equeue_heap_ns", micro.equeue_heap_ns);
    m.insert("htm.begin_commit_ns", micro.begin_commit_ns);
    m.insert("htm.access_ns", micro.access_ns);
    m.insert("bloomsig.estimate_ns", micro.bloom_estimate_ns);
    m.insert("bloomsig.insert_ns", micro.bloom_insert_ns);
    m.insert("trace.records", records as f64);
    m.insert(
        "trace.full_overhead_frac",
        ratio(full_total - plain_total, plain_total),
    );
    m.insert(
        "trace.audit_ns_per_rec",
        ratio(durs("trace.audit").iter().sum(), records as f64),
    );
    m.insert("sim.cycles.nontx_frac", frac(0));
    m.insert("sim.cycles.kernel_frac", frac(1));
    m.insert("sim.cycles.tx_frac", frac(2));
    m.insert("sim.cycles.abort_frac", frac(3));
    m.insert("sim.cycles.sched_frac", frac(4));
    m.insert("sim.context_switches", sum(|c| c.context_switches));
    m.insert(
        "htm.stalls",
        reference.iter().map(|s| s.stalls).sum::<u64>() as f64,
    );
    let false_positive = sum(|c| c.false_positive);
    let capacity = sum(|c| c.capacity);
    m.insert(
        "htm.aborts_conflict",
        aborts as f64 - false_positive - capacity,
    );
    m.insert("htm.aborts_false_positive", false_positive);
    m.insert("htm.aborts_capacity", capacity);
    m.insert("cm.sched_decisions", sum(|c| c.sched_decisions));
    m.insert("bloomsig.samples", sum(|c| c.bloom_samples));
    m.insert(
        "bench.span_overhead_frac",
        ratio(run_ns - plain_total, plain_total),
    );
    out.spans = spans_all;
    Ok(out)
}
