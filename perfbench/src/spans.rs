//! Spans recorded from outside the program: a contention-manager and a
//! transaction-source decorator, the lowering of a [`RunCell`] into
//! `run_workload`'s arguments, and the in-memory span log.
//!
//! Coarse boundaries (parse, lower, sources, `run_workload`, audit) get
//! one span each. Hook calls happen millions of times per pass, so each
//! hook is recorded as one aggregate span per cell: its `calls` and
//! total duration, parented to the cell's `run_workload` span.

use bfgts_bench::runner::RunCell;
use bfgts_bench::ManagerSpec;
use bfgts_htm::{
    run_workload, AbortPlan, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, DTxId, TmRunConfig, TmRunReport, TmState, TxInstance, TxPoll, TxSource,
};
use bfgts_scenario::ResolvedWorkload;
use bfgts_sim::{CostModel, SimRng, ThreadId, TraceMode, TraceSink};
use bfgts_workloads::{open_sources, AdversarialSource, OpenSource, WorkloadSource};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Calls and total nanoseconds of one hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Agg {
    fn add(cell: &Cell<Agg>, start: Instant) {
        let ns = crate::stats::ns_since(start);
        let mut agg = cell.get();
        agg.calls += 1;
        agg.ns += ns;
        cell.set(agg);
    }

    fn merge(&mut self, other: Agg) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Per-cell hook timings shared by a cell's decorators.
#[derive(Debug, Default)]
pub struct HookTimes {
    begin: Cell<Agg>,
    conflict: Cell<Agg>,
    commit: Cell<Agg>,
    other: Cell<Agg>,
    poll: Cell<Agg>,
}

/// A snapshot of [`HookTimes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hooks {
    /// `ContentionManager::on_begin`.
    pub begin: Agg,
    /// `ContentionManager::on_conflict_abort`.
    pub conflict: Agg,
    /// `ContentionManager::on_commit`.
    pub commit: Agg,
    /// The remaining manager hooks (`on_run_start`, `on_wait_skipped`).
    pub other: Agg,
    /// `TxSource::poll_tx` / `next_tx`.
    pub poll: Agg,
}

impl Hooks {
    /// Adds another cell's hooks.
    pub fn merge(&mut self, other: &Hooks) {
        self.begin.merge(other.begin);
        self.conflict.merge(other.conflict);
        self.commit.merge(other.commit);
        self.other.merge(other.other);
        self.poll.merge(other.poll);
    }

    /// Nanoseconds inside the manager.
    pub fn cm_ns(&self) -> u64 {
        self.begin.ns + self.conflict.ns + self.commit.ns + self.other.ns
    }

    /// The hooks as `(span name, aggregate)` pairs.
    pub fn named(&self) -> [(&'static str, Agg); 5] {
        [
            ("cm.on_begin", self.begin),
            ("cm.on_conflict_abort", self.conflict),
            ("cm.on_commit", self.commit),
            ("cm.other", self.other),
            ("workloads.poll_tx", self.poll),
        ]
    }
}

impl HookTimes {
    fn snapshot(&self) -> Hooks {
        Hooks {
            begin: self.begin.get(),
            conflict: self.conflict.get(),
            commit: self.commit.get(),
            other: self.other.get(),
            poll: self.poll.get(),
        }
    }
}

/// Times every hook of the manager it wraps and forwards each call
/// unchanged, default methods included.
pub struct SpannedCm {
    inner: Box<dyn ContentionManager>,
    times: Rc<HookTimes>,
}

impl ContentionManager for SpannedCm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> BeginOutcome {
        let start = Instant::now();
        let out = self.inner.on_begin(q, tm, costs, rng, trace);
        Agg::add(&self.times.begin, start);
        out
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> AbortPlan {
        let start = Instant::now();
        let out = self.inner.on_conflict_abort(ev, tm, costs, rng, trace);
        Agg::add(&self.times.conflict, start);
        out
    }

    fn on_commit(
        &mut self,
        rec: &CommitRecord<'_>,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> CommitOutcome {
        let start = Instant::now();
        let out = self.inner.on_commit(rec, tm, costs, rng, trace);
        Agg::add(&self.times.commit, start);
        out
    }

    fn on_wait_skipped(&mut self, dtx: DTxId) {
        let start = Instant::now();
        self.inner.on_wait_skipped(dtx);
        Agg::add(&self.times.other, start);
    }

    fn on_run_start(&mut self, seed: u64, num_threads: usize) {
        let start = Instant::now();
        self.inner.on_run_start(seed, num_threads);
        Agg::add(&self.times.other, start);
    }

    fn window_seed(&self) -> Option<u64> {
        self.inner.window_seed()
    }

    fn window_position(&self, thread: ThreadId) -> Option<u64> {
        self.inner.window_position(thread)
    }
}

/// Times every poll of the source it wraps.
pub struct SpannedSource<S> {
    inner: S,
    times: Rc<HookTimes>,
}

impl<S: TxSource> TxSource for SpannedSource<S> {
    fn next_tx(&mut self, rng: &mut SimRng) -> Option<TxInstance> {
        let start = Instant::now();
        let out = self.inner.next_tx(rng);
        Agg::add(&self.times.poll, start);
        out
    }

    fn poll_tx(&mut self, now: u64, rng: &mut SimRng) -> TxPoll {
        let start = Instant::now();
        let out = self.inner.poll_tx(now, rng);
        Agg::add(&self.times.poll, start);
        out
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// The per-thread sources of one cell, whichever generator built them.
pub enum SourceSet {
    /// Closed benchmark sources.
    Batch(Vec<WorkloadSource>),
    /// Open-system benchmark sources.
    Open(Vec<OpenSource<WorkloadSource>>),
    /// Closed adversarial sources.
    AdvBatch(Vec<AdversarialSource>),
    /// Open-system adversarial sources.
    AdvOpen(Vec<OpenSource<AdversarialSource>>),
}

/// `run_workload`'s configuration and manager for one cell: the lowering
/// `RunCell::execute_report` performs, done here so the manager can be
/// wrapped.
pub struct Lowered {
    cfg: TmRunConfig,
    cm: Box<dyn ContentionManager>,
    resolved: ResolvedWorkload,
    threads: usize,
}

impl Lowered {
    /// Lowers `cell` under trace mode `trace`.
    pub fn new(cell: &RunCell, trace: TraceMode) -> Result<Self, String> {
        let scenario = &cell.scenario;
        let seed = scenario.platform.seed;
        let resolved = scenario.workload.resolve()?;
        if matches!(scenario.manager, ManagerSpec::Serial) {
            // Serial baselines ignore faults and run on one CPU.
            return Ok(Self {
                cfg: scenario.costs.run_config(1, 1, seed).trace(trace),
                cm: ManagerSpec::Serial
                    .build(resolved.name(), None)
                    .ok_or(CUSTOM_MANAGER)?,
                resolved,
                threads: 1,
            });
        }
        let plan = scenario.faults.as_ref();
        let mut cfg = scenario
            .costs
            .run_config(scenario.platform.cpus, scenario.platform.threads, seed)
            .shards(scenario.platform.shards)
            .detection(scenario.platform.detection)
            .trace(trace);
        if let Some(plan) = plan {
            let pct = plan.cost_percent();
            if pct > 0 {
                cfg = cfg.perturb_costs(plan.seed, pct);
            }
            if scenario.platform.detection.is_bounded() {
                if let Some((rate_pct, bits)) = plan.bloom_corrupt() {
                    cfg = cfg.detection_fault(u64::from(rate_pct), bits, plan.seed);
                }
            }
        }
        let cm = scenario
            .manager
            .build(resolved.name(), plan.and_then(|p| p.cm_faults()))
            .ok_or(CUSTOM_MANAGER)?;
        Ok(Self {
            cfg,
            cm,
            resolved,
            threads: scenario.platform.threads,
        })
    }

    /// Builds the cell's per-thread sources.
    pub fn sources(&self, cell: &RunCell) -> SourceSet {
        let seed = cell.scenario.platform.seed;
        match (&self.resolved, cell.scenario.arrivals.as_ref()) {
            (ResolvedWorkload::Benchmark(spec), None) => {
                SourceSet::Batch(spec.sources(self.threads))
            }
            (ResolvedWorkload::Benchmark(spec), Some(arrivals)) => {
                SourceSet::Open(open_sources(spec.sources(self.threads), arrivals, seed))
            }
            (ResolvedWorkload::Adversarial(spec), None) => {
                SourceSet::AdvBatch(spec.sources(self.threads))
            }
            (ResolvedWorkload::Adversarial(spec), Some(arrivals)) => {
                SourceSet::AdvOpen(open_sources(spec.sources(self.threads), arrivals, seed))
            }
        }
    }

    /// Runs the cell; with `spanned`, through the decorators, returning
    /// the hook timings.
    pub fn run(self, sources: SourceSet, spanned: bool) -> (TmRunReport, Hooks) {
        let times = Rc::new(HookTimes::default());
        let report = match sources {
            SourceSet::Batch(s) => self.go(s, spanned.then_some(&times)),
            SourceSet::Open(s) => self.go(s, spanned.then_some(&times)),
            SourceSet::AdvBatch(s) => self.go(s, spanned.then_some(&times)),
            SourceSet::AdvOpen(s) => self.go(s, spanned.then_some(&times)),
        };
        (report, times.snapshot())
    }

    fn go<S: TxSource + 'static>(
        self,
        sources: Vec<S>,
        times: Option<&Rc<HookTimes>>,
    ) -> TmRunReport {
        match times {
            None => run_workload(&self.cfg, sources, self.cm),
            Some(times) => {
                let cm = SpannedCm {
                    inner: self.cm,
                    times: Rc::clone(times),
                };
                let sources = sources
                    .into_iter()
                    .map(|inner| SpannedSource {
                        inner,
                        times: Rc::clone(times),
                    })
                    .collect();
                run_workload(&self.cfg, sources, Box::new(cm))
            }
        }
    }
}

const CUSTOM_MANAGER: &str = "a closure-built custom manager cannot be lowered from data";

/// Identifies a span within its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span. Aggregate spans (`calls > 0`) start with their
/// parent and last as long as their calls' total.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `htm.run_workload`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The scenario id of the cell or document the span belongs to.
    pub op: String,
    /// Calls folded into an aggregate span; 0 for a plain span.
    pub calls: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one spanned run, held in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        crate::stats::ns_since(self.epoch)
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: &str) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: op.to_string(),
            calls: 0,
        })
    }

    /// Closes span `id` now.
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans.lock().expect("span log lock poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: &str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Records the hook aggregates of one `run_workload` span, laid end
    /// to end from the parent's start: the calls never overlap, so
    /// together they cover exactly their summed time.
    pub fn hooks(&self, parent: SpanId, op: &str, hooks: &Hooks) {
        let mut start = self.spans.lock().expect("span log lock poisoned")[parent].start_ns;
        for (name, agg) in hooks.named() {
            if agg.calls > 0 {
                self.push(Span {
                    name,
                    start_ns: start,
                    end_ns: start + agg.ns,
                    parent: Some(parent),
                    op: op.to_string(),
                    calls: agg.calls,
                });
                start += agg.ns;
            }
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock poisoned").clone()
    }
}

/// Per-span self time: duration minus the part of its interval that
/// its children cover (children on parallel workers overlap, so their
/// union counts, not their sum). Fails if a child reaches outside its
/// parent, i.e. if children would cover more than 100% of it.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) reaches outside its parent {}",
                    span.name, span.op, p.name
                ));
            }
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    Ok(spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect())
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    use bfgts_bench::json::Json;
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let mut pairs = vec![
            ("id", Json::UInt(id as u64)),
            ("name", Json::Str(span.name.to_string())),
            ("start_ns", Json::UInt(span.start_ns)),
            ("end_ns", Json::UInt(span.end_ns)),
            ("op", Json::Str(span.op.clone())),
        ];
        if let Some(parent) = span.parent {
            pairs.push(("parent", Json::UInt(parent as u64)));
        }
        if span.calls > 0 {
            pairs.push(("calls", Json::UInt(span.calls)));
        }
        out.push_str(&Json::obj(pairs).to_string());
        out.push('\n');
    }
    out
}

/// Runs `f(i)` for every `i < n` on `jobs` worker threads, claiming
/// indices through an atomic counter as `run_grid` does, and returns the
/// results in index order.
pub fn pool<R: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        *slots[i].lock().expect("pool slot lock poisoned") = Some(out);
    };
    if jobs <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(n.max(1)) {
                scope.spawn(work);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool slot lock poisoned")
                .expect("every index ran")
        })
        .collect()
}
