//! The BFGTS simulator's benchmark: three workloads, end-to-end metrics
//! from untraced runs through the entry points users call, and per-layer
//! metrics from a separate spanned run. See `README.md` for the metric
//! definitions and the layer → end-to-end table.

#![forbid(unsafe_code)]

pub mod bench;
pub mod cells;
pub mod host;
pub mod micro;
pub mod serve;
pub mod spans;
pub mod stats;

/// One reported metric's name, unit and direction, exactly as
/// `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`), printed on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", "lower"),
    def("attempts_per_s", "1/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("doc_ms_p50", "ms", "lower"),
    def("doc_ms_p95", "ms", "lower"),
    def("sim_makespan_mcycles", "Mcycles", "lower"),
    def("sim_aborts_per_commit", "ratio", "lower"),
];

/// Metrics of the spanned run (`--trace 1`), printed on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("runner.cells", "count", "higher"),
    def("runner.cell_ms_p50", "ms", "lower"),
    def("runner.cell_ms_p80", "ms", "lower"),
    def("runner.busy_frac", "fraction", "higher"),
    def("scenario.docs", "count", "higher"),
    def("scenario.parse_us", "us", "lower"),
    def("scenario.lower_us", "us", "lower"),
    def("workloads.sources_ms", "ms", "lower"),
    def("workloads.polls", "count", "lower"),
    def("workloads.poll_ns", "ns", "lower"),
    def("cm.begin_calls", "count", "lower"),
    def("cm.begin_ns", "ns", "lower"),
    def("cm.conflict_calls", "count", "lower"),
    def("cm.conflict_ns", "ns", "lower"),
    def("cm.commit_calls", "count", "lower"),
    def("cm.commit_ns", "ns", "lower"),
    def("cm.self_frac", "fraction", "lower"),
    def("engine.self_frac", "fraction", "lower"),
    def("engine.self_ns_per_attempt", "ns", "lower"),
    def("sim.equeue_calendar_ns", "ns", "lower"),
    def("sim.equeue_heap_ns", "ns", "lower"),
    def("htm.begin_commit_ns", "ns", "lower"),
    def("htm.access_ns", "ns", "lower"),
    def("bloomsig.estimate_ns", "ns", "lower"),
    def("bloomsig.insert_ns", "ns", "lower"),
    def("trace.records", "count", "lower"),
    def("trace.full_overhead_frac", "fraction", "lower"),
    def("trace.audit_ns_per_rec", "ns", "lower"),
    def("sim.cycles.nontx_frac", "fraction", "higher"),
    def("sim.cycles.kernel_frac", "fraction", "lower"),
    def("sim.cycles.tx_frac", "fraction", "higher"),
    def("sim.cycles.abort_frac", "fraction", "lower"),
    def("sim.cycles.sched_frac", "fraction", "lower"),
    def("sim.context_switches", "count", "lower"),
    def("htm.stalls", "count", "lower"),
    def("htm.aborts_conflict", "count", "lower"),
    def("htm.aborts_false_positive", "count", "lower"),
    def("htm.aborts_capacity", "count", "lower"),
    def("cm.sched_decisions", "count", "lower"),
    def("bloomsig.samples", "count", "lower"),
    def("bench.span_overhead_frac", "fraction", "lower"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
