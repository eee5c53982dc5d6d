//! End-to-end simulator throughput: whole scaled-down benchmark runs
//! under representative managers. This is the cost of one experiment
//! grid cell.

use bfgts_bench::runner::RunCell;
use bfgts_bench::{ManagerKind, Platform};
use bfgts_sim::TraceMode;
use bfgts_testkit::bench::Harness;
use bfgts_workloads::presets;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();
    let platform = Platform::small();
    for (bench, kind) in [
        ("Kmeans", ManagerKind::Backoff),
        ("Kmeans", ManagerKind::BfgtsHw),
        ("Intruder", ManagerKind::Ats),
        ("Intruder", ManagerKind::BfgtsHw),
    ] {
        let spec = presets::by_name(bench).expect("preset exists").scaled(0.05);
        let cell = RunCell::one(&spec, kind, platform);
        h.bench(&format!("workload_run/{bench}/{}", kind.label()), || {
            black_box(black_box(&cell).execute_report(TraceMode::Off));
        });
    }
    h.finish();
}
