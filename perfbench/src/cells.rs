//! The three workloads as data: which scenarios one pass runs, derived
//! only from the benchmark seed and a size factor.

use bfgts_bench::runner::RunCell;
use bfgts_bench::{ManagerKind, Platform, Scenario};
use bfgts_workloads::{presets, ArrivalSpec, BenchmarkSpec};

/// The benchmark's default seed (the repository's experiment seed, so
/// the default `paper_grid` is exactly the published Figure 4 grid).
pub const DEFAULT_SEED: u64 = 0xB16B_00B5;

/// Documents in one `serve_stream` rotation: 7 presets × 7 managers,
/// each once with perfect detection and once with bounded signatures.
pub const SERVE_CYCLE: usize = 98;

/// Transactions per served document at size factor 1.
const SERVE_TXS: u64 = 400;

/// Mean Poisson inter-arrival gap of a served document, in cycles.
const SERVE_MEAN_GAP: u64 = 2000;

/// Transactions per `wide_1024` cell at size factor 1.
const WIDE_TXS: u64 = 40_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4: 7 presets × (serial + 7 managers) on the paper platform.
    PaperGrid,
    /// Kmeans on 1024 CPUs × 4096 threads, BFGTS-HW then Backoff.
    Wide1024,
    /// Open-system documents streamed through `bfgts_serve`.
    ServeStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::Wide1024,
        Workload::ServeStream,
    ];

    /// The workloads `BENCHMARK.json` lists. `paper_grid` runs by hand
    /// only: its two workers fill both cores of a two-core host, and its
    /// wall time spread past any allowed bound between identical runs.
    pub const LISTED: [Workload; 2] = [Workload::Wide1024, Workload::ServeStream];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Wide1024 => "wide_1024",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload's cells run on: the paper grid uses
    /// the two-worker pool, the wide cells run one after the other and
    /// the server handles one document at a time.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperGrid => 2,
            Workload::Wide1024 | Workload::ServeStream => 1,
        }
    }

    /// The scenarios of one pass, in execution order. `scale` multiplies
    /// every transaction count (1.0 is the benchmark; tests use less).
    pub fn scenarios(self, seed: u64, scale: f64) -> Vec<Scenario> {
        match self {
            Workload::PaperGrid => paper_grid(seed, scale),
            Workload::Wide1024 => wide_1024(seed, scale),
            Workload::ServeStream => (0..SERVE_CYCLE)
                .map(|n| serve_document(seed, scale, n))
                .collect(),
        }
    }
}

fn paper_grid(seed: u64, scale: f64) -> Vec<Scenario> {
    let platform = Platform {
        seed,
        ..Platform::paper()
    };
    let mut out = Vec::new();
    for spec in presets::all() {
        let spec = spec.scaled(scale);
        out.push(RunCell::serial(&spec, platform).scenario);
        for kind in ManagerKind::ALL {
            out.push(RunCell::one(&spec, kind, platform).scenario);
        }
    }
    out
}

fn wide_1024(seed: u64, scale: f64) -> Vec<Scenario> {
    let platform = Platform {
        cpus: 1024,
        threads: 4096,
        seed,
        ..Platform::paper()
    }
    .sharded(64);
    let spec = with_total(presets::kmeans(), WIDE_TXS, scale);
    [ManagerKind::BfgtsHw, ManagerKind::Backoff]
        .into_iter()
        .map(|kind| RunCell::one(&spec, kind, platform).scenario)
        .collect()
}

/// Document `n` of the serve rotation: preset and manager rotate through
/// all 49 pairs, and every odd document runs on bounded signatures
/// (256 bits, 2 hashes, capacity 16).
pub fn serve_document(seed: u64, scale: f64, n: usize) -> Scenario {
    let n = n % SERVE_CYCLE;
    let pair = n % 49;
    let preset = presets::all().swap_remove(pair % 7);
    let kind = ManagerKind::ALL[(pair + pair / 7) % 7];
    let mut platform = Platform {
        seed: derive_seed(seed, n as u64),
        ..Platform::paper()
    };
    if n % 2 == 1 {
        platform = platform.bounded(256, 2, 16);
    }
    let spec = with_total(preset, SERVE_TXS, scale);
    RunCell::one(&spec, kind, platform)
        .open(ArrivalSpec::poisson(SERVE_MEAN_GAP))
        .scenario
}

fn with_total(mut spec: BenchmarkSpec, total: u64, scale: f64) -> BenchmarkSpec {
    spec.total_txs = ((total as f64 * scale).round() as u64).max(1);
    spec
}

/// SplitMix64 step: a distinct, well-mixed scenario seed per document.
fn derive_seed(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scenario text one pass hands to the parser: the paper grid and the
/// wide cells as one scenario file (the `--emit` format), the serve
/// rotation as one single-scenario document per line.
pub fn documents(workload: Workload, scenarios: &[Scenario]) -> Vec<String> {
    match workload {
        Workload::ServeStream => scenarios.iter().map(|s| s.to_json().to_string()).collect(),
        _ => vec![bfgts_scenario::scenarios_to_json(scenarios).to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_grid_is_figure_4() {
        let grid = Workload::PaperGrid.scenarios(DEFAULT_SEED, 1.0);
        assert_eq!(grid.len(), 56);
        assert!(grid.iter().all(|s| s.platform.seed == DEFAULT_SEED));
    }

    #[test]
    fn the_serve_rotation_covers_every_pair_under_both_detections() {
        let docs = Workload::ServeStream.scenarios(1, 1.0);
        let mut pairs = std::collections::BTreeSet::new();
        for doc in &docs {
            pairs.insert((
                doc.workload.name().to_string(),
                doc.manager.label(),
                doc.platform.detection.is_bounded(),
            ));
        }
        assert_eq!(pairs.len(), SERVE_CYCLE);
        assert!(docs
            .iter()
            .enumerate()
            .all(|(n, d)| d.platform.detection.is_bounded() == (n % 2 == 1)));
    }
}
