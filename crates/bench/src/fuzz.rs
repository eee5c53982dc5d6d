//! Seeded fault-injection fuzz campaigns (DESIGN.md §9).
//!
//! A campaign runs a grid of cells, each fully derived from a single
//! `u64` seed: an adversarial workload, a BFGTS flavour and a randomized
//! [`FaultPlan`], together one [`Scenario`]. [`run_cell`] executes that
//! scenario and its Backoff twin through [`RunCell::execute_report`] —
//! the one lowering every experiment cell uses — audits both traces
//! through the accounting invariants I1–I11 and checks the
//! graceful-degradation bound against the Backoff baseline. Violating
//! cells are auto-minimized (greedy fault removal, then magnitude
//! halving) and written as replayable repro JSON that
//! `bfgts_fuzz --repro PATH` re-executes byte-identically, verified by a
//! fingerprint over the judged run's JSONL event trace.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bfgts_core::BfgtsConfig;
use bfgts_faultsim::{minimize, Fault, FaultPlan};
use bfgts_htm::TmRunReport;
use bfgts_scenario::{
    fnv1a, variant_key, BfgtsTunables, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec,
};
use bfgts_sim::TraceMode;
use bfgts_testkit::Gen;
use bfgts_workloads::AdversarialSpec;

use crate::json::Json;
use crate::runner::RunCell;
use crate::trace_export;

/// Format version of a repro file; bump on any schema change. Version 2
/// replaced the flat field list with an embedded [`Scenario`]
/// (DESIGN.md §10): a repro now names its run in exactly the form
/// `bfgts_run` executes and the trace header records.
pub const REPRO_VERSION: u64 = 2;

/// A BFGTS flavour: its stable repro key and its configuration.
type Flavour = (&'static str, fn() -> BfgtsConfig);

/// BFGTS flavours the campaign rotates through.
const BFGTS_FLAVOURS: [Flavour; 4] = [
    ("sw", BfgtsConfig::sw),
    ("hw", BfgtsConfig::hw),
    ("hw_backoff", BfgtsConfig::hw_backoff),
    ("no_overhead", BfgtsConfig::no_overhead),
];

/// The scenario of a quick fuzz cell: `workload` at a tenth of its size
/// on the small overcommitted platform (4 CPUs, 8 threads, perfect
/// detection) under `bfgts`, armed with `plan` and fully traced.
/// Canonical, so its id is the cell's identity and its JSON is what a
/// repro file embeds.
fn quick_scenario(
    seed: u64,
    workload: &AdversarialSpec,
    bfgts: &BfgtsConfig,
    plan: &FaultPlan,
) -> Scenario {
    let mut scenario = Scenario::new(
        WorkloadSpec::from_adversarial(&workload.clone().scaled(0.1)),
        ManagerSpec::Bfgts(BfgtsTunables::from_config(bfgts)),
        Platform {
            seed,
            ..Platform::small()
        },
    );
    scenario.faults = Some(plan.clone());
    scenario.trace = TraceMode::Full;
    scenario.canonical()
}

/// One campaign cell, fully derived from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// The seed everything below is derived from.
    pub seed: u64,
    /// The faulted BFGTS run: platform, workload, flavour and plan.
    pub scenario: Scenario,
    /// Stable key of the BFGTS flavour: `sw`, `hw`, `hw_backoff` or
    /// `no_overhead`.
    pub bfgts_key: &'static str,
    /// The randomized fault plan (also carried by `scenario` unless
    /// empty).
    pub plan: FaultPlan,
    /// Graceful-degradation floor, in percent: faulted BFGTS must
    /// achieve at least this fraction of Backoff's throughput, i.e.
    /// `bfgts_makespan * min_fraction_pct <= backoff_makespan * 100`.
    pub min_fraction_pct: u64,
}

impl CampaignCell {
    /// The cell's scenario armed with `plan` instead of its own — a
    /// minimization candidate, or the minimized plan a repro records.
    fn with_plan(&self, plan: &FaultPlan) -> Scenario {
        let mut scenario = self.scenario.clone();
        scenario.faults = Some(plan.clone());
        scenario.canonical()
    }
}

/// Derives campaign cell `seed`: workload, BFGTS flavour and fault plan
/// all come from the seed through independent splitmix64 draws, so a
/// seed range covers the (workload × flavour × plan) space without any
/// cell depending on which others ran. Every cell is judged against a
/// 10% floor: faulted BFGTS may be at most 10× slower than Backoff.
pub fn campaign_cell(seed: u64) -> CampaignCell {
    let mut g = Gen::new(seed ^ 0xF022_CA3B);
    let workloads = AdversarialSpec::all();
    let workload = g.choose(&workloads).clone();
    let (bfgts_key, flavour) = *g.choose(&BFGTS_FLAVOURS);
    let plan = FaultPlan::randomized(seed);
    let mut scenario = quick_scenario(seed, &workload, &flavour(), &plan);
    // Half the cells run on capacity-limited signature hardware, so the
    // campaign hammers the bounded-detection path (false-positive and
    // capacity aborts, fallback latch, I10) under the same fault plans
    // as perfect detection. Small capacities are deliberate: quick-cell
    // transactions must actually overflow them.
    if g.bool() {
        let (bits, hashes, capacity) = (64 * g.u32_in(1, 9), g.u32_in(1, 5), g.u32_in(4, 65));
        scenario.platform = scenario.platform.bounded(bits, hashes, capacity);
    }
    CampaignCell {
        seed,
        scenario,
        bfgts_key,
        plan,
        min_fraction_pct: 10,
    }
}

/// Everything a cell execution produced, violations included. Derives
/// `PartialEq` so determinism tests can compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Label of the BFGTS flavour that ran.
    pub bfgts_label: &'static str,
    /// Makespan of the faulted BFGTS run, in cycles.
    pub bfgts_makespan: u64,
    /// Makespan of the Backoff run under the same plan, in cycles.
    pub backoff_makespan: u64,
    /// Commits of the BFGTS run.
    pub bfgts_commits: u64,
    /// Commits of the Backoff run.
    pub backoff_commits: u64,
    /// Fault events the BFGTS trace recorded (0 when its audit failed
    /// outright, since the summary is then unavailable).
    pub faults_seen: u64,
    /// Every violation the cell produced: audit invariant breaks from
    /// either run, then the degradation bound if it broke. Empty means
    /// the cell passed.
    pub violations: Vec<String>,
}

impl CellReport {
    /// Whether the cell passed every check.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn audited(
    label: &str,
    report: &TmRunReport,
    violations: &mut Vec<String>,
) -> Option<bfgts_trace::AuditSummary> {
    match report.audit() {
        Ok(summary) => Some(summary),
        Err(list) => {
            for v in list {
                violations.push(format!("[{label}] {v}"));
            }
            None
        }
    }
}

/// Runs one cell: the BFGTS `scenario` and its Backoff twin (the same
/// workload, platform and fault plan under Backoff), both fully traced
/// through [`RunCell::execute_report`], audited through invariants
/// I1–I11 and checked against the degradation bound. Fails on a
/// scenario that is not a BFGTS run or cannot be executed from data.
///
/// Cost perturbation applies engine-wide, so both managers pay the same
/// jittered latencies; the manager-level faults (corruption, poisoning)
/// only exist inside BFGTS, which is exactly the asymmetry the
/// degradation bound is about: a scheduler whose learning inputs are
/// being sabotaged must still not lose to a scheduler that never learns
/// by more than the configured factor.
pub fn run_cell(scenario: &Scenario, min_fraction_pct: u64) -> Result<CellReport, String> {
    judge(scenario, min_fraction_pct).map(|(report, _)| report)
}

/// The judged BFGTS half of a cell: its cell and full traced report.
type Judged = (RunCell, TmRunReport);

/// [`run_cell`], also returning the BFGTS run that was judged, so a
/// repro can [`fingerprint`] exactly that run.
fn judge(scenario: &Scenario, min_fraction_pct: u64) -> Result<(CellReport, Judged), String> {
    if !matches!(scenario.manager, ManagerSpec::Bfgts(_)) {
        return Err(format!(
            "a fuzz cell runs a BFGTS manager, got '{}'",
            scenario.manager.label()
        ));
    }
    let twin = Scenario {
        manager: ManagerSpec::Kind {
            kind: ManagerKind::Backoff,
            bloom_bits: None,
        },
        ..scenario.clone()
    };
    let bfgts_cell = RunCell::from_scenario(scenario.clone())?;
    let bfgts = bfgts_cell.execute_report(TraceMode::Full);
    let backoff = RunCell::from_scenario(twin)?.execute_report(TraceMode::Full);

    let mut violations = Vec::new();
    let bfgts_summary = audited(bfgts.cm_name, &bfgts, &mut violations);
    audited(backoff.cm_name, &backoff, &mut violations);

    let bfgts_makespan = bfgts.sim.makespan.as_u64();
    let backoff_makespan = backoff.sim.makespan.as_u64();
    if bfgts_makespan * min_fraction_pct > backoff_makespan * 100 {
        violations.push(format!(
            "degradation bound broken: {} makespan {bfgts_makespan} exceeds \
             {min_fraction_pct}% floor of Backoff's {backoff_makespan} \
             (allowed at most {})",
            bfgts.cm_name,
            backoff_makespan * 100 / min_fraction_pct,
        ));
    }

    let report = CellReport {
        bfgts_label: bfgts.cm_name,
        bfgts_makespan,
        backoff_makespan,
        bfgts_commits: bfgts.stats.commits(),
        backoff_commits: backoff.stats.commits(),
        faults_seen: bfgts_summary.map_or(0, |s| s.faults),
        violations,
    };
    Ok((report, (bfgts_cell, bfgts)))
}

/// FNV-1a hash of a judged run's JSONL event trace, whose header embeds
/// the scenario: equal fingerprints mean a byte-identical replay of the
/// same run.
fn fingerprint((cell, report): &Judged) -> u64 {
    let jsonl = trace_export::to_jsonl_with_scenario(
        &report.sim.trace,
        &report.audit_inputs(),
        Some(&cell.scenario),
    );
    fnv1a(&jsonl, 0)
}

/// Runs one campaign cell per seed, `jobs`-wide, returning each cell
/// with its report. Each cell is an independent deterministic simulation
/// and results are reassembled in seed order, so the returned vector is
/// identical for every `jobs` value — the same contract as
/// `runner::run_grid`.
pub fn run_campaign(seeds: &[u64], jobs: usize) -> Vec<(CampaignCell, CellReport)> {
    let slots: Vec<OnceLock<(CampaignCell, CellReport)>> =
        (0..seeds.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(seeds.len().max(1));
    let run_slot = |i: usize| {
        let cell = campaign_cell(seeds[i]);
        let report = run_cell(&cell.scenario, cell.min_fraction_pct)
            .expect("campaign scenarios are executable BFGTS runs");
        slots[i]
            .set((cell, report))
            .expect("each slot is filled exactly once");
    };
    if workers <= 1 {
        for i in 0..seeds.len() {
            run_slot(i);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= seeds.len() {
                        break;
                    }
                    run_slot(i);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot was filled"))
        .collect()
}

/// Minimizes a violating cell's plan by re-running the cell as the
/// oracle: a candidate plan "still fails" iff the re-run produces any
/// violation.
pub fn minimize_failure(cell: &CampaignCell) -> FaultPlan {
    minimize(&cell.plan, |candidate| {
        !run_cell(&cell.with_plan(candidate), cell.min_fraction_pct)
            .expect("campaign scenarios are executable BFGTS runs")
            .passed()
    })
}

/// A self-contained, replayable record of a violating cell. Version 2
/// embeds the full [`Scenario`], so a repro names its run in exactly the
/// vocabulary `bfgts_run` executes and the trace header records — the
/// only fields outside the scenario are the campaign seed, the
/// degradation floor the cell was judged against, the fingerprint, and
/// the recorded violations.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Campaign seed the cell came from (or a label seed for controls).
    pub seed: u64,
    /// The complete run descriptor (platform, workload, BFGTS tunables,
    /// fault plan).
    pub scenario: Scenario,
    /// Degradation floor in percent.
    pub min_fraction_pct: u64,
    /// Fingerprint of the BFGTS trace under this scenario.
    pub fingerprint: u64,
    /// The violations the recorded run produced.
    pub violations: Vec<String>,
}

impl Repro {
    /// Stable key of the BFGTS flavour, for display.
    pub fn bfgts_key(&self) -> &'static str {
        match &self.scenario.manager {
            ManagerSpec::Bfgts(tunables) => variant_key(tunables.variant),
            _ => "non-bfgts",
        }
    }

    /// Serialises to the canonical repro JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::UInt(REPRO_VERSION)),
            ("seed", Json::UInt(self.seed)),
            ("scenario", self.scenario.to_json()),
            ("min_fraction_pct", Json::UInt(self.min_fraction_pct)),
            ("fingerprint", Json::UInt(self.fingerprint)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a repro from its JSON document.
    pub fn from_json(value: &Json) -> Result<Repro, String> {
        let field = |key: &str| value.get(key).ok_or_else(|| format!("missing '{key}'"));
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("'{key}' must be an unsigned integer"))
        };
        let version = uint("version")?;
        if version != REPRO_VERSION {
            return Err(format!(
                "repro version {version} unsupported (expected {REPRO_VERSION})"
            ));
        }
        let violations = field("violations")?
            .as_arr()
            .ok_or("'violations' must be an array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or("violations must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Repro {
            seed: uint("seed")?,
            scenario: Scenario::from_json(field("scenario")?)?,
            min_fraction_pct: uint("min_fraction_pct")?,
            fingerprint: uint("fingerprint")?,
            violations,
        })
    }
}

/// Builds the repro record for `cell` armed with `plan` (usually its
/// minimized plan): one run of the cell supplies both the violations
/// and the fingerprint, so the record commits to the run it describes.
pub fn make_repro(cell: &CampaignCell, plan: &FaultPlan) -> Repro {
    let scenario = cell.with_plan(plan);
    let (report, judged) = judge(&scenario, cell.min_fraction_pct)
        .expect("campaign scenarios are executable BFGTS runs");
    Repro {
        seed: cell.seed,
        scenario,
        min_fraction_pct: cell.min_fraction_pct,
        fingerprint: fingerprint(&judged),
        violations: report.violations,
    }
}

/// Writes `repro` as `<seed>.json` under `dir`, creating it if needed.
pub fn write_repro(dir: &Path, repro: &Repro) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", repro.seed));
    std::fs::write(&path, repro.to_json().to_string() + "\n")?;
    Ok(path)
}

/// Loads a repro file written by [`write_repro`].
pub fn load_repro(path: &Path) -> Result<Repro, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Repro::from_json(&Json::parse(&text)?)
}

/// Re-executes a repro and checks both halves of its contract: the run
/// must still violate, and its event trace must be byte-identical to the
/// recorded one (equal fingerprints). Returns the replayed report.
pub fn replay(repro: &Repro) -> Result<CellReport, String> {
    let (report, judged) = judge(&repro.scenario, repro.min_fraction_pct)?;
    let fp = fingerprint(&judged);
    if fp != repro.fingerprint {
        return Err(format!(
            "trace fingerprint mismatch: recorded {:016x}, replay {fp:016x}",
            repro.fingerprint
        ));
    }
    if report.passed() {
        return Err("replay no longer violates (fixed, or a stale repro)".into());
    }
    Ok(report)
}

/// The seeded negative control: a confidence-poisoned cell judged
/// against an impossible degradation floor (BFGTS must beat Backoff
/// 100×), guaranteed to violate. CI runs this to prove the campaign
/// harness actually catches failures — the fuzz-lane analogue of the
/// lint job's planted-violation steps.
pub fn violating_control() -> CampaignCell {
    let seed = 0xC0_47_01;
    let plan = FaultPlan::new(0xC047).fault(Fault::ConfPoison {
        period: 1,
        saturate: true,
    });
    CampaignCell {
        seed,
        scenario: quick_scenario(
            seed,
            &AdversarialSpec::hotspot_skew(),
            &BfgtsConfig::hw(),
            &plan,
        ),
        bfgts_key: "hw",
        plan,
        min_fraction_pct: 10_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick BFGTS-HW scenario over `workload` under `plan`.
    fn hw(seed: u64, workload: AdversarialSpec, plan: &FaultPlan) -> Scenario {
        quick_scenario(seed, &workload, &BfgtsConfig::hw(), plan)
    }

    #[test]
    fn clean_cell_passes_and_sees_no_faults() {
        let scenario = hw(0xCE11, AdversarialSpec::hotspot_skew(), &FaultPlan::new(1));
        let report = run_cell(&scenario, 10).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.faults_seen, 0);
        assert_eq!(report.bfgts_commits, report.backoff_commits);
        assert!(report.bfgts_makespan > 0);
    }

    #[test]
    fn faulted_cell_still_audits_clean_and_degrades_gracefully() {
        let plan = FaultPlan::new(5)
            .fault(Fault::CostPerturb { max_percent: 25 })
            .fault(Fault::BloomCorrupt {
                rate_pct: 80,
                bits: 64,
            })
            .fault(Fault::ConfPoison {
                period: 30,
                saturate: true,
            });
        let scenario = hw(0xCE12, AdversarialSpec::contention_storm(), &plan);
        let report = run_cell(&scenario, 10).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.faults_seen > 0, "faults must actually fire");
    }

    #[test]
    fn bounded_detection_cell_audits_clean_and_replays() {
        let mut scenario = hw(
            0xCE15,
            AdversarialSpec::hotspot_skew(),
            &FaultPlan::new(7).fault(Fault::BloomCorrupt {
                rate_pct: 60,
                bits: 16,
            }),
        );
        scenario.platform = scenario.platform.bounded(64, 1, 16);
        let a = run_cell(&scenario, 10).unwrap();
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(
            a.faults_seen > 0,
            "detection-signature corruption must be traced"
        );
        assert_eq!(a, run_cell(&scenario, 10).unwrap(), "replay");
    }

    #[test]
    fn cells_replay_byte_identically() {
        let scenario = hw(
            0xCE13,
            AdversarialSpec::phase_shift(),
            &FaultPlan::randomized(3),
        );
        let fingerprinted = || {
            let (report, judged) = judge(&scenario, 10).unwrap();
            (report, fingerprint(&judged))
        };
        assert_eq!(fingerprinted(), fingerprinted());
    }

    #[test]
    fn impossible_bound_is_reported_as_a_violation() {
        // A floor above 100% demands BFGTS beat Backoff outright on a
        // workload engineered against it — the seeded negative control.
        let plan = FaultPlan::new(6).fault(Fault::ConfPoison {
            period: 1,
            saturate: true,
        });
        let scenario = hw(0xCE14, AdversarialSpec::hotspot_skew(), &plan);
        let report = run_cell(&scenario, 10_000).unwrap();
        assert!(!report.passed());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("degradation bound")),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn campaign_is_identical_across_job_counts() {
        let seeds: Vec<u64> = (0..6).collect();
        let serial = run_campaign(&seeds, 1);
        let parallel = run_campaign(&seeds, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        for (seed, (cell, _)) in seeds.iter().zip(&serial) {
            assert_eq!(*seed, cell.seed);
        }
    }

    #[test]
    fn trace_fingerprint_is_stable_and_plan_sensitive() {
        let cell = campaign_cell(2);
        let fp =
            |scenario: &Scenario| fingerprint(&judge(scenario, cell.min_fraction_pct).unwrap().1);
        let a = fp(&cell.scenario);
        assert_eq!(a, fp(&cell.scenario), "same scenario, same fingerprint");
        let clean = cell.with_plan(&FaultPlan::new(cell.plan.seed));
        assert_ne!(
            a,
            fp(&clean),
            "a non-empty plan must leave a mark on the trace"
        );
    }

    #[test]
    fn repro_json_round_trips() {
        let cell = violating_control();
        let plan = cell
            .plan
            .clone()
            .fault(Fault::CostPerturb { max_percent: 9 })
            .fault(Fault::BloomCorrupt {
                rate_pct: 33,
                bits: 16,
            });
        let repro = Repro {
            seed: 42,
            scenario: cell.with_plan(&plan),
            min_fraction_pct: cell.min_fraction_pct,
            fingerprint: 0xDEAD_BEEF,
            violations: vec!["degradation bound broken: …".to_string()],
        };
        let text = repro.to_json().to_string();
        let parsed = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, repro);
        assert_eq!(parsed.scenario.faults, Some(plan));
        assert_eq!(parsed.bfgts_key(), "hw");
        assert!(Repro::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn seeded_control_violates_minimizes_and_replays() {
        let cell = violating_control();
        let report = run_cell(&cell.scenario, cell.min_fraction_pct).unwrap();
        assert!(!report.passed(), "the control must violate");
        // The bound is impossible even without faults, so minimization
        // strips the plan down to nothing — the true root cause.
        let minimized = minimize_failure(&cell);
        assert!(minimized.is_empty());
        assert_eq!(minimized, minimize_failure(&cell));
        let repro = make_repro(&cell, &minimized);
        assert!(!repro.violations.is_empty());
        let replayed = replay(&repro).expect("the repro must reproduce");
        assert_eq!(replayed.violations, repro.violations);
    }

    #[test]
    fn repro_files_round_trip_on_disk() {
        let mut cell = violating_control();
        cell.seed = 11;
        let repro = make_repro(&cell, &cell.plan);
        let dir = std::env::temp_dir().join(format!("bfgts-fuzz-{}", std::process::id()));
        let path = write_repro(&dir, &repro).unwrap();
        assert!(path.ends_with("11.json"));
        let loaded = load_repro(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, repro);
    }

    #[test]
    fn stale_fingerprints_and_unknown_names_are_rejected() {
        let cell = violating_control();
        let mut repro = make_repro(&cell, &cell.plan);
        repro.fingerprint ^= 1;
        let err = replay(&repro).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let mut serial = repro.clone();
        serial.scenario.manager = ManagerSpec::Serial;
        let err = replay(&serial).unwrap_err();
        assert!(err.contains("BFGTS manager"), "{err}");
        repro.scenario.workload = WorkloadSpec::Adversarial {
            name: "adv-unknown".to_string(),
            total_txs: 100,
        };
        let err = replay(&repro).unwrap_err();
        assert!(err.contains("unknown adversarial generator"), "{err}");
    }
}
