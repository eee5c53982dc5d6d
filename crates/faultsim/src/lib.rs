//! Deterministic fault injection for the BFGTS reproduction
//! (DESIGN.md §9).
//!
//! A [`FaultPlan`] is a declarative, seeded list of typed faults drawn
//! from the three classes the design document defines:
//!
//! * **cost perturbation** — every latency of the simulator's cost model
//!   jittered within a bounded envelope
//!   ([`bfgts_htm::TmRunConfig::perturb_costs`]);
//! * **Bloom corruption** — false-positive bits forced into freshly
//!   built commit signatures at a configured rate
//!   ([`bfgts_core::CmFaults::bloom_corruption`]), exercising the
//!   `intersection_estimate` clamp path;
//! * **confidence poisoning** — periodic resets or saturation of the
//!   scheduler's learned confidence table
//!   ([`bfgts_core::CmFaults::poisoning`]).
//!
//! A plan rides inside a `Scenario` (`bfgts-scenario`), so a faulted
//! run is lowered, executed, traced and audited like any other cell;
//! `bfgts_bench::fuzz` pairs each faulted BFGTS scenario with its Backoff
//! twin, audits both traces (invariants I1–I11) and checks the
//! graceful-degradation bound: faulted BFGTS must never fall below a
//! configured fraction of Backoff's throughput on the same workload and
//! plan.
//!
//! When a cell fails, [`minimize`] greedily shrinks the plan — dropping
//! faults, then halving their magnitudes — to the smallest plan that
//! still reproduces the failure, so a repro file carries signal instead
//! of noise.
//!
//! Everything here is a pure function of its seeds: the same plan
//! replays byte-identically at any parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod minimize;
mod plan;

pub use minimize::minimize;
pub use plan::{Fault, FaultPlan, SATURATE_VALUE};
