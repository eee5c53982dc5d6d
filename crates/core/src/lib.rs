//! **Bloom Filter Guided Transaction Scheduling** (BFGTS) — the primary
//! contribution of the paper (Blake, Dreslinski & Mudge, HPCA 2011).
//!
//! BFGTS is a proactive contention manager for hardware transactional
//! memory. Its key idea is *similarity*: a transaction whose consecutive
//! executions touch the same memory will keep conflicting with the same
//! enemies, while a transaction that jumps around memory only conflicts
//! transiently. BFGTS estimates similarity cheaply from Bloom-filter
//! read/write-set signatures (see [`bfgts_bloomsig`]) and uses it to
//! weight every confidence update its scheduler makes:
//!
//! * conflicts between *similar* transactions raise conflict confidence
//!   sharply and decay slowly → they get serialised;
//! * conflicts between *dissimilar* transactions barely register and
//!   decay fast → they keep running in parallel.
//!
//! The crate provides [`BfgtsCm`], an implementation of
//! [`bfgts_htm::ContentionManager`], in the paper's four evaluated
//! flavours ([`BfgtsVariant`]):
//!
//! | variant | begin-time prediction | commit bookkeeping |
//! |---|---|---|
//! | `Sw` | software CPU-table scan | full, in software |
//! | `Hw` | hardware predictor w/ confidence cache ([`HwPredictor`]) | full, in software |
//! | `HwBackoff` | gated by ATS-style conflict pressure | gated by pressure |
//! | `NoOverhead` | free (1 cycle) | free (1 cycle), perfect signatures |
//!
//! # Example
//!
//! ```
//! use bfgts_core::{BfgtsCm, BfgtsConfig};
//! use bfgts_htm::ContentionManager;
//!
//! let cm = BfgtsCm::new(BfgtsConfig::hw().bloom_bits(2048));
//! assert_eq!(cm.name(), "BFGTS-HW");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-safety policy (DESIGN.md §7) for the lib target; `tests/` and
// `#[cfg(test)]` code may panic freely.
#![warn(
    clippy::unwrap_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod config;
mod faults;
mod hw;
mod manager;
mod sig;
mod tables;

pub use config::{BfgtsConfig, BfgtsVariant, MAX_ALIAS_SLOTS, MAX_BLOOM_BITS};
pub use faults::{CmFaults, PoisonMode};
pub use hw::HwPredictor;
pub use manager::BfgtsCm;
pub use tables::{ConfidenceTable, TxStatsTable};
