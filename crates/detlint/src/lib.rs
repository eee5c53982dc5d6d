//! `detlint` — the BFGTS workspace's static-analysis suite.
//!
//! Every headline number this repository reproduces (Fig. 4–6 speedups,
//! Tables 1/4) rests on `bfgts-sim` being a *deterministic, panic-free,
//! overflow-checked* discrete-event simulator: identical seeds must
//! give bit-identical conflict orderings, similarity statistics and
//! cycle counts, and a multi-million-event run must not die mid-flight
//! on an unexplained `unwrap`. The classic way those properties rot is
//! innocuous-looking code — a `HashMap` iterated in a
//! conflict-resolution path, a bare `+` on a u64 cycle counter that
//! silently wraps in release. This crate catches those classes at lint
//! time.
//!
//! Three rule families run over the workspace:
//!
//! - **D (determinism, D001–D005):** hash-ordered collections,
//!   wall-clock reads, float-over-hash-order accumulation, hash
//!   randomisation, ambient state.
//! - **P (panic-safety, P001–P003):** `unwrap`, panic-family macros and
//!   raw indexing in the panic-audited crates, with hot-path/cold-path
//!   severity.
//! - **A (cycle arithmetic, A001):** bare `+`/`-`/`*` on
//!   cycle-flavoured values in the accounting crates must be
//!   `checked_*`/`saturating_*`/`wrapping_*` or waived.
//!
//! The trace-event vocabulary needs no lint: it is declared once in
//! `bfgts-trace`, and the compiler holds the audit's match exhaustive
//! (DESIGN.md §8).
//!
//! The tool is std-only (the build must survive an offline registry, so
//! no `syn`): a small Rust lexer ([`lexer`]), a brace-matched item tree
//! ([`itemtree`]), per-file rules over the token stream ([`rules`]),
//! waiver handling and output formats ([`engine`], [`sarif`]), workspace discovery
//! ([`workspace`]) and a fixture-driven self-test ([`selftest`]). See
//! DESIGN.md §7 for the policy the rules encode, and README.md for
//! waiver etiquette.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod itemtree;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod selftest;
pub mod workspace;
