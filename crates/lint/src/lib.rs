//! `tpu-lint` — the workspace's static-analysis pass.
//!
//! Runtime tests catch determinism and calibration bugs *after* a trial
//! runs; this crate catches whole classes of them at CI time by walking
//! every workspace `.rs` file with a hand-rolled lexer (the
//! registry-offline build rules out `syn`) and enforcing the repo's
//! standing invariants as lint rules:
//!
//! * [`rules::determinism`] — no nondeterministically-ordered or
//!   wall-clock constructs in the simulation crates.
//! * [`rules::unit_hygiene`] — raw power-of-ten unit conversions only in
//!   the two audited unit modules.
//! * [`rules::panic_policy`] — no unjustified `unwrap`/`expect`/`panic!`
//!   in library code.
//! * [`rules::citation`] — `DESIGN.md §N` and `docs/…` references in
//!   comments must resolve.
//! * [`rules::no_caller`] — every `pub fn` and `pub const` in library
//!   code has a caller outside tests, comments and `use` items.
//!
//! Plus the [`bench_schema`] check on committed `BENCH_*.json` perf
//! reports. Findings are suppressed inline with
//! `// tpu-lint: allow(<rule>) -- <reason>`; the reason is mandatory and
//! unused or malformed suppressions are findings themselves. The rule
//! catalog lives in DESIGN.md §13, the diagnostic JSON schema in
//! `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_schema;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use diag::Diagnostic;
pub use engine::{analyze_workspace, lint_source};
pub use rules::CitationResolver;
