//! Empty on purpose: nothing in the workspace serializes through serde.
//! The machine specs travel as JSON through `tpu_spec::json`.
//!
//! The crate exists only because `perfbench/Cargo.lock` pins the
//! `serde` dependency edges of the crates the benchmark builds. It
//! exports nothing, so a `use serde::Serialize` or a
//! `#[derive(Serialize)]` fails to compile.
