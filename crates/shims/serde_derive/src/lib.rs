//! Empty on purpose: defines no derive macro.
//!
//! The crate exists only because `perfbench/Cargo.lock` pins the
//! `serde` to `serde_derive` edge (see `crates/shims/serde`).
