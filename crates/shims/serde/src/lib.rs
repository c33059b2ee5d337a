//! No-op stand-in for the `serde` facade.
//!
//! Exposes `Serialize`/`Deserialize` as marker traits and re-exports the
//! matching no-op derive macros so `use serde::{Deserialize, Serialize}`
//! plus `#[derive(Serialize, Deserialize)]` compile unchanged across the
//! workspace. No serializer exists here; structured output is produced by
//! `tpu_spec::json` instead.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize`.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`.
pub trait Deserialize<'de> {}
