//! Machine generations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A machine generation the simulator can describe.
///
/// The three TPU generations of Table 4 are first-class; [`Custom`]
/// names any other system — the Table 5 comparison machines ship as the
/// well-known names `"a100"` and `"ipu-bow"`, and user-defined specs
/// (loaded via [`MachineSpec::from_json`](crate::MachineSpec::from_json))
/// can use any other label.
///
/// [`Custom`]: Generation::Custom
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Generation {
    /// TPU v2 (deployed 2017): 2D torus, first SparseCore.
    V2,
    /// TPU v3 (deployed 2018): 2D torus, 1024-chip fleet.
    V3,
    /// TPU v4 (deployed 2020): OCS-reconfigurable 3D torus, 4096 chips.
    V4,
    /// Any other system, identified by a label.
    Custom(String),
}

impl Generation {
    /// A custom generation from a label.
    pub fn custom(name: impl Into<String>) -> Generation {
        Generation::Custom(name.into())
    }

    /// The short machine-readable label (`"v4"`, or the custom name).
    pub fn label(&self) -> &str {
        match self {
            Generation::V2 => "v2",
            Generation::V3 => "v3",
            Generation::V4 => "v4",
            Generation::Custom(name) => name,
        }
    }

    /// Parses a label produced by [`Generation::label`]. Unreserved
    /// labels become [`Generation::Custom`].
    pub fn from_label(label: &str) -> Generation {
        match label {
            "v2" => Generation::V2,
            "v3" => Generation::V3,
            "v4" => Generation::V4,
            other => Generation::Custom(other.to_string()),
        }
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Generation::V2 => write!(f, "TPU v2"),
            Generation::V3 => write!(f, "TPU v3"),
            Generation::V4 => write!(f, "TPU v4"),
            Generation::Custom(name) => write!(f, "{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip() {
        for generation in [Generation::V2, Generation::V3, Generation::V4] {
            assert_eq!(Generation::from_label(generation.label()), generation);
        }
        let custom = Generation::custom("a100");
        assert_eq!(Generation::from_label(custom.label()), custom);
    }

    #[test]
    fn display_names() {
        assert_eq!(Generation::V4.to_string(), "TPU v4");
        assert_eq!(Generation::custom("a100").to_string(), "a100");
    }
}
