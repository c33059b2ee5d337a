//! Chip-level models for the TPU v4 supercomputer simulator. Each model
//! takes a [`ChipSpec`](tpu_spec::ChipSpec) from `tpu-spec`, the feature
//! database of Tables 4 and 5 of the paper (TPU v2/v3/v4, NVIDIA A100,
//! Graphcore IPU Bow).
//!
//! * [`memory`] — HBM ↔ CMEM ↔ VMEM hierarchy with working-set-dependent
//!   effective bandwidth (the mechanism behind Figure 13's CMEM ablation
//!   and RNN1's surprise 3.3× speedup).
//! * [`roofline`] — the roofline model of Figure 16 (§7.1: "Do peak
//!   FLOPS/second predict real performance?").
//! * [`power`] — utilization-based package power (Table 4's
//!   idle/min/mean/max rows and Table 6's measured MLPerf powers).
//!
//! # Example
//!
//! ```
//! use tpu_chip::Roofline;
//! use tpu_spec::ChipSpec;
//!
//! let v4 = ChipSpec::tpu_v4();
//! let v3 = ChipSpec::tpu_v3();
//! let peak_gain = v4.peak_tflops / v3.peak_tflops;
//! assert!(peak_gain > 2.2 && peak_gain < 2.3); // paper: "2.2X gain in peak"
//!
//! let roof = Roofline::of_chip(&v4);
//! // At low operational intensity the chip is memory-bound.
//! assert!(roof.attainable_tflops(1.0) < v4.peak_tflops / 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod power;
pub mod roofline;

pub use memory::{MemorySystem, MIB};
pub use power::PowerModel;
pub use roofline::{ModelPoint, Roofline};
