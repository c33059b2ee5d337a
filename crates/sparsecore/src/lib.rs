//! SparseCore: the dataflow embedding accelerator of TPU v2/v3/v4 (§3).
//!
//! Three layers:
//!
//! * [`arch`] — the hardware description of Figure 7: 16 compute tiles
//!   (Fetch unit, 8-wide scVPU, Flush unit, a 2.5 MiB spmem slice, one HBM
//!   channel each) plus five cross-channel units executing CISC-like,
//!   variable-length embedding instructions.
//! * [`exec`] — the embedding step timing model: sort/dedup, HBM gather,
//!   inter-chip all-to-all (bisection-bound, §3.6), scVPU combine, and the
//!   fixed per-instruction issue overheads that cap scaling beyond ~1K
//!   chips (Figure 8) and sink MLPerf-DLRM (§7.9).
//! * [`placement`] — where embeddings live: SparseCore, TensorCore, host
//!   CPU memory, or external variable servers (the Figure 9 experiment).
//!
//! # Example
//!
//! ```
//! use tpu_embedding::DlrmConfig;
//! use tpu_sparsecore::{EmbeddingSystem, Placement};
//! use tpu_spec::MachineSpec;
//!
//! let model = DlrmConfig::dlrm0();
//! let v4 = EmbeddingSystem::for_spec(&MachineSpec::v4(), 128);
//! let with_sc = v4.step_time(&model, 4096, Placement::SparseCore);
//! let no_sc = v4.step_time(&model, 4096, Placement::HostCpu);
//! let slowdown = no_sc.total_s() / with_sc.total_s();
//! assert!(slowdown > 3.0, "removing the SC must hurt: {slowdown}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod exec;
pub mod placement;

pub use arch::{CrossChannelUnit, ScGeneration, ScInstruction};
pub use exec::{StepBreakdown, WorkloadProfile};
pub use placement::{EmbeddingSystem, Placement};
