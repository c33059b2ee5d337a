//! The TPU v4 supercomputer: the paper's primary contribution as one
//! composable object.
//!
//! A [`Supercomputer`] owns a [`MachineFabric`], dispatched on the
//! spec's `fabric` discriminator — the OCS [`Fabric`](tpu_ocs::Fabric)
//! (64 blocks = 4096 chips, 48 Palomar switches), a [`StaticCluster`]
//! (statically-cabled TPU v2/v3 tori: slices need an axis-aligned
//! contiguous box of healthy blocks, §2.7), or a [`SwitchedCluster`]
//! (NVLink-style islands behind an InfiniBand fat tree, §7.2–§7.3, for
//! `torus_dims == 0` specs such as the Table 5 A100). It schedules jobs
//! (reconfigurable regular/twisted torus slices, contiguous static
//! boxes, or chip-count reservations on switched machines), injects and
//! repairs host/island failures, and answers performance queries
//! (collective times on a job's chip-level link graph, or through the
//! hierarchical switched schedules).
//!
//! # Example
//!
//! ```
//! use tpu_core::{Collective, JobSpec, Supercomputer};
//! use tpu_ocs::SliceSpec;
//! use tpu_spec::MachineSpec;
//! use tpu_topology::SliceShape;
//!
//! let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
//! let job = sc.submit(JobSpec::new(
//!     "llm-pretrain",
//!     SliceSpec::twisted(SliceShape::new(4, 4, 8)?)?,
//! ))?;
//! let t = sc.collective_time(job, Collective::AllReduce { bytes: 1 << 30 })?;
//! assert!(t > 0.0);
//! sc.finish(job)?;
//! # Ok::<(), tpu_core::SupercomputerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod machine;
mod static_torus;

pub use error::SupercomputerError;
pub use machine::{
    Collective, JobId, JobSpec, MachineFabric, Placement, RunningJob, Supercomputer,
    SwitchedCluster,
};
pub use static_torus::{FirstFitPlan, StaticCluster};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SupercomputerError>;
