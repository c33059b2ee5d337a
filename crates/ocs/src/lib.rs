//! Optical circuit switch fabric for the TPU v4 supercomputer simulator.
//!
//! Models §2 of the paper: the Palomar 136-port MEMS OCS ([`OcsSwitch`]),
//! the 4³ electrically-cabled building block with 16 optical links per face
//! ([`block`]) and the per-host health every fabric keeps of its blocks or
//! islands ([`HostHealth`]), the Figure 1 wiring rule that sends each "+/−" face-line
//! pair to a dedicated switch ([`wiring`]), and the full 64-block fabric
//! that programs 48 OCSes to stitch blocks into regular or twisted tori
//! ([`Fabric`]). The cost/power envelope of §2.10 is checked in [`cost`].
//!
//! The key validation: a slice materialized through the OCS fabric
//! produces *exactly* the chip-level link graph that `tpu-topology`
//! generates directly — the OCS is "just fibers connected by mirrors".
//!
//! # Example
//!
//! ```
//! use tpu_ocs::{Fabric, SliceSpec};
//! use tpu_topology::SliceShape;
//!
//! let mut fabric = Fabric::for_spec(&tpu_spec::MachineSpec::v4()); // 64 blocks, 48 OCSes
//! let spec = SliceSpec::regular(SliceShape::new(4, 4, 8)?);
//! let slice = fabric.allocate(&spec)?;          // programs the switches
//! assert_eq!(slice.chip_graph().node_count(), 128);
//! # Ok::<(), tpu_ocs::OcsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cost;
mod error;
mod fabric;
mod switch;
pub mod wiring;

pub use block::{healthy_chips, BlockId, HostHealth, HOSTS_PER_BLOCK, TPUS_PER_BLOCK};
pub use cost::{CostModel, CostReport};
pub use error::OcsError;
pub use fabric::{pick_lowest_blocks, Circuit, Fabric, MaterializedSlice, SliceSpec};
pub use switch::{OcsSwitch, PortId, PALOMAR_PORTS, PALOMAR_SPARE_PORTS};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, OcsError>;
