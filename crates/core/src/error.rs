//! Error type for supercomputer operations.

use crate::JobId;
use std::error::Error;
use std::fmt;

/// Errors produced by [`Supercomputer`](crate::Supercomputer) operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SupercomputerError {
    /// The OCS fabric rejected an operation.
    Fabric(tpu_ocs::OcsError),
    /// A topology construction failed.
    Topology(tpu_topology::TopologyError),
    /// No job with the given id is running.
    UnknownJob {
        /// The offending id.
        job: JobId,
    },
    /// A switched machine cannot satisfy a chip request.
    InsufficientChips {
        /// Chips the job asked for.
        needed: u64,
        /// Healthy unallocated chips available.
        available: u64,
    },
    /// The operation only makes sense on a torus (OCS/ICI) machine.
    TorusOnly {
        /// What was attempted (e.g. `"reconfigure"`).
        operation: &'static str,
    },
    /// The operation needs the OCS layer's reconfigurability, which a
    /// statically-cabled torus does not have (§2.7: twists and per-job
    /// rewiring are OCS capabilities).
    OcsOnly {
        /// What was attempted (e.g. `"twisted slice"`).
        operation: &'static str,
    },
    /// A statically-cabled machine has no contiguous healthy free box of
    /// blocks for the requested slice — capacity is fragmented, the
    /// failure mode Figure 4 charges against static cabling.
    NoContiguousSlice {
        /// The slice's block-box request (blocks per axis).
        needed_blocks: (u32, u32, u32),
    },
}

impl fmt::Display for SupercomputerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupercomputerError::Fabric(e) => write!(f, "fabric error: {e}"),
            SupercomputerError::Topology(e) => write!(f, "topology error: {e}"),
            SupercomputerError::UnknownJob { job } => write!(f, "no running job {job}"),
            SupercomputerError::InsufficientChips { needed, available } => write!(
                f,
                "switched machine has {available} healthy free chips, job needs {needed}"
            ),
            SupercomputerError::TorusOnly { operation } => {
                write!(f, "{operation} is only supported on torus machines")
            }
            SupercomputerError::OcsOnly { operation } => {
                write!(
                    f,
                    "{operation} requires an OCS-reconfigurable fabric (this machine is \
                     statically cabled)"
                )
            }
            SupercomputerError::NoContiguousSlice { needed_blocks } => {
                let (x, y, z) = needed_blocks;
                write!(
                    f,
                    "no contiguous healthy {x}x{y}x{z}-block sub-torus is free in the \
                     statically-cabled machine"
                )
            }
        }
    }
}

impl Error for SupercomputerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SupercomputerError::Fabric(e) => Some(e),
            SupercomputerError::Topology(e) => Some(e),
            SupercomputerError::UnknownJob { .. } => None,
            SupercomputerError::InsufficientChips { .. } => None,
            SupercomputerError::TorusOnly { .. } => None,
            SupercomputerError::OcsOnly { .. } => None,
            SupercomputerError::NoContiguousSlice { .. } => None,
        }
    }
}

impl From<tpu_ocs::OcsError> for SupercomputerError {
    fn from(e: tpu_ocs::OcsError) -> SupercomputerError {
        SupercomputerError::Fabric(e)
    }
}

impl From<tpu_topology::TopologyError> for SupercomputerError {
    fn from(e: tpu_topology::TopologyError) -> SupercomputerError {
        SupercomputerError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: SupercomputerError = tpu_ocs::OcsError::InsufficientBlocks {
            needed: 4,
            available: 1,
        }
        .into();
        assert!(e.to_string().starts_with("fabric error"));
        assert!(Error::source(&e).is_some());

        let u = SupercomputerError::UnknownJob { job: JobId::new(7) };
        assert!(u.to_string().contains("job"));
        assert!(Error::source(&u).is_none());
    }
}
