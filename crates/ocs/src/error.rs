//! Error type for OCS fabric operations.

use crate::{BlockId, PortId};
use std::error::Error;
use std::fmt;

/// Errors produced by OCS switches and the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OcsError {
    /// A port index was outside the switch's port count.
    PortOutOfRange {
        /// The offending port.
        port: PortId,
        /// Ports on the switch.
        ports: u16,
    },
    /// Tried to connect a port that already carries a circuit.
    PortBusy {
        /// The busy port.
        port: PortId,
    },
    /// Tried to connect a port to itself.
    SelfConnection {
        /// The port.
        port: PortId,
    },
    /// A topology error bubbled up from slice-shape handling.
    Topology(tpu_topology::TopologyError),
    /// The requested slice needs more healthy blocks than are free.
    InsufficientBlocks {
        /// Blocks needed.
        needed: usize,
        /// Healthy free blocks available.
        available: usize,
    },
    /// The slice shape is not composed of whole 4³ blocks.
    NotBlockAligned {
        /// The offending shape, as (x, y, z) in chips.
        shape: (u32, u32, u32),
    },
    /// A block id was not part of this fabric.
    UnknownBlock {
        /// The offending block.
        block: BlockId,
    },
    /// The block exists but has no CPU host with this index.
    UnknownHost {
        /// The block.
        block: BlockId,
        /// The offending host index.
        host: u32,
    },
    /// A block chosen for a slice is unhealthy, already in use, or
    /// chosen twice.
    UnhealthyBlock {
        /// The offending block.
        block: BlockId,
    },
    /// A chip-level twist offset is not a multiple of the 4-chip block
    /// edge, so the OCS cannot express it by rewiring whole face lines.
    TwistNotBlockExpressible {
        /// The offending offset in chips.
        offset: u32,
    },
}

impl fmt::Display for OcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcsError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range for a {ports}-port switch")
            }
            OcsError::PortBusy { port } => write!(f, "port {port} already carries a circuit"),
            OcsError::SelfConnection { port } => {
                write!(f, "port {port} cannot be connected to itself")
            }
            OcsError::Topology(e) => write!(f, "topology error: {e}"),
            OcsError::InsufficientBlocks { needed, available } => write!(
                f,
                "slice needs {needed} healthy blocks but only {available} are free"
            ),
            OcsError::NotBlockAligned { shape } => write!(
                f,
                "shape {}x{}x{} is not made of whole 4x4x4 blocks",
                shape.0, shape.1, shape.2
            ),
            OcsError::UnknownBlock { block } => write!(f, "block {block} is not in this fabric"),
            OcsError::UnknownHost { block, host } => write!(f, "block {block} has no host {host}"),
            OcsError::UnhealthyBlock { block } => {
                write!(f, "block {block} is unhealthy or already taken")
            }
            OcsError::TwistNotBlockExpressible { offset } => write!(
                f,
                "twist offset {offset} chips is not a whole number of blocks"
            ),
        }
    }
}

impl Error for OcsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OcsError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tpu_topology::TopologyError> for OcsError {
    fn from(e: tpu_topology::TopologyError) -> OcsError {
        OcsError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_lowercase() {
        let errs: Vec<OcsError> = vec![
            OcsError::PortBusy {
                port: PortId::new(3),
            },
            OcsError::InsufficientBlocks {
                needed: 8,
                available: 2,
            },
            OcsError::NotBlockAligned { shape: (2, 2, 4) },
            OcsError::UnknownHost {
                block: BlockId::new(0),
                host: 16,
            },
            OcsError::TwistNotBlockExpressible { offset: 2 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn topology_error_converts_and_chains() {
        let te = tpu_topology::TopologyError::ZeroDimension;
        let oe: OcsError = te.clone().into();
        assert_eq!(oe, OcsError::Topology(te));
        assert!(Error::source(&oe).is_some());
    }
}
