//! The Figure 1 wiring rule.
//!
//! "The '+' and '−' connections with the same dimension and index are
//! connected to the same OCS; 48 of these in-out pairs each connect to a
//! distinct OCS." With 64 blocks each contributing one '+' and one '−'
//! fiber per (dimension, face-line) pair, each OCS sees exactly
//! 64 × 2 = 128 ports — the Palomar's usable port count.

use crate::block::{BlockId, LINKS_PER_FACE};
use crate::switch::PortId;
use tpu_topology::{Dim, Direction};

/// Number of OCSes in a full TPU v4 fabric: 3 dimensions × 16 face lines
/// (from [`tpu_spec::consts`]).
pub const OCS_COUNT: u32 = tpu_spec::consts::OCS_COUNT;

/// The OCS serving a (dimension, face line) pair.
///
/// # Panics
///
/// Panics if `line ≥ 16`.
pub fn ocs_index(dim: Dim, line: u32) -> usize {
    assert!(line < LINKS_PER_FACE, "face line {line} out of range");
    dim.index() * LINKS_PER_FACE as usize + line as usize
}

/// Inverse of [`ocs_index`].
///
/// # Panics
///
/// Panics if `index ≥ 48`.
pub fn ocs_role(index: usize) -> (Dim, u32) {
    assert!((index as u32) < OCS_COUNT, "ocs index {index} out of range");
    (
        Dim::from_index(index / LINKS_PER_FACE as usize),
        (index % LINKS_PER_FACE as usize) as u32,
    )
}

/// The port a block's face fiber occupies on its OCS: even ports carry the
/// '+' face, odd ports the '−' face.
pub fn block_port(block: BlockId, dir: Direction) -> PortId {
    let base = (block.index() as u16) * 2;
    match dir {
        Direction::Plus => PortId::new(base),
        Direction::Minus => PortId::new(base + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocs_index_roundtrip() {
        for dim in Dim::ALL {
            for line in 0..LINKS_PER_FACE {
                let idx = ocs_index(dim, line);
                assert!(idx < OCS_COUNT as usize);
                assert_eq!(ocs_role(idx), (dim, line));
            }
        }
    }

    #[test]
    fn all_48_indices_distinct() {
        let mut seen = std::collections::HashSet::new();
        for dim in Dim::ALL {
            for line in 0..LINKS_PER_FACE {
                assert!(seen.insert(ocs_index(dim, line)));
            }
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn sixty_four_blocks_fill_128_ports() {
        // The highest port used by 64 blocks is 127, inside the Palomar's
        // 128 usable ports.
        let top = block_port(BlockId::new(63), Direction::Minus);
        assert_eq!(top.index(), 127);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_line_panics() {
        let _ = ocs_index(Dim::X, 16);
    }
}
