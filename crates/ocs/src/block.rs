//! The 4³ electrically-cabled building block (§2.1–§2.2).
//!
//! One rack holds 64 TPU v4 chips (a 4×4×4 electrical mesh) plus their 16
//! CPU hosts (4 TPUs per host). All 96 inter-rack links — 16 per face —
//! leave the rack optically and terminate on OCSes.

use serde::{Deserialize, Serialize};
use std::fmt;
use tpu_topology::{Coord3, Dim, Direction};

/// Chips along one edge of a block (from [`tpu_spec::consts`]).
pub const BLOCK_EDGE: u32 = tpu_spec::consts::BLOCK_EDGE;

/// TPUs in one block (4³ = one rack).
pub const TPUS_PER_BLOCK: u32 = tpu_spec::consts::TPUS_PER_BLOCK;

/// CPU hosts in one block.
pub const HOSTS_PER_BLOCK: u32 = tpu_spec::consts::V4_HOSTS_PER_BLOCK;

/// Optical links leaving one face of a block (4×4 lines).
pub const LINKS_PER_FACE: u32 = tpu_spec::consts::LINKS_PER_FACE;

/// Total optical links per block: 6 faces × 16 links.
pub const OPTICAL_LINKS_PER_BLOCK: u32 = tpu_spec::consts::OPTICAL_LINKS_PER_BLOCK;

/// Identifier of a block within a fabric.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id.
    pub fn new(index: u32) -> BlockId {
        BlockId(index)
    }

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One 4³ building block with per-host health state.
///
/// "The main problem is the CPU host; each host has 4 TPU v4s" (§2.3):
/// a block is schedulable only when all 16 hosts are up, because a slice
/// requires every chip in every block it spans.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    id: BlockId,
    host_up: [bool; HOSTS_PER_BLOCK as usize],
}

impl Block {
    /// Creates a healthy block.
    pub fn new(id: BlockId) -> Block {
        Block {
            id,
            host_up: [true; HOSTS_PER_BLOCK as usize],
        }
    }

    /// The block id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Sets the health of one CPU host.
    ///
    /// # Panics
    ///
    /// Panics if `host ≥ 16`.
    pub fn set_host_up(&mut self, host: u32, up: bool) {
        self.host_up[host as usize] = up;
    }

    /// Health of one CPU host.
    ///
    /// # Panics
    ///
    /// Panics if `host ≥ 16`.
    pub fn host_up(&self, host: u32) -> bool {
        self.host_up[host as usize]
    }

    /// A block is schedulable when every host is up.
    pub fn is_healthy(&self) -> bool {
        self.host_up.iter().all(|&u| u)
    }
}

/// The chip coordinates (within the block) of the 16 face lines in a
/// given dimension, i.e. which (j, k) positions in the two cross
/// dimensions a face line index refers to.
///
/// Line index `l` decomposes as `l = j * 4 + k` where `j` runs over the
/// first cross dimension (in x→y→z order) and `k` over the second.
pub fn face_line_coord(dim: Dim, line: u32, face_pos: u32) -> Coord3 {
    debug_assert!(line < LINKS_PER_FACE);
    let j = line / BLOCK_EDGE;
    let k = line % BLOCK_EDGE;
    match dim {
        Dim::X => Coord3::new(face_pos, j, k),
        Dim::Y => Coord3::new(j, face_pos, k),
        Dim::Z => Coord3::new(j, k, face_pos),
    }
}

/// The chip coordinate (within the block) at the given face.
///
/// `Plus` faces sit at coordinate 3, `Minus` faces at 0.
pub fn face_chip(dim: Dim, dir: Direction, line: u32) -> Coord3 {
    let pos = match dir {
        Direction::Plus => BLOCK_EDGE - 1,
        Direction::Minus => 0,
    };
    face_line_coord(dim, line, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(TPUS_PER_BLOCK, 64);
        assert_eq!(HOSTS_PER_BLOCK, 16);
        assert_eq!(OPTICAL_LINKS_PER_BLOCK, 6 * LINKS_PER_FACE);
    }

    #[test]
    fn healthy_until_a_host_fails() {
        let mut b = Block::new(BlockId::new(0));
        assert!(b.is_healthy());
        b.set_host_up(7, false);
        assert!(!b.is_healthy());
        assert!(!b.host_up(7));
        b.set_host_up(7, true);
        assert!(b.is_healthy());
    }

    /// The face line index of a chip coordinate on a face of `dim`.
    fn face_line_of(dim: Dim, coord: Coord3) -> u32 {
        let (j, k) = match dim {
            Dim::X => (coord.y, coord.z),
            Dim::Y => (coord.x, coord.z),
            Dim::Z => (coord.x, coord.y),
        };
        j * BLOCK_EDGE + k
    }

    #[test]
    fn face_line_roundtrip() {
        for dim in Dim::ALL {
            for line in 0..LINKS_PER_FACE {
                for dir in Direction::ALL {
                    let c = face_chip(dim, dir, line);
                    assert_eq!(face_line_of(dim, c), line);
                    let expect = match dir {
                        Direction::Plus => 3,
                        Direction::Minus => 0,
                    };
                    assert_eq!(c.get(dim), expect);
                }
            }
        }
    }

    #[test]
    fn face_lines_cover_all_face_chips() {
        // All 16 lines of a face map to 16 distinct chips.
        for dim in Dim::ALL {
            let mut seen = std::collections::HashSet::new();
            for line in 0..LINKS_PER_FACE {
                assert!(seen.insert(face_chip(dim, Direction::Plus, line)));
            }
            assert_eq!(seen.len(), 16);
        }
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId::new(12).to_string(), "b12");
    }
}
