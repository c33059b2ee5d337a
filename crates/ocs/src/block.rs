//! The 4³ electrically-cabled building block (§2.1–§2.2), and the host
//! health of a machine's blocks or islands.
//!
//! One rack holds 64 TPU v4 chips (a 4×4×4 electrical mesh) plus their 16
//! CPU hosts (4 TPUs per host). All 96 inter-rack links — 16 per face —
//! leave the rack optically and terminate on OCSes.

use crate::OcsError;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Per-host health of a machine's scheduling units: 4³ blocks, or the
/// islands of a switched machine. "The main problem is the CPU host;
/// each host has 4 TPU v4s" (§2.3): a unit is schedulable only while
/// every one of its hosts is up, because a slice needs every chip of
/// every unit it spans. Every fabric and the fleet DES keep their host
/// health in this record and nowhere else.
///
/// Failure and repair are tracked per host, so a unit with two failed
/// hosts comes back only once both are repaired, and failing a host
/// that is already down changes nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostHealth {
    hosts_per_unit: u32,
    /// One bit per host, set while it is down: host `h` of unit `u` is
    /// bit `i % 64` of word `i / 64`, where `i = u·hosts_per_unit + h`.
    down: Vec<u64>,
    /// Down hosts per unit.
    down_count: Vec<u32>,
    /// Bit `u % 64` of word `u / 64` is set while every host of unit
    /// `u` is up; the bits past the last unit are clear.
    words: Vec<u64>,
    up_units: u32,
    up_hosts: u32,
}

impl HostHealth {
    /// `units` units of `hosts_per_unit` hosts each, every host up.
    pub fn new(units: usize, hosts_per_unit: u32) -> HostHealth {
        let mut words = vec![u64::MAX; units / 64];
        if !units.is_multiple_of(64) {
            words.push(u64::MAX >> (64 - units % 64));
        }
        let hosts = units * hosts_per_unit as usize;
        HostHealth {
            hosts_per_unit,
            down: vec![0; hosts.div_ceil(64)],
            down_count: vec![0; units],
            words,
            up_units: units as u32,
            up_hosts: hosts as u32,
        }
    }

    /// Units in the record.
    #[inline]
    pub fn units(&self) -> usize {
        self.down_count.len()
    }

    /// CPU hosts per unit.
    pub fn hosts_per_unit(&self) -> u32 {
        self.hosts_per_unit
    }

    /// Marks host `host` of unit `unit` up or down. Returns whether the
    /// unit's health changed (its first host went down, or its last
    /// down host came back).
    ///
    /// # Errors
    ///
    /// Returns [`OcsError::UnknownBlock`] for a unit past the record's
    /// units and [`OcsError::UnknownHost`] for a host past a unit's
    /// hosts; either refusal changes nothing.
    pub fn set_host_up(&mut self, unit: usize, host: u32, up: bool) -> Result<bool, OcsError> {
        if unit >= self.units() || host >= self.hosts_per_unit {
            // Units are counted in `u32`, so only a unit past them can
            // saturate here.
            let block = BlockId::new(u32::try_from(unit).unwrap_or(u32::MAX));
            return Err(if unit >= self.units() {
                OcsError::UnknownBlock { block }
            } else {
                OcsError::UnknownHost { block, host }
            });
        }
        let i = unit * self.hosts_per_unit as usize + host as usize;
        let (word, bit) = (&mut self.down[i / 64], 1u64 << (i % 64));
        if (*word & bit == 0) == up {
            return Ok(false);
        }
        *word ^= bit;
        let count = &mut self.down_count[unit];
        let flipped = if up {
            self.up_hosts += 1;
            *count -= 1;
            *count == 0
        } else {
            self.up_hosts -= 1;
            *count += 1;
            *count == 1
        };
        if flipped {
            self.words[unit / 64] ^= 1 << (unit % 64);
            if up {
                self.up_units += 1;
            } else {
                self.up_units -= 1;
            }
        }
        Ok(flipped)
    }

    /// The unit health words, 64 units to a word: bit `u % 64` of word
    /// `u / 64` is set ⇔ every host of unit `u` is up; the bits past the
    /// last unit are clear. The form the placement counts read.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Units with every host up.
    #[inline]
    pub fn up_units(&self) -> u32 {
        self.up_units
    }

    /// Hosts currently up.
    #[inline]
    pub fn up_hosts(&self) -> u32 {
        self.up_hosts
    }
}

/// The chips on the units that health words (as [`HostHealth::words`])
/// of `units` units of `unit_chips` chips mark up, when the machine
/// holds `total_chips`: every unit is full except a partial last one,
/// which holds what is left (a switched fleet that is not a multiple of
/// its island size). Popcounts give the units up, and the last unit's
/// bit decides the shortfall. Inlined across crates: the reconfigurable
/// Monte Carlo arm calls it once per trial.
#[inline]
pub fn healthy_chips(words: &[u64], units: usize, unit_chips: u64, total_chips: u64) -> u64 {
    let up: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
    let last_up = units > 0 && words[(units - 1) / 64] >> ((units - 1) % 64) & 1 == 1;
    let shortfall = if last_up {
        units as u64 * unit_chips - total_chips
    } else {
        0
    };
    up * unit_chips - shortfall
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
        let mut h = HostHealth::new(2, HOSTS_PER_BLOCK);
        assert_eq!(h.words(), &[0b11]);
        assert_eq!(h.set_host_up(0, 7, false), Ok(true));
        assert_eq!(h.words(), &[0b10]);
        assert_eq!(h.set_host_up(0, 7, true), Ok(true));
        assert_eq!(h.words(), &[0b11]);
        assert_eq!(
            h.set_host_up(2, 0, false),
            Err(OcsError::UnknownBlock {
                block: BlockId::new(2)
            })
        );
        assert_eq!(
            h.set_host_up(0, HOSTS_PER_BLOCK, false),
            Err(OcsError::UnknownHost {
                block: BlockId::new(0),
                host: HOSTS_PER_BLOCK
            })
        );
        assert_eq!(h, HostHealth::new(2, HOSTS_PER_BLOCK));
    }

    /// The partial-island fleets: a100 at 4 214 chips (1 054 islands of
    /// 4 chips on one host, the last holding 2) and v4-ib at 4 092 (512
    /// islands of 8 chips on two hosts, the last holding 4).
    const PARTIAL_FLEETS: [(usize, u32, u64, u64); 2] = [(1054, 1, 4, 4214), (512, 2, 8, 4092)];

    #[test]
    fn host_health_matches_a_per_host_set_model() {
        use std::collections::BTreeSet;
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let shapes = [(64, 16, 64, 4096), (16, 8, 64, 1024), (3, 1, 4, 12)];
        for (units, hosts, unit_chips, total) in PARTIAL_FLEETS.into_iter().chain(shapes) {
            let mut health = HostHealth::new(units, hosts);
            let mut down: BTreeSet<(usize, u32)> = BTreeSet::new();
            // Few distinct hosts, the last unit's among them, so hosts
            // fail twice and units lose several hosts at once.
            let units_hit = [0, 1, units / 2, units - 2, units - 1];
            let hosts_hit = [0, hosts / 2, hosts - 1];
            let last_chips = total - (units as u64 - 1) * unit_chips;
            for step in 0..2_000 {
                let unit = units_hit[next(5) as usize];
                let host = hosts_hit[next(3) as usize];
                let up = next(2) == 0;
                let unit_up = |down: &BTreeSet<_>, u| (0..hosts).all(|h| !down.contains(&(u, h)));
                let was_up = unit_up(&down, unit);
                if up {
                    down.remove(&(unit, host));
                } else {
                    down.insert((unit, host));
                }
                let changed = health.set_host_up(unit, host, up);
                assert_eq!(changed, Ok(was_up != unit_up(&down, unit)), "step {step}");
                let mut words = vec![0u64; units.div_ceil(64)];
                let mut chips = 0;
                for u in (0..units).filter(|&u| unit_up(&down, u)) {
                    words[u / 64] |= 1 << (u % 64);
                    chips += if u + 1 == units {
                        last_chips
                    } else {
                        unit_chips
                    };
                }
                assert_eq!(health.words(), words, "{units} units, step {step}");
                let up_units = words.iter().map(|w| w.count_ones()).sum::<u32>();
                assert_eq!(health.up_units(), up_units, "{units} units, step {step}");
                let up_hosts = units * hosts as usize - down.len();
                assert_eq!(health.up_hosts() as usize, up_hosts, "{units} units");
                let counted = healthy_chips(health.words(), units, unit_chips, total);
                assert_eq!(counted, chips, "{units} units, step {step}");
            }
        }
    }

    #[test]
    fn a_partial_last_island_counts_what_it_holds() {
        for (units, hosts, unit_chips, total) in PARTIAL_FLEETS {
            let mut health = HostHealth::new(units, hosts);
            assert_eq!(
                healthy_chips(health.words(), units, unit_chips, total),
                total
            );
            health.set_host_up(units - 1, hosts - 1, false).unwrap();
            let last = total - (units as u64 - 1) * unit_chips;
            assert_eq!(
                healthy_chips(health.words(), units, unit_chips, total),
                total - last
            );
            health.set_host_up(0, 0, false).unwrap();
            assert_eq!(
                healthy_chips(health.words(), units, unit_chips, total),
                total - last - unit_chips
            );
        }
        assert_eq!(healthy_chips(&[], 0, 4, 0), 0);
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
