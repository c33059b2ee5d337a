//! The paper's constants as `const` items.
//!
//! [`MachineSpec`](crate::MachineSpec) is the preferred way to consume
//! these; the consts exist for const contexts (associated constants,
//! array sizes) in downstream crates — e.g. `LinkRate::TPU_V4_ICI` in
//! `tpu-net` is a `const` built from [`V4_ICI_GBPS`].

// SI scale factors. tpu-lint's unit-hygiene rule forbids raw 1e9-style
// conversion factors outside this module and `tpu_net::units`, so every
// bandwidth/latency/FLOP conversion routes through these names. Each is
// the exact power-of-ten literal: substituting a name for the literal
// is bit-identical, which the to_bits-pinned golden tests rely on.

/// 10³ — kB, kHz, ms↔s divisor.
pub const KILO: f64 = 1e3;

/// 10⁶ — MB, MHz, µs↔s divisor.
pub const MEGA: f64 = 1e6;

/// 10⁹ — GB, GHz, ns↔s divisor.
pub const GIGA: f64 = 1e9;

/// 10¹² — TB, TFLOP.
pub const TERA: f64 = 1e12;

/// 10⁻³ — milli.
pub const MILLI: f64 = 1e-3;

/// 10⁻⁶ — micro.
pub const MICRO: f64 = 1e-6;

/// 10⁻⁹ — nano.
pub const NANO: f64 = 1e-9;

/// TPU v4 ICI rate, GB/s per link per direction (Table 4).
pub const V4_ICI_GBPS: f64 = 50.0;

/// TPU v3 ICI rate, GB/s per link per direction (Table 4).
pub const V3_ICI_GBPS: f64 = 70.0;

/// TPU v2 ICI rate, GB/s per link (500 Gbit/s aggregate over 4 links).
pub const V2_ICI_GBPS: f64 = 62.5;

/// InfiniBand HDR NIC rate, GB/s (200 Gbit/s, §7.3).
pub const IB_HDR_GBPS: f64 = 25.0;

/// Chips along one edge of the electrically-cabled building block (§2.2).
pub const BLOCK_EDGE: u32 = 4;

/// TPUs in one block: 4³ = one rack.
pub const TPUS_PER_BLOCK: u32 = BLOCK_EDGE * BLOCK_EDGE * BLOCK_EDGE;

/// TPU v4 chips attached to one CPU host (§2.3).
pub const V4_TPUS_PER_HOST: u32 = 4;

/// CPU hosts in one TPU v4 block.
pub const V4_HOSTS_PER_BLOCK: u32 = TPUS_PER_BLOCK / V4_TPUS_PER_HOST;

/// Optical links leaving one face of a block (4×4 lines).
pub const LINKS_PER_FACE: u32 = BLOCK_EDGE * BLOCK_EDGE;

/// Total optical links per block: 6 faces × 16 links.
pub const OPTICAL_LINKS_PER_BLOCK: u32 = 6 * LINKS_PER_FACE;

/// OCSes in a full TPU v4 fabric: 3 dimensions × 16 face lines (Fig 1).
pub const OCS_COUNT: u32 = 48;

/// Total ports on a Palomar OCS (128 usable + 8 spares, §2.1).
pub const PALOMAR_PORTS: u16 = 136;

/// Palomar ports reserved for link testing and repairs.
pub const PALOMAR_SPARE_PORTS: u16 = 8;

/// Blocks one OCS fabric can join: a block takes two ports of each
/// Palomar (Figure 1), so the usable ports over two.
pub const PALOMAR_MAX_BLOCKS: u32 = (PALOMAR_PORTS - PALOMAR_SPARE_PORTS) as u32 / 2;

/// MEMS mirror reconfiguration time, milliseconds (§2.1).
pub const OCS_RECONFIG_MS: f64 = 10.0;

/// Chips in one full TPU v4 supercomputer (Table 4 largest config).
pub const V4_FLEET_CHIPS: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_are_consistent() {
        assert_eq!(TPUS_PER_BLOCK, 64);
        assert_eq!(V4_HOSTS_PER_BLOCK, 16);
        assert_eq!(LINKS_PER_FACE, 16);
        assert_eq!(OPTICAL_LINKS_PER_BLOCK, 96);
        let fleet_blocks = V4_FLEET_CHIPS / u64::from(TPUS_PER_BLOCK);
        assert_eq!(fleet_blocks, 64);
        // Figure 1: 64 blocks x 2 fibers fill the Palomar's usable ports.
        assert_eq!(
            u64::from(PALOMAR_PORTS - PALOMAR_SPARE_PORTS),
            fleet_blocks * 2
        );
        assert_eq!(u64::from(PALOMAR_MAX_BLOCKS), fleet_blocks);
        // §7.3: ICI link bandwidth is 2x IB.
        assert_eq!(V4_ICI_GBPS / IB_HDR_GBPS, 2.0);
    }
}
