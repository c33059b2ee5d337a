//! Memory hierarchy model: HBM backed by the optional CMEM scratchpad.
//!
//! TPU v4 adds a 128 MiB Common Memory (CMEM) between HBM and the compute
//! cores. Workloads whose hot working set fits in CMEM stream operands at
//! CMEM bandwidth instead of HBM bandwidth; Figure 13 shows this is worth
//! 1.2× on average and 2× for RNN1 ("small weights and small batch size
//! benefit significantly from CMEM bandwidth versus HBM").

use tpu_spec::consts::GIGA;
use tpu_spec::ChipSpec;

/// One MiB in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One GiB in bytes.
pub const GIB: f64 = 1024.0 * MIB;

/// A two-level bandwidth model: HBM plus an optional on-chip scratchpad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    hbm_bytes_per_s: f64,
    hbm_capacity_bytes: f64,
    cmem_bytes_per_s: f64,
    cmem_capacity_bytes: f64,
}

impl MemorySystem {
    /// CMEM-to-HBM bandwidth ratio. The paper does not publish the CMEM
    /// bandwidth; a 4× advantage is consistent with Figure 13's 2×
    /// end-to-end gain on the most bandwidth-bound workload (RNN1) once
    /// compute overlap is accounted for. Recorded in DESIGN.md.
    pub const CMEM_BANDWIDTH_RATIO: f64 = 4.0;

    /// Builds the memory system of a chip spec.
    pub fn of_chip(spec: &ChipSpec) -> MemorySystem {
        MemorySystem {
            hbm_bytes_per_s: spec.hbm_gbps * GIGA,
            hbm_capacity_bytes: spec.hbm_gib * GIB,
            cmem_bytes_per_s: spec.hbm_gbps * GIGA * Self::CMEM_BANDWIDTH_RATIO,
            cmem_capacity_bytes: spec.cmem_mib * MIB,
        }
    }

    /// Builds an explicit system (bandwidths in bytes/s, capacities in
    /// bytes).
    pub fn new(
        hbm_bytes_per_s: f64,
        hbm_capacity_bytes: f64,
        cmem_bytes_per_s: f64,
        cmem_capacity_bytes: f64,
    ) -> MemorySystem {
        MemorySystem {
            hbm_bytes_per_s,
            hbm_capacity_bytes,
            cmem_bytes_per_s,
            cmem_capacity_bytes,
        }
    }

    /// Fraction of a working set's traffic served from CMEM: the resident
    /// fraction, assuming the hottest bytes are pinned first (the XLA
    /// compiler allocates CMEM by reuse frequency).
    pub fn cmem_hit_fraction(&self, working_set_bytes: f64) -> f64 {
        if working_set_bytes <= 0.0 || self.cmem_capacity_bytes <= 0.0 {
            return 0.0;
        }
        (self.cmem_capacity_bytes / working_set_bytes).min(1.0)
    }

    /// Effective streaming bandwidth for a working set: the harmonic
    /// blend of CMEM and HBM service.
    pub fn effective_bandwidth(&self, working_set_bytes: f64) -> f64 {
        let hit = self.cmem_hit_fraction(working_set_bytes);
        if hit == 0.0 {
            return self.hbm_bytes_per_s;
        }
        1.0 / (hit / self.cmem_bytes_per_s + (1.0 - hit) / self.hbm_bytes_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4() -> MemorySystem {
        MemorySystem::of_chip(&ChipSpec::tpu_v4())
    }

    fn v4_nocmem() -> MemorySystem {
        MemorySystem::of_chip(&ChipSpec::tpu_v4().without_cmem())
    }

    #[test]
    fn capacities_match_spec() {
        let m = v4();
        assert!((m.hbm_capacity_bytes - 32.0 * GIB).abs() < 1.0);
        assert!((m.cmem_capacity_bytes - 128.0 * MIB).abs() < 1.0);
        assert_eq!(m.hbm_bytes_per_s, 1.2e12);
    }

    #[test]
    fn small_working_set_gets_cmem_bandwidth() {
        let m = v4();
        // 64 MiB fits entirely in CMEM.
        let bw = m.effective_bandwidth(64.0 * MIB);
        assert!((bw - 4.0 * 1.2e12).abs() / bw < 1e-9);
    }

    #[test]
    fn huge_working_set_degrades_to_hbm() {
        let m = v4();
        let bw = m.effective_bandwidth(32.0 * GIB);
        // 128 MiB out of 32 GiB resident: nearly pure HBM.
        assert!(bw < 1.21e12 * 1.01);
        assert!(bw > 1.2e12);
    }

    #[test]
    fn no_cmem_means_hbm_everywhere() {
        let m = v4_nocmem();
        assert_eq!(m.effective_bandwidth(1.0 * MIB), 1.2e12);
        assert_eq!(m.cmem_hit_fraction(1.0 * MIB), 0.0);
    }

    #[test]
    fn hit_fraction_boundaries() {
        let m = v4();
        assert_eq!(m.cmem_hit_fraction(0.0), 0.0);
        assert_eq!(m.cmem_hit_fraction(128.0 * MIB), 1.0);
        assert!((m.cmem_hit_fraction(256.0 * MIB) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_bandwidth_is_monotone_in_working_set() {
        let m = v4();
        let mut prev = f64::INFINITY;
        for ws_mib in [16.0, 64.0, 128.0, 256.0, 1024.0, 8192.0] {
            let bw = m.effective_bandwidth(ws_mib * MIB);
            assert!(bw <= prev, "bandwidth must not grow with working set");
            prev = bw;
        }
    }

    #[test]
    fn v3_has_no_cmem() {
        let m = MemorySystem::of_chip(&ChipSpec::tpu_v3());
        assert_eq!(m.cmem_capacity_bytes, 0.0);
        assert_eq!(m.effective_bandwidth(1.0), 0.9e12);
    }
}
