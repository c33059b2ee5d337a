//! The InfiniBand fat tree of §7.3: the 3-level folded Clos that joins
//! the islands of every switched machine. The §7.3 hybrid ICI/IB network
//! (8-chip ICI islands over this tree) is the
//! [`SwitchedFabric`](crate::SwitchedFabric) of the `v4-ib` spec, and
//! [`BackendComparison`](crate::BackendComparison) sets it against the
//! OCS-stitched 3D torus.
//!
//! Calibration notes (see DESIGN.md §2): the fat tree is full-bisection. The
//! reference configuration uses utilization 1.0 for all-reduce (ring
//! traffic is collision-free on a Clos; protocol processing is excluded,
//! matching the paper's simulator which "ignores protocol processing on
//! the CPU") and 0.80 for all-to-all (ECMP collisions under uniform
//! random traffic). These are the only tuned values; the rest is
//! bandwidth arithmetic. Against the paper's §7.3 ranges (1.8×–2.4×
//! all-reduce, 1.2×–2.4× all-to-all), v4 vs v4-ib at 1 GB all-reduce
//! and 4 KiB all-to-all reads 2.29×–2.36× all-reduce on 4×4×8 through
//! 16×16×16, inside its band, and 1.367×, 1.930×, 1.137×, 1.178× and
//! 1.206× all-to-all on 4×4×8, 8×8×8, 8×8×16, 8×16×16 and 16×16×16:
//! 8×8×16 and 8×16×16 fall below the 1.2× band.

use crate::units::LinkRate;

/// A 3-level folded-Clos (fat tree) InfiniBand fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTree {
    /// Per-NIC rate (one direction).
    pub nic_rate: LinkRate,
    /// NICs per accelerator chip ("an average of one NIC per GPU").
    pub nics_per_chip: u32,
    /// Switch radix (ports per switch); the QM8790 has 40.
    pub switch_radix: u32,
    /// Effective fabric utilization for all-reduce traffic.
    pub all_reduce_utilization: f64,
    /// Effective fabric utilization for all-to-all traffic.
    pub all_to_all_utilization: f64,
}

impl FatTree {
    /// The §7.3 reference configuration: HDR IB, one NIC per chip, 40-port
    /// Quantum switches.
    pub fn hdr_reference() -> FatTree {
        FatTree {
            nic_rate: LinkRate::IB_HDR,
            nics_per_chip: 1,
            switch_radix: 40,
            all_reduce_utilization: 1.0,
            all_to_all_utilization: 0.80,
        }
    }

    /// Estimated switch count for a full 3-level fat tree over `chips`
    /// endpoints, linear fit through the paper's two anchors (1120 A100s →
    /// 164 switches; 4096 TPUs → 568 switches).
    pub fn estimated_switches(self, chips: u64) -> u64 {
        const SLOPE: f64 = (568.0 - 164.0) / (4096.0 - 1120.0);
        const INTERCEPT: f64 = 164.0 - SLOPE * 1120.0;
        (SLOPE * chips as f64 + INTERCEPT).ceil().max(1.0) as u64
    }

    /// Injection bandwidth available to one chip, bytes/s.
    pub fn per_chip_injection(self) -> f64 {
        self.nic_rate.bytes_per_s() * f64::from(self.nics_per_chip)
    }

    /// Switch traversals one message pays crossing the tree between two
    /// endpoints, for a fabric of `chips` endpoints: 1 under a shared
    /// leaf (≤ radix/2 endpoints), 3 up-over-down within two levels
    /// (≤ (radix/2)² endpoints), else the full 3-level Clos's 5
    /// (leaf–spine–core–spine–leaf).
    pub fn switch_stages(self, chips: u64) -> u32 {
        let down = u64::from(self.switch_radix / 2).max(1);
        if chips <= down {
            1
        } else if chips <= down * down {
            3
        } else {
            5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_count_anchors() {
        let ft = FatTree::hdr_reference();
        assert_eq!(ft.estimated_switches(1120), 164);
        assert_eq!(ft.estimated_switches(4096), 568);
        assert!(ft.estimated_switches(1) >= 1);
    }

    #[test]
    fn injection_bandwidth() {
        let ft = FatTree::hdr_reference();
        assert_eq!(ft.per_chip_injection(), 25e9);
    }
}
