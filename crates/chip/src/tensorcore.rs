//! The TensorCore: MXUs, VPU and the §7.5 operand-reuse argument.
//!
//! Each TPU v4 chip has two TensorCores; each TC has four 128×128
//! systolic Matrix Multiply Units and a Vector Processing Unit with 128
//! lanes × 16 ALUs. §7.5 credits part of the energy advantage to reuse:
//! "the 128x128 MXUs of TPU v4 mean each 128 entry input gets reused 128
//! times, whereas the 4x4 FP16 array multipliers of the A100 only get
//! reused 4 times."

use serde::{Deserialize, Serialize};
use tpu_spec::consts::MEGA;
use tpu_spec::MachineSpec;

/// One TensorCore's compute organization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorCore {
    /// Systolic MXUs per TensorCore.
    pub mxus: u32,
    /// MXU dimension (128 ⇒ 128×128 MACs).
    pub mxu_dim: u32,
    /// VPU lanes.
    pub vpu_lanes: u32,
    /// ALUs per VPU lane.
    pub alus_per_lane: u32,
    /// Clock, Hz.
    pub clock_hz: f64,
}

impl TensorCore {
    /// The TensorCore a machine spec describes: MXU count/dimension and
    /// clock come from the spec; the VPU organization (128 lanes × 16
    /// ALUs, Figure 7) is common to the TPU generations.
    pub fn for_spec(spec: &MachineSpec) -> TensorCore {
        TensorCore {
            mxus: spec.mxus_per_core,
            mxu_dim: spec.mxu_dim,
            vpu_lanes: 128,
            alus_per_lane: 16,
            clock_hz: spec.chip.clock_mhz * MEGA,
        }
    }

    /// Peak MAC throughput of one TC, FLOP/s (2 FLOPs per MAC).
    pub fn peak_flops(&self) -> f64 {
        f64::from(self.mxus)
            * f64::from(self.mxu_dim)
            * f64::from(self.mxu_dim)
            * 2.0
            * self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tcs_hit_table4_peak() {
        // 2 TCs x 4 MXUs x 128^2 MACs x 2 FLOPs x 1.05 GHz ≈ 275 TFLOPS.
        let tc = TensorCore::for_spec(&MachineSpec::v4());
        let chip_peak = 2.0 * tc.peak_flops();
        assert!((chip_peak / 1e12 - 275.0).abs() < 1.0, "{chip_peak:e}");
    }

    #[test]
    fn v3_has_half_the_mxus() {
        let v4 = TensorCore::for_spec(&MachineSpec::v4());
        let v3 = TensorCore::for_spec(&MachineSpec::v3());
        let ratio = v4.peak_flops() / v3.peak_flops();
        // 2x MXUs x 1.12x clock = the Table 4 "2.2X gain in peak".
        assert!((2.2..2.3).contains(&ratio), "{ratio}");
    }

    #[test]
    fn reuse_argument_vs_a100() {
        // §7.5: 128x reuse vs the A100's 4x — a 32x ratio.
        let tc = TensorCore::for_spec(&MachineSpec::v4());
        assert_eq!(tc.mxu_dim, 128);
        assert_eq!(tc.mxu_dim / 4, 32);
    }
}
