//! Bandwidth units.

use serde::{Deserialize, Serialize};
use std::fmt;
use tpu_spec::{consts, MachineSpec};

/// A link data rate in bytes per second (one direction of a cable).
///
/// The constants mirror Table 4/5 of the paper: TPU v4's ICI runs 6 links
/// at 50 GB/s, TPU v3 4 links at 70 GB/s, and the InfiniBand HDR links of
/// §7.3 carry 200 Gbit/s = 25 GB/s (ICI link bandwidth "is 2x IB — 400 vs
/// 200 Gbit/s").
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct LinkRate(f64);

impl LinkRate {
    /// TPU v4 ICI: 50 GB/s per link per direction.
    pub const TPU_V4_ICI: LinkRate = LinkRate(consts::V4_ICI_GBPS * 1e9);
    /// InfiniBand HDR NIC: 200 Gbit/s = 25 GB/s.
    pub const IB_HDR: LinkRate = LinkRate(consts::IB_HDR_GBPS * 1e9);

    /// The per-link ICI rate a machine spec declares.
    pub fn for_spec(spec: &MachineSpec) -> LinkRate {
        LinkRate::from_bytes_per_s(spec.ici_bytes_per_s())
    }

    /// Creates a rate from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn from_bytes_per_s(rate: f64) -> LinkRate {
        assert!(
            rate.is_finite() && rate > 0.0,
            "link rate must be finite and positive, got {rate}"
        );
        LinkRate(rate)
    }

    /// Rate in bytes per second.
    pub fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Rate in GB/s.
    pub fn gb_per_s(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for LinkRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.gb_per_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(LinkRate::TPU_V4_ICI.gb_per_s(), 50.0);
        assert_eq!(LinkRate::IB_HDR.gb_per_s(), 25.0);
        // ICI is 2x IB per link (§7.3).
        assert_eq!(
            LinkRate::TPU_V4_ICI.bytes_per_s() / LinkRate::IB_HDR.bytes_per_s(),
            2.0
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_zero_rate() {
        let _ = LinkRate::from_bytes_per_s(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nan_rate() {
        let _ = LinkRate::from_bytes_per_s(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(LinkRate::TPU_V4_ICI.to_string(), "50.0 GB/s");
    }

    #[test]
    fn generation_rates_match_the_constants() {
        assert_eq!(LinkRate::for_spec(&MachineSpec::v4()), LinkRate::TPU_V4_ICI);
        assert_eq!(LinkRate::for_spec(&MachineSpec::v3()).gb_per_s(), 70.0);
        assert_eq!(LinkRate::for_spec(&MachineSpec::v2()).gb_per_s(), 62.5);
    }
}
