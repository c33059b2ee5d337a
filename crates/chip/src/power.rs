//! Package power model.
//!
//! Table 4 reports measured idle / min / mean / max power for the TPUs
//! running production applications; Table 6 reports per-chip means while
//! running MLPerf. The model interpolates linearly between idle and max
//! power with utilization, which reproduces both tables from one curve.

use tpu_spec::ChipSpec;

/// Linear utilization → power model for one chip package (ASIC + HBM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    idle_w: f64,
    max_w: f64,
}

impl PowerModel {
    /// Builds the model from a spec's measured idle/max (TPUs) or from
    /// TDP (others; idle assumed at 30% of TDP, typical for GPUs).
    pub fn of_chip(spec: &ChipSpec) -> PowerModel {
        match (spec.idle_w, spec.power_min_mean_max_w) {
            (Some(idle), Some((_, _, max))) => PowerModel {
                idle_w: idle,
                max_w: max,
            },
            _ => {
                let tdp = spec.tdp_w.unwrap_or(0.0);
                PowerModel {
                    idle_w: 0.3 * tdp,
                    max_w: tdp,
                }
            }
        }
    }

    /// Builds an explicit model.
    ///
    /// # Panics
    ///
    /// Panics if `max_w < idle_w`.
    pub fn new(idle_w: f64, max_w: f64) -> PowerModel {
        assert!(max_w >= idle_w, "max power below idle power");
        PowerModel { idle_w, max_w }
    }

    /// Idle power, W.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// Maximum power, W.
    pub fn max_w(&self) -> f64 {
        self.max_w
    }

    /// Power at a utilization in [0, 1], W.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside [0, 1].
    pub fn at_utilization(&self, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} outside [0, 1]"
        );
        self.idle_w + (self.max_w - self.idle_w) * utilization
    }

    /// The utilization implied by a measured mean power.
    pub fn utilization_for_power(&self, power_w: f64) -> f64 {
        if self.max_w == self.idle_w {
            return 0.0;
        }
        ((power_w - self.idle_w) / (self.max_w - self.idle_w)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_v4_matches_table4() {
        let m = PowerModel::of_chip(&ChipSpec::tpu_v4());
        assert_eq!(m.idle_w(), 90.0);
        assert_eq!(m.max_w(), 192.0);
        // Mean production power 170 W implies ~78% utilization.
        let u = m.utilization_for_power(170.0);
        assert!((0.7..0.9).contains(&u), "{u}");
    }

    #[test]
    fn utilization_endpoints() {
        let m = PowerModel::new(100.0, 200.0);
        assert_eq!(m.at_utilization(0.0), 100.0);
        assert_eq!(m.at_utilization(1.0), 200.0);
        assert_eq!(m.at_utilization(0.5), 150.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_utilization() {
        let m = PowerModel::new(100.0, 200.0);
        let _ = m.at_utilization(1.5);
    }

    #[test]
    fn a100_uses_tdp() {
        let m = PowerModel::of_chip(&ChipSpec::a100());
        assert_eq!(m.max_w(), 400.0);
        assert_eq!(m.idle_w(), 120.0);
    }

    #[test]
    fn perf_per_watt_ratio_v4_vs_v3() {
        // Figure 13 bottom: TPU v4 is 2.7x the perf/W of TPU v3 at 2.1x
        // the performance. With both chips at production utilization the
        // power ratio supplies the remaining 1.29x.
        let v4 = PowerModel::of_chip(&ChipSpec::tpu_v4());
        let v3 = PowerModel::of_chip(&ChipSpec::tpu_v3());
        let perf_ratio = 2.1;
        let v4_ppw = perf_ratio / v4.at_utilization(v4.utilization_for_power(170.0));
        let v3_ppw = 1.0 / v3.at_utilization(v3.utilization_for_power(220.0));
        let gain = v4_ppw / v3_ppw;
        assert!((2.5..2.9).contains(&gain), "perf/W gain {gain}");
    }

    #[test]
    fn utilization_for_power_clamps() {
        let m = PowerModel::new(100.0, 200.0);
        assert_eq!(m.utilization_for_power(50.0), 0.0);
        assert_eq!(m.utilization_for_power(500.0), 1.0);
    }

    #[test]
    fn degenerate_model() {
        let m = PowerModel::new(100.0, 100.0);
        assert_eq!(m.utilization_for_power(100.0), 0.0);
        assert_eq!(m.at_utilization(1.0), 100.0);
    }
}
