//! Table 6: mean per-chip power (DSA + HBM) of 64-chip systems running
//! MLPerf.

use serde::{Deserialize, Serialize};
use tpu_chip::PowerModel;
use tpu_spec::MachineSpec;

/// One Table 6 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlperfPowerRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured A100 mean power, W.
    pub a100_w: f64,
    /// Measured TPU v4 mean power, W.
    pub tpu_v4_w: f64,
}

impl MlperfPowerRow {
    /// A100-to-TPU power ratio.
    pub fn ratio(&self) -> f64 {
        self.a100_w / self.tpu_v4_w
    }
}

/// The measured Table 6 plus the model that reproduces it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table6 {
    rows: Vec<MlperfPowerRow>,
}

impl Table6 {
    /// The published measurements.
    pub fn measured() -> Table6 {
        Table6 {
            rows: vec![
                MlperfPowerRow {
                    benchmark: "BERT".into(),
                    a100_w: 380.0,
                    tpu_v4_w: 197.0,
                },
                MlperfPowerRow {
                    benchmark: "ResNet".into(),
                    a100_w: 273.0,
                    tpu_v4_w: 206.0,
                },
            ],
        }
    }

    /// The rows.
    pub fn rows(&self) -> &[MlperfPowerRow] {
        &self.rows
    }

    /// Reconstructs the table from the chip power models at estimated
    /// per-benchmark utilizations (BERT keeps the A100 power-capped near
    /// TDP — §7.1 observed clock throttling; ResNet's input pipeline
    /// lowers its duty cycle).
    pub fn modeled() -> Table6 {
        let a100 = PowerModel::of_chip(&MachineSpec::a100().chip);
        let v4 = PowerModel::of_chip(&MachineSpec::v4().chip);
        let mk = |name: &str, a100_util: f64, v4_util: f64| MlperfPowerRow {
            benchmark: name.into(),
            a100_w: a100.at_utilization(a100_util),
            tpu_v4_w: v4.at_utilization(v4_util),
        };
        Table6 {
            rows: vec![mk("BERT", 0.93, 1.0), mk("ResNet", 0.55, 1.0)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ratios_match_paper() {
        let t = Table6::measured();
        let bert = &t.rows()[0];
        assert!((bert.ratio() - 1.93).abs() < 0.01, "{}", bert.ratio());
        let resnet = &t.rows()[1];
        assert!((resnet.ratio() - 1.33).abs() < 0.01, "{}", resnet.ratio());
    }

    #[test]
    fn paper_band_1_3_to_1_9() {
        // "A100s use on average 1.3x-1.9x more power."
        for row in Table6::measured().rows() {
            let r = row.ratio();
            assert!((1.3..=1.95).contains(&r), "{}: {r}", row.benchmark);
        }
    }

    #[test]
    fn model_reproduces_measurements_within_10_percent() {
        let measured = Table6::measured();
        let modeled = Table6::modeled();
        for (m, r) in measured.rows().iter().zip(modeled.rows()) {
            let a_err = (m.a100_w - r.a100_w).abs() / m.a100_w;
            let t_err = (m.tpu_v4_w - r.tpu_v4_w).abs() / m.tpu_v4_w;
            assert!(
                a_err < 0.10,
                "{}: A100 {} vs {}",
                m.benchmark,
                m.a100_w,
                r.a100_w
            );
            assert!(
                t_err < 0.10,
                "{}: TPU {} vs {}",
                m.benchmark,
                m.tpu_v4_w,
                r.tpu_v4_w
            );
        }
    }

    #[test]
    fn tpu_power_near_table4_mean() {
        // Table 6's TPU numbers are "2%-8% higher than in Table 4" (mean
        // 170 W max 192 W): both rows must sit inside [idle, max].
        for row in Table6::measured().rows() {
            assert!(row.tpu_v4_w > 170.0 && row.tpu_v4_w <= 208.0);
        }
    }
}
