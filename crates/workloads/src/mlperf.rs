//! MLPerf Training 2.0 comparisons (§6, Figures 14 and 15).
//!
//! The paper compares published MLPerf results; we encode the anchor
//! ratios the text states — TPU v4 is 1.15× (BERT) / 1.67× (ResNet) the
//! A100 at 4096 chips, and ~4.3× / ~4.5× the IPU Bow at 256 chips — and
//! regenerate the log-log scaling curves by power-law interpolation
//! between the anchors, exactly how Figure 15 draws its dashed lines.

/// MLPerf Training 2.0 benchmarks the paper discusses (Figure 14 shows
/// five; Graphcore submitted two of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlperfBenchmark {
    /// BERT pre-training.
    Bert,
    /// ResNet-50 classification.
    ResNet,
    /// DLRM (TPU v4's entry ran in the research category).
    Dlrm,
    /// RetinaNet detection.
    RetinaNet,
    /// Mask R-CNN segmentation.
    MaskRcnn,
}

impl MlperfBenchmark {
    /// All five Figure 14 benchmarks.
    pub const ALL: [MlperfBenchmark; 5] = [
        MlperfBenchmark::Bert,
        MlperfBenchmark::ResNet,
        MlperfBenchmark::Dlrm,
        MlperfBenchmark::RetinaNet,
        MlperfBenchmark::MaskRcnn,
    ];
}

/// A system submitting MLPerf results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlperfSystem {
    /// Google TPU v4.
    TpuV4,
    /// NVIDIA A100.
    A100,
    /// Graphcore MK2 IPU Bow.
    IpuBow,
}

impl MlperfSystem {
    /// The machine spec of this MLPerf submitter.
    pub fn spec(self) -> tpu_spec::MachineSpec {
        match self {
            MlperfSystem::TpuV4 => tpu_spec::MachineSpec::v4(),
            MlperfSystem::A100 => tpu_spec::MachineSpec::a100(),
            MlperfSystem::IpuBow => tpu_spec::MachineSpec::ipu_bow(),
        }
    }

    /// Largest configuration the system reported (Table 5 / Figure 15).
    pub fn max_chips(self) -> u64 {
        self.spec().fleet_chips
    }

    /// Whether the system submitted the benchmark ("Graphcore submitted
    /// results for BERT and ResNet").
    pub fn submitted(self, benchmark: MlperfBenchmark) -> bool {
        match self {
            MlperfSystem::IpuBow => {
                matches!(benchmark, MlperfBenchmark::Bert | MlperfBenchmark::ResNet)
            }
            _ => true,
        }
    }

    /// Log-log scaling exponent (speed ∝ chips^alpha); slightly below 1,
    /// read off Figure 15's near-straight lines.
    pub fn scaling_alpha(self, benchmark: MlperfBenchmark) -> f64 {
        match (self, benchmark) {
            // ResNet scales a little worse at huge sizes (small per-chip
            // batch), BERT nearly linearly.
            (_, MlperfBenchmark::Bert) => 0.93,
            (_, MlperfBenchmark::ResNet) => 0.90,
            // MLPerf DLRM stops scaling beyond 128 chips (§7.9); treat
            // the exponent as much lower.
            (_, MlperfBenchmark::Dlrm) => 0.55,
            _ => 0.90,
        }
    }

    /// Speed relative to an 8-chip A100 system at 8 chips (the Figure 15
    /// y-axis normalization), calibrated from the paper's anchors.
    pub fn base_speed(self, benchmark: MlperfBenchmark) -> f64 {
        // With equal alphas the relative speed is size-independent, so the
        // published large-scale ratios serve directly as base speeds.
        match (self, benchmark) {
            (MlperfSystem::A100, _) => 1.0,
            (MlperfSystem::TpuV4, MlperfBenchmark::Bert) => 1.15,
            (MlperfSystem::TpuV4, MlperfBenchmark::ResNet) => 1.67,
            // TPU v4's DLRM ran in the research category and leads (§7.9
            // argues the benchmark itself understates production DLRMs).
            (MlperfSystem::TpuV4, MlperfBenchmark::Dlrm) => 1.4,
            (MlperfSystem::TpuV4, _) => 1.1,
            (MlperfSystem::IpuBow, MlperfBenchmark::Bert) => 1.15 / 4.3,
            (MlperfSystem::IpuBow, MlperfBenchmark::ResNet) => 1.67 / 4.5,
            (MlperfSystem::IpuBow, _) => 0.0,
        }
    }

    /// Relative speed of a `chips`-sized system on a benchmark, in
    /// multiples of an 8-chip A100 (Figure 15's axes).
    ///
    /// Returns `None` when the system did not submit the benchmark or the
    /// size exceeds its largest configuration.
    pub fn relative_speed(self, benchmark: MlperfBenchmark, chips: u64) -> Option<f64> {
        if !self.submitted(benchmark) || chips > self.max_chips() || chips == 0 {
            return None;
        }
        let alpha = self.scaling_alpha(benchmark);
        Some(self.base_speed(benchmark) * (chips as f64 / 8.0).powf(alpha))
    }
}

/// Figure 14: the fastest submitted result per system per benchmark,
/// relative to the A100's fastest.
pub fn figure14_peak_relative(system: MlperfSystem, benchmark: MlperfBenchmark) -> Option<f64> {
    let own = system.relative_speed(benchmark, system.max_chips())?;
    let a100 = MlperfSystem::A100
        .relative_speed(benchmark, MlperfSystem::A100.max_chips())
        .expect("A100 submitted everything"); // tpu-lint: allow(panic-policy) -- unreachable: A100 submitted everything
    Some(own / a100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_anchor_1_15x_at_4096() {
        // "At the largest scale of 4096 chips, TPU v4 is 1.15x as fast as
        // the Nvidia A100 for BERT."
        let v4 = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::Bert, 4096)
            .unwrap();
        let a100 = MlperfSystem::A100
            .relative_speed(MlperfBenchmark::Bert, 4096)
            .unwrap();
        let r = v4 / a100;
        assert!((1.14..1.16).contains(&r), "{r}");
    }

    #[test]
    fn resnet_anchor_1_67x() {
        let v4 = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::ResNet, 4096)
            .unwrap();
        let a100 = MlperfSystem::A100
            .relative_speed(MlperfBenchmark::ResNet, 4096)
            .unwrap();
        let r = v4 / a100;
        assert!((1.66..1.68).contains(&r), "{r}");
    }

    #[test]
    fn ipu_anchors_at_256() {
        // "At 256 chips ... TPU v4 is ~4.3x as fast as the MK2 IPU Bow"
        // (BERT) and ~4.5x (ResNet).
        let bert = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::Bert, 256)
            .unwrap()
            / MlperfSystem::IpuBow
                .relative_speed(MlperfBenchmark::Bert, 256)
                .unwrap();
        assert!((4.2..4.4).contains(&bert), "{bert}");
        let resnet = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::ResNet, 256)
            .unwrap()
            / MlperfSystem::IpuBow
                .relative_speed(MlperfBenchmark::ResNet, 256)
                .unwrap();
        assert!((4.4..4.6).contains(&resnet), "{resnet}");
    }

    #[test]
    fn ipu_caps_at_256_chips() {
        assert!(MlperfSystem::IpuBow
            .relative_speed(MlperfBenchmark::Bert, 512)
            .is_none());
        assert!(MlperfSystem::IpuBow
            .relative_speed(MlperfBenchmark::Dlrm, 64)
            .is_none());
    }

    #[test]
    fn scaling_is_monotone_and_sublinear() {
        for chips in [8u64, 64, 512, 4096] {
            let s = MlperfSystem::TpuV4
                .relative_speed(MlperfBenchmark::Bert, chips)
                .unwrap();
            let linear = 1.15 * chips as f64 / 8.0;
            assert!(s <= linear + 1e-9);
            if chips > 8 {
                let prev = MlperfSystem::TpuV4
                    .relative_speed(MlperfBenchmark::Bert, chips / 8)
                    .unwrap();
                assert!(s > prev);
            }
        }
    }

    #[test]
    fn peak_flops_do_not_predict_mlperf_rank() {
        // §7.1: the A100's peak is 1.13x TPU v4's, yet TPU v4 wins both
        // figures-15 benchmarks.
        for b in [MlperfBenchmark::Bert, MlperfBenchmark::ResNet] {
            let r = figure14_peak_relative(MlperfSystem::TpuV4, b).unwrap();
            assert!(r > 1.0, "{b:?}: {r}");
        }
    }

    #[test]
    fn figure14_table_shape() {
        // All five benchmarks for TPU v4 and A100; two for the IPU.
        let mut ipu = 0;
        for b in MlperfBenchmark::ALL {
            assert!(figure14_peak_relative(MlperfSystem::TpuV4, b).is_some());
            assert!(figure14_peak_relative(MlperfSystem::A100, b).is_some());
            if figure14_peak_relative(MlperfSystem::IpuBow, b).is_some() {
                ipu += 1;
            }
        }
        assert_eq!(ipu, 2);
    }

    #[test]
    fn dlrm_scales_poorly() {
        // §7.9: overheads "limit its useful scalability to ≤128 chips".
        let at_128 = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::Dlrm, 128)
            .unwrap();
        let at_1024 = MlperfSystem::TpuV4
            .relative_speed(MlperfBenchmark::Dlrm, 1024)
            .unwrap();
        // 8x the chips buys barely 3x the speed.
        assert!(at_1024 / at_128 < 3.5);
    }
}
