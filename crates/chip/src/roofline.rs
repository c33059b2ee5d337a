//! The roofline model of Figure 16 (§7.1).
//!
//! "Many in the ML community think peak FLOPS/second are a good
//! performance proxy, but they are not." Attainable performance is
//! `min(peak, OI × memory bandwidth)`; chips differ in where the ridge
//! sits, and models differ in operational intensity (OI, FLOPs per HBM
//! byte), so rank orders flip between the compute- and memory-bound
//! regimes.

use crate::specs::ChipSpec;
use serde::{Deserialize, Serialize};

/// A roofline: peak compute ceiling plus memory-bandwidth slope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    name: String,
    peak_tflops: f64,
    mem_gbps: f64,
}

impl Roofline {
    /// Builds a roofline from explicit peak TFLOPS and bandwidth GB/s.
    pub fn new(name: impl Into<String>, peak_tflops: f64, mem_gbps: f64) -> Roofline {
        Roofline {
            name: name.into(),
            peak_tflops,
            mem_gbps,
        }
    }

    /// The roofline of a chip spec (HBM bandwidth slope).
    ///
    /// # Panics
    ///
    /// Panics for chips without external memory (the IPU Bow's roofline
    /// has no HBM slope; model it explicitly with [`Roofline::new`]).
    pub fn of_chip(spec: &ChipSpec) -> Roofline {
        assert!(
            spec.hbm_gbps > 0.0,
            "{} has no HBM; construct its roofline explicitly",
            spec.name
        );
        Roofline::new(spec.name.clone(), spec.peak_tflops, spec.hbm_gbps)
    }

    /// The A100 roofline at a throttled average clock (§7.1 observes the
    /// measured BERT clock was 1280 MHz, not the 1410 MHz boost).
    pub fn a100_at_clock(clock_mhz: f64) -> Roofline {
        let spec = ChipSpec::a100();
        let scale = clock_mhz / spec.boost_clock_mhz;
        Roofline::new(
            format!("NVIDIA A100 @ {clock_mhz} MHz"),
            spec.peak_tflops * scale,
            spec.hbm_gbps,
        )
    }

    /// Name of the chip this roofline describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compute ceiling, TFLOPS.
    pub fn peak_tflops(&self) -> f64 {
        self.peak_tflops
    }

    /// The memory slope, GB/s.
    pub fn mem_gbps(&self) -> f64 {
        self.mem_gbps
    }

    /// Attainable TFLOPS at operational intensity `oi` (FLOPs/byte).
    pub fn attainable_tflops(&self, oi: f64) -> f64 {
        let mem_bound = oi * self.mem_gbps / 1000.0; // GB/s × F/B = GFLOPS
        self.peak_tflops.min(mem_bound)
    }

    /// The ridge point: the OI at which the chip transitions from
    /// memory-bound to compute-bound, FLOPs/byte.
    pub fn ridge_oi(&self) -> f64 {
        self.peak_tflops * 1000.0 / self.mem_gbps
    }
}

/// A DNN model plotted on the roofline (Figure 16 shows each model with
/// its operational intensity in parentheses).
///
/// The exact OI values are read off the figure rather than tabulated in
/// the text; these are representative values consistent with the model
/// descriptions (embedding-heavy DLRMs are far left / memory-bound,
/// Transformers far right / compute-bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPoint {
    /// Model name.
    pub name: String,
    /// Operational intensity, FLOPs per HBM byte.
    pub oi: f64,
}

impl ModelPoint {
    /// The Figure 16 model set.
    pub fn figure16_models() -> Vec<ModelPoint> {
        let mk = |name: &str, oi: f64| ModelPoint {
            name: name.into(),
            oi,
        };
        vec![
            mk("DLRM0", 10.0),
            mk("RNN0", 30.0),
            mk("RNN1", 60.0),
            mk("BERT0", 300.0),
            mk("BERT1", 250.0),
            mk("CNN0", 400.0),
            mk("CNN1", 500.0),
            mk("LLM (dense)", 700.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_points() {
        let v4 = Roofline::of_chip(&ChipSpec::tpu_v4());
        // 275 TFLOPS / 1.2 TB/s ≈ 229 F/B.
        assert!((v4.ridge_oi() - 229.17).abs() < 0.5, "{}", v4.ridge_oi());
        let v3 = Roofline::of_chip(&ChipSpec::tpu_v3());
        assert!((v3.ridge_oi() - 136.7).abs() < 0.5, "{}", v3.ridge_oi());
        let a100 = Roofline::of_chip(&ChipSpec::a100());
        assert!((a100.ridge_oi() - 153.0).abs() < 1.0, "{}", a100.ridge_oi());
    }

    #[test]
    fn attainable_clamps_at_peak() {
        let v4 = Roofline::of_chip(&ChipSpec::tpu_v4());
        assert_eq!(v4.attainable_tflops(10_000.0), 275.0);
        // Memory-bound region is linear in OI.
        let a = v4.attainable_tflops(10.0);
        let b = v4.attainable_tflops(20.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_classification() {
        let v4 = Roofline::of_chip(&ChipSpec::tpu_v4());
        assert!(10.0 < v4.ridge_oi()); // DLRM
        assert!(400.0 > v4.ridge_oi()); // CNN
    }

    #[test]
    fn a100_wins_in_memory_bound_region_loses_elsewhere() {
        // §7.1's point: A100 has more bandwidth (2039 vs 1200 GB/s) so it
        // leads at low OI; at the throttled clock the ceilings match.
        let v4 = Roofline::of_chip(&ChipSpec::tpu_v4());
        let a100 = Roofline::of_chip(&ChipSpec::a100());
        assert!(a100.attainable_tflops(50.0) > v4.attainable_tflops(50.0));
        // Equal-ceiling clock from §7.1: "If the average rate was 1243 MHz,
        // the peak performance of the A100 and TPU v4 would be equal."
        let throttled = Roofline::a100_at_clock(1243.0);
        let ratio = throttled.peak_tflops() / v4.peak_tflops();
        assert!((ratio - 1.0).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn measured_bert_clock_beats_v4_ceiling_slightly() {
        // At the measured 1280 MHz the A100 ceiling is ~283 TFLOPS.
        let r = Roofline::a100_at_clock(1280.0);
        assert!(r.peak_tflops() > 275.0 && r.peak_tflops() < 290.0);
    }

    #[test]
    fn figure16_models_ordered_by_oi() {
        let models = ModelPoint::figure16_models();
        assert!(models.len() >= 6);
        let dlrm = models.iter().find(|m| m.name == "DLRM0").unwrap();
        let cnn = models.iter().find(|m| m.name == "CNN1").unwrap();
        assert!(dlrm.oi < cnn.oi);
        let v4 = Roofline::of_chip(&ChipSpec::tpu_v4());
        assert!(dlrm.oi < v4.ridge_oi());
        assert!(cnn.oi > v4.ridge_oi());
    }

    #[test]
    #[should_panic(expected = "no HBM")]
    fn ipu_roofline_needs_explicit_construction() {
        let _ = Roofline::of_chip(&ChipSpec::ipu_bow());
    }

    #[test]
    fn explicit_roofline_for_ipu() {
        // The IPU streams from 900 MiB of on-chip SRAM at very high
        // bandwidth but has no capacity beyond it.
        let r = Roofline::new("IPU Bow (SRAM)", 250.0, 65_000.0);
        assert!(r.ridge_oi() < 4.0);
    }
}
