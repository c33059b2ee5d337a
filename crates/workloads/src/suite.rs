//! The eight production workloads of §5 and their per-chip performance
//! model (Figures 12 and 13).
//!
//! Non-DLRM workloads are modelled on the roofline with a CMEM-aware
//! effective bandwidth: attainable = min(peak × MXU-efficiency,
//! OI × effective-bandwidth(working set)). DLRMs delegate to the
//! SparseCore system model. The TPU v4 MXU derate reflects that v4 has
//! twice the MXUs of v3 per TensorCore and is harder to keep saturated
//! (§5: "most applications run 1.5x-2.0x faster", not the 2.24x peak
//! ratio).

use serde::{Deserialize, Serialize};
use tpu_chip::{ChipSpec, MemorySystem, PowerModel, MIB};
use tpu_embedding::DlrmConfig;
use tpu_sparsecore::{EmbeddingSystem, Placement};
use tpu_spec::consts::GIGA;
use tpu_spec::MachineSpec;

/// Broad workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Convolutional network.
    Cnn,
    /// Recurrent network.
    Rnn,
    /// BERT-style Transformer.
    Bert,
    /// Recommendation model.
    Dlrm,
}

/// One production workload's modelling parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Name (e.g. "RNN1").
    pub name: String,
    /// Class.
    pub kind: WorkloadKind,
    /// Operational intensity on HBM traffic, FLOPs/byte.
    pub oi: f64,
    /// Hot working set (weights + activations reuse window), bytes.
    pub working_set: f64,
    /// Fraction of v4's doubled MXUs the workload keeps busy.
    pub v4_mxu_derate: f64,
    /// Scaling cap from infrastructural limitations (Figure 11 caption),
    /// chips.
    pub max_chips: u64,
    /// Weak-scaling exponent (throughput ∝ chips^beta until the cap).
    pub scaling_beta: f64,
}

impl Workload {
    /// Per-chip throughput on a TPU chip spec, TFLOP/s attained.
    ///
    /// DLRM workloads should use [`ProductionSuite::dlrm_speedup_between`]; this
    /// roofline path covers the dense workloads.
    pub fn attained_tflops(&self, spec: &ChipSpec) -> f64 {
        let mem = MemorySystem::of_chip(spec);
        let eff_bw_gbps = mem.effective_bandwidth(self.working_set) / GIGA;
        let derate = if spec.name.starts_with("TPU v4") {
            self.v4_mxu_derate
        } else {
            1.0
        };
        (spec.peak_tflops * derate).min(self.oi * eff_bw_gbps / 1000.0)
    }
}

/// The §5 production suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionSuite {
    workloads: Vec<Workload>,
}

impl ProductionSuite {
    /// The eight workloads used throughout §5, with parameters chosen so
    /// the model reproduces Figure 12's published speedups through the
    /// mechanisms the paper cites (OI, CMEM capture, SC provisioning).
    pub fn paper() -> ProductionSuite {
        let w = |name: &str, kind, oi, ws_mib: f64, derate, max_chips, beta| Workload {
            name: name.into(),
            kind,
            oi,
            working_set: ws_mib * MIB,
            v4_mxu_derate: derate,
            max_chips,
            scaling_beta: beta,
        };
        ProductionSuite {
            workloads: vec![
                // CNNs: compute-bound, large working sets.
                w("CNN0", WorkloadKind::Cnn, 400.0, 800.0, 0.80, 3072, 0.97),
                w("CNN1", WorkloadKind::Cnn, 500.0, 1200.0, 0.72, 3072, 0.93),
                // RNN0: moderately memory-bound.
                w("RNN0", WorkloadKind::Rnn, 120.0, 400.0, 0.80, 3072, 0.96),
                // RNN1: small weights + small batch; CMEM captures its
                // working set (the Figure 12 "surprise" 3.3x).
                w("RNN1", WorkloadKind::Rnn, 45.0, 192.0, 0.80, 3072, 0.96),
                // BERTs: compute-bound transformers.
                w("BERT0", WorkloadKind::Bert, 300.0, 900.0, 0.80, 2048, 0.95),
                w("BERT1", WorkloadKind::Bert, 250.0, 700.0, 0.82, 3072, 0.94),
                // DLRMs: modelled by the SparseCore system (placeholder
                // roofline values unused for speedups).
                w("DLRM0", WorkloadKind::Dlrm, 10.0, 4000.0, 0.80, 1024, 0.80),
                w("DLRM1", WorkloadKind::Dlrm, 12.0, 3000.0, 0.80, 1024, 0.78),
            ],
        }
    }

    /// The workloads.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// A workload by name.
    pub fn get(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Figure 12: TPU v4 over TPU v3 speedup at equal slice size.
    pub fn v4_over_v3_speedup(&self, workload: &Workload) -> f64 {
        self.speedup_between(workload, &MachineSpec::v4(), &MachineSpec::v3())
    }

    /// Machine-vs-machine speedup at equal slice size — the Figure 12
    /// comparison as a first-class sweep over any two specs.
    pub fn speedup_between(
        &self,
        workload: &Workload,
        newer: &MachineSpec,
        older: &MachineSpec,
    ) -> f64 {
        match workload.kind {
            WorkloadKind::Dlrm => self.dlrm_speedup_between(workload, newer, older),
            _ => workload.attained_tflops(&newer.chip) / workload.attained_tflops(&older.chip),
        }
    }

    /// DLRM speedup between two machines' SparseCore systems.
    ///
    /// # Panics
    ///
    /// Panics if either spec's chip has no SparseCores
    /// ([`EmbeddingSystem::for_spec`]).
    pub fn dlrm_speedup_between(
        &self,
        workload: &Workload,
        newer: &MachineSpec,
        older: &MachineSpec,
    ) -> f64 {
        let model = if workload.name == "DLRM1" {
            DlrmConfig::dlrm0().scaled(0.7, 0.8)
        } else {
            DlrmConfig::dlrm0()
        };
        let batch = 32 * 512;
        let newer_t = EmbeddingSystem::for_spec(newer, 512)
            .step_time(&model, batch, Placement::SparseCore)
            .total_s();
        let older_t = EmbeddingSystem::for_spec(older, 512)
            .step_time(&model, batch, Placement::SparseCore)
            .total_s();
        older_t / newer_t
    }

    /// Geometric-mean v4/v3 speedup over the suite (paper: 2.1x).
    pub fn geomean_v4_over_v3_speedup(&self) -> f64 {
        let product: f64 = self
            .workloads
            .iter()
            .map(|w| self.v4_over_v3_speedup(w).ln())
            .sum();
        (product / self.workloads.len() as f64).exp()
    }

    /// Figure 13: per-workload gain from enabling CMEM on TPU v4.
    pub fn cmem_gain(&self, workload: &Workload) -> f64 {
        if workload.kind == WorkloadKind::Dlrm {
            // DLRM0/1 are dominated by the sparse path; CMEM helps the
            // dense layers only a little.
            return 1.05;
        }
        let v4 = MachineSpec::v4().chip;
        let on = workload.attained_tflops(&v4);
        let off = workload.attained_tflops(&v4.without_cmem());
        on / off
    }

    /// Geometric-mean CMEM gain (Figure 13: "it contributes to 1.2x
    /// performance gain overall but 2x for RNN1").
    pub fn geomean_cmem_gain(&self) -> f64 {
        let product: f64 = self.workloads.iter().map(|w| self.cmem_gain(w).ln()).sum();
        (product / self.workloads.len() as f64).exp()
    }

    /// Figure 13 bottom: geometric-mean package performance/Watt of v4
    /// over v3 at production utilization (each chip at its Table 4
    /// measured mean power).
    pub fn geomean_perf_per_watt_gain(&self) -> f64 {
        let v4_chip = MachineSpec::v4().chip;
        let v3_chip = MachineSpec::v3().chip;
        let v4 = PowerModel::of_chip(&v4_chip);
        let v3 = PowerModel::of_chip(&v3_chip);
        let v4_power = v4.at_utilization(v4.utilization_for_power(v4_chip.mean_power_w()));
        let v3_power = v3.at_utilization(v3.utilization_for_power(v3_chip.mean_power_w()));
        self.geomean_v4_over_v3_speedup() * v3_power / v4_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> ProductionSuite {
        ProductionSuite::paper()
    }

    #[test]
    fn eight_workloads_present() {
        let s = suite();
        assert_eq!(s.workloads().len(), 8);
        for name in [
            "CNN0", "CNN1", "RNN0", "RNN1", "BERT0", "BERT1", "DLRM0", "DLRM1",
        ] {
            assert!(s.get(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn figure12_dense_speedups_in_band() {
        // "At the same slice size most applications run 1.5x-2.0x faster
        // on TPU v4 than on TPU v3."
        let s = suite();
        for name in ["CNN0", "CNN1", "RNN0", "BERT0", "BERT1"] {
            let w = s.get(name).unwrap();
            let speedup = s.v4_over_v3_speedup(w);
            assert!(
                (1.4..2.1).contains(&speedup),
                "{name}: speedup {speedup} outside 1.5-2.0 band"
            );
        }
    }

    #[test]
    fn figure12_rnn1_surprise() {
        // "The surprise is RNN1; it runs 3.3x faster" thanks to CMEM.
        let s = suite();
        let w = s.get("RNN1").unwrap();
        let speedup = s.v4_over_v3_speedup(w);
        assert!(
            (2.3..3.7).contains(&speedup),
            "RNN1 speedup {speedup} (paper: 3.3x)"
        );
        // And the mechanism is CMEM: 2x of it comes from the scratchpad.
        let gain = s.cmem_gain(w);
        assert!(
            (1.7..2.3).contains(&gain),
            "RNN1 CMEM gain {gain} (paper: 2x)"
        );
    }

    #[test]
    fn figure12_dlrm_speedups() {
        // "DLRM0 is 3.0-3.5x faster and DLRM1 is 2.8x at 512 chips."
        let s = suite();
        let d0 = s.v4_over_v3_speedup(s.get("DLRM0").unwrap());
        assert!((2.4..3.8).contains(&d0), "DLRM0 {d0}");
        let d1 = s.v4_over_v3_speedup(s.get("DLRM1").unwrap());
        assert!((2.2..3.5).contains(&d1), "DLRM1 {d1}");
    }

    #[test]
    fn overall_speedup_2_1x() {
        // "TPU v4 has 2.1x the performance ... of TPU v3."
        let g = suite().geomean_v4_over_v3_speedup();
        assert!((1.8..2.5).contains(&g), "geomean {g} (paper: 2.1x)");
    }

    #[test]
    fn figure13_cmem_overall_1_2x() {
        // "It contributes to 1.2x performance gain overall."
        let g = suite().geomean_cmem_gain();
        assert!((1.10..1.35).contains(&g), "CMEM geomean {g} (paper: 1.2x)");
    }

    #[test]
    fn figure13_perf_per_watt_2_7x() {
        // "TPU v4 has ... 2.7x the performance/Watt of TPU v3."
        let g = suite().geomean_perf_per_watt_gain();
        assert!((2.3..3.1).contains(&g), "perf/W geomean {g} (paper: 2.7x)");
    }

    #[test]
    fn scaling_caps_match_figure11_caption() {
        // "BERT0 scales to 2K, DLRM0/1 to 1K."
        let s = suite();
        assert_eq!(s.get("BERT0").unwrap().max_chips, 2048);
        assert_eq!(s.get("DLRM0").unwrap().max_chips, 1024);
        assert_eq!(s.get("DLRM1").unwrap().max_chips, 1024);
        assert_eq!(s.get("CNN0").unwrap().max_chips, 3072);
    }
}
