//! Figure 11: weak-scaling of the production workloads.

use crate::suite::Workload;

/// A workload's throughput curve over slice sizes (relative to 16 chips).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCurve {
    name: String,
    points: Vec<(u64, f64)>,
}

impl ScalingCurve {
    /// Builds the Figure 11 curve for a workload: throughput ∝
    /// chips^beta up to the workload's infrastructural cap, measured at
    /// the paper's slice sizes.
    pub fn for_workload(workload: &Workload) -> ScalingCurve {
        let sizes = [16u64, 32, 64, 128, 256, 512, 1024, 2048, 3072];
        let points = sizes
            .iter()
            .filter(|&&s| s <= workload.max_chips)
            .map(|&s| {
                let rel = (s as f64 / 16.0).powf(workload.scaling_beta);
                (s, rel)
            })
            .collect();
        ScalingCurve {
            name: workload.name.clone(),
            points,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(chips, throughput relative to 16 chips)` points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Scaling efficiency at the largest measured size: achieved
    /// throughput over perfect-linear throughput.
    pub fn efficiency_at_max(&self) -> f64 {
        let (chips, rel) = *self.points.last().expect("curve is nonempty"); // tpu-lint: allow(panic-policy) -- unreachable: curve is nonempty
        rel / (chips as f64 / 16.0)
    }

    /// Largest measured slice.
    pub fn max_chips(&self) -> u64 {
        self.points.last().expect("curve is nonempty").0 // tpu-lint: allow(panic-policy) -- unreachable: curve is nonempty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::ProductionSuite;

    #[test]
    fn good_scalers_reach_3k_efficiently() {
        // "Half of the workloads (CNN0, RNN0, RNN1, and BERT1) scale well
        // to 3K chips."
        let suite = ProductionSuite::paper();
        for name in ["CNN0", "RNN0", "RNN1", "BERT1"] {
            let curve = ScalingCurve::for_workload(suite.get(name).unwrap());
            assert_eq!(curve.max_chips(), 3072, "{name}");
            assert!(
                curve.efficiency_at_max() > 0.55,
                "{name}: efficiency {}",
                curve.efficiency_at_max()
            );
        }
    }

    #[test]
    fn capped_workloads_stop_early() {
        let suite = ProductionSuite::paper();
        let bert0 = ScalingCurve::for_workload(suite.get("BERT0").unwrap());
        assert_eq!(bert0.max_chips(), 2048);
        let dlrm0 = ScalingCurve::for_workload(suite.get("DLRM0").unwrap());
        assert_eq!(dlrm0.max_chips(), 1024);
    }

    #[test]
    fn throughput_is_monotone() {
        let suite = ProductionSuite::paper();
        for w in suite.workloads() {
            let curve = ScalingCurve::for_workload(w);
            for pair in curve.points().windows(2) {
                assert!(pair[1].1 > pair[0].1, "{}", w.name);
            }
        }
    }

    #[test]
    fn dlrm_scales_sublinearly() {
        // Embedding-heavy workloads lose efficiency as bisection-per-chip
        // falls.
        let suite = ProductionSuite::paper();
        let dlrm = ScalingCurve::for_workload(suite.get("DLRM0").unwrap());
        let cnn = ScalingCurve::for_workload(suite.get("CNN0").unwrap());
        assert!(dlrm.efficiency_at_max() < cnn.efficiency_at_max());
    }

    #[test]
    fn first_point_is_unity() {
        let suite = ProductionSuite::paper();
        for w in suite.workloads() {
            let curve = ScalingCurve::for_workload(w);
            assert_eq!(curve.points()[0], (16, 1.0), "{}", w.name);
        }
    }
}
