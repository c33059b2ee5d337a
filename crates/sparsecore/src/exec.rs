//! Embedding step timing: the §3.4–§3.6 performance model.
//!
//! An embedding training step is bottlenecked by memory bandwidth, memory
//! capacity, VPU throughput and — via the all-to-all exchange of looked-up
//! vectors — the slice's bisection bandwidth. The model decomposes one
//! step into those components; the dataflow architecture overlaps the
//! dense (TensorCore) path with the sparse path, so the step time is the
//! max of the two (exactly the structure of Figure 10).

use tpu_embedding::{Batch, DlrmConfig};

/// Workload statistics the timing model consumes, either analytic (from a
/// model descriptor) or measured (from a generated batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Mean embedding lookups per example (summed over features).
    pub lookups_per_example: f64,
    /// Total-to-unique lookup ratio within a batch (≥ 1).
    pub dedup_factor: f64,
    /// Mean bytes per embedding row, weighted by lookup frequency.
    pub row_bytes: f64,
    /// Categorical features (CISC instruction streams per step).
    pub features: u32,
    /// Dense-path FLOPs per example (forward + backward ≈ 6 ×
    /// dense parameters for an MLP).
    pub dense_flops_per_example: f64,
}

impl WorkloadProfile {
    /// Analytic profile of a DLRM descriptor. The dedup factor defaults
    /// to 2.5 for production Zipf-skewed features, consistent with the
    /// measured statistics of [`WorkloadProfile::from_batch`].
    pub fn of_model(model: &DlrmConfig) -> WorkloadProfile {
        let lookups = model.mean_lookups_per_example();
        let mut weighted_bytes = 0.0;
        let mut weight = 0.0;
        for f in model.features() {
            let w = f.mean_valency();
            weighted_bytes += w * model.tables()[f.table].row_bytes() as f64;
            weight += w;
        }
        WorkloadProfile {
            lookups_per_example: lookups,
            dedup_factor: 2.5,
            row_bytes: if weight > 0.0 {
                weighted_bytes / weight
            } else {
                0.0
            },
            features: model.features().len() as u32,
            dense_flops_per_example: 6.0 * model.dense_params() as f64,
        }
    }

    /// Profile with dedup measured from a concrete synthetic batch.
    pub fn from_batch(model: &DlrmConfig, batch: &Batch) -> WorkloadProfile {
        let mut p = WorkloadProfile::of_model(model);
        let stats = batch.stats();
        p.dedup_factor = stats.dedup_factor().max(1.0);
        if batch.batch_size() > 0 {
            p.lookups_per_example = stats.total_lookups() as f64 / f64::from(batch.batch_size());
        }
        p
    }

    /// Unique lookups per example after dedup.
    pub fn unique_lookups_per_example(&self) -> f64 {
        self.lookups_per_example / self.dedup_factor
    }
}

/// The timed components of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// HBM (or host-DRAM) gather + scatter time, seconds.
    pub gather_s: f64,
    /// Inter-chip all-to-all exchange time, seconds.
    pub exchange_s: f64,
    /// SparseCore/VPU compute time (sort, dedup, combine), seconds.
    pub compute_s: f64,
    /// Fixed CISC issue overhead, seconds.
    pub issue_s: f64,
    /// Dense (TensorCore) path time, seconds.
    pub dense_s: f64,
}

impl StepBreakdown {
    /// Total sparse-path time (components within the sparse pipeline are
    /// dependent: ids must be sorted before gathering, gathered before
    /// exchanging, so they serialize within one batch).
    pub fn sparse_s(&self) -> f64 {
        self.gather_s + self.exchange_s + self.compute_s + self.issue_s
    }

    /// End-to-end step time: the dense and sparse paths overlap (separate
    /// cores), so the step takes the slower of the two — the Figure 10
    /// load-balance structure.
    pub fn total_s(&self) -> f64 {
        self.sparse_s().max(self.dense_s)
    }

    /// Fraction of the step the SparseCore path sits idle (the Figure 10
    /// "SC idle" metric; 0 when the sparse path is the bottleneck).
    pub fn sc_idle_fraction(&self) -> f64 {
        let total = self.total_s();
        if total == 0.0 {
            return 0.0;
        }
        (total - self.sparse_s()).max(0.0) / total
    }

    /// Scales every component by a factor (used for what-if analyses).
    pub fn scaled(&self, factor: f64) -> StepBreakdown {
        StepBreakdown {
            gather_s: self.gather_s * factor,
            exchange_s: self.exchange_s * factor,
            compute_s: self.compute_s * factor,
            issue_s: self.issue_s * factor,
            dense_s: self.dense_s * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_embedding::BatchGenerator;

    #[test]
    fn profile_of_dlrm0() {
        let p = WorkloadProfile::of_model(&DlrmConfig::dlrm0());
        assert!(p.lookups_per_example > 1000.0);
        assert_eq!(p.features, 300);
        assert!(p.row_bytes > 100.0 && p.row_bytes < 600.0);
        assert!((p.dense_flops_per_example - 6e8).abs() < 1.0);
        assert!(p.unique_lookups_per_example() < p.lookups_per_example);
    }

    #[test]
    fn profile_from_batch_measures_dedup() {
        let model = DlrmConfig::dlrm0();
        let batch = BatchGenerator::new(&model, 3).generate(256);
        let p = WorkloadProfile::from_batch(&model, &batch);
        assert!(p.dedup_factor >= 1.0);
        let measured = batch.stats().total_lookups() as f64 / 256.0;
        assert!((p.lookups_per_example - measured).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_is_max_of_paths() {
        let b = StepBreakdown {
            gather_s: 1.0,
            exchange_s: 2.0,
            compute_s: 0.5,
            issue_s: 0.5,
            dense_s: 3.0,
        };
        assert_eq!(b.sparse_s(), 4.0);
        assert_eq!(b.total_s(), 4.0);
        let dense_bound = StepBreakdown { dense_s: 10.0, ..b };
        assert_eq!(dense_bound.total_s(), 10.0);
    }

    #[test]
    fn sc_idle_fraction_matches_figure10_definition() {
        // Sparse path 3 s, dense path 4 s: SC idles 25% of the step —
        // exactly the original DLRM0 situation in Figure 10.
        let b = StepBreakdown {
            gather_s: 1.0,
            exchange_s: 1.0,
            compute_s: 0.5,
            issue_s: 0.5,
            dense_s: 4.0,
        };
        assert!((b.sc_idle_fraction() - 0.25).abs() < 1e-12);
        // Balanced: no idle.
        let balanced = StepBreakdown { dense_s: 3.0, ..b };
        assert_eq!(balanced.sc_idle_fraction(), 0.0);
    }

    #[test]
    fn scaled_breakdown() {
        let b = StepBreakdown {
            gather_s: 1.0,
            exchange_s: 1.0,
            compute_s: 1.0,
            issue_s: 1.0,
            dense_s: 1.0,
        };
        let s = b.scaled(0.5);
        assert_eq!(s.sparse_s(), 2.0);
        assert_eq!(s.dense_s, 0.5);
    }
}
