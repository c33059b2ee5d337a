//! Embedding optimizer state and memory footprints.
//!
//! Training embeddings needs optimizer slots alongside the weights
//! (production ads models train with Adagrad). Slot state multiplies the
//! HBM footprint, which is what forces the sharding decisions of §3.3 —
//! a "20B parameter" model is really 160+ GB once slots are counted.

use crate::dlrm::DlrmConfig;
use crate::sharding::ShardingPlan;

/// The optimizer applied to embedding tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingOptimizer {
    /// Plain SGD: no slot state.
    Sgd,
    /// Adagrad: one accumulator per parameter (the production default).
    Adagrad,
    /// Adam: first and second moments per parameter.
    Adam,
}

impl EmbeddingOptimizer {
    /// Slot variables per parameter.
    pub fn slots(self) -> u32 {
        match self {
            EmbeddingOptimizer::Sgd => 0,
            EmbeddingOptimizer::Adagrad => 1,
            EmbeddingOptimizer::Adam => 2,
        }
    }

    /// Total bytes per parameter: the fp32 weight plus fp32 slots.
    pub fn bytes_per_param(self) -> u64 {
        4 * (1 + u64::from(self.slots()))
    }

    /// Whether a sharding plan over `chips` leaves room for weights plus
    /// slots in `hbm_bytes_per_chip`, scaling the plan's weight-only
    /// footprint by the slot multiplier.
    pub fn fits(self, model: &DlrmConfig, plan: &ShardingPlan, hbm_bytes_per_chip: u64) -> bool {
        let multiplier = self.bytes_per_param() as f64 / 4.0;
        plan.per_chip_bytes(model)
            .iter()
            .all(|&b| (b as f64 * multiplier) <= hbm_bytes_per_chip as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts() {
        assert_eq!(EmbeddingOptimizer::Sgd.slots(), 0);
        assert_eq!(EmbeddingOptimizer::Adagrad.slots(), 1);
        assert_eq!(EmbeddingOptimizer::Adam.slots(), 2);
        assert_eq!(EmbeddingOptimizer::Adagrad.bytes_per_param(), 8);
    }

    #[test]
    fn dlrm0_training_footprint() {
        // 20B params: 80 GB serving, 160 GB with Adagrad, 240 GB with Adam.
        let m = DlrmConfig::dlrm0();
        let footprint = |opt: EmbeddingOptimizer| m.embedding_param_count() * opt.bytes_per_param();
        let adagrad = footprint(EmbeddingOptimizer::Adagrad);
        assert!((adagrad as f64 - 160e9).abs() / 160e9 < 0.02, "{adagrad}");
        let adam = footprint(EmbeddingOptimizer::Adam);
        assert!(adam > adagrad);
    }

    #[test]
    fn adagrad_dlrm0_fits_128_chips_not_8() {
        let m = DlrmConfig::dlrm0();
        let opt = EmbeddingOptimizer::Adagrad;
        let hbm = 32u64 << 30;
        let plan_128 = ShardingPlan::auto(&m, 128, 32 << 20);
        assert!(opt.fits(&m, &plan_128, hbm));
        let plan_4 = ShardingPlan::auto(&m, 4, 32 << 20);
        assert!(!opt.fits(&m, &plan_4, hbm), "160 GB cannot fit 4x32 GiB");
    }

    #[test]
    fn sgd_matches_weight_only_footprint() {
        let m = DlrmConfig::mlperf_dlrm();
        assert_eq!(
            m.embedding_param_count() * EmbeddingOptimizer::Sgd.bytes_per_param(),
            m.embedding_bytes()
        );
    }
}
