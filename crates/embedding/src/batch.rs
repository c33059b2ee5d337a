//! Synthetic training-batch generation and deduplication statistics.

use crate::dlrm::DlrmConfig;
use crate::feature::{sample_zipf, Popularity, Valency};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The lookups of one feature over a batch, in CSR-like layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureBatch {
    /// Row ids, concatenated over examples.
    pub ids: Vec<u64>,
    /// `offsets[i]..offsets[i+1]` indexes the ids of example `i`.
    pub offsets: Vec<u32>,
}

impl FeatureBatch {
    /// Lookups in the batch for this feature.
    pub fn lookup_count(&self) -> usize {
        self.ids.len()
    }

    /// Unique row ids in the batch for this feature.
    pub fn unique_count(&self) -> usize {
        let set: HashSet<u64> = self.ids.iter().copied().collect();
        set.len()
    }
}

/// One synthetic batch across all features of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    batch_size: u32,
    per_feature: Vec<FeatureBatch>,
}

impl Batch {
    /// Examples in the batch.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Per-feature lookups.
    pub fn per_feature(&self) -> &[FeatureBatch] {
        &self.per_feature
    }

    /// Aggregated deduplication statistics.
    pub fn stats(&self) -> BatchStats {
        let mut total = 0u64;
        let mut unique = 0u64;
        for f in &self.per_feature {
            total += f.lookup_count() as u64;
            unique += f.unique_count() as u64;
        }
        BatchStats { total, unique }
    }
}

/// Deduplication statistics of a batch (§3.4: "deduplication of frequent
/// feature values is commonly used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStats {
    total: u64,
    unique: u64,
}

impl BatchStats {
    /// Total lookups.
    pub fn total_lookups(&self) -> u64 {
        self.total
    }

    /// Unique lookups after per-feature dedup.
    pub fn unique_lookups(&self) -> u64 {
        self.unique
    }

    /// Total / unique (≥ 1; higher = more dedup win).
    pub fn dedup_factor(&self) -> f64 {
        if self.unique == 0 {
            1.0
        } else {
            self.total as f64 / self.unique as f64
        }
    }
}

/// Deterministic batch generator for a DLRM.
#[derive(Debug)]
pub struct BatchGenerator<'m> {
    model: &'m DlrmConfig,
    rng: StdRng,
}

impl<'m> BatchGenerator<'m> {
    /// Creates a generator with a fixed seed.
    pub fn new(model: &'m DlrmConfig, seed: u64) -> BatchGenerator<'m> {
        BatchGenerator {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates a batch of `batch_size` examples.
    pub fn generate(&mut self, batch_size: u32) -> Batch {
        let per_feature = self
            .model
            .features()
            .iter()
            .map(|f| {
                let mut ids = Vec::new();
                let mut offsets = Vec::with_capacity(batch_size as usize + 1);
                offsets.push(0);
                for _ in 0..batch_size {
                    let valency = match f.valency {
                        Valency::Univalent => 1,
                        Valency::Multivalent { min, max } => self.rng.random_range(min..=max),
                    };
                    for _ in 0..valency {
                        let id = match f.popularity {
                            Popularity::Uniform => self.rng.random_range(0..f.vocab),
                            Popularity::Zipf { exponent } => {
                                let u1: f64 = self.rng.random();
                                let u2: f64 = self.rng.random();
                                sample_zipf(u1, u2, f.vocab, exponent)
                            }
                        };
                        ids.push(id);
                    }
                    offsets.push(ids.len() as u32);
                }
                FeatureBatch { ids, offsets }
            })
            .collect();
        Batch {
            batch_size,
            per_feature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shapes_are_consistent() {
        let m = DlrmConfig::mlperf_dlrm();
        let mut g = BatchGenerator::new(&m, 7);
        let b = g.generate(64);
        assert_eq!(b.batch_size(), 64);
        assert_eq!(b.per_feature().len(), 26);
        for fb in b.per_feature() {
            assert_eq!(fb.offsets.len(), 65);
            assert_eq!(*fb.offsets.last().unwrap() as usize, fb.ids.len());
            // Univalent: exactly one id per example.
            assert_eq!(fb.ids.len(), 64);
        }
    }

    #[test]
    fn ids_within_vocab() {
        let m = DlrmConfig::mlperf_dlrm();
        let mut g = BatchGenerator::new(&m, 3);
        let b = g.generate(128);
        for (fb, fs) in b.per_feature().iter().zip(m.features()) {
            assert!(fb.ids.iter().all(|&id| id < fs.vocab));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = DlrmConfig::mlperf_dlrm();
        let a = BatchGenerator::new(&m, 11).generate(32);
        let b = BatchGenerator::new(&m, 11).generate(32);
        assert_eq!(a, b);
        let c = BatchGenerator::new(&m, 12).generate(32);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_batches_deduplicate_well() {
        let m = DlrmConfig::mlperf_dlrm();
        let mut g = BatchGenerator::new(&m, 5);
        let b = g.generate(512);
        let stats = b.stats();
        assert!(stats.total_lookups() > 0);
        assert!(
            stats.dedup_factor() > 1.3,
            "zipf skew should deduplicate: {}",
            stats.dedup_factor()
        );
    }

    #[test]
    fn multivalent_valency_respected() {
        let m = DlrmConfig::dlrm0();
        let mut g = BatchGenerator::new(&m, 1);
        let b = g.generate(8);
        for (fb, fs) in b.per_feature().iter().zip(m.features()) {
            let max = fs.valency.max() as usize * 8;
            assert!(fb.ids.len() <= max, "{} lookups > cap {max}", fb.ids.len());
            assert!(!fb.ids.is_empty());
        }
    }

    #[test]
    fn stats_of_empty_batch() {
        let m = DlrmConfig::mlperf_dlrm();
        let mut g = BatchGenerator::new(&m, 2);
        let b = g.generate(0);
        let stats = b.stats();
        assert_eq!(stats.total_lookups(), 0);
        assert_eq!(stats.dedup_factor(), 1.0);
    }
}
