//! Distribution strategies for embedding tables (§3.3): column sharding,
//! row sharding, table sharding, and replication for small tables.

use crate::dlrm::DlrmConfig;

/// How one table is distributed across the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sharding {
    /// Full copy on every chip (data parallelism; "for small embedding
    /// tables, replication across all chips is better for performance").
    Replicated,
    /// The whole table lives on one chip.
    Table {
        /// Home chip.
        home: u32,
    },
    /// Rows are striped across all chips (split along vocabulary).
    Row,
    /// Columns are striped across all chips (split along width).
    Column,
}

/// A sharding decision for every table of a DLRM on a slice of chips.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingPlan {
    chips: u32,
    assignments: Vec<Sharding>,
}

impl ShardingPlan {
    /// Builds a plan from explicit assignments.
    ///
    /// # Panics
    ///
    /// Panics if `chips == 0` or a `Table` home is out of range.
    pub fn new(chips: u32, assignments: Vec<Sharding>) -> ShardingPlan {
        assert!(chips > 0, "plan needs at least one chip");
        for a in &assignments {
            if let Sharding::Table { home } = a {
                assert!(*home < chips, "table home {home} out of range");
            }
        }
        ShardingPlan { chips, assignments }
    }

    /// The paper's heuristic: replicate tables small enough that a copy
    /// everywhere is cheap; row-shard everything else.
    pub fn auto(model: &DlrmConfig, chips: u32, replicate_below_bytes: u64) -> ShardingPlan {
        let assignments = model
            .tables()
            .iter()
            .map(|t| {
                if t.size_bytes() <= replicate_below_bytes {
                    Sharding::Replicated
                } else {
                    Sharding::Row
                }
            })
            .collect();
        ShardingPlan::new(chips, assignments)
    }

    /// Number of chips in the plan.
    pub fn chips(&self) -> u32 {
        self.chips
    }

    /// Memory footprint per chip, bytes.
    pub fn per_chip_bytes(&self, model: &DlrmConfig) -> Vec<u64> {
        let mut per_chip = vec![0u64; self.chips as usize];
        for (i, t) in model.tables().iter().enumerate() {
            match self.assignments[i] {
                Sharding::Replicated => {
                    for b in per_chip.iter_mut() {
                        *b += t.size_bytes();
                    }
                }
                Sharding::Table { home } => per_chip[home as usize] += t.size_bytes(),
                Sharding::Row | Sharding::Column => {
                    let share = t.size_bytes() / u64::from(self.chips);
                    let rem = t.size_bytes() % u64::from(self.chips);
                    for (c, b) in per_chip.iter_mut().enumerate() {
                        *b += share + u64::from((c as u64) < rem);
                    }
                }
            }
        }
        per_chip
    }

    /// Whether the plan fits in `hbm_bytes_per_chip` on every chip.
    pub fn fits(&self, model: &DlrmConfig, hbm_bytes_per_chip: u64) -> bool {
        self.per_chip_bytes(model)
            .iter()
            .all(|&b| b <= hbm_bytes_per_chip)
    }

    /// Max/mean per-chip footprint ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self, model: &DlrmConfig) -> f64 {
        let per_chip = self.per_chip_bytes(model);
        let max = per_chip.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = per_chip.iter().sum::<u64>() as f64 / per_chip.len() as f64;
        max as f64 / mean
    }

    /// Expected fraction of lookups that leave the requesting chip,
    /// averaged over features weighted by mean valency. Drives the
    /// all-to-all volume of §3.4.
    pub fn remote_lookup_fraction(&self, model: &DlrmConfig) -> f64 {
        let mut total = 0.0;
        let mut remote = 0.0;
        for f in model.features() {
            let weight = f.mean_valency();
            total += weight;
            match self.assignments[f.table] {
                Sharding::Replicated | Sharding::Column => {}
                Sharding::Table { .. } => {
                    remote += weight * (1.0 - 1.0 / f64::from(self.chips));
                }
                Sharding::Row => {
                    remote += weight * (1.0 - 1.0 / f64::from(self.chips));
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            remote / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EmbeddingTable;
    use crate::{FeatureSpec, Popularity, Valency};

    fn tiny_model() -> DlrmConfig {
        let tables = vec![
            EmbeddingTable::new("small", 100, 8, 4),        // 3.2 kB
            EmbeddingTable::new("large", 1_000_000, 64, 4), // 256 MB
        ];
        let features = vec![
            FeatureSpec {
                name: "f0".into(),
                vocab: 100,
                valency: Valency::Univalent,
                popularity: Popularity::Uniform,
                table: 0,
            },
            FeatureSpec {
                name: "f1".into(),
                vocab: 1_000_000,
                valency: Valency::Multivalent { min: 1, max: 3 },
                popularity: Popularity::Zipf { exponent: 1.0 },
                table: 1,
            },
        ];
        DlrmConfig::new("tiny", 1000, 4, tables, features)
    }

    #[test]
    fn auto_plan_replicates_small_shards_large() {
        let m = tiny_model();
        let plan = ShardingPlan::auto(&m, 4, 1 << 20);
        assert_eq!(plan.assignments, vec![Sharding::Replicated, Sharding::Row]);
    }

    #[test]
    fn per_chip_bytes_sum_preserved_for_sharded() {
        let m = tiny_model();
        let plan = ShardingPlan::new(4, vec![Sharding::Row, Sharding::Row]);
        let per_chip = plan.per_chip_bytes(&m);
        let total: u64 = per_chip.iter().sum();
        let expect: u64 = m.tables().iter().map(|t| t.size_bytes()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn replication_multiplies_footprint() {
        let m = tiny_model();
        let plan = ShardingPlan::new(4, vec![Sharding::Replicated, Sharding::Replicated]);
        let per_chip = plan.per_chip_bytes(&m);
        let each: u64 = m.tables().iter().map(|t| t.size_bytes()).sum();
        assert!(per_chip.iter().all(|&b| b == each));
    }

    #[test]
    fn table_sharding_is_imbalanced() {
        let m = tiny_model();
        let plan = ShardingPlan::new(
            4,
            vec![Sharding::Table { home: 0 }, Sharding::Table { home: 0 }],
        );
        assert!(plan.imbalance(&m) > 3.9);
        let balanced = ShardingPlan::new(4, vec![Sharding::Row, Sharding::Row]);
        assert!(balanced.imbalance(&m) < 1.01);
    }

    #[test]
    fn fits_respects_budget() {
        let m = tiny_model();
        let plan = ShardingPlan::auto(&m, 4, 1 << 20);
        assert!(plan.fits(&m, 100 << 20));
        assert!(!plan.fits(&m, 1 << 20));
    }

    #[test]
    fn remote_fraction_zero_when_replicated() {
        let m = tiny_model();
        let all_rep = ShardingPlan::new(4, vec![Sharding::Replicated, Sharding::Replicated]);
        assert_eq!(all_rep.remote_lookup_fraction(&m), 0.0);
        let sharded = ShardingPlan::new(4, vec![Sharding::Row, Sharding::Row]);
        // (chips-1)/chips of lookups are remote.
        assert!((sharded.remote_lookup_fraction(&m) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn dlrm0_auto_plan_fits_128_chips() {
        // §3.5: the SC pools supercomputer HBM; DLRM0 (~80 GB embeddings)
        // fits comfortably on 128 chips x 32 GiB.
        let m = DlrmConfig::dlrm0();
        let plan = ShardingPlan::auto(&m, 128, 32 << 20);
        assert!(plan.fits(&m, 32 << 30));
        assert!(plan.imbalance(&m) < 1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn table_home_validated() {
        let _ = ShardingPlan::new(2, vec![Sharding::Table { home: 5 }]);
    }
}
