//! DLRM model descriptors: production DLRM0 and the MLPerf benchmark model.

use crate::feature::{FeatureSpec, Popularity, Valency};
use crate::table::EmbeddingTable;

/// A deep learning recommendation model: dense layers plus a set of
/// categorical features served by embedding tables.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    name: String,
    dense_params: u64,
    dense_bytes_per_param: u32,
    tables: Vec<EmbeddingTable>,
    features: Vec<FeatureSpec>,
}

impl DlrmConfig {
    /// Builds a custom DLRM.
    ///
    /// # Panics
    ///
    /// Panics if a feature references a table out of range.
    pub fn new(
        name: impl Into<String>,
        dense_params: u64,
        dense_bytes_per_param: u32,
        tables: Vec<EmbeddingTable>,
        features: Vec<FeatureSpec>,
    ) -> DlrmConfig {
        for f in &features {
            assert!(
                f.table < tables.len(),
                "feature {} references missing table",
                f.name
            );
        }
        DlrmConfig {
            name: name.into(),
            dense_params,
            dense_bytes_per_param,
            tables,
            features,
        }
    }

    /// The production model of Figure 8's caption: "~100M dense parameters
    /// in fully connected layers, ~20B embedding parameters (~300 features
    /// mapped to ~150 tables), and 1–100 average valency per feature".
    /// Dense weights are 1 byte (int8, per Figure 17's caption),
    /// embeddings 4 bytes.
    ///
    /// Table sizes are spread log-uniformly (O(10 MiB)…O(100 GiB), §3.3);
    /// two features share each table on average.
    pub fn dlrm0() -> DlrmConfig {
        const TABLES: usize = 150;
        const FEATURES: usize = 300;
        const TARGET_EMBEDDING_PARAMS: u64 = 20_000_000_000;

        // Log-spaced vocabularies; widths cycle over typical dims. Sizes
        // are then rescaled so the total hits the 20 B parameter target.
        let dims = [32u32, 64, 128, 96, 48];
        let mut raw: Vec<(u64, u32)> = (0..TABLES)
            .map(|i| {
                let frac = i as f64 / (TABLES - 1) as f64;
                // vocab from 1e4 to 1e8, log spaced
                let vocab = 10f64.powf(4.0 + 4.0 * frac) as u64;
                (vocab.max(1), dims[i % dims.len()])
            })
            .collect();
        let total: u64 = raw.iter().map(|&(v, d)| v * u64::from(d)).sum();
        let scale = TARGET_EMBEDDING_PARAMS as f64 / total as f64;
        for (v, _) in raw.iter_mut() {
            *v = ((*v as f64) * scale).round().max(1.0) as u64;
        }

        let tables: Vec<EmbeddingTable> = raw
            .iter()
            .enumerate()
            .map(|(i, &(vocab, dim))| EmbeddingTable::new(format!("table{i}"), vocab, dim, 4))
            .collect();

        let features: Vec<FeatureSpec> = (0..FEATURES)
            .map(|i| {
                let table = i % TABLES;
                // Mean valency log-spread over 1..100 (Figure 8 caption
                // says "1-100 average valency per feature"; a log spread
                // matches production skew: most features near-univalent,
                // a few very wide).
                let frac = i as f64 / (FEATURES - 1) as f64;
                let mean_valency = 10f64.powf(2.0 * frac).round() as u32;
                let valency = if mean_valency == 1 {
                    Valency::Univalent
                } else {
                    Valency::Multivalent {
                        min: 1,
                        max: 2 * mean_valency - 1,
                    }
                };
                FeatureSpec {
                    name: format!("feature{i}"),
                    vocab: tables[table].rows(),
                    valency,
                    popularity: Popularity::Zipf { exponent: 1.05 },
                    table,
                }
            })
            .collect();

        DlrmConfig::new("DLRM0", 100_000_000, 1, tables, features)
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dense (MLP) parameter count.
    pub fn dense_params(&self) -> u64 {
        self.dense_params
    }

    /// Bytes per dense parameter.
    pub fn dense_bytes_per_param(&self) -> u32 {
        self.dense_bytes_per_param
    }

    /// The embedding tables.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// The categorical features.
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }

    /// Total embedding parameters across tables.
    pub fn embedding_param_count(&self) -> u64 {
        self.tables.iter().map(EmbeddingTable::param_count).sum()
    }

    /// Total embedding bytes across tables.
    pub fn embedding_bytes(&self) -> u64 {
        self.tables.iter().map(EmbeddingTable::size_bytes).sum()
    }

    /// Mean lookups per example, summed over features.
    pub fn mean_lookups_per_example(&self) -> f64 {
        self.features.iter().map(FeatureSpec::mean_valency).sum()
    }

    /// A scaled copy: dense and embedding parameter counts multiplied by
    /// the given factors (drives the Figure 17 growth timeline and the
    /// PA-NAS search of Figure 10).
    pub fn scaled(&self, dense_factor: f64, embedding_factor: f64) -> DlrmConfig {
        let tables: Vec<EmbeddingTable> = self
            .tables
            .iter()
            .map(|t| {
                let rows = ((t.rows() as f64) * embedding_factor).round().max(1.0) as u64;
                EmbeddingTable::new(t.name().to_owned(), rows, t.dim(), t.bytes_per_element())
            })
            .collect();
        let features = self
            .features
            .iter()
            .map(|f| FeatureSpec {
                vocab: tables[f.table].rows(),
                ..f.clone()
            })
            .collect();
        DlrmConfig::new(
            self.name.clone(),
            ((self.dense_params as f64) * dense_factor).round() as u64,
            self.dense_bytes_per_param,
            tables,
            features,
        )
    }
}

/// Test fixture shared by the crate's test modules.
#[cfg(test)]
impl DlrmConfig {
    /// The MLPerf DLRM of §7.9: "<2M FP32 weights … only 26 univalent
    /// features … and no multivalent features", global batch capped at
    /// 64 k. Its tables are tiny relative to production.
    pub(crate) fn mlperf_dlrm() -> DlrmConfig {
        const FEATURES: usize = 26;
        let tables: Vec<EmbeddingTable> = (0..FEATURES)
            .map(|i| {
                // Criteo-like vocab spread: a few huge tables, many small.
                let vocab = if i < 3 {
                    10_000_000
                } else {
                    10_000 + 1000 * i as u64
                };
                EmbeddingTable::new(format!("criteo{i}"), vocab, 128, 4)
            })
            .collect();
        let features = (0..FEATURES)
            .map(|i| FeatureSpec {
                name: format!("int{i}"),
                vocab: tables[i].rows(),
                valency: Valency::Univalent,
                popularity: Popularity::Zipf { exponent: 1.0 },
                table: i,
            })
            .collect();
        DlrmConfig::new("MLPerf-DLRM", 2_000_000, 4, tables, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlrm0_matches_figure8_caption() {
        let m = DlrmConfig::dlrm0();
        assert_eq!(m.dense_params(), 100_000_000);
        assert_eq!(m.tables().len(), 150);
        assert_eq!(m.features().len(), 300);
        let params = m.embedding_param_count();
        // Within 1% of 20B.
        assert!(
            (params as f64 - 2e10).abs() / 2e10 < 0.01,
            "embedding params {params}"
        );
        // Valency spans 1..100.
        let max_mean = m
            .features()
            .iter()
            .map(|f| f.mean_valency())
            .fold(0.0f64, f64::max);
        assert!(max_mean >= 90.0);
    }

    #[test]
    fn dlrm0_byte_budget() {
        // ~20B embeddings at 4 B + 100M dense at 1 B ≈ 80 GB + 0.1 GB:
        // far beyond one chip's 32 GiB HBM, forcing model parallelism.
        let m = DlrmConfig::dlrm0();
        assert!(m.embedding_bytes() > 64 << 30);
        assert_eq!(
            m.dense_params() * u64::from(m.dense_bytes_per_param()),
            100_000_000
        );
    }

    #[test]
    fn scaling_changes_param_counts() {
        let base = DlrmConfig::dlrm0();
        let grown = base.scaled(4.2, 3.8);
        let dense_ratio = grown.dense_params() as f64 / base.dense_params() as f64;
        assert!((dense_ratio - 4.2).abs() < 0.01);
        let emb_ratio = grown.embedding_param_count() as f64 / base.embedding_param_count() as f64;
        assert!((emb_ratio - 3.8).abs() < 0.05, "{emb_ratio}");
    }

    #[test]
    #[should_panic(expected = "missing table")]
    fn feature_table_validated() {
        let t = vec![EmbeddingTable::new("t", 10, 4, 4)];
        let f = vec![FeatureSpec {
            name: "bad".into(),
            vocab: 10,
            valency: Valency::Univalent,
            popularity: Popularity::Uniform,
            table: 5,
        }];
        let _ = DlrmConfig::new("broken", 1, 4, t, f);
    }

    #[test]
    fn mean_lookups_counts_all_features() {
        let m = DlrmConfig::mlperf_dlrm();
        assert_eq!(m.mean_lookups_per_example(), 26.0);
        assert!(DlrmConfig::dlrm0().mean_lookups_per_example() > 1000.0);
    }
}
