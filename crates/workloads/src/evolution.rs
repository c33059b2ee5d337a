//! Figure 17: the growth of DLRM0 from 2017 to 2022.
//!
//! "Weights grew 4.2x and embeddings grew 3.8x. Over those five years a
//! new version was released every ~6 weeks (43 total). Each weight is 1
//! byte and each embedding is 4 bytes."

/// One released version of DLRM0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dlrm0Version {
    /// Release index (0-based).
    pub index: u32,
    /// Fractional years since the first release (2017).
    pub years_since_2017: f64,
    /// Dense weights, bytes (1 byte per weight).
    pub weight_bytes: f64,
    /// Embeddings, bytes (4 bytes per parameter).
    pub embedding_bytes: f64,
}

/// The 43-version growth timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Dlrm0Evolution {
    versions: Vec<Dlrm0Version>,
}

impl Dlrm0Evolution {
    /// Release cadence, weeks.
    pub const CADENCE_WEEKS: f64 = 6.0;
    /// Total versions released (Figure 17).
    pub const VERSIONS: u32 = 43;
    /// Weight growth over the window.
    pub const WEIGHT_GROWTH: f64 = 4.2;
    /// Embedding growth over the window.
    pub const EMBEDDING_GROWTH: f64 = 3.8;

    /// Builds the timeline: geometric growth with a deterministic
    /// step-wise wobble (releases alternate between capacity pushes and
    /// quality/latency consolidations, so growth is not perfectly
    /// smooth), anchored to the published endpoints.
    ///
    /// Initial sizes: ~33 M weights (int8) and ~5.3 B embedding
    /// parameters, so the 2022 endpoints are the paper's 137 M weights
    /// (§7.9) and ~20 B embedding parameters (Figure 8).
    pub fn paper() -> Dlrm0Evolution {
        let n = Self::VERSIONS;
        let w0 = 137e6 / Self::WEIGHT_GROWTH; // bytes (1 B/weight)
        let e0 = 20e9 * 4.0 / Self::EMBEDDING_GROWTH; // bytes (4 B/param)
        let versions = (0..n)
            .map(|i| {
                let frac = f64::from(i) / f64::from(n - 1);
                // Deterministic wobble, zero at both endpoints.
                let wobble = 0.08 * (frac * 23.0).sin() * frac * (1.0 - frac) * 4.0;
                let wgrow = Self::WEIGHT_GROWTH.powf(frac) * (1.0 + wobble);
                let egrow = Self::EMBEDDING_GROWTH.powf(frac) * (1.0 - wobble);
                Dlrm0Version {
                    index: i,
                    years_since_2017: f64::from(i) * Self::CADENCE_WEEKS / 52.0,
                    weight_bytes: w0 * wgrow,
                    embedding_bytes: e0 * egrow,
                }
            })
            .collect();
        Dlrm0Evolution { versions }
    }

    /// The versions, oldest first.
    pub fn versions(&self) -> &[Dlrm0Version] {
        &self.versions
    }

    /// First release.
    pub fn first(&self) -> Dlrm0Version {
        self.versions[0]
    }

    /// Latest release.
    pub fn last(&self) -> Dlrm0Version {
        *self.versions.last().expect("timeline nonempty") // tpu-lint: allow(panic-policy) -- unreachable: timeline nonempty
    }

    /// Weight growth factor across the timeline.
    pub fn weight_growth(&self) -> f64 {
        self.last().weight_bytes / self.first().weight_bytes
    }

    /// Embedding growth factor across the timeline.
    pub fn embedding_growth(&self) -> f64 {
        self.last().embedding_bytes / self.first().embedding_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_three_versions_over_five_years() {
        let e = Dlrm0Evolution::paper();
        assert_eq!(e.versions().len(), 43);
        let span = e.last().years_since_2017;
        assert!((4.5..5.5).contains(&span), "span {span} years");
    }

    #[test]
    fn growth_factors_match_figure17() {
        let e = Dlrm0Evolution::paper();
        assert!(
            (e.weight_growth() - 4.2).abs() < 0.05,
            "{}",
            e.weight_growth()
        );
        assert!(
            (e.embedding_growth() - 3.8).abs() < 0.05,
            "{}",
            e.embedding_growth()
        );
    }

    #[test]
    fn endpoints_match_section_7_9_and_figure8() {
        let e = Dlrm0Evolution::paper();
        // 137M int8 weights in 2022 (§7.9).
        assert!((e.last().weight_bytes - 137e6).abs() / 137e6 < 0.01);
        // ~20B embedding parameters x 4 bytes in 2022 (Figure 8).
        assert!((e.last().embedding_bytes - 80e9).abs() / 80e9 < 0.01);
    }

    #[test]
    fn embeddings_dwarf_weights_throughout() {
        let e = Dlrm0Evolution::paper();
        for v in e.versions() {
            assert!(v.embedding_bytes > 50.0 * v.weight_bytes);
        }
    }

    #[test]
    fn growth_is_not_perfectly_smooth_but_roughly_monotone() {
        let e = Dlrm0Evolution::paper();
        let mut weight_dips = 0;
        for pair in e.versions().windows(2) {
            if pair[1].weight_bytes < pair[0].weight_bytes {
                weight_dips += 1;
            }
        }
        // A few consolidation releases shrink the model…
        assert!(weight_dips > 0, "timeline should wobble like the figure");
        // …but not most of them.
        assert!(weight_dips < 10);
    }
}
