//! The production slice mix of Table 2 and the §2.9 twist statistics.

use rand::rngs::StdRng;
use rand::Rng;
use tpu_topology::SliceShape;

/// Whether a production job picked a twisted or regular wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyChoice {
    /// Regular (rectangular) torus or mesh.
    Regular,
    /// Twisted torus.
    Twisted,
}

/// One Table 2 row: a slice shape, the user's topology choice, and its
/// share of machine usage.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceUsage {
    /// The slice geometry.
    pub shape: SliceShape,
    /// Regular or twisted.
    pub choice: TopologyChoice,
    /// Share of usage (fraction of 1; Table 2 lists percentages).
    pub share: f64,
}

/// The Table 2 distribution ("sampling of popularity of TPU v4 slices for
/// a day in November 2022; includes all slices used ≥ 0.1%").
#[derive(Debug, Clone, PartialEq)]
pub struct SliceMix {
    entries: Vec<SliceUsage>,
    /// The sum of the rows' shares, in row order.
    total: f64,
}

impl SliceMix {
    /// The published Table 2 sample.
    pub fn table2() -> SliceMix {
        use TopologyChoice::{Regular, Twisted};
        let mk = |x, y, z, choice, pct: f64| SliceUsage {
            shape: SliceShape::new(x, y, z).expect("table shapes are valid"), // tpu-lint: allow(panic-policy) -- unreachable: table shapes are valid
            choice,
            share: pct / 100.0,
        };
        let entries = vec![
            // Sub-4³ slices (2D meshes).
            mk(1, 1, 1, Regular, 2.1),
            mk(1, 1, 2, Regular, 0.4),
            mk(1, 2, 2, Regular, 6.7),
            mk(2, 2, 2, Regular, 4.7),
            mk(2, 2, 4, Regular, 6.4),
            mk(2, 4, 4, Regular, 8.9),
            // 64.
            mk(4, 4, 4, Regular, 13.9),
            // 128–192.
            mk(4, 4, 8, Twisted, 16.0),
            mk(4, 4, 8, Regular, 1.5),
            mk(4, 4, 12, Regular, 0.7),
            // 256–384.
            mk(4, 8, 8, Twisted, 9.2),
            mk(4, 8, 8, Regular, 1.5),
            mk(4, 4, 16, Regular, 1.0),
            mk(4, 8, 12, Regular, 0.1),
            // 512–768.
            mk(8, 8, 8, Regular, 9.6),
            mk(4, 8, 16, Regular, 1.7),
            mk(4, 4, 32, Regular, 0.6),
            mk(8, 8, 12, Regular, 0.7),
            // 1024–1536.
            mk(8, 8, 16, Twisted, 1.8),
            mk(8, 8, 16, Regular, 1.4),
            mk(4, 16, 16, Regular, 0.3),
            mk(4, 4, 64, Regular, 0.1),
            mk(4, 8, 32, Regular, 0.1),
            mk(8, 12, 16, Regular, 0.1),
            mk(4, 4, 96, Regular, 0.1),
            mk(8, 8, 24, Regular, 0.1),
            // 2048–3072.
            mk(8, 16, 16, Twisted, 1.4),
            mk(8, 16, 16, Regular, 0.3),
            mk(12, 16, 16, Regular, 5.7),
            mk(4, 4, 192, Regular, 0.4),
        ];
        SliceMix {
            total: entries.iter().map(|e| e.share).sum(),
            entries,
        }
    }

    /// The rows.
    pub fn entries(&self) -> &[SliceUsage] {
        &self.entries
    }

    /// Total share covered by the sample (< 1: only slices ≥ 0.1% are
    /// listed).
    pub fn total_share(&self) -> f64 {
        self.total
    }

    /// Share of usage on slices smaller than one 4³ block (§2.9: 29%).
    pub fn share_below_64(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.shape.volume() < 64)
            .map(|e| e.share)
            .sum()
    }

    /// Share of usage on twisted tori (§2.9: 28%).
    pub fn share_twisted(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.choice == TopologyChoice::Twisted)
            .map(|e| e.share)
            .sum()
    }

    /// Share of usage on twistable geometries, twisted or not (§2.9: 33%).
    pub fn share_twistable(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.shape.is_production_twistable())
            .map(|e| e.share)
            .sum()
    }

    /// Among twistable-geometry usage, the share that actually twists
    /// (§2.9: 86%).
    pub fn twist_adoption_among_twistable(&self) -> f64 {
        let twistable = self.share_twistable();
        if twistable == 0.0 {
            return 0.0;
        }
        self.share_twisted() / twistable
    }

    /// Among ≥4³ usage, the share on twisted tori, normalizing the
    /// denominator to the full (unsampled) 71% as the paper does
    /// (§2.9: "40% of the topologies that are 4³ blocks or larger use
    /// twisted tori").
    pub fn twist_adoption_at_or_above_64(&self) -> f64 {
        let at_or_above = 1.0 - self.share_below_64() / self.total_share();
        if at_or_above == 0.0 {
            return 0.0;
        }
        (self.share_twisted() / self.total_share()) / at_or_above
    }

    /// Draws a slice request from the distribution (shares renormalized
    /// over the sampled rows).
    pub fn sample(&self, rng: &mut StdRng) -> &SliceUsage {
        &self.entries[self.sample_index(rng)]
    }

    /// Draws the index of a row, reading exactly one output of `rng`.
    /// A draw that rounding carries past every row takes the last one.
    pub(crate) fn sample_index(&self, rng: &mut StdRng) -> usize {
        let mut r = rng.random::<f64>() * self.total;
        for (i, e) in self.entries.iter().enumerate() {
            if r < e.share {
                return i;
            }
            r -= e.share;
        }
        self.entries.len() - 1
    }
}

impl Default for SliceMix {
    fn default() -> SliceMix {
        SliceMix::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shapes_are_scheduler_canonical() {
        // Table 2 caption: "the software scheduler requires that slices
        // have dimensions x ≤ y ≤ z".
        for e in SliceMix::table2().entries() {
            let s = e.shape;
            assert!(s.x() <= s.y() && s.y() <= s.z(), "{s}");
        }
    }

    #[test]
    fn sample_covers_most_usage() {
        // Only slices ≥ 0.1% are listed; the sample should cover ~95%.
        let total = SliceMix::table2().total_share();
        assert!((0.90..=1.0).contains(&total), "{total}");
    }

    #[test]
    fn section_2_9_below_64_share() {
        // "29% are smaller than a 4³ cube."
        let s = SliceMix::table2().share_below_64();
        assert!((0.28..0.30).contains(&s), "{s}");
    }

    #[test]
    fn section_2_9_twisted_share() {
        // "The actual twisted tori are 28%."
        let s = SliceMix::table2().share_twisted();
        assert!((0.27..0.29).contains(&s), "{s}");
    }

    #[test]
    fn section_2_9_twistable_share() {
        // "Only those of the form n×n×2n or n×2n×2n can twist. They are
        // 33%."
        let s = SliceMix::table2().share_twistable();
        assert!((0.32..0.34).contains(&s), "{s}");
    }

    #[test]
    fn section_2_9_adoption_among_twistable() {
        // "The actual twisted tori are 28% (86% of 33%)."
        let s = SliceMix::table2().twist_adoption_among_twistable();
        assert!((0.82..0.90).contains(&s), "{s}");
    }

    #[test]
    fn section_2_9_adoption_at_or_above_64() {
        // "40% of the topologies that are 4³ blocks or larger use twisted
        // tori."
        let s = SliceMix::table2().twist_adoption_at_or_above_64();
        assert!((0.37..0.44).contains(&s), "{s}");
    }

    #[test]
    fn caption_half_of_slices_use_dims_4_or_8() {
        let s: f64 = SliceMix::table2()
            .entries()
            .iter()
            .filter(|e| {
                [e.shape.x(), e.shape.y(), e.shape.z()]
                    .iter()
                    .all(|&d| d == 4 || d == 8)
            })
            .map(|e| e.share)
            .sum();
        assert!((0.48..0.56).contains(&s), "{s}");
    }

    #[test]
    fn twisted_entries_have_twistable_geometry() {
        for e in SliceMix::table2().entries() {
            if e.choice == TopologyChoice::Twisted {
                assert!(
                    e.shape.is_production_twistable(),
                    "{} marked twisted but not twistable",
                    e.shape
                );
            }
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let mix = SliceMix::table2();
        let mut rng = StdRng::seed_from_u64(123);
        let samples: Vec<&SliceUsage> = (0..20_000).map(|_| mix.sample(&mut rng)).collect();
        let twisted = samples
            .iter()
            .filter(|s| s.choice == TopologyChoice::Twisted)
            .count() as f64
            / 20_000.0;
        // Twisted share renormalized over the 95.5% sample ≈ 0.297.
        let expect = mix.share_twisted() / mix.total_share();
        assert!((twisted - expect).abs() < 0.02, "{twisted} vs {expect}");
    }

    #[test]
    fn block_aligned_shapes_are_4i_4j_4k() {
        // §2.5: slices are 4i×4j×4k — every ≥64 entry is block aligned.
        for e in SliceMix::table2().entries() {
            if e.shape.volume() >= 64 {
                assert!(e.shape.is_block_aligned(), "{}", e.shape);
            }
        }
    }
}
