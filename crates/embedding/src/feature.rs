//! Categorical features: valency and popularity distributions.

/// How many rows one example looks up in a feature's table (§3.2:
/// univalent vs multivalent features, "typically combined by summing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Valency {
    /// Exactly one lookup per example.
    Univalent,
    /// A dynamic number of lookups, uniform in `[min, max]`.
    Multivalent {
        /// Minimum lookups per example.
        min: u32,
        /// Maximum lookups per example.
        max: u32,
    },
}

impl Valency {
    /// Mean lookups per example.
    pub fn mean(self) -> f64 {
        match self {
            Valency::Univalent => 1.0,
            Valency::Multivalent { min, max } => (f64::from(min) + f64::from(max)) / 2.0,
        }
    }

    /// Maximum lookups per example.
    pub fn max(self) -> u32 {
        match self {
            Valency::Univalent => 1,
            Valency::Multivalent { max, .. } => max,
        }
    }
}

/// Popularity distribution of feature values. Production categorical
/// features are heavily skewed — "deduplication of frequent feature
/// values is commonly used" (§3.4) only pays off under skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// All vocabulary entries equally likely (the adversarial case for
    /// dedup).
    Uniform,
    /// Zipf-distributed with the given exponent (≈1.0 for natural data).
    Zipf {
        /// The Zipf exponent `s` (> 0).
        exponent: f64,
    },
}

/// One categorical feature bound to a table index in a DLRM.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Feature name.
    pub name: String,
    /// Vocabulary size.
    pub vocab: u64,
    /// Lookups per example.
    pub valency: Valency,
    /// Skew of value popularity.
    pub popularity: Popularity,
    /// Index of the embedding table serving this feature.
    pub table: usize,
}

impl FeatureSpec {
    /// Mean lookups per example for this feature.
    pub fn mean_valency(&self) -> f64 {
        self.valency.mean()
    }
}

/// Samples a Zipf(s)-distributed rank in `[0, n)` using Devroye's
/// rejection-inversion method (no table precomputation, O(1) memory).
///
/// Falls back to uniform when `n == 1`.
pub fn sample_zipf(u1: f64, u2: f64, n: u64, s: f64) -> u64 {
    debug_assert!(n >= 1);
    if n == 1 {
        return 0;
    }
    // Rejection-free approximate inversion: invert the continuous CDF
    // H(x) = (x^(1-s) - 1) / (n^(1-s) - 1) for s != 1, and
    // H(x) = ln(x) / ln(n) for s == 1; then clamp. The approximation error
    // only perturbs the tail shape slightly, which is irrelevant for the
    // dedup statistics this generator feeds.
    let nf = n as f64;
    // tpu-lint: allow(unit-hygiene) -- comparison epsilon, not a unit conversion
    let x = if (s - 1.0).abs() < 1e-9 {
        nf.powf(u1)
    } else {
        let one_minus_s = 1.0 - s;
        let h_n = nf.powf(one_minus_s);
        (1.0 + u1 * (h_n - 1.0)).powf(1.0 / one_minus_s)
    };
    // Use u2 to dither within the integer bucket so ranks near 1 are not
    // over-quantized.
    let rank = (x + u2 - 1.0).floor().clamp(0.0, nf - 1.0);
    rank as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valency_means() {
        assert_eq!(Valency::Univalent.mean(), 1.0);
        assert_eq!(Valency::Multivalent { min: 1, max: 100 }.mean(), 50.5);
        assert_eq!(Valency::Multivalent { min: 1, max: 100 }.max(), 100);
        assert_eq!(Valency::Univalent.max(), 1);
    }

    #[test]
    fn zipf_sampler_in_range() {
        for i in 0..1000 {
            let u1 = (i as f64 + 0.5) / 1000.0;
            let r = sample_zipf(u1, 0.5, 1000, 1.0);
            assert!(r < 1000);
        }
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        // With s = 1 over n = 1000, a large share of samples must land in
        // the first 10 ranks.
        let mut head = 0u32;
        let total = 10_000u32;
        for i in 0..total {
            let u1 = (f64::from(i) + 0.5) / f64::from(total);
            let u2 = ((f64::from(i) * 0.754_877).fract() + 0.5).fract();
            if sample_zipf(u1, u2, 1000, 1.0) < 10 {
                head += 1;
            }
        }
        let share = f64::from(head) / f64::from(total);
        assert!(share > 0.25, "head share {share} too small for Zipf(1)");
    }

    #[test]
    fn zipf_degenerate_vocab() {
        assert_eq!(sample_zipf(0.3, 0.7, 1, 1.2), 0);
    }

    #[test]
    fn zipf_non_unit_exponent() {
        // s = 2 is even more skewed than s = 1.
        let mut head1 = 0;
        let mut head2 = 0;
        let total = 5000;
        for i in 0..total {
            let u1 = (f64::from(i) + 0.5) / f64::from(total);
            if sample_zipf(u1, 0.5, 1000, 1.0) < 5 {
                head1 += 1;
            }
            if sample_zipf(u1, 0.5, 1000, 2.0) < 5 {
                head2 += 1;
            }
        }
        assert!(head2 > head1, "higher exponent must concentrate more");
    }

    #[test]
    fn feature_spec_mean_valency() {
        let f = FeatureSpec {
            name: "query".into(),
            vocab: 80_000,
            valency: Valency::Multivalent { min: 2, max: 6 },
            popularity: Popularity::Zipf { exponent: 1.1 },
            table: 0,
        };
        assert_eq!(f.mean_valency(), 4.0);
    }
}
