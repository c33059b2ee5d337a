//! The workspace's random-number generator, with a rand-0.9-style API.
//!
//! Implements exactly the slice the workspace uses — `StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::random::<f64>()` and
//! `Rng::random_range(..)` over integer ranges — on top of a SplitMix64
//! generator, plus one constructor rand does not have,
//! [`StdRng::seed_from_u64_at`], which starts a stream at a given output.
//! Every Monte Carlo stream in the workspace, and so every golden
//! fixture and goodput digest, is defined by this generator: a change to
//! its output is a change to every pinned result. It is NOT a
//! cryptographic generator.
//!
//! SplitMix64's state advances by a fixed odd increment per output and
//! each output is a mix of the state alone, so output `n` of a seed
//! depends only on the seed and `n`: a stream can be read at any counter
//! without drawing the outputs before it.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    //! Concrete generators, mirroring `rand::rngs`.

    /// A deterministic 64-bit generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: u64,
    }

    /// The state increment per output (SplitMix64's golden gamma).
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    impl StdRng {
        /// The generator whose first output is output `n` of
        /// [`crate::SeedableRng::seed_from_u64`]`(seed)`: the state that
        /// stream holds after `n` outputs and its warm-up step,
        /// `seed + (n + 1)·γ` (wrapping), with no output drawn.
        pub fn seed_from_u64_at(seed: u64, n: u64) -> StdRng {
            StdRng {
                state: seed.wrapping_add(n.wrapping_add(1).wrapping_mul(GAMMA)),
            }
        }

        pub(crate) fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

use rngs::StdRng;

/// Seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // One warm-up step decorrelates small consecutive seeds.
        let mut rng = StdRng { state: seed };
        let _ = rng.next_u64();
        rng
    }
}

/// Types samplable uniformly over their full domain (the `random()` path).
pub trait Standard: Sized {
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> f64 {
        // 53 high-quality mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with `random_range`.
pub trait RangeSample: Copy + PartialOrd {
    fn sample_below(rng: &mut StdRng, span: u64) -> u64;
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample_below(rng: &mut StdRng, span: u64) -> u64 {
                // Multiply-shift bounded sampling (Lemire); the slight
                // modulo bias of the plain variant is irrelevant at the
                // sample counts used here, but this avoids it anyway.
                let x = rng.next_u64();
                ((u128::from(x) * u128::from(span)) >> 64) as u64
            }
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize);

/// Ranges accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    fn sample(self, rng: &mut StdRng) -> T;
}

impl<T: RangeSample> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        let lo = self.start.to_u64();
        let hi = self.end.to_u64();
        assert!(lo < hi, "cannot sample from an empty range");
        T::from_u64(lo + T::sample_below(rng, hi - lo))
    }
}

impl<T: RangeSample> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        let lo = self.start().to_u64();
        let hi = self.end().to_u64();
        assert!(lo <= hi, "cannot sample from an empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + T::sample_below(rng, span + 1))
    }
}

/// Sampling methods, mirroring `rand::Rng`.
pub trait Rng {
    /// A uniform sample over the type's full domain ([0, 1) for floats).
    fn random<T: Standard>(&mut self) -> T;

    /// A uniform sample from an integer range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl Rng for StdRng {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.random_range(0u32..6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = rng.random_range(3u64..=5);
            assert!((3..=5).contains(&v));
        }
    }

    /// The counter constructor against the stream it skips into: the
    /// first outputs it gives equal those `seed_from_u64` gives after
    /// drawing `n` outputs. Drawing 2³² outputs one by one is too slow
    /// for a unit test, so that case adds the state advance of 2¹⁶ drawn
    /// outputs 2¹⁶ times, then draws the last output.
    #[test]
    fn counter_constructor_equals_stepping() {
        const STRIDE: u64 = 1 << 16;
        let mut strider = StdRng { state: 0 };
        for _ in 0..STRIDE {
            let _ = strider.next_u64();
        }
        let stride = strider.state;
        for seed in [0, 1, 2023, u64::MAX] {
            for n in [0, 1, 2, 3_998] {
                let mut stepped = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    let _ = stepped.next_u64();
                }
                let mut at = StdRng::seed_from_u64_at(seed, n);
                for _ in 0..4 {
                    assert_eq!(at.next_u64(), stepped.next_u64(), "seed {seed}, n {n}");
                }
            }
            let n = (1u64 << 32) + 1;
            let mut stepped = StdRng::seed_from_u64(seed);
            for _ in 0..STRIDE {
                stepped.state = stepped.state.wrapping_add(stride);
            }
            let _ = stepped.next_u64();
            let mut at = StdRng::seed_from_u64_at(seed, n);
            for _ in 0..4 {
                assert_eq!(at.next_u64(), stepped.next_u64(), "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3u32..3);
    }
}
