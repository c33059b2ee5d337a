//! Order statistics over the benchmark's samples, plus the shuffle that
//! orders each round of a workload.

use rand::rngs::StdRng;
use rand::Rng;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples [`median`] takes: ten on each side of it.
pub const MEDIAN_MIN_SAMPLES: usize = 2 * MIN_BEYOND;

/// The `pct`-th percentile of ascending `sorted` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: above
/// it for `pct >= 50`, below it otherwise. A tail read from a handful
/// of samples moves from run to run with whichever sample lands there.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || pct > 100 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    let beyond = if pct >= 50 { n - rank } else { rank - 1 };
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts `values` and takes their median under the [`percentile`] rule.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(&values, 50)
}

/// Arithmetic mean, `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Fisher-Yates shuffle driven by the run's seeded generator.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&ramp(200), 90), Some(180.0));
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        // p90 of 100 leaves exactly ten above it; of 99, only nine.
        assert!(percentile(&ramp(100), 90).is_some());
        assert_eq!(percentile(&ramp(99), 90), None);
        // The median needs ten on its far side: 20 samples, not 19.
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 99), None);
        // Low percentiles count the samples below them: p11 of 100
        // has ten, p10 only nine.
        assert_eq!(percentile(&ramp(100), 11), Some(11.0));
        assert_eq!(percentile(&ramp(100), 10), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_sorts_first() {
        let mut xs = ramp(21);
        xs.reverse();
        assert_eq!(median(xs), Some(11.0));
        assert_eq!(median(ramp(5)), None);
        assert!(median(ramp(MEDIAN_MIN_SAMPLES)).is_some());
        assert_eq!(median(ramp(MEDIAN_MIN_SAMPLES - 1)), None);
    }

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        use rand::SeedableRng;
        let shuffled = |seed| {
            let mut xs: Vec<u32> = (0..64).collect();
            shuffle(&mut StdRng::seed_from_u64(seed), &mut xs);
            xs
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut xs = shuffled(7);
        xs.sort_unstable();
        assert_eq!(xs, (0..64).collect::<Vec<_>>());
    }
}
