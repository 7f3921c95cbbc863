//! Order statistics the benchmark reports: medians and the tail percentile
//! with at least ten samples beyond it.

/// Tail levels considered, in per-mille, highest first.
const TAIL_LEVELS_PER_MILLE: [u64; 10] = [999, 995, 990, 980, 975, 950, 900, 800, 750, 500];

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of level `per_mille` among `n` samples, in
/// integer arithmetic so 99% of 1000 is exactly rank 990.
fn nearest_rank(per_mille: u64, n: usize) -> usize {
    (per_mille as usize * n).div_ceil(1000).max(1)
}

/// A tail percentile together with the sample count that supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile level, e.g. `99.0`.
    pub level: f64,
    /// The sample at that level (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest listed percentile of `sorted` (ascending) that has at least
/// [`MIN_BEYOND`] samples beyond its nearest rank, or `None` when even the
/// median lacks them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LEVELS_PER_MILLE.iter().find_map(|&level| {
        let rank = nearest_rank(level, n);
        (rank <= n && n - rank >= MIN_BEYOND).then(|| Tail {
            level: level as f64 / 10.0,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

/// The median of `sorted` (ascending): the middle sample, or the mean of
/// the two middle ones; `NaN` when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sorts a sample vector ascending (times are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 99.5% of 1000 leaves only 5 beyond, so 99% is the highest level.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t, Tail { level: 99.0, value: 990.0, beyond: 10, samples: 1000 });
        let t = tail(&ramp(2000)).unwrap();
        assert_eq!((t.level, t.value, t.beyond), (99.5, 1990.0, 10));
        let t = tail(&ramp(140)).unwrap();
        assert_eq!((t.level, t.value, t.beyond), (90.0, 126.0, 14));
        let t = tail(&ramp(420)).unwrap();
        assert_eq!((t.level, t.beyond), (97.5, 10));
        for n in [20usize, 57, 99, 100, 101, 333, 5000] {
            let t = tail(&ramp(n)).unwrap_or_else(|| panic!("n = {n}"));
            assert!(t.beyond >= MIN_BEYOND, "n = {n}: {t:?}");
        }
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).unwrap().level, 50.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
