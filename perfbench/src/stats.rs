//! Sample statistics the benchmark reports.

/// Fewest samples that must lie strictly beyond a reported percentile.
/// A tail percentile resting on fewer outliers than this moves with a
/// single scheduler hiccup, so it is refused rather than printed.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` is in `(0, 100]`. `None` for an empty
/// set.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// [`nearest_rank`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile (so p90 needs ≥ 100 samples, p50 ≥ 20).
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// Median (nearest rank), 0 for an empty set — used for per-layer
/// figures, which may legitimately be absent on a workload.
pub fn p50(samples: &[f64]) -> f64 {
    nearest_rank(samples, 50.0).unwrap_or(0.0)
}

/// Mean, 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 90.0), Some(90.0));
        // Rank = ceil(0.5 * 5) = 3.
        assert_eq!(nearest_rank(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&[7.0], 90.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(supported_percentile(&xs, 90.0), Some(89.0));
        // 99 samples: rank 90, only 9 beyond.
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(supported_percentile(&xs[..99], 90.0), None);
        // p99 needs a thousand.
        assert_eq!(supported_percentile(&xs, 99.0), None);
        assert_eq!(beyond(1000, 99.0), 10);
        // The median needs twenty.
        assert_eq!(supported_percentile(&xs[..19], 50.0), None);
        assert!(supported_percentile(&xs[..20], 50.0).is_some());
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn shares_and_means_of_empty_sets_are_zero() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(p50(&[]), 0.0);
    }
}
