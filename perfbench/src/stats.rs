//! Sample statistics used by every workload: medians, nearest-rank
//! percentiles, and the rule that picks the highest percentile a sample
//! set can support.

use std::time::Duration;

/// Candidate percentiles, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
const MIN_BEYOND: usize = 10;

/// Smallest sample count for which p99 is reportable.
pub const P99_MIN_SAMPLES: usize = 1000;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// 1-based nearest rank of percentile `p` among `n` samples. `p` is
/// taken to a hundredth of a percent and the rank computed in integers,
/// so 99.9 of 10 000 is exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(beyond(99.0, 999), 9);
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(P99_MIN_SAMPLES, 1000);
    }

    #[test]
    fn highest_percentile_ladder() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }
}
