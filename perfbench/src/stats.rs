//! Order statistics over timing samples.

/// Returns the samples sorted ascending (total order, so an infinite
/// value — a failed operation — sorts last).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even
/// count). `NaN` when there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-quantile (`0 < p <= 1`): the smallest sample with at
/// least a `p` share of the samples at or below it. With fewer than
/// `1 / (1 - p)` samples this is the maximum, which is the highest
/// order statistic the samples can support. `NaN` when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a latency sample: the highest of p99.9, p99 and p90 with
/// at least ten samples beyond it, or the median when even p90 has
/// fewer (a batch run of a few passes). Returns the percentile (0.5 for
/// the median) and its value.
#[must_use]
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| (1.0 - p) * n >= 10.0 - 1e-9)
        .map_or((0.5, median(samples)), |p| (p, percentile(samples, p)))
}

/// Median of the pairwise ratios `num[i] / den[i]`. Pairs taken close
/// together in time cancel drift that a ratio of two medians keeps.
#[must_use]
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "ratios need paired samples");
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&ratios)
}

/// Arithmetic mean; `NaN` when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_selects_the_right_sample() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.001), 1.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), 990.0);
    }

    #[test]
    fn few_samples_give_the_maximum_as_the_tail() {
        let six = [1.7, 1.6, 1.9, 1.65, 1.8, 1.75];
        assert_eq!(percentile(&six, 0.99), 1.9);
        assert_eq!(percentile(&six, 0.5), 1.7);
        assert!(percentile(&[], 0.99).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let n = |k: usize| -> Vec<f64> { (1..=k).map(|i| i as f64).collect() };
        assert_eq!(tail(&n(75_000)), (0.999, 74_925.0));
        assert_eq!(tail(&n(10_000)), (0.999, 9_990.0));
        assert_eq!(tail(&n(9_999)), (0.99, 9_900.0));
        assert_eq!(tail(&n(1_000)), (0.99, 990.0));
        assert_eq!(tail(&n(100)), (0.9, 90.0));
        assert_eq!(tail(&n(99)), (0.5, 50.0));
        assert_eq!(tail(&n(6)), (0.5, 3.5));
    }

    #[test]
    fn paired_ratios_cancel_drift() {
        // The machine's speed changes between pairs; two of three pairs
        // are 10% apart, which the ratio of medians does not show.
        let plain = [100.0, 200.0, 150.0];
        let traced = [110.0, 220.0, 120.0];
        assert!((median_ratio(&traced, &plain) - 1.1).abs() < 1e-12);
        assert!((median(&traced) / median(&plain) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn failed_operations_sort_last() {
        let v = [2.0, f64::INFINITY, 1.0];
        assert_eq!(percentile(&v, 0.99), f64::INFINITY);
        assert_eq!(median(&v), 2.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_a_zero_percentile() {
        let _ = percentile(&[1.0], 0.0);
    }
}
