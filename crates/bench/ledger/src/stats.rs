//! Order statistics: percentiles of one run's samples, and the median and
//! quartile spread of a set of runs.

/// Candidate percentiles, ascending, each with the `n` of "one sample in
/// `n` lies beyond it" (whole numbers, so the rule is exact).
const PERCENTILES: [(f64, usize); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The highest percentile of `samples` observations that still has at least
/// ten of them beyond it — the only tail a sample of that size supports.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|(_, one_in)| samples / one_in >= 10)
        .map_or(PERCENTILES[0].0, |(p, _)| p)
}

/// The `p`-quantile (nearest rank) of ascending `sorted`; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` without the `trim` share of them at each end (rounded
/// down, so short inputs keep everything); 0 when empty.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the rule the driver applies. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 below two values or at a
/// zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(2_000_000), 0.9999);
        assert_eq!(highest_supported_percentile(crate::spec::BATCH), 0.99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn trimmed_mean_drops_a_share_at_each_end() {
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        ten[9] = 1e9;
        assert_eq!(trimmed_mean(&ten, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), 5.5);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
