//! How a number is taken: medians over rounds, per-operation medians
//! (rule R4) and the tail-percentile rule.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rule R4: operation `i` is the same input in every round, so its sample
/// is the median over rounds of operation `i`'s latency. A neighbour's
/// burst that hits one round moves one of `rounds` values of the
/// operations it overlapped, not a pooled percentile.
pub fn per_operation_median(rounds: &[Vec<f64>]) -> Vec<f64> {
    let ops = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// The tail percentile a sample of `n` supports: p99 from 1000
/// operations, otherwise the highest of p95 / p90 / p80 / p75 that
/// leaves at least ten samples beyond it (p50 for tiny samples).
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 1000 {
        return 99.0;
    }
    [95.0, 90.0, 80.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// `(p50, tail, tail percentile)` across per-operation samples.
pub fn p50_and_tail(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len());
    (
        percentile_sorted(&sorted, 50.0),
        percentile_sorted(&sorted, p),
        p,
    )
}

/// Round-to-round (or run-to-run) spread: `(max - min) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn per_operation_median_absorbs_a_burst_in_one_round() {
        // Five rounds of four operations; round 2 is hit by a burst on
        // operations 1 and 2. A pooled p90 would be 90.0; the
        // per-operation samples do not see it at all.
        let mut rounds = vec![vec![1.0, 2.0, 3.0, 4.0]; 5];
        rounds[2] = vec![1.0, 90.0, 90.0, 4.0];
        assert_eq!(per_operation_median(&rounds), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn per_operation_median_truncates_to_the_shortest_round() {
        let rounds = vec![vec![1.0, 2.0, 3.0], vec![3.0, 4.0]];
        assert_eq!(per_operation_median(&rounds), vec![2.0, 3.0]);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(40_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 80.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(49), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        let (p50, tail, p) = p50_and_tail(&v);
        assert_eq!((p50, tail, p), (50.0, 90.0, 90.0));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
