//! Order statistics over raw samples. Every timing the ledger reports is
//! a median or a tail percentile of samples it collected itself, so the
//! helpers here are exact (sort, then index): no bucketing error.

/// The `q`-quantile (nearest rank: the smallest sample with at least
/// `q·n` samples at or below it). 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n >= 1` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail the ledger reports: p99, or — when fewer than
/// [`TAIL_BEYOND`] samples lie beyond p99 — the highest sample that
/// still has [`TAIL_BEYOND`] samples beyond it. Returns
/// `(value, quantile actually reported)`; with `TAIL_BEYOND` samples or
/// fewer there is no tail, and the median is returned as quantile 0.5.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return (median(samples), 0.5);
    }
    let rank = nearest_rank(n, 0.99).min(n - TAIL_BEYOND);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread `compare` holds against a bound.
/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`). 0 with fewer than two samples.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_small_samples() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.2), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.81), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&s), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 10 000 samples: p99 has 100 beyond it.
        assert_eq!(tail(&ramp(10_000)), (9_900.0, 0.99));
        // 1 000 samples: p99 has exactly ten beyond it.
        assert_eq!(tail(&ramp(1_000)), (990.0, 0.99));
        // 63 samples: the 53rd is the highest with ten beyond it.
        let (value, q) = tail(&ramp(63));
        assert_eq!(value, 53.0);
        assert!((q - 53.0 / 63.0).abs() < 1e-12);
        // Too few samples for any tail: the median, labelled as such.
        assert_eq!(tail(&ramp(9)), (5.0, 0.5));
    }

    #[test]
    fn iqr_share_matches_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&s) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
