//! Order statistics and the target-epoch rule.

/// Arithmetic mean; `NaN` on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sorts ascending. Inputs are measurements, so `NaN` is a bug upstream.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN among measurements"));
    values
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an ascending slice (mean of the two middle values when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of nothing");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Gaps between consecutive completion times.
pub fn deltas(times: &[f64]) -> Vec<f64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Number of leading epochs left out of timing statistics: the first 5 %
/// (at least one, so the cold first epoch never counts).
pub fn warmup_len(epochs: usize) -> usize {
    (epochs / 20).max(1)
}

/// First epoch whose RMSE is at or below `target`.
pub fn target_epoch(rmse: &[f64], target: f64) -> Option<usize> {
    rmse.iter().position(|&r| r <= target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&sorted(vec![3.0, 1.0, 2.0])), 2.0);
        assert_eq!(median(&sorted(vec![4.0, 1.0, 2.0, 3.0])), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn deltas_and_warmup() {
        assert_eq!(deltas(&[1.0, 1.5, 3.0]), vec![0.5, 1.5]);
        assert_eq!(warmup_len(10), 1);
        assert_eq!(warmup_len(3800), 190);
    }

    #[test]
    fn target_epoch_is_first_crossing() {
        let curve = [0.70, 0.61, 0.56, 0.57, 0.55];
        assert_eq!(target_epoch(&curve, 0.56), Some(2));
        assert_eq!(target_epoch(&curve, 0.70), Some(0));
        assert_eq!(target_epoch(&curve, 0.50), None);
        // NaN (a node without test data) never counts as a crossing.
        assert_eq!(target_epoch(&[f64::NAN, 0.5], 0.6), Some(1));
    }
}
