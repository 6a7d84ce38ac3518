//! Order statistics over measured samples.

/// The `p`-quantile (`0 < p ≤ 1`) of `samples` by nearest rank, or 0
/// for an empty set. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (mean of the middle pair for an even
/// count), or 0 for an empty set.
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

/// The `p`-quantile within each window of `width` (by the first
/// element of each sample), window by window. Empty windows are left
/// out.
pub fn windowed(samples: &[(f64, f64)], width: f64, p: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, value) in samples {
        let k = (at / width).max(0.0) as usize;
        if windows.len() <= k {
            windows.resize_with(k + 1, Vec::new);
        }
        windows[k].push(value);
    }
    windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect()
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn windowed_percentiles_go_window_by_window() {
        // Three 1-second windows of 100 samples; the middle one is slow,
        // and the last holds the 2% slowest of its samples.
        let samples: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let value = match i {
                    100..200 => 1000.0,
                    _ if i >= 200 && i % 50 == 0 => 500.0,
                    _ => 10.0,
                };
                (f64::from(i) / 100.0, value)
            })
            .collect();
        assert_eq!(windowed(&samples, 1.0, 0.99), vec![10.0, 1000.0, 500.0]);
        assert_eq!(windowed(&samples, 1.0, 0.5), vec![10.0, 1000.0, 10.0]);
        assert_eq!(windowed(&samples[..100], 0.5, 0.99).len(), 2);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
