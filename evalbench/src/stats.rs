//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of sorted samples (`q` in `0.0..=1.0`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps products such as 0.9 * 100 from rounding up a rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly above the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The `q` percentile, or `None` when fewer than [`TAIL_SAMPLES`] samples
/// lie beyond it (the median of any non-empty sample is always reported).
pub fn reported_percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    if q > 0.5 && samples_beyond(values.len(), q) < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`). Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |i: f64| {
        let m = n + 1.0;
        let j = ((i * m / 4.0).floor() as usize).clamp(1, sorted.len() - 1);
        let delta = i * m - (j as f64) * 4.0;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1.0), at(3.0)))
}

/// Median of the samples in the first and in the last tenth of a series
/// (in arrival order). Empty when the series has fewer than ten samples.
pub fn decile_medians(series: &[f64]) -> Option<(f64, f64)> {
    let tenth = series.len() / 10;
    if tenth == 0 {
        return None;
    }
    Some((median(&series[..tenth])?, median(&series[series.len() - tenth..])?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it; p99 leaves 1.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(reported_percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(reported_percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(reported_percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(reported_percentile(&short, 0.99), None);
    }

    #[test]
    fn median_is_always_reported() {
        assert_eq!(reported_percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(reported_percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn decile_medians_split_the_series() {
        let series: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(decile_medians(&series), Some((4.5, 94.5)));
        assert_eq!(decile_medians(&series[..9]), None);
    }
}
