//! The estimator every timing goes through: samples are cut into 1-s
//! windows, a window's value is a statistic of its samples, and the
//! reported value is the **median over windows** with the windows'
//! quartiles beside it as the metric's own noise estimate. No best-of-N,
//! no max-of-ratios.

/// Length of one window in seconds.
pub const WINDOW_S: f64 = 1.0;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. A short window simply returns its largest
/// sample for high `p`. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method
/// the acceptance check uses), so spreads computed here and there agree.
/// Fewer than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => None,
        1 => Some([sorted[0]; 3]),
        len => {
            let m = len + 1;
            Some([1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            }))
        }
    }
}

/// Which statistic turns a window's samples into the window's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    Median,
    /// Nearest-rank percentile, e.g. `Percentile(0.99)`.
    Percentile(f64),
}

/// Cuts `(end_s, value)` samples into `windows` whole windows by the time
/// each sample *completed*. Samples ending after the last whole window
/// are dropped: a partial window would bias rates low.
pub fn cut(samples: impl IntoIterator<Item = (f64, f64)>, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for (end_s, value) in samples {
        let index = (end_s / WINDOW_S) as usize;
        if end_s >= 0.0 && index < windows {
            out[index].push(value);
        }
    }
    out
}

/// One value per window; empty windows are skipped (no sample, no
/// opinion).
pub fn window_values(windows: &[Vec<f64>], stat: Stat) -> Vec<f64> {
    windows
        .iter()
        .filter_map(|w| match stat {
            Stat::Median => median(w),
            Stat::Percentile(p) => percentile(w, p),
        })
        .collect()
}

/// Throughput per window from `(end_s, amount)` completions: the amount
/// completed in the window over the time from the last completion before
/// the window to the last completion inside it. Dividing by exactly 1 s
/// instead would quantise the rate to whole operations per window (1% at
/// a hundred passes a second); this interval is about as long and ends
/// where operations end. A window without completions is a true zero, and
/// the next window's interval then covers it too.
pub fn window_rates(samples: impl IntoIterator<Item = (f64, f64)>, windows: usize) -> Vec<f64> {
    let mut amount = vec![0.0; windows];
    let mut last_end = vec![f64::NAN; windows];
    for (end_s, value) in samples {
        let index = (end_s / WINDOW_S) as usize;
        if end_s >= 0.0 && index < windows {
            amount[index] += value;
            last_end[index] = last_end[index].max(end_s);
        }
    }
    let mut edge = 0.0;
    amount
        .iter()
        .zip(&last_end)
        .map(|(&amount, &end)| {
            if end.is_nan() || end <= edge {
                return 0.0;
            }
            let rate = amount / (end - edge);
            edge = end;
            rate
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_on_hand_built_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.99), None);
    }

    #[test]
    fn windows_handle_empty_short_and_late_samples() {
        // Window 0: three samples (short: p99 is its max). Window 1:
        // empty. Window 2: one sample. A sample at t = 3.2 s lies beyond
        // the three whole windows and is dropped.
        let samples = [(0.1, 10.0), (0.5, 30.0), (0.9, 20.0), (2.5, 7.0), (3.2, 1000.0)];
        let windows = cut(samples, 3);
        assert_eq!(windows, vec![vec![10.0, 30.0, 20.0], vec![], vec![7.0]]);
        assert_eq!(window_values(&windows, Stat::Median), vec![20.0, 7.0]);
        assert_eq!(window_values(&windows, Stat::Percentile(0.99)), vec![30.0, 7.0]);
        assert_eq!(median(&window_values(&windows, Stat::Median)), Some(13.5));
    }

    #[test]
    fn rates_divide_by_the_time_between_last_completions() {
        // Window 0 completes 60 units by t = 0.9 (60 / 0.9); window 1 is
        // empty (0); window 2 completes 8 by t = 2.5, over the 1.6 s since
        // the last completion before it; t = 3.2 is beyond the windows.
        let samples = [(0.1, 10.0), (0.5, 30.0), (0.9, 20.0), (2.5, 8.0), (3.2, 1000.0)];
        let rates = window_rates(samples, 3);
        assert!((rates[0] - 60.0 / 0.9).abs() < 1e-12);
        assert_eq!(rates[1], 0.0);
        assert!((rates[2] - 5.0).abs() < 1e-12);
        assert_eq!(window_rates([], 2), vec![0.0, 0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }
}
