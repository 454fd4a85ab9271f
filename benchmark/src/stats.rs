//! Order statistics and means the metrics are built from. The harness
//! keeps its own (`spmv_analysis::stats` has a percentile and a geomean
//! too): a measuring instrument must not change when the program it
//! measures does.

/// Sorts samples ascending (NaN-free by construction: all inputs are
/// elapsed times or counts).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 100]` of an ascending slice, linearly
/// interpolated between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentile of a large sample of *quantised* values (nanosecond
/// timer ticks): the mean of the samples whose rank lies within half a
/// percent of `p`. A plain order statistic of tick counts repeats
/// exactly from run to run and jumps by a whole tick; the window mean
/// moves continuously with the distribution.
pub fn percentile_windowed(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as f64;
    let lo = (((p - 0.5) / 100.0 * n).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((p + 0.5) / 100.0 * n).ceil() as usize).clamp(lo + 1, sorted.len());
    mean(&sorted[lo..hi])
}

/// Mean of the fastest tenth of the samples (at least one): the
/// estimator behind every timing metric. On a shared host the latencies
/// of one repeated call spread 2–3× within a run and their median moves
/// ±20% between identical runs with the neighbours' load, while the
/// fastest tenth — the call when the host leaves it alone — repeats
/// within a few percent. Averaging the tenth keeps one lucky sample from
/// deciding the value.
pub fn fastest_tenth(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    mean(&s[..s.len().div_ceil(10)])
}

/// The same for rates: mean of the highest tenth of the samples.
pub fn highest_tenth(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    mean(&s[s.len() - s.len().div_ceil(10)..])
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean of positive samples.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so `compare` judges
/// spread exactly as the acceptance procedure does.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; like Python, two
        // samples extrapolate beyond the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn windowed_percentile_is_a_local_mean() {
        // 1000 samples 0..999: the p50 window covers ranks 495..505.
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((percentile_windowed(&s, 50.0) - 499.5).abs() < 1e-9);
        assert!((percentile_windowed(&s, 99.0) - 989.5).abs() < 1e-9);
        // Tiny samples degrade to the nearest value instead of panicking.
        assert_eq!(percentile_windowed(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_windowed(&[1.0, 2.0, 3.0], 100.0), 3.0);
    }

    #[test]
    fn best_tenths_average_the_extreme_decile() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(fastest_tenth(&v), 2.0); // mean of 1, 2, 3
        assert_eq!(highest_tenth(&v), 29.0); // mean of 28, 29, 30
        assert_eq!(fastest_tenth(&[5.0, 3.0, 9.0]), 3.0); // few samples: the best one
        assert_eq!(highest_tenth(&[5.0]), 5.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
