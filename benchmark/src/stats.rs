//! Order statistics for small samples.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them, so the spread printed here is the
/// one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 for fewer than
/// two values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// The highest of the 50th, 90th, 99th and 99.9th percentile that has at
/// least ten samples beyond it, as `(percent, value)`; `None` below
/// twenty samples, where not even the median qualifies.
pub fn highest_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
}

/// The `percent`-th percentile (nearest rank), or `None` unless at least
/// ten samples lie beyond it.
pub fn percentile(values: &[f64], percent: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((percent / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    (n >= rank + 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 5.5 / 5.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(highest_percentile(&v), Some((90.0, 90.0)));
        // 99 samples: rank 90 has only nine beyond it.
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(highest_percentile(&v[..99]), Some((50.0, 50.0)));
        // Twenty samples support the median and nothing higher; nineteen
        // support nothing.
        assert_eq!(highest_percentile(&v[..20]), Some((50.0, 10.0)));
        assert_eq!(highest_percentile(&v[..19]), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_percentile(&big), Some((99.0, 990.0)));
    }
}
