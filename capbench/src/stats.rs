//! Order statistics over timing samples.

/// Linear-interpolation percentile (`p` in `[0, 1]`) of `values`, the
/// rank convention of NumPy's default: rank `p·(n−1)` over the sorted
/// samples. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (`NaN` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), which the benchmark's acceptance check applies to the
/// metrics of repeated runs.
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert!((percentile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([4, 1, 9, 7, 3], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[4.0, 1.0, 9.0, 7.0, 3.0]), Some([2.0, 4.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
