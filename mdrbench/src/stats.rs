//! Order statistics used by the report: medians, quartiles and
//! tail percentiles.

/// Sorted copy of `xs` (total order; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread this program reports matches one computed in Python from
/// the printed values. `None` for an empty sample.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            // Signed: clamping `j` can make `delta` negative (small n).
            let (ld, m) = (ld as i64, ld as i64 + 1);
            let mut q = [0.0; 3];
            for (i, slot) in (1..4i64).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
                *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
            }
            Some(q)
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// measure the benchmark's bounds are stated in.
pub fn iqr_frac(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (nearest rank), reported only when at least
/// ten samples lie strictly above its rank — a tail figure resting on
/// fewer samples is noise, so the caller gets `None` instead.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // Two points clamp to the ends: quantiles([1, 2], n=4) ==
        // [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&xs), Some((8.25 - 2.75) / 5.5));
        assert_eq!(iqr_frac(&[2.0; 6]), Some(0.0));
        assert_eq!(iqr_frac(&[0.0; 3]), None, "no spread share of a zero median");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly ten samples above.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 of 100 samples would rest on one sample.
        assert_eq!(percentile(&xs, 99.0), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
