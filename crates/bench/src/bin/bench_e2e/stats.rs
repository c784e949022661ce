//! Percentile and geometric-mean arithmetic (the harness's own copy: nothing
//! here may come from `conv_bench`, which is outside the benchmark's paths).

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The geometric mean of the positive entries of `values`; 0 when there are
/// none (a workload that does not measure a ratio reports 0 for it).
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.75), 4.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Non-positive entries (unmeasured ratios) are left out.
        assert!((geomean(&[0.0, 8.0, 2.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
