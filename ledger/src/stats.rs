//! Order statistics for latency samples and for repeated runs.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the "percentile" is one or two outliers.
pub const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks. `None` on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The median, or 0 for an empty sample (a workload whose every op failed
/// still reports; its failures are what make the run incorrect).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The `q`-quantile, but only when at least [`TAIL_SUPPORT`] samples lie
/// strictly beyond its rank — p99 needs 1 000 samples, p95 needs 200.
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * samples.len() as f64).floor() as usize;
    if beyond < TAIL_SUPPORT {
        return None;
    }
    quantile(samples, q)
}

/// Median, quartiles and relative spread of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// (q3 − q1) ÷ |median|; 0 when the median is 0.
    pub relative: f64,
}

/// Quartiles by the exclusive method — the same cut points Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check computes. Needs at least two values.
pub fn spread(values: &[f64]) -> Option<Spread> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let (q1, median, q3) = (cut(1), cut(2), cut(3));
    let relative = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Some(Spread {
        n,
        q1,
        median,
        q3,
        relative,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let n999: Vec<f64> = (0..999).map(f64::from).collect();
        let n1000: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_quantile(&n999, 0.99), None, "9 beyond p99");
        assert!(supported_quantile(&n1000, 0.99).is_some(), "10 beyond p99");
        // The same 999 samples do support p95 (49 beyond).
        assert!(supported_quantile(&n999, 0.95).is_some());
        assert_eq!(supported_quantile(&n1000[..199], 0.95), None);
        assert_eq!(supported_quantile(&[], 0.5), None);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.relative - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(spread(&[1.0]), None);
    }
}
