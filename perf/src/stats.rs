//! Medians and percentiles, each reported with the sample count that backs it.

/// Fewest samples that must lie beyond a percentile for it to be reported as supported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count). Panics on an empty
/// slice: every caller measures at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One percentile of a sample, with what it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_SAMPLES_BEYOND`] samples lie beyond the percentile.
    pub fn is_supported(&self) -> bool {
        self.beyond >= MIN_SAMPLES_BEYOND
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `values`. Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_reports_samples_and_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        assert!(p99.is_supported());
        let p50 = percentile(&values, 0.5);
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert_eq!(percentile(&values, 1.0).value, 1000.0);
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_samples_beyond_is_unsupported() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = percentile(&values, 0.99);
        assert_eq!(p99.beyond, 9);
        assert!(!p99.is_supported());
        // 20 blocks (the smoke size) cannot support a p99 either.
        assert!(!percentile(&values[..20], 0.99).is_supported());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let p = percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.8);
        assert_eq!((p.value, p.beyond), (4.0, 1));
    }
}
