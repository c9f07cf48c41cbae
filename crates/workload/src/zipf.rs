//! Zipfian index sampler.
//!
//! The Figure 1 motivation experiment and the Figure 15 mixed workload control access skew
//! with a Zipfian coefficient θ: item `i` (1-based rank) is drawn with probability
//! proportional to `1 / i^θ`. θ = 0 degenerates to the uniform distribution; the paper sweeps
//! θ up to 1.2, so the sampler must handle θ ≥ 1 as well — which rules out the closed-form
//! YCSB generator (undefined at θ = 1). Instead the sampler precomputes the cumulative weight
//! table once (10,000 accounts → 80 KB) and draws by binary search, giving exact probabilities
//! for any θ ≥ 0 at O(log n) per sample.

use rand::Rng;

/// A Zipfian sampler over the index range `0..n`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    cumulative: Vec<f64>,
}

impl Zipfian {
    /// Creates a sampler over `n` items with skew `theta`. Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipfian requires at least one item");
        assert!(theta >= 0.0, "Zipfian skew must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 1..=n {
            total += 1.0 / (i as f64).powf(theta);
            cumulative.push(total);
        }
        // Normalise so the last entry is exactly 1.0 and floating-point drift cannot push a
        // sample past the end.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Zipfian { cumulative }
    }

    /// Draws one index in `0..n`: index 0 is the most popular item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // partition_point returns the count of entries < u, i.e. the first index whose
        // cumulative weight reaches u.
        self.cumulative.partition_point(|&c| c < u)
    }

    /// The probability mass assigned to index `i`.
    #[cfg(test)]
    pub(crate) fn probability(&self, i: usize) -> f64 {
        if i >= self.cumulative.len() {
            return 0.0;
        }
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipfian::new(4, 0.0);
        for i in 0..4 {
            assert!((z.probability(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_stay_in_range_and_cover_popular_items() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            let i = z.sample(&mut rng);
            assert!(i < 100);
            counts[i] += 1;
        }
        // Rank 0 must be sampled far more often than rank 99 under heavy skew.
        assert!(counts[0] > 10 * counts[99].max(1));
    }

    #[test]
    fn higher_theta_concentrates_more_mass_on_the_head() {
        let mild = Zipfian::new(1000, 0.4);
        let heavy = Zipfian::new(1000, 1.2);
        let head_mass = |z: &Zipfian| (0..10).map(|i| z.probability(i)).sum::<f64>();
        assert!(head_mass(&heavy) > head_mass(&mild));
    }

    #[test]
    fn probabilities_sum_to_one() {
        for theta in [0.0, 0.5, 1.0, 1.2] {
            let z = Zipfian::new(321, theta);
            let total: f64 = (0..321).map(|i| z.probability(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta={theta}: total={total}");
            assert_eq!(z.probability(321), 0.0);
        }
    }

    #[test]
    fn single_item_always_returns_zero() {
        let z = Zipfian::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0, 1.0);
    }

    /// Audit regression: the empirical CDF must track the closed-form normalised harmonic
    /// CDF `H_{i,θ} / H_{n,θ}` at every rank, for a uniform, the YCSB default and a θ > 1
    /// skew (the paper sweeps up to 1.2). A Kolmogorov–Smirnov-style max deviation well
    /// above the ~0.007 expected at this sample size would expose sampler bias.
    #[test]
    fn empirical_cdf_matches_closed_form_at_three_thetas() {
        for theta in [0.0, 0.99, 1.2] {
            let n = 50usize;
            let draws = 40_000usize;
            let z = Zipfian::new(n, theta);
            let mut rng = StdRng::seed_from_u64(123);
            let mut counts = vec![0usize; n];
            for _ in 0..draws {
                counts[z.sample(&mut rng)] += 1;
            }
            let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
            let total: f64 = weights.iter().sum();
            let (mut cdf_closed, mut cdf_empirical, mut max_deviation) = (0.0f64, 0.0f64, 0.0f64);
            for i in 0..n {
                cdf_closed += weights[i] / total;
                cdf_empirical += counts[i] as f64 / draws as f64;
                max_deviation = max_deviation.max((cdf_closed - cdf_empirical).abs());
            }
            assert!(
                max_deviation < 0.015,
                "theta={theta}: empirical CDF deviates from closed form by {max_deviation}"
            );
        }
    }

    /// Audit regression: the degenerate corners of the parameter space are exact — a single
    /// item is a point mass at any θ, θ = 0 is exactly uniform, and θ ≥ 1 keeps the
    /// closed-form head ratio `p(0)/p(1) = 2^θ`.
    #[test]
    fn degenerate_parameters_are_exact() {
        for theta in [0.0, 1.0, 3.0] {
            let z = Zipfian::new(1, theta);
            assert_eq!(z.probability(0), 1.0, "theta={theta}");
        }
        let uniform = Zipfian::new(1_000, 0.0);
        for i in [0, 499, 999] {
            assert!((uniform.probability(i) - 1e-3).abs() < 1e-12);
        }
        for theta in [1.0, 1.2] {
            let z = Zipfian::new(10, theta);
            let ratio = z.probability(0) / z.probability(1);
            assert!(
                (ratio - 2f64.powf(theta)).abs() < 1e-9,
                "theta={theta}: head ratio {ratio}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Samples are always in range and the empirical head frequency is monotone in θ.
        #[test]
        fn samples_in_range(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
            let z = Zipfian::new(n, theta);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..200 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        /// Probability masses are non-increasing with rank (Zipf's defining property).
        #[test]
        fn probabilities_are_monotone(n in 2usize..200, theta in 0.0f64..1.5) {
            let z = Zipfian::new(n, theta);
            for i in 1..n {
                prop_assert!(z.probability(i - 1) + 1e-12 >= z.probability(i));
            }
        }
    }
}
