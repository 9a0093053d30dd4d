//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the full
//! list of measured values (nearest-rank definition), never from bucketed
//! histograms, and only when the sample is large enough that at least
//! [`MIN_BEYOND`] values lie above the reported rank.

/// How many samples must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A set of raw measurements (nanoseconds, bytes, counts …).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Appends every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of all measurements.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Largest measurement, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`): the smallest value
    /// such that at least a share `q` of the sample is at or below it.
    /// `None` unless at least [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = nearest_rank(q, n)?;
        if n - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        self.values.get(rank - 1).copied()
    }

    /// The median, whatever the sample size (`None` only when empty).
    pub fn median(&mut self) -> Option<f64> {
        let rank = nearest_rank(0.5, self.values.len())?;
        self.sort();
        self.values.get(rank - 1).copied()
    }
}

/// The 1-based nearest rank of quantile `q` in a sample of `n`.
fn nearest_rank(q: f64, n: usize) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// A well-mixed 64-bit seed for stream `index` of a run seeded with
/// `seed` (the SplitMix64 finalizer over both).  Seeds that differ by a
/// constant stride would give related RNG streams: the repository seeds
/// its generators through SplitMix64, whose state also advances by the
/// golden-ratio constant.
pub fn mix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a short list of values (set-up repetitions and the like).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut samples = Samples::new();
    for &v in values {
        samples.push(v);
    }
    samples.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles_of_one_to_a_thousand() {
        let mut s = samples((1..=1000).rev().map(f64::from));
        assert_eq!(s.quantile(0.5), Some(500.0));
        assert_eq!(s.quantile(0.9), Some(900.0));
        assert_eq!(s.quantile(0.99), Some(990.0));
        // Exactly ten samples lie beyond p99 of 1000: still reportable.
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut s = samples((1..=999).map(f64::from));
        // ceil(0.99 · 999) = 990: only nine values lie beyond.
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.quantile(0.9), Some(900.0));
        let mut small = samples((1..=99).map(f64::from));
        assert_eq!(small.quantile(0.9), None);
        let mut hundred = samples((1..=100).map(f64::from));
        assert_eq!(hundred.quantile(0.9), Some(90.0));
    }

    #[test]
    fn median_is_reported_for_any_non_empty_sample() {
        assert_eq!(samples([3.0]).median(), Some(3.0));
        assert_eq!(samples([4.0, 1.0, 3.0]).median(), Some(3.0));
        assert_eq!(samples([2.0, 1.0]).median(), Some(1.0));
        assert_eq!(Samples::new().median(), None);
        assert_eq!(median_of(&[0.3, 0.1, 0.2]), Some(0.2));
    }

    #[test]
    fn pushing_after_a_query_resorts() {
        let mut s = samples((0..20).map(f64::from));
        assert_eq!(s.median(), Some(9.0));
        for _ in 0..20 {
            s.push(100.0);
        }
        assert_eq!(s.median(), Some(19.0));
        assert_eq!(s.sum(), 190.0 + 2000.0);
        assert_eq!(s.max(), Some(100.0));
        assert_eq!(Samples::new().max(), None);
    }

    #[test]
    fn mixed_seeds_differ_for_every_stream_and_seed() {
        let seeds: std::collections::BTreeSet<u64> = (0..4)
            .flat_map(|seed| (0..1000).map(move |i| mix64(seed, i)))
            .collect();
        assert_eq!(seeds.len(), 4000);
        assert_ne!(mix64(0, 0), 0);
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        let mut s = samples((0..100).map(f64::from));
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.quantile(f64::NAN), None);
    }
}
