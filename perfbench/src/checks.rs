//! Output checks.  A failed check makes the run report `correct: false`
//! and exit non-zero; every check is also counted in the run's output.

use mdrr_core::bounds::absolute_error_bound;
use mdrr_data::JointDomain;

/// Confidence level of the Expression (5) bounds.  A run checks thousands
/// of (strongly correlated) marginal sets; at `α = 1e-9` per set a
/// correct run practically never trips one, while a bias of a few bound
/// widths still does.
pub const ALPHA: f64 = 1e-9;

/// The failures of one run's output checks.
#[derive(Debug, Default)]
pub struct Checks {
    run: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records that two counts which must agree exactly do.
    pub fn equal(&mut self, what: &str, left: u64, right: u64) {
        self.expect(left == right, || format!("{what}: {left} != {right}"));
    }

    pub fn fail(&mut self, what: String) {
        self.expect(false, || what);
    }

    pub fn run(&self) -> usize {
        self.run
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The Expression (5) bound on the error of an unbiased marginal estimate
/// under uniform-keep randomization with keep probability `p`: the
/// reported distribution is `λ = p·π + (1 − p)/r`, Expression (5) bounds
/// `|λ̂ − λ|`, and the estimator `(λ̂ − (1 − p)/r)/p` scales that error by
/// `1/p`.  `n` is the (effective) number of independent reports.
pub fn marginal_error_bound(truth: &[f64], p: f64, n: usize) -> f64 {
    let r = truth.len() as f64;
    let lambda: Vec<f64> = truth.iter().map(|&t| p * t + (1.0 - p) / r).collect();
    absolute_error_bound(&lambda, n.max(1), ALPHA).map_or(f64::INFINITY, |b| b / p)
}

/// Checks released marginals against true counts: every value within the
/// Expression (5) bound.  Returns the largest error as a share of its
/// bound.
pub fn check_marginals(
    checks: &mut Checks,
    label: &str,
    estimates: &[Vec<f64>],
    truth_counts: &[Vec<f64>],
    p: f64,
    n: usize,
) -> f64 {
    let mut worst = 0.0f64;
    checks.expect(estimates.len() == truth_counts.len(), || {
        format!(
            "{label}: {} marginals released for {} attributes",
            estimates.len(),
            truth_counts.len()
        )
    });
    for (j, (estimate, counts)) in estimates.iter().zip(truth_counts).enumerate() {
        let total: f64 = counts.iter().sum();
        let truth: Vec<f64> = counts.iter().map(|&c| c / total).collect();
        let bound = marginal_error_bound(&truth, p, n);
        let error = estimate
            .iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).abs())
            .fold(f64::NAN, f64::max);
        worst = worst.max(error / bound);
        let finite = estimate.iter().all(|e| e.is_finite());
        checks.expect(estimate.len() == truth.len() && finite && error <= bound, || {
            format!("{label}: attribute {j} marginal error {error:.3e} exceeds the Expression (5) bound {bound:.3e}")
        });
    }
    worst
}

/// Checks that a released marginal is a probability distribution.
pub fn check_proper(checks: &mut Checks, label: &str, marginal: &[f64]) {
    let sum: f64 = marginal.iter().sum();
    let min = marginal.iter().copied().fold(f64::INFINITY, f64::min);
    checks.expect((sum - 1.0).abs() < 1e-9 && min >= 0.0, || {
        format!("{label}: released marginal sums to {sum} with minimum {min}")
    });
}

/// The unbiased (unprojected) per-attribute marginal estimates of a
/// uniform-keep joint channel, computed from its reported cell counts.
pub fn raw_joint_marginals(counts: &[u64], cardinalities: &[usize], p: f64) -> Vec<Vec<f64>> {
    let domain = JointDomain::new(cardinalities).expect("a valid joint domain");
    let n: u64 = counts.iter().sum();
    let mut reported: Vec<Vec<f64>> = cardinalities.iter().map(|&r| vec![0.0; r]).collect();
    for (cell, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let tuple = domain.decode(cell).expect("cell inside the domain");
        for (marginal, &value) in reported.iter_mut().zip(&tuple) {
            marginal[value as usize] += count as f64;
        }
    }
    reported
        .into_iter()
        .map(|marginal| {
            let r = marginal.len() as f64;
            marginal
                .into_iter()
                .map(|c| (c / n as f64 - (1.0 - p) / r) / p)
                .collect()
        })
        .collect()
}

/// Effective sample size of a weighted pool of equally sized groups of
/// independent reports, group `i` counted `weights[i]` times:
/// `(Σ wᵢ)² / Σ wᵢ²`, times the group size.
pub fn effective_reports(weights: &[u64], group_size: usize) -> usize {
    let sum: f64 = weights.iter().map(|&w| w as f64).sum();
    let sum_sq: f64 = weights.iter().map(|&w| (w as f64) * (w as f64)).sum();
    if sum_sq == 0.0 {
        return 0;
    }
    ((sum * sum / sum_sq) * group_size as f64).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_scales_with_keep_probability_and_sample_size() {
        let truth = [0.5, 0.3, 0.2];
        let strong = marginal_error_bound(&truth, 0.5, 10_000);
        let weak = marginal_error_bound(&truth, 0.9, 10_000);
        assert!(strong > weak);
        let big = marginal_error_bound(&truth, 0.5, 40_000);
        assert!((strong / big - 2.0).abs() < 1e-9);
        // Expression (5) at α = 1e-9 over three categories: √B ≈ 6.3.
        let lambda: Vec<f64> = truth.iter().map(|&t| 0.5 * t + 0.5 / 3.0).collect();
        let worst = lambda.iter().map(|l| l * (1.0 - l)).fold(0.0, f64::max);
        let sqrt_b = strong * 0.5 / (worst / 10_000.0).sqrt();
        assert!(sqrt_b > 6.0 && sqrt_b < 6.6, "√B = {sqrt_b}");
    }

    #[test]
    fn marginal_check_accepts_noise_and_rejects_bias() {
        let mut checks = Checks::default();
        let truth = vec![vec![500.0, 300.0, 200.0]];
        let bound = marginal_error_bound(&[0.5, 0.3, 0.2], 0.7, 1_000);
        let close = vec![vec![0.5 + bound / 2.0, 0.3 - bound / 2.0, 0.2]];
        let worst = check_marginals(&mut checks, "close", &close, &truth, 0.7, 1_000);
        assert!(checks.failures().is_empty());
        assert!((worst - 0.5).abs() < 1e-9);
        let far = vec![vec![0.5 + 2.0 * bound, 0.3 - 2.0 * bound, 0.2]];
        check_marginals(&mut checks, "far", &far, &truth, 0.7, 1_000);
        assert_eq!(checks.failures().len(), 1);
        let broken = vec![vec![f64::NAN, 0.3, 0.2]];
        check_marginals(&mut checks, "nan", &broken, &truth, 0.7, 1_000);
        assert_eq!(checks.failures().len(), 2);
        assert_eq!(checks.run(), 6);
    }

    #[test]
    fn raw_joint_marginals_invert_the_uniform_noise() {
        // Two binary attributes, p = 0.5, 100 reports; cell order follows
        // the joint domain's own encoding.
        let cards = [2, 2];
        let domain = JointDomain::new(&cards).unwrap();
        let mut counts = vec![0u64; 4];
        for (cell, count) in counts.iter_mut().enumerate() {
            let tuple = domain.decode(cell).unwrap();
            *count = if tuple[0] == 0 { 35 } else { 15 };
        }
        let raw = raw_joint_marginals(&counts, &cards, 0.5);
        // λ̂₀ = (0.7, 0.3) → π̂₀ = ((0.7 − 0.25)/0.5, (0.3 − 0.25)/0.5).
        assert!((raw[0][0] - 0.9).abs() < 1e-12);
        assert!((raw[0][1] - 0.1).abs() < 1e-12);
        assert!((raw[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_reports_of_uneven_replays() {
        assert_eq!(effective_reports(&[3, 3, 3], 10), 30);
        // Weights 1 and 2: (3²)/(1 + 4) = 1.8 groups.
        assert_eq!(effective_reports(&[1, 2], 10), 18);
        assert_eq!(effective_reports(&[], 10), 0);
    }

    #[test]
    fn proper_distribution_check() {
        let mut checks = Checks::default();
        check_proper(&mut checks, "ok", &[0.25, 0.75]);
        check_proper(&mut checks, "bad", &[-0.1, 1.1]);
        assert_eq!(checks.failures().len(), 1);
    }
}
