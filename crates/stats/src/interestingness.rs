//! Interestingness functions over aggregate results.
//!
//! Section 3, Step 5: "Spade natively supports three interestingness
//! functions, from which the user can choose: (i) variance, (ii) skewness,
//! and (iii) kurtosis, where variance can detect deviation from uniform
//! aggregate values, whereas the latter two can detect deviation from a
//! normal distribution of aggregated values over numeric dimensions."
//!
//! The score must be "a positive real number" (Section 2); skewness and
//! excess kurtosis are signed, so those scores are taken in absolute value.
//!
//! Each function also exposes its analytic gradient `∂h/∂y_s`, the quantity
//! Appendix A derives, required by the Delta-Method confidence interval of
//! Theorem 2. The paper's Appendix A prints the skewness normalizer as
//! `[Ĥ_r(y)]^{2/3}`; the standard moment-ratio exponent is `−3/2`
//! (`m₃/m₂^{3/2}`), which is also what the appendix's derivative expansion
//! corresponds to, so we implement `−3/2` and note the appendix exponent as
//! a typo.

use crate::moments::RunningMoments;

/// A built-in interestingness function `h`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interestingness {
    /// Unbiased variance of the aggregated values (paper Eq. 1); detects
    /// deviation from uniformity (outlier groups).
    Variance,
    /// |moment-ratio skewness|; detects asymmetric deviation from normality.
    Skewness,
    /// |excess kurtosis|; detects heavy/light tails vs. normality.
    Kurtosis,
}

impl Interestingness {
    /// All built-in functions.
    pub const ALL: [Interestingness; 3] =
        [Interestingness::Variance, Interestingness::Skewness, Interestingness::Kurtosis];

    /// Scores a vector of aggregated values `{t₁.v, …, t_W.v}`.
    ///
    /// Returns 0 for degenerate inputs (fewer than two groups, or zero
    /// spread), which the paper's examples treat as uninteresting
    /// (Figure 8: "all aggregated values are uniformly equal to 1").
    pub fn score(self, values: &[f64]) -> f64 {
        let m = RunningMoments::from_slice(values);
        self.score_from_moments(&m)
    }

    /// Scores from pre-accumulated moments (the ARM's single-pass path).
    pub fn score_from_moments(self, m: &RunningMoments) -> f64 {
        match self {
            Interestingness::Variance => m.variance_unbiased(),
            Interestingness::Skewness => m.skewness().abs(),
            Interestingness::Kurtosis => m.kurtosis_excess().abs(),
        }
    }

    /// The *signed* raw statistic (used internally by the CI machinery,
    /// which builds an interval around the signed value before folding).
    pub(crate) fn raw(self, values: &[f64]) -> f64 {
        let m = RunningMoments::from_slice(values);
        match self {
            Interestingness::Variance => m.variance_unbiased(),
            Interestingness::Skewness => m.skewness(),
            Interestingness::Kurtosis => m.kurtosis_excess(),
        }
    }

    /// Analytic gradient `∂h/∂y_s` of the raw statistic at `values`.
    ///
    /// * variance: `2/(G−1)·(y_s − ȳ)`
    /// * skewness `I = m₃·m₂^{−3/2}`:
    ///   `∂I/∂y_s = (3/G)((y_s−ȳ)² − m₂)·m₂^{−3/2} + m₃·(−3/2)m₂^{−5/2}·(2/G)(y_s−ȳ)`
    /// * kurtosis `J = m₄·m₂^{−2} − 3`:
    ///   `∂J/∂y_s = (4/G)((y_s−ȳ)³ − m₃)·m₂^{−2} + m₄·(−2)m₂^{−3}·(2/G)(y_s−ȳ)`
    pub(crate) fn gradient(self, values: &[f64]) -> Vec<f64> {
        let g = values.len() as f64;
        if values.len() < 2 {
            return vec![0.0; values.len()];
        }
        let m = RunningMoments::from_slice(values);
        let mean = m.mean();
        match self {
            Interestingness::Variance => {
                values.iter().map(|&y| 2.0 / (g - 1.0) * (y - mean)).collect()
            }
            Interestingness::Skewness => {
                let m2 = m.variance_population();
                let m3 = m.third_central();
                if m2 <= f64::EPSILON {
                    return vec![0.0; values.len()];
                }
                values
                    .iter()
                    .map(|&y| {
                        let d = y - mean;
                        let dm3 = 3.0 / g * (d * d - m2);
                        let dm2 = 2.0 / g * d;
                        dm3 * m2.powf(-1.5) + m3 * (-1.5) * m2.powf(-2.5) * dm2
                    })
                    .collect()
            }
            Interestingness::Kurtosis => {
                let m2 = m.variance_population();
                let m3 = m.third_central();
                let m4 = m.fourth_central();
                if m2 <= f64::EPSILON {
                    return vec![0.0; values.len()];
                }
                values
                    .iter()
                    .map(|&y| {
                        let d = y - mean;
                        let dm4 = 4.0 / g * (d * d * d - m3);
                        let dm2 = 2.0 / g * d;
                        dm4 / (m2 * m2) + m4 * (-2.0) * m2.powi(-3) * dm2
                    })
                    .collect()
            }
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Interestingness::Variance => "variance",
            Interestingness::Skewness => "skewness",
            Interestingness::Kurtosis => "kurtosis",
        }
    }
}

impl std::fmt::Display for Interestingness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference to validate analytic gradients.
    fn numeric_gradient(h: Interestingness, values: &[f64]) -> Vec<f64> {
        let eps = 1e-6;
        (0..values.len())
            .map(|s| {
                let mut plus = values.to_vec();
                let mut minus = values.to_vec();
                plus[s] += eps;
                minus[s] -= eps;
                (h.raw(&plus) - h.raw(&minus)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn variance_matches_eq1() {
        // Eq. (1): Ĥ(y) = 1/(G−1) Σ (y_i − ȳ)².
        let y = [1.0f64, 2.0, 3.0, 10.0];
        let mean = 4.0f64;
        let expected: f64 = y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 3.0;
        assert!((Interestingness::Variance.score(&y) - expected).abs() < 1e-12);
    }

    #[test]
    fn uniform_values_score_zero() {
        // Figure 8's uninteresting aggregate: all values equal.
        for h in Interestingness::ALL {
            assert_eq!(h.score(&[1.0; 20]), 0.0, "{h}");
        }
    }

    #[test]
    fn outlier_increases_variance() {
        // Figure 1(b): Angola's sum(netWorth) outlier drives variance.
        let without = Interestingness::Variance.score(&[1.0, 1.1, 0.9, 1.0]);
        let with = Interestingness::Variance.score(&[1.0, 1.1, 0.9, 28.0]);
        assert!(with > 100.0 * without);
    }

    #[test]
    fn scores_are_nonnegative() {
        let left_skewed = [10.0, 10.0, 10.0, 10.0, 1.0];
        let light_tailed: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        for h in Interestingness::ALL {
            assert!(h.score(&left_skewed) >= 0.0);
            assert!(h.score(&light_tailed) >= 0.0);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let y = [2.0, 4.0, 4.5, 7.0, 11.0, 3.0];
        for h in Interestingness::ALL {
            let analytic = h.gradient(&y);
            let numeric = numeric_gradient(h, &y);
            for (a, n) in analytic.iter().zip(numeric.iter()) {
                assert!(
                    (a - n).abs() < 1e-4 * (1.0 + n.abs()),
                    "{h}: analytic {a} vs numeric {n}"
                );
            }
        }
    }

    #[test]
    fn variance_gradient_formula() {
        // ∂Ĥ/∂y_s = 2/(G−1) (y_s − ȳ), the expression recalled in Appendix A.
        let y = [1.0, 3.0, 5.0];
        let grad = Interestingness::Variance.gradient(&y);
        assert!((grad[0] - 2.0 / 2.0 * (1.0 - 3.0)).abs() < 1e-12);
        assert!((grad[1] - 0.0).abs() < 1e-12);
        assert!((grad[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_safe_on_degenerate_input() {
        for h in Interestingness::ALL {
            assert_eq!(h.gradient(&[5.0]), vec![0.0]);
            let g = h.gradient(&[2.0, 2.0, 2.0]);
            assert!(g.iter().all(|v| v.is_finite()));
        }
    }
}
