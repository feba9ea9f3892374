//! Large-sample confidence intervals around the interestingness score.
//!
//! This is the statistical core of early-stop (Section 5.2). For an
//! aggregate `A` with groups `g₁…g_G` and true result `μ`, the score
//! `Ĥ_r(μ)` is estimated by `Ĥ_r(Ȳ)` on the per-group sample means, and
//! Theorem 2 bounds the error through the Multivariate Delta Method:
//!
//! ```text
//! √r · [Ĥ_r(Ȳ) − Ĥ_r(μ)]  →D  N(0, τ²),
//! τ² = Σ_s σ²_s · (∂Ĥ_r(μ)/∂y_s)²      (independent groups)
//! ```
//!
//! giving the half-width `ε_r = z_{1−α} · √(τ̂² / r)` with `τ̂²` the plug-in
//! estimate using per-group sample variances and the gradient evaluated at
//! `Ȳ`. We allow group-specific sample sizes `r_s` (the samples of sparse
//! groups may be partially filled), in which case each group contributes
//! `(∂Ĥ/∂y_s)² · σ̂²_s / r_s` to the squared half-width — this reduces to
//! the paper's formula when all `r_s = r`.
//!
//! Appendix B (sum): the group estimator becomes `S_s = c_s·Ȳ_s` with
//! `Var(S_s) = c_s²σ²_s/r_s`, where `c_s` is the group size counted during
//! data translation ("the count in the root node of the lattice is always
//! correct, whereas in the other lattice nodes ... it may be overestimated").
//!
//! Appendix C (min/max): point estimates are the sample extremes; the score
//! is bounded above via **Popoviciu's inequality** (`Var ≤ ¼(b−a)²`) using
//! the attribute's global bounds, and below via the **Szőkefalvi-Nagy**-style
//! bound (`range²/(2G)`), as prescribed by the paper. The lower bound is a
//! heuristic (the true extremes can move past the sampled ones), which is
//! why Table 4 reports accuracy empirically rather than guaranteeing it.

use crate::interestingness::Interestingness;
use crate::moments::RunningMoments;
use crate::normal::two_sided_z;

/// Which point estimator the aggregate function of the MDA requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// `avg(M)` — group value estimated by the sample mean (Section 5.2).
    Avg,
    /// `sum(M)` — `c_s · Ȳ_s` (Appendix B).
    Sum,
    /// `count` — group sizes are counted exactly during translation; the
    /// interval is degenerate (width 0) at the counted value.
    Count,
    /// `min(M)` — sample minimum + Popoviciu/Szőkefalvi-Nagy bounds (App. C).
    Min,
    /// `max(M)` — sample maximum + Popoviciu/Szőkefalvi-Nagy bounds (App. C).
    Max,
}

/// Per-group sampling state fed to the interval computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupSample {
    /// Moments of the sampled (pre-aggregated) measure values in the group.
    pub moments: RunningMoments,
    /// Group size `c_s` counted during data translation.
    pub group_size: u64,
}

impl GroupSample {
    /// Builds a group sample from raw sampled values plus the stream size.
    pub fn from_values(values: &[f64], group_size: u64) -> Self {
        GroupSample { moments: RunningMoments::from_slice(values), group_size }
    }
}

/// A confidence interval `[lower, upper]` around the estimated score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreInterval {
    /// Point estimate `Ĥ_r(Ȳ)` (already folded to the non-negative score).
    pub estimate: f64,
    /// Lower bound `L_r` at the configured confidence.
    pub lower: f64,
    /// Upper bound `U_r`.
    pub upper: f64,
}

impl ScoreInterval {
    /// A width-zero interval.
    pub(crate) fn exact(value: f64) -> Self {
        ScoreInterval { estimate: value, lower: value, upper: value }
    }
}

/// Confidence-interval builder for one interestingness function.
#[derive(Clone, Copy, Debug)]
pub struct InterestingnessCi {
    /// The interestingness function `h`.
    pub h: Interestingness,
    /// Confidence level `1 − α`, e.g. `0.95`.
    pub confidence: f64,
}

impl InterestingnessCi {
    /// Creates a builder; panics if `confidence ∉ (0,1)`.
    pub fn new(h: Interestingness, confidence: f64) -> Self {
        assert!(confidence > 0.0 && confidence < 1.0);
        InterestingnessCi { h, confidence }
    }

    /// Computes the interval for an MDA whose aggregate function needs
    /// `estimator`, from the per-group samples. `global_bounds` are the
    /// attribute's offline `[min, max]` statistics, required for
    /// [`EstimatorKind::Min`]/[`EstimatorKind::Max`].
    pub fn interval(
        &self,
        estimator: EstimatorKind,
        groups: &[GroupSample],
        global_bounds: Option<(f64, f64)>,
    ) -> ScoreInterval {
        if groups.len() < 2 {
            return ScoreInterval::exact(0.0);
        }
        match estimator {
            EstimatorKind::Avg => self.delta_interval(groups, |g| {
                let r = g.moments.count().max(1) as f64;
                (g.moments.mean(), g.moments.variance_unbiased() / r)
            }),
            EstimatorKind::Sum => self.delta_interval(groups, |g| {
                let r = g.moments.count().max(1) as f64;
                let c = g.group_size as f64;
                (c * g.moments.mean(), c * c * g.moments.variance_unbiased() / r)
            }),
            EstimatorKind::Count => {
                let y: Vec<f64> = groups.iter().map(|g| g.group_size as f64).collect();
                ScoreInterval::exact(self.h.score(&y))
            }
            EstimatorKind::Min | EstimatorKind::Max => {
                self.extreme_interval(estimator, groups, global_bounds)
            }
        }
    }

    /// The Delta-Method interval: `point ± z·√(Σ g_s²·Var(estimator_s))`,
    /// folded to the non-negative score domain.
    fn delta_interval(
        &self,
        groups: &[GroupSample],
        point_and_var: impl Fn(&GroupSample) -> (f64, f64),
    ) -> ScoreInterval {
        let mut y = Vec::with_capacity(groups.len());
        let mut vars = Vec::with_capacity(groups.len());
        for g in groups {
            let (p, v) = point_and_var(g);
            y.push(p);
            vars.push(v);
        }
        let raw = self.h.raw(&y);
        let grad = self.h.gradient(&y);
        let tau2: f64 = grad.iter().zip(vars.iter()).map(|(g, v)| g * g * v).sum();
        let half = two_sided_z(self.confidence) * tau2.max(0.0).sqrt();
        fold_to_score(self.h, raw, half)
    }

    /// Appendix C: extremes with Popoviciu / Szőkefalvi-Nagy variance bounds.
    fn extreme_interval(
        &self,
        estimator: EstimatorKind,
        groups: &[GroupSample],
        global_bounds: Option<(f64, f64)>,
    ) -> ScoreInterval {
        let y: Vec<f64> = groups
            .iter()
            .map(|g| match estimator {
                EstimatorKind::Min => g.moments.min(),
                _ => g.moments.max(),
            })
            .filter(|v| v.is_finite())
            .collect();
        if y.len() < 2 {
            return ScoreInterval::exact(0.0);
        }
        let estimate = self.h.score(&y);
        let g_count = y.len() as f64;
        let observed_lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let observed_hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // The true group extreme can only move toward the attribute's global
        // bound: past the sample min downwards, past the sample max upwards.
        let spread = match (estimator, global_bounds) {
            (EstimatorKind::Min, Some((lo, _))) => observed_hi - lo.min(observed_lo),
            (EstimatorKind::Max, Some((_, hi))) => hi.max(observed_hi) - observed_lo,
            _ => observed_hi - observed_lo,
        };
        // Popoviciu: population Var(y) ≤ ¼ spread²; the score uses the
        // unbiased variance (Eq. 1), hence the G/(G−1) correction.
        let bessel = g_count / (g_count - 1.0);
        let upper = bessel * 0.25 * spread * spread;
        // Szőkefalvi-Nagy-style floor on the observed spread:
        // population Var ≥ range²/(2G) → unbiased ≥ range²/(2(G−1)).
        let range = observed_hi - observed_lo;
        let lower = (range * range / (2.0 * (g_count - 1.0))).min(estimate);
        ScoreInterval { estimate, lower, upper: upper.max(estimate) }
    }
}

/// Folds a signed-statistic interval `raw ± half` into the non-negative
/// score domain (|·| for skewness/kurtosis; variance is clamped at 0).
fn fold_to_score(h: Interestingness, raw: f64, half: f64) -> ScoreInterval {
    let (lo, hi) = (raw - half, raw + half);
    match h {
        Interestingness::Variance => {
            ScoreInterval { estimate: raw.max(0.0), lower: lo.max(0.0), upper: hi.max(0.0) }
        }
        Interestingness::Skewness | Interestingness::Kurtosis => {
            if lo >= 0.0 {
                ScoreInterval { estimate: raw.abs(), lower: lo, upper: hi }
            } else if hi <= 0.0 {
                ScoreInterval { estimate: raw.abs(), lower: -hi, upper: -lo }
            } else {
                ScoreInterval { estimate: raw.abs(), lower: 0.0, upper: (-lo).max(hi) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn group(values: &[f64]) -> GroupSample {
        GroupSample::from_values(values, values.len() as u64)
    }

    #[test]
    fn interval_brackets_estimate() {
        let groups: Vec<GroupSample> = (0..5)
            .map(|i| {
                let vals: Vec<f64> = (0..30).map(|j| (i * 10 + j % 7) as f64).collect();
                group(&vals)
            })
            .collect();
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let iv = ci.interval(EstimatorKind::Avg, &groups, None);
        assert!(iv.lower <= iv.estimate && iv.estimate <= iv.upper);
        assert!(iv.lower >= 0.0);
    }

    #[test]
    fn count_interval_is_exact() {
        let groups = vec![
            GroupSample::from_values(&[], 10),
            GroupSample::from_values(&[], 20),
            GroupSample::from_values(&[], 90),
        ];
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let iv = ci.interval(EstimatorKind::Count, &groups, None);
        let expected = Interestingness::Variance.score(&[10.0, 20.0, 90.0]);
        assert_eq!(iv, ScoreInterval::exact(expected));
    }

    #[test]
    fn more_samples_tighten_the_interval() {
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let mut rng = SmallRng::seed_from_u64(7);
        let widths: Vec<f64> = [10usize, 100, 1000]
            .iter()
            .map(|&r| {
                let groups: Vec<GroupSample> = (0..4)
                    .map(|i| {
                        let vals: Vec<f64> =
                            (0..r).map(|_| i as f64 * 5.0 + rng.gen::<f64>()).collect();
                        group(&vals)
                    })
                    .collect();
                let iv = ci.interval(EstimatorKind::Avg, &groups, None);
                iv.upper - iv.lower
            })
            .collect();
        assert!(widths[0] > widths[1] && widths[1] > widths[2], "{widths:?}");
    }

    #[test]
    fn sum_estimator_scales_with_group_size() {
        // Two groups with identical per-fact means but 10x different sizes
        // must produce very different sum estimates → high variance score.
        let g1 = GroupSample::from_values(&[1.0, 1.2, 0.8, 1.0], 1000);
        let g2 = GroupSample::from_values(&[1.0, 0.9, 1.1, 1.0], 100);
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let iv = ci.interval(EstimatorKind::Sum, &[g1, g2], None);
        // sums ≈ 1000 vs 100 → variance ≈ (900)²/2 = 405000.
        assert!(iv.estimate > 300_000.0, "estimate {}", iv.estimate);
    }

    #[test]
    fn extreme_bounds_use_popoviciu() {
        // Sample minima per group with attribute range [0, 100]:
        // upper bound = ¼·spread², spread = max(sample minima) − global lo.
        let g1 = GroupSample::from_values(&[5.0, 9.0], 50);
        let g2 = GroupSample::from_values(&[40.0, 60.0], 50);
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let iv = ci.interval(EstimatorKind::Min, &[g1, g2], Some((0.0, 100.0)));
        let spread: f64 = 40.0; // max sample-min (40) − global lo (0)
                                // G/(G−1)·¼·spread² = 2·0.25·1600 = 800
        assert!((iv.upper - 2.0 * 0.25 * spread * spread).abs() < 1e-9);
        // Szőkefalvi-Nagy floor: observed range 35, G=2 → 35²/2 = 612.5,
        // capped at the point estimate (unbiased variance of [5,40] = 612.5).
        assert!((iv.lower - 35.0f64 * 35.0 / 2.0).abs() < 1e-9);
        assert!(iv.lower <= iv.estimate && iv.estimate <= iv.upper);
    }

    #[test]
    fn skewness_interval_folds_to_nonnegative() {
        let groups: Vec<GroupSample> = [1.0, 1.0, 1.0, 20.0]
            .iter()
            .map(|&m| {
                let vals: Vec<f64> = (0..50).map(|j| m + (j % 5) as f64 * 0.01).collect();
                group(&vals)
            })
            .collect();
        let ci = InterestingnessCi::new(Interestingness::Skewness, 0.95);
        let iv = ci.interval(EstimatorKind::Avg, &groups, None);
        assert!(iv.lower >= 0.0);
        assert!(iv.estimate > 0.5); // strongly right-skewed group means
        assert!(iv.lower <= iv.estimate && iv.estimate <= iv.upper);
    }

    /// Empirical coverage check of Theorem 2: the nominal 95% interval must
    /// contain the true interestingness at a rate close to 95% over repeated
    /// sampling. We allow a generous band since the guarantee is asymptotic.
    #[test]
    fn coverage_close_to_nominal() {
        let mut rng = SmallRng::seed_from_u64(42);
        let true_means = [10.0f64, 12.0, 9.0, 15.0, 11.0];
        let sigma = 4.0;
        let truth = Interestingness::Variance.score(true_means.as_ref());
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let trials = 400;
        let r = 200; // large-sample regime
        let mut covered = 0;
        for _ in 0..trials {
            let groups: Vec<GroupSample> = true_means
                .iter()
                .map(|&mu| {
                    let vals: Vec<f64> = (0..r)
                        .map(|_| {
                            // Approximate N(mu, sigma) via CLT of 12 uniforms.
                            let u: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
                            mu + sigma * u
                        })
                        .collect();
                    group(&vals)
                })
                .collect();
            let iv = ci.interval(EstimatorKind::Avg, &groups, None);
            if iv.lower <= truth && truth <= iv.upper {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.85, "coverage {rate} too low");
    }

    #[test]
    fn fewer_than_two_groups_scores_zero() {
        let ci = InterestingnessCi::new(Interestingness::Variance, 0.95);
        let iv = ci.interval(EstimatorKind::Avg, &[group(&[1.0, 2.0])], None);
        assert_eq!(iv, ScoreInterval::exact(0.0));
    }
}
