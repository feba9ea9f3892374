//! Online central moments up to order four.
//!
//! The Aggregate Result Manager scans every aggregate result once (Section 3,
//! Step 4: "incrementally updates statistics ... in one pass over their
//! results"), so the moment accumulator must be single-pass. We use the
//! standard numerically stable update formulas (Pébay 2008), which extend
//! Welford's algorithm to third and fourth moments.

/// Single-pass accumulator of count, mean and 2nd–4th central moments.
#[derive(Clone, Copy, Debug)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

/// `Default` equals `RunningMoments::new`: an *empty* accumulator with
/// `min = +∞` / `max = −∞` sentinels (a derived all-zero default would
/// silently corrupt `min()` for positive-valued data).
impl Default for RunningMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        RunningMoments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every value of a slice.
    pub(crate) fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Builds an accumulator over a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Self::new();
        m.extend(xs);
        m
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation (`+inf` when empty).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance `1/(n−1) Σ (x−x̄)²` — the paper's Eq. (1).
    pub(crate) fn variance_unbiased(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population variance `m₂ = 1/n Σ (x−x̄)²`.
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Third central moment `m₃ = 1/n Σ (x−x̄)³`.
    pub fn third_central(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m3 / self.n as f64
        }
    }

    /// Fourth central moment `m₄ = 1/n Σ (x−x̄)⁴`.
    pub fn fourth_central(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m4 / self.n as f64
        }
    }

    /// Moment-ratio skewness `m₃ / m₂^{3/2}` (0 for degenerate data).
    pub(crate) fn skewness(&self) -> f64 {
        let m2 = self.variance_population();
        if self.n < 3 || m2 <= f64::EPSILON {
            0.0
        } else {
            self.third_central() / m2.powf(1.5)
        }
    }

    /// Excess kurtosis `m₄ / m₂² − 3` (0 for degenerate data).
    pub(crate) fn kurtosis_excess(&self) -> f64 {
        let m2 = self.variance_population();
        if self.n < 4 || m2 <= f64::EPSILON {
            0.0
        } else {
            self.fourth_central() / (m2 * m2) - 3.0
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        self.mean = (na * self.mean + nb * other.mean) / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        (mean, m2, m3, m4)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m = RunningMoments::from_slice(&xs);
        let (mean, m2, m3, m4) = naive(&xs);
        assert!(close(m.mean(), mean));
        assert!(close(m.variance_population(), m2));
        assert!(close(m.third_central(), m3));
        assert!(close(m.fourth_central(), m4));
        assert!(close(m.variance_unbiased(), m2 * 8.0 / 7.0));
    }

    #[test]
    fn symmetric_data_has_zero_skew() {
        let m = RunningMoments::from_slice(&[-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert!(m.skewness().abs() < 1e-12);
    }

    #[test]
    fn right_tail_gives_positive_skew() {
        let m = RunningMoments::from_slice(&[1.0, 1.0, 1.0, 1.0, 100.0]);
        assert!(m.skewness() > 1.0);
    }

    #[test]
    fn uniform_kurtosis_is_negative_normalish_near_zero() {
        // Discrete uniform has excess kurtosis −1.2 in the limit.
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let m = RunningMoments::from_slice(&xs);
        assert!((m.kurtosis_excess() + 1.2).abs() < 0.01);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let mut m = RunningMoments::new();
        assert_eq!(m.variance_unbiased(), 0.0);
        m.push(5.0);
        assert_eq!(m.variance_unbiased(), 0.0);
        assert_eq!(m.skewness(), 0.0);
        assert_eq!(m.kurtosis_excess(), 0.0);
        m.push(5.0);
        m.push(5.0);
        m.push(5.0);
        assert_eq!(m.variance_population(), 0.0);
        assert_eq!(m.skewness(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 10.0).collect();
        let b: Vec<f64> = (0..91).map(|i| (i as f64).cos() * 3.0 + 2.0).collect();
        let mut left = RunningMoments::from_slice(&a);
        let right = RunningMoments::from_slice(&b);
        left.merge(&right);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let seq = RunningMoments::from_slice(&all);
        assert!(close(left.mean(), seq.mean()));
        assert!(close(left.variance_population(), seq.variance_population()));
        assert!(close(left.third_central(), seq.third_central()));
        assert!(close(left.fourth_central(), seq.fourth_central()));
        assert_eq!(left.count(), seq.count());
        assert_eq!(left.min(), seq.min());
        assert_eq!(left.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = RunningMoments::from_slice(&[1.0, 2.0, 3.0]);
        let mut b = a;
        b.merge(&RunningMoments::new());
        assert!(close(a.variance_unbiased(), b.variance_unbiased()));
        let mut empty = RunningMoments::new();
        empty.merge(&a);
        assert!(close(empty.mean(), a.mean()));
    }

    #[test]
    fn tracks_min_max() {
        let m = RunningMoments::from_slice(&[3.0, -1.0, 7.5, 2.0]);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 7.5);
    }
}
