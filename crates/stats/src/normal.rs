//! Standard normal distribution: CDF `Φ` and quantile `Φ⁻¹`.
//!
//! Theorem 2 standardizes the Delta-Method limit and takes "quantiles of the
//! standard normal distribution as the interval's ends"; `z_p` is the
//! `(p+1)/2` quantile of `Φ`. We implement `Φ` via the Abramowitz & Stegun
//! 7.1.26 `erf` approximation and `Φ⁻¹` via Acklam's rational approximation
//! (relative error < 1.15e−9), both dependency-free.

/// Cumulative distribution function of `N(0, 1)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (A&S 7.1.26, |error| ≤ 1.5e−7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Quantile function (inverse CDF) of `N(0, 1)` — Acklam's algorithm.
///
/// # Panics
/// Panics when `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The two-sided critical value `z` such that `P(|Z| ≤ z) = confidence`,
/// i.e. the `(confidence+1)/2` quantile used by Theorem 2.
pub(crate) fn two_sided_z(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    normal_quantile((confidence + 1.0) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.0249979).abs() < 1e-5);
        assert!((normal_cdf(3.0) - 0.9986501).abs() < 1e-5);
    }

    #[test]
    fn quantile_reference_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.9995) - 3.290527).abs() < 1e-4);
        assert!((normal_quantile(1e-10) + 6.361341).abs() < 1e-3);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-5, "p={p}");
        }
    }

    #[test]
    fn two_sided_critical_values() {
        assert!((two_sided_z(0.95) - 1.959964).abs() < 1e-5);
        assert!((two_sided_z(0.90) - 1.644854).abs() < 1e-5);
        assert!((two_sided_z(0.99) - 2.575829).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn rejects_out_of_range() {
        normal_quantile(1.0);
    }
}
