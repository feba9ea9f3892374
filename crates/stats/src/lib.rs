//! Statistics substrate for Spade's interestingness scoring and early-stop
//! pruning (Sections 3, 5 and Appendices A–C of the paper).
//!
//! * [`moments`] — numerically stable online central moments;
//! * [`interestingness`] — the three built-in interestingness functions
//!   (variance, skewness, kurtosis) with their analytic gradients, needed by
//!   the Multivariate Delta Method;
//! * [`normal`] — standard normal CDF and quantile function (for the
//!   `z_{1−α}` critical values of Theorem 2);
//! * [`ci`] — the large-sample confidence interval around the estimated
//!   interestingness score (Theorem 2, Appendices B and C).
//!
//! The stratified per-group samples of Section 5.3 are drawn in `spade-cube`
//! (`translate`), as mergeable bottom-k samples.

pub mod ci;
pub mod interestingness;
pub mod moments;
pub mod normal;

pub use ci::{GroupSample, InterestingnessCi, ScoreInterval};
pub use interestingness::Interestingness;
pub use moments::RunningMoments;
pub use normal::{normal_cdf, normal_quantile};
