//! Statistics substrate for Spade's interestingness scoring and early-stop
//! pruning (Sections 3, 5 and Appendices A–C of the paper).
//!
//! * `moments` — numerically stable online central moments;
//! * `interestingness` — the three built-in interestingness functions
//!   (variance, skewness, kurtosis) with their analytic gradients, needed by
//!   the Multivariate Delta Method;
//! * `normal` — standard normal CDF and quantile function (for the
//!   `z_{1−α}` critical values of Theorem 2);
//! * [`ci`] — the large-sample confidence interval around the estimated
//!   interestingness score (Theorem 2, Appendices B and C).
//!
//! The stratified per-group samples of Section 5.3 are drawn in `spade-cube`
//! (`translate`), as mergeable bottom-k samples.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except the test
//! hooks of the property suite (`tests/prop.rs`), which checks them against
//! direct formulas: [`Interestingness::score`], [`normal_cdf`],
//! [`normal_quantile`] and the [`RunningMoments`] accessors `from_slice`,
//! `mean`, `variance_population`, `third_central`, `fourth_central` and
//! `merge`.

pub mod ci;
pub(crate) mod interestingness;
pub(crate) mod moments;
pub(crate) mod normal;

pub use ci::{GroupSample, InterestingnessCi, ScoreInterval};
pub use interestingness::Interestingness;
pub use moments::RunningMoments;
pub use normal::{normal_cdf, normal_quantile};
