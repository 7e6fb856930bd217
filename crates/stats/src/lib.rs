//! Statistics substrate for the DSA reproduction.
//!
//! The paper's evaluation is as much a statistics exercise as a systems one:
//! Table 3 is a multiple linear regression with dummy-coded categorical
//! design dimensions, Figures 2–8 are scatter plots, histograms, 2-D
//! histograms and complementary CDFs, and Figures 9–10 carry 95% confidence
//! intervals. This crate implements all of that from scratch:
//!
//! * [`matrix`] — a small dense-matrix type with Cholesky factorization,
//!   enough linear algebra for ordinary least squares.
//! * [`special`] — log-gamma, regularized incomplete beta, error function;
//!   the machinery behind Student-t p-values and confidence intervals.
//! * [`dist`] — Student-t, Fisher F and normal distribution helpers built
//!   on [`special`].
//! * [`ols`] — multiple linear regression: coefficients, standard errors,
//!   t-values, p-values, (adjusted) R² — everything Table 3 reports — plus
//!   the nested-model machinery (`residual_ss`, `nested_f_test`,
//!   `partial_eta_squared`) the variance-attribution subsystem
//!   (`dsa-attribution`) fits per design dimension.
//! * [`encode`] — dummy coding for categorical variables and z-score
//!   standardization (the paper's `h̃`, `k̃`).
//! * [`describe`] — means, variances, quantiles, five-number summaries.
//! * [`correlation`] — Pearson and Spearman coefficients (Figures 2, 8 and
//!   the 50/50-vs-90/10 robustness check quote Pearson's r).
//! * [`histogram`] — 1-D and 2-D histograms (Figures 2–4).
//! * [`ccdf`] — complementary CDF curves (Figure 5).
//! * [`ci`] — t-based confidence intervals (error bars of Figures 9–10).
//! * [`nonparametric`] — Mann-Whitney U, backing the Figures 9–10
//!   significance claims without normality assumptions.
//! * [`ascii`] — terminal renderings of scatter plots, histograms and bar
//!   charts so the experiment harness can "print the figure".
//! * [`hull`] — 3-D convex hull volume, summarizing the shape of a PRA
//!   point cloud for the cross-domain cube comparison.

pub mod ascii;
pub mod ccdf;
pub mod ci;
pub mod correlation;
pub mod describe;
pub mod dist;
pub mod encode;
pub mod histogram;
pub mod hull;
pub mod matrix;
pub mod nonparametric;
pub mod ols;
#[cfg(test)]
mod reference;
pub mod special;

pub use ci::ConfidenceInterval;
pub use correlation::pearson;
pub use matrix::Matrix;
pub use ols::{OlsFit, OlsTerm};
