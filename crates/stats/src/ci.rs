//! Confidence intervals for sample means.
//!
//! Figures 9–10 report averages over ≥10 runs with 95% confidence-interval
//! error bars; this module computes the standard t-based interval.

use crate::describe::{mean, std_error};
use crate::dist::student_t_quantile;

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The sample mean.
    pub mean: f64,
    /// Half-width of the interval (the error-bar length).
    pub half_width: f64,
    /// The confidence level used, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Computes a t-based interval at the given confidence level.
    ///
    /// For samples of fewer than two observations the half-width is NaN
    /// (no spread can be estimated).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in (0, 1).
    #[must_use]
    pub fn of(sample: &[f64], level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1), got {level}"
        );
        let m = mean(sample);
        if sample.len() < 2 {
            return Self {
                mean: m,
                half_width: f64::NAN,
                level,
            };
        }
        let df = (sample.len() - 1) as f64;
        let t_crit = student_t_quantile(0.5 + level / 2.0, df);
        Self {
            mean: m,
            half_width: t_crit * std_error(sample),
            level,
        }
    }

    /// The conventional 95% interval.
    #[must_use]
    pub fn ci95(sample: &[f64]) -> Self {
        Self::of(sample, 0.95)
    }

    /// Lower bound.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether this interval overlaps another — the paper's informal test
    /// for "the difference is statistically significant" in Figures 9–10
    /// (non-overlap ⇒ significant).
    #[must_use]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.lo() <= other.hi() && other.lo() <= self.hi()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    /// `mean ± half-width`; a one-sample interval (NaN half-width) prints
    /// its mean and says that it has no interval.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.half_width.is_nan() {
            write!(f, "{:.3} (one sample, no interval)", self.mean)
        } else {
            write!(f, "{:.3} ± {:.3}", self.mean, self.half_width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_interval() {
        // Sample with mean 3, sd 1.5811, n 5: t_{0.975,4} = 2.776.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ci = ConfidenceInterval::ci95(&xs);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        let want = 2.776 * (2.5f64).sqrt() / (5.0f64).sqrt();
        assert!((ci.half_width - want).abs() < 2e-3, "{ci}");
    }

    #[test]
    fn bounds_are_symmetric() {
        let xs = [10.0, 12.0, 9.0, 11.0];
        let ci = ConfidenceInterval::ci95(&xs);
        assert!((ci.hi() - ci.mean - (ci.mean - ci.lo())).abs() < 1e-12);
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let c90 = ConfidenceInterval::of(&xs, 0.90);
        let c99 = ConfidenceInterval::of(&xs, 0.99);
        assert!(c99.half_width > c90.half_width);
    }

    #[test]
    fn single_observation_has_nan_width() {
        let ci = ConfidenceInterval::ci95(&[42.0]);
        assert_eq!(ci.mean, 42.0);
        assert!(ci.half_width.is_nan());
    }

    #[test]
    fn display_prints_the_interval_or_says_there_is_none() {
        let two = ConfidenceInterval::ci95(&[1.0, 2.0]);
        assert_eq!(two.to_string(), "1.500 ± 6.353");
        let one = ConfidenceInterval::ci95(&[254.831]);
        assert_eq!(one.to_string(), "254.831 (one sample, no interval)");
    }

    #[test]
    fn overlap_detection() {
        let a = ConfidenceInterval {
            mean: 10.0,
            half_width: 1.0,
            level: 0.95,
        };
        let b = ConfidenceInterval {
            mean: 11.5,
            half_width: 1.0,
            level: 0.95,
        };
        let c = ConfidenceInterval {
            mean: 20.0,
            half_width: 1.0,
            level: 0.95,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn invalid_level_panics() {
        let _ = ConfidenceInterval::of(&[1.0, 2.0], 1.0);
    }
}
