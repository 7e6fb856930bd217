//! Upload-capacity distributions for peer populations.
//!
//! The paper initializes the cycle simulator and the BitTorrent validation
//! experiments "using the bandwidth distribution provided by Piatek et
//! al." — the measured upload capacities of BitTorrent hosts from *Do
//! incentives build robustness in BitTorrent?* (NSDI'07). We do not have the
//! raw trace, so [`BandwidthDist::Piatek`] encodes a piecewise log-linear
//! approximation of the published CDF (`PIATEK_CDF_KBPS` below): a long-tailed
//! distribution where most hosts upload a few tens of KiB/s and a small
//! fraction uploads two orders of magnitude more. Every effect the paper
//! derives from the distribution (bandwidth classes, opportunity-cost
//! asymmetries between fast and slow peers) depends only on this shape.
//!
//! All values are in KiB per time unit (KiB/round in the cycle simulator,
//! KiB/s in the piece-level simulator).

use crate::rng::Xoshiro256pp;

/// Approximate percentiles of the Piatek et al. NSDI'07 upload-capacity
/// measurement, as (cumulative probability, capacity in kbit/s) pairs.
///
/// The curve is interpolated log-linearly between entries; this reproduces
/// the published median (~350 kbit/s) and the heavy tail up to tens of
/// Mbit/s.
const PIATEK_CDF_KBPS: &[(f64, f64)] = &[
    (0.00, 40.0),
    (0.05, 64.0),
    (0.10, 128.0),
    (0.20, 256.0),
    (0.35, 320.0),
    (0.50, 350.0),
    (0.60, 512.0),
    (0.70, 900.0),
    (0.80, 1500.0),
    (0.90, 3000.0),
    (0.95, 5000.0),
    (0.99, 10_000.0),
    (1.00, 40_000.0),
];

const KBIT_TO_KIB: f64 = 1.0 / 8.0;

/// A distribution of peer upload capacities.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthDist {
    /// Every peer has the same capacity.
    Constant(f64),
    /// Uniform between `lo` and `hi`.
    Uniform {
        /// Lower bound (inclusive), KiB per time unit.
        lo: f64,
        /// Upper bound (exclusive), KiB per time unit.
        hi: f64,
    },
    /// Two bandwidth classes, the setting of the paper's Section 2 analysis.
    TwoClass {
        /// Capacity of the fast class.
        fast: f64,
        /// Capacity of the slow class.
        slow: f64,
        /// Fraction of peers in the fast class, in `[0, 1]`.
        fast_fraction: f64,
    },
    /// The empirical Piatek et al. NSDI'07 approximation (see module docs).
    Piatek,
    /// An arbitrary empirical CDF given as (cumulative probability, value)
    /// pairs; interpolated linearly. Probabilities must be increasing and
    /// span 0.0..=1.0.
    Empirical(Vec<(f64, f64)>),
}

impl BandwidthDist {
    /// Draws one capacity.
    ///
    /// Returned values are strictly positive for all built-in variants as
    /// long as the variant parameters are positive.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        match self {
            Self::Constant(v) => *v,
            Self::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Self::TwoClass {
                fast,
                slow,
                fast_fraction,
            } => {
                if rng.chance(*fast_fraction) {
                    *fast
                } else {
                    *slow
                }
            }
            Self::Piatek => piatek_quantile(rng.next_f64()),
            Self::Empirical(table) => empirical_quantile(table, rng.next_f64(), false),
        }
    }

    /// The quantile function (inverse CDF) at cumulative probability `q`,
    /// clamped to `[0, 1]`.
    ///
    /// For [`BandwidthDist::TwoClass`] the quantile is the slow capacity for
    /// `q` below the slow fraction and the fast capacity above it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        match self {
            Self::Constant(v) => *v,
            Self::Uniform { lo, hi } => lo + (hi - lo) * q,
            Self::TwoClass {
                fast,
                slow,
                fast_fraction,
            } => {
                if q < 1.0 - fast_fraction {
                    *slow
                } else {
                    *fast
                }
            }
            Self::Piatek => piatek_quantile(q),
            Self::Empirical(table) => empirical_quantile(table, q, false),
        }
    }

    /// Draws capacities for a whole population.
    pub fn sample_n(&self, n: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Deterministic population: the i-th of n peers gets the
    /// `(i + 0.5) / n` quantile. Useful for variance-free comparisons where
    /// only the protocol under test should differ between runs.
    #[must_use]
    pub fn stratified_n(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .collect()
    }
}

/// Quantile of the Piatek approximation, converted to KiB per time unit.
fn piatek_quantile(q: f64) -> f64 {
    empirical_quantile(PIATEK_CDF_KBPS, q, true) * KBIT_TO_KIB
}

/// Interpolates an empirical CDF table at cumulative probability `q`.
///
/// With `log_interp` the value axis is interpolated in log space, which is
/// the natural scale for capacity distributions spanning three decades.
fn empirical_quantile(table: &[(f64, f64)], q: f64, log_interp: bool) -> f64 {
    assert!(
        table.len() >= 2,
        "empirical CDF needs at least two points, got {}",
        table.len()
    );
    let q = q.clamp(0.0, 1.0);
    let mut prev = table[0];
    for &cur in &table[1..] {
        debug_assert!(cur.0 >= prev.0, "CDF probabilities must be nondecreasing");
        if q <= cur.0 {
            let span = cur.0 - prev.0;
            let t = if span <= 0.0 {
                1.0
            } else {
                (q - prev.0) / span
            };
            return if log_interp {
                (prev.1.ln() + t * (cur.1.ln() - prev.1.ln())).exp()
            } else {
                prev.1 + t * (cur.1 - prev.1)
            };
        }
        prev = cur;
    }
    table[table.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(1)
    }

    #[test]
    fn constant_is_constant() {
        let d = BandwidthDist::Constant(50.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 50.0);
        }
        assert_eq!(d.quantile(0.3), 50.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = BandwidthDist::Uniform { lo: 10.0, hi: 20.0 };
        let mut r = rng();
        let xs = d.sample_n(50_000, &mut r);
        assert!(xs.iter().all(|&x| (10.0..20.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 15.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn two_class_fractions() {
        let d = BandwidthDist::TwoClass {
            fast: 100.0,
            slow: 10.0,
            fast_fraction: 0.25,
        };
        let mut r = rng();
        let xs = d.sample_n(40_000, &mut r);
        let fast = xs.iter().filter(|&&x| x == 100.0).count();
        let frac = fast as f64 / xs.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
        assert!(xs.iter().all(|&x| x == 100.0 || x == 10.0));
    }

    #[test]
    fn two_class_quantile_split() {
        let d = BandwidthDist::TwoClass {
            fast: 100.0,
            slow: 10.0,
            fast_fraction: 0.2,
        };
        assert_eq!(d.quantile(0.5), 10.0);
        assert_eq!(d.quantile(0.9), 100.0);
    }

    #[test]
    fn piatek_median_matches_published() {
        // Published median ~350 kbit/s = 43.75 KiB/s.
        let med = BandwidthDist::Piatek.quantile(0.5);
        assert!((med - 350.0 / 8.0).abs() < 1.0, "median {med}");
    }

    #[test]
    fn piatek_is_long_tailed() {
        let d = BandwidthDist::Piatek;
        let p10 = d.quantile(0.10);
        let p99 = d.quantile(0.99);
        assert!(
            p99 / p10 > 50.0,
            "tail ratio too small: p10={p10} p99={p99}"
        );
    }

    #[test]
    fn piatek_quantile_monotone() {
        let d = BandwidthDist::Piatek;
        let mut last = 0.0;
        for i in 0..=100 {
            let v = d.quantile(i as f64 / 100.0);
            assert!(v >= last, "quantile not monotone at {i}");
            last = v;
        }
    }

    #[test]
    fn piatek_samples_positive_and_bounded() {
        let d = BandwidthDist::Piatek;
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!(v > 0.0);
            assert!(v <= 40_000.0 / 8.0);
        }
    }

    #[test]
    fn stratified_population_is_sorted_and_deterministic() {
        let d = BandwidthDist::Piatek;
        let a = d.stratified_n(50);
        let b = d.stratified_n(50);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn empirical_linear_interpolation() {
        let d = BandwidthDist::Empirical(vec![(0.0, 0.0), (1.0, 10.0)]);
        assert!((d.quantile(0.25) - 2.5).abs() < 1e-12);
        assert!((d.quantile(1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let d = BandwidthDist::Piatek;
        assert_eq!(d.quantile(-0.5), d.quantile(0.0));
        assert_eq!(d.quantile(1.5), d.quantile(1.0));
    }
}
