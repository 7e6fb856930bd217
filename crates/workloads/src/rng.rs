//! Portable, seed-stable pseudo-random number generation.
//!
//! The simulators in this workspace are *measurement instruments*: their
//! outputs are compared against the paper, and `perfbench/` pins their
//! digests.
//! That makes stream stability a correctness property — re-running an
//! experiment with the same seed must yield bit-identical traces on any
//! platform and any future version of this workspace. We therefore pin the
//! generator to a fixed, published algorithm (xoshiro256++ by Blackman &
//! Vigna) with a fixed seeding procedure (splitmix64) instead of depending
//! on an external crate whose stream may change between releases.
//!
//! xoshiro256++ is not cryptographically secure; it is a simulation PRNG
//! with a 2^256 − 1 period, excellent statistical quality (passes BigCrush)
//! and a ~1 ns step, which matters here because a full PRA sweep draws on
//! the order of 10^9 variates.

/// One step of the splitmix64 generator.
///
/// Splitmix64 is used (a) to expand a 64-bit seed into the 256-bit state of
/// [`Xoshiro256pp`] — the construction recommended by the xoshiro authors —
/// and (b) by [`crate::seeds::SeedSeq`] to derive independent child seeds.
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use dsa_workloads::rng::Xoshiro256pp;
///
/// let mut rng = Xoshiro256pp::seed_from_u64(42);
/// let x = rng.next_f64();
/// assert!((0.0..1.0).contains(&x));
///
/// // Same seed, same stream: the property every experiment relies on.
/// let mut rng2 = Xoshiro256pp::seed_from_u64(42);
/// assert_eq!(rng2.next_f64(), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a full 256-bit state.
    ///
    /// The state must not be all zeroes (the all-zero state is a fixed
    /// point); if it is, a fixed non-zero fallback state is substituted.
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        if state == [0; 4] {
            // Derived from seed_from_u64(0); any non-zero state works.
            Self::seed_from_u64(0)
        } else {
            Self { s: state }
        }
    }

    /// Seeds the 256-bit state from a 64-bit seed by running splitmix64,
    /// as recommended by the xoshiro reference implementation.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Returns the next 64 uniformly distributed random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 is the spacing of doubles in [0.5, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias,
    /// using Lemire's multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            // Rejection zone: 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Used by session-length churn models. Returns `f64::INFINITY` if the
    /// mean is infinite, and `0.0` for non-positive means.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if mean.is_infinite() {
            return f64::INFINITY;
        }
        // Inverse-CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Forks an independent generator.
    ///
    /// The child state is derived by running splitmix64 over fresh output of
    /// `self`, so child streams are statistically independent of the parent
    /// continuation as well as of each other.
    #[must_use]
    pub fn fork(&mut self) -> Self {
        let mut sm = self.next_u64();
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self::from_state(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector for splitmix64 with seed 1234567, from the public
    /// domain reference implementation by Sebastiano Vigna.
    #[test]
    fn splitmix64_reference_vector() {
        let mut state = 1234567u64;
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(splitmix64(&mut state), e);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn golden_stream_seed_42() {
        // Regression pin: if this test ever fails, the PRNG stream changed
        // and every recorded experiment output is invalidated.
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                15021278609987233951u64,
                5881210131331364753,
                18149643915985481100,
                12933668939759105464,
            ]
        );
        // Cross-check the seeding path: state must equal four splitmix64
        // outputs of the seed.
        let mut sm = 42u64;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        let mut reference = Xoshiro256pp::from_state(state);
        let mut fresh = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(reference.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_close_to_half() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_small_bound() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut counts = [0u32; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[rng.below(3) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 3.0;
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.05,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        for bound in [1u64, 2, 7, 50, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = rng.below(0);
    }

    #[test]
    fn range_u64_inclusive() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_u64(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p={p}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_edge_cases() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-3.0), 0.0);
        assert_eq!(rng.exponential(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Xoshiro256pp::seed_from_u64(37);
        let mut child_a = parent.fork();
        let mut child_b = parent.fork();
        let a: Vec<u64> = (0..32).map(|_| child_a.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| child_b.next_u64()).collect();
        let p: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        assert_ne!(a, b);
        assert_ne!(a, p);
        assert_ne!(b, p);
    }

    #[test]
    fn zero_state_is_replaced() {
        let mut rng = Xoshiro256pp::from_state([0; 4]);
        // Would be stuck at 0 forever if the guard were missing.
        assert_ne!(rng.next_u64() | rng.next_u64(), 0);
    }
}
