//! Property-based tests of the numerical kernels.

use dsa_stats::dist::{f_cdf, student_t_cdf, student_t_quantile, student_t_two_sided_p};
use dsa_stats::encode::{dummy_code, NamedColumn};
use dsa_stats::matrix::Matrix;
use dsa_stats::ols::{fit, nested_f_test, partial_eta_squared, residual_ss};
use dsa_stats::special::{beta_inc, erf, ln_gamma};
use proptest::prelude::*;

/// A deterministic pseudo-random level in `0..levels` for row `i` of
/// dummy-coded synthetic designs (splitmix-style mix, no RNG state).
fn synthetic_level(i: usize, salt: u64, levels: usize) -> usize {
    let mut z = (i as u64)
        .wrapping_add(salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize % levels
}

/// An `n`, then `n·n` matrix entries in `-scale..scale` and `n` right-hand
/// side entries in `-10..10`.
fn square_system(
    sizes: std::ops::Range<usize>,
    scale: f64,
) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    sizes.prop_flat_map(move |n| {
        (
            Just(n),
            proptest::collection::vec(-scale..scale, n * n),
            proptest::collection::vec(-10.0f64..10.0, n),
        )
    })
}

proptest! {
    /// Cholesky-based solves actually solve: ‖Ax − b‖ small for random
    /// SPD matrices A = MᵀM + I of every size up to 40, which covers every
    /// remainder of the factorization's row blocks.
    #[test]
    fn spd_solve_residual((n, entries, b) in square_system(1..41, 3.0)) {
        let m = Matrix::from_rows(n, n, &entries);
        let mut a = m.gram();
        for i in 0..n {
            a[(i, i)] += 1.0; // guarantee positive definiteness
        }
        let x = a.solve_spd(&b).expect("SPD by construction");
        let ax = a.vec_mul(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-6, "n={} residual {} vs {}", n, l, r);
        }
    }

    /// The SPD inverse really inverts, across row-block remainders.
    #[test]
    fn spd_inverse_identity((n, entries, _) in square_system(1..20, 2.0)) {
        let m = Matrix::from_rows(n, n, &entries);
        let mut a = m.gram();
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let inv = a.inverse_spd().expect("SPD");
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-8, "n={}", n);
    }

    /// ln_gamma satisfies the recurrence Γ(x+1) = xΓ(x).
    #[test]
    fn ln_gamma_recurrence(x in 0.05f64..50.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-8, "x={}", x);
    }

    /// The regularized incomplete beta stays in [0,1] and respects its
    /// symmetry identity.
    #[test]
    fn beta_inc_bounds_and_symmetry(a in 0.1f64..20.0, b in 0.1f64..20.0, x in 0.0f64..1.0) {
        let v = beta_inc(a, b, x);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        let sym = 1.0 - beta_inc(b, a, 1.0 - x);
        prop_assert!((v - sym).abs() < 1e-8);
    }

    /// erf is odd and bounded.
    #[test]
    fn erf_odd_bounded(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!(erf(x).abs() <= 1.0 + 1e-12);
    }

    /// The t CDF is monotone in its argument.
    #[test]
    fn t_cdf_monotone(df in 1.0f64..100.0, a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(student_t_cdf(lo, df) <= student_t_cdf(hi, df) + 1e-12);
    }

    /// Quantile inverts the CDF across the usable range.
    #[test]
    fn t_quantile_inverts(df in 1.0f64..60.0, p in 0.01f64..0.99) {
        let q = student_t_quantile(p, df);
        prop_assert!((student_t_cdf(q, df) - p).abs() < 1e-6);
    }

    /// Two-sided p-values live in [0,1] and shrink with |t|.
    #[test]
    fn p_value_monotone_in_t(df in 1.0f64..60.0, t1 in 0.0f64..6.0, t2 in 0.0f64..6.0) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let p_lo = student_t_two_sided_p(lo, df);
        let p_hi = student_t_two_sided_p(hi, df);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!(p_hi <= p_lo + 1e-12);
    }

    /// The F CDF is a CDF: bounded, monotone, and consistent with the
    /// squared-t identity F(1, df) = T(df)².
    #[test]
    fn f_cdf_bounded_monotone(d1 in 1.0f64..30.0, d2 in 1.0f64..60.0, a in 0.0f64..20.0, b in 0.0f64..20.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = f_cdf(lo, d1, d2);
        let c_hi = f_cdf(hi, d1, d2);
        prop_assert!((0.0..=1.0).contains(&c_lo));
        prop_assert!(c_hi >= c_lo - 1e-12);
    }

    /// OLS recovers planted coefficients on synthetic Table 3-shaped data:
    /// y = intercept + Σ effect[level] + slope·z + interaction·[top level]·z
    /// + small deterministic noise, with a numeric covariate `z` beside the
    /// dummies and one dummy × covariate interaction column. Every
    /// non-baseline level's estimate, the slope and the interaction must be
    /// within tolerance of what was planted.
    #[test]
    fn fit_recovers_planted_dummy_effects(
        levels in 2usize..5,
        salt in 0u64..1_000_000,
        intercept in -2.0f64..2.0,
        effect_scale in 0.2f64..3.0,
        slope in -1.0f64..1.0,
        interaction in -1.0f64..1.0,
    ) {
        let n = 240;
        let values: Vec<usize> = (0..n).map(|i| synthetic_level(i, salt, levels)).collect();
        // Every level must actually occur, or its dummy column is zero.
        prop_assume!((0..levels).all(|l| values.contains(&l)));
        let top = levels - 1;
        let z: Vec<f64> = (0..n)
            .map(|i| synthetic_level(i, salt ^ 0x5A, 201) as f64 / 100.0 - 1.0)
            .collect();
        // Planted per-level effects, level 0 = baseline = 0.
        let effect = |l: usize| effect_scale * l as f64;
        let y: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let noise = ((i * 37 % 11) as f64 - 5.0) / 500.0;
                let inter = if l == top { interaction * z[i] } else { 0.0 };
                intercept + effect(l) + slope * z[i] + inter + noise
            })
            .collect();
        let names: Vec<String> = (0..levels).map(|l| format!("L{l}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut cols = dsa_stats::encode::dummy_columns(&values, &name_refs);
        let top_dummy: Vec<f64> = cols[top - 1].values.iter().zip(&z).map(|(d, z)| d * z).collect();
        cols.push(NamedColumn::new("z", z));
        cols.push(NamedColumn::new("top:z", top_dummy));
        let f = fit(&cols, &y).expect("full-rank design");
        prop_assert!((f.terms[0].estimate - intercept).abs() < 0.05, "intercept {}", f.terms[0].estimate);
        for (j, term) in f.terms.iter().skip(1).take(levels - 1).enumerate() {
            let planted = effect(j + 1);
            prop_assert!(
                (term.estimate - planted).abs() < 0.05,
                "level {} estimate {} vs planted {}", j + 1, term.estimate, planted
            );
        }
        prop_assert!((f.terms[levels].estimate - slope).abs() < 0.05, "slope {}", f.terms[levels].estimate);
        prop_assert!(
            (f.terms[levels + 1].estimate - interaction).abs() < 0.05,
            "interaction {}", f.terms[levels + 1].estimate
        );
        prop_assert!(f.adj_r_squared > 0.95);
    }

    /// Partial η² is in [0,1] for every dimension of a two-dimension
    /// dummy-coded design, and on a *balanced factorial* design (the shape
    /// of every DSA space) the explained-share decomposition is
    /// sum-bounded: Σ (SS_res_reduced − SS_res_full)/SS_tot ≤ 1 + ε.
    /// (With unbalanced, correlated dummies suppression effects can push
    /// the sum past 1 — that is a property of Type-III sums of squares,
    /// not a bug — so the test plants the balanced case.)
    #[test]
    fn partial_eta_squared_bounded(
        la in 2usize..4,
        lb in 2usize..4,
        salt in 0u64..1_000_000,
        wa in 0.0f64..2.0,
        wb in 0.0f64..2.0,
    ) {
        // Balanced full factorial: every (a, b) combination occurs equally
        // often; the salt rotates the level assignment without unbalancing.
        let cell = la * lb;
        let n = cell * 200_usize.div_ceil(cell);
        let a_vals: Vec<usize> = (0..n).map(|i| (i + salt as usize) % la).collect();
        let b_vals: Vec<usize> = (0..n).map(|i| (i / la + salt as usize) % lb).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let noise = ((i * 61 % 13) as f64 - 6.0) / 30.0;
                wa * a_vals[i] as f64 + wb * b_vals[i] as f64 + noise
            })
            .collect();
        let mut cols: Vec<NamedColumn> = Vec::new();
        for (j, col) in dummy_code(&a_vals, la).into_iter().enumerate() {
            cols.push(NamedColumn::new(format!("A{}", j + 1), col));
        }
        let a_cols = cols.len();
        for (j, col) in dummy_code(&b_vals, lb).into_iter().enumerate() {
            cols.push(NamedColumn::new(format!("B{}", j + 1), col));
        }
        let full = residual_ss(&cols, &y).expect("full-rank");
        let mut explained_sum = 0.0;
        for (lo, hi) in [(0, a_cols), (a_cols, cols.len())] {
            let reduced_cols: Vec<NamedColumn> = cols
                .iter()
                .enumerate()
                .filter(|(j, _)| *j < lo || *j >= hi)
                .map(|(_, c)| c.clone())
                .collect();
            let reduced = residual_ss(&reduced_cols, &y).expect("full-rank");
            let eta = partial_eta_squared(&full, &reduced);
            prop_assert!((0.0..=1.0).contains(&eta), "partial eta {}", eta);
            let (f_stat, p) = nested_f_test(&full, &reduced);
            prop_assert!(f_stat >= 0.0);
            prop_assert!(p.is_nan() || (0.0..=1.0).contains(&p));
            explained_sum += (reduced.ss_res - full.ss_res) / full.ss_tot;
        }
        // The per-dimension explained shares can never exceed the whole.
        prop_assert!(explained_sum <= 1.0 + 1e-9, "sum {}", explained_sum);
    }
}
