//! The row-oriented kernels that the blocked [`Matrix::cholesky`] and the
//! column-built OLS normal equations replaced, and the convex hull that
//! recomputed every face normal for every point, kept as test references:
//! the production kernels must reproduce every one of their result bits.

use crate::describe::mean;
use crate::encode::NamedColumn;
use crate::matrix::Matrix;
use crate::ols::{summarize, Design, OlsError, OlsFit, SumOfSquares};

/// Row-by-row Cholesky: one dependent dot-product chain per element.
fn cholesky(a: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "cholesky: matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Forward then backward substitution with the lower factor `l`.
fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    Some(cholesky_solve(&cholesky(a)?, b))
}

fn inverse_spd(a: &Matrix) -> Option<Matrix> {
    let l = cholesky(a)?;
    let n = a.rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        let col = cholesky_solve(&l, &e);
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
        e[j] = 0.0;
    }
    Some(inv)
}

/// The dense `n × (p + 1)` design `[1 | predictors]`.
fn design_matrix(predictors: &[NamedColumn], y: &[f64]) -> Result<Matrix, OlsError> {
    let n = y.len();
    if predictors.iter().any(|c| c.values.len() != n) {
        return Err(OlsError::LengthMismatch);
    }
    let p = predictors.len();
    if n <= p + 1 {
        return Err(OlsError::TooFewObservations);
    }
    let mut x = Matrix::zeros(n, p + 1);
    for r in 0..n {
        x[(r, 0)] = 1.0;
        for (j, col) in predictors.iter().enumerate() {
            x[(r, j + 1)] = col.values[r];
        }
    }
    Ok(x)
}

/// `xᵀ v`, row by row.
fn t_vec_mul(x: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.cols()];
    for (r, &vr) in v.iter().enumerate() {
        if vr == 0.0 {
            continue;
        }
        for (o, &xv) in out.iter_mut().zip(x.row(r)) {
            *o += xv * vr;
        }
    }
    out
}

fn sums_of_squares(x: &Matrix, beta: &[f64], y: &[f64]) -> (f64, f64) {
    let fitted = x.vec_mul(beta);
    let y_mean = mean(y);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (i, &yi) in y.iter().enumerate() {
        let r = yi - fitted[i];
        ss_res += r * r;
        let d = yi - y_mean;
        ss_tot += d * d;
    }
    (ss_res, ss_tot)
}

fn fit(predictors: &[NamedColumn], y: &[f64]) -> Result<OlsFit, OlsError> {
    let x = design_matrix(predictors, y)?;
    let gram_inv = inverse_spd(&x.gram()).ok_or(OlsError::Singular)?;
    let beta = gram_inv.vec_mul(&t_vec_mul(&x, y));
    let sums = sums_of_squares(&x, &beta, y);
    Ok(summarize(predictors, y.len(), &gram_inv, &beta, sums))
}

fn residual_ss(predictors: &[NamedColumn], y: &[f64]) -> Result<SumOfSquares, OlsError> {
    let x = design_matrix(predictors, y)?;
    let beta = solve_spd(&x.gram(), &t_vec_mul(&x, y)).ok_or(OlsError::Singular)?;
    let (ss_res, ss_tot) = sums_of_squares(&x, &beta, y);
    Ok(SumOfSquares {
        ss_res,
        ss_tot,
        df_residual: y.len() - (predictors.len() + 1),
    })
}

mod tests {
    use super::*;
    use crate::encode::dummy_code;
    use crate::ols;

    /// splitmix64: a deterministic stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn signed(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        (0..m.rows())
            .flat_map(|i| (0..m.cols()).map(move |j| m[(i, j)].to_bits()))
            .collect()
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of a fit, floats as bits.
    fn fit_bits(f: &Result<OlsFit, OlsError>) -> Result<(Vec<String>, Vec<u64>), OlsError> {
        let f = f.as_ref().map_err(Clone::clone)?;
        let names = f.terms.iter().map(|t| t.name.clone()).collect();
        let mut v: Vec<f64> = f
            .terms
            .iter()
            .flat_map(|t| [t.estimate, t.std_error, t.t_value, t.p_value])
            .collect();
        v.extend([
            f.r_squared,
            f.adj_r_squared,
            f.residual_std_error,
            f.ss_res,
            f.ss_tot,
            f.df_residual as f64,
        ]);
        Ok((names, vec_bits(&v)))
    }

    fn ss_bits(s: &Result<SumOfSquares, OlsError>) -> Result<(u64, u64, usize), OlsError> {
        let s = s.as_ref().map_err(Clone::clone)?;
        Ok((s.ss_res.to_bits(), s.ss_tot.to_bits(), s.df_residual))
    }

    /// `MᵀM + shift·I` for a random square `M`: symmetric positive
    /// definite, with the scale of a Gram matrix.
    fn random_spd(rng: &mut Rng, n: usize, shift: f64) -> Matrix {
        let m = Matrix::from_rows(n, n, &(0..n * n).map(|_| rng.signed()).collect::<Vec<_>>());
        let mut a = m.gram();
        for i in 0..n {
            a[(i, i)] += shift;
        }
        a
    }

    /// Asserts the factor, a solve and the inverse of `a` match the
    /// reference bit for bit; returns whether `a` factored.
    fn assert_matrix_kernels_match(a: &Matrix, rng: &mut Rng) -> bool {
        let n = a.rows();
        let got = a.cholesky();
        let want = cholesky(a);
        assert_eq!(
            got.as_ref().map(bits),
            want.as_ref().map(bits),
            "cholesky, n = {n}"
        );
        let b: Vec<f64> = (0..n).map(|_| 10.0 * rng.signed()).collect();
        assert_eq!(
            a.solve_spd(&b).as_deref().map(vec_bits),
            solve_spd(a, &b).as_deref().map(vec_bits),
            "solve_spd, n = {n}"
        );
        assert_eq!(
            a.inverse_spd().as_ref().map(bits),
            inverse_spd(a).as_ref().map(bits),
            "inverse_spd, n = {n}"
        );
        want.is_some()
    }

    /// The columns as a row-sparse design that reports only each row's
    /// non-zero entries, the way the attribution views do; `None` rows
    /// when the columns disagree in length with the response.
    struct RowSparse {
        names: Vec<String>,
        rows: Option<Vec<Vec<(usize, f64)>>>,
    }

    impl RowSparse {
        fn new(predictors: &[NamedColumn], n: usize) -> Self {
            let rows = predictors.iter().all(|c| c.values.len() == n).then(|| {
                (0..n)
                    .map(|r| {
                        predictors
                            .iter()
                            .enumerate()
                            .map(|(j, c)| (j, c.values[r]))
                            .filter(|&(_, x)| x != 0.0)
                            .collect()
                    })
                    .collect()
            });
            Self {
                names: predictors.iter().map(|c| c.name.clone()).collect(),
                rows,
            }
        }
    }

    impl Design for RowSparse {
        fn width(&self) -> usize {
            self.names.len()
        }

        fn has_rows(&self, n: usize) -> bool {
            self.rows.as_ref().is_some_and(|rows| rows.len() == n)
        }

        fn name(&self, j: usize) -> String {
            self.names[j].clone()
        }

        fn row(&self, r: usize, mut entry: impl FnMut(usize, f64)) {
            let rows = self.rows.as_ref().expect("validated row count");
            for &(j, x) in &rows[r] {
                entry(j, x);
            }
        }
    }

    /// Asserts that `ols::{fit, residual_ss}` reproduce every result bit
    /// of the dense reference, both on the columns themselves and on a
    /// row-sparse design that reports only their non-zero entries.
    fn assert_ols_matches(predictors: &[NamedColumn], y: &[f64]) {
        let want_fit = fit_bits(&fit(predictors, y));
        let want_ss = ss_bits(&residual_ss(predictors, y));
        assert_eq!(fit_bits(&ols::fit(predictors, y)), want_fit, "fit");
        assert_eq!(
            ss_bits(&ols::residual_ss(predictors, y)),
            want_ss,
            "residual_ss"
        );
        let sparse = RowSparse::new(predictors, y.len());
        assert_eq!(fit_bits(&ols::fit(&sparse, y)), want_fit, "row-sparse fit");
        assert_eq!(
            ss_bits(&ols::residual_ss(&sparse, y)),
            want_ss,
            "row-sparse residual_ss"
        );
    }

    /// Dummy columns of `values` (baseline level 0 dropped), named `tag1`, ...
    fn dummies(tag: &str, values: &[usize], levels: usize) -> Vec<NamedColumn> {
        dummy_code(values, levels)
            .into_iter()
            .enumerate()
            .map(|(j, col)| NamedColumn::new(format!("{tag}{}", j + 1), col))
            .collect()
    }

    /// Element-wise products of every pair of columns from `a` and `b`.
    fn interactions(a: &[NamedColumn], b: &[NamedColumn]) -> Vec<NamedColumn> {
        let mut out = Vec::new();
        for ca in a {
            for cb in b {
                let v = ca
                    .values
                    .iter()
                    .zip(&cb.values)
                    .map(|(x, y)| x * y)
                    .collect();
                out.push(NamedColumn::new(format!("{}:{}", ca.name, cb.name), v));
            }
        }
        out
    }

    /// A dummy-coded two-factor design with every interaction column and a
    /// response with main effects, an interaction and noise.
    fn interaction_design(
        rng: &mut Rng,
        n: usize,
        la: usize,
        lb: usize,
    ) -> (Vec<NamedColumn>, Vec<f64>) {
        // Cycle through every cell first so no product column is all-zero.
        let a: Vec<usize> = (0..n)
            .map(|i| if i < la * lb { i % la } else { rng.below(la) })
            .collect();
        let b: Vec<usize> = (0..n)
            .map(|i| if i < la * lb { i / la } else { rng.below(lb) })
            .collect();
        let (da, db) = (dummies("A", &a, la), dummies("B", &b, lb));
        let mut cols = [da.clone(), db.clone()].concat();
        cols.extend(interactions(&da, &db));
        let y = (0..n)
            .map(|i| {
                0.7 * a[i] as f64 - 0.4 * b[i] as f64
                    + 0.3 * (a[i] * b[i]) as f64
                    + 0.1 * rng.signed()
            })
            .collect();
        (cols, y)
    }

    #[test]
    fn cholesky_matches_reference_for_every_block_remainder() {
        let mut rng = Rng(0xC401);
        for n in 1..=40 {
            for shift in [1.0, 1e-3] {
                let a = random_spd(&mut rng, n, shift);
                assert!(
                    assert_matrix_kernels_match(&a, &mut rng),
                    "n = {n} must factor"
                );
                // Both kernels read only the lower triangle.
                let mut junk = a.clone();
                for i in 0..n {
                    for j in i + 1..n {
                        junk[(i, j)] = f64::NAN;
                    }
                }
                assert_eq!(
                    junk.cholesky().as_ref().map(bits),
                    a.cholesky().as_ref().map(bits)
                );
                assert!(assert_matrix_kernels_match(&junk, &mut rng));
            }
        }
    }

    #[test]
    fn cholesky_fails_at_the_same_interior_pivot() {
        let mut rng = Rng(0xC402);
        for n in [3, 9, 16, 17, 29, 40] {
            for k in [1, n / 2, n - 1] {
                let a = random_spd(&mut rng, n, 1.0);
                // A zero, NaN or infinite diagonal makes pivot k fail; a
                // NaN below the diagonal reaches pivot k through its row.
                for (r, c, v) in [
                    (k, k, 0.0),
                    (k, k, -1.0),
                    (k, k, f64::NAN),
                    (k, k, f64::INFINITY),
                    (k, k - 1, f64::NAN),
                    (k, 0, f64::NEG_INFINITY),
                ] {
                    let mut bad = a.clone();
                    bad[(r, c)] = v;
                    assert!(
                        !assert_matrix_kernels_match(&bad, &mut rng),
                        "n = {n}, ({r}, {c}) = {v}"
                    );
                }
                // A zero row and column make pivot k exactly 0.0.
                let mut bad = a.clone();
                for j in 0..n {
                    bad[(k, j)] = 0.0;
                    bad[(j, k)] = 0.0;
                }
                assert!(
                    !assert_matrix_kernels_match(&bad, &mut rng),
                    "n = {n}, zero row {k}"
                );
            }
        }
    }

    #[test]
    fn ols_matches_reference_on_interaction_designs() {
        let mut rng = Rng(0x0150);
        for (n, la, lb) in [(40, 2, 2), (120, 3, 4), (300, 5, 7), (600, 9, 8)] {
            let (cols, y) = interaction_design(&mut rng, n, la, lb);
            assert_ols_matches(&cols, &y);
        }
        // An unobserved interaction cell leaves an all-zero column: both
        // kernels report the same singularity.
        let (mut cols, y) = interaction_design(&mut rng, 300, 3, 4);
        cols[9].values.iter_mut().for_each(|v| *v = 0.0);
        assert_eq!(ols::fit(&cols, &y), Err(OlsError::Singular));
        assert_ols_matches(&cols, &y);
    }

    #[test]
    fn ols_matches_reference_on_table3_shaped_designs() {
        let mut rng = Rng(0x7AB3);
        for n in [50, 400, 3270] {
            // Table 3's mix: two standardized numeric columns, dummy
            // blocks of several widths, exact and negative zeros, and a
            // response with zero entries.
            let mut cols: Vec<NamedColumn> = (0..2)
                .map(|j| {
                    NamedColumn::new(
                        format!("z{j}"),
                        (0..n).map(|_| 2.0 * rng.signed()).collect(),
                    )
                })
                .collect();
            for (tag, levels) in [("B", 3), ("I", 4), ("R", 2), ("S", 5)] {
                let v: Vec<usize> = (0..n).map(|_| rng.below(levels)).collect();
                cols.extend(dummies(tag, &v, levels));
            }
            for (r, v) in cols[1].values.iter_mut().enumerate() {
                if r % 7 == 0 {
                    *v = if r % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let y: Vec<f64> = (0..n)
                .map(|r| {
                    let s: f64 = cols.iter().map(|c| c.values[r]).sum();
                    if r % 11 == 0 {
                        0.0
                    } else {
                        0.5 * s + 0.2 * rng.signed()
                    }
                })
                .collect();
            assert_ols_matches(&cols, &y);
            assert_ols_matches(&cols[..3], &y);
            assert_ols_matches(&[], &y);
        }
    }

    #[test]
    fn ols_matches_reference_on_non_finite_inputs() {
        let mut rng = Rng(0x0BAD);
        let (cols, y) = interaction_design(&mut rng, 200, 3, 3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for r in [0, 57, 199] {
                // A non-finite predictor entry: singular either way.
                for j in [0, 5, cols.len() - 1] {
                    let mut x = cols.clone();
                    x[j].values[r] = bad;
                    assert_eq!(residual_ss(&x, &y), Err(OlsError::Singular));
                    assert_ols_matches(&x, &y);
                }
                // A non-finite response entry: the same non-finite sums.
                let mut yb = y.clone();
                yb[r] = bad;
                let ss = residual_ss(&cols, &yb).expect("the design is regular");
                assert!(!ss.ss_res.is_finite() && !ss.ss_tot.is_finite());
                assert_ols_matches(&cols, &yb);
            }
        }
        // Opposite infinities in the response make Xᵀy NaN.
        let mut yb = y.clone();
        yb[3] = f64::INFINITY;
        yb[150] = f64::NEG_INFINITY;
        assert_ols_matches(&cols, &yb);
    }

    #[test]
    fn fitted_values_match_reference_for_non_finite_coefficients() {
        // A non-finite β_c makes the dense products with x_rc = 0 NaN, so
        // skipping the zeros would turn a NaN ss_res into a number.
        let mut rng = Rng(0xF17);
        let (cols, y) = interaction_design(&mut rng, 120, 3, 4);
        let x = design_matrix(&cols, &y).unwrap();
        let sparse = RowSparse::new(&cols, y.len());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for c in [0, 2, cols.len()] {
                let mut beta: Vec<f64> = (0..=cols.len()).map(|_| rng.signed()).collect();
                beta[c] = bad;
                let want = sums_of_squares(&x, &beta, &y);
                let want = (want.0.to_bits(), want.1.to_bits());
                for got in [
                    ols::sums_of_squares(cols.as_slice(), &y, &beta),
                    ols::sums_of_squares(&sparse, &y, &beta),
                ] {
                    assert_eq!((got.0.to_bits(), got.1.to_bits()), want, "β[{c}] = {bad}");
                }
            }
        }
    }

    #[test]
    fn ols_matches_reference_on_errors() {
        let x = NamedColumn::new("x", vec![1.0, 2.0]);
        assert_ols_matches(std::slice::from_ref(&x), &[1.0, 2.0, 3.0]);
        assert_ols_matches(std::slice::from_ref(&x), &[1.0, 2.0]);
    }
}

/// The convex hull volume as it was before faces cached their normals.
mod hull {
    type P3 = [f64; 3];

    const EPS: f64 = 1e-9;

    fn sub(a: P3, b: P3) -> P3 {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    fn cross(a: P3, b: P3) -> P3 {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    }

    fn dot(a: P3, b: P3) -> f64 {
        a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    }

    fn norm2(a: P3) -> f64 {
        dot(a, a)
    }

    fn orient(a: P3, b: P3, c: P3, p: P3) -> f64 {
        dot(cross(sub(b, a), sub(c, a)), sub(p, a))
    }

    fn convex_hull_volume(points: &[P3]) -> f64 {
        let pts: Vec<P3> = points
            .iter()
            .copied()
            .filter(|p| p.iter().all(|c| c.is_finite()))
            .collect();
        if pts.len() < 4 {
            return 0.0;
        }
        let i0 = 0;
        let Some(i1) = (0..pts.len())
            .max_by(|&a, &b| norm2(sub(pts[a], pts[i0])).total_cmp(&norm2(sub(pts[b], pts[i0]))))
        else {
            return 0.0;
        };
        if norm2(sub(pts[i1], pts[i0])) < EPS * EPS {
            return 0.0;
        }
        let Some(i2) = (0..pts.len()).max_by(|&a, &b| {
            norm2(cross(sub(pts[i1], pts[i0]), sub(pts[a], pts[i0])))
                .total_cmp(&norm2(cross(sub(pts[i1], pts[i0]), sub(pts[b], pts[i0]))))
        }) else {
            return 0.0;
        };
        if norm2(cross(sub(pts[i1], pts[i0]), sub(pts[i2], pts[i0]))) < EPS * EPS {
            return 0.0;
        }
        let Some(i3) = (0..pts.len()).max_by(|&a, &b| {
            orient(pts[i0], pts[i1], pts[i2], pts[a])
                .abs()
                .total_cmp(&orient(pts[i0], pts[i1], pts[i2], pts[b]).abs())
        }) else {
            return 0.0;
        };
        if orient(pts[i0], pts[i1], pts[i2], pts[i3]).abs() < EPS {
            return 0.0;
        }
        let mut faces: Vec<[usize; 3]> = Vec::new();
        for (face, opposite) in [
            ([i0, i1, i2], i3),
            ([i0, i1, i3], i2),
            ([i0, i2, i3], i1),
            ([i1, i2, i3], i0),
        ] {
            let [a, b, c] = face;
            if orient(pts[a], pts[b], pts[c], pts[opposite]) > 0.0 {
                faces.push([a, c, b]);
            } else {
                faces.push([a, b, c]);
            }
        }
        for p in 0..pts.len() {
            if p == i0 || p == i1 || p == i2 || p == i3 {
                continue;
            }
            let visible: Vec<usize> = (0..faces.len())
                .filter(|&f| {
                    let [a, b, c] = faces[f];
                    orient(pts[a], pts[b], pts[c], pts[p]) > EPS
                })
                .collect();
            if visible.is_empty() {
                continue;
            }
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for &f in &visible {
                let [a, b, c] = faces[f];
                edges.extend([(a, b), (b, c), (c, a)]);
            }
            let horizon: Vec<(usize, usize)> = edges
                .iter()
                .copied()
                .filter(|&(u, v)| !edges.contains(&(v, u)))
                .collect();
            let visible_set: Vec<[usize; 3]> = visible.iter().map(|&f| faces[f]).collect();
            faces.retain(|f| !visible_set.contains(f));
            for (u, v) in horizon {
                faces.push([u, v, p]);
            }
        }
        let volume: f64 = faces
            .iter()
            .map(|&[a, b, c]| dot(pts[a], cross(pts[b], pts[c])) / 6.0)
            .sum();
        volume.abs()
    }

    mod tests {
        use super::*;
        use proptest::prelude::*;

        /// splitmix64: the cloud generator's stream.
        struct Rng(u64);

        impl Rng {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, bound: u64) -> u64 {
                self.next_u64() % bound
            }

            fn unit(&mut self) -> f64 {
                (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            }

            /// A value on the 1/6 grid, as PRA win rates over six
            /// opponents are.
            fn sixth(&mut self) -> f64 {
                self.below(7) as f64 / 6.0
            }
        }

        /// A PRA-like cloud: R and A on the 1/6 grid, P continuous, on the
        /// grid or tied at 1; some points repeat an earlier one, some lie
        /// in the plane P = 1/2, and now and then one is not finite.
        fn cloud(seed: u64, n: usize, planar_share: u64) -> Vec<P3> {
            let mut rng = Rng(seed);
            let mut pts: Vec<P3> = Vec::with_capacity(n);
            for _ in 0..n {
                let p = match rng.below(10) {
                    _ if !pts.is_empty() && rng.below(5) == 0 => {
                        pts[rng.below(pts.len() as u64) as usize]
                    }
                    0 if rng.below(8) == 0 => [f64::NAN, rng.sixth(), rng.sixth()],
                    0..=2 => [1.0, rng.sixth(), rng.sixth()],
                    3..=5 => [rng.sixth(), rng.sixth(), rng.sixth()],
                    _ => [rng.unit(), rng.sixth(), rng.sixth()],
                };
                if rng.below(10) < planar_share {
                    pts.push([0.5, p[1], p[2]]);
                } else {
                    pts.push(p);
                }
            }
            pts
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn hull_matches_reference(
                seed in any::<u64>(),
                n in 0usize..120,
                planar_share in 0u64..11,
            ) {
                let pts = cloud(seed, n, planar_share);
                prop_assert_eq!(
                    crate::hull::convex_hull_volume(&pts).to_bits(),
                    convex_hull_volume(&pts).to_bits(),
                    "points = {:?}", pts
                );
            }

            #[test]
            fn hull_matches_reference_on_continuous_clouds(
                seed in any::<u64>(),
                n in 0usize..80,
            ) {
                let mut rng = Rng(seed);
                let pts: Vec<P3> = (0..n).map(|_| [rng.unit(), rng.unit(), rng.unit()]).collect();
                prop_assert_eq!(
                    crate::hull::convex_hull_volume(&pts).to_bits(),
                    convex_hull_volume(&pts).to_bits(),
                    "points = {:?}", pts
                );
            }
        }
    }
}
