//! Ordinary least squares multiple linear regression.
//!
//! Produces exactly what Table 3 of the paper reports for each response
//! (Performance, Robustness, Aggressiveness): per-term coefficient
//! estimates, t-values, a significance flag at the paper's p < 0.001
//! threshold, plus adjusted R² and standard errors.

use crate::dist::student_t_two_sided_p;
use crate::encode::NamedColumn;
use crate::matrix::Matrix;

/// One fitted regression term.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsTerm {
    /// Term name (`"(intercept)"` or the predictor's name).
    pub name: String,
    /// Coefficient estimate.
    pub estimate: f64,
    /// Standard error of the estimate.
    pub std_error: f64,
    /// t statistic (estimate / std_error).
    pub t_value: f64,
    /// Two-sided p-value against zero.
    pub p_value: f64,
}

impl OlsTerm {
    /// The paper's significance convention: `OK` iff p < 0.001.
    #[must_use]
    pub fn significant(&self) -> bool {
        self.p_value < 0.001
    }
}

/// A fitted OLS model.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Intercept followed by one entry per predictor, in input order.
    pub terms: Vec<OlsTerm>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Adjusted R² (the figure the paper reports per response).
    pub adj_r_squared: f64,
    /// Residual degrees of freedom (n − p − 1).
    pub df_residual: usize,
    /// Residual standard error.
    pub residual_std_error: f64,
    /// Residual sum of squares — what nested-model F-tests and partial-η²
    /// effect sizes compare across model specifications.
    pub ss_res: f64,
    /// Total sum of squares about the mean of the response.
    pub ss_tot: f64,
}

/// Errors from [`fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsError {
    /// Predictor columns and the response disagree in length.
    LengthMismatch,
    /// Not enough observations for the number of predictors.
    TooFewObservations,
    /// The Gram matrix is singular (e.g. collinear dummies).
    Singular,
}

impl std::fmt::Display for OlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch => write!(f, "predictor/response length mismatch"),
            Self::TooFewObservations => write!(f, "need n > p + 1 observations"),
            Self::Singular => write!(f, "design matrix is singular (collinear predictors?)"),
        }
    }
}

impl std::error::Error for OlsError {}

/// A regression design `X = [1 | predictors]`, read one row at a time.
///
/// The intercept column is implicit. Row `r` reports its predictor
/// entries in ascending column order — every non-zero one, zeros optional
/// — and [`fit`] and [`residual_ss`] read nothing else, so a design can be
/// a view over compact data (such as the level coordinates behind a dummy
/// coding) that never allocates a column.
///
/// Every `AsRef<[NamedColumn]>` — a slice, array or `Vec` of columns — is a
/// design: its row `r` gathers entry `r` of each column.
pub trait Design {
    /// Number of predictor columns, the intercept not counted.
    fn width(&self) -> usize;

    /// Whether the design has `n` rows. A design without predictor columns
    /// has any number.
    fn has_rows(&self, n: usize) -> bool;

    /// Name of predictor column `j`.
    fn name(&self, j: usize) -> String;

    /// Calls `entry(j, x)` for the entries `x` of row `r`, in ascending
    /// predictor column `j` and each column at most once. Every non-zero
    /// entry must be reported; a zero may be reported or left out.
    fn row(&self, r: usize, entry: impl FnMut(usize, f64));
}

impl<T: AsRef<[NamedColumn]> + ?Sized> Design for T {
    fn width(&self) -> usize {
        self.as_ref().len()
    }

    fn has_rows(&self, n: usize) -> bool {
        self.as_ref().iter().all(|c| c.values.len() == n)
    }

    fn name(&self, j: usize) -> String {
        self.as_ref()[j].name.clone()
    }

    /// Reports every entry, zeros included: the readers drop zeros without
    /// a branch, so sparse dummy columns cost no mispredictions.
    fn row(&self, r: usize, mut entry: impl FnMut(usize, f64)) {
        for (j, col) in self.as_ref().iter().enumerate() {
            entry(j, col.values[r]);
        }
    }
}

/// One row of `X = [1 | predictors]` as its non-zero entries, in
/// ascending column order: the design columns (the intercept's 0 first,
/// predictor `j` at `j + 1`) and their values.
struct RowEntries {
    cols: Vec<usize>,
    vals: Vec<f64>,
    len: usize,
}

impl RowEntries {
    /// Room for a row of a design with `width` predictor columns.
    fn new(width: usize) -> Self {
        Self {
            cols: vec![0; width + 1],
            vals: vec![1.0; width + 1],
            len: 1,
        }
    }

    /// Reads row `r` of `design`, dropping the zeros it reports.
    fn read<D: Design + ?Sized>(&mut self, design: &D, r: usize) {
        let Self { cols, vals, .. } = self;
        let mut len = 1;
        design.row(r, |j, x| {
            cols[len] = j + 1;
            vals[len] = x;
            len += usize::from(x != 0.0);
        });
        self.len = len;
    }

    /// The design columns and values of the entries, the intercept first.
    fn entries(&self) -> (&[usize], &[f64]) {
        (&self.cols[..self.len], &self.vals[..self.len])
    }

    /// Every entry of the row, zeros included, in column order.
    fn dense(&self) -> impl Iterator<Item = f64> + '_ {
        let (cols, vals) = self.entries();
        let mut next = 0;
        (0..self.cols.len()).map(move |c| {
            if cols.get(next) == Some(&c) {
                next += 1;
                vals[next - 1]
            } else {
                0.0
            }
        })
    }
}

/// Fits `y ~ 1 + predictors` by ordinary least squares.
///
/// Operation order: every entry of `XᵀX` and `Xᵀy` adds its rounded
/// products row by row in ascending row order, starting from +0.0; `β` is
/// `(XᵀX)⁻¹ Xᵀy`, with the inverse from [`Matrix::inverse_spd`]; each fitted
/// value is the `Iterator::sum` of `x_rc·β_c` over ascending columns `c`;
/// and `ss_res`, `ss_tot` add squared residuals and squared deviations from
/// the mean in ascending row order. Only the entries a design reports are
/// read. A product with an exact zero factor is left out of `XᵀX`, `Xᵀy`
/// or a fitted value only where that cannot change a result bit (see
/// [`residual_ss`]), so every field equals that of the dense row-by-row
/// computation for every input, non-finite ones included.
///
/// # Errors
///
/// See [`OlsError`].
///
/// # Examples
///
/// ```
/// use dsa_stats::encode::NamedColumn;
/// use dsa_stats::ols::fit;
///
/// // y = 1 + 2x, exactly.
/// let x = NamedColumn::new("x", vec![0.0, 1.0, 2.0, 3.0]);
/// let y = [1.0, 3.0, 5.0, 7.0];
/// let fit = fit(&[x], &y).unwrap();
/// assert!((fit.terms[0].estimate - 1.0).abs() < 1e-10); // intercept
/// assert!((fit.terms[1].estimate - 2.0).abs() < 1e-10); // slope
/// assert!(fit.r_squared > 0.999_999);
/// ```
pub fn fit<D: Design + ?Sized>(design: &D, y: &[f64]) -> Result<OlsFit, OlsError> {
    let (gram, xty) = normal_equations(design, y)?;
    let gram_inv = gram.into_inverse_spd().ok_or(OlsError::Singular)?;
    let beta = gram_inv.vec_mul(&xty);
    let sums = sums_of_squares(design, y, &beta);
    Ok(summarize(design, y.len(), &gram_inv, &beta, sums))
}

/// Per-term statistics and goodness of fit of the coefficients `beta`
/// with `(XᵀX)⁻¹ = gram_inv` and sums of squares `(ss_res, ss_tot)` over
/// `n` observations.
pub(crate) fn summarize<D: Design + ?Sized>(
    design: &D,
    n: usize,
    gram_inv: &Matrix,
    beta: &[f64],
    (ss_res, ss_tot): (f64, f64),
) -> OlsFit {
    let p = design.width();
    let df_residual = n - (p + 1);
    let sigma2 = ss_res / df_residual as f64;
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        f64::NAN
    };
    let adj_r_squared = if ss_tot > 0.0 {
        1.0 - (1.0 - r_squared) * (n as f64 - 1.0) / df_residual as f64
    } else {
        f64::NAN
    };

    let mut terms = Vec::with_capacity(p + 1);
    for j in 0..=p {
        let se = (sigma2 * gram_inv[(j, j)]).max(0.0).sqrt();
        let t = if se > 0.0 { beta[j] / se } else { f64::NAN };
        let p_value = if t.is_nan() {
            f64::NAN
        } else {
            student_t_two_sided_p(t, df_residual as f64)
        };
        let name = if j == 0 {
            "(intercept)".to_string()
        } else {
            design.name(j - 1)
        };
        terms.push(OlsTerm {
            name,
            estimate: beta[j],
            std_error: se,
            t_value: t,
            p_value,
        });
    }

    OlsFit {
        terms,
        r_squared,
        adj_r_squared,
        df_residual,
        residual_std_error: sigma2.sqrt(),
        ss_res,
        ss_tot,
    }
}

/// The normal equations `XᵀX β = Xᵀy` of a design: the lower triangle of
/// `XᵀX` (all that the Cholesky factorization reads) and `Xᵀy`, formed
/// from the design's rows without materializing `X`. Shared by [`fit`] and
/// [`residual_ss`], so both validate and accumulate identically.
///
/// Every entry adds its row products in ascending row order, and a row adds
/// `x_a·x_b` to lower-triangle entry `(b, a)` for its non-zero pairs
/// `a ≤ b` only. The dense computation differs by the products with an
/// exact zero factor. Those are ±0.0 while the other factor is finite, and
/// an accumulator that starts at +0.0 never becomes −0.0, so it absorbs
/// them unchanged. A non-finite predictor entry is the exception: it makes
/// its column's diagonal non-finite, so the factorization fails either way.
/// For the same reason `Xᵀy` skips a row's zero entries only while `y_r` is
/// finite.
///
/// Kept out of line, as is [`sums_of_squares`]: inlined into [`fit`], the
/// two passes compiled to slower row loops, and Table 3's fits took ~10%
/// longer.
#[inline(never)]
fn normal_equations<D: Design + ?Sized>(
    design: &D,
    y: &[f64],
) -> Result<(Matrix, Vec<f64>), OlsError> {
    let n = y.len();
    if !design.has_rows(n) {
        return Err(OlsError::LengthMismatch);
    }
    let p = design.width();
    if n <= p + 1 {
        return Err(OlsError::TooFewObservations);
    }
    let dim = p + 1;
    let mut gram = Matrix::zeros(dim, dim);
    let mut xty = vec![0.0; dim];
    let mut row = RowEntries::new(p);
    for (r, &yr) in y.iter().enumerate() {
        row.read(design, r);
        let (cols, vals) = row.entries();
        for (i, (&b, &xb)) in cols.iter().zip(vals).enumerate() {
            let g = gram.row_mut(b);
            for (&a, &xa) in cols[..=i].iter().zip(&vals[..=i]) {
                g[a] += xa * xb;
            }
        }
        if yr.is_finite() {
            if yr != 0.0 {
                for (&c, &x) in cols.iter().zip(vals) {
                    xty[c] += x * yr;
                }
            }
        } else {
            for (o, x) in xty.iter_mut().zip(row.dense()) {
                *o += x * yr;
            }
        }
    }
    Ok((gram, xty))
}

/// Residual and total sums of squares of `y` against the fitted values
/// `X β`, in one pass over the design's rows.
///
/// Each fitted value adds `x_rc·β_c` to `β₀` over the entries the design
/// reports, in ascending column order. The dense sum adds every product,
/// and those of the unreported zeros are ±0.0 while `β` is finite: they
/// can change only the sign of a zero fitted value, and `res * res` erases
/// that. A non-finite `β_c` turns them into NaN, so then every row adds
/// all its entries, zeros included.
#[inline(never)]
pub(crate) fn sums_of_squares<D: Design + ?Sized>(
    design: &D,
    y: &[f64],
    beta: &[f64],
) -> (f64, f64) {
    // `sum` starts from its own identity, then adds 1·β₀ = β₀.
    let intercept: f64 = std::iter::once(beta[0]).sum();
    let finite = beta.iter().all(|b| b.is_finite());
    let y_mean = crate::describe::mean(y);
    let mut row = RowEntries::new(beta.len() - 1);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (r, &yr) in y.iter().enumerate() {
        let fit = if finite {
            let mut fit = intercept;
            design.row(r, |j, x| fit += x * beta[j + 1]);
            fit
        } else {
            row.read(design, r);
            row.dense()
                .zip(beta)
                .skip(1)
                .fold(intercept, |f, (x, &b)| f + x * b)
        };
        let res = yr - fit;
        ss_res += res * res;
        let d = yr - y_mean;
        ss_tot += d * d;
    }
    (ss_res, ss_tot)
}

/// The sums of squares of a fitted (but not fully summarized) model:
/// what [`residual_ss`] returns and nested-model comparisons consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumOfSquares {
    /// Residual sum of squares.
    pub ss_res: f64,
    /// Total sum of squares about the mean.
    pub ss_tot: f64,
    /// Residual degrees of freedom (n − p − 1).
    pub df_residual: usize,
}

impl SumOfSquares {
    /// Coefficient of determination, `NaN` when the response is constant.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        if self.ss_tot > 0.0 {
            1.0 - self.ss_res / self.ss_tot
        } else {
            f64::NAN
        }
    }
}

/// Fits `y ~ 1 + predictors` and returns only the sums of squares — one
/// Cholesky solve, no Gram inversion, no per-term statistics. This is the
/// inner loop of the attribution subsystem's nested-model scans (one
/// reduced refit per design dimension, one augmented refit per dimension
/// pair), where coefficients and standard errors of the auxiliary models
/// are never consulted.
///
/// Operation order: every entry of `XᵀX` and `Xᵀy` (with `X = [1 |
/// predictors]`) adds its rounded products row by row in ascending row
/// order, starting from +0.0; `β` comes from [`Matrix::solve_spd`]; each
/// fitted value is the `Iterator::sum` of `x_rc·β_c` over ascending
/// columns `c`; and `ss_res`, `ss_tot` add squared residuals and squared
/// deviations from the mean in ascending row order. Only the entries a
/// design reports are read, and a product with an exact zero factor is
/// left out only where that cannot change a result bit:
///
/// * of `XᵀX`, on either side, while the other factor is finite. A
///   non-finite entry makes its own diagonal non-finite, and the
///   factorization then fails either way;
/// * of `Xᵀy`, while `y_r` is finite;
/// * of a fitted value, while every `β_c` is finite. It can then change
///   only the sign of a zero fitted value, which squaring the residual
///   erases.
///
/// So the sums equal those of the dense row-by-row computation for every
/// input, non-finite ones included.
///
/// # Errors
///
/// See [`OlsError`]. Agrees with [`fit`] on `ss_res`/`ss_tot` to
/// numerical precision for every design [`fit`] accepts.
pub fn residual_ss<D: Design + ?Sized>(design: &D, y: &[f64]) -> Result<SumOfSquares, OlsError> {
    let (gram, xty) = normal_equations(design, y)?;
    let beta = gram.into_solve_spd(&xty).ok_or(OlsError::Singular)?;
    let (ss_res, ss_tot) = sums_of_squares(design, y, &beta);
    Ok(SumOfSquares {
        ss_res,
        ss_tot,
        df_residual: y.len() - (design.width() + 1),
    })
}

/// Nested-model F-test: how much worse the `reduced` model (fewer
/// predictors) fits than the `full` one. Returns `(F, p)` where `F` has
/// `(df_reduced − df_full, df_full)` degrees of freedom.
///
/// # Panics
///
/// Panics when the models are not nested (the reduced model must have
/// strictly more residual degrees of freedom).
#[must_use]
pub fn nested_f_test(full: &SumOfSquares, reduced: &SumOfSquares) -> (f64, f64) {
    assert!(
        reduced.df_residual > full.df_residual,
        "nested_f_test: reduced model must drop at least one predictor"
    );
    let q = (reduced.df_residual - full.df_residual) as f64;
    let df = full.df_residual as f64;
    if full.ss_res <= 0.0 {
        // A saturated full model: any explained difference is infinitely
        // significant, no difference at all is no evidence.
        return if reduced.ss_res > full.ss_res + 1e-12 {
            (f64::INFINITY, 0.0)
        } else {
            (0.0, 1.0)
        };
    }
    let f = ((reduced.ss_res - full.ss_res) / q) / (full.ss_res / df);
    let f = f.max(0.0);
    (f, crate::dist::f_upper_p(f, q, df))
}

/// Partial η² of the predictor block distinguishing a `full` model from
/// the `reduced` one that omits it: `(SSE_reduced − SSE_full) /
/// SSE_reduced`, the share of the reduced model's unexplained variance the
/// block accounts for. Always in `[0, 1]`.
#[must_use]
pub fn partial_eta_squared(full: &SumOfSquares, reduced: &SumOfSquares) -> f64 {
    if reduced.ss_res <= 0.0 {
        return 0.0;
    }
    ((reduced.ss_res - full.ss_res) / reduced.ss_res).clamp(0.0, 1.0)
}

impl OlsFit {
    /// Renders the fit as a Table 3-style text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("adj.R2 = {:.2}\n", self.adj_r_squared));
        out.push_str(&format!(
            "{:<14} {:>9} {:>9} {:>6}\n",
            "variable", "estimate", "t value", "sign."
        ));
        for t in &self.terms {
            out.push_str(&format!(
                "{:<14} {:>9.3} {:>9.3} {:>6}\n",
                t.name,
                t.estimate,
                t.t_value,
                if t.significant() { "OK" } else { "-" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::NamedColumn;

    fn col(name: &str, v: &[f64]) -> NamedColumn {
        NamedColumn::new(name, v.to_vec())
    }

    #[test]
    fn exact_linear_relationship() {
        let x1 = col("x1", &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let x2 = col("x2", &[0.0, 1.0, 0.0, 1.0, 0.0]);
        // y = 2 + 3 x1 - 1.5 x2
        let y: Vec<f64> = (0..5)
            .map(|i| 2.0 + 3.0 * x1.values[i] - 1.5 * x2.values[i])
            .collect();
        let f = fit(&[x1, x2], &y).unwrap();
        assert!((f.terms[0].estimate - 2.0).abs() < 1e-9);
        assert!((f.terms[1].estimate - 3.0).abs() < 1e-9);
        assert!((f.terms[2].estimate + 1.5).abs() < 1e-9);
        assert!(f.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn noisy_fit_recovers_coefficients() {
        // Deterministic "noise" via a fixed pattern keeps the test stable.
        let n = 200;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let noise: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) / 50.0)
            .collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 + 0.5 * x[i] + noise[i]).collect();
        let f = fit(&[col("x", &x)], &y).unwrap();
        assert!((f.terms[1].estimate - 0.5).abs() < 0.01);
        assert!(f.terms[1].significant());
        assert!(f.adj_r_squared > 0.99);
    }

    #[test]
    fn insignificant_predictor_detected() {
        let n = 100;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // y depends on x; z is a pseudo-random irrelevant column.
        let z: Vec<f64> = (0..n).map(|i| ((i * 7919 % 101) as f64) / 101.0).collect();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64 - 8.0) / 4.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * x[i] + noise[i]).collect();
        let f = fit(&[col("x", &x), col("z", &z)], &y).unwrap();
        assert!(f.terms[1].significant(), "x should be significant");
        assert!(
            f.terms[2].p_value > 0.001,
            "z p-value {} unexpectedly small",
            f.terms[2].p_value
        );
    }

    #[test]
    fn r_squared_bounds_and_df() {
        let x = col("x", &[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]);
        let y = [1.2, 1.9, 3.3, 3.8, 6.5, 8.7];
        let f = fit(&[x], &y).unwrap();
        assert!(f.r_squared > 0.0 && f.r_squared <= 1.0);
        assert!(f.adj_r_squared <= f.r_squared);
        assert_eq!(f.df_residual, 4);
    }

    #[test]
    fn singular_design_detected() {
        let x1 = col("x1", &[1.0, 2.0, 3.0, 4.0]);
        let x2 = col("x2", &[2.0, 4.0, 6.0, 8.0]); // perfectly collinear
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fit(&[x1, x2], &y), Err(OlsError::Singular));
    }

    #[test]
    fn length_mismatch_detected() {
        let x = col("x", &[1.0, 2.0]);
        let y = [1.0, 2.0, 3.0];
        assert_eq!(fit(&[x], &y), Err(OlsError::LengthMismatch));
    }

    #[test]
    fn too_few_observations_detected() {
        let x = col("x", &[1.0, 2.0]);
        let y = [1.0, 2.0];
        assert_eq!(fit(&[x], &y), Err(OlsError::TooFewObservations));
    }

    #[test]
    fn intercept_only_effects() {
        // With no predictors the intercept is the mean of y.
        let y = [2.0, 4.0, 6.0, 8.0];
        let f = fit(&[], &y).unwrap();
        assert!((f.terms[0].estimate - 5.0).abs() < 1e-12);
        assert_eq!(f.terms.len(), 1);
    }

    #[test]
    fn residual_ss_agrees_with_full_fit() {
        let x1 = col("x1", &[1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 2.5]);
        let x2 = col("x2", &[0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
        let y = [1.2, 2.4, 3.3, 4.1, 6.5, 8.7, 2.9];
        let full = fit(&[x1.clone(), x2.clone()], &y).unwrap();
        let ss = residual_ss(&[x1, x2], &y).unwrap();
        assert!((full.ss_res - ss.ss_res).abs() < 1e-9);
        assert!((full.ss_tot - ss.ss_tot).abs() < 1e-9);
        assert_eq!(full.df_residual, ss.df_residual);
        assert!((full.r_squared - ss.r_squared()).abs() < 1e-12);
    }

    #[test]
    fn residual_ss_propagates_errors() {
        let x = col("x", &[1.0, 2.0]);
        assert_eq!(
            residual_ss(std::slice::from_ref(&x), &[1.0, 2.0, 3.0]),
            Err(OlsError::LengthMismatch)
        );
        assert_eq!(
            residual_ss(&[x], &[1.0, 2.0]),
            Err(OlsError::TooFewObservations)
        );
        let x1 = col("x1", &[1.0, 2.0, 3.0, 4.0]);
        let x2 = col("x2", &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(
            residual_ss(&[x1, x2], &[1.0, 2.0, 3.0, 4.0]),
            Err(OlsError::Singular)
        );
    }

    #[test]
    fn nested_f_detects_a_real_predictor() {
        // y depends strongly on x; dropping x must be highly significant,
        // dropping an irrelevant z must not.
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let z: Vec<f64> = (0..n).map(|i| ((i * 7919 % 101) as f64) / 101.0).collect();
        let noise: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) / 40.0)
            .collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 + 2.0 * x[i] + noise[i]).collect();
        let full = residual_ss(&[col("x", &x), col("z", &z)], &y).unwrap();
        let no_x = residual_ss(&[col("z", &z)], &y).unwrap();
        let no_z = residual_ss(&[col("x", &x)], &y).unwrap();
        let (f_x, p_x) = nested_f_test(&full, &no_x);
        let (f_z, p_z) = nested_f_test(&full, &no_z);
        assert!(f_x > 100.0, "F for x = {f_x}");
        assert!(p_x < 1e-6);
        assert!(p_z > 0.01, "p for z = {p_z}");
        assert!(f_z < f_x);
        // Effect sizes: x explains nearly everything z leaves over.
        assert!(partial_eta_squared(&full, &no_x) > 0.9);
        assert!(partial_eta_squared(&full, &no_z) < 0.2);
    }

    #[test]
    fn partial_eta_squared_is_bounded() {
        let full = SumOfSquares {
            ss_res: 1.0,
            ss_tot: 10.0,
            df_residual: 5,
        };
        let reduced = SumOfSquares {
            ss_res: 4.0,
            ss_tot: 10.0,
            df_residual: 7,
        };
        let eta = partial_eta_squared(&full, &reduced);
        assert!((eta - 0.75).abs() < 1e-12);
        // Degenerate reduced model.
        let zero = SumOfSquares {
            ss_res: 0.0,
            ss_tot: 10.0,
            df_residual: 7,
        };
        assert_eq!(partial_eta_squared(&full, &zero), 0.0);
    }

    #[test]
    fn nested_f_saturated_full_model() {
        let full = SumOfSquares {
            ss_res: 0.0,
            ss_tot: 10.0,
            df_residual: 3,
        };
        let worse = SumOfSquares {
            ss_res: 2.0,
            ss_tot: 10.0,
            df_residual: 5,
        };
        let same = SumOfSquares {
            ss_res: 0.0,
            ss_tot: 10.0,
            df_residual: 5,
        };
        assert_eq!(nested_f_test(&full, &worse), (f64::INFINITY, 0.0));
        assert_eq!(nested_f_test(&full, &same), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "nested_f_test")]
    fn nested_f_rejects_non_nested_models() {
        let a = SumOfSquares {
            ss_res: 1.0,
            ss_tot: 2.0,
            df_residual: 5,
        };
        let _ = nested_f_test(&a, &a);
    }

    #[test]
    fn table_rendering_contains_terms() {
        let x = col("B3", &[0.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
        let y = [0.9, 0.2, 0.8, 0.25, 0.22, 0.85];
        let f = fit(&[x], &y).unwrap();
        let table = f.to_table();
        assert!(table.contains("(intercept)"));
        assert!(table.contains("B3"));
        assert!(table.contains("adj.R2"));
    }
}
