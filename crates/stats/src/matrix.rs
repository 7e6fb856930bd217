//! Dense row-major matrices with just enough linear algebra for OLS.
//!
//! The regressions range from Table 3 (~3270 rows, 13 columns) to the
//! attribution subsystem's pairwise interaction scan, whose largest model
//! (the swarm space's Stranger × Selection pair) solves 1092 columns over
//! the same 3270 rows. The normal equations `XᵀX β = Xᵀy` with a Cholesky
//! solve are numerically adequate for both (the design matrix is
//! dummy-coded; its Gram matrix is well conditioned). We keep the
//! implementation deliberately small and well tested rather than general.

use std::fmt;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_rows: data length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix whose rows are the given slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no rows.
    #[must_use]
    pub fn from_row_slices(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_row_slices: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of one row.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// `selfᵀ * self`, the Gram matrix, computed without materializing the
    /// transpose.
    #[must_use]
    pub fn gram(&self) -> Self {
        let mut g = Self::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `self * v` for a vector `v` of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vec_mul: vector length mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Cholesky factorization `self = L Lᵀ` of a symmetric positive-definite
    /// matrix; returns the lower-triangular factor, or `None` if the matrix
    /// is not (numerically) positive definite. Only the lower triangle of
    /// `self` is read.
    ///
    /// Operation order, per element: `L[i][j]` is `A[i][j]` minus the
    /// rounded products `L[i][k]·L[j][k]`, subtracted one at a time in
    /// ascending `k`; off the diagonal the result is divided by `L[j][j]`,
    /// on it the result is the pivot, rejected unless positive and finite,
    /// and square-rooted. That is the textbook row-by-row loop, bit for bit,
    /// but the work is ordered right-looking: column `k` of `L` lives in
    /// row `k` of the upper triangle, contiguous, and once a block of
    /// `CHOLESKY_BLOCK` (8) columns is finished, every later row takes the
    /// block's subtractions in one element-wise pass, independent across
    /// elements, instead of one dependent chain per element.
    #[must_use]
    pub fn cholesky(&self) -> Option<Self> {
        let n = self.rows;
        let mut l = self.clone().into_upper_factor()?;
        // Copy Lᵀ over what the factorization left below the diagonal and
        // clear the upper triangle.
        for_each_lower_tiled(n, |i, j| {
            if i != j {
                l.data[i * n + j] = l.data[j * n + i];
                l.data[j * n + i] = 0.0;
            }
        });
        Some(l)
    }

    /// Solves `self * x = b` for symmetric positive-definite `self` via
    /// Cholesky. Returns `None` if the factorization fails.
    #[must_use]
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        self.clone().into_solve_spd(b)
    }

    /// Inverse of a symmetric positive-definite matrix via Cholesky.
    #[must_use]
    pub fn inverse_spd(&self) -> Option<Self> {
        self.clone().into_inverse_spd()
    }

    /// [`Matrix::solve_spd`], factoring in `self`'s own buffer.
    pub(crate) fn into_solve_spd(self, b: &[f64]) -> Option<Vec<f64>> {
        Some(self.into_upper_factor()?.cholesky_solve(b))
    }

    /// [`Matrix::inverse_spd`], factoring in `self`'s own buffer.
    pub(crate) fn into_inverse_spd(self) -> Option<Self> {
        let u = self.into_upper_factor()?;
        let n = u.rows;
        let mut inv = Self::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = u.cholesky_solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Some(inv)
    }

    /// The factorization of [`Matrix::cholesky`], in place and returned as
    /// `Lᵀ`: the lower triangle (`A`) is first swapped into the upper
    /// triangle, where row `k` then becomes column `k` of `L`. The strict
    /// lower triangle is left holding `A`'s old upper triangle.
    fn into_upper_factor(mut self) -> Option<Self> {
        assert_eq!(self.rows, self.cols, "cholesky: matrix must be square");
        let n = self.rows;
        let u = &mut self.data;
        for_each_lower_tiled(n, |i, j| u.swap(i * n + j, j * n + i));
        for k0 in (0..n).step_by(CHOLESKY_BLOCK) {
            let k1 = (k0 + CHOLESKY_BLOCK).min(n);
            // Finish the block's rows one by one; each passes its
            // subtraction on to the block rows below it.
            for k in k0..k1 {
                let (done, below) = u.split_at_mut((k + 1) * n);
                let row_k = &mut done[k * n..];
                let pivot = row_k[k];
                if pivot <= 0.0 || !pivot.is_finite() {
                    return None;
                }
                let diag = pivot.sqrt();
                row_k[k] = diag;
                for x in &mut row_k[k + 1..] {
                    *x /= diag;
                }
                for (j, row_j) in (k + 1..k1).zip(below.chunks_exact_mut(n)) {
                    subtract_panel::<1>(&mut row_j[j..], row_k, n, j);
                }
            }
            // Every later row takes the whole block in one pass. A short
            // last block ends at `n`, so this loop only sees full blocks.
            let (done, below) = u.split_at_mut(k1 * n);
            let panel = &done[k0 * n..];
            for (j, row_j) in (k1..n).zip(below.chunks_exact_mut(n)) {
                subtract_panel::<CHOLESKY_BLOCK>(&mut row_j[j..], panel, n, j);
            }
        }
        Some(self)
    }

    /// Given `U = Lᵀ` (self) from [`Matrix::into_upper_factor`], solves
    /// `L Lᵀ x = b` by forward then backward substitution, with the
    /// textbook operation order: `y[i] = (b[i] − Σ L[i][k]·y[k]) / L[i][i]`
    /// and `x[i] = (y[i] − Σ L[k][i]·x[k]) / L[i][i]`, each sum subtracted
    /// term by term in ascending `k`. Both passes read rows of `U`.
    fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        debug_assert_eq!(b.len(), n);
        // Forward: L y = b. Once y[k] is final, its term goes to every
        // later sum in one pass over row k of U (column k of L).
        let mut y = b.to_vec();
        for k in 0..n {
            let row = self.row(k);
            y[k] /= row[k];
            let (done, later) = y.split_at_mut(k + 1);
            for (sum, &l) in later.iter_mut().zip(&row[k + 1..]) {
                *sum -= l * done[k];
            }
        }
        // Backward: Lᵀ x = y, one dot product over row i of U each.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let row = self.row(i);
            let mut sum = y[i];
            for (&l, &xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                sum -= l * xk;
            }
            x[i] = sum / row[i];
        }
        x
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Rows of the Cholesky factor finished together before the rows below
/// them are updated: each later row then takes this many subtractions per
/// pass over it. At n = 1092, 8 to 16 ran alike; 4 was ~20% slower, and
/// at 32 the compiler no longer unrolls the panel loop.
const CHOLESKY_BLOCK: usize = 8;

/// `row[i] -= panel_b[j + i] * panel_b[j]` for each of the `B` rows
/// `panel_b` of `panel` (each `n` long) in turn: one pass over `row`, the
/// tail of factor row `j` from its diagonal on, with every element's
/// subtractions in ascending panel-row order.
fn subtract_panel<const B: usize>(row: &mut [f64], panel: &[f64], n: usize, j: usize) {
    let len = row.len();
    let coef: [f64; B] = std::array::from_fn(|b| panel[b * n + j]);
    let rows: [&[f64]; B] = std::array::from_fn(|b| &panel[b * n + j..][..len]);
    for (i, x) in row.iter_mut().enumerate() {
        let mut acc = *x;
        for b in 0..B {
            acc -= rows[b][i] * coef[b];
        }
        *x = acc;
    }
}

/// Visits every `(i, j)` with `j ≤ i < n` tile by tile, so a transposing
/// access pattern touches only a few cache lines of each triangle at once.
fn for_each_lower_tiled(n: usize, mut f: impl FnMut(usize, usize)) {
    const TILE: usize = 32;
    for i0 in (0..n).step_by(TILE) {
        for j0 in (0..=i0).step_by(TILE) {
            for i in i0..(i0 + TILE).min(n) {
                for j in j0..(j0 + TILE).min(i + 1) {
                    f(i, j);
                }
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.rows(), 3);
        assert_eq!(i3.cols(), 3);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(2, 3, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let m = Matrix::from_rows(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.5, 0.5, 0.5, 2.0, -2.0, 0.0],
        );
        let explicit = m.transpose().matmul(&m);
        assert!(m.gram().max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn vec_mul_basic() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn cholesky_known_factor() {
        // [[4, 2], [2, 3]] = L Lᵀ with L = [[2, 0], [1, sqrt(2)]].
        let m = Matrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]);
        let l = m.cholesky().expect("SPD");
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.vec_mul(&x_true);
        let x = a.solve_spd(&b).expect("solvable");
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn inverse_spd_times_self_is_identity() {
        let a = Matrix::from_rows(3, 3, &[5.0, 1.0, 1.0, 1.0, 4.0, 0.5, 1.0, 0.5, 3.0]);
        let inv = a.inverse_spd().expect("SPD");
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_row_slices_builds() {
        let m = Matrix::from_row_slices(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn display_formats_rows() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert_eq!(s.lines().count(), 2);
    }
}
