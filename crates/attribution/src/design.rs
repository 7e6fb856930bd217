//! Dummy-coded design matrices over generic design spaces.
//!
//! The attribution regressions treat every design dimension as a
//! categorical variable: each dimension contributes one indicator column
//! per non-baseline *present* level (the paper's "substituted by dummy
//! variables" treatment of Table 3, generalized from the swarm-specific
//! encoder in `dsa-bench::regress` to any [`DesignSpace`]). The encoder
//! works on an arbitrary row subset — the full space for PRA and attack
//! surfaces, a candidate set for evolutionary surfaces — collapsing
//! absent levels and dropping dimensions that do not vary within the
//! subset, so the matrix is always free of structurally-zero columns.
//!
//! The row decode goes through
//! [`dsa_core::parallel::parallel_map_indexed`], so paper-scale builds
//! parallelize while staying bit-identical across thread counts (each
//! row's coordinates are a pure function of its index).

use dsa_core::parallel::parallel_map_indexed;
use dsa_core::space::DesignSpace;
use dsa_stats::ols::Design;
use std::ops::Range;

/// How one design dimension is coded in a [`DesignMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimCode {
    /// Position of the dimension in the space descriptor.
    pub dim: usize,
    /// Dimension name.
    pub name: String,
    /// Original level indices present among the rows, in enumeration
    /// order; the first entry is the baseline and has no column.
    pub levels: Vec<usize>,
    /// The dimension's column range inside the main-effects design
    /// (`levels.len() − 1` indicator columns).
    pub cols: Range<usize>,
    /// The column coding each original level, indexed by level: `None`
    /// for the baseline and for absent levels.
    column: Vec<Option<usize>>,
}

impl DimCode {
    /// The column position (inside the main-effects design) coding
    /// original level `level`, or `None` for the baseline level and for
    /// levels absent from the row subset.
    #[must_use]
    pub fn column_of(&self, level: usize) -> Option<usize> {
        self.column.get(level).copied().flatten()
    }
}

/// A dummy-coded design matrix over a row subset of a design space.
///
/// It holds each row's level coordinates, not the indicator columns:
/// [`DesignMatrix::main_effects`], [`DesignMatrix::without`] and
/// [`DesignMatrix::with_interaction`] are [`Design`] views that derive a
/// row's few non-zero entries from its coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMatrix {
    /// Space indices of the observations, in row order.
    pub rows: Vec<usize>,
    /// Per-row space coordinates (same order as `rows`).
    pub coords: Vec<Vec<usize>>,
    /// Coded dimensions — only those with at least two present levels.
    pub dims: Vec<DimCode>,
    /// Names of the main-effects indicator columns, dimension-major,
    /// `"Dim=Level"`.
    pub names: Vec<String>,
}

impl DesignMatrix {
    /// Builds the matrix for `rows` of `space`. `threads = 0` uses all
    /// cores; the result is bit-identical for every thread count.
    ///
    /// Traced as an `attrib.design` span; with metrics enabled, each
    /// row decode's latency lands in the `attrib.row_ns` histogram and
    /// the build's throughput in the `attrib.rows_per_sec` gauge.
    ///
    /// # Panics
    ///
    /// Panics when a row index lies outside the space.
    #[must_use]
    pub fn build(space: &DesignSpace, rows: &[usize], threads: usize) -> Self {
        let _design_span = dsa_obs::span("attrib.design");
        let started = dsa_obs::metrics_enabled().then(std::time::Instant::now);
        let coords = parallel_map_indexed(rows.len(), threads, |i| {
            let t0 = dsa_obs::metrics_enabled().then(std::time::Instant::now);
            let c = space.coords(rows[i]);
            if let Some(t0) = t0 {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                dsa_obs::observe("attrib.row_ns", ns);
            }
            c
        });
        if let Some(started) = started {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                dsa_obs::gauge_set("attrib.rows_per_sec", rows.len() as f64 / secs);
            }
        }
        let mut dims = Vec::new();
        let mut names = Vec::new();
        for (d, dim) in space.dimensions().iter().enumerate() {
            let mut seen = vec![false; dim.len()];
            for c in &coords {
                seen[c[d]] = true;
            }
            let present: Vec<usize> = (0..dim.len()).filter(|&l| seen[l]).collect();
            if present.len() < 2 {
                // The dimension does not vary within the subset: nothing
                // to attribute to it.
                continue;
            }
            let start = names.len();
            let mut column = vec![None; dim.len()];
            for &level in &present[1..] {
                column[level] = Some(names.len());
                names.push(format!("{}={}", dim.name, dim.levels[level]));
            }
            dims.push(DimCode {
                dim: d,
                name: dim.name.clone(),
                levels: present,
                cols: start..names.len(),
                column,
            });
        }
        Self {
            rows: rows.to_vec(),
            coords,
            dims,
            names,
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// The main-effects design: every coded dimension's indicator columns.
    #[must_use]
    pub fn main_effects(&self) -> DesignView<'_> {
        DesignView {
            dm: self,
            shape: Shape::Main,
        }
    }

    /// The main effects with one coded dimension's block removed — the
    /// reduced model of that dimension's nested-model test.
    #[must_use]
    pub fn without(&self, coded_dim: usize) -> DesignView<'_> {
        DesignView {
            dm: self,
            shape: Shape::Without(coded_dim),
        }
    }

    /// The main effects plus the pairwise product columns of two coded
    /// dimensions, `a`-major — the augmented model of the interaction
    /// scan.
    #[must_use]
    pub fn with_interaction(&self, a: usize, b: usize) -> DesignView<'_> {
        DesignView {
            dm: self,
            shape: Shape::Interaction(a, b),
        }
    }
}

/// Which columns a [`DesignView`] shows.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Main,
    Without(usize),
    Interaction(usize, usize),
}

/// A dummy-coded regression design read from a [`DesignMatrix`]'s
/// coordinates. Each row has at most one non-zero indicator per coded
/// dimension, plus at most one product column.
#[derive(Debug, Clone, Copy)]
pub struct DesignView<'a> {
    dm: &'a DesignMatrix,
    shape: Shape,
}

impl DesignView<'_> {
    /// The number of product columns an interaction view adds to the main
    /// effects; 0 for the other views.
    #[must_use]
    pub(crate) fn interaction_columns(&self) -> usize {
        match self.shape {
            Shape::Interaction(a, b) => self.dm.dims[a].cols.len() * self.dm.dims[b].cols.len(),
            Shape::Main | Shape::Without(_) => 0,
        }
    }
}

impl Design for DesignView<'_> {
    fn width(&self) -> usize {
        let main = self.dm.names.len();
        match self.shape {
            Shape::Main => main,
            Shape::Without(k) => main - self.dm.dims[k].cols.len(),
            Shape::Interaction(..) => main + self.interaction_columns(),
        }
    }

    fn has_rows(&self, n: usize) -> bool {
        self.dm.n() == n
    }

    fn name(&self, j: usize) -> String {
        let names = &self.dm.names;
        match self.shape {
            Shape::Main => names[j].clone(),
            Shape::Without(k) => {
                let drop = &self.dm.dims[k].cols;
                let j = if j < drop.start { j } else { j + drop.len() };
                names[j].clone()
            }
            Shape::Interaction(a, b) => match j.checked_sub(names.len()) {
                None => names[j].clone(),
                Some(product) => {
                    let (ca, cb) = (&self.dm.dims[a].cols, &self.dm.dims[b].cols);
                    let ja = ca.start + product / cb.len();
                    let jb = cb.start + product % cb.len();
                    format!("{}×{}", names[ja], names[jb])
                }
            },
        }
    }

    fn row(&self, r: usize, mut entry: impl FnMut(usize, f64)) {
        let coords = &self.dm.coords[r];
        let skip = match self.shape {
            Shape::Without(k) => Some(k),
            Shape::Main | Shape::Interaction(..) => None,
        };
        // Columns after a skipped block move down by its width.
        let mut shift = 0;
        for (k, code) in self.dm.dims.iter().enumerate() {
            if skip == Some(k) {
                shift = code.cols.len();
            } else if let Some(j) = code.column_of(coords[code.dim]) {
                entry(j - shift, 1.0);
            }
        }
        if let Shape::Interaction(a, b) = self.shape {
            let (da, db) = (&self.dm.dims[a], &self.dm.dims[b]);
            if let (Some(ja), Some(jb)) =
                (da.column_of(coords[da.dim]), db.column_of(coords[db.dim]))
            {
                let product = (ja - da.cols.start) * db.cols.len() + (jb - db.cols.start);
                entry(self.dm.names.len() + product, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::space::Dimension;

    fn space() -> DesignSpace {
        DesignSpace::new(
            "t",
            vec![
                Dimension::new("A", vec!["a0".into(), "a1".into(), "a2".into()]),
                Dimension::new("B", vec!["b0".into(), "b1".into()]),
            ],
        )
    }

    /// Row `r` of a design as its `(column, value)` entries.
    fn entries(design: &impl Design, r: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        design.row(r, |j, x| out.push((j, x)));
        out
    }

    fn names(design: &impl Design) -> Vec<String> {
        (0..design.width()).map(|j| design.name(j)).collect()
    }

    #[test]
    fn full_space_codes_every_non_baseline_level() {
        let s = space();
        let rows: Vec<usize> = s.indices().collect();
        let dm = DesignMatrix::build(&s, &rows, 1);
        assert_eq!(dm.n(), 6);
        assert_eq!(dm.dims.len(), 2);
        assert_eq!(dm.names, vec!["A=a1", "A=a2", "B=b1"]);
        let main = dm.main_effects();
        assert_eq!(names(&main), dm.names);
        assert!(main.has_rows(6) && !main.has_rows(5));
        // Row 3 = coords [1, 1]: A=a1 and B=b1 indicators set.
        assert_eq!(dm.coords[3], vec![1, 1]);
        assert_eq!(entries(&main, 3), vec![(0, 1.0), (2, 1.0)]);
        // The baseline row has no non-zero entry.
        assert_eq!(dm.coords[0], vec![0, 0]);
        assert!(entries(&main, 0).is_empty());
        // Column lookup: baseline and absent levels have no column.
        assert_eq!(dm.dims[0].column_of(0), None);
        assert_eq!(dm.dims[0].column_of(1), Some(0));
        assert_eq!(dm.dims[0].column_of(2), Some(1));
        assert_eq!(dm.dims[0].column_of(3), None);
        assert_eq!(dm.dims[1].column_of(1), Some(2));
    }

    #[test]
    fn subset_collapses_absent_levels_and_constant_dims() {
        let s = space();
        // Rows 2 = [1,0] and 4 = [2,0]: B never varies, A level 0 absent.
        let dm = DesignMatrix::build(&s, &[2, 4], 1);
        assert_eq!(dm.dims.len(), 1);
        assert_eq!(dm.dims[0].name, "A");
        assert_eq!(dm.dims[0].levels, vec![1, 2]);
        // a1 is the subset's baseline; only a2 gets a column.
        assert_eq!(dm.names, vec!["A=a2"]);
        assert_eq!(dm.dims[0].column_of(1), None);
        assert_eq!(dm.dims[0].column_of(2), Some(0));
        assert_eq!(dm.dims[0].column_of(0), None);
        let main = dm.main_effects();
        assert!(entries(&main, 0).is_empty());
        assert_eq!(entries(&main, 1), vec![(0, 1.0)]);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let s = space();
        let rows: Vec<usize> = s.indices().collect();
        assert_eq!(
            DesignMatrix::build(&s, &rows, 1),
            DesignMatrix::build(&s, &rows, 8)
        );
    }

    #[test]
    fn reduced_and_interaction_column_sets() {
        let s = space();
        let rows: Vec<usize> = s.indices().collect();
        let dm = DesignMatrix::build(&s, &rows, 1);
        let without_a = dm.without(0);
        assert_eq!(names(&without_a), vec!["B=b1"]);
        assert_eq!(without_a.interaction_columns(), 0);
        // Row 3 = [1, 1]: only B=b1 is left, moved to column 0.
        assert_eq!(entries(&without_a, 3), vec![(0, 1.0)]);
        let without_b = dm.without(1);
        assert_eq!(names(&without_b), vec!["A=a1", "A=a2"]);
        assert_eq!(entries(&without_b, 3), vec![(0, 1.0)]);
        let with_ab = dm.with_interaction(0, 1);
        assert_eq!(with_ab.interaction_columns(), 2);
        assert_eq!(
            names(&with_ab),
            vec!["A=a1", "A=a2", "B=b1", "A=a1×B=b1", "A=a2×B=b1"]
        );
        // The product column is the AND of its factors.
        for (r, c) in dm.coords.iter().enumerate() {
            let main = entries(&dm.main_effects(), r);
            let mut want = main.clone();
            if c[0] > 0 && c[1] > 0 {
                want.push((3 + c[0] - 1, 1.0));
            }
            assert_eq!(entries(&with_ab, r), want, "row {r}");
        }
    }
}
