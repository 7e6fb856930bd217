//! Per-axis attribution: main-effect regressions, per-dimension effect
//! sizes and the pairwise interaction scan.
//!
//! For one response axis `y` over a [`DesignMatrix`], the attribution
//! fits the Table 3-style main-effects model `y ~ 1 + Σ dummies` and
//! quantifies each dimension two ways:
//!
//! * **one-way η²** — the dimension's between-level sum of squares over
//!   the total (no model needed, so it survives tiny row subsets like
//!   evolutionary candidate sets where the full regression is
//!   under-determined);
//! * **partial η²** with a nested-model F-test — refit with the
//!   dimension's column block removed, compare residual sums of squares
//!   ([`dsa_stats::ols::partial_eta_squared`] /
//!   [`dsa_stats::ols::nested_f_test`]).
//!
//! The interaction scan augments the main-effects model with one
//! dimension pair's product columns at a time and ranks the pairs by
//! incremental R² — the map of where the design space is *not* additive.

use crate::design::DesignMatrix;
use dsa_stats::ols::{fit, nested_f_test, partial_eta_squared, residual_ss, OlsFit};

/// One dimension's share of a response axis' variance.
#[derive(Debug, Clone, PartialEq)]
pub struct DimEffect {
    /// Dimension name.
    pub name: String,
    /// Number of levels present among the rows.
    pub levels: usize,
    /// One-way η²: between-level SS over total SS (model-free).
    pub eta_sq: f64,
    /// Partial η² from the nested main-effects comparison; `NaN` when the
    /// full regression is infeasible on this surface.
    pub partial_eta_sq: f64,
    /// Nested-model F statistic; `NaN` without a full fit.
    pub f_stat: f64,
    /// Upper-tail p-value of the F statistic; `NaN` without a full fit.
    pub p_value: f64,
}

/// The full attribution of one response axis.
#[derive(Debug, Clone)]
pub struct AxisAttribution {
    /// Axis name (`"performance"`, `"sybil"`, `"basin"`, ...).
    pub axis: String,
    /// Number of observations.
    pub n: usize,
    /// The fitted main-effects model, when the surface supports it
    /// (enough rows, full-rank design). `None` falls back to one-way η²
    /// only.
    pub fit: Option<OlsFit>,
    /// Per-dimension effects, in space-descriptor order.
    pub dims: Vec<DimEffect>,
}

impl AxisAttribution {
    /// R² of the main-effects model (`NaN` without a fit).
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.fit.as_ref().map_or(f64::NAN, |f| f.r_squared)
    }

    /// Adjusted R² of the main-effects model (`NaN` without a fit).
    #[must_use]
    pub fn adj_r_squared(&self) -> f64 {
        self.fit.as_ref().map_or(f64::NAN, |f| f.adj_r_squared)
    }
}

/// One-way η² of coded dimension `coded_dim` for response `y`:
/// `SS_between / SS_total` over the dimension's level groups. Returns 0
/// for a constant response.
#[must_use]
pub fn one_way_eta_sq(dm: &DesignMatrix, coded_dim: usize, y: &[f64]) -> f64 {
    let code = &dm.dims[coded_dim];
    let d = code.dim;
    let n = y.len();
    let grand = y.iter().sum::<f64>() / n.max(1) as f64;
    let mut ss_tot = 0.0;
    for &v in y {
        ss_tot += (v - grand) * (v - grand);
    }
    if ss_tot <= 0.0 {
        return 0.0;
    }
    let mut ss_between = 0.0;
    for &level in &code.levels {
        let (mut sum, mut count) = (0.0f64, 0usize);
        for (c, &v) in dm.coords.iter().zip(y) {
            if c[d] == level {
                sum += v;
                count += 1;
            }
        }
        if count > 0 {
            let mean = sum / count as f64;
            ss_between += count as f64 * (mean - grand) * (mean - grand);
        }
    }
    (ss_between / ss_tot).clamp(0.0, 1.0)
}

/// Attributes one response axis over a design matrix: the main-effects
/// fit (when feasible), one-way η² per dimension, and partial η² with a
/// nested F-test per dimension on top of the full model.
///
/// # Panics
///
/// Panics when `y` and the matrix disagree in length.
#[must_use]
pub fn attribute_axis(dm: &DesignMatrix, axis: &str, y: &[f64]) -> AxisAttribution {
    assert_eq!(y.len(), dm.n(), "response length must match the rows");
    let main = dm.main_effects();
    let full_ss = residual_ss(&main, y).ok();
    let full_fit = full_ss.and_then(|_| fit(&main, y).ok());
    let dims = (0..dm.dims.len())
        .map(|k| {
            let eta_sq = one_way_eta_sq(dm, k, y);
            let (partial, f_stat, p_value) = match full_ss {
                Some(full) => match residual_ss(&dm.without(k), y) {
                    Ok(reduced) => {
                        let (f_stat, p) = nested_f_test(&full, &reduced);
                        (partial_eta_squared(&full, &reduced), f_stat, p)
                    }
                    Err(_) => (f64::NAN, f64::NAN, f64::NAN),
                },
                None => (f64::NAN, f64::NAN, f64::NAN),
            };
            DimEffect {
                name: dm.dims[k].name.clone(),
                levels: dm.dims[k].levels.len(),
                eta_sq,
                partial_eta_sq: partial,
                f_stat,
                p_value,
            }
        })
        .collect();
    AxisAttribution {
        axis: axis.to_string(),
        n: dm.n(),
        fit: full_fit,
        dims,
    }
}

/// One dimension pair's contribution beyond the additive model.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionEffect {
    /// First dimension name.
    pub dim_a: String,
    /// Second dimension name.
    pub dim_b: String,
    /// Number of product columns the pair adds.
    pub columns: usize,
    /// Incremental R² of the augmented model over the main-effects model;
    /// `NaN` when the augmented design is infeasible (aliased cells).
    pub delta_r2: f64,
    /// Nested-model F statistic of the interaction block.
    pub f_stat: f64,
    /// Upper-tail p-value of the F statistic.
    pub p_value: f64,
}

/// Scans every unordered pair of coded dimensions, augmenting the
/// main-effects model with the pair's product columns, and returns the
/// pairs ranked by incremental R² (infeasible pairs last).
///
/// # Panics
///
/// Panics when `y` and the matrix disagree in length.
#[must_use]
pub fn interaction_scan(dm: &DesignMatrix, y: &[f64]) -> Vec<InteractionEffect> {
    assert_eq!(y.len(), dm.n(), "response length must match the rows");
    let main = residual_ss(&dm.main_effects(), y).ok();
    let k = dm.dims.len();
    let mut out = Vec::new();
    for a in 0..k {
        for b in (a + 1)..k {
            let augmented = dm.with_interaction(a, b);
            let added = augmented.interaction_columns();
            let effect = match (main, residual_ss(&augmented, y)) {
                (Some(main_ss), Ok(aug)) => {
                    let (f_stat, p_value) = nested_f_test(&aug, &main_ss);
                    InteractionEffect {
                        dim_a: dm.dims[a].name.clone(),
                        dim_b: dm.dims[b].name.clone(),
                        columns: added,
                        delta_r2: (aug.r_squared() - main_ss.r_squared()).max(0.0),
                        f_stat,
                        p_value,
                    }
                }
                _ => InteractionEffect {
                    dim_a: dm.dims[a].name.clone(),
                    dim_b: dm.dims[b].name.clone(),
                    columns: added,
                    delta_r2: f64::NAN,
                    f_stat: f64::NAN,
                    p_value: f64::NAN,
                },
            };
            out.push(effect);
        }
    }
    // Rank by incremental R², NaNs last, ties broken by name for a
    // deterministic order.
    out.sort_by(|x, y| {
        match (x.delta_r2.is_nan(), y.delta_r2.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => y.delta_r2.total_cmp(&x.delta_r2),
        }
        .then_with(|| {
            (x.dim_a.as_str(), x.dim_b.as_str()).cmp(&(y.dim_a.as_str(), y.dim_b.as_str()))
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::space::{DesignSpace, Dimension};

    /// 3 × 2 × 2 space with a planted structure: dimension A carries a
    /// large additive effect, B a small one, C none; A and B interact.
    fn planted() -> (DesignMatrix, Vec<f64>) {
        let s = DesignSpace::new(
            "planted",
            vec![
                Dimension::new("A", vec!["a0".into(), "a1".into(), "a2".into()]),
                Dimension::new("B", vec!["b0".into(), "b1".into()]),
                Dimension::new("C", vec!["c0".into(), "c1".into()]),
            ],
        );
        let rows: Vec<usize> = s.indices().collect();
        let dm = DesignMatrix::build(&s, &rows, 1);
        let y: Vec<f64> = rows
            .iter()
            .map(|&i| {
                let c = s.coords(i);
                let noise = ((i * 37 % 11) as f64 - 5.0) / 200.0;
                10.0 * c[0] as f64 + 1.0 * c[1] as f64 + 2.0 * (c[0] as f64 * c[1] as f64) + noise
            })
            .collect();
        (dm, y)
    }

    #[test]
    fn planted_effects_are_ranked_correctly() {
        let (dm, y) = planted();
        let at = attribute_axis(&dm, "perf", &y);
        assert_eq!(at.axis, "perf");
        assert_eq!(at.n, 12);
        assert!(at.fit.is_some());
        assert!(at.r_squared() > 0.99, "r2 = {}", at.r_squared());
        let by_name = |n: &str| at.dims.iter().find(|d| d.name == n).unwrap();
        let (a, b, c) = (by_name("A"), by_name("B"), by_name("C"));
        // A dominates, B matters, C explains essentially nothing.
        assert!(a.eta_sq > 0.8, "A eta {}", a.eta_sq);
        assert!(a.partial_eta_sq > b.partial_eta_sq);
        assert!(b.partial_eta_sq > c.partial_eta_sq);
        assert!(c.eta_sq < 0.01, "C eta {}", c.eta_sq);
        assert!(a.p_value < 0.001);
        assert!(c.p_value > 0.05);
        // Effect sizes live in [0,1].
        for d in &at.dims {
            assert!((0.0..=1.0).contains(&d.eta_sq));
            assert!((0.0..=1.0).contains(&d.partial_eta_sq));
        }
    }

    #[test]
    fn interaction_scan_finds_the_planted_pair() {
        let (dm, y) = planted();
        let scan = interaction_scan(&dm, &y);
        assert_eq!(scan.len(), 3); // (A,B), (A,C), (B,C)
        assert_eq!((scan[0].dim_a.as_str(), scan[0].dim_b.as_str()), ("A", "B"));
        assert!(scan[0].delta_r2 > scan[1].delta_r2);
        assert!(scan[0].f_stat > 1.0);
        // The non-planted pairs explain essentially nothing extra.
        assert!(scan[2].delta_r2 < 0.01);
    }

    #[test]
    fn tiny_subsets_fall_back_to_one_way_eta() {
        // Two observations cannot support a regression, but the one-way
        // η² is still defined.
        let s = DesignSpace::new(
            "s",
            vec![Dimension::new("A", vec!["a0".into(), "a1".into()])],
        );
        let dm = DesignMatrix::build(&s, &[0, 1], 1);
        let at = attribute_axis(&dm, "x", &[0.0, 1.0]);
        assert!(at.fit.is_none());
        assert!(at.r_squared().is_nan());
        assert_eq!(at.dims[0].eta_sq, 1.0);
        assert!(at.dims[0].partial_eta_sq.is_nan());
    }

    #[test]
    fn constant_response_attributes_nothing() {
        let (dm, _) = planted();
        let y = vec![3.25; dm.n()];
        let at = attribute_axis(&dm, "flat", &y);
        for d in &at.dims {
            assert_eq!(d.eta_sq, 0.0);
        }
    }
}
