//! The dimension-flip navigator: model-guided single-actualization moves.
//!
//! Shaw's use of a design space is *navigation* — understanding which
//! dimension to move along from where you stand. Given two fitted axes
//! (one to improve, one to guard), the navigator enumerates every
//! single-coordinate flip of a starting protocol, predicts both axes'
//! deltas from the fitted main-effects models (the difference of the two
//! levels' dummy estimates, as the attribution table caches them), keeps
//! the flips that improve the target without degrading the guard beyond
//! a tolerance, and then *verifies* the top suggestions against the true
//! sweep values — the regression proposes, the measurement disposes.

use crate::sweep::AxisSummary;
use dsa_core::space::DesignSpace;
use std::collections::HashMap;

/// One suggested single-actualization change, with its model-predicted
/// and measured consequences.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipSuggestion {
    /// The protocol index the flip lands on.
    pub index: usize,
    /// Dimension being flipped.
    pub dim: String,
    /// Level moved away from.
    pub from_level: String,
    /// Level moved to.
    pub to_level: String,
    /// Model-predicted delta on the improved axis.
    pub predicted_improve: f64,
    /// Model-predicted delta on the guarded axis (0 when unguarded).
    pub predicted_guard: f64,
    /// Measured delta on the improved axis (`NaN` when the target lies
    /// outside the measured rows).
    pub actual_improve: f64,
    /// Measured delta on the guarded axis (`NaN` outside the rows).
    pub actual_guard: f64,
}

impl FlipSuggestion {
    /// Whether the sweep confirms the prediction: the improved axis
    /// measurably gained and the guard did not measurably lose more than
    /// `tolerance`. An unmeasured guard (`NaN` — unguarded navigation, or
    /// a target outside the measured rows) cannot refute the suggestion;
    /// an unmeasured *improvement* cannot confirm it.
    #[must_use]
    pub fn verified(&self, tolerance: f64) -> bool {
        self.actual_improve > 0.0 && (self.actual_guard.is_nan() || self.actual_guard >= -tolerance)
    }
}

/// Enumerates, ranks and verifies the single-dimension flips from
/// `start`: which one actualization change most improves `improve`
/// without predicted damage beyond `guard_tolerance` on `guard`?
/// Suggestions come back ranked by predicted improvement (best first),
/// at most `top`, each verified against the true axis values over the
/// surface's `rows`.
///
/// The predictions come from the axes' cached main-effects estimates
/// ([`AxisSummary::level_estimate`]), which all axes of one surface code
/// over the same dimensions; nothing is refitted. Returns an empty list
/// when the improved (or a given guard) axis has no fitted model — the
/// navigator refuses to guess without one — or when no flip is predicted
/// to help.
///
/// # Panics
///
/// Panics when `start` lies outside the space, or when `improve` codes a
/// dimension the space does not have.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn navigate(
    space: &DesignSpace,
    rows: &[usize],
    improve: &AxisSummary,
    guard: Option<&AxisSummary>,
    improve_y: &[f64],
    guard_y: Option<&[f64]>,
    start: usize,
    guard_tolerance: f64,
    top: usize,
) -> Vec<FlipSuggestion> {
    let Some(estimates) = &improve.estimates else {
        return Vec::new();
    };
    if guard.is_some_and(|g| g.estimates.is_none()) {
        return Vec::new();
    }
    let row_of: HashMap<usize, usize> = rows
        .iter()
        .enumerate()
        .map(|(row, &index)| (index, row))
        .collect();
    let coords = space.coords(start);
    let start_row = row_of.get(&start).copied();
    let mut suggestions = Vec::new();
    for (k, (effect, levels)) in improve.dims.iter().zip(estimates).enumerate() {
        let d = space
            .dimensions()
            .iter()
            .position(|dim| dim.name == effect.name)
            .expect("a coded dimension of this space");
        let current = coords[d];
        let Some(est_now) = improve.level_estimate(k, current) else {
            // The starting point uses a level the surface never measured;
            // no calibrated prediction exists along this dimension.
            continue;
        };
        let guard_now = guard.and_then(|g| g.level_estimate(k, current));
        for e in levels {
            let level = e.level;
            if level == current {
                continue;
            }
            let predicted_improve = e.estimate - est_now;
            let predicted_guard = match (guard, guard_now) {
                (Some(g), Some(now)) => g.level_estimate(k, level).expect("present level") - now,
                _ => 0.0,
            };
            if predicted_improve <= 0.0 || predicted_guard < -guard_tolerance {
                continue;
            }
            let mut target = coords.clone();
            target[d] = level;
            let index = space.index(&target);
            let actual = |y: &[f64]| match (start_row, row_of.get(&index)) {
                (Some(s), Some(&t)) => y[t] - y[s],
                _ => f64::NAN,
            };
            let dim_names = &space.dimensions()[d];
            suggestions.push(FlipSuggestion {
                index,
                dim: effect.name.clone(),
                from_level: dim_names.levels[current].clone(),
                to_level: dim_names.levels[level].clone(),
                predicted_improve,
                predicted_guard,
                actual_improve: actual(improve_y),
                actual_guard: guard_y.map_or(f64::NAN, actual),
            });
        }
    }
    suggestions.sort_by(|a, b| {
        b.predicted_improve
            .total_cmp(&a.predicted_improve)
            .then_with(|| a.index.cmp(&b.index))
    });
    suggestions.truncate(top);
    suggestions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignMatrix;
    use dsa_core::space::Dimension;

    /// 3 × 2 additive space: A raises the target axis, B trades the
    /// target against the guard.
    fn setup() -> (DesignSpace, DesignMatrix, Vec<f64>, Vec<f64>) {
        let s = DesignSpace::new(
            "nav",
            vec![
                Dimension::new("A", vec!["a0".into(), "a1".into(), "a2".into()]),
                Dimension::new("B", vec!["b0".into(), "b1".into()]),
            ],
        );
        let rows: Vec<usize> = s.indices().collect();
        let dm = DesignMatrix::build(&s, &rows, 1);
        let perf: Vec<f64> = rows
            .iter()
            .map(|&i| {
                let c = s.coords(i);
                let noise = ((i * 37 % 7) as f64 - 3.0) / 1000.0;
                c[0] as f64 + 0.5 * c[1] as f64 + noise
            })
            .collect();
        let rob: Vec<f64> = rows
            .iter()
            .map(|&i| {
                let c = s.coords(i);
                1.0 - 0.8 * c[1] as f64 + ((i * 13 % 5) as f64 - 2.0) / 1000.0
            })
            .collect();
        (s, dm, perf, rob)
    }

    #[test]
    fn navigator_prefers_the_biggest_safe_flip() {
        let (s, dm, perf, rob) = setup();
        let perf_fit = AxisSummary::attribute(&dm, "perf", &perf);
        let rob_fit = AxisSummary::attribute(&dm, "rob", &rob);
        // Start at the origin (A=a0, B=b0); guard robustness tightly.
        let out = navigate(
            &s,
            &dm.rows,
            &perf_fit,
            Some(&rob_fit),
            &perf,
            Some(&rob),
            0,
            0.05,
            10,
        );
        // B=b1 would raise perf by 0.5 but costs 0.8 robustness — it must
        // be filtered; the A flips survive, a2 first.
        assert!(!out.is_empty());
        assert!(out.iter().all(|f| f.dim == "A"));
        assert_eq!(out[0].to_level, "a2");
        assert!(out[0].predicted_improve > out[1].predicted_improve);
        // Verification against the true sweep agrees with the model.
        for f in &out {
            assert!(f.verified(0.05), "{f:?}");
            assert!((f.actual_improve - f.predicted_improve).abs() < 0.1);
        }
    }

    #[test]
    fn unguarded_navigation_takes_the_tradeoff_flip_too() {
        let (s, dm, perf, _) = setup();
        let perf_fit = AxisSummary::attribute(&dm, "perf", &perf);
        let out = navigate(&s, &dm.rows, &perf_fit, None, &perf, None, 0, 0.0, 10);
        assert!(out.iter().any(|f| f.dim == "B"));
        assert!(out.iter().all(|f| f.actual_guard.is_nan()));
        // An unmeasured guard must not refute a measured improvement:
        // every flip here truly raises perf, so all are verified.
        assert!(out.iter().all(|f| f.verified(0.0)), "{out:?}");
    }

    #[test]
    fn navigator_without_a_fit_stays_silent() {
        let s = DesignSpace::new(
            "tiny",
            vec![Dimension::new("A", vec!["a0".into(), "a1".into()])],
        );
        let dm = DesignMatrix::build(&s, &[0, 1], 1);
        let y = [0.0, 1.0];
        let at = AxisSummary::attribute(&dm, "x", &y);
        assert!(at.estimates.is_none());
        assert!(navigate(&s, &dm.rows, &at, None, &y, None, 0, 0.0, 5).is_empty());
    }
}
