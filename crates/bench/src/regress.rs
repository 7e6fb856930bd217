//! Table 3: multiple linear regression of the PRA measures on the design
//! dimensions.
//!
//! Exactly the paper's model: numerical `h`, `k` enter as standardized
//! logs (`log(h̃)`, `log(k̃)`; we use `log(x+1)` since the space contains
//! h = 0 and k = 0 — see [`log1p_standardized`]), categorical dimensions enter as
//! dummies with baselines B1, C1, I1, R1 (the rows Table 3 omits).

use crate::sweep::SweepData;
use dsa_stats::encode::{log1p_standardized, NamedColumn};
use dsa_stats::ols::{fit, OlsFit};
use dsa_swarm::protocol::{Allocation, CandidateList, Ranking, StrangerPolicy, SwarmProtocol};
use std::fmt::Write as _;

/// Builds the paper's 12 predictor columns from the protocol list.
#[must_use]
pub fn predictors(protocols: &[SwarmProtocol]) -> Vec<NamedColumn> {
    let k: Vec<f64> = protocols
        .iter()
        .map(|p| f64::from(p.partner_slots))
        .collect();
    let h: Vec<f64> = protocols
        .iter()
        .map(|p| f64::from(p.stranger_slots))
        .collect();

    let mut cols = vec![
        NamedColumn::new("log(k~)", log1p_standardized(&k)),
        NamedColumn::new("log(h~)", log1p_standardized(&h)),
    ];

    // Stranger-policy dummies (baseline B1; h = 0 rows are all-zero, i.e.
    // treated as baseline-policy absences).
    for (policy, name) in [
        (StrangerPolicy::WhenNeeded, "B2"),
        (StrangerPolicy::Defect, "B3"),
    ] {
        cols.push(NamedColumn::new(
            name,
            protocols
                .iter()
                .map(|p| {
                    f64::from(u8::from(
                        p.stranger_slots > 0 && p.stranger_policy == policy,
                    ))
                })
                .collect(),
        ));
    }
    // Candidate-list dummy (baseline C1).
    cols.push(NamedColumn::new(
        "C2",
        protocols
            .iter()
            .map(|p| {
                f64::from(u8::from(
                    p.partner_slots > 0 && p.candidates == CandidateList::Tf2t,
                ))
            })
            .collect(),
    ));
    // Ranking dummies (baseline I1).
    for (ranking, name) in [
        (Ranking::Slowest, "I2"),
        (Ranking::Proximity, "I3"),
        (Ranking::Adaptive, "I4"),
        (Ranking::Loyal, "I5"),
        (Ranking::Random, "I6"),
    ] {
        cols.push(NamedColumn::new(
            name,
            protocols
                .iter()
                .map(|p| f64::from(u8::from(p.partner_slots > 0 && p.ranking == ranking)))
                .collect(),
        ));
    }
    // Allocation dummies (baseline R1).
    for (alloc, name) in [(Allocation::PropShare, "R2"), (Allocation::Freeride, "R3")] {
        cols.push(NamedColumn::new(
            name,
            protocols
                .iter()
                .map(|p| f64::from(u8::from(p.allocation == alloc)))
                .collect(),
        ));
    }
    cols
}

/// The three fitted models of Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Regression of Performance.
    pub performance: OlsFit,
    /// Regression of Robustness.
    pub robustness: OlsFit,
    /// Regression of Aggressiveness.
    pub aggressiveness: OlsFit,
}

/// Fits Table 3 from sweep data.
///
/// # Panics
///
/// Panics if the regression fails (cannot happen on the full space, whose
/// design matrix is full-rank by construction).
#[must_use]
pub fn table3(data: &SweepData) -> Table3 {
    let x = predictors(&data.protocols);
    let fit_for = |y: &[f64]| fit(&x, y).expect("full-rank design matrix");
    Table3 {
        performance: fit_for(&data.results.performance),
        robustness: fit_for(&data.results.robustness),
        aggressiveness: fit_for(&data.results.aggressiveness),
    }
}

impl Table3 {
    /// Renders the three-model table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 3: multiple linear regression of PRA measures on design dimensions\n",
        );
        let _ = writeln!(
            out,
            "{:<12} | {:>9} {:>8} {:>5} | {:>9} {:>8} {:>5} | {:>9} {:>8} {:>5}",
            "", "Perf est", "t", "sig", "Rob est", "t", "sig", "Agg est", "t", "sig"
        );
        let _ = writeln!(
            out,
            "{:<12} | adj.R2 = {:<17.2} | adj.R2 = {:<16.2} | adj.R2 = {:.2}",
            "",
            self.performance.adj_r_squared,
            self.robustness.adj_r_squared,
            self.aggressiveness.adj_r_squared
        );
        for i in 0..self.performance.terms.len() {
            let p = &self.performance.terms[i];
            let r = &self.robustness.terms[i];
            let a = &self.aggressiveness.terms[i];
            let sig = |ok: bool| if ok { "OK" } else { "-" };
            let _ = writeln!(
                out,
                "{:<12} | {:>9.3} {:>8.2} {:>5} | {:>9.3} {:>8.2} {:>5} | {:>9.3} {:>8.2} {:>5}",
                p.name,
                p.estimate,
                p.t_value,
                sig(p.significant()),
                r.estimate,
                r.t_value,
                sig(r.significant()),
                a.estimate,
                a.t_value,
                sig(a.significant()),
            );
        }
        out
    }

    /// The estimate of a named term in a given model
    /// (`"performance" | "robustness" | "aggressiveness"`).
    #[must_use]
    pub fn estimate(&self, model: &str, term: &str) -> Option<f64> {
        let fit = match model {
            "performance" => &self.performance,
            "robustness" => &self.robustness,
            "aggressiveness" => &self.aggressiveness,
            _ => return None,
        };
        fit.terms
            .iter()
            .find(|t| t.name == term)
            .map(|t| t.estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::results::PraResults;

    /// Synthetic sweep whose measures follow known linear structure so the
    /// regression must recover the signs.
    fn synthetic() -> SweepData {
        let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
        let perf_raw: Vec<f64> = protocols
            .iter()
            .map(|p| {
                let mut v: f64 = 0.7;
                if p.allocation == Allocation::Freeride {
                    v -= 0.5;
                }
                if p.stranger_slots > 0 && p.stranger_policy == StrangerPolicy::Defect {
                    v -= 0.2;
                }
                v += 0.05 * f64::from(p.stranger_slots);
                v.max(0.0)
            })
            .collect();
        let perf = dsa_stats::describe::normalize_by_max(&perf_raw);
        let rob: Vec<f64> = protocols
            .iter()
            .map(|p| {
                let mut v: f64 = 0.5;
                if p.stranger_slots > 0 && p.stranger_policy == StrangerPolicy::WhenNeeded {
                    v += 0.1;
                }
                v += 0.03 * f64::from(p.partner_slots);
                if p.allocation == Allocation::Freeride {
                    v -= 0.25;
                }
                v.clamp(0.0, 1.0)
            })
            .collect();
        let agg = rob.clone();
        SweepData {
            protocols,
            results: PraResults::new(perf_raw, perf, rob, agg),
            scale_name: "synthetic".into(),
        }
    }

    #[test]
    fn predictor_columns_match_paper_terms() {
        let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
        let cols = predictors(&protocols);
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["log(k~)", "log(h~)", "B2", "B3", "C2", "I2", "I3", "I4", "I5", "I6", "R2", "R3"]
        );
        assert!(cols.iter().all(|c| c.values.len() == protocols.len()));
    }

    #[test]
    fn regression_recovers_planted_signs() {
        let t3 = table3(&synthetic());
        // Freeride hurts performance most (paper: −0.544, largest |est|).
        let r3 = t3.estimate("performance", "R3").unwrap();
        assert!(r3 < -0.3, "R3 estimate {r3}");
        // Defect stranger policy hurts performance (paper: −0.206).
        assert!(t3.estimate("performance", "B3").unwrap() < -0.05);
        // When-needed helps robustness (paper: +0.026).
        assert!(t3.estimate("robustness", "B2").unwrap() > 0.05);
        // More partners helps robustness (paper: +0.035 on log(k~)).
        assert!(t3.estimate("robustness", "log(k~)").unwrap() > 0.0);
    }

    #[test]
    fn render_contains_all_rows() {
        let t3 = table3(&synthetic());
        let s = t3.render();
        for term in [
            "(intercept)",
            "log(k~)",
            "log(h~)",
            "B2",
            "B3",
            "C2",
            "I5",
            "R3",
        ] {
            assert!(s.contains(term), "missing {term} in\n{s}");
        }
        assert!(s.contains("adj.R2"));
    }

    #[test]
    fn estimate_lookup() {
        let t3 = table3(&synthetic());
        assert!(t3.estimate("performance", "R3").is_some());
        assert!(t3.estimate("nonsense", "R3").is_none());
        assert!(t3.estimate("performance", "Z9").is_none());
    }
}
