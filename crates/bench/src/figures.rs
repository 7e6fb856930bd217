//! Figures 2–8 and the §4.4 follow-up experiments, as views of the sweep.

use crate::prafig::rank_desc;
use crate::scale::Scale;
use crate::sweep::SweepData;
use dsa_core::domain::Domain;
use dsa_core::pra::{performance_phase, tournament_rates};
use dsa_stats::ascii;
use dsa_stats::ccdf::Ccdf;
use dsa_stats::correlation::pearson;
use dsa_stats::histogram::{Histogram, Histogram2d};
use dsa_swarm::adapter::SwarmDomain;
use dsa_swarm::protocol::{Allocation, Ranking, StrangerPolicy, SwarmProtocol};
use std::fmt::Write as _;

/// Mean partner count `k` over protocol indices (the quantity Figures
/// 3–4 and the churn experiment all summarize).
fn mean_partner_k(protocols: &[SwarmProtocol], indices: impl IntoIterator<Item = usize>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for i in indices {
        sum += f64::from(protocols[i].partner_slots);
        n += 1;
    }
    sum / n.max(1) as f64
}

/// Figure 2: scatter of all protocols, Robustness (x) vs Performance (y),
/// with marginal histograms.
#[must_use]
pub fn fig2(data: &SweepData) -> String {
    let points: Vec<(f64, f64)> = data
        .results
        .robustness
        .iter()
        .zip(&data.results.performance)
        .map(|(&r, &p)| (r, p))
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: Robustness (x) vs Performance (y), {} protocols",
        points.len()
    );
    out.push_str(&ascii::scatter_unit(&points, 64, 24));

    let mut perf_hist = Histogram::new(0.0, 1.0, 10);
    perf_hist.extend(&data.results.performance);
    let mut rob_hist = Histogram::new(0.0, 1.0, 10);
    rob_hist.extend(&data.results.robustness);
    let _ = writeln!(out, "\nPerformance histogram (counts per 0.1 bin):");
    let _ = writeln!(out, "{:?}", perf_hist.counts());
    let _ = writeln!(out, "Robustness histogram (counts per 0.1 bin):");
    let _ = writeln!(out, "{:?}", rob_hist.counts());

    // The paper's headline observations, quantified.
    let freeriders_low = data
        .protocols
        .iter()
        .zip(&data.results.performance)
        .filter(|(p, _)| p.is_freerider())
        .map(|(_, &perf)| perf)
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nMax performance among freeriders (R3): {freeriders_low:.2} (paper: 0.31)"
    );
    let best = data.results.ranked_by(|p| p.performance)[0];
    let _ = writeln!(
        out,
        "Top performer: {} (paper: Defect strangers + Sort Slowest + 1 partner)",
        data.protocols[best]
    );
    out
}

/// Figure 3 (`measure = performance`) and Figure 4 (`measure =
/// robustness`): per-interval frequency of partner counts.
#[must_use]
pub fn fig3_fig4(data: &SweepData, robustness: bool) -> String {
    let measure = if robustness {
        &data.results.robustness
    } else {
        &data.results.performance
    };
    let mut h = Histogram2d::new(10, 0.0, 1.0, 10);
    for (proto, &m) in data.protocols.iter().zip(measure) {
        h.add(usize::from(proto.partner_slots), m);
    }
    let labels: Vec<String> = (0..10).map(|k| k.to_string()).collect();
    let name = if robustness {
        "4: Robustness"
    } else {
        "3: Performance"
    };
    let mut out = format!("Figure {name} by number of partners (columns: k = 0..9)\n");
    out.push_str(&ascii::frequency_map(&h.row_frequencies(), &labels));

    // Quantify the paper's claims about the extremes.
    let ranked = data.results.ranked_by(|p| {
        if robustness {
            p.robustness
        } else {
            p.performance
        }
    });
    let top: Vec<u8> = ranked
        .iter()
        .take(15)
        .map(|&i| data.protocols[i].partner_slots)
        .collect();
    let mean_top = mean_partner_k(&data.protocols, ranked.iter().take(15).copied());
    let bottom_mean = mean_partner_k(&data.protocols, ranked.iter().rev().take(15).copied());
    let _ = writeln!(
        out,
        "mean k of top-15: {mean_top:.1}   mean k of bottom-15: {bottom_mean:.1}"
    );
    let _ = writeln!(out, "k values of top-15: {top:?}");
    out
}

/// Figure 5: complementary CDF of robustness per stranger policy.
#[must_use]
pub fn fig5(data: &SweepData) -> String {
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut summary = String::new();
    for (policy, label) in [
        (StrangerPolicy::Periodic, "Periodic"),
        (StrangerPolicy::WhenNeeded, "When needed"),
        (StrangerPolicy::Defect, "Defect"),
    ] {
        let rob: Vec<f64> = data
            .protocols
            .iter()
            .zip(&data.results.robustness)
            .filter(|(p, _)| p.stranger_slots > 0 && p.stranger_policy == policy)
            .map(|(_, &r)| r)
            .collect();
        let ccdf = Ccdf::of(&rob);
        let _ = writeln!(
            summary,
            "{label:>12}: n={}, P(R>0.9)={:.3}, max={:.3}",
            rob.len(),
            ccdf.fraction_above(0.9),
            rob.iter().cloned().fold(0.0f64, f64::max)
        );
        series.push((label.to_string(), ccdf.points()));
    }
    let mut out = String::from("Figure 5: CCDF of Robustness by stranger policy\n");
    out.push_str(&ascii::ccdf_curves(&series, 64, 16));
    out.push_str(&summary);
    out
}

/// Figures 6 and 7: robustness distribution per allocation policy /
/// ranking function (circle size in the paper = performance; here we
/// report quartiles and the performance of the most robust protocol).
#[must_use]
pub fn fig6_fig7(data: &SweepData, by_ranking: bool) -> String {
    let mut out = if by_ranking {
        String::from("Figure 7: Robustness by ranking function\n")
    } else {
        String::from("Figure 6: Robustness by resource allocation\n")
    };
    let groups: Vec<(String, Vec<usize>)> = if by_ranking {
        Ranking::ALL
            .iter()
            .map(|r| {
                (
                    format!("{r:?}"),
                    data.protocols
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.partner_slots > 0 && p.ranking == *r)
                        .map(|(i, _)| i)
                        .collect(),
                )
            })
            .collect()
    } else {
        Allocation::ALL
            .iter()
            .map(|a| {
                (
                    format!("{a:?}"),
                    data.protocols
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.allocation == *a)
                        .map(|(i, _)| i)
                        .collect(),
                )
            })
            .collect()
    };
    let _ = writeln!(
        out,
        "{:>12} {:>6} {:>7} {:>7} {:>7} {:>7} {:>16}",
        "group", "n", "q1", "median", "q3", "max", "perf@most-robust"
    );
    for (name, idx) in groups {
        let rob: Vec<f64> = idx.iter().map(|&i| data.results.robustness[i]).collect();
        let best = idx
            .iter()
            .copied()
            .max_by(|&a, &b| {
                data.results.robustness[a]
                    .partial_cmp(&data.results.robustness[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>12} {:>6} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>16.3}",
            name,
            rob.len(),
            dsa_stats::describe::quantile(&rob, 0.25),
            dsa_stats::describe::median(&rob),
            dsa_stats::describe::quantile(&rob, 0.75),
            dsa_stats::describe::max(&rob),
            data.results.performance[best],
        );
    }
    out
}

/// Figure 8: robustness vs aggressiveness scatter with Pearson's r
/// (paper: 0.96).
#[must_use]
pub fn fig8(data: &SweepData) -> String {
    let points: Vec<(f64, f64)> = data
        .results
        .robustness
        .iter()
        .zip(&data.results.aggressiveness)
        .map(|(&r, &a)| (r, a))
        .collect();
    let r = pearson(&data.results.robustness, &data.results.aggressiveness);
    let mut out = String::from("Figure 8: Robustness (x) vs Aggressiveness (y)\n");
    out.push_str(&ascii::scatter_unit(&points, 64, 24));
    let _ = writeln!(out, "Pearson r = {r:.3} (paper: 0.96)");
    out
}

/// §4.4.2: where the Birds family lands in the sweep.
#[must_use]
pub fn birds_placement(data: &SweepData) -> String {
    let birds_best = |measure: &dyn Fn(&dsa_core::pra::PraPoint) -> f64| -> (usize, f64, usize) {
        // The best Birds-family protocol under a measure, its value and
        // its rank within the whole space.
        let mut best_idx = 0;
        let mut best_val = f64::NEG_INFINITY;
        for (i, p) in data.protocols.iter().enumerate() {
            if p.is_birds_family() {
                let v = measure(&data.results.point(i));
                if v > best_val {
                    best_val = v;
                    best_idx = i;
                }
            }
        }
        let rank = data.results.rank_of(best_idx, measure);
        (best_idx, best_val, rank)
    };
    let (pi, pv, pr) = birds_best(&|p| p.performance);
    let (ri, rv, rr) = birds_best(&|p| p.robustness);
    let (ai, av, ar) = birds_best(&|p| p.aggressiveness);
    let mut out = String::from(
        "Birds family placement (paper: perf 0.83 rank 30; rob 0.76 rank 714; agg 0.74 rank 630)\n",
    );
    let _ = writeln!(
        out,
        "best perf : {} = {pv:.2}, rank {pr}/{}",
        data.protocols[pi],
        data.results.len()
    );
    let _ = writeln!(
        out,
        "best rob  : {} = {rv:.2}, rank {rr}/{}",
        data.protocols[ri],
        data.results.len()
    );
    let _ = writeln!(
        out,
        "best agg  : {} = {av:.2}, rank {ar}/{}",
        data.protocols[ai],
        data.results.len()
    );
    out
}

/// §4.4's churn check: re-run the performance phase under churn and
/// verify that low-partner-count protocols still top the ranking.
#[must_use]
pub fn churn_experiment(scale: &Scale) -> String {
    let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
    let mut out = String::from("Churn experiment: top-15 mean partner count by churn rate\n");
    for rate in [0.0, 0.01, 0.1] {
        let sim = SwarmDomain.sim(scale.effort(), rate);
        let perf = performance_phase(&sim, &protocols, &scale.pra);
        let idx = rank_desc(&perf);
        let mean_k = mean_partner_k(&protocols, idx.iter().take(15).copied());
        let _ = writeln!(
            out,
            "churn={rate:<5} top performer: {:<22} mean k of top-15: {mean_k:.2}",
            protocols[idx[0]].to_string()
        );
    }
    out.push_str("(paper: 'it was still the protocols that employed a low number of partners that performed the best')\n");
    out
}

/// §4.3.2's methodology validation: Pearson correlation between the
/// sweep's 50/50 robustness and a 90/10 tournament over its protocols
/// (paper: 0.97).
#[must_use]
pub fn corr_9010(data: &SweepData, scale: &Scale) -> String {
    let sim = SwarmDomain.sim(scale.effort(), 0.0);
    let r90 = tournament_rates(&sim, &data.protocols, 0.9, &scale.pra, 7);
    let r = pearson(&data.results.robustness, &r90);
    format!("Robustness 50/50 vs 90/10: Pearson r = {r:.3} (paper: 0.97)\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::results::PraResults;

    /// A synthetic sweep small enough for unit tests: real protocol
    /// descriptors, fabricated measures with known structure.
    fn fake_sweep() -> SweepData {
        let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
        let perf_raw: Vec<f64> = protocols
            .iter()
            .map(|p| {
                if p.is_freerider() {
                    0.2
                } else {
                    1.0 - 0.05 * f64::from(p.partner_slots)
                }
            })
            .collect();
        let perf = dsa_stats::describe::normalize_by_max(&perf_raw);
        let rob: Vec<f64> = protocols
            .iter()
            .map(|p| 0.1 + 0.08 * f64::from(p.partner_slots))
            .collect();
        let agg: Vec<f64> = rob.iter().map(|r| r * 0.95).collect();
        SweepData {
            protocols,
            results: PraResults::new(perf_raw, perf, rob, agg),
            scale_name: "fake".into(),
        }
    }

    #[test]
    fn fig2_mentions_headlines() {
        let s = fig2(&fake_sweep());
        assert!(s.contains("Figure 2"));
        assert!(s.contains("Max performance among freeriders"));
        assert!(s.contains("Top performer"));
    }

    #[test]
    fn fig3_shows_low_k_on_top() {
        let s = fig3_fig4(&fake_sweep(), false);
        assert!(s.contains("Figure 3"));
        // In the fabricated data low k = high performance.
        assert!(s.contains("mean k of top-15: 1.0") || s.contains("mean k of top-15: 0."));
    }

    #[test]
    fn fig4_shows_high_k_on_top() {
        let s = fig3_fig4(&fake_sweep(), true);
        assert!(s.contains("Figure 4"));
        assert!(s.contains("mean k of top-15: 9.0"));
    }

    #[test]
    fn fig5_reports_three_policies() {
        let s = fig5(&fake_sweep());
        assert!(s.contains("Periodic"));
        assert!(s.contains("When needed"));
        assert!(s.contains("Defect"));
    }

    #[test]
    fn fig6_fig7_group_counts() {
        let by_alloc = fig6_fig7(&fake_sweep(), false);
        // 3270 / 3 allocations = 1090 per group.
        assert!(by_alloc.contains("1090"));
        let by_rank = fig6_fig7(&fake_sweep(), true);
        // 108 selection policies with k>0 per ranking × 10 × 3 / 6 = 540.
        assert!(by_rank.contains("540"));
    }

    #[test]
    fn fig8_reports_pearson() {
        let s = fig8(&fake_sweep());
        // agg = 0.95 × rob ⇒ r = 1.
        assert!(s.contains("Pearson r = 1.000"));
    }

    #[test]
    fn birds_placement_reports_ranks() {
        let s = birds_placement(&fake_sweep());
        assert!(s.contains("best perf"));
        assert!(s.contains("rank"));
    }
}
