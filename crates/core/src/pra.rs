//! The PRA quantification — the paper's solution concept (§3.2).
//!
//! Maps every protocol Π in a design space to a point in the
//! three-dimensional PRA cube `[0,1]³`:
//!
//! * **Performance** `P(Π)`: mean per-peer utility of a homogeneous
//!   population, averaged over runs, normalized so the best protocol in
//!   the space scores 1.
//! * **Robustness** `R(Π)`: the proportion of tournament games Π wins when
//!   it holds 50% of the population against every (or a sampled set of)
//!   other protocol(s) holding the other 50%.
//! * **Aggressiveness** `A(Π)`: the same with Π holding only 10%.
//!
//! The 50% robustness split is the paper's "highest number that an
//! invading protocol can have"; [`tournament_rates`] is exposed separately
//! so the §4.3.2 validation (90/10 split, Pearson ≈ 0.97 against 50/50)
//! can be reproduced.
//!
//! A tournament holds O(threads × protocols) memory whatever its pairing
//! count: pairings are read from the [`Schedule`] by index, and each
//! worker folds its pairings' wins into its own [`WinLedger`].

use crate::parallel::{parallel_fold, parallel_map_indexed};
use crate::results::PraResults;
use crate::sim::EncounterSim;
use crate::tournament::{OpponentSampling, Schedule, WinLedger};
use dsa_workloads::seeds::SeedSeq;

/// Configuration of a PRA sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PraConfig {
    /// Homogeneous runs per protocol (paper: 100).
    pub performance_runs: usize,
    /// Runs per tournament encounter (paper: 10).
    pub encounter_runs: usize,
    /// Protagonist population share in the robustness phase (paper: 0.5).
    pub robustness_share: f64,
    /// Protagonist population share in the aggressiveness phase (paper: 0.1).
    pub aggressiveness_share: f64,
    /// Opponent selection (paper: exhaustive; laptop default: sampled).
    pub sampling: OpponentSampling,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Master seed; the entire sweep is a pure function of it.
    pub seed: u64,
}

impl Default for PraConfig {
    /// Laptop-scale defaults; [`PraConfig::paper_scale`] holds the paper's
    /// §4.3 parameters.
    fn default() -> Self {
        Self {
            performance_runs: 8,
            encounter_runs: 2,
            robustness_share: 0.5,
            aggressiveness_share: 0.1,
            sampling: OpponentSampling::Sampled(64),
            threads: 0,
            seed: 0x5EED,
        }
    }
}

impl PraConfig {
    /// The paper's full-fidelity setting (hours of CPU on the full space).
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            performance_runs: 100,
            encounter_runs: 10,
            sampling: OpponentSampling::Exhaustive,
            ..Self::default()
        }
    }
}

/// One protocol's position in PRA space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PraPoint {
    /// Normalized performance in `[0, 1]`.
    pub performance: f64,
    /// Robustness in `[0, 1]`.
    pub robustness: f64,
    /// Aggressiveness in `[0, 1]`.
    pub aggressiveness: f64,
}

/// Runs the full PRA quantification over a protocol list.
///
/// Phases: performance (homogeneous populations), robustness tournament,
/// aggressiveness tournament. Each phase is parallel and deterministic in
/// `config.seed` regardless of `config.threads`, and is traced as a
/// `pra.{performance,robustness,aggressiveness}` span when tracing is on.
pub fn quantify<S: EncounterSim>(
    sim: &S,
    protocols: &[S::Protocol],
    config: &PraConfig,
) -> PraResults {
    let (performance_raw, performance) = {
        let _s = dsa_obs::span("pra.performance");
        let raw = performance_phase(sim, protocols, config);
        let norm = dsa_stats::describe::normalize_by_max(&raw);
        (raw, norm)
    };
    let robustness = {
        let _s = dsa_obs::span("pra.robustness");
        tournament_rates(sim, protocols, config.robustness_share, config, 1)
    };
    let aggressiveness = {
        let _s = dsa_obs::span("pra.aggressiveness");
        tournament_rates(sim, protocols, config.aggressiveness_share, config, 2)
    };
    PraResults::new(performance_raw, performance, robustness, aggressiveness)
}

/// The performance phase alone (used by the churn experiment, which the
/// paper runs without re-doing the tournaments).
pub fn performance_phase<S: EncounterSim>(
    sim: &S,
    protocols: &[S::Protocol],
    config: &PraConfig,
) -> Vec<f64> {
    let root = SeedSeq::new(config.seed).child(0);
    parallel_map_indexed(protocols.len(), config.threads, |i| {
        let node = root.child(i as u64);
        let runs = config.performance_runs.max(1);
        let mut acc = 0.0;
        for r in 0..runs {
            acc += sim.run_homogeneous(&protocols[i], node.child(r as u64).seed());
        }
        acc / runs as f64
    })
}

/// Runs one tournament at the given protagonist share and returns each
/// protocol's win rate (NaN for a protocol with no games).
///
/// `phase_tag` separates the seed streams of different tournaments run
/// under the same master seed (robustness vs aggressiveness vs the 90/10
/// validation). Pairing `p` runs its encounters at the seeds
/// `root.child(p).child(r)`, whichever worker takes it; the workers'
/// ledgers merge by integer addition, so the rates are bit-identical at
/// every thread count.
pub fn tournament_rates<S: EncounterSim>(
    sim: &S,
    protocols: &[S::Protocol],
    protagonist_share: f64,
    config: &PraConfig,
    phase_tag: u64,
) -> Vec<f64> {
    assert!(
        protagonist_share > 0.0 && protagonist_share < 1.0,
        "protagonist share must be in (0,1), got {protagonist_share}"
    );
    let n = protocols.len();
    let schedule = Schedule::new(
        n,
        config.sampling,
        SeedSeq::new(config.seed).child(99).seed(),
    );
    let root = SeedSeq::new(config.seed).child(phase_tag);
    let runs = config.encounter_runs.max(1);

    // Each task resolves one pairing (all its runs) into its worker's
    // ledger.
    let ledgers = parallel_fold(
        schedule.len(),
        config.threads,
        || WinLedger::new(n),
        |ledger, p| {
            let pairing = schedule.pairing(p);
            let node = root.child(p as u64);
            let mut wins = 0u64;
            for r in 0..runs {
                let seed = node.child(r as u64).seed();
                let (own, other) = sim.run_encounter(
                    &protocols[pairing.protagonist],
                    &protocols[pairing.opponent],
                    protagonist_share,
                    seed,
                );
                if own > other {
                    wins += 1;
                }
            }
            ledger.record_batch(pairing.protagonist, wins, runs as u64);
        },
    );
    let mut ledgers = ledgers.into_iter();
    let mut total = ledgers.next().expect("a fold yields an accumulator");
    for ledger in ledgers {
        total.merge(&ledger);
    }
    total.rates()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::testsim::FreeriderToy;

    fn protocols() -> Vec<f64> {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    }

    fn config() -> PraConfig {
        PraConfig {
            performance_runs: 3,
            encounter_runs: 2,
            sampling: OpponentSampling::Exhaustive,
            threads: 2,
            seed: 7,
            ..PraConfig::default()
        }
    }

    #[test]
    fn performance_ranks_generosity() {
        // In the toy domain, homogeneous utility equals generosity.
        let r = quantify(&FreeriderToy, &protocols(), &config());
        assert_eq!(r.performance.len(), 5);
        assert!((r.performance[4] - 1.0).abs() < 1e-9);
        for w in r.performance.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn robustness_rewards_freeriding_in_toy_domain() {
        // In encounters the less generous side always wins (+|a−b| margin),
        // so robustness is monotone decreasing in generosity: 0.0 wins all.
        let r = quantify(&FreeriderToy, &protocols(), &config());
        assert_eq!(r.robustness[0], 1.0);
        assert_eq!(r.robustness[4], 0.0);
        for w in r.robustness.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn aggressiveness_matches_robustness_in_share_independent_toy() {
        // The toy's winner does not depend on the split, mirroring the
        // paper's observation that R and A are highly correlated.
        let r = quantify(&FreeriderToy, &protocols(), &config());
        assert_eq!(r.robustness, r.aggressiveness);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut c1 = config();
        c1.threads = 1;
        let mut c8 = config();
        c8.threads = 8;
        let a = quantify(&FreeriderToy, &protocols(), &c1);
        let b = quantify(&FreeriderToy, &protocols(), &c8);
        assert_eq!(a.performance_raw, b.performance_raw);
        assert_eq!(a.robustness, b.robustness);
        assert_eq!(a.aggressiveness, b.aggressiveness);
    }

    #[test]
    fn sampled_tournament_approximates_exhaustive() {
        let mut sampled = config();
        sampled.sampling = OpponentSampling::Sampled(3);
        let full = quantify(&FreeriderToy, &protocols(), &config());
        let sub = quantify(&FreeriderToy, &protocols(), &sampled);
        // The extremes are invariant to which opponents were drawn (the
        // toy's least generous protocol beats everyone, the most generous
        // loses to everyone), and the estimates must agree in the large.
        assert_eq!(sub.robustness[0], 1.0);
        assert_eq!(sub.robustness[4], 0.0);
        let rho = dsa_stats::correlation::pearson(&full.robustness, &sub.robustness);
        assert!(rho > 0.8, "rho={rho}");
    }

    #[test]
    fn ninety_ten_correlates_with_fifty_fifty() {
        // The paper's §4.3.2 check, in miniature.
        let c = config();
        let p = protocols();
        let r50 = tournament_rates(&FreeriderToy, &p, 0.5, &c, 1);
        let r90 = tournament_rates(&FreeriderToy, &p, 0.9, &c, 3);
        let rho = dsa_stats::correlation::pearson(&r50, &r90);
        assert!(rho > 0.95, "rho={rho}");
    }

    #[test]
    fn tournament_without_pairings_scores_nan() {
        // Fewer than two protocols, or no sampled opponents: no games.
        let mut c = config();
        assert!(tournament_rates(&FreeriderToy, &[], 0.5, &c, 1).is_empty());
        let lone = tournament_rates(&FreeriderToy, &[0.5], 0.5, &c, 1);
        assert_eq!(lone.len(), 1);
        assert!(lone[0].is_nan());
        c.sampling = OpponentSampling::Sampled(0);
        assert!(tournament_rates(&FreeriderToy, &protocols(), 0.5, &c, 1)
            .iter()
            .all(|r| r.is_nan()));
    }

    #[test]
    #[should_panic(expected = "protagonist share")]
    fn degenerate_share_panics() {
        let _ = tournament_rates(&FreeriderToy, &protocols(), 1.0, &config(), 1);
    }
}
