//! Axelrod-style round-robin tournaments.
//!
//! The paper credits Axelrod's *Evolution of Cooperation* simulations as
//! the inspiration for Design Space Analysis: "A simulation based approach
//! has been used by Axelrod \[1\] to model strategic interactions in repeated
//! games." This module reproduces that methodology — every strategy plays
//! every other strategy (and optionally itself), cumulative scores decide
//! the ranking — and is the conceptual bridge between Section 2's
//! analytical games and Section 3's PRA tournament.

use crate::game::Game2x2;
use crate::iterated::{play_match, MatchConfig};
use crate::strategy::Strategy;
use dsa_workloads::seeds::SeedSeq;

/// Configuration of a round-robin tournament.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TournamentConfig {
    /// Match configuration (rounds, discount, noise).
    pub match_config: MatchConfig,
    /// Repetitions of every pairing (averaged).
    pub repetitions: usize,
    /// Whether strategies also play a copy of themselves.
    pub self_play: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        Self {
            match_config: MatchConfig::default(),
            repetitions: 5,
            self_play: true,
            seed: 0,
        }
    }
}

/// One strategy's tournament results.
#[derive(Debug, Clone, PartialEq)]
pub struct Standing {
    /// Strategy name.
    pub name: &'static str,
    /// Mean per-match score.
    pub mean_score: f64,
    /// Number of matches played.
    pub matches: usize,
}

/// Runs the round-robin and returns standings sorted best-first.
///
/// `make_field` is called whenever a fresh set of strategies is needed
/// (strategies are stateful; each pairing gets fresh instances so that
/// self-play works and no state leaks between matches).
pub fn round_robin(
    game: &Game2x2,
    make_field: impl Fn() -> Vec<Box<dyn Strategy>>,
    config: &TournamentConfig,
) -> Vec<Standing> {
    let probe = make_field();
    let n = probe.len();
    assert!(n >= 2, "tournament needs at least two strategies");
    let names: Vec<&'static str> = probe.iter().map(|s| s.name()).collect();

    let mut totals = vec![0.0f64; n];
    let mut played = vec![0usize; n];
    let root = SeedSeq::new(config.seed);

    for i in 0..n {
        let j_start = if config.self_play { i } else { i + 1 };
        for j in j_start..n {
            for rep in 0..config.repetitions {
                // Fresh instances per match; index-derived seed keeps the
                // schedule deterministic regardless of iteration order.
                let mut field_a = make_field();
                let mut field_b = make_field();
                let mut rng = root.child(i as u64).child(j as u64).child(rep as u64).rng();
                let out = play_match(
                    game,
                    field_a[i].as_mut(),
                    field_b[j].as_mut(),
                    &config.match_config,
                    &mut rng,
                );
                totals[i] += out.score_row;
                played[i] += 1;
                if i != j {
                    totals[j] += out.score_col;
                    played[j] += 1;
                } else {
                    // Self-play: both seats belong to the same strategy.
                    totals[i] += out.score_col;
                    played[i] += 1;
                }
            }
        }
    }

    let mut standings: Vec<Standing> = (0..n)
        .map(|i| Standing {
            name: names[i],
            mean_score: totals[i] / played[i].max(1) as f64,
            matches: played[i],
        })
        .collect();
    standings.sort_by(|a, b| {
        b.mean_score
            .partial_cmp(&a.mean_score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    standings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::prisoners_dilemma;
    use crate::strategy::{classic_field, AllC, AllD, TitForTat};

    fn two_strategy_field() -> Vec<Box<dyn Strategy>> {
        vec![Box::new(AllD), Box::new(AllC)]
    }

    #[test]
    fn alld_beats_allc_in_isolation() {
        let g = prisoners_dilemma();
        let standings = round_robin(&g, two_strategy_field, &TournamentConfig::default());
        assert_eq!(standings[0].name, "AllD");
    }

    #[test]
    fn reciprocators_prosper_in_mixed_field() {
        // Axelrod's qualitative result: in a field with enough
        // reciprocators, TFT outscores AllD.
        let g = prisoners_dilemma();
        let field = || -> Vec<Box<dyn Strategy>> {
            vec![
                Box::new(TitForTat),
                Box::new(TitForTat),
                Box::new(TitForTat),
                Box::new(AllC),
                Box::new(AllD),
            ]
        };
        let standings = round_robin(&g, field, &TournamentConfig::default());
        let rank = |name: &str| standings.iter().position(|s| s.name == name).unwrap();
        assert!(
            rank("TFT") < rank("AllD"),
            "expected TFT above AllD: {standings:?}"
        );
    }

    #[test]
    fn classic_field_runs_and_ranks_everyone() {
        let g = prisoners_dilemma();
        let standings = round_robin(&g, classic_field, &TournamentConfig::default());
        assert_eq!(standings.len(), 7);
        // Sorted best-first.
        for w in standings.windows(2) {
            assert!(w[0].mean_score >= w[1].mean_score);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = prisoners_dilemma();
        let a = round_robin(&g, classic_field, &TournamentConfig::default());
        let b = round_robin(&g, classic_field, &TournamentConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_noisy_outcome() {
        let g = prisoners_dilemma();
        let noisy = TournamentConfig {
            match_config: MatchConfig {
                rounds: 50,
                discount: 1.0,
                noise: 0.2,
            },
            repetitions: 1,
            self_play: false,
            seed: 1,
        };
        let mut other = noisy;
        other.seed = 2;
        let a = round_robin(&g, classic_field, &noisy);
        let b = round_robin(&g, classic_field, &other);
        // Scores should differ somewhere (same ranking is fine).
        let scores = |v: &[Standing]| v.iter().map(|s| s.mean_score).collect::<Vec<_>>();
        assert_ne!(scores(&a), scores(&b));
    }

    #[test]
    fn self_play_toggle_changes_match_counts() {
        let g = prisoners_dilemma();
        let with = round_robin(&g, two_strategy_field, &TournamentConfig::default());
        let without = round_robin(
            &g,
            two_strategy_field,
            &TournamentConfig {
                self_play: false,
                ..TournamentConfig::default()
            },
        );
        assert!(with[0].matches > without[0].matches);
    }
}
