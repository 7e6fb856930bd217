//! The iterated-game engine.
//!
//! Section 2.1 models BitTorrent as "a number of games \[played\] with other
//! peers in a given time period ... where the 'shadow of the future' is
//! large". This engine plays two [`Strategy`] implementations against each
//! other for a fixed horizon with optional discounting (the shadow of the
//! future) and optional execution noise (trembling hand), and reports both
//! players' cumulative scores and the full action history.

use crate::game::{Action, Game2x2};
use crate::strategy::Strategy;
use dsa_workloads::rng::Xoshiro256pp;

/// Configuration of an iterated match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Number of rounds to play.
    pub rounds: usize,
    /// Per-round discount factor δ ∈ (0, 1]; round t's payoff is weighted
    /// δ^t. δ = 1 is the undiscounted repeated game; δ close to 1 is a
    /// "large shadow of the future".
    pub discount: f64,
    /// Probability that an intended action is flipped (execution noise).
    pub noise: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            rounds: 200,
            discount: 1.0,
            noise: 0.0,
        }
    }
}

/// The outcome of an iterated match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    /// Row player's discounted cumulative payoff.
    pub score_row: f64,
    /// Column player's discounted cumulative payoff.
    pub score_col: f64,
    /// Per-round action pairs (row, col).
    pub history: Vec<(Action, Action)>,
}

impl MatchOutcome {
    /// Fraction of rounds in which both players cooperated.
    #[must_use]
    pub fn mutual_cooperation_rate(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let n = self
            .history
            .iter()
            .filter(|&&(r, c)| r == Action::Cooperate && c == Action::Cooperate)
            .count();
        n as f64 / self.history.len() as f64
    }
}

/// Plays one iterated match between two strategies.
///
/// Both strategies are `reset()` before play, so the same instances can be
/// reused across matches (as the tournament driver does).
///
/// # Panics
///
/// Panics if the configuration is degenerate (no rounds, discount outside
/// (0, 1], or noise outside [0, 1]).
pub fn play_match(
    game: &Game2x2,
    row: &mut dyn Strategy,
    col: &mut dyn Strategy,
    config: &MatchConfig,
    rng: &mut Xoshiro256pp,
) -> MatchOutcome {
    assert!(config.rounds > 0, "match needs at least one round");
    assert!(
        config.discount > 0.0 && config.discount <= 1.0,
        "discount must be in (0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&config.noise),
        "noise must be in [0,1]"
    );
    row.reset();
    col.reset();

    let mut history = Vec::with_capacity(config.rounds);
    let mut score_row = 0.0;
    let mut score_col = 0.0;
    let mut weight = 1.0;
    let mut last: Option<(Action, Action, f64, f64)> = None;

    for _ in 0..config.rounds {
        let (mut a_row, mut a_col) = match last {
            None => (row.first_move(rng), col.first_move(rng)),
            Some((r_prev, c_prev, r_pay, c_pay)) => (
                row.next_move(r_prev, c_prev, r_pay, rng),
                col.next_move(c_prev, r_prev, c_pay, rng),
            ),
        };
        if config.noise > 0.0 {
            if rng.chance(config.noise) {
                a_row = a_row.other();
            }
            if rng.chance(config.noise) {
                a_col = a_col.other();
            }
        }
        let (p_row, p_col) = game.payoff(a_row, a_col);
        score_row += weight * p_row;
        score_col += weight * p_col;
        weight *= config.discount;
        history.push((a_row, a_col));
        last = Some((a_row, a_col, p_row, p_col));
    }

    MatchOutcome {
        score_row,
        score_col,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::prisoners_dilemma;
    use crate::strategy::{AllC, AllD, Grim, TitForTat};

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(3)
    }

    fn cfg(rounds: usize) -> MatchConfig {
        MatchConfig {
            rounds,
            ..MatchConfig::default()
        }
    }

    #[test]
    fn tft_vs_tft_always_cooperates() {
        let g = prisoners_dilemma();
        let out = play_match(&g, &mut TitForTat, &mut TitForTat, &cfg(100), &mut rng());
        assert_eq!(out.mutual_cooperation_rate(), 1.0);
        assert_eq!(out.score_row, 300.0);
        assert_eq!(out.score_col, 300.0);
    }

    #[test]
    fn alld_exploits_allc() {
        let g = prisoners_dilemma();
        let out = play_match(&g, &mut AllD, &mut AllC, &cfg(50), &mut rng());
        assert_eq!(out.score_row, 250.0); // 50 × T
        assert_eq!(out.score_col, 0.0); // 50 × S
    }

    #[test]
    fn tft_loses_at_most_one_round_to_alld() {
        let g = prisoners_dilemma();
        let out = play_match(&g, &mut AllD, &mut TitForTat, &cfg(100), &mut rng());
        // AllD wins the first round (T vs S), then mutual defection.
        assert_eq!(out.score_row, 5.0 + 99.0);
        assert_eq!(out.score_col, 0.0 + 99.0);
    }

    #[test]
    fn grim_punishes_forever_under_noise_free_play() {
        let g = prisoners_dilemma();
        let out = play_match(&g, &mut Grim::default(), &mut AllD, &cfg(10), &mut rng());
        // Grim cooperates once, then defects for the rest.
        let grim_defections = out
            .history
            .iter()
            .filter(|&&(r, _)| r == Action::Defect)
            .count();
        assert_eq!(grim_defections, 9);
    }

    #[test]
    fn discounting_reduces_late_round_weight() {
        let g = prisoners_dilemma();
        let discounted = MatchConfig {
            rounds: 100,
            discount: 0.9,
            noise: 0.0,
        };
        let out = play_match(&g, &mut TitForTat, &mut TitForTat, &discounted, &mut rng());
        // Geometric series: 3 × (1 − 0.9^100) / (1 − 0.9) ≈ 29.9992.
        let want = 3.0 * (1.0 - 0.9f64.powi(100)) / 0.1;
        assert!((out.score_row - want).abs() < 1e-9);
    }

    #[test]
    fn noise_breaks_perfect_cooperation() {
        let g = prisoners_dilemma();
        let noisy = MatchConfig {
            rounds: 500,
            discount: 1.0,
            noise: 0.1,
        };
        let out = play_match(&g, &mut TitForTat, &mut TitForTat, &noisy, &mut rng());
        assert!(out.mutual_cooperation_rate() < 1.0);
        assert!(out.mutual_cooperation_rate() > 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = prisoners_dilemma();
        let noisy = MatchConfig {
            rounds: 100,
            discount: 1.0,
            noise: 0.2,
        };
        let a = play_match(
            &g,
            &mut TitForTat,
            &mut Grim::default(),
            &noisy,
            &mut Xoshiro256pp::seed_from_u64(11),
        );
        let b = play_match(
            &g,
            &mut TitForTat,
            &mut Grim::default(),
            &noisy,
            &mut Xoshiro256pp::seed_from_u64(11),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn history_length_matches_rounds() {
        let g = prisoners_dilemma();
        let out = play_match(&g, &mut AllC, &mut AllC, &cfg(42), &mut rng());
        assert_eq!(out.history.len(), 42);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let g = prisoners_dilemma();
        let bad = MatchConfig {
            rounds: 0,
            ..MatchConfig::default()
        };
        let _ = play_match(&g, &mut AllC, &mut AllC, &bad, &mut rng());
    }
}
