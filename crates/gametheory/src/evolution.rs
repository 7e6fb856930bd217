//! Evolutionary dynamics over strategy populations.
//!
//! The paper's related work leans on evolutionary game theory: Feldman et
//! al. \[7\] applied "an evolutionary game-theoretic analysis on a P2P
//! design space", and Mailath \[19\] ("Do people play Nash equilibrium?
//! Lessons from evolutionary game theory") motivates why equilibrium
//! predictions need dynamic justification. This module provides the two
//! standard tools:
//!
//! * [`replicator_step`]/[`replicator_trajectory`] — the discrete-time
//!   replicator dynamic over a symmetric bimatrix game: strategies grow in
//!   proportion to how their payoff compares to the population average.
//! * [`moran_fixation`] — finite-population Moran-process fixation
//!   probabilities by simulation, the stochastic counterpart used to test
//!   whether a mutant protocol can take over a finite swarm.
//!
//! Both operate on *payoff matrices over strategy profiles*, so any 2×2
//! game from [`crate::games`] (interpreted as a symmetric population game)
//! or an empirical payoff table measured by the simulators can be plugged
//! in.

use dsa_workloads::rng::Xoshiro256pp;

/// One step of the discrete-time replicator dynamic.
///
/// `payoff[i][j]` is the payoff of strategy `i` against strategy `j`;
/// `shares` is the current population mix (must sum to ~1). Returns the
/// next mix. Payoffs are shifted to be positive internally, which leaves
/// the dynamic's fixed points and orbits unchanged.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or `shares` is empty.
#[must_use]
pub fn replicator_step(payoff: &[Vec<f64>], shares: &[f64]) -> Vec<f64> {
    let n = shares.len();
    assert!(n > 0, "empty population");
    assert_eq!(payoff.len(), n, "payoff rows");
    assert!(payoff.iter().all(|r| r.len() == n), "payoff columns");

    // Fitness of each strategy against the current mix.
    let fitness: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| payoff[i][j] * shares[j]).sum())
        .collect();
    // Shift so all fitnesses are positive (replicator is invariant to
    // common shifts in expected payoff denominators when renormalized).
    let min_fit = fitness.iter().cloned().fold(f64::INFINITY, f64::min);
    let shift = if min_fit <= 0.0 { -min_fit + 1e-9 } else { 0.0 };
    let weighted: Vec<f64> = shares
        .iter()
        .zip(&fitness)
        .map(|(&s, &f)| s * (f + shift))
        .collect();
    let total: f64 = weighted.iter().sum();
    if total <= 0.0 {
        return shares.to_vec();
    }
    weighted.iter().map(|w| w / total).collect()
}

/// Iterates the replicator dynamic and returns the trajectory (including
/// the initial state).
#[must_use]
pub fn replicator_trajectory(payoff: &[Vec<f64>], initial: &[f64], steps: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(steps + 1);
    out.push(initial.to_vec());
    let mut current = initial.to_vec();
    for _ in 0..steps {
        current = replicator_step(payoff, &current);
        out.push(current.clone());
    }
    out
}

/// Whether a strategy mix is an (approximate) rest point of the dynamic.
#[must_use]
pub fn is_rest_point(payoff: &[Vec<f64>], shares: &[f64], tolerance: f64) -> bool {
    let next = replicator_step(payoff, shares);
    shares
        .iter()
        .zip(&next)
        .all(|(a, b)| (a - b).abs() <= tolerance)
}

/// Iterates the replicator dynamic from `initial` until the per-step
/// change drops below `tolerance` (max-norm) or `max_steps` is reached.
/// Returns the final mix and the number of steps actually taken — the
/// rest-point finder behind basin-of-attraction sampling.
#[must_use]
pub fn converge(
    payoff: &[Vec<f64>],
    initial: &[f64],
    max_steps: usize,
    tolerance: f64,
) -> (Vec<f64>, usize) {
    let mut current = initial.to_vec();
    for step in 0..max_steps {
        let next = replicator_step(payoff, &current);
        let delta = current
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        current = next;
        if delta <= tolerance {
            return (current, step + 1);
        }
    }
    (current, max_steps)
}

/// Restricts a `k × k` population game to the 2×2 game between
/// `resident` (strategy 0 of the result) and `mutant` (strategy 1) — the
/// bridge from empirical payoff matrices to the two-strategy
/// finite-population primitives.
///
/// # Panics
///
/// Panics when either index is out of range.
#[must_use]
pub fn pair_payoffs(payoff: &[Vec<f64>], resident: usize, mutant: usize) -> Vec<Vec<f64>> {
    vec![
        vec![payoff[resident][resident], payoff[resident][mutant]],
        vec![payoff[mutant][resident], payoff[mutant][mutant]],
    ]
}

/// Finite-population invasion analysis: the fixation probability of a
/// single `mutant`-strategy invader in a population of `n − 1`
/// `resident`s, under the `k × k` (possibly empirical) payoff matrix —
/// [`moran_fixation`] on the [`pair_payoffs`] restriction. The neutral
/// benchmark is `1 / n`: a mutant fixing more often than that invades the
/// resident protocol in finite populations even when the infinite-
/// population replicator dynamic would hold it out.
///
/// # Panics
///
/// Panics when an index is out of range, `n < 2` or `trials == 0`.
#[must_use]
pub fn invasion_fixation(
    payoff: &[Vec<f64>],
    resident: usize,
    mutant: usize,
    n: usize,
    trials: usize,
    rng: &mut Xoshiro256pp,
) -> f64 {
    moran_fixation(&pair_payoffs(payoff, resident, mutant), n, trials, rng)
}

/// Estimates the fixation probability of a single mutant of strategy 1 in
/// a population of `n − 1` residents of strategy 0, under a Moran process
/// with payoff-proportional reproduction, by Monte-Carlo simulation.
///
/// # Panics
///
/// Panics unless `n >= 2` and `trials >= 1`.
#[must_use]
pub fn moran_fixation(payoff: &[Vec<f64>], n: usize, trials: usize, rng: &mut Xoshiro256pp) -> f64 {
    assert!(n >= 2, "population too small");
    assert!(trials >= 1, "need at least one trial");
    assert_eq!(payoff.len(), 2, "moran_fixation is two-strategy");
    let mut fixed = 0usize;
    for _ in 0..trials {
        let mut mutants = 1usize;
        loop {
            if mutants == 0 {
                break;
            }
            if mutants == n {
                fixed += 1;
                break;
            }
            let residents = n - mutants;
            // Expected payoffs with self-exclusion.
            let f_res = (payoff[0][0] * (residents - 1) as f64 + payoff[0][1] * mutants as f64)
                / (n - 1) as f64;
            let f_mut = (payoff[1][0] * residents as f64 + payoff[1][1] * (mutants - 1) as f64)
                / (n - 1) as f64;
            // Shift positive for selection weights.
            let base = f_res.min(f_mut);
            let shift = if base <= 0.0 { -base + 1e-9 } else { 0.0 };
            let w_res = (f_res + shift) * residents as f64;
            let w_mut = (f_mut + shift) * mutants as f64;
            // Birth: payoff-proportional; death: uniform.
            let birth_is_mutant = rng.next_f64() * (w_res + w_mut) < w_mut;
            let death_is_mutant = rng.next_f64() * (n as f64) < mutants as f64;
            match (birth_is_mutant, death_is_mutant) {
                (true, false) => mutants += 1,
                (false, true) => mutants -= 1,
                _ => {}
            }
        }
    }
    fixed as f64 / trials as f64
}

/// Builds the symmetric population-game payoff matrix of a 2×2 game
/// (row player's payoffs, strategies = {Cooperate, Defect}).
#[must_use]
pub fn symmetric_payoffs(game: &crate::game::Game2x2) -> Vec<Vec<f64>> {
    use crate::game::Action;
    let a = |r, c| game.payoff(r, c).0;
    vec![
        vec![
            a(Action::Cooperate, Action::Cooperate),
            a(Action::Cooperate, Action::Defect),
        ],
        vec![
            a(Action::Defect, Action::Cooperate),
            a(Action::Defect, Action::Defect),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::prisoners_dilemma;

    fn pd_payoffs() -> Vec<Vec<f64>> {
        symmetric_payoffs(&prisoners_dilemma())
    }

    #[test]
    fn defection_takes_over_in_pd() {
        // Replicator dynamics drive the PD to all-defect.
        let traj = replicator_trajectory(&pd_payoffs(), &[0.9, 0.1], 500);
        let last = traj.last().unwrap();
        assert!(last[1] > 0.99, "defector share {}", last[1]);
    }

    #[test]
    fn shares_remain_a_distribution() {
        let traj = replicator_trajectory(&pd_payoffs(), &[0.5, 0.5], 100);
        for mix in traj {
            let sum: f64 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(mix.iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn monomorphic_states_are_rest_points() {
        let p = pd_payoffs();
        assert!(is_rest_point(&p, &[1.0, 0.0], 1e-12));
        assert!(is_rest_point(&p, &[0.0, 1.0], 1e-12));
        assert!(!is_rest_point(&p, &[0.5, 0.5], 1e-6));
    }

    #[test]
    fn coordination_game_bistability() {
        // Stag hunt: both all-C and all-D are attractors; the basin
        // boundary sits between them.
        let payoff = vec![vec![4.0, 0.0], vec![3.0, 2.0]];
        let to_c = replicator_trajectory(&payoff, &[0.9, 0.1], 300);
        let to_d = replicator_trajectory(&payoff, &[0.1, 0.9], 300);
        assert!(to_c.last().unwrap()[0] > 0.99);
        assert!(to_d.last().unwrap()[1] > 0.99);
    }

    #[test]
    fn converge_finds_the_pd_rest_point_and_reports_steps() {
        let p = pd_payoffs();
        let (rest, steps) = converge(&p, &[0.5, 0.5], 10_000, 1e-12);
        assert!(rest[1] > 0.999, "defectors fix: {rest:?}");
        assert!(is_rest_point(&p, &rest, 1e-9));
        assert!(steps > 0 && steps < 10_000, "converged early ({steps})");
        // Starting at a rest point converges immediately.
        let (_, at_rest) = converge(&p, &[0.0, 1.0], 10_000, 1e-12);
        assert_eq!(at_rest, 1);
    }

    #[test]
    fn pair_payoffs_restricts_the_matrix() {
        let m = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ];
        assert_eq!(pair_payoffs(&m, 2, 0), vec![vec![9.0, 7.0], vec![3.0, 1.0]]);
        // Same-index restriction is the neutral game.
        assert_eq!(pair_payoffs(&m, 1, 1), vec![vec![5.0, 5.0], vec![5.0, 5.0]]);
    }

    #[test]
    fn invasion_fixation_matches_direct_moran_on_the_restriction() {
        let m = vec![
            vec![3.0, 3.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![5.0, 0.0, 2.0],
        ];
        let mut a = Xoshiro256pp::seed_from_u64(21);
        let mut b = Xoshiro256pp::seed_from_u64(21);
        let via_helper = invasion_fixation(&m, 0, 1, 10, 500, &mut a);
        let direct = moran_fixation(&pair_payoffs(&m, 0, 1), 10, 500, &mut b);
        assert_eq!(via_helper, direct);
        // A disadvantaged mutant (payoff 1 vs resident 3) rarely fixes.
        assert!(via_helper < 0.05, "p={via_helper}");
    }

    #[test]
    fn neutral_drift_fixation_matches_theory() {
        // With identical payoffs, fixation probability of one mutant is
        // 1/n.
        let payoff = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let n = 10;
        let p = moran_fixation(&payoff, n, 4000, &mut rng);
        assert!((p - 1.0 / n as f64).abs() < 0.02, "p={p}");
    }

    #[test]
    fn advantageous_mutant_fixes_more_often_than_neutral() {
        let neutral = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let favored = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let p_neutral = moran_fixation(&neutral, 8, 3000, &mut rng);
        let p_favored = moran_fixation(&favored, 8, 3000, &mut rng);
        assert!(p_favored > p_neutral + 0.05, "{p_favored} vs {p_neutral}");
    }

    #[test]
    fn deviant_disadvantage_suppresses_fixation() {
        // AllD mutant in a TFT-like world modelled as payoff disadvantage.
        let payoff = vec![vec![3.0, 3.0], vec![1.0, 1.0]];
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let p = moran_fixation(&payoff, 10, 3000, &mut rng);
        assert!(p < 0.05, "p={p}");
    }

    #[test]
    #[should_panic(expected = "population too small")]
    fn moran_rejects_tiny_population() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = moran_fixation(&[vec![1.0, 1.0], vec![1.0, 1.0]], 1, 10, &mut rng);
    }
}
