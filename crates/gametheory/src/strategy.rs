//! Strategies for iterated 2×2 games.
//!
//! BitTorrent's choking algorithm "follows a Tit-for-Tat like strategy"
//! (§2.1); the design space's candidate lists C1/C2 are TFT and
//! Tit-for-Two-Tats; Sort Adaptive is inspired by Win-Stay-Lose-Shift
//! (Posch \[25\]). This module provides those strategies in their classic
//! iterated-game form, used by the [`crate::axelrod`] tournament and the
//! Section 2 analysis examples.

use crate::game::Action;
use dsa_workloads::rng::Xoshiro256pp;

/// A stateful strategy for an iterated 2×2 game.
///
/// Implementations receive the full visible history through
/// [`Strategy::next_move`]'s `my_last`/`their_last` arguments plus their own
/// internal state, and must be deterministic given the `rng` stream.
pub trait Strategy {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// The opening move.
    fn first_move(&mut self, rng: &mut Xoshiro256pp) -> Action;

    /// The move for round `t > 0`, given both players' previous actions
    /// and this player's previous payoff.
    fn next_move(
        &mut self,
        my_last: Action,
        their_last: Action,
        my_last_payoff: f64,
        rng: &mut Xoshiro256pp,
    ) -> Action;

    /// Resets internal state for a fresh match.
    fn reset(&mut self);
}

/// Tit-for-Tat: cooperate first, then mirror the opponent's last action.
#[derive(Debug, Default, Clone)]
pub struct TitForTat;

impl Strategy for TitForTat {
    fn name(&self) -> &'static str {
        "TFT"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn next_move(
        &mut self,
        _my: Action,
        their: Action,
        _pay: f64,
        _rng: &mut Xoshiro256pp,
    ) -> Action {
        their
    }
    fn reset(&mut self) {}
}

/// Tit-for-Two-Tats: defects only after two consecutive opponent
/// defections — the forgiving variant Axelrod \[1\] discusses, and the
/// ancestor of the paper's C2 candidate list ("reciprocated in either of
/// the last two rounds").
#[derive(Debug, Default, Clone)]
pub struct TitForTwoTats {
    prior_defection: bool,
}

impl Strategy for TitForTwoTats {
    fn name(&self) -> &'static str {
        "TF2T"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn next_move(
        &mut self,
        _my: Action,
        their: Action,
        _pay: f64,
        _rng: &mut Xoshiro256pp,
    ) -> Action {
        let two_in_a_row = their == Action::Defect && self.prior_defection;
        self.prior_defection = their == Action::Defect;
        if two_in_a_row {
            Action::Defect
        } else {
            Action::Cooperate
        }
    }
    fn reset(&mut self) {
        self.prior_defection = false;
    }
}

/// Always cooperate.
#[derive(Debug, Default, Clone)]
pub struct AllC;

impl Strategy for AllC {
    fn name(&self) -> &'static str {
        "AllC"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn next_move(&mut self, _m: Action, _t: Action, _p: f64, _r: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn reset(&mut self) {}
}

/// Always defect — the strategy Locher et al. \[17\] showed exploits
/// BitTorrent's TFT ("free riding in BitTorrent is cheap").
#[derive(Debug, Default, Clone)]
pub struct AllD;

impl Strategy for AllD {
    fn name(&self) -> &'static str {
        "AllD"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Defect
    }
    fn next_move(&mut self, _m: Action, _t: Action, _p: f64, _r: &mut Xoshiro256pp) -> Action {
        Action::Defect
    }
    fn reset(&mut self) {}
}

/// Grim trigger: cooperate until the opponent defects once, then defect
/// forever.
#[derive(Debug, Default, Clone)]
pub struct Grim {
    triggered: bool,
}

impl Strategy for Grim {
    fn name(&self) -> &'static str {
        "Grim"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn next_move(
        &mut self,
        _my: Action,
        their: Action,
        _pay: f64,
        _rng: &mut Xoshiro256pp,
    ) -> Action {
        if their == Action::Defect {
            self.triggered = true;
        }
        if self.triggered {
            Action::Defect
        } else {
            Action::Cooperate
        }
    }
    fn reset(&mut self) {
        self.triggered = false;
    }
}

/// Win-Stay, Lose-Shift (Pavlov) with an aspiration level: repeat the last
/// action if it met the aspiration, otherwise switch (Posch \[25\], the
/// inspiration for the paper's Sort Adaptive ranking function).
#[derive(Debug, Clone)]
pub struct WinStayLoseShift {
    /// Payoff at or above which the previous action is repeated.
    pub aspiration: f64,
}

impl WinStayLoseShift {
    /// Creates the strategy with the given aspiration level.
    #[must_use]
    pub fn new(aspiration: f64) -> Self {
        Self { aspiration }
    }
}

impl Strategy for WinStayLoseShift {
    fn name(&self) -> &'static str {
        "WSLS"
    }
    fn first_move(&mut self, _rng: &mut Xoshiro256pp) -> Action {
        Action::Cooperate
    }
    fn next_move(
        &mut self,
        my: Action,
        _their: Action,
        pay: f64,
        _rng: &mut Xoshiro256pp,
    ) -> Action {
        if pay >= self.aspiration {
            my
        } else {
            my.other()
        }
    }
    fn reset(&mut self) {}
}

/// Cooperates with fixed probability each round.
#[derive(Debug, Clone)]
pub struct RandomStrategy {
    /// Cooperation probability in `[0, 1]`.
    pub p_cooperate: f64,
}

impl RandomStrategy {
    /// Creates the strategy.
    #[must_use]
    pub fn new(p_cooperate: f64) -> Self {
        Self { p_cooperate }
    }
}

impl Strategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "Random"
    }
    fn first_move(&mut self, rng: &mut Xoshiro256pp) -> Action {
        if rng.chance(self.p_cooperate) {
            Action::Cooperate
        } else {
            Action::Defect
        }
    }
    fn next_move(&mut self, _m: Action, _t: Action, _p: f64, rng: &mut Xoshiro256pp) -> Action {
        if rng.chance(self.p_cooperate) {
            Action::Cooperate
        } else {
            Action::Defect
        }
    }
    fn reset(&mut self) {}
}

/// Constructs one of each classic strategy, boxed, for tournament fields.
#[must_use]
pub fn classic_field() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(TitForTat),
        Box::new(TitForTwoTats::default()),
        Box::new(AllC),
        Box::new(AllD),
        Box::new(Grim::default()),
        Box::new(WinStayLoseShift::new(3.0)),
        Box::new(RandomStrategy::new(0.5)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    #[test]
    fn tft_mirrors() {
        let mut s = TitForTat;
        let mut r = rng();
        assert_eq!(s.first_move(&mut r), Action::Cooperate);
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Defect
        );
        assert_eq!(
            s.next_move(Action::Defect, Action::Cooperate, 5.0, &mut r),
            Action::Cooperate
        );
    }

    #[test]
    fn tf2t_forgives_single_defection() {
        let mut s = TitForTwoTats::default();
        let mut r = rng();
        let _ = s.first_move(&mut r);
        // One defection: still cooperate.
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Cooperate
        );
        // Second consecutive defection: defect.
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Defect
        );
        // Opponent cooperates again: forgive.
        assert_eq!(
            s.next_move(Action::Defect, Action::Cooperate, 5.0, &mut r),
            Action::Cooperate
        );
    }

    #[test]
    fn tf2t_reset_clears_memory() {
        let mut s = TitForTwoTats::default();
        let mut r = rng();
        let _ = s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r);
        s.reset();
        // After reset a single defection must again be forgiven.
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Cooperate
        );
    }

    #[test]
    fn grim_never_forgives() {
        let mut s = Grim::default();
        let mut r = rng();
        let _ = s.first_move(&mut r);
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Defect
        );
        for _ in 0..5 {
            assert_eq!(
                s.next_move(Action::Defect, Action::Cooperate, 5.0, &mut r),
                Action::Defect
            );
        }
    }

    #[test]
    fn wsls_switches_on_low_payoff() {
        let mut s = WinStayLoseShift::new(3.0);
        let mut r = rng();
        // Payoff 3 (met aspiration): stay.
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Cooperate, 3.0, &mut r),
            Action::Cooperate
        );
        // Payoff 0 (sucker): shift.
        assert_eq!(
            s.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Defect
        );
        // Payoff 5 (temptation): stay on defect.
        assert_eq!(
            s.next_move(Action::Defect, Action::Cooperate, 5.0, &mut r),
            Action::Defect
        );
    }

    #[test]
    fn random_respects_probability() {
        let mut s = RandomStrategy::new(0.8);
        let mut r = rng();
        let n = 50_000;
        let coop = (0..n)
            .filter(|_| {
                s.next_move(Action::Cooperate, Action::Cooperate, 1.0, &mut r) == Action::Cooperate
            })
            .count();
        let p = coop as f64 / f64::from(n);
        assert!((p - 0.8).abs() < 0.01, "p={p}");
    }

    #[test]
    fn alld_and_allc_are_constant() {
        let mut r = rng();
        let mut d = AllD;
        let mut c = AllC;
        assert_eq!(d.first_move(&mut r), Action::Defect);
        assert_eq!(c.first_move(&mut r), Action::Cooperate);
        assert_eq!(
            d.next_move(Action::Defect, Action::Cooperate, 5.0, &mut r),
            Action::Defect
        );
        assert_eq!(
            c.next_move(Action::Cooperate, Action::Defect, 0.0, &mut r),
            Action::Cooperate
        );
    }

    #[test]
    fn classic_field_has_distinct_names() {
        let field = classic_field();
        let names: std::collections::HashSet<&str> = field.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), field.len());
    }
}
