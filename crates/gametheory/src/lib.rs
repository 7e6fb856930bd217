//! Game-theoretic substrate for the DSA reproduction (Section 2 + Appendix).
//!
//! The paper's first contribution is a game-theoretic model of BitTorrent
//! that incorporates *repeated interactions* and *opportunity costs*: the
//! **BitTorrent Dilemma** (Figure 1a) between fast and slow bandwidth
//! classes, the modified **Birds** payoffs (Figure 1c), an analytical model
//! of expected game wins per class (Table 1, Section 2.2), and the Appendix
//! proof that BitTorrent's TFT is not a Nash equilibrium while Birds is.
//!
//! * [`game`] — 2×2 normal-form games: payoffs, dominance, best responses,
//!   pure Nash equilibria.
//! * [`games`] — the paper's concrete games: Prisoner's Dilemma, Dictator
//!   game, BitTorrent Dilemma (Fig 1a), Birds (Fig 1c).
//! * [`classes`] — Table 1's population parameters (N_A, N_B, N_C, U_r).
//! * [`analytics`] — the Section 2.2 expected-win formulae for BitTorrent
//!   and Birds in homogeneous populations.
//! * [`nash`] — the Appendix deviation analysis: a single Birds deviant in
//!   a BitTorrent swarm wins more games than the incumbents (BT is not NE);
//!   a single BitTorrent deviant in a Birds swarm wins fewer (Birds is NE).
//! * [`evolution`] — replicator and Moran dynamics over payoff matrices.
//!
//! Axelrod's round-robin tournaments of iterated-game strategies are the
//! methodological ancestor of the paper's PRA quantification.

pub mod analytics;
pub mod classes;
pub mod evolution;
pub mod game;
pub mod games;
pub mod nash;

pub use classes::ClassParams;
pub use game::{Action, Game2x2};
