//! Tournament scheduling for the Robustness / Aggressiveness phases.
//!
//! The paper's methodology (§4.3.2): a *tournament* pits protocol Π against
//! every other protocol in *encounters* — mixed populations split 50/50
//! (Robustness) or 10/90 (Aggressiveness) — with 10 runs per encounter;
//! Π's score is wins / games. On a laptop the full 3270² pairing is
//! infeasible (the authors used a cluster for ~25 hours), so the schedule
//! also supports *sampled* tournaments: every protocol meets the same
//! number of uniformly drawn opponents, preserving the win-rate estimator.
//!
//! A [`Schedule`] addresses its pairings by index. The exhaustive one is a
//! closed form of the index and holds nothing, so a paper-scale phase
//! (3270 × 3269 pairings) costs no pairing-sized buffer; a sampled one
//! holds its n·k drawn pairings. [`schedule`] lists either in the same
//! order.

use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling::sample_indices;
use dsa_workloads::seeds::SeedSeq;

/// How opponents are chosen for each protocol's tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpponentSampling {
    /// Every protocol meets every other protocol (the paper's setting).
    Exhaustive,
    /// Every protocol meets `n` uniformly sampled distinct opponents
    /// (laptop-scale estimator of the same win rate).
    Sampled(usize),
}

/// One scheduled encounter: `protagonist` (holding `fraction` of the
/// population) against `opponent`, for `runs` independent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pairing {
    /// Index of the protocol whose score this encounter contributes to.
    pub protagonist: usize,
    /// Index of the opposing protocol.
    pub opponent: usize,
}

/// A tournament's pairings in schedule order, addressable by index.
///
/// Every protocol receives the same number of pairings (`n − 1` when
/// exhaustive, `min(k, n − 1)` when sampled), which keeps win rates
/// comparable across protocols — the paper's "total number of games ...
/// is constant for all protocols". Pairings are protagonist-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Every ordered pair of distinct protocols among `n`, opponents
    /// ascending: pairing `p` is a closed form of `p`.
    Exhaustive(usize),
    /// Each protagonist's drawn opponents, in draw order.
    Sampled(Vec<Pairing>),
}

impl Schedule {
    /// The schedule for `n` protocols; `seed` draws a sampled schedule's
    /// opponents (one child stream per protagonist).
    #[must_use]
    pub fn new(n: usize, sampling: OpponentSampling, seed: u64) -> Self {
        match sampling {
            OpponentSampling::Exhaustive => Self::Exhaustive(n),
            OpponentSampling::Sampled(k) => {
                let k = k.min(n.saturating_sub(1));
                let root = SeedSeq::new(seed);
                let mut out = Vec::with_capacity(n * k);
                for i in 0..n {
                    let mut rng: Xoshiro256pp = root.child(i as u64).rng();
                    // Sample from n−1 "others" and skip over self.
                    for o in sample_indices(n - 1, k, &mut rng) {
                        out.push(Pairing {
                            protagonist: i,
                            opponent: o + usize::from(o >= i),
                        });
                    }
                }
                Self::Sampled(out)
            }
        }
    }

    /// Number of pairings; an exhaustive schedule over fewer than two
    /// protocols has none.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Exhaustive(n) if *n < 2 => 0,
            Self::Exhaustive(n) => n * (n - 1),
            Self::Sampled(pairings) => pairings.len(),
        }
    }

    /// Whether the schedule has no pairings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pairing `p`. Exhaustively, with `j = p mod (n − 1)`, the
    /// protagonist is `p / (n − 1)` and the opponent is `j`, or `j + 1`
    /// from the protagonist on (self is skipped).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below [`Self::len`].
    #[must_use]
    pub fn pairing(&self, p: usize) -> Pairing {
        match self {
            Self::Exhaustive(n) => {
                assert!(p < self.len(), "pairing {p} of {} scheduled", self.len());
                let others = n - 1;
                let (i, j) = (p / others, p % others);
                Pairing {
                    protagonist: i,
                    opponent: j + usize::from(j >= i),
                }
            }
            Self::Sampled(pairings) => pairings[p],
        }
    }
}

/// Lists the tournament schedule for `n` protocols: [`Schedule::new`]'s
/// pairings, in order.
#[must_use]
pub fn schedule(n: usize, sampling: OpponentSampling, seed: u64) -> Vec<Pairing> {
    match Schedule::new(n, sampling, seed) {
        Schedule::Sampled(pairings) => pairings,
        s => (0..s.len()).map(|p| s.pairing(p)).collect(),
    }
}

/// Accumulates win/loss records into per-protocol scores.
#[derive(Debug, Clone)]
pub struct WinLedger {
    wins: Vec<u64>,
    games: Vec<u64>,
}

impl WinLedger {
    /// Creates an empty ledger for `n` protocols.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            wins: vec![0; n],
            games: vec![0; n],
        }
    }

    /// Records one game for `protagonist`: a win iff its group utility
    /// strictly exceeded the opponent group's (ties are losses, per the
    /// paper's "otherwise we mark it as a Loss").
    pub fn record(&mut self, protagonist: usize, own_utility: f64, opponent_utility: f64) {
        self.games[protagonist] += 1;
        if own_utility > opponent_utility {
            self.wins[protagonist] += 1;
        }
    }

    /// Records `games` games for `protagonist` of which `wins` were won,
    /// in one step — the bulk equivalent of `games` calls to
    /// [`Self::record`] (`wins` of them with a winning margin), without
    /// the per-game loop.
    ///
    /// # Panics
    ///
    /// Panics if `wins > games`.
    pub fn record_batch(&mut self, protagonist: usize, wins: u64, games: u64) {
        assert!(
            wins <= games,
            "wins {wins} exceed games {games} for protocol {protagonist}"
        );
        self.games[protagonist] += games;
        self.wins[protagonist] += wins;
    }

    /// Adds `other`'s records to this ledger. Integer sums do not depend
    /// on order, so ledgers filled by workers from any split of the
    /// games merge to the same counts.
    ///
    /// # Panics
    ///
    /// Panics if the ledgers cover different protocol counts.
    pub fn merge(&mut self, other: &WinLedger) {
        assert_eq!(
            self.wins.len(),
            other.wins.len(),
            "ledgers cover different protocol counts"
        );
        for (w, o) in self.wins.iter_mut().zip(&other.wins) {
            *w += o;
        }
        for (g, o) in self.games.iter_mut().zip(&other.games) {
            *g += o;
        }
    }

    /// Win rates in `[0, 1]`; protocols with no games score NaN.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        self.wins
            .iter()
            .zip(&self.games)
            .map(|(&w, &g)| {
                if g == 0 {
                    f64::NAN
                } else {
                    w as f64 / g as f64
                }
            })
            .collect()
    }

    /// Games played per protocol.
    #[must_use]
    pub fn games(&self) -> &[u64] {
        &self.games
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exhaustive_schedule_covers_all_ordered_pairs() {
        let s = schedule(5, OpponentSampling::Exhaustive, 0);
        assert_eq!(s.len(), 20);
        let set: HashSet<(usize, usize)> = s.iter().map(|p| (p.protagonist, p.opponent)).collect();
        assert_eq!(set.len(), 20);
        assert!(s.iter().all(|p| p.protagonist != p.opponent));
    }

    #[test]
    fn fewer_than_two_protocols_have_no_pairings() {
        for n in [0, 1] {
            for sampling in [OpponentSampling::Exhaustive, OpponentSampling::Sampled(3)] {
                assert!(Schedule::new(n, sampling, 5).is_empty(), "n={n}");
                assert!(schedule(n, sampling, 5).is_empty(), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pairing 0 of 0 scheduled")]
    fn exhaustive_pairing_of_one_protocol_panics() {
        let _ = Schedule::new(1, OpponentSampling::Exhaustive, 0).pairing(0);
    }

    #[test]
    fn sampled_schedule_gives_equal_game_counts() {
        let s = schedule(50, OpponentSampling::Sampled(7), 3);
        let mut counts = vec![0usize; 50];
        for p in &s {
            counts[p.protagonist] += 1;
            assert_ne!(p.protagonist, p.opponent);
            assert!(p.opponent < 50);
        }
        assert!(counts.iter().all(|&c| c == 7));
    }

    #[test]
    fn sampled_opponents_are_distinct_per_protagonist() {
        let s = schedule(30, OpponentSampling::Sampled(10), 9);
        for i in 0..30 {
            let opp: Vec<usize> = s
                .iter()
                .filter(|p| p.protagonist == i)
                .map(|p| p.opponent)
                .collect();
            let set: HashSet<usize> = opp.iter().copied().collect();
            assert_eq!(set.len(), opp.len());
        }
    }

    #[test]
    fn sampling_larger_than_field_degrades_to_exhaustive_count() {
        let s = schedule(4, OpponentSampling::Sampled(100), 1);
        assert_eq!(s.len(), 4 * 3);
    }

    #[test]
    fn sampled_schedule_is_deterministic() {
        let a = schedule(20, OpponentSampling::Sampled(5), 42);
        let b = schedule(20, OpponentSampling::Sampled(5), 42);
        assert_eq!(a, b);
        let c = schedule(20, OpponentSampling::Sampled(5), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn ledger_counts_wins_and_ties_as_losses() {
        let mut l = WinLedger::new(2);
        l.record(0, 1.0, 0.5); // win
        l.record(0, 0.5, 0.5); // tie → loss
        l.record(0, 0.2, 0.5); // loss
        l.record(1, 2.0, 1.0); // win
        let r = l.rates();
        assert!((r[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r[1], 1.0);
        assert_eq!(l.games(), &[3, 1]);
    }

    #[test]
    fn ledger_empty_protocol_is_nan() {
        let l = WinLedger::new(1);
        assert!(l.rates()[0].is_nan());
    }

    #[test]
    fn record_batch_matches_per_game_records() {
        let mut looped = WinLedger::new(3);
        let mut batched = WinLedger::new(3);
        for (prot, wins, games) in [(0u64, 3u64, 5u64), (1, 0, 4), (2, 7, 7), (0, 1, 1)] {
            let prot = prot as usize;
            for g in 0..games {
                looped.record(prot, if g < wins { 1.0 } else { 0.0 }, 0.5);
            }
            batched.record_batch(prot, wins, games);
        }
        assert_eq!(looped.rates(), batched.rates());
        assert_eq!(looped.games(), batched.games());
    }

    #[test]
    fn merged_ledgers_count_every_game_once() {
        let records = [
            (0usize, 3u64, 5u64),
            (1, 0, 4),
            (2, 7, 7),
            (0, 1, 1),
            (2, 0, 2),
        ];
        let mut whole = WinLedger::new(3);
        for &(prot, wins, games) in &records {
            whole.record_batch(prot, wins, games);
        }
        // Any split of the records into parts merges to the same ledger.
        let mut parts = [WinLedger::new(3), WinLedger::new(3)];
        for (k, &(prot, wins, games)) in records.iter().enumerate() {
            parts[k % 2].record_batch(prot, wins, games);
        }
        let [mut merged, second] = parts;
        merged.merge(&second);
        assert_eq!(merged.games(), whole.games());
        assert_eq!(merged.wins, whole.wins);
    }

    #[test]
    #[should_panic(expected = "different protocol counts")]
    fn merge_rejects_mismatched_ledgers() {
        WinLedger::new(2).merge(&WinLedger::new(3));
    }

    #[test]
    #[should_panic(expected = "exceed games")]
    fn record_batch_rejects_impossible_counts() {
        let mut l = WinLedger::new(1);
        l.record_batch(0, 2, 1);
    }
}
