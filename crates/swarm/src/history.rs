//! Interaction history: the per-round contact/transfer ledger and the
//! loyalty counters.
//!
//! A *contact* is a directed interaction `giver → receiver` carrying an
//! amount ≥ 0. Zero-amount contacts exist (B3 defect contacts, R3
//! free-riding toward partners) and still register in the receiver's
//! history — this is what lets Sort-Slowest peers adopt 0-givers as
//! partners, the mechanism behind the paper's top-performance protocol
//! (§4.4; see the round structure in [`crate::engine`]).

/// One round's contact ledger for an `n`-peer population.
///
/// Stored as per-receiver rows of `(giver, amount)` pairs in one flat
/// arena (`row r = pairs[r * n .. r * n + deg[r]]`) rather than dense
/// n×n arrays: the engine's round loop appends ~degree contacts per
/// receiver and then iterates exactly those, so the sparse layout makes
/// [`Ledger::record_new`] a two-write append, [`Ledger::row`] a
/// contiguous read, and [`Ledger::clear`] an O(n) counter reset — no
/// per-slot zeroing of untouched memory. Entries keep their insertion
/// order; the engine records in ascending giver order, which is what
/// keeps row iteration bit-compatible with the dense scan it replaced.
#[derive(Debug, Clone)]
pub struct Ledger {
    n: usize,
    pairs: Vec<(usize, f64)>,
    deg: Vec<usize>,
}

/// Compares live rows only — stale arena slots beyond each row's length
/// are not part of the ledger's logical content.
impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.deg == other.deg
            && (0..self.n).all(|r| self.row(r) == other.row(r))
    }
}

impl Ledger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            pairs: vec![(0, 0.0); n * n],
            deg: vec![0; n],
        }
    }

    /// Clears all entries (reused between rounds to avoid reallocation).
    /// O(n): stale pairs beyond each row's length are simply ignored.
    pub fn clear(&mut self) {
        self.deg.fill(0);
    }

    /// Records a contact `giver → receiver` transferring `amount ≥ 0`.
    /// Repeated records accumulate the amount.
    #[inline]
    pub fn record(&mut self, receiver: usize, giver: usize, amount: f64) {
        debug_assert!(amount >= 0.0, "negative transfer");
        let base = receiver * self.n;
        let row = &mut self.pairs[base..base + self.deg[receiver]];
        if let Some(e) = row.iter_mut().find(|e| e.0 == giver) {
            e.1 += amount;
        } else {
            self.pairs[base + self.deg[receiver]] = (giver, amount);
            self.deg[receiver] += 1;
        }
    }

    /// [`Ledger::record`] for a `(receiver, giver)` pair known to be new
    /// this round — skips the duplicate scan. The engine's round loop
    /// qualifies: each giver contacts a receiver at most once per round
    /// (partners and strangers are disjoint).
    #[inline]
    pub fn record_new(&mut self, receiver: usize, giver: usize, amount: f64) {
        debug_assert!(amount >= 0.0, "negative transfer");
        debug_assert!(
            !self.contacted(receiver, giver),
            "record_new on an existing contact"
        );
        let base = receiver * self.n;
        self.pairs[base + self.deg[receiver]] = (giver, amount);
        self.deg[receiver] += 1;
    }

    /// The `(giver, amount)` contacts of `receiver` this round, in
    /// insertion order.
    #[inline]
    #[must_use]
    pub fn row(&self, receiver: usize) -> &[(usize, f64)] {
        &self.pairs[receiver * self.n..receiver * self.n + self.deg[receiver]]
    }

    /// Whether `giver` contacted `receiver` this round.
    #[inline]
    #[must_use]
    pub fn contacted(&self, receiver: usize, giver: usize) -> bool {
        self.row(receiver).iter().any(|e| e.0 == giver)
    }

    /// Amount received by `receiver` from `giver` this round (0 if no
    /// contact).
    #[inline]
    #[must_use]
    pub fn amount(&self, receiver: usize, giver: usize) -> f64 {
        self.row(receiver)
            .iter()
            .find(|e| e.0 == giver)
            .map_or(0.0, |e| e.1)
    }

    /// Total received by `receiver` this round, summed in insertion
    /// order (ascending giver order when written by the engine — the
    /// same bits as the dense row scan this replaced, since skipped
    /// zero slots are additive identities).
    #[must_use]
    pub fn received_total(&self, receiver: usize) -> f64 {
        self.row(receiver).iter().map(|e| e.1).sum()
    }

    /// Erases all state involving peer `p` (both as receiver and giver);
    /// used when churn replaces a peer.
    pub fn forget_peer(&mut self, p: usize) {
        self.deg[p] = 0;
        for r in 0..self.n {
            let base = r * self.n;
            let mut kept = 0;
            for c in 0..self.deg[r] {
                let e = self.pairs[base + c];
                if e.0 != p {
                    self.pairs[base + kept] = e;
                    kept += 1;
                }
            }
            self.deg[r] = kept;
        }
    }

    /// Population size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if sized for zero peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Consecutive-cooperation counters: `loyalty(i, j)` = number of
/// consecutive rounds, up to and including the last, in which `j` gave `i`
/// a *positive* amount. Zero-amount contacts break loyalty (they are
/// defections), which is why Sort-Loyal protocols form stable productive
/// partnerships rather than latching onto 0-givers.
#[derive(Debug, Clone, PartialEq)]
pub struct Loyalty {
    n: usize,
    streak: Vec<u32>,
    /// Scratch marks for [`Loyalty::update`]; always all-false between
    /// calls (set and unset within one update).
    mark: Vec<bool>,
}

impl Loyalty {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            streak: vec![0; n * n],
            mark: vec![false; n],
        }
    }

    /// Updates all counters from a finished round's ledger.
    pub fn update(&mut self, round: &Ledger) {
        debug_assert_eq!(round.len(), self.n);
        for i in 0..self.n {
            let row = round.row(i);
            for &(g, a) in row {
                self.mark[g] = a > 0.0;
            }
            let base = i * self.n;
            for (j, s) in self.streak[base..base + self.n].iter_mut().enumerate() {
                if self.mark[j] {
                    *s += 1;
                } else {
                    *s = 0;
                }
            }
            for &(g, _) in row {
                self.mark[g] = false;
            }
        }
    }

    /// The current streak of `j` giving to `i`.
    #[inline]
    #[must_use]
    pub fn streak(&self, receiver: usize, giver: usize) -> u32 {
        self.streak[receiver * self.n + giver]
    }

    /// The receiver's streak row indexed by giver.
    #[inline]
    #[must_use]
    pub fn row(&self, receiver: usize) -> &[u32] {
        &self.streak[receiver * self.n..(receiver + 1) * self.n]
    }

    /// Erases all streaks involving peer `p` (churn replacement).
    pub fn forget_peer(&mut self, p: usize) {
        for j in 0..self.n {
            self.streak[p * self.n + j] = 0;
            self.streak[j * self.n + p] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut l = Ledger::new(3);
        l.record(0, 1, 5.0);
        assert!(l.contacted(0, 1));
        assert!(!l.contacted(1, 0));
        assert_eq!(l.amount(0, 1), 5.0);
        assert_eq!(l.amount(0, 2), 0.0);
    }

    #[test]
    fn zero_amount_contact_registers() {
        let mut l = Ledger::new(2);
        l.record(1, 0, 0.0);
        assert!(l.contacted(1, 0));
        assert_eq!(l.amount(1, 0), 0.0);
    }

    #[test]
    fn amounts_accumulate() {
        let mut l = Ledger::new(2);
        l.record(0, 1, 2.0);
        l.record(0, 1, 3.0);
        assert_eq!(l.amount(0, 1), 5.0);
    }

    #[test]
    fn record_new_appends_and_row_preserves_order() {
        let mut l = Ledger::new(4);
        l.record_new(0, 1, 2.0);
        l.record_new(0, 3, 4.0);
        assert_eq!(l.row(0), &[(1, 2.0), (3, 4.0)]);
        assert_eq!(l.amount(0, 3), 4.0);
    }

    #[test]
    fn received_total_sums_givers() {
        let mut l = Ledger::new(3);
        l.record(0, 1, 2.0);
        l.record(0, 2, 4.0);
        assert_eq!(l.received_total(0), 6.0);
        assert_eq!(l.received_total(1), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut l = Ledger::new(2);
        l.record(0, 1, 2.0);
        l.clear();
        assert!(!l.contacted(0, 1));
        assert_eq!(l.received_total(0), 0.0);
        assert!(l.row(0).is_empty());
    }

    #[test]
    fn forget_peer_erases_both_directions() {
        let mut l = Ledger::new(3);
        l.record(0, 1, 2.0);
        l.record(1, 2, 3.0);
        l.forget_peer(1);
        assert!(!l.contacted(0, 1));
        assert!(!l.contacted(1, 2));
    }

    #[test]
    fn forget_peer_compacts_but_keeps_others() {
        let mut l = Ledger::new(4);
        l.record(0, 1, 1.0);
        l.record(0, 2, 2.0);
        l.record(0, 3, 3.0);
        l.forget_peer(2);
        assert_eq!(l.row(0), &[(1, 1.0), (3, 3.0)]);
    }

    #[test]
    fn loyalty_counts_consecutive_positive_rounds() {
        let mut loy = Loyalty::new(2);
        let mut round = Ledger::new(2);
        round.record(0, 1, 1.0);
        loy.update(&round);
        loy.update(&round);
        assert_eq!(loy.streak(0, 1), 2);
        assert_eq!(loy.streak(1, 0), 0);
    }

    #[test]
    fn loyalty_broken_by_zero_contact() {
        let mut loy = Loyalty::new(2);
        let mut giving = Ledger::new(2);
        giving.record(0, 1, 1.0);
        loy.update(&giving);
        assert_eq!(loy.streak(0, 1), 1);
        // Next round j contacts but gives 0: streak resets.
        let mut stingy = Ledger::new(2);
        stingy.record(0, 1, 0.0);
        loy.update(&stingy);
        assert_eq!(loy.streak(0, 1), 0);
    }

    #[test]
    fn loyalty_forget_peer() {
        let mut loy = Loyalty::new(2);
        let mut round = Ledger::new(2);
        round.record(0, 1, 1.0);
        round.record(1, 0, 1.0);
        loy.update(&round);
        loy.forget_peer(0);
        assert_eq!(loy.streak(0, 1), 0);
        assert_eq!(loy.streak(1, 0), 0);
    }
}
