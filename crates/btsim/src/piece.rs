//! Piece bookkeeping: bitfields and rarest-first selection.

/// A peer's piece possession bitfield.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitfield {
    bits: Vec<bool>,
    have: usize,
}

impl Bitfield {
    /// An empty bitfield over `n` pieces.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self {
            bits: vec![false; n],
            have: 0,
        }
    }

    /// A complete bitfield (the seeder's).
    #[must_use]
    pub fn full(n: usize) -> Self {
        Self {
            bits: vec![true; n],
            have: n,
        }
    }

    /// Whether piece `p` is present.
    #[inline]
    #[must_use]
    pub fn has(&self, p: usize) -> bool {
        self.bits[p]
    }

    /// Marks piece `p` present; returns whether it was newly acquired.
    pub fn set(&mut self, p: usize) -> bool {
        if self.bits[p] {
            false
        } else {
            self.bits[p] = true;
            self.have += 1;
            true
        }
    }

    /// Number of pieces present.
    #[must_use]
    pub fn count(&self) -> usize {
        self.have
    }

    /// Whether the file is complete.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.have == self.bits.len()
    }

    /// Total number of pieces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for a zero-piece file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `other` has any piece this bitfield lacks — the BitTorrent
    /// *interested* predicate.
    #[must_use]
    pub fn interested_in(&self, other: &Bitfield) -> bool {
        self.bits
            .iter()
            .zip(&other.bits)
            .any(|(mine, theirs)| !mine && *theirs)
    }
}

/// Picks the partially-downloaded piece with the most progress that
/// `source` can serve — continuing an in-progress piece always beats
/// starting a new one (otherwise progress smears across all pieces and
/// none ever completes).
#[must_use]
pub fn continue_piece(wanting: &Bitfield, source: &Bitfield, progress: &[f64]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (p, &prog) in progress.iter().enumerate().take(wanting.len()) {
        if wanting.has(p) || !source.has(p) || prog <= 0.0 {
            continue;
        }
        if best.is_none_or(|(bp, _)| prog > bp) {
            best = Some((prog, p));
        }
    }
    best.map(|(_, p)| p)
}

/// Selects the next piece to fetch from `source`: the piece the `wanting`
/// peer lacks, the source has, preferring pieces not already in flight,
/// then globally rarest (lowest availability), with *random* tie-breaks —
/// deterministic tie-breaks would give every peer an identical download
/// order and identical bitfields, collapsing mutual interest (and hence
/// swarm throughput). `availability[p]` counts how many connected peers
/// hold piece `p`.
///
/// Returns `None` when the source has nothing useful.
#[must_use]
pub fn rarest_first(
    wanting: &Bitfield,
    source: &Bitfield,
    availability: &[u32],
    in_flight: &[bool],
    rng: &mut dsa_workloads::rng::Xoshiro256pp,
) -> Option<usize> {
    // Two passes and no buffer: the first finds the best key and counts
    // its ties, the second takes the drawn tie in index order. One draw
    // per pick; the btsim golden digest pins the stream.
    let useful = |p: &usize| !wanting.has(*p) && source.has(*p);
    let key = |p: usize| (in_flight[p], availability[p]);
    let mut best: Option<(bool, u32)> = None;
    let mut ties = 0;
    for p in (0..wanting.len()).filter(useful) {
        // Prefer pieces nobody is fetching yet, then rarest.
        match best {
            Some(b) if key(p) > b => {}
            Some(b) if key(p) == b => ties += 1,
            _ => {
                best = Some(key(p));
                ties = 1;
            }
        }
    }
    let best = best?;
    let pick = rng.index(ties);
    (0..wanting.len())
        .filter(useful)
        .filter(|&p| key(p) == best)
        .nth(pick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_workloads::rng::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(9)
    }

    #[test]
    fn empty_and_full() {
        let e = Bitfield::empty(4);
        let f = Bitfield::full(4);
        assert_eq!(e.count(), 0);
        assert!(f.complete());
        assert!(!e.complete());
        assert!(e.interested_in(&f));
        assert!(!f.interested_in(&e));
    }

    #[test]
    fn set_tracks_count_and_idempotence() {
        let mut b = Bitfield::empty(3);
        assert!(b.set(1));
        assert!(!b.set(1));
        assert_eq!(b.count(), 1);
        assert!(b.has(1));
        assert!(!b.has(0));
    }

    #[test]
    fn interest_requires_novelty() {
        let mut a = Bitfield::empty(2);
        let mut b = Bitfield::empty(2);
        a.set(0);
        b.set(0);
        assert!(!a.interested_in(&b));
        b.set(1);
        assert!(a.interested_in(&b));
    }

    #[test]
    fn rarest_first_prefers_low_availability() {
        let want = Bitfield::empty(3);
        let src = Bitfield::full(3);
        let avail = [5, 1, 3];
        let in_flight = [false; 3];
        assert_eq!(
            rarest_first(&want, &src, &avail, &in_flight, &mut rng()),
            Some(1)
        );
    }

    #[test]
    fn rarest_first_skips_owned_and_missing() {
        let mut want = Bitfield::empty(3);
        want.set(1); // already own the rarest
        let mut src = Bitfield::empty(3);
        src.set(1);
        src.set(2);
        let avail = [0, 1, 9];
        let in_flight = [false; 3];
        // Only piece 2 is useful (0 not at source, 1 owned).
        assert_eq!(
            rarest_first(&want, &src, &avail, &in_flight, &mut rng()),
            Some(2)
        );
    }

    #[test]
    fn rarest_first_avoids_in_flight_when_possible() {
        let want = Bitfield::empty(2);
        let src = Bitfield::full(2);
        let avail = [1, 2];
        // The rarest piece is already being fetched elsewhere.
        let in_flight = [true, false];
        assert_eq!(
            rarest_first(&want, &src, &avail, &in_flight, &mut rng()),
            Some(1)
        );
        // ... unless it is the only option.
        let mut want2 = Bitfield::empty(2);
        want2.set(1);
        assert_eq!(
            rarest_first(&want2, &src, &avail, &in_flight, &mut rng()),
            Some(0)
        );
    }

    #[test]
    fn rarest_first_none_when_nothing_useful() {
        let want = Bitfield::full(2);
        let src = Bitfield::full(2);
        assert_eq!(
            rarest_first(&want, &src, &[1, 1], &[false, false], &mut rng()),
            None
        );
    }
}
