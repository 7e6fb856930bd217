//! Protocol descriptors and the 3270-point enumeration.
//!
//! Every protocol is a combination of the paper's actualized dimensions.
//! Protocols are canonically indexed (`0..SPACE_SIZE`) in a fixed mixed
//! radix: stranger policy (10) × selection policy (109) × allocation (3),
//! matching §4.2's arithmetic `10 × 109 × 3 = 3270`.

use std::fmt;

/// Number of protocols in the paper's actualized design space.
pub const SPACE_SIZE: usize = 10 * 109 * 3;

/// Maximum number of strangers a policy may cooperate with (`h ≤ 3`).
pub const MAX_STRANGERS: u8 = 3;

/// Maximum number of partners (`k ≤ 9`).
pub const MAX_PARTNERS: u8 = 9;

/// Stranger policy (dimension B of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrangerPolicy {
    /// B1: give resources to up to `h` strangers every round.
    Periodic,
    /// B2: give to strangers only while the partner set is not full
    /// (strangers borrow vacant partner slots).
    WhenNeeded,
    /// B3: always defect on strangers — contact them but transfer nothing
    /// (a 0-byte contact still registers in the recipient's history; see
    /// [`crate::history`]).
    Defect,
}

impl StrangerPolicy {
    /// All policies in enumeration order (B1, B2, B3).
    pub const ALL: [StrangerPolicy; 3] = [
        StrangerPolicy::Periodic,
        StrangerPolicy::WhenNeeded,
        StrangerPolicy::Defect,
    ];

    /// Paper label (B1/B2/B3).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Periodic => "B1",
            Self::WhenNeeded => "B2",
            Self::Defect => "B3",
        }
    }
}

/// Candidate-list rule (dimension C of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateList {
    /// C1 (TFT): only peers that interacted with me in the last round.
    Tft,
    /// C2 (TF2T): peers that interacted in either of the last two rounds.
    Tf2t,
}

impl CandidateList {
    /// All rules in enumeration order (C1, C2).
    pub const ALL: [CandidateList; 2] = [CandidateList::Tft, CandidateList::Tf2t];

    /// Paper label (C1/C2).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Tft => "C1",
            Self::Tf2t => "C2",
        }
    }
}

/// Ranking function over the candidate list (dimension I of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ranking {
    /// I1: fastest first (BitTorrent's choice).
    Fastest,
    /// I2: slowest first.
    Slowest,
    /// I3: closest to one's own upload rate first (Birds).
    Proximity,
    /// I4: closest to an adaptive aspiration level first (Win-Stay-
    /// Lose-Shift inspired).
    Adaptive,
    /// I5: longest-standing cooperators first.
    Loyal,
    /// I6: uniformly random order.
    Random,
}

impl Ranking {
    /// All rankings in enumeration order (I1..I6).
    pub const ALL: [Ranking; 6] = [
        Ranking::Fastest,
        Ranking::Slowest,
        Ranking::Proximity,
        Ranking::Adaptive,
        Ranking::Loyal,
        Ranking::Random,
    ];

    /// Paper label (I1..I6).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Fastest => "I1",
            Self::Slowest => "I2",
            Self::Proximity => "I3",
            Self::Adaptive => "I4",
            Self::Loyal => "I5",
            Self::Random => "I6",
        }
    }
}

/// Resource-allocation policy (dimension R of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Allocation {
    /// R1: equal split over slots.
    EqualSplit,
    /// R2: proportional to what each partner gave last round.
    PropShare,
    /// R3: give nothing to partners (free-ride); stranger slots are
    /// unaffected (the paper fixes stranger allocation, §4.2 footnote).
    Freeride,
}

impl Allocation {
    /// All policies in enumeration order (R1, R2, R3).
    pub const ALL: [Allocation; 3] = [
        Allocation::EqualSplit,
        Allocation::PropShare,
        Allocation::Freeride,
    ];

    /// Paper label (R1/R2/R3).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::EqualSplit => "R1",
            Self::PropShare => "R2",
            Self::Freeride => "R3",
        }
    }
}

/// A complete protocol: one actualization per dimension.
///
/// `stranger_slots == 0` means "never contact strangers" (the policy field
/// is then irrelevant and canonicalized to B1); `partner_slots == 0` means
/// "select nobody" (candidates/ranking canonicalized to C1/I1). These two
/// degenerate levels are the paper's "+1" policies that bring the counts
/// to 10 and 109.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwarmProtocol {
    /// Stranger policy (B dimension).
    pub stranger_policy: StrangerPolicy,
    /// `h`: stranger slots, `0..=3`.
    pub stranger_slots: u8,
    /// Candidate-list rule (C dimension).
    pub candidates: CandidateList,
    /// Ranking function (I dimension).
    pub ranking: Ranking,
    /// `k`: partner slots, `0..=9`.
    pub partner_slots: u8,
    /// Allocation policy (R dimension).
    pub allocation: Allocation,
}

impl SwarmProtocol {
    /// Canonicalizes the degenerate levels so that equal behavior implies
    /// equal representation (and hence equal index).
    #[must_use]
    pub fn canonical(mut self) -> Self {
        if self.stranger_slots == 0 {
            self.stranger_policy = StrangerPolicy::Periodic;
        }
        if self.partner_slots == 0 {
            self.candidates = CandidateList::Tft;
            self.ranking = Ranking::Fastest;
        }
        self
    }

    /// The stranger-dimension index in `0..10`.
    #[must_use]
    pub fn stranger_index(&self) -> usize {
        if self.stranger_slots == 0 {
            0
        } else {
            let policy = StrangerPolicy::ALL
                .iter()
                .position(|p| *p == self.stranger_policy)
                .expect("policy in ALL");
            1 + (usize::from(self.stranger_slots) - 1) * 3 + policy
        }
    }

    /// The selection-dimension index in `0..109`.
    #[must_use]
    pub fn selection_index(&self) -> usize {
        if self.partner_slots == 0 {
            0
        } else {
            let c = CandidateList::ALL
                .iter()
                .position(|x| *x == self.candidates)
                .expect("candidate rule in ALL");
            let r = Ranking::ALL
                .iter()
                .position(|x| *x == self.ranking)
                .expect("ranking in ALL");
            1 + (usize::from(self.partner_slots) - 1) * 12 + c * 6 + r
        }
    }

    /// The allocation-dimension index in `0..3`.
    #[must_use]
    pub fn allocation_index(&self) -> usize {
        Allocation::ALL
            .iter()
            .position(|a| *a == self.allocation)
            .expect("allocation in ALL")
    }

    /// The flat index in `0..SPACE_SIZE` (canonicalized).
    #[must_use]
    pub fn index(&self) -> usize {
        let c = self.canonical();
        (c.stranger_index() * 109 + c.selection_index()) * 3 + c.allocation_index()
    }

    /// Decodes a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= SPACE_SIZE`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < SPACE_SIZE, "protocol index {index} out of range");
        let allocation = Allocation::ALL[index % 3];
        let rest = index / 3;
        let selection = rest % 109;
        let stranger = rest / 109;

        let (stranger_policy, stranger_slots) = if stranger == 0 {
            (StrangerPolicy::Periodic, 0)
        } else {
            let s = stranger - 1;
            (StrangerPolicy::ALL[s % 3], (s / 3 + 1) as u8)
        };
        let (candidates, ranking, partner_slots) = if selection == 0 {
            (CandidateList::Tft, Ranking::Fastest, 0)
        } else {
            let s = selection - 1;
            let k = (s / 12 + 1) as u8;
            let c = CandidateList::ALL[(s % 12) / 6];
            let r = Ranking::ALL[s % 6];
            (c, r, k)
        };

        Self {
            stranger_policy,
            stranger_slots,
            candidates,
            ranking,
            partner_slots,
            allocation,
        }
    }

    /// Iterates the entire design space in index order.
    pub fn all() -> impl Iterator<Item = SwarmProtocol> {
        (0..SPACE_SIZE).map(Self::from_index)
    }

    /// Whether the protocol never uploads anything to partners (R3).
    #[must_use]
    pub fn is_freerider(&self) -> bool {
        self.allocation == Allocation::Freeride
    }

    /// Whether the protocol belongs to the Birds family (§4.4.2: "a
    /// protocol that at the very least ranks others by Proximity").
    #[must_use]
    pub fn is_birds_family(&self) -> bool {
        self.partner_slots > 0 && self.ranking == Ranking::Proximity
    }

    /// The number of *reserved* upload slots, which defines the per-slot
    /// bandwidth quantum `capacity / reserved_slots`:
    ///
    /// * B1 reserves `k + h` (dedicated stranger slots),
    /// * B2 reserves `k` (strangers borrow vacant partner slots),
    /// * B3 and h = 0 reserve `k` (defect contacts carry no bandwidth).
    ///
    /// A protocol with no slots at all reserves 1 to keep the quantum
    /// finite (it never uploads anyway).
    #[must_use]
    pub fn reserved_slots(&self) -> u8 {
        let base = match (self.stranger_policy, self.stranger_slots) {
            (StrangerPolicy::Periodic, h) if h > 0 => self.partner_slots + h,
            _ => self.partner_slots,
        };
        base.max(1)
    }
}

impl fmt::Display for SwarmProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.canonical();
        if c.stranger_slots == 0 {
            write!(f, "B0h0")?;
        } else {
            write!(f, "{}h{}", c.stranger_policy.label(), c.stranger_slots)?;
        }
        if c.partner_slots == 0 {
            write!(f, "-k0")?;
        } else {
            write!(
                f,
                "-{}-{}k{}",
                c.candidates.label(),
                c.ranking.label(),
                c.partner_slots
            )?;
        }
        write!(f, "-{}", c.allocation.label())
    }
}

/// Builds the generic [`dsa_core::DesignSpace`] descriptor for this
/// domain, with human-readable level names (used by the harness output
/// and the regression encoder).
#[must_use]
pub fn design_space() -> dsa_core::DesignSpace {
    let stranger_levels: Vec<String> = (0..10)
        .map(|i| {
            if i == 0 {
                "none".to_string()
            } else {
                let s = i - 1;
                format!("{}h{}", StrangerPolicy::ALL[s % 3].label(), s / 3 + 1)
            }
        })
        .collect();
    let selection_levels: Vec<String> = (0..109)
        .map(|i| {
            if i == 0 {
                "k0".to_string()
            } else {
                let s = i - 1;
                format!(
                    "{}-{}k{}",
                    CandidateList::ALL[(s % 12) / 6].label(),
                    Ranking::ALL[s % 6].label(),
                    s / 12 + 1
                )
            }
        })
        .collect();
    let alloc_levels: Vec<String> = Allocation::ALL
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    dsa_core::DesignSpace::new(
        "p2p-file-swarming",
        vec![
            dsa_core::Dimension::new("Stranger", stranger_levels),
            dsa_core::Dimension::new("Selection", selection_levels),
            dsa_core::Dimension::new("Allocation", alloc_levels),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn space_size_is_3270() {
        assert_eq!(SPACE_SIZE, 3270);
        assert_eq!(SwarmProtocol::all().count(), 3270);
    }

    #[test]
    fn index_roundtrip_entire_space() {
        for i in 0..SPACE_SIZE {
            let p = SwarmProtocol::from_index(i);
            assert_eq!(p.index(), i, "roundtrip failed at {i}: {p:?}");
        }
    }

    #[test]
    fn all_protocols_are_distinct() {
        let set: HashSet<SwarmProtocol> = SwarmProtocol::all().collect();
        assert_eq!(set.len(), SPACE_SIZE);
    }

    #[test]
    fn canonicalization_merges_degenerate_levels() {
        let a = SwarmProtocol {
            stranger_policy: StrangerPolicy::Defect,
            stranger_slots: 0,
            candidates: CandidateList::Tf2t,
            ranking: Ranking::Loyal,
            partner_slots: 0,
            allocation: Allocation::EqualSplit,
        };
        let b = SwarmProtocol {
            stranger_policy: StrangerPolicy::Periodic,
            stranger_slots: 0,
            candidates: CandidateList::Tft,
            ranking: Ranking::Fastest,
            partner_slots: 0,
            allocation: Allocation::EqualSplit,
        };
        assert_eq!(a.index(), b.index());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn dimension_counts_match_paper() {
        let strangers: HashSet<usize> = SwarmProtocol::all().map(|p| p.stranger_index()).collect();
        let selections: HashSet<usize> =
            SwarmProtocol::all().map(|p| p.selection_index()).collect();
        assert_eq!(strangers.len(), 10);
        assert_eq!(selections.len(), 109);
    }

    #[test]
    fn display_is_compact_and_stable() {
        let p = SwarmProtocol {
            stranger_policy: StrangerPolicy::WhenNeeded,
            stranger_slots: 2,
            candidates: CandidateList::Tft,
            ranking: Ranking::Loyal,
            partner_slots: 7,
            allocation: Allocation::PropShare,
        };
        assert_eq!(p.to_string(), "B2h2-C1-I5k7-R2");
        let zero = SwarmProtocol::from_index(0);
        assert_eq!(zero.to_string(), "B0h0-k0-R1");
    }

    #[test]
    fn reserved_slots_by_policy() {
        let mk = |policy, h, k| SwarmProtocol {
            stranger_policy: policy,
            stranger_slots: h,
            candidates: CandidateList::Tft,
            ranking: Ranking::Fastest,
            partner_slots: k,
            allocation: Allocation::EqualSplit,
        };
        assert_eq!(mk(StrangerPolicy::Periodic, 2, 4).reserved_slots(), 6);
        assert_eq!(mk(StrangerPolicy::WhenNeeded, 2, 4).reserved_slots(), 4);
        assert_eq!(mk(StrangerPolicy::Defect, 2, 4).reserved_slots(), 4);
        assert_eq!(mk(StrangerPolicy::Periodic, 0, 4).reserved_slots(), 4);
        assert_eq!(mk(StrangerPolicy::Periodic, 0, 0).reserved_slots(), 1);
    }

    #[test]
    fn design_space_descriptor_matches() {
        let ds = design_space();
        assert_eq!(ds.size(), SPACE_SIZE);
        // The flat indexing must agree with SwarmProtocol::index().
        for i in [0usize, 1, 2, 3, 500, 3269] {
            let p = SwarmProtocol::from_index(i);
            let coords = vec![
                p.stranger_index(),
                p.selection_index(),
                p.allocation_index(),
            ];
            assert_eq!(ds.index(&coords), i);
        }
    }

    #[test]
    fn birds_family_detection() {
        let birds = SwarmProtocol {
            stranger_policy: StrangerPolicy::Periodic,
            stranger_slots: 1,
            candidates: CandidateList::Tft,
            ranking: Ranking::Proximity,
            partner_slots: 4,
            allocation: Allocation::EqualSplit,
        };
        assert!(birds.is_birds_family());
        let not = SwarmProtocol {
            ranking: Ranking::Fastest,
            ..birds
        };
        assert!(!not.is_birds_family());
        let degenerate = SwarmProtocol {
            partner_slots: 0,
            ..birds
        };
        assert!(!degenerate.is_birds_family());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = SwarmProtocol::from_index(SPACE_SIZE);
    }
}
