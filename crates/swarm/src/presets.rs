//! Named protocols: the paper's §5 clients and the Table 2 mapping of
//! existing systems onto the generic design space.

use crate::protocol::{Allocation, CandidateList, Ranking, StrangerPolicy, SwarmProtocol};

/// The reference BitTorrent client as a point in the space: TFT candidate
/// list, fastest-first ranking, 4 regular unchoke slots, 1 optimistic
/// unchoke (periodic stranger cooperation), equal split.
#[must_use]
pub fn bittorrent() -> SwarmProtocol {
    SwarmProtocol {
        stranger_policy: StrangerPolicy::Periodic,
        stranger_slots: 1,
        candidates: CandidateList::Tft,
        ranking: Ranking::Fastest,
        partner_slots: 4,
        allocation: Allocation::EqualSplit,
    }
}

/// Birds (§2.3, §5): BitTorrent with the ranking function replaced by
/// proximity to one's own upload rate — "birds of a feather stick
/// together".
#[must_use]
pub fn birds() -> SwarmProtocol {
    SwarmProtocol {
        ranking: Ranking::Proximity,
        ..bittorrent()
    }
}

/// Loyal-When-needed (§5): the DSA-discovered variant combining the Sort
/// Loyal ranking with the When-needed stranger policy — high Performance
/// *and* high Robustness in the sweep.
#[must_use]
pub fn loyal_when_needed() -> SwarmProtocol {
    SwarmProtocol {
        stranger_policy: StrangerPolicy::WhenNeeded,
        stranger_slots: 1,
        candidates: CandidateList::Tft,
        ranking: Ranking::Loyal,
        partner_slots: 4,
        allocation: Allocation::EqualSplit,
    }
}

/// Sort-S (§5): the counter-intuitive top performer — defect on
/// strangers, sort slowest-first, keep a single partner, equal split.
#[must_use]
pub fn sort_s() -> SwarmProtocol {
    SwarmProtocol {
        stranger_policy: StrangerPolicy::Defect,
        stranger_slots: 1,
        candidates: CandidateList::Tft,
        ranking: Ranking::Slowest,
        partner_slots: 1,
        allocation: Allocation::EqualSplit,
    }
}

/// The Sort Random client of Figure 10 (ranking I6), which the paper
/// observes "performs as well as BitTorrent", recalling Leong et al. \[15\].
#[must_use]
pub fn random_rank() -> SwarmProtocol {
    SwarmProtocol {
        ranking: Ranking::Random,
        ..bittorrent()
    }
}

/// A canonical free-rider: keeps partners and strangers but uploads
/// nothing to partners and defects on strangers.
#[must_use]
pub fn freerider() -> SwarmProtocol {
    SwarmProtocol {
        stranger_policy: StrangerPolicy::Defect,
        stranger_slots: 1,
        candidates: CandidateList::Tft,
        ranking: Ranking::Fastest,
        partner_slots: 4,
        allocation: Allocation::Freeride,
    }
}

/// One row of Table 2: an existing system mapped onto the generic design
/// space, with the paper's wording for each dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// System name as printed in Table 2.
    pub system: &'static str,
    /// "Peer Discovery" column (not actualized in the simulator; §4.2
    /// footnote: "we do not consider Peer Discovery").
    pub peer_discovery: &'static str,
    /// "Stranger Policy" column.
    pub stranger_policy: &'static str,
    /// "Selection Function" column.
    pub selection_function: &'static str,
    /// "Resource Allocation" column.
    pub resource_allocation: &'static str,
    /// The nearest protocol in the actualized space.
    pub nearest: SwarmProtocol,
}

/// Table 2 in full: existing protocols/designs mapped to the generic P2P
/// design space, each with its nearest actualized protocol.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            system: "P2P Replica Storage",
            peer_discovery: "Gossip based",
            stranger_policy: "Defect if set of partners full",
            selection_function: "Closest to own profile",
            resource_allocation: "Equal",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::WhenNeeded,
                stranger_slots: 1,
                candidates: CandidateList::Tft,
                ranking: Ranking::Proximity,
                partner_slots: 4,
                allocation: Allocation::EqualSplit,
            },
        },
        Table2Row {
            system: "GTG",
            peer_discovery: "orthogonal",
            stranger_policy: "Unconditional cooperation",
            selection_function: "Sort on Forwarding Rank",
            resource_allocation: "Equal",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::Periodic,
                stranger_slots: 2,
                candidates: CandidateList::Tft,
                ranking: Ranking::Fastest,
                partner_slots: 4,
                allocation: Allocation::EqualSplit,
            },
        },
        Table2Row {
            system: "Maze",
            peer_discovery: "Central server",
            stranger_policy: "Initialized with points",
            selection_function: "Ranked on points",
            resource_allocation: "Differentiated according to rank",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::Periodic,
                stranger_slots: 1,
                candidates: CandidateList::Tft,
                ranking: Ranking::Fastest,
                partner_slots: 6,
                allocation: Allocation::PropShare,
            },
        },
        Table2Row {
            system: "Pulse",
            peer_discovery: "Gossip based",
            stranger_policy: "Give positive score",
            selection_function: "Missing list, Forwarding list",
            resource_allocation: "Equal",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::Periodic,
                stranger_slots: 2,
                candidates: CandidateList::Tf2t,
                ranking: Ranking::Fastest,
                partner_slots: 4,
                allocation: Allocation::EqualSplit,
            },
        },
        Table2Row {
            system: "BarterCast",
            peer_discovery: "Gossip based",
            stranger_policy: "Unconditional cooperation",
            selection_function: "Rank/Ban according to reputation",
            resource_allocation: "orthogonal",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::Periodic,
                stranger_slots: 2,
                candidates: CandidateList::Tf2t,
                ranking: Ranking::Loyal,
                partner_slots: 4,
                allocation: Allocation::EqualSplit,
            },
        },
        Table2Row {
            system: "Private BT Communities",
            peer_discovery: "Central server",
            stranger_policy: "Initial credit",
            selection_function: "Credits/sharing ratio above level",
            resource_allocation: "Equal / Differentiated",
            nearest: SwarmProtocol {
                stranger_policy: StrangerPolicy::WhenNeeded,
                stranger_slots: 1,
                candidates: CandidateList::Tft,
                ranking: Ranking::Fastest,
                partner_slots: 4,
                allocation: Allocation::PropShare,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SPACE_SIZE;

    #[test]
    fn presets_are_inside_the_space() {
        for p in [
            bittorrent(),
            birds(),
            loyal_when_needed(),
            sort_s(),
            random_rank(),
            freerider(),
        ] {
            assert!(p.index() < SPACE_SIZE);
            // Round-trip through the index must preserve the protocol.
            assert_eq!(
                SwarmProtocol::from_index(p.index()).canonical(),
                p.canonical()
            );
        }
    }

    #[test]
    fn birds_differs_from_bittorrent_only_in_ranking() {
        let bt = bittorrent();
        let b = birds();
        assert_eq!(b.stranger_policy, bt.stranger_policy);
        assert_eq!(b.partner_slots, bt.partner_slots);
        assert_eq!(b.allocation, bt.allocation);
        assert_ne!(b.ranking, bt.ranking);
        assert!(b.is_birds_family());
    }

    #[test]
    fn sort_s_matches_paper_description() {
        let s = sort_s();
        assert_eq!(s.stranger_policy, StrangerPolicy::Defect);
        assert_eq!(s.ranking, Ranking::Slowest);
        assert_eq!(s.partner_slots, 1);
        assert_ne!(s.allocation, Allocation::PropShare);
    }

    #[test]
    fn loyal_when_needed_matches_paper_description() {
        let l = loyal_when_needed();
        assert_eq!(l.stranger_policy, StrangerPolicy::WhenNeeded);
        assert_eq!(l.ranking, Ranking::Loyal);
    }

    #[test]
    fn table2_covers_all_six_systems() {
        let rows = table2();
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.system).collect();
        assert!(names.contains(&"Maze"));
        assert!(names.contains(&"BarterCast"));
        for r in rows {
            assert!(r.nearest.index() < SPACE_SIZE, "{} out of space", r.system);
        }
    }

    #[test]
    fn all_presets_distinct() {
        let idx: std::collections::HashSet<usize> = [
            bittorrent(),
            birds(),
            loyal_when_needed(),
            sort_s(),
            random_rank(),
            freerider(),
        ]
        .iter()
        .map(SwarmProtocol::index)
        .collect();
        assert_eq!(idx.len(), 6);
    }
}
