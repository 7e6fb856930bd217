//! A third DSA domain: reputation-mediated sharing communities.
//!
//! Section 7 lists applying Design Space Analysis to "domains other than
//! P2P [file swarming]" as future work. Reputation and trust systems are
//! the canonical third incentive mechanism in distributed systems — peers
//! decide whom to serve from accumulated records of past behaviour rather
//! than from tit-for-tat barter alone — and they bring their own attack
//! surface (free-riding *and* whitewashing, the shedding of a bad record
//! by re-entering under a fresh identity).
//!
//! This crate parameterizes that mechanism into five salient dimensions
//! ([`protocol`]): reputation *source* (private / gossiped / transitive
//! BarterCast-style / normalized-transitive EigenTrust-style), record
//! *maintenance* (keep / decay / window), *stranger* bootstrap (deny /
//! optimistic / probabilistic), *response* function (threshold ban /
//! proportional / rank-based / free-ride) and *identity* policy (stable /
//! whitewash) — 288 protocols — actualized
//! over a cycle-based request/serve simulator ([`engine`]) built on the
//! same deterministic substrate (`dsa_workloads`) as the other domains.
//! [`adapter::RepSim`] plugs the space into [`dsa_core`], so the PRA
//! quantification, tournament sampling and heuristic search run over it
//! unchanged — the point of the exercise: the framework is
//! domain-agnostic.

pub mod adapter;
pub mod engine;
pub mod presets;
pub mod protocol;
#[cfg(test)]
mod reference;

pub use adapter::{RepDomain, RepSim};
pub use engine::{run, RepConfig};
pub use protocol::{
    design_space, Identity, Maintenance, RepProtocol, Response, Source, Stranger, REP_SPACE_SIZE,
};
