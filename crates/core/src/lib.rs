//! Design Space Analysis (DSA) — the paper's primary contribution.
//!
//! DSA is a simulation-based method for modeling incentives in complex
//! distributed protocols (Section 3). It "emphasizes the specification and
//! analysis of a design space, rather than proposing a single protocol":
//!
//! 1. **Parameterization** — identify the salient design dimensions
//!    ([`space::Dimension`]).
//! 2. **Actualization** — specify concrete implementations per dimension;
//!    the cartesian product is the design space ([`space::DesignSpace`]).
//! 3. **Solution concept** — evaluate every protocol in the space. The
//!    paper's concept is the **PRA quantification** ([`pra`]):
//!    *Performance* (homogeneous population), *Robustness* (majority vs
//!    every other protocol at 50/50) and *Aggressiveness* (minority at
//!    10/90), each normalized to `[0, 1]`.
//!
//! The framework is domain-agnostic: anything implementing
//! [`sim::EncounterSim`] can be quantified. The workspace provides three
//! domains — `dsa-swarm` (the paper's P2P file-swarming space),
//! `dsa-gossip` (the Section 3.1 gossip example) and `dsa-reputation`
//! (reputation-mediated sharing, the §7 "domains other than P2P" future
//! work).
//!
//! [`search`] implements the paper's future-work idea of heuristic
//! exploration for spaces too large to sweep exhaustively (§7), and
//! [`parallel`] supplies the deterministic fork-join executor that stands
//! in for the authors' 50-node cluster.
//!
//! [`domain`] erases domains behind a common interface and keeps a global
//! registry of them, so the CLI, the content-addressed sweep cache
//! ([`cache`]) and the cross-domain figures drive every domain through
//! one generic path.

pub mod cache;
pub mod domain;
pub mod parallel;
pub mod pra;
#[cfg(test)]
mod reference;
pub mod results;
pub mod search;
pub mod sim;
pub mod space;
pub mod tournament;

pub use cache::{DomainSweep, SweepKey};
pub use domain::{Domain, DynDomain, Effort};
pub use pra::{PraConfig, PraPoint};
pub use results::PraResults;
pub use sim::EncounterSim;
pub use space::{DesignSpace, Dimension};
pub use tournament::OpponentSampling;
