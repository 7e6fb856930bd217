//! The paper's P2P file-swarming design space and its cycle-based
//! simulator (Sections 4.2–4.3).
//!
//! # The design space (3270 protocols)
//!
//! | Dimension | Actualizations |
//! |-----------|----------------|
//! | Stranger policy | none (h=0) ∪ {B1 Periodic, B2 When-needed, B3 Defect} × h ∈ {1,2,3} → **10** |
//! | Selection | none (k=0) ∪ {C1 TFT, C2 TF2T} × {I1 Fastest, I2 Slowest, I3 Proximity, I4 Adaptive, I5 Loyal, I6 Random} × k ∈ {1..9} → **109** |
//! | Allocation | R1 Equal Split, R2 Prop Share, R3 Freeride → **3** |
//!
//! 10 × 109 × 3 = **3270** unique protocols, exactly the paper's count.
//!
//! # The simulation model (§4.3.1)
//!
//! Cycle-based: 50 peers, 500 rounds, full connectivity for peer
//! discovery, capacities drawn from the Piatek et al. distribution, every
//! peer always has data others want. Each round a peer selects partners
//! from its interaction history, optionally contacts strangers, and
//! divides its upload capacity according to its allocation policy.
//!
//! Two modeling decisions, documented with the round structure in
//! [`engine`], matter most:
//! *contacts* (including 0-byte "defect" contacts) create next-round
//! candidacy, and upload capacity is divided into **per-slot quanta** —
//! unfilled slots waste capacity, which is what makes low partner counts
//! perform so well homogeneously (the paper's §4.4 discussion of the
//! Sort-Slowest k=1 protocol) while high partner counts are robust.

pub mod adapter;
pub mod engine;
pub mod history;
pub mod metrics;
pub mod presets;
pub mod protocol;

pub use adapter::{SwarmDomain, SwarmSim};
pub use engine::{run, RunOutcome, SimConfig};
pub use protocol::{Allocation, CandidateList, Ranking, StrangerPolicy, SwarmProtocol, SPACE_SIZE};
