//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN`/`tableN` module function returns a structured result that
//! can be rendered as an ASCII figure and serialized as CSV; the
//! `experiments` binary drives them from the command line. Engine and
//! figure timings come from the separate `perfbench` benchmark.
//!
//! The `experiments` binary's module docs list the artifact ids and the
//! sweep cache behind each; each figure prints the paper's value next to
//! the measured one.

pub mod attackfig;
pub mod attribfig;
pub mod btfigs;
pub mod cli;
pub mod evofig;
pub mod figures;
pub mod gossipfig;
pub mod nashdemo;
pub mod prafig;
pub mod regress;
pub mod repfig;
pub mod scale;
pub mod sweep;

pub use scale::Scale;
pub use sweep::SweepData;

use dsa_core::domain::DynDomain;
use std::sync::Arc;

/// Registers the three built-in domains (swarm, gossip, reputation) in
/// [`dsa_core::domain`]'s global registry — idempotently — and returns
/// them in registration order. Both binaries and the cross-domain
/// experiment call this before dispatching on domain names.
pub fn register_domains() -> Vec<Arc<dyn DynDomain>> {
    vec![
        dsa_swarm::adapter::register(),
        dsa_gossip::adapter::register(),
        dsa_reputation::adapter::register(),
    ]
}
