//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN`/`tableN` module function returns a structured result that
//! can be rendered as an ASCII figure and serialized as CSV; the
//! `experiments` binary drives them from the command line, and the
//! Criterion benches in `benches/` time each experiment at smoke scale so
//! `cargo bench` exercises every code path.
//!
//! The `experiments` binary's module docs list the artifact ids and the
//! sweep cache behind each; each figure prints the paper's value next to
//! the measured one.

#[cfg(feature = "count-allocs")]
pub mod alloc_counter;
pub mod attackfig;
pub mod attribfig;
pub mod btfigs;
pub mod evofig;
pub mod figures;
pub mod gossipfig;
pub mod nashdemo;
pub mod prafig;
pub mod profilefig;
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

/// Serializes this crate's tests around the global `dsa_obs` registry.
/// The `profilefig` tests enable it and assert exact cache counters, so
/// they hold the lock exclusively. Every test that reads or writes a
/// stamped cache holds it shared, so those still run in parallel with
/// each other but never while the registry counts. The lock guards no
/// data, so a guard poisoned by a failing test is recovered.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static OBS: RwLock<()> = RwLock::new(());

    /// Held by a test that touches a stamped cache.
    pub(crate) fn cache() -> RwLockReadGuard<'static, ()> {
        OBS.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Held by a test that enables the global registry.
    pub(crate) fn obs() -> RwLockWriteGuard<'static, ()> {
        OBS.write().unwrap_or_else(PoisonError::into_inner)
    }
}
