//! Allocation bound of one exhaustive tournament.
//!
//! A tournament holds O(threads × protocols) memory whatever its pairing
//! count: an exhaustive schedule is addressed by index and each worker
//! folds its wins into its own ledger. This binary installs the counting
//! allocator and holds one test, so the process-wide byte count sees only
//! the tournament (and its two worker threads).

use dsa_core::pra::{tournament_rates, PraConfig};
use dsa_core::sim::EncounterSim;
use dsa_core::tournament::OpponentSampling;

#[global_allocator]
static GLOBAL_ALLOC: dsa_obs::alloc::CountingAlloc = dsa_obs::alloc::CountingAlloc;

/// Every population ties: the tournament's own bookkeeping is all that
/// allocates.
struct NoOpSim;

impl EncounterSim for NoOpSim {
    type Protocol = usize;

    fn run_homogeneous(&self, _protocol: &usize, _seed: u64) -> f64 {
        0.0
    }

    fn run_encounter(&self, _a: &usize, _b: &usize, _fraction_a: f64, _seed: u64) -> (f64, f64) {
        (0.0, 0.0)
    }
}

#[test]
fn exhaustive_tournament_over_1000_protocols_allocates_under_1_mib() {
    let protocols: Vec<usize> = (0..1000).collect();
    let config = PraConfig {
        encounter_runs: 1,
        sampling: OpponentSampling::Exhaustive,
        threads: 2,
        seed: 24301,
        ..PraConfig::default()
    };
    dsa_obs::alloc::enable();
    let before = dsa_obs::alloc::total_bytes();
    let rates = std::hint::black_box(tournament_rates(&NoOpSim, &protocols, 0.5, &config, 1));
    let bytes = dsa_obs::alloc::total_bytes() - before;
    // Every game ties, and a tie is a loss.
    assert_eq!(rates, vec![0.0; 1000]);
    // The returned rates alone are 8,000 bytes: counting is on.
    assert!(bytes >= 8 * 1000, "allocated {bytes} bytes");
    // A materialized schedule alone would be 999,000 × 16 bytes.
    assert!(bytes < 1 << 20, "allocated {bytes} bytes");
}
