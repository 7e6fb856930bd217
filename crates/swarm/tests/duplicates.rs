//! Behaviourally identical protocols must score alike, at any seed.
//!
//! Without partners (k = 0) the ranking, candidate list and allocation
//! mean nothing, so the 30 protocols with k = 0 behave in only four ways.
//! The 21 that never upload (no strangers, B2 with no vacant partner slot
//! to lend, or B3's 0-byte contacts) must score exactly 0. The nine B1
//! protocols upload their whole capacity to strangers every round, so
//! their homogeneous throughput is the mean capacity whatever h, R and
//! the seed: any spread between them beyond rounding is a bug, not noise.

use dsa_core::sim::EncounterSim;
use dsa_swarm::protocol::{StrangerPolicy, SwarmProtocol};
use dsa_swarm::{SimConfig, SwarmSim};

fn sim(rounds: usize) -> SwarmSim {
    SwarmSim {
        config: SimConfig {
            rounds,
            ..SimConfig::default()
        },
    }
}

fn k0() -> impl Iterator<Item = SwarmProtocol> {
    SwarmProtocol::all().filter(|p| p.partner_slots == 0)
}

fn uploads_to_strangers(p: &SwarmProtocol) -> bool {
    p.stranger_slots > 0 && p.stranger_policy == StrangerPolicy::Periodic
}

#[test]
fn silent_k0_protocols_score_exactly_zero() {
    let silent: Vec<SwarmProtocol> = k0().filter(|p| !uploads_to_strangers(p)).collect();
    assert_eq!(silent.len(), 21);
    for (rounds, first_seed) in [(60, 100), (500, 200)] {
        let sim = sim(rounds);
        for (seed, p) in (first_seed..).zip(&silent) {
            let throughput = sim.run_homogeneous(p, seed);
            assert_eq!(
                throughput.to_bits(),
                0.0f64.to_bits(),
                "{p} at {rounds} rounds"
            );
        }
    }
}

#[test]
fn periodic_k0_protocols_agree_within_rounding() {
    let periodic: Vec<SwarmProtocol> = k0().filter(uploads_to_strangers).collect();
    let names: Vec<String> = periodic.iter().map(ToString::to_string).collect();
    let want: Vec<String> = (1..=3)
        .flat_map(|h| (1..=3).map(move |r| format!("B1h{h}-k0-R{r}")))
        .collect();
    assert_eq!(names, want);
    for (rounds, first_seed) in [(60, 300), (500, 400)] {
        let sim = sim(rounds);
        let scores: Vec<f64> = (first_seed..)
            .zip(&periodic)
            .map(|(seed, p)| sim.run_homogeneous(p, seed))
            .collect();
        let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().copied().fold(0.0, f64::max);
        assert!(lo > 0.0, "{rounds} rounds: {scores:?}");
        assert!(
            hi - lo <= 1e-9 * hi,
            "{rounds} rounds: spread {:e} relative, {scores:?}",
            (hi - lo) / hi
        );
    }
}
