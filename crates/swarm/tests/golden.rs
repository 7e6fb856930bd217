//! Pins every output bit of the swarm cycle engine.
//!
//! One FNV-1a digest runs over the `to_bits()` of every `RunOutcome`
//! field for a fixed corpus: homogeneous, 50/50 and 10/90 runs over a
//! stratified sample of the design space, a few 500-round runs, a churned
//! run, a three-protocol mix and 20- and 70-peer populations. A kernel
//! rewrite that flips one bit anywhere in the round loop changes the
//! digest. Re-bless `GOLDEN` only for a deliberate output change, and say
//! why in the commit.

use dsa_core::domain::{fnv1a, fnv1a_continue};
use dsa_swarm::engine::{run, RunOutcome, SimConfig};
use dsa_swarm::presets;
use dsa_swarm::protocol::{
    Allocation, CandidateList, Ranking, StrangerPolicy, SwarmProtocol, SPACE_SIZE,
};
use dsa_workloads::churn::ChurnModel;
use std::collections::HashSet;

/// The corpus digest the engine produced when this test was written.
const GOLDEN: u64 = 0xcf2a_0f6c_4070_1fa2;

fn eat(h: u64, x: u64) -> u64 {
    fnv1a_continue(h, &x.to_le_bytes())
}

fn eat_f64s(mut h: u64, v: &[f64]) -> u64 {
    h = eat(h, v.len() as u64);
    v.iter().fold(h, |h, x| eat(h, x.to_bits()))
}

fn eat_outcome(mut h: u64, out: &RunOutcome) -> u64 {
    h = eat_f64s(h, &out.utilities);
    h = eat_f64s(h, &out.capacities);
    h = eat(h, out.assignment.len() as u64);
    h = out.assignment.iter().fold(h, |h, &a| eat(h, a as u64));
    h = eat(h, out.throughput.to_bits());
    eat_f64s(h, &out.group_means)
}

/// Every protocol whose partner count is 0, 1 or 9, in index order.
fn k_edges() -> Vec<SwarmProtocol> {
    (0..SPACE_SIZE)
        .map(SwarmProtocol::from_index)
        .filter(|p| matches!(p.partner_slots, 0 | 1 | 9))
        .collect()
}

/// A stratified sample: a fixed stride through [`k_edges`] whose
/// marginals cover every level the round loop branches on (asserted).
fn sample() -> Vec<SwarmProtocol> {
    let pool = k_edges();
    let picked: Vec<SwarmProtocol> = (0..60).map(|m| pool[(m * 13) % pool.len()]).collect();
    let has = |f: &dyn Fn(&SwarmProtocol) -> bool| picked.iter().any(f);
    for r in Ranking::ALL {
        for c in CandidateList::ALL {
            assert!(has(
                &|p| p.partner_slots > 0 && (p.ranking, p.candidates) == (r, c)
            ));
        }
    }
    for s in StrangerPolicy::ALL {
        for h in 1..=3 {
            assert!(has(&|p| p.stranger_policy == s && p.stranger_slots == h));
        }
    }
    assert!(has(&|p| p.stranger_slots == 0));
    for a in Allocation::ALL {
        assert!(has(&|p| p.allocation == a));
    }
    for k in [0, 1, 9] {
        assert!(has(&|p| p.partner_slots == k));
    }
    let distinct: HashSet<SwarmProtocol> = picked.iter().copied().collect();
    assert_eq!(distinct.len(), picked.len(), "a protocol repeats");
    picked
}

fn config(peers: usize, rounds: usize) -> SimConfig {
    SimConfig {
        peers,
        rounds,
        ..SimConfig::default()
    }
}

/// The running digest and the per-run seed sequence of the corpus.
struct Corpus {
    digest: u64,
    seed: u64,
}

impl Corpus {
    fn run(&mut self, protocols: &[SwarmProtocol], assignment: &[usize], cfg: &SimConfig) {
        self.seed += 1;
        self.digest = eat_outcome(self.digest, &run(protocols, assignment, cfg, self.seed));
    }

    /// The encounter split: the first `round(fraction · n)` peers run
    /// `protocols[0]`, the rest `protocols[1]`.
    fn split(&mut self, protocols: &[SwarmProtocol], fraction: f64, cfg: &SimConfig) {
        let (_, assignment) = dsa_core::sim::split_population(cfg.peers, fraction);
        self.run(protocols, &assignment, cfg);
    }
}

fn corpus_digest() -> u64 {
    let mut corpus = Corpus {
        digest: fnv1a(b"dsa-swarm-golden-v1"),
        seed: 0x601d,
    };

    let protocols = sample();
    let short = config(50, 60);
    for (m, &p) in protocols.iter().enumerate() {
        let b = protocols[(m + 17) % protocols.len()];
        let c = protocols[(m + 41) % protocols.len()];
        corpus.run(&[p], &[0; 50], &short);
        corpus.split(&[p, b], 0.5, &short);
        corpus.split(&[p, c], 0.1, &short);
    }

    let long = config(50, 500);
    corpus.run(&[presets::bittorrent()], &[0; 50], &long);
    corpus.split(&[presets::sort_s(), presets::birds()], 0.5, &long);
    let pair = [presets::loyal_when_needed(), presets::random_rank()];
    corpus.split(&pair, 0.1, &long);

    let churned = SimConfig {
        churn: ChurnModel::PerRound { rate: 0.05 },
        stratified_bandwidth: false,
        ..config(50, 120)
    };
    let trio = [
        presets::bittorrent(),
        presets::loyal_when_needed(),
        presets::freerider(),
    ];
    let thirds: Vec<usize> = (0..50).map(|i| i % 3).collect();
    corpus.run(&trio, &thirds, &churned);

    let mixed = [
        presets::bittorrent(),
        presets::sort_s(),
        presets::freerider(),
    ];
    corpus.run(&mixed, &thirds, &short);

    for peers in [20, 70] {
        let cfg = config(peers, 60);
        corpus.split(&[presets::birds(), presets::random_rank()], 0.5, &cfg);
        corpus.run(&[presets::sort_s()], &vec![0; peers], &cfg);
    }
    corpus.digest
}

#[test]
fn engine_outputs_match_the_golden_digest() {
    let got = corpus_digest();
    assert_eq!(
        got, GOLDEN,
        "swarm engine output changed: corpus digest {got:#018x}, golden {GOLDEN:#018x}"
    );
}
