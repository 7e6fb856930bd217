//! Pins every output bit of the gossip engine.
//!
//! One FNV-1a digest runs over the `to_bits()` of every utility
//! `engine::run` returns for a fixed corpus: homogeneous, 50/50 and 10/90
//! runs over all 108 protocols at the default configuration (120 rounds,
//! so the 64-item memory evicts too); a three-group assignment; and a
//! probe set at other configurations: 6 and 100 nodes, fanout 1 and 5,
//! batch 1 and 5. A round-loop rewrite that flips one bit or one RNG draw
//! anywhere changes the digest. Re-bless `GOLDEN` only for a deliberate
//! output change, and say why in the commit.

use dsa_core::domain::{fnv1a, fnv1a_continue};
use dsa_gossip::engine::{run, GossipConfig};
use dsa_gossip::presets;
use dsa_gossip::protocol::{
    Filter, GossipProtocol, Memory, Periodicity, Selection, GOSSIP_SPACE_SIZE,
};

/// The corpus digest the engine produced when this test was written.
const GOLDEN: u64 = 0xb685_6e87_252d_9601;

fn eat(h: u64, x: u64) -> u64 {
    fnv1a_continue(h, &x.to_le_bytes())
}

fn eat_f64s(mut h: u64, v: &[f64]) -> u64 {
    h = eat(h, v.len() as u64);
    v.iter().fold(h, |h, x| eat(h, x.to_bits()))
}

/// A stride through the space that hits every level of every dimension
/// (asserted): the protocols the non-default configurations run.
fn probes() -> Vec<GossipProtocol> {
    let picked: Vec<GossipProtocol> = (0..12)
        .map(|m| GossipProtocol::from_index((m * 13) % GOSSIP_SPACE_SIZE))
        .collect();
    let has = |f: &dyn Fn(&GossipProtocol) -> bool| picked.iter().any(f);
    for s in Selection::ALL {
        assert!(has(&|p| p.selection == s));
    }
    for q in Periodicity::ALL {
        assert!(has(&|p| p.periodicity == q));
    }
    for f in Filter::ALL {
        assert!(has(&|p| p.filter == f));
    }
    for m in Memory::ALL {
        assert!(has(&|p| p.memory == m));
    }
    picked
}

/// The running digest and the per-run seed sequence of the corpus.
struct Corpus {
    digest: u64,
    seed: u64,
}

impl Corpus {
    fn run(&mut self, protocols: &[GossipProtocol], assignment: &[usize], cfg: &GossipConfig) {
        self.seed += 1;
        self.digest = eat_f64s(self.digest, &run(protocols, assignment, cfg, self.seed));
    }

    /// The encounter split: the first `round(fraction · n)` nodes run
    /// `protocols[0]`, the rest `protocols[1]`.
    fn split(&mut self, protocols: &[GossipProtocol], fraction: f64, cfg: &GossipConfig) {
        let (_, assignment) = dsa_core::sim::split_population(cfg.nodes, fraction);
        self.run(protocols, &assignment, cfg);
    }
}

fn corpus_digest() -> u64 {
    let mut corpus = Corpus {
        digest: fnv1a(b"dsa-gossip-golden-v1"),
        seed: 0x6055,
    };

    let default = GossipConfig::default();
    let all: Vec<GossipProtocol> = GossipProtocol::all().collect();
    for (m, &p) in all.iter().enumerate() {
        let b = all[(m + 17) % all.len()];
        let c = all[(m + 41) % all.len()];
        corpus.run(&[p], &vec![0; default.nodes], &default);
        corpus.split(&[p, b], 0.5, &default);
        corpus.split(&[p, c], 0.1, &default);
    }

    let trio = [
        presets::random_push(),
        presets::reciprocal(),
        presets::lazy(),
    ];
    let thirds: Vec<usize> = (0..default.nodes).map(|i| i % 3).collect();
    corpus.run(&trio, &thirds, &default);

    let probes = probes();
    for (nodes, fanout, batch) in [(6, 5, 1), (100, 1, 5), (40, 5, 5), (40, 1, 1)] {
        let cfg = GossipConfig {
            nodes,
            fanout,
            batch,
            ..GossipConfig::default()
        };
        for (m, &p) in probes.iter().enumerate() {
            corpus.run(&[p], &vec![0; nodes], &cfg);
            corpus.split(&[p, probes[(m + 5) % probes.len()]], 0.5, &cfg);
        }
        corpus.split(&[presets::silent(), presets::reciprocal()], 0.1, &cfg);
    }
    corpus.digest
}

#[test]
fn engine_outputs_match_the_golden_digest() {
    let got = corpus_digest();
    assert_eq!(
        got, GOLDEN,
        "gossip engine output changed: corpus digest {got:#018x}, golden {GOLDEN:#018x}"
    );
}
