//! Pins every output bit of the reputation engine.
//!
//! One FNV-1a digest runs over the `to_bits()` of every utility the
//! engine returns for a fixed corpus: homogeneous, 50/50 and 10/90 runs
//! over a stratified sample of the design space; 16-, 24- and 32-peer
//! populations (the last takes the samplers' Floyd branch); one and five
//! requests and gossip sources (the single-draw path and the `k > 4`
//! fallback); a one-round window; a churned run, a whitewash run and a
//! three-group `run_mixed`. A round-loop rewrite that flips one bit or
//! one RNG draw anywhere changes the digest. Re-bless `GOLDEN` only for a
//! deliberate output change, and say why in the commit.

use dsa_core::domain::{fnv1a, fnv1a_continue, Domain, Effort};
use dsa_reputation::engine::{run, RepConfig};
use dsa_reputation::protocol::{
    Identity, Maintenance, RepProtocol, Response, Source, Stranger, REP_SPACE_SIZE,
};
use dsa_reputation::RepDomain;
use dsa_workloads::churn::ChurnModel;
use std::collections::HashSet;

/// The corpus digest the engine produced when this test was written.
const GOLDEN: u64 = 0xd50b_89e7_403e_7e29;

fn eat(h: u64, x: u64) -> u64 {
    fnv1a_continue(h, &x.to_le_bytes())
}

fn eat_f64s(mut h: u64, v: &[f64]) -> u64 {
    h = eat(h, v.len() as u64);
    v.iter().fold(h, |h, x| eat(h, x.to_bits()))
}

/// The levels of one protocol, as positions in each dimension's `ALL`.
fn levels(p: &RepProtocol) -> [usize; 5] {
    let pos = |found: Option<usize>| found.expect("in ALL");
    [
        pos(Source::ALL.iter().position(|&x| x == p.source)),
        pos(Maintenance::ALL.iter().position(|&x| x == p.maintenance)),
        pos(Stranger::ALL.iter().position(|&x| x == p.stranger)),
        pos(Response::ALL.iter().position(|&x| x == p.response)),
        pos(Identity::ALL.iter().position(|&x| x == p.identity)),
    ]
}

/// A stratified sample: a fixed stride through the space that hits every
/// level of every dimension, and every pair of levels of every two
/// dimensions (asserted).
fn sample() -> Vec<RepProtocol> {
    let picked: Vec<RepProtocol> = (0..48)
        .map(|m| RepProtocol::from_index((m * 13) % REP_SPACE_SIZE))
        .collect();
    let sizes = [
        Source::ALL.len(),
        Maintenance::ALL.len(),
        Stranger::ALL.len(),
        Response::ALL.len(),
        Identity::ALL.len(),
    ];
    for a in 0..5 {
        let hit: HashSet<usize> = picked.iter().map(|p| levels(p)[a]).collect();
        assert_eq!(hit.len(), sizes[a], "dimension {a} misses a level");
        for b in a + 1..5 {
            let pairs: HashSet<(usize, usize)> = picked
                .iter()
                .map(|p| (levels(p)[a], levels(p)[b]))
                .collect();
            assert_eq!(pairs.len(), sizes[a] * sizes[b], "dimensions {a}, {b}");
        }
    }
    let distinct: HashSet<RepProtocol> = picked.iter().copied().collect();
    assert_eq!(distinct.len(), picked.len(), "a protocol repeats");
    picked
}

/// One protocol per (source, response) pair, the other three dimensions
/// cycling through their levels: the probe set each config variant runs.
fn probes() -> Vec<RepProtocol> {
    let mut out = Vec::new();
    for (s, &source) in Source::ALL.iter().enumerate() {
        for (r, &response) in Response::ALL.iter().enumerate() {
            out.push(RepProtocol {
                source,
                maintenance: Maintenance::ALL[(s + 2 * r) % 3],
                stranger: Stranger::ALL[(s + r) % 3],
                response,
                identity: Identity::ALL[(s + r) % 2],
            });
        }
    }
    out
}

/// The running digest and the per-run seed sequence of the corpus.
struct Corpus {
    digest: u64,
    seed: u64,
}

impl Corpus {
    fn eat(&mut self, utilities: &[f64]) {
        self.digest = eat_f64s(self.digest, utilities);
    }

    fn run(&mut self, protocols: &[RepProtocol], assignment: &[usize], cfg: &RepConfig) {
        self.seed += 1;
        let u = run(protocols, assignment, cfg, self.seed);
        self.eat(&u);
    }

    fn homogeneous(&mut self, p: RepProtocol, cfg: &RepConfig) {
        self.run(&[p], &vec![0; cfg.peers], cfg);
    }

    /// The encounter split: the first `round(fraction · n)` peers run
    /// `protocols[0]`, the rest `protocols[1]`.
    fn split(&mut self, protocols: &[RepProtocol], fraction: f64, cfg: &RepConfig) {
        let (_, assignment) = dsa_core::sim::split_population(cfg.peers, fraction);
        self.run(protocols, &assignment, cfg);
    }

    /// Every probe alone and against the next probe at 50/50.
    fn probe(&mut self, cfg: &RepConfig) {
        let probes = probes();
        for (m, &p) in probes.iter().enumerate() {
            self.homogeneous(p, cfg);
            self.split(&[p, probes[(m + 1) % probes.len()]], 0.5, cfg);
        }
    }
}

fn corpus_digest() -> u64 {
    let mut corpus = Corpus {
        digest: fnv1a(b"dsa-reputation-golden-v1"),
        seed: 0x4e9,
    };

    let protocols = sample();
    let fast = RepConfig::fast();
    for (m, &p) in protocols.iter().enumerate() {
        let b = protocols[(m + 17) % protocols.len()];
        let c = protocols[(m + 31) % protocols.len()];
        corpus.homogeneous(p, &fast);
        corpus.split(&[p, b], 0.5, &fast);
        corpus.split(&[p, c], 0.1, &fast);
    }

    // 24 peers draw 3 of 23 and 3 of 24 on the materialize branch; 32
    // peers draw 3 of 31 and 3 of 32 on Floyd's.
    corpus.probe(&RepConfig::default());
    corpus.probe(&RepConfig {
        peers: 32,
        rounds: 60,
        ..RepConfig::default()
    });
    for k in [1, 5] {
        corpus.probe(&RepConfig {
            requests: k,
            ..RepConfig::fast()
        });
        corpus.probe(&RepConfig {
            gossip_sources: k,
            ..RepConfig::fast()
        });
    }
    corpus.probe(&RepConfig {
        window: 1,
        ..RepConfig::fast()
    });
    corpus.probe(&RepConfig {
        churn: ChurnModel::PerRound { rate: 0.05 },
        ..RepConfig::fast()
    });

    // Whitewashers shedding their record every fifth round.
    let washers = RepConfig {
        whitewash_period: 5,
        ..RepConfig::fast()
    };
    let thirds: Vec<usize> = (0..washers.peers).map(|i| i % 3).collect();
    let mut trio = [probes()[5], probes()[9], probes()[14]];
    for p in &mut trio[1..] {
        p.identity = Identity::Whitewash;
    }
    corpus.run(&trio, &thirds, &washers);

    let groups = [
        (RepProtocol::baseline().index(), 6),
        (probes()[7].index(), 5),
        (probes()[10].index(), 5),
    ];
    let means = RepDomain
        .run_mixed(Effort::Smoke, &groups, corpus.seed + 1)
        .expect("the reputation engine hosts mixed populations");
    corpus.eat(&means);
    corpus.digest
}

#[test]
fn engine_outputs_match_the_golden_digest() {
    let got = corpus_digest();
    assert_eq!(
        got, GOLDEN,
        "reputation engine output changed: corpus digest {got:#018x}, golden {GOLDEN:#018x}"
    );
}
