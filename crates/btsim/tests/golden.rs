//! Pins every output bit of the piece-level BitTorrent simulator.
//!
//! One FNV-1a digest runs over the `to_bits()` of every leecher's
//! download time (`SwarmOutcome::download_times(None)`, unfinished
//! leechers at the elapsed horizon) for a fixed corpus at the figures'
//! `BtConfig::default()`: each of the five §5 clients in a homogeneous
//! swarm at two seeds, and Fig 9's three pairings at the seven mixing
//! fractions of `fraction_series`, one run each. A probe set runs at
//! `BtConfig::tiny()` with a constant 32 KiB/s upload. A change that
//! moves one completion tick or one RNG draw anywhere changes the digest.
//! Re-bless `GOLDEN` only for a deliberate output change, and say why in
//! the commit.

use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_btsim::swarm::simulate;
use dsa_core::domain::{fnv1a, fnv1a_continue};
use dsa_workloads::bandwidth::BandwidthDist;

/// The corpus digest the simulator produced when this test was written.
const GOLDEN: u64 = 0x2308_6ecb_8808_566b;

/// Fig 9's mixing fractions (the share of leechers running client A).
const FRACTIONS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

/// Fig 9's three panels: (client A, client B).
const PAIRINGS: [(ClientKind, ClientKind); 3] = [
    (ClientKind::LoyalWhenNeeded, ClientKind::BitTorrent),
    (ClientKind::Birds, ClientKind::BitTorrent),
    (ClientKind::LoyalWhenNeeded, ClientKind::Birds),
];

fn eat(h: u64, x: u64) -> u64 {
    fnv1a_continue(h, &x.to_le_bytes())
}

/// The running digest and the per-run seed sequence of the corpus.
struct Corpus {
    digest: u64,
    seed: u64,
}

impl Corpus {
    fn run(&mut self, kinds: &[ClientKind], cfg: &BtConfig) {
        self.seed += 1;
        let times = simulate(kinds, cfg, self.seed).download_times(None);
        self.digest = eat(self.digest, times.len() as u64);
        self.digest = times.iter().fold(self.digest, |h, t| eat(h, t.to_bits()));
    }

    /// A swarm whose first `round(fraction · leechers)` leechers run `a`
    /// and the rest `b`, as `mixed_runs` counts them.
    fn mix(&mut self, a: ClientKind, b: ClientKind, fraction: f64, cfg: &BtConfig) {
        let n = cfg.leechers;
        let count_a = ((fraction * n as f64).round() as usize).min(n);
        let kinds: Vec<ClientKind> = (0..n).map(|i| if i < count_a { a } else { b }).collect();
        self.run(&kinds, cfg);
    }
}

fn corpus_digest() -> u64 {
    let mut corpus = Corpus {
        digest: fnv1a(b"dsa-btsim-golden-v1"),
        seed: 0xB75,
    };

    let default = BtConfig::default();
    for kind in ClientKind::ALL {
        for _ in 0..2 {
            corpus.run(&vec![kind; default.leechers], &default);
        }
    }
    for (a, b) in PAIRINGS {
        for f in FRACTIONS {
            corpus.mix(a, b, f, &default);
        }
    }

    let tiny = BtConfig {
        bandwidth: BandwidthDist::Constant(32.0),
        ..BtConfig::tiny()
    };
    for kind in ClientKind::ALL {
        corpus.run(&vec![kind; tiny.leechers], &tiny);
    }
    for (a, b) in PAIRINGS {
        corpus.mix(a, b, 0.5, &tiny);
    }
    corpus.digest
}

#[test]
fn simulator_outputs_match_the_golden_digest() {
    let got = corpus_digest();
    assert_eq!(
        got, GOLDEN,
        "btsim output changed: corpus digest {got:#018x}, golden {GOLDEN:#018x}"
    );
}
