//! Micro-benchmarks of the simulation substrates themselves: how fast is
//! one simulated round / tick / regression fit? These bound the cost of
//! scaling any experiment up to paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_btsim::swarm::simulate;
use dsa_gametheory::axelrod::{round_robin, TournamentConfig};
use dsa_gametheory::games::prisoners_dilemma;
use dsa_gametheory::strategy::classic_field;
use dsa_stats::encode::NamedColumn;
use dsa_stats::ols;
use dsa_swarm::engine::{run, SimConfig};
use dsa_swarm::presets;
use dsa_workloads::bandwidth::BandwidthDist;
use dsa_workloads::rng::Xoshiro256pp;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    // Cycle simulator: one paper-shaped run (50 peers × 500 rounds).
    let paper_cfg = SimConfig::default();
    let assignment = vec![0usize; paper_cfg.peers];
    c.bench_function("swarm_run_50peers_500rounds", |b| {
        b.iter(|| {
            run(
                black_box(&[presets::bittorrent()]),
                black_box(&assignment),
                black_box(&paper_cfg),
                7,
            )
        })
    });

    // Same paper-shaped run with a k=3 mixed population: exercises the
    // branchy multi-protocol decision paths the homogeneous run skips
    // (different sort orders, freerider short-circuits) — the shape every
    // encounter cell of a sweep actually runs.
    let swarm_mixed = [
        presets::bittorrent(),
        presets::sort_s(),
        presets::freerider(),
    ];
    let swarm_mixed_assignment: Vec<usize> = (0..paper_cfg.peers)
        .map(|i| i % swarm_mixed.len())
        .collect();
    c.bench_function("swarm_run_mixed_k3_50peers_500rounds", |b| {
        b.iter(|| {
            run(
                black_box(&swarm_mixed),
                black_box(&swarm_mixed_assignment),
                black_box(&paper_cfg),
                7,
            )
        })
    });

    // Piece-level simulator: one tiny swarm to completion.
    let bt_cfg = BtConfig {
        bandwidth: BandwidthDist::Constant(32.0),
        ..BtConfig::tiny()
    };
    let kinds = vec![ClientKind::BitTorrent; bt_cfg.leechers];
    c.bench_function("btsim_tiny_swarm_to_completion", |b| {
        b.iter(|| simulate(black_box(&kinds), black_box(&bt_cfg), 3))
    });

    // Gossip simulator: one default-scale dissemination run.
    let gossip_cfg = dsa_gossip::engine::GossipConfig::default();
    let gossip_assignment = vec![0usize; gossip_cfg.nodes];
    c.bench_function("gossip_run_40nodes_120rounds", |b| {
        b.iter(|| {
            dsa_gossip::engine::run(
                black_box(&[dsa_gossip::protocol::GossipProtocol::baseline()]),
                black_box(&gossip_assignment),
                black_box(&gossip_cfg),
                7,
            )
        })
    });

    // Reputation simulator: one default-scale community run.
    let rep_cfg = dsa_reputation::engine::RepConfig::default();
    let rep_assignment = vec![0usize; rep_cfg.peers];
    c.bench_function("rep_run_24peers_80rounds", |b| {
        b.iter(|| {
            dsa_reputation::engine::run(
                black_box(&[dsa_reputation::presets::bartercast()]),
                black_box(&rep_assignment),
                black_box(&rep_cfg),
                7,
            )
        })
    });

    // Reputation with a k=3 mixed population (gossiped + eigentrust +
    // freerider): hits the staged decision path and the per-owner
    // maintenance path that the homogeneous bartercast run fuses away.
    let rep_mixed = [
        dsa_reputation::presets::bartercast(),
        dsa_reputation::presets::eigentrust(),
        dsa_reputation::presets::freerider(),
    ];
    let rep_mixed_assignment: Vec<usize> =
        (0..rep_cfg.peers).map(|i| i % rep_mixed.len()).collect();
    c.bench_function("rep_run_mixed_k3_24peers_80rounds", |b| {
        b.iter(|| {
            dsa_reputation::engine::run(
                black_box(&rep_mixed),
                black_box(&rep_mixed_assignment),
                black_box(&rep_cfg),
                7,
            )
        })
    });

    // Reputation at a heavier-than-default scale (32 peers × 160 rounds):
    // how the community engine's O(n²)-per-round core grows toward paper
    // scale.
    let rep_paper_cfg = dsa_reputation::engine::RepConfig {
        peers: 32,
        rounds: 160,
        ..dsa_reputation::engine::RepConfig::default()
    };
    let rep_paper_assignment = vec![0usize; rep_paper_cfg.peers];
    c.bench_function("rep_run_32peers_160rounds", |b| {
        b.iter(|| {
            dsa_reputation::engine::run(
                black_box(&[dsa_reputation::presets::bartercast()]),
                black_box(&rep_paper_assignment),
                black_box(&rep_paper_cfg),
                7,
            )
        })
    });

    // PRNG throughput.
    c.bench_function("rng_1k_draws", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            acc
        })
    });

    // Empirical payoff matrix over the reputation domain's candidate set
    // (24-peer communities at lab effort): the population-dynamics hot
    // path — k(k+1)/2 mixed-population simulations through run_mixed,
    // parallel with per-thread scratch buffers.
    let rep_domain = dsa_reputation::adapter::register();
    let evo_candidates = dsa_evolution::default_candidates(&*rep_domain);
    let evo_cfg = dsa_evolution::EvoConfig {
        encounter_runs: 1,
        threads: 0,
        ..dsa_evolution::EvoConfig::default()
    };
    c.bench_function("evo_payoff_matrix_24", |b| {
        b.iter(|| {
            dsa_evolution::empirical_matrix(
                black_box(&*rep_domain),
                black_box(&evo_candidates),
                dsa_core::domain::Effort::Lab,
                black_box(&evo_cfg),
            )
        })
    });

    // Variance attribution over the full reputation space (288 rows,
    // 11 dummy columns): design-matrix build + main-effects OLS + one
    // nested refit per dimension — the `attribute fit` hot path, on a
    // synthetic response so the bench never touches a sweep cache.
    let rep_space = dsa_reputation::protocol::design_space();
    let rep_rows: Vec<usize> = rep_space.indices().collect();
    let rep_y: Vec<f64> = rep_rows
        .iter()
        .map(|&i| {
            let c = rep_space.coords(i);
            let noise = ((i * 37 % 11) as f64 - 5.0) / 100.0;
            0.3 * c[2] as f64 + 0.2 * c[3] as f64 + 0.05 * c[0] as f64 + noise
        })
        .collect();
    c.bench_function("attrib_fit_rep_288", |b| {
        b.iter(|| {
            let dm = dsa_attribution::DesignMatrix::build(
                black_box(&rep_space),
                black_box(&rep_rows),
                1,
            );
            dsa_attribution::attribute_axis(&dm, "performance", black_box(&rep_y))
        })
    });

    // The pairwise interaction scan over the whole swarm space (3270
    // rows; Stranger, Selection and Allocation coded as 119 dummies): three
    // augmented refits, the largest the 1092-column Stranger × Selection
    // model, whose Cholesky factorization dominates the warm `attribution`
    // figure. The design is built once; the response is synthetic, so the
    // bench never touches a sweep cache.
    let swarm_space = dsa_swarm::protocol::design_space();
    let swarm_rows: Vec<usize> = swarm_space.indices().collect();
    let swarm_y: Vec<f64> = swarm_rows
        .iter()
        .map(|&i| {
            let c = swarm_space.coords(i);
            let noise = ((i * 37 % 11) as f64 - 5.0) / 100.0;
            0.3 * c[0] as f64
                + 0.01 * (c[1] % 12) as f64
                + 0.2 * c[2] as f64
                + 0.002 * (c[0] * (c[1] % 7)) as f64
                + noise
        })
        .collect();
    let swarm_dm = dsa_attribution::DesignMatrix::build(&swarm_space, &swarm_rows, 1);
    c.bench_function("attrib_interactions_swarm_3270", |b| {
        b.iter(|| dsa_attribution::interaction_scan(black_box(&swarm_dm), black_box(&swarm_y)))
    });

    // OLS on a Table 3-shaped problem (3270 × 12); random columns are
    // full-rank with probability 1.
    let n = 3270;
    let mut fill_rng = Xoshiro256pp::seed_from_u64(0x015);
    let cols: Vec<NamedColumn> = (0..12)
        .map(|j| {
            NamedColumn::new(
                format!("x{j}"),
                (0..n).map(|_| fill_rng.next_f64()).collect(),
            )
        })
        .collect();
    let y: Vec<f64> = (0..n).map(|_| fill_rng.next_f64()).collect();
    c.bench_function("ols_fit_3270x12", |b| {
        b.iter(|| ols::fit(black_box(&cols), black_box(&y)).unwrap())
    });

    // Axelrod round-robin with the classic field.
    let tconfig = TournamentConfig {
        repetitions: 1,
        ..TournamentConfig::default()
    };
    c.bench_function("axelrod_classic_field", |b| {
        let game = prisoners_dilemma();
        b.iter(|| round_robin(black_box(&game), classic_field, black_box(&tconfig)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines
}
criterion_main!(benches);
