//! One Criterion benchmark per paper artifact (table/figure), exercising
//! the exact code path that regenerates it, at smoke scale.
//!
//! These benches are about keeping every reproduction path healthy and
//! measurable — the recorded scientific outputs come from the
//! `experiments` binary at `--scale lab`.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_bench::figures;
use dsa_bench::nashdemo;
use dsa_bench::regress;
use dsa_bench::sweep::SweepData;
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_btsim::experiment::{homogeneous_runs, mixed_runs};
use dsa_core::pra::{quantify, PraConfig};
use dsa_core::results::PraResults;
use dsa_core::tournament::OpponentSampling;
use dsa_gametheory::classes::ClassParams;
use dsa_swarm::adapter::SwarmSim;
use dsa_swarm::engine::SimConfig;
use dsa_swarm::protocol::SwarmProtocol;
use dsa_workloads::bandwidth::BandwidthDist;
use std::hint::black_box;

/// A structurally faithful synthetic sweep (real protocol list, fabricated
/// measures) so the figure-analysis paths can be benched without paying
/// for simulation.
fn synthetic_sweep() -> SweepData {
    let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
    let n = protocols.len();
    let perf_raw: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 96.0).collect();
    let perf = dsa_stats::describe::normalize_by_max(&perf_raw);
    let rob: Vec<f64> = (0..n).map(|i| (i % 89) as f64 / 88.0).collect();
    let agg: Vec<f64> = rob.iter().map(|r| (r * 0.9 + 0.05).min(1.0)).collect();
    SweepData {
        protocols,
        results: PraResults::new(perf_raw, perf, rob, agg),
        scale_name: "bench".into(),
    }
}

fn micro_pra_config() -> PraConfig {
    PraConfig {
        performance_runs: 1,
        encounter_runs: 1,
        sampling: OpponentSampling::Sampled(4),
        threads: 1,
        seed: 0xBE,
        ..PraConfig::default()
    }
}

fn micro_sim() -> SwarmSim {
    SwarmSim {
        config: SimConfig {
            peers: 30,
            rounds: 40,
            bandwidth: BandwidthDist::Piatek,
            ..SimConfig::default()
        },
    }
}

fn bt_bench_config() -> BtConfig {
    BtConfig {
        bandwidth: BandwidthDist::Constant(32.0),
        ..BtConfig::tiny()
    }
}

fn bench_paper(c: &mut Criterion) {
    let params = ClassParams::example_swarm();

    c.bench_function("fig1_payoff_matrices", |b| {
        b.iter(|| nashdemo::fig1(black_box(10.0), black_box(4.0)))
    });
    c.bench_function("table1_class_analytics", |b| {
        b.iter(|| nashdemo::table1(black_box(&params)))
    });
    c.bench_function("appendix_nash_deviations", |b| {
        b.iter(|| nashdemo::nash_analysis(black_box(&params)))
    });

    // fig2's compute path: a PRA quantification over a protocol subset.
    let sim = micro_sim();
    let subset: Vec<SwarmProtocol> = (0..16)
        .map(|i| SwarmProtocol::from_index(i * 193 % dsa_swarm::protocol::SPACE_SIZE))
        .collect();
    let cfg = micro_pra_config();
    c.bench_function("fig2_pra_micro_sweep", |b| {
        b.iter(|| quantify(black_box(&sim), black_box(&subset), black_box(&cfg)))
    });

    // The analysis/rendering path of every sweep figure.
    let sweep = synthetic_sweep();
    c.bench_function("fig2_scatter_render", |b| {
        b.iter(|| figures::fig2(black_box(&sweep)))
    });
    c.bench_function("fig3_partner_histogram", |b| {
        b.iter(|| figures::fig3_fig4(black_box(&sweep), false))
    });
    c.bench_function("fig4_partner_histogram", |b| {
        b.iter(|| figures::fig3_fig4(black_box(&sweep), true))
    });
    c.bench_function("fig5_stranger_ccdf", |b| {
        b.iter(|| figures::fig5(black_box(&sweep)))
    });
    c.bench_function("fig6_allocation_groups", |b| {
        b.iter(|| figures::fig6_fig7(black_box(&sweep), false))
    });
    c.bench_function("fig7_ranking_groups", |b| {
        b.iter(|| figures::fig6_fig7(black_box(&sweep), true))
    });
    c.bench_function("fig8_robustness_aggressiveness", |b| {
        b.iter(|| figures::fig8(black_box(&sweep)))
    });
    c.bench_function("table3_regression", |b| {
        b.iter(|| regress::table3(black_box(&sweep)))
    });
    c.bench_function("birds_placement", |b| {
        b.iter(|| figures::birds_placement(black_box(&sweep)))
    });

    // Figures 9–10: the piece-level validation paths.
    let bt_cfg = bt_bench_config();
    c.bench_function("fig9_mixed_swarm_encounter", |b| {
        b.iter(|| {
            mixed_runs(
                ClientKind::Birds,
                ClientKind::BitTorrent,
                0.5,
                1,
                black_box(&bt_cfg),
                9,
            )
        })
    });
    c.bench_function("fig10_homogeneous_swarm", |b| {
        b.iter(|| homogeneous_runs(ClientKind::SortS, 1, black_box(&bt_cfg), 10))
    });

    // The gossip-domain demonstration.
    c.bench_function("gossip_homogeneous_run", |b| {
        let sim = dsa_gossip::engine::GossipSim::default();
        let p = dsa_gossip::protocol::GossipProtocol::baseline();
        b.iter(|| dsa_core::sim::EncounterSim::run_homogeneous(black_box(&sim), black_box(&p), 11))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_paper
}
criterion_main!(benches);
