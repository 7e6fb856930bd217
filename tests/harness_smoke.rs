//! Smoke tests of the experiment harness: every paper artifact's
//! generation path runs end-to-end at miniature scale and produces
//! plausible output. The churn and corr9010 texts are pinned by FNV-1a
//! digests; re-bless them only for a deliberate output change.

use dsa_bench::scale::Scale;
use dsa_bench::sweep::SweepData;
use dsa_bench::{btfigs, gossipfig, nashdemo};
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_core::domain::fnv1a;
use dsa_core::results::PraResults;
use dsa_gametheory::classes::ClassParams;
use dsa_swarm::protocol::SwarmProtocol;
use dsa_workloads::bandwidth::BandwidthDist;

#[test]
fn section2_artifacts_render() {
    let s = nashdemo::fig1(10.0, 4.0);
    assert!(s.contains("BitTorrent Dilemma"));
    let s = nashdemo::table1(&ClassParams::example_swarm());
    assert!(s.contains("total"));
    let s = nashdemo::nash_analysis(&ClassParams::example_swarm());
    assert!(s.contains("Nash"));
}

#[test]
fn fig9_and_fig10_render_at_tiny_scale() {
    let cfg = BtConfig {
        bandwidth: BandwidthDist::Constant(32.0),
        ..BtConfig::tiny()
    };
    let s = btfigs::fig9(ClientKind::Birds, ClientKind::BitTorrent, 2, &cfg, 3);
    assert!(s.contains("0.50"));
    let s = btfigs::fig10(2, &cfg, 4);
    assert!(s.contains("Sort-S"));
}

#[test]
fn gossip_dsa_renders() {
    let dir = std::env::temp_dir().join(format!("dsa-harness-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = gossipfig::gossip_dsa(&Scale::smoke(), &dir).expect("gossip sweep");
    assert!(s.contains("108 protocols"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scales_exist_for_cli() {
    for name in ["smoke", "lab", "paper"] {
        assert!(Scale::by_name(name).is_some());
    }
}

/// FNV-1a over the churn experiment's text at smoke scale.
const GOLDEN_CHURN: u64 = 0xc905_18bb_47a1_994e;

/// FNV-1a over `corr_9010`'s text on the 60-protocol subset below.
const GOLDEN_CORR_9010: u64 = 0xd7eb_5f56_aa1c_bb26;

#[test]
fn churn_experiment_runs_at_smoke_scale() {
    // The performance phase over the whole 3270-protocol space, three
    // times (one per churn rate), at the simulator the smoke scale sets.
    let s = dsa_bench::figures::churn_experiment(&Scale::smoke());
    assert!(s.contains("churn=0.1"));
    assert!(s.contains("top performer"));
    let h = fnv1a(s.as_bytes());
    assert_eq!(h, GOLDEN_CHURN, "churn digest {h:#018x}; it printed:\n{s}");
}

#[test]
fn corr_9010_is_pinned() {
    // The 90/10 tournament runs only over the sweep's protocols: a
    // 60-protocol stride through the space, with a synthetic 50/50
    // robustness on the 1/6 grid to correlate it with.
    let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().step_by(55).collect();
    let n = protocols.len();
    let robustness: Vec<f64> = (0..n).map(|i| (i * 5 % 7) as f64 / 6.0).collect();
    let zeros = vec![0.0; n];
    let data = SweepData {
        protocols,
        results: PraResults::new(zeros.clone(), zeros.clone(), robustness, zeros),
        scale_name: "smoke".into(),
    };
    let s = dsa_bench::figures::corr_9010(&data, &Scale::smoke());
    assert!(s.contains("Pearson r"));
    let h = fnv1a(s.as_bytes());
    assert_eq!(
        h, GOLDEN_CORR_9010,
        "corr9010 digest {h:#018x}; it printed:\n{s}"
    );
}
