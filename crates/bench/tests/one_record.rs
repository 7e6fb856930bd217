//! One record per run. Both binaries end an observed run in
//! [`ObsSwitches::finish`], which journals the whole run as one record:
//! every engine it ran and every cache it touched. Lives in its own
//! process so the global obs registries are its own; the in-file lock
//! serializes the tests, and each run starts from empty registries, as
//! a process does.

use dsa_bench::cli::ObsSwitches;
use dsa_bench::{btfigs, gossipfig, Scale};
use dsa_btsim::config::BtConfig;
use dsa_core::tournament::OpponentSampling;
use dsa_obs::{JournalRecord, RunMeta};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

static LOCK: Mutex<()> = Mutex::new(());

const METRICS: ObsSwitches = ObsSwitches {
    metrics: true,
    trace: false,
    alloc: false,
};

const TRACE: ObsSwitches = ObsSwitches {
    metrics: false,
    trace: true,
    alloc: false,
};

/// The gossip sweep's cache file at smoke scale.
const GOSSIP_CACHE: &str = "pra-gossip-smoke.csv";

/// Smoke scale with one opponent per protocol: the same cache file name,
/// a fraction of the simulations.
fn smoke() -> Scale {
    let mut scale = Scale::smoke();
    scale.pra.sampling = OpponentSampling::Sampled(1);
    scale
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-one-record-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `work` as one observed `experiments` run journaled under `dir`.
fn observed_run(obs: ObsSwitches, dir: &Path, ts_ms: u64, work: impl FnOnce()) {
    dsa_obs::disable();
    dsa_obs::reset();
    obs.enable();
    let started = Instant::now();
    work();
    let meta = RunMeta {
        run_id: format!("experiments-smoke-{ts_ms}-1"),
        binary: "experiments".to_string(),
        command: "experiments --scale smoke".to_string(),
        timestamp_ms: ts_ms,
        scale: Some("smoke".to_string()),
        ..RunMeta::default()
    };
    obs.finish(started, Some((meta, dir)));
    dsa_obs::disable();
}

fn records(dir: &Path) -> Vec<JournalRecord> {
    let (records, skipped) = dsa_obs::journal::read_all(dir).expect("journal reads");
    assert_eq!(skipped, 0);
    records
}

fn events(outcomes: &[&str]) -> Vec<(String, String)> {
    outcomes
        .iter()
        .map(|outcome| (GOSSIP_CACHE.to_string(), (*outcome).to_string()))
        .collect()
}

#[test]
fn a_cold_and_a_warm_sweep_journal_one_record_each() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = fresh_dir("rerun");
    let scale = smoke();
    for ts_ms in [1, 2] {
        observed_run(METRICS, &dir, ts_ms, || {
            gossipfig::gossip_dsa(&scale, &dir).expect("gossip sweep");
        });
    }
    let records = records(&dir);
    let [cold, warm] = records.as_slice() else {
        panic!("expected two journal records, got {}", records.len());
    };
    assert_eq!((cold.meta.timestamp_ms, warm.meta.timestamp_ms), (1, 2));
    assert_eq!(cold.cache, events(&["miss.absent", "store"]));
    assert_eq!(cold.counters.get("cache.miss.absent"), Some(&1));
    assert_eq!(cold.counters.get("cache.store"), Some(&1));
    assert!(!cold.counters.contains_key("cache.hit"));
    assert_eq!(warm.cache, events(&["hit"]));
    assert_eq!(warm.counters.get("cache.hit"), Some(&1));
    assert!(!warm.counters.contains_key("cache.miss.absent"));
    assert!(!warm.counters.contains_key("cache.store"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_run_of_a_sweep_and_btsim_journals_one_record_holding_both() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = fresh_dir("multi");
    let scale = smoke();
    observed_run(TRACE, &dir, 3, || {
        gossipfig::gossip_dsa(&scale, &dir).expect("gossip sweep");
        let _ = btfigs::fig10(scale.bt_runs, &BtConfig::default(), scale.pra.seed ^ 0x10);
    });
    let records = records(&dir);
    let [record] = records.as_slice() else {
        panic!("expected one journal record, got {}", records.len());
    };
    for span in ["gossip.rounds", "btsim.rounds"] {
        assert!(record.spans[span].count > 0, "{span}");
    }
    assert_eq!(record.cache, events(&["miss.absent", "store"]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_traced_run_journals_every_engine_phase() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = fresh_dir("phases");
    let scale = smoke();
    observed_run(TRACE, &dir, 4, || {
        for domain in dsa_bench::register_domains() {
            let presets: Vec<usize> = domain.presets().iter().map(|(_, i)| *i).collect();
            let _ = domain.quantify(&presets, scale.effort(), &scale.pra);
        }
        let _ = btfigs::fig10(1, &BtConfig::tiny(), 1);
    });
    let records = records(&dir);
    let [record] = records.as_slice() else {
        panic!("expected one journal record, got {}", records.len());
    };
    for engine in ["swarm", "gossip", "rep", "btsim"] {
        for phase in ["run", "setup", "rounds", "payoff"] {
            let span = format!("{engine}.{phase}");
            let summary = record.spans.get(&span);
            assert!(summary.is_some_and(|s| s.count > 0), "{span} missing");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
