//! Integration tests for the observability wiring in `dsa-core`: cache
//! hit/miss counters (with mismatch reasons) and fork-join load metrics.
//!
//! These run in their own test binary — and serialize on a local mutex —
//! because the obs registries are process-global.

use dsa_core::cache::{read_stamped, write_stamped, DomainSweep, SweepKey};
use dsa_core::domain::{erase, Domain, Effort};
use dsa_core::parallel::parallel_map_indexed;
use dsa_core::pra::PraConfig;
use dsa_core::sim::EncounterSim;
use dsa_core::space::{DesignSpace, Dimension};
use dsa_core::tournament::OpponentSampling;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests. It guards no data, so a guard poisoned by a
/// failing test is recovered and the other tests still run.
static LOCK: Mutex<()> = Mutex::new(());

/// An analytic five-protocol domain (protocols are generosity levels),
/// small enough that a smoke sweep is instant.
#[derive(Debug)]
struct TinySim;

impl EncounterSim for TinySim {
    type Protocol = f64;

    fn run_homogeneous(&self, protocol: &f64, _seed: u64) -> f64 {
        *protocol
    }

    fn run_encounter(&self, a: &f64, b: &f64, fraction_a: f64, _seed: u64) -> (f64, f64) {
        let pool = fraction_a * a + (1.0 - fraction_a) * b;
        (pool + (b - a), pool + (a - b))
    }
}

struct TinyDomain;

impl Domain for TinyDomain {
    type Sim = TinySim;

    fn name(&self) -> &'static str {
        "tiny"
    }

    fn space(&self) -> DesignSpace {
        DesignSpace::new(
            "tiny-space",
            vec![Dimension::new(
                "Generosity",
                (0..5).map(|i| format!("g{i}")).collect(),
            )],
        )
    }

    fn protocol(&self, index: usize) -> f64 {
        index as f64 / 4.0
    }

    fn code(&self, index: usize) -> String {
        format!("g{index}")
    }

    fn presets(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn attackers(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn sim(&self, _effort: Effort, _churn: f64) -> TinySim {
        TinySim
    }
}

fn config() -> PraConfig {
    PraConfig {
        performance_runs: 2,
        encounter_runs: 1,
        sampling: OpponentSampling::Exhaustive,
        threads: 1,
        seed: 11,
        ..PraConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-obs-core-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn rerun_flips_miss_to_hit() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    dsa_obs::enable_metrics();
    dsa_obs::reset();
    let dir = temp_dir("flip");
    let domain = erase(TinyDomain);
    let cfg = config();

    // Cold: the cache file does not exist yet.
    let first = DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
    assert!(!first.from_cache);
    let cold = dsa_obs::snapshot();
    assert_eq!(cold.counters["cache.miss.absent"], 1);
    assert_eq!(cold.counters["cache.store"], 1);
    assert!(!cold.counters.contains_key("cache.hit"));

    // Warm rerun: the counters flip from miss to hit.
    let second =
        DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
    assert!(second.from_cache);
    let warm = dsa_obs::snapshot();
    assert_eq!(warm.counters["cache.miss.absent"], 1, "no new miss");
    assert_eq!(warm.counters["cache.hit"], 1);
    assert_eq!(warm.counters["cache.store"], 1, "no second store");
    assert_eq!(warm.hists["cache.read_bytes"].count, 1);

    dsa_obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_stamped_write_counts_one_store() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    dsa_obs::enable_metrics();
    dsa_obs::reset();
    let dir = temp_dir("store");
    // The attack, evolution and attribution caches write through
    // `write_stamped` directly, not through `DomainSweep::store`.
    let key = SweepKey {
        domain: "rep".into(),
        space_hash: 0x0123,
        scale: "smoke".into(),
        params: 0x4567,
        seed: 7,
        len: 1,
        attack: 0xA77A,
        evo: 0,
        attrib: 0,
    };
    write_stamped(&dir.join("attack-rep-sybil-smoke.csv"), &key, "row\n").unwrap();
    let snap = dsa_obs::snapshot();
    let events = dsa_obs::journal::cache_events();
    dsa_obs::disable();
    assert_eq!(snap.counters["cache.store"], 1);
    assert_eq!(
        events,
        [(
            "attack-rep-sybil-smoke.csv".to_string(),
            "store".to_string()
        )]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_stamp_field_mismatch_counts_under_its_own_name() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    dsa_obs::enable_metrics();
    dsa_obs::reset();
    let dir = temp_dir("fields");
    std::fs::create_dir_all(&dir).unwrap();
    let written = SweepKey {
        domain: "rep".into(),
        space_hash: 0x0123,
        scale: "lab".into(),
        params: 0x4567,
        seed: 24301,
        len: 2,
        attack: 0xA77A,
        evo: 0xE40,
        attrib: 0xA11B,
    };
    let path = dir.join("probe.csv");
    write_stamped(&path, &written, "row\nrow\n").unwrap();

    // One probe per stamp field: mutate the caller's key and check the
    // reason lands under the right counter.
    type Probe = (&'static str, fn(&mut SweepKey));
    let probes: [Probe; 9] = [
        ("cache.miss.domain", |k| k.domain = "swarm".into()),
        ("cache.miss.space", |k| k.space_hash ^= 1),
        ("cache.miss.scale", |k| k.scale = "paper".into()),
        ("cache.miss.params", |k| k.params ^= 1),
        ("cache.miss.seed", |k| k.seed += 1),
        ("cache.miss.n", |k| k.len += 1),
        ("cache.miss.attack", |k| k.attack ^= 1),
        ("cache.miss.evo", |k| k.evo ^= 1),
        ("cache.miss.attrib", |k| k.attrib ^= 1),
    ];
    for (counter, mutate) in probes {
        let mut key = written.clone();
        mutate(&mut key);
        assert!(read_stamped(&path, &key).unwrap().is_none());
        let snap = dsa_obs::snapshot();
        assert_eq!(snap.counters[counter], 1, "{counter}");
    }
    // The unmutated key still validates.
    assert!(read_stamped(&path, &written).unwrap().is_some());
    let snap = dsa_obs::snapshot();
    assert_eq!(snap.counters["cache.hit"], 1);
    // Exactly one miss per field probe, nothing double-counted.
    let misses: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cache.miss."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(misses, 9);

    dsa_obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fork_join_regions_report_load_metrics() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    dsa_obs::enable_metrics();
    dsa_obs::reset();

    let out = parallel_map_indexed(40, 4, |i| (i as f64).sqrt());
    assert_eq!(out.len(), 40);
    let snap = dsa_obs::snapshot();
    assert_eq!(snap.counters["parallel.jobs"], 1);
    assert_eq!(snap.counters["parallel.tasks"], 40);
    // One busy-time observation per worker.
    assert_eq!(snap.hists["parallel.worker_busy_ns"].count, 4);
    assert!(snap.gauges["parallel.busy_max_ns"] >= snap.gauges["parallel.busy_mean_ns"]);
    assert!(snap.gauges["parallel.imbalance"] >= 1.0);

    // The serial path reports one worker (the calling thread).
    dsa_obs::reset();
    let _ = parallel_map_indexed(10, 1, |i| i);
    let snap = dsa_obs::snapshot();
    assert_eq!(snap.counters["parallel.jobs"], 1);
    assert_eq!(snap.counters["parallel.tasks"], 10);
    assert_eq!(snap.hists["parallel.worker_busy_ns"].count, 1);

    dsa_obs::disable();
}

#[test]
fn disabled_metrics_record_nothing_from_core() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    dsa_obs::disable();
    dsa_obs::reset();
    let dir = temp_dir("off");
    let domain = erase(TinyDomain);
    let cfg = config();
    let _ = DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
    let _ = parallel_map_indexed(16, 4, |i| i);
    assert!(dsa_obs::snapshot().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
