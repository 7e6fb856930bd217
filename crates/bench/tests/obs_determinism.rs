//! Metric determinism across thread counts, and trace-shape stability
//! across reruns.
//!
//! The observability layer promises that everything *counted* is a pure
//! function of the work, not of the scheduling: counters, span counts
//! and histogram totals must be bit-identical whether a sweep runs on 1
//! thread or 8. Durations are the explicit exception — they are
//! distributions, compared only structurally — and so is any instrument
//! tagged [`dsa_obs::DetClass::ThreadDependent`] at its recording site
//! (today: `parallel.worker_busy_ns`, whose sample count *is* the worker
//! count — one busy-time sample per worker; see `dsa_core::parallel`).
//! The exclusion below is by class tag, not by name, so new
//! thread-dependent instruments are exempted where they are recorded
//! instead of by editing this test. Lives in its own process so the
//! global obs registries are not shared with other test binaries; the
//! in-file lock serializes the tests themselves.

use dsa_core::cache::DomainSweep;
use dsa_core::domain::Effort;
use dsa_core::pra::PraConfig;
use dsa_core::tournament::OpponentSampling;
use dsa_obs::Snapshot;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests. It guards no data, so a guard poisoned by a
/// failing test is recovered and the other tests still run.
static LOCK: Mutex<()> = Mutex::new(());

fn config(threads: usize) -> PraConfig {
    PraConfig {
        performance_runs: 1,
        encounter_runs: 1,
        sampling: OpponentSampling::Sampled(2),
        threads,
        seed: 0x5EED,
        ..PraConfig::default()
    }
}

/// Runs the full smoke sweep of the reputation domain (288 protocols)
/// with tracing on — compute + store on a cold cache, then one warm load
/// so the deterministic-value `cache.read_bytes`/`cache.write_bytes`
/// histograms both fill — and returns the registries it left behind.
fn traced_sweep(threads: usize, dir: &Path) -> Snapshot {
    let domain = dsa_reputation::adapter::register();
    let cfg = config(threads);
    dsa_obs::reset();
    dsa_obs::enable_trace();
    let sweep =
        DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", dir).expect("sweep");
    DomainSweep::load(&sweep.key, dir)
        .expect("load")
        .expect("cache file present");
    dsa_obs::flush();
    let snap = dsa_obs::snapshot();
    dsa_obs::disable();
    snap
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-obs-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn counts_are_bit_identical_across_1_and_8_threads() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (dir1, dir8) = (fresh_dir("t1"), fresh_dir("t8"));
    let one = traced_sweep(1, &dir1);
    let eight = traced_sweep(8, &dir8);

    // Counters are event counts only — the full maps must match.
    assert_eq!(one.counters, eight.counters);

    // Spans: same names, same invocation counts; durations may differ.
    let span_counts = |s: &Snapshot| -> Vec<(String, u64)> {
        s.spans
            .iter()
            .map(|(n, st)| (n.clone(), st.dur.count))
            .collect()
    };
    assert_eq!(span_counts(&one), span_counts(&eight));

    // Histograms: same names; totals match for every instrument the
    // recording site tagged Deterministic. ThreadDependent instruments
    // (count = worker count by design) are excluded by their class tag —
    // not by a hard-coded name list in this test.
    let names = |s: &Snapshot| -> Vec<String> { s.hists.keys().cloned().collect() };
    assert_eq!(names(&one), names(&eight));
    let mut thread_dependent = Vec::new();
    for (name, h1) in &one.hists {
        let h8 = &eight.hists[name];
        match dsa_obs::instrument_class(name) {
            dsa_obs::DetClass::ThreadDependent => {
                assert_ne!(h1.count, h8.count, "1 vs 8 workers must differ");
                thread_dependent.push(name.clone());
            }
            dsa_obs::DetClass::Deterministic => {
                assert_eq!(h1.count, h8.count, "sample count of {name}");
            }
        }
    }
    // Exactly one instrument carries the tag today; a new one showing up
    // here unannounced means a recording site opted out of determinism.
    assert_eq!(thread_dependent, ["parallel.worker_busy_ns"]);

    // The byte-size histograms observe deterministic values, so even
    // their buckets, sums and extrema are bit-identical.
    for name in ["cache.read_bytes", "cache.write_bytes"] {
        let (h1, h8) = (&one.hists[name], &eight.hists[name]);
        assert!(h1.count > 0, "{name} recorded nothing");
        assert_eq!(h1, h8, "{name} must be thread-count invariant");
    }

    // Gauges are last-value readings; only the instrument set is stable.
    let gauge_names = |s: &Snapshot| -> Vec<String> { s.gauges.keys().cloned().collect() };
    assert_eq!(gauge_names(&one), gauge_names(&eight));

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
}

#[test]
fn trace_shape_is_stable_across_reruns() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (a, b) = (fresh_dir("ra"), fresh_dir("rb"));
    let first = traced_sweep(0, &a);
    let second = traced_sweep(0, &b);
    // The rendered trace, stripped of durations, is identical run to
    // run — "stable modulo durations".
    assert_eq!(first.render_shape(), second.render_shape());
    assert_ne!(first.render_shape(), "");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
