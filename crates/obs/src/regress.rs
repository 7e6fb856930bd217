//! Perf-regression detection over the run journal: the engine behind
//! `dsa obs regress`, the journal-driven CI gate.
//!
//! The latest journal record is compared against two references:
//!
//! 1. **A rolling window** of prior comparable records — same binary,
//!    command and scale — using the *median* of each span's self time
//!    (and wall clock, and `_ns`-histogram p95s) over the window. The
//!    median absorbs one-off outliers; a span whose latest self time
//!    exceeds the median by more than the threshold is flagged.
//! 2. **`BENCH_*.json` baselines** as a coarse absolute ceiling: for an
//!    engine span `<engine>.run`, the mean ns/invocation may not exceed
//!    `bench_factor ×` the largest `<engine>_run_*` criterion baseline.
//!    The journal workload is not the bench workload (smoke runs are
//!    far smaller), so this is deliberately a loose sanity bound, not a
//!    tight gate — the rolling window is the sensitive check.
//!
//! Tiny spans sit below a noise floor (`min_self_ns`) and are never
//! flagged. No comparable prior runs is a *pass* with a note (first run
//! on a fresh journal must not break CI).

use crate::journal::JournalRecord;
use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tunables for [`check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressConfig {
    /// Flag when latest exceeds the reference by more than this percent.
    pub threshold_pct: f64,
    /// How many prior comparable records form the rolling window.
    pub window: usize,
    /// Ignore spans/hist-p95s below this many nanoseconds of self time.
    pub min_self_ns: u64,
    /// Bench-baseline ceiling factor (see module docs).
    pub bench_factor: f64,
    /// Ignore memory quantities below this many bytes (the memory
    /// analogue of `min_self_ns`: tiny footprints are all noise).
    pub min_mem_bytes: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        Self {
            threshold_pct: 50.0,
            window: 5,
            min_self_ns: 1_000_000,
            bench_factor: 10.0,
            min_mem_bytes: 1 << 20,
        }
    }
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `span`, `wall`, `hist`, `mem`, or `bench`.
    pub kind: &'static str,
    /// Instrument name (`swarm.run`, `wall_ms`, ...).
    pub name: String,
    /// Reference value (window median or bench ceiling), ns or ms.
    pub reference: f64,
    /// The latest run's value.
    pub latest: f64,
    /// Excess over the reference, in percent.
    pub pct: f64,
}

/// Outcome of a regression check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegressReport {
    /// Detected regressions (empty = gate passes).
    pub regressions: Vec<Regression>,
    /// How many instrument comparisons were made.
    pub compared: usize,
    /// How many prior comparable records formed the window.
    pub window_len: usize,
    /// Human-readable caveats (no priors, skipped floors, ...).
    pub notes: Vec<String>,
}

impl RegressReport {
    /// True when the gate passes (no regressions).
    #[must_use]
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[values.len() / 2])
}

fn over(latest: f64, reference: f64, threshold_pct: f64) -> Option<f64> {
    if reference <= 0.0 {
        return None;
    }
    let pct = (latest / reference - 1.0) * 100.0;
    (pct > threshold_pct).then_some(pct)
}

/// Parses a `BENCH_*.json` document into its `baselines_ns_per_iter`
/// map.
///
/// # Errors
///
/// Returns an error on malformed JSON or a missing/ill-typed map.
pub fn load_baselines(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(text)?;
    let map = doc
        .get("baselines_ns_per_iter")
        .and_then(Json::as_obj)
        .ok_or("no baselines_ns_per_iter object")?;
    let mut out = BTreeMap::new();
    for (name, v) in map {
        out.insert(
            name.clone(),
            v.as_f64()
                .ok_or_else(|| format!("baseline {name}: not a number"))?,
        );
    }
    Ok(out)
}

/// Checks the last record in `records` against its rolling window and
/// the bench baselines. `records` must be in chronological order (as
/// [`crate::journal::read_all`] returns them).
#[must_use]
pub fn check(
    records: &[JournalRecord],
    baselines: &BTreeMap<String, f64>,
    cfg: &RegressConfig,
) -> RegressReport {
    let mut report = RegressReport::default();
    let Some((latest, prior)) = records.split_last() else {
        report
            .notes
            .push("journal is empty: nothing to check".to_string());
        return report;
    };
    let window: Vec<&JournalRecord> = prior
        .iter()
        .rev()
        .filter(|r| {
            r.meta.binary == latest.meta.binary
                && r.meta.command == latest.meta.command
                && r.meta.scale == latest.meta.scale
        })
        .take(cfg.window)
        .collect();
    report.window_len = window.len();

    if window.is_empty() {
        report.notes.push(format!(
            "no prior runs comparable to `{}` ({}, scale {:?}): window check skipped",
            latest.meta.command, latest.meta.binary, latest.meta.scale
        ));
    } else {
        // Wall clock.
        let mut walls: Vec<f64> = window.iter().map(|r| r.wall_ms as f64).collect();
        if let Some(reference) = median(&mut walls) {
            report.compared += 1;
            if let Some(pct) = over(latest.wall_ms as f64, reference, cfg.threshold_pct) {
                report.regressions.push(Regression {
                    kind: "wall",
                    name: "wall_ms".to_string(),
                    reference,
                    latest: latest.wall_ms as f64,
                    pct,
                });
            }
        }
        // Span self times.
        for (name, s) in &latest.spans {
            if s.self_ns < cfg.min_self_ns {
                continue;
            }
            let mut values: Vec<f64> = window
                .iter()
                .filter_map(|r| r.spans.get(name).map(|p| p.self_ns as f64))
                .collect();
            let Some(reference) = median(&mut values) else {
                continue;
            };
            report.compared += 1;
            if let Some(pct) = over(s.self_ns as f64, reference, cfg.threshold_pct) {
                report.regressions.push(Regression {
                    kind: "span",
                    name: name.clone(),
                    reference,
                    latest: s.self_ns as f64,
                    pct,
                });
            }
        }
        // Nanosecond-histogram p95s (per-cell latency distributions).
        for (name, h) in &latest.hists {
            if !name.ends_with("_ns") || h.p95 < cfg.min_self_ns {
                continue;
            }
            let mut values: Vec<f64> = window
                .iter()
                .filter_map(|r| r.hists.get(name).map(|p| p.p95 as f64))
                .collect();
            let Some(reference) = median(&mut values) else {
                continue;
            };
            report.compared += 1;
            if let Some(pct) = over(h.p95 as f64, reference, cfg.threshold_pct) {
                report.regressions.push(Regression {
                    kind: "hist",
                    name: name.clone(),
                    reference,
                    latest: h.p95 as f64,
                    pct,
                });
            }
        }
        // Memory: peak RSS, peak arena footprint, allocated bytes —
        // each against the window median of runs that recorded it.
        // A latest run without memory telemetry (metrics off, or a
        // pre-memory journal) simply skips the gate; mixed windows use
        // whichever prior records carry a mem block.
        if let Some(mem) = &latest.mem {
            type MemGetter = fn(&crate::journal::MemBlock) -> u64;
            let quantities: [(&'static str, MemGetter); 3] = [
                ("mem.rss_peak_bytes", |m| m.rss_peak_bytes),
                ("mem.arena_peak_bytes", |m| m.arena_peak_bytes),
                ("mem.alloc.bytes", |m| m.alloc_bytes),
            ];
            for (name, get) in quantities {
                let value = get(mem);
                if value < cfg.min_mem_bytes {
                    continue;
                }
                let mut values: Vec<f64> = window
                    .iter()
                    .filter_map(|r| r.mem.as_ref().map(|m| get(m) as f64))
                    .filter(|v| *v > 0.0)
                    .collect();
                let Some(reference) = median(&mut values) else {
                    continue;
                };
                report.compared += 1;
                if let Some(pct) = over(value as f64, reference, cfg.threshold_pct) {
                    report.regressions.push(Regression {
                        kind: "mem",
                        name: name.to_string(),
                        reference,
                        latest: value as f64,
                        pct,
                    });
                }
            }
        }
    }

    // Bench-baseline ceilings: engine spans vs criterion baselines.
    for (name, s) in &latest.spans {
        let Some(engine) = name.strip_suffix(".run") else {
            continue;
        };
        if s.count == 0 {
            continue;
        }
        let prefix = format!("{engine}_run");
        let ceiling = baselines
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .fold(f64::NAN, f64::max);
        if !ceiling.is_finite() {
            continue;
        }
        report.compared += 1;
        let mean = s.total_ns as f64 / s.count as f64;
        let bound = ceiling * cfg.bench_factor;
        if mean > bound {
            report.regressions.push(Regression {
                kind: "bench",
                name: name.clone(),
                reference: bound,
                latest: mean,
                pct: (mean / bound - 1.0) * 100.0,
            });
        }
    }

    report.regressions.sort_by(|a, b| b.pct.total_cmp(&a.pct));
    report
}

/// Renders a report for the terminal / CI log.
#[must_use]
pub fn render(report: &RegressReport, cfg: &RegressConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf gate: {} comparisons against a {}-run window (threshold +{}%, floor {}ns)",
        report.compared, report.window_len, cfg.threshold_pct, cfg.min_self_ns
    );
    for note in &report.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    if report.ok() {
        let _ = writeln!(out, "  PASS: no regressions");
    } else {
        for r in &report.regressions {
            let _ = writeln!(
                out,
                "  FAIL [{}] {}: {:.0} vs reference {:.0} (+{:.1}%)",
                r.kind, r.name, r.latest, r.reference, r.pct
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalRecord, RunMeta, SpanSummary};

    fn record(run: &str, swarm_self_ns: u64) -> JournalRecord {
        let mut r = JournalRecord {
            meta: RunMeta {
                run_id: run.to_string(),
                binary: "experiments".to_string(),
                command: "experiments profile".to_string(),
                scale: Some("smoke".to_string()),
                threads: 4,
                ..RunMeta::default()
            },
            wall_ms: 1000,
            ..JournalRecord::default()
        };
        r.spans.insert(
            "swarm.run".to_string(),
            SpanSummary {
                count: 10,
                total_ns: swarm_self_ns,
                self_ns: swarm_self_ns,
                p50: 1,
                p95: 2,
                p99: 3,
            },
        );
        r
    }

    #[test]
    fn planted_regression_fails_and_steady_state_passes() {
        let cfg = RegressConfig {
            threshold_pct: 25.0,
            ..RegressConfig::default()
        };
        let baselines = BTreeMap::new();
        let mut records: Vec<JournalRecord> = (0..4)
            .map(|i| record(&format!("r{i}"), 100_000_000))
            .collect();
        let report = check(&records, &baselines, &cfg);
        assert!(report.ok(), "steady state must pass: {report:?}");
        assert!(report.compared > 0);
        // Plant a 50% span regression.
        records.push(record("slow", 150_000_000));
        let report = check(&records, &baselines, &cfg);
        assert!(!report.ok());
        assert_eq!(report.regressions[0].kind, "span");
        assert_eq!(report.regressions[0].name, "swarm.run");
        assert!((report.regressions[0].pct - 50.0).abs() < 1e-6);
    }

    fn with_mem(mut r: JournalRecord, rss_peak: u64, arena_peak: u64) -> JournalRecord {
        r.mem = Some(crate::journal::MemBlock {
            rss_peak_bytes: rss_peak,
            arena_peak_bytes: arena_peak,
            alloc_count: 100,
            alloc_bytes: 0,
        });
        r
    }

    #[test]
    fn planted_memory_regression_fails_while_time_stays_clean() {
        let cfg = RegressConfig::default();
        let mut records: Vec<JournalRecord> = (0..4)
            .map(|i| with_mem(record(&format!("r{i}"), 100_000_000), 40 << 20, 2 << 20))
            .collect();
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "steady memory must pass: {report:?}");
        // ~50%+ peak-RSS growth with identical timings: only the mem
        // gate fires, and it names the quantity.
        records.push(with_mem(record("bloated", 100_000_000), 62 << 20, 2 << 20));
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, "mem");
        assert_eq!(report.regressions[0].name, "mem.rss_peak_bytes");
        assert!(report.regressions[0].pct > 50.0);
        // An arena blowup is caught independently of RSS.
        records.pop();
        records.push(with_mem(record("arena", 100_000_000), 40 << 20, 8 << 20));
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(!report.ok());
        assert_eq!(report.regressions[0].name, "mem.arena_peak_bytes");
    }

    #[test]
    fn runs_without_memory_telemetry_skip_the_mem_gate() {
        let cfg = RegressConfig::default();
        // Priors carry mem blocks, latest does not (metrics off): the
        // time gates still run, the mem gate silently skips.
        let mut records: Vec<JournalRecord> = (0..3)
            .map(|i| with_mem(record(&format!("r{i}"), 100_000_000), 40 << 20, 2 << 20))
            .collect();
        records.push(record("nomem", 100_000_000));
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "{report:?}");
        // And vice versa: a mem-carrying latest over mem-less priors
        // has no reference, which is a pass, not a crash.
        let mut records: Vec<JournalRecord> = (0..3)
            .map(|i| record(&format!("r{i}"), 100_000_000))
            .collect();
        records.push(with_mem(
            record("first-mem", 100_000_000),
            40 << 20,
            2 << 20,
        ));
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn tiny_footprints_sit_below_the_memory_noise_floor() {
        let cfg = RegressConfig::default();
        // 100x growth, but under min_mem_bytes: ignored.
        let mut records: Vec<JournalRecord> = (0..3)
            .map(|i| with_mem(record(&format!("r{i}"), 100_000_000), 1 << 10, 1 << 10))
            .collect();
        records.push(with_mem(record("small", 100_000_000), 100 << 10, 100 << 10));
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn window_uses_median_so_one_outlier_does_not_shift_the_reference() {
        let cfg = RegressConfig {
            threshold_pct: 25.0,
            ..RegressConfig::default()
        };
        let records = vec![
            record("a", 100_000_000),
            record("outlier", 1_000_000_000),
            record("b", 100_000_000),
            record("c", 100_000_000),
            record("latest", 110_000_000),
        ];
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn incomparable_and_empty_journals_pass_with_a_note() {
        let cfg = RegressConfig::default();
        let report = check(&[], &BTreeMap::new(), &cfg);
        assert!(report.ok());
        assert_eq!(report.notes.len(), 1);
        // A lone record has no comparable priors.
        let report = check(&[record("only", 1)], &BTreeMap::new(), &cfg);
        assert!(report.ok());
        assert!(report.notes[0].contains("no prior runs"));
        // Prior runs of a different command don't count.
        let mut other = record("other", 100);
        other.meta.command = "experiments all".to_string();
        let report = check(&[other, record("latest", 1)], &BTreeMap::new(), &cfg);
        assert!(report.ok());
        assert_eq!(report.window_len, 0);
    }

    #[test]
    fn spans_below_the_noise_floor_are_ignored() {
        let cfg = RegressConfig {
            threshold_pct: 25.0,
            ..RegressConfig::default()
        };
        let records = vec![
            record("a", 100),
            record("b", 100),
            record("latest", 500_000),
        ];
        // 5000x growth, but below min_self_ns.
        let report = check(&records, &BTreeMap::new(), &cfg);
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn bench_ceiling_catches_absolute_blowups() {
        let cfg = RegressConfig::default();
        let baselines = load_baselines(
            r#"{"baselines_ns_per_iter": {"swarm_run_50peers_500rounds": 1000000.0}}"#,
        )
        .unwrap();
        // Mean 2ms/invocation < 10x 1ms ceiling: fine.
        let mut r = record("ok", 0);
        r.spans.get_mut("swarm.run").unwrap().total_ns = 20_000_000;
        let report = check(std::slice::from_ref(&r), &baselines, &cfg);
        assert!(report.ok(), "{report:?}");
        // Mean 20ms/invocation > ceiling: bench regression.
        let mut r = record("blowup", 0);
        r.spans.get_mut("swarm.run").unwrap().total_ns = 200_000_000;
        let report = check(&[r], &baselines, &cfg);
        assert!(!report.ok());
        assert_eq!(report.regressions[0].kind, "bench");
    }

    #[test]
    fn baseline_parser_reads_bench_json() {
        let text = r#"{
            "comment": "x",
            "baselines_ns_per_iter": {"a_run_1": 10.5, "b_run_2": 20}
        }"#;
        let map = load_baselines(text).unwrap();
        assert_eq!(map["a_run_1"], 10.5);
        assert_eq!(map["b_run_2"], 20.0);
        assert!(load_baselines("{}").is_err());
    }
}
