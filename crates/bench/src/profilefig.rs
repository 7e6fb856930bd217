//! The `profile` experiment: where does the wall-clock go?
//!
//! For every registered domain (plus the piece-level BitTorrent
//! simulator) this module runs one fresh PRA quantification with tracing
//! on, reads the span aggregates back out of [`dsa_obs`], and renders an
//! ASCII time-attribution figure: one bar per span, sized by *self* time
//! (time inside the span but outside its children), with a coverage line
//! stating how much of the measured wall-clock the named spans explain.
//! The numbers land in `results/profile-<scale>.csv`, and every run
//! appends one provenance record — the merged registries of all
//! sections — to `results/journal.jsonl` under the `experiments
//! profile` command cohort.
//!
//! The cache is probed (via [`DomainSweep::load`]) before each fresh
//! quantification, so the `cache.hit`/`cache.miss.*` counters in the
//! journal record show cold-vs-warm state; a missing cache is filled
//! so the next run flips miss → hit. Because attribution must be
//! per-domain, the experiment owns the global obs registries while it
//! runs: they are reset before each domain and left holding the last
//! domain's data afterwards.

use crate::scale::Scale;
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_core::cache::DomainSweep;
use dsa_obs::Snapshot;
use dsa_stats::ascii;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One profiled section: a domain sweep or the btsim run.
struct Section {
    /// Section label (`swarm`, `gossip`, `rep`, `btsim`).
    name: String,
    /// Wall-clock of the measured computation, in nanoseconds.
    wall_ns: u64,
    /// The obs registries as left by this section alone.
    snap: Snapshot,
}

impl Section {
    /// Nanoseconds attributed to named spans (sum of self times — child
    /// time is counted exactly once, in the child).
    fn attributed_ns(&self) -> u64 {
        self.snap.spans.values().map(|s| s.self_ns).sum()
    }

    /// Share of the wall-clock explained by named spans.
    fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.attributed_ns() as f64 / self.wall_ns as f64
    }
}

/// Runs `work` with the obs registries reset and tracing forced on,
/// returning the wall-clock and the registries it filled.
fn profiled<T>(work: impl FnOnce() -> T) -> (T, u64, Snapshot) {
    dsa_obs::reset();
    dsa_obs::enable_trace();
    let t0 = Instant::now();
    let out = work();
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    dsa_obs::flush();
    (out, wall_ns, dsa_obs::snapshot())
}

/// Merges per-section snapshots into one journaled registry state:
/// counters and histogram-like aggregates add, gauges keep the last
/// written value (their in-registry semantics).
fn merge_snapshots(sections: &[Section]) -> Snapshot {
    let mut merged = Snapshot::default();
    for s in sections {
        for (name, &c) in &s.snap.counters {
            *merged.counters.entry(name.clone()).or_insert(0) += c;
        }
        for (name, &g) in &s.snap.gauges {
            merged.gauges.insert(name.clone(), g);
        }
        for (name, h) in &s.snap.hists {
            merged.hists.entry(name.clone()).or_default().merge(h);
        }
        for (name, st) in &s.snap.spans {
            merged.spans.entry(name.clone()).or_default().merge(st);
        }
    }
    merged
}

/// Renders one section's time-attribution block: bars of per-span self
/// time (milliseconds), the coverage line, and per-span invocation
/// quantiles (p50/p95/p99 over the span's duration histogram).
fn render_section(s: &Section) -> String {
    let mut entries: Vec<(String, f64, Option<f64>)> = s
        .snap
        .spans
        .iter()
        .map(|(name, st)| {
            (
                format!("{name} (×{})", st.dur.count),
                st.self_ns as f64 / 1e6,
                None,
            )
        })
        .collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = format!(
        "{}: {} wall-clock, {:.1}% attributed to {} spans (self-time ms)\n",
        s.name,
        dsa_obs::fmt_ns(s.wall_ns),
        100.0 * s.coverage(),
        s.snap.spans.len()
    );
    out.push_str(&ascii::bars(&entries, 44));
    let _ = writeln!(
        out,
        "  {:<30} {:>8} {:>9} {:>9} {:>9}",
        "span (per invocation)", "count", "p50", "p95", "p99"
    );
    let mut by_total: Vec<_> = s.snap.spans.iter().collect();
    by_total.sort_by_key(|(_, st)| std::cmp::Reverse(st.dur.sum));
    for (name, st) in by_total {
        let (p50, p95, p99) = st.dur.percentiles();
        let _ = writeln!(
            out,
            "  {:<30} {:>8} {:>9} {:>9} {:>9}",
            name,
            st.dur.count,
            dsa_obs::fmt_ns(p50),
            dsa_obs::fmt_ns(p95),
            dsa_obs::fmt_ns(p99)
        );
    }
    out
}

/// The `profile` experiment: per-engine phase attribution at a scale.
///
/// `ts_ms` is the run's Unix timestamp in milliseconds, sampled once by
/// the caller (library code never reads the clock for metadata) — it
/// stamps the appended journal record.
///
/// # Errors
///
/// Returns an error when a sweep cache is corrupt or a result file
/// cannot be written.
pub fn profile(scale: &Scale, out_dir: &Path, ts_ms: u64) -> Result<String, String> {
    let was_trace = dsa_obs::trace_enabled();
    let was_metrics = dsa_obs::metrics_enabled();
    let domains = crate::register_domains();
    let mut sections = Vec::new();
    // Cache-touch provenance for the journal record: the per-section
    // `dsa_obs::reset()` in `profiled` clears the global cache-event log,
    // so probe- and store-phase events are captured here as they happen.
    let mut cache_log: Vec<(String, String)> = Vec::new();

    for domain in &domains {
        // Probe the cache first: hit/miss counters record cold-vs-warm
        // state, and a cold cache gets filled below so reruns are warm.
        let key = dsa_core::cache::SweepKey::of(&**domain, scale.name, scale.effort(), &scale.pra);
        dsa_obs::reset();
        dsa_obs::enable_metrics();
        let cached = DomainSweep::load(&key, out_dir)?;
        let probe_counters = dsa_obs::snapshot().counters;
        cache_log.extend(dsa_obs::journal::cache_events());
        let (results, wall_ns, mut snap) =
            profiled(|| domain.quantify_all(scale.effort(), &scale.pra));
        if cached.is_none() {
            let sweep = DomainSweep {
                key,
                names: domain.codes(),
                results,
                from_cache: false,
            };
            sweep.store(out_dir)?;
        }
        // The store above landed in the live registries after the section
        // snapshot; re-read the counters so the section holds the
        // quantification's events plus the store, then fold the probe in.
        snap.counters = dsa_obs::snapshot().counters;
        cache_log.extend(dsa_obs::journal::cache_events());
        for (name, c) in probe_counters {
            *snap.counters.entry(name).or_insert(0) += c;
        }
        sections.push(Section {
            name: domain.name().to_string(),
            wall_ns,
            snap,
        });
    }

    // The piece-level BitTorrent simulator is not a registered domain but
    // has the same phase spans; profile one homogeneous swarm per run.
    let bt_cfg = BtConfig::default();
    let runs = scale.bt_runs.max(1);
    let (_, wall_ns, snap) = profiled(|| {
        for r in 0..runs {
            let kinds = vec![ClientKind::BitTorrent; bt_cfg.leechers];
            let _ = dsa_btsim::swarm::simulate(&kinds, &bt_cfg, scale.pra.seed ^ r as u64);
        }
    });
    sections.push(Section {
        name: "btsim".to_string(),
        wall_ns,
        snap,
    });

    // Restore whatever observability state the caller had.
    dsa_obs::disable();
    if was_metrics {
        dsa_obs::enable_metrics();
    }
    if was_trace {
        dsa_obs::enable_trace();
    }

    let mut out = format!("Engine time attribution (scale: {})\n\n", scale.name);
    for s in &sections {
        out.push_str(&render_section(s));
        out.push('\n');
    }

    // CSV: one row per (section, span) plus a wall row per section.
    let mut csv = String::from("section,span,count,total_ns,self_ns,share_of_wall\n");
    for s in &sections {
        let _ = writeln!(csv, "{},(wall),1,{},0,1", s.name, s.wall_ns);
        for (name, st) in &s.snap.spans {
            let share = if s.wall_ns == 0 {
                0.0
            } else {
                st.self_ns as f64 / s.wall_ns as f64
            };
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{:.6}",
                s.name, name, st.dur.count, st.dur.sum, st.self_ns, share
            );
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let csv_path = out_dir.join(format!("profile-{}.csv", scale.name));
    std::fs::write(&csv_path, csv).map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    let mut merged = merge_snapshots(&sections);
    // Memory telemetry: a final RSS reading plus the run's allocation
    // totals (no-op without --alloc) go into the merged snapshot, so
    // the journal's mem block carries them alongside the arena gauges
    // the engines recorded during the sections.
    if let Some(s) = dsa_obs::mem::read_rss() {
        merged
            .gauges
            .insert("mem.rss_bytes".to_string(), s.rss_bytes as f64);
        merged
            .gauges
            .insert("mem.rss_peak_bytes".to_string(), s.rss_peak_bytes as f64);
    }
    dsa_obs::alloc::publish_into(&mut merged);
    let _ = writeln!(out, "wrote {}", csv_path.display());

    // Journal the run: one record per profile invocation, under its own
    // command ("experiments profile"), so a diff can pick profile runs
    // apart from the epilogue records of other runs.
    let wall_ms = sections.iter().map(|s| s.wall_ns).sum::<u64>() / 1_000_000;
    let meta = dsa_obs::RunMeta {
        run_id: format!("profile-{}-{ts_ms}-{}", scale.name, std::process::id()),
        binary: "experiments".to_string(),
        command: "experiments profile".to_string(),
        timestamp_ms: ts_ms,
        scale: Some(scale.name.to_string()),
        domain: None,
        seed: Some(scale.pra.seed),
        threads: dsa_core::parallel::effective_threads(scale.pra.threads, usize::MAX),
    };
    let mut record = dsa_obs::JournalRecord::from_snapshot(meta, wall_ms, &merged);
    record.cache = cache_log;
    let journal_path =
        dsa_obs::journal::append(out_dir, &record, dsa_obs::journal::DEFAULT_MAX_BYTES)?;
    let _ = writeln!(
        out,
        "journaled {} to {}",
        record.meta.run_id,
        journal_path.display()
    );

    let worst = sections
        .iter()
        .min_by(|a, b| {
            a.coverage()
                .partial_cmp(&b.coverage())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one section");
    let _ = writeln!(
        out,
        "minimum span coverage: {:.1}% ({})",
        100.0 * worst.coverage(),
        worst.name
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_attributes_most_wall_clock_at_smoke() {
        let _guard = crate::test_lock::obs();
        let dir = std::env::temp_dir().join(format!("dsa-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut scale = Scale::smoke();
        scale.pra.sampling = dsa_core::tournament::OpponentSampling::Sampled(1);
        let report = profile(&scale, &dir, 1_754_600_000_000).expect("profile runs");
        assert!(report.contains("minimum span coverage"));
        assert!(dir.join("profile-smoke.csv").exists());
        // The run journals itself and prints per-span quantile columns.
        assert!(dir.join(dsa_obs::journal::JOURNAL_FILE).exists());
        assert!(report.contains("journaled profile-smoke-"));
        assert!(report.contains("span (per invocation)"));
        assert!(report.contains("p95"));
        // The per-engine phase spans must appear in the rendered bars.
        for span in [
            "swarm.rounds",
            "gossip.rounds",
            "rep.rounds",
            "btsim.rounds",
        ] {
            assert!(report.contains(span), "missing {span} in:\n{report}");
        }
        // Coverage: the named spans must explain ≥90% of the wall-clock.
        let line = report
            .lines()
            .find(|l| l.starts_with("minimum span coverage"))
            .unwrap();
        let pct: f64 = line
            .split(&[' ', '%'][..])
            .find_map(|t| t.parse().ok())
            .unwrap();
        assert!(pct >= 90.0, "coverage {pct}% below 90%:\n{report}");
        let _ = std::fs::remove_dir_all(&dir);
        dsa_obs::reset();
        dsa_obs::disable();
    }

    #[test]
    fn rerun_flips_cache_counters_from_miss_to_hit() {
        let _guard = crate::test_lock::obs();
        let dir = std::env::temp_dir().join(format!("dsa-profile-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut scale = Scale::smoke();
        scale.pra.sampling = dsa_core::tournament::OpponentSampling::Sampled(1);
        profile(&scale, &dir, 1_754_600_000_000).expect("cold run");
        profile(&scale, &dir, 1_754_600_000_001).expect("warm run");
        // Two runs under the same cohort → two journal records, with the
        // cache counters and cache-touch provenance flipping store → hit
        // between them.
        let (records, skipped) = dsa_obs::journal::read_all(&dir).unwrap();
        assert_eq!(skipped, 0);
        let [cold, warm] = records.as_slice() else {
            panic!("expected two journal records, got {}", records.len());
        };
        for (record, ts_ms) in [(cold, 1_754_600_000_000), (warm, 1_754_600_000_001)] {
            assert_eq!(record.meta.command, "experiments profile");
            assert!(record.meta.run_id.starts_with("profile-smoke-"));
            assert_eq!(record.meta.scale.as_deref(), Some("smoke"));
            assert_eq!(record.meta.timestamp_ms, ts_ms);
        }
        assert_eq!(cold.counters.get("cache.miss.absent"), Some(&3));
        assert_eq!(cold.counters.get("cache.store"), Some(&3));
        assert!(!cold.counters.contains_key("cache.hit"));
        assert_eq!(warm.counters.get("cache.hit"), Some(&3));
        assert!(!warm.counters.contains_key("cache.miss.absent"));
        assert!(!warm.counters.contains_key("cache.store"));
        assert!(cold.cache.iter().any(|(_, o)| o == "store"));
        assert!(warm.cache.iter().all(|(_, o)| o == "hit"));
        let _ = std::fs::remove_dir_all(&dir);
        dsa_obs::reset();
        dsa_obs::disable();
    }
}
