//! Run diffing: `dsa obs diff <run-a> <run-b>` rendering.
//!
//! Compares two journal records span-by-span (self time) and
//! metric-by-metric, printing absolute and relative deltas. Changes at
//! or beyond the highlight threshold (percent, configurable with
//! `--threshold`) are marked with `!`; instruments present in only one
//! run are listed as added/removed. Tiny spans are suppressed below a
//! noise floor so smoke-scale diffs aren't wall-to-wall jitter.

use crate::journal::JournalRecord;
use crate::json;
use std::fmt::Write as _;

/// Self-time noise floor: spans under this in *both* runs are omitted
/// (sub-100µs self times at smoke scale are scheduler jitter).
const SPAN_FLOOR_NS: u64 = 100_000;

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn pct(a: f64, b: f64) -> Option<f64> {
    if a == 0.0 {
        None
    } else {
        Some((b / a - 1.0) * 100.0)
    }
}

fn delta_cols(a: f64, b: f64, threshold_pct: f64) -> String {
    match pct(a, b) {
        Some(p) => {
            let mark = if p.abs() >= threshold_pct { " !" } else { "" };
            format!("{p:>+8.1}%{mark}")
        }
        None => "       new".to_string(),
    }
}

/// Renders the diff of two journal records.
#[must_use]
pub fn render(a: &JournalRecord, b: &JournalRecord, threshold_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run diff: {} -> {}", a.meta.run_id, b.meta.run_id);
    let _ = writeln!(out, "  a: {} `{}`", a.meta.binary, a.meta.command);
    let _ = writeln!(out, "  b: {} `{}`", b.meta.binary, b.meta.command);
    if a.meta.command != b.meta.command || a.meta.scale != b.meta.scale {
        let _ = writeln!(
            out,
            "  note: commands/scales differ; deltas may not be meaningful"
        );
    }
    let _ = writeln!(
        out,
        "  wall: {}ms -> {}ms  {}",
        a.wall_ms,
        b.wall_ms,
        delta_cols(a.wall_ms as f64, b.wall_ms as f64, threshold_pct)
    );
    let _ = writeln!(out, "  highlight threshold: ±{threshold_pct}%");

    // Spans by self time.
    let mut names: Vec<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let _ = writeln!(out, "\nspans (self time):");
    let _ = writeln!(
        out,
        "  {:<36} {:>10} {:>10} {:>10}",
        "span", "a", "b", "delta"
    );
    let mut shown = 0usize;
    for name in &names {
        match (a.spans.get(*name), b.spans.get(*name)) {
            (Some(sa), Some(sb)) => {
                if sa.self_ns < SPAN_FLOOR_NS && sb.self_ns < SPAN_FLOOR_NS {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<36} {:>10} {:>10} {:>10}",
                    name,
                    fmt_ns(sa.self_ns),
                    fmt_ns(sb.self_ns),
                    delta_cols(sa.self_ns as f64, sb.self_ns as f64, threshold_pct)
                );
                shown += 1;
            }
            (Some(sa), None) => {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>10} {:>10}   (removed)",
                    name,
                    fmt_ns(sa.self_ns),
                    "-"
                );
                shown += 1;
            }
            (None, Some(sb)) => {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>10} {:>10}   (added)",
                    name,
                    "-",
                    fmt_ns(sb.self_ns)
                );
                shown += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    if shown == 0 {
        let _ = writeln!(
            out,
            "  (no spans above the {} noise floor)",
            fmt_ns(SPAN_FLOOR_NS)
        );
    }

    // Counters: only changed ones.
    let mut names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let mut lines = String::new();
    for name in &names {
        let va = a.counters.get(*name).copied();
        let vb = b.counters.get(*name).copied();
        if va == vb {
            continue;
        }
        let _ = writeln!(
            lines,
            "  {:<36} {:>10} {:>10} {:>10}",
            name,
            va.map_or_else(|| "-".to_string(), |v| v.to_string()),
            vb.map_or_else(|| "-".to_string(), |v| v.to_string()),
            match (va, vb) {
                (Some(x), Some(y)) => delta_cols(x as f64, y as f64, threshold_pct),
                _ => String::new(),
            }
        );
    }
    if lines.is_empty() {
        let _ = writeln!(out, "\ncounters: identical");
    } else {
        let _ = writeln!(out, "\ncounters (changed):");
        out.push_str(&lines);
    }

    // Histogram p95s.
    let mut names: Vec<&String> = a.hists.keys().chain(b.hists.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let mut lines = String::new();
    for name in &names {
        if let (Some(ha), Some(hb)) = (a.hists.get(*name), b.hists.get(*name)) {
            if ha.p95 == hb.p95 {
                continue;
            }
            let _ = writeln!(
                lines,
                "  {:<36} {:>10} {:>10} {:>10}",
                name,
                ha.p95,
                hb.p95,
                delta_cols(ha.p95 as f64, hb.p95 as f64, threshold_pct)
            );
        }
    }
    if !lines.is_empty() {
        let _ = writeln!(out, "\nhistograms (p95 changed):");
        out.push_str(&lines);
    }
    out
}

/// Serializes the diff of two journal records as one JSON document — the
/// output of `dsa obs diff --json`. Same
/// content policy as [`render`]: spans below the noise floor in both
/// runs are omitted, unchanged counters and histogram p95s are omitted;
/// `pct` is `null` where the reference side is zero or missing.
#[must_use]
pub fn to_json(a: &JournalRecord, b: &JournalRecord, threshold_pct: f64) -> String {
    let opt_pct = |p: Option<f64>| p.map_or_else(|| "null".to_string(), json::num);
    let mut out = format!(
        "{{\"a\":\"{}\",\"b\":\"{}\",\"comparable\":{},\"threshold_pct\":{},\
         \"span_floor_ns\":{SPAN_FLOOR_NS},\
         \"wall_ms\":{{\"a\":{},\"b\":{},\"pct\":{}}}",
        json::escape(&a.meta.run_id),
        json::escape(&b.meta.run_id),
        a.meta.command == b.meta.command && a.meta.scale == b.meta.scale,
        json::num(threshold_pct),
        a.wall_ms,
        b.wall_ms,
        opt_pct(pct(a.wall_ms as f64, b.wall_ms as f64))
    );

    out.push_str(",\"spans\":[");
    let mut names: Vec<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let mut first = true;
    for name in &names {
        let (sa, sb) = (a.spans.get(*name), b.spans.get(*name));
        if sa.map_or(0, |s| s.self_ns) < SPAN_FLOOR_NS
            && sb.map_or(0, |s| s.self_ns) < SPAN_FLOOR_NS
        {
            continue;
        }
        let status = match (sa, sb) {
            (Some(_), Some(_)) => "both",
            (Some(_), None) => "removed",
            _ => "added",
        };
        let p = match (sa, sb) {
            (Some(x), Some(y)) => pct(x.self_ns as f64, y.self_ns as f64),
            _ => None,
        };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"status\":\"{status}\",\"a_self_ns\":{},\"b_self_ns\":{},\
             \"pct\":{}}}",
            json::escape(name),
            sa.map_or(0, |s| s.self_ns),
            sb.map_or(0, |s| s.self_ns),
            opt_pct(p)
        );
    }

    out.push_str("],\"counters\":[");
    let mut names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let mut first = true;
    for name in &names {
        let (va, vb) = (a.counters.get(*name), b.counters.get(*name));
        if va == vb {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let p = match (va, vb) {
            (Some(&x), Some(&y)) => pct(x as f64, y as f64),
            _ => None,
        };
        let opt_u64 = |v: Option<&u64>| v.map_or_else(|| "null".to_string(), u64::to_string);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"a\":{},\"b\":{},\"pct\":{}}}",
            json::escape(name),
            opt_u64(va),
            opt_u64(vb),
            opt_pct(p)
        );
    }

    out.push_str("],\"hists_p95\":[");
    let mut names: Vec<&String> = a.hists.keys().chain(b.hists.keys()).collect();
    names.sort_unstable();
    names.dedup();
    let mut first = true;
    for name in &names {
        if let (Some(ha), Some(hb)) = (a.hists.get(*name), b.hists.get(*name)) {
            if ha.p95 == hb.p95 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"a\":{},\"b\":{},\"pct\":{}}}",
                json::escape(name),
                ha.p95,
                hb.p95,
                opt_pct(pct(ha.p95 as f64, hb.p95 as f64))
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{HistSummary, JournalRecord, RunMeta, SpanSummary};
    use crate::json::Json;

    fn record(run: &str, swarm_self: u64, stores: u64) -> JournalRecord {
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
        r.counters.insert("cache.store".to_string(), stores);
        r.counters.insert("cache.hit".to_string(), 3);
        r.hists.insert(
            "attacks.cell_ns".to_string(),
            HistSummary {
                count: 5,
                sum: 500,
                p50: 90,
                p95: 100 + stores,
                p99: 120,
            },
        );
        r.spans.insert(
            "swarm.run".to_string(),
            SpanSummary {
                count: 10,
                total_ns: swarm_self * 2,
                self_ns: swarm_self,
                p50: 1,
                p95: 2,
                p99: 3,
            },
        );
        r
    }

    #[test]
    fn highlights_spans_beyond_threshold() {
        let a = record("a", 100_000_000, 1);
        let b = record("b", 160_000_000, 1);
        let text = render(&a, &b, 25.0);
        assert!(text.contains("run diff: a -> b"));
        assert!(text.contains("swarm.run"));
        assert!(text.contains("+60.0% !"), "text:\n{text}");
        // Below-threshold change carries no mark.
        let c = record("c", 110_000_000, 1);
        let text = render(&a, &c, 25.0);
        assert!(text.contains("+10.0%"));
        assert!(!text.contains("+10.0% !"));
    }

    #[test]
    fn reports_added_removed_and_changed_instruments() {
        let mut a = record("a", 50_000_000, 1);
        let b = record("b", 50_000_000, 4);
        a.spans.insert(
            "old.phase".to_string(),
            SpanSummary {
                count: 1,
                total_ns: 9_000_000,
                self_ns: 9_000_000,
                ..SpanSummary::default()
            },
        );
        let text = render(&a, &b, 25.0);
        assert!(text.contains("(removed)"));
        assert!(text.contains("cache.store"));
        // Unchanged counters are not listed.
        assert!(!text.contains("cache.hit "), "text:\n{text}");
        assert!(text.contains("histograms (p95 changed):"));
    }

    #[test]
    fn identical_runs_render_quietly() {
        let a = record("a", 50_000_000, 1);
        let text = render(&a, &a, 25.0);
        assert!(text.contains("counters: identical"));
        assert!(!text.contains('!'), "no highlights expected:\n{text}");
    }

    #[test]
    fn json_diff_parses_and_carries_the_same_content() {
        let a = record("a", 100_000_000, 1);
        let b = record("b", 160_000_000, 4);
        let doc = crate::json::parse(&to_json(&a, &b, 25.0)).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_str), Some("a"));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("b"));
        assert_eq!(doc.get("comparable"), Some(&Json::Bool(true)));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        let swarm = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("swarm.run"))
            .unwrap();
        assert_eq!(swarm.get("status").and_then(Json::as_str), Some("both"));
        let p = swarm.get("pct").and_then(Json::as_f64).unwrap();
        assert!((p - 60.0).abs() < 1e-9, "pct {p}");
        // cache.store changed 1 -> 4; cache.hit (unchanged) is omitted.
        let counters = doc.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("cache.store")
        );
        // p95 changed with the store count; it must appear here too.
        let hists = doc.get("hists_p95").and_then(Json::as_arr).unwrap();
        assert_eq!(
            hists[0].get("name").and_then(Json::as_str),
            Some("attacks.cell_ns")
        );
        // Identical runs produce empty delta arrays.
        let doc = crate::json::parse(&to_json(&a, &a, 25.0)).unwrap();
        assert_eq!(doc.get("counters").and_then(Json::as_arr), Some(&[][..]));
        assert_eq!(doc.get("hists_p95").and_then(Json::as_arr), Some(&[][..]));
    }
}
