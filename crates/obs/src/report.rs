//! Snapshots and their renderings.
//!
//! A [`Snapshot`] is a point-in-time copy of every registry. It renders
//! as a human-readable table (the `--metrics`/`--trace` epilogue), as a
//! duration-free shape (what the determinism tests compare), and as one
//! full-fidelity JSON document ([`Snapshot::to_json`], the body of the
//! live server's `/snapshot`). What a run leaves on disk is its journal
//! record ([`crate::journal`]), not a snapshot.

use crate::json::{self, Json};
use crate::metrics::{counters_snapshot, gauges_snapshot, hists_snapshot, Hist};
use crate::span::{spans_snapshot, SpanStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every metric and span registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Event counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// Value histograms, by name.
    pub hists: BTreeMap<String, Hist>,
    /// Span aggregates, by name.
    pub spans: BTreeMap<String, SpanStats>,
}

/// Captures the current state of every registry (after merging the
/// calling thread's pending span aggregates).
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: counters_snapshot(),
        gauges: gauges_snapshot(),
        hists: hists_snapshot(),
        spans: spans_snapshot(),
    }
}

/// Formats nanoseconds human-readably (`412ns`, `3.1µs`, `48ms`, `2.4s`).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Formats a byte count human-readably (`412B`, `3.1KiB`, `48.0MiB`,
/// `2.40GiB`).
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b < 1024.0 {
        format!("{b:.0}B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

fn buckets_to_string(buckets: &[u64; 64]) -> String {
    let mut out = String::new();
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 {
            if !out.is_empty() {
                out.push('|');
            }
            let _ = write!(out, "{i}:{c}");
        }
    }
    out
}

fn buckets_from_string(text: &str) -> Result<[u64; 64], String> {
    let mut buckets = [0u64; 64];
    if text.is_empty() {
        return Ok(buckets);
    }
    for pair in text.split('|') {
        let (i, c) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed bucket pair {pair:?}"))?;
        let i: usize = i.parse().map_err(|_| format!("bad bucket index {i:?}"))?;
        if i >= 64 {
            return Err(format!("bucket index {i} out of range"));
        }
        buckets[i] = c.parse().map_err(|_| format!("bad bucket count {c:?}"))?;
    }
    Ok(buckets)
}

impl Snapshot {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the snapshot as aligned human-readable tables. Durations
    /// are humanized; pass the result straight to the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<44} {v:>12.3}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("== histograms ==\n");
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>10} {:>10} {:>10}",
                "name", "count", "mean", "min", "max"
            );
            for (name, h) in &self.hists {
                // Only `_ns` histograms hold durations; others (e.g.
                // `cache.read_bytes`) render as raw numbers.
                let fmt: fn(u64) -> String = if name.ends_with("_ns") {
                    fmt_ns
                } else {
                    |v| v.to_string()
                };
                let _ = writeln!(
                    out,
                    "  {:<34} {:>8} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    fmt(h.mean() as u64),
                    fmt(if h.count == 0 { 0 } else { h.min }),
                    fmt(h.max)
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("== spans ==\n");
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "total", "self", "mean", "max"
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    s.dur.count,
                    fmt_ns(s.dur.sum),
                    fmt_ns(s.self_ns),
                    fmt_ns(s.dur.mean() as u64),
                    fmt_ns(s.dur.max)
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded — run with --metrics or --trace)\n");
        }
        out
    }

    /// Renders the snapshot with every duration stripped: names, counts
    /// and structure only. Two runs of the same deterministic job render
    /// identically here even though their timings differ — the
    /// "stable modulo durations" view the trace tests compare.
    #[must_use]
    pub fn render_shape(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for name in self.gauges.keys() {
            let _ = writeln!(out, "gauge {name}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(out, "hist {name} {}", h.count);
        }
        for (name, s) in &self.spans {
            let _ = writeln!(out, "span {name} {}", s.dur.count);
        }
        out
    }

    /// Serializes the snapshot as one JSON document — the body of the
    /// live server's `GET /snapshot` and the wire format `dsa obs top`
    /// polls. Full fidelity: histograms and span durations carry their
    /// log2 buckets sparsely, as `index:count` pairs joined by `|`, so
    /// [`Snapshot::from_json`] reconstructs the snapshot exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json::escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json::escape(name), json::num(*v));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":\"{}\"}}",
                json::escape(name),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                buckets_to_string(&h.buckets)
            );
        }
        out.push_str("},\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{},\
                 \"max_ns\":{},\"buckets\":\"{}\"}}",
                json::escape(name),
                s.dur.count,
                s.dur.sum,
                s.self_ns,
                if s.dur.count == 0 { 0 } else { s.dur.min },
                s.dur.max,
                buckets_to_string(&s.dur.buckets)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or missing/ill-typed fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        if doc.as_obj().is_none() {
            return Err("snapshot document is not an object".to_string());
        }
        let mut snap = Self::default();
        let field = |v: &Json, name: &str, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing {key}"))
        };
        let hist = |v: &Json,
                    name: &str,
                    sum_key: &str,
                    min_key: &str,
                    max_key: &str|
         -> Result<Hist, String> {
            let count = field(v, name, "count")?;
            Ok(Hist {
                count,
                sum: field(v, name, sum_key)?,
                min: if count == 0 {
                    u64::MAX
                } else {
                    field(v, name, min_key)?
                },
                max: field(v, name, max_key)?,
                buckets: buckets_from_string(
                    v.get("buckets")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{name}: missing buckets"))?,
                )?,
            })
        };
        for (name, v) in doc.get("counters").and_then(Json::as_obj).unwrap_or(&[]) {
            snap.counters.insert(
                name.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("counter {name}: not a u64"))?,
            );
        }
        for (name, v) in doc.get("gauges").and_then(Json::as_obj).unwrap_or(&[]) {
            snap.gauges.insert(
                name.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("gauge {name}: not a number"))?,
            );
        }
        for (name, v) in doc.get("hists").and_then(Json::as_obj).unwrap_or(&[]) {
            snap.hists
                .insert(name.clone(), hist(v, name, "sum", "min", "max")?);
        }
        for (name, v) in doc.get("spans").and_then(Json::as_obj).unwrap_or(&[]) {
            snap.spans.insert(
                name.clone(),
                SpanStats {
                    dur: hist(v, name, "total_ns", "min_ns", "max_ns")?,
                    self_ns: field(v, name, "self_ns")?,
                },
            );
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("cache.hit".into(), 3);
        snap.counters.insert("cache.miss.seed".into(), 1);
        snap.gauges.insert("attacks.rows_per_sec".into(), 1234.5);
        let mut h = Hist::default();
        h.record(900);
        h.record(40_000);
        snap.hists.insert("evo.cell_ns".into(), h);
        let mut s = SpanStats::default();
        s.record_for_test(1_000_000, 800_000);
        s.record_for_test(2_000_000, 1_500_000);
        snap.spans.insert("swarm.rounds".into(), s);
        snap
    }

    impl SpanStats {
        fn record_for_test(&mut self, total: u64, self_ns: u64) {
            self.dur.record(total);
            self.self_ns += self_ns;
        }
    }

    #[test]
    fn json_roundtrips() {
        let snap = sample();
        let doc = snap.to_json();
        let parsed = Snapshot::from_json(&doc).unwrap();
        assert_eq!(snap, parsed);
        // An empty snapshot is a valid (empty-sections) document.
        let empty = Snapshot::default();
        assert_eq!(Snapshot::from_json(&empty.to_json()).unwrap(), empty);
        // Malformed documents are errors, not panics.
        for bad in [
            "",
            "[]",
            r#"{"counters":{"x":"y"}}"#,
            r#"{"hists":{"h":{}}}"#,
            r#"{"hists":{"h":{"count":1,"sum":5,"min":5,"max":5,"buckets":"99:1"}}}"#,
        ] {
            assert!(Snapshot::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_mentions_every_metric() {
        let snap = sample();
        let table = snap.render();
        for name in [
            "cache.hit",
            "cache.miss.seed",
            "attacks.rows_per_sec",
            "evo.cell_ns",
            "swarm.rounds",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }

    #[test]
    fn shape_view_strips_durations() {
        let mut a = sample();
        let mut b = sample();
        // Same structure, different timings.
        a.spans.get_mut("swarm.rounds").unwrap().self_ns = 1;
        b.spans.get_mut("swarm.rounds").unwrap().self_ns = 2;
        assert_eq!(a.render_shape(), b.render_shape());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(48_000_000), "48.0ms");
        assert_eq!(fmt_ns(2_400_000_000), "2.40s");
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(412), "412B");
        assert_eq!(fmt_bytes(3174), "3.1KiB");
        assert_eq!(fmt_bytes(48 << 20), "48.0MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }
}
