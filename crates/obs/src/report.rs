//! Snapshots and their renderings.
//!
//! A [`Snapshot`] is a point-in-time copy of every registry. It renders
//! as a human-readable table (the `--metrics`/`--trace` epilogue) and as
//! a duration-free shape (what the determinism tests compare). What a
//! run leaves on disk is its journal record ([`crate::journal`]), not a
//! snapshot.

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
        assert_ne!(a, b);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(48_000_000), "48.0ms");
        assert_eq!(fmt_ns(2_400_000_000), "2.40s");
    }
}
