//! `dsa obs top`: a polling terminal dashboard over a live
//! `/snapshot` endpoint.
//!
//! Connects to an address exposed by `--obs-listen`, polls
//! `GET /snapshot` on an interval, and redraws
//! a plain-ANSI dashboard: top counters with per-interval rates, span
//! self-time ranked with text bars, gauges verbatim, and — when the
//! run records memory telemetry — a memory pane with RSS, arena
//! footprints and allocation totals in human-readable units. No raw
//! terminal mode, no external TUI dependency — just a home-cursor +
//! clear-to-end redraw, so it works in any ANSI terminal and degrades
//! to plain append-only output under `--once` (single poll, no escape
//! codes; also the form CI exercises).
//!
//! Rendering is a pure function ([`render_dashboard`]) from two
//! snapshots (current + previous, for rates) to a string, so the
//! layout is unit-testable without a server.

use crate::report::{fmt_bytes, fmt_ns, Snapshot};
use crate::serve::http_get;
use std::time::Duration;

/// Rows shown per section.
const TOP_N: usize = 8;
/// Width of the span self-time bar.
const BAR_WIDTH: usize = 30;

/// Options for the dashboard loop.
pub struct TopOptions {
    /// Address of a live `/snapshot` endpoint, e.g. `127.0.0.1:9464`.
    pub addr: String,
    /// Poll interval.
    pub interval: Duration,
    /// Render a single frame (no escape codes) and exit.
    pub once: bool,
}

fn bar(frac: f64) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * BAR_WIDTH as f64).round() as usize;
    let mut s = String::with_capacity(BAR_WIDTH);
    for i in 0..BAR_WIDTH {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

fn fmt_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Renders one dashboard frame. `prev` (the previous poll, if any)
/// supplies per-interval counter deltas; `elapsed` is the time between
/// the two polls.
#[must_use]
pub fn render_dashboard(cur: &Snapshot, prev: Option<&Snapshot>, elapsed: Duration) -> String {
    let mut out = String::new();
    let total_self: u64 = cur.spans.values().map(|s| s.self_ns).sum();
    out.push_str(&format!(
        "dsa obs top — {} counters, {} gauges, {} hists, {} spans\n",
        cur.counters.len(),
        cur.gauges.len(),
        cur.hists.len(),
        cur.spans.len()
    ));

    // Spans, ranked by self time, with share-of-total bars.
    if !cur.spans.is_empty() {
        out.push_str(&format!(
            "\n  span                        self        total       calls  share of {}\n",
            fmt_ns(total_self)
        ));
        let mut spans: Vec<_> = cur.spans.iter().collect();
        spans.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        for (name, s) in spans.iter().take(TOP_N) {
            let frac = if total_self == 0 {
                0.0
            } else {
                s.self_ns as f64 / total_self as f64
            };
            out.push_str(&format!(
                "  {:<26} {:>9} {:>12} {:>11}  {}\n",
                name,
                fmt_ns(s.self_ns),
                fmt_ns(s.dur.sum),
                fmt_count(s.dur.count),
                bar(frac)
            ));
        }
        if cur.spans.len() > TOP_N {
            out.push_str(&format!("  … {} more spans\n", cur.spans.len() - TOP_N));
        }
    }

    // Counters, ranked by per-interval delta when we have a previous
    // frame (what's hot *now*), by absolute value otherwise. The mem.*
    // namespace is carved out into its own pane below.
    let plain_counters: Vec<(&String, &u64)> = cur
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("mem."))
        .collect();
    if !plain_counters.is_empty() {
        out.push_str("\n  counter                         value       delta/s\n");
        let secs = elapsed.as_secs_f64().max(1e-9);
        let mut counters: Vec<(&String, u64, Option<f64>)> = plain_counters
            .iter()
            .map(|&(name, &v)| {
                let rate = prev.map(|p| {
                    let before = p.counters.get(name).copied().unwrap_or(0);
                    v.saturating_sub(before) as f64 / secs
                });
                (name, v, rate)
            })
            .collect();
        counters.sort_by(|a, b| {
            let ka = a.2.unwrap_or(a.1 as f64);
            let kb = b.2.unwrap_or(b.1 as f64);
            kb.partial_cmp(&ka)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        for (name, v, rate) in counters.iter().take(TOP_N) {
            out.push_str(&format!(
                "  {:<28} {:>9}  {}\n",
                name,
                fmt_count(*v),
                rate.map_or_else(|| "      —".to_string(), |r| format!("{r:>10.1}"))
            ));
        }
        if plain_counters.len() > TOP_N {
            out.push_str(&format!(
                "  … {} more counters\n",
                plain_counters.len() - TOP_N
            ));
        }
    }

    // Gauges verbatim (rows/s style rates are already gauges); byte
    // quantities live in the memory pane instead.
    let plain_gauges: Vec<(&String, &f64)> = cur
        .gauges
        .iter()
        .filter(|(name, _)| !name.starts_with("mem."))
        .collect();
    if !plain_gauges.is_empty() {
        out.push_str("\n  gauge                           value\n");
        for &(name, v) in plain_gauges.iter().take(TOP_N) {
            out.push_str(&format!("  {name:<28} {v:>12.1}\n"));
        }
        if plain_gauges.len() > TOP_N {
            out.push_str(&format!("  … {} more gauges\n", plain_gauges.len() - TOP_N));
        }
    }

    // Memory pane: RSS and arena-footprint gauges plus allocation
    // counters, in human-readable byte units. Present only when the run
    // recorded memory telemetry (--metrics samples RSS and arena
    // footprints; --alloc adds allocation totals).
    let mem_gauges: Vec<(&String, &f64)> = cur
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("mem."))
        .collect();
    let mem_counters: Vec<(&String, &u64)> = cur
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mem."))
        .collect();
    if !mem_gauges.is_empty() || !mem_counters.is_empty() {
        out.push_str("\n  memory                          value\n");
        for &(name, v) in &mem_gauges {
            out.push_str(&format!("  {:<28} {:>12}\n", name, fmt_bytes(*v as u64)));
        }
        for &(name, v) in &mem_counters {
            let shown = if name.ends_with("bytes") {
                fmt_bytes(*v)
            } else {
                fmt_count(*v)
            };
            out.push_str(&format!("  {name:<28} {shown:>12}\n"));
        }
    }

    // Histogram p50/p95, ranked by count.
    if !cur.hists.is_empty() {
        out.push_str("\n  hist                           count         p50         p95\n");
        let mut hists: Vec<_> = cur.hists.iter().collect();
        hists.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
        for (name, h) in hists.iter().take(TOP_N) {
            out.push_str(&format!(
                "  {:<28} {:>9} {:>11} {:>11}\n",
                name,
                fmt_count(h.count),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.95))
            ));
        }
        if cur.hists.len() > TOP_N {
            out.push_str(&format!("  … {} more hists\n", cur.hists.len() - TOP_N));
        }
    }

    if cur.counters.is_empty() && cur.spans.is_empty() && cur.hists.is_empty() {
        out.push_str("\n  (registry is empty — is the run started with --metrics?)\n");
    }
    out
}

fn fetch(addr: &str) -> Result<Snapshot, String> {
    let (status, body) = http_get(addr, "/snapshot")?;
    if status != 200 {
        return Err(format!("GET /snapshot returned HTTP {status}"));
    }
    Snapshot::from_json(&body)
}

/// Runs the dashboard loop until the server goes away (the normal exit:
/// the observed run finished) or, with `once`, after a single frame.
///
/// # Errors
///
/// Returns an error when the first poll fails — a bad address should
/// fail loudly rather than spin.
pub fn run(opts: &TopOptions) -> Result<(), String> {
    let mut prev = fetch(&opts.addr)?;
    if opts.once {
        print!("{}", render_dashboard(&prev, None, Duration::from_secs(0)));
        return Ok(());
    }
    // Home the cursor and clear to end-of-screen each frame: flicker-free
    // on any ANSI terminal, no alternate screen to restore on ^C.
    loop {
        std::thread::sleep(opts.interval);
        let cur = match fetch(&opts.addr) {
            Ok(s) => s,
            Err(msg) => {
                println!("\nserver went away ({msg}) — exiting");
                return Ok(());
            }
        };
        let frame = render_dashboard(&cur, Some(&prev), opts.interval);
        print!(
            "\x1b[H\x1b[2J{frame}\n  polling {} every {:?} — ^C to quit\n",
            opts.addr, opts.interval
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Hist;
    use crate::SpanStats;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("cache.hit".to_string(), 1_234);
        snap.counters.insert("cache.miss.seed".to_string(), 7);
        snap.gauges.insert("evo.cells_per_sec".to_string(), 5200.5);
        let mut h = Hist::default();
        for v in [100, 900, 4_000] {
            h.record(v);
        }
        snap.hists.insert("attacks.cell_ns".to_string(), h);
        let mut dur = Hist::default();
        dur.record(2_000_000);
        snap.spans.insert(
            "swarm.run".to_string(),
            SpanStats {
                dur,
                self_ns: 1_500_000,
            },
        );
        snap
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let snap = sample();
        let frame = render_dashboard(&snap, None, Duration::from_secs(0));
        for needle in [
            "2 counters",
            "swarm.run",
            "cache.hit",
            "evo.cells_per_sec",
            "attacks.cell_ns",
            "#",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
        // No previous frame: rates show as em-dash placeholders.
        assert!(frame.contains("—"));
    }

    #[test]
    fn dashboard_shows_rates_against_a_previous_frame() {
        let prev = sample();
        let mut cur = sample();
        cur.counters.insert("cache.hit".to_string(), 1_434); // +200
        let frame = render_dashboard(&cur, Some(&prev), Duration::from_secs(2));
        // 200 over 2s = 100.0/s.
        assert!(frame.contains("100.0"), "no rate in:\n{frame}");
    }

    #[test]
    fn memory_pane_collects_mem_instruments_in_byte_units() {
        let mut snap = sample();
        snap.gauges
            .insert("mem.rss_peak_bytes".to_string(), (48u64 << 20) as f64);
        snap.gauges
            .insert("mem.arena.swarm_bytes".to_string(), (3u64 << 20) as f64);
        snap.counters.insert("mem.alloc.count".to_string(), 1_234);
        snap.counters.insert("mem.alloc.bytes".to_string(), 5 << 20);
        let frame = render_dashboard(&snap, None, Duration::from_secs(0));
        for needle in [
            "memory",
            "mem.rss_peak_bytes",
            "48.0MiB",
            "mem.arena.swarm_bytes",
            "3.0MiB",
            "mem.alloc.count",
            "1234",
            "5.0MiB",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
        // mem.* stays out of the generic panes: the gauge pane would
        // otherwise print bytes as floats.
        let gauge_pane = frame.split("gauge  ").nth(1).unwrap();
        let gauge_pane = gauge_pane.split("\n\n").next().unwrap();
        assert!(!gauge_pane.contains("mem."), "{gauge_pane}");
    }

    #[test]
    fn empty_registry_renders_a_hint() {
        let frame = render_dashboard(&Snapshot::default(), None, Duration::from_secs(0));
        assert!(frame.contains("--metrics"));
    }
}
