//! Chrome Trace Event Format export.
//!
//! [`chrome_trace`] renders captured [`TraceEvent`]s as a JSON document
//! loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: one track ("thread") per recording thread,
//! nested `"B"`/`"E"` duration events mirroring the span tree, and the
//! span's self time attached to the `"E"` event as
//! `args.self_ns` — so a flame view shows both wall and self time.
//! Perfetto and speedscope draw the per-thread timelines as flame
//! graphs. Under `--alloc` the `"E"` event also carries the span's self
//! allocation count as `args.self_allocs` when it is nonzero; without
//! counting every count is 0 and the field never appears.
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! precision kept in the fractional part, measured from the process's
//! trace epoch. Within a track events are monotone and well-nested by
//! construction (RAII guards drop LIFO); if the in-memory event cap
//! truncated a run mid-span, the exporter closes the dangling spans at
//! the track's last timestamp instead of emitting an unbalanced file.
//!
//! [`validate`] re-parses an exported document and checks the
//! structural invariants (used by `dsa obs trace` as a self-check and
//! by the test suite).

use crate::json::{self, Json};
use crate::span::TraceEvent;
use std::fmt::Write as _;

/// Statistics of a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Completed (begin+end) span events.
    pub spans: usize,
    /// Distinct tracks (threads).
    pub tracks: usize,
}

fn ts_us(ts_ns: u64) -> String {
    format!("{:.3}", ts_ns as f64 / 1e3)
}

/// Renders events as a Chrome Trace Event Format JSON document.
///
/// The output is an object (`{"traceEvents": [...]}`), the variant every
/// viewer accepts. `process_name` labels the single process (pid 1).
#[must_use]
pub fn chrome_trace(events: &[TraceEvent], process_name: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json::escape(process_name)
    );

    // Track metadata: one thread_name entry per distinct track, in
    // first-appearance order (track 1 is the first recording thread —
    // usually the main thread).
    let mut tracks: Vec<u32> = Vec::new();
    for e in events {
        if !tracks.contains(&e.track) {
            tracks.push(e.track);
        }
    }
    for &t in &tracks {
        let label = if Some(&t) == tracks.first() {
            format!("track-{t} (first)")
        } else {
            format!("track-{t}")
        };
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }

    // Span events. Per-track stacks guard against a cap-truncated tail:
    // an end without a begin is dropped, and begins left open at the end
    // of the stream are closed at their track's last timestamp.
    let mut stacks: Vec<(u32, Vec<Box<str>>)> = Vec::new();
    let mut last_ts: Vec<(u32, u64)> = Vec::new();
    for e in events {
        let at = match stacks.iter().position(|(t, _)| *t == e.track) {
            Some(i) => i,
            None => {
                stacks.push((e.track, Vec::new()));
                stacks.len() - 1
            }
        };
        let stack = &mut stacks[at].1;
        match last_ts.iter_mut().find(|(t, _)| *t == e.track) {
            Some((_, ts)) => *ts = (*ts).max(e.ts_ns),
            None => last_ts.push((e.track, e.ts_ns)),
        }
        if e.end {
            if stack.pop().is_none() {
                continue; // begin was truncated away; skip the orphan end
            }
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"pid\":1,\
                 \"tid\":{},\"ts\":{},\"args\":{{\"self_ns\":{}",
                json::escape(&e.name),
                e.track,
                ts_us(e.ts_ns),
                e.self_ns
            );
            if e.alloc > 0 {
                let _ = write!(out, ",\"self_allocs\":{}", e.alloc);
            }
            out.push_str("}}");
        } else {
            stack.push(e.name.clone());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"pid\":1,\
                 \"tid\":{},\"ts\":{}}}",
                json::escape(&e.name),
                e.track,
                ts_us(e.ts_ns)
            );
        }
    }
    for (track, stack) in &mut stacks {
        let ts = last_ts
            .iter()
            .find(|(t, _)| t == track)
            .map_or(0, |(_, ts)| *ts);
        while let Some(name) = stack.pop() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"pid\":1,\
                 \"tid\":{},\"ts\":{},\"args\":{{\"self_ns\":0,\"truncated\":true}}}}",
                json::escape(&name),
                track,
                ts_us(ts)
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a Chrome Trace Event Format document and checks the
/// structural invariants this crate promises: every `"B"` has a
/// matching same-name `"E"` on its track, and timestamps are monotone
/// (non-decreasing) per track.
///
/// # Errors
///
/// Returns a description of the first violated invariant (or JSON
/// syntax error).
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut stacks: Vec<(u64, Vec<String>, f64)> = Vec::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no ph"))?;
        if ph == "M" {
            continue;
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unexpected phase {ph:?}"));
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no name"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: no tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: no ts"))?;
        let at = match stacks.iter().position(|(t, _, _)| *t == tid) {
            Some(i) => i,
            None => {
                stacks.push((tid, Vec::new(), f64::NEG_INFINITY));
                stacks.len() - 1
            }
        };
        let entry = &mut stacks[at];
        if ts < entry.2 {
            return Err(format!(
                "event {i}: track {tid} timestamp {ts} < previous {}",
                entry.2
            ));
        }
        entry.2 = ts;
        if ph == "B" {
            entry.1.push(name.to_string());
        } else {
            match entry.1.pop() {
                Some(open) if open == name => spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: track {tid} closes {name:?} but {open:?} is open"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: track {tid} closes {name:?} with none open"
                    ))
                }
            }
        }
    }
    for (tid, stack, _) in &stacks {
        if !stack.is_empty() {
            return Err(format!("track {tid} left {} span(s) open", stack.len()));
        }
    }
    Ok(TraceStats {
        spans,
        tracks: stacks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    fn ev(name: &str, track: u32, ts_ns: u64, end: bool) -> TraceEvent {
        TraceEvent {
            name: Box::from(name),
            track,
            ts_ns,
            end,
            self_ns: if end { 7 } else { 0 },
            alloc: if end { 2 } else { 0 },
        }
    }

    #[test]
    fn self_allocs_appear_only_when_counted() {
        let mut events = vec![
            ev("outer", 1, 0, false),
            ev("inner", 1, 100, false),
            ev("inner", 1, 200, true),
            ev("outer", 1, 300, true),
        ];
        events[3].alloc = 0;
        let doc = json::parse(&chrome_trace(&events, "allocs")).unwrap();
        let ends: Vec<&Json> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .collect();
        let allocs = |e: &Json| e.get("args").and_then(|a| a.get("self_allocs")).cloned();
        assert_eq!(
            allocs(ends[0]).and_then(|v| v.as_u64()),
            Some(2),
            "inner counted 2"
        );
        assert_eq!(allocs(ends[1]), None, "a zero count adds no field");
        for e in &mut events {
            e.alloc = 0;
        }
        assert!(!chrome_trace(&events, "plain").contains("self_allocs"));
    }

    #[test]
    fn export_is_valid_and_counts_spans() {
        let events = vec![
            ev("outer", 1, 0, false),
            ev("inner", 1, 100, false),
            ev("task", 2, 150, false),
            ev("inner", 1, 200, true),
            ev("task", 2, 250, true),
            ev("outer", 1, 300, true),
        ];
        let text = chrome_trace(&events, "unit-test");
        let stats = validate(&text).expect("valid trace");
        assert_eq!(
            stats,
            TraceStats {
                spans: 3,
                tracks: 2
            }
        );
        assert!(text.contains("\"self_ns\":7"));
        assert!(text.contains("unit-test"));
    }

    #[test]
    fn truncated_tail_is_repaired() {
        // An end event lost to the cap: the dangling begin is closed at
        // the track's last timestamp and the document stays balanced.
        let events = vec![
            ev("outer", 1, 0, false),
            ev("inner", 1, 100, false),
            ev("inner", 1, 200, true),
        ];
        let text = chrome_trace(&events, "truncated");
        let stats = validate(&text).expect("repaired trace still valid");
        assert_eq!(stats.spans, 2);
        assert!(text.contains("\"truncated\":true"));
        // An orphan end (begin truncated) is dropped, not emitted.
        let orphan = vec![ev("ghost", 3, 50, true)];
        let stats = validate(&chrome_trace(&orphan, "orphan")).unwrap();
        assert_eq!(stats.spans, 0);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // Unbalanced: B without E.
        let unbalanced = r#"{"traceEvents":[
            {"name":"x","cat":"span","ph":"B","pid":1,"tid":1,"ts":1.0}
        ]}"#;
        assert!(validate(unbalanced).is_err());
        // Non-monotone timestamps on one track.
        let backwards = r#"{"traceEvents":[
            {"name":"x","cat":"span","ph":"B","pid":1,"tid":1,"ts":5.0},
            {"name":"x","cat":"span","ph":"E","pid":1,"tid":1,"ts":4.0}
        ]}"#;
        assert!(validate(backwards).is_err());
        // Mismatched nesting.
        let crossed = r#"{"traceEvents":[
            {"name":"a","cat":"span","ph":"B","pid":1,"tid":1,"ts":1.0},
            {"name":"b","cat":"span","ph":"E","pid":1,"tid":1,"ts":2.0}
        ]}"#;
        assert!(validate(crossed).is_err());
    }

    #[test]
    fn capture_roundtrip_through_registry() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        crate::enable_events();
        crate::reset();
        {
            let _outer = crate::span("trace.outer");
            let _inner = crate::span("trace.inner");
        }
        let events = crate::take_events();
        crate::disable();
        crate::reset();
        assert_eq!(events.len(), 4);
        assert!(!events[0].end && events[0].name.as_ref() == "trace.outer");
        let text = chrome_trace(&events, "roundtrip");
        let stats = validate(&text).expect("valid");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.tracks, 1);
    }
}
