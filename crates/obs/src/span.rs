//! Nesting RAII spans with per-thread aggregation.
//!
//! A span guard timestamps its scope via [`Instant`] and, on drop, folds
//! the duration into a *thread-local* aggregate keyed by span name — no
//! lock is taken while a worker is running tasks. Locals merge into the
//! global span table when their thread exits (a thread-local destructor)
//! or when [`flush`] runs on the calling thread; merging is pure addition
//! over named aggregates, so the result is independent of worker
//! scheduling. Span *counts* are therefore bit-identical across thread
//! counts, while durations form distributions.
//!
//! The exit-time merge is only *observable* after the thread is joined:
//! `std::thread::scope` by itself unblocks when a worker's closure
//! returns, which happens *before* its thread-local destructors run — a
//! snapshot taken right after an unjoined scope can miss a worker's
//! spans. Join workers explicitly (as `dsa_core::parallel` does) or call
//! [`flush`] as the worker's last act.
//!
//! Nesting is tracked with a per-thread stack: a guard's elapsed time is
//! added to its parent frame's child tally, so every span reports both
//! its total (wall) time and its *self* time (total minus children).
//! Guards must drop in LIFO order — the natural result of binding them
//! to scopes.

use crate::metrics::{events_enabled, trace_enabled, Hist};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Aggregated timings of one span name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Distribution of total (wall) durations, in nanoseconds.
    pub dur: Hist,
    /// Total time minus time spent in child spans, in nanoseconds.
    pub self_ns: u64,
}

impl SpanStats {
    fn record(&mut self, total_ns: u64, self_ns: u64) {
        self.dur.record(total_ns);
        self.self_ns += self_ns;
    }

    /// Folds another aggregate into this one (order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.dur.merge(&other.dur);
        self.self_ns += other.self_ns;
    }
}

/// One raw begin/end event, captured only while event recording
/// ([`crate::enable_events`]) is on — the input to the Chrome-trace
/// exporter. Timestamps are nanoseconds since the process's trace epoch
/// (the first event ever recorded), so they are monotone per track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: Box<str>,
    /// Track (one per recording thread, assigned on first event).
    pub track: u32,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// `false` = begin ("B"), `true` = end ("E").
    pub end: bool,
    /// On end events: the span's self time (total − children).
    pub self_ns: u64,
    /// On end events: allocations attributed to the span itself (this
    /// thread's count delta minus child spans'). Always 0 unless the
    /// counting allocator is enabled (`--alloc`).
    pub alloc: u64,
}

/// Raw events kept in memory at ~48 bytes each; beyond this cap new
/// events are dropped (and counted in `obs.trace_events_dropped`), so a
/// runaway traced run degrades instead of exhausting memory.
const EVENT_CAP: usize = 1 << 19;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TRACK: AtomicU32 = AtomicU32::new(1);
static GLOBAL_EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

fn epoch_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Frame {
    name: Cow<'static, str>,
    start: Instant,
    child_ns: u64,
    /// This thread's allocation count when the span opened.
    start_allocs: u64,
    /// Allocations attributed to (completed) child spans.
    child_allocs: u64,
}

#[derive(Default)]
struct LocalSpans {
    stack: Vec<Frame>,
    agg: BTreeMap<Cow<'static, str>, SpanStats>,
    events: Vec<TraceEvent>,
    /// This thread's event track id (0 = not yet assigned).
    track: u32,
}

impl LocalSpans {
    fn track_id(&mut self) -> u32 {
        if self.track == 0 {
            self.track = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        }
        self.track
    }

    fn merge_into_global(&mut self) {
        if !self.agg.is_empty() {
            let mut global = GLOBAL.lock().expect("span registry poisoned");
            for (name, stats) in std::mem::take(&mut self.agg) {
                if let Some(g) = global.get_mut(name.as_ref()) {
                    g.merge(&stats);
                } else {
                    global.insert(name.into_owned().into_boxed_str(), stats);
                }
            }
        }
        if !self.events.is_empty() {
            let mut global = GLOBAL_EVENTS.lock().expect("event buffer poisoned");
            let room = EVENT_CAP.saturating_sub(global.len());
            let mut drained = std::mem::take(&mut self.events);
            if drained.len() > room {
                crate::metrics::add("obs.trace_events_dropped", (drained.len() - room) as u64);
                drained.truncate(room);
            }
            global.append(&mut drained);
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.merge_into_global();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::default());
}

static GLOBAL: Mutex<BTreeMap<Box<str>, SpanStats>> = Mutex::new(BTreeMap::new());

/// An open span; closing (dropping) it records the elapsed time.
#[must_use = "binding the guard keeps the span open for the scope"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span with a static name. Free when tracing is off: one relaxed
/// atomic load, no allocation, inert guard.
pub fn span(name: &'static str) -> SpanGuard {
    open(Cow::Borrowed(name))
}

/// Opens a span with a computed name (e.g. `trace.{domain}`). Prefer
/// [`span`] on hot paths; this one allocates only while tracing is on.
pub fn span_owned(name: String) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: false };
    }
    open(Cow::Owned(name))
}

fn open(name: Cow<'static, str>) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: false };
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if events_enabled() {
            let track = local.track_id();
            let event = TraceEvent {
                name: Box::from(name.as_ref()),
                track,
                ts_ns: epoch_ns(),
                end: false,
                self_ns: 0,
                alloc: 0,
            };
            local.events.push(event);
        }
        local.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
            start_allocs: crate::alloc::thread_count(),
            child_allocs: 0,
        });
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let frame = local
                .stack
                .pop()
                .expect("span guards must drop in LIFO order");
            let total = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total.saturating_sub(frame.child_ns);
            let total_allocs = crate::alloc::thread_count().saturating_sub(frame.start_allocs);
            let self_allocs = total_allocs.saturating_sub(frame.child_allocs);
            if events_enabled() {
                let track = local.track_id();
                let event = TraceEvent {
                    name: Box::from(frame.name.as_ref()),
                    track,
                    ts_ns: epoch_ns(),
                    end: true,
                    self_ns,
                    alloc: self_allocs,
                };
                local.events.push(event);
            }
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += total;
                parent.child_allocs += total_allocs;
            }
            if let Some(stats) = local.agg.get_mut(&frame.name) {
                stats.record(total, self_ns);
            } else {
                let mut stats = SpanStats::default();
                stats.record(total, self_ns);
                local.agg.insert(frame.name, stats);
            }
        });
    }
}

/// Merges the calling thread's span aggregates into the global table.
/// Worker threads do this automatically on exit; the main thread does it
/// implicitly through [`crate::snapshot`]. Open spans stay open — they
/// are counted when their guard drops.
pub fn flush() {
    LOCAL.with(|local| local.borrow_mut().merge_into_global());
}

pub(crate) fn spans_snapshot() -> BTreeMap<String, SpanStats> {
    flush();
    let global = GLOBAL.lock().expect("span registry poisoned");
    global
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Drains every captured trace event (after merging the calling
/// thread's pending buffer): the input to the Chrome-trace exporter.
/// Worker-thread events are merged when their threads are joined, which
/// `dsa_core::parallel` guarantees before any fork-join region returns.
#[must_use]
pub fn take_events() -> Vec<TraceEvent> {
    flush();
    std::mem::take(&mut *GLOBAL_EVENTS.lock().expect("event buffer poisoned"))
}

pub(crate) fn reset_spans() {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        local.agg.clear();
        local.events.clear();
    });
    GLOBAL.lock().expect("span registry poisoned").clear();
    GLOBAL_EVENTS.lock().expect("event buffer poisoned").clear();
}
