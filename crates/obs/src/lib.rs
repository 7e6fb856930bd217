//! Hand-rolled observability for the DSA stack: metrics, spans, journal.
//!
//! The paper's pipeline runs hundreds of millions of simulations; knowing
//! *where* a sweep spends its time (and whether a cache hit or a
//! recompute served a query) is the difference between guessing and
//! measuring. This crate is the measurement substrate — no crates.io
//! dependencies, matching the workspace's offline `vendor/` constraint —
//! and it is wired through every engine, sweep and cache in the stack.
//!
//! Three primitives:
//!
//! - **Metrics** ([`incr`], [`add`], [`gauge_set`], [`observe`]): a global
//!   registry of counters (event counts — never time, so totals are
//!   bit-identical across thread counts), gauges (last-value readings such
//!   as rows/s), and log2-bucketed histograms (latency distributions).
//! - **Spans** ([`span()`], [`span_owned`], the [`span!`] macro): RAII
//!   guards that nest, timestamp via [`std::time::Instant`], and
//!   aggregate *per thread* — `dsa_core::parallel` workers
//!   record without contention and merge deterministically when they
//!   exit. Span **counts** are bit-identical across 1 vs 8 threads;
//!   durations are reported as distributions (total/self/min/max plus a
//!   log2 histogram).
//! - **Snapshots** ([`snapshot`], [`Snapshot::render`]): a point-in-time
//!   copy of every registry, rendered as the human-readable epilogue
//!   table a `--metrics`/`--trace` run prints.
//!
//! Layered on top: the persistent **run journal** ([`journal`] —
//! append-only JSONL provenance, one record per observed run and the
//! only record a run persists), the Chrome-trace exporter ([`trace`],
//! fed by [`enable_events`] / [`take_events`]) and run diffing
//! ([`diff`]) — the machinery behind `dsa obs {runs,trace,diff,gc}`.
//!
//! The **memory dimension** completes the picture: an opt-in counting
//! allocator ([`alloc`], the `--alloc` flag, which also gives every span
//! end in a trace its self allocation count) and the end-of-run
//! `/proc/self/status` RSS reading ([`mem`]). The journal's `mem` block
//! records peak RSS and allocation totals next to time.
//!
//! Everything is **off by default**. Until [`enable_metrics`] or
//! [`enable_trace`] flips the global flag, every recording call is a
//! single relaxed atomic load and an early return; measured against
//! uninstrumented engines, that cost was inside run-to-run noise.
//! `--metrics` enables the registry; `--trace` enables both the registry
//! and span timing.
//!
//! # Naming scheme
//!
//! Dotted lowercase paths, component first: `cache.hit`,
//! `cache.miss.seed`, `parallel.tasks`, `swarm.rounds`, `attacks.cell_ns`,
//! `evo.rows_per_sec`. Histogram and gauge names carry their unit as a
//! suffix (`_ns`, `_per_sec`). Names must not contain whitespace: the
//! epilogue and `dsa obs diff` print each name as the first of
//! whitespace-separated columns.

pub mod alloc;
pub mod diff;
pub mod journal;
pub mod json;
pub mod mem;
mod metrics;
mod report;
mod span;
pub mod trace;

pub use journal::{note_cache_event, JournalRecord, RunMeta};
pub use metrics::{
    add, disable, enable_events, enable_metrics, enable_trace, events_enabled, gauge_max,
    gauge_set, incr, instrument_class, metrics_enabled, observe, observe_thread_dependent,
    trace_enabled, DetClass, Hist,
};
pub use report::{fmt_ns, snapshot, Snapshot};
pub use span::{flush, span, span_owned, take_events, SpanGuard, SpanStats, TraceEvent};

/// Clears every registry: counters, gauges, histograms, merged spans,
/// captured trace events, cache-touch provenance, and the calling
/// thread's pending span aggregates. Enable flags are left as they are.
/// Call between jobs (tests, repeated sweeps) — worker threads merge
/// their spans when they exit and `dsa_core::parallel` joins every
/// worker before returning, so by the time a fork-join region returns
/// there is nothing left un-merged to lose.
pub fn reset() {
    metrics::reset_metrics();
    span::reset_spans();
    journal::reset_cache_events();
}

/// Opens a span guard over the enclosing scope.
///
/// `span!("rep.run")` expands to [`span()`] with a `&'static str` name;
/// `span!("trace.{domain}")` (any extra formatting arguments) expands
/// to [`span_owned`]. Bind the guard (`let _g = span!(...)`) — an unbound
/// `let _ =` drops it immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
    ($($fmt:tt)+) => {
        $crate::span_owned(format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    // The global registries are shared across the test binary's threads;
    // serialize every test that enables/asserts on them. The lock guards
    // no data, so a guard poisoned by a failing test is recovered.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        disable();
        reset();
        incr("test.counter");
        gauge_set("test.gauge", 1.0);
        observe("test.hist", 42);
        {
            let _s = span!("test.span");
        }
        flush();
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_gauges_hists_record_when_enabled() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_metrics();
        reset();
        incr("test.counter");
        add("test.counter", 2);
        gauge_set("test.gauge", 0.5);
        gauge_set("test.gauge", 2.5);
        observe("test.hist", 1);
        observe("test.hist", 1024);
        let snap = snapshot();
        disable();
        assert_eq!(snap.counters["test.counter"], 3);
        assert_eq!(snap.gauges["test.gauge"], 2.5);
        let h = &snap.hists["test.hist"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1025);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1024);
        // 1 lands in bucket 1 ([1,2)), 1024 in bucket 11 ([1024,2048)).
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[11], 1);
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_trace();
        reset();
        {
            let _outer = span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        disable();
        let outer = &snap.spans["test.outer"];
        let inner = &snap.spans["test.inner"];
        assert_eq!(outer.dur.count, 1);
        assert_eq!(inner.dur.count, 1);
        // The inner span's time is excluded from the outer's self time.
        assert!(outer.dur.sum >= inner.dur.sum);
        assert!(outer.self_ns <= outer.dur.sum - inner.dur.sum);
        assert_eq!(inner.self_ns, inner.dur.sum);
    }

    #[test]
    fn worker_threads_merge_spans_on_exit() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_trace();
        reset();
        std::thread::scope(|scope| {
            // Join each worker explicitly: the exit-time merge runs in the
            // thread-local destructor, which an unjoined scope does not
            // wait for (it unblocks when the closure returns). This is the
            // pattern dsa_core::parallel uses.
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..10 {
                            let _s = span!("test.worker");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let snap = snapshot();
        disable();
        assert_eq!(snap.spans["test.worker"].dur.count, 40);
    }

    #[test]
    fn span_counts_are_identical_across_thread_counts() {
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        enable_trace();
        let mut counts = Vec::new();
        for threads in [1usize, 8] {
            reset();
            let jobs = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| loop {
                            let i = jobs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= 64 {
                                break;
                            }
                            let _s = span!("test.task");
                            incr("test.tasks");
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
            let snap = snapshot();
            counts.push((
                snap.spans["test.task"].dur.count,
                snap.counters["test.tasks"],
            ));
        }
        disable();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0].0, 64);
    }
}
