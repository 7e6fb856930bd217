//! Global metric registries: counters, gauges, log2 histograms.
//!
//! Counters count *events* (never time), so their totals are a pure
//! function of what the program did — bit-identical across thread counts.
//! Gauges hold the last value written (throughput readings, imbalance
//! ratios). Histograms bucket observed values by their binary magnitude:
//! bucket `k` covers `[2^(k-1), 2^k)`, bucket 0 holds zeros — 64 buckets
//! span the full `u64` range, plenty for nanosecond latencies.
//!
//! All registries sit behind one mutex each; recording from parallel
//! workers serializes on it, which is fine at the stack's event rates
//! (per cache query, per sweep cell, per worker) and keeps merges
//! trivially deterministic. The hot path when disabled is a single
//! relaxed atomic load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static EVENTS_ON: AtomicBool = AtomicBool::new(false);

/// Enables the metric registries (counters, gauges, histograms) — the
/// `--metrics` flag.
pub fn enable_metrics() {
    METRICS_ON.store(true, Ordering::Relaxed);
}

/// Enables metrics *and* span timing — the `--trace` flag.
pub fn enable_trace() {
    METRICS_ON.store(true, Ordering::Relaxed);
    TRACE_ON.store(true, Ordering::Relaxed);
}

/// Enables metrics, span timing *and* raw begin/end event capture — the
/// expensive mode behind `dsa obs trace`. Every span open/close appends
/// one in-memory event (per-thread buffers, size-capped globally), which
/// the Chrome-trace exporter drains via [`crate::take_events`].
pub fn enable_events() {
    enable_trace();
    EVENTS_ON.store(true, Ordering::Relaxed);
}

/// Turns all recording back off (registries keep their contents until
/// [`crate::reset`]).
pub fn disable() {
    METRICS_ON.store(false, Ordering::Relaxed);
    TRACE_ON.store(false, Ordering::Relaxed);
    EVENTS_ON.store(false, Ordering::Relaxed);
}

/// Whether metric recording is on.
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Whether span timing is on (implies [`metrics_enabled`]).
#[must_use]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Whether raw begin/end event capture is on (implies [`trace_enabled`]).
#[must_use]
pub fn events_enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

/// A log2-bucketed distribution of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// `buckets[k]` counts observations in `[2^(k-1), 2^k)`; `buckets[0]`
    /// counts zeros; the top bucket absorbs everything ≥ `2^62`.
    pub buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Hist {
    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(63)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Folds another distribution into this one (order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Mean observed value (0 while empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0,1]`, clamped) from the
    /// log2 buckets: the target rank is located by cumulative count,
    /// interpolated linearly inside its bucket, and clamped to the
    /// observed `[min, max]` — so single-valued histograms answer
    /// exactly, and no estimate can leave the observed range. Precision
    /// is otherwise bucket-limited (a factor-of-two band). Empty
    /// histograms answer 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cum as f64;
            cum += c;
            if cum as f64 >= target {
                let lo = if k == 0 { 0u64 } else { 1u64 << (k - 1) };
                let hi = if k == 0 {
                    0u64
                } else if k >= 63 {
                    u64::MAX
                } else {
                    1u64 << k
                };
                let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: the (p50, p95, p99) triple the journal stores.
    #[must_use]
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// Whether an instrument's *sample counts* are a pure function of the
/// work (the default) or legitimately vary with the thread count. The
/// bit-identity test excludes `ThreadDependent` instruments by tag
/// instead of by name, so a future thread-dependent instrument that is
/// not tagged fails the test loudly rather than silently passing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetClass {
    /// Counts are bit-identical across thread counts.
    #[default]
    Deterministic,
    /// Sample count depends on the worker count (e.g. one observation
    /// per worker).
    ThreadDependent,
}

static COUNTERS: Mutex<BTreeMap<Box<str>, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<Box<str>, f64>> = Mutex::new(BTreeMap::new());
static HISTS: Mutex<BTreeMap<Box<str>, Hist>> = Mutex::new(BTreeMap::new());
static CLASSES: Mutex<BTreeMap<Box<str>, DetClass>> = Mutex::new(BTreeMap::new());

/// Increments a counter by 1. A no-op unless metrics are enabled.
pub fn incr(name: &str) {
    add(name, 1);
}

/// Adds `n` to a counter. A no-op unless metrics are enabled.
pub fn add(name: &str, n: u64) {
    if !metrics_enabled() {
        return;
    }
    let mut map = COUNTERS.lock().expect("counter registry poisoned");
    if let Some(c) = map.get_mut(name) {
        *c += n;
    } else {
        map.insert(name.into(), n);
    }
}

/// Sets a gauge to its latest reading. A no-op unless metrics are enabled.
pub fn gauge_set(name: &str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    let mut map = GAUGES.lock().expect("gauge registry poisoned");
    if let Some(g) = map.get_mut(name) {
        *g = value;
    } else {
        map.insert(name.into(), value);
    }
}

/// Raises a gauge to `value` when that is higher than its current
/// reading (insert-or-max): the high-water-mark primitive behind the
/// `mem.rss_peak_bytes` gauge. Unlike [`gauge_set`],
/// concurrent writers can never lower the mark, so the result is
/// independent of worker scheduling. A no-op unless metrics are enabled.
pub fn gauge_max(name: &str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    let mut map = GAUGES.lock().expect("gauge registry poisoned");
    if let Some(g) = map.get_mut(name) {
        if value > *g {
            *g = value;
        }
    } else {
        map.insert(name.into(), value);
    }
}

/// Records one observation into a histogram. A no-op unless metrics are
/// enabled.
pub fn observe(name: &str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    let mut map = HISTS.lock().expect("histogram registry poisoned");
    if let Some(h) = map.get_mut(name) {
        h.record(value);
    } else {
        let mut h = Hist::default();
        h.record(value);
        map.insert(name.into(), h);
    }
}

/// Records one observation into a histogram whose *sample count* varies
/// with the thread count (e.g. one sample per worker), tagging the
/// instrument [`DetClass::ThreadDependent`] so the bit-identity tests
/// exclude it structurally instead of by hard-coded name. A no-op unless
/// metrics are enabled.
pub fn observe_thread_dependent(name: &str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    {
        let mut classes = CLASSES.lock().expect("class registry poisoned");
        if !classes.contains_key(name) {
            classes.insert(name.into(), DetClass::ThreadDependent);
        }
    }
    observe(name, value);
}

/// The determinism class an instrument was recorded under. Instruments
/// never recorded through [`observe_thread_dependent`] (including ones
/// that have recorded nothing yet) are [`DetClass::Deterministic`].
#[must_use]
pub fn instrument_class(name: &str) -> DetClass {
    CLASSES
        .lock()
        .expect("class registry poisoned")
        .get(name)
        .copied()
        .unwrap_or_default()
}

pub(crate) fn counters_snapshot() -> BTreeMap<String, u64> {
    let map = COUNTERS.lock().expect("counter registry poisoned");
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

pub(crate) fn gauges_snapshot() -> BTreeMap<String, f64> {
    let map = GAUGES.lock().expect("gauge registry poisoned");
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

pub(crate) fn hists_snapshot() -> BTreeMap<String, Hist> {
    let map = HISTS.lock().expect("histogram registry poisoned");
    map.iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

pub(crate) fn reset_metrics() {
    COUNTERS.lock().expect("counter registry poisoned").clear();
    GAUGES.lock().expect("gauge registry poisoned").clear();
    HISTS.lock().expect("histogram registry poisoned").clear();
    CLASSES.lock().expect("class registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1023), 10);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = Hist::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.percentiles(), (0, 0, 0));
    }

    #[test]
    fn quantiles_of_single_bucket_are_exact() {
        // All observations share one value: clamping to [min, max]
        // collapses the bucket's factor-of-two band to the exact answer.
        let mut h = Hist::default();
        for _ in 0..7 {
            h.record(5);
        }
        assert_eq!(h.percentiles(), (5, 5, 5));
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(1.0), 5);
    }

    #[test]
    fn quantiles_pin_known_uniform_sample() {
        // 1..=100: p50 interpolates inside the [32,64) bucket; the tail
        // quantiles overshoot their bucket's upper band and clamp to the
        // observed max.
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 51);
        assert_eq!(h.quantile(0.95), 100);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantiles_pin_known_bimodal_sample() {
        // 19 fast observations and one slow outlier: p50/p95 stay in the
        // fast bucket, p99 lands (interpolated) in the outlier's bucket.
        let mut h = Hist::default();
        for _ in 0..19 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.50), 12);
        assert_eq!(h.quantile(0.95), 16);
        assert_eq!(h.quantile(0.99), 922);
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn thread_dependent_recording_tags_the_instrument() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        enable_metrics();
        crate::reset();
        observe("det.hist", 1);
        observe_thread_dependent("td.hist", 2);
        assert_eq!(instrument_class("det.hist"), DetClass::Deterministic);
        assert_eq!(instrument_class("td.hist"), DetClass::ThreadDependent);
        // Unknown instruments default to deterministic.
        assert_eq!(instrument_class("never.seen"), DetClass::Deterministic);
        // Both recorded into the ordinary histogram registry.
        let snap = crate::snapshot();
        assert_eq!(snap.hists["td.hist"].count, 1);
        crate::reset();
        assert_eq!(instrument_class("td.hist"), DetClass::Deterministic);
        disable();
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        enable_metrics();
        crate::reset();
        gauge_max("test.peak", 10.0);
        gauge_max("test.peak", 4.0); // lower: ignored
        gauge_max("test.peak", 12.0); // higher: raises the mark
        let snap = crate::snapshot();
        assert_eq!(snap.gauges["test.peak"], 12.0);
        crate::reset();
        disable();
        gauge_max("test.peak", 99.0); // disabled: no-op
        assert!(crate::snapshot().gauges.is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in [1u64, 5, 9000] {
            a.record(v);
        }
        for v in [0u64, 7, 1 << 40] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 6);
        assert_eq!(ab.min, 0);
        assert_eq!(ab.max, 1 << 40);
    }
}
