//! Process memory sampling: `mem.rss_bytes` / `mem.rss_peak_bytes`.
//!
//! Reads `VmRSS` and `VmHWM` from `/proc/self/status` (a no-op on
//! platforms without procfs) and publishes them through the gauge
//! registry: the instantaneous reading via `gauge_set`, the peak via
//! [`gauge_max`] so a late low sample can never erase an earlier
//! high-water mark.
//!
//! Sampling has three cadences, all gated on `metrics_enabled`:
//!
//! - [`sample`] — one explicit reading; the binaries call it right
//!   before the end-of-run snapshot so every journal record carries
//!   final RSS figures.
//! - [`spawn_sampler`] — a detached background thread on a fixed
//!   cadence, started alongside `--metrics`, so a live `/metrics`
//!   scrape or `obs top` session sees RSS move during the run.
//! - [`sample_throttled`] — a cheap hook for hot-ish paths (span
//!   merges, worker-pool job completion): one relaxed atomic load when
//!   not armed, and at most one procfs read per [`THROTTLE`] otherwise.
//!
//! The throttled hook is additionally gated on [`arm`], which only the
//! binaries call. Library tests exercise spans and the worker pool with
//! metrics enabled while asserting *exact* registry contents across
//! thread counts; a time-dependent sample sneaking in from a merge hook
//! would make those assertions flaky. Arming keeps the hooks inert in
//! any process that has not opted into wall-clock-dependent telemetry.

use crate::metrics::{gauge_max, gauge_set, metrics_enabled};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Minimum spacing between procfs reads from [`sample_throttled`].
pub const THROTTLE: Duration = Duration::from_millis(100);

/// Default cadence for the background sampler thread.
pub const SAMPLER_INTERVAL: Duration = Duration::from_millis(250);

static ARMED: AtomicBool = AtomicBool::new(false);
static LAST_SAMPLE_NS: AtomicU64 = AtomicU64::new(0);
static SAMPLER_RUNNING: AtomicBool = AtomicBool::new(false);

/// One reading of the process's resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSample {
    /// Current resident set size in bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Kernel-tracked resident high-water mark in bytes (`VmHWM`).
    pub rss_peak_bytes: u64,
}

/// Arms the passive sampling hooks ([`sample_throttled`]). Called by
/// the binaries when metrics are on; library code and tests never arm,
/// so span/worker instrumentation stays deterministic for them.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Whether the passive hooks are armed.
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Heap bytes held by a `Vec`'s allocation: capacity × element size.
/// The building block every engine scratch's `footprint()` sums over —
/// capacity, not length, because the arena's point is to keep grown
/// allocations alive across runs.
#[must_use]
#[allow(clippy::ptr_arg)] // capacity() needs the Vec, not a slice
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Reads the current RSS figures from `/proc/self/status`. Returns
/// `None` where procfs is unavailable (non-Linux) or unparsable.
#[must_use]
pub fn read_rss() -> Option<MemSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status(&status)
}

/// Parses `VmRSS`/`VmHWM` out of a `/proc/self/status` body. Values
/// are reported by the kernel in kB.
fn parse_status(status: &str) -> Option<MemSample> {
    let mut rss = None;
    let mut hwm = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            hwm = parse_kb(rest);
        }
        if rss.is_some() && hwm.is_some() {
            break;
        }
    }
    let rss_bytes = rss?;
    Some(MemSample {
        rss_bytes,
        // VmHWM is by definition >= VmRSS; fall back to the current
        // reading if the kernel omits it.
        rss_peak_bytes: hwm.unwrap_or(rss_bytes).max(rss_bytes),
    })
}

fn parse_kb(rest: &str) -> Option<u64> {
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Takes one RSS sample and publishes it to the gauge registry:
/// `mem.rss_bytes` (set) and `mem.rss_peak_bytes` (high-water via
/// [`gauge_max`]). A no-op unless metrics are enabled or when procfs
/// is unavailable. Returns the sample for callers that want the raw
/// numbers.
pub fn sample() -> Option<MemSample> {
    if !metrics_enabled() {
        return None;
    }
    let s = read_rss()?;
    gauge_set("mem.rss_bytes", s.rss_bytes as f64);
    gauge_max("mem.rss_peak_bytes", s.rss_peak_bytes as f64);
    Some(s)
}

/// Passive sampling hook for span merges and worker-pool completions:
/// costs one relaxed load unless [`arm`]ed, and samples at most once
/// per [`THROTTLE`] otherwise.
pub fn sample_throttled() {
    if !armed() || !metrics_enabled() {
        return;
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let now_ns = EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64;
    let last = LAST_SAMPLE_NS.load(Ordering::Relaxed);
    // 0 means "never sampled" — the first armed call always reads.
    if last != 0 && now_ns.saturating_sub(last) < THROTTLE.as_nanos() as u64 {
        return;
    }
    if LAST_SAMPLE_NS
        .compare_exchange(last, now_ns.max(1), Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        sample();
    }
}

/// Starts the detached background sampler (and arms the passive
/// hooks). Idempotent: a second call is a no-op. The thread samples
/// every `interval` for the life of the process; each iteration is
/// gated on `metrics_enabled`, so it costs one atomic load per tick
/// if metrics are later turned off.
pub fn spawn_sampler(interval: Duration) {
    arm();
    if SAMPLER_RUNNING.swap(true, Ordering::Relaxed) {
        return;
    }
    std::thread::Builder::new()
        .name("dsa-obs-mem".to_string())
        .spawn(move || loop {
            std::thread::sleep(interval);
            sample();
        })
        // Failing to spawn degrades to boundary-only sampling.
        .ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_fields() {
        let body = "Name:\tdsa\nVmPeak:\t  999 kB\nVmRSS:\t  2048 kB\nVmHWM:\t  4096 kB\n";
        let s = parse_status(body).unwrap();
        assert_eq!(s.rss_bytes, 2048 * 1024);
        assert_eq!(s.rss_peak_bytes, 4096 * 1024);
        // Missing HWM falls back to RSS.
        let s = parse_status("VmRSS:\t 10 kB\n").unwrap();
        assert_eq!(s.rss_peak_bytes, s.rss_bytes);
        // Missing RSS is a miss, not a zero.
        assert!(parse_status("VmHWM:\t 10 kB\n").is_none());
        assert!(parse_status("garbage").is_none());
    }

    #[test]
    fn vec_bytes_counts_capacity_not_length() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_bytes(&v), 16 * 8);
        assert_eq!(vec_bytes(&Vec::<u8>::new()), 0);
    }

    #[test]
    fn read_rss_reports_a_live_process_on_linux() {
        if let Some(s) = read_rss() {
            assert!(s.rss_bytes > 0);
            assert!(s.rss_peak_bytes >= s.rss_bytes);
        }
        // Off Linux read_rss is None and that is the contract.
    }

    #[test]
    fn sampling_is_gated_and_publishes_gauges() {
        let _g = crate::tests::LOCK.lock().unwrap();
        crate::disable();
        crate::reset();
        assert!(sample().is_none(), "disabled sampling must be a no-op");
        crate::enable_metrics();
        crate::reset();
        if sample().is_some() {
            let snap = crate::report::snapshot();
            let rss = snap.gauges["mem.rss_bytes"];
            let peak = snap.gauges["mem.rss_peak_bytes"];
            assert!(rss > 0.0);
            assert!(peak >= rss);
        }
        crate::disable();
        crate::reset();
    }

    #[test]
    fn throttled_hook_is_inert_until_armed() {
        let _g = crate::tests::LOCK.lock().unwrap();
        crate::enable_metrics();
        crate::reset();
        if !armed() {
            sample_throttled();
            assert!(
                !crate::report::snapshot()
                    .gauges
                    .contains_key("mem.rss_bytes"),
                "unarmed throttled sampling must not publish gauges"
            );
        }
        crate::disable();
        crate::reset();
    }
}
