//! Process memory sampling: `mem.rss_bytes` / `mem.rss_peak_bytes`.
//!
//! Reads `VmRSS` and `VmHWM` from `/proc/self/status` (a no-op on
//! platforms without procfs) and publishes them through the gauge
//! registry: the instantaneous reading via `gauge_set`, the peak via
//! [`gauge_max`] so a late low sample can never erase an earlier
//! high-water mark.
//!
//! The binaries take one reading, [`sample`], right before the
//! end-of-run snapshot, so every journal record carries final RSS
//! figures. One is enough: `VmHWM` is the kernel's own high-water mark
//! over the whole process lifetime, and `mem.rss_bytes` is a last-value
//! gauge.

use crate::metrics::{gauge_max, gauge_set, metrics_enabled};

/// One reading of the process's resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSample {
    /// Current resident set size in bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Kernel-tracked resident high-water mark in bytes (`VmHWM`).
    pub rss_peak_bytes: u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

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
    fn read_rss_reports_a_live_process_on_linux() {
        if let Some(s) = read_rss() {
            assert!(s.rss_bytes > 0);
            assert!(s.rss_peak_bytes >= s.rss_bytes);
        }
        // Off Linux read_rss is None and that is the contract.
    }

    #[test]
    fn sampling_is_gated_and_publishes_gauges() {
        let _g = crate::tests::LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
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
}
