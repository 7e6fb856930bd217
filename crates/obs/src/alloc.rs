//! Runtime allocation counting: the `--alloc` flag's machinery.
//!
//! The workspace's one counting allocator. Both binaries and the
//! zero-allocation tests (`dsa-bench`'s `tests/alloc_count.rs`) install
//! [`CountingAlloc`] as the global allocator unconditionally, but it
//! only tallies once [`enable`] has been called (the binaries' `--alloc`
//! flag; the tests call it themselves) — disabled, every allocation pays
//! one relaxed atomic load on top of the system allocator, nothing else.
//!
//! Tallies land in two places:
//!
//! - **Process-wide atomics**: total allocation count and bytes
//!   (monotone), live bytes (allocations minus deallocations) and the
//!   live-bytes peak. [`publish_into`] folds them into a [`Snapshot`]
//!   as `mem.alloc.count` / `mem.alloc.bytes` counters and a
//!   `mem.alloc.peak_live_bytes` gauge, so every epilogue and journal
//!   record carries them when counting is on.
//! - **A thread-local**: the per-thread allocation count, so tests (and
//!   the engines' per-run steady-state histogram, and the spans' self
//!   allocation counts in `dsa obs trace`) can measure a code region
//!   without bleed from other threads.
//!
//! The tally path must not allocate (it runs inside the allocator) —
//! it touches only atomics and const-initialized thread-local cells.

use crate::report::Snapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Turns allocation tallying on — the `--alloc` flag. There is no off
/// switch: the counters are monotone by contract (span self counts are
/// differences of them), and a process that wants them off simply never
/// enables them.
pub fn enable() {
    ALLOC_ON.store(true, Ordering::Relaxed);
}

/// Whether allocation tallying is on.
#[must_use]
pub fn enabled() -> bool {
    ALLOC_ON.load(Ordering::Relaxed)
}

/// Tallies one allocation of `bytes`. Called by [`CountingAlloc`] while
/// [`enabled`]. Never allocates.
fn tally(bytes: usize) {
    let bytes = bytes as u64;
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    THREAD_COUNT.with(|c| c.set(c.get() + 1));
}

/// Tallies one deallocation of `bytes` (live-bytes bookkeeping only —
/// the count/bytes counters track *acquisition*, the steady-state
/// contract). Never allocates.
fn tally_free(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

/// Total allocations tallied process-wide since enabling.
#[must_use]
pub fn total_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Total bytes requested process-wide since enabling.
#[must_use]
pub fn total_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Peak live bytes (allocations minus frees) observed since enabling.
#[must_use]
pub fn peak_live_bytes() -> u64 {
    u64::try_from(PEAK_LIVE.load(Ordering::Relaxed)).unwrap_or(0)
}

/// Allocations tallied by the *current thread*. Monotone per thread;
/// measure a region by differencing. Counts only while [`enabled`].
#[must_use]
pub fn thread_count() -> u64 {
    THREAD_COUNT.with(Cell::get)
}

/// Folds the allocation tallies into a snapshot (no-op unless counting
/// is [`enabled`]): `mem.alloc.count` and `mem.alloc.bytes` as monotone
/// counters, `mem.alloc.peak_live_bytes` as a gauge. Injected directly
/// into the snapshot rather than through the metric registries so the
/// allocator hot path never touches a registry mutex.
pub fn publish_into(snap: &mut Snapshot) {
    if !enabled() {
        return;
    }
    snap.counters
        .insert("mem.alloc.count".to_string(), total_count());
    snap.counters
        .insert("mem.alloc.bytes".to_string(), total_bytes());
    snap.gauges.insert(
        "mem.alloc.peak_live_bytes".to_string(),
        peak_live_bytes() as f64,
    );
}

/// The counting allocator the binaries and tests install. Defers entirely
/// to [`System`]; while [`enabled`], tallies every `alloc` /
/// `alloc_zeroed` / `realloc` (and the matching frees for live-bytes
/// bookkeeping).
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the tally path touches only
// atomics and const-initialized thread-local `Cell`s, so it performs no
// allocation and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if enabled() {
            tally(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if enabled() {
            tally_free(layout.size());
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if enabled() {
            tally(layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if enabled() {
            // A realloc acquires the new size and releases the old one.
            tally(new_size);
            tally_free(layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Serializes the tests that tally into the process-wide counters:
    /// one asserts exact deltas of them. It guards no data, so a guard
    /// poisoned by a failing test is recovered.
    static TALLIES: Mutex<()> = Mutex::new(());

    #[test]
    fn tallies_accumulate_and_track_live_bytes() {
        let _guard = TALLIES.lock().unwrap_or_else(PoisonError::into_inner);
        // The tally functions are testable without installing the
        // allocator: drive them directly.
        let count0 = total_count();
        let bytes0 = total_bytes();
        let tcount0 = thread_count();
        tally(1024);
        tally(512);
        tally_free(512);
        assert_eq!(total_count() - count0, 2);
        assert_eq!(total_bytes() - bytes0, 1536);
        assert_eq!(thread_count() - tcount0, 2);
        // Peak never decreases.
        let peak = peak_live_bytes();
        tally_free(1024);
        assert!(peak_live_bytes() >= peak);
    }

    #[test]
    fn publish_is_gated_on_enable() {
        let _guard = TALLIES.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = Snapshot::default();
        if !enabled() {
            publish_into(&mut snap);
            assert!(snap.counters.is_empty());
        }
        enable();
        tally(64);
        publish_into(&mut snap);
        assert!(snap.counters["mem.alloc.count"] >= 1);
        assert!(snap.counters["mem.alloc.bytes"] >= 64);
        assert!(snap.gauges["mem.alloc.peak_live_bytes"] >= 64.0);
    }
}
