//! Deterministic fork-join parallelism for sweeps.
//!
//! The paper ran its 107 million simulations on a 50-node cluster; we run
//! on however many cores the machine has. The one invariant that must
//! survive parallelization is *bit-identical results regardless of thread
//! count*: every task derives its own seed from its index (not from any
//! scheduling order), and whatever a task produces is either placed at
//! its index or combined in an order-independent way. Guide-recommended
//! practice for CPU-bound work: plain scoped threads, no async runtime.
//!
//! There is one worker loop, [`parallel_fold`]: workers take indices from
//! an atomic counter and fold each task into their own accumulator, and
//! the caller merges the accumulators. [`parallel_map_indexed_scratch`]
//! is the fold into per-worker `(index, value)` lists, scattered into an
//! index-ordered vector; a tournament folds its wins into per-worker
//! ledgers and merges them by integer addition, so it holds no
//! pairing-sized buffer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Maps `f` over `0..n` in parallel, preserving index order in the output.
///
/// `threads` is a *request*, resolved by [`effective_threads`]: `0` means
/// "use available parallelism", and any request is clamped to
/// `1..=max(n, 1)` — asking for more workers than tasks spawns only `n`,
/// never idle threads. Tasks are distributed by an atomic work counter,
/// so uneven task costs balance automatically; determinism is unaffected
/// because outputs are indexed.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_indexed_scratch(n, threads, || (), |(), i| f(i))
}

/// [`parallel_map_indexed`] with a per-worker scratch value: `scratch()`
/// runs once per worker thread and the result is handed to every task
/// that worker executes, so tight sweeps (e.g. the empirical payoff
/// matrix) can reuse buffers across tasks instead of allocating per task.
///
/// `threads` follows the same clamping as [`parallel_map_indexed`]
/// (via [`effective_threads`]): `0` resolves to the machine's available
/// parallelism, `threads > n` runs only `n` workers, and a resolved count
/// of 1 runs serially on the calling thread (no workers are spawned).
///
/// The scratch must not carry results between tasks — task outputs land
/// at their own index and workers steal tasks in a nondeterministic
/// order, so anything accumulated in the scratch would break the
/// bit-identical-across-thread-counts invariant.
///
/// Each worker folds its tasks into its own `(index, value)` list
/// ([`parallel_fold`]); the lists are then scattered into the output, so
/// the metrics are [`parallel_fold`]'s.
pub fn parallel_map_indexed_scratch<T, S, C, F>(
    n: usize,
    threads: usize,
    scratch: C,
    f: F,
) -> Vec<T>
where
    T: Send + Default + Clone,
    S: Send,
    C: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let parts = parallel_fold(
        n,
        threads,
        || (scratch(), Vec::new()),
        |(s, local), i| local.push((i, f(s, i))),
    );
    let mut out = vec![T::default(); n];
    for (i, v) in parts.into_iter().flat_map(|(_, local)| local) {
        out[i] = v;
    }
    out
}

/// Folds the tasks `0..n` in parallel: each worker starts from `init()`
/// and applies `fold(&mut acc, i)` to every index it takes; returns the
/// workers' accumulators (at least one, even when `n = 0`).
///
/// Which worker takes which index depends on scheduling, so a caller
/// must combine the accumulators in a way that does not depend on the
/// split — results placed by index, or integer sums — to keep its output
/// bit-identical across thread counts. `threads` is resolved by
/// [`effective_threads`]; a resolved count of 1 folds every index, in
/// order, on the calling thread.
///
/// When metrics are enabled ([`dsa_obs::enable_metrics`]), each fork-join
/// region with at least one task reports: `parallel.jobs` and
/// `parallel.tasks` counters (event counts, thread-count-invariant), a
/// `parallel.worker_busy_ns` histogram with one observation per worker
/// (its count is the number of workers, so it — alone among the stack's
/// metrics — varies with the thread count), and `parallel.busy_max_ns` /
/// `parallel.busy_mean_ns` / `parallel.imbalance` gauges for the most
/// recent job (imbalance = max/mean worker busy time; 1.0 is a perfectly
/// balanced pool).
pub fn parallel_fold<A, I, F>(n: usize, threads: usize, init: I, fold: F) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    if n == 0 {
        return vec![init()];
    }
    let threads = effective_threads(threads, n);
    let record = dsa_obs::metrics_enabled();
    let counter = AtomicUsize::new(0);
    let work = || {
        let mut acc = init();
        let mut busy = 0u64;
        loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if record {
                let t0 = Instant::now();
                fold(&mut acc, i);
                busy += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            } else {
                fold(&mut acc, i);
            }
        }
        (acc, busy)
    };
    let done: Vec<(A, u64)> = if threads <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    };
    if record {
        let busy_ns: Vec<u64> = done.iter().map(|&(_, busy)| busy).collect();
        record_job(n, &busy_ns);
    }
    done.into_iter().map(|(acc, _)| acc).collect()
}

/// Reports one fork-join region's load metrics; see [`parallel_fold`]
/// for the metric names.
fn record_job(tasks: usize, busy_ns: &[u64]) {
    dsa_obs::incr("parallel.jobs");
    dsa_obs::add("parallel.tasks", tasks as u64);
    let mut max = 0u64;
    let mut sum = 0u64;
    for &b in busy_ns {
        // One sample per worker: the only instrument whose *count* varies
        // with the thread count, so it records under the ThreadDependent
        // class and determinism checks exclude it by tag, not by name.
        dsa_obs::observe_thread_dependent("parallel.worker_busy_ns", b);
        max = max.max(b);
        sum += b;
    }
    let mean = sum as f64 / busy_ns.len() as f64;
    dsa_obs::gauge_set("parallel.busy_max_ns", max as f64);
    dsa_obs::gauge_set("parallel.busy_mean_ns", mean);
    if mean > 0.0 {
        dsa_obs::gauge_set("parallel.imbalance", max as f64 / mean);
    }
}

/// Resolves a thread-count request against the machine and the workload:
/// `requested = 0` becomes the machine's available parallelism, then the
/// result is clamped to `1..=max(tasks, 1)` — so `threads > tasks` never
/// spawns idle workers, and a zero-task job still resolves to 1.
#[must_use]
pub fn effective_threads(requested: usize, tasks: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map_indexed(100, 4, |i| i * i);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = |i: usize| (i as f64).sqrt().sin();
        let one = parallel_map_indexed(500, 1, f);
        let many = parallel_map_indexed(500, 8, f);
        assert_eq!(one, many);
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<u8> = parallel_map_indexed(0, 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_task() {
        assert_eq!(parallel_map_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(9, 0), 1);
    }

    #[test]
    fn zero_thread_request_resolves_to_available_parallelism() {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(effective_threads(0, 1000), hw.min(1000));
        // And the mapped results are identical to an explicit request.
        let auto = parallel_map_indexed(64, 0, |i| i * 3);
        let explicit = parallel_map_indexed(64, 2, |i| i * 3);
        assert_eq!(auto, explicit);
    }

    #[test]
    fn more_threads_than_tasks_is_clamped_not_an_error() {
        // threads > n spawns only n workers; every index still lands once.
        assert_eq!(effective_threads(64, 3), 3);
        let out = parallel_map_indexed(3, 64, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12]);
        // Scratch variant under the same over-request.
        let scratched = parallel_map_indexed_scratch(3, 64, || 0u8, |_, i| i + 10);
        assert_eq!(scratched, out);
    }

    #[test]
    fn boundary_thread_requests_keep_determinism() {
        let f = |i: usize| (i as f64).cos().abs();
        let serial = parallel_map_indexed(50, 1, f);
        for threads in [0usize, 2, 50, 51, 1000] {
            assert_eq!(
                parallel_map_indexed(50, threads, f),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scratch_variant_matches_plain_map_across_thread_counts() {
        // The scratch is a reusable buffer; results must not depend on
        // which worker (and thus which scratch instance) ran a task.
        let f = |buf: &mut Vec<f64>, i: usize| {
            buf.clear();
            buf.extend((0..=i).map(|x| x as f64));
            buf.iter().sum::<f64>().sqrt()
        };
        let one = parallel_map_indexed_scratch(200, 1, Vec::new, f);
        let many = parallel_map_indexed_scratch(200, 8, Vec::new, f);
        assert_eq!(one, many);
        let plain = parallel_map_indexed(200, 4, |i| (0..=i).map(|x| x as f64).sum::<f64>().sqrt());
        assert_eq!(one, plain);
    }

    #[test]
    fn uneven_task_costs_still_ordered() {
        // Tasks with wildly different costs; results must still land at
        // their own index.
        let out = parallel_map_indexed(64, 8, |i| {
            if i % 7 == 0 {
                // Busy work.
                (0..10_000).map(|x| x as f64).sum::<f64>() * 0.0 + i as f64
            } else {
                i as f64
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }
}
