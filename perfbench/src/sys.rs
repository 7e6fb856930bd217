//! Process measurements and the run context recorded with every result.

use dsa_core::domain::{fnv1a, fnv1a_continue};
use std::path::Path;
use std::time::Duration;

/// CPU time (user + system) of every thread of this process so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[must_use]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is the kernel's constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("non-negative CPU seconds"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures process CPU time through 64-bit Linux clock_gettime");

/// Moves the calling thread onto the `turn`-th CPU it may use (modulo
/// their number), then lets it run anywhere again: it stays on that CPU
/// until the scheduler moves it, and threads it spawns may use every CPU.
///
/// On a shared machine each core slows down on its own, for tens of
/// seconds at a time. A single-threaded iteration stays on whichever core
/// it started on, so turning to the next core before each iteration
/// samples all of them instead of one.
pub fn turn_to_cpu(turn: usize) {
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = WORDS * std::mem::size_of::<u64>();
    let mut all = [0u64; WORDS];
    // SAFETY: `all` is a writable 1024-bit `cpu_set_t` of `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, all.as_mut_ptr()) } != 0 {
        return;
    }
    let allowed: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if allowed.len() < 2 {
        return;
    }
    let cpu = allowed[turn % allowed.len()];
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: both masks are readable `cpu_set_t`s of `size` bytes; a
    // failed call leaves the affinity as it was, which is harmless.
    unsafe {
        sched_setaffinity(0, size, one.as_ptr());
        sched_setaffinity(0, size, all.as_ptr());
    }
}

/// Resets the kernel's resident-set high-water mark, so the next
/// [`peak_rss_mb`] covers only what runs after it. Best effort: without
/// the reset the mark also covers set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    dsa_obs::mem::read_rss().map_or(0.0, |m| m.rss_peak_bytes as f64 / (1024.0 * 1024.0))
}

/// Where and how a result was measured.
pub struct Context {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// Worker threads the workload ran on.
    pub threads: usize,
    /// Compiler that built the benchmark and the workspace.
    pub rustc: &'static str,
    /// Commit of the checkout, or `none` outside a git checkout.
    pub git_commit: String,
    /// FNV-1a over every file under `crates/` plus the workspace
    /// manifests: identifies the measured code without git.
    pub source_digest: u64,
    /// CPU model name.
    pub cpu: String,
}

impl Context {
    /// Collects the context of a run from the checkout root `root`.
    #[must_use]
    pub fn collect(root: &Path, threads: usize) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            threads,
            rustc: env!("PERFBENCH_RUSTC"),
            git_commit: git_commit(root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(root),
            cpu: cpu_model().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The fields that must agree before two results are compared.
    #[must_use]
    pub fn cohort(&self) -> u64 {
        let key = format!(
            "{}|{}|{}|{}",
            self.nproc, self.threads, self.rustc, self.cpu
        );
        fnv1a(key.as_bytes())
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = fnv1a(b"perfbench-source-v1");
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        let name = f.strip_prefix(root).unwrap_or(&f);
        h = fnv1a_continue(h, name.to_string_lossy().as_bytes());
        h = fnv1a_continue(h, &bytes);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}
