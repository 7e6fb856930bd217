//! The repository benchmark: four PRA workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Iterations repeat for about `--seconds`
//! (at least one; no iteration starts that would end past the budget).
//! Every iteration's output is checked (see [`check`]). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. The line before it records the run context;
//! both are also appended to `.bench_build/perfbench-out/runs.jsonl`.

mod check;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{metric, Metric, Trace};
use workload::{Spec, Workload, DEFAULT_SEED, PAPER_SIMS};

/// Where runs write their caches, figures and the results journal.
const OUT_ROOT: &str = ".bench_build/perfbench-out";

/// Set-ups per run whose median is `setup_s`; the first few pay for
/// cold code and page faults.
const SETUP_REPEATS: usize = 21;

/// Set-ups per `warm-figures` run: its set-up is a cold smoke sweep of
/// every domain plus their attribution tables, ~20 s on two cores.
const WARM_SETUP_REPEATS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload '{name}' (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One measured iteration.
struct Sample {
    wall: Duration,
    cpu: Duration,
    /// Per-layer metrics, for traced iterations.
    layers: Option<Vec<Metric>>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Identity of every cache file under `out` (name, size, inode, mtime):
/// unchanged across a warm pass iff the pass wrote no cache.
fn cache_state(out: &Path) -> Vec<(String, u64, u64, i64, i64)> {
    use std::os::unix::fs::MetadataExt as _;
    let mut files: Vec<_> = std::fs::read_dir(out)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let cache = name.starts_with("pra-") || name.starts_with("attrib-");
            let m = e.metadata().ok()?;
            cache.then(|| (name, m.len(), m.ino(), m.mtime(), m.mtime_nsec()))
        })
        .collect();
    files.sort();
    files
}

/// Runs iterations for about `seconds` and checks each one.
struct Run {
    spec: Spec,
    workload: Workload,
    seed: u64,
    threads: usize,
    out: PathBuf,
    samples: Vec<Sample>,
    setups: Vec<f64>,
    errors: Vec<String>,
    failed: usize,
    digest: Option<u64>,
}

impl Run {
    /// Registers the domains, builds the workload's inputs and prepares
    /// its output directory; records the time taken.
    fn setup(&mut self) -> Result<(), String> {
        sys::turn_to_cpu(self.setups.len());
        let started = Instant::now();
        dsa_bench::register_domains();
        self.spec = self.workload.spec(self.seed, self.threads);
        self.spec.setup(&self.out)?;
        self.setups.push(started.elapsed().as_secs_f64());
        Ok(())
    }

    fn iteration(&mut self, traced: bool) {
        if self.spec.cold() {
            if let Err(e) = self.setup() {
                self.fail(format!("set-up: {e}"));
                return;
            }
        }
        let warm_caches = (!self.spec.cold()).then(|| cache_state(&self.out));
        let mut trace = Trace::new(self.threads);
        sys::turn_to_cpu(self.samples.len());
        let cpu0 = sys::process_cpu();
        let started = Instant::now();
        let produced = workload::run(&self.spec, &self.out, traced.then_some(&mut trace));
        let wall = started.elapsed();
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        let layers = traced.then(|| trace.metrics(wall));
        self.samples.push(Sample { wall, cpu, layers });

        let mut broken = Vec::new();
        let stated = self.workload.stated_sims();
        if stated.is_some_and(|n| n != self.spec.sims()) {
            broken.push(format!(
                "definition runs {} simulations, not {stated:?}",
                self.spec.sims()
            ));
        }
        match produced {
            Err(e) => broken.push(e),
            Ok(produced) => {
                broken.extend(check::invariants(&produced));
                let digest = check::digest(&produced, &self.out);
                let expected = check::reference(self.workload, self.seed).or(self.digest);
                if let Some(expected) = expected.filter(|&e| e != digest) {
                    broken.push(format!("digest {digest:016x}, expected {expected:016x}"));
                }
                self.digest.get_or_insert(digest);
            }
        }
        if warm_caches.is_some_and(|before| before != cache_state(&self.out)) {
            broken.push("a warm pass rewrote a cache file".into());
        }
        if traced {
            if let Err(e) = trace.check(wall) {
                broken.push(e);
            }
            if let Spec::Sweep(s) = &self.spec {
                if trace.engine_calls() != s.sims() {
                    broken.push(format!(
                        "{} simulator calls, definition says {}",
                        trace.engine_calls(),
                        s.sims()
                    ));
                }
            }
            let stated = self.workload.stated_pairings();
            if stated.is_some_and(|p| p != trace.pairings()) {
                broken.push(format!(
                    "{} tournament pairings, definition says {stated:?}",
                    trace.pairings()
                ));
            }
        }
        if !broken.is_empty() {
            self.fail(broken.join("; "));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.layers.is_some() == traced)
            .map(|s| s.wall.as_secs_f64())
            .collect()
    }

    /// End-to-end metrics: medians over the run's plain iterations.
    fn end_to_end(&self) -> Vec<Metric> {
        let threads = self.threads as f64;
        let sims = self.spec.sims() as f64;
        let wall_s = median(self.walls(false));
        let cpu_s = median(self.samples.iter().map(|s| s.cpu.as_secs_f64()).collect());
        let utilisation = median(
            self.samples
                .iter()
                .map(|s| s.cpu.as_secs_f64() / (threads * s.wall.as_secs_f64()))
                .collect(),
        );
        vec![
            metric("wall_s", wall_s, "s"),
            metric("cpu_s", cpu_s, "s"),
            metric("utilisation", utilisation, "ratio"),
            metric("sims_per_s", sims / wall_s, "1/s"),
            metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
            metric("setup_s", median(self.setups.clone()), "s"),
            metric(
                "paper_cpu_h",
                cpu_s / sims * PAPER_SIMS as f64 / 3600.0,
                "h",
            ),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let traced: Vec<&Vec<Metric>> = self
            .samples
            .iter()
            .filter_map(|s| s.layers.as_ref())
            .collect();
        let mut metrics: Vec<Metric> = traced[0]
            .iter()
            .enumerate()
            .map(|(k, m)| Metric {
                value: median(traced.iter().map(|t| t[k].value).collect()),
                ..m.clone()
            })
            .collect();
        let overhead = median(self.walls(true)) / median(self.walls(false)) - 1.0;
        metrics.push(metric("trace.overhead_frac", overhead, "ratio"));
        let error_rate = self.failed as f64 / self.samples.len() as f64;
        metrics.push(metric("error_rate", error_rate, "ratio"));
        metrics
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    dsa_bench::register_domains();
    let out = Path::new(OUT_ROOT).join(args.workload.name());
    let mut run = Run {
        spec: args.workload.spec(args.seed, threads),
        workload: args.workload,
        seed: args.seed,
        threads,
        out,
        samples: Vec::new(),
        setups: Vec::new(),
        errors: Vec::new(),
        failed: 0,
        digest: None,
    };
    let repeats = if matches!(run.spec, Spec::Warm(_)) {
        WARM_SETUP_REPEATS
    } else {
        SETUP_REPEATS
    };
    for _ in 0..repeats {
        if let Err(e) = run.setup() {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    sys::reset_peak_rss();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    loop {
        run.iteration(false);
        if args.trace {
            run.iteration(true);
        }
        let per_step: f64 = median(run.walls(false)) + median(run.walls(true));
        if started.elapsed().as_secs_f64() + per_step > budget.as_secs_f64() {
            break;
        }
    }

    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let ctx = sys::Context::collect(Path::new("."), threads);
    let mut context = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"iterations\":{},\
         \"nproc\":{},\"threads\":{},\"rustc\":{},\"git_commit\":{},\
         \"source_digest\":\"{:016x}\",\"cpu\":{},\"cohort\":\"{:016x}\",\"digest\":{}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        run.samples.len(),
        ctx.nproc,
        ctx.threads,
        json_str(ctx.rustc),
        json_str(&ctx.git_commit),
        ctx.source_digest,
        json_str(&ctx.cpu),
        ctx.cohort(),
        run.digest
            .map_or("null".to_string(), |d| format!("\"{d:016x}\"")),
    );
    let errors: Vec<String> = run.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(context, ",\"errors\":[{}]}}", errors.join(","));

    let mut correct = run.failed == 0;
    let mut body = Vec::new();
    for m in &metrics {
        if !m.value.is_finite() {
            correct = false;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.samples.len(),
        run.failed,
        body.join(",")
    );
    for e in &run.errors {
        eprintln!("perfbench: {e}");
    }
    let record = format!("{{\"context\":{context},\"result\":{result}}}\n");
    let journal = Path::new(OUT_ROOT).join("runs.jsonl");
    let appended = std::fs::create_dir_all(OUT_ROOT).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal)?;
        std::io::Write::write_all(&mut f, record.as_bytes())
    });
    if let Err(e) = appended {
        eprintln!("perfbench: could not append to {}: {e}", journal.display());
    }
    println!("{{\"context\":{context}}}");
    println!("{result}");
    ExitCode::SUCCESS
}
