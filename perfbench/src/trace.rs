//! Per-layer timers that live in the benchmark, not in the program: a
//! timing [`EncounterSim`] decorator around the domain simulator, and
//! wall-clock timers around the PRA phases, tournament schedule, cache,
//! stats and figure calls. `dsa_obs` stays off.
//!
//! Attribution is honest by construction. Engine time is the per-thread
//! sum of simulator calls, so a fork-join phase's idle thread-time is
//! reported as `parallel.wait_s` and never as a layer's self time. The
//! other layers run on the calling thread between phases, so the layer
//! times can never add up to more than threads × wall.

use crate::workload::mirrored_pairings;
use dsa_core::parallel::effective_threads;
use dsa_core::sim::EncounterSim;
use dsa_core::tournament::Pairing;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// A timed layer of the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pra.performance_s`: the homogeneous phase (fork-join).
    Performance,
    /// `pra.robustness_s`: the 50/50 tournament (fork-join).
    Robustness,
    /// `pra.aggressiveness_s`: the 10/90 tournament (fork-join).
    Aggressiveness,
    /// `render.sweep_figs_ms`: Figures 2–8 and Birds.
    SweepFigs,
    /// `render.domain_figs_ms`: the gossip and reputation reports.
    DomainFigs,
    /// `stats.table3_ms`: the Table 3 regression.
    Table3,
    /// `stats.cross_ms`: the cross-domain comparison.
    Cross,
    /// `stats.attribution_ms`: the attribution tables.
    Attribution,
}

const LAYERS: usize = 8;

/// One thread's simulator calls inside one fork-join phase.
#[derive(Default)]
struct ThreadCalls {
    busy_ns: u64,
    homogeneous: u64,
    encounter: u64,
    call_ns: Vec<u64>,
}

/// Times every call into the wrapped simulator, per thread.
pub struct Timed<S> {
    inner: S,
    calls: Mutex<Vec<(ThreadId, ThreadCalls)>>,
}

impl<S> Timed<S> {
    /// Wraps a simulator.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, started: Instant, homogeneous: bool) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let id = std::thread::current().id();
        let mut calls = self.calls.lock().expect("a simulator call panicked");
        let at = match calls.iter().position(|(t, _)| *t == id) {
            Some(at) => at,
            None => {
                calls.push((id, ThreadCalls::default()));
                calls.len() - 1
            }
        };
        let c = &mut calls[at].1;
        c.busy_ns += ns;
        c.call_ns.push(ns);
        if homogeneous {
            c.homogeneous += 1;
        } else {
            c.encounter += 1;
        }
    }

    /// Takes the calls recorded since the last drain, one entry per
    /// thread that made any.
    fn drain(&self) -> Vec<ThreadCalls> {
        let mut calls = self.calls.lock().expect("a simulator call panicked");
        calls.drain(..).map(|(_, c)| c).collect()
    }
}

impl<S: EncounterSim> EncounterSim for Timed<S> {
    type Protocol = S::Protocol;

    fn run_homogeneous(&self, protocol: &S::Protocol, seed: u64) -> f64 {
        let started = Instant::now();
        let utility = self.inner.run_homogeneous(protocol, seed);
        self.record(started, true);
        utility
    }

    fn run_encounter(
        &self,
        a: &S::Protocol,
        b: &S::Protocol,
        fraction_a: f64,
        seed: u64,
    ) -> (f64, f64) {
        let started = Instant::now();
        let utilities = self.inner.run_encounter(a, b, fraction_a, seed);
        self.record(started, false);
        utilities
    }
}

/// One fork-join phase: its wall-clock, resolved worker count and each
/// worker's engine busy time.
struct Job {
    wall: Duration,
    workers: usize,
    busy_ns: Vec<u64>,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A metric value with its name and unit.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one traced iteration recorded.
pub struct Trace {
    threads: usize,
    layers: [Duration; LAYERS],
    jobs: Vec<Job>,
    tasks: u64,
    homogeneous: u64,
    encounter: u64,
    call_ns: Vec<u64>,
    pairings: u64,
    mirrored: u64,
    schedule: Duration,
    cache_read: Duration,
    read_bytes: u64,
    cache_write: Duration,
    write_bytes: u64,
    hits: u64,
    misses: u64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Trace {
    /// An empty trace for a run on `threads` worker threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            layers: [Duration::ZERO; LAYERS],
            jobs: Vec::new(),
            tasks: 0,
            homogeneous: 0,
            encounter: 0,
            call_ns: Vec::new(),
            pairings: 0,
            mirrored: 0,
            schedule: Duration::ZERO,
            cache_read: Duration::ZERO,
            read_bytes: 0,
            cache_write: Duration::ZERO,
            write_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Times `f` as self time of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.layers[layer as usize] += started.elapsed();
        out
    }

    /// Times one fork-join phase of `tasks` tasks on `requested` threads
    /// and collects the simulator calls it made.
    pub fn phase<S, T>(
        &mut self,
        sim: &Timed<S>,
        layer: Layer,
        tasks: usize,
        requested: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed();
        self.layers[layer as usize] += wall;
        let calls = sim.drain();
        self.jobs.push(Job {
            wall,
            workers: effective_threads(requested, tasks),
            busy_ns: calls.iter().map(|c| c.busy_ns).collect(),
        });
        self.tasks += tasks as u64;
        for c in calls {
            self.homogeneous += c.homogeneous;
            self.encounter += c.encounter;
            self.call_ns.extend(c.call_ns);
        }
        out
    }

    /// Times building one tournament's schedule and counts its pairings,
    /// and its mirrored ones when the share makes (i, j) and (j, i) the
    /// same population. Returns the pairing count.
    pub fn schedule(&mut self, share: f64, f: impl FnOnce() -> Vec<Pairing>) -> usize {
        let started = Instant::now();
        let pairings = f();
        self.schedule += started.elapsed();
        self.pairings += pairings.len() as u64;
        if share == 0.5 {
            self.mirrored += mirrored_pairings(&pairings);
        }
        pairings.len()
    }

    /// Times a cache load of `path`; `Some` counts as a hit.
    ///
    /// # Errors
    ///
    /// Passes on the load's error.
    pub fn cache_read<T>(
        &mut self,
        path: &Path,
        f: impl FnOnce() -> Result<Option<T>, String>,
    ) -> Result<Option<T>, String> {
        let started = Instant::now();
        let loaded = f();
        self.cache_read += started.elapsed();
        if matches!(loaded, Ok(Some(_))) {
            self.hits += 1;
            self.read_bytes += file_len(path);
        } else {
            self.misses += 1;
        }
        loaded
    }

    /// Times a cache store that returns the written path.
    ///
    /// # Errors
    ///
    /// Passes on the store's error.
    pub fn cache_write(
        &mut self,
        f: impl FnOnce() -> Result<PathBuf, String>,
    ) -> Result<(), String> {
        let started = Instant::now();
        let path = f()?;
        self.cache_write += started.elapsed();
        self.write_bytes += file_len(&path);
        Ok(())
    }

    /// Simulator calls recorded.
    #[must_use]
    pub fn engine_calls(&self) -> u64 {
        self.homogeneous + self.encounter
    }

    /// Tournament pairings scheduled.
    #[must_use]
    pub fn pairings(&self) -> u64 {
        self.pairings
    }

    fn engine_busy_ns(&self) -> u64 {
        self.call_ns.iter().sum()
    }

    /// Busy thread-seconds attributed to a layer: engine time on the
    /// workers, plus the calling thread's cache, schedule, stats and
    /// render time between phases.
    fn attributed_s(&self) -> f64 {
        let own: Duration = self.layers[Layer::SweepFigs as usize..]
            .iter()
            .sum::<Duration>()
            + self.cache_read
            + self.cache_write
            + self.schedule;
        secs(self.engine_busy_ns()) + own.as_secs_f64()
    }

    /// Checks the attribution against the iteration's wall-clock:
    /// attributed busy time must fit in threads × wall.
    ///
    /// # Errors
    ///
    /// Names the violated bound.
    pub fn check(&self, wall: Duration) -> Result<(), String> {
        let capacity = self.threads as f64 * wall.as_secs_f64();
        let attributed = self.attributed_s();
        if attributed > capacity {
            return Err(format!(
                "layers attribute {attributed:.6} s busy, more than {} threads × {:.6} s wall",
                self.threads,
                wall.as_secs_f64()
            ));
        }
        Ok(())
    }

    /// The per-layer metrics of this iteration (all but
    /// `trace.overhead_frac` and `error_rate`, which need the whole run).
    #[must_use]
    pub fn metrics(&self, wall: Duration) -> Vec<Metric> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let layer_s = |l: Layer| self.layers[l as usize].as_secs_f64();
        let layer_ms = |l: Layer| ms(self.layers[l as usize]);
        let busy_ns = self.engine_busy_ns();
        let mut sorted = self.call_ns.clone();
        sorted.sort_unstable();
        let percentile_us = |q: f64| {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1] as f64 * 1e-3
        };
        let capacity_s: f64 = self
            .jobs
            .iter()
            .map(|j| j.workers as f64 * j.wall.as_secs_f64())
            .sum();
        let (max_sum, mean_sum) = self.jobs.iter().fold((0.0, 0.0), |(max, mean), j| {
            let busiest = j.busy_ns.iter().copied().max().unwrap_or(0);
            let total: u64 = j.busy_ns.iter().sum();
            (max + secs(busiest), mean + secs(total) / j.workers as f64)
        });
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            metric("engine.calls", self.engine_calls() as f64, "count"),
            metric("engine.homogeneous_calls", self.homogeneous as f64, "count"),
            metric("engine.encounter_calls", self.encounter as f64, "count"),
            metric("engine.busy_s", secs(busy_ns), "s"),
            metric("engine.call_us_p50", percentile_us(0.50), "us"),
            metric("engine.call_us_p99", percentile_us(0.99), "us"),
            metric("pra.performance_s", layer_s(Layer::Performance), "s"),
            metric("pra.robustness_s", layer_s(Layer::Robustness), "s"),
            metric("pra.aggressiveness_s", layer_s(Layer::Aggressiveness), "s"),
            metric("tournament.pairings", self.pairings as f64, "count"),
            metric(
                "tournament.mirrored_pairings",
                self.mirrored as f64,
                "count",
            ),
            metric("tournament.schedule_ms", ms(self.schedule), "ms"),
            metric("parallel.tasks", self.tasks as f64, "count"),
            metric(
                "parallel.task_us_mean",
                ratio(secs(busy_ns) * 1e6, self.tasks as f64),
                "us",
            ),
            metric(
                "parallel.wait_s",
                (capacity_s - secs(busy_ns)).max(0.0),
                "s",
            ),
            metric("parallel.imbalance", ratio(max_sum, mean_sum), "ratio"),
            metric(
                "parallel.utilisation",
                ratio(secs(busy_ns), capacity_s),
                "ratio",
            ),
            metric("cache.read_ms", ms(self.cache_read), "ms"),
            metric("cache.read_bytes", self.read_bytes as f64, "bytes"),
            metric("cache.write_ms", ms(self.cache_write), "ms"),
            metric("cache.write_bytes", self.write_bytes as f64, "bytes"),
            metric("cache.hits", self.hits as f64, "count"),
            metric("cache.misses", self.misses as f64, "count"),
            metric("render.sweep_figs_ms", layer_ms(Layer::SweepFigs), "ms"),
            metric("render.domain_figs_ms", layer_ms(Layer::DomainFigs), "ms"),
            metric("stats.table3_ms", layer_ms(Layer::Table3), "ms"),
            metric("stats.cross_ms", layer_ms(Layer::Cross), "ms"),
            metric("stats.attribution_ms", layer_ms(Layer::Attribution), "ms"),
            metric(
                "trace.coverage",
                ratio(
                    self.attributed_s(),
                    self.threads as f64 * wall.as_secs_f64(),
                ),
                "ratio",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleepy;

    impl EncounterSim for Sleepy {
        type Protocol = u64;

        fn run_homogeneous(&self, p: &u64, _seed: u64) -> f64 {
            std::thread::sleep(Duration::from_micros(*p));
            1.0
        }

        fn run_encounter(&self, a: &u64, _b: &u64, _f: f64, _seed: u64) -> (f64, f64) {
            std::thread::sleep(Duration::from_micros(*a));
            (1.0, 0.0)
        }
    }

    #[test]
    fn decorator_attributes_calls_per_thread_without_exceeding_capacity() {
        let sim = Timed::new(Sleepy);
        let mut trace = Trace::new(2);
        let started = Instant::now();
        let out = trace.phase(&sim, Layer::Performance, 8, 2, || {
            dsa_core::parallel::parallel_map_indexed(8, 2, |i| {
                if i % 2 == 0 {
                    sim.run_homogeneous(&200, 0)
                } else {
                    sim.run_encounter(&200, &0, 0.5, 0).0
                }
            })
        });
        let wall = started.elapsed();
        assert_eq!(out, vec![1.0; 8]);
        assert_eq!(trace.engine_calls(), 8);
        trace.check(wall).expect("attribution fits");
        let m = trace.metrics(wall);
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        assert_eq!(get("engine.homogeneous_calls"), 4.0);
        assert_eq!(get("engine.encounter_calls"), 4.0);
        assert_eq!(get("parallel.tasks"), 8.0);
        assert!(get("engine.busy_s") >= 8.0 * 200e-6);
        assert!(get("parallel.wait_s") >= 0.0);
        let coverage = get("trace.coverage");
        assert!((0.0..=1.0).contains(&coverage), "coverage {coverage}");
        assert!(get("parallel.imbalance") >= 1.0);
    }
}
