//! The four benchmark workloads, each defined by its inputs (domain,
//! effort, `PraConfig`, protocol list, figure ids, seed), and one iteration
//! of each through the workspace's public entry points.
//!
//! An iteration runs either plain (`trace = None`: exactly the calls a user
//! makes) or traced, where the same inputs go through the same library
//! functions split at the layer boundaries so [`Trace`] can time each
//! layer. Both must produce the same digest; the benchmark checks it.

use crate::trace::{Layer, Timed, Trace};
use dsa_attribution::ResponseKind;
use dsa_bench::scale::Scale;
use dsa_bench::sweep::SweepData;
use dsa_bench::{attribfig, figures, gossipfig, prafig, regress, repfig};
use dsa_core::cache::{DomainSweep, SweepKey};
use dsa_core::domain::{lookup, Domain, DynDomain, Effort};
use dsa_core::pra::{performance_phase, tournament_rates, PraConfig};
use dsa_core::results::PraResults;
use dsa_core::tournament::{schedule, OpponentSampling, Pairing};
use dsa_swarm::protocol::SwarmProtocol;
use dsa_workloads::seeds::SeedSeq;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// The seed every workload runs at unless told otherwise; reference
/// digests are kept for it.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Swarm protocol indices `swarm-paper-slice` adds to the six presets.
pub const PAPER_SLICE_INDICES: [usize; 10] =
    [100, 500, 900, 1300, 1700, 2100, 2500, 2900, 3100, 3200];

/// Simulations of the paper's full §4.3 job: 3270 protocols × 100
/// performance runs plus two exhaustive tournaments of 3270 · 3269
/// pairings × 10 runs.
pub const PAPER_SIMS: u64 = 3270 * 100 + 2 * 3270 * 3269 * 10;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold-cache swarm smoke sweep, cache store and the swarm figures.
    SwarmSmoke,
    /// Sixteen swarm protocols at the paper's simulator and PRA parameters.
    SwarmPaperSlice,
    /// The whole reputation space, exhaustive, one run per cell.
    RepExhaustive,
    /// Every smoke figure rendered from warm caches.
    WarmFigures,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SwarmSmoke,
        Workload::SwarmPaperSlice,
        Workload::RepExhaustive,
        Workload::WarmFigures,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SwarmSmoke => "swarm-smoke",
            Self::SwarmPaperSlice => "swarm-paper-slice",
            Self::RepExhaustive => "rep-exhaustive",
            Self::WarmFigures => "warm-figures",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation count the workload's definition promises at any
    /// seed (`None` for `warm-figures`, which simulates nothing).
    #[must_use]
    pub fn stated_sims(self) -> Option<u64> {
        match self {
            Self::SwarmSmoke => Some(42_510),
            Self::SwarmPaperSlice => Some(6_400),
            Self::RepExhaustive => Some(165_600),
            Self::WarmFigures => None,
        }
    }

    /// The tournament pairings (both phases) the definition promises.
    #[must_use]
    pub fn stated_pairings(self) -> Option<u64> {
        match self {
            Self::SwarmSmoke => Some(2 * 3270 * 6),
            Self::SwarmPaperSlice => Some(2 * 16 * 15),
            Self::RepExhaustive => Some(2 * 288 * 287),
            Self::WarmFigures => None,
        }
    }

    /// The workload's inputs at a seed and worker-thread count. Requires
    /// [`dsa_bench::register_domains`] to have run.
    #[must_use]
    pub fn spec(self, seed: u64, threads: usize) -> Spec {
        let mut smoke = Scale::smoke();
        smoke.pra.seed = seed;
        smoke.pra.threads = threads;
        match self {
            Self::SwarmSmoke => {
                let swarm = domain("swarm");
                Spec::Sweep(SweepSpec {
                    domain: swarm.clone(),
                    effort: Effort::Smoke,
                    config: smoke.pra,
                    protocols: (0..swarm.size()).collect(),
                    cold_cache: true,
                })
            }
            Self::SwarmPaperSlice => {
                let swarm = domain("swarm");
                let mut protocols: Vec<usize> = swarm.presets().iter().map(|&(_, i)| i).collect();
                protocols.extend(PAPER_SLICE_INDICES);
                Spec::Sweep(SweepSpec {
                    domain: swarm,
                    effort: Effort::Paper,
                    config: PraConfig {
                        threads,
                        seed,
                        ..PraConfig::paper_scale()
                    },
                    protocols,
                    cold_cache: false,
                })
            }
            Self::RepExhaustive => {
                let rep = domain("rep");
                Spec::Sweep(SweepSpec {
                    domain: rep.clone(),
                    effort: Effort::Smoke,
                    config: PraConfig {
                        performance_runs: 1,
                        encounter_runs: 1,
                        sampling: OpponentSampling::Exhaustive,
                        threads,
                        seed,
                        ..PraConfig::default()
                    },
                    protocols: (0..rep.size()).collect(),
                    cold_cache: false,
                })
            }
            Self::WarmFigures => Spec::Warm(smoke),
        }
    }
}

/// A registered domain by name.
fn domain(name: &str) -> Arc<dyn DynDomain> {
    lookup(name).unwrap_or_else(|| panic!("domain '{name}' is not registered"))
}

/// What one iteration of a workload computes.
#[derive(Clone)]
pub enum Spec {
    /// One PRA sweep.
    Sweep(SweepSpec),
    /// Every smoke figure from the caches a warm-up fills.
    Warm(Scale),
}

/// The inputs of one PRA sweep.
#[derive(Clone)]
pub struct SweepSpec {
    /// The domain swept.
    pub domain: Arc<dyn DynDomain>,
    /// Simulator fidelity.
    pub effort: Effort,
    /// PRA parameters, seed and worker threads.
    pub config: PraConfig,
    /// Protocol indices, in sweep order.
    pub protocols: Vec<usize>,
    /// Sweep the whole space through `DomainSweep::load_or_compute` into
    /// an empty output directory, then render the swarm figures from it.
    pub cold_cache: bool,
}

impl SweepSpec {
    /// One tournament's schedule, exactly as `tournament_rates` builds it.
    #[must_use]
    pub fn schedule(&self) -> Vec<Pairing> {
        schedule(
            self.protocols.len(),
            self.config.sampling,
            SeedSeq::new(self.config.seed).child(99).seed(),
        )
    }

    /// Simulations one sweep runs: the performance runs plus two
    /// tournaments of `encounter_runs` per pairing.
    #[must_use]
    pub fn sims(&self) -> u64 {
        let perf = self.protocols.len() * self.config.performance_runs.max(1);
        let tournaments = 2 * self.schedule().len() * self.config.encounter_runs.max(1);
        (perf + tournaments) as u64
    }
}

/// Tournament pairings at share 0.5 whose mirror runs in the same phase —
/// the pairings a symmetric dedup could score with one simulation.
#[must_use]
pub fn mirrored_pairings(pairings: &[Pairing]) -> u64 {
    let set: HashSet<(usize, usize)> = pairings
        .iter()
        .map(|p| (p.protagonist, p.opponent))
        .collect();
    pairings
        .iter()
        .filter(|p| set.contains(&(p.opponent, p.protagonist)))
        .count() as u64
}

impl Spec {
    /// Simulations whose results one iteration delivers: those it runs,
    /// or for `warm-figures` those behind the three cached sweeps it
    /// reads.
    #[must_use]
    pub fn sims(&self) -> u64 {
        match self {
            Self::Sweep(s) => s.sims(),
            Self::Warm(scale) => ["swarm", "gossip", "rep"]
                .into_iter()
                .map(|name| {
                    let d = domain(name);
                    SweepSpec {
                        protocols: (0..d.size()).collect(),
                        domain: d,
                        effort: scale.effort(),
                        config: scale.pra,
                        cold_cache: true,
                    }
                    .sims()
                })
                .sum(),
        }
    }

    /// A shrunken copy on the same code path: the domain's presets with at
    /// most two runs each, or one sampled opponent where a figure needs
    /// the whole space.
    #[cfg(test)]
    #[must_use]
    pub fn shrunk(&self) -> Spec {
        let mut spec = self.clone();
        match &mut spec {
            Self::Sweep(s) if s.cold_cache => s.config.sampling = OpponentSampling::Sampled(1),
            Self::Sweep(s) => {
                s.protocols = s.domain.presets().iter().map(|&(_, i)| i).collect();
                s.config.performance_runs = s.config.performance_runs.min(2);
                s.config.encounter_runs = s.config.encounter_runs.min(2);
            }
            Self::Warm(scale) => scale.pra.sampling = OpponentSampling::Sampled(1),
        }
        spec
    }

    /// The same inputs at another worker-thread count.
    #[cfg(test)]
    #[must_use]
    pub fn with_threads(&self, threads: usize) -> Spec {
        let mut spec = self.clone();
        match &mut spec {
            Self::Sweep(s) => s.config.threads = threads,
            Self::Warm(scale) => scale.pra.threads = threads,
        }
        spec
    }

    /// Prepares `out` for an iteration: empty for a cold sweep; for
    /// `warm-figures`, filled with every smoke cache (PRA sweeps of all
    /// three domains and their attribution tables). Sweeps that write no
    /// files leave it alone.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory or a cache cannot be written.
    pub fn setup(&self, out: &Path) -> Result<(), String> {
        if matches!(self, Self::Sweep(s) if !s.cold_cache) {
            return Ok(());
        }
        match std::fs::remove_dir_all(out) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("clearing {}: {e}", out.display())),
        }
        std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        if let Self::Warm(scale) = self {
            attribfig::attribution(scale, out, &[ResponseKind::Pra])?;
        }
        Ok(())
    }

    /// Whether each iteration needs a fresh [`Self::setup`] first.
    #[must_use]
    pub fn cold(&self) -> bool {
        matches!(self, Self::Sweep(s) if s.cold_cache)
    }
}

/// What one iteration produced, for the correctness check.
pub struct Produced {
    /// Every PRA result the iteration computed or read.
    pub results: Vec<PraResults>,
    /// The rendered figure and table text.
    pub text: String,
}

/// Runs one iteration of `spec` with outputs under `out`; traced when
/// `trace` is given.
///
/// # Errors
///
/// Returns an error when a library call fails, or a cold cache hits or a
/// warm cache misses.
pub fn run(spec: &Spec, out: &Path, trace: Option<&mut Trace>) -> Result<Produced, String> {
    match spec {
        Spec::Sweep(s) => sweep(s, out, trace),
        Spec::Warm(scale) => warm(scale, out, trace),
    }
}

fn sweep(s: &SweepSpec, out: &Path, mut trace: Option<&mut Trace>) -> Result<Produced, String> {
    let d = &*s.domain;
    let results = if let Some(t) = trace.as_deref_mut() {
        let results = traced_quantify(s, t)?;
        if s.cold_cache {
            let key = SweepKey::of(d, s.effort.name(), s.effort, &s.config);
            if t.cache_read(&key.cache_path(out), || DomainSweep::load(&key, out))?
                .is_some()
            {
                return Err("cold cache hit".into());
            }
            let sweep = DomainSweep {
                key,
                names: d.codes(),
                results,
                from_cache: false,
            };
            t.cache_write(|| sweep.store(out))?;
            sweep.results
        } else {
            results
        }
    } else if s.cold_cache {
        let sweep = DomainSweep::load_or_compute(d, s.effort, &s.config, s.effort.name(), out)?;
        if sweep.from_cache {
            return Err("cold cache hit".into());
        }
        sweep.results
    } else {
        d.quantify(&s.protocols, s.effort, &s.config)
    };
    if !s.cold_cache {
        return Ok(Produced {
            results: vec![results],
            text: String::new(),
        });
    }
    let data = SweepData {
        protocols: SwarmProtocol::all().collect(),
        results,
        scale_name: s.effort.name().to_string(),
    };
    let text = swarm_figures(&data, trace);
    Ok(Produced {
        results: vec![data.results],
        text,
    })
}

/// The traced equivalent of `DynDomain::quantify`: the same three phases
/// over the typed simulator wrapped in a timing decorator.
fn traced_quantify(s: &SweepSpec, t: &mut Trace) -> Result<PraResults, String> {
    match s.domain.name() {
        "swarm" => Ok(quantify_phases(&dsa_swarm::adapter::SwarmDomain, s, t)),
        "rep" => Ok(quantify_phases(&dsa_reputation::adapter::RepDomain, s, t)),
        "gossip" => Ok(quantify_phases(&dsa_gossip::GossipDomain, s, t)),
        other => Err(format!("no typed domain for '{other}'")),
    }
}

fn quantify_phases<D: Domain>(d: &D, s: &SweepSpec, t: &mut Trace) -> PraResults {
    let sim = Timed::new(d.sim(s.effort, 0.0));
    let protocols: Vec<_> = s.protocols.iter().map(|&i| d.protocol(i)).collect();
    let cfg = &s.config;
    let (raw, performance) = t.phase(
        &sim,
        Layer::Performance,
        protocols.len(),
        cfg.threads,
        || {
            let raw = performance_phase(&sim, &protocols, cfg);
            let norm = dsa_stats::describe::normalize_by_max(&raw);
            (raw, norm)
        },
    );
    let tasks = t.schedule(cfg.robustness_share, || s.schedule());
    let robustness = t.phase(&sim, Layer::Robustness, tasks, cfg.threads, || {
        tournament_rates(&sim, &protocols, cfg.robustness_share, cfg, 1)
    });
    let tasks = t.schedule(cfg.aggressiveness_share, || s.schedule());
    let aggressiveness = t.phase(&sim, Layer::Aggressiveness, tasks, cfg.threads, || {
        tournament_rates(&sim, &protocols, cfg.aggressiveness_share, cfg, 2)
    });
    PraResults::new(raw, performance, robustness, aggressiveness)
}

/// A figure or table rendered from the swarm sweep.
type Render = fn(&SweepData) -> String;

/// Figures 2–8, Table 3 and the Birds placement, in that order.
fn swarm_figures(data: &SweepData, mut trace: Option<&mut Trace>) -> String {
    let figs: [(&str, Render); 9] = [
        ("fig2", figures::fig2),
        ("fig3", |d| figures::fig3_fig4(d, false)),
        ("fig4", |d| figures::fig3_fig4(d, true)),
        ("fig5", figures::fig5),
        ("fig6", |d| figures::fig6_fig7(d, false)),
        ("fig7", |d| figures::fig6_fig7(d, true)),
        ("fig8", figures::fig8),
        ("table3", |d| regress::table3(d).render()),
        ("birds", figures::birds_placement),
    ];
    let mut text = String::new();
    for (id, render) in figs {
        let layer = if id == "table3" {
            Layer::Table3
        } else {
            Layer::SweepFigs
        };
        let body = match trace.as_deref_mut() {
            Some(t) => t.time(layer, || render(data)),
            None => render(data),
        };
        push_section(&mut text, id, &body);
    }
    text
}

fn push_section(text: &mut String, id: &str, body: &str) {
    text.push_str("==== ");
    text.push_str(id);
    text.push_str(" ====\n");
    text.push_str(body);
    text.push('\n');
}

/// One warm pass: the swarm figures, the gossip and reputation reports,
/// the cross-domain comparison and the attribution tables, every sweep
/// read from the cache.
fn warm(scale: &Scale, out: &Path, trace: Option<&mut Trace>) -> Result<Produced, String> {
    let pra = [ResponseKind::Pra];
    let mut text = String::new();
    let Some(t) = trace else {
        let data = SweepData::load_or_compute(scale, out)?;
        text.push_str(&swarm_figures(&data, None));
        push_section(&mut text, "gossip", &gossipfig::gossip_dsa(scale, out)?);
        push_section(&mut text, "rep", &repfig::reputation_dsa(scale, out)?);
        push_section(&mut text, "cross", &prafig::cross_domain(scale, out)?);
        push_section(
            &mut text,
            "attribution",
            &attribfig::attribution(scale, out, &pra)?,
        );
        return Ok(Produced {
            results: vec![data.results],
            text,
        });
    };
    let key = SweepData::cache_key(scale);
    let sweep = t
        .cache_read(&key.cache_path(out), || DomainSweep::load(&key, out))?
        .ok_or("warm swarm cache missed")?;
    let data = SweepData {
        protocols: SwarmProtocol::all().collect(),
        results: sweep.results,
        scale_name: scale.name.to_string(),
    };
    text.push_str(&swarm_figures(&data, Some(&mut *t)));
    for name in ["gossip", "rep"] {
        let d = domain(name);
        let key = SweepKey::of(&*d, scale.name, scale.effort(), &scale.pra);
        let sweep = t
            .cache_read(&key.cache_path(out), || DomainSweep::load(&key, out))?
            .ok_or_else(|| format!("warm {name} cache missed"))?;
        let body = t.time(Layer::DomainFigs, || prafig::domain_dsa(&*d, &sweep, out));
        push_section(&mut text, name, &body);
    }
    let cross = t.time(Layer::Cross, || prafig::cross_domain(scale, out))?;
    push_section(&mut text, "cross", &cross);
    let attribution = t.time(Layer::Attribution, || {
        attribfig::attribution(scale, out, &pra)
    })?;
    push_section(&mut text, "attribution", &attribution);
    Ok(Produced {
        results: vec![data.results],
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    fn threads() -> usize {
        std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
    }

    fn sweep_spec(w: Workload, seed: u64) -> SweepSpec {
        match w.spec(seed, 1) {
            Spec::Sweep(s) => s,
            Spec::Warm(_) => panic!("{} is not a sweep", w.name()),
        }
    }

    #[test]
    fn definitions_produce_their_stated_counts() {
        dsa_bench::register_domains();
        for seed in [DEFAULT_SEED, 7] {
            for w in Workload::ALL {
                let Some(sims) = w.stated_sims() else {
                    continue;
                };
                let s = sweep_spec(w, seed);
                assert_eq!(s.sims(), sims, "{} simulations", w.name());
                let pairings = 2 * s.schedule().len() as u64;
                assert_eq!(Some(pairings), w.stated_pairings(), "{} pairings", w.name());
            }
        }
        // Swarm 3270 + 2 · 3270 · 6, rep 288 + 2 · 288 · 6, gossip 108 + 2 · 108 · 6.
        let warm = Workload::WarmFigures.spec(DEFAULT_SEED, 1).sims();
        assert_eq!(warm, 42_510 + 3_744 + 1_404);
    }

    #[test]
    fn paper_slice_is_sixteen_protocols_at_paper_parameters() {
        dsa_bench::register_domains();
        let s = sweep_spec(Workload::SwarmPaperSlice, DEFAULT_SEED);
        let distinct: HashSet<usize> = s.protocols.iter().copied().collect();
        assert_eq!(distinct.len(), 16);
        assert_eq!(s.effort, Effort::Paper);
        assert_eq!(s.config.performance_runs, 100);
        assert_eq!(s.config.encounter_runs, 10);
        assert_eq!(s.config.sampling, OpponentSampling::Exhaustive);
        assert_eq!(PAPER_SIMS, 214_119_600);
    }

    #[test]
    fn mirrored_pairings_count_both_directions() {
        dsa_bench::register_domains();
        let exhaustive = sweep_spec(Workload::RepExhaustive, DEFAULT_SEED).schedule();
        assert_eq!(mirrored_pairings(&exhaustive), exhaustive.len() as u64);
        let sampled = sweep_spec(Workload::SwarmSmoke, DEFAULT_SEED).schedule();
        let mirrored = mirrored_pairings(&sampled);
        assert!(
            mirrored.is_multiple_of(2) && mirrored < sampled.len() as u64 / 100,
            "{mirrored}"
        );
    }

    /// A shrunken copy of every workload yields one digest at one thread
    /// and at many, plain and traced.
    #[test]
    fn shrunken_digests_match_across_thread_counts_and_tracing() {
        dsa_bench::register_domains();
        let root = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
        for w in Workload::ALL {
            let spec = w.spec(DEFAULT_SEED, threads()).shrunk();
            let out = root.join(w.name());
            spec.setup(&out).expect("setup");
            let mut digests = Vec::new();
            for threads in [1, threads()] {
                for traced in [false, true] {
                    let spec = spec.with_threads(threads);
                    if spec.cold() {
                        spec.setup(&out).expect("setup");
                    }
                    let mut trace = Trace::new(threads);
                    let produced = run(&spec, &out, traced.then_some(&mut trace)).expect("run");
                    let broken = check::invariants(&produced);
                    assert!(broken.is_empty(), "{}: {broken:?}", w.name());
                    digests.push(check::digest(&produced, &out));
                }
            }
            assert!(
                digests.windows(2).all(|p| p[0] == p[1]),
                "{}: {digests:x?}",
                w.name()
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
