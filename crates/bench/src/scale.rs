//! Experiment scale presets.
//!
//! The paper's full PRA run took ~25 hours on a 50-node dual-core cluster
//! (§4.3 footnote: ~107 million simulations). The harness therefore
//! supports three scales, which subsample runs and opponents; the
//! `swarm-paper-slice` workload in `perfbench/` prices the paper's own
//! scale.

use dsa_core::domain::Effort;
use dsa_core::pra::PraConfig;
use dsa_core::tournament::OpponentSampling;

/// A complete scale setting for the sweep-based experiments. The
/// simulator parameters are not part of it: every domain, swarm
/// included, derives them from [`Scale::effort`] in `Domain::sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// PRA configuration (runs, sampling, threads, seed).
    pub pra: PraConfig,
    /// Runs per point in the piece-level BitTorrent experiments.
    pub bt_runs: usize,
    /// Human-readable name.
    pub name: &'static str,
}

impl Scale {
    /// Smoke scale: seconds; used by unit tests, CI and perfbench.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            pra: PraConfig {
                performance_runs: 1,
                encounter_runs: 1,
                sampling: OpponentSampling::Sampled(6),
                threads: 0,
                seed: 0x5EED,
                ..PraConfig::default()
            },
            bt_runs: 2,
            name: "smoke",
        }
    }

    /// Laboratory scale: minutes on a laptop; the default for
    /// `experiments` runs.
    #[must_use]
    pub fn lab() -> Self {
        Self {
            pra: PraConfig {
                performance_runs: 2,
                encounter_runs: 1,
                sampling: OpponentSampling::Sampled(24),
                threads: 0,
                seed: 0x5EED,
                ..PraConfig::default()
            },
            bt_runs: 6,
            name: "lab",
        }
    }

    /// Paper scale: the §4.3 parameters (500 rounds, 100 performance
    /// runs, 10 runs per encounter, exhaustive opponents). Budget: cluster
    /// hours — provided for completeness, not for the default run.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pra: PraConfig {
                performance_runs: 100,
                encounter_runs: 10,
                sampling: OpponentSampling::Exhaustive,
                threads: 0,
                seed: 0x5EED,
                ..PraConfig::default()
            },
            bt_runs: 10,
            name: "paper",
        }
    }

    /// The effort level matching this scale: each domain's `Domain::sim`
    /// turns it into that domain's simulator parameters.
    #[must_use]
    pub fn effort(&self) -> Effort {
        Effort::by_name(self.name).unwrap_or(Effort::Lab)
    }

    /// Looks a preset up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "lab" => Some(Self::lab()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Scale::by_name("smoke").unwrap().name, "smoke");
        assert_eq!(Scale::by_name("lab").unwrap().name, "lab");
        assert_eq!(Scale::by_name("paper").unwrap().name, "paper");
        assert!(Scale::by_name("warp").is_none());
    }

    #[test]
    fn scales_are_ordered_by_cost() {
        use dsa_core::domain::Domain;
        let rounds = |scale: &Scale| {
            let sim = dsa_swarm::adapter::SwarmDomain.sim(scale.effort(), 0.0);
            sim.config.rounds
        };
        let s = Scale::smoke();
        let l = Scale::lab();
        let p = Scale::paper();
        assert!(rounds(&s) <= rounds(&l) && rounds(&l) <= rounds(&p));
        assert!(s.pra.performance_runs <= l.pra.performance_runs);
        assert!(p.pra.sampling == OpponentSampling::Exhaustive);
    }
}
