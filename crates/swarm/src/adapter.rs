//! Plugs the cycle simulator into the DSA framework, both as a typed
//! [`EncounterSim`] and as a registered [`Domain`].

use crate::engine::{run, SimConfig};
use crate::protocol::{design_space, SwarmProtocol};
use crate::{metrics, presets};
use dsa_core::domain::{Domain, DynDomain, Effort};
use dsa_core::sim::EncounterSim;
use dsa_workloads::churn::ChurnModel;
use std::sync::Arc;

/// The file-swarming domain as an [`EncounterSim`], ready for
/// [`dsa_core::pra::quantify`].
#[derive(Debug, Clone)]
pub struct SwarmSim {
    /// Simulation parameters shared by every run of the sweep.
    pub config: SimConfig,
}

impl EncounterSim for SwarmSim {
    type Protocol = SwarmProtocol;

    fn run_homogeneous(&self, protocol: &SwarmProtocol, seed: u64) -> f64 {
        dsa_core::sim::with_zero_assignment(self.config.peers, |assignment| {
            run(&[*protocol], assignment, &self.config, seed).throughput
        })
    }

    fn run_encounter(
        &self,
        a: &SwarmProtocol,
        b: &SwarmProtocol,
        fraction_a: f64,
        seed: u64,
    ) -> (f64, f64) {
        let n = self.config.peers;
        // The paper's splits (50/50, 10/90, 90/10) land exactly on
        // integers for n = 50.
        let (_, assignment) = dsa_core::sim::split_population(n, fraction_a);
        let out = run(&[*a, *b], &assignment, &self.config, seed);
        (out.group_means[0], out.group_means[1])
    }
}

/// The file-swarming domain for the generic registry
/// ([`dsa_core::domain`]): the paper's 3270-protocol space behind the
/// type-erased interface the CLI, sweep cache and cross-domain figures
/// share.
pub struct SwarmDomain;

impl Domain for SwarmDomain {
    type Sim = SwarmSim;

    fn name(&self) -> &'static str {
        "swarm"
    }

    fn space(&self) -> dsa_core::DesignSpace {
        design_space()
    }

    fn protocol(&self, index: usize) -> SwarmProtocol {
        SwarmProtocol::from_index(index)
    }

    fn code(&self, index: usize) -> String {
        SwarmProtocol::from_index(index).to_string()
    }

    fn presets(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("bittorrent", presets::bittorrent().index()),
            ("birds", presets::birds().index()),
            ("loyal", presets::loyal_when_needed().index()),
            ("sorts", presets::sort_s().index()),
            ("random", presets::random_rank().index()),
            ("freerider", presets::freerider().index()),
        ]
    }

    fn aliases(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("bt", presets::bittorrent().index()),
            ("sort-s", presets::sort_s().index()),
        ]
    }

    fn attackers(&self) -> Vec<(&'static str, usize)> {
        vec![("freerider", presets::freerider().index())]
    }

    fn supports_churn(&self) -> bool {
        true
    }

    fn population(&self, effort: Effort) -> usize {
        self.sim(effort, 0.0).config.peers
    }

    fn supports_mixed(&self) -> bool {
        true
    }

    fn run_mixed(&self, effort: Effort, groups: &[(usize, usize)], seed: u64) -> Option<Vec<f64>> {
        // The cycle engine hosts any number of protocol groups natively
        // through its per-peer assignment; the population is exactly the
        // groups' total. Group layout (contiguous, in `groups` order)
        // matches `split_population`, so two groups reproduce
        // `run_encounter` bit for bit and one group the homogeneous run.
        let n: usize = groups.iter().map(|&(_, count)| count).sum();
        let config = SimConfig {
            peers: n,
            ..self.sim(effort, 0.0).config
        };
        let protocols: Vec<SwarmProtocol> = groups
            .iter()
            .map(|&(p, _)| SwarmProtocol::from_index(p))
            .collect();
        let mut assignment = Vec::with_capacity(n);
        for (g, &(_, count)) in groups.iter().enumerate() {
            assignment.extend(std::iter::repeat_n(g, count));
        }
        Some(run(&protocols, &assignment, &config, seed).group_means)
    }

    fn sim(&self, effort: Effort, churn: f64) -> SwarmSim {
        // The one place an effort level's swarm simulator is decided:
        // the sweep, its cache key and every swarm figure build theirs
        // here. The effort sets only the rounds (paper: §4.3.1's 500).
        let rounds = match effort {
            Effort::Smoke => 60,
            Effort::Lab => 120,
            Effort::Paper => SimConfig::default().rounds,
        };
        let config = SimConfig {
            rounds,
            churn: if churn > 0.0 {
                ChurnModel::PerRound { rate: churn }
            } else {
                ChurnModel::None
            },
            ..SimConfig::default()
        };
        SwarmSim { config }
    }

    fn sim_signature(&self, effort: Effort) -> String {
        // Fingerprint the SimConfig itself, not the SwarmSim wrapper the
        // default prints: every swarm cache on disk is stamped this way,
        // and a different signature would invalidate them all.
        format!("{:?}", self.sim(effort, 0.0).config)
    }

    fn simulate_report(&self, index: usize, effort: Effort, churn: f64, seed: u64) -> String {
        let sim = self.sim(effort, churn);
        let p = SwarmProtocol::from_index(index);
        let out = dsa_core::sim::with_zero_assignment(sim.config.peers, |assignment| {
            run(&[p], assignment, &sim.config, seed)
        });
        let (fast, slow) = metrics::fast_slow_split(&out);
        format!(
            "protocol    : {p}\n\
             throughput  : {:.2} KiB/round/peer\n\
             utilization : {:.3}\n\
             fairness    : {:.3} (Jain)\n\
             fast / slow : {fast:.2} / {slow:.2}\n",
            out.throughput,
            metrics::utilization(&out),
            metrics::jain_fairness(&out),
        )
    }
}

/// Registers (or refreshes) the swarm domain in the global registry and
/// returns its handle.
pub fn register() -> Arc<dyn DynDomain> {
    dsa_core::domain::register_domain(SwarmDomain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use dsa_workloads::bandwidth::BandwidthDist;
    use dsa_workloads::churn::ChurnModel;

    fn sim() -> SwarmSim {
        SwarmSim {
            config: SimConfig {
                peers: 20,
                rounds: 80,
                bandwidth: BandwidthDist::Constant(10.0),
                churn: ChurnModel::None,
                aspiration_gain: 0.1,
                stratified_bandwidth: true,
            },
        }
    }

    #[test]
    fn homogeneous_matches_engine() {
        let s = sim();
        let via_trait = s.run_homogeneous(&presets::bittorrent(), 5);
        let direct = run(
            &[presets::bittorrent()],
            &vec![0; s.config.peers],
            &s.config,
            5,
        )
        .throughput;
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn encounter_splits_population() {
        let s = sim();
        let (coop, free) = s.run_encounter(&presets::bittorrent(), &presets::freerider(), 0.5, 6);
        assert!(coop.is_finite() && free.is_finite());
        assert!(coop > free, "cooperators should beat freeriders");
    }

    #[test]
    fn extreme_fractions_keep_one_peer() {
        let s = sim();
        // fraction so small it would round to zero peers.
        let (a, b) = s.run_encounter(&presets::bittorrent(), &presets::bittorrent(), 0.001, 7);
        assert!(a.is_finite());
        assert!(b.is_finite());
    }

    #[test]
    fn deterministic_in_seed() {
        let s = sim();
        let x = s.run_encounter(&presets::birds(), &presets::bittorrent(), 0.5, 11);
        let y = s.run_encounter(&presets::birds(), &presets::bittorrent(), 0.5, 11);
        assert_eq!(x, y);
    }

    #[test]
    fn domain_parses_presets_and_roundtrips_codes() {
        let d = register();
        assert_eq!(d.name(), "swarm");
        assert_eq!(d.size(), crate::protocol::SPACE_SIZE);
        let i = d.parse("bittorrent").unwrap();
        assert_eq!(i, presets::bittorrent().index());
        assert_eq!(d.parse("bt").unwrap(), i);
        assert_eq!(d.code(i), presets::bittorrent().to_string());
        assert!(d.parse("9999").is_err());
        assert!(d.supports_churn());
    }

    #[test]
    fn churn_hook_changes_the_encounter_stream() {
        let d = register();
        let bt = presets::bittorrent().index();
        let fr = presets::freerider().index();
        let calm = d.run_encounter(bt, fr, 0.9, Effort::Smoke, 9);
        let churned = d.run_encounter_churn(bt, fr, 0.9, Effort::Smoke, 0.1, 9);
        assert_ne!(calm, churned, "churn must perturb the swarm encounter");
        // No dedicated whitewash design point in the swarm space: churn
        // is the only identity-shedding channel.
        assert!(d.whitewasher().is_none());
    }

    #[test]
    fn native_mixed_honours_the_degeneracy_contracts() {
        let d = register();
        assert!(d.supports_mixed());
        let n = d.population(Effort::Smoke);
        let bt = presets::bittorrent().index();
        let fr = presets::freerider().index();
        // One group == the homogeneous run, bit for bit.
        assert_eq!(
            d.run_mixed(&[(bt, n)], Effort::Smoke, 7),
            vec![d.run_homogeneous(bt, Effort::Smoke, 7)]
        );
        // Two groups == the plain encounter at the count ratio.
        let (ua, ub) = d.run_encounter(bt, fr, 0.5, Effort::Smoke, 7);
        assert_eq!(
            d.run_mixed(&[(bt, n / 2), (fr, n - n / 2)], Effort::Smoke, 7),
            vec![ua, ub]
        );
        // Three groups run natively in ONE simulation and stay
        // deterministic in the seed.
        let groups = [(bt, 30), (presets::birds().index(), 10), (fr, 10)];
        let us = d.run_mixed(&groups, Effort::Smoke, 9);
        assert_eq!(us.len(), 3);
        assert_eq!(us, d.run_mixed(&groups, Effort::Smoke, 9));
        assert!(us.iter().all(|u| u.is_finite()));
    }

    #[test]
    fn domain_simulate_report_names_metrics() {
        let d = SwarmDomain;
        let report = d.simulate_report(presets::bittorrent().index(), Effort::Smoke, 0.0, 3);
        assert!(report.contains("throughput"));
        assert!(report.contains("fairness"));
    }
}
