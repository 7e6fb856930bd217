//! The typed swarm-domain view of the generic sweep cache.
//!
//! Figures 2–8 and Table 3 are all views of one sweep over the
//! 3270-protocol swarm space, and they need *typed* protocol descriptors
//! ([`SwarmProtocol`]) to group by dimension. This module wraps the
//! generic content-addressed cache ([`dsa_core::cache`]) — shared with
//! the gossip and reputation sweeps — in that typed interface. The cache
//! key is `(domain, space hash, scale, seed)`; the swarm cache file is
//! `results/pra-swarm-<scale>.csv`.

use crate::scale::Scale;
use dsa_core::cache::{DomainSweep, SweepKey};
use dsa_core::pra::{quantify, tournament_rates};
use dsa_core::results::PraResults;
use dsa_swarm::adapter::SwarmSim;
use dsa_swarm::protocol::SwarmProtocol;
use std::path::{Path, PathBuf};

/// A finished sweep: the protocol list (index order) plus PRA results.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// Every protocol, in design-space index order.
    pub protocols: Vec<SwarmProtocol>,
    /// PRA measures per protocol.
    pub results: PraResults,
    /// The scale the sweep was run at.
    pub scale_name: String,
}

impl SweepData {
    /// Runs the full sweep at the given scale (no caching).
    #[must_use]
    pub fn compute(scale: &Scale) -> Self {
        let protocols: Vec<SwarmProtocol> = SwarmProtocol::all().collect();
        let sim = SwarmSim {
            config: scale.sim.clone(),
        };
        let results = quantify(&sim, &protocols, &scale.pra);
        Self {
            protocols,
            results,
            scale_name: scale.name.to_string(),
        }
    }

    /// The generic cache key of the swarm sweep at a scale. The
    /// simulator signature is taken from `scale.sim` — identical to the
    /// domain's effort mapping for the standard scales, so this path and
    /// the registry path share cache entries, but diverging under any
    /// parameter tweak so neither can poison the other.
    #[must_use]
    pub fn cache_key(scale: &Scale) -> SweepKey {
        let domain = dsa_swarm::adapter::register();
        SweepKey::with_signature(
            &*domain,
            scale.name,
            &format!("{:?}", scale.sim),
            &scale.pra,
        )
    }

    /// Loads the cached sweep for a scale, or computes and caches it.
    /// A cache stamped with a different space hash, scale or seed is
    /// recomputed, not trusted.
    ///
    /// # Errors
    ///
    /// Returns an error if a matching cache exists but cannot be parsed,
    /// or the cache directory cannot be written.
    pub fn load_or_compute(scale: &Scale, out_dir: &Path) -> Result<Self, String> {
        let sweep = DomainSweep::load_or_compute_with(Self::cache_key(scale), out_dir, || {
            let data = Self::compute(scale);
            let names = data.protocols.iter().map(ToString::to_string).collect();
            (names, data.results)
        })?;
        Ok(Self {
            protocols: SwarmProtocol::all().collect(),
            results: sweep.results,
            scale_name: scale.name.to_string(),
        })
    }

    /// The cache file path for a scale.
    #[must_use]
    pub fn cache_path(scale: &Scale, out_dir: &Path) -> PathBuf {
        Self::cache_key(scale).cache_path(out_dir)
    }

    /// Runs the 90/10 robustness variant (§4.3.2's validation) and
    /// returns (50/50 rates, 90/10 rates).
    #[must_use]
    pub fn robustness_9010(&self, scale: &Scale) -> (Vec<f64>, Vec<f64>) {
        let sim = SwarmSim {
            config: scale.sim.clone(),
        };
        let r9010 = tournament_rates(&sim, &self.protocols, 0.9, &scale.pra, 7);
        (self.results.robustness.clone(), r9010)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro-sweep over a protocol subset exercises the plumbing
    /// without paying for the full space.
    #[test]
    fn quantify_micro_subset() {
        let scale = Scale::smoke();
        let protocols = vec![
            dsa_swarm::presets::bittorrent(),
            dsa_swarm::presets::birds(),
            dsa_swarm::presets::freerider(),
        ];
        let sim = SwarmSim {
            config: scale.sim.clone(),
        };
        let results = quantify(&sim, &protocols, &scale.pra);
        assert_eq!(results.len(), 3);
        // The freerider must be the worst performer of the three.
        assert!(results.performance[2] < results.performance[0]);
        assert!(results.performance[2] < results.performance[1]);
    }

    /// The swarm simulator parameters per effort level are defined in
    /// two places — the bench `Scale` presets and `SwarmDomain::sim` —
    /// and both sweep paths write the same cache file. They must agree
    /// on the full key, or each path would forever invalidate the
    /// other's cache.
    #[test]
    fn typed_and_registry_cache_keys_agree() {
        let domain = dsa_swarm::adapter::register();
        for scale in [Scale::smoke(), Scale::lab(), Scale::paper()] {
            let typed = SweepData::cache_key(&scale);
            let registry = SweepKey::of(&*domain, scale.name, scale.effort(), &scale.pra);
            assert_eq!(typed, registry, "key mismatch at scale '{}'", scale.name);
        }
    }

    #[test]
    fn cache_roundtrip() {
        let _guard = crate::test_lock::cache();
        let dir = std::env::temp_dir().join(format!("dsa-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Shrink the space cost: smoke scale with tiny parameters.
        let mut scale = Scale::smoke();
        scale.sim.rounds = 10;
        scale.sim.peers = 12;
        scale.pra.performance_runs = 1;
        scale.pra.encounter_runs = 1;
        scale.pra.sampling = dsa_core::tournament::OpponentSampling::Sampled(1);
        let a = SweepData::load_or_compute(&scale, &dir).expect("compute");
        assert!(SweepData::cache_path(&scale, &dir).exists());
        let b = SweepData::load_or_compute(&scale, &dir).expect("load");
        assert_eq!(a.results, b.results);
        // A different seed is a different sweep: the stamped cache must
        // not be trusted for it.
        let mut reseeded = scale.clone();
        reseeded.pra.seed ^= 1;
        assert_eq!(
            SweepData::cache_path(&scale, &dir),
            SweepData::cache_path(&reseeded, &dir),
            "same file, different key"
        );
        let c = SweepData::load_or_compute(&reseeded, &dir).expect("recompute");
        assert_ne!(a.results, c.results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
