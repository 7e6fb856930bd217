//! The typed swarm-domain view of the generic sweep cache.
//!
//! Figures 2–8 and Table 3 are all views of one sweep over the
//! 3270-protocol swarm space, and they need *typed* protocol descriptors
//! ([`SwarmProtocol`]) to group by dimension. The sweep itself is the
//! registry's: [`SweepKey::of`] and [`DomainSweep::load_or_compute`] over
//! the swarm domain at the scale's effort, the same calls that serve the
//! gossip and reputation sweeps. This module only pairs its results with
//! the typed descriptors. The swarm cache file is
//! `results/pra-swarm-<scale>.csv`.

use crate::scale::Scale;
use dsa_core::cache::{DomainSweep, SweepKey};
use dsa_core::results::PraResults;
use dsa_swarm::protocol::SwarmProtocol;
use std::path::Path;

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
    /// The generic cache key of the swarm sweep at a scale.
    #[must_use]
    pub fn cache_key(scale: &Scale) -> SweepKey {
        let swarm = dsa_swarm::adapter::register();
        SweepKey::of(&*swarm, scale.name, scale.effort(), &scale.pra)
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
        let swarm = dsa_swarm::adapter::register();
        let sweep =
            DomainSweep::load_or_compute(&*swarm, scale.effort(), &scale.pra, scale.name, out_dir)?;
        Ok(Self {
            protocols: SwarmProtocol::all().collect(),
            results: sweep.results,
            scale_name: scale.name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::domain::{Domain, Effort};
    use dsa_core::pra::quantify;

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
        let sim = dsa_swarm::adapter::SwarmDomain.sim(Effort::Smoke, 0.0);
        let results = quantify(&sim, &protocols, &scale.pra);
        assert_eq!(results.len(), 3);
        // The freerider must be the worst performer of the three.
        assert!(results.performance[2] < results.performance[0]);
        assert!(results.performance[2] < results.performance[1]);
    }

    /// A synthetic sweep stored under the smoke key loads back as it was
    /// written, and the key of another seed does not validate the same
    /// file. Nothing is simulated.
    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dsa-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_swarm::adapter::register();
        let raw: Vec<f64> = (0..domain.size()).map(|i| (i % 11) as f64).collect();
        let rob: Vec<f64> = (0..domain.size()).map(|i| (i % 7) as f64 / 6.0).collect();
        let perf = dsa_stats::describe::normalize_by_max(&raw);
        let sweep = DomainSweep {
            key: SweepData::cache_key(&scale),
            names: domain.codes(),
            results: PraResults::new(raw, perf, rob.clone(), rob),
            from_cache: false,
        };
        let path = sweep.store(&dir).expect("store");
        let loaded = SweepData::load_or_compute(&scale, &dir).expect("load");
        assert_eq!(loaded.results, sweep.results);
        assert_eq!(loaded.protocols.len(), domain.size());
        // A different seed is a different sweep: the stamped cache must
        // not be trusted for it.
        let mut reseeded = scale.clone();
        reseeded.pra.seed ^= 1;
        let key = SweepData::cache_key(&reseeded);
        assert_eq!(key.cache_path(&dir), path, "same file, different key");
        assert!(DomainSweep::load(&key, &dir).expect("read").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
