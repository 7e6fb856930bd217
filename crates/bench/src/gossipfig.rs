//! The gossip-domain DSA demonstration (Section 3.1's example space,
//! §7's "domains other than P2P" future work).
//!
//! All the sweep/report plumbing is the generic pipeline in
//! [`crate::prafig`]; this module just binds it to the gossip domain.

use crate::prafig;
use crate::scale::Scale;
use dsa_core::cache::DomainSweep;
use std::path::Path;

/// Runs (or loads from `results/`) the PRA sweep over the 108-protocol
/// gossip space and reports the extremes and preset ranks.
///
/// # Errors
///
/// Returns an error when the sweep cache is corrupt or unwritable.
pub fn gossip_dsa(scale: &Scale, out_dir: &Path) -> Result<String, String> {
    let domain = dsa_gossip::adapter::register();
    let sweep =
        DomainSweep::load_or_compute(&*domain, scale.effort(), &scale.pra, scale.name, out_dir)?;
    Ok(prafig::domain_dsa(&*domain, &sweep, out_dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_dsa_runs_caches_and_reports() {
        let dir = std::env::temp_dir().join(format!("dsa-gossipfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let s = gossip_dsa(&scale, &dir).expect("sweep");
        assert!(s.contains("top performance"));
        assert!(s.contains("Pearson"));
        let s2 = gossip_dsa(&scale, &dir).expect("cached sweep");
        assert!(s2.contains("loaded from cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
