//! The reputation-domain DSA demonstration (the third domain; §7's
//! "domains other than P2P" future work applied to trust systems).
//!
//! The generic sweep/report pipeline lives in [`crate::prafig`]; this
//! module keeps only what is genuinely reputation-specific — the
//! whitewashing-attack figure.

use crate::prafig;
use crate::scale::Scale;
use dsa_core::cache::DomainSweep;
use dsa_core::sim::EncounterSim;
use dsa_reputation::adapter::RepSim;
use dsa_reputation::engine::RepConfig;
use dsa_reputation::presets;
use dsa_reputation::protocol::RepProtocol;
use std::fmt::Write as _;
use std::path::Path;

/// Runs (or loads from `results/`) the PRA sweep over the 288-protocol
/// reputation space and reports the extremes plus where the canonical
/// presets and attackers land.
///
/// # Errors
///
/// Returns an error when the sweep cache is corrupt or unwritable.
pub fn reputation_dsa(scale: &Scale, out_dir: &Path) -> Result<String, String> {
    let domain = dsa_reputation::adapter::register();
    let sweep =
        DomainSweep::load_or_compute(&*domain, scale.effort(), &scale.pra, scale.name, out_dir)?;
    Ok(prafig::domain_dsa(&*domain, &sweep, out_dir))
}

/// The whitewashing-attack figure: each host preset faces a 10% minority
/// of free-riders and of whitewashers; the attacker's per-peer take
/// relative to the host's measures how well the mechanism resists
/// identity churn.
#[must_use]
pub fn whitewash_attack(seed: u64) -> String {
    let sim = RepSim {
        config: RepConfig::default(),
    };
    let mut out =
        String::from("Whitewashing attack: attacker/host utility ratio at a 90/10 split\n");
    let _ = writeln!(
        out,
        "{:<62} {:>10} {:>12} {:>9}",
        "host protocol", "freerider", "whitewasher", "amplif."
    );
    let hosts = [
        ("private-tft", presets::private_tft()),
        ("bartercast", presets::bartercast()),
        ("elitist", presets::elitist()),
        ("baseline", RepProtocol::baseline()),
    ];
    // One task per (host, attacker) cell; seeds derive from the cell's
    // tags, not from any loop order, so the parallel map is bit-identical
    // to the old serial sweep.
    let ratios = dsa_core::parallel::parallel_map_indexed(hosts.len() * 2, 0, |task| {
        let host = hosts[task / 2].1;
        let (attacker, tag) = if task % 2 == 0 {
            (presets::freerider(), 0x1000u64)
        } else {
            (presets::whitewasher(), 0x2000u64)
        };
        let runs = 5;
        let mut acc = 0.0;
        for r in 0..runs {
            let (h, a) = sim.run_encounter(
                &host,
                &attacker,
                0.9,
                seed.wrapping_add(tag).wrapping_add(r),
            );
            acc += if h > 0.0 { a / h } else { 0.0 };
        }
        acc / runs as f64
    });
    for (i, (name, host)) in hosts.iter().enumerate() {
        let (fr, ww) = (ratios[2 * i], ratios[2 * i + 1]);
        let amplification = if fr > 1e-12 { ww / fr } else { f64::INFINITY };
        let _ = writeln!(
            out,
            "{:<62} {fr:>10.3} {ww:>12.3} {amplification:>8.2}x",
            format!("{name} ({host})"),
        );
    }
    out.push_str("(amplif. > 1: shedding identity beats honest free-riding against that host)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reputation_dsa_runs_caches_and_reports() {
        let _guard = crate::test_lock::cache();
        let dir = std::env::temp_dir().join(format!("dsa-repfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let s = reputation_dsa(&scale, &dir).expect("sweep");
        assert!(s.contains("top performance"));
        assert!(s.contains("whitewasher"));
        assert!(s.contains("Pearson"));
        assert!(s.contains("computed and cached"));
        // The second run must reuse the results/ cache.
        let s2 = reputation_dsa(&scale, &dir).expect("cached sweep");
        assert!(s2.contains("loaded from cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_space_hash_stamp_is_recomputed_not_trusted() {
        let _guard = crate::test_lock::cache();
        // The EigenTrust actualization grew the reputation space from 216
        // to 288 protocols, which changes the space-shape hash: a cache
        // stamped under the old shape (e.g. a committed pra-rep-*.csv from
        // before the change) must be treated as stale, never loaded.
        let dir = std::env::temp_dir().join(format!("dsa-repstale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_reputation::adapter::register();
        let key = dsa_core::cache::SweepKey::of(&*domain, scale.name, scale.effort(), &scale.pra);
        // Fabricate a pre-EigenTrust cache: same path, old shape hash and
        // old protocol count under an otherwise identical stamp.
        let mut stale = key.clone();
        stale.space_hash ^= 0x0216;
        stale.len = 216;
        let body = "index,name,performance_raw,performance,robustness,aggressiveness\n";
        dsa_core::cache::write_stamped(&key.cache_path(&dir), &stale, body).unwrap();
        assert!(
            DomainSweep::load(&key, &dir).unwrap().is_none(),
            "a stamp under the old space shape must not validate the new key"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whitewash_attack_renders_all_hosts() {
        let s = super::whitewash_attack(5);
        assert!(s.contains("private-tft"));
        assert!(s.contains("bartercast"));
        assert!(s.contains("amplif"));
    }
}
