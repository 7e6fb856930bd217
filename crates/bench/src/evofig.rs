//! The `evolution` experiment: population dynamics per domain.
//!
//! For every registered domain, measures (or loads from
//! `results/evo-<domain>-<scale>.csv`) the empirical payoff matrix over
//! the domain's candidate set — presets plus canonical attackers, plus
//! any `--mutants` additions — then runs the evolutionary analysis on
//! top: ESS classification, basin-of-attraction shares, finite-population
//! fixation probabilities, the replicator trajectory from the uniform
//! mixture, and the evolutionary price of anarchy (rest-point welfare
//! over the welfare-optimal protocol's). One summary CSV lands at
//! `results/evolution-<scale>.csv`.

use crate::scale::Scale;
use dsa_evolution::analysis::{analyze, default_candidates, welfare};
use dsa_evolution::payoff::EvoConfig;
use dsa_evolution::sweep::EvoSweep;
use dsa_gametheory::evolution::replicator_trajectory;
use dsa_stats::ascii;
use std::fmt::Write as _;
use std::path::Path;

/// Builds the population-dynamics configuration for a scale.
#[must_use]
pub fn evo_config(scale: &Scale) -> EvoConfig {
    EvoConfig {
        encounter_runs: scale.pra.encounter_runs,
        threads: scale.pra.threads,
        seed: scale.pra.seed,
        ..EvoConfig::default()
    }
}

/// Resolves a domain's candidate set: its defaults plus every `--mutants`
/// token the domain can parse (tokens foreign to this domain are noted
/// and skipped, so one mutant list can serve all domains).
fn candidate_set(
    domain: &dyn dsa_core::domain::DynDomain,
    mutants: &[String],
    notes: &mut String,
) -> Vec<usize> {
    let mut candidates = default_candidates(domain);
    for token in mutants {
        match domain.parse(token) {
            Ok(index) => {
                if !candidates.contains(&index) {
                    candidates.push(index);
                }
            }
            Err(_) => {
                let _ = writeln!(
                    notes,
                    "   (mutant '{token}' is not a {} protocol — skipped)",
                    domain.name()
                );
            }
        }
    }
    candidates
}

/// Runs the full cross-domain evolution experiment.
///
/// # Errors
///
/// Returns an error when a sweep cache is corrupt or a CSV cannot be
/// written.
pub fn evolution(scale: &Scale, out_dir: &Path, mutants: &[String]) -> Result<String, String> {
    let domains = crate::register_domains();
    let cfg = evo_config(scale);
    let mut out = format!(
        "Population dynamics over mixed-protocol populations (scale: {}, mutant share {:.0}%)\n",
        scale.name,
        cfg.mutant_share * 100.0
    );
    let mut csv =
        String::from("domain,index,name,ess,basin_share,fixation,self_welfare,ess_share,poa\n");
    for domain in &domains {
        let mut notes = String::new();
        let candidates = candidate_set(&**domain, mutants, &mut notes);
        let sweep = EvoSweep::load_or_compute(
            &**domain,
            &candidates,
            scale.effort(),
            &cfg,
            scale.name,
            out_dir,
        )?;
        let matrix = &sweep.matrix;
        let analysis = analyze(matrix, &cfg);
        let _ = writeln!(
            out,
            "\n-- {} ({} candidates of {} protocols, population {}) --",
            domain.name(),
            matrix.len(),
            domain.size(),
            matrix.population
        );
        out.push_str(&notes);
        let _ = writeln!(
            out,
            "   matrix {}: {}",
            if sweep.from_cache {
                "loaded from cache"
            } else {
                "computed and cached"
            },
            sweep.path(out_dir).display()
        );

        // The payoff cross-table, shaded: who exploits whom.
        out.push_str("   empirical payoff matrix (row's utility against column):\n");
        out.push_str(&ascii::matrix_heat(&matrix.payoff, &matrix.names));

        // Per-candidate table (rendering shared with `dsa .. evolve ess`).
        out.push_str(&analysis.candidate_table(matrix));
        for i in 0..matrix.len() {
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{},{}",
                domain.name(),
                matrix.candidates[i],
                dsa_core::results::quote_csv(&matrix.names[i]),
                u8::from(analysis.ess[i]),
                analysis.basin_share[i],
                analysis.fixation[i],
                matrix.payoff[i][i],
                analysis.ess_share(),
                analysis.poa
            );
        }
        if analysis.mixed_share > 0.0 {
            let _ = writeln!(
                out,
                "   ({:.0}% of sampled mixtures rest at no single protocol)",
                analysis.mixed_share * 100.0
            );
        }

        // Replicator trajectory from the uniform mixture: share curves
        // over (normalized) time.
        let k = matrix.len();
        let uniform = vec![1.0 / k as f64; k];
        let steps = 60;
        let trajectory = replicator_trajectory(&matrix.payoff, &uniform, steps);
        let series: Vec<(String, Vec<(f64, f64)>)> = (0..k)
            .map(|i| {
                (
                    matrix.names[i].clone(),
                    trajectory
                        .iter()
                        .enumerate()
                        .map(|(t, mix)| (t as f64 / steps as f64, mix[i]))
                        .collect(),
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "   replicator shares from the uniform mixture (x: 0..{steps} steps):"
        );
        out.push_str(&ascii::ccdf_curves(&series, 60, 12));
        let final_mix = trajectory.last().expect("non-empty trajectory");
        let _ = writeln!(
            out,
            "   uniform-start welfare after {steps} steps: {:.3}",
            welfare(&matrix.payoff, final_mix)
        );
        let _ = writeln!(out, "   {}", analysis.summary_line(matrix));
    }

    let path = out_dir.join(format!("evolution-{}.csv", scale.name));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    std::fs::write(&path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        out,
        "\nwrote {} ({} domains)",
        path.display(),
        domains.len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_tracks_scale() {
        let scale = Scale::smoke();
        let cfg = evo_config(&scale);
        assert_eq!(cfg.encounter_runs, scale.pra.encounter_runs);
        assert_eq!(cfg.seed, scale.pra.seed);
        assert_eq!(cfg.mutant_share, EvoConfig::default().mutant_share);
    }

    #[test]
    fn candidate_set_extends_defaults_and_skips_foreign_mutants() {
        let domain = dsa_gossip::adapter::register();
        let mut notes = String::new();
        let base = candidate_set(&*domain, &[], &mut notes);
        assert_eq!(base, default_candidates(&*domain));
        assert!(notes.is_empty());
        // "7" parses everywhere; "bartercast" is a rep preset only.
        let extended = candidate_set(
            &*domain,
            &["7".to_string(), "bartercast".to_string()],
            &mut notes,
        );
        assert!(extended.contains(&7));
        assert_eq!(extended.len(), base.len() + 1);
        assert!(notes.contains("bartercast"));
    }

    /// The full experiment at smoke scale would sweep the swarm space;
    /// exercise the per-domain pipeline against gossip alone instead.
    #[test]
    fn gossip_evolution_runs_and_caches() {
        let _guard = crate::test_lock::cache();
        let dir = std::env::temp_dir().join(format!("dsa-evofig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_gossip::adapter::register();
        let cfg = EvoConfig {
            encounter_runs: 1,
            basin_samples: 8,
            moran_trials: 20,
            ..evo_config(&scale)
        };
        let candidates = default_candidates(&*domain);
        let sweep = EvoSweep::load_or_compute(
            &*domain,
            &candidates,
            scale.effort(),
            &cfg,
            scale.name,
            &dir,
        )
        .expect("sweep");
        assert!(!sweep.from_cache);
        assert!(dir.join("evo-gossip-smoke.csv").exists());
        let analysis = analyze(&sweep.matrix, &cfg);
        assert_eq!(analysis.ess.len(), candidates.len());
        // Shares are probabilities and the PoA is a finite ratio.
        assert!(analysis.basin_share.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(analysis.poa.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
