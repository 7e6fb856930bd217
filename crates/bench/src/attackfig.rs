//! The `attacks` experiment: budget-vs-robustness curves per domain.
//!
//! For every registered domain × every registered attack model, runs (or
//! loads from `results/attack-<domain>-<model>-<scale>.csv`) the
//! robustness-under-budget sweep and renders one ASCII chart per domain
//! — mean robustness of the design space (y) against the adversary's
//! population budget (x), one curve per attack model — plus a summary CSV
//! at `results/attacks-<scale>.csv`. This is the Robustness axis
//! re-measured against an adversary with resources instead of the single
//! canned deviant inside each space.

use crate::scale::Scale;
use dsa_attacks::sweep::{AttackConfig, AttackSweep};
use dsa_stats::ascii;
use std::fmt::Write as _;
use std::path::Path;

/// Builds the sweep configuration for a scale, with an optional budget
/// grid override (`experiments --budgets`).
#[must_use]
pub fn attack_config(scale: &Scale, budgets: Option<&[f64]>) -> AttackConfig {
    AttackConfig {
        budgets: budgets.map_or_else(|| dsa_attacks::DEFAULT_BUDGETS.to_vec(), <[f64]>::to_vec),
        encounter_runs: scale.pra.encounter_runs,
        threads: scale.pra.threads,
        seed: scale.pra.seed,
    }
}

/// Runs the full cross-domain attack experiment.
///
/// # Errors
///
/// Returns an error when a sweep cache is corrupt or a CSV cannot be
/// written.
pub fn attacks(scale: &Scale, out_dir: &Path, budgets: Option<&[f64]>) -> Result<String, String> {
    let domains = crate::register_domains();
    let models = dsa_attacks::register_builtin();
    let cfg = attack_config(scale, budgets);
    // The chart's x axis spans the measured budget range: the first grid
    // entry sits at the left edge, so no column is drawn left of (i.e.
    // without) data — the step renderer would otherwise default to 1.0
    // there and fabricate perfect robustness below the smallest budget.
    let min_budget = cfg.budgets.iter().copied().fold(1.0f64, f64::min);
    let max_budget = cfg.budgets.iter().copied().fold(0.0f64, f64::max);
    let span = (max_budget - min_budget).max(f64::EPSILON);

    let mut out = format!(
        "Robustness under attacker budget (scale: {}, budgets {:?})\n",
        scale.name, cfg.budgets
    );
    let mut csv = String::from("domain,model,budget,mean_robustness,surviving_share\n");
    for domain in &domains {
        let _ = writeln!(
            out,
            "\n-- {} ({} protocols) -- mean robustness vs budget (x: {min_budget:.2}..{max_budget:.2})",
            domain.name(),
            domain.size()
        );
        let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        let mut table = format!(
            "{:<11} {}\n",
            "model",
            cfg.budgets
                .iter()
                .map(|b| format!("{b:>6.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for model in &models {
            let sweep = AttackSweep::load_or_compute(
                &**domain,
                &**model,
                scale.effort(),
                &cfg,
                scale.name,
                out_dir,
            )?;
            let means = sweep.mean_robustness();
            let surviving = sweep.surviving_share(0.5);
            let _ = writeln!(
                table,
                "{:<11} {}",
                model.name(),
                means
                    .iter()
                    .map(|m| format!("{m:>6.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            series.push((
                model.name().to_string(),
                cfg.budgets
                    .iter()
                    .zip(&means)
                    .map(|(&b, &m)| ((b - min_budget) / span, m))
                    .collect(),
            ));
            for ((&b, &m), &s) in cfg.budgets.iter().zip(&means).zip(&surviving) {
                let _ = writeln!(csv, "{},{},{b},{m},{s}", domain.name(), model.name());
            }
            let _ = writeln!(
                out,
                "   {} sweep {}: {}",
                model.name(),
                if sweep.from_cache {
                    "loaded from cache"
                } else {
                    "computed and cached"
                },
                sweep.path(out_dir).display()
            );
        }
        out.push_str(&ascii::ccdf_curves(&series, 60, 12));
        out.push_str(&table);
    }

    let path = out_dir.join(format!("attacks-{}.csv", scale.name));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    std::fs::write(&path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        out,
        "\nwrote {} ({} domains × {} attack models)",
        path.display(),
        domains.len(),
        models.len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_tracks_scale_and_budget_override() {
        let scale = Scale::smoke();
        let default = attack_config(&scale, None);
        assert_eq!(default.budgets, dsa_attacks::DEFAULT_BUDGETS.to_vec());
        assert_eq!(default.encounter_runs, scale.pra.encounter_runs);
        assert_eq!(default.seed, scale.pra.seed);
        let grid = [0.1, 0.25];
        let overridden = attack_config(&scale, Some(&grid));
        assert_eq!(overridden.budgets, vec![0.1, 0.25]);
    }

    /// The full experiment at smoke scale on the two small domains would
    /// still sweep the 3270-protocol swarm space; exercise the pipeline
    /// against the gossip domain alone instead.
    #[test]
    fn gossip_attack_sweep_runs_and_caches() {
        let dir = std::env::temp_dir().join(format!("dsa-attackfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_gossip::adapter::register();
        let model = dsa_attacks::models::Sybil::default();
        let cfg = AttackConfig {
            budgets: vec![0.1, 0.5],
            encounter_runs: 1,
            threads: 0,
            seed: scale.pra.seed,
        };
        let sweep =
            AttackSweep::load_or_compute(&*domain, &model, scale.effort(), &cfg, scale.name, &dir)
                .expect("sweep");
        assert!(!sweep.from_cache);
        assert!(dir.join("attack-gossip-sybil-smoke.csv").exists());
        let cached =
            AttackSweep::load_or_compute(&*domain, &model, scale.effort(), &cfg, scale.name, &dir)
                .expect("cached");
        assert!(cached.from_cache);
        assert_eq!(cached.to_csv(), sweep.to_csv());
        // More adversary budget never helps the defenders on average.
        let means = sweep.mean_robustness();
        assert!(means[0] >= means[1] - 1e-9, "means {means:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
