//! The `attribution` experiment: which design dimensions drive each
//! response, per domain — the Table 3 analysis generalized to every
//! registered domain and every measured response surface.
//!
//! For each requested response (`pra`, `attack`, `evolution`) and each
//! registered domain, loads the underlying sweeps through their stamped
//! caches, fits the per-axis attribution (`dsa-attribution`), renders
//! ASCII effect-size bars per dimension, the top pairwise interactions,
//! and one dimension-flip navigator demonstration per domain — then a
//! cross-domain "which dimension matters where" comparison and a summary
//! CSV at `results/attribution-<scale>.csv`. Derived tables cache at
//! `results/attrib-<domain>-<response>-<scale>.csv`.

use crate::scale::Scale;
use dsa_attribution::{
    attack_surface, evolution_surface, interaction_scan, navigate, pra_surface, AttribTable,
    DesignMatrix, ResponseKind, ResponseSurface,
};
use dsa_core::domain::DynDomain;
use dsa_stats::ascii;
use std::fmt::Write as _;
use std::path::Path;

/// Builds the response surface of `kind` for a domain at a scale, going
/// through the workspace's stamped sweep caches (PRA / attack / evo).
/// Configurations mirror the `attacks` and `evolution` experiments, so a
/// `results/` directory warmed by those experiments serves attributions
/// without re-simulating anything.
///
/// # Errors
///
/// Returns an error when a sweep cache is corrupt or unwritable.
pub fn build_surface(
    domain: &dyn DynDomain,
    kind: ResponseKind,
    scale: &Scale,
    out_dir: &Path,
) -> Result<ResponseSurface, String> {
    match kind {
        ResponseKind::Pra => pra_surface(domain, scale.effort(), &scale.pra, scale.name, out_dir),
        ResponseKind::Attack => {
            let models = dsa_attacks::register_builtin();
            let cfg = crate::attackfig::attack_config(scale, None);
            attack_surface(domain, &models, scale.effort(), &cfg, scale.name, out_dir)
        }
        ResponseKind::Evolution => {
            let cfg = crate::evofig::evo_config(scale);
            let candidates = dsa_evolution::default_candidates(domain);
            evolution_surface(
                domain,
                &candidates,
                scale.effort(),
                &cfg,
                scale.name,
                out_dir,
            )
        }
    }
}

/// Parses the `--response` list (comma-separated kind names).
///
/// # Errors
///
/// Returns a message naming the first unknown kind.
pub fn parse_responses(spec: &str) -> Result<Vec<ResponseKind>, String> {
    let mut out = Vec::new();
    for token in spec.split(',') {
        let token = token.trim();
        let kind = ResponseKind::by_name(token)
            .ok_or_else(|| format!("unknown response '{token}' (pra|attack|evolution)"))?;
        if !out.contains(&kind) {
            out.push(kind);
        }
    }
    if out.is_empty() {
        return Err("--response needs at least one of pra|attack|evolution".into());
    }
    Ok(out)
}

/// The displayed effect size of a dimension: partial η² from the full
/// model when the surface supports it, one-way η² otherwise (with the
/// fallback flagged by the caller).
fn effect_size(d: &dsa_attribution::DimEffect) -> f64 {
    if d.partial_eta_sq.is_finite() {
        d.partial_eta_sq
    } else {
        d.eta_sq
    }
}

/// Renders one domain's attribution table: per-axis R² line plus
/// effect-size bars per dimension (shared with `dsa <domain> attribute
/// fit`).
#[must_use]
pub fn render_table(table: &AttribTable) -> String {
    let mut out = String::new();
    for axis in &table.axes {
        if axis.r2.is_finite() {
            let _ = writeln!(
                out,
                "   {} — adj.R2 = {:.2} (R2 {:.2}, n = {}, main effects):",
                axis.axis, axis.adj_r2, axis.r2, axis.n
            );
        } else {
            let _ = writeln!(
                out,
                "   {} — no full regression on this surface (n = {}: too few rows \
                 or an aliased design); one-way η² only:",
                axis.axis, axis.n
            );
        }
        let entries: Vec<(String, f64, Option<f64>)> = axis
            .dims
            .iter()
            .map(|d| {
                let sig = if d.p_value.is_finite() && d.p_value < 0.001 {
                    " ***"
                } else {
                    ""
                };
                (
                    format!("{} ({} levels){sig}", d.name, d.levels),
                    effect_size(d),
                    None,
                )
            })
            .collect();
        for line in ascii::bars(&entries, 40).lines() {
            let _ = writeln!(out, "     {line}");
        }
    }
    out
}

/// Runs the full cross-domain attribution experiment.
///
/// # Errors
///
/// Returns an error when a sweep cache is corrupt or a CSV cannot be
/// written.
pub fn attribution(
    scale: &Scale,
    out_dir: &Path,
    responses: &[ResponseKind],
) -> Result<String, String> {
    let domains = crate::register_domains();
    let mut out = format!(
        "Variance attribution: which design dimensions drive each response (scale: {})\n",
        scale.name
    );
    let mut csv = String::from(
        "response,domain,axis,dimension,levels,eta_sq,partial_eta_sq,f_stat,p_value,r2,adj_r2,n\n",
    );
    for &kind in responses {
        let _ = writeln!(out, "\n==== response: {} ====", kind.name());
        let mut comparison = String::new();
        for domain in &domains {
            let surface = build_surface(&**domain, kind, scale, out_dir)?;
            // The interaction map and navigator need the live fits, so
            // compute them once up front and derive the cached summary
            // table from the same attributions (the stamped cache still
            // short-circuits the summary when warm).
            let dm = DesignMatrix::build(domain.space(), &surface.rows, scale.pra.threads);
            let axes = dsa_attribution::attribute_surface(&dm, &surface);
            let key = surface
                .base
                .clone()
                .with_attrib(dsa_attribution::fingerprint(&surface));
            let table = match AttribTable::load(&key, &surface.response, out_dir)? {
                Some(cached) => cached,
                None => {
                    let fresh = AttribTable::from_axes(&surface, &axes);
                    fresh.store(out_dir)?;
                    fresh
                }
            };
            let _ = writeln!(
                out,
                "\n-- {} ({} rows over {} protocols; sources {}, table {}: {}) --",
                domain.name(),
                surface.rows.len(),
                domain.size(),
                if surface.from_cache {
                    "from cache"
                } else {
                    "computed"
                },
                if table.from_cache {
                    "from cache"
                } else {
                    "computed"
                },
                table.path(out_dir).display()
            );
            out.push_str(&render_table(&table));

            for axis in &table.axes {
                for d in &axis.dims {
                    let _ = writeln!(
                        csv,
                        "{},{},{},{},{},{},{},{},{},{},{},{}",
                        kind.name(),
                        domain.name(),
                        dsa_core::results::quote_csv(&axis.axis),
                        dsa_core::results::quote_csv(&d.name),
                        d.levels,
                        d.eta_sq,
                        d.partial_eta_sq,
                        d.f_stat,
                        d.p_value,
                        axis.r2,
                        axis.adj_r2,
                        axis.n
                    );
                }
            }

            // Cross-domain comparison line: dimensions ranked by effect
            // on the first axis of this response.
            if let Some(axis) = table.axes.first() {
                let mut ranked: Vec<(&str, f64)> = axis
                    .dims
                    .iter()
                    .map(|d| (d.name.as_str(), effect_size(d)))
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let _ = writeln!(
                    comparison,
                    "{:<8} ({}): {}",
                    domain.name(),
                    axis.axis,
                    ranked
                        .iter()
                        .map(|(n, e)| format!("{n} {e:.2}"))
                        .collect::<Vec<_>>()
                        .join(" > ")
                );
            }

            if let Some(first) = axes.iter().find(|a| a.fit.is_some()) {
                let y = &surface
                    .axes
                    .iter()
                    .find(|(n, _)| *n == first.axis)
                    .expect("axis present")
                    .1;
                let scan = interaction_scan(&dm, y);
                let top: Vec<String> = scan
                    .iter()
                    .take(3)
                    .filter(|i| i.delta_r2.is_finite())
                    .map(|i| {
                        format!(
                            "{}×{} ΔR²={:.3} (F={:.1}{})",
                            i.dim_a,
                            i.dim_b,
                            i.delta_r2,
                            i.f_stat,
                            if i.p_value < 0.001 { ", p<0.001" } else { "" }
                        )
                    })
                    .collect();
                if !top.is_empty() {
                    let _ = writeln!(
                        out,
                        "   top interactions ({}): {}",
                        first.axis,
                        top.join("; ")
                    );
                }
            }
            if kind == ResponseKind::Pra {
                if let Some((_, start)) = domain.presets().first() {
                    out.push_str(&navigator_demo(&**domain, &dm, &axes, &surface, *start));
                }
            }
        }
        let _ = writeln!(
            out,
            "\nwhich dimension matters where ({} response, first axis, effect sizes):",
            kind.name()
        );
        out.push_str(&comparison);
    }

    let path = out_dir.join(format!("attribution-{}.csv", scale.name));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    std::fs::write(&path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        out,
        "\nwrote {} ({} domains × {} responses)",
        path.display(),
        domains.len(),
        responses.len()
    );
    Ok(out)
}

/// One navigator demonstration: the best verified flip improving the
/// first axis while guarding the second, from the domain's first preset.
fn navigator_demo(
    domain: &dyn DynDomain,
    dm: &DesignMatrix,
    axes: &[dsa_attribution::AxisAttribution],
    surface: &ResponseSurface,
    start: usize,
) -> String {
    let (Some(improve), guard) = (axes.first(), axes.get(1)) else {
        return String::new();
    };
    let suggestions = navigate(
        domain.space(),
        dm,
        improve,
        guard,
        &surface.axes[0].1,
        surface.axes.get(1).map(|(_, y)| y.as_slice()),
        start,
        0.05,
        1,
    );
    let Some(f) = suggestions.first() else {
        return format!(
            "   navigator: no single flip from {} improves {} without hurting {}\n",
            domain.code(start),
            improve.axis,
            guard.map_or("(nothing)", |g| g.axis.as_str()),
        );
    };
    format!(
        "   navigator: from {} flip {} {}→{}: predicted Δ{} {:+.3} (measured {:+.3}), guard Δ {:+.3} (measured {:+.3}){}\n",
        domain.code(start),
        f.dim,
        f.from_level,
        f.to_level,
        improve.axis,
        f.predicted_improve,
        f.actual_improve,
        f.predicted_guard,
        f.actual_guard,
        if f.verified(0.05) { " [verified]" } else { " [NOT confirmed by the sweep]" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_list_parses_and_dedupes() {
        let kinds = parse_responses("pra,attack,pra").unwrap();
        assert_eq!(kinds, vec![ResponseKind::Pra, ResponseKind::Attack]);
        assert!(parse_responses("nonsense").is_err());
        assert!(parse_responses("").is_err());
    }

    /// The full experiment at smoke scale would sweep the swarm space;
    /// exercise the per-domain pipeline against gossip alone instead.
    #[test]
    fn gossip_attribution_surface_builds_and_caches() {
        let _guard = crate::test_lock::cache();
        let dir = std::env::temp_dir().join(format!("dsa-attribfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_gossip::adapter::register();
        let surface = build_surface(&*domain, ResponseKind::Pra, &scale, &dir).expect("surface");
        assert_eq!(surface.axes.len(), 3);
        let table = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("table");
        assert!(dir.join("attrib-gossip-pra-smoke.csv").exists());
        let rendered = render_table(&table);
        assert!(rendered.contains("adj.R2"));
        assert!(rendered.contains("Selection"));
        // Reload hits the cache.
        let again = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("cached");
        assert!(again.from_cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
