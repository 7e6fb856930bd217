//! The `attribution` experiment: which design dimensions drive each
//! response, per domain — the Table 3 analysis generalized to every
//! registered domain and every measured response surface.
//!
//! For each requested response (`pra`, `attack`, `evolution`) and each
//! registered domain, loads the underlying sweeps through their stamped
//! caches and the domain's attribution table
//! (`results/attrib-<domain>-<response>-<scale>.csv`, computed by
//! `dsa-attribution` only when it misses), then renders from that table
//! alone: ASCII effect-size bars per dimension, the top pairwise
//! interactions, and one dimension-flip navigator demonstration per
//! domain — then a cross-domain "which dimension matters where"
//! comparison and a summary CSV at `results/attribution-<scale>.csv`. A
//! warm pass fits nothing.

use crate::scale::Scale;
use dsa_attribution::{
    attack_surface, evolution_surface, navigate, pra_surface, AttribTable, ResponseKind,
    ResponseSurface,
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
            let part = domain_attribution(&**domain, kind, scale, out_dir)?;
            out.push_str(&part.text);
            csv.push_str(&part.csv);
            comparison.push_str(&part.comparison);
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

/// One domain's share of the attribution experiment for one response.
#[derive(Debug)]
pub struct DomainAttribution {
    /// The rendered section: provenance line, effect-size bars, top
    /// interactions and (for the PRA response) the navigator line.
    pub text: String,
    /// The domain's rows of `attribution-<scale>.csv` (no header).
    pub csv: String,
    /// The domain's line of the cross-domain comparison.
    pub comparison: String,
}

/// Loads (or, on a miss, computes and caches) one domain's attribution
/// table for response `kind` and renders its section from the table
/// alone.
///
/// # Errors
///
/// Returns an error when a sweep or attribution cache is corrupt or
/// unwritable.
pub fn domain_attribution(
    domain: &dyn DynDomain,
    kind: ResponseKind,
    scale: &Scale,
    out_dir: &Path,
) -> Result<DomainAttribution, String> {
    let surface = build_surface(domain, kind, scale, out_dir)?;
    let table = AttribTable::load_or_compute(domain, &surface, scale.pra.threads, out_dir)?;
    let provenance = |cached: bool| if cached { "from cache" } else { "computed" };
    let mut text = format!(
        "\n-- {} ({} rows over {} protocols; sources {}, table {}: {}) --\n",
        domain.name(),
        surface.rows.len(),
        domain.size(),
        provenance(surface.from_cache),
        provenance(table.from_cache),
        table.path(out_dir).display()
    );
    text.push_str(&render_table(&table));

    let mut csv = String::new();
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

    // Cross-domain comparison line: dimensions ranked by effect on the
    // first axis of this response.
    let mut comparison = String::new();
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

    if let Some(first) = table.axes.iter().find(|a| a.estimates.is_some()) {
        let top: Vec<String> = first
            .interactions
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
                text,
                "   top interactions ({}): {}",
                first.axis,
                top.join("; ")
            );
        }
    }
    if kind == ResponseKind::Pra {
        if let Some((_, start)) = domain.presets().first() {
            text.push_str(&navigator_demo(domain, &table, &surface, *start));
        }
    }
    Ok(DomainAttribution {
        text,
        csv,
        comparison,
    })
}

/// One navigator demonstration: the best verified flip improving the
/// first axis while guarding the second, from the domain's first preset.
fn navigator_demo(
    domain: &dyn DynDomain,
    table: &AttribTable,
    surface: &ResponseSurface,
    start: usize,
) -> String {
    let (Some(improve), guard) = (table.axes.first(), table.axes.get(1)) else {
        return String::new();
    };
    let suggestions = navigate(
        domain.space(),
        &surface.rows,
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
    /// Rendered cold and then warm, the section differs only in its
    /// provenance; the warm render reads every number from the table.
    #[test]
    fn gossip_renders_alike_cold_and_warm_from_the_table() {
        let dir = std::env::temp_dir().join(format!("dsa-attribfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale::smoke();
        let domain = dsa_gossip::adapter::register();
        let cold = domain_attribution(&*domain, ResponseKind::Pra, &scale, &dir).expect("cold");
        let path = dir.join("attrib-gossip-pra-smoke.csv");
        assert!(path.exists());
        assert!(cold.text.contains("table computed"), "{}", cold.text);
        assert!(cold.text.contains("adj.R2"));
        assert!(cold.text.contains("Selection"));
        assert!(cold.text.contains("top interactions (performance)"));
        assert!(cold.text.contains("navigator: from "));
        let warm = domain_attribution(&*domain, ResponseKind::Pra, &scale, &dir).expect("warm");
        assert!(warm.text.contains("sources from cache, table from cache"));
        assert_eq!(warm.text, cold.text.replace("computed", "from cache"));
        assert_eq!(warm.csv, cold.csv);
        assert_eq!(warm.comparison, cold.comparison);

        // Plant a ΔR² in the first scan row (the top pair of the first
        // axis) under the still-valid stamp: the warm render prints it.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let row = 1 + lines
            .iter()
            .position(|l| l == "axis,dim_a,dim_b,columns,delta_r2,f_stat,p_value")
            .expect("scan section");
        let mut fields: Vec<_> = dsa_core::results::split_csv(&lines[row]).collect();
        assert_eq!(fields[0], "performance");
        fields[4] = "0.987654".into();
        lines[row] = fields.join(",");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(!cold.text.contains("ΔR²=0.988"));
        let planted = domain_attribution(&*domain, ResponseKind::Pra, &scale, &dir).expect("warm");
        assert!(planted.text.contains("table from cache"));
        assert!(planted.text.contains("ΔR²=0.988"), "{}", planted.text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
