//! The stamped-CSV cache for derived attribution tables.
//!
//! An attribution table holds everything the attribution surfaces print,
//! so a warm `experiments attribution` or `dsa <domain> attribute
//! {fit,interactions,navigate}` renders from the table alone and fits
//! nothing. Version 2 of the table ([`SPEC_VERSION`]) holds, per response
//! axis:
//!
//! * the summary: n, R², adjusted R² and each coded dimension's effect
//!   sizes (one-way η², partial η², nested F and its p-value);
//! * the main-effects estimates of every present level of every coded
//!   dimension, baseline first at 0 — only for axes the main-effects
//!   model fits (what the dimension-flip navigator differences);
//! * the pairwise interaction scan, ranked by incremental R² — the swarm
//!   space's scan factors a 1092-column model, which is why the table is
//!   worth caching rather than cheap to recompute.
//!
//! Only a cache miss fits: [`AttribTable::load_or_compute`] builds the
//! design, runs [`attribute_axis`] and [`interaction_scan`] per axis and
//! stores the result. The table is a published artifact as well
//! (`experiments attribution` quotes it, downstream tooling reads it), so
//! it carries the same self-invalidating stamp discipline as the sweeps
//! themselves: one file per (domain, response, scale) at
//! `results/attrib-<domain>-<response>-<scale>.csv`, stamped with the
//! base sweep key re-fingerprinted through the `attrib=` field. The
//! fingerprint hashes the *source sweeps' stamps* plus the model
//! specification, so a recomputed underlying sweep, a different response,
//! or a changed attribution model (a version 1 table, too) all mismatch
//! and recompute — while PRA, attack and evo stamps live in different
//! files under different fingerprint fields and stay untouched.

use crate::design::DesignMatrix;
use crate::fit::{attribute_axis, interaction_scan, DimEffect, InteractionEffect};
use crate::response::ResponseSurface;
use dsa_core::cache::{read_stamped, write_stamped, SweepKey};
use dsa_core::domain::{fnv1a, DynDomain};
use dsa_core::results::{check_csv_field, quote_csv, split_csv};
use std::borrow::Cow;
use std::path::{Path, PathBuf};

/// The attribution model specification, hashed into every table's
/// fingerprint: editing the model (different coding, different effect
/// sizes) or the table's contents invalidates cached tables computed
/// under the old one.
pub const SPEC_VERSION: &str =
    "attrib v2 dummy-main-effects oneway-eta partial-eta nested-F level-estimates interaction-scan";

/// The summary section's header line.
const SUMMARY_HEADER: &str =
    "axis,dimension,levels,eta_sq,partial_eta_sq,f_stat,p_value,r2,adj_r2,n";
/// The estimate section's header line.
const ESTIMATE_HEADER: &str = "axis,dimension,level,estimate";
/// The interaction-scan section's header line.
const SCAN_HEADER: &str = "axis,dim_a,dim_b,columns,delta_r2,f_stat,p_value";

/// The main-effects estimate of one present level of a coded dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEstimate {
    /// The level's index in the space descriptor.
    pub level: usize,
    /// Its fitted indicator coefficient; 0 for the baseline level.
    pub estimate: f64,
}

/// One axis' cached attribution: fit quality, per-dimension effects, the
/// main-effects estimates and the interaction scan.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSummary {
    /// Axis name.
    pub axis: String,
    /// Number of observations.
    pub n: usize,
    /// R² of the main-effects model (`NaN` when infeasible).
    pub r2: f64,
    /// Adjusted R² of the main-effects model (`NaN` when infeasible).
    pub adj_r2: f64,
    /// Per-dimension effects, in space-descriptor order.
    pub dims: Vec<DimEffect>,
    /// The main-effects estimates, one list per entry of `dims` holding
    /// that dimension's present levels in enumeration order (baseline
    /// first); `None` when the surface supports no main-effects fit.
    pub estimates: Option<Vec<Vec<LevelEstimate>>>,
    /// Every pair of `dims`, ranked by incremental R² (infeasible pairs
    /// last), as [`interaction_scan`] returns them.
    pub interactions: Vec<InteractionEffect>,
}

impl AxisSummary {
    /// Attributes one response axis over a design matrix: the fit, the
    /// effect sizes and the interaction scan — the cache-miss path.
    pub(crate) fn attribute(dm: &DesignMatrix, axis: &str, y: &[f64]) -> Self {
        let at = attribute_axis(dm, axis, y);
        let estimates = at.fit.as_ref().map(|fit| {
            dm.dims
                .iter()
                .map(|code| {
                    code.levels
                        .iter()
                        .map(|&level| LevelEstimate {
                            level,
                            // terms[0] is the intercept; column j is term j + 1.
                            estimate: code
                                .column_of(level)
                                .map_or(0.0, |col| fit.terms[col + 1].estimate),
                        })
                        .collect()
                })
                .collect()
        });
        Self {
            r2: at.r_squared(),
            adj_r2: at.adj_r_squared(),
            axis: at.axis,
            n: at.n,
            dims: at.dims,
            estimates,
            interactions: interaction_scan(dm, y),
        }
    }

    /// The fitted estimate of `level` of coded dimension `coded_dim` (an
    /// index into `dims`) — 0 for the baseline level — or `None` without
    /// a fit or for a level absent from the surface. This is what the
    /// dimension-flip navigator differences.
    #[must_use]
    pub fn level_estimate(&self, coded_dim: usize, level: usize) -> Option<f64> {
        self.estimates
            .as_ref()?
            .get(coded_dim)?
            .iter()
            .find(|e| e.level == level)
            .map(|e| e.estimate)
    }
}

/// A derived attribution table with its key and provenance.
#[derive(Debug, Clone)]
pub struct AttribTable {
    /// The key the table was computed (or validated) under.
    pub key: SweepKey,
    /// Response-surface name (part of the cache file name).
    pub response: String,
    /// One summary per response axis.
    pub axes: Vec<AxisSummary>,
    /// Whether this table was served from the cache.
    pub from_cache: bool,
}

/// The `attrib=` fingerprint of a surface under the current model
/// specification. Never 0, so an attribution stamp can never validate a
/// plain sweep.
#[must_use]
pub fn fingerprint(surface: &ResponseSurface) -> u64 {
    fingerprint_under(SPEC_VERSION, surface)
}

/// The `attrib=` fingerprint of a surface under model specification
/// `spec`.
fn fingerprint_under(spec: &str, surface: &ResponseSurface) -> u64 {
    let axis_names: Vec<&str> = surface.axes.iter().map(|(n, _)| n.as_str()).collect();
    let canon = format!(
        "{spec}|response={}|axes={axis_names:?}|sources:\n{}",
        surface.response, surface.sources
    );
    fnv1a(canon.as_bytes()).max(1)
}

impl AttribTable {
    /// The cache file path for a (domain, response, scale) triple.
    #[must_use]
    pub fn cache_path(out_dir: &Path, domain: &str, response: &str, scale: &str) -> PathBuf {
        out_dir.join(format!("attrib-{domain}-{response}-{scale}.csv"))
    }

    /// This table's own cache file path.
    #[must_use]
    pub fn path(&self, out_dir: &Path) -> PathBuf {
        Self::cache_path(out_dir, &self.key.domain, &self.response, &self.key.scale)
    }

    /// Computes the table from a surface (no caching): one design build,
    /// then the fit, effect sizes and interaction scan of every axis.
    #[must_use]
    pub fn compute(domain: &dyn DynDomain, surface: &ResponseSurface, threads: usize) -> Self {
        let dm = DesignMatrix::build(domain.space(), &surface.rows, threads);
        Self {
            key: surface.base.clone().with_attrib(fingerprint(surface)),
            response: surface.response.clone(),
            axes: surface
                .axes
                .iter()
                .map(|(name, y)| AxisSummary::attribute(&dm, name, y))
                .collect(),
            from_cache: false,
        }
    }

    /// Attempts to load a cached table matching `key`. Returns `Ok(None)`
    /// for every "recompute, don't trust" case: missing file, missing or
    /// mismatched stamp (any other fingerprint — a changed source sweep,
    /// response set or model spec), or a body with no rows.
    ///
    /// # Errors
    ///
    /// Returns an error when the stamp matches but the body cannot be
    /// parsed, a section included (corruption and truncation must
    /// surface, not be silently recomputed over).
    pub fn load(key: &SweepKey, response: &str, out_dir: &Path) -> Result<Option<Self>, String> {
        let path = Self::cache_path(out_dir, &key.domain, response, &key.scale);
        let Some(body) = read_stamped(&path, key)? else {
            return Ok(None);
        };
        let axes = parse_body(&body)
            .map_err(|e| format!("corrupt attribution cache {}: {e}", path.display()))?;
        if axes.is_empty() {
            return Ok(None);
        }
        Ok(Some(Self {
            key: key.clone(),
            response: response.to_string(),
            axes,
            from_cache: true,
        }))
    }

    /// Loads the cached table for (domain, surface), or computes and
    /// caches it. Either way the table has one summary per surface axis,
    /// in the surface's order.
    ///
    /// # Errors
    ///
    /// Returns an error when a matching cache exists but is corrupt (its
    /// axes not the surface's included), or the cache cannot be written.
    pub fn load_or_compute(
        domain: &dyn DynDomain,
        surface: &ResponseSurface,
        threads: usize,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let key = surface.base.clone().with_attrib(fingerprint(surface));
        if let Some(cached) = Self::load(&key, &surface.response, out_dir)? {
            let names = surface.axes.iter().map(|(name, _)| name);
            if !cached.axes.iter().map(|a| &a.axis).eq(names) {
                return Err(format!(
                    "corrupt attribution cache {}: its axes are not the surface's",
                    cached.path(out_dir).display()
                ));
            }
            return Ok(cached);
        }
        let table = Self::compute(domain, surface, threads);
        table.store(out_dir)?;
        Ok(table)
    }

    /// Writes the table to its cache path via
    /// [`dsa_core::cache::write_stamped`] (atomic temp sibling + rename).
    ///
    /// # Errors
    ///
    /// Returns an error when an axis or dimension name holds a line break (see
    /// [`check_csv_field`]), before anything is written, and when the
    /// directory or file cannot be written.
    pub fn store(&self, out_dir: &Path) -> Result<PathBuf, String> {
        for axis in &self.axes {
            check_csv_field(&axis.axis)?;
            for d in &axis.dims {
                check_csv_field(&d.name)?;
            }
            for i in &axis.interactions {
                check_csv_field(&i.dim_a)?;
                check_csv_field(&i.dim_b)?;
            }
        }
        let path = self.path(out_dir);
        write_stamped(&path, &self.key, &self.to_csv())?;
        Ok(path)
    }

    /// The body CSV (no stamp line): three sections, each under its own
    /// header — one summary row per (axis, dimension), one estimate row
    /// per (fitted axis, dimension, present level), one scan row per
    /// (axis, dimension pair) in rank order. `{}` on f64 prints the
    /// shortest representation that parses back bit-identically (`NaN`
    /// and `inf` round-trip too), so cached and fresh tables never
    /// diverge.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("{SUMMARY_HEADER}\n");
        for axis in &self.axes {
            for d in &axis.dims {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{}\n",
                    quote_csv(&axis.axis),
                    quote_csv(&d.name),
                    d.levels,
                    d.eta_sq,
                    d.partial_eta_sq,
                    d.f_stat,
                    d.p_value,
                    axis.r2,
                    axis.adj_r2,
                    axis.n
                ));
            }
        }
        out.push_str(ESTIMATE_HEADER);
        out.push('\n');
        for axis in &self.axes {
            for (d, levels) in axis.dims.iter().zip(axis.estimates.iter().flatten()) {
                for e in levels {
                    out.push_str(&format!(
                        "{},{},{},{}\n",
                        quote_csv(&axis.axis),
                        quote_csv(&d.name),
                        e.level,
                        e.estimate
                    ));
                }
            }
        }
        out.push_str(SCAN_HEADER);
        out.push('\n');
        for axis in &self.axes {
            for i in &axis.interactions {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    quote_csv(&axis.axis),
                    quote_csv(&i.dim_a),
                    quote_csv(&i.dim_b),
                    i.columns,
                    i.delta_r2,
                    i.f_stat,
                    i.p_value
                ));
            }
        }
        out
    }
}

/// One data row of a body section: its line number in the cache file
/// (the stamp is line 1) and its fields.
type Row<'a> = (usize, Vec<Cow<'a, str>>);

/// Parses field `s` of the row on `line`, naming `what` on failure.
fn parse_field<T: std::str::FromStr>(line: usize, s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| format!("line {line}: bad {what} '{s}': {e}"))
}

/// Checks that the row on `line` has `want` fields and belongs to `axis`.
fn check_row(line: usize, fields: &[Cow<str>], want: usize, axis: &str) -> Result<(), String> {
    if fields.len() != want {
        return Err(format!("line {line}: expected {want} fields"));
    }
    if fields[0] != axis {
        return Err(format!(
            "line {line}: a row of axis '{}' where axis '{axis}' continues",
            fields[0]
        ));
    }
    Ok(())
}

/// Parses the body CSV back into axis summaries. Every section must be
/// present and complete: a fitted axis (finite R²) needs its estimates,
/// an estimated axis one row per present level of every dimension, and
/// every axis one scan row per dimension pair.
fn parse_body(body: &str) -> Result<Vec<AxisSummary>, String> {
    let headers = [SUMMARY_HEADER, ESTIMATE_HEADER, SCAN_HEADER];
    let mut sections: [Vec<Row>; 3] = Default::default();
    let mut seen = 0;
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if seen < headers.len() && line == headers[seen] {
            seen += 1;
        } else if seen == 0 {
            return Err(format!("unexpected header: {line}"));
        } else {
            sections[seen - 1].push((i + 2, split_csv(line).collect()));
        }
    }
    if seen < headers.len() {
        return Err(format!("missing section '{}'", headers[seen]));
    }
    let [summary, estimates, scan] = sections;

    let mut axes: Vec<AxisSummary> = Vec::new();
    for (line, fields) in summary {
        if fields.len() != 10 {
            return Err(format!("line {line}: expected 10 fields"));
        }
        let effect = DimEffect {
            name: fields[1].clone().into_owned(),
            levels: parse_field(line, &fields[2], "levels")?,
            eta_sq: parse_field(line, &fields[3], "eta_sq")?,
            partial_eta_sq: parse_field(line, &fields[4], "partial_eta_sq")?,
            f_stat: parse_field(line, &fields[5], "f_stat")?,
            p_value: parse_field(line, &fields[6], "p_value")?,
        };
        let (r2, adj_r2, n) = (
            parse_field(line, &fields[7], "r2")?,
            parse_field(line, &fields[8], "adj_r2")?,
            parse_field(line, &fields[9], "n")?,
        );
        match axes.last_mut() {
            Some(last) if last.axis == fields[0] => last.dims.push(effect),
            _ => axes.push(AxisSummary {
                axis: fields[0].clone().into_owned(),
                n,
                r2,
                adj_r2,
                dims: vec![effect],
                estimates: None,
                interactions: Vec::new(),
            }),
        }
    }

    let mut estimates = estimates.into_iter().peekable();
    for axis in &mut axes {
        if estimates
            .peek()
            .is_some_and(|(_, fields)| fields[0] == axis.axis)
        {
            let mut per_dim = Vec::with_capacity(axis.dims.len());
            for d in &axis.dims {
                let mut levels = Vec::with_capacity(d.levels);
                for _ in 0..d.levels {
                    let (line, fields) = estimates.next().ok_or_else(|| {
                        format!("estimates of {} / {} end early", axis.axis, d.name)
                    })?;
                    check_row(line, &fields, 4, &axis.axis)?;
                    if fields[1] != d.name {
                        return Err(format!(
                            "line {line}: an estimate of '{}' where '{}' continues",
                            fields[1], d.name
                        ));
                    }
                    levels.push(LevelEstimate {
                        level: parse_field(line, &fields[2], "level")?,
                        estimate: parse_field(line, &fields[3], "estimate")?,
                    });
                }
                per_dim.push(levels);
            }
            axis.estimates = Some(per_dim);
        } else if axis.r2.is_finite() {
            return Err(format!("axis {} has an R² but no estimates", axis.axis));
        }
    }
    if let Some((line, _)) = estimates.next() {
        return Err(format!("line {line}: an estimate past the listed axes"));
    }

    let mut scan = scan.into_iter();
    for axis in &mut axes {
        let k = axis.dims.len();
        for _ in 0..k * k.saturating_sub(1) / 2 {
            let (line, fields) = scan
                .next()
                .ok_or_else(|| format!("interaction scan of {} ends early", axis.axis))?;
            check_row(line, &fields, 7, &axis.axis)?;
            axis.interactions.push(InteractionEffect {
                dim_a: fields[1].clone().into_owned(),
                dim_b: fields[2].clone().into_owned(),
                columns: parse_field(line, &fields[3], "columns")?,
                delta_r2: parse_field(line, &fields[4], "delta_r2")?,
                f_stat: parse_field(line, &fields[5], "f_stat")?,
                p_value: parse_field(line, &fields[6], "p_value")?,
            });
        }
    }
    if let Some((line, _)) = scan.next() {
        return Err(format!("line {line}: a scan row past the listed axes"));
    }
    Ok(axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::space::{DesignSpace, Dimension};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn effect(name: &str, levels: usize, eta_sq: f64, partial: f64) -> DimEffect {
        DimEffect {
            name: name.into(),
            levels,
            eta_sq,
            partial_eta_sq: partial,
            f_stat: if partial.is_nan() { f64::NAN } else { 12.5 },
            p_value: if partial.is_nan() { f64::NAN } else { 0.001 },
        }
    }

    fn level(level: usize, estimate: f64) -> LevelEstimate {
        LevelEstimate { level, estimate }
    }

    fn pair(a: &str, b: &str, delta_r2: f64, f_stat: f64, p_value: f64) -> InteractionEffect {
        InteractionEffect {
            dim_a: a.into(),
            dim_b: b.into(),
            columns: 2,
            delta_r2,
            f_stat,
            p_value,
        }
    }

    /// A fitted axis with NaN and infinite scan rows, and an axis with
    /// no fit (so no estimates) whose scan is all NaN.
    fn fake() -> AttribTable {
        AttribTable {
            key: SweepKey {
                domain: "toy".into(),
                space_hash: 0xABC,
                scale: "smoke".into(),
                params: 0x123,
                seed: 7,
                len: 4,
                attack: 0,
                evo: 0,
                attrib: 0xA11B,
            },
            response: "pra".into(),
            axes: vec![
                AxisSummary {
                    axis: "performance".into(),
                    n: 4,
                    r2: 0.91,
                    adj_r2: 0.89,
                    dims: vec![
                        effect("A, with comma", 3, 0.5, 0.75),
                        effect("B", 2, 0.1, f64::NAN),
                        effect("C", 2, 1e-300, 0.0),
                    ],
                    estimates: Some(vec![
                        vec![level(0, 0.0), level(1, -0.0), level(2, 0.1 + 0.2)],
                        vec![level(0, 0.0), level(1, f64::MIN_POSITIVE)],
                        vec![level(1, 0.0), level(3, -12.25)],
                    ]),
                    interactions: vec![
                        pair("A, with comma", "B", 0.125, f64::INFINITY, 0.0),
                        pair("B", "C", 1e-17, 3.5, 0.25),
                        pair("A, with comma", "C", f64::NAN, f64::NAN, f64::NAN),
                    ],
                },
                AxisSummary {
                    axis: "robustness".into(),
                    n: 4,
                    r2: f64::NAN,
                    adj_r2: f64::NAN,
                    dims: vec![
                        effect("A, with comma", 3, 0.25, f64::NAN),
                        effect("B", 2, 0.0, f64::NAN),
                    ],
                    estimates: None,
                    interactions: vec![pair(
                        "A, with comma",
                        "B",
                        f64::NAN,
                        f64::NEG_INFINITY,
                        f64::NAN,
                    )],
                },
            ],
            from_cache: false,
        }
    }

    /// Every f64 of a summary as bits, NaNs folded to one pattern.
    fn bits(axes: &[AxisSummary]) -> Vec<u64> {
        let b = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
        let mut out = Vec::new();
        for a in axes {
            out.extend([b(a.r2), b(a.adj_r2)]);
            for d in &a.dims {
                out.extend([b(d.eta_sq), b(d.partial_eta_sq), b(d.f_stat), b(d.p_value)]);
            }
            for e in a.estimates.iter().flatten().flatten() {
                out.extend([e.level as u64, b(e.estimate)]);
            }
            for i in &a.interactions {
                out.extend([b(i.delta_r2), b(i.f_stat), b(i.p_value)]);
            }
        }
        out
    }

    #[test]
    fn store_rejects_a_line_break_and_round_trips_commas_and_quotes() {
        let dir = std::env::temp_dir().join(format!("dsa-attrib-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = fake();
        t.axes[1].interactions[0].dim_b = "B\r\n".into();
        let err = t.store(&dir).unwrap_err();
        assert!(err.contains(r#""B\r\n""#), "{err}");
        assert!(!dir.exists(), "a rejected store left {}", dir.display());
        t.axes[1].interactions[0].dim_b = "\"B\", quoted".into();
        t.store(&dir).unwrap();
        let back = AttribTable::load(&t.key, &t.response, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(back.axes[0].dims[0].name, "A, with comma");
        assert_eq!(back.axes[1].interactions[0].dim_b, "\"B\", quoted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_body_roundtrips_including_nans_infs_and_unfitted_axes() {
        let t = fake();
        let parsed = parse_body(&t.to_csv()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].axis, "performance");
        assert_eq!(parsed[0].dims.len(), 3);
        assert_eq!(parsed[0].dims[0].name, "A, with comma");
        assert_eq!(parsed[0].dims[0].partial_eta_sq, 0.75);
        assert!(parsed[0].dims[1].partial_eta_sq.is_nan());
        assert_eq!(parsed[0].estimates, t.axes[0].estimates);
        assert_eq!(parsed[0].level_estimate(1, 1), Some(f64::MIN_POSITIVE));
        assert_eq!(parsed[0].interactions[0].f_stat, f64::INFINITY);
        assert!(parsed[0].interactions[2].delta_r2.is_nan());
        assert!(parsed[1].r2.is_nan());
        assert_eq!(parsed[1].n, 4);
        assert!(parsed[1].estimates.is_none());
        assert_eq!(parsed[1].interactions[0].f_stat, f64::NEG_INFINITY);
        assert_eq!(bits(&parsed), bits(&t.axes));
        // A re-serialized parse is byte-identical.
        let round = AttribTable {
            axes: parsed,
            ..t.clone()
        };
        assert_eq!(round.to_csv(), t.to_csv());
    }

    /// Characters that exercise the splitter: quotes, separators, a
    /// two-byte UTF-8 character and a space.
    fn name_char() -> impl Strategy<Value = char> {
        prop_oneof![Just('a'), Just('é'), Just(','), Just('"'), Just(' ')]
    }

    /// NaN, both infinities, both zeros, subnormals, 1e308 and arbitrary
    /// bits.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(f64::from_bits(1)),
            Just(-f64::MIN_POSITIVE / 3.0),
            Just(1e308),
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_table_roundtrips_bit_for_bit(
            names in vec(vec(name_char(), 0..6), 4),
            values in vec(value(), 40),
            levels in vec(1usize..4, 3),
            k in 1usize..4,
            fitted in any::<bool>(),
        ) {
            let name = |i: usize| names[i].iter().collect::<String>();
            let mut next = values.into_iter().cycle();
            let mut v = move || next.next().expect("cycled");
            let axes: Vec<AxisSummary> = (0..2)
                .map(|a| {
                    let dims: Vec<DimEffect> = (0..k)
                        .map(|d| DimEffect {
                            name: name(d),
                            levels: levels[d],
                            eta_sq: v(),
                            partial_eta_sq: v(),
                            f_stat: v(),
                            p_value: v(),
                        })
                        .collect();
                    let fit = fitted && a == 0;
                    let estimates = fit.then(|| {
                        dims.iter()
                            .map(|d| (0..d.levels).map(|l| level(l, v())).collect())
                            .collect()
                    });
                    let mut interactions = Vec::new();
                    for i in 0..k {
                        for j in i + 1..k {
                            interactions.push(pair(&name(i), &name(j), v(), v(), v()));
                        }
                    }
                    AxisSummary {
                        // Axis names differ, so their rows never merge.
                        axis: format!("{}{a}", name(3)),
                        n: 5,
                        r2: if fit { v() } else { f64::NAN },
                        adj_r2: v(),
                        dims,
                        estimates,
                        interactions,
                    }
                })
                .collect();
            let t = AttribTable { axes, ..fake() };
            let parsed = parse_body(&t.to_csv()).expect("round trip");
            prop_assert_eq!(bits(&parsed), bits(&t.axes));
            for (p, a) in parsed.iter().zip(&t.axes) {
                prop_assert_eq!(&p.axis, &a.axis);
                prop_assert!(p.dims.iter().map(|d| &d.name).eq(a.dims.iter().map(|d| &d.name)));
                prop_assert!(p.interactions.iter().map(|i| (&i.dim_a, &i.dim_b))
                    .eq(a.interactions.iter().map(|i| (&i.dim_a, &i.dim_b))));
            }
            let round = AttribTable { axes: parsed, ..t.clone() };
            prop_assert_eq!(round.to_csv(), t.to_csv());
        }
    }

    #[test]
    fn parse_body_rejects_garbage() {
        assert!(parse_body("").is_err());
        assert!(parse_body("wrong,header\n").is_err());
        let tail = format!("{ESTIMATE_HEADER}\n{SCAN_HEADER}\n");
        let body = |row: &str| format!("{SUMMARY_HEADER}\n{row}\n{tail}");
        assert!(parse_body(&body("a,b,2,NaN,NaN,NaN,NaN,NaN,NaN,4")).is_ok());
        assert!(parse_body(&body("a,b,2,0.5")).is_err());
        assert!(parse_body(&body("a,b,x,0.5,0.5,1,0.1,0.9,0.9,4")).is_err());
        assert!(parse_body(&body("a,b,2,zz,0.5,1,0.1,0.9,0.9,4")).is_err());
        // A summary alone is a version 1 body: not a table any more.
        assert!(parse_body(&format!(
            "{SUMMARY_HEADER}\na,b,2,0.5,0.5,1,0.1,0.9,0.9,4\n"
        ))
        .is_err());
    }

    /// Drops the body lines `drop` selects (0-based, stamp excluded).
    fn without_lines(body: &str, drop: impl Fn(usize, &str) -> bool) -> String {
        body.lines()
            .enumerate()
            .filter(|&(i, l)| !drop(i, l))
            .map(|(_, l)| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn truncated_estimate_or_scan_sections_are_errors() {
        let body = fake().to_csv();
        let line_of = |prefix: &str| body.lines().position(|l| l == prefix).unwrap();
        let (est, scan) = (line_of(ESTIMATE_HEADER), line_of(SCAN_HEADER));
        let last = body.lines().count() - 1;
        // The last estimate row, one inside the section, all estimate
        // rows, the last scan row, the whole scan section, and the file
        // cut before the estimates.
        let cases: Vec<String> = vec![
            without_lines(&body, |i, _| i == scan - 1),
            without_lines(&body, |i, _| i == est + 2),
            without_lines(&body, |i, _| i > est && i < scan),
            without_lines(&body, |i, _| i == last),
            without_lines(&body, |i, _| i >= scan),
            without_lines(&body, |i, _| i >= est),
        ];
        for (c, cut) in cases.iter().enumerate() {
            assert!(parse_body(cut).is_err(), "case {c} parsed:\n{cut}");
        }
        // An extra row is as wrong as a missing one.
        let extra = format!("{body}robustness,B,A,1,0,0,1\n");
        assert!(parse_body(&extra).is_err());
        assert!(parse_body(&body).is_ok());
    }

    #[test]
    fn cache_file_name_embeds_domain_response_scale() {
        let t = fake();
        assert_eq!(
            t.path(Path::new("results")),
            PathBuf::from("results/attrib-toy-pra-smoke.csv")
        );
    }

    /// 3 × 2 × 2 factorial with a planted additive A and B effect plus an
    /// A×B interaction.
    fn planted() -> (DesignMatrix, Vec<f64>) {
        let s = DesignSpace::new(
            "planted",
            vec![
                Dimension::new("A", vec!["a0".into(), "a1".into(), "a2".into()]),
                Dimension::new("B", vec!["b0".into(), "b1".into()]),
                Dimension::new("C", vec!["c0".into(), "c1".into()]),
            ],
        );
        let rows: Vec<usize> = s.indices().collect();
        let dm = DesignMatrix::build(&s, &rows, 1);
        let y = rows
            .iter()
            .map(|&i| {
                let c = s.coords(i);
                let noise = ((i * 37 % 11) as f64 - 5.0) / 200.0;
                10.0 * c[0] as f64 + 1.0 * c[1] as f64 + 2.0 * (c[0] as f64 * c[1] as f64) + noise
            })
            .collect();
        (dm, y)
    }

    #[test]
    fn level_estimate_reads_the_fit() {
        let (dm, y) = planted();
        let at = AxisSummary::attribute(&dm, "perf", &y);
        // Baseline level estimate is zero by construction.
        assert_eq!(at.level_estimate(0, 0), Some(0.0));
        // A=a2 vs A=a1 differ by ~10 (plus half the interaction mass).
        let a1 = at.level_estimate(0, 1).unwrap();
        let a2 = at.level_estimate(0, 2).unwrap();
        assert!(a2 > a1 + 5.0, "a1 {a1} a2 {a2}");
        assert_eq!(at.interactions.len(), 3);
        assert_eq!(at.interactions[0].dim_a, "A");
        // Absent level on a collapsed subset → None; no fit → None.
        let s = DesignSpace::new(
            "s",
            vec![Dimension::new(
                "A",
                vec!["a0".into(), "a1".into(), "a2".into()],
            )],
        );
        let sub = DesignMatrix::build(&s, &[1, 2, 1, 2], 1);
        let sub_at = AxisSummary::attribute(&sub, "x", &[1.0, 2.0, 1.5, 2.5]);
        assert!(sub_at.estimates.is_some());
        assert!(sub_at.level_estimate(0, 0).is_none());
        assert_eq!(sub_at.level_estimate(0, 1), Some(0.0));
        let tiny = DesignMatrix::build(&s, &[1, 2], 1);
        let tiny_at = AxisSummary::attribute(&tiny, "x", &[1.0, 2.0]);
        assert!(tiny_at.estimates.is_none());
        assert!(tiny_at.level_estimate(0, 1).is_none());
    }

    #[test]
    fn v1_stamped_tables_are_recomputed_and_overwritten() {
        const V1: &str = "attrib v1 dummy-main-effects oneway-eta partial-eta nested-F";
        let dir = std::env::temp_dir().join(format!("dsa-attrib-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let domain = dsa_gossip::adapter::register();
        let rows: Vec<usize> = (0..domain.size()).collect();
        let y: Vec<f64> = rows.iter().map(|&i| (i * 7 % 13) as f64).collect();
        let surface = ResponseSurface {
            response: "pra".into(),
            rows,
            axes: vec![("performance".into(), y)],
            base: SweepKey {
                domain: "gossip".into(),
                space_hash: 0xABC,
                scale: "smoke".into(),
                params: 0x123,
                seed: 7,
                len: domain.size(),
                attack: 0,
                evo: 0,
                attrib: 0,
            },
            sources: "# dsa-sweep v1 domain=gossip".into(),
            from_cache: true,
        };
        // A version 1 table: the summary section only, under the v1
        // fingerprint. Parsed as version 2 it would be an error.
        let v1_key = surface
            .base
            .clone()
            .with_attrib(fingerprint_under(V1, &surface));
        assert_ne!(v1_key.attrib, fingerprint(&surface));
        let path = AttribTable::cache_path(&dir, "gossip", "pra", "smoke");
        let v1_body = format!("{SUMMARY_HEADER}\nperformance,A,2,0.5,0.5,1,0.1,0.9,0.9,4\n");
        write_stamped(&path, &v1_key, &v1_body).unwrap();
        assert!(parse_body(&v1_body).is_err());

        let table = AttribTable::load_or_compute(&*domain, &surface, 1, &dir).expect("recomputed");
        assert!(!table.from_cache);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            format!("{}\n{}", table.key.meta_line(), table.to_csv())
        );
        let again = AttribTable::load_or_compute(&*domain, &surface, 1, &dir).expect("cached");
        assert!(again.from_cache);
        assert_eq!(again.to_csv(), table.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
