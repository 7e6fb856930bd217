//! The stamped-CSV cache for empirical payoff matrices.
//!
//! The matrix is the expensive part of a population-dynamics experiment
//! (`k(k+1)/2` simulated populations × runs); the dynamics on top of it
//! are matrix arithmetic. One matrix caches per (domain, scale) at
//! `results/evo-<domain>-<scale>.csv` under the workspace's stamp scheme
//! ([`dsa_core::cache::SweepKey`]), extended with an `evo=` fingerprint
//! covering the candidate set, the population size and every dynamics
//! parameter: changing any of them — or the domain's space, the simulator
//! scale, the seed — mismatches the stamp and recomputes, never trusts.
//! Plain PRA and attack stamps live in different files under different
//! fingerprint fields, so evo reconfiguration can never invalidate them.

use crate::payoff::{empirical_matrix, EvoConfig, PayoffMatrix};
use dsa_core::cache::{read_stamped, write_stamped, SweepKey};
use dsa_core::domain::{fnv1a, DynDomain, Effort};
use dsa_core::results::{check_csv_field, quote_csv, split_csv};
use std::path::{Path, PathBuf};

/// A cached (or freshly measured) payoff matrix with its key and
/// provenance.
#[derive(Debug, Clone)]
pub struct EvoSweep {
    /// The key the matrix was computed (or validated) under.
    pub key: SweepKey,
    /// The measured matrix.
    pub matrix: PayoffMatrix,
    /// Whether this matrix was served from the cache.
    pub from_cache: bool,
}

impl EvoSweep {
    /// The full cache key of a population-dynamics sweep: the plain sweep
    /// key re-stamped with the `evo=` fingerprint (candidate set,
    /// population and dynamics parameters). `len` is the candidate count,
    /// so the body's row count is validated against the stamp.
    #[must_use]
    pub fn key(
        domain: &dyn DynDomain,
        candidates: &[usize],
        scale: &str,
        effort: Effort,
        cfg: &EvoConfig,
    ) -> SweepKey {
        let canon = format!(
            "{}|enc_runs={}",
            domain.sim_signature(effort),
            cfg.encounter_runs
        );
        let evo = cfg.signature(candidates, domain.population(effort).max(2));
        SweepKey {
            domain: domain.name().to_string(),
            space_hash: domain.space_hash(),
            scale: scale.to_string(),
            params: fnv1a(canon.as_bytes()),
            seed: cfg.seed,
            len: candidates.len(),
            attack: 0,
            evo: 0,
            attrib: 0,
        }
        .with_evo(fnv1a(evo.as_bytes()).max(1))
    }

    /// The cache file path for a (domain, scale) pair.
    #[must_use]
    pub fn cache_path(out_dir: &Path, domain: &str, scale: &str) -> PathBuf {
        out_dir.join(format!("evo-{domain}-{scale}.csv"))
    }

    /// This sweep's own cache file path.
    #[must_use]
    pub fn path(&self, out_dir: &Path) -> PathBuf {
        Self::cache_path(out_dir, &self.key.domain, &self.key.scale)
    }

    /// Measures the matrix (no caching).
    ///
    /// # Panics
    ///
    /// Panics when `candidates` is empty or out of range.
    #[must_use]
    pub fn compute(
        domain: &dyn DynDomain,
        candidates: &[usize],
        effort: Effort,
        cfg: &EvoConfig,
        scale: &str,
    ) -> Self {
        Self {
            key: Self::key(domain, candidates, scale, effort, cfg),
            matrix: empirical_matrix(domain, candidates, effort, cfg),
            from_cache: false,
        }
    }

    /// Attempts to load a cached matrix matching `key`. Returns
    /// `Ok(None)` for every "recompute, don't trust" case: missing file,
    /// missing or mismatched stamp (any other candidate set, dynamics
    /// configuration, seed, scale or space), or a body that disagrees
    /// with the expected candidates.
    ///
    /// # Errors
    ///
    /// Returns an error when the stamp matches but the body cannot be
    /// parsed (corruption must surface, not be silently recomputed over).
    pub fn load(
        key: &SweepKey,
        domain: &dyn DynDomain,
        candidates: &[usize],
        effort: Effort,
        out_dir: &Path,
    ) -> Result<Option<Self>, String> {
        let path = Self::cache_path(out_dir, &key.domain, &key.scale);
        let Some(body) = read_stamped(&path, key)? else {
            return Ok(None);
        };
        let (names, payoff) = parse_body(&body, key.len)
            .map_err(|e| format!("corrupt evo cache {}: {e}", path.display()))?;
        // The evo fingerprint already covers the candidate set; a body
        // that disagrees with its own stamp is stale, not trusted.
        let expected: Vec<String> = candidates.iter().map(|&c| domain.code(c)).collect();
        if names != expected {
            return Ok(None);
        }
        Ok(Some(Self {
            key: key.clone(),
            matrix: PayoffMatrix {
                candidates: candidates.to_vec(),
                names,
                payoff,
                population: domain.population(effort).max(2),
            },
            from_cache: true,
        }))
    }

    /// Loads the cached matrix for (domain, scale), or measures and
    /// caches it.
    ///
    /// # Errors
    ///
    /// Returns an error when a matching cache exists but is corrupt, or
    /// the cache cannot be written.
    pub fn load_or_compute(
        domain: &dyn DynDomain,
        candidates: &[usize],
        effort: Effort,
        cfg: &EvoConfig,
        scale: &str,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let key = Self::key(domain, candidates, scale, effort, cfg);
        if let Some(cached) = Self::load(&key, domain, candidates, effort, out_dir)? {
            return Ok(cached);
        }
        let sweep = Self::compute(domain, candidates, effort, cfg, scale);
        sweep.store(out_dir)?;
        Ok(sweep)
    }

    /// Writes the matrix to its cache path via
    /// [`dsa_core::cache::write_stamped`] (atomic temp sibling + rename).
    ///
    /// # Errors
    ///
    /// Returns an error when a protocol name holds a line break (see
    /// [`check_csv_field`]), before anything is written, and when the
    /// directory or file cannot be written.
    pub fn store(&self, out_dir: &Path) -> Result<PathBuf, String> {
        for name in &self.matrix.names {
            check_csv_field(name)?;
        }
        let path = self.path(out_dir);
        write_stamped(&path, &self.key, &self.to_csv())?;
        Ok(path)
    }

    /// The body CSV (no stamp line): one row per cell, row-major. `{}` on
    /// f64 prints the shortest representation that parses back
    /// bit-identically, so cached and fresh matrices never diverge.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("row,col,name,payoff\n");
        for (i, row) in self.matrix.payoff.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                out.push_str(&format!(
                    "{i},{j},{},{value}\n",
                    quote_csv(&self.matrix.names[i])
                ));
            }
        }
        out
    }
}

/// Parses the body CSV back into `(row names, payoff)`.
fn parse_body(body: &str, k: usize) -> Result<(Vec<String>, Vec<Vec<f64>>), String> {
    let mut lines = body.lines();
    let header = lines.next().ok_or("empty body")?;
    if header != "row,col,name,payoff" {
        return Err(format!("unexpected header: {header}"));
    }
    let mut names: Vec<String> = Vec::with_capacity(k);
    let mut payoff: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut fields = Vec::with_capacity(4);
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        fields.clear();
        fields.extend(split_csv(line));
        if fields.len() != 4 {
            return Err(format!("line {}: expected 4 fields", lineno + 2));
        }
        let parse_idx = |s: &str, what: &str| {
            s.parse::<usize>()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 2))
        };
        let i = parse_idx(&fields[0], "row")?;
        let j = parse_idx(&fields[1], "col")?;
        if j == 0 {
            if i != payoff.len() {
                return Err(format!("line {}: rows out of order", lineno + 2));
            }
            payoff.push(Vec::with_capacity(k));
            names.push(fields[2].clone().into_owned());
        }
        let rows = payoff.len();
        let row = payoff
            .last_mut()
            .ok_or_else(|| format!("line {}: cell before the first row started", lineno + 2))?;
        if i + 1 != rows || j != row.len() {
            return Err(format!("line {}: cells out of order", lineno + 2));
        }
        let value: f64 = fields[3]
            .parse()
            .map_err(|e| format!("line {}: bad payoff: {e}", lineno + 2))?;
        row.push(value);
    }
    if payoff.len() != k || payoff.iter().any(|r| r.len() != k) {
        return Err(format!("expected a {k}×{k} matrix"));
    }
    Ok((names, payoff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fake() -> EvoSweep {
        EvoSweep {
            key: SweepKey {
                domain: "toy".into(),
                space_hash: 0xABC,
                scale: "smoke".into(),
                params: 0x123,
                seed: 7,
                len: 2,
                attack: 0,
                evo: 0xE40,
                attrib: 0,
            },
            matrix: PayoffMatrix {
                candidates: vec![3, 5],
                names: vec!["a".into(), "b, with comma".into()],
                payoff: vec![vec![1.0, 0.25], vec![2.5, 0.75]],
                population: 24,
            },
            from_cache: false,
        }
    }

    #[test]
    fn csv_body_roundtrips() {
        let s = fake();
        let (names, payoff) = parse_body(&s.to_csv(), 2).unwrap();
        assert_eq!(names, s.matrix.names);
        assert_eq!(payoff, s.matrix.payoff);
    }

    #[test]
    fn store_rejects_a_line_break_and_round_trips_commas_and_quotes() {
        let dir = std::env::temp_dir().join(format!("dsa-evo-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = fake();
        for bad in ["two\nlines", "a\rb"] {
            s.matrix.names[0] = bad.into();
            let err = s.store(&dir).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(!dir.exists(), "a rejected store left {}", dir.display());
        }
        s.matrix.names[0] = "\"quoted\", too".into();
        let path = s.store(&dir).unwrap();
        let body = read_stamped(&path, &s.key).unwrap().unwrap();
        let (names, _) = parse_body(&body, 2).unwrap();
        assert_eq!(names, s.matrix.names);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// Bits, with every NaN mapped to one (the CSV prints `NaN` for all).
    fn bits(rows: &[Vec<f64>]) -> Vec<u64> {
        rows.iter()
            .flatten()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_matrix_roundtrips_bit_for_bit(
            names in vec(vec(name_char(), 0..6), 1..5),
            values in vec(value(), 16),
        ) {
            let k = names.len();
            let mut values = values.into_iter().cycle();
            let mut s = fake();
            s.matrix.names = names.iter().map(|c| c.iter().collect()).collect();
            s.matrix.payoff = (0..k).map(|_| values.by_ref().take(k).collect()).collect();
            let (back_names, payoff) = parse_body(&s.to_csv(), k).expect("round trip");
            prop_assert_eq!(back_names, s.matrix.names.clone());
            prop_assert_eq!(bits(&payoff), bits(&s.matrix.payoff));
        }
    }

    #[test]
    fn parse_body_rejects_garbage() {
        assert!(parse_body("", 2).is_err());
        assert!(parse_body("wrong,header\n", 2).is_err());
        assert!(parse_body("row,col,name,payoff\n", 2).is_err());
        assert!(parse_body("row,col,name,payoff\n0,0,a,1\n", 2).is_err());
        assert!(parse_body("row,col,name,payoff\n0,1,a,1\n", 1).is_err());
        assert!(parse_body("row,col,name,payoff\n0,0,a,x\n", 1).is_err());
        assert!(parse_body("row,col,name,payoff\n1,0,a,1\n0,0,a,1\n", 1).is_err());
    }

    #[test]
    fn cache_file_name_embeds_domain_and_scale() {
        let s = fake();
        assert_eq!(
            s.path(Path::new("results")),
            PathBuf::from("results/evo-toy-smoke.csv")
        );
    }
}
