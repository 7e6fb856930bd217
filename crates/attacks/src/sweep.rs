//! The robustness-under-budget sweep and its stamped-CSV cache.
//!
//! For each attack budget β in a grid and each protocol Π in a domain's
//! design space, the sweep measures the share of runs in which a `1 − β`
//! majority running Π strictly beats the adversary's effective per-capita
//! payoff — the Robustness axis re-quantified against an adversary with
//! resources. Each (budget, protocol) cell derives its seeds from its
//! indices, so results are bit-identical across thread counts.
//!
//! Results cache under `results/attack-<domain>-<model>-<scale>.csv` with
//! the workspace's stamp scheme ([`dsa_core::cache::SweepKey`]), extended
//! by the attack fingerprint (model name, parameters *and* the budget
//! grid): changing any of them — or the domain's space, the simulator
//! scale, the seed — mismatches the stamp and recomputes, never trusts.

use crate::model::{AttackContext, AttackModel};
use dsa_core::cache::{read_stamped, write_stamped, SweepKey};
use dsa_core::domain::{fnv1a, DynDomain, Effort};
use dsa_core::parallel::parallel_map_indexed;
use dsa_core::results::{check_csv_field, quote_csv, split_csv};
use dsa_workloads::seeds::SeedSeq;
use std::path::{Path, PathBuf};

/// The default attack budget grid: 5% to 50% of the population (50% is
/// the paper's "highest number that an invading protocol can have").
pub const DEFAULT_BUDGETS: [f64; 6] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Configuration of a robustness-under-budget sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// Attack budgets (population shares in `(0, 1)`, strictly
    /// increasing), one sweep cross-section per entry.
    pub budgets: Vec<f64>,
    /// Runs per (budget, protocol) cell.
    pub encounter_runs: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Master seed; the sweep is a pure function of it.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            budgets: DEFAULT_BUDGETS.to_vec(),
            encounter_runs: 2,
            threads: 0,
            seed: 0x5EED,
        }
    }
}

impl AttackConfig {
    /// The full cache key of this sweep against a domain and model: the
    /// plain sweep key (domain, space hash, scale, simulator + run
    /// fingerprint, seed, n) re-stamped with the attack fingerprint.
    #[must_use]
    pub fn key(
        &self,
        domain: &dyn DynDomain,
        model: &dyn AttackModel,
        scale: &str,
        effort: Effort,
    ) -> SweepKey {
        let canon = format!(
            "{}|enc_runs={}",
            domain.sim_signature(effort),
            self.encounter_runs
        );
        SweepKey {
            domain: domain.name().to_string(),
            space_hash: domain.space_hash(),
            scale: scale.to_string(),
            params: fnv1a(canon.as_bytes()),
            seed: self.seed,
            len: domain.size(),
            attack: 0,
            evo: 0,
            attrib: 0,
        }
        .with_attack(model.key(&self.budgets))
    }
}

/// A finished robustness-under-budget sweep with its key and provenance.
#[derive(Debug, Clone)]
pub struct AttackSweep {
    /// The key the sweep was computed (or validated) under.
    pub key: SweepKey,
    /// Attack model name (part of the cache file name).
    pub model: String,
    /// The budget grid, in sweep order.
    pub budgets: Vec<f64>,
    /// Protocol display codes, in index order.
    pub names: Vec<String>,
    /// `robustness[b][i]`: protocol `i`'s survival rate at budget
    /// `budgets[b]`.
    pub robustness: Vec<Vec<f64>>,
    /// Whether this sweep was served from the cache.
    pub from_cache: bool,
}

impl AttackSweep {
    /// The cache file path for a (domain, model, scale) triple.
    #[must_use]
    pub fn cache_path(out_dir: &Path, domain: &str, model: &str, scale: &str) -> PathBuf {
        out_dir.join(format!("attack-{domain}-{model}-{scale}.csv"))
    }

    /// This sweep's own cache file path.
    #[must_use]
    pub fn path(&self, out_dir: &Path) -> PathBuf {
        Self::cache_path(out_dir, &self.key.domain, &self.model, &self.key.scale)
    }

    /// Runs the sweep (no caching): the attack-side analogue of the PRA
    /// tournament phase, parallel over protocols within each budget.
    ///
    /// Traced as an `attacks.sweep` span; with metrics enabled, each
    /// (budget, protocol) cell's latency lands in the `attacks.cell_ns`
    /// histogram and the sweep's throughput in the `attacks.rows_per_sec`
    /// gauge.
    ///
    /// # Panics
    ///
    /// Panics when a budget lies outside `(0, 1)` or the grid is not
    /// strictly increasing (a grid with duplicates would write a cache
    /// body its own loader groups wrongly).
    #[must_use]
    pub fn compute(
        domain: &dyn DynDomain,
        model: &dyn AttackModel,
        effort: Effort,
        config: &AttackConfig,
        scale: &str,
    ) -> Self {
        for &b in &config.budgets {
            assert!(
                b > 0.0 && b < 1.0,
                "attack budget must be in (0,1), got {b}"
            );
        }
        assert!(
            config.budgets.windows(2).all(|w| w[1] > w[0]),
            "attack budgets must be strictly increasing, got {:?}",
            config.budgets
        );
        let _sweep_span = dsa_obs::span("attacks.sweep");
        let started = dsa_obs::metrics_enabled().then(std::time::Instant::now);
        let n = domain.size();
        let runs = config.encounter_runs.max(1);
        // Phase tag 0xA77A separates the attack seed stream from the PRA
        // phases run under the same master seed.
        let root = SeedSeq::new(config.seed).child(0xA77A);
        let robustness: Vec<Vec<f64>> = config
            .budgets
            .iter()
            .enumerate()
            .map(|(bi, &budget)| {
                let ctx = AttackContext {
                    domain,
                    effort,
                    budget,
                };
                let node = root.child(bi as u64);
                parallel_map_indexed(n, config.threads, |i| {
                    let t0 = dsa_obs::metrics_enabled().then(std::time::Instant::now);
                    let cell = node.child(i as u64);
                    let mut wins = 0usize;
                    for r in 0..runs {
                        let (def, adv) = model.encounter(&ctx, i, cell.child(r as u64).seed());
                        if def > adv {
                            wins += 1;
                        }
                    }
                    if let Some(t0) = t0 {
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        dsa_obs::observe("attacks.cell_ns", ns);
                    }
                    wins as f64 / runs as f64
                })
            })
            .collect();
        if let Some(started) = started {
            let secs = started.elapsed().as_secs_f64();
            let cells = (config.budgets.len() * n) as f64;
            if secs > 0.0 {
                dsa_obs::gauge_set("attacks.rows_per_sec", cells / secs);
            }
        }
        Self {
            key: config.key(domain, model, scale, effort),
            model: model.name().to_string(),
            budgets: config.budgets.clone(),
            names: domain.codes(),
            robustness,
            from_cache: false,
        }
    }

    /// Attempts to load a cached sweep matching `key`. Returns `Ok(None)`
    /// for every "recompute, don't trust" case: missing file, missing or
    /// mismatched stamp (including a different attack fingerprint or
    /// budget grid), or the wrong number of rows.
    ///
    /// # Errors
    ///
    /// Returns an error when the stamp matches but the body cannot be
    /// parsed (corruption must surface, not be silently recomputed over).
    pub fn load(
        key: &SweepKey,
        model: &str,
        budgets: &[f64],
        out_dir: &Path,
    ) -> Result<Option<Self>, String> {
        let path = Self::cache_path(out_dir, &key.domain, model, &key.scale);
        let Some(body) = read_stamped(&path, key)? else {
            return Ok(None);
        };
        let (file_budgets, names, robustness) = parse_body(&body, key.len)
            .map_err(|e| format!("corrupt attack cache {}: {e}", path.display()))?;
        // The attack fingerprint already covers the grid; a body that
        // disagrees with its own stamp is stale, not trusted.
        if file_budgets != budgets {
            return Ok(None);
        }
        Ok(Some(Self {
            key: key.clone(),
            model: model.to_string(),
            budgets: file_budgets,
            names,
            robustness,
            from_cache: true,
        }))
    }

    /// Loads the cached sweep for (domain, model, scale), or computes and
    /// caches it.
    ///
    /// # Errors
    ///
    /// Returns an error when a matching cache exists but is corrupt, or
    /// the cache cannot be written.
    pub fn load_or_compute(
        domain: &dyn DynDomain,
        model: &dyn AttackModel,
        effort: Effort,
        config: &AttackConfig,
        scale: &str,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let key = config.key(domain, model, scale, effort);
        if let Some(cached) = Self::load(&key, model.name(), &config.budgets, out_dir)? {
            return Ok(cached);
        }
        let sweep = Self::compute(domain, model, effort, config, scale);
        sweep.store(out_dir)?;
        Ok(sweep)
    }

    /// Writes the sweep to its cache path via
    /// [`dsa_core::cache::write_stamped`] (atomic temp sibling + rename).
    ///
    /// # Errors
    ///
    /// Returns an error when a protocol name holds a line break (see
    /// [`check_csv_field`]), before anything is written, and when the
    /// directory or file cannot be written.
    pub fn store(&self, out_dir: &Path) -> Result<PathBuf, String> {
        for name in &self.names {
            check_csv_field(name)?;
        }
        let path = self.path(out_dir);
        write_stamped(&path, &self.key, &self.to_csv())?;
        Ok(path)
    }

    /// The body CSV (no stamp line): one row per (budget, protocol), in
    /// budget-major order. `{}` on f64 prints the shortest representation
    /// that parses back bit-identically, so cached and fresh sweeps never
    /// diverge.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("budget,index,name,robustness\n");
        for (b, row) in self.budgets.iter().zip(&self.robustness) {
            for (i, r) in row.iter().enumerate() {
                out.push_str(&format!("{b},{i},{},{r}\n", quote_csv(&self.names[i])));
            }
        }
        out
    }

    /// Mean robustness over the space, per budget — the y values of the
    /// budget-vs-robustness figure.
    #[must_use]
    pub fn mean_robustness(&self) -> Vec<f64> {
        self.robustness
            .iter()
            .map(|row| row.iter().sum::<f64>() / row.len().max(1) as f64)
            .collect()
    }

    /// Share of protocols whose survival rate is at least `threshold`,
    /// per budget.
    #[must_use]
    pub fn surviving_share(&self, threshold: f64) -> Vec<f64> {
        self.robustness
            .iter()
            .map(|row| {
                row.iter().filter(|&&r| r >= threshold).count() as f64 / row.len().max(1) as f64
            })
            .collect()
    }
}

/// A parsed body: `(budgets, names, robustness[budget][protocol])`.
type ParsedBody = (Vec<f64>, Vec<String>, Vec<Vec<f64>>);

/// Parses the body CSV back into `(budgets, names, robustness)`.
fn parse_body(body: &str, n: usize) -> Result<ParsedBody, String> {
    let mut lines = body.lines();
    let header = lines.next().ok_or("empty body")?;
    if header != "budget,index,name,robustness" {
        return Err(format!("unexpected header: {header}"));
    }
    let mut budgets: Vec<f64> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut robustness: Vec<Vec<f64>> = Vec::new();
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
        let parse = |s: &str, what: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 2))
        };
        let budget = parse(&fields[0], "budget")?;
        let index: usize = fields[1]
            .parse()
            .map_err(|e| format!("line {}: bad index: {e}", lineno + 2))?;
        if budgets.last() != Some(&budget) {
            budgets.push(budget);
            robustness.push(Vec::with_capacity(n));
        }
        let row = robustness.last_mut().expect("pushed above");
        if index != row.len() {
            return Err(format!("line {}: indices out of order", lineno + 2));
        }
        if budgets.len() == 1 {
            names.push(fields[2].clone().into_owned());
        }
        row.push(parse(&fields[3], "robustness")?);
    }
    if robustness.iter().any(|row| row.len() != n) || robustness.is_empty() {
        return Err(format!("expected {n} rows per budget"));
    }
    Ok((budgets, names, robustness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fake() -> AttackSweep {
        AttackSweep {
            key: SweepKey {
                domain: "toy".into(),
                space_hash: 0xABC,
                scale: "smoke".into(),
                params: 0x123,
                seed: 7,
                len: 3,
                attack: 0x456,
                evo: 0,
                attrib: 0,
            },
            model: "sybil".into(),
            budgets: vec![0.1, 0.5],
            names: vec!["a".into(), "b, with comma".into(), "c".into()],
            robustness: vec![vec![1.0, 0.5, 0.0], vec![0.5, 0.25, 0.0]],
            from_cache: false,
        }
    }

    #[test]
    fn csv_body_roundtrips() {
        let s = fake();
        let (budgets, names, rob) = parse_body(&s.to_csv(), 3).unwrap();
        assert_eq!(budgets, s.budgets);
        assert_eq!(names, s.names);
        assert_eq!(rob, s.robustness);
    }

    #[test]
    fn store_rejects_a_line_break_and_round_trips_commas_and_quotes() {
        let dir = std::env::temp_dir().join(format!("dsa-attack-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = fake();
        for bad in ["two\nlines", "a\rb"] {
            s.names[2] = bad.into();
            let err = s.store(&dir).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(!dir.exists(), "a rejected store left {}", dir.display());
        }
        s.names[2] = "\"quoted\", too".into();
        s.store(&dir).unwrap();
        let back = AttackSweep::load(&s.key, &s.model, &s.budgets, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(back.names, s.names);
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
        fn any_sweep_roundtrips_bit_for_bit(
            names in vec(vec(name_char(), 0..6), 1..6),
            values in vec(value(), 18),
            budgets in 1usize..4,
        ) {
            let n = names.len();
            let mut values = values.into_iter().cycle();
            let s = AttackSweep {
                // Distinct budgets, -0 and subnormals among them.
                budgets: [-0.0, f64::from_bits(1), 1e308][..budgets].to_vec(),
                names: names.iter().map(|c| c.iter().collect()).collect(),
                robustness: (0..budgets)
                    .map(|_| values.by_ref().take(n).collect())
                    .collect(),
                ..fake()
            };
            let (b, back_names, rob) = parse_body(&s.to_csv(), n).expect("round trip");
            prop_assert_eq!(bits(&[b]), bits(std::slice::from_ref(&s.budgets)));
            prop_assert_eq!(back_names, s.names.clone());
            prop_assert_eq!(bits(&rob), bits(&s.robustness));
        }
    }

    #[test]
    fn parse_body_rejects_garbage() {
        assert!(parse_body("", 3).is_err());
        assert!(parse_body("wrong,header\n", 3).is_err());
        assert!(parse_body("budget,index,name,robustness\n", 3).is_err());
        assert!(parse_body("budget,index,name,robustness\n0.1,0,a,1\n", 3).is_err());
        assert!(parse_body("budget,index,name,robustness\n0.1,1,a,1\n", 1).is_err());
        assert!(parse_body("budget,index,name,robustness\n0.1,0,a,x\n", 1).is_err());
    }

    #[test]
    fn summaries_average_per_budget() {
        let s = fake();
        assert_eq!(s.mean_robustness(), vec![0.5, 0.25]);
        assert_eq!(s.surviving_share(0.5), vec![2.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn cache_file_name_embeds_domain_model_scale() {
        let s = fake();
        assert_eq!(
            s.path(Path::new("results")),
            PathBuf::from("results/attack-toy-sybil-smoke.csv")
        );
    }
}
