//! Content-addressed sweep cache, generic over domains.
//!
//! A PRA sweep is a pure function of *(domain, space shape, simulator
//! scale, master seed)*, so the harness computes each sweep once and
//! caches it as CSV under `results/`. The cache file is stamped with a
//! metadata line recording the full key:
//!
//! ```text
//! # dsa-sweep v1 domain=rep space=0123456789abcdef scale=lab params=89abcdef01234567 seed=24301 n=216
//! index,name,performance_raw,performance,robustness,aggressiveness
//! ...
//! ```
//!
//! On load, the stamp is compared against the key the caller is about to
//! compute under; any mismatch — different space hash (the domain's
//! actualization changed), scale, parameter fingerprint (a scale preset
//! or effort mapping was edited), seed or protocol count — means the
//! cache is stale and is recomputed, not trusted. A malformed body is an
//! error (silent truncation must not masquerade as data).

use crate::domain::{fnv1a, DynDomain, Effort};
use crate::pra::PraConfig;
use crate::results::PraResults;
use std::path::{Path, PathBuf};

/// Fingerprint of everything besides domain/scale name and seed that a
/// sweep's numbers depend on: the simulator parameters (via the domain's
/// textual signature) and the PRA configuration. Threads are excluded —
/// results are deterministic across thread counts — and the seed is its
/// own key field.
#[must_use]
pub fn params_hash(sim_signature: &str, config: &PraConfig) -> u64 {
    let canon = format!(
        "{sim_signature}|perf_runs={} enc_runs={} rob_share={} agg_share={} sampling={:?}",
        config.performance_runs,
        config.encounter_runs,
        config.robustness_share,
        config.aggressiveness_share,
        config.sampling
    );
    fnv1a(canon.as_bytes())
}

/// The full identity of a sweep: what must match for a cached result to
/// be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepKey {
    /// Domain name (`swarm`, `gossip`, `rep`, ...).
    pub domain: String,
    /// Space-shape hash ([`crate::domain::space_shape_hash`]).
    pub space_hash: u64,
    /// Scale name (`smoke`, `lab`, `paper`).
    pub scale: String,
    /// Simulator + PRA parameter fingerprint ([`params_hash`]).
    pub params: u64,
    /// Master seed of the sweep.
    pub seed: u64,
    /// Number of protocols in the space.
    pub len: usize,
    /// Attack-model fingerprint: 0 for plain PRA sweeps; adversarial
    /// sweeps (`dsa-attacks`) set it to the model + budget-grid hash, so
    /// their stamps can never validate a plain sweep's file (or another
    /// attack's) and a changed budget grid self-invalidates.
    pub attack: u64,
    /// Evolutionary-dynamics fingerprint: 0 for plain PRA and attack
    /// sweeps; population-dynamics sweeps (`dsa-evolution`) set it to the
    /// candidate-set + dynamics-parameter hash, so an evo stamp can never
    /// validate any other sweep and a changed candidate set or dynamics
    /// configuration self-invalidates.
    pub evo: u64,
    /// Variance-attribution fingerprint: 0 for every sweep; derived
    /// attribution tables (`dsa-attribution`) set it to the hash of the
    /// response surface's source stamps plus the model specification, so
    /// an attribution stamp can never validate a sweep (or vice versa)
    /// and a changed underlying sweep or model spec self-invalidates.
    pub attrib: u64,
}

impl SweepKey {
    /// Builds the key for a domain swept at an effort level under a PRA
    /// configuration (the seed is `config.seed`).
    #[must_use]
    pub fn of(domain: &dyn DynDomain, scale: &str, effort: Effort, config: &PraConfig) -> Self {
        Self {
            domain: domain.name().to_string(),
            space_hash: domain.space_hash(),
            scale: scale.to_string(),
            params: params_hash(&domain.sim_signature(effort), config),
            seed: config.seed,
            len: domain.size(),
            attack: 0,
            evo: 0,
            attrib: 0,
        }
    }

    /// The same key re-stamped for an adversarial sweep: `attack` is the
    /// attack model's fingerprint ([`crate::domain::fnv1a`] over its name,
    /// parameters and budget grid).
    #[must_use]
    pub fn with_attack(mut self, attack: u64) -> Self {
        self.attack = attack;
        self
    }

    /// The same key re-stamped for a population-dynamics sweep: `evo` is
    /// the evolution fingerprint ([`crate::domain::fnv1a`] over the
    /// candidate set and the dynamics parameters).
    #[must_use]
    pub fn with_evo(mut self, evo: u64) -> Self {
        self.evo = evo;
        self
    }

    /// The same key re-stamped for a derived attribution table: `attrib`
    /// is the attribution fingerprint ([`crate::domain::fnv1a`] over the
    /// source sweeps' stamps and the model specification).
    #[must_use]
    pub fn with_attrib(mut self, attrib: u64) -> Self {
        self.attrib = attrib;
        self
    }

    /// The cache file path for this key.
    #[must_use]
    pub fn cache_path(&self, out_dir: &Path) -> PathBuf {
        out_dir.join(format!("pra-{}-{}.csv", self.domain, self.scale))
    }

    /// Renders the metadata stamp (the cache file's first line). The
    /// `attack` field is stamped only when set, so plain PRA stamps keep
    /// their original format.
    #[must_use]
    pub fn meta_line(&self) -> String {
        let mut line = format!(
            "# dsa-sweep v1 domain={} space={:016x} scale={} params={:016x} seed={} n={}",
            self.domain, self.space_hash, self.scale, self.params, self.seed, self.len
        );
        if self.attack != 0 {
            line.push_str(&format!(" attack={:016x}", self.attack));
        }
        if self.evo != 0 {
            line.push_str(&format!(" evo={:016x}", self.evo));
        }
        if self.attrib != 0 {
            line.push_str(&format!(" attrib={:016x}", self.attrib));
        }
        line
    }

    /// Compares this (caller's) key against a parsed stamp and names the
    /// first field that diverges, in stamp order: `domain`, `space`,
    /// `scale`, `params`, `seed`, `n`, `attack`, `evo`, `attrib`. `None`
    /// means the stamp validates. The name feeds the `cache.miss.<field>`
    /// counters and cache-debugging messages, so a stale file says *why*
    /// it was rejected instead of silently recomputing.
    #[must_use]
    pub fn first_mismatch(&self, stamp: &Self) -> Option<&'static str> {
        if self.domain != stamp.domain {
            return Some("domain");
        }
        if self.space_hash != stamp.space_hash {
            return Some("space");
        }
        if self.scale != stamp.scale {
            return Some("scale");
        }
        if self.params != stamp.params {
            return Some("params");
        }
        if self.seed != stamp.seed {
            return Some("seed");
        }
        if self.len != stamp.len {
            return Some("n");
        }
        if self.attack != stamp.attack {
            return Some("attack");
        }
        if self.evo != stamp.evo {
            return Some("evo");
        }
        if self.attrib != stamp.attrib {
            return Some("attrib");
        }
        None
    }

    /// Parses a metadata stamp; `None` when the line is not a v1 stamp.
    #[must_use]
    pub fn parse_meta(line: &str) -> Option<Self> {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("#") || tokens.next() != Some("dsa-sweep") {
            return None;
        }
        if tokens.next() != Some("v1") {
            return None;
        }
        let mut domain = None;
        let mut space_hash = None;
        let mut scale = None;
        let mut params = None;
        let mut seed = None;
        let mut len = None;
        let mut attack = 0;
        let mut evo = 0;
        let mut attrib = 0;
        for token in tokens {
            let (key, value) = token.split_once('=')?;
            match key {
                "domain" => domain = Some(value.to_string()),
                "space" => space_hash = u64::from_str_radix(value, 16).ok(),
                "scale" => scale = Some(value.to_string()),
                "params" => params = u64::from_str_radix(value, 16).ok(),
                "seed" => seed = value.parse().ok(),
                "n" => len = value.parse().ok(),
                "attack" => attack = u64::from_str_radix(value, 16).ok()?,
                "evo" => evo = u64::from_str_radix(value, 16).ok()?,
                "attrib" => attrib = u64::from_str_radix(value, 16).ok()?,
                _ => {}
            }
        }
        Some(Self {
            domain: domain?,
            space_hash: space_hash?,
            scale: scale?,
            params: params?,
            seed: seed?,
            len: len?,
            attack,
            evo,
            attrib,
        })
    }
}

/// The `cache.miss.<field>` counter for a [`SweepKey::first_mismatch`]
/// field name (static, so disabled-metrics calls stay allocation-free).
fn miss_counter(field: &'static str) -> &'static str {
    match field {
        "domain" => "cache.miss.domain",
        "space" => "cache.miss.space",
        "scale" => "cache.miss.scale",
        "params" => "cache.miss.params",
        "seed" => "cache.miss.seed",
        "n" => "cache.miss.n",
        "attack" => "cache.miss.attack",
        "evo" => "cache.miss.evo",
        "attrib" => "cache.miss.attrib",
        _ => "cache.miss.other",
    }
}

/// Reads a stamped cache file and returns its body when the stamp's key
/// equals `key`. `Ok(None)` covers the "recompute, don't trust" cases:
/// missing file, missing stamp, or a stamp computed under any other key.
///
/// Every outcome is counted (when metrics are enabled): `cache.hit` for a
/// validated stamp, `cache.miss.absent` / `cache.miss.unstamped` for a
/// missing file or stamp, and `cache.miss.<field>` naming the first stamp
/// field that diverged ([`SweepKey::first_mismatch`]) — so a stale cache
/// reports *why* it was invalidated.
///
/// # Errors
///
/// Returns an error when the file exists but cannot be read.
pub fn read_stamped(path: &Path, key: &SweepKey) -> Result<Option<String>, String> {
    if !path.exists() {
        dsa_obs::incr("cache.miss.absent");
        dsa_obs::note_cache_event(cache_file_name(path), "miss.absent");
        return Ok(None);
    }
    let mut text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let Some(stamp_end) = text.find('\n') else {
        dsa_obs::incr("cache.miss.unstamped");
        dsa_obs::note_cache_event(cache_file_name(path), "miss.unstamped");
        return Ok(None);
    };
    match SweepKey::parse_meta(&text[..stamp_end]) {
        Some(stamp) => match key.first_mismatch(&stamp) {
            None => {
                dsa_obs::incr("cache.hit");
                dsa_obs::note_cache_event(cache_file_name(path), "hit");
                // Strip the stamp in place rather than copying the
                // (possibly multi-thousand-row) body into a second
                // allocation.
                text.drain(..=stamp_end);
                // Body sizes are a pure function of the workload (not of
                // timing), so this histogram is bit-identical across
                // thread counts and repeated runs.
                dsa_obs::observe("cache.read_bytes", text.len() as u64);
                Ok(Some(text))
            }
            Some(field) => {
                let counter = miss_counter(field);
                dsa_obs::incr(counter);
                let outcome = counter.strip_prefix("cache.").unwrap_or(counter);
                dsa_obs::note_cache_event(cache_file_name(path), outcome);
                Ok(None)
            }
        },
        None => {
            dsa_obs::incr("cache.miss.unstamped");
            dsa_obs::note_cache_event(cache_file_name(path), "miss.unstamped");
            Ok(None)
        }
    }
}

/// The bare file name a cache event is journaled under (paths vary with
/// the out-dir; file names are stable workload identifiers).
fn cache_file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("?")
}

/// Writes `body` under `key`'s stamp, atomically: the content goes to a
/// temporary sibling first and is renamed into place, so an interrupted
/// run can never leave a stamp-matching truncated file (which would
/// surface as a hard "corrupt cache" error on every subsequent run).
/// Every cache a run writes, whatever its kind, counts as one
/// `cache.store` and notes one `store` event (when metrics are enabled).
///
/// # Errors
///
/// Returns an error when the directory or file cannot be written.
pub fn write_stamped(path: &Path, key: &SweepKey, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut text = key.meta_line();
    text.push('\n');
    text.push_str(body);
    let tmp = path.with_extension(format!("csv.tmp.{}", std::process::id()));
    dsa_obs::observe("cache.write_bytes", body.len() as u64);
    std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("installing {}: {e}", path.display()))?;
    dsa_obs::incr("cache.store");
    dsa_obs::note_cache_event(cache_file_name(path), "store");
    Ok(())
}

/// A sweep together with its key and provenance.
#[derive(Debug, Clone)]
pub struct DomainSweep {
    /// The key the sweep was computed (or validated) under.
    pub key: SweepKey,
    /// Protocol display codes, in index order.
    pub names: Vec<String>,
    /// The PRA measures.
    pub results: PraResults,
    /// Whether this sweep was served from the cache.
    pub from_cache: bool,
}

impl DomainSweep {
    /// Attempts to load a cached sweep matching `key`. Returns `Ok(None)`
    /// when the file is missing, carries no (or a mismatched) stamp, or
    /// holds the wrong number of rows — all the "recompute, don't trust"
    /// cases.
    ///
    /// # Errors
    ///
    /// Returns an error when the file exists with a matching stamp but
    /// its body cannot be parsed (corruption should be surfaced, not
    /// silently recomputed over).
    pub fn load(key: &SweepKey, out_dir: &Path) -> Result<Option<Self>, String> {
        let path = key.cache_path(out_dir);
        let Some(body) = read_stamped(&path, key)? else {
            return Ok(None);
        };
        let (results, names) = PraResults::from_csv(&body)
            .map_err(|e| format!("corrupt sweep cache {}: {e}", path.display()))?;
        if results.len() != key.len {
            // The stamp validated (and counted as `cache.hit`) but the
            // body holds the wrong number of rows.
            dsa_obs::incr("cache.miss.rows");
            dsa_obs::note_cache_event(cache_file_name(&path), "miss.rows");
            return Ok(None);
        }
        Ok(Some(Self {
            key: key.clone(),
            names,
            results,
            from_cache: true,
        }))
    }

    /// Loads the cached sweep for a domain at a scale, or runs the full
    /// PRA quantification via the domain's erased simulator and caches
    /// it. The key's seed is `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns an error when a matching cache exists but is corrupt, or
    /// the cache cannot be written.
    pub fn load_or_compute(
        domain: &dyn DynDomain,
        effort: Effort,
        config: &PraConfig,
        scale: &str,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let key = SweepKey::of(domain, scale, effort, config);
        if let Some(cached) = Self::load(&key, out_dir)? {
            return Ok(cached);
        }
        let sweep = Self {
            key,
            names: domain.codes(),
            results: domain.quantify_all(effort, config),
            from_cache: false,
        };
        sweep.store(out_dir)?;
        Ok(sweep)
    }

    /// Writes the sweep to its cache path via [`write_stamped`]
    /// (atomic temp sibling + rename).
    ///
    /// # Errors
    ///
    /// Returns an error when a protocol name holds a line break (see
    /// [`crate::results::check_csv_field`]), before anything is written,
    /// and when the directory or file cannot be written.
    pub fn store(&self, out_dir: &Path) -> Result<PathBuf, String> {
        for name in &self.names {
            crate::results::check_csv_field(name)?;
        }
        let path = self.key.cache_path(out_dir);
        write_stamped(&path, &self.key, &self.results.to_csv(Some(&self.names)))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::erase;
    use crate::sim::testsim::ToyDomain;
    use crate::tournament::OpponentSampling;

    fn config() -> PraConfig {
        PraConfig {
            performance_runs: 2,
            encounter_runs: 1,
            sampling: OpponentSampling::Exhaustive,
            threads: 1,
            seed: 11,
            ..PraConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsa-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cached_sweep_is_bit_identical_to_fresh_compute() {
        let dir = temp_dir("roundtrip");
        let domain = erase(ToyDomain);
        let cfg = config();
        let fresh =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        assert!(!fresh.from_cache);
        let reloaded =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        assert!(reloaded.from_cache);
        // Bit-identical: PraResults is compared field by field on f64s.
        assert_eq!(fresh.results, reloaded.results);
        assert_eq!(fresh.names, reloaded.names);
        // And identical to an uncached recompute.
        let direct = domain.quantify_all(Effort::Smoke, &cfg);
        assert_eq!(reloaded.results, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_space_hash_is_recomputed_not_trusted() {
        let dir = temp_dir("hash");
        let domain = erase(ToyDomain);
        let cfg = config();
        let first =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        assert!(!first.from_cache);
        // Re-stamp the same file with another space hash, as if the
        // domain's actualization changed since it was written.
        let mut stale = first.clone();
        stale.key.space_hash ^= 0xDEAD_BEEF;
        stale.store(&dir).unwrap();
        assert!(DomainSweep::load(&first.key, &dir).unwrap().is_none());
        let recomputed =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        assert!(!recomputed.from_cache);
        assert_eq!(recomputed.results, first.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attack_stamped_cache_never_validates_a_plain_key() {
        let dir = temp_dir("attack");
        let domain = erase(ToyDomain);
        let cfg = config();
        let plain =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        // Re-stamp the same file as an attack sweep: the plain key must
        // no longer trust it, and the attack key must not trust a file
        // stamped with a different attack fingerprint.
        let mut attacked = plain.clone();
        attacked.key = attacked.key.with_attack(0xA77A);
        attacked.store(&dir).unwrap();
        let plain_key = SweepKey::of(&*domain, "smoke", Effort::Smoke, &cfg);
        assert!(DomainSweep::load(&plain_key, &dir).unwrap().is_none());
        let other_attack = plain_key.clone().with_attack(0xBEEF);
        assert!(DomainSweep::load(&other_attack, &dir).unwrap().is_none());
        let same_attack = plain_key.with_attack(0xA77A);
        assert!(DomainSweep::load(&same_attack, &dir).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_pra_parameters_are_recomputed_not_trusted() {
        let dir = temp_dir("params");
        let domain = erase(ToyDomain);
        let cfg = config();
        let first =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        assert!(!first.from_cache);
        // Same scale name and seed, but e.g. the sampling was edited: the
        // stamped params fingerprint no longer matches.
        let mut edited = cfg;
        edited.sampling = OpponentSampling::Sampled(2);
        let second =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &edited, "smoke", &dir).unwrap();
        assert!(!second.from_cache, "edited PRA config must recompute");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_scale_seed_or_len_is_recomputed() {
        let dir = temp_dir("meta");
        let domain = erase(ToyDomain);
        let cfg = config();
        let sweep =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &cfg, "smoke", &dir).unwrap();
        // Tamper with the stamp in place: claim another scale.
        let path = sweep.key.cache_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("scale=smoke", "scale=lab")).unwrap();
        let key = SweepKey::of(&*domain, "smoke", Effort::Smoke, &cfg);
        assert!(DomainSweep::load(&key, &dir).unwrap().is_none());
        // A different seed in the caller's key also misses.
        sweep.store(&dir).unwrap();
        let mut reseeded = cfg;
        reseeded.seed += 1;
        let key = SweepKey::of(&*domain, "smoke", Effort::Smoke, &reseeded);
        assert!(DomainSweep::load(&key, &dir).unwrap().is_none());
        // A wrong row count misses even when the stamp agrees.
        let mut short = sweep.clone();
        short.key.len = 4;
        assert!(DomainSweep::load(&short.key, &dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unstamped_legacy_file_is_ignored() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let domain = erase(ToyDomain);
        let key = SweepKey::of(&*domain, "smoke", Effort::Smoke, &config());
        // An old-format cache: plain CSV, no stamp.
        let body = "index,name,performance_raw,performance,robustness,aggressiveness\n\
                    0,g0,1,1,1,1\n1,g1,1,1,1,1\n2,g2,1,1,1,1\n3,g3,1,1,1,1\n4,g4,1,1,1,1\n";
        std::fs::write(key.cache_path(&dir), body).unwrap();
        assert!(DomainSweep::load(&key, &dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_name_with_a_line_break_is_rejected_before_writing() {
        let dir = temp_dir("linebreak");
        let domain = erase(ToyDomain);
        let mut sweep =
            DomainSweep::load_or_compute(&*domain, Effort::Smoke, &config(), "smoke", &dir)
                .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for bad in ["two\nlines", "carriage\rreturn", "\r\n"] {
            sweep.names[1] = bad.to_string();
            let err = sweep.store(&dir).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(!dir.exists(), "a rejected store left {}", dir.display());
        }
        // Commas and quotes are quoted and still round-trip.
        sweep.names[1] = "a, \"quoted\" name".to_string();
        sweep.names[2] = ",\"\",".to_string();
        sweep.store(&dir).unwrap();
        let back = DomainSweep::load(&sweep.key, &dir).unwrap().unwrap();
        assert_eq!(back.names, sweep.names);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_body_under_matching_stamp_is_an_error() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let domain = erase(ToyDomain);
        let key = SweepKey::of(&*domain, "smoke", Effort::Smoke, &config());
        let text = format!("{}\nnot,a,sweep\n", key.meta_line());
        std::fs::write(key.cache_path(&dir), text).unwrap();
        assert!(DomainSweep::load(&key, &dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_mismatch_names_each_diverging_field() {
        let key = SweepKey {
            domain: "rep".into(),
            space_hash: 0x0123,
            scale: "lab".into(),
            params: 0x4567,
            seed: 24301,
            len: 216,
            attack: 0xA77A,
            evo: 0xE40,
            attrib: 0xA11B,
        };
        assert_eq!(key.first_mismatch(&key), None);
        // One test probe per stamp field, mutated independently.
        let mut stamp = key.clone();
        stamp.domain = "swarm".into();
        assert_eq!(key.first_mismatch(&stamp), Some("domain"));
        let mut stamp = key.clone();
        stamp.space_hash ^= 1;
        assert_eq!(key.first_mismatch(&stamp), Some("space"));
        let mut stamp = key.clone();
        stamp.scale = "paper".into();
        assert_eq!(key.first_mismatch(&stamp), Some("scale"));
        let mut stamp = key.clone();
        stamp.params ^= 1;
        assert_eq!(key.first_mismatch(&stamp), Some("params"));
        let mut stamp = key.clone();
        stamp.seed += 1;
        assert_eq!(key.first_mismatch(&stamp), Some("seed"));
        let mut stamp = key.clone();
        stamp.len += 1;
        assert_eq!(key.first_mismatch(&stamp), Some("n"));
        let mut stamp = key.clone();
        stamp.attack = 0;
        assert_eq!(key.first_mismatch(&stamp), Some("attack"));
        let mut stamp = key.clone();
        stamp.evo = 0;
        assert_eq!(key.first_mismatch(&stamp), Some("evo"));
        let mut stamp = key.clone();
        stamp.attrib = 0;
        assert_eq!(key.first_mismatch(&stamp), Some("attrib"));
        // Divergence is reported in stamp order: the earliest field wins.
        let mut stamp = key.clone();
        stamp.scale = "paper".into();
        stamp.seed += 1;
        assert_eq!(key.first_mismatch(&stamp), Some("scale"));
        // `first_mismatch` is exactly stamp equality, so `read_stamped`'s
        // accept/reject decision is unchanged by the reason reporting.
        let stamp = key.clone().with_attack(key.attack ^ 1);
        assert!(key != stamp && key.first_mismatch(&stamp).is_some());
    }

    #[test]
    fn meta_line_roundtrips() {
        let key = SweepKey {
            domain: "rep".into(),
            space_hash: 0x0123_4567_89ab_cdef,
            scale: "lab".into(),
            params: 0x89ab_cdef_0123_4567,
            seed: 24301,
            len: 216,
            attack: 0,
            evo: 0,
            attrib: 0,
        };
        assert_eq!(SweepKey::parse_meta(&key.meta_line()), Some(key.clone()));
        // An attack fingerprint is stamped and round-trips; its stamp
        // never equals the plain key's.
        let attacked = key.clone().with_attack(0xBEEF);
        assert!(attacked.meta_line().contains("attack=000000000000beef"));
        assert_eq!(
            SweepKey::parse_meta(&attacked.meta_line()),
            Some(attacked.clone())
        );
        assert_ne!(attacked.meta_line(), key.meta_line());
        // An evo fingerprint is orthogonal to both: it round-trips and
        // never validates the plain or attack-stamped key.
        let evolved = key.clone().with_evo(0xE40);
        assert!(evolved.meta_line().contains("evo=0000000000000e40"));
        assert_eq!(
            SweepKey::parse_meta(&evolved.meta_line()),
            Some(evolved.clone())
        );
        assert_ne!(evolved, key);
        assert_ne!(evolved, attacked);
        // An attribution fingerprint is orthogonal to all three: it
        // round-trips and never validates plain, attack or evo stamps.
        let attributed = key.clone().with_attrib(0xA11B);
        assert!(attributed.meta_line().contains("attrib=000000000000a11b"));
        assert_eq!(
            SweepKey::parse_meta(&attributed.meta_line()),
            Some(attributed.clone())
        );
        assert_ne!(attributed, key);
        assert_ne!(attributed, attacked);
        assert_ne!(attributed, evolved);
        assert_ne!(SweepKey::parse_meta(&attacked.meta_line()), Some(key));
        assert!(SweepKey::parse_meta("index,name,performance_raw").is_none());
        assert!(SweepKey::parse_meta("# dsa-sweep v2 domain=x").is_none());
        // A stamp without a params field (pre-fingerprint format) is
        // stale by construction.
        assert!(SweepKey::parse_meta(
            "# dsa-sweep v1 domain=rep space=0123456789abcdef scale=lab seed=24301 n=216"
        )
        .is_none());
    }
}
