//! The command-line parser both binaries share.
//!
//! `dsa` and `experiments` read the same shape of command line: bare
//! switches (`--metrics`, `--json`, `--dry-run`, ...) that
//! [`take_switch`] strips first, then `--name value` pairs and
//! positionals that [`split_flags`] separates. A command reads typed
//! values with [`flag`] and [`count_flag`] and rejects names it does not
//! take with [`check_flags`]. The value checks several commands share —
//! an adversary budget, a budget grid, a percentage threshold — live here
//! too, so the two binaries cannot disagree about what they accept.
//! [`ObsSwitches`] strips and acts on the global `--metrics`, `--trace`
//! and `--alloc`, and [`ObsSwitches::finish`] ends every observed run of
//! either binary: one epilogue and at most one journal record.

use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

/// The observability switches both binaries take anywhere on the
/// command line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsSwitches {
    /// `--metrics`: counters, gauges and histograms.
    pub metrics: bool,
    /// `--trace`: the metrics plus span timing.
    pub trace: bool,
    /// `--alloc`: the metrics plus the counting allocator's tallies.
    pub alloc: bool,
}

impl ObsSwitches {
    /// Strips `--metrics`, `--trace` and `--alloc` from an argument list
    /// before any command-level flag check sees them.
    #[must_use]
    pub fn take(args: &[String]) -> (Self, Vec<String>) {
        let (metrics, rest) = take_switch(args, "--metrics");
        let (trace, rest) = take_switch(&rest, "--trace");
        let (alloc, rest) = take_switch(&rest, "--alloc");
        (
            Self {
                metrics,
                trace,
                alloc,
            },
            rest,
        )
    }

    /// Whether any switch was given: the run prints an epilogue.
    #[must_use]
    pub fn any(self) -> bool {
        self.metrics || self.trace || self.alloc
    }

    /// Turns on what the switches ask for. Counting allocations without a
    /// registry to land in would be invisible, so `--alloc` implies
    /// `--metrics`.
    pub fn enable(self) {
        if self.alloc {
            dsa_obs::alloc::enable();
        }
        if self.trace {
            dsa_obs::enable_trace();
        } else if self.any() {
            dsa_obs::enable_metrics();
        }
    }

    /// Ends a run the switches observed; both binaries call it last, so
    /// a run has one end. Takes a last RSS reading, folds the allocation
    /// tallies (no-op without `--alloc`) into the snapshot, prints the
    /// epilogue and, given the run's identity and results directory,
    /// appends its one journal record there with every cache event since
    /// the process started. Without a switch, or with empty registries,
    /// it prints and journals nothing.
    pub fn finish(self, started: Instant, journal: Option<(dsa_obs::RunMeta, &Path)>) {
        if !self.any() {
            return;
        }
        dsa_obs::mem::sample();
        let mut snap = dsa_obs::snapshot();
        dsa_obs::alloc::publish_into(&mut snap);
        if snap.is_empty() {
            return;
        }
        println!("==== observability ====");
        print!("{}", snap.render());
        let Some((meta, dir)) = journal else {
            return;
        };
        let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let record = dsa_obs::JournalRecord::from_snapshot(meta, wall_ms, &snap);
        match dsa_obs::journal::append(dir, &record, dsa_obs::journal::DEFAULT_MAX_BYTES) {
            Ok(path) => println!("journaled {} to {}", record.meta.run_id, path.display()),
            Err(msg) => eprintln!("journal append failed: {msg}"),
        }
    }
}

/// Unix milliseconds, which a binary samples once at start-up and hands
/// to its journal record.
#[must_use]
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Parsed `--flag value` pairs, in command-line order.
pub type Flags = Vec<(String, String)>;

/// Strips every occurrence of a bare (valueless) `--switch` from an
/// argument list, returning whether it was present. Must run before
/// [`split_flags`], which would otherwise take the next token as the
/// switch's value.
#[must_use]
pub fn take_switch(args: &[String], name: &str) -> (bool, Vec<String>) {
    let present = args.iter().any(|a| a == name);
    let rest = args
        .iter()
        .filter(|a| a.as_str() != name)
        .cloned()
        .collect();
    (present, rest)
}

/// Splits an argument list into positionals and `--flag value` pairs.
///
/// # Errors
///
/// A `--flag` with no token after it.
pub fn split_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

/// The value of `--name` parsed as `T` (the first occurrence when a flag
/// is repeated), or `default` when it is absent.
///
/// # Errors
///
/// A value that does not parse as `T`.
pub fn flag<T: FromStr>(flags: &[(String, String)], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(default),
        Some((_, v)) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
    }
}

/// Rejects flags outside a command's accepted set. Silently ignoring a
/// mistyped or unsupported flag would run a different configuration than
/// the user asked for and still exit 0.
///
/// # Errors
///
/// The first flag not in `allowed`.
pub fn check_flags(flags: &Flags, allowed: &[&str]) -> Result<(), String> {
    for (name, _) in flags {
        if !allowed.contains(&name.as_str()) {
            let accepted: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
            return Err(format!(
                "unknown flag --{name} (accepted: {})",
                accepted.join(", ")
            ));
        }
    }
    Ok(())
}

/// A count flag (`--runs`, `--steps`, `--keep`, `--window`, ...): at
/// least 1. Zero would silently run a different configuration, or none
/// at all.
///
/// # Errors
///
/// A value that is not a non-negative integer, or zero.
pub fn count_flag(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match flag(flags, name, default)? {
        0 => Err(format!("--{name} must be at least 1")),
        n => Ok(n),
    }
}

/// An adversary budget: the share of the population the attacker
/// controls, strictly inside (0, 1). NaN fails both comparisons.
///
/// # Errors
///
/// A budget outside (0, 1), or NaN.
pub fn budget(value: f64) -> Result<f64, String> {
    if value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(format!("a budget must lie in (0, 1), got {value}"))
    }
}

/// A comma-separated budget grid (`--budgets 0.1,0.2`): every entry a
/// [`budget`], strictly increasing.
///
/// # Errors
///
/// An entry that does not parse or is not a budget, or a grid that does
/// not increase.
pub fn budget_grid(list: &str) -> Result<Vec<f64>, String> {
    let grid: Vec<f64> = list
        .split(',')
        .map(|t| {
            let t = t.trim();
            let b: f64 = t.parse().map_err(|e| format!("bad budget '{t}': {e}"))?;
            budget(b)
        })
        .collect::<Result<_, String>>()?;
    if grid.windows(2).any(|w| w[1] <= w[0]) {
        return Err(format!("budgets must be strictly increasing, got {grid:?}"));
    }
    Ok(grid)
}

/// `--threshold`, a percentage change: finite and at least 0. A NaN or
/// infinite threshold makes every comparison against it false, so a
/// gate would pass anything.
///
/// # Errors
///
/// A value that does not parse, is not finite, or is negative.
pub fn threshold_flag(flags: &Flags, default: f64) -> Result<f64, String> {
    let pct = flag(flags, "threshold", default)?;
    if pct.is_finite() && pct >= 0.0 {
        Ok(pct)
    } else {
        Err(format!(
            "--threshold must be a finite percentage of at least 0, got {pct}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_string()).collect()
    }

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|(n, v)| ((*n).to_string(), (*v).to_string()))
            .collect()
    }

    #[test]
    fn switches_are_stripped_before_pairs_are_split() {
        let args = argv(&["obs", "runs", "--json", "--last", "3", "--json"]);
        let (json, rest) = take_switch(&args, "--json");
        assert!(json);
        assert_eq!(rest, argv(&["obs", "runs", "--last", "3"]));
        let (pos, flags) = split_flags(&rest).unwrap();
        assert_eq!(pos, argv(&["obs", "runs"]));
        assert_eq!(flags, vec![("last".to_string(), "3".to_string())]);
        // Without the strip, the switch swallows the next token.
        let (_, swallowed) = split_flags(&argv(&["--json", "-1"])).unwrap();
        assert_eq!(swallowed, vec![("json".to_string(), "-1".to_string())]);
        assert!(!take_switch(&rest, "--dry-run").0);
    }

    #[test]
    fn a_flag_without_a_value_is_an_error() {
        let err = split_flags(&argv(&["pra", "--seed"])).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
        // The value may itself look like anything, even an empty string.
        let (_, flags) = split_flags(&argv(&["--out", ""])).unwrap();
        assert_eq!(flags[0].1, "");
    }

    #[test]
    fn typed_values_defaults_and_repeats() {
        let f = flags(&[("seed", "7"), ("frac", "0.25"), ("seed", "9")]);
        assert_eq!(flag(&f, "seed", 1u64).unwrap(), 7, "first occurrence wins");
        assert_eq!(flag(&f, "frac", 0.5f64).unwrap(), 0.25);
        assert_eq!(flag(&f, "runs", 5usize).unwrap(), 5);
        let err = flag(&flags(&[("seed", "-1")]), "seed", 1u64).unwrap_err();
        assert!(err.starts_with("bad --seed"), "{err}");
    }

    #[test]
    fn unknown_flags_name_the_accepted_set() {
        let f = flags(&[("seed", "1"), ("sed", "2")]);
        let err = check_flags(&f, &["seed", "runs"]).unwrap_err();
        assert!(
            err.contains("--sed") && err.contains("--seed, --runs"),
            "{err}"
        );
        assert!(check_flags(&f[..1].to_vec(), &["seed"]).is_ok());
    }

    #[test]
    fn counts_are_at_least_one() {
        assert_eq!(count_flag(&flags(&[]), "runs", 3).unwrap(), 3);
        assert_eq!(
            count_flag(&flags(&[("keep", "2")]), "keep", 100).unwrap(),
            2
        );
        for bad in ["0", "-1", "NaN", "1.5", ""] {
            assert!(
                count_flag(&flags(&[("keep", bad)]), "keep", 100).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn budgets_lie_strictly_inside_the_unit_interval() {
        assert_eq!(budget(0.2).unwrap(), 0.2);
        for bad in [
            0.0,
            1.0,
            -0.1,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(budget(bad).is_err(), "{bad}");
        }
        assert_eq!(budget_grid("0.05, 0.1,0.5").unwrap(), vec![0.05, 0.1, 0.5]);
        for bad in [
            "0.1,0.1", "0.2,0.1", "NaN", "0.1,NaN", "0", "0.1,", "x", "inf",
        ] {
            assert!(budget_grid(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn thresholds_are_finite_and_non_negative() {
        assert_eq!(threshold_flag(&flags(&[]), 25.0).unwrap(), 25.0);
        assert_eq!(
            threshold_flag(&flags(&[("threshold", "0")]), 25.0).unwrap(),
            0.0
        );
        for bad in ["NaN", "inf", "-inf", "-5", "x"] {
            assert!(
                threshold_flag(&flags(&[("threshold", bad)]), 25.0).is_err(),
                "{bad}"
            );
        }
    }

    /// Both binaries' flags that take a value.
    const FLAGS: &[&str] = &[
        "--seed",
        "--churn",
        "--effort",
        "--frac",
        "--runs",
        "--sample",
        "--threads",
        "--budget",
        "--param",
        "--steps",
        "--response",
        "--scale",
        "--out",
        "--top",
        "--improve",
        "--guard",
        "--tolerance",
        "--restarts",
        "--domain",
        "--last",
        "--threshold",
        "--journal",
        "--window",
        "--floor",
        "--baselines",
        "--keep",
        "--budgets",
        "--mutants",
    ];

    /// The bare switches the binaries strip before splitting.
    const SWITCHES: &[&str] = &[
        "--metrics",
        "--trace",
        "--alloc",
        "--json",
        "--dry-run",
        "--all",
    ];

    /// The values most likely to slip past a check.
    const VALUES: &[&str] = &[
        "NaN", "inf", "-1", "0", "", "-h", "0.5", "7", "smoke", "fig1",
    ];

    /// Any token the two binaries might see.
    fn token(i: usize) -> &'static str {
        [FLAGS, SWITCHES, VALUES, &["--help"]]
            .concat()
            .get(i)
            .copied()
            .unwrap_or("--help")
    }

    fn strip_switches(args: &[String]) -> Vec<String> {
        SWITCHES.iter().fold(args.to_vec(), |rest, switch| {
            let (present, stripped) = take_switch(&rest, switch);
            assert_eq!(present, rest.iter().any(|a| a == switch));
            assert!(!stripped.iter().any(|a| a == switch));
            stripped
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any argv over the alphabet parses to a result, never a panic;
        /// every shared check answers too.
        #[test]
        fn parsing_never_panics(picks in proptest::collection::vec(0usize..48, 0..12)) {
            let args: Vec<String> = picks.iter().map(|&i| token(i).to_string()).collect();
            let rest = strip_switches(&args);
            match split_flags(&rest) {
                Ok((positional, flags)) => {
                    prop_assert_eq!(positional.len() + 2 * flags.len(), rest.len());
                    let _ = check_flags(&flags, &["seed", "runs", "frac"]);
                    for (name, value) in &flags {
                        let _ = flag(&flags, name, 0u64);
                        let _ = count_flag(&flags, name, 1);
                        if let Ok(b) = flag(&flags, name, 0.5f64) {
                            prop_assert_eq!(budget(b).is_ok(), b > 0.0 && b < 1.0);
                        }
                        let _ = budget_grid(value);
                    }
                    let _ = threshold_flag(&flags, 25.0);
                }
                // Only a flag in last place can lack its value.
                Err(_) => prop_assert!(rest.last().is_some_and(|a| a.starts_with("--"))),
            }
        }

        /// Built from `--flag value` pairs, positionals and switches, the
        /// argv splits back into exactly those pairs and positionals, and
        /// a flag given once reads back as its value.
        #[test]
        fn a_flag_given_once_reads_back(
            items in proptest::collection::vec(
                (0usize..3, 0usize..FLAGS.len(), 0usize..VALUES.len()),
                0..10,
            )
        ) {
            let mut args = Vec::new();
            let mut pairs = Vec::new();
            let mut positional = Vec::new();
            for &(kind, f, v) in &items {
                match kind {
                    0 => {
                        positional.push(VALUES[v].to_string());
                        args.push(VALUES[v].to_string());
                    }
                    1 => {
                        pairs.push((FLAGS[f][2..].to_string(), VALUES[v].to_string()));
                        args.extend([FLAGS[f].to_string(), VALUES[v].to_string()]);
                    }
                    _ => args.push(SWITCHES[f % SWITCHES.len()].to_string()),
                }
            }
            let (got_positional, got_flags) = split_flags(&strip_switches(&args)).unwrap();
            prop_assert_eq!(&got_positional, &positional);
            prop_assert_eq!(&got_flags, &pairs);
            for (name, value) in &pairs {
                if pairs.iter().filter(|(n, _)| n == name).count() == 1 {
                    prop_assert_eq!(&flag(&got_flags, name, String::from("absent")).unwrap(), value);
                }
            }
        }
    }
}
