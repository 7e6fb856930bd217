//! The allocating CSV splitter, the sorting rank and the
//! measure-per-comparison ranking that [`crate::results::split_csv`],
//! [`PraResults::rank_of`] and [`PraResults::ranked_by`] replaced, and the
//! tournament that materialized its whole schedule and one outcome per
//! pairing, which [`crate::pra::tournament_rates`] replaced, kept as test
//! references: the production code must return exactly what they return.

use crate::parallel::parallel_map_indexed;
use crate::pra::{PraConfig, PraPoint};
use crate::results::PraResults;
use crate::sim::EncounterSim;
use crate::tournament::{OpponentSampling, Pairing, WinLedger};
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling::sample_indices;
use dsa_workloads::seeds::SeedSeq;

/// Splits one CSV line honoring double-quoted fields, one `String` per
/// field.
fn split_csv(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                field.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut field));
            }
            _ => field.push(c),
        }
    }
    out.push(field);
    out
}

/// Protocol indices sorted best-first, evaluating the measure on both
/// sides of every comparison.
fn ranked_by(results: &PraResults, measure: impl Fn(&PraPoint) -> f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..results.len()).collect();
    idx.sort_by(|&a, &b| {
        let va = measure(&results.point(a));
        let vb = measure(&results.point(b));
        vb.partial_cmp(&va)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

/// 1-based position of `i` in the stable best-first sort.
fn rank_of(results: &PraResults, i: usize, measure: impl Fn(&PraPoint) -> f64) -> usize {
    ranked_by(results, measure)
        .iter()
        .position(|&x| x == i)
        .map_or(0, |p| p + 1)
}

/// The tournament schedule as a vector: every ordered pair protagonist-
/// major when exhaustive, each protagonist's drawn opponents when
/// sampled.
fn schedule(n: usize, sampling: OpponentSampling, seed: u64) -> Vec<Pairing> {
    let mut out = Vec::new();
    match sampling {
        OpponentSampling::Exhaustive => {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        out.push(Pairing {
                            protagonist: i,
                            opponent: j,
                        });
                    }
                }
            }
        }
        OpponentSampling::Sampled(k) => {
            let k = k.min(n.saturating_sub(1));
            let root = SeedSeq::new(seed);
            for i in 0..n {
                let mut rng: Xoshiro256pp = root.child(i as u64).rng();
                // Sample from n−1 "others" and skip over self.
                let mut opponents = sample_indices(n - 1, k, &mut rng);
                for o in &mut opponents {
                    if *o >= i {
                        *o += 1;
                    }
                }
                for j in opponents {
                    out.push(Pairing {
                        protagonist: i,
                        opponent: j,
                    });
                }
            }
        }
    }
    out
}

/// One tournament's win rates: the whole schedule, one
/// `(protagonist, wins, games)` outcome per pairing, then one ledger.
fn tournament_rates<S: EncounterSim>(
    sim: &S,
    protocols: &[S::Protocol],
    protagonist_share: f64,
    config: &PraConfig,
    phase_tag: u64,
) -> Vec<f64> {
    let n = protocols.len();
    let pairings = schedule(
        n,
        config.sampling,
        SeedSeq::new(config.seed).child(99).seed(),
    );
    let root = SeedSeq::new(config.seed).child(phase_tag);
    let runs = config.encounter_runs.max(1);
    let outcomes: Vec<(usize, u64, u64)> =
        parallel_map_indexed(pairings.len(), config.threads, |p| {
            let pairing = pairings[p];
            let node = root.child(p as u64);
            let mut wins = 0u64;
            for r in 0..runs {
                let seed = node.child(r as u64).seed();
                let (own, other) = sim.run_encounter(
                    &protocols[pairing.protagonist],
                    &protocols[pairing.opponent],
                    protagonist_share,
                    seed,
                );
                if own > other {
                    wins += 1;
                }
            }
            (pairing.protagonist, wins, runs as u64)
        });
    let mut ledger = WinLedger::new(n);
    for (prot, wins, games) in outcomes {
        ledger.record_batch(prot, wins, games);
    }
    ledger.rates()
}

mod tests {
    use super::*;
    use crate::tournament::Schedule;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Characters that exercise every splitter branch: plain ASCII, a
    /// two-byte UTF-8 character, the separator, the quote and a space.
    fn line_char() -> impl Strategy<Value = char> {
        prop_oneof![Just('a'), Just('é'), Just(','), Just('"'), Just(' ')]
    }

    fn text(max: usize) -> impl Strategy<Value = String> {
        vec(line_char(), 0..max).prop_map(|c| c.into_iter().collect())
    }

    /// Values a cache must round-trip: NaN, both infinities, both zeros,
    /// subnormals, the extremes of the normal range and arbitrary bits.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
            Just(f64::from_bits(1)),
            Just(-f64::MIN_POSITIVE / 3.0),
            Just(1e308),
            Just(-f64::MAX),
            Just(1.0 / 6.0),
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    /// Bits, with every NaN mapped to one (the CSV prints `NaN` for all).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Small integers (with both zeros and the infinities) so that most
    /// values tie; never NaN.
    fn tied() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..4).prop_map(|k| k as f64),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn splitter_matches_reference(line in text(24)) {
            let got: Vec<String> = crate::results::split_csv(&line)
                .map(|f| f.into_owned())
                .collect();
            prop_assert_eq!(got, split_csv(&line), "line {:?}", line);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn from_csv_roundtrips_every_value(
            rows in vec((text(8), value(), value(), value(), value()), 0..24),
            named in any::<bool>(),
        ) {
            let names: Vec<String> = rows.iter().map(|r| r.0.clone()).collect();
            let column = |k: usize| -> Vec<f64> {
                rows.iter().map(|r| [r.1, r.2, r.3, r.4][k]).collect()
            };
            let r = PraResults::new(column(0), column(1), column(2), column(3));
            let csv = r.to_csv(named.then_some(names.as_slice()));
            let (back, back_names) = PraResults::from_csv(&csv).expect("round trip");
            prop_assert_eq!(bits(&back.performance_raw), bits(&r.performance_raw));
            prop_assert_eq!(bits(&back.performance), bits(&r.performance));
            prop_assert_eq!(bits(&back.robustness), bits(&r.robustness));
            prop_assert_eq!(bits(&back.aggressiveness), bits(&r.aggressiveness));
            if named {
                prop_assert_eq!(back_names, names);
            } else {
                prop_assert!(back_names.iter().all(String::is_empty));
            }
        }

        /// The same permutation as the measure-per-comparison sort, over
        /// ties and NaN. A NaN makes the comparator inconsistent, and the
        /// standard sort may then panic: both sides must do the same.
        #[test]
        fn ranked_by_matches_reference(
            values in vec(prop_oneof![tied(), Just(f64::NAN)], 0..80),
        ) {
            let n = values.len();
            let r = PraResults::new(vec![0.0; n], values.clone(), vec![0.0; n], vec![0.0; n]);
            let quiet = |f: &dyn Fn() -> Vec<usize>| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
            };
            let got = quiet(&|| r.ranked_by(|p| p.performance));
            let want = quiet(&|| ranked_by(&r, |p| p.performance));
            prop_assert_eq!(got, want, "values = {:?}", values);
        }

        #[test]
        fn rank_of_matches_sorted_position(values in vec(tied(), 1..40)) {
            let n = values.len();
            let r = PraResults::new(vec![0.0; n], values.clone(), vec![0.0; n], vec![0.0; n]);
            for i in 0..=n {
                prop_assert_eq!(
                    r.rank_of(i, |p| p.performance),
                    rank_of(&r, i, |p| p.performance),
                    "i = {}, values = {:?}", i, values
                );
            }
        }
    }

    /// An encounter whose outcome hangs on the seed, both protocols and
    /// the share, with frequent ties: running a pairing at another
    /// pairing's seed, or against another opponent, changes some wins.
    struct SeededToy;

    impl EncounterSim for SeededToy {
        type Protocol = u64;

        fn run_homogeneous(&self, protocol: &u64, seed: u64) -> f64 {
            (SeedSeq::new(seed ^ protocol).seed() % 4) as f64
        }

        fn run_encounter(&self, a: &u64, b: &u64, fraction_a: f64, seed: u64) -> (f64, f64) {
            let mix = seed ^ a.rotate_left(17) ^ b.rotate_left(41) ^ fraction_a.to_bits();
            let x = SeedSeq::new(mix).seed();
            ((x % 4) as f64, ((x >> 2) % 4) as f64)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The index-addressed schedule lists the materialized one, and
        /// both shares' win rates are the materializing tournament's, bit
        /// for bit, at any thread count.
        #[test]
        fn tournament_matches_reference(
            n in 2usize..41,
            sampled in any::<bool>(),
            k in 0usize..12,
            runs in 1usize..4,
            threads in 1usize..9,
            phase_tag in 0u64..8,
            seed in any::<u64>(),
        ) {
            let sampling = if sampled {
                OpponentSampling::Sampled(k)
            } else {
                OpponentSampling::Exhaustive
            };
            let schedule_seed = SeedSeq::new(seed).child(99).seed();
            let want = schedule(n, sampling, schedule_seed);
            let by_index = Schedule::new(n, sampling, schedule_seed);
            let collected: Vec<Pairing> =
                (0..by_index.len()).map(|p| by_index.pairing(p)).collect();
            prop_assert_eq!(&collected, &want);
            prop_assert_eq!(&crate::tournament::schedule(n, sampling, schedule_seed), &want);

            let protocols: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let config = PraConfig {
                encounter_runs: runs,
                sampling,
                threads,
                seed,
                ..PraConfig::default()
            };
            for share in [config.robustness_share, config.aggressiveness_share] {
                let got = crate::pra::tournament_rates(&SeededToy, &protocols, share, &config, phase_tag);
                let want = tournament_rates(&SeededToy, &protocols, share, &config, phase_tag);
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "n = {}, sampling = {:?}, runs = {}, threads = {}, share = {}, tag = {}",
                    n, sampling, runs, threads, share, phase_tag
                );
            }
        }
    }
}
