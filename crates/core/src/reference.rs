//! The allocating CSV splitter, the sorting rank and the
//! measure-per-comparison ranking that [`crate::results::split_csv`],
//! [`PraResults::rank_of`] and [`PraResults::ranked_by`] replaced, kept as
//! test references: the production code must return exactly what they
//! return.

use crate::pra::PraPoint;
use crate::results::PraResults;

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

mod tests {
    use super::*;
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
}
