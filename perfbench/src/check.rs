//! Output correctness: a digest of each iteration's PRA results and
//! rendered text, invariants that hold at any seed, and the reference
//! digests kept for the default seed.

use crate::workload::{Produced, Workload, DEFAULT_SEED};
use dsa_core::domain::{fnv1a, fnv1a_continue};
use std::path::Path;

/// Digests at [`DEFAULT_SEED`], independent of thread count, tracing and
/// output directory. A change that alters any PRA value or figure text
/// changes these; re-bless them only for a deliberate output change.
const REFERENCE: [(Workload, u64); 4] = [
    (Workload::SwarmSmoke, 0x3c56_59cf_ac73_f3c4),
    (Workload::SwarmPaperSlice, 0xf51f_4eeb_4bf4_83a9),
    (Workload::RepExhaustive, 0x21e4_f6ce_ad54_f3e2),
    (Workload::WarmFigures, 0x2ae9_8b76_855d_6a03),
];

/// The reference digest of a workload at a seed, when one is kept.
#[must_use]
pub fn reference(workload: Workload, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    REFERENCE
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, digest)| digest)
}

/// FNV-1a over the f64 bits of every result vector and over the text, with
/// the output directory replaced by `<out>` so the digest does not depend
/// on where the run wrote.
#[must_use]
pub fn digest(produced: &Produced, out: &Path) -> u64 {
    let mut h = fnv1a(b"perfbench-digest-v1");
    for r in &produced.results {
        for v in [
            &r.performance_raw,
            &r.performance,
            &r.robustness,
            &r.aggressiveness,
        ] {
            h = fnv1a_continue(h, &(v.len() as u64).to_le_bytes());
            for x in v {
                h = fnv1a_continue(h, &x.to_bits().to_le_bytes());
            }
        }
    }
    let text = produced.text.replace(&out.display().to_string(), "<out>");
    fnv1a_continue(h, text.as_bytes())
}

/// Invariants every PRA result satisfies at any seed: no NaN, every
/// normalized measure in `[0, 1]`, and the best normalized performance
/// exactly 1. Returns one message per broken invariant.
#[must_use]
pub fn invariants(produced: &Produced) -> Vec<String> {
    let mut broken = Vec::new();
    for (k, r) in produced.results.iter().enumerate() {
        if r.performance_raw.iter().any(|x| x.is_nan()) {
            broken.push(format!("result {k}: NaN raw performance"));
        }
        for (name, v) in [
            ("performance", &r.performance),
            ("robustness", &r.robustness),
            ("aggressiveness", &r.aggressiveness),
        ] {
            if let Some(x) = v.iter().find(|x| !(0.0..=1.0).contains(*x)) {
                broken.push(format!("result {k}: {name} {x} outside [0, 1]"));
            }
        }
        let best = r
            .performance
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if best != 1.0 {
            broken.push(format!(
                "result {k}: best normalized performance {best}, not 1"
            ));
        }
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::results::PraResults;

    fn produced(perf: Vec<f64>, rob: Vec<f64>) -> Produced {
        let n = perf.len();
        Produced {
            results: vec![PraResults::new(perf.clone(), perf, rob, vec![0.5; n])],
            text: "wrote /tmp/x/cross-smoke.csv\n".into(),
        }
    }

    #[test]
    fn invariants_catch_nan_range_and_normalization() {
        assert!(invariants(&produced(vec![0.5, 1.0], vec![0.0, 1.0])).is_empty());
        assert_eq!(
            invariants(&produced(vec![0.5, 0.9], vec![0.0, 1.0])).len(),
            1
        );
        assert_eq!(
            invariants(&produced(vec![0.5, 1.0], vec![f64::NAN, 1.0])).len(),
            1
        );
        assert_eq!(
            invariants(&produced(vec![0.5, 1.0], vec![0.0, 1.5])).len(),
            1
        );
    }

    #[test]
    fn digest_ignores_the_output_directory_but_not_the_bits() {
        let p = produced(vec![0.5, 1.0], vec![0.0, 1.0]);
        let mut q = produced(vec![0.5, 1.0], vec![0.0, 1.0]);
        q.text = q.text.replace("/tmp/x", "/elsewhere");
        assert_eq!(
            digest(&p, Path::new("/tmp/x")),
            digest(&q, Path::new("/elsewhere"))
        );
        let r = produced(
            vec![0.5, 1.0],
            vec![0.0, f64::from_bits(1.0f64.to_bits() - 1)],
        );
        assert_ne!(
            digest(&p, Path::new("/tmp/x")),
            digest(&r, Path::new("/tmp/x"))
        );
    }
}
