//! Pins every byte a warm figure pass prints and writes.
//!
//! Deterministic synthetic PRA sweeps for swarm, gossip and reputation
//! are stored under the smoke cache keys, so nothing is simulated. Their
//! robustness and aggressiveness sit on the 1/6 grid with many ties
//! (duplicate and coplanar points for the hull), and performance has a
//! many-way tie at its maximum (ties for every ranking). Every section of
//! the `warm-figures` benchmark pass is then rendered twice through the
//! same entry points: `SweepData::load_or_compute` with fig2–fig8, table3
//! and birds, then `gossip_dsa`, `reputation_dsa`, `cross_domain` and
//! `attribution`. The first render fills the attribution tables; the
//! second is warm. FNV-1a digests cover the warm text (with the output
//! directory replaced) and the bytes of `cross-smoke.csv` and
//! `attribution-smoke.csv`, which hold the hull volume and the effect
//! sizes at full precision. A change to cache parsing, ranking, the hull
//! or any renderer that flips one output byte changes a digest. Re-bless
//! them only for a deliberate output change, and say why in the commit.

use dsa_attribution::ResponseKind;
use dsa_bench::scale::Scale;
use dsa_bench::sweep::SweepData;
use dsa_bench::{attribfig, figures, gossipfig, prafig, regress, repfig};
use dsa_core::cache::{DomainSweep, SweepKey};
use dsa_core::domain::{fnv1a, fnv1a_continue};
use dsa_core::results::PraResults;
use dsa_stats::describe::normalize_by_max;
use std::path::{Path, PathBuf};

/// The digests the warm pass produced when this test was written: the
/// figures through `cross` with `cross-smoke.csv`, and the attribution
/// section with `attribution-smoke.csv`.
const GOLDEN_FIGURES: u64 = 0x32f9_654a_43a6_21ba;
const GOLDEN_ATTRIBUTION: u64 = 0x129f_5543_05f9_6b34;

/// splitmix64: a deterministic stream of synthetic measures.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A synthetic sweep of `n` protocols. One protocol in eight ties at the
/// raw performance maximum; the rest spread below it with coarse steps,
/// so lower values tie too. R is on the 1/6 grid and A is R moved by at
/// most one grid step, so the R–A cloud is mostly duplicates.
fn synthetic(n: usize, seed: u64) -> PraResults {
    let mut rng = Rng(seed);
    let mut raw = Vec::with_capacity(n);
    let mut rob = Vec::with_capacity(n);
    let mut agg = Vec::with_capacity(n);
    for _ in 0..n {
        raw.push(if rng.below(8) == 0 {
            144.1497
        } else {
            144.1497 * (rng.below(40) as f64 / 48.0)
        });
        let r = rng.below(7);
        let a = (r + rng.below(3)).saturating_sub(1).min(6);
        rob.push(r as f64 / 6.0);
        agg.push(a as f64 / 6.0);
    }
    let perf = normalize_by_max(&raw);
    PraResults::new(raw, perf, rob, agg)
}

/// Stores `results` under `key` with the domain's protocol codes, as a
/// cold sweep would have, and checks that the key validates.
fn store(key: SweepKey, names: Vec<String>, results: PraResults, dir: &Path) {
    let sweep = DomainSweep {
        key,
        names,
        results,
        from_cache: false,
    };
    sweep.store(dir).expect("store synthetic sweep");
    assert!(
        DomainSweep::load(&sweep.key, dir).expect("load").is_some(),
        "{} sweep must load under its own key",
        sweep.key.domain
    );
}

fn push_section(text: &mut String, id: &str, body: &str) {
    text.push_str("==== ");
    text.push_str(id);
    text.push_str(" ====\n");
    text.push_str(body);
    text.push('\n');
}

/// Every `warm-figures` section up to `cross`, in the benchmark's order.
fn render_figures(scale: &Scale, dir: &Path) -> String {
    let data = SweepData::load_or_compute(scale, dir).expect("swarm sweep");
    let mut text = String::new();
    push_section(&mut text, "fig2", &figures::fig2(&data));
    push_section(&mut text, "fig3", &figures::fig3_fig4(&data, false));
    push_section(&mut text, "fig4", &figures::fig3_fig4(&data, true));
    push_section(&mut text, "fig5", &figures::fig5(&data));
    push_section(&mut text, "fig6", &figures::fig6_fig7(&data, false));
    push_section(&mut text, "fig7", &figures::fig6_fig7(&data, true));
    push_section(&mut text, "fig8", &figures::fig8(&data));
    push_section(&mut text, "table3", &regress::table3(&data).render());
    push_section(&mut text, "birds", &figures::birds_placement(&data));
    let gossip = gossipfig::gossip_dsa(scale, dir).expect("gossip");
    push_section(&mut text, "gossip", &gossip);
    let rep = repfig::reputation_dsa(scale, dir).expect("rep");
    push_section(&mut text, "rep", &rep);
    let cross = prafig::cross_domain(scale, dir).expect("cross");
    push_section(&mut text, "cross", &cross);
    text
}

/// The pass's last section.
fn render_attribution(scale: &Scale, dir: &Path) -> String {
    let mut text = String::new();
    let attribution =
        attribfig::attribution(scale, dir, &[ResponseKind::Pra]).expect("attribution");
    push_section(&mut text, "attribution", &attribution);
    text
}

/// A fresh output directory holding the three synthetic smoke sweeps.
fn warm_caches(tag: &str) -> (Scale, PathBuf) {
    let domains = dsa_bench::register_domains();
    let scale = Scale::smoke();
    let dir = std::env::temp_dir().join(format!("dsa-warm-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (seed, domain) in [0x5A, 0x60, 0x4E].into_iter().zip(&domains) {
        let key = if domain.name() == "swarm" {
            SweepData::cache_key(&scale)
        } else {
            SweepKey::of(&**domain, scale.name, scale.effort(), &scale.pra)
        };
        store(key, domain.codes(), synthetic(domain.size(), seed), &dir);
    }
    (scale, dir)
}

/// FNV-1a over `text` with the output directory replaced, then the
/// bytes of each of `files`; removes the directory.
fn digest(text: &str, dir: &Path, files: &[&str]) -> (u64, String) {
    let shown = text.replace(&dir.display().to_string(), "<out>");
    let mut h = fnv1a(shown.as_bytes());
    for file in files {
        let bytes = std::fs::read(dir.join(file)).expect("summary CSV");
        h = fnv1a_continue(h, &bytes);
    }
    let _ = std::fs::remove_dir_all(dir);
    (h, shown)
}

#[test]
fn warm_figure_pass_is_pinned() {
    let (scale, dir) = warm_caches("figures");
    let cold = render_figures(&scale, &dir);
    let warm = render_figures(&scale, &dir);
    assert!(!cold.contains("computed and cached"), "a sweep missed");
    assert_eq!(warm, cold);
    let (h, shown) = digest(&warm, &dir, &["cross-smoke.csv"]);
    assert_eq!(
        h, GOLDEN_FIGURES,
        "warm figure digest {h:#018x}; the pass printed:\n{shown}"
    );
}

/// The first render fits every attribution table, the swarm table's
/// 1092-column interaction scan included: ~12 s in a debug build, so
/// this part runs in release (`cargo test --release -p dsa-bench --test
/// warm_golden`, a CI step).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "fits the swarm interaction scan; run with --release"
)]
fn warm_attribution_is_pinned() {
    let (scale, dir) = warm_caches("attribution");
    let cold = render_attribution(&scale, &dir);
    let warm = render_attribution(&scale, &dir);
    assert!(cold.contains("table computed"), "{cold}");
    assert!(!warm.contains("table computed"), "a table missed warm");
    assert_eq!(warm, cold.replace("table computed", "table from cache"));
    let (h, shown) = digest(&warm, &dir, &["attribution-smoke.csv"]);
    assert_eq!(
        h, GOLDEN_ATTRIBUTION,
        "warm attribution digest {h:#018x}; the pass printed:\n{shown}"
    );
}
