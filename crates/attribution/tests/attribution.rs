//! Integration tests of the attribution subsystem against real domains
//! (gossip — small enough to sweep inside a test) and its stamped cache.

use dsa_attribution::{
    attribute_axis, attribute_surface, evolution_surface, fingerprint, interaction_scan, navigate,
    pra_surface, AttribTable, DesignMatrix, ResponseKind,
};
use dsa_core::cache::read_stamped;
use dsa_core::domain::Effort;
use dsa_core::pra::PraConfig;
use dsa_core::space::DesignSpace;
use dsa_core::tournament::OpponentSampling;
use dsa_evolution::payoff::EvoConfig;
use dsa_stats::encode::NamedColumn;
use dsa_stats::ols::{
    fit, nested_f_test, partial_eta_squared, residual_ss, Design, OlsFit, SumOfSquares,
};
use std::path::PathBuf;

fn smoke_pra() -> PraConfig {
    PraConfig {
        performance_runs: 1,
        encounter_runs: 1,
        sampling: OpponentSampling::Sampled(4),
        threads: 0,
        seed: 0x5EED,
        ..PraConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-attrib-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn pra_attribution_end_to_end_with_cache_and_navigator() {
    let dir = temp_dir("e2e");
    let domain = dsa_gossip::adapter::register();
    let cfg = smoke_pra();
    let surface = pra_surface(&*domain, Effort::Smoke, &cfg, "smoke", &dir).expect("surface");
    assert_eq!(surface.response, "pra");
    assert_eq!(surface.rows.len(), domain.size());
    assert_eq!(surface.axes.len(), 3);

    // The derived table computes, caches, and reloads bit-identically.
    let fresh = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("fresh");
    assert!(!fresh.from_cache);
    assert!(dir.join("attrib-gossip-pra-smoke.csv").exists());
    let cached = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("cached");
    assert!(cached.from_cache);
    assert_eq!(cached.to_csv(), fresh.to_csv());
    assert_eq!(cached.key, fresh.key);

    // Per-axis R² is reported and per-dimension effects are sane: the
    // full 108-protocol factorial supports the complete regression.
    for axis in &fresh.axes {
        assert_eq!(axis.n, domain.size());
        assert!(axis.r2.is_finite(), "axis {} has no R²", axis.axis);
        assert!((0.0..=1.0).contains(&axis.r2));
        assert_eq!(axis.dims.len(), domain.space().dimensions().len());
        for d in &axis.dims {
            assert!((0.0..=1.0).contains(&d.eta_sq), "{}: {d:?}", axis.axis);
            assert!((0.0..=1.0).contains(&d.partial_eta_sq));
            assert!(d.f_stat >= 0.0);
            assert!((0.0..=1.0).contains(&d.p_value));
        }
    }

    // The navigator proposes flips from a preset and verifies them
    // against the true sweep values (full-space surface: no NaNs).
    let dm = DesignMatrix::build(domain.space(), &surface.rows, 0);
    let axes = attribute_surface(&dm, &surface);
    let (perf, rob) = (&axes[0], &axes[1]);
    let start = domain.parse("lazy").expect("preset");
    let out = navigate(
        domain.space(),
        &dm,
        perf,
        Some(rob),
        &surface.axes[0].1,
        Some(&surface.axes[1].1),
        start,
        0.1,
        5,
    );
    for f in &out {
        assert!(f.predicted_improve > 0.0);
        assert!(f.actual_improve.is_finite());
        assert!(f.actual_guard.is_finite());
        assert_ne!(f.index, start);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attribution_is_bit_identical_across_thread_counts() {
    let dir = temp_dir("threads");
    let domain = dsa_gossip::adapter::register();
    let cfg = smoke_pra();
    let surface = pra_surface(&*domain, Effort::Smoke, &cfg, "smoke", &dir).expect("surface");
    let one = AttribTable::compute(&*domain, &surface, 1);
    let eight = AttribTable::compute(&*domain, &surface, 8);
    assert_eq!(one.to_csv(), eight.to_csv());
    assert_eq!(one.key, eight.key);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_source_stamp_or_spec_self_invalidates() {
    let dir = temp_dir("stale");
    let domain = dsa_gossip::adapter::register();
    let cfg = smoke_pra();
    let surface = pra_surface(&*domain, Effort::Smoke, &cfg, "smoke", &dir).expect("surface");
    let table = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("table");

    // A surface whose source sweep was recomputed under another seed
    // produces a different fingerprint: the cached table must miss.
    let mut reseeded = surface.clone();
    reseeded.sources = reseeded.sources.replace("seed=", "seed=9");
    assert_ne!(fingerprint(&surface), fingerprint(&reseeded));
    let stale_key = surface.base.clone().with_attrib(fingerprint(&reseeded));
    assert!(AttribTable::load(&stale_key, "pra", &dir)
        .unwrap()
        .is_none());

    // The attribution stamp never validates a plain sweep key (and the
    // plain key never validates the attribution file).
    let plain = surface.base.clone();
    assert!(read_stamped(&table.path(&dir), &plain).unwrap().is_none());
    let sweep_path = plain.cache_path(&dir);
    assert!(read_stamped(&sweep_path, &table.key).unwrap().is_none());

    // A corrupt body under a matching stamp is a hard error.
    let path = table.path(&dir);
    let text = std::fs::read_to_string(&path).unwrap();
    let stamp = text.split_once('\n').unwrap().0;
    std::fs::write(
        &path,
        format!("{stamp}\naxis,dimension,levels,eta_sq,partial_eta_sq,f_stat,p_value,r2,adj_r2,n\nperf,A,x,0,0,0,0,0,0,4\n"),
    )
    .unwrap();
    assert!(AttribTable::load(&table.key, "pra", &dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evolution_surface_degrades_to_one_way_effects() {
    // Four gossip candidates cannot support the full regression; the
    // attribution must still produce bounded one-way effect sizes and
    // flag the missing fit as NaN R², not fabricate one.
    let dir = temp_dir("evo");
    let domain = dsa_gossip::adapter::register();
    let cfg = EvoConfig {
        encounter_runs: 1,
        basin_samples: 8,
        moran_trials: 20,
        ..EvoConfig::default()
    };
    let candidates = dsa_evolution::default_candidates(&*domain);
    let surface = evolution_surface(&*domain, &candidates, Effort::Smoke, &cfg, "smoke", &dir)
        .expect("surface");
    assert_eq!(surface.response, "evolution");
    assert_eq!(surface.rows, candidates);
    let names: Vec<&str> = surface.axes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["selfpay", "basin", "fixation"]);
    let table = AttribTable::load_or_compute(&*domain, &surface, 0, &dir).expect("table");
    assert!(dir.join("attrib-gossip-evolution-smoke.csv").exists());
    for axis in &table.axes {
        assert_eq!(axis.n, candidates.len());
        for d in &axis.dims {
            assert!((0.0..=1.0).contains(&d.eta_sq));
        }
    }
    // The candidate subset is too small for the main-effects model.
    assert!(table.axes.iter().all(|a| a.r2.is_nan()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn response_kinds_resolve() {
    assert_eq!(ResponseKind::by_name("pra"), Some(ResponseKind::Pra));
    assert_eq!(ResponseKind::by_name("attack"), Some(ResponseKind::Attack));
    assert_eq!(
        ResponseKind::by_name("evolution"),
        Some(ResponseKind::Evolution)
    );
}

/// The dense 0/1 main-effects columns a design matrix stands for, built
/// straight from its coordinates: one indicator per non-baseline present
/// level, dimension-major, named `Dim=Level`. Returns the columns and each
/// coded dimension's block.
fn dense_main(space: &DesignSpace, dm: &DesignMatrix) -> (Vec<NamedColumn>, Vec<(usize, usize)>) {
    let mut cols = Vec::new();
    let mut blocks = Vec::new();
    for code in &dm.dims {
        let dim = &space.dimensions()[code.dim];
        let start = cols.len();
        for &level in &code.levels[1..] {
            let values = dm
                .coords
                .iter()
                .map(|c| f64::from(u8::from(c[code.dim] == level)))
                .collect();
            cols.push(NamedColumn::new(
                format!("{}={}", dim.name, dim.levels[level]),
                values,
            ));
        }
        blocks.push((start, cols.len()));
    }
    (cols, blocks)
}

/// The main-effects columns without block `k`.
fn dense_without(main: &[NamedColumn], blocks: &[(usize, usize)], k: usize) -> Vec<NamedColumn> {
    let (lo, hi) = blocks[k];
    [&main[..lo], &main[hi..]].concat()
}

/// The main-effects columns plus the products of blocks `a` and `b`,
/// `a`-major.
fn dense_interaction(
    main: &[NamedColumn],
    blocks: &[(usize, usize)],
    a: usize,
    b: usize,
) -> Vec<NamedColumn> {
    let mut out = main.to_vec();
    for ca in &main[blocks[a].0..blocks[a].1] {
        for cb in &main[blocks[b].0..blocks[b].1] {
            let values = ca
                .values
                .iter()
                .zip(&cb.values)
                .map(|(x, y)| x * y)
                .collect();
            out.push(NamedColumn::new(format!("{}×{}", ca.name, cb.name), values));
        }
    }
    out
}

/// Asserts that a view has the dense columns' names and that each of its
/// rows reports exactly their non-zero entries, in column order.
fn assert_view_is(view: &impl Design, dense: &[NamedColumn]) {
    assert_eq!(view.width(), dense.len());
    for (j, c) in dense.iter().enumerate() {
        assert_eq!(view.name(j), c.name);
    }
    let n = dense.first().map_or(0, |c| c.values.len());
    assert!(view.has_rows(n));
    for r in 0..n {
        let mut got = Vec::new();
        view.row(r, |j, x| got.push((j, x.to_bits())));
        let want: Vec<(usize, u64)> = dense
            .iter()
            .enumerate()
            .filter(|(_, c)| c.values[r] != 0.0)
            .map(|(j, c)| (j, c.values[r].to_bits()))
            .collect();
        assert_eq!(got, want, "row {r}");
    }
}

fn fit_bits(f: &OlsFit) -> (Vec<String>, Vec<u64>) {
    let mut v: Vec<f64> = f
        .terms
        .iter()
        .flat_map(|t| [t.estimate, t.std_error, t.t_value, t.p_value])
        .collect();
    v.extend([
        f.r_squared,
        f.adj_r_squared,
        f.residual_std_error,
        f.ss_res,
        f.ss_tot,
        f.df_residual as f64,
    ]);
    let names = f.terms.iter().map(|t| t.name.clone()).collect();
    (names, v.iter().map(|x| x.to_bits()).collect())
}

fn ss_bits(s: &SumOfSquares) -> (u64, u64, usize) {
    (s.ss_res.to_bits(), s.ss_tot.to_bits(), s.df_residual)
}

/// Checks every attribution view of the full space against the dense
/// columns it stands for, then `attribute_axis` and `interaction_scan`
/// bit for bit against the same models fed through those columns.
fn assert_views_match_dense(space: &DesignSpace, y: &[f64]) {
    let rows: Vec<usize> = space.indices().collect();
    let dm = DesignMatrix::build(space, &rows, 1);
    let (main, blocks) = dense_main(space, &dm);
    let k = dm.dims.len();

    assert_view_is(&dm.main_effects(), &main);
    let full = residual_ss(&main, y).expect("full-rank main effects");
    assert_eq!(
        ss_bits(&residual_ss(&dm.main_effects(), y).unwrap()),
        ss_bits(&full)
    );
    let at = attribute_axis(&dm, "synthetic", y);
    let dense_fit = fit(&main, y).expect("full-rank main effects");
    assert_eq!(
        fit_bits(at.fit.as_ref().expect("fit")),
        fit_bits(&dense_fit)
    );
    for (d, effect) in at.dims.iter().enumerate() {
        let without = dense_without(&main, &blocks, d);
        assert_view_is(&dm.without(d), &without);
        let reduced = residual_ss(&without, y).expect("full-rank reduced model");
        assert_eq!(
            ss_bits(&residual_ss(&dm.without(d), y).unwrap()),
            ss_bits(&reduced)
        );
        let (f_stat, p_value) = nested_f_test(&full, &reduced);
        assert_eq!(effect.f_stat.to_bits(), f_stat.to_bits(), "{}", effect.name);
        assert_eq!(
            effect.p_value.to_bits(),
            p_value.to_bits(),
            "{}",
            effect.name
        );
        assert_eq!(
            effect.partial_eta_sq.to_bits(),
            partial_eta_squared(&full, &reduced).to_bits(),
            "{}",
            effect.name
        );
    }

    let scan = interaction_scan(&dm, y);
    assert_eq!(scan.len(), k * (k - 1) / 2);
    for a in 0..k {
        for b in a + 1..k {
            let dense = dense_interaction(&main, &blocks, a, b);
            let view = dm.with_interaction(a, b);
            assert_view_is(&view, &dense);
            let aug = residual_ss(&dense, y).expect("full-rank interaction model");
            assert_eq!(ss_bits(&residual_ss(&view, y).unwrap()), ss_bits(&aug));
            let effect = scan
                .iter()
                .find(|e| e.dim_a == dm.dims[a].name && e.dim_b == dm.dims[b].name)
                .expect("scanned pair");
            assert_eq!(effect.columns, dense.len() - main.len());
            let delta_r2 = (aug.r_squared() - full.r_squared()).max(0.0);
            let (f_stat, p_value) = nested_f_test(&aug, &full);
            assert_eq!(effect.delta_r2.to_bits(), delta_r2.to_bits());
            assert_eq!(effect.f_stat.to_bits(), f_stat.to_bits());
            assert_eq!(effect.p_value.to_bits(), p_value.to_bits());
        }
    }
}

#[test]
fn rep_space_views_match_the_dense_design_bit_for_bit() {
    let space = dsa_reputation::protocol::design_space();
    let y: Vec<f64> = space
        .indices()
        .map(|i| {
            let c = space.coords(i);
            let noise = ((i * 37 % 11) as f64 - 5.0) / 100.0;
            0.3 * c[2] as f64 + 0.2 * c[3] as f64 + 0.05 * c[0] as f64 + noise
        })
        .collect();
    assert_views_match_dense(&space, &y);
}

#[test]
fn swarm_space_views_match_the_dense_design_bit_for_bit() {
    let space = dsa_swarm::protocol::design_space();
    let y: Vec<f64> = space
        .indices()
        .map(|i| {
            let c = space.coords(i);
            let noise = ((i * 37 % 11) as f64 - 5.0) / 100.0;
            0.3 * c[0] as f64
                + 0.01 * (c[1] % 12) as f64
                + 0.2 * c[2] as f64
                + 0.002 * (c[0] * (c[1] % 7)) as f64
                + noise
        })
        .collect();
    assert_views_match_dense(&space, &y);
}
