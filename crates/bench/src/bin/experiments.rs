//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--scale smoke|lab|paper] [--seed N] [--out DIR] [--threads N]
//!             [--budgets B1,B2,...] [--mutants P1,P2,...]
//!             [--response pra,attack,evolution] [--metrics] [--trace]
//!             [--alloc] <id>...
//!
//! ids: fig1 table1 table2 nash fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!      table3 churn corr9010 birds fig9a fig9b fig9c fig10 gossip
//!      rep whitewash cross attacks evolution attribution profile
//!      search all
//! ```
//!
//! Sweep-based experiments share content-addressed caches at
//! `<out>/pra-<domain>-<scale>.csv` — the swarm sweep feeds fig2–fig8,
//! table3, birds and corr9010; the gossip and reputation sweeps feed
//! `gossip`, `rep` and the cross-domain comparison (`cross`). The
//! `attacks` experiment caches one robustness-under-budget sweep per
//! (domain, attack model) at `<out>/attack-<domain>-<model>-<scale>.csv`
//! (`--budgets` overrides the default 5%–50% grid and is part of the
//! stamp). The `evolution` experiment caches one empirical payoff matrix
//! per domain at `<out>/evo-<domain>-<scale>.csv` (`--mutants` adds
//! protocols to each domain's candidate set and is part of the stamp).
//! The `attribution` experiment derives per-dimension effect-size tables
//! from those caches (one per (domain, response) at
//! `<out>/attrib-<domain>-<response>-<scale>.csv`, holding the effect
//! sizes, estimates and interaction scans it prints, so a warm run fits
//! nothing; `--response` selects which surfaces to explain, default
//! `pra`). A cache stamped with a
//! different space hash, scale, seed, parameter fingerprint, attack,
//! evo or attrib key is recomputed automatically; delete the file to
//! force a re-run.
//!
//! `--metrics` turns the [`dsa_obs`] counters/gauges/histograms on for
//! the whole run and `--trace` additionally records spans; both print an
//! observability epilogue and append the run's record to
//! `<out>/journal.jsonl` (query it with `dsa obs runs/diff/regress`).
//! `--alloc` (implies `--metrics`) turns on the runtime counting
//! allocator: `mem.alloc.{count,bytes}` and the per-run
//! `mem.run_allocs.*` histograms join the final RSS reading and the
//! arena-footprint gauges that `--metrics` already records. The
//! `profile` id renders the per-engine time-attribution figure and
//! always journals itself (it manages, and resets, the obs registries
//! itself).
//!
//! The command line is parsed with [`dsa_bench::cli`], the parser `dsa`
//! uses: a repeated flag takes its first value, except `--mutants`,
//! whose lists add up.

use dsa_bench::attackfig;
use dsa_bench::attribfig;
use dsa_bench::btfigs;
use dsa_bench::cli::{self, check_flags, flag, split_flags, take_switch, ObsSwitches};
use dsa_bench::evofig;
use dsa_bench::figures;
use dsa_bench::gossipfig;
use dsa_bench::nashdemo;
use dsa_bench::prafig;
use dsa_bench::profilefig;
use dsa_bench::regress;
use dsa_bench::repfig;
use dsa_bench::scale::Scale;
use dsa_bench::sweep::SweepData;
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_gametheory::classes::ClassParams;
use std::path::PathBuf;
use std::process::ExitCode;

const ALL_IDS: &[&str] = &[
    "fig1",
    "table1",
    "table2",
    "nash",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "churn",
    "corr9010",
    "birds",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "gossip",
    "rep",
    "whitewash",
    "cross",
    "attacks",
    "evolution",
    "attribution",
    "profile",
    "search",
];

struct Options {
    scale: Scale,
    out: PathBuf,
    budgets: Option<Vec<f64>>,
    mutants: Vec<String>,
    responses: Vec<dsa_attribution::ResponseKind>,
    obs: ObsSwitches,
    ids: Vec<String>,
}

// The runtime counting allocator behind --alloc.
#[global_allocator]
static GLOBAL_ALLOC: dsa_obs::alloc::CountingAlloc = dsa_obs::alloc::CountingAlloc;

fn usage() -> String {
    format!(
        "usage: experiments [--scale smoke|lab|paper] [--seed N] [--out DIR] \
         [--threads N] [--budgets B1,B2,...] [--mutants P1,P2,...] \
         [--response pra,attack,evolution] [--metrics] [--trace] [--alloc] \
         <id>...\nids: {} all",
        ALL_IDS.join(" ")
    )
}

/// Parses the command line (without the program name); `Ok(None)` means
/// `--help` or `-h` was asked for.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let (long_help, args) = take_switch(args, "--help");
    let (short_help, args) = take_switch(&args, "-h");
    if long_help || short_help {
        return Ok(None);
    }
    let (obs, args) = ObsSwitches::take(&args);
    let (mut ids, flags) = split_flags(&args)?;
    check_flags(
        &flags,
        &[
            "scale", "seed", "out", "threads", "budgets", "mutants", "response",
        ],
    )?;
    if let Some(stray) = ids.iter().find(|id| id.starts_with('-')) {
        return Err(format!("unknown flag '{stray}'"));
    }
    let scale_name: String = flag(&flags, "scale", "lab".to_string())?;
    let mut scale = Scale::by_name(&scale_name).ok_or(format!("unknown scale '{scale_name}'"))?;
    scale.pra.seed = flag(&flags, "seed", scale.pra.seed)?;
    scale.pra.threads = flag(&flags, "threads", scale.pra.threads)?;
    let value = |name: &str| flags.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let budgets = value("budgets").map(|v| cli::budget_grid(v)).transpose()?;
    let responses = match value("response") {
        Some(v) => attribfig::parse_responses(v)?,
        None => vec![dsa_attribution::ResponseKind::Pra],
    };
    let mutants = flags
        .iter()
        .filter(|(n, _)| n == "mutants")
        .flat_map(|(_, v)| v.split(',').map(|t| t.trim().to_string()))
        .collect();
    if ids.is_empty() {
        return Err("no experiment ids given (try 'all')".to_string());
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| (*s).to_string()).collect();
    }
    Ok(Some(Options {
        scale,
        out: PathBuf::from(flag(&flags, "out", "results".to_string())?),
        budgets,
        mutants,
        responses,
        obs,
        ids,
    }))
}

fn main() -> ExitCode {
    // Sample the clock once at startup; journal records receive this
    // value instead of reading the clock themselves.
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    let t0 = std::time::Instant::now();
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&raw_args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            eprintln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    opts.obs.enable();

    // The sweep is shared by several ids; compute lazily, once.
    let mut sweep: Option<SweepData> = None;
    let mut get_sweep = |scale: &Scale, out: &PathBuf| -> Result<SweepData, String> {
        if let Some(s) = &sweep {
            return Ok(s.clone());
        }
        eprintln!(
            "[experiments] running PRA sweep at scale '{}' (cached at {}) ...",
            scale.name,
            SweepData::cache_key(scale).cache_path(out).display()
        );
        let data = SweepData::load_or_compute(scale, out)?;
        sweep = Some(data.clone());
        Ok(data)
    };

    let params = ClassParams::example_swarm();
    let bt_cfg = BtConfig::default();

    for id in &opts.ids {
        let header = format!("==== {id} (scale: {}) ====", opts.scale.name);
        println!("\n{header}");
        let body: Result<String, String> = match id.as_str() {
            "fig1" => Ok(nashdemo::fig1(10.0, 4.0)),
            "table1" => Ok(nashdemo::table1(&params)),
            "table2" => Ok(render_table2()),
            "nash" => Ok(nashdemo::nash_analysis(&params)),
            "fig2" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig2(&d)),
            "fig3" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig3_fig4(&d, false)),
            "fig4" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig3_fig4(&d, true)),
            "fig5" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig5(&d)),
            "fig6" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig6_fig7(&d, false)),
            "fig7" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig6_fig7(&d, true)),
            "fig8" => get_sweep(&opts.scale, &opts.out).map(|d| figures::fig8(&d)),
            "table3" => get_sweep(&opts.scale, &opts.out).map(|d| regress::table3(&d).render()),
            "birds" => get_sweep(&opts.scale, &opts.out).map(|d| figures::birds_placement(&d)),
            "corr9010" => {
                get_sweep(&opts.scale, &opts.out).map(|d| figures::corr_9010(&d, &opts.scale))
            }
            "churn" => Ok(figures::churn_experiment(&opts.scale)),
            "fig9a" => Ok(btfigs::fig9(
                ClientKind::LoyalWhenNeeded,
                ClientKind::BitTorrent,
                opts.scale.bt_runs,
                &bt_cfg,
                opts.scale.pra.seed,
            )),
            "fig9b" => Ok(btfigs::fig9(
                ClientKind::Birds,
                ClientKind::BitTorrent,
                opts.scale.bt_runs,
                &bt_cfg,
                opts.scale.pra.seed ^ 0xB,
            )),
            "fig9c" => Ok(btfigs::fig9(
                ClientKind::LoyalWhenNeeded,
                ClientKind::Birds,
                opts.scale.bt_runs,
                &bt_cfg,
                opts.scale.pra.seed ^ 0xC,
            )),
            "fig10" => Ok(btfigs::fig10(
                opts.scale.bt_runs,
                &bt_cfg,
                opts.scale.pra.seed ^ 0x10,
            )),
            "gossip" => gossipfig::gossip_dsa(&opts.scale, &opts.out),
            "rep" => repfig::reputation_dsa(&opts.scale, &opts.out),
            "whitewash" => Ok(repfig::whitewash_attack(opts.scale.pra.seed ^ 0x3E9)),
            "cross" => prafig::cross_domain(&opts.scale, &opts.out),
            "attacks" => attackfig::attacks(&opts.scale, &opts.out, opts.budgets.as_deref()),
            "evolution" => evofig::evolution(&opts.scale, &opts.out, &opts.mutants),
            "attribution" => attribfig::attribution(&opts.scale, &opts.out, &opts.responses),
            "profile" => profilefig::profile(&opts.scale, &opts.out, ts_ms),
            "search" => Ok(render_search(&opts.scale)),
            other => Err(format!("unknown experiment id '{other}'")),
        };
        match body {
            Ok(text) => println!("{text}"),
            Err(msg) => {
                eprintln!("error in {id}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.obs.any() {
        // Final memory boundary: one last RSS reading into the registry,
        // then fold the allocation tallies (no-op without --alloc) into
        // the snapshot the journal and epilogue both render from.
        dsa_obs::mem::sample();
        let mut snap = dsa_obs::snapshot();
        dsa_obs::alloc::publish_into(&mut snap);
        if !snap.is_empty() {
            println!("==== observability ====");
            print!("{}", snap.render());
            let threads = dsa_core::parallel::effective_threads(opts.scale.pra.threads, usize::MAX);
            // Journal the run's provenance. (The `profile` id journals its
            // own per-section record under the command `experiments
            // profile`; this epilogue record carries the full flag list,
            // so the two cohorts never mix in diff/regress windows.)
            let meta = dsa_obs::RunMeta {
                run_id: format!(
                    "experiments-{}-{ts_ms}-{}",
                    opts.scale.name,
                    std::process::id()
                ),
                binary: "experiments".to_string(),
                // The journaled command drops `--alloc`: it changes what
                // is observed, not what runs, and diff/regress group
                // comparable runs by command string — a mem-gated cohort
                // must include the baseline runs that had telemetry off.
                command: format!(
                    "experiments {}",
                    take_switch(&raw_args, "--alloc").1.join(" ")
                ),
                timestamp_ms: ts_ms,
                scale: Some(opts.scale.name.to_string()),
                domain: None,
                seed: Some(opts.scale.pra.seed),
                threads,
            };
            let wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
            let record = dsa_obs::JournalRecord::from_snapshot(meta, wall_ms, &snap);
            match dsa_obs::journal::append(&opts.out, &record, dsa_obs::journal::DEFAULT_MAX_BYTES)
            {
                Ok(path) => println!("journaled {} to {}", record.meta.run_id, path.display()),
                Err(msg) => eprintln!("journal append failed: {msg}"),
            }
        }
    }
    ExitCode::SUCCESS
}

fn render_table2() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("Table 2: existing protocols mapped to the generic design space\n");
    for row in dsa_swarm::presets::table2() {
        let _ = writeln!(
            out,
            "{:<24} stranger: {:<32} selection: {:<36} allocation: {:<28} → nearest actualized: {}",
            row.system,
            row.stranger_policy,
            row.selection_function,
            row.resource_allocation,
            row.nearest
        );
    }
    out
}

/// The §7 future-work demo: heuristic exploration instead of a full sweep.
fn render_search(scale: &Scale) -> String {
    use dsa_core::domain::Domain as _;
    use std::fmt::Write as _;
    let space = dsa_swarm::protocol::design_space();
    let sim = dsa_swarm::adapter::SwarmDomain.sim(scale.effort(), 0.0);
    // Objective: homogeneous performance at one seed (cheap proxy).
    let objective = |idx: usize| {
        dsa_core::sim::EncounterSim::run_homogeneous(
            &sim,
            &dsa_swarm::protocol::SwarmProtocol::from_index(idx),
            scale.pra.seed,
        )
    };
    let hc = dsa_core::search::hill_climb(&space, objective, 4, 400, scale.pra.seed);
    let ev = dsa_core::search::evolve(&space, objective, 6, 12, 20, 0.3, 400, scale.pra.seed);
    let mut out = String::from("Heuristic design-space exploration (§7 future work)\n");
    let _ = writeln!(
        out,
        "hill-climb : best {} (perf proxy {:.1}) in {} evaluations of {}",
        dsa_swarm::protocol::SwarmProtocol::from_index(hc.best_index),
        hc.best_value,
        hc.evaluations,
        space.size()
    );
    let _ = writeln!(
        out,
        "evolution  : best {} (perf proxy {:.1}) in {} evaluations of {}",
        dsa_swarm::protocol::SwarmProtocol::from_index(ev.best_index),
        ev.best_value,
        ev.evaluations,
        space.size()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Option<Options>, String> {
        let args: Vec<String> = tokens.iter().map(|t| (*t).to_string()).collect();
        parse_args(&args)
    }

    fn options(tokens: &[&str]) -> Options {
        match parse(tokens) {
            Ok(Some(o)) => o,
            Ok(None) => panic!("{tokens:?} asked for help"),
            Err(e) => panic!("{tokens:?}: {e}"),
        }
    }

    #[test]
    fn help_in_either_spelling_anywhere() {
        for help in [
            &["-h"][..],
            &["--help"],
            &["--scale", "smoke", "fig1", "-h"],
        ] {
            assert!(matches!(parse(help), Ok(None)), "{help:?}");
        }
    }

    #[test]
    fn flags_switches_and_ids() {
        let o = options(&[
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--threads",
            "2",
            "--out",
            "elsewhere",
            "--metrics",
            "fig1",
            "--alloc",
            "fig2",
        ]);
        assert_eq!(o.scale.name, "smoke");
        assert_eq!((o.scale.pra.seed, o.scale.pra.threads), (7, 2));
        assert_eq!(o.out, PathBuf::from("elsewhere"));
        assert_eq!(o.ids, ["fig1", "fig2"]);
        assert!(o.obs.metrics && o.obs.alloc && !o.obs.trace);
        assert_eq!(o.budgets, None);
        assert_eq!(o.responses, [dsa_attribution::ResponseKind::Pra]);
        let all = options(&["all"]);
        assert_eq!(all.ids.len(), ALL_IDS.len());
        assert_eq!((all.scale.name, all.scale.pra.seed), ("lab", 0x5EED));
        assert_eq!(all.out, PathBuf::from("results"));
    }

    #[test]
    fn repeated_mutants_add_up() {
        let o = options(&["--mutants", "a,b", "evolution", "--mutants", " c"]);
        assert_eq!(o.mutants, ["a", "b", "c"]);
    }

    #[test]
    fn budgets_form_a_strictly_increasing_grid_inside_the_unit_interval() {
        let o = options(&["--budgets", "0.1, 0.3", "attacks"]);
        assert_eq!(o.budgets, Some(vec![0.1, 0.3]));
        for bad in ["0.3,0.1", "0.1,0.1", "NaN", "0", "1", "0.1,inf", ""] {
            assert!(parse(&["--budgets", bad, "attacks"]).is_err(), "{bad}");
        }
    }

    /// Every flag and switch `experiments` takes, the values most likely
    /// to slip past a check, and ids.
    const TOKENS: &[&str] = &[
        "--scale",
        "--seed",
        "--out",
        "--threads",
        "--budgets",
        "--mutants",
        "--response",
        "--metrics",
        "--trace",
        "--alloc",
        "--help",
        "-h",
        "NaN",
        "inf",
        "-1",
        "0",
        "",
        "0.1,0.2",
        "smoke",
        "pra",
        "fig1",
        "all",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Any argv over the alphabet parses to options, help or an
        /// error, never a panic.
        #[test]
        fn parsing_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..10)) {
            let tokens: Vec<&str> = picks.iter().map(|&i| TOKENS[i]).collect();
            if let Ok(Some(o)) = parse(&tokens) {
                proptest::prop_assert!(!o.ids.is_empty());
            }
        }
    }

    #[test]
    fn bad_input_is_an_error() {
        for bad in [
            &[][..],
            &["--metrics"],
            &["--scale", "huge", "fig1"],
            &["--bogus", "1", "fig1"],
            &["-x", "fig1"],
            &["fig1", "--seed"],
            &["--seed", "-1", "fig1"],
            &["--threads", "NaN", "fig1"],
            &["--response", "nope", "attribution"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// FNV-1a over the search demo's text at smoke scale.
    const GOLDEN_SEARCH: u64 = 0xe1c6_ff44_2f1f_4bdc;

    #[test]
    fn search_is_pinned() {
        let s = render_search(&Scale::smoke());
        assert!(s.contains("hill-climb") && s.contains("evolution"), "{s}");
        let h = dsa_core::domain::fnv1a(s.as_bytes());
        assert_eq!(
            h, GOLDEN_SEARCH,
            "search digest {h:#018x}; it printed:\n{s}"
        );
    }
}
