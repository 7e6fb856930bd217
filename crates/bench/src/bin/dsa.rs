//! `dsa` — interactive command-line front end to the library.
//!
//! Where `experiments` regenerates the paper, `dsa` answers ad-hoc
//! questions about individual protocols. Every registered domain gets
//! the same command family through one generic dispatcher:
//!
//! ```text
//! dsa <domain> protocols [filter]        list protocols (substring filter on the code)
//! dsa <domain> describe <index|preset>   decode a protocol
//! dsa <domain> simulate <index|preset> [--seed N] [--churn R] [--effort smoke|lab|paper]
//! dsa <domain> encounter <a> <b> [--frac F] [--runs N] [--seed N] [--effort E]
//! dsa <domain> pra [<p1> <p2> ... | --all] [--seed N] [--sample K] [--effort E] [--threads N]
//!                                        (--sample: opponents per protocol, full space only)
//! dsa <domain> attack list               list the registered attack models
//! dsa <domain> attack run <model> <defender> [--budget B] [--runs N] [--seed N] [--effort E]
//!                                            [--param name=v1,v2,...]   (e.g. k=2,4,8)
//! dsa <domain> evolve matrix [<p>...] [--runs N] [--seed N] [--effort E] [--threads N]
//! dsa <domain> evolve run    [<p>...] [--steps S] [--runs N] [--seed N] [--effort E] [--threads N]
//! dsa <domain> evolve ess    [<p>...] [--runs N] [--seed N] [--effort E] [--threads N]
//! dsa <domain> attribute fit          [--response pra|attack|evolution] [--scale S] [--seed N]
//!                                     [--threads N] [--out DIR]
//! dsa <domain> attribute interactions [--top N] [+ the fit flags]
//! dsa <domain> attribute navigate <p> [--improve AXIS] [--guard AXIS|none] [--tolerance T]
//!                                     [--top N] [+ the fit flags]
//! dsa <domain> search [--seed N] [--budget N] [--restarts R] [--effort E]
//! dsa bt <kind-a> [kind-b] [--frac F] [--runs N]   (piece-level BitTorrent, swarm-only)
//! dsa obs runs [--out DIR] [--last N]    list the run journal (results/journal.jsonl)
//! dsa obs trace [--out FILE] [--domain D] [--scale S] [--seed N] [--threads N]
//!                                        run a traced PRA workload and export it as
//!                                        Chrome Trace Event JSON (Perfetto-loadable)
//! dsa obs diff <run-a> <run-b> [--out DIR] [--threshold PCT]
//!                                        per-span/per-metric deltas between two journal
//!                                        records (run ids, or -1/-2/... from the end)
//! dsa obs gc [--out DIR] [--keep N] [--dry-run]
//!                                        compact the journal to its newest N records
//!                                        (atomic rewrite; refuses on parse errors;
//!                                        --dry-run previews kept/dropped run ids)
//! ```
//!
//! `obs runs` and `obs diff` also take `--json`, emitting the same data
//! as one machine-readable JSON document. The journal is the only record
//! a run persists, and these commands are the only way to query it.
//!
//! The global `--metrics` switch turns the [`dsa_obs`] registries on for
//! any command and `--trace` additionally records spans; both print an
//! observability epilogue after the command's own output **and append a
//! provenance record to `<out>/journal.jsonl`** (see `dsa obs runs`).
//! `--metrics` also records the final process RSS; the global `--alloc`
//! switch (implies `--metrics`) additionally turns on the runtime
//! counting allocator, adding `mem.alloc.*` totals and the per-run
//! `mem.run_allocs.*` histograms, and gives each span end in `dsa obs
//! trace` its self allocation count.
//! `obs diff` rejects a `--threshold` that is negative or not finite;
//! `obs runs --last` and `obs gc --keep` must be at least 1.
//!
//! Domains: `swarm` (3270 protocols), `gossip` (108), `rep` (288).
//! A bare command (`dsa protocols ...`) defaults to the swarm domain, and
//! its journal record names `swarm`. `pra` and `evolve` count a protocol
//! listed twice (by index, preset or alias) once.
//! Attack models (`dsa-attacks`): sybil, collusion, whitewash, adaptive —
//! all parameterized adversaries that work on every domain.
//! `evolve` (`dsa-evolution`) runs population dynamics over a candidate
//! set (default: the domain's presets + canonical attackers): the
//! empirical payoff cross-table, the replicator trajectory from the
//! uniform mixture, and the ESS / basin / fixation classification.
//! `attribute` (`dsa-attribution`) renders `fit`, `interactions` and
//! `navigate` from one stamped table per (domain, response, scale),
//! `<out>/attrib-<domain>-<response>-<scale>.csv`, fitted only when it
//! misses. `navigate` rejects a negative or non-finite `--tolerance`, and
//! `interactions` and `navigate` reject `--top 0`. `attack run --budget`
//! must lie in (0, 1) and `search --budget` must be at least 1. Every
//! command parses its flags with [`dsa_bench::cli`], which `experiments`
//! shares.
//!
//! Presets: swarm has bittorrent, birds, loyal, sorts, random,
//! freerider; gossip has random-push, reciprocal, lazy, silent; rep has
//! baseline, tft, bartercast, eigentrust, elitist, prober, freerider,
//! whitewasher.
//! BT kinds: bittorrent, birds, loyal, sorts, random.

use dsa_bench::cli::{
    self, check_flags, count_flag, flag, split_flags, take_switch, Flags, ObsSwitches,
};
use dsa_btsim::choker::ClientKind;
use dsa_btsim::config::BtConfig;
use dsa_btsim::experiment::mixed_runs;
use dsa_core::domain::{DynDomain, Effort};
use dsa_core::pra::PraConfig;
use dsa_core::tournament::OpponentSampling;
use dsa_stats::ci::ConfidenceInterval;
use dsa_workloads::seeds::SeedSeq;
use std::process::ExitCode;

// The runtime counting allocator behind --alloc.
#[global_allocator]
static GLOBAL_ALLOC: dsa_obs::alloc::CountingAlloc = dsa_obs::alloc::CountingAlloc;

/// The generic per-domain subcommands.
const DOMAIN_COMMANDS: [&str; 9] = [
    "protocols",
    "describe",
    "simulate",
    "encounter",
    "pra",
    "attack",
    "evolve",
    "attribute",
    "search",
];

fn main() -> ExitCode {
    dsa_bench::register_domains();
    dsa_attacks::register_builtin();
    // Sample the clock once at startup; the journal record receives this
    // value instead of reading the clock itself.
    let ts_ms = cli::unix_ms();
    let t0 = std::time::Instant::now();
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    // The observability switches are global: strip them before any
    // command-level flag validation sees them.
    let (obs, args) = ObsSwitches::take(&raw_args);
    obs.enable();
    let result = match args.first().map(String::as_str) {
        Some("bt") => cmd_bt(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{}", help());
            return ExitCode::SUCCESS;
        }
        Some(name) => {
            if let Some(domain) = dsa_core::domain::lookup(name) {
                dispatch(&*domain, &args[1..])
            } else if DOMAIN_COMMANDS.contains(&name) {
                // Bare commands default to the paper's own domain.
                match dsa_core::domain::lookup("swarm") {
                    Some(domain) => dispatch(&*domain, &args),
                    None => Err("swarm domain not registered".into()),
                }
            } else {
                Err(format!("unknown domain or command '{name}' (try --help)"))
            }
        }
    };
    // `obs` meta-commands read or export the journal rather than run a
    // workload, and `obs trace`'s `--out` is a file, not a results dir:
    // they print the epilogue and journal nothing.
    let runs_workload = args.first().map(String::as_str) != Some("obs");
    let meta = run_meta_from_args(&raw_args, "dsa", ts_ms);
    let out_dir = journal_dir(&raw_args);
    obs.finish(t0, runs_workload.then_some((meta, out_dir.as_path())));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `--flag` in a raw argument list, if any.
fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Where this invocation's journal lives: the `--out` directory when one
/// was given, else `results`.
fn journal_dir(args: &[String]) -> std::path::PathBuf {
    std::path::PathBuf::from(arg_value(args, "--out").unwrap_or("results"))
}

/// Builds the journal metadata for this invocation out of the raw
/// argument list: best-effort extraction of the workload coordinates
/// (domain, scale/effort, seed, threads) without re-running any
/// command-specific parser.
fn run_meta_from_args(args: &[String], binary: &str, ts_ms: u64) -> dsa_obs::RunMeta {
    // The journaled command drops the observability switches: they
    // change what is recorded, not what runs, so one workload keeps one
    // command string whichever switches observed it. The domain is read
    // from it, so a switch may come first; bare domain commands run swarm.
    let (_, command) = ObsSwitches::take(args);
    let domain = match command.first().map(String::as_str) {
        Some(name) if dsa_core::domain::lookup(name).is_some() => Some(name.to_string()),
        Some(name) if DOMAIN_COMMANDS.contains(&name) => Some("swarm".to_string()),
        _ => None,
    };
    let scale = arg_value(args, "--scale")
        .or_else(|| arg_value(args, "--effort"))
        .map(str::to_string);
    let seed = arg_value(args, "--seed").and_then(|v| v.parse().ok());
    let requested = arg_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    dsa_obs::RunMeta {
        run_id: format!("{binary}-{ts_ms}-{}", std::process::id()),
        binary: binary.to_string(),
        command: format!("{binary} {}", command.join(" ")),
        timestamp_ms: ts_ms,
        scale,
        domain,
        seed,
        threads: dsa_core::parallel::effective_threads(requested, usize::MAX),
    }
}

fn help() -> String {
    let domains: Vec<String> = dsa_core::domain::registry()
        .iter()
        .map(|d| format!("{} ({} protocols)", d.name(), d.size()))
        .collect();
    let attacks: Vec<&str> = dsa_attacks::registry().iter().map(|m| m.name()).collect();
    format!(
        "dsa — Design Space Analysis toolkit\n\
         usage: dsa <domain> {{protocols|describe|simulate|encounter|pra|attack|evolve|attribute|search}} [...]\n\
         \u{20}      dsa bt <kind-a> [kind-b] [--frac F] [--runs N]\n\
         \u{20}      dsa obs {{runs|trace|diff <a> <b>|gc}} [--out DIR]\n\
         domains: {}\n\
         attacks: {} (dsa <domain> attack {{list|run}})\n\
         (bare commands default to the swarm domain; global --metrics/--trace\n\
         \u{20}record counters and spans for any command and journal the run, and\n\
         \u{20}--alloc adds runtime allocation counting; see crate docs for flags)",
        domains.join(", "),
        attacks.join(", ")
    )
}

/// Routes one generic subcommand to its implementation.
fn dispatch(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("protocols") => cmd_protocols(domain, &args[1..]),
        Some("describe") => cmd_describe(domain, &args[1..]),
        Some("simulate") => cmd_simulate(domain, &args[1..]),
        Some("encounter") => cmd_encounter(domain, &args[1..]),
        Some("pra") => cmd_pra(domain, &args[1..]),
        Some("attack") => cmd_attack(domain, &args[1..]),
        Some("evolve") => cmd_evolve(domain, &args[1..]),
        Some("attribute") => cmd_attribute(domain, &args[1..]),
        Some("search") => cmd_search(domain, &args[1..]),
        Some(other) => Err(format!(
            "unknown {} command '{other}' (expected one of: {})",
            domain.name(),
            DOMAIN_COMMANDS.join(", ")
        )),
        None => Err(format!(
            "{} needs a subcommand: {}",
            domain.name(),
            DOMAIN_COMMANDS.join(", ")
        )),
    }
}

fn effort_flag(flags: &Flags) -> Result<Effort, String> {
    let name: String = flag(flags, "effort", "smoke".to_string())?;
    Effort::by_name(&name).ok_or_else(|| format!("unknown --effort '{name}' (smoke|lab|paper)"))
}

fn churn_flag(domain: &dyn DynDomain, flags: &Flags) -> Result<f64, String> {
    let churn = flag(flags, "churn", 0.0f64)?;
    // The per-round departure probability of every peer.
    if !(0.0..=1.0).contains(&churn) {
        return Err(format!(
            "--churn is a per-round probability and must lie in [0, 1], got {churn}"
        ));
    }
    if churn > 0.0 && !domain.supports_churn() {
        return Err(format!(
            "the {} domain's simulator has no churn model",
            domain.name()
        ));
    }
    Ok(churn)
}

fn cmd_protocols(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let filter = args.first().cloned().unwrap_or_default();
    let mut count = 0;
    for (i, code) in domain.codes().iter().enumerate() {
        if code.contains(&filter) {
            println!("{i:>5}  {code}");
            count += 1;
        }
    }
    eprintln!("({count} of {} {} protocols)", domain.size(), domain.name());
    Ok(())
}

fn cmd_describe(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let token = args.first().ok_or("describe needs a protocol")?;
    let index = domain.parse(token)?;
    println!("domain     : {}", domain.name());
    println!("index      : {index}");
    println!("code       : {}", domain.code(index));
    for part in domain.describe(index).split(", ") {
        match part.split_once('=') {
            Some((dim, level)) => println!("{dim:<11}: {level}"),
            None => println!("{part}"),
        }
    }
    if let Some((name, _)) = domain.presets().iter().find(|(_, i)| *i == index) {
        println!("preset     : {name}");
    }
    Ok(())
}

fn cmd_simulate(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    check_flags(&flags, &["seed", "churn", "effort"])?;
    let token = pos.first().ok_or("simulate needs a protocol")?;
    let index = domain.parse(token)?;
    let seed = flag(&flags, "seed", 1u64)?;
    let effort = effort_flag(&flags)?;
    let churn = churn_flag(domain, &flags)?;
    print!("{}", domain.simulate_report(index, effort, churn, seed));
    Ok(())
}

fn cmd_encounter(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    check_flags(&flags, &["frac", "runs", "seed", "effort"])?;
    if pos.len() < 2 {
        return Err("encounter needs two protocols".into());
    }
    let a = domain.parse(&pos[0])?;
    let b = domain.parse(&pos[1])?;
    let frac = flag(&flags, "frac", 0.5f64)?;
    if !frac.is_finite() || frac <= 0.0 || frac >= 1.0 {
        return Err(format!(
            "--frac must lie in (0, 1): both groups need peers, got {frac}"
        ));
    }
    let runs = count_flag(&flags, "runs", 5)?;
    let seed = flag(&flags, "seed", 1u64)?;
    let effort = effort_flag(&flags)?;
    let mut wins = 0;
    let mut ua = Vec::new();
    let mut ub = Vec::new();
    for r in 0..runs {
        let (x, y) = domain.run_encounter(a, b, frac, effort, seed.wrapping_add(r as u64));
        if x > y {
            wins += 1;
        }
        ua.push(x);
        ub.push(y);
    }
    println!(
        "{} ({:.0}% of population) vs {}",
        domain.code(a),
        frac * 100.0,
        domain.code(b)
    );
    println!("  group A mean utility: {}", ConfidenceInterval::ci95(&ua));
    println!("  group B mean utility: {}", ConfidenceInterval::ci95(&ub));
    println!("  A wins {wins}/{runs} runs");
    Ok(())
}

fn cmd_pra(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    // `--all` is a bare switch; strip it before the `--flag value` parse
    // so it does not swallow the next token.
    let explicit_all = args.iter().any(|a| a == "--all");
    let args: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--all")
        .cloned()
        .collect();
    let (pos, flags) = split_flags(&args)?;
    check_flags(&flags, &["seed", "sample", "effort", "threads"])?;
    let seed = flag(&flags, "seed", 0x5EEDu64)?;
    let sample = flag(&flags, "sample", 20usize)?;
    let threads = flag(&flags, "threads", 0usize)?;
    let effort = effort_flag(&flags)?;
    let all = explicit_all || pos.is_empty();
    if sample == 0 {
        return Err(
            "--sample must be at least 1: robustness and aggressiveness need opponents".into(),
        );
    }
    if !all && flags.iter().any(|(name, _)| name == "sample") {
        return Err(
            "--sample applies only to the full space: listed protocols meet each other exhaustively"
                .into(),
        );
    }
    let indices: Vec<usize> = if all {
        (0..domain.size()).collect()
    } else {
        distinct_protocols(domain, &pos)?
    };
    if indices.len() < 2 {
        return Err(
            "pra needs at least two distinct protocols (or none for the full space)".into(),
        );
    }
    let config = PraConfig {
        performance_runs: 3,
        encounter_runs: 2,
        sampling: if all {
            OpponentSampling::Sampled(sample)
        } else {
            OpponentSampling::Exhaustive
        },
        threads,
        seed,
        ..PraConfig::default()
    };
    let results = domain.quantify(&indices, effort, &config);
    let codes: Vec<String> = indices.iter().map(|&i| domain.code(i)).collect();
    let width = codes.iter().map(String::len).max().unwrap_or(8).max(8);
    println!(
        "{:<width$} {:>11} {:>10} {:>14}",
        "protocol", "Performance", "Robustness", "Aggressiveness"
    );
    // For the full space print the 10 strongest by robustness; an ad-hoc
    // set prints in the order given.
    let order: Vec<usize> = if all {
        results
            .ranked_by(|p| p.robustness)
            .into_iter()
            .take(10)
            .collect()
    } else {
        (0..indices.len()).collect()
    };
    for i in order {
        let pt = results.point(i);
        println!(
            "{:<width$} {:>11.3} {:>10.3} {:>14.3}",
            codes[i], pt.performance, pt.robustness, pt.aggressiveness
        );
    }
    if all {
        println!("(top 10 of {} by robustness)", indices.len());
    }
    Ok(())
}

// ---- the adversary subsystem (dsa-attacks) --------------------------------

fn cmd_attack(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for model in dsa_attacks::registry() {
                println!("{:<11} {}", model.name(), model.describe());
            }
            println!(
                "(run one with: dsa {} attack run <model> <defender>)",
                domain.name()
            );
            Ok(())
        }
        Some("run") => cmd_attack_run(domain, &args[1..]),
        Some(other) => Err(format!(
            "unknown attack command '{other}' (expected: list, run)"
        )),
        None => Err("attack needs a subcommand: list, run".into()),
    }
}

fn cmd_attack_run(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    check_flags(&flags, &["budget", "runs", "seed", "effort", "param"])?;
    let model_name = pos
        .first()
        .ok_or("attack run needs a model (see 'attack list')")?;
    let model = dsa_attacks::lookup(model_name)
        .ok_or_else(|| format!("unknown attack model '{model_name}' (see 'attack list')"))?;
    let token = pos.get(1).ok_or("attack run needs a defender protocol")?;
    let defender = domain.parse(token)?;
    let runs = count_flag(&flags, "runs", 3)?;
    let seed = flag(&flags, "seed", 1u64)?;
    let effort = effort_flag(&flags)?;
    let budgets: Vec<f64> = if flags.iter().any(|(n, _)| n == "budget") {
        vec![cli::budget(flag(&flags, "budget", 0.0f64)?)?]
    } else {
        dsa_attacks::DEFAULT_BUDGETS.to_vec()
    };
    // `--param k=2,4,8` sweeps one model parameter alongside the budget
    // axis: one parameterized model variant per value (each with its own
    // cache fingerprint — the attack-model-depth sweep axis).
    let variants: Vec<(String, std::sync::Arc<dyn dsa_attacks::AttackModel>)> =
        if let Some((_, spec)) = flags.iter().find(|(n, _)| n == "param") {
            let (param, values) = dsa_attacks::parse_param_spec(spec)?;
            values
                .iter()
                .map(|&v| {
                    dsa_attacks::parameterized(model.name(), &param, v)
                        .map(|m| (format!("{param}={v}"), m))
                })
                .collect::<Result<_, _>>()?
        } else {
            vec![(String::new(), model)]
        };
    let root = SeedSeq::new(seed);
    for (label, model) in &variants {
        println!(
            "{} vs {}{}: {}",
            domain.code(defender),
            model.name(),
            if label.is_empty() {
                String::new()
            } else {
                format!(" [{label}]")
            },
            model.describe()
        );
        println!(
            "{:>7} {:>14} {:>14} {:>10}",
            "budget", "defender util", "adversary util", "survives"
        );
        for (bi, &b) in budgets.iter().enumerate() {
            let ctx = dsa_attacks::AttackContext {
                domain,
                effort,
                budget: b,
            };
            // Seeds derive from the budget position only, so every
            // parameter variant faces the same worlds and columns are
            // comparable across the parameter axis.
            let node = root.child(bi as u64);
            let (mut def_acc, mut adv_acc, mut wins) = (0.0, 0.0, 0usize);
            for r in 0..runs {
                let (def, adv) = model.encounter(&ctx, defender, node.child(r as u64).seed());
                def_acc += def;
                adv_acc += adv;
                if def > adv {
                    wins += 1;
                }
            }
            println!(
                "{b:>7.2} {:>14.3} {:>14.3} {:>7}/{runs}",
                def_acc / runs as f64,
                adv_acc / runs as f64,
                wins
            );
        }
    }
    Ok(())
}

// ---- population dynamics (dsa-evolution) ----------------------------------

fn cmd_evolve(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("matrix") => cmd_evolve_matrix(domain, &args[1..]),
        Some("run") => cmd_evolve_run(domain, &args[1..]),
        Some("ess") => cmd_evolve_ess(domain, &args[1..]),
        Some(other) => Err(format!(
            "unknown evolve command '{other}' (expected: matrix, run, ess)"
        )),
        None => Err("evolve needs a subcommand: matrix, run, ess".into()),
    }
}

/// Parses protocol tokens into distinct indices, in first-listed order:
/// a protocol named twice (by index, preset or alias) is one protocol.
fn distinct_protocols(domain: &dyn DynDomain, tokens: &[String]) -> Result<Vec<usize>, String> {
    let mut out: Vec<usize> = Vec::new();
    for token in tokens {
        let index = domain.parse(token)?;
        if !out.contains(&index) {
            out.push(index);
        }
    }
    Ok(out)
}

/// Parses the shared evolve arguments: candidate tokens (default: the
/// domain's presets + canonical attackers) and the dynamics flags.
fn evolve_setup(
    domain: &dyn DynDomain,
    args: &[String],
    extra_flags: &[&str],
) -> Result<(Vec<usize>, dsa_evolution::EvoConfig, Effort, Flags), String> {
    let (pos, flags) = split_flags(args)?;
    let mut allowed = vec!["runs", "seed", "effort", "threads"];
    allowed.extend_from_slice(extra_flags);
    check_flags(&flags, &allowed)?;
    let candidates = if pos.is_empty() {
        dsa_evolution::default_candidates(domain)
    } else {
        distinct_protocols(domain, &pos)?
    };
    if candidates.len() < 2 {
        return Err("evolve needs at least two distinct candidates".into());
    }
    let cfg = dsa_evolution::EvoConfig {
        encounter_runs: count_flag(&flags, "runs", 2)?,
        threads: flag(&flags, "threads", 0usize)?,
        seed: flag(&flags, "seed", 0x5EEDu64)?,
        ..dsa_evolution::EvoConfig::default()
    };
    let effort = effort_flag(&flags)?;
    Ok((candidates, cfg, effort, flags))
}

fn cmd_evolve_matrix(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (candidates, cfg, effort, _) = evolve_setup(domain, args, &[])?;
    let m = dsa_evolution::empirical_matrix(domain, &candidates, effort, &cfg);
    println!(
        "empirical payoff matrix over {} {} candidates (population {}, {} runs/cell)",
        m.len(),
        domain.name(),
        m.population,
        cfg.encounter_runs
    );
    let name_w = m.names.iter().map(String::len).max().unwrap_or(8);
    print!("{:<name_w$} ", "");
    for j in 0..m.len() {
        print!("{j:>9} ");
    }
    println!();
    for (i, row) in m.payoff.iter().enumerate() {
        print!("{:<name_w$} ", m.names[i]);
        for v in row {
            print!("{v:>9.3} ");
        }
        println!();
    }
    println!("{}", dsa_stats::ascii::matrix_heat(&m.payoff, &m.names));
    Ok(())
}

fn cmd_evolve_run(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (candidates, cfg, effort, flags) = evolve_setup(domain, args, &["steps"])?;
    let steps = count_flag(&flags, "steps", 60)?;
    let m = dsa_evolution::empirical_matrix(domain, &candidates, effort, &cfg);
    let k = m.len();
    let uniform = vec![1.0 / k as f64; k];
    let trajectory = dsa_gametheory::evolution::replicator_trajectory(&m.payoff, &uniform, steps);
    println!(
        "replicator dynamics from the uniform mixture over {} {} candidates",
        k,
        domain.name()
    );
    let name_w = m.names.iter().map(String::len).max().unwrap_or(8);
    print!("{:>6} ", "step");
    for name in &m.names {
        print!("{name:>name_w$} ");
    }
    println!();
    // Print a logarithmic-ish selection of steps: enough to see the flow
    // without a wall of rows.
    let mut shown: Vec<usize> = vec![0, 1, 2, 5, 10, 20, 40, steps]
        .into_iter()
        .filter(|&s| s <= steps)
        .collect();
    shown.dedup();
    for &s in &shown {
        print!("{s:>6} ");
        for share in &trajectory[s] {
            print!("{share:>name_w$.3} ");
        }
        println!();
    }
    let last = trajectory.last().expect("non-empty trajectory");
    let analysis = dsa_evolution::analyze(&m, &cfg);
    println!(
        "welfare: uniform {:.3} -> step {steps} {:.3} (optimum {:.3} at {})",
        dsa_evolution::analysis::welfare(&m.payoff, &uniform),
        dsa_evolution::analysis::welfare(&m.payoff, last),
        analysis.max_welfare,
        m.names[analysis.optimum]
    );
    println!(
        "evolutionary PoA {:.3} (worst-case {:.3})",
        analysis.poa, analysis.poa_worst
    );
    Ok(())
}

fn cmd_evolve_ess(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (candidates, cfg, effort, _) = evolve_setup(domain, args, &[])?;
    let m = dsa_evolution::empirical_matrix(domain, &candidates, effort, &cfg);
    let analysis = dsa_evolution::analyze(&m, &cfg);
    println!(
        "ESS classification over {} {} candidates ({:.0}% mutants, {} basin samples, population {})",
        m.len(),
        domain.name(),
        cfg.mutant_share * 100.0,
        cfg.basin_samples,
        m.population
    );
    print!("{}", analysis.candidate_table(&m));
    println!("{}", analysis.summary_line(&m));
    Ok(())
}

// ---- variance attribution (dsa-attribution) --------------------------------

fn cmd_attribute(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("fit") => cmd_attribute_fit(domain, &args[1..]),
        Some("interactions") => cmd_attribute_interactions(domain, &args[1..]),
        Some("navigate") => cmd_attribute_navigate(domain, &args[1..]),
        Some(other) => Err(format!(
            "unknown attribute command '{other}' (expected: fit, interactions, navigate)"
        )),
        None => Err("attribute needs a subcommand: fit, interactions, navigate".into()),
    }
}

/// Parses the attribution flags shared by the three subcommands: the
/// scale (which selects both simulator fidelity and the cache files),
/// the response surface, seed/threads overrides and the cache directory.
fn attribute_setup(
    flags: &Flags,
) -> Result<
    (
        dsa_bench::Scale,
        dsa_attribution::ResponseKind,
        std::path::PathBuf,
    ),
    String,
> {
    let scale_name: String = flag(flags, "scale", "smoke".to_string())?;
    let mut scale = dsa_bench::Scale::by_name(&scale_name)
        .ok_or_else(|| format!("unknown --scale '{scale_name}' (smoke|lab|paper)"))?;
    scale.pra.seed = flag(flags, "seed", scale.pra.seed)?;
    scale.pra.threads = flag(flags, "threads", scale.pra.threads)?;
    let response_name: String = flag(flags, "response", "pra".to_string())?;
    let response = dsa_attribution::ResponseKind::by_name(&response_name)
        .ok_or_else(|| format!("unknown --response '{response_name}' (pra|attack|evolution)"))?;
    let out = std::path::PathBuf::from(flag(flags, "out", "results".to_string())?);
    Ok((scale, response, out))
}

const ATTRIBUTE_FLAGS: [&str; 5] = ["response", "scale", "seed", "threads", "out"];

fn cmd_attribute_fit(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if let Some(stray) = pos.first() {
        return Err(format!(
            "attribute fit takes no positional argument '{stray}'"
        ));
    }
    check_flags(&flags, &ATTRIBUTE_FLAGS)?;
    let (scale, response, out) = attribute_setup(&flags)?;
    let surface = dsa_bench::attribfig::build_surface(domain, response, &scale, &out)?;
    let table =
        dsa_attribution::AttribTable::load_or_compute(domain, &surface, scale.pra.threads, &out)?;
    println!(
        "variance attribution of the {} {} surface ({} rows, scale {})",
        domain.name(),
        surface.response,
        surface.rows.len(),
        scale.name
    );
    print!("{}", dsa_bench::attribfig::render_table(&table));
    println!(
        "(table {}: {})",
        if table.from_cache {
            "loaded from cache"
        } else {
            "computed and cached"
        },
        table.path(&out).display()
    );
    Ok(())
}

fn cmd_attribute_interactions(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if let Some(stray) = pos.first() {
        return Err(format!(
            "attribute interactions takes no positional argument '{stray}'"
        ));
    }
    let mut allowed = ATTRIBUTE_FLAGS.to_vec();
    allowed.push("top");
    check_flags(&flags, &allowed)?;
    let top = count_flag(&flags, "top", 5)?;
    let (scale, response, out) = attribute_setup(&flags)?;
    let surface = dsa_bench::attribfig::build_surface(domain, response, &scale, &out)?;
    let table =
        dsa_attribution::AttribTable::load_or_compute(domain, &surface, scale.pra.threads, &out)?;
    println!(
        "pairwise interaction scan of the {} {} surface (scale {}, ranked by incremental R²)",
        domain.name(),
        surface.response,
        scale.name
    );
    for axis in &table.axes {
        if axis.interactions.is_empty() {
            println!(
                "{}: fewer than two varying dimensions — nothing to scan",
                axis.axis
            );
            continue;
        }
        println!("{}:", axis.axis);
        for i in axis.interactions.iter().take(top) {
            if i.delta_r2.is_finite() {
                println!(
                    "  {:<28} ΔR² = {:.4}  F = {:>8.2}  p {} ({} columns)",
                    format!("{} × {}", i.dim_a, i.dim_b),
                    i.delta_r2,
                    i.f_stat,
                    if i.p_value < 0.001 {
                        "< 0.001".to_string()
                    } else {
                        format!("= {:.3}", i.p_value)
                    },
                    i.columns
                );
            } else {
                println!(
                    "  {:<28} (augmented model infeasible on this surface)",
                    format!("{} × {}", i.dim_a, i.dim_b)
                );
            }
        }
    }
    Ok(())
}

fn cmd_attribute_navigate(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let token = pos
        .first()
        .ok_or("attribute navigate needs a starting protocol")?;
    let start = domain.parse(token)?;
    let mut allowed = ATTRIBUTE_FLAGS.to_vec();
    allowed.extend_from_slice(&["improve", "guard", "tolerance", "top"]);
    check_flags(&flags, &allowed)?;
    let (scale, response, out) = attribute_setup(&flags)?;
    let tolerance = flag(&flags, "tolerance", 0.05f64)?;
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!(
            "--tolerance must be a finite guard loss of at least 0, not {tolerance}"
        ));
    }
    let top = count_flag(&flags, "top", 5)?;
    let surface = dsa_bench::attribfig::build_surface(domain, response, &scale, &out)?;
    let axis_names: Vec<&str> = surface.axes.iter().map(|(n, _)| n.as_str()).collect();
    let improve_name: String = flag(&flags, "improve", axis_names[0].to_string())?;
    let guard_name: String = flag(
        &flags,
        "guard",
        axis_names.get(1).map_or("none", |n| n).to_string(),
    )?;
    let axis_pos = |name: &str| -> Result<usize, String> {
        axis_names
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| format!("unknown axis '{name}' (this surface has: {axis_names:?})"))
    };
    let improve_at = axis_pos(&improve_name)?;
    let guard_at = if guard_name == "none" {
        None
    } else {
        Some(axis_pos(&guard_name)?)
    };
    let table =
        dsa_attribution::AttribTable::load_or_compute(domain, &surface, scale.pra.threads, &out)?;
    let improve = &table.axes[improve_at];
    let suggestions = dsa_attribution::navigate(
        domain.space(),
        &surface.rows,
        improve,
        guard_at.map(|g| &table.axes[g]),
        &surface.axes[improve_at].1,
        guard_at.map(|g| surface.axes[g].1.as_slice()),
        start,
        tolerance,
        top,
    );
    println!(
        "dimension-flip navigator: improve {} of {} {}{}",
        improve_name,
        domain.code(start),
        match guard_at {
            Some(_) => format!("guarding {guard_name} (tolerance {tolerance})"),
            None => "unguarded".to_string(),
        },
        if suggestions.is_empty() {
            " — no single flip is predicted to help"
        } else {
            ""
        }
    );
    if improve.estimates.is_none() {
        println!(
            "(the {improve_name} axis has no fitted model on this surface — n = {} rows are \
             too few, or the design is aliased)",
            surface.rows.len()
        );
        return Ok(());
    }
    for f in &suggestions {
        println!(
            "  flip {} {}→{} (index {}): predicted Δ{} {:+.3} / measured {:+.3}; \
             guard Δ {:+.3} / measured {:+.3} {}",
            f.dim,
            f.from_level,
            f.to_level,
            f.index,
            improve_name,
            f.predicted_improve,
            f.actual_improve,
            f.predicted_guard,
            f.actual_guard,
            if f.verified(tolerance) {
                "[verified]"
            } else {
                "[NOT confirmed by the sweep]"
            }
        );
    }
    Ok(())
}

// ---- heuristic design-space exploration (dsa <domain> search) --------------

fn cmd_search(domain: &dyn DynDomain, args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if let Some(stray) = pos.first() {
        return Err(format!("search takes no positional argument '{stray}'"));
    }
    check_flags(&flags, &["seed", "budget", "restarts", "effort"])?;
    let seed = flag(&flags, "seed", 0x5EEDu64)?;
    let budget = count_flag(&flags, "budget", 400)?;
    let restarts = count_flag(&flags, "restarts", 4)?;
    let effort = effort_flag(&flags)?;
    // Objective: homogeneous performance at one probe seed — the cheap
    // proxy the §7 future-work demo uses. The probe seed derives from the
    // master seed so `--seed` steers exploration and evaluation together.
    let probe = SeedSeq::new(seed).child(0xF).seed();
    let objective = |idx: usize| domain.run_homogeneous(idx, effort, probe);
    let hc = dsa_core::search::hill_climb(domain.space(), objective, restarts, budget, seed);
    let ev = dsa_core::search::evolve(domain.space(), objective, 6, 12, 20, 0.3, budget, seed);
    println!(
        "heuristic exploration of the {} space ({} protocols, budget {budget}, seed {seed})",
        domain.name(),
        domain.size()
    );
    for (label, outcome) in [("hill-climb", &hc), ("evolution", &ev)] {
        println!(
            "{label:<11}: best {} (perf proxy {:.3}) in {} evaluations",
            domain.code(outcome.best_index),
            outcome.best_value,
            outcome.evaluations
        );
    }
    Ok(())
}

// ---- the run journal (dsa obs) -------------------------------------------

fn cmd_obs(args: &[String]) -> Result<(), String> {
    const COMMANDS: &str = "runs, trace, diff, gc";
    match args.first().map(String::as_str) {
        Some("runs") => cmd_obs_runs(&args[1..]),
        Some("trace") => cmd_obs_trace(&args[1..]),
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("gc") => cmd_obs_gc(&args[1..]),
        Some(other) => Err(format!(
            "unknown obs command '{other}' (expected: {COMMANDS})"
        )),
        None => Err(format!("obs needs a subcommand: {COMMANDS}")),
    }
}

/// Reads the journal under `--out` (default `results`), reporting any
/// skipped (corrupt) lines on stderr.
fn read_journal(out: &str) -> Result<Vec<dsa_obs::JournalRecord>, String> {
    let (records, skipped) = dsa_obs::journal::read_all(std::path::Path::new(out))?;
    if skipped > 0 {
        eprintln!("(skipped {skipped} unparseable journal line(s))");
    }
    Ok(records)
}

fn cmd_obs_runs(args: &[String]) -> Result<(), String> {
    let (json, args) = take_switch(args, "--json");
    let (pos, flags) = split_flags(&args)?;
    if let Some(stray) = pos.first() {
        return Err(format!("obs runs takes no positional argument '{stray}'"));
    }
    check_flags(&flags, &["out", "last"])?;
    let out: String = flag(&flags, "out", "results".to_string())?;
    let last = count_flag(&flags, "last", 10)?;
    if json {
        // Unfiltered (--last shapes the human listing only), with any
        // corrupt-line count inline instead of on stderr.
        let (records, skipped) = dsa_obs::journal::read_all(std::path::Path::new(&out))?;
        print!("{}", dsa_obs::journal::runs_json(&records, skipped));
        return Ok(());
    }
    let records = read_journal(&out)?;
    if records.is_empty() {
        println!(
            "no journal records under {out} (runs with --metrics, --trace or \
             --alloc append to {}/{})",
            out,
            dsa_obs::journal::JOURNAL_FILE
        );
        return Ok(());
    }
    let shown = records.len().min(last);
    for r in &records[records.len() - shown..] {
        println!("{}", r.summary_line());
    }
    println!("({shown} of {} journal record(s))", records.len());
    Ok(())
}

/// Runs a traced PRA workload and exports it: the domain's presets (or
/// its first six protocols when it has fewer than two presets) under one
/// root span `trace.<domain>`, with raw event capture on. The cache is
/// bypassed: a trace of a cache hit has no tree.
fn cmd_obs_trace(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    if let Some(stray) = pos.first() {
        return Err(format!("obs trace takes no positional argument '{stray}'"));
    }
    check_flags(&flags, &["out", "domain", "scale", "seed", "threads"])?;
    let out: String = flag(&flags, "out", "trace.json".to_string())?;
    let domain_name: String = flag(&flags, "domain", "swarm".to_string())?;
    let domain = dsa_core::domain::lookup(&domain_name)
        .ok_or_else(|| format!("unknown domain '{domain_name}'"))?;
    let scale_name: String = flag(&flags, "scale", "smoke".to_string())?;
    let mut scale = dsa_bench::scale::Scale::by_name(&scale_name)
        .ok_or_else(|| format!("unknown --scale '{scale_name}' (smoke|lab|paper)"))?;
    scale.pra.seed = flag(&flags, "seed", scale.pra.seed)?;
    scale.pra.threads = flag(&flags, "threads", scale.pra.threads)?;
    dsa_obs::enable_events();
    dsa_obs::reset();
    let mut indices: Vec<usize> = domain.presets().iter().map(|(_, i)| *i).collect();
    indices.dedup();
    if indices.len() < 2 {
        indices = (0..domain.size().min(6)).collect();
    }
    {
        let _workload = dsa_obs::span_owned(format!("trace.{}", domain.name()));
        let _ = domain.quantify(&indices, scale.effort(), &scale.pra);
    }
    let events = dsa_obs::take_events();
    let doc = dsa_obs::trace::chrome_trace(
        &events,
        &format!("dsa {} pra ({scale_name})", domain.name()),
    );
    // Self-check before writing: the exported document must satisfy the
    // Trace Event Format invariants we promise.
    let stats =
        dsa_obs::trace::validate(&doc).map_err(|e| format!("exported trace invalid: {e}"))?;
    std::fs::write(&out, &doc).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} span(s) across {} track(s) from {} events \
         (open in https://ui.perfetto.dev or chrome://tracing)",
        stats.spans,
        stats.tracks,
        events.len()
    );
    Ok(())
}

/// Resolves a journal-record token: `-1` is the newest record, `-2` the
/// one before, ...; anything else matches a run id exactly, then as a
/// unique prefix.
fn resolve_record<'a>(
    records: &'a [dsa_obs::JournalRecord],
    token: &str,
) -> Result<&'a dsa_obs::JournalRecord, String> {
    if let Ok(n) = token.parse::<i64>() {
        if n < 0 {
            let back = usize::try_from(n.unsigned_abs()).unwrap_or(usize::MAX);
            return records
                .len()
                .checked_sub(back)
                .and_then(|i| records.get(i))
                .ok_or_else(|| {
                    format!(
                        "{token} is out of range ({} journal record(s))",
                        records.len()
                    )
                });
        }
    }
    if let Some(r) = records.iter().rev().find(|r| r.meta.run_id == token) {
        return Ok(r);
    }
    let matches: Vec<&dsa_obs::JournalRecord> = records
        .iter()
        .filter(|r| r.meta.run_id.starts_with(token))
        .collect();
    match matches.as_slice() {
        [] => Err(format!(
            "no journal record matches '{token}' (see 'dsa obs runs')"
        )),
        [r] => Ok(r),
        many => Err(format!(
            "'{token}' is ambiguous: {} records match (e.g. {})",
            many.len(),
            many[0].meta.run_id
        )),
    }
}

fn cmd_obs_diff(args: &[String]) -> Result<(), String> {
    let (json, args) = take_switch(args, "--json");
    let (pos, flags) = split_flags(&args)?;
    check_flags(&flags, &["out", "threshold"])?;
    let [a, b] = pos.as_slice() else {
        return Err("obs diff needs two runs (run ids, or -1/-2/... from the end)".into());
    };
    let out: String = flag(&flags, "out", "results".to_string())?;
    let threshold = cli::threshold_flag(&flags, 25.0)?;
    let records = read_journal(&out)?;
    if records.is_empty() {
        return Err(format!("no journal records under {out}"));
    }
    let ra = resolve_record(&records, a)?;
    let rb = resolve_record(&records, b)?;
    if json {
        println!("{}", dsa_obs::diff::to_json(ra, rb, threshold));
    } else {
        print!("{}", dsa_obs::diff::render(ra, rb, threshold));
    }
    Ok(())
}

fn cmd_obs_gc(args: &[String]) -> Result<(), String> {
    let (dry_run, args) = take_switch(args, "--dry-run");
    let (pos, flags) = split_flags(&args)?;
    if let Some(stray) = pos.first() {
        return Err(format!("obs gc takes no positional argument '{stray}'"));
    }
    check_flags(&flags, &["out", "keep"])?;
    let out: String = flag(&flags, "out", "results".to_string())?;
    let keep = count_flag(&flags, "keep", 100)?;
    if dry_run {
        let plan = dsa_obs::journal::gc_plan(std::path::Path::new(&out), keep)?;
        for id in &plan.dropped {
            println!("drop {id}");
        }
        for id in &plan.kept {
            println!("keep {id}");
        }
        println!(
            "journal gc under {out} (dry run): would keep {} record(s), drop {} \
             (rotated generation folded in; nothing rewritten)",
            plan.kept.len(),
            plan.dropped.len()
        );
        return Ok(());
    }
    let (kept, dropped) = dsa_obs::journal::gc(std::path::Path::new(&out), keep)?;
    println!(
        "journal gc under {out}: kept {kept} record(s), dropped {dropped} \
         (rotated generation folded in)"
    );
    Ok(())
}

// ---- the piece-level BitTorrent experiment (swarm-domain extra) -----------

fn parse_kind(token: &str) -> Result<ClientKind, String> {
    match token {
        "bittorrent" | "bt" => Ok(ClientKind::BitTorrent),
        "birds" => Ok(ClientKind::Birds),
        "loyal" => Ok(ClientKind::LoyalWhenNeeded),
        "sorts" | "sort-s" => Ok(ClientKind::SortS),
        "random" => Ok(ClientKind::RandomRank),
        other => Err(format!("unknown client kind '{other}'")),
    }
}

fn cmd_bt(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    check_flags(&flags, &["frac", "runs", "seed"])?;
    let a = parse_kind(pos.first().ok_or("bt needs a client kind")?)?;
    let b = pos.get(1).map(|t| parse_kind(t)).transpose()?.unwrap_or(a);
    let frac = flag(&flags, "frac", if pos.len() > 1 { 0.5 } else { 1.0 })?;
    // Two kinds need peers of both; one kind may fill the whole swarm.
    let (valid, range) = if pos.len() > 1 {
        (frac > 0.0 && frac < 1.0, "(0, 1)")
    } else {
        ((0.0..=1.0).contains(&frac), "[0, 1]")
    };
    if !valid {
        return Err(format!(
            "--frac is the share of {} peers and must lie in {range}, got {frac}",
            a.name()
        ));
    }
    let runs = count_flag(&flags, "runs", 5)?;
    let seed = flag(&flags, "seed", 1u64)?;
    let config = BtConfig::default();
    let (ta, tb) = mixed_runs(a, b, frac, runs, &config, seed);
    if !ta.is_empty() {
        println!("{:<20} {}", a.name(), ConfidenceInterval::ci95(&ta));
    }
    if !tb.is_empty() {
        println!("{:<20} {}", b.name(), ConfidenceInterval::ci95(&tb));
    }
    if !ta.is_empty() && !tb.is_empty() {
        let sig = dsa_stats::nonparametric::significantly_different(&ta, &tb, 0.05);
        println!("difference significant at 5% (Mann-Whitney): {sig}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/obs-journal.jsonl"
    );

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_string()).collect()
    }

    /// A scratch results directory holding the six-record fixture journal.
    fn fixture_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsa-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(FIXTURE, dir.join(dsa_obs::journal::JOURNAL_FILE)).unwrap();
        dir
    }

    #[test]
    fn journal_reads_the_domain_after_the_switches() {
        dsa_bench::register_domains();
        let meta = |tokens: &[&str]| run_meta_from_args(&argv(tokens), "dsa", 0);
        let first = meta(&["--trace", "rep", "describe", "0"]);
        let last = meta(&["rep", "describe", "0", "--trace"]);
        assert_eq!(first.domain.as_deref(), Some("rep"));
        assert_eq!(last.domain.as_deref(), Some("rep"));
        assert_eq!(first.command, last.command);
        // A bare domain command runs swarm; `bt` runs no registry domain.
        let bare = meta(&["--metrics", "describe", "0"]);
        assert_eq!(bare.domain.as_deref(), Some("swarm"));
        assert_eq!(meta(&["--metrics", "bt", "bittorrent"]).domain, None);
    }

    #[test]
    fn pra_counts_a_protocol_listed_twice_once() {
        dsa_bench::register_domains();
        let swarm = dsa_core::domain::lookup("swarm").unwrap();
        let bt = swarm.parse("bittorrent").unwrap();
        let listed = argv(&["bt", "0", "bittorrent", "0"]);
        assert_eq!(distinct_protocols(&*swarm, &listed).unwrap(), vec![bt, 0]);
        for twice in [&["0", "0"][..], &["bt", "bittorrent"]] {
            let err = cmd_pra(&*swarm, &argv(twice)).unwrap_err();
            assert!(err.contains("at least two distinct"), "{twice:?}: {err}");
        }
    }

    #[test]
    fn obs_diff_rejects_a_threshold_that_is_not_a_finite_percentage() {
        let dir = fixture_dir("diff");
        let out = dir.to_str().unwrap();
        assert!(cmd_obs_diff(&argv(&["-2", "-1", "--out", out, "--threshold", "0"])).is_ok());
        for bad in ["NaN", "inf", "-5"] {
            let err =
                cmd_obs_diff(&argv(&["-2", "-1", "--out", out, "--threshold", bad])).unwrap_err();
            assert!(err.contains("--threshold"), "{bad}: {err}");
        }
        // The most negative index is out of range, not a negation overflow.
        let err = cmd_obs_diff(&argv(&["-9223372036854775808", "-1", "--out", out])).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_counts_are_at_least_one() {
        let dir = fixture_dir("counts");
        let out = dir.to_str().unwrap();
        for bad in [
            cmd_obs_gc(&argv(&["--out", out, "--keep", "0"])),
            cmd_obs_gc(&argv(&["--out", out, "--keep", "0", "--dry-run"])),
            cmd_obs_runs(&argv(&["--out", out, "--last", "0"])),
        ] {
            assert!(bad.unwrap_err().contains("at least 1"));
        }
        let (records, _) = dsa_obs::journal::read_all(&dir).unwrap();
        assert_eq!(records.len(), 6, "a rejected gc must drop nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
