//! Proof of the engines' zero-allocation steady state.
//!
//! Method: with the counting global allocator installed and counting on
//! (the guard test proves it is), a run of `R`
//! rounds and a run of `2R` rounds through a warm thread-local scratch
//! must perform *exactly the same* number of allocations. Whatever fixed
//! setup/output allocations a run makes (the returned utility vector,
//! protocol slices) appear in both counts; any per-round allocation
//! would make the longer run strictly larger. Doubling the horizon makes
//! the check robust without hard-coding an allocation budget.
//!
//! The swarm and reputation populations are mixed (three protocols) and
//! btsim's holds all five clients, so the checks exercise the branchy
//! decision paths, not just the homogeneous fast paths.

#[global_allocator]
static GLOBAL_ALLOC: dsa_obs::alloc::CountingAlloc = dsa_obs::alloc::CountingAlloc;

/// The current thread's allocation count. Turns counting on first, so
/// no test can measure zero because counting was off.
fn tallies() -> u64 {
    dsa_obs::alloc::enable();
    dsa_obs::alloc::thread_count()
}

/// Allocations the current thread performs inside `f` (its result is
/// dropped outside the window).
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = tallies();
    let out = f();
    let after = tallies();
    drop(out);
    after - before
}

#[test]
fn counting_is_on() {
    // Without this guard every zero-allocation test below would pass
    // vacuously if counting were off: 0 == 0.
    let allocs = allocs_during(|| std::hint::black_box(Vec::<u8>::with_capacity(16)));
    assert_eq!(
        allocs, 1,
        "one Vec::with_capacity must count one allocation"
    );
}

#[test]
fn swarm_round_loop_is_allocation_free() {
    use dsa_swarm::engine::{run, SimConfig};
    use dsa_swarm::presets;

    let protocols = [
        presets::bittorrent(),
        presets::sort_s(),
        presets::freerider(),
    ];
    let short = SimConfig {
        rounds: 100,
        ..SimConfig::default()
    };
    let long = SimConfig {
        rounds: 200,
        ..SimConfig::default()
    };
    let assignment: Vec<usize> = (0..short.peers).map(|i| i % protocols.len()).collect();

    // Warm the thread-local scratch at both shapes.
    run(&protocols, &assignment, &long, 7);
    run(&protocols, &assignment, &short, 7);

    let allocs_short = allocs_during(|| run(&protocols, &assignment, &short, 7));
    let allocs_long = allocs_during(|| run(&protocols, &assignment, &long, 7));
    assert_eq!(
        allocs_short, allocs_long,
        "swarm run allocations grew with the round count: \
         {allocs_short} for 100 rounds vs {allocs_long} for 200"
    );
}

#[test]
fn rep_round_loop_is_allocation_free() {
    use dsa_reputation::engine::{run, RepConfig};
    use dsa_reputation::presets;

    let protocols = [
        presets::bartercast(),
        presets::eigentrust(),
        presets::freerider(),
    ];
    let short = RepConfig {
        rounds: 80,
        ..RepConfig::default()
    };
    let long = RepConfig {
        rounds: 160,
        ..RepConfig::default()
    };
    let assignment: Vec<usize> = (0..short.peers).map(|i| i % protocols.len()).collect();

    run(&protocols, &assignment, &long, 7);
    run(&protocols, &assignment, &short, 7);

    let allocs_short = allocs_during(|| run(&protocols, &assignment, &short, 7));
    let allocs_long = allocs_during(|| run(&protocols, &assignment, &long, 7));
    assert_eq!(
        allocs_short, allocs_long,
        "reputation run allocations grew with the round count: \
         {allocs_short} for 80 rounds vs {allocs_long} for 160"
    );
}

#[test]
fn btsim_tick_loop_is_allocation_free() {
    use dsa_btsim::choker::ClientKind;
    use dsa_btsim::config::BtConfig;
    use dsa_btsim::swarm::{simulate_with_scratch, BtScratch};

    // The figures' configuration, cut short: at 160 ticks the swarm is
    // still downloading, so both runs tick to their horizon.
    let short = BtConfig {
        max_ticks: 80,
        ..BtConfig::default()
    };
    let long = BtConfig {
        max_ticks: 160,
        ..BtConfig::default()
    };
    let kinds: Vec<ClientKind> = (0..short.leechers)
        .map(|i| ClientKind::ALL[i % ClientKind::ALL.len()])
        .collect();
    let mut scratch = BtScratch::default();

    let warm = simulate_with_scratch(&kinds, &long, 7, &mut scratch);
    assert_eq!(warm.ticks_elapsed, long.max_ticks);
    assert!(
        !warm.all_completed(),
        "the long run must still be downloading"
    );
    simulate_with_scratch(&kinds, &short, 7, &mut scratch);

    let allocs_short = allocs_during(|| simulate_with_scratch(&kinds, &short, 7, &mut scratch));
    let allocs_long = allocs_during(|| simulate_with_scratch(&kinds, &long, 7, &mut scratch));
    assert_eq!(
        allocs_short, allocs_long,
        "btsim run allocations grew with the tick count: \
         {allocs_short} for 80 ticks vs {allocs_long} for 160"
    );
}
