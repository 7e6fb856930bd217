//! The tick loop: choking, transfers, piece completion, departures.

use crate::choker::ClientKind;
use crate::config::BtConfig;
use crate::peer::Peer;
use crate::piece::rarest_first;
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling;

/// Result of one swarm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmOutcome {
    /// Completion tick per leecher (`None` = did not finish before
    /// `max_ticks`).
    pub completion_ticks: Vec<Option<u64>>,
    /// Client kind per leecher.
    pub kinds: Vec<ClientKind>,
    /// Ticks simulated.
    pub ticks_elapsed: u64,
}

impl SwarmOutcome {
    /// Download times (seconds) of leechers of `kind` (all leechers if
    /// `None`); unfinished leechers count as the elapsed horizon, which
    /// biases *against* protocols that starve peers — the conservative
    /// choice for the Figures 9–10 comparisons.
    #[must_use]
    pub fn download_times(&self, kind: Option<ClientKind>) -> Vec<f64> {
        self.completion_ticks
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| kind.is_none_or(|want| **k == want))
            .map(|(t, _)| t.unwrap_or(self.ticks_elapsed) as f64)
            .collect()
    }

    /// Mean download time for a client kind.
    #[must_use]
    pub fn mean_download_time(&self, kind: Option<ClientKind>) -> f64 {
        dsa_stats::describe::mean(&self.download_times(kind))
    }

    /// Whether every leecher finished.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.completion_ticks.iter().all(Option::is_some)
    }
}

/// Reusable working memory for [`simulate_with_scratch`]: every buffer
/// the tick loop would otherwise allocate per peer per tick. After one
/// warm run at a given size, subsequent runs through the same scratch
/// perform zero steady-state heap allocations per tick (the per-run
/// [`Peer`] table is setup, not steady state). Every buffer is
/// re-initialized before use, so a dirty scratch is bit-identical to a
/// fresh one.
#[derive(Debug, Default)]
pub struct BtScratch {
    /// Peers interested in the chooser this rechoke.
    interested: Vec<usize>,
    /// Full best-first ranking of `interested`.
    ranked: Vec<usize>,
    /// [`ClientKind::rank_into`] scratch: scores and rank order.
    vals: Vec<f64>,
    order: Vec<usize>,
    /// Optimistic-unchoke candidate pool.
    pool: Vec<usize>,
    /// Active incomplete leechers (seeder round-robin).
    wanting: Vec<usize>,
    /// Seeder's chosen unchokes this rechoke.
    chosen: Vec<usize>,
    /// One giver's transfer targets this tick.
    targets: Vec<usize>,
    /// Leechers that finished this tick.
    newly_complete: Vec<usize>,
    /// Per-receiver in-progress-piece flags.
    in_flight: Vec<bool>,
    /// availability[p] = number of active peers holding piece p.
    availability: Vec<u32>,
}

/// Simulates one swarm: `kinds[i]` is leecher `i`'s client; one seeder
/// (index `kinds.len()`) serves round-robin. Deterministic in `seed`.
/// Traced as a `btsim.run` span with `btsim.{setup,rounds,payoff}` phase
/// children when tracing is on.
///
/// Thin wrapper over [`simulate_with_scratch`] using a thread-local
/// [`BtScratch`], so callers that loop over runs on one thread reuse one
/// arena per thread.
///
/// # Panics
///
/// Panics if `kinds.len() != config.leechers` or the configuration is
/// degenerate.
pub fn simulate(kinds: &[ClientKind], config: &BtConfig, seed: u64) -> SwarmOutcome {
    thread_local! {
        static SCRATCH: std::cell::RefCell<BtScratch> =
            std::cell::RefCell::new(BtScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => simulate_with_scratch(kinds, config, seed, &mut scratch),
        // Re-entrant call on this thread: fall back to a fresh scratch
        // rather than aliasing the one already borrowed.
        Err(_) => simulate_with_scratch(kinds, config, seed, &mut BtScratch::default()),
    })
}

/// [`simulate`] against a caller-owned [`BtScratch`]. Output is
/// bit-identical to [`simulate`] regardless of the scratch's prior
/// contents.
///
/// # Panics
///
/// Panics if `kinds.len() != config.leechers` or the configuration is
/// degenerate.
pub fn simulate_with_scratch(
    kinds: &[ClientKind],
    config: &BtConfig,
    seed: u64,
    scratch: &mut BtScratch,
) -> SwarmOutcome {
    let n = config.leechers;
    assert_eq!(kinds.len(), n, "one client kind per leecher");
    assert!(n >= 2, "need at least two leechers");
    let pieces = config.pieces();
    assert!(pieces >= 1, "file must have at least one piece");

    let _run_span = dsa_obs::span("btsim.run");
    let setup_span = dsa_obs::span("btsim.setup");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let swarm_size = n + 1;
    let seeder = n;

    let mut peers: Vec<Peer> = (0..n)
        .map(|_| Peer::leecher(config.bandwidth.sample(&mut rng), pieces, swarm_size))
        .collect();
    peers.push(Peer::seeder(config.seed_upload, pieces, swarm_size));

    let BtScratch {
        interested,
        ranked,
        vals,
        order,
        pool,
        wanting,
        chosen,
        targets,
        newly_complete,
        in_flight,
        availability,
    } = scratch;
    availability.clear();
    availability.resize(pieces, 1); // the seeder's copies
    in_flight.clear();
    in_flight.resize(pieces, false);

    // Round-robin cursor for the seeder's uniform service.
    let mut seeder_cursor = 0usize;
    let seeder_slots = config.regular_slots + 1;

    let mut ticks_elapsed = 0;
    drop(setup_span);

    // Allocation count at the edge of the round loop: the loop is the
    // steady state, so its delta — fed to mem.run_allocs.btsim under
    // --alloc — must be zero once this scratch is warm. Setup and
    // payoff assembly allocate outputs by design and stay outside
    // the window.
    let loop_allocs = dsa_obs::alloc::thread_count();
    let rounds_span = dsa_obs::span("btsim.rounds");
    for tick in 0..config.max_ticks {
        ticks_elapsed = tick + 1;

        // ---- Rechoke ----
        if tick % config.rechoke_period == 0 {
            for p in peers.iter_mut() {
                p.roll_window(config.rechoke_period as f64);
            }
            let rotate_optimistic = tick % config.optimistic_period == 0;

            for i in 0..n {
                if !peers[i].active() {
                    continue;
                }
                let kind = kinds[i];
                let slots = kind.regular_slots(config.regular_slots);
                // Peers interested in me: active, lacking something I have.
                interested.clear();
                interested.extend((0..swarm_size).filter(|&j| {
                    j != i
                        && j != seeder
                        && peers[j].active()
                        && peers[j].bitfield.interested_in(&peers[i].bitfield)
                }));
                // Randomize rate ties (real clients do not share a global
                // preference order; index-deterministic ties would herd
                // every unchoke onto the same few peers).
                sampling::shuffle(interested, &mut rng);
                let my_slot_rate = peers[i].upload_capacity / (slots + 1) as f64;
                kind.rank_into(
                    &peers[i],
                    my_slot_rate,
                    interested,
                    &mut rng,
                    vals,
                    order,
                    ranked,
                );
                // Regular unchokes reuse the peer's own buffer.
                peers[i].unchoked.clear();
                let take = slots.min(ranked.len());
                peers[i].unchoked.extend_from_slice(&ranked[..take]);

                // Optimistic unchoke rotation.
                if rotate_optimistic {
                    peers[i].optimistic = None;
                    if kind.optimistic_allowed(take, slots) {
                        pool.clear();
                        let regular = &peers[i].unchoked;
                        pool.extend(interested.iter().copied().filter(|j| !regular.contains(j)));
                        peers[i].optimistic = sampling::choose(pool, &mut rng).copied();
                    }
                } else if let Some(o) = peers[i].optimistic {
                    // Drop a stale optimistic target that departed or lost
                    // interest.
                    let stale = !peers[o].active()
                        || !peers[o].bitfield.interested_in(&peers[i].bitfield)
                        || peers[i].unchoked.contains(&o);
                    if stale {
                        peers[i].optimistic = None;
                    }
                }
            }

            // Seeder: uniform round-robin over active, incomplete leechers.
            wanting.clear();
            wanting.extend((0..n).filter(|&j| peers[j].active() && !peers[j].bitfield.complete()));
            chosen.clear();
            if !wanting.is_empty() {
                for step in 0..wanting.len() {
                    if chosen.len() >= seeder_slots {
                        break;
                    }
                    let idx = wanting[(seeder_cursor + step) % wanting.len()];
                    chosen.push(idx);
                }
                seeder_cursor = (seeder_cursor + seeder_slots) % wanting.len().max(1);
            }
            peers[seeder].unchoked.clear();
            peers[seeder].unchoked.extend_from_slice(chosen);
            peers[seeder].optimistic = None;
        }

        // ---- Transfers ----
        newly_complete.clear();
        for i in 0..swarm_size {
            if !peers[i].active() {
                continue;
            }
            targets.clear();
            targets.extend(
                peers[i]
                    .unchoked
                    .iter()
                    .copied()
                    .chain(peers[i].optimistic)
                    .filter(|&j| {
                        peers[j].active() && peers[j].bitfield.interested_in(&peers[i].bitfield)
                    }),
            );
            targets.dedup();
            if targets.is_empty() {
                continue;
            }
            let share = peers[i].upload_capacity / targets.len() as f64;

            for &j in targets.iter() {
                // Pieces already in progress from some giver: avoid
                // *starting* duplicates, but continuing one is preferred.
                for (p, flag) in in_flight.iter_mut().enumerate() {
                    *flag = peers[j].piece_progress[p] > 0.0;
                }
                let mut budget = share;
                while budget > 0.0 {
                    let target_piece = match crate::piece::continue_piece(
                        &peers[j].bitfield,
                        &peers[i].bitfield,
                        &peers[j].piece_progress,
                    ) {
                        Some(p) => p,
                        None => match rarest_first(
                            &peers[j].bitfield,
                            &peers[i].bitfield,
                            availability,
                            in_flight,
                            &mut rng,
                        ) {
                            Some(p) => p,
                            None => break,
                        },
                    };
                    let needed = config.piece_kib - peers[j].piece_progress[target_piece];
                    let chunk = budget.min(needed);
                    peers[j].piece_progress[target_piece] += chunk;
                    peers[j].window_received[i] += chunk;
                    budget -= chunk;
                    if peers[j].piece_progress[target_piece] >= config.piece_kib - 1e-9 {
                        peers[j].piece_progress[target_piece] = 0.0;
                        if peers[j].bitfield.set(target_piece) {
                            availability[target_piece] += 1;
                            if peers[j].bitfield.complete() && j < n {
                                newly_complete.push(j);
                            }
                        }
                        in_flight[target_piece] = true;
                    } else {
                        // Partial progress: this giver keeps filling the
                        // same piece next tick; budget exhausted.
                        break;
                    }
                }
            }
        }

        // ---- Completions & departures ----
        for &j in newly_complete.iter() {
            if peers[j].completed_at.is_none() {
                peers[j].completed_at = Some(tick + 1);
                if config.leave_on_completion {
                    peers[j].departed = true;
                    for (p, avail) in availability.iter_mut().enumerate().take(pieces) {
                        if peers[j].bitfield.has(p) {
                            *avail -= 1;
                        }
                    }
                }
            }
        }

        if (0..n).all(|j| peers[j].completed_at.is_some()) {
            break;
        }
    }
    drop(rounds_span);
    let loop_allocs = dsa_obs::alloc::thread_count().saturating_sub(loop_allocs);

    let _payoff_span = dsa_obs::span("btsim.payoff");
    if dsa_obs::metrics_enabled() && dsa_obs::alloc::enabled() {
        dsa_obs::observe_thread_dependent("mem.run_allocs.btsim", loop_allocs);
    }
    SwarmOutcome {
        completion_ticks: (0..n).map(|j| peers[j].completed_at).collect(),
        kinds: kinds.to_vec(),
        ticks_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_workloads::bandwidth::BandwidthDist;

    fn tiny() -> BtConfig {
        BtConfig {
            bandwidth: BandwidthDist::Constant(32.0),
            ..BtConfig::tiny()
        }
    }

    #[test]
    fn homogeneous_bittorrent_swarm_completes() {
        let cfg = tiny();
        let kinds = vec![ClientKind::BitTorrent; cfg.leechers];
        let out = simulate(&kinds, &cfg, 1);
        assert!(out.all_completed(), "unfinished: {out:?}");
        assert!(out.mean_download_time(None) > 0.0);
    }

    #[test]
    fn every_variant_completes_homogeneously() {
        let cfg = tiny();
        for kind in ClientKind::ALL {
            let kinds = vec![kind; cfg.leechers];
            let out = simulate(&kinds, &cfg, 2);
            assert!(
                out.all_completed(),
                "{} failed to complete: {:?}",
                kind.name(),
                out.completion_ticks
            );
        }
    }

    #[test]
    fn download_time_lower_bound_respects_seed_capacity() {
        // The seed must push at least one full copy: file/seed_upload.
        let cfg = tiny();
        let kinds = vec![ClientKind::BitTorrent; cfg.leechers];
        let out = simulate(&kinds, &cfg, 3);
        let last = out
            .download_times(None)
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(last >= cfg.file_kib / cfg.seed_upload);
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = tiny();
        let kinds = vec![ClientKind::Birds; cfg.leechers];
        assert_eq!(simulate(&kinds, &cfg, 7), simulate(&kinds, &cfg, 7));
        assert_ne!(
            simulate(&kinds, &cfg, 7).completion_ticks,
            simulate(&kinds, &cfg, 8).completion_ticks
        );
    }

    #[test]
    fn mixed_swarm_reports_group_times() {
        let cfg = tiny();
        let mut kinds = vec![ClientKind::BitTorrent; cfg.leechers];
        for k in kinds.iter_mut().take(cfg.leechers / 2) {
            *k = ClientKind::Birds;
        }
        let out = simulate(&kinds, &cfg, 4);
        let birds = out.download_times(Some(ClientKind::Birds));
        let bt = out.download_times(Some(ClientKind::BitTorrent));
        assert_eq!(birds.len(), cfg.leechers / 2);
        assert_eq!(bt.len(), cfg.leechers - cfg.leechers / 2);
    }

    #[test]
    fn faster_population_finishes_sooner() {
        let slow_cfg = tiny();
        let fast_cfg = BtConfig {
            bandwidth: BandwidthDist::Constant(128.0),
            ..tiny()
        };
        let kinds = vec![ClientKind::BitTorrent; slow_cfg.leechers];
        let slow = simulate(&kinds, &slow_cfg, 5).mean_download_time(None);
        let fast = simulate(&kinds, &fast_cfg, 5).mean_download_time(None);
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn paper_scale_swarm_runs() {
        let cfg = BtConfig::default();
        let kinds = vec![ClientKind::BitTorrent; cfg.leechers];
        let out = simulate(&kinds, &cfg, 6);
        assert!(out.all_completed());
        let mean = out.mean_download_time(None);
        // Sanity: minutes, not hours; slower than the seed-copy bound.
        assert!(mean > 40.0 && mean < 1200.0, "mean time {mean}");
    }

    #[test]
    #[should_panic(expected = "one client kind per leecher")]
    fn kind_count_must_match() {
        let cfg = tiny();
        let _ = simulate(&[ClientKind::BitTorrent], &cfg, 1);
    }
}
