//! Push-gossip rumor dissemination simulator.
//!
//! One item is injected at a uniformly random node each round. Nodes
//! periodically push a bounded batch of held items to selected partners.
//! Utility = number of item deliveries received (a node's coverage), the
//! application-defined performance measure for this domain.

use crate::protocol::{Filter, GossipProtocol, Memory, Selection};
use dsa_core::sim::EncounterSim;
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling;

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of rounds (= items injected).
    pub rounds: usize,
    /// Exchange partners per initiation.
    pub fanout: usize,
    /// Items pushed per exchange.
    pub batch: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            nodes: 40,
            rounds: 120,
            fanout: 2,
            batch: 4,
        }
    }
}

/// All nodes' state as flat arrays: item rows (newest last, one
/// `rounds`-wide row per node — item ids are round numbers, so a node
/// holds each at most once), an O(1) membership map mirroring the rows,
/// and the delivery/streak matrices the Best/Loyal selections read.
struct NodeState {
    rounds: usize,
    /// Items held, newest last: node `i`'s row is
    /// `items[i * rounds .. i * rounds + items_len[i]]`.
    items: Vec<u32>,
    items_len: Vec<usize>,
    /// `holds[i * rounds + item]` ⇔ item is in node `i`'s row — the
    /// linear `Vec::contains` scan this replaces, as one bit probe.
    holds: Vec<bool>,
    /// Deliveries received from each peer in the last window (row-major).
    received_from: Vec<f64>,
    /// Delivery streaks per peer (for Loyal selection), row-major.
    streak: Vec<u32>,
    /// Total novel deliveries per node (the utility).
    deliveries: Vec<f64>,
}

impl NodeState {
    /// Node `i`'s held items, oldest first.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.items[i * self.rounds..i * self.rounds + self.items_len[i]]
    }

    /// Inserts `item` into node `i`'s memory unless already held,
    /// evicting oldest-first past the memory policy's capacity. Returns
    /// whether the item was novel.
    fn insert(&mut self, i: usize, item: u32, memory: Memory) -> bool {
        if self.holds[i * self.rounds + item as usize] {
            return false;
        }
        let base = i * self.rounds;
        self.items[base + self.items_len[i]] = item;
        self.items_len[i] += 1;
        self.holds[base + item as usize] = true;
        if let Some(cap) = memory.capacity() {
            while self.items_len[i] > cap {
                let evicted = self.items[base];
                self.holds[base + evicted as usize] = false;
                self.items
                    .copy_within(base + 1..base + self.items_len[i], base);
                self.items_len[i] -= 1;
            }
        }
        true
    }
}

/// Reusable working memory for [`run_with_scratch`]: the flat node state
/// plus the partner/batch/ranking buffers the round loop cycles through.
/// After one warm run at a given `(nodes, rounds)` size, subsequent runs
/// through the same scratch perform zero steady-state heap allocations
/// per round. Every buffer is re-initialized before use, so a dirty
/// scratch is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct GossipScratch {
    items: Vec<u32>,
    items_len: Vec<usize>,
    holds: Vec<bool>,
    received_from: Vec<f64>,
    streak: Vec<u32>,
    deliveries: Vec<f64>,
    /// Selected exchange partners for one initiation.
    partners: Vec<usize>,
    /// Raw sample buffer behind Random selection / RandomItems.
    sample: Vec<usize>,
    /// Outgoing batch for one initiation.
    batch: Vec<u32>,
    /// `top_partners_into` buffers: candidate peers, their scores and
    /// the descending rank over those scores.
    others: Vec<usize>,
    values: Vec<f64>,
    ranks: Vec<usize>,
}

/// Runs one gossip simulation; returns per-node utilities. Traced as a
/// `gossip.run` span with `gossip.{setup,rounds,payoff}` phase children
/// when tracing is on.
///
/// Thin wrapper over [`run_with_scratch`] using a thread-local
/// [`GossipScratch`], so callers that loop over runs on one thread —
/// sweep workers, benchmarks, tests — reuse one arena per thread.
pub fn run(
    protocols: &[GossipProtocol],
    assignment: &[usize],
    config: &GossipConfig,
    seed: u64,
) -> Vec<f64> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<GossipScratch> =
            std::cell::RefCell::new(GossipScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => run_with_scratch(protocols, assignment, config, seed, &mut scratch),
        // Re-entrant call on this thread: fall back to a fresh scratch
        // rather than aliasing the one already borrowed.
        Err(_) => run_with_scratch(
            protocols,
            assignment,
            config,
            seed,
            &mut GossipScratch::default(),
        ),
    })
}

/// [`run`] against a caller-owned [`GossipScratch`]. Output is
/// bit-identical to [`run`] regardless of the scratch's prior contents.
///
/// # Panics
///
/// Panics if there are fewer than two nodes or the assignment does not
/// cover every node.
pub fn run_with_scratch(
    protocols: &[GossipProtocol],
    assignment: &[usize],
    config: &GossipConfig,
    seed: u64,
    scratch: &mut GossipScratch,
) -> Vec<f64> {
    let n = config.nodes;
    assert!(n >= 2, "need at least two nodes");
    assert_eq!(assignment.len(), n, "assignment must cover every node");

    let _run_span = dsa_obs::span("gossip.run");
    let setup_span = dsa_obs::span("gossip.setup");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let GossipScratch {
        items,
        items_len,
        holds,
        received_from,
        streak,
        deliveries,
        partners,
        sample,
        batch,
        others,
        values,
        ranks,
    } = scratch;
    let rounds = config.rounds;
    items.clear();
    items.resize(n * rounds, 0);
    items_len.clear();
    items_len.resize(n, 0);
    holds.clear();
    holds.resize(n * rounds, false);
    received_from.clear();
    received_from.resize(n * n, 0.0);
    streak.clear();
    streak.resize(n * n, 0);
    deliveries.clear();
    deliveries.resize(n, 0.0);
    let mut nodes = NodeState {
        rounds,
        items: std::mem::take(items),
        items_len: std::mem::take(items_len),
        holds: std::mem::take(holds),
        received_from: std::mem::take(received_from),
        streak: std::mem::take(streak),
        deliveries: std::mem::take(deliveries),
    };
    drop(setup_span);

    // Allocation count at the edge of the round loop: the loop is the
    // steady state, so its delta — fed to mem.run_allocs.gossip under
    // --alloc — must be zero once this scratch is warm. Setup and
    // payoff assembly allocate outputs by design and stay outside
    // the window.
    let loop_allocs = dsa_obs::alloc::thread_count();
    let rounds_span = dsa_obs::span("gossip.rounds");
    for round in 0..rounds {
        // Inject this round's item at a random node.
        let source = rng.index(n);
        let item = round as u32;
        let mem = protocols[assignment[source]].memory;
        if nodes.insert(source, item, mem) {
            nodes.deliveries[source] += 1.0;
        }

        // Window bookkeeping for Best/Loyal selections: streaks update
        // every 4 rounds.
        let window_closes = round % 4 == 3;

        for i in 0..n {
            let proto = &protocols[assignment[i]];
            if !(round as u64).is_multiple_of(proto.periodicity.period()) {
                continue;
            }
            if proto.filter == Filter::None {
                continue;
            }
            // Select partners.
            partners.clear();
            match proto.selection {
                Selection::Random => {
                    sampling::sample_indices_into(n - 1, config.fanout, &mut rng, sample);
                    partners.extend(sample.iter().map(|&x| if x >= i { x + 1 } else { x }));
                }
                Selection::Best => top_partners_into(
                    i,
                    n,
                    config.fanout,
                    &mut rng,
                    |j| nodes.received_from[i * n + j],
                    others,
                    values,
                    ranks,
                    partners,
                ),
                Selection::Loyal => top_partners_into(
                    i,
                    n,
                    config.fanout,
                    &mut rng,
                    |j| f64::from(nodes.streak[i * n + j]),
                    others,
                    values,
                    ranks,
                    partners,
                ),
                Selection::Similarity => {
                    // O(1) membership via `holds` replaces the quadratic
                    // mine-contains-theirs scan, same counts.
                    let holds_me = &nodes.holds[i * rounds..(i + 1) * rounds];
                    let state = &nodes;
                    top_partners_into(
                        i,
                        n,
                        config.fanout,
                        &mut rng,
                        |j| {
                            state
                                .row(j)
                                .iter()
                                .filter(|&&it| holds_me[it as usize])
                                .count() as f64
                        },
                        others,
                        values,
                        ranks,
                        partners,
                    );
                }
            }

            // Build the outgoing batch.
            batch.clear();
            match proto.filter {
                Filter::NewestFirst => {
                    batch.extend(nodes.row(i).iter().rev().take(config.batch));
                }
                Filter::RandomItems => {
                    sampling::sample_indices_into(
                        nodes.items_len[i],
                        config.batch,
                        &mut rng,
                        sample,
                    );
                    let row = nodes.row(i);
                    batch.extend(sample.iter().map(|&x| row[x]));
                }
                Filter::None => {}
            }

            // Deliver.
            for &j in partners.iter() {
                let mem = protocols[assignment[j]].memory;
                for &item in batch.iter() {
                    if nodes.insert(j, item, mem) {
                        nodes.deliveries[j] += 1.0;
                        nodes.received_from[j * n + i] += 1.0;
                    }
                }
            }
        }

        if window_closes {
            for (s, r) in nodes.streak.iter_mut().zip(nodes.received_from.iter_mut()) {
                if *r > 0.0 {
                    *s += 1;
                } else {
                    *s = 0;
                }
                *r = 0.0;
            }
        }
    }
    drop(rounds_span);
    let loop_allocs = dsa_obs::alloc::thread_count().saturating_sub(loop_allocs);

    let _payoff_span = dsa_obs::span("gossip.payoff");
    let out = nodes.deliveries.clone();
    // Return the buffers to the scratch for the next run.
    *items = nodes.items;
    *items_len = nodes.items_len;
    *holds = nodes.holds;
    *received_from = nodes.received_from;
    *streak = nodes.streak;
    *deliveries = nodes.deliveries;

    if dsa_obs::metrics_enabled() && dsa_obs::alloc::enabled() {
        dsa_obs::observe_thread_dependent("mem.run_allocs.gossip", loop_allocs);
    }
    out
}

/// Top-`fanout` peers by score into `out`; ties resolve randomly (a
/// shared deterministic tie-break would concentrate the whole
/// population's pushes on the lowest-indexed nodes). `others`, `values`
/// and `ranks` are caller-owned scratch (contents ignored, clobbered).
#[allow(clippy::too_many_arguments)]
fn top_partners_into(
    me: usize,
    n: usize,
    fanout: usize,
    rng: &mut Xoshiro256pp,
    score: impl Fn(usize) -> f64,
    others: &mut Vec<usize>,
    values: &mut Vec<f64>,
    ranks: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    others.clear();
    others.extend((0..n).filter(|&j| j != me));
    sampling::shuffle(others, rng);
    values.clear();
    values.extend(others.iter().map(|&j| score(j)));
    sampling::rank_indices_into(values, false, ranks);
    out.extend(ranks.iter().take(fanout).map(|&x| others[x]));
}

/// The gossip domain as an [`EncounterSim`].
#[derive(Debug, Clone, Default)]
pub struct GossipSim {
    /// Shared simulation parameters.
    pub config: GossipConfig,
}

impl EncounterSim for GossipSim {
    type Protocol = GossipProtocol;

    fn run_homogeneous(&self, protocol: &GossipProtocol, seed: u64) -> f64 {
        let u = dsa_core::sim::with_zero_assignment(self.config.nodes, |assignment| {
            run(&[*protocol], assignment, &self.config, seed)
        });
        u.iter().sum::<f64>() / u.len() as f64
    }

    fn run_encounter(
        &self,
        a: &GossipProtocol,
        b: &GossipProtocol,
        fraction_a: f64,
        seed: u64,
    ) -> (f64, f64) {
        let n = self.config.nodes;
        let (count_a, assignment) = dsa_core::sim::split_population(n, fraction_a);
        let u = run(&[*a, *b], &assignment, &self.config, seed);
        let mean = |lo: usize, hi: usize| u[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        (mean(0, count_a), mean(count_a, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Periodicity;

    fn homog(p: GossipProtocol, seed: u64) -> f64 {
        let cfg = GossipConfig::default();
        let u = run(&[p], &vec![0; cfg.nodes], &cfg, seed);
        u.iter().sum::<f64>() / u.len() as f64
    }

    #[test]
    fn baseline_disseminates() {
        let u = homog(GossipProtocol::baseline(), 1);
        // Far more deliveries than the bare injections (120/40 per node).
        assert!(u > 10.0, "utility {u}");
    }

    #[test]
    fn silent_population_only_gets_injections() {
        let mut p = GossipProtocol::baseline();
        p.filter = crate::protocol::Filter::None;
        let u = homog(p, 2);
        // Only the injected items count: 120 items over 40 nodes.
        assert!((u - 3.0).abs() < 1.0, "utility {u}");
    }

    #[test]
    fn slower_periodicity_reduces_coverage() {
        let every = homog(GossipProtocol::baseline(), 3);
        let mut p = GossipProtocol::baseline();
        p.periodicity = Periodicity::EveryFourth;
        let fourth = homog(p, 3);
        assert!(fourth < every, "every={every} fourth={fourth}");
    }

    #[test]
    fn tiny_memory_hurts() {
        let big = homog(GossipProtocol::baseline(), 4);
        let mut p = GossipProtocol::baseline();
        p.memory = Memory::Lru16;
        let small = homog(p, 4);
        assert!(small <= big, "big={big} small={small}");
    }

    #[test]
    fn freeriders_exploit_random_but_not_best() {
        let sim = GossipSim::default();
        let pusher = GossipProtocol::baseline();
        let mut silent = pusher;
        silent.filter = Filter::None;
        // Against Random selection, the silent minority still receives.
        let (s_random, p_random) = sim.run_encounter(&silent, &pusher, 0.25, 5);
        assert!(s_random > 3.0, "silent got {s_random}");
        // Best selection (service-based) starves them relative to pushers.
        let mut best = pusher;
        best.selection = Selection::Best;
        let (s_best, p_best) = sim.run_encounter(&silent, &best, 0.25, 6);
        let ratio_random = s_random / p_random;
        let ratio_best = s_best / p_best;
        assert!(
            ratio_best < ratio_random,
            "Best should discriminate: {ratio_best} vs {ratio_random}"
        );
    }

    #[test]
    fn deterministic() {
        let sim = GossipSim::default();
        let a = sim.run_homogeneous(&GossipProtocol::baseline(), 9);
        let b = sim.run_homogeneous(&GossipProtocol::baseline(), 9);
        assert_eq!(a, b);
    }
}
