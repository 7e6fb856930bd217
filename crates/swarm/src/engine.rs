//! The cycle-based simulation engine (§4.3.1).
//!
//! Time is rounds. Each round every peer, based on *last* round's
//! interactions (all decisions are simultaneous):
//!
//! 1. builds its candidate list (C1: peers that contacted it last round;
//!    C2: in either of the last two rounds),
//! 2. ranks candidates (I1–I6) and selects its top `k` as partners,
//! 3. contacts strangers per its stranger policy (B1/B2/B3, `h` slots),
//! 4. divides its upload capacity: the capacity is split into per-slot
//!    quanta `capacity / reserved_slots`; partners receive quanta per the
//!    allocation policy (R1–R3), cooperating strangers receive one quantum
//!    each. **Unfilled slots waste their quantum** — the utilization
//!    mechanism behind the paper's low-`k`-wins-performance finding.
//!
//! Downloads are tallied, loyalty streaks and adaptive aspirations are
//! updated, then churn (if any) replaces departing peers with fresh ones.

use crate::history::{Ledger, Loyalty};
use crate::protocol::{
    Allocation, CandidateList, Ranking, StrangerPolicy, SwarmProtocol, MAX_PARTNERS, MAX_STRANGERS,
};
use dsa_workloads::bandwidth::BandwidthDist;
use dsa_workloads::churn::ChurnModel;
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling::{self, SMALL_K};

/// Simulation parameters (§4.3.1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Population size (paper: 50, "a good approximation of an average
    /// BitTorrent swarm-size").
    pub peers: usize,
    /// Number of rounds (paper: 500).
    pub rounds: usize,
    /// Upload-capacity distribution (paper: Piatek et al.).
    pub bandwidth: BandwidthDist,
    /// Churn process (paper default: none; §4.4 re-runs with 0.01/0.1).
    pub churn: ChurnModel,
    /// Multiplicative step of the adaptive aspiration level (I4).
    pub aspiration_gain: f64,
    /// Draw the population's capacities deterministically at the
    /// distribution's n-quantiles (shuffled over peer slots per run)
    /// instead of i.i.d. sampling. This mirrors the paper's testbed — one
    /// fixed 50-host bandwidth assignment — and removes capacity-luck
    /// variance that would otherwise swamp protocol effects under the
    /// heavy-tailed Piatek distribution (the paper reports per-protocol
    /// performance variance of only 0.0014, which implies a fixed
    /// population).
    pub stratified_bandwidth: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            peers: 50,
            rounds: 500,
            bandwidth: BandwidthDist::Piatek,
            churn: ChurnModel::None,
            aspiration_gain: 0.1,
            stratified_bandwidth: true,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Mean download per round, per peer slot.
    pub utilities: Vec<f64>,
    /// Upload capacity per peer slot (for class-based analyses).
    pub capacities: Vec<f64>,
    /// Protocol-group index per peer slot.
    pub assignment: Vec<usize>,
    /// Mean of `utilities` — the population throughput.
    pub throughput: f64,
    /// Mean utility per protocol group (NaN for empty groups).
    pub group_means: Vec<f64>,
}

/// Per-peer mutable state outside the ledgers.
struct PeerState {
    capacity: f64,
    /// The per-slot bandwidth quantum (capacity / reserved slots).
    quantum: f64,
    /// Aspiration level for the I4 ranking.
    aspiration: f64,
    /// Last round's total download (drives aspiration adaptation).
    last_download: f64,
    /// Remaining session length (session churn only).
    session: f64,
}

/// Reusable working memory for [`run_with_scratch`]: every buffer the
/// round loop touches, allocated once and recycled across runs. After one
/// warm run at a given population size, subsequent runs through the same
/// scratch perform **zero** steady-state heap allocations per round (the
/// `alloc_count` tests in `dsa-bench` enforce this).
///
/// A scratch carries no results between runs — [`run_with_scratch`]
/// resizes and clears everything it reads — so reusing one (even "dirty"
/// from a different protocol/population) is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct SwarmScratch {
    /// Materialized `(peer, value)` candidate list, `n` slots — only used
    /// when the ledger row can't be ranked in place (Tf2t merge, no-info
    /// fallback).
    cand: Vec<(usize, f64)>,
    /// Shuffle buffer for the Random ranking.
    order: Vec<usize>,
    /// Peers whose protocol ranks by Loyal: the only loyalty rows the
    /// round loop reads, hence the only ones it updates.
    loyal: Vec<usize>,
    /// Sorted stranger-ineligible peers of the no-information fallback
    /// (me + last round's partners) — the complement defines the
    /// eligible set.
    excl: Vec<usize>,
    /// Per-round download tally, accumulated at record time (replaces
    /// per-peer `received_total` row sums; same giver order, same bits).
    download: Vec<f64>,
    /// Last round's partner sets, flattened: peer `i`'s partners live in
    /// `pp_data[i * n .. i * n + pp_len[i]]` (replaces `Vec<Vec<usize>>`).
    pp_data: Vec<usize>,
    pp_len: Vec<usize>,
}

impl SwarmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes and clears the run-persistent buffers for an `n`-peer run.
    /// Per-peer transient buffers are cleared at their use sites.
    fn reset(&mut self, n: usize) {
        self.cand.resize(n, (0, 0.0));
        self.download.clear();
        self.download.resize(n, 0.0);
        self.pp_data.clear();
        self.pp_data.resize(n * n, 0);
        self.pp_len.clear();
        self.pp_len.resize(n, 0);
    }
}

/// Capacity of the round loop's fixed partner buffers: the largest
/// `partner_slots` a protocol may have ([`run_with_scratch`] asserts it).
pub(crate) const MAX_K: usize = MAX_PARTNERS as usize;

// A peer's strangers are drawn into `sample_small`'s stack array.
const _: () = assert!(MAX_STRANGERS as usize <= SMALL_K);

/// Selects the first `k ≤ MAX_K` entries of the ranked candidate order
/// into `sel` as `(key, candidate index)`, best first, and returns how
/// many it kept (`min(k, candidates)`). `ASCENDING` ranks small keys
/// first.
///
/// The running top-k lives in a fixed buffer shifted by hand, and keys
/// compare with a plain strict `<` (or `>`). The one invariant this
/// relies on is that candidates arrive in ascending index: an equal key
/// then never displaces an earlier entry, which is the index tie-break
/// of the ranking order, and a NaN (false both ways) behaves as the
/// ranking's `partial_cmp`-as-equal did. The engine's keys are finite
/// (amounts, their distances, streak counts).
#[inline]
pub(crate) fn select_top_k<const ASCENDING: bool>(
    sel: &mut [(f64, usize); MAX_K],
    k: usize,
    keys: impl Iterator<Item = f64>,
) -> usize {
    if k == 0 {
        return 0;
    }
    let better = |a: f64, b: f64| if ASCENDING { a < b } else { a > b };
    let mut len = 0;
    for (idx, key) in keys.enumerate() {
        if len == k {
            if !better(key, sel[k - 1].0) {
                continue;
            }
            len -= 1;
        }
        let mut pos = len;
        while pos > 0 && better(key, sel[pos - 1].0) {
            sel[pos] = sel[pos - 1];
            pos -= 1;
        }
        sel[pos] = (key, idx);
        len += 1;
    }
    len
}

/// Merges two `(peer, amount)` rows into `out` and returns the merged
/// length. Both rows ascend by peer without duplicates (the engine
/// records in ascending giver order, and churn compaction keeps that
/// order), so the result does too, with `ra`'s entry winning for a peer
/// in both rows. `out` needs room for `|ra ∪ rb|` entries.
///
/// One branch-free step per element: take the smaller head (`ra`'s on a
/// tie) and advance every row whose head it matched.
#[inline]
pub(crate) fn merge_window(
    ra: &[(usize, f64)],
    rb: &[(usize, f64)],
    out: &mut [(usize, f64)],
) -> usize {
    let (mut x, mut y, mut len) = (0, 0, 0);
    while x < ra.len() && y < rb.len() {
        let (a, b) = (ra[x], rb[y]);
        let take_a = a.0 <= b.0;
        out[len] = if take_a { a } else { b };
        len += 1;
        x += usize::from(take_a);
        y += usize::from(a.0 >= b.0);
    }
    for rest in [&ra[x..], &rb[y..]] {
        out[len..len + rest.len()].copy_from_slice(rest);
        len += rest.len();
    }
    len
}

/// Maps eligible position `j` to a peer id: the `j`-th (from 0) id not
/// in `excl`. The exclusions must ascend strictly. Then `e - t`, the
/// number of eligible ids below the `t`-th exclusion `e`, never
/// decreases, and `e` lies below the answer exactly when `e - t <= j`;
/// the answer is `j` plus the count of such `t`. Each comparison stands
/// alone, so the count has no dependency chain and no early exit, and it
/// equals the walk that steps `j` past each exclusion at or below it.
#[inline]
pub(crate) fn skip_excluded(j: usize, excl: impl Iterator<Item = usize>) -> usize {
    let mut below = 0;
    for (t, e) in excl.enumerate() {
        below += usize::from(e - t <= j);
    }
    j + below
}

/// [`skip_excluded`] over the exclusions `contacts ∪ {i}` without
/// materializing them. `contacts` ascend strictly and never hold `i`;
/// `i_pos` is `i`'s position among the ids outside them (`i` minus the
/// contacts below it). Stepping `j` past `i_pos` first maps it into the
/// ids outside the contacts alone.
#[inline]
pub(crate) fn skip_contacts(j: usize, contacts: &[(usize, f64)], i_pos: usize) -> usize {
    skip_excluded(j + usize::from(i_pos <= j), contacts.iter().map(|c| c.0))
}

/// Runs the simulator.
///
/// `assignment[i]` selects which of `protocols` peer slot `i` executes.
/// Deterministic in `seed`. Traced as a `swarm.run` span with
/// `swarm.{setup,rounds,payoff}` phase children when tracing is on.
///
/// Thin wrapper over [`run_with_scratch`] using a thread-local
/// [`SwarmScratch`], so callers that loop over runs on one thread — sweep
/// workers inside `parallel_map_indexed`, benchmark iterations, test
/// suites — automatically reuse one arena per thread across all runs.
///
/// # Panics
///
/// Panics on an empty/too-small population, inconsistent assignment, or
/// a protocol with more than [`MAX_PARTNERS`] partner slots or
/// [`MAX_STRANGERS`] stranger slots.
pub fn run(
    protocols: &[SwarmProtocol],
    assignment: &[usize],
    config: &SimConfig,
    seed: u64,
) -> RunOutcome {
    thread_local! {
        static SCRATCH: std::cell::RefCell<SwarmScratch> =
            std::cell::RefCell::new(SwarmScratch::new());
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
            &mut SwarmScratch::new(),
        ),
    })
}

/// [`run`] against a caller-owned [`SwarmScratch`]. Output is bit-identical
/// to [`run`] regardless of the scratch's prior contents.
///
/// Without churn, a population in which nobody ever gives a positive
/// amount skips its round loop: every utility stays +0.0 and the
/// capacities are the ones drawn at setup.
///
/// # Panics
///
/// Panics on an empty/too-small population, inconsistent assignment, or
/// a protocol with more than [`MAX_PARTNERS`] partner slots or
/// [`MAX_STRANGERS`] stranger slots.
pub fn run_with_scratch(
    protocols: &[SwarmProtocol],
    assignment: &[usize],
    config: &SimConfig,
    seed: u64,
    scratch: &mut SwarmScratch,
) -> RunOutcome {
    simulate(protocols, assignment, config, seed, scratch, true)
}

/// Whether a peer never gives a positive amount first: it contacts no
/// stranger or defects on them (h = 0 or B3), and gives partners nothing
/// or only in proportion to what they gave it (k = 0, R2 or R3).
fn never_initiates(p: &SwarmProtocol) -> bool {
    (p.stranger_slots == 0 || p.stranger_policy == StrangerPolicy::Defect)
        && (p.partner_slots == 0 || p.allocation != Allocation::EqualSplit)
}

/// Whether no peer of the population ever receives a positive amount.
///
/// With every h = 0 nobody makes first contact, so no peer ever has a
/// candidate. Otherwise, if every peer is a never-initiator, positive
/// amounts could only come from R2, which gives `budget · v / total`
/// only after receiving something — by induction, never. Either way
/// every `download` adds +0.0 at most.
fn silent(protocols: &[SwarmProtocol], assignment: &[usize]) -> bool {
    let assigned = || assignment.iter().map(|&a| &protocols[a]);
    assigned().all(|p| p.stranger_slots == 0) || assigned().all(never_initiates)
}

/// [`run_with_scratch`], which passes `exit_silent`; with it false a
/// silent population runs its round loop too, which is how the tests
/// check the exit.
fn simulate(
    protocols: &[SwarmProtocol],
    assignment: &[usize],
    config: &SimConfig,
    seed: u64,
    scratch: &mut SwarmScratch,
    exit_silent: bool,
) -> RunOutcome {
    let n = config.peers;
    assert!(n >= 2, "need at least two peers");
    assert_eq!(assignment.len(), n, "assignment must cover every peer");
    assert!(!protocols.is_empty(), "need at least one protocol");
    assert!(
        assignment.iter().all(|&a| a < protocols.len()),
        "assignment references missing protocol"
    );
    assert!(config.rounds > 0, "need at least one round");
    assert!(
        protocols.iter().all(|p| p.partner_slots <= MAX_PARTNERS),
        "partner_slots above MAX_PARTNERS ({MAX_PARTNERS})"
    );
    assert!(
        protocols.iter().all(|p| p.stranger_slots <= MAX_STRANGERS),
        "stranger_slots above MAX_STRANGERS ({MAX_STRANGERS})"
    );

    let _run_span = dsa_obs::span("swarm.run");
    let setup_span = dsa_obs::span("swarm.setup");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let capacities: Vec<f64> = if config.stratified_bandwidth {
        // Fixed population at the distribution's quantiles; placement is
        // shuffled per run so mixed-population groups are capacity-fair.
        let mut v = config.bandwidth.stratified_n(n);
        sampling::shuffle(&mut v, &mut rng);
        v
    } else {
        config.bandwidth.sample_n(n, &mut rng)
    };
    let mut peers: Vec<PeerState> = (0..n)
        .map(|i| {
            let capacity = capacities[i];
            let proto = &protocols[assignment[i]];
            let quantum = capacity / f64::from(proto.reserved_slots());
            PeerState {
                capacity,
                quantum,
                aspiration: quantum,
                last_download: 0.0,
                session: config.churn.initial_session(&mut rng),
            }
        })
        .collect();

    let mut prev = Ledger::new(n);
    let mut prev2 = Ledger::new(n);
    let mut next = Ledger::new(n);
    let mut loyalty = Loyalty::new(n);
    let mut total_download = vec![0.0f64; n];

    // `pp_*` holds last round's selected partner sets. When a peer learns
    // nothing new (empty candidate list) it keeps these selections —
    // BitTorrent does not drop unchokes in the absence of new
    // information, and this is what lets a displaced Sort-Slowest peer
    // re-enter within one round (§4.4's "peers rarely find themselves
    // without a fully occupied partner set").
    scratch.reset(n);
    let SwarmScratch {
        cand,
        order,
        loyal,
        excl,
        download,
        pp_data,
        pp_len,
    } = scratch;
    let mut sel = [(0.0, 0); MAX_K];
    let mut partners = [(0, 0.0); MAX_K];
    let mut strangers = [0; SMALL_K];
    // A loyalty row is only consulted by its peer's Loyal ranking; keeping
    // the others current is O(n) per row and round of dead work.
    loyal.clear();
    loyal.extend((0..n).filter(|&i| protocols[assignment[i]].ranking == Ranking::Loyal));
    drop(setup_span);

    // Thread-local allocation count at the edge of the round loop: the
    // loop is the steady state, so its delta — fed to the
    // mem.run_allocs.swarm histogram under --alloc — must be zero once
    // this scratch is warm. Setup and payoff assembly allocate outputs
    // by design and stay outside the window.
    let loop_allocs = dsa_obs::alloc::thread_count();
    let rounds_span = dsa_obs::span("swarm.rounds");
    // Churn redraws capacities, an output, so a churned run keeps its
    // loop.
    let rounds = if exit_silent && config.churn.is_none() && silent(protocols, assignment) {
        0
    } else {
        config.rounds
    };
    for _round in 0..rounds {
        next.clear();

        for i in 0..n {
            let proto = &protocols[assignment[i]];
            let k = usize::from(proto.partner_slots);
            let h = usize::from(proto.stranger_slots);
            let remembers_two = proto.candidates == CandidateList::Tf2t;

            // 1. Candidate list: peers that contacted me within my
            // window, as `(peer, value)` pairs in ascending peer order —
            // the same order the dense j-scan produced. The common Tft
            // case ranks the ledger row *in place*; Tf2t merges the two
            // rounds' sorted rows (last round's amount winning on
            // duplicates) and the no-information fallback rebuilds last
            // round's selections, both into the `cand` scratch.
            let cp: &[(usize, f64)] = if remembers_two {
                let len = merge_window(prev.row(i), prev2.row(i), cand);
                &cand[..len]
            } else {
                prev.row(i)
            };
            // Window contacts are exactly the candidates so far; needed
            // below to size the stranger-eligible set without a scan.
            let contacts_len = cp.len();
            // No new information: keep last round's selections as
            // candidates (at their observed — possibly zero — rates).
            let cp: &[(usize, f64)] = if contacts_len == 0 && pp_len[i] > 0 {
                let kept = &pp_data[i * n..i * n + pp_len[i]];
                for (c, &j) in cand.iter_mut().zip(kept) {
                    *c = (j, prev.amount(i, j));
                }
                &cand[..kept.len()]
            } else {
                cp
            };

            // 2. Rank and select up to k partners. Only the top
            // `partner_count` entries are consumed, so the sorted rankings
            // use the partial top-k selection (bit-identical prefix);
            // Random keeps the full shuffle to preserve the RNG stream.
            let partner_count = k.min(cp.len());
            let partners = &mut partners[..partner_count];
            if partner_count > 0 {
                if proto.ranking == Ranking::Random {
                    order.clear();
                    order.extend(0..cp.len());
                    sampling::shuffle(order, &mut rng);
                    for (p, &ci) in partners.iter_mut().zip(order.iter()) {
                        *p = cp[ci];
                    }
                } else {
                    let keys = cp.iter();
                    match proto.ranking {
                        Ranking::Fastest => {
                            select_top_k::<false>(&mut sel, partner_count, keys.map(|p| p.1));
                        }
                        Ranking::Slowest => {
                            select_top_k::<true>(&mut sel, partner_count, keys.map(|p| p.1));
                        }
                        Ranking::Proximity => {
                            let me = peers[i].quantum;
                            let keys = keys.map(|p| (p.1 - me).abs());
                            select_top_k::<true>(&mut sel, partner_count, keys);
                        }
                        Ranking::Adaptive => {
                            let asp = peers[i].aspiration;
                            let keys = keys.map(|p| (p.1 - asp).abs());
                            select_top_k::<true>(&mut sel, partner_count, keys);
                        }
                        Ranking::Loyal => {
                            let streaks = loyalty.row(i);
                            let keys = keys.map(|p| f64::from(streaks[p.0]));
                            select_top_k::<false>(&mut sel, partner_count, keys);
                        }
                        Ranking::Random => unreachable!(),
                    }
                    for (p, &(_, ci)) in partners.iter_mut().zip(sel.iter()) {
                        *p = cp[ci];
                    }
                }
            }

            // 3. Stranger contacts.
            let stranger_quota = match proto.stranger_policy {
                _ if h == 0 => 0,
                StrangerPolicy::Periodic | StrangerPolicy::Defect => h,
                StrangerPolicy::WhenNeeded => h.min(k - partner_count),
            };
            let mut stranger_count = 0;
            if stranger_quota > 0 {
                // Eligible: not me, not selected, outside my memory
                // window. The set is never materialized: the exclusions
                // are `i` plus the window contacts (which subsume the
                // selected partners, except in the no-information
                // fallback where the partners themselves are excluded),
                // and a sampled eligible position maps to a peer id by
                // counting the exclusions below it.
                if contacts_len == 0 {
                    excl.clear();
                    excl.extend(partners.iter().map(|&(j, _)| j));
                    excl.push(i);
                    excl.sort_unstable();
                    let eligible_len = n - excl.len();
                    stranger_count = sampling::sample_small(
                        eligible_len,
                        stranger_quota,
                        &mut rng,
                        &mut strangers,
                    );
                    for slot in &mut strangers[..stranger_count] {
                        *slot = skip_excluded(*slot, excl.iter().copied());
                    }
                } else {
                    // Common case: the exclusions are exactly
                    // `cp[..contacts_len]` (ascending by peer) with `i`
                    // spliced in; place `i` among them once per peer.
                    let eligible_len = n - contacts_len - 1;
                    stranger_count = sampling::sample_small(
                        eligible_len,
                        stranger_quota,
                        &mut rng,
                        &mut strangers,
                    );
                    let contacts = &cp[..contacts_len];
                    let i_pos = i - contacts.partition_point(|c| c.0 < i);
                    for slot in &mut strangers[..stranger_count] {
                        *slot = skip_contacts(*slot, contacts, i_pos);
                    }
                }
            }

            // 4. Allocation over per-slot quanta. A zero transfer still
            // registers as a contact; it leaves `download` unchanged (a
            // tally of non-negative amounts starting at +0.0).
            let q = peers[i].quantum;
            match proto.allocation {
                Allocation::EqualSplit => {
                    for &(j, _) in partners.iter() {
                        next.record_new(j, i, q);
                        download[j] += q;
                    }
                }
                Allocation::PropShare => {
                    let budget = q * partners.len() as f64;
                    let total: f64 = partners.iter().map(|&(_, v)| v).sum();
                    if total > 0.0 {
                        for &(j, v) in partners.iter() {
                            let amt = budget * v / total;
                            next.record_new(j, i, amt);
                            download[j] += amt;
                        }
                    } else {
                        // Nothing received last round ⇒ nothing proportional
                        // to give — the bootstrap failure the paper notes.
                        for &(j, _) in partners.iter() {
                            next.record_new(j, i, 0.0);
                        }
                    }
                }
                Allocation::Freeride => {
                    for &(j, _) in partners.iter() {
                        next.record_new(j, i, 0.0);
                    }
                }
            }
            let stranger_amount = match proto.stranger_policy {
                StrangerPolicy::Defect => 0.0,
                StrangerPolicy::Periodic | StrangerPolicy::WhenNeeded => q,
            };
            for &j in &strangers[..stranger_count] {
                next.record_new(j, i, stranger_amount);
                download[j] += stranger_amount;
            }

            pp_len[i] = partners.len();
            for (slot, &(j, _)) in pp_data[i * n..].iter_mut().zip(partners.iter()) {
                *slot = j;
            }
        }

        // Tally downloads, update adaptive state. `download[i]` was
        // accumulated at record time in ascending-giver order — the same
        // summation order (and bits) as `next.received_total(i)`.
        for i in 0..n {
            let dl = download[i];
            total_download[i] += dl;
            let p = &mut peers[i];
            if dl >= p.last_download {
                p.aspiration *= 1.0 + config.aspiration_gain;
            } else {
                p.aspiration *= 1.0 - config.aspiration_gain;
            }
            p.aspiration = p.aspiration.clamp(1e-3, p.capacity * 2.0 + 1e-3);
            p.last_download = dl;
        }
        download.fill(0.0);
        for &i in loyal.iter() {
            loyalty.update_row(i, &next);
        }

        // Rotate ledgers: next becomes prev, prev becomes prev2.
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut next);

        // Churn: replace departing peers with fresh ones.
        if !config.churn.is_none() {
            for i in 0..n {
                peers[i].session -= 1.0;
                if config.churn.departs(peers[i].session, &mut rng) {
                    prev.forget_peer(i);
                    prev2.forget_peer(i);
                    loyalty.forget_peer(i);
                    pp_len[i] = 0;
                    // Drop the departed peer from every partner set
                    // (in-place compaction of the flat rows).
                    for (p, len) in pp_len.iter_mut().enumerate() {
                        let base = p * n;
                        let mut kept = 0;
                        for r in 0..*len {
                            let j = pp_data[base + r];
                            if j != i {
                                pp_data[base + kept] = j;
                                kept += 1;
                            }
                        }
                        *len = kept;
                    }
                    let capacity = config.bandwidth.sample(&mut rng);
                    let proto = &protocols[assignment[i]];
                    let quantum = capacity / f64::from(proto.reserved_slots());
                    peers[i] = PeerState {
                        capacity,
                        quantum,
                        aspiration: quantum,
                        last_download: 0.0,
                        session: config.churn.initial_session(&mut rng),
                    };
                }
            }
        }
    }
    drop(rounds_span);
    let loop_allocs = dsa_obs::alloc::thread_count().saturating_sub(loop_allocs);

    let _payoff_span = dsa_obs::span("swarm.payoff");
    let utilities: Vec<f64> = total_download
        .iter()
        .map(|&d| d / config.rounds as f64)
        .collect();
    let throughput = utilities.iter().sum::<f64>() / n as f64;
    let mut group_sum = vec![0.0f64; protocols.len()];
    let mut group_count = vec![0usize; protocols.len()];
    for (i, &g) in assignment.iter().enumerate() {
        group_sum[g] += utilities[i];
        group_count[g] += 1;
    }
    let group_means: Vec<f64> = group_sum
        .iter()
        .zip(&group_count)
        .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
        .collect();

    if dsa_obs::metrics_enabled() && dsa_obs::alloc::enabled() {
        dsa_obs::observe_thread_dependent("mem.run_allocs.swarm", loop_allocs);
    }

    RunOutcome {
        utilities,
        capacities: peers.iter().map(|p| p.capacity).collect(),
        assignment: assignment.to_vec(),
        throughput,
        group_means,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn small() -> SimConfig {
        SimConfig {
            peers: 20,
            rounds: 100,
            bandwidth: BandwidthDist::Constant(10.0),
            churn: ChurnModel::None,
            aspiration_gain: 0.1,
            stratified_bandwidth: true,
        }
    }

    fn homogeneous(p: SwarmProtocol, config: &SimConfig, seed: u64) -> RunOutcome {
        run(&[p], &vec![0; config.peers], config, seed)
    }

    #[test]
    fn bittorrent_like_population_bootstraps() {
        let out = homogeneous(presets::bittorrent(), &small(), 1);
        assert!(out.throughput > 0.0, "no data flowed: {out:?}");
    }

    #[test]
    fn throughput_bounded_by_capacity() {
        // Nobody can download more than the population uploads.
        let out = homogeneous(presets::bittorrent(), &small(), 2);
        assert!(out.throughput <= 10.0 + 1e-9);
    }

    #[test]
    fn no_strangers_never_bootstraps() {
        // h = 0: nobody ever makes first contact, so no data ever flows.
        let mut p = presets::bittorrent();
        p.stranger_slots = 0;
        let out = homogeneous(p, &small(), 3);
        assert_eq!(out.throughput, 0.0);
    }

    fn outcome_bits(o: &RunOutcome) -> Vec<u64> {
        let floats = [&o.utilities, &o.capacities, &o.group_means];
        let mut bits: Vec<u64> = floats
            .iter()
            .flat_map(|v| v.iter().map(|x| x.to_bits()))
            .collect();
        bits.push(o.throughput.to_bits());
        bits.extend(o.assignment.iter().map(|&a| a as u64));
        bits
    }

    /// The silent-population exit gives what the round loop gives, and
    /// every utility is +0.0: every never-initiator's homogeneous
    /// population, and 50/50 and 10/90 pairs of never-initiators and of
    /// h = 0 protocols (which may allocate R1 to partners they never get).
    #[test]
    fn silent_populations_skip_the_loop_bit_for_bit() {
        let config = SimConfig {
            peers: 20,
            rounds: 60,
            ..SimConfig::default()
        };
        let quiet: Vec<SwarmProtocol> = SwarmProtocol::all().filter(never_initiates).collect();
        assert_eq!(quiet.len(), 876);
        let no_strangers: Vec<SwarmProtocol> = SwarmProtocol::all()
            .filter(|p| p.stranger_slots == 0)
            .collect();
        let mut scratch = SwarmScratch::new();
        let mut check = |protocols: &[SwarmProtocol], assignment: &[usize], seed: u64| {
            assert!(silent(protocols, assignment), "{protocols:?}");
            let looped = simulate(protocols, assignment, &config, seed, &mut scratch, false);
            assert!(
                looped.utilities.iter().all(|u| u.to_bits() == 0),
                "{protocols:?}: {looped:?}"
            );
            let exited = simulate(protocols, assignment, &config, seed, &mut scratch, true);
            assert_eq!(
                outcome_bits(&exited),
                outcome_bits(&looped),
                "{protocols:?}"
            );
        };
        for (i, p) in quiet.iter().enumerate() {
            check(&[*p], &vec![0; config.peers], i as u64);
        }
        for pool in [&quiet, &no_strangers] {
            for share in [10, 2] {
                let assignment: Vec<usize> =
                    (0..config.peers).map(|i| usize::from(i >= share)).collect();
                for i in (0..pool.len()).step_by(5) {
                    let j = (i * 31 + 17) % pool.len();
                    check(&[pool[i], pool[j]], &assignment, (i * 1000 + j) as u64);
                }
            }
        }
        // Churn redraws capacities, an output: a churned silent
        // population keeps its loop.
        let churned = SimConfig {
            churn: ChurnModel::PerRound { rate: 0.1 },
            ..config
        };
        for (i, p) in quiet.iter().enumerate().step_by(25) {
            let assignment = vec![0; churned.peers];
            let looped = simulate(&[*p], &assignment, &churned, i as u64, &mut scratch, false);
            let public = run_with_scratch(&[*p], &assignment, &churned, i as u64, &mut scratch);
            assert_eq!(outcome_bits(&public), outcome_bits(&looped), "{p:?}");
        }
    }

    #[test]
    fn populations_that_start_a_flow_are_not_silent() {
        // One initiator among never-initiators, or one peer with h > 0
        // among h = 0 peers, is enough to start a flow.
        let quiet = SwarmProtocol {
            stranger_policy: StrangerPolicy::Defect,
            stranger_slots: 2,
            allocation: Allocation::EqualSplit,
            ..presets::bittorrent()
        };
        let config = small();
        let half: Vec<usize> = (0..config.peers).map(|i| usize::from(i >= 10)).collect();
        for protocols in [
            [presets::bittorrent(), presets::freerider()],
            [
                quiet,
                SwarmProtocol {
                    stranger_slots: 0,
                    ..presets::bittorrent()
                },
            ],
        ] {
            assert!(!silent(&protocols, &half), "{protocols:?}");
            let out = run(&protocols, &half, &config, 4);
            assert!(out.throughput > 0.0, "{protocols:?}: {out:?}");
        }
    }

    #[test]
    fn full_freeriders_with_defect_strangers_transfer_nothing() {
        let p = SwarmProtocol {
            stranger_policy: StrangerPolicy::Defect,
            stranger_slots: 1,
            candidates: CandidateList::Tft,
            ranking: Ranking::Fastest,
            partner_slots: 4,
            allocation: Allocation::Freeride,
        };
        let out = homogeneous(p, &small(), 4);
        assert_eq!(out.throughput, 0.0);
    }

    #[test]
    fn freeriders_with_periodic_strangers_get_some_throughput() {
        // R3 + B1: only stranger slots carry data (the paper's ≈0.3 cap
        // for stranger-cooperating freeriders).
        let p = SwarmProtocol {
            stranger_policy: StrangerPolicy::Periodic,
            stranger_slots: 1,
            candidates: CandidateList::Tft,
            ranking: Ranking::Fastest,
            partner_slots: 4,
            allocation: Allocation::Freeride,
        };
        let out = homogeneous(p, &small(), 5);
        assert!(out.throughput > 0.0);
        // Far below a cooperative protocol's throughput.
        let coop = homogeneous(presets::bittorrent(), &small(), 5);
        assert!(out.throughput < coop.throughput * 0.5);
    }

    #[test]
    fn sort_slowest_single_partner_defectors_fill_capacity() {
        // The paper's counter-intuitive top performer: B3 strangers,
        // Sort Slowest, k=1, Equal Split reaches (near-)full utilization.
        let out = homogeneous(presets::sort_s(), &small(), 6);
        assert!(
            out.throughput > 0.9 * 10.0,
            "Sort-S throughput {} below 90% of capacity",
            out.throughput
        );
    }

    #[test]
    fn sort_s_beats_bittorrent_homogeneously() {
        let cfg = small();
        let sort_s = homogeneous(presets::sort_s(), &cfg, 7);
        let bt = homogeneous(presets::bittorrent(), &cfg, 7);
        assert!(
            sort_s.throughput >= bt.throughput,
            "Sort-S {} vs BT {}",
            sort_s.throughput,
            bt.throughput
        );
    }

    #[test]
    fn prop_share_population_fails_to_bootstrap_with_defect_strangers() {
        // §4.4: "It is imperative ... that the resource allocation method
        // should not be Prop Share" for the B3 protocol family — nobody
        // ever receives anything, so proportional gives nothing.
        let p = SwarmProtocol {
            allocation: Allocation::PropShare,
            ..presets::sort_s()
        };
        let out = homogeneous(p, &small(), 8);
        assert_eq!(out.throughput, 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = homogeneous(presets::bittorrent(), &small(), 42);
        let b = homogeneous(presets::bittorrent(), &small(), 42);
        assert_eq!(a, b);
        let c = homogeneous(presets::bittorrent(), &small(), 43);
        assert_ne!(a.utilities, c.utilities);
    }

    #[test]
    fn mixed_population_group_means() {
        let cfg = small();
        let protos = [presets::bittorrent(), presets::freerider()];
        let assignment: Vec<usize> = (0..cfg.peers).map(|i| usize::from(i >= 10)).collect();
        let out = run(&protos, &assignment, &cfg, 9);
        assert_eq!(out.group_means.len(), 2);
        assert!(out.group_means[0].is_finite());
        assert!(out.group_means[1].is_finite());
        // Cooperators outperform freeriders in a half-half split.
        assert!(out.group_means[0] > out.group_means[1]);
    }

    #[test]
    fn churn_reduces_but_does_not_kill_throughput() {
        let mut cfg = small();
        let base = homogeneous(presets::bittorrent(), &cfg, 10);
        cfg.churn = ChurnModel::PerRound { rate: 0.1 };
        let churned = homogeneous(presets::bittorrent(), &cfg, 10);
        assert!(churned.throughput > 0.0);
        assert!(churned.throughput < base.throughput);
    }

    #[test]
    fn utilities_are_nonnegative_and_sized() {
        let cfg = small();
        let out = homogeneous(presets::loyal_when_needed(), &cfg, 11);
        assert_eq!(out.utilities.len(), cfg.peers);
        assert!(out.utilities.iter().all(|&u| u >= 0.0));
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn bad_assignment_length_panics() {
        let cfg = small();
        let _ = run(&[presets::bittorrent()], &[0; 3], &cfg, 1);
    }

    #[test]
    #[should_panic(expected = "partner_slots above MAX_PARTNERS")]
    fn partner_slots_beyond_the_fixed_buffers_panic() {
        // Checked for every protocol, even one no peer runs.
        let wide = SwarmProtocol {
            partner_slots: 20,
            ..presets::bittorrent()
        };
        let cfg = small();
        let _ = run(&[presets::bittorrent(), wide], &vec![0; cfg.peers], &cfg, 1);
    }

    #[test]
    #[should_panic(expected = "stranger_slots above MAX_STRANGERS")]
    fn stranger_slots_beyond_max_strangers_panic() {
        let wide = SwarmProtocol {
            stranger_slots: MAX_STRANGERS + 1,
            ..presets::bittorrent()
        };
        let cfg = small();
        let _ = run(&[wide], &vec![0; cfg.peers], &cfg, 1);
    }

    #[test]
    fn heterogeneous_capacities_with_piatek() {
        let cfg = SimConfig {
            peers: 50,
            rounds: 60,
            bandwidth: BandwidthDist::Piatek,
            churn: ChurnModel::None,
            aspiration_gain: 0.1,
            stratified_bandwidth: true,
        };
        let out = homogeneous(presets::bittorrent(), &cfg, 12);
        let lo = out.capacities.iter().cloned().fold(f64::MAX, f64::min);
        let hi = out.capacities.iter().cloned().fold(0.0, f64::max);
        assert!(hi / lo > 3.0, "Piatek population should be heterogeneous");
        assert!(out.throughput > 0.0);
    }
}
