//! Cycle-based simulator of a reputation-mediated sharing community.
//!
//! Each round every peer requests service from a few random peers; each
//! peer then divides its upload capacity among its incoming requesters
//! according to its protocol — scoring requesters through its reputation
//! *source*, aging records per its *maintenance* policy, bootstrapping
//! unknown requesters per its *stranger* policy and mapping scores to
//! service through its *response* function. Peers with the *whitewash*
//! identity policy periodically shed their accumulated record; churned
//! peers are replaced by fresh ones (reusing the slot) with empty records
//! on both sides. Utility = total service received, the
//! application-defined performance measure for this domain.

use crate::protocol::{Identity, Maintenance, RepProtocol, Response, Source, Stranger};
use dsa_workloads::bandwidth::BandwidthDist;
use dsa_workloads::churn::ChurnModel;
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling::{self, SMALL_K};

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RepConfig {
    /// Number of peers.
    pub peers: usize,
    /// Number of rounds.
    pub rounds: usize,
    /// Requests each peer issues per round.
    pub requests: usize,
    /// Upload-capacity distribution (service units per round).
    pub capacity: BandwidthDist,
    /// Peer replacement process (whitewashing's blunt cousin).
    pub churn: ChurnModel,
    /// Peers consulted per decision by the Gossiped/Transitive sources.
    pub gossip_sources: usize,
    /// Rounds between identity resets for whitewashing peers.
    pub whitewash_period: usize,
    /// Per-round retention factor for [`Maintenance::Decay`].
    pub decay: f64,
    /// Window length in rounds for [`Maintenance::Window`].
    pub window: usize,
    /// Score a requester must strictly exceed under
    /// [`Response::ThresholdBan`].
    pub threshold: f64,
    /// Admission probability for [`Stranger::Probabilistic`].
    pub optimism: f64,
}

impl Default for RepConfig {
    fn default() -> Self {
        Self {
            // Dense enough that window-limited reciprocity can sustain
            // itself: a directed pair interacts ~3/23 of rounds, about
            // once per default window.
            peers: 24,
            rounds: 80,
            requests: 3,
            capacity: BandwidthDist::Uniform { lo: 5.0, hi: 15.0 },
            churn: ChurnModel::None,
            gossip_sources: 3,
            whitewash_period: 16,
            decay: 0.9,
            window: 8,
            threshold: 0.0,
            optimism: 0.5,
        }
    }
}

impl RepConfig {
    /// Reduced parameters for tests and tournament subsampling.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            peers: 16,
            rounds: 40,
            ..Self::default()
        }
    }
}

/// All peers' reputation ledgers as flat row-major matrices (row = owner,
/// column = subject), plus per-peer capacity and accumulated utility.
///
/// The per-peer struct-of-Vecs layout this replaces cost two dependent
/// pointer loads per ledger probe; the decision phase probes ledgers ~10⁵
/// times per run, so the flat layout is what makes the witness loops run
/// at memory speed. Row `i` of each matrix is `[i * n .. (i + 1) * n]`.
#[derive(Debug, Default)]
struct LedgerMat {
    n: usize,
    /// Ring slots per owner (`window`, or 1 when unused).
    window: usize,
    /// Maintained opinion scores (service received from each peer, aged
    /// per the owner's maintenance policy).
    opinion: Vec<f64>,
    /// Current-round contributions, folded in at end of round.
    accum: Vec<f64>,
    /// Last `window` rounds' contributions (Window policy), owner-major:
    /// `ring[owner * window * n + slot * n + subject]`. Empty when no
    /// protocol in the run uses [`Maintenance::Window`].
    ring: Vec<f64>,
    /// Next ring slot to overwrite, per owner.
    ring_pos: Vec<usize>,
    /// Whether the owner has ever interacted with each peer (in either
    /// direction) — peers never seen are *strangers*.
    seen: Vec<bool>,
}

impl LedgerMat {
    /// Folds every owner's round contributions into its opinion row and
    /// clears them, in one pass over the matrix. A Keep or Decay row is
    /// `o · f + a` with its owner's retention factor `f`: 1 under Keep,
    /// where `o · 1.0 + a` is bit-equal to `o + a`. A Window row swaps its
    /// oldest ring slot out.
    fn end_round(&mut self, protocols: &[RepProtocol], assignment: &[usize], decay: f64) {
        let Self {
            n,
            window,
            opinion,
            accum,
            ring,
            ring_pos,
            ..
        } = self;
        let rows = opinion.chunks_exact_mut(*n).zip(accum.chunks_exact_mut(*n));
        for (i, (opinion, accum)) in rows.enumerate() {
            let factor = match protocols[assignment[i]].maintenance {
                Maintenance::Keep => 1.0,
                Maintenance::Decay => decay,
                Maintenance::Window => {
                    let base = (i * *window + ring_pos[i]) * *n;
                    let oldest = &mut ring[base..base + *n];
                    for ((o, a), old) in opinion.iter_mut().zip(accum.iter_mut()).zip(oldest) {
                        *o += *a - *old;
                        *old = *a;
                        *a = 0.0;
                    }
                    ring_pos[i] += 1;
                    if ring_pos[i] == *window {
                        ring_pos[i] = 0;
                    }
                    continue;
                }
            };
            for (o, a) in opinion.iter_mut().zip(accum.iter_mut()) {
                *o = *o * factor + *a;
                *a = 0.0;
            }
        }
    }

    /// Erases every trace of peer `p` from owner `i`'s ledger
    /// (whitewash / churn).
    fn forget(&mut self, i: usize, p: usize) {
        self.opinion[i * self.n + p] = 0.0;
        self.accum[i * self.n + p] = 0.0;
        if !self.ring.is_empty() {
            for slot in 0..self.window {
                self.ring[i * self.window * self.n + slot * self.n + p] = 0.0;
            }
        }
        self.seen[i * self.n + p] = false;
    }

    /// Resets owner `i`'s whole ledger (it is a fresh peer) in place.
    fn reset(&mut self, i: usize) {
        let row = i * self.n..(i + 1) * self.n;
        self.opinion[row.clone()].fill(0.0);
        self.accum[row.clone()].fill(0.0);
        if !self.ring.is_empty() {
            let base = i * self.window * self.n;
            self.ring[base..base + self.window * self.n].fill(0.0);
        }
        self.ring_pos[i] = 0;
        self.seen[row].fill(false);
    }
}

/// Reusable working memory for [`run_with_scratch`]: request lists
/// (flattened), the round's grant marks and the per-decision scoring
/// buffers, allocated once and recycled across runs. After one warm run
/// at a given population size, subsequent runs through the same scratch
/// perform zero steady-state heap allocations per round (enforced by the
/// `alloc_count` tests in `dsa-bench`).
///
/// A scratch carries no results between runs — every buffer is resized
/// and cleared before being read — so reusing one (even dirty, from a
/// different protocol or population) is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct RepScratch {
    /// Incoming-request lists, flattened: the peers that asked `s` for
    /// service this round live in `req_data[s * n .. s * n + req_len[s]]`
    /// in deterministic order.
    req_data: Vec<usize>,
    req_len: Vec<usize>,
    /// Request draws of more than [`SMALL_K`] targets (from `0..n-1`).
    req_out: Vec<usize>,
    /// The round's grants as `(server, requester)`: their `seen` marks
    /// wait until every decision has read the start-of-round ledgers.
    marks: Vec<(usize, usize)>,
    decision: DecisionScratch,
    /// Run state, reused across runs: the flat ledger matrices and the
    /// per-peer capacity / accumulated-utility vectors. Fully
    /// re-initialized during setup, so nothing carries over between runs.
    ledgers: LedgerMat,
    capacity: Vec<f64>,
    received: Vec<f64>,
}

/// Buffers for one server's allocation decision.
#[derive(Debug, Default)]
struct DecisionScratch {
    /// Per requester: whether any consulted channel has a record of it,
    /// and its score.
    scores: Vec<(bool, f64)>,
    weights: Vec<f64>,
    /// RankBased: admitted requester positions (shuffled in place), the
    /// score values in that order, and the ranking over those values.
    order: Vec<usize>,
    values: Vec<f64>,
    ranks: Vec<usize>,
    /// One witness draw of at most [`SMALL_K`] peers.
    picks: [usize; SMALL_K],
    /// Witness draws of more than [`SMALL_K`] peers (from `0..n`), and
    /// EigenTrust's (trust, opinion) buffer for them.
    spill: Vec<usize>,
    pairs: Vec<(f64, f64)>,
}

impl DecisionScratch {
    /// [`score`] through the source `SRC`, drawing its witnesses.
    #[inline(always)]
    fn score<const SRC: u8>(
        &mut self,
        s: usize,
        r: usize,
        records: &Records,
        config: &RepConfig,
        rng: &mut Xoshiro256pp,
    ) -> (bool, f64) {
        if SRC == PRIVATE {
            return score::<SRC>(s, r, records, &[], &mut []);
        }
        let witnesses = draw(
            records.n,
            config.gossip_sources,
            rng,
            &mut self.picks,
            &mut self.spill,
        );
        if SRC == EIGENTRUST && witnesses.len() > SMALL_K {
            self.pairs.clear();
            self.pairs.resize(witnesses.len(), (0.0, 0.0));
            return score::<SRC>(s, r, records, witnesses, &mut self.pairs);
        }
        score::<SRC>(s, r, records, witnesses, &mut [(0.0, 0.0); SMALL_K])
    }
}

/// Draws `k` distinct indices from `0..n`: into `picks` when `k` fits,
/// into `spill` otherwise. [`sampling::sample_small`] makes the draws of
/// [`sampling::sample_indices_into`], so the stream is the same either way.
#[inline(always)]
fn draw<'a>(
    n: usize,
    k: usize,
    rng: &mut Xoshiro256pp,
    picks: &'a mut [usize; SMALL_K],
    spill: &'a mut Vec<usize>,
) -> &'a [usize] {
    if k <= SMALL_K {
        let len = sampling::sample_small(n, k, rng, picks);
        &picks[..len]
    } else {
        sampling::sample_indices_into(n, k, rng, spill);
        spill
    }
}

/// Runs one reputation simulation; returns per-peer utilities.
///
/// Deterministic in `seed`: all randomness flows through one generator
/// consumed in fixed iteration order. Traced as a `rep.run` span with
/// `rep.{setup,rounds,payoff}` phase children when tracing is on.
///
/// Thin wrapper over [`run_with_scratch`] using a thread-local
/// [`RepScratch`], so callers that loop over runs on one thread — sweep
/// workers, benchmarks, tests — automatically reuse one arena per thread.
///
/// # Panics
///
/// Panics if there are fewer than two peers or the assignment does not
/// cover every peer.
pub fn run(
    protocols: &[RepProtocol],
    assignment: &[usize],
    config: &RepConfig,
    seed: u64,
) -> Vec<f64> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<RepScratch> =
            std::cell::RefCell::new(RepScratch::default());
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
            &mut RepScratch::default(),
        ),
    })
}

/// [`run`] against a caller-owned [`RepScratch`]. Output is bit-identical
/// to [`run`] regardless of the scratch's prior contents.
///
/// # Panics
///
/// Panics if there are fewer than two peers or the assignment does not
/// cover every peer.
pub fn run_with_scratch(
    protocols: &[RepProtocol],
    assignment: &[usize],
    config: &RepConfig,
    seed: u64,
    scratch: &mut RepScratch,
) -> Vec<f64> {
    let n = config.peers;
    assert!(n >= 2, "need at least two peers");
    assert_eq!(assignment.len(), n, "assignment must cover every peer");

    let _run_span = dsa_obs::span("rep.run");
    let setup_span = dsa_obs::span("rep.setup");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    scratch.capacity.clear();
    scratch
        .capacity
        .extend((0..n).map(|_| config.capacity.sample(&mut rng)));
    scratch.received.clear();
    scratch.received.resize(n, 0.0);

    // The ring matrix is the one large piece of state most runs never
    // read: only materialize it when some protocol windows its records.
    let needs_window = protocols
        .iter()
        .any(|p| p.maintenance == Maintenance::Window);
    let window = config.window.max(1);
    let led = &mut scratch.ledgers;
    led.n = n;
    led.window = window;
    led.opinion.clear();
    led.opinion.resize(n * n, 0.0);
    led.accum.clear();
    led.accum.resize(n * n, 0.0);
    led.ring.clear();
    if needs_window {
        led.ring.resize(n * window * n, 0.0);
    }
    led.ring_pos.clear();
    led.ring_pos.resize(n, 0);
    led.seen.clear();
    led.seen.resize(n * n, false);

    scratch.req_data.clear();
    scratch.req_data.resize(n * n, 0);
    scratch.req_len.clear();
    scratch.req_len.resize(n, 0);
    drop(setup_span);

    // Allocation count at the edge of the round loop: the loop is the
    // steady state, so its delta — fed to mem.run_allocs.rep under
    // --alloc — must be zero once this scratch is warm. Setup and
    // payoff assembly allocate outputs by design and stay outside
    // the window.
    let loop_allocs = dsa_obs::alloc::thread_count();
    let rounds_span = dsa_obs::span("rep.rounds");
    let RepScratch {
        req_data,
        req_len,
        req_out,
        marks,
        decision,
        ledgers,
        capacity,
        received,
    } = scratch;
    let mut picks = [0; SMALL_K];
    // A population that can never grant keeps its zeroed utilities: the
    // rounds would only draw and score.
    let rounds = if never_grants(protocols, assignment) {
        0
    } else {
        config.rounds
    };
    for round in 0..rounds {
        // 1. Every peer issues its requests to distinct random targets.
        // Request lists are rebuilt each round: `req_data` row `s` holds
        // the peers that asked `s` for service, in deterministic order.
        req_len.fill(0);
        for i in 0..n {
            let targets = draw(n - 1, config.requests, &mut rng, &mut picks, req_out);
            for &t in targets {
                // Slot `t` of the n − 1 peers other than `i`.
                let target = t + usize::from(t >= i);
                let len = &mut req_len[target];
                req_data[target * n + *len] = i;
                *len += 1;
            }
        }

        // 2. Every peer allocates its capacity among its requesters. A
        // grant adds to the requester's utility and to its opinion of the
        // server as it is made, in server-major, requester order: neither
        // is read by a decision. The `seen` marks wait in `marks`, so
        // every decision reads the same start-of-round ledgers whatever
        // the server order.
        marks.clear();
        let records = Records {
            n,
            opinion: &ledgers.opinion,
            seen: &ledgers.seen,
        };
        let mut grants = Grants {
            n,
            received,
            accum: &mut ledgers.accum,
            marks,
        };
        for s in 0..n {
            let proto = &protocols[assignment[s]];
            let requesters = &req_data[s * n..s * n + req_len[s]];
            if proto.response == Response::Freeride || requesters.is_empty() {
                continue;
            }
            let server = Server {
                s,
                capacity: capacity[s],
                requesters,
                proto,
            };
            let decide = match proto.source {
                Source::Private => decide::<PRIVATE>,
                Source::Gossiped => decide::<GOSSIPED>,
                Source::Transitive => decide::<TRANSITIVE>,
                Source::EigenTrust => decide::<EIGENTRUST>,
            };
            decide(&server, &records, config, &mut rng, decision, &mut grants);
        }

        // 3. Both sides of every grant are no longer strangers to each
        // other.
        for &(s, r) in marks.iter() {
            ledgers.seen[r * n + s] = true;
            ledgers.seen[s * n + r] = true;
        }

        // 4. Record maintenance.
        ledgers.end_round(protocols, assignment, config.decay);

        // 5. Whitewashing: the peer re-enters under a fresh pseudonym, so
        // everyone else's record of it vanishes; its own knowledge (and
        // accumulated utility) survives — that is the attack.
        if config.whitewash_period > 0 && (round + 1) % config.whitewash_period == 0 {
            for w in 0..n {
                if protocols[assignment[w]].identity == Identity::Whitewash {
                    for i in 0..n {
                        if i != w {
                            ledgers.forget(i, w);
                        }
                    }
                }
            }
        }

        // 6. Churn: a replaced slot hosts a brand-new peer — empty
        // records on both sides, fresh capacity. Utility keeps
        // accumulating per slot (it measures the protocol's service
        // stream, as in the swarm engine).
        if !config.churn.is_none() {
            for (p, cap) in capacity.iter_mut().enumerate() {
                if config.churn.departs(f64::INFINITY, &mut rng) {
                    *cap = config.capacity.sample(&mut rng);
                    ledgers.reset(p);
                    for i in 0..n {
                        if i != p {
                            ledgers.forget(i, p);
                        }
                    }
                }
            }
        }
    }

    drop(rounds_span);
    let loop_allocs = dsa_obs::alloc::thread_count().saturating_sub(loop_allocs);

    let _payoff_span = dsa_obs::span("rep.payoff");
    let out = received.clone();

    if dsa_obs::metrics_enabled() && dsa_obs::alloc::enabled() {
        dsa_obs::observe_thread_dependent("mem.run_allocs.rep", loop_allocs);
    }
    out
}

/// Whether no peer of the population can ever grant: every assigned
/// protocol denies strangers or free-rides.
///
/// A Freeride server never decides. A Deny server gives an unheard
/// requester weight 0 (threshold and proportional responses), and
/// RankBased leaves it out of the ranked set. Being heard, by the server
/// or by a witness, needs a `seen` record, and only a grant creates one,
/// so no grant is ever made and every utility stays +0.0. Whitewashing
/// and churn only erase records, and churn's new capacities are not an
/// output.
fn never_grants(protocols: &[RepProtocol], assignment: &[usize]) -> bool {
    assignment.iter().all(|&a| {
        let p = &protocols[a];
        p.stranger == Stranger::Deny || p.response == Response::Freeride
    })
}

/// The start-of-round ledgers every decision of a round reads.
struct Records<'a> {
    n: usize,
    opinion: &'a [f64],
    seen: &'a [bool],
}

/// Where a round's grants go as they are made.
struct Grants<'a> {
    n: usize,
    received: &'a mut [f64],
    accum: &'a mut [f64],
    marks: &'a mut Vec<(usize, usize)>,
}

impl Grants<'_> {
    /// Service flows from server `s` to requester `r`, whose opinion of
    /// `s` grows by the same amount.
    #[inline]
    fn grant(&mut self, s: usize, r: usize, amount: f64) {
        self.received[r] += amount;
        self.accum[r * self.n + s] += amount;
        self.marks.push((s, r));
    }
}

/// One server's side of a decision.
struct Server<'a> {
    s: usize,
    capacity: f64,
    requesters: &'a [usize],
    proto: &'a RepProtocol,
}

/// The [`Source`]s as `decide`'s and `score`'s const parameter.
const PRIVATE: u8 = 0;
const GOSSIPED: u8 = 1;
const TRANSITIVE: u8 = 2;
const EIGENTRUST: u8 = 3;

/// Divides server `s`'s capacity among its requesters, one kernel per
/// source. Unless the stranger policy draws admissions (Probabilistic) or
/// the response draws a tie-break (RankBased), the only draws are the
/// source's, and each requester is scored and weighed in one pass.
/// Otherwise every requester is scored first, which makes all the
/// source's draws in requester order; one walk over the scores then draws
/// each Probabilistic stranger's admission in requester order, and
/// RankBased's tie-break shuffle after that.
fn decide<const SRC: u8>(
    server: &Server,
    records: &Records,
    config: &RepConfig,
    rng: &mut Xoshiro256pp,
    ds: &mut DecisionScratch,
    grants: &mut Grants,
) {
    let Server {
        s,
        capacity,
        requesters,
        proto,
    } = *server;
    let threshold_ban = proto.response == Response::ThresholdBan;
    // A known requester's weight: it must beat the threshold, or it
    // weighs its (non-negative) score.
    let weigh = |v: f64| {
        let w = if threshold_ban {
            f64::from(u8::from(v > config.threshold))
        } else {
            v.max(0.0)
        };
        if w.is_finite() {
            w
        } else {
            0.0
        }
    };
    ds.weights.clear();
    if proto.stranger != Stranger::Probabilistic && proto.response != Response::RankBased {
        // An admitted stranger rides on the unit bootstrap weight.
        let stranger = f64::from(u8::from(proto.stranger == Stranger::Optimistic));
        for &r in requesters {
            let (heard, v) = ds.score::<SRC>(s, r, records, config, rng);
            ds.weights.push(if heard { weigh(v) } else { stranger });
        }
    } else {
        ds.scores.clear();
        for &r in requesters {
            let scored = ds.score::<SRC>(s, r, records, config, rng);
            ds.scores.push(scored);
        }
        // Stranger policy: an admitted stranger enters the response
        // function at the baseline score 0 with unit bootstrap weight.
        let mut admit = || match proto.stranger {
            Stranger::Deny => false,
            Stranger::Optimistic => true,
            Stranger::Probabilistic => rng.chance(config.optimism),
        };
        if proto.response == Response::RankBased {
            // Rank admitted requesters by score; the top half (rounded
            // up) shares capacity equally. Ties break randomly so no
            // index is systematically favoured (cf. gossip's
            // top_partners).
            ds.order.clear();
            for (k, &(heard, _)) in ds.scores.iter().enumerate() {
                if heard || admit() {
                    ds.order.push(k);
                }
            }
            if ds.order.is_empty() {
                return;
            }
            sampling::shuffle(&mut ds.order, rng);
            ds.values.clear();
            ds.values
                .extend(ds.order.iter().map(|&k| match ds.scores[k] {
                    (true, v) => v,
                    (false, _) => 0.0,
                }));
            sampling::rank_indices_into(&ds.values, false, &mut ds.ranks);
            // Each kept requester weighs 1, so the total is the kept
            // count and `capacity · 1 / total` is `capacity / total`.
            let keep = ds.order.len().div_ceil(2);
            let total = keep as f64;
            for &rank in &ds.ranks[..keep] {
                grants.grant(s, requesters[ds.order[rank]], capacity / total);
            }
            return;
        }
        for &(heard, v) in &ds.scores {
            ds.weights.push(if heard {
                weigh(v)
            } else {
                f64::from(u8::from(admit()))
            });
        }
    }
    let total: f64 = ds.weights.iter().sum();
    if total <= 0.0 {
        return;
    }
    for (&r, &w) in requesters.iter().zip(&ds.weights) {
        if w > 0.0 {
            grants.grant(s, r, capacity * w / total);
        }
    }
}

/// Scores requester `r` from server `s`'s point of view through the
/// source `SRC` and the sampled `witnesses` (unread by the private
/// source): whether any consulted channel has a record of `r`, and the
/// score, which only counts when it does.
///
/// The witness sums are branch-free: a witness that does not count adds
/// −0.0, which under round-to-nearest is the exact additive identity
/// (`x + −0.0 = x` for every `x`, +0.0 included), so every sum keeps the
/// bits of one that skips the witness.
#[inline(always)]
fn score<const SRC: u8>(
    s: usize,
    r: usize,
    records: &Records,
    witnesses: &[usize],
    pairs: &mut [(f64, f64)],
) -> (bool, f64) {
    let Records { n, opinion, seen } = *records;
    let s_seen = &seen[s * n..(s + 1) * n];
    let s_op = &opinion[s * n..(s + 1) * n];
    let mut heard = s_seen[r];
    let mut score = if heard { s_op[r] } else { 0.0 };
    match SRC {
        PRIVATE => {}
        // One-hop gossip: take the witness at face value.
        GOSSIPED => {
            for &g in witnesses {
                let counts = (g != s) & (g != r) & seen[g * n + r];
                score += if counts { opinion[g * n + r] } else { -0.0 };
                heard |= counts;
            }
        }
        // BarterCast-style: a witness counts only up to the trust the
        // server places in the witness itself.
        TRANSITIVE => {
            for &g in witnesses {
                let counts = (g != s) & (g != r) & seen[g * n + r] & s_seen[g];
                let capped = opinion[g * n + r].min(s_op[g].max(0.0));
                score += if counts { capped } else { -0.0 };
                heard |= counts;
            }
        }
        // EigenTrust-style: witnesses split one unit of influence in
        // proportion to the server's (non-negative) trust in them; an
        // untrusted witness carries no weight at all. Trusted witnesses
        // are buffered as (trust, opinion) and folded in after the scan,
        // because the weights normalize over the *total* trust in the
        // consulted witnesses. Every witness is written to the next free
        // slot, which only a trusted one keeps.
        _ => {
            let mut len = 0;
            for &g in witnesses {
                let trust = s_op[g].max(0.0);
                let counts = (g != s) & (g != r) & seen[g * n + r] & s_seen[g] & (trust > 0.0);
                pairs[len] = (trust, opinion[g * n + r]);
                len += usize::from(counts);
            }
            let pairs = &pairs[..len];
            if !pairs.is_empty() {
                let total: f64 = pairs.iter().map(|(t, _)| t).sum();
                score += pairs.iter().map(|(t, o)| (t / total) * o).sum::<f64>();
                heard = true;
            }
        }
    }
    (heard, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RepProtocol;

    fn homog(p: RepProtocol, seed: u64) -> f64 {
        let cfg = RepConfig::default();
        let u = run(&[p], &vec![0; cfg.peers], &cfg, seed);
        u.iter().sum::<f64>() / u.len() as f64
    }

    #[test]
    fn baseline_community_shares() {
        // A cooperative population distributes most of its capacity:
        // mean utility per peer approaches mean capacity × rounds.
        let u = homog(RepProtocol::baseline(), 1);
        let cfg = RepConfig::default();
        assert!(u > 0.3 * 10.0 * cfg.rounds as f64, "utility {u}");
    }

    #[test]
    fn freerider_population_starves() {
        let mut p = RepProtocol::baseline();
        p.response = Response::Freeride;
        assert_eq!(homog(p, 2), 0.0);
    }

    #[test]
    fn deny_strangers_never_bootstraps() {
        // Everyone starts a stranger to everyone; universal Deny means
        // no first service ever flows, so reputation can never form.
        let mut p = RepProtocol::baseline();
        p.stranger = Stranger::Deny;
        assert_eq!(homog(p, 3), 0.0);
    }

    #[test]
    fn whitewashing_hurts_a_threshold_community() {
        // In a ThresholdBan community, shedding one's record resets the
        // earned score that service depends on.
        let mut stable = RepProtocol::baseline();
        stable.response = Response::ThresholdBan;
        let mut washer = stable;
        washer.identity = Identity::Whitewash;
        let cfg = RepConfig::default();
        let protos = [stable, washer];
        // Half the population whitewashes.
        let assignment: Vec<usize> = (0..cfg.peers)
            .map(|i| usize::from(i >= cfg.peers / 2))
            .collect();
        let u = run(&protos, &assignment, &cfg, 4);
        let mean = |g: usize| {
            let xs: Vec<f64> = u
                .iter()
                .zip(&assignment)
                .filter(|(_, a)| **a == g)
                .map(|(x, _)| *x)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(
            mean(0) > mean(1),
            "stable {} vs whitewash {}",
            mean(0),
            mean(1)
        );
    }

    #[test]
    fn reputation_starves_freeriders_relative_to_servers() {
        let cfg = RepConfig::default();
        let server = RepProtocol::baseline();
        let mut freerider = server;
        freerider.response = Response::Freeride;
        let protos = [server, freerider];
        let split = (3 * cfg.peers) / 4;
        let assignment: Vec<usize> = (0..cfg.peers).map(|i| usize::from(i >= split)).collect();
        let u = run(&protos, &assignment, &cfg, 5);
        let servers = u[..split].iter().sum::<f64>() / split as f64;
        let riders = u[split..].iter().sum::<f64>() / (cfg.peers - split) as f64;
        assert!(servers > 2.0 * riders, "servers {servers} riders {riders}");
    }

    #[test]
    fn eigentrust_community_sustains_service() {
        // Normalized transitive trust still bootstraps and sustains a
        // cooperative community.
        let mut p = RepProtocol::baseline();
        p.source = Source::EigenTrust;
        let u = homog(p, 21);
        let cfg = RepConfig::default();
        assert!(u > 0.3 * 10.0 * cfg.rounds as f64, "utility {u}");
    }

    #[test]
    fn eigentrust_normalization_changes_the_inference() {
        // The normalized and the capped (BarterCast) transitive sources
        // must actually produce different communities — the new level is
        // a distinct actualization, not an alias.
        let mut et = RepProtocol::baseline();
        et.source = Source::EigenTrust;
        let mut tr = RepProtocol::baseline();
        tr.source = Source::Transitive;
        assert_ne!(homog(et, 22), homog(tr, 22));
        // And it stays deterministic in the seed.
        assert_eq!(homog(et, 23), homog(et, 23));
    }

    #[test]
    fn churn_is_deterministic_and_non_destructive() {
        let cfg = RepConfig {
            churn: ChurnModel::PerRound { rate: 0.05 },
            ..RepConfig::default()
        };
        let p = RepProtocol::baseline();
        let a = run(&[p], &vec![0; cfg.peers], &cfg, 6);
        let b = run(&[p], &vec![0; cfg.peers], &cfg, 6);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x.is_finite() && x >= 0.0));
    }

    #[test]
    fn deterministic_in_seed_and_varies_across_seeds() {
        let p = RepProtocol::baseline();
        assert_eq!(homog(p, 9), homog(p, 9));
        assert_ne!(homog(p, 9), homog(p, 10));
    }

    #[test]
    fn conservation_total_received_bounded_by_capacity() {
        // No service from nowhere: total received ≤ total capacity
        // offered over the run (capacity ≤ 15 per peer per round).
        let cfg = RepConfig::default();
        let u = run(&[RepProtocol::baseline()], &vec![0; cfg.peers], &cfg, 11);
        let total: f64 = u.iter().sum();
        let ceiling = 15.0 * (cfg.peers * cfg.rounds) as f64;
        assert!(total <= ceiling + 1e-9, "total {total} ceiling {ceiling}");
    }
}
