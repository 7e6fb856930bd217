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
use dsa_workloads::sampling;

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
    fn footprint(&self) -> usize {
        use dsa_obs::mem::vec_bytes;
        vec_bytes(&self.opinion)
            + vec_bytes(&self.accum)
            + vec_bytes(&self.ring)
            + vec_bytes(&self.ring_pos)
            + vec_bytes(&self.seen)
    }

    /// Folds owner `i`'s round contributions into its opinion row.
    fn end_round(&mut self, i: usize, maintenance: Maintenance, decay: f64) {
        let row = i * self.n..(i + 1) * self.n;
        let opinion = &mut self.opinion[row.clone()];
        let accum = &mut self.accum[row];
        match maintenance {
            Maintenance::Keep => {
                for (o, a) in opinion.iter_mut().zip(accum.iter()) {
                    *o += a;
                }
            }
            Maintenance::Decay => {
                for (o, a) in opinion.iter_mut().zip(accum.iter()) {
                    *o = *o * decay + a;
                }
            }
            Maintenance::Window => {
                let base = i * self.window * self.n + self.ring_pos[i] * self.n;
                let oldest = &mut self.ring[base..base + self.n];
                for ((o, a), old) in opinion.iter_mut().zip(accum.iter()).zip(oldest) {
                    *o += a - *old;
                    *old = *a;
                }
                self.ring_pos[i] = (self.ring_pos[i] + 1) % self.window;
            }
        }
        accum.fill(0.0);
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
/// (flattened), the grant buffer, the per-decision scoring buffers and
/// the two index samplers, allocated once and recycled across runs.
/// After one warm run at a given population size, subsequent runs
/// through the same scratch perform zero steady-state heap allocations
/// per round (enforced by the `alloc_count` tests in `dsa-bench`).
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
    /// One peer's outgoing request targets (per-peer transient).
    req_out: Vec<usize>,
    /// Sampler for the request phase (draws from `0..n-1`).
    req_sampler: sampling::IndexSampler,
    /// Round's buffered grants `(server, requester, amount)`.
    grants: Vec<(usize, usize, f64)>,
    decision: DecisionScratch,
    /// Run state, reused across runs: the flat ledger matrices and the
    /// per-peer capacity / accumulated-utility vectors. Fully
    /// re-initialized during setup, so nothing carries over between runs.
    ledgers: LedgerMat,
    capacity: Vec<f64>,
    received: Vec<f64>,
}

impl RepScratch {
    /// Heap bytes held by the arena — every buffer's capacity times its
    /// element size, including the nested decision scratch, ledger
    /// matrices and index samplers. Monotone across runs through one
    /// scratch; published as the `mem.arena.rep_bytes` high-water gauge.
    #[must_use]
    pub fn footprint(&self) -> usize {
        use dsa_obs::mem::vec_bytes;
        vec_bytes(&self.req_data)
            + vec_bytes(&self.req_len)
            + vec_bytes(&self.req_out)
            + self.req_sampler.footprint()
            + vec_bytes(&self.grants)
            + self.decision.footprint()
            + self.ledgers.footprint()
            + vec_bytes(&self.capacity)
            + vec_bytes(&self.received)
    }
}

/// Buffers for one server's allocation decision.
#[derive(Debug, Default)]
struct DecisionScratch {
    scores: Vec<Option<f64>>,
    admitted: Vec<Option<f64>>,
    weights: Vec<f64>,
    /// RankBased: admitted requester positions, their shuffled order,
    /// the shuffled score values, and the ranking over those values.
    eligible: Vec<usize>,
    order: Vec<usize>,
    values: Vec<f64>,
    ranks: Vec<usize>,
    /// Sampler + buffer for the gossip-witness draws (from `0..n`).
    gossip_sampler: sampling::IndexSampler,
    gossip_out: Vec<usize>,
    /// EigenTrust witness buffer: (trust in witness, witness's opinion).
    witnesses: Vec<(f64, f64)>,
}

impl DecisionScratch {
    fn footprint(&self) -> usize {
        use dsa_obs::mem::vec_bytes;
        vec_bytes(&self.scores)
            + vec_bytes(&self.admitted)
            + vec_bytes(&self.weights)
            + vec_bytes(&self.eligible)
            + vec_bytes(&self.order)
            + vec_bytes(&self.values)
            + vec_bytes(&self.ranks)
            + self.gossip_sampler.footprint()
            + vec_bytes(&self.gossip_out)
            + vec_bytes(&self.witnesses)
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
        req_sampler,
        grants,
        decision,
        ledgers,
        capacity,
        received,
    } = scratch;
    // Maintenance is fusable across owners when every assigned protocol
    // ages records the same non-windowed way.
    let uniform_maintenance = {
        let first = protocols[assignment[0]].maintenance;
        (first != Maintenance::Window
            && assignment
                .iter()
                .all(|&a| protocols[a].maintenance == first))
        .then_some(first)
    };
    for round in 0..config.rounds {
        // 1. Every peer issues its requests to distinct random targets.
        // Request lists are rebuilt each round: `req_data` row `s` holds
        // the peers that asked `s` for service, in deterministic order.
        {
            req_len.fill(0);
            for i in 0..n {
                req_sampler.sample_into(n - 1, config.requests, &mut rng, req_out);
                for &t in req_out.iter() {
                    let target = if t >= i { t + 1 } else { t };
                    req_data[target * n + req_len[target]] = i;
                    req_len[target] += 1;
                }
            }
        }

        // 2. Every peer allocates its capacity among its requesters.
        // Grants are buffered and applied after all decisions, so every
        // decision sees the same start-of-round ledgers regardless of
        // peer iteration order.
        {
            grants.clear();
            for s in 0..n {
                let proto = &protocols[assignment[s]];
                let requesters = &req_data[s * n..s * n + req_len[s]];
                if proto.response == Response::Freeride || requesters.is_empty() {
                    continue;
                }
                decision_weights(s, requesters, proto, ledgers, config, &mut rng, decision);
                let weights = &decision.weights;
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    continue;
                }
                for (&r, &w) in requesters.iter().zip(weights) {
                    if w > 0.0 {
                        grants.push((s, r, capacity[s] * w / total));
                    }
                }
            }
        }

        // 3. Apply grants: service flows server → requester; the
        // requester's opinion of the server grows; both sides are no
        // longer strangers to each other.
        for &(s, r, amount) in grants.iter() {
            received[r] += amount;
            ledgers.accum[r * n + s] += amount;
            ledgers.seen[r * n + s] = true;
            ledgers.seen[s * n + r] = true;
        }

        // 4. Record maintenance. Homogeneous Keep/Decay populations (the
        // common case) fold the whole matrix in one fused pass — row
        // order is preserved, so the arithmetic is per-cell identical to
        // the per-owner loop it shortcuts.
        match uniform_maintenance {
            Some(Maintenance::Keep) => {
                for (o, a) in ledgers.opinion.iter_mut().zip(ledgers.accum.iter()) {
                    *o += a;
                }
                ledgers.accum.fill(0.0);
            }
            Some(Maintenance::Decay) => {
                let decay = config.decay;
                for (o, a) in ledgers.opinion.iter_mut().zip(ledgers.accum.iter()) {
                    *o = *o * decay + a;
                }
                ledgers.accum.fill(0.0);
            }
            _ => {
                for i in 0..n {
                    let m = protocols[assignment[i]].maintenance;
                    ledgers.end_round(i, m, config.decay);
                }
            }
        }

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

    // Arena accounting (see the swarm engine for the pattern).
    if dsa_obs::metrics_enabled() {
        let bytes = scratch.footprint() as f64;
        dsa_obs::gauge_max("mem.arena.rep_bytes", bytes);
        dsa_obs::gauge_max("mem.arena_peak_bytes", bytes);
        if dsa_obs::alloc::enabled() {
            dsa_obs::observe_thread_dependent("mem.run_allocs.rep", loop_allocs);
        }
    }
    out
}

/// Computes the allocation weight of every requester of server `s` into
/// `ds.weights` (same length and values as the old allocating version).
fn decision_weights(
    s: usize,
    requesters: &[usize],
    proto: &RepProtocol,
    led: &LedgerMat,
    config: &RepConfig,
    rng: &mut Xoshiro256pp,
    ds: &mut DecisionScratch,
) {
    // Fast path: unless the stranger policy draws admission randomness
    // (Probabilistic) or the response draws tie-break randomness
    // (RankBased), the score → admission → weight chain is pointwise, so
    // the three passes fuse into one loop whose only RNG consumption is
    // the source lookups — the same stream the staged path consumes.
    if proto.stranger != Stranger::Probabilistic && proto.response != Response::RankBased {
        ds.weights.clear();
        for &r in requesters {
            let score = source_score(
                s,
                r,
                proto.source,
                led,
                config,
                rng,
                &mut ds.gossip_sampler,
                &mut ds.gossip_out,
                &mut ds.witnesses,
            );
            let w = match score {
                Some(v) => match proto.response {
                    Response::Freeride => 0.0,
                    Response::ThresholdBan => f64::from(u8::from(v > config.threshold)),
                    Response::Proportional => v.max(0.0),
                    Response::RankBased => unreachable!(),
                },
                None => match proto.stranger {
                    Stranger::Deny => 0.0,
                    // Admitted strangers ride on the unit bootstrap
                    // under both remaining response functions.
                    Stranger::Optimistic => {
                        f64::from(u8::from(proto.response != Response::Freeride))
                    }
                    Stranger::Probabilistic => unreachable!(),
                },
            };
            ds.weights.push(if w.is_finite() { w } else { 0.0 });
        }
        return;
    }

    // Score every requester through the protocol's reputation source;
    // None marks strangers (no record through any channel).
    ds.scores.clear();
    for &r in requesters {
        let score = source_score(
            s,
            r,
            proto.source,
            led,
            config,
            rng,
            &mut ds.gossip_sampler,
            &mut ds.gossip_out,
            &mut ds.witnesses,
        );
        ds.scores.push(score);
    }

    // Stranger policy: admitted strangers enter the response function at
    // the baseline score 0 with unit bootstrap weight.
    ds.admitted.clear();
    for score in &ds.scores {
        ds.admitted.push(match score {
            Some(v) => Some(*v),
            None => match proto.stranger {
                Stranger::Deny => None,
                Stranger::Optimistic => Some(0.0),
                Stranger::Probabilistic => rng.chance(config.optimism).then_some(0.0),
            },
        });
    }

    ds.weights.clear();
    match proto.response {
        Response::Freeride => ds.weights.resize(requesters.len(), 0.0),
        Response::ThresholdBan => {
            ds.weights
                .extend(ds.admitted.iter().zip(&ds.scores).map(|(adm, known)| {
                    match (adm, known) {
                        // Known requesters must beat the threshold;
                        // admitted strangers ride on the bootstrap.
                        (Some(v), Some(_)) => f64::from(u8::from(*v > config.threshold)),
                        (Some(_), None) => 1.0,
                        (None, _) => 0.0,
                    }
                }));
        }
        Response::Proportional => {
            ds.weights
                .extend(ds.admitted.iter().zip(&ds.scores).map(|(adm, known)| {
                    match (adm, known) {
                        (Some(v), Some(_)) => v.max(0.0),
                        // Bootstrap trickle: strangers weigh one unit.
                        (Some(_), None) => 1.0,
                        (None, _) => 0.0,
                    }
                }));
        }
        Response::RankBased => {
            // Rank admitted requesters by score; the top half (rounded
            // up) shares capacity equally. Ties break randomly so no
            // index is systematically favoured (cf. gossip's
            // top_partners).
            ds.eligible.clear();
            ds.eligible
                .extend((0..requesters.len()).filter(|&k| ds.admitted[k].is_some()));
            ds.weights.resize(requesters.len(), 0.0);
            if ds.eligible.is_empty() {
                return;
            }
            ds.order.clear();
            ds.order.extend_from_slice(&ds.eligible);
            sampling::shuffle(&mut ds.order, rng);
            ds.values.clear();
            ds.values
                .extend(ds.order.iter().map(|&k| ds.admitted[k].unwrap_or(0.0)));
            let keep = ds.eligible.len().div_ceil(2);
            sampling::rank_indices_into(&ds.values, false, &mut ds.ranks);
            for &rank in ds.ranks.iter().take(keep) {
                ds.weights[ds.order[rank]] = 1.0;
            }
        }
    }
    for w in &mut ds.weights {
        if !w.is_finite() {
            *w = 0.0;
        }
    }
}

/// Scores requester `r` from server `s`'s point of view, or `None` if
/// every consulted channel is silent (a stranger). `sampler`/`gossip_out`
/// /`witnesses` are caller-owned scratch (contents ignored, clobbered).
#[allow(clippy::too_many_arguments)]
fn source_score(
    s: usize,
    r: usize,
    source: Source,
    led: &LedgerMat,
    config: &RepConfig,
    rng: &mut Xoshiro256pp,
    sampler: &mut sampling::IndexSampler,
    gossip_out: &mut Vec<usize>,
    witnesses: &mut Vec<(f64, f64)>,
) -> Option<f64> {
    let n = led.n;
    let s_seen = &led.seen[s * n..(s + 1) * n];
    let s_op = &led.opinion[s * n..(s + 1) * n];
    let own_seen = s_seen[r];
    let own = s_op[r];
    if source == Source::Private {
        return own_seen.then_some(own);
    }
    let mut score = if own_seen { own } else { 0.0 };
    let mut heard = own_seen;
    sampler.sample_into(n, config.gossip_sources, rng, gossip_out);
    // The source match sits outside the witness loop so each variant
    // compiles to its own tight scan over the sampled witnesses.
    match source {
        // One-hop gossip: take the witness at face value.
        Source::Gossiped => {
            for &g in gossip_out.iter() {
                if g != s && g != r && led.seen[g * n + r] {
                    score += led.opinion[g * n + r];
                    heard = true;
                }
            }
        }
        // BarterCast-style: a witness counts only up to the trust the
        // server places in the witness itself.
        Source::Transitive => {
            for &g in gossip_out.iter() {
                if g != s && g != r && led.seen[g * n + r] && s_seen[g] {
                    score += led.opinion[g * n + r].min(s_op[g].max(0.0));
                    heard = true;
                }
            }
        }
        // EigenTrust-style: witnesses split one unit of influence in
        // proportion to the server's (non-negative) trust in them; an
        // untrusted witness carries no weight at all. Witnesses are
        // buffered as (trust, opinion) and folded in after the scan,
        // because the weights normalize over the *total* trust in the
        // consulted witnesses.
        Source::EigenTrust => {
            witnesses.clear();
            for &g in gossip_out.iter() {
                if g != s && g != r && led.seen[g * n + r] && s_seen[g] {
                    let trust = s_op[g].max(0.0);
                    if trust > 0.0 {
                        witnesses.push((trust, led.opinion[g * n + r]));
                    }
                }
            }
            if !witnesses.is_empty() {
                let total: f64 = witnesses.iter().map(|(t, _)| t).sum();
                score += witnesses.iter().map(|(t, o)| (t / total) * o).sum::<f64>();
                heard = true;
            }
        }
        Source::Private => unreachable!(),
    }
    heard.then_some(score)
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
