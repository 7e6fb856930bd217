//! The round loop that the one in [`crate::engine`] replaced, kept as a
//! test reference: the production loop must reproduce every one of its
//! output bits, and with them the engine's RNG stream.
//!
//! Here every decision goes through one scorer that matches on the
//! source per requester and returns `Option<f64>`; the staged path builds
//! an `admitted` list in its own pass; every draw goes through
//! [`sampling::sample_indices_into`]; grants are buffered and applied
//! after every decision; and mixed maintenance folds owner by owner.

use crate::engine::RepConfig;
use crate::protocol::{Identity, Maintenance, RepProtocol, Response, Source, Stranger};
use dsa_workloads::rng::Xoshiro256pp;
use dsa_workloads::sampling;

/// The flat ledger matrices (row = owner, column = subject).
struct LedgerMat {
    n: usize,
    window: usize,
    opinion: Vec<f64>,
    accum: Vec<f64>,
    ring: Vec<f64>,
    ring_pos: Vec<usize>,
    seen: Vec<bool>,
}

impl LedgerMat {
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

/// Buffers for one server's allocation decision.
#[derive(Default)]
struct DecisionScratch {
    scores: Vec<Option<f64>>,
    admitted: Vec<Option<f64>>,
    weights: Vec<f64>,
    eligible: Vec<usize>,
    order: Vec<usize>,
    values: Vec<f64>,
    ranks: Vec<usize>,
    gossip_out: Vec<usize>,
    witnesses: Vec<(f64, f64)>,
}

/// One reputation simulation through the replaced round loop.
pub(crate) fn run(
    protocols: &[RepProtocol],
    assignment: &[usize],
    config: &RepConfig,
    seed: u64,
) -> Vec<f64> {
    let n = config.peers;
    assert!(n >= 2, "need at least two peers");
    assert_eq!(assignment.len(), n, "assignment must cover every peer");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut capacity: Vec<f64> = (0..n).map(|_| config.capacity.sample(&mut rng)).collect();
    let mut received = vec![0.0; n];
    let needs_window = protocols
        .iter()
        .any(|p| p.maintenance == Maintenance::Window);
    let window = config.window.max(1);
    let mut ledgers = LedgerMat {
        n,
        window,
        opinion: vec![0.0; n * n],
        accum: vec![0.0; n * n],
        ring: if needs_window {
            vec![0.0; n * window * n]
        } else {
            Vec::new()
        },
        ring_pos: vec![0; n],
        seen: vec![false; n * n],
    };
    let mut req_data = vec![0usize; n * n];
    let mut req_len = vec![0usize; n];
    let mut req_out = Vec::new();
    let mut grants: Vec<(usize, usize, f64)> = Vec::new();
    let mut decision = DecisionScratch::default();

    let uniform_maintenance = {
        let first = protocols[assignment[0]].maintenance;
        (first != Maintenance::Window
            && assignment
                .iter()
                .all(|&a| protocols[a].maintenance == first))
        .then_some(first)
    };
    for round in 0..config.rounds {
        req_len.fill(0);
        for i in 0..n {
            sampling::sample_indices_into(n - 1, config.requests, &mut rng, &mut req_out);
            for &t in &req_out {
                let target = if t >= i { t + 1 } else { t };
                req_data[target * n + req_len[target]] = i;
                req_len[target] += 1;
            }
        }

        grants.clear();
        for s in 0..n {
            let proto = &protocols[assignment[s]];
            let requesters = &req_data[s * n..s * n + req_len[s]];
            if proto.response == Response::Freeride || requesters.is_empty() {
                continue;
            }
            decision_weights(
                s,
                requesters,
                proto,
                &ledgers,
                config,
                &mut rng,
                &mut decision,
            );
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

        for &(s, r, amount) in &grants {
            received[r] += amount;
            ledgers.accum[r * n + s] += amount;
            ledgers.seen[r * n + s] = true;
            ledgers.seen[s * n + r] = true;
        }

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
    received
}

fn decision_weights(
    s: usize,
    requesters: &[usize],
    proto: &RepProtocol,
    led: &LedgerMat,
    config: &RepConfig,
    rng: &mut Xoshiro256pp,
    ds: &mut DecisionScratch,
) {
    if proto.stranger != Stranger::Probabilistic && proto.response != Response::RankBased {
        ds.weights.clear();
        for &r in requesters {
            let score = source_score(s, r, proto.source, led, config, rng, ds);
            let w = match score {
                Some(v) => match proto.response {
                    Response::Freeride => 0.0,
                    Response::ThresholdBan => f64::from(u8::from(v > config.threshold)),
                    Response::Proportional => v.max(0.0),
                    Response::RankBased => unreachable!(),
                },
                None => match proto.stranger {
                    Stranger::Deny => 0.0,
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

    ds.scores.clear();
    for &r in requesters {
        let score = source_score(s, r, proto.source, led, config, rng, ds);
        ds.scores.push(score);
    }

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
                        (Some(_), None) => 1.0,
                        (None, _) => 0.0,
                    }
                }));
        }
        Response::RankBased => {
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

fn source_score(
    s: usize,
    r: usize,
    source: Source,
    led: &LedgerMat,
    config: &RepConfig,
    rng: &mut Xoshiro256pp,
    ds: &mut DecisionScratch,
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
    sampling::sample_indices_into(n, config.gossip_sources, rng, &mut ds.gossip_out);
    match source {
        Source::Gossiped => {
            for &g in &ds.gossip_out {
                if g != s && g != r && led.seen[g * n + r] {
                    score += led.opinion[g * n + r];
                    heard = true;
                }
            }
        }
        Source::Transitive => {
            for &g in &ds.gossip_out {
                if g != s && g != r && led.seen[g * n + r] && s_seen[g] {
                    score += led.opinion[g * n + r].min(s_op[g].max(0.0));
                    heard = true;
                }
            }
        }
        Source::EigenTrust => {
            ds.witnesses.clear();
            for &g in &ds.gossip_out {
                if g != s && g != r && led.seen[g * n + r] && s_seen[g] {
                    let trust = s_op[g].max(0.0);
                    if trust > 0.0 {
                        ds.witnesses.push((trust, led.opinion[g * n + r]));
                    }
                }
            }
            if !ds.witnesses.is_empty() {
                let total: f64 = ds.witnesses.iter().map(|(t, _)| t).sum();
                score += ds
                    .witnesses
                    .iter()
                    .map(|(t, o)| (t / total) * o)
                    .sum::<f64>();
                heard = true;
            }
        }
        Source::Private => unreachable!(),
    }
    heard.then_some(score)
}

#[cfg(test)]
mod tests {
    use super::run as reference_run;
    use crate::engine::{run_with_scratch, RepConfig, RepScratch};
    use crate::protocol::{RepProtocol, REP_SPACE_SIZE};
    use dsa_workloads::churn::ChurnModel;
    use dsa_workloads::rng::Xoshiro256pp;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The round loop reproduces the replaced one bit for bit over
        /// populations of 2 to 40 peers (both sampler branches), request
        /// and witness fan-outs of 0 to 6 (`k = 0`, `k = 1` and the
        /// `k > SMALL_K` fallback), windows, whitewashing, churn and one
        /// to three protocol groups, through one scratch reused dirty
        /// across cases.
        #[test]
        fn run_matches_reference(
            seed in any::<u64>(),
            peers in 2usize..41,
            rounds in 1usize..61,
            requests in 0usize..7,
            gossip_sources in 0usize..7,
            window in 1usize..11,
            whitewash_period in 0usize..21,
            churned in any::<bool>(),
            groups in 1usize..4,
        ) {
            thread_local! {
                static SCRATCH: std::cell::RefCell<RepScratch> =
                    std::cell::RefCell::new(RepScratch::default());
            }
            let mut pick = Xoshiro256pp::seed_from_u64(seed ^ 0x9e37_79b9);
            let protocols: Vec<RepProtocol> = (0..groups)
                .map(|_| RepProtocol::from_index(pick.index(REP_SPACE_SIZE)))
                .collect();
            let assignment: Vec<usize> = (0..peers).map(|_| pick.index(groups)).collect();
            let config = RepConfig {
                peers,
                rounds,
                requests,
                gossip_sources,
                window,
                whitewash_period,
                churn: if churned {
                    ChurnModel::PerRound { rate: 0.05 }
                } else {
                    ChurnModel::None
                },
                ..RepConfig::default()
            };
            let want = reference_run(&protocols, &assignment, &config, seed);
            let got = SCRATCH.with(|cell| {
                run_with_scratch(&protocols, &assignment, &config, seed, &mut cell.borrow_mut())
            });
            prop_assert_eq!(
                bits(&got),
                bits(&want),
                "protocols = {:?}, assignment = {:?}, config = {:?}",
                protocols, assignment, config
            );
        }
    }

    /// Every population that can never grant — each assigned protocol
    /// denies strangers or free-rides, 144 of the 288 — gives what the
    /// full round loop gives, bit for bit, and that is all zeros: run
    /// homogeneously (plain, and with churn and frequent whitewashing) and
    /// as 50/50 pairs over a stride sample of the dead protocols.
    #[test]
    fn dead_populations_match_reference() {
        use crate::protocol::{Response, Stranger};
        let dead: Vec<RepProtocol> = RepProtocol::all()
            .filter(|p| p.stranger == Stranger::Deny || p.response == Response::Freeride)
            .collect();
        assert_eq!(dead.len(), 144);
        let churned = RepConfig {
            churn: ChurnModel::PerRound { rate: 0.05 },
            whitewash_period: 3,
            ..RepConfig::fast()
        };
        let mut scratch = RepScratch::default();
        let mut check = |protocols: &[RepProtocol], assignment: &[usize], config: &RepConfig| {
            let seed = 0x5eed ^ (protocols[0].index() * 997 + protocols.len()) as u64;
            let want = reference_run(protocols, assignment, config, seed);
            let got = run_with_scratch(protocols, assignment, config, seed, &mut scratch);
            assert_eq!(bits(&got), bits(&want), "{protocols:?} under {config:?}");
            assert!(got.iter().all(|u| u.to_bits() == 0), "{protocols:?}");
        };
        for config in [RepConfig::default(), churned] {
            for p in &dead {
                check(&[*p], &vec![0; config.peers], &config);
            }
        }
        let config = RepConfig::default();
        let half: Vec<usize> = (0..config.peers)
            .map(|i| usize::from(2 * i >= config.peers))
            .collect();
        for (i, a) in dead.iter().enumerate() {
            for b in dead[i + 1..].iter().step_by(5) {
                check(&[*a, *b], &half, &config);
            }
        }
    }
}
