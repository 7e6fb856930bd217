//! Sampling primitives shared by the simulators and the tournament driver.
//!
//! These are the operations that appear in protocol inner loops — picking
//! random strangers to optimistically unchoke, shuffling candidate lists for
//! the Random ranking function, subsampling tournament opponents — so they
//! are implemented directly on [`Xoshiro256pp`] streams to keep the hot path
//! allocation-light and deterministic.

use crate::rng::Xoshiro256pp;
use std::cmp::Ordering;

/// Fisher–Yates shuffle in place.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

/// Draws `k` distinct indices uniformly from `0..n` (partial Fisher–Yates).
///
/// Returns fewer than `k` indices if `k > n`. The result order is random.
/// Allocating convenience wrapper around [`sample_indices_into`].
pub fn sample_indices(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    // Capacity matches what `sample_indices_into` needs on each branch,
    // so the wrapper costs exactly one allocation (as the original did).
    let mut out = Vec::with_capacity(if k.min(n) * 8 < n { k.min(n) } else { n });
    sample_indices_into(n, k, rng, &mut out);
    out
}

/// [`sample_indices`] writing into a caller-owned buffer (`out` is cleared
/// first), so engine round loops can reuse one buffer across calls.
///
/// Consumes the RNG stream identically to [`sample_indices`] — same branch
/// selection, same draw order — so the two are bit-interchangeable.
pub fn sample_indices_into(n: usize, k: usize, rng: &mut Xoshiro256pp, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(n);
    if k == 0 {
        return;
    }
    // k = 1 degenerates to a single draw on *both* branches below: Floyd's
    // sole iteration is `rng.index(n)` into an empty buffer (the shuffle of
    // one element draws nothing), and the materialize branch's sole swap
    // puts `rng.index(n)` at the front. Same draw, same result.
    if k == 1 {
        out.push(rng.index(n));
        return;
    }
    // For small k relative to n, Floyd's algorithm avoids materializing 0..n.
    if k * 8 < n {
        for j in (n - k)..n {
            let t = rng.index(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        shuffle(out, rng);
    } else if k <= SMALL_K {
        small_materialize_into(n, k, rng, out);
    } else {
        out.reserve(n);
        out.extend(0..n);
        for i in 0..k {
            let j = i + rng.index(n - i);
            out.swap(i, j);
        }
        out.truncate(k);
    }
}

/// Largest `k` the register-resident paths handle: the materialize branch
/// of [`sample_indices_into`] and the whole of [`sample_small`].
pub const SMALL_K: usize = 4;

/// [`sample_indices_into`] for `k ≤ SMALL_K`, into a stack array: returns
/// the sample's length, `min(k, n)`, and leaves the sample in
/// `out[..len]`.
///
/// The contract is bit-interchangeability: for every `n` and `k`, the
/// values, their order and the generator's position afterwards equal
/// those of [`sample_indices_into`]. It takes that function's branches in
/// the same order — nothing for `k = 0`, one draw for `k = 1`, Floyd's
/// algorithm and its shuffle when `8k < n`, the register-resident
/// materialize otherwise — and makes the same draws. An engine that
/// samples a few indices per decision calls this rather than
/// [`sample_indices_into`]: there is no `Vec` to write through and no
/// large-`k` branch to carry.
///
/// # Panics
///
/// Panics if `min(k, n) > SMALL_K`.
#[inline]
pub fn sample_small(
    n: usize,
    k: usize,
    rng: &mut Xoshiro256pp,
    out: &mut [usize; SMALL_K],
) -> usize {
    let k = k.min(n);
    assert!(k <= SMALL_K, "sample_small draws at most {SMALL_K} indices");
    if k == 0 {
        return 0;
    }
    if k == 1 {
        out[0] = rng.index(n);
        return 1;
    }
    if k * 8 < n {
        for (len, j) in ((n - k)..n).enumerate() {
            let t = rng.index(j + 1);
            out[len] = if out[..len].contains(&t) { j } else { t };
        }
        shuffle(&mut out[..k], rng);
    } else {
        small_materialize(n, k, rng, out);
    }
    k
}

/// [`small_materialize`] appended to a `Vec`. Kept out of line, so that
/// [`sample_indices_into`] carries only the call on its rarely taken
/// branch.
#[inline(never)]
fn small_materialize_into(n: usize, k: usize, rng: &mut Xoshiro256pp, out: &mut Vec<usize>) {
    let mut picks = [0; SMALL_K];
    small_materialize(n, k, rng, &mut picks);
    out.extend_from_slice(&picks[..k]);
}

/// The materialize branch of [`sample_indices_into`] for `k ≤ SMALL_K`,
/// simulating the partial Fisher–Yates over the identity permutation in
/// a stack-resident displacement map instead of a heap array. Each swap
/// touches at most two positions, so at most `2k` entries ever deviate
/// from identity — and position `i` is final right after swap `i` (later
/// swaps only touch positions `> i`). Same draws, same output bits, in
/// `out[..k]`.
#[inline]
fn small_materialize(n: usize, k: usize, rng: &mut Xoshiro256pp, out: &mut [usize; SMALL_K]) {
    debug_assert!((2..=SMALL_K).contains(&k) && k <= n);
    // k = 2 and k = 3 (the engines' request/gossip fan-outs) unroll to
    // closed-form collision checks — entirely register-resident, and the
    // collision branches are almost-always-false for n ≫ k.
    if k == 2 {
        let j0 = rng.index(n);
        let j1 = 1 + rng.index(n - 1);
        out[0] = j0;
        out[1] = if j1 == j0 { 0 } else { j1 };
        return;
    }
    if k == 3 {
        let j0 = rng.index(n);
        let j1 = 1 + rng.index(n - 1);
        let j2 = 2 + rng.index(n - 2);
        // perm[1] before the second swap: displaced iff the first swap
        // hit position 1.
        let v1 = if j0 == 1 { 0 } else { 1 };
        out[0] = j0;
        out[1] = if j1 == j0 { 0 } else { j1 };
        out[2] = if j2 == j1 {
            v1
        } else if j2 == j0 {
            0
        } else {
            j2
        };
        return;
    }
    let mut pos = [usize::MAX; 2 * SMALL_K];
    let mut val = [0usize; 2 * SMALL_K];
    let mut len = 0;
    for (i, slot) in out.iter_mut().enumerate().take(k) {
        let j = i + rng.index(n - i);
        // vi = perm[i], vj = perm[j] under the displacement map.
        let mut vi = i;
        let mut vj = j;
        let mut slot_j = usize::MAX;
        for t in 0..len {
            if pos[t] == i {
                vi = val[t];
            }
            if pos[t] == j {
                vj = val[t];
                slot_j = t;
            }
        }
        // perm.swap(i, j): position i is never read again, so only the
        // j side needs recording (as identity when j == i).
        if j != i {
            if slot_j == usize::MAX {
                pos[len] = j;
                val[len] = vi;
                len += 1;
            } else {
                val[slot_j] = vi;
            }
        }
        *slot = vj;
    }
}

/// Chooses one element uniformly; `None` on an empty slice.
pub fn choose<'a, T>(items: &'a [T], rng: &mut Xoshiro256pp) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.index(items.len())])
    }
}

/// Chooses an index with probability proportional to `weights[i]`.
///
/// Non-finite and negative weights are treated as zero. Returns `None` if
/// the weights are empty or all (effectively) zero.
pub fn weighted_choice(weights: &[f64], rng: &mut Xoshiro256pp) -> Option<usize> {
    let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
    let total: f64 = weights.iter().copied().map(clean).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.next_f64() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        let w = clean(w);
        if w > 0.0 {
            last_positive = Some(i);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
    }
    // Floating-point slack: fall back to the last positive-weight index.
    last_positive
}

/// Sorts indices `0..values.len()` by `values` with a deterministic
/// tie-break (index order), ascending or descending.
///
/// The simulators rank peers by observed transfer amounts; ties are common
/// (e.g. many 0-transfers) and the tie-break must not depend on allocation
/// addresses or hash ordering, or runs stop being reproducible.
#[must_use]
pub fn rank_indices(values: &[f64], ascending: bool) -> Vec<usize> {
    let mut idx = Vec::with_capacity(values.len());
    rank_indices_into(values, ascending, &mut idx);
    idx
}

/// Rank comparator shared by [`rank_indices_into`] and [`top_k_into`]:
/// value order (flipped when descending), ties broken by index. On finite
/// values (the only thing the engines rank) this is a strict total order —
/// `Equal` only when `a == b` — which is why an unstable sort and a
/// partial top-k selection both reproduce the stable full sort bit-for-bit.
#[inline]
fn rank_cmp(values: &[f64], ascending: bool, a: usize, b: usize) -> Ordering {
    let ord = values[a].partial_cmp(&values[b]).unwrap_or(Ordering::Equal);
    let ord = if ascending { ord } else { ord.reverse() };
    ord.then(a.cmp(&b))
}

/// [`rank_indices`] writing into a caller-owned buffer (`out` is cleared
/// first). Uses an unstable sort — no merge-buffer allocation — which is
/// output-identical to the stable sort because the comparator is a strict
/// total order (index tie-break).
pub fn rank_indices_into(values: &[f64], ascending: bool, out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..values.len());
    out.sort_unstable_by(|&a, &b| rank_cmp(values, ascending, a, b));
}

/// Writes the first `min(k, values.len())` entries of the full
/// [`rank_indices`] ordering into `out` (cleared first), without sorting
/// the rest. Engines that only consume `order.iter().take(k)` use this to
/// replace an O(n log n) full sort with an O(n·k) insertion selection.
///
/// Candidates are scanned in increasing index order and ties never
/// displace an earlier (lower-index) entry, so the result is bit-identical
/// to the full-sort prefix under the shared tie-break.
pub fn top_k_into(values: &[f64], ascending: bool, k: usize, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(values.len());
    if k == 0 {
        return;
    }
    out.reserve(k);
    for c in 0..values.len() {
        if out.len() == k {
            // Fast path: not better than the current worst — skip.
            if rank_cmp(values, ascending, c, out[k - 1]) != Ordering::Less {
                continue;
            }
            out.pop();
        }
        let pos = out.partition_point(|&e| rank_cmp(values, ascending, e, c) == Ordering::Less);
        out.insert(pos, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(123)
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut v, &mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_uniformity_spot_check() {
        // Position of element 0 after shuffling [0,1,2] should be uniform.
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let mut v = [0, 1, 2];
            shuffle(&mut v, &mut r);
            let pos = v.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) - 10_000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn shuffle_handles_trivial_sizes() {
        let mut r = rng();
        let mut empty: Vec<u8> = vec![];
        shuffle(&mut empty, &mut r);
        let mut one = vec![7u8];
        shuffle(&mut one, &mut r);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng();
        for (n, k) in [
            (50, 3),
            (50, 50),
            (10, 0),
            (1000, 5),
            (4, 10),
            (9, 1),
            (1000, 1),
        ] {
            let s = sample_indices(n, k, &mut r);
            assert_eq!(s.len(), k.min(n));
            let set: HashSet<usize> = s.iter().copied().collect();
            assert_eq!(set.len(), s.len(), "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_indices_covers_all_elements() {
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            for i in sample_indices(20, 2, &mut r) {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn sample_indices_floyd_path_uniform() {
        // n=1000, k=3 exercises the Floyd branch; element 0 should appear
        // with probability 3/1000.
        let mut r = rng();
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| sample_indices(1000, 3, &mut r).contains(&0))
            .count();
        let p = hits as f64 / trials as f64;
        assert!((p - 0.003).abs() < 0.0008, "p={p}");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = rng();
        let empty: [u8; 0] = [];
        assert!(choose(&empty, &mut r).is_none());
        assert_eq!(choose(&[42], &mut r), Some(&42));
    }

    #[test]
    fn weighted_choice_proportional() {
        let mut r = rng();
        let weights = [1.0, 3.0, 0.0, 6.0];
        let mut counts = [0u32; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[weighted_choice(&weights, &mut r).unwrap()] += 1;
        }
        assert_eq!(counts[2], 0);
        let p1 = f64::from(counts[1]) / f64::from(n);
        assert!((p1 - 0.3).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn weighted_choice_rejects_degenerate() {
        let mut r = rng();
        assert_eq!(weighted_choice(&[], &mut r), None);
        assert_eq!(weighted_choice(&[0.0, 0.0], &mut r), None);
        assert_eq!(weighted_choice(&[-1.0, f64::NAN], &mut r), None);
        assert_eq!(weighted_choice(&[0.0, 5.0], &mut r), Some(1));
    }

    #[test]
    fn rank_indices_orders_and_breaks_ties_by_index() {
        let vals = [3.0, 1.0, 3.0, 2.0];
        assert_eq!(rank_indices(&vals, true), vec![1, 3, 0, 2]);
        assert_eq!(rank_indices(&vals, false), vec![0, 2, 3, 1]);
    }

    #[test]
    fn rank_indices_handles_nan_without_panicking() {
        let vals = [f64::NAN, 1.0, 0.5];
        let idx = rank_indices(&vals, true);
        assert_eq!(idx.len(), 3);
        let set: HashSet<usize> = idx.into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn sample_indices_into_matches_wrapper_on_both_branches() {
        // Same seed, same draws: the buffer variant must replicate the
        // allocating variant bit-for-bit on the Floyd branch (k*8 < n)
        // and the materialize branch.
        for (n, k) in [(1000, 3), (50, 3), (50, 30), (10, 10), (7, 0), (4, 9)] {
            let mut r1 = rng();
            let mut r2 = rng();
            let a = sample_indices(n, k, &mut r1);
            let mut b = vec![99; 64]; // dirty buffer
            sample_indices_into(n, k, &mut r2, &mut b);
            assert_eq!(a, b, "n={n} k={k}");
            assert_eq!(r1.next_u64(), r2.next_u64(), "stream diverged n={n} k={k}");
        }
    }

    #[test]
    fn small_materialize_matches_reference_partial_fisher_yates() {
        // Every (n, k) here takes the materialize branch (k*8 >= n,
        // k >= 2); the register-resident small-k path must reproduce the
        // heap-permutation algorithm it replaced, draw for draw.
        for &(n, k) in &[
            (24usize, 3usize),
            (23, 3),
            (8, 2),
            (2, 2),
            (3, 3),
            (4, 3),
            (10, 4),
            (4, 4),
            (24, 4),
        ] {
            let mut r1 = rng();
            let mut r2 = rng();
            let mut perm: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + r1.index(n - i);
                perm.swap(i, j);
            }
            perm.truncate(k);
            let mut out = Vec::new();
            sample_indices_into(n, k, &mut r2, &mut out);
            assert_eq!(out, perm, "n={n} k={k}");
            assert_eq!(r1.next_u64(), r2.next_u64(), "stream diverged n={n} k={k}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `sample_small` is bit-interchangeable with `sample_indices_into`
        /// over every `n` in 0..=200 and `k` in 0..=4: both branches, the
        /// `8k = n` boundary between them, `k = 0`, `k = 1` and `k > n`.
        #[test]
        fn sample_small_matches_sample_indices_into(seed in proptest::prelude::any::<u64>()) {
            let mut r1 = Xoshiro256pp::seed_from_u64(seed);
            let mut r2 = r1.clone();
            let mut want = Vec::new();
            let mut got = [usize::MAX; SMALL_K];
            for n in 0..=200 {
                for k in 0..=SMALL_K {
                    sample_indices_into(n, k, &mut r1, &mut want);
                    let len = sample_small(n, k, &mut r2, &mut got);
                    proptest::prop_assert_eq!(&got[..len], &want[..], "n = {}, k = {}", n, k);
                    proptest::prop_assert_eq!(
                        r1.next_u64(),
                        r2.next_u64(),
                        "stream diverged at n = {}, k = {}", n, k
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn sample_small_rejects_a_large_sample() {
        let _ = sample_small(10, SMALL_K + 1, &mut rng(), &mut [0; SMALL_K]);
    }

    #[test]
    fn rank_indices_into_matches_wrapper() {
        let vals = [3.0, 1.0, 3.0, 2.0, -1.0, 3.0];
        for asc in [true, false] {
            let mut out = vec![7usize; 2]; // dirty buffer
            rank_indices_into(&vals, asc, &mut out);
            assert_eq!(out, rank_indices(&vals, asc));
        }
    }

    #[test]
    fn top_k_prefix_equals_full_sort_prefix() {
        // Random-ish values with deliberate ties; every k must reproduce
        // the full ranking's prefix exactly, including tie order.
        let mut r = rng();
        let vals: Vec<f64> = (0..40).map(|_| f64::from(r.index(8) as u32)).collect();
        for asc in [true, false] {
            let full = rank_indices(&vals, asc);
            for k in [0, 1, 2, 5, 39, 40, 41] {
                let mut out = vec![3usize; 3]; // dirty buffer
                top_k_into(&vals, asc, k, &mut out);
                assert_eq!(out, full[..k.min(vals.len())], "asc={asc} k={k}");
            }
        }
    }

    #[test]
    fn top_k_into_trivial_inputs() {
        let mut out = vec![1usize; 4];
        top_k_into(&[], true, 3, &mut out);
        assert!(out.is_empty());
        top_k_into(&[5.0], false, 0, &mut out);
        assert!(out.is_empty());
    }
}
