//! The round-loop kernels that the branch-light ones in [`crate::engine`]
//! replaced, kept as test references: the production kernels must
//! reproduce every one of their result bits, and with them the engine's
//! RNG stream.

use std::cmp::Ordering;

/// The ranking's order on `(key, candidate index)` pairs: keys by
/// `partial_cmp` (NaN compares equal), flipped when descending, ties
/// broken by candidate index.
fn key_cmp(a: (f64, usize), b: (f64, usize), ascending: bool) -> Ordering {
    let ord = a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal);
    let ord = if ascending { ord } else { ord.reverse() };
    ord.then(a.1.cmp(&b.1))
}

/// Insertion top-k under [`key_cmp`]: a candidate that does not beat the
/// current k-th is skipped, otherwise it is inserted at the one position
/// the index tie-break leaves it.
fn select_top_k(k: usize, ascending: bool, keys: &[f64]) -> Vec<(f64, usize)> {
    let mut sel: Vec<(f64, usize)> = Vec::new();
    if k == 0 {
        return sel;
    }
    for (idx, &key) in keys.iter().enumerate() {
        let c = (key, idx);
        if sel.len() == k {
            if key_cmp(c, sel[k - 1], ascending) != Ordering::Less {
                continue;
            }
            sel.pop();
        }
        let mut pos = sel.len();
        while pos > 0 && key_cmp(sel[pos - 1], c, ascending) != Ordering::Less {
            pos -= 1;
        }
        sel.insert(pos, c);
    }
    sel
}

/// The two-round window merge with one branch per element: last round's
/// entry wins for a peer in both rows.
fn merge_window(ra: &[(usize, f64)], rb: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut cand = Vec::new();
    let (mut x, mut y) = (0, 0);
    while x < ra.len() && y < rb.len() {
        let (a, _) = ra[x];
        let (b, _) = rb[y];
        if a <= b {
            cand.push(ra[x]);
            x += 1;
            y += usize::from(a == b);
        } else {
            cand.push(rb[y]);
            y += 1;
        }
    }
    cand.extend_from_slice(&ra[x..]);
    cand.extend_from_slice(&rb[y..]);
    cand
}

/// Maps eligible position `j` past the sorted exclusions, stopping at the
/// first exclusion above the running id.
fn skip_excluded(mut j: usize, excl: &[usize]) -> usize {
    for &e in excl {
        if e <= j {
            j += 1;
        } else {
            break;
        }
    }
    j
}

/// [`skip_excluded`] over the ascending window contacts with `i` spliced
/// in, walked as one merge with an early exit.
fn skip_contacts(mut j: usize, contacts: &[(usize, f64)], i: usize) -> usize {
    let mut i_pending = true;
    for &(e, _) in contacts {
        if i_pending && i < e {
            i_pending = false;
            if i <= j {
                j += 1;
            } else {
                break;
            }
        }
        if e <= j {
            j += 1;
        } else {
            i_pending = false;
            break;
        }
    }
    if i_pending && i <= j {
        j += 1;
    }
    j
}

mod tests {
    use super::*;
    use crate::engine;
    use dsa_workloads::rng::Xoshiro256pp;
    use proptest::prelude::*;

    /// Keys with many ties (small integers), and now and then a NaN or
    /// an infinity, which the engine never produces but the kernels
    /// order alike anyway.
    fn keys(rng: &mut Xoshiro256pp, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.index(20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => rng.index(6) as f64,
            })
            .collect()
    }

    /// An ascending, duplicate-free `(peer, amount)` row over `0..n`
    /// without `skip`, each peer kept with probability `density`.
    fn row(rng: &mut Xoshiro256pp, n: usize, density: f64, skip: usize) -> Vec<(usize, f64)> {
        let mut row = Vec::new();
        for p in 0..n {
            if p != skip && rng.chance(density) {
                row.push((p, rng.index(4) as f64 * 0.5));
            }
        }
        row
    }

    fn sel_bits(sel: &[(f64, usize)]) -> Vec<(u64, usize)> {
        sel.iter().map(|&(k, i)| (k.to_bits(), i)).collect()
    }

    fn row_bits(row: &[(usize, f64)]) -> Vec<(usize, u64)> {
        row.iter().map(|&(p, v)| (p, v.to_bits())).collect()
    }

    fn top_k(ascending: bool, k: usize, keys: &[f64]) -> Vec<(f64, usize)> {
        let mut sel = [(0.0, 0); engine::MAX_K];
        let len = if ascending {
            engine::select_top_k::<true>(&mut sel, k, keys.iter().copied())
        } else {
            engine::select_top_k::<false>(&mut sel, k, keys.iter().copied())
        };
        sel[..len].to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn top_k_matches_reference(
            seed in any::<u64>(),
            len in 0usize..60,
            k in 0usize..engine::MAX_K + 1,
            ascending in any::<bool>(),
        ) {
            let keys = keys(&mut Xoshiro256pp::seed_from_u64(seed), len);
            prop_assert_eq!(
                sel_bits(&top_k(ascending, k, &keys)),
                sel_bits(&select_top_k(k, ascending, &keys)),
                "k = {}, ascending = {}, keys = {:?}", k, ascending, keys
            );
        }

        #[test]
        fn merge_matches_reference(
            seed in any::<u64>(),
            n in 2usize..80,
            density_a in 0.0f64..1.0,
            density_b in 0.0f64..1.0,
        ) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let i = rng.index(n);
            let ra = row(&mut rng, n, density_a, i);
            let rb = row(&mut rng, n, density_b, i);
            let mut out = vec![(usize::MAX, f64::NAN); n];
            let len = engine::merge_window(&ra, &rb, &mut out);
            prop_assert_eq!(
                row_bits(&out[..len]),
                row_bits(&merge_window(&ra, &rb)),
                "ra = {:?}, rb = {:?}", ra, rb
            );
        }

        #[test]
        fn stranger_map_matches_reference(
            seed in any::<u64>(),
            n in 2usize..80,
            density in 0.0f64..1.0,
        ) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let i = rng.index(n);
            let contacts = row(&mut rng, n, density, i);
            let eligible = n - contacts.len() - 1;
            let i_pos = i - contacts.partition_point(|c| c.0 < i);
            for j in 0..eligible {
                let want = skip_contacts(j, &contacts, i);
                prop_assert_eq!(
                    engine::skip_contacts(j, &contacts, i_pos),
                    want,
                    "j = {}, i = {}, contacts = {:?}", j, i, contacts
                );
                prop_assert!(want < n && want != i);
                prop_assert!(contacts.iter().all(|c| c.0 != want));
            }
        }

        #[test]
        fn fallback_map_matches_reference(
            seed in any::<u64>(),
            n in 2usize..80,
            density in 0.0f64..1.0,
        ) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let excl: Vec<usize> = (0..n).filter(|_| rng.chance(density)).collect();
            for j in 0..n - excl.len() {
                prop_assert_eq!(
                    engine::skip_excluded(j, excl.iter().copied()),
                    skip_excluded(j, &excl),
                    "j = {}, excl = {:?}", j, excl
                );
            }
        }
    }
}
