//! Property tests for the two-level minimizer on random incompletely
//! specified functions, and a differential check against Quine–McCluskey
//! over an explicit don't-care list.

use proptest::prelude::*;
use satpg_stg::cover::{all_primes, minimize, verify, Cover, Cube};

/// The ON, DC and OFF points of a 4-variable function: ON from
/// `on_mask`, DC from `dc_mask` outside ON, OFF the rest.
fn split_sets(on_mask: u16, dc_mask: u16) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut on, mut dc, mut off) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..16u64 {
        let bit = 1u16 << p;
        if on_mask & bit != 0 {
            on.push(p);
        } else if dc_mask & bit != 0 {
            dc.push(p);
        } else {
            off.push(p);
        }
    }
    (on, dc, off)
}

/// A random function of `n` variables: each point is ON, OFF or DC
/// with odds `weights` (not all zero), drawn from an xorshift stream.
fn random_function(n: usize, seed: u64, weights: [u64; 3]) -> [Vec<u64>; 3] {
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut state = seed | 1;
    let mut sets = [Vec::new(), Vec::new(), Vec::new()];
    for p in 0..1u64 << n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut r = state % total;
        let class = (0..3)
            .find(|&k| {
                let hit = r < weights[k];
                r = r.saturating_sub(weights[k]);
                hit
            })
            .unwrap_or(2);
        sets[class].push(p);
    }
    sets
}

/// The minimizer this crate used before OFF-set prime generation:
/// Quine–McCluskey merging over ON ∪ DC, then the same essential →
/// greedy → irredundant covering.  Kept as the differential oracle.
mod reference {
    use super::{Cover, Cube};
    use std::collections::{HashMap, HashSet};

    /// Every prime implicant of ON ∪ DC, sorted.
    fn qm_primes(on: &HashSet<u64>, dc: &HashSet<u64>, n: usize) -> Vec<Cube> {
        let full = (1u64 << n) - 1;
        let mut current: HashSet<Cube> = on
            .iter()
            .chain(dc)
            .map(|&p| Cube { mask: full, val: p })
            .collect();
        let mut primes: Vec<Cube> = Vec::new();
        while !current.is_empty() {
            let mut merged: HashSet<Cube> = HashSet::new();
            let mut was_merged: HashSet<Cube> = HashSet::new();
            let mut by_mask: HashMap<u64, Vec<Cube>> = HashMap::new();
            for &c in &current {
                by_mask.entry(c.mask).or_default().push(c);
            }
            for group in by_mask.values() {
                for (i, a) in group.iter().enumerate() {
                    for b in &group[i + 1..] {
                        let diff = a.val ^ b.val;
                        if diff.count_ones() == 1 {
                            merged.insert(Cube {
                                mask: a.mask & !diff,
                                val: a.val & !diff,
                            });
                            was_merged.insert(*a);
                            was_merged.insert(*b);
                        }
                    }
                }
            }
            primes.extend(current.iter().filter(|c| !was_merged.contains(c)));
            current = merged;
        }
        primes.sort_unstable();
        primes.dedup();
        primes
    }

    pub fn minimize(on: &[u64], dc: &[u64], n: usize) -> Cover {
        let on: HashSet<u64> = on.iter().copied().collect();
        let dc: HashSet<u64> = dc.iter().copied().collect();
        if on.is_empty() {
            return Cover::default();
        }
        if on.len() + dc.len() == 1 << n {
            return Cover {
                cubes: vec![Cube { mask: 0, val: 0 }],
            };
        }
        let primes = qm_primes(&on, &dc, n);
        let mut uncovered: Vec<u64> = on.iter().copied().collect();
        uncovered.sort_unstable();
        let mut chosen: Vec<Cube> = Vec::new();
        let mut essential: HashSet<Cube> = HashSet::new();
        for &p in &uncovered {
            let covering: Vec<&Cube> = primes.iter().filter(|c| c.contains(p)).collect();
            if covering.len() == 1 {
                essential.insert(*covering[0]);
            }
        }
        chosen.extend(essential);
        uncovered.retain(|&p| !chosen.iter().any(|c| c.contains(p)));
        while !uncovered.is_empty() {
            let best = primes
                .iter()
                .map(|c| {
                    let gain = uncovered.iter().filter(|&&p| c.contains(p)).count();
                    (
                        gain,
                        std::cmp::Reverse(c.num_literals()),
                        std::cmp::Reverse(*c),
                    )
                })
                .max()
                .unwrap();
            let cube = best.2 .0;
            assert!(best.0 > 0);
            chosen.push(cube);
            uncovered.retain(|&p| !cube.contains(p));
        }
        chosen.sort_unstable();
        chosen.dedup();
        loop {
            let removable = (0..chosen.len()).find(|&i| {
                on.iter().all(|&p| {
                    !chosen[i].contains(p)
                        || chosen
                            .iter()
                            .enumerate()
                            .any(|(j, c)| j != i && c.contains(p))
                })
            });
            match removable {
                Some(i) => {
                    chosen.remove(i);
                }
                None => break,
            }
        }
        Cover { cubes: chosen }
    }

    pub fn all_primes(on: &[u64], dc: &[u64], n: usize) -> Cover {
        let minimal = minimize(on, dc, n);
        if minimal.cubes.len() <= 1 {
            return minimal;
        }
        let on_set: HashSet<u64> = on.iter().copied().collect();
        let dc_set: HashSet<u64> = dc.iter().copied().collect();
        let cubes = qm_primes(&on_set, &dc_set, n)
            .into_iter()
            .filter(|c| on.iter().any(|&p| c.contains(p)))
            .collect();
        Cover { cubes }
    }
}

#[test]
fn wide_functions_need_only_their_points() {
    // Two ON points and one OFF point over 60 variables: the primes are
    // the single literals separating an ON point from the OFF point.
    let (a, b, o) = (1u64 << 59, 1u64 << 3 | 1, 0u64);
    let lit = |v: u64| Cube { mask: v, val: v };
    let all = all_primes(&[a, b], &[o], 60);
    assert_eq!(all.cubes, vec![lit(1), lit(1 << 3), lit(1 << 59)]);
    let min = minimize(&[a, b], &[o], 60);
    assert_eq!(min.cubes, vec![lit(1), lit(1 << 59)]);
    assert!(verify(&min, &[a, b], &[o]));
}

#[test]
#[should_panic(expected = "too many primes")]
fn prime_explosions_are_refused() {
    // OFF points differing from ON point 0 in 21 disjoint pairs of
    // variables: 2^21 primes through it, past the budget.
    let off: Vec<u64> = (0..21).map(|i| 0b11 << (2 * i)).collect();
    minimize(&[0], &off, 42);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The minimized cover realizes the function: every ON point in,
    /// every OFF point out (4-variable functions, exhaustive check).
    #[test]
    fn minimize_is_correct(on_mask in any::<u16>(), dc_mask in any::<u16>()) {
        let (on, _, off) = split_sets(on_mask, dc_mask);
        let cover = minimize(&on, &off, 4);
        prop_assert!(verify(&cover, &on, &off));
    }

    /// No cube of the minimized cover is redundant: dropping any cube
    /// uncovers some ON point.
    #[test]
    fn minimize_is_irredundant(on_mask in any::<u16>(), dc_mask in any::<u16>()) {
        let (on, _, off) = split_sets(on_mask, dc_mask);
        let cover = minimize(&on, &off, 4);
        for skip in 0..cover.cubes.len() {
            let missing = on.iter().any(|&p| {
                !cover
                    .cubes
                    .iter()
                    .enumerate()
                    .any(|(i, c)| i != skip && c.contains(p))
            });
            prop_assert!(missing, "cube {skip} is redundant");
        }
    }

    /// The all-primes cover realizes the same function and contains the
    /// minimal cover's worth of primes.
    #[test]
    fn all_primes_same_function(on_mask in any::<u16>(), dc_mask in any::<u16>()) {
        let (on, _, off) = split_sets(on_mask, dc_mask);
        let full = all_primes(&on, &off, 4);
        prop_assert!(verify(&full, &on, &off));
        let min = minimize(&on, &off, 4);
        prop_assert!(full.cubes.len() >= min.cubes.len());
        // Every cube of the full cover is prime: expanding any literal
        // hits the OFF set.
        for c in &full.cubes {
            for (v, _) in c.literals() {
                let expanded = Cube {
                    mask: c.mask & !(1 << v),
                    val: c.val & !(1 << v),
                };
                let hits_off = off.iter().any(|&p| expanded.contains(p));
                prop_assert!(hits_off, "literal {v} of {c:?} is removable");
            }
        }
    }

    /// Consensus of two cover cubes never changes the function.
    #[test]
    fn consensus_preserves_function(on_mask in any::<u16>(), dc_mask in any::<u16>()) {
        let (on, _, off) = split_sets(on_mask, dc_mask);
        let cover = minimize(&on, &off, 4);
        let aug = satpg_stg::synth::add_consensus_cubes(&cover);
        for p in 0..16u64 {
            prop_assert_eq!(cover.contains(p), aug.contains(p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// OFF-set prime generation returns exactly the covers of
    /// Quine–McCluskey over the explicit don't-care list, for minimal
    /// covers and prime closures alike (1–9 variables, ON/OFF/DC mixed
    /// in random proportions).
    #[test]
    fn matches_explicit_dc_quine_mccluskey(
        n in 1usize..=9,
        seed in any::<u64>(),
        w_on in 0u64..4,
        w_off in 0u64..4,
        w_dc in 0u64..4,
    ) {
        let [on, off, dc] = random_function(n, seed, [w_on, w_off, w_dc]);
        prop_assert_eq!(minimize(&on, &off, n), reference::minimize(&on, &dc, n));
        prop_assert_eq!(all_primes(&on, &off, n), reference::all_primes(&on, &dc, n));
    }
}
