//! Two-level logic minimization: exact prime generation against the
//! OFF-set and greedy covering.
//!
//! A function is given by its ON and OFF points; every other code is a
//! don't-care.  For a state graph the OFF points are the reachable codes
//! whose next value is 0, so the cost follows the reachable states, not
//! the 2^n code space, and cubes over up to 64 variables fit a `u64`.
//! The primes generated are exactly the primes that touch ON — the only
//! ones a cover can use.  The cover is *irredundant by construction of
//! the greedy pass* but globally minimal only for small functions —
//! exactly the fidelity class of the original flow.

/// A cube over `n` variables: `mask` bit set ⇒ the variable appears as a
/// literal, with polarity given by the corresponding `val` bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Cube {
    /// Literal-presence mask.
    pub mask: u64,
    /// Polarities (only bits inside `mask` are meaningful).
    pub val: u64,
}

impl Cube {
    /// Whether the cube contains `point`.
    #[inline]
    pub fn contains(&self, point: u64) -> bool {
        point & self.mask == self.val
    }

    /// Whether `self` covers every point of `other`.
    pub fn covers(&self, other: &Cube) -> bool {
        self.mask & other.mask == self.mask && other.val & self.mask == self.val
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The literals as `(variable, polarity)` pairs, ascending.
    pub fn literals(&self) -> Vec<(usize, bool)> {
        (0..64)
            .filter(|&v| self.mask >> v & 1 == 1)
            .map(|v| (v, self.val >> v & 1 == 1))
            .collect()
    }

    /// Consensus of two cubes, if they oppose in exactly one variable.
    ///
    /// The consensus of two implicants is always an implicant; it is the
    /// cube that bridges them (the classic source of redundant
    /// hazard-cover terms).
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        let both = self.mask & other.mask;
        let opposed = (self.val ^ other.val) & both;
        if opposed.count_ones() != 1 {
            return None;
        }
        let mask = (self.mask | other.mask) & !opposed;
        let val = (self.val | other.val) & mask;
        Some(Cube { mask, val })
    }
}

/// A two-level cover: the disjunction of its cubes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Cover {
    /// The product terms.
    pub cubes: Vec<Cube>,
}

impl Cover {
    /// Whether the cover contains `point`.
    pub fn contains(&self, point: u64) -> bool {
        self.cubes.iter().any(|c| c.contains(point))
    }

    /// The distinct variables used, ascending.
    pub fn support(&self) -> Vec<usize> {
        let mut m = 0u64;
        for c in &self.cubes {
            m |= c.mask;
        }
        (0..64).filter(|&v| m >> v & 1 == 1).collect()
    }
}

/// The most primes one function may have, and the largest working
/// family of the transversal search.  Prime counts are exponential in
/// the worst case — `k` OFF points whose differences from one ON point
/// are disjoint pairs give `2^k` primes through it — and specifications
/// arrive from outside the program.
pub const MAX_PRIMES: usize = 1 << 20;

/// Minimizes a function given by its ON and OFF points over `n`
/// variables (`n ≤ 64`; every other code is a don't-care): the primes
/// that touch ON, essential-prime extraction, greedy set cover of the
/// remaining ON points, then an irredundancy pass.
///
/// # Panics
///
/// Panics if `n > 64`, if ON ∩ OFF ≠ ∅, if a point exceeds `n` bits, or
/// if the function has more than [`MAX_PRIMES`] primes.
pub fn minimize(on: &[u64], off: &[u64], n: usize) -> Cover {
    cover_with(on, off, n, false).expect("too many primes").0
}

/// Returns **all** prime implicants that cover at least one ON point —
/// the canonical redundant two-level form (every prime that matters, not
/// just a minimal cover).  Hazard-free two-level synthesis must keep a
/// cube for every required SIC transition, which pushes covers toward
/// this prime closure; the extra cubes are logically redundant and their
/// fault sites untestable.  A function that one cube covers keeps just
/// that cube.
///
/// # Panics
///
/// Same conditions as [`minimize`].
pub fn all_primes(on: &[u64], off: &[u64], n: usize) -> Cover {
    cover_with(on, off, n, true).expect("too many primes").0
}

/// The minimal cover — or with `all` the primes touching ON, unless one
/// cube covers the function — and the number of primes generated;
/// `None` past [`MAX_PRIMES`].
pub(crate) fn cover_with(on: &[u64], off: &[u64], n: usize, all: bool) -> Option<(Cover, usize)> {
    assert!(n <= 64, "cubes hold at most 64 variables");
    let full = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
    for &p in on.iter().chain(off) {
        assert!(p & !full == 0, "point {p:#x} exceeds {n} variables");
    }
    let sorted = |points: &[u64]| {
        let mut v = points.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let (on, off) = (sorted(on), sorted(off));
    assert!(
        !on.iter().any(|p| off.binary_search(p).is_ok()),
        "ON and OFF sets must be disjoint"
    );
    if on.is_empty() {
        return Some((Cover::default(), 0));
    }
    if off.is_empty() {
        // Constant 1: the empty cube.
        let one = Cube { mask: 0, val: 0 };
        return Some((Cover { cubes: vec![one] }, 1));
    }
    // The primes through `m` minus those through an earlier ON point:
    // each prime is generated once, at the first ON point it contains.
    // The nearest earlier points are the likeliest inside, so they are
    // tried first.
    let mut primes: Vec<Cube> = Vec::new();
    for (i, &m) in on.iter().enumerate() {
        let edges = off.iter().map(|&o| m ^ o).collect();
        for t in minimal_transversals(edges)? {
            if on[..i].iter().rev().all(|&p| (p ^ m) & t != 0) {
                primes.push(Cube {
                    mask: t,
                    val: m & t,
                });
            }
        }
        if primes.len() > MAX_PRIMES {
            return None;
        }
    }
    primes.sort_unstable();
    let count = primes.len();
    let minimal = select(&primes, &on);
    Some(if all && minimal.cubes.len() > 1 {
        (Cover { cubes: primes }, count)
    } else {
        (minimal, count)
    })
}

/// The minimal variable sets hitting every edge, by Berge's incremental
/// algorithm.  With the edges `m ^ o` for every OFF point `o`, a set `T`
/// is a transversal iff the cube `(T, m & T)` through `m` avoids OFF,
/// so the minimal ones give exactly the primes through `m`.  `None` once
/// the family outgrows [`MAX_PRIMES`].
fn minimal_transversals(mut edges: Vec<u64>) -> Option<Vec<u64>> {
    // An edge that contains another is hit by every set hitting the
    // smaller one: keep only the inclusion-minimal edges.
    edges.sort_unstable_by_key(|e| (e.count_ones(), *e));
    let mut minimal: Vec<u64> = Vec::new();
    for e in edges {
        if !minimal.iter().any(|&k| k & !e == 0) {
            minimal.push(e);
        }
    }
    let mut family = vec![0u64];
    for e in minimal {
        let (mut next, missed): (Vec<u64>, Vec<u64>) =
            family.into_iter().partition(|&t| t & e != 0);
        // Extending a missed set by one variable of `e` is minimal
        // unless a set that already hits `e` is inside it: two
        // extensions never contain each other, and a hitting set never
        // contains an extension, since the family is an antichain.
        let hitting = next.len();
        for t in missed {
            let mut bits = e;
            while bits != 0 {
                let grown = t | (bits & bits.wrapping_neg());
                bits &= bits - 1;
                if !next[..hitting].iter().any(|&h| h & !grown == 0) {
                    next.push(grown);
                }
            }
        }
        if next.len() > MAX_PRIMES {
            return None;
        }
        family = next;
    }
    Some(family)
}

/// The covering step over `primes` (sorted) for the sorted `on`
/// points: essential primes, then greedy picks, then an irredundancy
/// pass.
fn select(primes: &[Cube], on: &[u64]) -> Cover {
    // Essential primes: an ON point covered by exactly one prime.
    let mut chosen: Vec<Cube> = on
        .iter()
        .filter_map(|&p| {
            let mut covering = primes.iter().filter(|c| c.contains(p));
            match (covering.next(), covering.next()) {
                (Some(c), None) => Some(*c),
                _ => None,
            }
        })
        .collect();
    let mut uncovered: Vec<u64> = on
        .iter()
        .copied()
        .filter(|&p| !chosen.iter().any(|c| c.contains(p)))
        .collect();

    // Greedy: repeatedly take the prime covering the most remaining
    // points (ties: fewer literals, then lexicographic for determinism).
    while !uncovered.is_empty() {
        let (gain, _, std::cmp::Reverse(cube)) = primes
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
            .expect("primes nonempty when ON nonempty");
        assert!(gain > 0, "no prime covers a remaining ON point");
        chosen.push(cube);
        uncovered.retain(|&p| !cube.contains(p));
    }
    chosen.sort_unstable();
    chosen.dedup();

    // Final irredundancy pass: greedy choices can make earlier picks
    // redundant; drop any cube whose ON points are covered by the rest
    // (largest cubes first for determinism).
    while let Some(i) = (0..chosen.len()).find(|&i| {
        on.iter().all(|&p| {
            !chosen[i].contains(p)
                || chosen
                    .iter()
                    .enumerate()
                    .any(|(j, c)| j != i && c.contains(p))
        })
    }) {
        chosen.remove(i);
    }
    Cover { cubes: chosen }
}

/// Verifies that `cover` realizes the incompletely-specified function:
/// contains every ON point and no OFF point.
pub fn verify(cover: &Cover, on: &[u64], off: &[u64]) -> bool {
    on.iter().all(|&p| cover.contains(p)) && !off.iter().any(|&p| cover.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `n`-bit point outside `on`.
    fn complement(on: &[u64], n: usize) -> Vec<u64> {
        (0..1u64 << n).filter(|p| !on.contains(p)).collect()
    }

    #[test]
    fn cube_basics() {
        let c = Cube {
            mask: 0b101,
            val: 0b001,
        };
        assert!(c.contains(0b001));
        assert!(c.contains(0b011));
        assert!(!c.contains(0b100));
        assert_eq!(c.num_literals(), 2);
        assert_eq!(c.literals(), vec![(0, true), (2, false)]);
    }

    #[test]
    fn covers_relation() {
        let big = Cube {
            mask: 0b001,
            val: 0b001,
        };
        let small = Cube {
            mask: 0b011,
            val: 0b001,
        };
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
    }

    #[test]
    fn consensus_of_adjacent_cubes() {
        // a·b and ā·c → consensus b·c
        let ab = Cube {
            mask: 0b011,
            val: 0b011,
        };
        let nac = Cube {
            mask: 0b101,
            val: 0b100,
        };
        let cons = ab.consensus(&nac).unwrap();
        assert_eq!(
            cons,
            Cube {
                mask: 0b110,
                val: 0b110
            }
        );
        // Cubes opposing in two variables have no consensus.
        let nanb = Cube {
            mask: 0b011,
            val: 0b000,
        };
        assert_eq!(ab.consensus(&nanb), None);
    }

    #[test]
    fn minimize_xor_needs_two_cubes() {
        // XOR has no DC and no merging: two minterm cubes.
        let (on, off) = ([0b01u64, 0b10], [0b00u64, 0b11]);
        let cover = minimize(&on, &off, 2);
        assert_eq!(cover.cubes.len(), 2);
        assert!(verify(&cover, &on, &off));
    }

    #[test]
    fn minimize_with_dont_cares_collapses() {
        // ON = {11}, OFF = {00}: a single 1-literal cube suffices.
        let cover = minimize(&[0b11], &[0b00], 2);
        assert!(verify(&cover, &[0b11], &[0b00]));
        assert_eq!(cover.cubes.len(), 1);
        assert!(cover.cubes[0].num_literals() <= 1);
    }

    #[test]
    fn minimize_constant_one() {
        let cover = minimize(&[0, 1, 2, 3], &[], 2);
        assert_eq!(cover.cubes.len(), 1);
        assert_eq!(cover.cubes[0].num_literals(), 0);
    }

    #[test]
    fn minimize_empty_on() {
        assert!(minimize(&[], &[0b1], 1).cubes.is_empty());
        assert!(all_primes(&[], &[0b1], 1).cubes.is_empty());
    }

    #[test]
    fn c_element_cover() {
        // f(a,b,y) = ab + y(a+b), the Muller C next-state function.
        let mut on = Vec::new();
        for p in 0..8u64 {
            let (a, b, y) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
            if (a && b) || (y && (a || b)) {
                on.push(p);
            }
        }
        let off = complement(&on, 3);
        let cover = minimize(&on, &off, 3);
        assert!(verify(&cover, &on, &off));
        assert_eq!(cover.cubes.len(), 3, "ab, ay, by");
        for c in &cover.cubes {
            assert_eq!(c.num_literals(), 2);
        }
    }

    #[test]
    fn majority_of_five_is_exact() {
        let n = 5;
        let on: Vec<u64> = (0..32u64).filter(|p| p.count_ones() >= 3).collect();
        let off = complement(&on, n);
        let cover = minimize(&on, &off, n);
        assert!(verify(&cover, &on, &off));
        assert_eq!(cover.cubes.len(), 10, "C(5,3) three-literal primes");
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_on_off_rejected() {
        minimize(&[1], &[1], 2);
    }

    #[test]
    fn all_primes_is_a_redundant_superset() {
        // f = ab + āc has three primes: ab, āc and the consensus bc.
        let on: Vec<u64> = (0..8u64)
            .filter(|p| {
                let (a, b, c) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
                (a && b) || (!a && c)
            })
            .collect();
        let off = complement(&on, 3);
        let min = minimize(&on, &off, 3);
        let all = all_primes(&on, &off, 3);
        assert_eq!(min.cubes.len(), 2);
        assert_eq!(all.cubes.len(), 3, "includes the redundant consensus");
        assert!(verify(&all, &on, &off), "function unchanged");
        for c in &min.cubes {
            assert!(all.cubes.contains(c));
        }
    }

    #[test]
    fn support_lists_used_variables() {
        let cover = Cover {
            cubes: vec![
                Cube {
                    mask: 0b101,
                    val: 0,
                },
                Cube {
                    mask: 0b010,
                    val: 0b010,
                },
            ],
        };
        assert_eq!(cover.support(), vec![0, 1, 2]);
    }
}
