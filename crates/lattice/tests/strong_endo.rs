//! The comparable-pairs forms of the strong-endomorphism checks
//! (`morphism::is_monotone`, `endo::fixpoints_downward_closed`,
//! `endo::is_strong_endo`) give the same verdict as the quadratic forms
//! that visit all `n²` pairs.  The quadratic forms live here, as the
//! oracle.

use compview_lattice::{endo, morphism, FinPoset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn monotone_all_pairs(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    for a in 0..p.n() {
        for b in 0..p.n() {
            if p.leq(a, b) && !q.leq(f[a], f[b]) {
                return false;
            }
        }
    }
    true
}

fn closed_all_pairs(p: &FinPoset, e: &[usize]) -> bool {
    let fix: Vec<bool> = e.iter().enumerate().map(|(x, &ex)| ex == x).collect();
    for x in 0..p.n() {
        if fix[x] {
            for (y, &fy) in fix.iter().enumerate() {
                if p.leq(y, x) && !fy {
                    return false;
                }
            }
        }
    }
    true
}

fn strong_all_pairs(p: &FinPoset, e: &[usize]) -> bool {
    e.len() == p.n()
        && monotone_all_pairs(p, e, p)
        && p.bottom().is_some_and(|b| e[b] == b)
        && endo::is_idempotent(e)
        && endo::is_deflationary(p, e)
        && closed_all_pairs(p, e)
}

/// A random poset on `n` elements: the reflexive–transitive closure of
/// random edges `a → b` with `a < b`.  With `bottomed`, element 0 lies
/// below everything, so the poset is a ↓-poset.
fn random_poset(rng: &mut StdRng, n: usize, bottomed: bool) -> FinPoset {
    let density = rng.random_range(1u32..40) as f64 / 100.0;
    let mut reach = vec![vec![false; n]; n];
    for a in (0..n).rev() {
        reach[a][a] = true;
        for b in a + 1..n {
            if (bottomed && a == 0) || rng.random_bool(density) {
                let row = reach[b].clone();
                for (c, r) in row.into_iter().enumerate() {
                    reach[a][c] |= r;
                }
            }
        }
    }
    FinPoset::from_leq(n, |a, b| reach[a][b])
}

/// A strong endomorphism of `p`, or the identity when `p` has no bottom:
/// the identity, the constant bottom, or (on a powerset) a mask.
fn strong_map(rng: &mut StdRng, p: &FinPoset, powerset_mask: Option<usize>) -> Vec<usize> {
    if let Some(s) = powerset_mask {
        return (0..p.n()).map(|x| x & s).collect();
    }
    match (rng.random_range(0u8..2), p.bottom()) {
        (0, Some(b)) => vec![b; p.n()],
        _ => endo::identity(p),
    }
}

/// Change up to three images of `e`: to a random element, to an element
/// above the point (breaks deflation), or to one below it (may break
/// idempotence, monotonicity or the fixpoints' closure).  The bottom's
/// image may move too.
fn perturb(rng: &mut StdRng, p: &FinPoset, e: &mut [usize]) {
    let n = p.n();
    for _ in 0..rng.random_range(0usize..4) {
        let x = rng.random_range(0..n);
        e[x] = match rng.random_range(0u8..3) {
            0 => rng.random_range(0..n),
            1 => {
                let up = p.upset(x);
                up[rng.random_range(0..up.len())]
            }
            _ => {
                let down = p.downset(x);
                down[rng.random_range(0..down.len())]
            }
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn comparable_pairs_checks_agree_with_all_pairs(
        seed in 0u64..1u64 << 48,
        n in 1usize..140,
        kind in 0u8..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, strong) = match kind {
            // Powersets of 1–7 atoms with a mask endo: strong before any
            // perturbation.
            0 | 1 => {
                let atoms = rng.random_range(1usize..8);
                let p = FinPoset::powerset(atoms);
                let s = rng.random_range(0..1usize << atoms);
                let e = strong_map(&mut rng, &p, Some(s));
                (p, e)
            }
            _ => {
                let p = random_poset(&mut rng, n, kind != 4);
                let e = strong_map(&mut rng, &p, None);
                (p, e)
            }
        };
        let mut e = strong;
        perturb(&mut rng, &p, &mut e);
        // A map with every image random, and a deflationary one.
        let random: Vec<usize> = (0..p.n()).map(|_| rng.random_range(0..p.n())).collect();
        let deflationary: Vec<usize> = (0..p.n())
            .map(|x| {
                let down = p.downset(x);
                down[rng.random_range(0..down.len())]
            })
            .collect();
        let q = random_poset(&mut rng, p.n(), true);
        for map in [&e, &random, &deflationary] {
            prop_assert_eq!(
                morphism::is_monotone(&p, map, &p),
                monotone_all_pairs(&p, map, &p)
            );
            prop_assert_eq!(
                morphism::is_monotone(&p, map, &q),
                monotone_all_pairs(&p, map, &q)
            );
            prop_assert_eq!(
                endo::fixpoints_downward_closed(&p, map),
                closed_all_pairs(&p, map)
            );
            prop_assert_eq!(endo::is_strong_endo(&p, map), strong_all_pairs(&p, map));
        }
    }
}

/// The generators above reach both verdicts of every check, so the
/// agreement is not vacuous.
#[test]
fn the_generators_reach_both_verdicts() {
    let mut seen = [[false; 2]; 3];
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.random_range(1usize..6);
        let p = FinPoset::powerset(atoms);
        let s = rng.random_range(0..1usize << atoms);
        let mut e = strong_map(&mut rng, &p, Some(s));
        perturb(&mut rng, &p, &mut e);
        seen[0][usize::from(monotone_all_pairs(&p, &e, &p))] = true;
        seen[1][usize::from(closed_all_pairs(&p, &e))] = true;
        seen[2][usize::from(strong_all_pairs(&p, &e))] = true;
    }
    assert_eq!(seen, [[true; 2]; 3]);
}
