//! Strong endomorphisms `<<P → P>>` and their Boolean algebra of
//! complemented elements (Lemmas 2.3.1 / 2.3.2).
//!
//! A **strong endomorphism** of a ↓-poset `P` is an idempotent, downward
//! stationary morphism.  As discussed in DESIGN.md, we take the executable
//! definition to be: monotone, `⊥`-preserving, idempotent, **deflationary**
//! (`e(x) ≤ x`), with a downward-closed fixpoint set.  Deflation is exactly
//! what makes each fixpoint the *least preimage* of its fibre, so this is
//! the class for which Lemma 2.3.1(b) holds (`e`, viewed as a surjection
//! onto its image, is a strong morphism); the paper's claim that the
//! identity is the greatest element of `<<P → P>>` presupposes it.
//!
//! Complements are characterised operationally through Lemma 2.3.2(b): `e`
//! and `f` are complements iff `x ↦ (e(x), f(x))` is a ↓-poset isomorphism
//! `P ≅ e(P) × f(P)`.  [`enumerate_strong_endos`] brute-forces tiny posets
//! so tests can confirm this criterion coincides with the order-theoretic
//! definition (unique complements, Boolean structure).

use crate::morphism;
use crate::poset::FinPoset;

/// Whether `e` is idempotent.
pub fn is_idempotent(e: &[usize]) -> bool {
    (0..e.len()).all(|x| e[e[x]] == e[x])
}

/// Whether `e(x) ≤ x` everywhere.
pub fn is_deflationary(p: &FinPoset, e: &[usize]) -> bool {
    (0..p.n()).all(|x| p.leq(e[x], x))
}

/// Fixpoints of `e` (for idempotent `e`, its image).
pub fn fixpoints(e: &[usize]) -> Vec<usize> {
    (0..e.len()).filter(|&x| e[x] == x).collect()
}

/// Whether the fixpoint set of `e` is downward closed: every fixpoint's
/// downset, as a packed row, is a subset of the fixpoints' bitset.
pub fn fixpoints_downward_closed(p: &FinPoset, e: &[usize]) -> bool {
    let fixed = fixpoints(e);
    let mut fix = vec![0u64; p.n().div_ceil(64)];
    for &x in &fixed {
        fix[x / 64] |= 1 << (x % 64);
    }
    fixed.into_iter().all(|x| p.downset_within(x, &fix))
}

/// Whether `e` is a strong endomorphism of `P`.  The linear conditions
/// run first; the monotonicity and closure checks visit comparable pairs
/// only.
pub fn is_strong_endo(p: &FinPoset, e: &[usize]) -> bool {
    e.len() == p.n()
        && p.bottom().is_some_and(|b| e[b] == b)
        && is_idempotent(e)
        && is_deflationary(p, e)
        && morphism::is_monotone(p, e, p)
        && fixpoints_downward_closed(p, e)
}

/// Pointwise order on endomorphisms: `e ≤ f` iff `e(x) ≤ f(x)` for all `x`.
pub fn pointwise_leq(p: &FinPoset, e: &[usize], f: &[usize]) -> bool {
    (0..p.n()).all(|x| p.leq(e[x], f[x]))
}

/// Composition `e ∘ f` (first `f`, then `e`).
pub fn compose(e: &[usize], f: &[usize]) -> Vec<usize> {
    f.iter().map(|&x| e[x]).collect()
}

/// The identity endomorphism — the greatest element of `<<P → P>>`.
pub fn identity(p: &FinPoset) -> Vec<usize> {
    (0..p.n()).collect()
}

/// The constant-`⊥` endomorphism — the least element of `<<P → P>>`.
///
/// # Panics
/// Panics if `P` has no bottom.
pub fn constant_bottom(p: &FinPoset) -> Vec<usize> {
    let b = p.bottom().expect("not a ↓-poset");
    vec![b; p.n()]
}

/// Lemma 2.3.2(b) criterion: whether `e` and `f` are complements in
/// `<<P → P>>`, i.e. `x ↦ (e(x), f(x))` is an isomorphism
/// `P ≅ e(P) × f(P)`.
pub fn are_complements(p: &FinPoset, e: &[usize], f: &[usize]) -> bool {
    if !is_strong_endo(p, e) || !is_strong_endo(p, f) {
        return false;
    }
    let img_e = fixpoints(e);
    let img_f = fixpoints(f);
    if img_e.len() * img_f.len() != p.n() {
        return false; // cannot be a bijection
    }
    let pe = p.restrict(&img_e);
    let pf = p.restrict(&img_f);
    let prod = pe.product(&pf);
    // Map x to the product index of (e(x), f(x)).
    let pos = |img: &[usize], v: usize| img.iter().position(|&w| w == v).expect("fixpoint");
    let map: Vec<usize> = (0..p.n())
        .map(|x| pos(&img_e, e[x]) * img_f.len() + pos(&img_f, f[x]))
        .collect();
    p.is_isomorphism(&map, &prod)
}

/// Brute-force enumeration of all strong endomorphisms of a small poset.
///
/// Searches the space of deflationary maps (`Π_x |↓x|` candidates) and
/// filters; intended for exhaustive verification of Lemma 2.3.2 on spaces
/// of at most a few thousand candidates.
///
/// # Panics
/// Panics if the candidate space exceeds `2^24`.
pub fn enumerate_strong_endos(p: &FinPoset) -> Vec<Vec<usize>> {
    let downsets: Vec<Vec<usize>> = (0..p.n()).map(|x| p.downset(x)).collect();
    let space: f64 = downsets.iter().map(|d| d.len() as f64).product();
    assert!(
        space <= (1u64 << 24) as f64,
        "strong-endomorphism search space too large ({space:.0} candidates)"
    );
    let mut out = Vec::new();
    let mut current = vec![0usize; p.n()];
    enumerate_rec(p, &downsets, &mut current, 0, &mut out);
    out
}

fn enumerate_rec(
    p: &FinPoset,
    downsets: &[Vec<usize>],
    current: &mut Vec<usize>,
    pos: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if pos == p.n() {
        if is_strong_endo(p, current) {
            out.push(current.clone());
        }
        return;
    }
    for &cand in &downsets[pos] {
        current[pos] = cand;
        enumerate_rec(p, downsets, current, pos + 1, out);
    }
}

/// The unique complement of `e` among `candidates`, if exactly one exists.
pub fn complement_among<'a>(
    p: &FinPoset,
    e: &[usize],
    candidates: &'a [Vec<usize>],
) -> Option<&'a Vec<usize>> {
    let mut found = None;
    for c in candidates {
        if are_complements(p, e, c) {
            if found.is_some() {
                return None; // not unique
            }
            found = Some(c);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mask endomorphisms of the powerset poset: `e_S(x) = x ∩ S`.
    fn mask(p_bits: usize, s: usize) -> Vec<usize> {
        (0..(1 << p_bits)).map(|x| x & s).collect()
    }

    #[test]
    fn masks_are_strong_endos() {
        let p = FinPoset::powerset(3);
        for s in 0..8 {
            assert!(is_strong_endo(&p, &mask(3, s)), "mask {s:#b}");
        }
    }

    #[test]
    fn identity_is_greatest_constant_bottom_least() {
        let p = FinPoset::powerset(2);
        let id = identity(&p);
        let bot = constant_bottom(&p);
        assert!(is_strong_endo(&p, &id));
        assert!(is_strong_endo(&p, &bot));
        for e in enumerate_strong_endos(&p) {
            assert!(pointwise_leq(&p, &e, &id));
            assert!(pointwise_leq(&p, &bot, &e));
        }
    }

    #[test]
    fn mask_complements_partition_the_atoms() {
        let p = FinPoset::powerset(3);
        assert!(are_complements(&p, &mask(3, 0b011), &mask(3, 0b100)));
        assert!(are_complements(&p, &mask(3, 0b000), &mask(3, 0b111)));
        assert!(!are_complements(&p, &mask(3, 0b011), &mask(3, 0b110))); // overlap
        assert!(!are_complements(&p, &mask(3, 0b001), &mask(3, 0b010))); // not covering
    }

    #[test]
    fn complements_are_unique_lemma_2_3_2a() {
        // Exhaustively on the powerset of 2 atoms: every strong endo has at
        // most one complement among all strong endos.
        let p = FinPoset::powerset(2);
        let all = enumerate_strong_endos(&p);
        for e in &all {
            let complements: Vec<_> = all.iter().filter(|f| are_complements(&p, e, f)).collect();
            assert!(
                complements.len() <= 1,
                "endo {e:?} has {} complements",
                complements.len()
            );
        }
        // And the masks are complemented.
        let m1 = mask(2, 0b01);
        assert_eq!(complement_among(&p, &m1, &all), Some(&mask(2, 0b10)));
    }

    #[test]
    fn complemented_endos_of_powerset_are_exactly_the_masks() {
        // The component algebra of an independent 2-atom space is the
        // 4-element Boolean algebra of masks.
        let p = FinPoset::powerset(2);
        let all = enumerate_strong_endos(&p);
        let complemented: Vec<_> = all
            .iter()
            .filter(|e| all.iter().any(|f| are_complements(&p, e, f)))
            .cloned()
            .collect();
        let masks: Vec<Vec<usize>> = (0..4).map(|s| mask(2, s)).collect();
        assert_eq!(complemented.len(), 4);
        for m in &masks {
            assert!(complemented.contains(m));
        }
    }

    #[test]
    fn chain_has_endos_but_only_trivial_complements() {
        // On a chain, e ∧ f and e ∨ f never decompose nontrivially: the
        // only complemented strong endos are ⊥̄ and id.
        let p = FinPoset::chain(4);
        let all = enumerate_strong_endos(&p);
        assert!(all.len() > 2);
        let complemented: Vec<_> = all
            .iter()
            .filter(|e| all.iter().any(|f| are_complements(&p, e, f)))
            .collect();
        assert_eq!(complemented.len(), 2);
    }

    #[test]
    fn complement_criterion_matches_order_theoretic_definition() {
        // On small posets, check that the product-isomorphism criterion
        // coincides with: every common lower bound is ⊥̄ and every common
        // upper bound is id (the complement property in the poset
        // <<P→P>>).
        for p in [FinPoset::powerset(2), FinPoset::chain(3)] {
            let all = enumerate_strong_endos(&p);
            let id = identity(&p);
            let bot = constant_bottom(&p);
            for e in &all {
                for f in &all {
                    let criterion = are_complements(&p, e, f);
                    let lower_ok = all
                        .iter()
                        .filter(|g| pointwise_leq(&p, g, e) && pointwise_leq(&p, g, f))
                        .all(|g| *g == bot);
                    let upper_ok = all
                        .iter()
                        .filter(|g| pointwise_leq(&p, e, g) && pointwise_leq(&p, f, g))
                        .all(|g| *g == id);
                    assert_eq!(criterion, lower_ok && upper_ok, "mismatch for {e:?}, {f:?}");
                }
            }
        }
    }

    #[test]
    fn non_strong_maps_rejected() {
        let p = FinPoset::powerset(2);
        // Not idempotent.
        assert!(!is_strong_endo(&p, &[0, 0, 3, 3]));
        // Not deflationary.
        assert!(!is_strong_endo(&p, &[0, 3, 3, 3]));
        // Fixpoints not downward closed: fix {0,3} requires 1,2 fixed too.
        assert!(!is_strong_endo(&p, &[0, 0, 0, 3]));
    }

    #[test]
    fn composition_of_complementary_masks_is_bottom() {
        let p = FinPoset::powerset(3);
        let e = mask(3, 0b011);
        let f = mask(3, 0b100);
        assert_eq!(compose(&e, &f), constant_bottom(&p));
        assert_eq!(compose(&f, &e), constant_bottom(&p));
    }
}
