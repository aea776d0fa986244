//! Morphisms of ↓-posets and the *strong morphism* machinery of §2.3.
//!
//! A map `f : P → Q` between ↓-posets (posets with least element `⊥`) is a
//! **morphism** when it is monotone and `⊥`-preserving.  It is:
//!
//! * **least right invertible** when it is surjective, each image point has
//!   a least preimage, and the least-preimage map `f# : Q → P` is itself a
//!   morphism;
//! * **downward stationary** when the set `lp(f)` of elements that *are*
//!   least preimages is downward closed;
//! * **strong** when it is both.
//!
//! The endomorphism `f⊖ = f# ∘ f` of a strong morphism projects each
//! element onto the least representative of its fibre — the algebraic heart
//! of the component construction (Lemma 2.3.1).
//!
//! Maps are plain index vectors `f[p] = q`; `P` and `Q` are [`FinPoset`]s.

use crate::poset::FinPoset;

/// Whether `f : P → Q` is monotone.  Walks only the comparable pairs
/// `a ≤ b`, off `P`'s packed up-rows, instead of all `n²` pairs.
pub fn is_monotone(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    debug_assert_eq!(f.len(), p.n());
    (0..p.n()).all(|a| p.above(a).all(|b| q.leq(f[a], f[b])))
}

/// Whether `f` preserves the least element (`f(⊥_P) = ⊥_Q`).
///
/// Returns `false` when either poset lacks a bottom.
pub fn is_bottom_preserving(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    match (p.bottom(), q.bottom()) {
        (Some(bp), Some(bq)) => f[bp] == bq,
        _ => false,
    }
}

/// Whether `f : P → Q` is a ↓-poset morphism.
pub fn is_morphism(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    is_monotone(p, f, q) && is_bottom_preserving(p, f, q)
}

/// Whether `f` is surjective onto `Q`.
pub fn is_surjective(f: &[usize], q: &FinPoset) -> bool {
    let mut hit = vec![false; q.n()];
    for &y in f {
        hit[y] = true;
    }
    hit.into_iter().all(|h| h)
}

/// The least preimage of each `y ∈ Q` under `f`, when it exists.
///
/// `result[y] = Some(x)` iff `x` is the least element of the fibre
/// `f⁻¹(y)`; `None` if the fibre is empty or has no least element.
pub fn least_preimages(p: &FinPoset, f: &[usize], q: &FinPoset) -> Vec<Option<usize>> {
    (0..q.n())
        .map(|y| {
            let fibre: Vec<usize> = (0..p.n()).filter(|&x| f[x] == y).collect();
            p.least_of(&fibre)
        })
        .collect()
}

/// The least right inverse `f# : Q → P`, if `f` is surjective, admits least
/// preimages, and `f#` is a morphism.
pub fn least_right_inverse(p: &FinPoset, f: &[usize], q: &FinPoset) -> Option<Vec<usize>> {
    if !is_surjective(f, q) {
        return None;
    }
    let lp = least_preimages(p, f, q);
    let inv: Option<Vec<usize>> = lp.into_iter().collect();
    let inv = inv?;
    if is_morphism(q, &inv, p) {
        Some(inv)
    } else {
        None
    }
}

/// The set `lp(f)`: a membership vector marking elements of `P` that are
/// least preimages of their image.
pub fn lp_set(p: &FinPoset, f: &[usize], q: &FinPoset) -> Vec<bool> {
    let lp = least_preimages(p, f, q);
    f.iter()
        .enumerate()
        .map(|(x, &y)| lp[y] == Some(x))
        .collect()
}

/// Whether `f` is downward stationary: `lp(f)` is downward closed.
pub fn is_downward_stationary(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    let lp = lp_set(p, f, q);
    for x in 0..p.n() {
        if lp[x] {
            for (y, &ly) in lp.iter().enumerate() {
                if p.leq(y, x) && !ly {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether `f : P → Q` is a **strong morphism** of ↓-posets.
pub fn is_strong_morphism(p: &FinPoset, f: &[usize], q: &FinPoset) -> bool {
    is_morphism(p, f, q)
        && least_right_inverse(p, f, q).is_some()
        && is_downward_stationary(p, f, q)
}

/// The endomorphism `f⊖ = f# ∘ f` of a strong morphism, or `None` if `f`
/// is not least right invertible.
pub fn endomorphism_of(p: &FinPoset, f: &[usize], q: &FinPoset) -> Option<Vec<usize>> {
    let inv = least_right_inverse(p, f, q)?;
    Some((0..p.n()).map(|x| inv[f[x]]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example: P = powerset of {0,1}, Q = powerset of {0},
    /// f = projection dropping atom 1.  This is the ↓-poset shadow of a
    /// strongly complemented strong view.
    fn projection_example() -> (FinPoset, Vec<usize>, FinPoset) {
        let p = FinPoset::powerset(2);
        let q = FinPoset::powerset(1);
        let f: Vec<usize> = (0..4).map(|m| m & 1).collect();
        (p, f, q)
    }

    #[test]
    fn projection_is_strong() {
        let (p, f, q) = projection_example();
        assert!(is_morphism(&p, &f, &q));
        assert!(is_surjective(&f, &q));
        assert!(is_strong_morphism(&p, &f, &q));
        // f# embeds Q back as {∅, {0}}.
        assert_eq!(least_right_inverse(&p, &f, &q).unwrap(), vec![0, 1]);
        // f⊖ masks off atom 1.
        assert_eq!(endomorphism_of(&p, &f, &q).unwrap(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn lp_set_of_projection_is_downward_closed() {
        let (p, f, q) = projection_example();
        assert_eq!(lp_set(&p, &f, &q), vec![true, true, false, false]);
        assert!(is_downward_stationary(&p, &f, &q));
    }

    #[test]
    fn xor_map_is_not_strong() {
        // The ↓-poset shadow of the Γ3 view of Example 1.3.6: on the
        // powerset of {r, s}, map each state to r XOR s.  Fibre of "1" is
        // {{r},{s}} — no least element, so no least preimages.
        let p = FinPoset::powerset(2);
        let q = FinPoset::powerset(1);
        let f: Vec<usize> = (0..4).map(|m| (m & 1) ^ ((m >> 1) & 1)).collect();
        assert!(!is_monotone(&p, &f, &q)); // {r} ≤ {r,s} but 1 > 0
        assert!(least_right_inverse(&p, &f, &q).is_none());
        assert!(!is_strong_morphism(&p, &f, &q));
    }

    #[test]
    fn identity_and_constant_bottom_are_strong() {
        let p = FinPoset::powerset(2);
        let id: Vec<usize> = (0..4).collect();
        assert!(is_strong_morphism(&p, &id, &p));
        assert_eq!(endomorphism_of(&p, &id, &p).unwrap(), id);
        // Collapse to the one-point poset (the zero view 0_D).
        let one = FinPoset::powerset(0);
        let zero: Vec<usize> = vec![0; 4];
        assert!(is_strong_morphism(&p, &zero, &one));
        assert_eq!(endomorphism_of(&p, &zero, &one).unwrap(), vec![0; 4]);
    }

    #[test]
    fn monotone_but_no_least_preimage() {
        // Q = chain of 2; P = ⊥ < {a, b} antichain < ⊤ shape:
        // take P = powerset(2), f sends ∅↦0 and everything else ↦1.
        // Fibre of 1 = {{0},{1},{0,1}} has no least element.
        let p = FinPoset::powerset(2);
        let q = FinPoset::chain(2);
        let f = vec![0, 1, 1, 1];
        assert!(is_morphism(&p, &f, &q));
        assert_eq!(least_preimages(&p, &f, &q), vec![Some(0), None]);
        assert!(!is_strong_morphism(&p, &f, &q));
    }

    #[test]
    fn downward_stationarity_can_fail_alone() {
        // P: chain 0<1<2<3, Q: chain 0<1<2, f = [0,1,1,2].
        // Least preimages: 0↦0, 1↦1, 2↦3; lp = {0,1,3}; 2 ≤ 3 but 2 ∉ lp.
        let p = FinPoset::chain(4);
        let q = FinPoset::chain(3);
        let f = vec![0, 1, 1, 2];
        assert!(is_morphism(&p, &f, &q));
        assert!(least_right_inverse(&p, &f, &q).is_some());
        assert!(!is_downward_stationary(&p, &f, &q));
        assert!(!is_strong_morphism(&p, &f, &q));
    }

    #[test]
    fn non_surjective_map_has_no_least_right_inverse() {
        let p = FinPoset::chain(2);
        let q = FinPoset::chain(3);
        let f = vec![0, 1];
        assert!(is_morphism(&p, &f, &q));
        assert!(least_right_inverse(&p, &f, &q).is_none());
    }

    #[test]
    fn endomorphism_is_idempotent_and_deflationary() {
        let (p, f, q) = projection_example();
        let e = endomorphism_of(&p, &f, &q).unwrap();
        for x in 0..p.n() {
            assert_eq!(e[e[x]], e[x], "idempotent");
            assert!(p.leq(e[x], x), "deflationary");
        }
    }
}
