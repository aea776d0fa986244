//! Explicit finite posets, the carrier structures for §2.3's ↓-posets.
//!
//! A [`FinPoset`] stores the full order relation bit-packed, one `u64` word
//! per 64 elements, in both row orientations: `up[a]` is the upset of `a`
//! (bit `b` set iff `a ≤ b`) and `down[b]` the downset of `b`.  Payload
//! elements (database states, view states) are kept by the caller in
//! parallel vectors.  `LDB(D, μ)` under relation-by-relation inclusion is
//! the motivating example: `compview-core` enumerates states and builds the
//! poset's up-rows from each state's pool bits ([`FinPoset::from_up_rows`]);
//! spaces given as explicit state lists use [`FinPoset::from_leq`].
//!
//! The packed layout is what makes large state spaces cheap: rows are built
//! in parallel shards, and the axioms plus meet/join/cover queries reduce to
//! word-wise `&`/`!`/subset tests — 64 comparisons per instruction instead
//! of one bool per cell.

/// A finite partially ordered set over indices `0 … n-1`.
#[derive(Clone, PartialEq, Eq)]
pub struct FinPoset {
    n: usize,
    /// Words per bitrow.
    words: usize,
    /// Row `a`, bit `b`: `a ≤ b`.  Trailing bits of each row stay zero so
    /// derived equality is structural equality of the order.
    up: Vec<u64>,
    /// Row `b`, bit `a`: `a ≤ b` (transpose of `up`).
    down: Vec<u64>,
}

/// Indices of the set bits of a packed bitrow, ascending.
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
            .take_while(|&x| x != 0)
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// `sub ⊆ sup`, word-wise.
fn subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&s, &t)| s & !t == 0)
}

impl FinPoset {
    /// Build from a comparison function, verifying the poset axioms.
    /// Rows are filled in parallel shards (deterministically — each row
    /// depends only on `leq`), then transposed.
    ///
    /// # Panics
    /// Panics if `leq` is not reflexive, antisymmetric, and transitive.
    pub fn from_leq<F: Fn(usize, usize) -> bool + Sync>(n: usize, leq: F) -> FinPoset {
        let words = n.div_ceil(64);
        let threads = compview_parallel::num_threads();
        let up = compview_parallel::sharded_collect(n, threads, |range| {
            let mut chunk = vec![0u64; range.len() * words];
            for (i, a) in range.clone().enumerate() {
                let row = &mut chunk[i * words..(i + 1) * words];
                for b in 0..n {
                    if leq(a, b) {
                        row[b / 64] |= 1 << (b % 64);
                    }
                }
            }
            chunk
        });
        let p = FinPoset::with_up_rows(n, up);
        p.verify().expect("not a partial order");
        p
    }

    /// Build from packed up-rows computed elsewhere: `up` holds `n` rows
    /// of `n.div_ceil(64)` words, and bit `b` of row `a` is set iff
    /// `a ≤ b`.  The down-rows are the transpose.
    ///
    /// The axioms are the caller's to vouch for: only debug builds check
    /// them here, so a caller building from untrusted rows calls
    /// [`FinPoset::verify`] itself.
    ///
    /// # Panics
    /// Panics if `up` does not hold exactly `n` rows, or if a row has a
    /// bit set past `n`.
    pub fn from_up_rows(n: usize, up: Vec<u64>) -> FinPoset {
        let p = FinPoset::with_up_rows(n, up);
        debug_assert!(p.verify().is_ok(), "up-rows violate the poset axioms");
        p
    }

    /// The poset of the given up-rows and their transpose, unchecked.
    fn with_up_rows(n: usize, up: Vec<u64>) -> FinPoset {
        let words = n.div_ceil(64);
        assert_eq!(up.len(), n * words, "want {n} up-rows of {words} words");
        if !n.is_multiple_of(64) {
            let tail = !0u64 << (n % 64);
            assert!(
                up.chunks_exact(words).all(|row| row[words - 1] & tail == 0),
                "an up-row has a bit set past {n}"
            );
        }
        let mut down = vec![0u64; n * words];
        for a in 0..n {
            for b in iter_bits(&up[a * words..(a + 1) * words]) {
                down[b * words + a / 64] |= 1 << (a % 64);
            }
        }
        FinPoset { n, words, up, down }
    }

    /// The discrete poset (antichain) on `n` points.
    pub fn antichain(n: usize) -> FinPoset {
        FinPoset::from_leq(n, |a, b| a == b)
    }

    /// The chain `0 < 1 < … < n-1`.
    pub fn chain(n: usize) -> FinPoset {
        FinPoset::from_leq(n, |a, b| a <= b)
    }

    /// The powerset of `k` atoms ordered by inclusion (`2^k` elements,
    /// element `i` = bitmask `i`).  The shape of every Boolean algebra of
    /// components in this reproduction.
    pub fn powerset(k: usize) -> FinPoset {
        assert!(k < 20, "powerset poset too large");
        FinPoset::from_leq(1 << k, |a, b| a & !b == 0)
    }

    fn up_row(&self, a: usize) -> &[u64] {
        &self.up[a * self.words..(a + 1) * self.words]
    }

    fn down_row(&self, b: usize) -> &[u64] {
        &self.down[b * self.words..(b + 1) * self.words]
    }

    /// The all-elements bitrow (trailing bits zero).
    fn full_row(&self) -> Vec<u64> {
        let mut row = vec![!0u64; self.words];
        if !self.n.is_multiple_of(64) {
            row[self.words - 1] = (1u64 << (self.n % 64)) - 1;
        }
        if self.n == 0 {
            row.clear();
        }
        row
    }

    /// Check the poset axioms (word-wise: `O(n·edges/64)` instead of the
    /// cell-at-a-time `O(n³)`).
    pub fn verify(&self) -> Result<(), String> {
        let n = self.n;
        for a in 0..n {
            // Reflexivity: a ∈ up(a).
            if !self.leq(a, a) {
                return Err(format!("not reflexive at {a}"));
            }
            // Antisymmetry: up(a) ∩ down(a) = {a}.
            for (w, (&u, &d)) in self.up_row(a).iter().zip(self.down_row(a)).enumerate() {
                let mut both = u & d;
                if w == a / 64 {
                    both &= !(1u64 << (a % 64));
                }
                if both != 0 {
                    let b = w * 64 + both.trailing_zeros() as usize;
                    return Err(format!("not antisymmetric at ({a},{b})"));
                }
            }
            // Transitivity: b ∈ up(a) ⇒ up(b) ⊆ up(a).
            for b in iter_bits(self.up_row(a)) {
                if !subset(self.up_row(b), self.up_row(a)) {
                    let c = iter_bits(self.up_row(b))
                        .find(|&c| !self.leq(a, c))
                        .expect("witness exists");
                    return Err(format!("not transitive at ({a},{b},{c})"));
                }
            }
        }
        Ok(())
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The order relation.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        self.up[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// Strict order.
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a != b && self.leq(a, b)
    }

    /// The least element `⊥`, if one exists (making this a ↓-poset).
    pub fn bottom(&self) -> Option<usize> {
        let full = self.full_row();
        (0..self.n).find(|&b| self.up_row(b) == &full[..])
    }

    /// The greatest element `⊤`, if any.
    pub fn top(&self) -> Option<usize> {
        let full = self.full_row();
        (0..self.n).find(|&t| self.down_row(t) == &full[..])
    }

    /// The principal downset `{y : y ≤ x}`.
    pub fn downset(&self, x: usize) -> Vec<usize> {
        iter_bits(self.down_row(x)).collect()
    }

    /// The principal upset `{y : x ≤ y}`.
    pub fn upset(&self, x: usize) -> Vec<usize> {
        self.above(x).collect()
    }

    /// The principal upset of `x`, ascending, read straight off its packed
    /// row: a walk over the pairs `x ≤ y` alone, with no allocation.
    pub fn above(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        iter_bits(self.up_row(x))
    }

    /// Whether the principal downset of `x` lies inside `set`, a packed
    /// bitrow over the elements (bit `y % 64` of word `y / 64`, at least
    /// `n.div_ceil(64)` words): one word-wise subset test.
    pub fn downset_within(&self, x: usize, set: &[u64]) -> bool {
        subset(self.down_row(x), set)
    }

    /// Minimal elements of a subset.
    pub fn minimal_of(&self, subset: &[usize]) -> Vec<usize> {
        subset
            .iter()
            .copied()
            .filter(|&x| !subset.iter().any(|&y| self.lt(y, x)))
            .collect()
    }

    /// The least element of a subset, if one exists.
    pub fn least_of(&self, subset: &[usize]) -> Option<usize> {
        subset
            .iter()
            .copied()
            .find(|&x| subset.iter().all(|&y| self.leq(x, y)))
    }

    /// Greatest lower bound of two elements, if it exists.
    pub fn meet(&self, a: usize, b: usize) -> Option<usize> {
        // Lower bounds as one bitrow; the meet is the bound that contains
        // all the others in its downset.
        let lbs: Vec<u64> = self
            .down_row(a)
            .iter()
            .zip(self.down_row(b))
            .map(|(&x, &y)| x & y)
            .collect();
        let glb = iter_bits(&lbs).find(|&x| subset(&lbs, self.down_row(x)));
        glb
    }

    /// Least upper bound of two elements, if it exists.
    pub fn join(&self, a: usize, b: usize) -> Option<usize> {
        let ubs: Vec<u64> = self
            .up_row(a)
            .iter()
            .zip(self.up_row(b))
            .map(|(&x, &y)| x & y)
            .collect();
        let lub = iter_bits(&ubs).find(|&x| subset(&ubs, self.up_row(x)));
        lub
    }

    /// Whether the poset is a lattice (all binary meets and joins exist).
    pub fn is_lattice(&self) -> bool {
        for a in 0..self.n {
            for b in 0..self.n {
                if self.meet(a, b).is_none() || self.join(a, b).is_none() {
                    return false;
                }
            }
        }
        self.n > 0
    }

    /// The product poset, elements indexed `a * other.n() + b`.
    pub fn product(&self, other: &FinPoset) -> FinPoset {
        let (n1, n2) = (self.n, other.n);
        FinPoset::from_leq(n1 * n2, |x, y| {
            self.leq(x / n2, y / n2) && other.leq(x % n2, y % n2)
        })
    }

    /// The restriction of the order to `subset`; element `i` of the result
    /// is `subset[i]`.
    pub fn restrict(&self, subset: &[usize]) -> FinPoset {
        FinPoset::from_leq(subset.len(), |a, b| self.leq(subset[a], subset[b]))
    }

    /// Whether `f` (a bijection presented as a vector) is an order
    /// isomorphism onto `other`.
    pub fn is_isomorphism(&self, f: &[usize], other: &FinPoset) -> bool {
        if self.n != other.n() || f.len() != self.n {
            return false;
        }
        let mut seen = vec![false; self.n];
        for &y in f {
            if y >= self.n || seen[y] {
                return false;
            }
            seen[y] = true;
        }
        for a in 0..self.n {
            for b in 0..self.n {
                if self.leq(a, b) != other.leq(f[a], f[b]) {
                    return false;
                }
            }
        }
        true
    }

    /// Hasse-diagram edges: covering pairs `(lower, upper)`.
    /// `b` covers `a` iff the closed interval `[a, b] = up(a) ∩ down(b)`
    /// contains exactly the two endpoints — one popcount pass per edge.
    pub fn hasse_edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for a in 0..self.n {
            for b in iter_bits(self.up_row(a)) {
                if b == a {
                    continue;
                }
                let interval: u32 = self
                    .up_row(a)
                    .iter()
                    .zip(self.down_row(b))
                    .map(|(&x, &y)| (x & y).count_ones())
                    .sum();
                if interval == 2 {
                    edges.push((a, b));
                }
            }
        }
        edges
    }
}

impl std::fmt::Debug for FinPoset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FinPoset(n={}, covers={:?})", self.n, self.hasse_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_structure() {
        let c = FinPoset::chain(4);
        assert_eq!(c.bottom(), Some(0));
        assert_eq!(c.top(), Some(3));
        assert!(c.is_lattice());
        assert_eq!(c.hasse_edges(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn antichain_has_no_bottom_beyond_one() {
        let a = FinPoset::antichain(3);
        assert_eq!(a.bottom(), None);
        assert!(!a.is_lattice());
        assert_eq!(FinPoset::antichain(1).bottom(), Some(0));
    }

    #[test]
    fn powerset_is_boolean_lattice() {
        let p = FinPoset::powerset(3);
        assert_eq!(p.n(), 8);
        assert_eq!(p.bottom(), Some(0));
        assert_eq!(p.top(), Some(7));
        assert!(p.is_lattice());
        assert_eq!(p.meet(0b011, 0b110), Some(0b010));
        assert_eq!(p.join(0b011, 0b110), Some(0b111));
        // Hasse edges: each set covered by its single-bit extensions: 3·4=12.
        assert_eq!(p.hasse_edges().len(), 12);
    }

    #[test]
    #[should_panic(expected = "not a partial order")]
    fn cyclic_relation_rejected() {
        FinPoset::from_leq(2, |_, _| true); // 0≤1≤0 with 0≠1
    }

    #[test]
    fn downsets_and_least() {
        let p = FinPoset::powerset(2); // ∅, {0}, {1}, {0,1}
        assert_eq!(p.downset(0b11), vec![0, 1, 2, 3]);
        assert_eq!(p.downset(0b01), vec![0, 1]);
        assert_eq!(p.least_of(&[1, 3]), Some(1));
        assert_eq!(p.least_of(&[1, 2]), None); // incomparable
        assert_eq!(p.minimal_of(&[1, 2, 3]), vec![1, 2]);
    }

    #[test]
    fn product_of_chains() {
        let c2 = FinPoset::chain(2);
        let grid = c2.product(&c2);
        assert_eq!(grid.n(), 4);
        assert!(grid.is_lattice());
        // Isomorphic to the 2-atom powerset.
        let ps = FinPoset::powerset(2);
        // Map (a,b) = a*2+b ↦ bitmask a | b<<1: 0↦0, 1↦2, 2↦1, 3↦3.
        assert!(grid.is_isomorphism(&[0, 2, 1, 3], &ps));
        // Not every bijection is an isomorphism.
        assert!(!grid.is_isomorphism(&[3, 2, 1, 0], &ps));
    }

    #[test]
    fn restriction_keeps_order() {
        let p = FinPoset::powerset(2);
        let sub = p.restrict(&[0, 1, 3]); // ∅ < {0} < {0,1}: a 3-chain
        assert!(p.verify().is_ok());
        assert_eq!(sub.hasse_edges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn packed_rows_span_word_boundaries() {
        // n = 130 > two words: chain order must survive packing, and the
        // word-wise queries must agree with the definitionally computed
        // answers at indices on both sides of the 64-bit seams.
        let c = FinPoset::chain(130);
        assert_eq!(c.bottom(), Some(0));
        assert_eq!(c.top(), Some(129));
        for (a, b) in [(0, 129), (63, 64), (64, 63), (127, 128), (129, 129)] {
            assert_eq!(c.leq(a, b), a <= b);
        }
        assert_eq!(c.meet(63, 65), Some(63));
        assert_eq!(c.join(63, 65), Some(65));
        assert_eq!(c.downset(64).len(), 65);
        assert_eq!(c.upset(64).len(), 66);
        // An antichain past one word: no meets, equality only.
        let a = FinPoset::antichain(70);
        assert_eq!(a.meet(3, 68), None);
        assert!(a.leq(68, 68) && !a.leq(3, 68));
    }

    #[test]
    fn up_rows_build_the_same_poset_as_leq() {
        // Divisibility on 1..=97 spans two words per row.
        let p = FinPoset::from_leq(97, |a, b| (b + 1) % (a + 1) == 0);
        assert!(FinPoset::from_up_rows(97, p.up.clone()) == p);
        // The subset order on 3-bit masks, one up-row word per element.
        let up: Vec<u64> = (0..8u64)
            .map(|a| (0..8u64).filter(|b| a & !b == 0).map(|b| 1 << b).sum())
            .collect();
        assert!(FinPoset::from_up_rows(8, up) == FinPoset::powerset(3));
        assert!(FinPoset::from_up_rows(0, Vec::new()) == FinPoset::antichain(0));
    }

    #[test]
    #[should_panic(expected = "bit set past 3")]
    fn up_rows_past_the_last_element_are_refused() {
        FinPoset::from_up_rows(3, vec![0b1001, 0b010, 0b100]);
    }

    #[test]
    fn thread_counts_agree() {
        // from_leq row construction is sharded; the packed matrix must be
        // identical for every thread count.
        let build = || {
            FinPoset::from_leq(97, |a, b| {
                // Divisibility order on 1..=97.
                (b + 1) % (a + 1) == 0
            })
        };
        let reference = build();
        for t in ["1", "2", "8"] {
            std::env::set_var("COMPVIEW_THREADS", t);
            assert!(build() == reference);
        }
        std::env::remove_var("COMPVIEW_THREADS");
        assert_eq!(reference.bottom(), Some(0));
    }
}
