//! The unifying abstraction over concrete component algebras: a
//! **component family**.
//!
//! Each family realises the Boolean algebra of components of one schema
//! class *structurally*: atoms indexed `0 … n-1`, components identified
//! with atom masks, and three operations — the endomorphism `γ_S⊖`,
//! reconstruction from complementary parts, and constant-complement
//! translation (Theorem 3.1.1).  Implementations in this crate:
//!
//! * [`crate::pathview::PathComponents`] — chain join dependencies
//!   (Ex 2.1.1);
//! * [`crate::treeview::TreeComponents`] — acyclic join dependencies;
//! * [`crate::horizontal::HorizontalComponents`] — type-based horizontal
//!   decompositions (§2.1's motivating use of interacting types);
//! * [`crate::subschema::SubschemaComponents`] — independent relation
//!   groups (Ex 1.3.6's Γ₁/Γ₂ generalised).
//!
//! [`verify_family`] checks the §3 laws on sample states for any
//! implementation — the generic contract every new family must meet.

use compview_relation::Instance;

/// A structurally implemented Boolean algebra of components.
pub trait ComponentFamily {
    /// Number of atoms (generators) of the algebra.
    fn n_atoms(&self) -> usize;

    /// The relation symbols this family manages.  Instances handed to the
    /// family's operations bind exactly these (composite families project
    /// before delegating).
    fn relations(&self) -> Vec<String>;

    /// The mask of the top element `1_D`.
    fn full_mask(&self) -> u32 {
        debug_assert!(self.n_atoms() <= 31);
        (1u32 << self.n_atoms()) - 1
    }

    /// The strong complement of a component (Theorem 2.3.3(b)).
    fn complement(&self, mask: u32) -> u32 {
        !mask & self.full_mask()
    }

    /// The endomorphism `γ_S⊖`: the component-`S` part of a legal state.
    fn endo(&self, mask: u32, base: &Instance) -> Instance;

    /// Reconstruct a state from the parts of complementary components
    /// (the inverse of the decomposition isomorphism of Lemma 2.3.2(b)).
    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance;

    /// Whether `part` is a legal view state of component `mask` (i.e. in
    /// the image of `γ_S⊖` — the §1.1 surjectivity discipline).
    fn is_component_state(&self, mask: u32, part: &Instance) -> bool;

    /// A canonical encoding of what this family's endomorphisms depend
    /// on besides their arguments, opening with a tag of the family's
    /// type: two families with equal fingerprints have equal
    /// [`ComponentFamily::endo`] on every mask and state.  It keys the
    /// component verdicts a shared space records
    /// ([`crate::StateSpace::verdict`]), so sessions of one space check
    /// each component once between them.  `None`, the default, opts out:
    /// every session then checks for itself.
    fn fingerprint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Constant-complement translation (Theorem 3.1.1): the unique legal
    /// state whose `mask` part is `new_part` and whose complement part
    /// equals `base`'s.
    ///
    /// # Errors
    /// Returns a message when `new_part` is not a legal component state.
    fn translate(
        &self,
        mask: u32,
        base: &Instance,
        new_part: &Instance,
    ) -> Result<Instance, String> {
        if !self.is_component_state(mask, new_part) {
            return Err(format!("not a legal state of component {mask:#b}"));
        }
        Ok(self.reconstruct(new_part, &self.endo(self.complement(mask), base)))
    }
}

/// The product of two component families over **disjoint relation
/// symbols**: atoms are the disjoint union of both families' atoms
/// (`left` first), realising the composition of Boolean algebras
/// `B₁ × B₂`.
///
/// This is how heterogeneous schemas are decomposed in practice: e.g. a
/// path-schema relation *and* an independent horizontally-partitioned
/// table in one database, each updated through its own components.
pub struct PairFamily<F1, F2> {
    left: F1,
    right: F2,
}

impl<F1: ComponentFamily, F2: ComponentFamily> PairFamily<F1, F2> {
    /// Combine two families.  The families must manage disjoint relation
    /// symbols; instances passed to the pair must bind both sides'
    /// relations (the per-side `endo`/`reconstruct` see only their own).
    pub fn new(left: F1, right: F2) -> PairFamily<F1, F2> {
        assert!(
            left.n_atoms() + right.n_atoms() <= 31,
            "combined algebra too large for mask representation"
        );
        let lr = left.relations();
        for r in right.relations() {
            assert!(!lr.contains(&r), "relation {r:?} managed by both sides");
        }
        PairFamily { left, right }
    }

    /// Restrict an instance to one side's relations.
    fn project(&self, names: &[String], inst: &Instance) -> Instance {
        let mut out = Instance::new();
        for n in names {
            out.set(n.clone(), inst.rel(n).clone());
        }
        out
    }

    fn split(&self, mask: u32) -> (u32, u32) {
        let l = mask & self.left.full_mask();
        let r = (mask >> self.left.n_atoms()) & self.right.full_mask();
        (l, r)
    }

    /// The left sub-family.
    pub fn left(&self) -> &F1 {
        &self.left
    }

    /// The right sub-family.
    pub fn right(&self) -> &F2 {
        &self.right
    }
}

/// Merge two instances over disjoint relation symbol sets.
fn merge_disjoint(a: &Instance, b: &Instance) -> Instance {
    let mut out = a.clone();
    for (name, rel) in b.iter() {
        assert!(
            out.get(name).is_none(),
            "relation {name:?} bound on both sides"
        );
        out.set(name.to_owned(), rel.clone());
    }
    out
}

impl<F1: ComponentFamily, F2: ComponentFamily> ComponentFamily for PairFamily<F1, F2> {
    fn n_atoms(&self) -> usize {
        self.left.n_atoms() + self.right.n_atoms()
    }

    fn relations(&self) -> Vec<String> {
        let mut out = self.left.relations();
        out.extend(self.right.relations());
        out
    }

    fn endo(&self, mask: u32, base: &Instance) -> Instance {
        let (l, r) = self.split(mask);
        let lb = self.project(&self.left.relations(), base);
        let rb = self.project(&self.right.relations(), base);
        merge_disjoint(&self.left.endo(l, &lb), &self.right.endo(r, &rb))
    }

    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
        let (ln, rn) = (self.left.relations(), self.right.relations());
        merge_disjoint(
            &self
                .left
                .reconstruct(&self.project(&ln, a), &self.project(&ln, b)),
            &self
                .right
                .reconstruct(&self.project(&rn, a), &self.project(&rn, b)),
        )
    }

    fn is_component_state(&self, mask: u32, part: &Instance) -> bool {
        let (l, r) = self.split(mask);
        self.left
            .is_component_state(l, &self.project(&self.left.relations(), part))
            && self
                .right
                .is_component_state(r, &self.project(&self.right.relations(), part))
    }
}

/// A report from [`verify_family`].
#[derive(Debug, Default)]
pub struct FamilyReport {
    /// Law violations found, as human-readable descriptions.
    pub violations: Vec<String>,
    /// Number of (state, mask) law instances checked.
    pub checked: usize,
}

impl FamilyReport {
    /// Whether every law held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the §3 contract of a family on sample legal states:
///
/// 1. decomposition is lossless at every mask;
/// 2. parts are legal component states (images are closed);
/// 3. the identity update is the identity;
/// 4. translation is exact on the updated component and constant on the
///    complement (taking other samples' parts as update targets);
/// 5. translation is symmetric (undo restores the base) and functorial
///    (two steps equal the direct step).
pub fn verify_family<F: ComponentFamily + Sync>(family: &F, samples: &[Instance]) -> FamilyReport {
    verify_family_with(family, samples, compview_parallel::num_threads())
}

/// [`verify_family`] with an explicit worker count.  The `(sample, mask)`
/// law cells are independent, so they are sharded; per-cell violation lists
/// concatenate in cell order, making the report byte-identical to the
/// sequential scan for every thread count.
pub fn verify_family_with<F: ComponentFamily + Sync>(
    family: &F,
    samples: &[Instance],
    threads: usize,
) -> FamilyReport {
    let masks = family.full_mask() as usize + 1;
    let cells = samples.len() * masks;
    let per_cell: Vec<Vec<String>> = compview_parallel::sharded_collect(cells, threads, |range| {
        range
            .map(|cell| verify_cell(family, samples, cell / masks, (cell % masks) as u32))
            .collect()
    });
    FamilyReport {
        violations: per_cell.into_iter().flatten().collect(),
        checked: cells,
    }
}

/// The checks of one `(sample, mask)` law cell, violations in sequential
/// order.
fn verify_cell<F: ComponentFamily>(
    family: &F,
    samples: &[Instance],
    si: usize,
    mask: u32,
) -> Vec<String> {
    let mut violations = Vec::new();
    let base = &samples[si];
    let part = family.endo(mask, base);
    let co = family.endo(family.complement(mask), base);
    // (1) lossless.
    if &family.reconstruct(&part, &co) != base {
        violations.push(format!(
            "sample {si}, mask {mask:#b}: decomposition not lossless"
        ));
        return violations;
    }
    // (2) parts are component states.
    if !family.is_component_state(mask, &part) {
        violations.push(format!(
            "sample {si}, mask {mask:#b}: endo image not a component state"
        ));
    }
    // (3) identity update.
    match family.translate(mask, base, &part) {
        Ok(same) if &same == base => {}
        Ok(_) => violations.push(format!(
            "sample {si}, mask {mask:#b}: identity update changed the state"
        )),
        Err(e) => violations.push(format!(
            "sample {si}, mask {mask:#b}: identity update rejected: {e}"
        )),
    }
    // (4)+(5) against every other sample's part as the target.
    for (sj, other) in samples.iter().enumerate() {
        let target = family.endo(mask, other);
        let Ok(updated) = family.translate(mask, base, &target) else {
            violations.push(format!(
                "samples {si}→{sj}, mask {mask:#b}: translation rejected"
            ));
            continue;
        };
        if family.endo(mask, &updated) != target {
            violations.push(format!("samples {si}→{sj}, mask {mask:#b}: not exact"));
        }
        if family.endo(family.complement(mask), &updated) != co {
            violations.push(format!(
                "samples {si}→{sj}, mask {mask:#b}: complement moved"
            ));
        }
        // Symmetry: undo.
        match family.translate(mask, &updated, &part) {
            Ok(back) if &back == base => {}
            _ => violations.push(format!("samples {si}→{sj}, mask {mask:#b}: undo failed")),
        }
        // Functoriality: direct = via the update.
        let direct = family.translate(mask, base, &target).expect("checked");
        let via = family.translate(mask, &updated, &target).expect("checked");
        if direct != via {
            violations.push(format!("samples {si}→{sj}, mask {mask:#b}: not functorial"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use compview_relation::{rel, Relation};

    /// A deliberately broken family for exercising the verifier: the
    /// "endomorphism" of atom 0 forgets one tuple too many.
    struct Broken;

    impl ComponentFamily for Broken {
        fn n_atoms(&self) -> usize {
            1
        }
        fn relations(&self) -> Vec<String> {
            vec!["R".into()]
        }
        fn endo(&self, mask: u32, base: &Instance) -> Instance {
            if mask == 0 {
                Instance::new().with("R", Relation::empty(1))
            } else {
                let mut r = base.rel("R").clone();
                let first = r.iter().next().cloned();
                if let Some(first) = first {
                    r.remove(&first); // lossy!
                }
                Instance::new().with("R", r)
            }
        }
        fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
            a.union(b)
        }
        fn is_component_state(&self, _mask: u32, _part: &Instance) -> bool {
            true
        }
    }

    #[test]
    fn verifier_catches_lossy_family() {
        let samples = vec![
            Instance::new().with("R", rel(1, [["x"], ["y"]])),
            Instance::new().with("R", rel(1, [["z"]])),
        ];
        let report = verify_family(&Broken, &samples);
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.contains("lossless")));
    }

    #[test]
    fn default_mask_ops() {
        struct Three;
        impl ComponentFamily for Three {
            fn n_atoms(&self) -> usize {
                3
            }
            fn relations(&self) -> Vec<String> {
                vec!["R".into()]
            }
            fn endo(&self, _: u32, b: &Instance) -> Instance {
                b.clone()
            }
            fn reconstruct(&self, a: &Instance, _: &Instance) -> Instance {
                a.clone()
            }
            fn is_component_state(&self, _: u32, _: &Instance) -> bool {
                true
            }
        }
        let f = Three;
        assert_eq!(f.full_mask(), 0b111);
        assert_eq!(f.complement(0b001), 0b110);
        assert_eq!(f.complement(f.full_mask()), 0);
    }
}
