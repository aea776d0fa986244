//! **Subschema** components: independent relation groups.
//!
//! The simplest components in the paper are sub-schemas: in Example 1.3.6,
//! `Γ₁` (keep `R`) and `Γ₂` (keep `S`) are each other's strong complements
//! because the unconstrained schema decomposes as a product over its
//! relations.  [`SubschemaComponents`] generalises this to any partition
//! of the relation symbols into groups with no cross-group constraints:
//! atoms are the groups, the endomorphism of a component empties every
//! relation outside it, and reconstruction is relation-wise union.

use crate::family::ComponentFamily;
use compview_relation::{binio, Instance, Signature};

/// Components given by a partition of the relation symbols.
#[derive(Clone, Debug)]
pub struct SubschemaComponents {
    sig: Signature,
    groups: Vec<Vec<String>>,
}

impl SubschemaComponents {
    /// Build from a partition of `sig`'s relation names into groups.
    ///
    /// # Panics
    /// Panics unless the groups exactly partition the signature's names.
    pub fn new(sig: Signature, groups: Vec<Vec<String>>) -> SubschemaComponents {
        assert!(
            (1..=31).contains(&groups.len()),
            "need between 1 and 31 groups"
        );
        let mut seen = std::collections::BTreeSet::new();
        for g in &groups {
            for name in g {
                assert!(
                    sig.decl(name).is_some(),
                    "group member {name:?} not in signature"
                );
                assert!(seen.insert(name.clone()), "relation {name:?} in two groups");
            }
        }
        assert_eq!(
            seen.len(),
            sig.len(),
            "groups must cover every relation symbol"
        );
        SubschemaComponents { sig, groups }
    }

    /// One group per relation symbol — the finest subschema decomposition.
    pub fn singletons(sig: Signature) -> SubschemaComponents {
        let groups = sig.names().map(|n| vec![n.to_owned()]).collect();
        SubschemaComponents::new(sig, groups)
    }

    /// The group (atom) index of a relation name.
    pub fn group_of(&self, rel: &str) -> Option<usize> {
        self.groups.iter().position(|g| g.iter().any(|n| n == rel))
    }

    /// The signature.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }
}

impl ComponentFamily for SubschemaComponents {
    fn n_atoms(&self) -> usize {
        self.groups.len()
    }

    fn relations(&self) -> Vec<String> {
        self.sig.names().map(str::to_owned).collect()
    }

    fn endo(&self, mask: u32, base: &Instance) -> Instance {
        let mut out = Instance::null_model(&self.sig);
        for (i, group) in self.groups.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                for name in group {
                    out.set(name.clone(), base.rel(name).clone());
                }
            }
        }
        out
    }

    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
        a.union(b)
    }

    fn is_component_state(&self, mask: u32, part: &Instance) -> bool {
        part.conforms_to(&self.sig)
            && self.groups.iter().enumerate().all(|(i, group)| {
                (mask >> i) & 1 == 1 || group.iter().all(|name| part.rel(name).is_empty())
            })
    }

    /// The tag `"subschema"`, then the signature (each relation's name
    /// and attributes, in declaration order) and the groups in atom
    /// order, every list and string length-prefixed.
    fn fingerprint(&self) -> Option<Vec<u8>> {
        let len = |n: usize| u32::try_from(n).expect("count fits u32");
        let mut out = Vec::new();
        binio::put_str(&mut out, "subschema");
        binio::put_u32(&mut out, len(self.sig.len()));
        for decl in self.sig.decls() {
            binio::put_str(&mut out, decl.name());
            binio::put_u32(&mut out, len(decl.arity()));
            for attr in decl.attrs() {
                binio::put_str(&mut out, attr);
            }
        }
        binio::put_u32(&mut out, len(self.groups.len()));
        for group in &self.groups {
            binio::put_u32(&mut out, len(group.len()));
            for name in group {
                binio::put_str(&mut out, name);
            }
        }
        Some(out)
    }
}

/// Materialise one component of a subschema family as a [`crate::View`]
/// over the base signature (useful for enumerated verification: these
/// views are strong, and complementary groups are strong complements).
pub fn component_view(sc: &SubschemaComponents, mask: u32, name: &str) -> crate::view::View {
    use compview_relation::RaExpr;
    let mut rels = Vec::new();
    for (i, group) in sc.groups.iter().enumerate() {
        if (mask >> i) & 1 == 1 {
            for rel_name in group {
                let decl = sc.sig().expect_decl(rel_name).clone();
                rels.push((decl, RaExpr::rel(rel_name.clone())));
            }
        }
    }
    crate::view::View::new(name, rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::verify_family;
    use crate::paper::example_1_3_6 as ex;
    use crate::{strong, MatView};
    use compview_relation::{rel, RelDecl};

    fn two_unary() -> SubschemaComponents {
        SubschemaComponents::singletons(Signature::new([
            RelDecl::new("R", ["A"]),
            RelDecl::new("S", ["A"]),
        ]))
    }

    #[test]
    fn group_lookup() {
        let sc = two_unary();
        assert_eq!(sc.n_atoms(), 2);
        assert_eq!(sc.group_of("R"), Some(0));
        assert_eq!(sc.group_of("S"), Some(1));
        assert_eq!(sc.group_of("T"), None);
    }

    #[test]
    fn endo_empties_other_groups() {
        let sc = two_unary();
        let base = ex::base_instance();
        let r_part = sc.endo(0b01, &base);
        assert_eq!(r_part.rel("R"), base.rel("R"));
        assert!(r_part.rel("S").is_empty());
    }

    #[test]
    fn family_contract_holds() {
        let sc = two_unary();
        let samples = vec![
            ex::base_instance(),
            Instance::null_model(sc.sig()),
            Instance::null_model(sc.sig()).with("R", rel(1, [["x"]])),
        ];
        let report = verify_family(&sc, &samples);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn translate_is_exactly_example_1_3_6s_gamma2_strategy() {
        // Subschema translation of the R component with S constant must
        // coincide with the symbolic xor-module's Γ2-constant update.
        let sc = two_unary();
        let base = ex::base_instance();
        let new_r = rel(1, [["a1"], ["a9"]]);
        let part = Instance::null_model(sc.sig()).with("R", new_r.clone());
        let out = sc.translate(0b01, &base, &part).unwrap();
        assert_eq!(out, crate::xor::update_r_const_s(&base, &new_r));
    }

    #[test]
    fn component_views_are_strong_complements() {
        let sc = two_unary();
        let sp = ex::space(2);
        let g_r = MatView::materialise(component_view(&sc, 0b01, "R-comp"), &sp);
        let g_s = MatView::materialise(component_view(&sc, 0b10, "S-comp"), &sp);
        assert!(strong::are_strong_complements(&sp, &g_r, &g_s));
    }

    #[test]
    fn grouped_partition() {
        let sig = Signature::new([
            RelDecl::new("A", ["X"]),
            RelDecl::new("B", ["X"]),
            RelDecl::new("C", ["X"]),
        ]);
        let sc =
            SubschemaComponents::new(sig, vec![vec!["A".into(), "B".into()], vec!["C".into()]]);
        assert_eq!(sc.n_atoms(), 2);
        let base = Instance::new()
            .with("A", rel(1, [["1"]]))
            .with("B", rel(1, [["2"]]))
            .with("C", rel(1, [["3"]]));
        let ab = sc.endo(0b01, &base);
        assert_eq!(ab.rel("A").len() + ab.rel("B").len(), 2);
        assert!(ab.rel("C").is_empty());
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let sig = Signature::new([RelDecl::new("A", ["X"]), RelDecl::new("B", ["X"])]);
        SubschemaComponents::new(sig, vec![vec!["A".into()], vec!["A".into(), "B".into()]]);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn non_covering_groups_rejected() {
        let sig = Signature::new([RelDecl::new("A", ["X"]), RelDecl::new("B", ["X"])]);
        SubschemaComponents::new(sig, vec![vec!["A".into()]]);
    }
}
