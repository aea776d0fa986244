//! **Horizontal** components: type-based row decompositions.
//!
//! §2.1 motivates interacting types precisely because they are "highly
//! useful in defining horizontal decompositions": a relation whose rows
//! are classified by pairwise-disjoint, jointly-exhaustive types splits
//! into one component per class.  Each class is a restriction view
//! `ρ(R(τ_i, τ_u, …))` — a Sciore object in the sense of Example 2.3.4 —
//! and the classes generate a Boolean algebra of components in which
//! translation is trivial per class (no closure interaction between
//! rows of different classes).
//!
//! The partition discipline (disjoint + covering over the declared
//! assignment) is *verified* against the type algebra at construction.

use crate::family::ComponentFamily;
use compview_logic::{TypeAlgebra, TypeAssignment, TypeExpr};
use compview_relation::{Instance, Relation, Tuple, Value};

/// A horizontal decomposition of one relation by the type of one column.
#[derive(Clone, Debug)]
pub struct HorizontalComponents {
    rel: String,
    arity: usize,
    col: usize,
    classes: Vec<(String, TypeExpr)>,
    mu: TypeAssignment,
}

impl HorizontalComponents {
    /// Build a decomposition of `rel[..arity]` classified by column `col`
    /// under the named class types.
    ///
    /// Disjointness is checked **relative to the type assignment**: in the
    /// free algebra distinct generators are independent rather than
    /// disjoint, so the partition discipline is a property of the model
    /// `μ`, exactly as §2.1's axioms `A` decide type membership per
    /// constant.
    ///
    /// # Errors
    /// Returns a message if a class denotes `τ_⊥`, a declared value
    /// inhabits two classes, or a declared value inhabits none.
    pub fn new<S: Into<String>>(
        rel: S,
        arity: usize,
        col: usize,
        classes: Vec<(String, TypeExpr)>,
        alg: &TypeAlgebra,
        mu: TypeAssignment,
    ) -> Result<HorizontalComponents, String> {
        assert!(col < arity, "classification column out of range");
        assert!(
            (2..=31).contains(&classes.len()),
            "need between 2 and 31 classes"
        );
        for (n, t) in &classes {
            if alg.is_bot(t) {
                return Err(format!("class {n:?} denotes the empty type τ_⊥"));
            }
        }
        for v in mu.values() {
            let hits: Vec<&str> = classes
                .iter()
                .filter(|(_, t)| mu.inhabits(v, t))
                .map(|(n, _)| n.as_str())
                .collect();
            match hits.len() {
                0 => return Err(format!("declared value {v} inhabits no class")),
                1 => {}
                _ => {
                    return Err(format!(
                        "classes {:?} and {:?} overlap on value {v}",
                        hits[0], hits[1]
                    ))
                }
            }
        }
        Ok(HorizontalComponents {
            rel: rel.into(),
            arity,
            col,
            classes,
            mu,
        })
    }

    /// Class names in atom order.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The atom index of the class a value belongs to, if any.
    pub fn class_of(&self, v: Value) -> Option<usize> {
        self.classes
            .iter()
            .position(|(_, t)| self.mu.inhabits(v, t))
    }

    /// Whether the tuple belongs to the component `mask`.
    fn in_mask(&self, mask: u32, t: &Tuple) -> bool {
        match self.class_of(t[self.col]) {
            Some(i) => (mask >> i) & 1 == 1,
            None => false,
        }
    }

    /// Relation-level endomorphism.
    pub fn endo_rel(&self, mask: u32, r: &Relation) -> Relation {
        r.select(|t| self.in_mask(mask, t))
    }
}

impl ComponentFamily for HorizontalComponents {
    fn n_atoms(&self) -> usize {
        self.classes.len()
    }

    fn relations(&self) -> Vec<String> {
        vec![self.rel.clone()]
    }

    fn endo(&self, mask: u32, base: &Instance) -> Instance {
        Instance::new().with(self.rel.clone(), self.endo_rel(mask, base.rel(&self.rel)))
    }

    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
        // Horizontal classes do not interact: reconstruction is plain
        // union (the closure is the identity).
        Instance::new().with(self.rel.clone(), a.rel(&self.rel).union(b.rel(&self.rel)))
    }

    fn is_component_state(&self, mask: u32, part: &Instance) -> bool {
        part.rel(&self.rel)
            .iter()
            .all(|t| t.arity() == self.arity && self.in_mask(mask, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::verify_family;
    use compview_relation::{rel, v};

    /// Accounts classified as personal / business / internal.
    fn fixture() -> (HorizontalComponents, Instance) {
        let alg = TypeAlgebra::new(["personal", "business", "internal"]);
        let mut mu = TypeAssignment::new();
        for (val, class) in [
            ("alice", 0usize),
            ("bob", 0),
            ("acme", 1),
            ("globex", 1),
            ("audit", 2),
        ] {
            mu.declare(v(val), &[class]);
        }
        let hc = HorizontalComponents::new(
            "Acct",
            2,
            0,
            vec![
                ("personal".into(), alg.gen("personal")),
                ("business".into(), alg.gen("business")),
                ("internal".into(), alg.gen("internal")),
            ],
            &alg,
            mu,
        )
        .unwrap();
        let inst = Instance::new().with(
            "Acct",
            rel(
                2,
                [
                    ["alice", "100"],
                    ["bob", "250"],
                    ["acme", "9000"],
                    ["audit", "1"],
                ],
            ),
        );
        (hc, inst)
    }

    #[test]
    fn classification() {
        let (hc, _) = fixture();
        assert_eq!(hc.class_of(v("alice")), Some(0));
        assert_eq!(hc.class_of(v("acme")), Some(1));
        assert_eq!(hc.class_of(v("unknown")), None);
        assert_eq!(hc.class_names(), vec!["personal", "business", "internal"]);
    }

    #[test]
    fn endo_selects_classes() {
        let (hc, inst) = fixture();
        let personal = hc.endo(0b001, &inst);
        assert_eq!(personal.rel("Acct").len(), 2);
        let biz_internal = hc.endo(0b110, &inst);
        assert_eq!(biz_internal.rel("Acct").len(), 2);
        let all = hc.endo(hc.full_mask(), &inst);
        assert_eq!(all.rel("Acct"), inst.rel("Acct"));
    }

    #[test]
    fn family_contract_holds() {
        let (hc, inst) = fixture();
        let other = Instance::new().with(
            "Acct",
            rel(2, [["bob", "777"], ["globex", "1"], ["acme", "2"]]),
        );
        let empty = Instance::new().with("Acct", Relation::empty(2));
        let report = verify_family(&hc, &[inst, other, empty]);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn translate_replaces_one_class_only() {
        let (hc, inst) = fixture();
        let new_business = Instance::new().with("Acct", rel(2, [["globex", "5000"]]));
        let out = hc.translate(0b010, &inst, &new_business).unwrap();
        assert_eq!(hc.endo(0b010, &out), new_business);
        assert_eq!(hc.endo(0b101, &out), hc.endo(0b101, &inst));
        // acme's row is gone, globex's is in, personal rows untouched.
        assert!(!out
            .rel("Acct")
            .contains(&compview_relation::t(["acme", "9000"])));
        assert!(out
            .rel("Acct")
            .contains(&compview_relation::t(["alice", "100"])));
    }

    #[test]
    fn translate_rejects_cross_class_rows() {
        let (hc, inst) = fixture();
        let bad = Instance::new().with("Acct", rel(2, [["alice", "666"]]));
        assert!(hc.translate(0b010, &inst, &bad).is_err());
    }

    #[test]
    fn overlapping_classes_rejected() {
        let alg = TypeAlgebra::new(["p", "b"]);
        // "val" is declared in type p, and both classes contain p-values.
        let mu = TypeAssignment::new().with(v("val"), &[0]);
        let err = HorizontalComponents::new(
            "R",
            1,
            0,
            vec![
                ("p".into(), alg.gen("p")),
                ("pb".into(), alg.gen("p").or(alg.gen("b"))),
            ],
            &alg,
            mu,
        )
        .unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn empty_class_rejected() {
        let alg = TypeAlgebra::new(["p", "b"]);
        let err = HorizontalComponents::new(
            "R",
            1,
            0,
            vec![
                ("p".into(), alg.gen("p")),
                ("none".into(), alg.gen("b").and(alg.gen("b").not())),
            ],
            &alg,
            TypeAssignment::new(),
        )
        .unwrap_err();
        assert!(err.contains("τ_⊥"));
    }

    #[test]
    fn uncovered_values_rejected() {
        let alg = TypeAlgebra::new(["p", "b", "other"]);
        let mu = TypeAssignment::new().with(v("stray"), &[2]);
        let err = HorizontalComponents::new(
            "R",
            1,
            0,
            vec![("p".into(), alg.gen("p")), ("b".into(), alg.gen("b"))],
            &alg,
            mu,
        )
        .unwrap_err();
        assert!(err.contains("inhabits no class"));
    }
}
