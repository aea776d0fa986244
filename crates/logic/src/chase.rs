//! The chase: closing instances under TGDs and checking EGDs.
//!
//! Two uses in this reproduction:
//!
//! 1. **Closure.**  The null-augmented schemas of Example 2.1.1 constrain
//!    instances to be closed under subsumption and join-completion rules.
//!    Presenting a set of "generator" tuples and chasing yields the least
//!    legal instance containing them — the engine behind the least-preimage
//!    maps `γ#` of strong views (§2.3).
//! 2. **Implication.**  The classical chase implication test: `Σ ⊨ σ` iff
//!    chasing σ's canonical (frozen-body) instance with Σ satisfies σ's
//!    head.  Used to verify the paper's claims about *implied constraints*
//!    on views (§1.1).
//!
//! Both a naive and a semi-naive engine are provided; they are
//! cross-validated in tests and compared in the `chase` benchmark
//! (design-choice ablation #3 in DESIGN.md).

use crate::rule::{
    for_each_match_indexed, has_match, has_match_indexed, Atom, Egd, Substitution, Term, Tgd,
    TupleIndex,
};
use compview_relation::{Instance, Relation, Tuple, Value};

/// Failure modes of the chase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// An EGD fired on two distinct constants — the instance is
    /// inconsistent with the constraints (no labelled-null unification is
    /// possible because instance values are all constants).
    EgdViolation {
        /// Name of the violated EGD.
        rule: String,
    },
    /// The step limit was exceeded (non-terminating or runaway rule set).
    StepLimit,
}

impl std::fmt::Display for ChaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseError::EgdViolation { rule } => write!(f, "EGD {rule:?} violated"),
            ChaseError::StepLimit => write!(f, "chase step limit exceeded"),
        }
    }
}

impl std::error::Error for ChaseError {}

/// Chase configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Maximum number of rule-application rounds before giving up.
    pub max_rounds: usize,
    /// Maximum number of fresh labelled nulls invented for existential
    /// variables.
    pub max_fresh: usize,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            max_rounds: 10_000,
            max_fresh: 10_000,
        }
    }
}

/// Counter for fresh labelled nulls (existential witnesses).
struct FreshGen {
    next: usize,
    max: usize,
}

impl FreshGen {
    fn fresh(&mut self) -> Result<Value, ChaseError> {
        if self.next >= self.max {
            return Err(ChaseError::StepLimit);
        }
        let v = Value::sym(&format!("_sk{}", self.next));
        self.next += 1;
        Ok(v)
    }
}

/// The cached join plan of one TGD: everything about driving the rule
/// semi-naively that does not depend on the round, built once per chase
/// instead of once per round (Issue: the residual bodies were re-cloned
/// `rounds × positions` times).
struct RulePlan {
    /// Residual body per delta position: the body with atom `pos` removed,
    /// to be joined around a substitution seeded from a delta tuple.
    rest: Vec<Vec<Atom>>,
    /// Whether every head variable is bound by the body.  Only
    /// existential-free rules may take the dense full-enumeration path:
    /// it visits matches in a different order, which would renumber
    /// invented witnesses (the final instance of an existential-free rule
    /// set is its unique least fixpoint either way).
    existential_free: bool,
}

impl RulePlan {
    fn build(tgd: &Tgd) -> RulePlan {
        let rest = (0..tgd.body.len())
            .map(|pos| {
                tgd.body
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos)
                    .map(|(_, a)| a.clone())
                    .collect()
            })
            .collect();
        let body_vars: std::collections::BTreeSet<u32> =
            tgd.body.iter().flat_map(|a| a.vars()).collect();
        let existential_free = tgd
            .head
            .iter()
            .flat_map(|a| a.vars())
            .all(|x| body_vars.contains(&x));
        RulePlan {
            rest,
            existential_free,
        }
    }
}

/// Semi-naive chase: close `inst` under `tgds`, then verify `egds`.
///
/// Each round only considers body matches in which at least one atom is
/// matched against a tuple added in the previous round, so quiescent parts
/// of the instance are never re-joined.  Per-rule join plans (the residual
/// bodies of each delta position) are cached across rounds, and the delta
/// is bucketed by relation so the delta atom is picked by the *current*
/// delta's shape: positions whose relation gained nothing are skipped
/// outright, and a rule over a relation the round never touched costs
/// one map lookup.
///
/// **Dense rounds** fall back to a single full enumeration: when every
/// body atom's delta bucket covers its entire relation (always true in
/// round 1), the seeded passes would re-enumerate the same join once per
/// body position, which is how the semi-naive engine lost to the naive
/// one on dense wide joins (EXPERIMENTS.md, PR 2).  The fallback is taken
/// only for existential-free rules, so witness numbering stays pinned to
/// the seeded order.
///
/// Body matching seeds candidates from a live [`TupleIndex`] kept in sync
/// with the growing instance, so join fan-out is proportional to matching
/// tuples rather than relation size; on the seeded path, enumeration
/// order (and hence fresh-null numbering and the final instance) is
/// identical to the unindexed scan.
pub fn chase(
    inst: &Instance,
    tgds: &[Tgd],
    egds: &[Egd],
    config: &ChaseConfig,
) -> Result<Instance, ChaseError> {
    chase_observed(inst, tgds, egds, config, &crate::obs::ChaseObs::noop())
}

/// [`chase`] with instrumentation: tallies runs/rounds and records the
/// per-round delta size and whole-run wall time.  The produced instance
/// is byte-identical to [`chase`]'s — observation never steers the
/// engine.
pub fn chase_observed(
    inst: &Instance,
    tgds: &[Tgd],
    egds: &[Egd],
    config: &ChaseConfig,
    obs: &crate::obs::ChaseObs,
) -> Result<Instance, ChaseError> {
    let run_timer = obs.run_ns.start();
    let mut out = inst.clone();
    let mut index = TupleIndex::build(&out);
    let mut fresh = FreshGen {
        next: 0,
        max: config.max_fresh,
    };
    let plans: Vec<RulePlan> = tgds.iter().map(RulePlan::build).collect();

    // Delta = tuples added last round, bucketed by relation name.  Bucket
    // order is instance iteration order initially and addition order
    // afterwards — exactly the order the unbucketed scan visited them.
    let mut delta: std::collections::BTreeMap<String, Vec<Tuple>> =
        std::collections::BTreeMap::new();
    for (n, r) in out.iter() {
        let bucket: Vec<Tuple> = r.iter().cloned().collect();
        if !bucket.is_empty() {
            delta.insert(n.to_owned(), bucket);
        }
    }

    let mut rounds = 0usize;
    while !delta.is_empty() {
        rounds += 1;
        if rounds > config.max_rounds {
            return Err(ChaseError::StepLimit);
        }
        obs.rounds.inc();
        let delta_size = delta.values().map(Vec::len).sum::<usize>() as u64;
        obs.delta_tuples.record(delta_size);
        let mut additions: Vec<(String, Tuple)> = Vec::new();
        for (tgd, plan) in tgds.iter().zip(&plans) {
            // A body atom over an empty (or absent) relation can never
            // match; the whole rule is dead this round.
            if tgd
                .body
                .iter()
                .any(|a| out.get(&a.rel).is_none_or(Relation::is_empty))
            {
                continue;
            }
            // Dense round: every body position that *has* delta is fully
            // covered by it (its whole relation is new — always true in
            // round 1).  The seeded passes would then each re-enumerate
            // the same full join, once per such position; one full
            // enumeration over the current instance sees a superset of
            // every seeded match exactly once.
            let mut any_delta = false;
            let dense = plan.existential_free
                && tgd.body.iter().all(|a| match delta.get(&a.rel) {
                    None => true,
                    Some(d) => {
                        any_delta = true;
                        d.len() == out.rel(&a.rel).len()
                    }
                })
                && any_delta;
            if dense {
                let mut pending: Vec<Substitution> = Vec::new();
                for_each_match_indexed(
                    &tgd.body,
                    &out,
                    &index,
                    &Substitution::default(),
                    &mut |sub| {
                        if tgd.guard_ok(sub) && !has_match_indexed(&tgd.head, &out, &index, sub) {
                            pending.push(sub.clone());
                        }
                        true
                    },
                );
                for sub in pending {
                    apply_head(
                        &tgd.head,
                        &sub,
                        &mut out,
                        &mut index,
                        &mut additions,
                        &mut fresh,
                    )?;
                }
                continue;
            }
            // Seeded passes: each position whose relation actually gained
            // tuples plays the delta atom; the rest of the body joins
            // around the seed.
            for (pos, atom) in tgd.body.iter().enumerate() {
                let Some(bucket) = delta.get(&atom.rel) else {
                    continue;
                };
                let rest = &plan.rest[pos];
                for dt in bucket {
                    // Seed a substitution from the delta tuple.
                    let Some(seed) = seed_from(atom, dt) else {
                        continue;
                    };
                    let mut pending: Vec<Substitution> = Vec::new();
                    for_each_match_indexed(rest, &out, &index, &seed, &mut |sub| {
                        if tgd.guard_ok(sub) && !has_match_indexed(&tgd.head, &out, &index, sub) {
                            pending.push(sub.clone());
                        }
                        true
                    });
                    for sub in pending {
                        apply_head(
                            &tgd.head,
                            &sub,
                            &mut out,
                            &mut index,
                            &mut additions,
                            &mut fresh,
                        )?;
                    }
                }
            }
        }
        delta.clear();
        for (n, t) in additions {
            delta.entry(n).or_default().push(t);
        }
    }

    for egd in egds {
        if !egd.satisfied(&out) {
            return Err(ChaseError::EgdViolation {
                rule: egd.name.clone(),
            });
        }
    }
    obs.runs.inc();
    obs.run_ns.stop(run_timer);
    Ok(out)
}

/// Naive chase: recompute all body matches every round.  Reference
/// implementation for cross-validation and the ablation benchmark.  Shares
/// the indexed matcher with [`chase`] so the semi-naive/naive ablation
/// measures delta-driving alone, not index vs. scan.
pub fn chase_naive(
    inst: &Instance,
    tgds: &[Tgd],
    egds: &[Egd],
    config: &ChaseConfig,
) -> Result<Instance, ChaseError> {
    let mut out = inst.clone();
    let mut index = TupleIndex::build(&out);
    let mut fresh = FreshGen {
        next: 0,
        max: config.max_fresh,
    };
    for _round in 0..config.max_rounds {
        let mut additions: Vec<(String, Tuple)> = Vec::new();
        for tgd in tgds {
            let mut pending: Vec<Substitution> = Vec::new();
            for_each_match_indexed(
                &tgd.body,
                &out,
                &index,
                &Substitution::default(),
                &mut |sub| {
                    if tgd.guard_ok(sub) && !has_match_indexed(&tgd.head, &out, &index, sub) {
                        pending.push(sub.clone());
                    }
                    true
                },
            );
            for sub in pending {
                apply_head(
                    &tgd.head,
                    &sub,
                    &mut out,
                    &mut index,
                    &mut additions,
                    &mut fresh,
                )?;
            }
        }
        if additions.is_empty() {
            for egd in egds {
                if !egd.satisfied(&out) {
                    return Err(ChaseError::EgdViolation {
                        rule: egd.name.clone(),
                    });
                }
            }
            return Ok(out);
        }
    }
    Err(ChaseError::StepLimit)
}

/// Seed a substitution by unifying `atom`'s arguments with tuple `t`.
/// Returns `None` if a constant or repeated variable clashes.
fn seed_from(atom: &Atom, t: &Tuple) -> Option<Substitution> {
    let mut sub = Substitution::default();
    for (i, term) in atom.args.iter().enumerate() {
        match term {
            Term::Const(c) => {
                if t[i] != *c {
                    return None;
                }
            }
            Term::Var(x) => match sub.0.get(x) {
                Some(&v) if v != t[i] => return None,
                Some(_) => {}
                None => {
                    sub.0.insert(*x, t[i]);
                }
            },
        }
    }
    Some(sub)
}

/// Instantiate head atoms (inventing witnesses for existential variables)
/// and insert them, recording genuinely new tuples in `additions` and
/// mirroring every insertion into the live `index`.
fn apply_head(
    head: &[Atom],
    sub: &Substitution,
    out: &mut Instance,
    index: &mut TupleIndex,
    additions: &mut Vec<(String, Tuple)>,
    fresh: &mut FreshGen,
) -> Result<(), ChaseError> {
    // Re-check under the current (possibly grown) instance to avoid
    // duplicate witness invention.
    if has_match_indexed(head, out, index, sub) {
        return Ok(());
    }
    let mut sub = sub.clone();
    for atom in head {
        for x in atom.vars() {
            if sub.get(x).is_none() {
                let w = fresh.fresh()?;
                sub.0.insert(x, w);
            }
        }
    }
    for atom in head {
        let t = atom.instantiate(&sub);
        if out.rel_mut(&atom.rel).insert(t.clone()) {
            index.insert(&atom.rel, &t);
            additions.push((atom.rel.clone(), t));
        }
    }
    Ok(())
}

/// Chase-based implication test for existential-free TGDs: do `premises`
/// logically imply `conclusion` on all instances?
///
/// Builds the canonical instance by *freezing* the conclusion's body
/// variables into fresh constants, chases with the premises, and checks the
/// frozen head.  Sound and complete for full (existential-free) TGDs when
/// the chase terminates.
pub fn implies(
    sig: &compview_relation::Signature,
    premises: &[Tgd],
    conclusion: &Tgd,
    config: &ChaseConfig,
) -> Result<bool, ChaseError> {
    let mut canonical = Instance::null_model(sig);
    let mut frozen = Substitution::default();
    for atom in &conclusion.body {
        for x in atom.vars() {
            frozen
                .0
                .entry(x)
                .or_insert_with(|| Value::sym(&format!("_frz{x}")));
        }
    }
    for atom in &conclusion.body {
        let t = atom.instantiate(&frozen);
        canonical.rel_mut(&atom.rel).insert(t);
    }
    let closed = chase(&canonical, premises, &[], config)?;
    Ok(has_match(&conclusion.head, &closed, &frozen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{cst, var};
    use compview_relation::{rel, RelDecl, Signature};

    fn trans_rule() -> Tgd {
        Tgd::new(
            "trans",
            vec![
                Atom::new("E", vec![var(0), var(1)]),
                Atom::new("E", vec![var(1), var(2)]),
            ],
            vec![Atom::new("E", vec![var(0), var(2)])],
        )
    }

    #[test]
    fn chase_computes_transitive_closure() {
        let inst = Instance::new().with("E", rel(2, [["a", "b"], ["b", "c"], ["c", "d"]]));
        let closed = chase(&inst, &[trans_rule()], &[], &ChaseConfig::default()).unwrap();
        assert_eq!(closed.rel("E").len(), 6); // ab bc cd ac bd ad
        assert!(closed.rel("E").contains(&compview_relation::t(["a", "d"])));
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let inst = Instance::new().with(
            "E",
            rel(
                2,
                [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
            ),
        );
        let a = chase(&inst, &[trans_rule()], &[], &ChaseConfig::default()).unwrap();
        let b = chase_naive(&inst, &[trans_rule()], &[], &ChaseConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rel("E").len(), 25); // full relation on 5 nodes
    }

    #[test]
    fn chase_is_idempotent() {
        let inst = Instance::new().with("E", rel(2, [["a", "b"], ["b", "c"]]));
        let once = chase(&inst, &[trans_rule()], &[], &ChaseConfig::default()).unwrap();
        let twice = chase(&once, &[trans_rule()], &[], &ChaseConfig::default()).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn chase_with_constants() {
        // Mark(x) rules referencing the constant "special".
        let tgd = Tgd::new(
            "mark",
            vec![Atom::new("E", vec![cst("special"), var(0)])],
            vec![Atom::new("M", vec![var(0)])],
        );
        let inst = Instance::new()
            .with("E", rel(2, [["special", "x"], ["other", "y"]]))
            .with("M", rel(1, Vec::<[&str; 1]>::new()));
        let closed = chase(&inst, &[tgd], &[], &ChaseConfig::default()).unwrap();
        assert_eq!(closed.rel("M"), &rel(1, [["x"]]));
    }

    #[test]
    fn egd_violation_detected() {
        let egd = Egd::new(
            "fd",
            vec![
                Atom::new("E", vec![var(0), var(1)]),
                Atom::new("E", vec![var(0), var(2)]),
            ],
            (1, 2),
        );
        let bad = Instance::new().with("E", rel(2, [["a", "x"], ["a", "y"]]));
        let err = chase(&bad, &[], &[egd], &ChaseConfig::default()).unwrap_err();
        assert_eq!(err, ChaseError::EgdViolation { rule: "fd".into() });
    }

    #[test]
    fn existential_chase_invents_witnesses() {
        // P(x) → ∃y E(x,y).
        let tgd = Tgd::new(
            "total",
            vec![Atom::new("P", vec![var(0)])],
            vec![Atom::new("E", vec![var(0), var(9)])],
        );
        let inst = Instance::new()
            .with("P", rel(1, [["a"], ["b"]]))
            .with("E", rel(2, [["a", "w"]]));
        let closed = chase(
            &inst,
            std::slice::from_ref(&tgd),
            &[],
            &ChaseConfig::default(),
        )
        .unwrap();
        // "a" already has a witness; only "b" gets a fresh one.
        assert_eq!(closed.rel("E").len(), 2);
        assert!(tgd.satisfied(&closed));
    }

    #[test]
    fn step_limit_guards_against_runaway() {
        // Successor-style rule that never terminates: E(x,y) → ∃z E(y,z).
        let tgd = Tgd::new(
            "succ",
            vec![Atom::new("E", vec![var(0), var(1)])],
            vec![Atom::new("E", vec![var(1), var(2)])],
        );
        let inst = Instance::new().with("E", rel(2, [["a", "b"]]));
        let cfg = ChaseConfig {
            max_rounds: 50,
            max_fresh: 50,
        };
        assert!(chase(&inst, &[tgd], &[], &cfg).is_err());
    }

    #[test]
    fn implication_by_chase() {
        let sig = Signature::new([RelDecl::new("E", ["A", "B"])]);
        // trans ⊨ length-3 composition: E(x,y) ∧ E(y,z) ∧ E(z,w) → E(x,w).
        let three = Tgd::new(
            "three",
            vec![
                Atom::new("E", vec![var(0), var(1)]),
                Atom::new("E", vec![var(1), var(2)]),
                Atom::new("E", vec![var(2), var(3)]),
            ],
            vec![Atom::new("E", vec![var(0), var(3)])],
        );
        assert!(implies(&sig, &[trans_rule()], &three, &ChaseConfig::default()).unwrap());
        // And not conversely.
        assert!(!implies(&sig, &[three], &trans_rule(), &ChaseConfig::default()).unwrap());
    }

    #[test]
    fn empty_rule_set_is_identity() {
        let inst = Instance::new().with("E", rel(2, [["a", "b"]]));
        assert_eq!(
            chase(&inst, &[], &[], &ChaseConfig::default()).unwrap(),
            inst
        );
    }
}
