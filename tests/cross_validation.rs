//! Cross-validation between the two implementations of the component
//! machinery: the *enumerated* one (state spaces, materialised views,
//! lattice checks — used to verify the theorems) and the *symbolic* one
//! (`PathComponents` — used at scale).  Both must agree tuple-for-tuple.

use compview::core::paper::{example_1_3_6, example_2_1_1 as ex};
use compview::core::{
    strategy, strong, translate, verify_family_with, ComponentAlgebra, ComponentFamily, MatView,
    PathComponents, StateSpace, Strategy, SubschemaComponents, UpdateSpec,
};
use compview::lattice::{endo, FinPoset};
use compview::logic::{
    chase, chase_naive, var, Atom, ChaseConfig, Constraint, Egd, EnumerationConfig, Fd, Ind,
    Schema, Tgd,
};
use compview::relation::{rel, v, Instance, RelDecl, Relation, Signature, Tuple};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The symbolic endomorphism of each component mask equals the enumerated
/// endomorphism of the corresponding object view, on every state.
#[test]
fn symbolic_endo_equals_enumerated_endo() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let ps = ex::path_schema();
    let pc = PathComponents::new(ps.clone());
    let cases: Vec<(u32, &str, Vec<usize>)> = vec![
        (0b001, "AB", vec![0, 1]),
        (0b010, "BC", vec![1, 2]),
        (0b100, "CD", vec![2, 3]),
        (0b011, "ABC", vec![0, 1, 2]),
        (0b110, "BCD", vec![1, 2, 3]),
    ];
    for (mask, name, cols) in cases {
        let mv = MatView::materialise(ex::object_view(name, &cols), &sp);
        let e = strong::endomorphism(&sp, &mv);
        for (s, &img) in e.iter().enumerate() {
            let enumerated = sp.state(img).rel("R");
            let symbolic = pc.endo(mask, sp.state(s).rel("R"));
            assert_eq!(
                enumerated, &symbolic,
                "mask {mask:#b} ({name}) at state {s}"
            );
        }
    }
}

/// Symbolic constant-complement translation agrees with the enumerated
/// component update on every (state, target) pair of the small space.
#[test]
fn symbolic_translate_equals_enumerated_update() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let ps = ex::path_schema();
    let pc = PathComponents::new(ps.clone());
    let ab = MatView::materialise(ex::object_view("AB", &[0, 1]), &sp);
    let bcd = MatView::materialise(ex::object_view("BCD", &[1, 2, 3]), &sp);
    let pair = translate::StrongComplementPair::new(&sp, &bcd, &ab).unwrap();

    for base in 0..sp.len() {
        for target in 0..ab.n_states() {
            // Enumerated: unique solution with Γ°_BCD constant.
            let s2 = pair.solve_on_complement(UpdateSpec { base, target });
            // Symbolic: translate the AB component to the target's AB part.
            let new_ab: Relation = ab.state(target).rel("V_AB").clone();
            // The view state is projected; rebuild full-arity objects.
            let new_ab_full =
                Relation::from_tuples(4, new_ab.iter().map(|t| ps.object(0, t.values())));
            let out = pc
                .translate(0b001, sp.state(base).rel("R"), &new_ab_full)
                .expect("legal component state");
            assert_eq!(
                sp.state(s2).rel("R"),
                &out,
                "state {base} → AB target {target}"
            );
        }
    }
}

/// The brute-force baseline and the symbolic translator agree on every
/// state of the small space (beyond the unit test's single instance).
#[test]
fn brute_force_sweep() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let ps = ex::path_schema();
    let pc = PathComponents::new(ps.clone());
    // Keep the sweep cheap: only states with few objects.
    for base in 0..sp.len() {
        let r = sp.state(base).rel("R");
        if r.len() > 6 {
            continue;
        }
        let mut new_ab = pc.endo(0b001, r);
        new_ab.insert(ps.object(
            0,
            &[compview::relation::v("zz"), compview::relation::v("b1")],
        ));
        let fast = pc.translate(0b001, r, &new_ab).unwrap();
        if ps.close(&r.union(&new_ab)).len() <= 16 {
            let slow = pc.translate_brute_force(0b001, r, &new_ab).unwrap();
            assert_eq!(fast, slow, "state {base}");
        }
    }
}

/// Decomposition round trip at the instance level: split along every
/// mask, reconstruct, and compare — on every enumerated state.
#[test]
fn reconstruction_round_trip_sweep() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let pc = PathComponents::new(ex::path_schema());
    for s in 0..sp.len() {
        let r = sp.state(s).rel("R");
        for mask in 0..=pc.full_mask() {
            let a = pc.endo(mask, r);
            let b = pc.endo(pc.complement(mask), r);
            assert_eq!(&pc.reconstruct(&a, &b), r, "state {s}, mask {mask:#b}");
        }
    }
}

// ---------------------------------------------------------------------
// Parallel vs. sequential cross-validation.  Every parallel code path in
// the engine promises *byte-identical* output regardless of thread count;
// these properties pin that promise down on random inputs.

/// Run `f` with the engine's thread count pinned to `n` (the
/// `COMPVIEW_THREADS` override read by `compview-parallel`).
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

fn pool_tuples(vals: &std::collections::BTreeSet<(u8, u8)>, prefix: &str) -> Vec<Tuple> {
    vals.iter()
        .map(|&(a, b)| Tuple::new([v(&format!("{prefix}{a}")), v(&format!("{prefix}'{b}"))]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded LDB enumeration returns the same state list, in the same
    /// order, for every thread count — with and without pruning
    /// constraints in play.
    #[test]
    fn parallel_enumeration_matches_sequential(
        rvals in prop::collection::btree_set((0u8..3, 0u8..3), 1..5),
        svals in prop::collection::btree_set((0u8..3, 0u8..3), 1..5),
        with_fd in 0u8..2,
    ) {
        let with_fd = with_fd == 1;
        let sig = Signature::new([
            RelDecl::new("R", ["A", "B"]),
            RelDecl::new("S", ["C", "D"]),
        ]);
        let mut cons = Vec::new();
        if with_fd {
            cons.push(Constraint::Fd(Fd::new("R", vec![0], vec![1])));
        }
        let schema = Schema::new(sig, cons);
        let pools: BTreeMap<String, Vec<Tuple>> = [
            ("R".to_owned(), pool_tuples(&rvals, "a")),
            ("S".to_owned(), pool_tuples(&svals, "c")),
        ]
        .into();
        let seq = schema.enumerate_ldb_with(
            &pools,
            &EnumerationConfig { max_bits: 28, threads: 1 },
        );
        for threads in [2, 8] {
            let par = schema.enumerate_ldb_with(
                &pools,
                &EnumerationConfig { max_bits: 28, threads },
            );
            prop_assert_eq!(&seq, &par, "threads = {}", threads);
        }
    }

    /// Parallel bit-row construction in `FinPoset::from_leq` yields
    /// identical posets (rows, hence all derived structure) for every
    /// thread count.  The subset order on `{0,…,n-1}` exercises rows that
    /// span word boundaries.
    #[test]
    fn parallel_poset_build_matches_sequential(n in 1usize..100) {
        let build = || FinPoset::from_leq(n, |a, b| a & b == a);
        let p1 = with_threads(1, build);
        for threads in [2, 8] {
            let pt = with_threads(threads, build);
            prop_assert_eq!(&p1, &pt, "threads = {}", threads);
            prop_assert_eq!(p1.hasse_edges(), pt.hasse_edges());
        }
    }

    /// The indexed semi-naive chase and the indexed naive chase agree on
    /// random edge sets under transitive closure (index + delta-driving
    /// are pure optimisations).
    #[test]
    fn indexed_semi_naive_chase_equals_naive(
        edges in prop::collection::btree_set((0u8..5, 0u8..5), 0..12),
    ) {
        let rows: Vec<[String; 2]> = edges
            .iter()
            .map(|&(a, b)| [format!("n{a}"), format!("n{b}")])
            .collect();
        let inst = Instance::new().with("E", rel(2, rows));
        let trans = Tgd::new(
            "trans",
            vec![
                Atom::new("E", vec![var(0), var(1)]),
                Atom::new("E", vec![var(1), var(2)]),
            ],
            vec![Atom::new("E", vec![var(0), var(2)])],
        );
        let cfg = ChaseConfig::default();
        let fast = chase(&inst, std::slice::from_ref(&trans), &[], &cfg).unwrap();
        let slow = chase_naive(&inst, &[trans], &[], &cfg).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Random incremental edit sequences keep the patched `StateSpace` —
    /// states, ids, poset bitrows, legal blocks — byte-identical to a
    /// fresh enumeration (checked after every edit), and the whole run is
    /// thread-count invariant.
    #[test]
    fn incremental_edit_sequences_match_fresh_enumeration(
        script in prop::collection::vec((0u8..2, 0u8..2, 0u8..5), 1..10),
    ) {
        let run = || {
            let sig = Signature::new([
                RelDecl::new("R", ["A", "B"]),
                RelDecl::new("S", ["C"]),
            ]);
            let schema = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
            let pools: BTreeMap<String, Vec<Tuple>> = [
                (
                    "R".to_owned(),
                    vec![
                        Tuple::new([v("k0"), v("x0")]),
                        Tuple::new([v("k1"), v("x1")]),
                    ],
                ),
                ("S".to_owned(), vec![Tuple::new([v("s0")])]),
            ]
            .into();
            let mut space = compview::core::StateSpace::enumerate(schema, &pools);
            let mut trace: Vec<(usize, usize)> = Vec::new();
            for &(which, op, val) in &script {
                let (rel_name, tuple) = if which == 0 {
                    ("R", Tuple::new([v(&format!("k{}", val % 3)), v(&format!("x{val}"))]))
                } else {
                    ("S", Tuple::new([v(&format!("s{val}"))]))
                };
                let res = if op == 0 {
                    space.insert_tuple(rel_name, tuple)
                } else {
                    space.remove_tuple(rel_name, &tuple)
                };
                if let Ok(r) = res {
                    trace.push((r.states_before, r.states_after));
                }
                // Byte-identical to a fresh enumeration after every edit
                // — including after rejected ones (space untouched).
                space.validate_against_full().unwrap();
            }
            (space.states().to_vec(), trace)
        };
        let base = with_threads(1, run);
        for threads in [2, 8] {
            let other = with_threads(threads, run);
            prop_assert_eq!(&base, &other, "threads = {}", threads);
        }
    }

    /// Wide-body (3- and 4-atom) TGDs agree between the indexed semi-naive
    /// chase and the naive chase on random graphs — the join planner's
    /// bucket selection over several bound columns is a pure optimisation.
    #[test]
    fn wide_join_semi_naive_chase_equals_naive(
        edges in prop::collection::btree_set((0u8..6, 0u8..6), 0..14),
    ) {
        let rows: Vec<[String; 2]> = edges
            .iter()
            .map(|&(a, b)| [format!("n{a}"), format!("n{b}")])
            .collect();
        let inst = Instance::new()
            .with("E", rel(2, rows))
            .with("T", compview::relation::Relation::empty(2))
            .with("Q", compview::relation::Relation::empty(2));
        let rules = compview::core::workload::wide_join_tgds();
        let cfg = ChaseConfig::default();
        let fast = chase(&inst, &rules, &[], &cfg).unwrap();
        let slow = chase_naive(&inst, &rules, &[], &cfg).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Strategy construction and every admissibility checker are
    /// thread-count invariant — including the *reported counterexample
    /// message*, which the sorted-entry scan makes deterministic.
    #[test]
    fn parallel_strategy_and_checks_match_sequential(pool_size in 1usize..3) {
        let run = || {
            let sp = example_1_3_6::space(pool_size);
            let g1 = MatView::materialise(example_1_3_6::gamma1(), &sp);
            let g2 = MatView::materialise(example_1_3_6::gamma2(), &sp);
            let g3 = MatView::materialise(example_1_3_6::gamma3(), &sp);
            let cc = Strategy::constant_complement(&sp, &g1, &g2);
            // Γ3 is a non-strong complement: its strategy trips the
            // nonextraneousness checker, exercising the error path.
            let bad = Strategy::constant_complement(&sp, &g1, &g3);
            let sc = Strategy::smallest_change(&sp, &g1);
            let reports = [&cc, &bad, &sc].map(|rho| {
                let r = strategy::check(&sp, &g1, rho);
                (r.sound, r.nonextraneous, r.functorial, r.symmetric, r.state_independent)
            });
            (cc, bad, sc, reports)
        };
        let base = with_threads(1, run);
        for threads in [2, 8] {
            let other = with_threads(threads, run);
            prop_assert_eq!(&base, &other, "threads = {}", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded component-algebra generation and family verification.  Both
// promise the *same result and the same first error message* for every
// thread count.

/// Component-algebra generation is thread-count invariant: every derived
/// element's endomorphism and name agree with the sequential build.
#[test]
fn parallel_algebra_generation_matches_sequential() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let atom = |name: &str, cols: &[usize]| {
        let mv = MatView::materialise(ex::object_view(name, cols), &sp);
        (name.to_owned(), strong::endomorphism(&sp, &mv))
    };
    let atoms = vec![
        atom("AB", &[0, 1]),
        atom("BC", &[1, 2]),
        atom("CD", &[2, 3]),
    ];
    let seq = ComponentAlgebra::generate_with_threads(&sp, atoms.clone(), 1)
        .expect("segment views generate the component algebra");
    for threads in [2, 8] {
        let par = ComponentAlgebra::generate_with_threads(&sp, atoms.clone(), threads)
            .expect("segment views generate the component algebra");
        assert_eq!(par.len(), seq.len(), "threads = {threads}");
        for m in 0..par.len() {
            assert_eq!(par.endo(m), seq.endo(m), "mask {m:#b}, threads = {threads}");
            assert_eq!(par.name(m), seq.name(m), "mask {m:#b}, threads = {threads}");
        }
        par.verify().unwrap();
    }
}

/// Rejection is thread-count invariant too: the sharded independence scan
/// reports the *lowest-index* violating pair, so the error message is
/// byte-identical to the sequential one.
#[test]
fn parallel_algebra_rejection_is_thread_count_invariant() {
    let sp = ex::small_space(&ex::small_generator_pool());
    let ab = MatView::materialise(ex::object_view("AB", &[0, 1]), &sp);
    let e = strong::endomorphism(&sp, &ab);
    // The same atom twice: meets are not ⊥̄, so independence fails.
    let atoms = vec![("X".to_owned(), e.clone()), ("Y".to_owned(), e)];
    let seq = ComponentAlgebra::generate_with_threads(&sp, atoms.clone(), 1)
        .expect_err("not independent");
    assert!(seq.contains("not independent"), "{seq}");
    for threads in [2, 8] {
        let par = ComponentAlgebra::generate_with_threads(&sp, atoms.clone(), threads)
            .expect_err("not independent");
        assert_eq!(par, seq, "threads = {threads}");
    }
}

/// A deliberately lossy family: every proper component part is empty, so
/// reconstruction loses the base state at the proper masks.  Exercises
/// the verifier's violation paths deterministically.
struct HalfLost;

impl ComponentFamily for HalfLost {
    fn n_atoms(&self) -> usize {
        2
    }
    fn relations(&self) -> Vec<String> {
        vec!["R".into()]
    }
    fn endo(&self, mask: u32, base: &Instance) -> Instance {
        if mask == self.full_mask() {
            base.clone()
        } else {
            Instance::new().with("R", Relation::empty(1))
        }
    }
    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
        Instance::new().with("R", a.rel("R").union(b.rel("R")))
    }
    fn is_component_state(&self, _mask: u32, _part: &Instance) -> bool {
        true
    }
}

/// The sharded family verifier returns the same report — violations in
/// the same order — for every thread count, on both failing and passing
/// families.
#[test]
fn parallel_family_verifier_matches_sequential() {
    // Failing family: per-cell violation lists concatenate in cell order.
    let mk = |names: &[&str]| {
        Instance::new().with(
            "R",
            Relation::from_tuples(1, names.iter().map(|n| Tuple::new([v(n)]))),
        )
    };
    let samples = vec![mk(&["a", "b"]), mk(&["c"]), mk(&[])];
    let seq = verify_family_with(&HalfLost, &samples, 1);
    assert_eq!(seq.checked, 12);
    assert!(!seq.violations.is_empty());
    for threads in [2, 8] {
        let par = verify_family_with(&HalfLost, &samples, threads);
        assert_eq!(par.checked, seq.checked, "threads = {threads}");
        assert_eq!(par.violations, seq.violations, "threads = {threads}");
    }

    // Passing family: the clean report is thread-count invariant too.
    let ps = ex::path_schema();
    let pc = PathComponents::new(ps.clone());
    let mut gens = Relation::empty(4);
    gens.insert(ps.object(0, &[v("a0"), v("b0")]));
    gens.insert(ps.object(2, &[v("c0"), v("d0")]));
    let good = vec![
        Instance::new().with("R", ps.close(&gens)),
        Instance::new().with("R", Relation::empty(4)),
    ];
    let clean = verify_family_with(&pc, &good, 1);
    assert!(clean.ok(), "{:?}", clean.violations);
    for threads in [2, 8] {
        let par = verify_family_with(&pc, &good, threads);
        assert_eq!(par.checked, clean.checked);
        assert!(par.ok(), "threads = {threads}: {:?}", par.violations);
    }
}

// ---------------------------------------------------------------------
// The pool-bit kernels of enumerated spaces against their definitions:
// the ↓-poset built from pool-bit columns against relation-by-relation
// `is_subinstance`, and subschema component maps projected from pool
// bits against `endo` + `id_of` per state.

/// Relation names of the random signatures, in declaration order.
const NAMES: [&str; 3] = ["R", "S", "T"];

/// Every partition of `names` into groups: each group keeps declaration
/// order, and groups are ordered by their first member.
fn groupings(names: &[String]) -> Vec<Vec<Vec<String>>> {
    let mut out: Vec<Vec<Vec<String>>> = vec![Vec::new()];
    for name in names {
        let mut next = Vec::new();
        for g in &out {
            for i in 0..=g.len() {
                let mut h = g.clone();
                match h.get_mut(i) {
                    Some(group) => group.push(name.clone()),
                    None => h.push(vec![name.clone()]),
                }
                next.push(h);
            }
        }
        out = next;
    }
    out
}

/// A tuple of relation `i`'s arity over the shared values `v0 … v2`.
fn spec_tuple(arity: usize, a: u8, b: u8) -> Tuple {
    let vals = [v(&format!("v{a}")), v(&format!("v{b}"))];
    Tuple::new(vals[..arity].iter().cloned())
}

/// A constraint on relations `i` and `j` of a random signature: an FD
/// (at most one tuple when unary), an IND within or across relations, or
/// an EGD equating the last columns of `i` and `j`.
fn spec_constraint(kind: u8, (i, ai): (&str, usize), (j, aj): (&str, usize)) -> Constraint {
    match kind {
        0 if ai == 2 => Constraint::Fd(Fd::new(i, vec![0], vec![1])),
        0 => Constraint::Fd(Fd::new(i, vec![], vec![0])),
        1 => Constraint::Ind(Ind::new(i, vec![0], j, vec![aj - 1])),
        2 => {
            let atom = |rel: &str, arity: usize, first: u32| {
                Atom::new(rel, (first..first + arity as u32).map(var).collect())
            };
            Constraint::Egd(Egd::new(
                "last columns agree",
                vec![atom(i, ai, 0), atom(j, aj, 2)],
                (ai as u32 - 1, 2 + aj as u32 - 1),
            ))
        }
        _ => Constraint::Ind(Ind::new(i, vec![0], j, vec![0])),
    }
}

/// Check both kernels of `space` against their definitions: (a) its
/// poset is the `is_subinstance` order, and (b) for every grouping of
/// its relations and every mask, the projected state map equals the
/// `endo` + `id_of` one — the same first escaping state included — so
/// the verdicts agree too.
fn assert_kernels_match_oracles(space: &StateSpace) {
    let states = space.states();
    let oracle = FinPoset::from_leq(states.len(), |a, b| states[a].is_subinstance(&states[b]));
    assert!(space.poset() == &oracle, "poset differs from inclusion");
    let sig = space.schema().sig().clone();
    let names: Vec<String> = sig.names().map(str::to_owned).collect();
    for groups in groupings(&names) {
        let family = SubschemaComponents::new(sig.clone(), groups.clone());
        for mask in 0..=family.full_mask() {
            let keep = family.kept_relations(mask).unwrap();
            let projected = space.projection(&keep).unwrap();
            let by_endo: Result<Vec<usize>, usize> = (0..space.len())
                .map(|s| space.id_of(&family.endo(mask, space.state(s))).ok_or(s))
                .collect();
            assert_eq!(projected, by_endo, "groups {groups:?}, mask {mask:#b}");
            if let Ok(map) = &projected {
                // One map, so one verdict; check it decides at all.
                let _ = endo::is_strong_endo(space.poset(), map);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random signatures of 1–3 unary or binary relations with pools,
    /// FDs, INDs and EGDs within and across relations, then a random
    /// chain of pool edits: after enumeration and after every accepted
    /// edit, both pool-bit kernels equal their oracles, and the patched
    /// space equals a fresh enumeration.
    #[test]
    fn edit_chains_keep_both_kernels_equal_to_their_oracles(
        n_rels in 1usize..4,
        arities in prop::collection::vec(1usize..3, 3..4),
        seeds in prop::collection::vec(prop::collection::vec((0u8..3, 0u8..3), 0..4), 3..4),
        cons in prop::collection::vec((0u8..4, 0u8..3, 0u8..3), 0..4),
        script in prop::collection::vec((0u8..3, 0u8..2, 0u8..3, 0u8..3), 1..8),
    ) {
        // At most 8 pool bits, so the n² oracle stays within 256² pairs.
        const MAX_BITS: usize = 8;
        let rel = |i: u8| {
            let i = usize::from(i) % n_rels;
            (NAMES[i], arities[i])
        };
        let sig = Signature::new(
            (0..n_rels).map(|i| RelDecl::new(NAMES[i], ["A", "B"][..arities[i]].to_vec())),
        );
        let constraints = cons
            .iter()
            .map(|&(kind, i, j)| spec_constraint(kind, rel(i), rel(j)))
            .collect();
        let schema = Schema::new(sig, constraints);
        let mut pools: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        let mut bits = 0;
        for (i, seed) in seeds.iter().enumerate().take(n_rels) {
            let mut pool: Vec<Tuple> = Vec::new();
            for &(a, b) in seed {
                let t = spec_tuple(arities[i], a, b);
                if bits < MAX_BITS && !pool.contains(&t) {
                    pool.push(t);
                    bits += 1;
                }
            }
            pools.insert(NAMES[i].to_owned(), pool);
        }
        let mut space = StateSpace::enumerate(schema.clone(), &pools);
        assert_kernels_match_oracles(&space);
        for &(r, op, a, b) in &script {
            let (name, arity) = rel(r);
            let t = spec_tuple(arity, a, b);
            let edited = if op == 0 {
                let bits: usize = space.pools().unwrap().values().map(Vec::len).sum();
                (bits < MAX_BITS).then(|| space.insert_tuple(name, t)).map(|r| r.is_ok())
            } else {
                Some(space.remove_tuple(name, &t).is_ok())
            };
            if edited == Some(true) {
                assert_kernels_match_oracles(&space);
                let fresh = StateSpace::enumerate(schema.clone(), space.pools().unwrap());
                prop_assert_eq!(fresh.states(), space.states());
                prop_assert!(fresh.poset() == space.poset());
            }
        }
    }
}

/// Both kernels against their oracles at 4,096 states, on perfbench's
/// `R(A)/S(B)` shape: a fresh enumeration, and a patch from 2,048 states
/// up to 4,096 and back.  The n² `is_subinstance` oracle is too slow for
/// a debug build; run it with
/// `cargo test --release --test cross_validation -- --ignored`.
#[test]
#[ignore = "n² subinstance oracle at 4,096 states; run in release"]
fn large_space_kernels_match_their_oracles() {
    let sig = Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])]);
    let pool = |rel: &str, n: usize| -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new([v(&format!("{rel}{i}"))]))
            .collect()
    };
    let schema = Schema::unconstrained(sig);
    let small: BTreeMap<String, Vec<Tuple>> = [
        ("R".to_owned(), pool("r", 5)),
        ("S".to_owned(), pool("s", 6)),
    ]
    .into();
    let big: BTreeMap<String, Vec<Tuple>> = [
        ("R".to_owned(), pool("r", 6)),
        ("S".to_owned(), pool("s", 6)),
    ]
    .into();

    let fresh = StateSpace::enumerate(schema.clone(), &big);
    assert_eq!(fresh.len(), 4096);
    assert_kernels_match_oracles(&fresh);

    let mut space = StateSpace::enumerate(schema, &small);
    assert_eq!(space.len(), 2048);
    let t = big["R"][5].clone();
    space.insert_tuple("R", t.clone()).unwrap();
    assert_eq!(space.states(), fresh.states());
    assert!(space.poset() == fresh.poset());
    assert_kernels_match_oracles(&space);
    space.remove_tuple("R", &t).unwrap();
    assert_eq!(space.len(), 2048);
    assert_kernels_match_oracles(&space);
}
