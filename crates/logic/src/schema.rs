//! Full schemata `D = (Rel(D), Con(D))` over a type algebra `Ω` (§2.1), and
//! exhaustive enumeration of `LDB(D, μ)` over finite tuple pools.
//!
//! Enumeration is what lets this reproduction *decide* the paper's theorems
//! on concrete spaces: `LDB(D, μ)` becomes an explicit finite ↓-poset on
//! which strong views, complements, and admissibility are all checkable
//! (see `compview-core`).

use crate::constraint::Constraint;
use crate::typealg::{TypeAlgebra, TypeAssignment};
use compview_relation::{Instance, Relation, Signature, Tuple};
use std::collections::BTreeMap;

/// Tuning knobs for [`Schema::enumerate_ldb_with`].
#[derive(Clone, Debug)]
pub struct EnumerationConfig {
    /// Hard cap on raw pool bits (the unpruned space is `2^bits`); the
    /// enumerator panics beyond it to guard against accidental explosion.
    pub max_bits: usize,
    /// Worker threads for the cross-product assembly.  The output is
    /// byte-identical for every value (shards concatenate in order).
    pub threads: usize,
}

impl Default for EnumerationConfig {
    fn default() -> EnumerationConfig {
        EnumerationConfig {
            max_bits: 28,
            threads: compview_parallel::num_threads(),
        }
    }
}

/// One legal submask of a relation's tuple pool, materialised: the submask
/// itself (bit *p* of the pool) plus the `Relation` it packs to.
///
/// These are the atoms of incremental maintenance: `compview-core`'s
/// `StateSpace` keeps the per-relation block lists (and which block each
/// state uses) so a pool edit can patch the enumeration instead of redoing
/// it.  Because pools are duplicate-free in every enumerated space, submask
/// inclusion coincides with relation inclusion, which turns the state
/// order's `is_subinstance` tests into word operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LegalBlock {
    /// Pool submask (bit `p` ⇔ `pool[p]` is in the block).
    pub submask: u64,
    /// The block packed as a relation value.
    pub rel: Relation,
}

/// The output of [`Schema::enumerate_ldb_detailed`]: the states of
/// `LDB(D, μ)` plus the per-relation legal-block lists and, for each state,
/// the combo index that identifies which block it draws from each relation.
#[derive(Clone, Debug)]
pub struct LdbDetail {
    /// The legal states, in enumeration order.
    pub states: Vec<Instance>,
    /// Per declared relation (signature order), the legal blocks in
    /// ascending submask order.
    pub blocks: Vec<Vec<LegalBlock>>,
    /// For each state, its cross-product combo index: with the first
    /// declared relation fastest-varying, `combo = i_0 + |B_0|·(i_1 + …)`
    /// where `i_r` indexes `blocks[r]`.
    pub state_combos: Vec<usize>,
}

/// Depth-first enumerator of the legal submasks of one relation block.
///
/// Visits subsets of `pool` in ascending submask order (bit *p* of the
/// submask selects `pool[p]`, matching the flat-mask layout documented on
/// [`Schema::enumerate_ldb`]) and prunes a whole subtree as soon as the
/// partial set violates a violation-monotone constraint local to this
/// relation.  Constraints local to the block but not violation-monotone
/// (e.g. a JD) are checked once per completed subset.
struct BlockEnum<'a> {
    name: &'a str,
    pool: &'a [Tuple],
    prune: &'a [&'a Constraint],
    complete: &'a [&'a Constraint],
    mu: &'a TypeAssignment,
    scratch: Instance,
    /// Bits of `pool` taken on the current DFS path, plus any seed bits
    /// (see [`Schema::legal_blocks_seeded`]).
    submask: u64,
    out: Vec<LegalBlock>,
}

impl BlockEnum<'_> {
    fn run(mut self) -> Vec<LegalBlock> {
        self.descend(self.pool.len());
        self.out
    }

    /// Branch on bit `level - 1`; `level == 0` is a completed subset.
    /// Zero-branch first and highest bit outermost yields ascending
    /// submask order, so the overall state order matches the sequential
    /// full-mask scan exactly.
    fn descend(&mut self, level: usize) {
        if level == 0 {
            if self
                .complete
                .iter()
                .all(|c| c.satisfied(&self.scratch, self.mu))
            {
                self.out.push(LegalBlock {
                    submask: self.submask,
                    rel: self.scratch.rel(self.name).clone(),
                });
            }
            return;
        }
        self.descend(level - 1);
        let t = &self.pool[level - 1];
        // A duplicate pool tuple contributes no new set; taking its bit
        // revisits the same subsets the zero-branch just produced, which is
        // exactly what the flat-mask scan does, so recurse either way —
        // but only remove on backtrack what this branch actually added.
        let added = self.scratch.rel_mut(self.name).insert(t.clone());
        self.submask |= 1 << (level - 1);
        if self
            .prune
            .iter()
            .all(|c| c.satisfied(&self.scratch, self.mu))
        {
            self.descend(level - 1);
        }
        self.submask &= !(1 << (level - 1));
        if added {
            self.scratch.rel_mut(self.name).remove(t);
        }
    }
}

/// A relational database schema: signature, constraints, and (optionally)
/// typing information.  Equality compares all four parts; it is half of
/// `compview-core`'s state-space interner key.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    sig: Signature,
    constraints: Vec<Constraint>,
    algebra: Option<TypeAlgebra>,
    assignment: TypeAssignment,
}

impl Schema {
    /// A schema with no constraints ("no constraints whatever",
    /// Examples 1.1.1 and 1.3.6).
    pub fn unconstrained(sig: Signature) -> Schema {
        Schema {
            sig,
            constraints: Vec::new(),
            algebra: None,
            assignment: TypeAssignment::new(),
        }
    }

    /// A schema with constraints.
    pub fn new(sig: Signature, constraints: Vec<Constraint>) -> Schema {
        Schema {
            sig,
            constraints,
            algebra: None,
            assignment: TypeAssignment::new(),
        }
    }

    /// Attach a type algebra and assignment (required by `ColType`
    /// constraints).
    pub fn with_types(mut self, algebra: TypeAlgebra, assignment: TypeAssignment) -> Schema {
        self.algebra = Some(algebra);
        self.assignment = assignment;
        self
    }

    /// Add a constraint.
    pub fn add_constraint(&mut self, c: Constraint) -> &mut Schema {
        self.constraints.push(c);
        self
    }

    /// `Rel(D)`.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// `Con(D)`.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The type algebra, if attached.
    pub fn algebra(&self) -> Option<&TypeAlgebra> {
        self.algebra.as_ref()
    }

    /// The type assignment `μ`.
    pub fn assignment(&self) -> &TypeAssignment {
        &self.assignment
    }

    /// Whether `inst` is a legal database: conforms to the signature and
    /// satisfies every constraint.
    pub fn is_legal(&self, inst: &Instance) -> bool {
        inst.conforms_to(&self.sig)
            && self
                .constraints
                .iter()
                .all(|c| c.satisfied(inst, &self.assignment))
    }

    /// Whether the schema has the *null model property* (§2.3): the empty
    /// instance is legal.  All of §3's results assume this.
    pub fn has_null_model_property(&self) -> bool {
        self.is_legal(&Instance::null_model(&self.sig))
    }

    /// Compile all compilable constraints to chase rules.
    pub fn rules(&self) -> (Vec<crate::rule::Tgd>, Vec<crate::rule::Egd>) {
        let arities = |name: &str| self.sig.expect_decl(name).arity();
        let mut tgds = Vec::new();
        let mut egds = Vec::new();
        for c in &self.constraints {
            let (t, e) = c.to_rules(&arities);
            tgds.extend(t);
            egds.extend(e);
        }
        (tgds, egds)
    }

    /// Enumerate `LDB(D, μ)` restricted to instances whose relations draw
    /// from the given per-relation tuple `pools`.
    ///
    /// The result is every subset-combination of pool tuples that satisfies
    /// the constraints, in deterministic order.  This *is* `LDB(D, μ)` when
    /// the pools contain all well-typed tuples over the active domain of μ.
    ///
    /// Conceptually the order is that of a flat subset-mask scan: the first
    /// declared relation's pool occupies the low bits, and masks ascend.
    /// The implementation never walks all `2^bits` masks, though — see
    /// [`Schema::enumerate_ldb_with`].
    ///
    /// # Panics
    /// Panics if the raw pool bit count exceeds
    /// `EnumerationConfig::default().max_bits` (guards against accidental
    /// explosion) or a pool is missing for a declared relation.
    pub fn enumerate_ldb(&self, pools: &BTreeMap<String, Vec<Tuple>>) -> Vec<Instance> {
        self.enumerate_ldb_with(pools, &EnumerationConfig::default())
    }

    /// [`Schema::enumerate_ldb`] with explicit limits and thread count.
    ///
    /// Three optimisations over the naive `for mask in 0..2^bits` scan, all
    /// order-preserving so the output is byte-identical to it:
    ///
    /// 1. **Per-block pruning**: each relation's legal submasks are
    ///    enumerated first, checking only the constraints local to that
    ///    relation, with violation-monotone constraints (FDs, EGDs, typing)
    ///    cutting whole subtrees of the subset lattice.  Constraint-dense
    ///    schemas thus skip almost all of the `2^bits` space.
    /// 2. **Cached blocks**: surviving submasks are materialised once as
    ///    `Relation` values and cloned into instances, instead of re-packing
    ///    tuple-by-tuple per mask.
    /// 3. **Sharded assembly**: the cross product of legal blocks is split
    ///    across `config.threads` workers; shard outputs concatenate in
    ///    index order, so the result does not depend on the thread count.
    pub fn enumerate_ldb_with(
        &self,
        pools: &BTreeMap<String, Vec<Tuple>>,
        config: &EnumerationConfig,
    ) -> Vec<Instance> {
        self.enumerate_ldb_detailed(pools, config).states
    }

    /// [`Schema::enumerate_ldb_with`], keeping the intermediate structure:
    /// the per-relation legal-block lists and each state's combo index.
    /// `.states` is byte-identical to [`Schema::enumerate_ldb_with`].
    ///
    /// The detail is what incremental state-space maintenance needs: a pool
    /// edit only changes one relation's block list, so the edited state list
    /// can be produced by splicing per-block rather than re-enumerating.
    pub fn enumerate_ldb_detailed(
        &self,
        pools: &BTreeMap<String, Vec<Tuple>>,
        config: &EnumerationConfig,
    ) -> LdbDetail {
        self.enumerate_ldb_observed(pools, config, &crate::obs::EnumObs::noop())
    }

    /// [`Schema::enumerate_ldb_detailed`] with instrumentation: tallies
    /// runs and produced states and records per-shard and whole-run wall
    /// times.  The output is byte-identical to the unobserved call —
    /// per-shard timing happens inside each worker's closure and never
    /// affects the shard-ordered concatenation.
    pub fn enumerate_ldb_observed(
        &self,
        pools: &BTreeMap<String, Vec<Tuple>>,
        config: &EnumerationConfig,
        obs: &crate::obs::EnumObs,
    ) -> LdbDetail {
        let run_timer = obs.run_ns.start();
        let decls = self.sig.decls();
        let mut total_bits = 0usize;
        for d in decls {
            let pool = pools
                .get(d.name())
                .unwrap_or_else(|| panic!("no tuple pool for relation {:?}", d.name()));
            total_bits += pool.len();
        }
        assert!(
            total_bits <= config.max_bits,
            "state space 2^{total_bits} too large to enumerate (max_bits = {})",
            config.max_bits
        );

        let global = self.global_constraints();

        // Legal submasks per relation block, in ascending submask order.
        let blocks: Vec<Vec<LegalBlock>> = decls
            .iter()
            .map(|d| self.legal_blocks(d.name(), &pools[d.name()]))
            .collect();

        // Cross product of legal blocks, first relation fastest-varying:
        // ascending combo index ⇔ ascending flat mask restricted to
        // per-block-legal states, so order matches the sequential scan.
        let combos: usize = blocks.iter().map(Vec::len).product();
        if blocks.iter().any(Vec::is_empty) {
            obs.runs.inc();
            obs.run_ns.stop(run_timer);
            return LdbDetail {
                states: Vec::new(),
                blocks,
                state_combos: Vec::new(),
            };
        }
        let picked = compview_parallel::sharded_collect(combos, config.threads, |range| {
            let shard_timer = obs.shard_ns.start();
            let mut out = Vec::new();
            for idx in range {
                let mut rest = idx;
                let mut inst = Instance::null_model(&self.sig);
                for (d, block) in decls.iter().zip(&blocks) {
                    inst.set(d.name(), block[rest % block.len()].rel.clone());
                    rest /= block.len();
                }
                if inst.conforms_to(&self.sig)
                    && global.iter().all(|c| c.satisfied(&inst, &self.assignment))
                {
                    out.push((inst, idx));
                }
            }
            obs.shard_ns.stop(shard_timer);
            out
        });
        let mut states = Vec::with_capacity(picked.len());
        let mut state_combos = Vec::with_capacity(picked.len());
        for (inst, idx) in picked {
            states.push(inst);
            state_combos.push(idx);
        }
        obs.runs.inc();
        obs.states.add(states.len() as u64);
        obs.run_ns.stop(run_timer);
        LdbDetail {
            states,
            blocks,
            state_combos,
        }
    }

    /// Whether `c` only mentions relation `name` (checkable on that block
    /// in isolation).
    fn local_to(c: &Constraint, name: &str) -> bool {
        c.relations().iter().all(|r| *r == name)
    }

    /// The constraints that need an assembled instance: those not local to
    /// any single declared relation.  Enumeration checks exactly these (plus
    /// signature conformance) on each assembled cross-product combo.
    pub fn global_constraints(&self) -> Vec<&Constraint> {
        let decls = self.sig.decls();
        self.constraints
            .iter()
            .filter(|c| !decls.iter().any(|d| Self::local_to(c, d.name())))
            .collect()
    }

    /// The legal blocks of one relation over `pool`, in ascending submask
    /// order — the per-relation factor of [`Schema::enumerate_ldb_detailed`].
    ///
    /// # Panics
    /// Panics if `pool` has 64+ tuples (submasks are packed in a `u64`; the
    /// enumeration guard caps total bits far below this anyway).
    pub fn legal_blocks(&self, name: &str, pool: &[Tuple]) -> Vec<LegalBlock> {
        assert!(pool.len() < 64, "tuple pool too large for u64 submasks");
        let (prune, complete) = self.local_split(name);
        BlockEnum {
            name,
            pool,
            prune: &prune,
            complete: &complete,
            mu: &self.assignment,
            scratch: Instance::null_model(&self.sig),
            submask: 0,
            out: Vec::new(),
        }
        .run()
    }

    /// The legal blocks over `pool ++ [forced]` that *contain* `forced`, in
    /// ascending submask order (bit `pool.len()` — the forced tuple's bit —
    /// is set in every result).
    ///
    /// Appending a tuple `t` to a pool leaves the old blocks legal and
    /// intact (block legality depends only on the tuple set), so the edited
    /// block list is exactly `legal_blocks(name, pool) ++
    /// legal_blocks_seeded(name, pool, t)` — the increment is computed
    /// without revisiting the old subset lattice.  Assumes `forced ∉ pool`
    /// (duplicate-free pools; callers reject duplicates first).
    ///
    /// # Panics
    /// Panics if the grown pool would have 64+ tuples.
    pub fn legal_blocks_seeded(
        &self,
        name: &str,
        pool: &[Tuple],
        forced: &Tuple,
    ) -> Vec<LegalBlock> {
        assert!(pool.len() + 1 < 64, "tuple pool too large for u64 submasks");
        let (prune, complete) = self.local_split(name);
        let mut scratch = Instance::null_model(&self.sig);
        scratch.rel_mut(name).insert(forced.clone());
        // Gate the seed exactly as the unseeded DFS gates taking its bit:
        // if {forced} already violates a violation-monotone local
        // constraint, no superset can be legal.
        if !prune
            .iter()
            .all(|c| c.satisfied(&scratch, &self.assignment))
        {
            return Vec::new();
        }
        BlockEnum {
            name,
            pool,
            prune: &prune,
            complete: &complete,
            mu: &self.assignment,
            scratch,
            submask: 1u64 << pool.len(),
            out: Vec::new(),
        }
        .run()
    }

    /// Constraints local to `name`, split into violation-monotone (safe to
    /// prune DFS subtrees on) and per-leaf checks.
    fn local_split(&self, name: &str) -> (Vec<&Constraint>, Vec<&Constraint>) {
        self.constraints
            .iter()
            .filter(|c| Self::local_to(c, name))
            .partition(|c| c.violation_monotone())
    }

    /// Build the pool of all well-typed tuples for each relation from
    /// per-column candidate value lists.
    pub fn full_pools(
        &self,
        col_values: &dyn Fn(&str, usize) -> Vec<compview_relation::Value>,
    ) -> BTreeMap<String, Vec<Tuple>> {
        let mut pools = BTreeMap::new();
        for d in self.sig.decls() {
            let columns: Vec<Vec<compview_relation::Value>> =
                (0..d.arity()).map(|c| col_values(d.name(), c)).collect();
            let mut tuples = vec![Vec::new()];
            for col in &columns {
                let mut next = Vec::with_capacity(tuples.len() * col.len());
                for partial in &tuples {
                    for &v in col {
                        let mut p = partial.clone();
                        p.push(v);
                        next.push(p);
                    }
                }
                tuples = next;
            }
            pools.insert(
                d.name().to_owned(),
                tuples.into_iter().map(Tuple::new).collect(),
            );
        }
        pools
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{Fd, Jd};
    use compview_relation::{rel, v, RelDecl};

    fn two_unary() -> Schema {
        // The base schema of Example 1.3.6: R, S unary, no constraints.
        Schema::unconstrained(Signature::new([
            RelDecl::new("R", ["A"]),
            RelDecl::new("S", ["A"]),
        ]))
    }

    #[test]
    fn unconstrained_schema_accepts_everything() {
        let d = two_unary();
        assert!(d.has_null_model_property());
        let inst = Instance::null_model(d.sig())
            .with("R", rel(1, [["a1"]]))
            .with("S", rel(1, [["a1"], ["a2"]]));
        assert!(d.is_legal(&inst));
    }

    #[test]
    fn fd_schema_rejects_violations() {
        let sig = Signature::new([RelDecl::new("R", ["A", "B"])]);
        let d = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
        assert!(d.has_null_model_property());
        assert!(d.is_legal(&Instance::null_model(d.sig()).with("R", rel(2, [["a", "x"]]))));
        assert!(
            !d.is_legal(&Instance::null_model(d.sig()).with("R", rel(2, [["a", "x"], ["a", "y"]])))
        );
    }

    #[test]
    fn enumeration_counts_unconstrained_space() {
        let d = two_unary();
        // Pools: R, S each over {a1, a2} → 2^2 subsets each → 16 states.
        let pools: BTreeMap<String, Vec<Tuple>> = [
            (
                "R".to_owned(),
                vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
            ),
            (
                "S".to_owned(),
                vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
            ),
        ]
        .into();
        let ldb = d.enumerate_ldb(&pools);
        assert_eq!(ldb.len(), 16);
        assert!(ldb.iter().any(Instance::is_null_model));
        // Deterministic ordering: re-enumeration is identical.
        assert_eq!(ldb, d.enumerate_ldb(&pools));
    }

    #[test]
    fn enumeration_filters_by_constraints() {
        // Schema of Example 1.2.5: R_SPJ with *[SP, PJ].
        let sig = Signature::new([RelDecl::new("R_SPJ", ["S", "P", "J"])]);
        let d = Schema::new(
            sig,
            vec![Constraint::Jd(Jd::new(
                "R_SPJ",
                vec![vec![0, 1], vec![1, 2]],
            ))],
        );
        let pool: Vec<Tuple> = vec![
            Tuple::new([v("s1"), v("p1"), v("j1")]),
            Tuple::new([v("s1"), v("p1"), v("j2")]),
            Tuple::new([v("s2"), v("p1"), v("j1")]),
            Tuple::new([v("s2"), v("p1"), v("j2")]),
        ];
        let pools: BTreeMap<String, Vec<Tuple>> = [("R_SPJ".to_owned(), pool)].into();
        let ldb = d.enumerate_ldb(&pools);
        // All 4 tuples share P=p1, so legal states are exactly those closed
        // under *[SP,PJ]: the S-set × J-set products: for S⊆{s1,s2},
        // J⊆{j1,j2} nonempty pairs, plus the empty state.
        // Count: (2^2-1)*(2^2-1) products with both nonempty... but states
        // are arbitrary subsets; legal ones are exactly S×J grids.
        // Grids: empty + 3*3 = 10.
        assert_eq!(ldb.len(), 10);
        for s in &ldb {
            assert!(d.is_legal(s));
        }
    }

    #[test]
    fn full_pools_cross_product() {
        let d = two_unary();
        let pools = d.full_pools(&|_, _| vec![v("a1"), v("a2"), v("a3")]);
        assert_eq!(pools["R"].len(), 3);
        assert_eq!(pools["S"].len(), 3);
        let sig2 = Signature::new([RelDecl::new("T", ["A", "B"])]);
        let d2 = Schema::unconstrained(sig2);
        let pools2 = d2.full_pools(&|_, _| vec![v("x"), v("y")]);
        assert_eq!(pools2["T"].len(), 4);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn enumeration_guards_explosion() {
        let d = two_unary();
        let big: Vec<Tuple> = (0..30).map(|i| Tuple::new([v(&format!("a{i}"))])).collect();
        let pools: BTreeMap<String, Vec<Tuple>> =
            [("R".to_owned(), big), ("S".to_owned(), Vec::new())].into();
        d.enumerate_ldb(&pools);
    }

    /// The reference semantics: scan every flat mask, filter by `is_legal`.
    fn reference_scan(d: &Schema, pools: &BTreeMap<String, Vec<Tuple>>) -> Vec<Instance> {
        let decls = d.sig().decls();
        let total_bits: usize = decls.iter().map(|dd| pools[dd.name()].len()).sum();
        let mut out = Vec::new();
        for mask in 0..1usize << total_bits {
            let mut inst = Instance::null_model(d.sig());
            let mut bit = 0usize;
            for dd in decls {
                let mut r = Relation::empty(dd.arity());
                for t in &pools[dd.name()] {
                    if (mask >> bit) & 1 == 1 {
                        r.insert(t.clone());
                    }
                    bit += 1;
                }
                inst.set(dd.name(), r);
            }
            if d.is_legal(&inst) {
                out.push(inst);
            }
        }
        out
    }

    #[test]
    fn pruned_enumeration_matches_reference_scan() {
        // Unconstrained 2-relation schema and a constrained (FD + JD) one,
        // across thread counts: output must be byte-identical to the
        // sequential full-mask scan.
        let unconstrained = two_unary();
        let pools_u: BTreeMap<String, Vec<Tuple>> = [
            (
                "R".to_owned(),
                vec![
                    Tuple::new([v("a1")]),
                    Tuple::new([v("a2")]),
                    Tuple::new([v("a3")]),
                ],
            ),
            (
                "S".to_owned(),
                vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
            ),
        ]
        .into();

        let sig = Signature::new([RelDecl::new("R", ["A", "B"]), RelDecl::new("S", ["A"])]);
        let constrained = Schema::new(
            sig,
            vec![
                Constraint::Fd(Fd::new("R", vec![0], vec![1])),
                Constraint::Jd(Jd::new("R", vec![vec![0], vec![1]])),
            ],
        );
        let pools_c: BTreeMap<String, Vec<Tuple>> = [
            (
                "R".to_owned(),
                vec![
                    Tuple::new([v("a"), v("x")]),
                    Tuple::new([v("a"), v("y")]),
                    Tuple::new([v("b"), v("x")]),
                    Tuple::new([v("b"), v("y")]),
                ],
            ),
            (
                "S".to_owned(),
                vec![Tuple::new([v("a")]), Tuple::new([v("b")])],
            ),
        ]
        .into();

        for (d, pools) in [(&unconstrained, &pools_u), (&constrained, &pools_c)] {
            let expect = reference_scan(d, pools);
            for threads in [1usize, 2, 8] {
                let cfg = EnumerationConfig {
                    max_bits: 28,
                    threads,
                };
                assert_eq!(d.enumerate_ldb_with(pools, &cfg), expect);
            }
        }
    }

    #[test]
    fn constrained_26_bit_space_enumerates() {
        // 26 raw pool bits — a guaranteed panic under the old fixed 24-bit
        // guard, and 2^26 ≈ 67M masks under the old full scan.  The FD
        // R: 0 → 1 prunes each key's 13 candidate values to at most one,
        // so per-block enumeration visits only the 14^2 = 196 legal states.
        let sig = Signature::new([RelDecl::new("R", ["K", "V"])]);
        let d = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
        let pool: Vec<Tuple> = ["a", "b"]
            .iter()
            .flat_map(|k| (0..13).map(move |i| Tuple::new([v(k), v(&format!("v{i}"))])))
            .collect();
        assert_eq!(pool.len(), 26);
        let pools: BTreeMap<String, Vec<Tuple>> = [("R".to_owned(), pool)].into();
        let ldb = d.enumerate_ldb(&pools);
        assert_eq!(ldb.len(), 14 * 14);
        assert!(ldb.iter().all(|s| d.is_legal(s)));
        assert!(ldb.iter().any(Instance::is_null_model));
    }

    #[test]
    fn detailed_enumeration_reconstructs_states() {
        // The combo index of each state must decode, through the block
        // lists, back to the state itself — and submasks must pack to the
        // same relations.
        let sig = Signature::new([RelDecl::new("R", ["A", "B"]), RelDecl::new("S", ["A"])]);
        let d = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
        let pools: BTreeMap<String, Vec<Tuple>> = [
            (
                "R".to_owned(),
                vec![
                    Tuple::new([v("a"), v("x")]),
                    Tuple::new([v("a"), v("y")]),
                    Tuple::new([v("b"), v("x")]),
                ],
            ),
            (
                "S".to_owned(),
                vec![Tuple::new([v("a")]), Tuple::new([v("b")])],
            ),
        ]
        .into();
        let detail = d.enumerate_ldb_detailed(&pools, &EnumerationConfig::default());
        assert_eq!(detail.states, d.enumerate_ldb(&pools));
        assert_eq!(detail.states.len(), detail.state_combos.len());
        let decls = d.sig().decls();
        for (s, &combo) in detail.states.iter().zip(&detail.state_combos) {
            let mut rest = combo;
            for (dd, blocks) in decls.iter().zip(&detail.blocks) {
                let b = &blocks[rest % blocks.len()];
                rest /= blocks.len();
                assert_eq!(s.rel(dd.name()), &b.rel);
                // Submask packs to the block's relation.
                let mut r = Relation::empty(dd.arity());
                for (p, t) in pools[dd.name()].iter().enumerate() {
                    if b.submask >> p & 1 == 1 {
                        r.insert(t.clone());
                    }
                }
                assert_eq!(&r, &b.rel);
            }
        }
        // Combos ascend (enumeration order) and submasks ascend per block
        // list.
        assert!(detail.state_combos.windows(2).all(|w| w[0] < w[1]));
        for blocks in &detail.blocks {
            assert!(blocks.windows(2).all(|w| w[0].submask < w[1].submask));
        }
    }

    #[test]
    fn seeded_blocks_complete_the_grown_pool() {
        // legal_blocks(pool ++ [t]) == legal_blocks(pool) ++ seeded(pool, t)
        // up to order: the seeded call yields exactly the blocks containing
        // the forced tuple.
        let sig = Signature::new([RelDecl::new("R", ["K", "V"])]);
        let d = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
        let pool: Vec<Tuple> = vec![
            Tuple::new([v("a"), v("x")]),
            Tuple::new([v("a"), v("y")]),
            Tuple::new([v("b"), v("x")]),
        ];
        let t = Tuple::new([v("b"), v("y")]);
        let mut grown = pool.clone();
        grown.push(t.clone());

        let old = d.legal_blocks("R", &pool);
        let seeded = d.legal_blocks_seeded("R", &pool, &t);
        let full = d.legal_blocks("R", &grown);

        assert!(seeded
            .iter()
            .all(|b| b.submask >> pool.len() & 1 == 1 && b.rel.contains(&t)));
        let mut spliced: Vec<LegalBlock> = old;
        spliced.extend(seeded);
        // Same block set; the splice appends new blocks after old ones.
        let mut a: Vec<&LegalBlock> = spliced.iter().collect();
        let mut b: Vec<&LegalBlock> = full.iter().collect();
        a.sort_by_key(|x| x.submask);
        b.sort_by_key(|x| x.submask);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_blocks_prune_illegal_seed() {
        // A forced tuple that alone violates a monotone local constraint
        // yields no blocks.
        let sig = Signature::new([RelDecl::new("R", ["K", "V"])]);
        let mut d = Schema::unconstrained(sig);
        // FD on an existing pair conflicts with the forced tuple's key.
        d.add_constraint(Constraint::Fd(Fd::new("R", vec![0], vec![1])));
        let pool = vec![Tuple::new([v("a"), v("x")])];
        // Forcing a second value for key "a" leaves only blocks without
        // pool[0]; forcing a self-violating tuple is impossible with an FD,
        // so instead check the conflict case: every seeded block omits the
        // clashing old tuple.
        let t = Tuple::new([v("a"), v("y")]);
        let seeded = d.legal_blocks_seeded("R", &pool, &t);
        assert!(!seeded.is_empty());
        assert!(seeded.iter().all(|b| b.submask & 1 == 0));
    }

    #[test]
    fn rules_compile_all_constraints() {
        let sig = Signature::new([RelDecl::new("R", ["A", "B", "C"])]);
        let d = Schema::new(
            sig,
            vec![
                Constraint::Fd(Fd::new("R", vec![0], vec![1])),
                Constraint::Jd(Jd::new("R", vec![vec![0, 1], vec![1, 2]])),
            ],
        );
        let (tgds, egds) = d.rules();
        assert_eq!(tgds.len(), 1);
        assert_eq!(egds.len(), 1);
    }
}
