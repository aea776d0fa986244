//! Enumerated state spaces: `LDB(D, μ)` as an explicit finite ↓-poset.
//!
//! The paper's theorems quantify over all legal databases.  A [`StateSpace`]
//! enumerates `LDB(D, μ)` for a finite type assignment (per-relation tuple
//! pools) and materialises the relation-by-relation inclusion order of
//! Notation 1.2.3 as a [`FinPoset`], which makes every definition of
//! §§1–3 — kernels, complements, strong views, admissibility — *decidable*
//! on the space.
//!
//! # Incremental maintenance
//!
//! A space built by [`StateSpace::enumerate`] keeps its enumeration
//! provenance (the tuple pools, each relation's legal blocks, and which
//! block each state draws per relation).  [`StateSpace::insert_tuple`] and
//! [`StateSpace::remove_tuple`] use it to *patch* the space in place:
//!
//! - **Insert** appends the tuple to the end of its relation's pool.  Block
//!   legality depends only on the tuple set, so every old block stays legal
//!   and the new block list is `old ++ fresh` where `fresh` are exactly the
//!   blocks containing the new tuple (a seeded DFS,
//!   `Schema::legal_blocks_seeded`).  In the cross-product combo order the
//!   old states of each suffix chunk stay contiguous and in order, so the
//!   new state list is produced by splicing assembled-and-filtered new
//!   combos between preserved old states — no old state is rebuilt or
//!   re-checked.
//! - **Remove** drops every block whose submask uses the removed pool bit.
//!   Surviving states are a pure filter of the old list (no instance
//!   assembly, no constraint checks), and the poset is a restriction.
//!
//! Both patch the poset bitrows via [`FinPoset::patched`], comparing states
//! by per-relation pool submasks (word tests) instead of `is_subinstance`
//! B-tree walks.  Submask inclusion coincides with relation inclusion here
//! because a pool tuple whose bit appears in any legal block is necessarily
//! unduplicated — a duplicate would pack two distinct submasks to equal
//! relations, hence equal states, which `FinPoset::from_leq` rejects as an
//! antisymmetry violation at construction.
//!
//! The result is checked byte-identical to a fresh enumeration by
//! [`StateSpace::validate_against_full`] (used by the cross-validation
//! tests and `compview-session`'s paranoid mode).
//!
//! # One space per key
//!
//! A space is a pure function of its **key**: the schema (signature and
//! constraints), the per-relation pools in their order, and `max_bits`.
//! The thread count is not part of it, since enumeration output is the
//! same at every thread count.  [`StateSpace::shared`] interns spaces by
//! key in a process-wide table, in the style of the symbol interner in
//! `compview-relation`: every caller asking for a live key gets an
//! `Arc` of the same allocation, and only a miss enumerates.  A hit is
//! decided by comparing the whole key, never by its hash alone.
//!
//! - The table keeps only `Weak` handles.  A space lives exactly as long
//!   as someone holds it, and dead entries are pruned on later lookups
//!   and publications.
//! - The table's lock covers lookups and publications only, never an
//!   enumeration or a patch.  Two racing misses on one key both build it;
//!   the second to publish adopts the first one's allocation.
//! - A pool edit is a move between keys ([`StateSpace::edit_shared`]).
//!   On a hit the caller takes the live child and no state is visited; on
//!   a miss the incremental patch runs on a private copy of the parent
//!   (no copy when the caller held the only handle), which is then
//!   published.  Either way the caller sees the same report and the same
//!   space.  No state id is carried across an edit: a caller holding one
//!   looks its state up again in the new space.
//! - The reference paths never look up: [`StateSpace::enumerate`] and
//!   friends, [`StateSpace::edit_full`] and
//!   [`StateSpace::validate_against_full`] build their own spaces.
//!
//! # One check per component and space
//!
//! Whether a family's mask is a component of the space depends only on
//! the space, the family and the mask.  Each space therefore keeps a
//! table of verdicts keyed by a family fingerprint and a mask
//! ([`StateSpace::verdict`]), so the sessions of one key check each
//! component once between them.  The table is never trusted across a
//! change: a clone starts with an empty one, and both in-place edits
//! empty it, since a sole holder's space is patched in place and its key
//! changes under it.  Keys are compared in full, and no lock is held
//! while a check runs.

use compview_lattice::FinPoset;
use compview_logic::{EnumObs, EnumerationConfig, LegalBlock, Schema};
use compview_relation::{binio, Instance, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Per-relation tuple pools, keyed by relation name.
type Pools = BTreeMap<String, Vec<Tuple>>;

/// An explicitly enumerated `LDB(D, μ)` with its inclusion order.
#[derive(Clone)]
pub struct StateSpace {
    schema: Schema,
    states: Vec<Instance>,
    /// State ids sorted by `states[id]`; lookups binary-search through this
    /// permutation, borrowing from `states` instead of cloning every
    /// `Instance` into a hash map.
    index: Vec<usize>,
    poset: FinPoset,
    /// Enumeration provenance for incremental edits; `None` when the space
    /// was built from an explicit state list.
    inc: Option<IncState>,
    /// Component verdicts checked on this space.
    verdicts: Verdicts,
}

/// A component verdict: `Ok`, or why the mask is not a component.
pub type Verdict = Result<(), String>;

/// Verdicts per family fingerprint and mask (see
/// [`StateSpace::verdict`]).
#[derive(Default)]
struct Verdicts(Mutex<HashMap<Vec<u8>, HashMap<u32, Verdict>>>);

impl Clone for Verdicts {
    /// Empty: a copy of a space is made to be edited, and a verdict on
    /// the original says nothing about the edited space.
    fn clone(&self) -> Verdicts {
        Verdicts::default()
    }
}

impl Verdicts {
    fn table(&self) -> MutexGuard<'_, HashMap<Vec<u8>, HashMap<u32, Verdict>>> {
        // No check runs under the lock, so a poisoned guard still guards
        // a consistent map.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Enumeration provenance: what [`StateSpace::insert_tuple`] /
/// [`StateSpace::remove_tuple`] patch instead of re-deriving.
#[derive(Clone)]
struct IncState {
    /// The per-relation tuple pools the space was enumerated from.
    pools: BTreeMap<String, Vec<Tuple>>,
    /// The enumeration guard the space was built under (edits re-check it).
    max_bits: usize,
    /// Per declared relation, the legal blocks in enumeration order.
    blocks: Vec<Vec<LegalBlock>>,
    /// Flattened per-state block indices: entry `s * n_rels + r` indexes
    /// `blocks[r]` for state `s`.
    state_blocks: Vec<u32>,
}

/// Outcome of a successful pool edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditReport {
    /// States in the space before the edit.
    pub states_before: usize,
    /// States after the edit.
    pub states_after: usize,
}

/// A rejected pool edit.  The space is untouched when any of these is
/// returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The space was built from an explicit state list
    /// ([`StateSpace::from_states`]) and has no pools to edit.
    NotEditable,
    /// No declared relation has this name.
    UnknownRelation(String),
    /// The tuple's arity does not match the relation's.
    ArityMismatch {
        /// The relation being edited.
        relation: String,
        /// The relation's declared arity.
        expected: usize,
        /// The offered tuple's arity.
        got: usize,
    },
    /// The tuple is already in the relation's pool (pools are
    /// duplicate-free sets).
    DuplicateTuple {
        /// The relation being edited.
        relation: String,
    },
    /// The tuple to remove is not in the relation's pool.
    MissingTuple {
        /// The relation being edited.
        relation: String,
    },
    /// The insert would push the raw pool bits past the enumeration guard.
    TooLarge {
        /// Raw pool bits after the edit.
        bits: usize,
        /// The guard the space was built under.
        max_bits: usize,
    },
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::NotEditable => {
                write!(f, "space was built from explicit states; no pools to edit")
            }
            EditError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            EditError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for {relation:?}: expected {expected}, got {got}"
            ),
            EditError::DuplicateTuple { relation } => {
                write!(f, "tuple already in the pool of {relation:?}")
            }
            EditError::MissingTuple { relation } => {
                write!(f, "tuple not in the pool of {relation:?}")
            }
            EditError::TooLarge { bits, max_bits } => write!(
                f,
                "edited space 2^{bits} exceeds the enumeration guard (max_bits = {max_bits})"
            ),
        }
    }
}

impl std::error::Error for EditError {}

/// One pool edit: a single tuple into or out of one relation's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolEdit<'a> {
    /// Append the tuple to the relation's pool.
    Insert(&'a str, &'a Tuple),
    /// Remove the tuple from the relation's pool.
    Remove(&'a str, &'a Tuple),
}

/// Pools that do not fit the schema they were offered with.
/// [`StateSpace::shared`] refuses them before enumerating anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A declared relation has no pool.
    MissingPool(String),
    /// A pool tuple's arity differs from its relation's.
    ArityMismatch {
        /// The relation whose pool holds the tuple.
        relation: String,
        /// The relation's declared arity.
        expected: usize,
        /// The tuple's arity.
        got: usize,
    },
    /// The raw pool bits exceed the enumeration guard.
    TooLarge {
        /// Raw pool bits over the declared relations.
        bits: usize,
        /// The guard.
        max_bits: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::MissingPool(r) => write!(f, "no tuple pool for relation {r:?}"),
            PoolError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "pool of {relation:?} holds a tuple of arity {got}, expected {expected}"
            ),
            PoolError::TooLarge { bits, max_bits } => write!(
                f,
                "state space 2^{bits} too large to enumerate (max_bits = {max_bits})"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// Check `pools` against `schema` and the guard, exactly where the
/// enumerator would otherwise panic: every declared relation has a pool,
/// every pool tuple has its relation's arity, and the pool bits fit.
fn check_pools(schema: &Schema, pools: &Pools, max_bits: usize) -> Result<(), PoolError> {
    let mut bits = 0;
    for d in schema.sig().decls() {
        let pool = pools
            .get(d.name())
            .ok_or_else(|| PoolError::MissingPool(d.name().to_owned()))?;
        if let Some(t) = pool.iter().find(|t| t.arity() != d.arity()) {
            return Err(PoolError::ArityMismatch {
                relation: d.name().to_owned(),
                expected: d.arity(),
                got: t.arity(),
            });
        }
        bits += pool.len();
    }
    if bits > max_bits {
        return Err(PoolError::TooLarge { bits, max_bits });
    }
    Ok(())
}

/// The interner table: key hash → weak handles of the spaces published
/// under that hash.
type Table = HashMap<u64, Vec<Weak<StateSpace>>>;

fn table_lock() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

fn table() -> MutexGuard<'static, Table> {
    // The table holds only weak handles and no code that can panic runs
    // under its lock, so a poisoned guard still guards a consistent map.
    table_lock().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bucket of a key.  Only a bucket: hits compare the whole key.
fn key_hash(pools: &Pools, max_bits: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pools.hash(&mut h);
    max_bits.hash(&mut h);
    h.finish()
}

/// The live space published under this key, if any; a hit bumps
/// `obs.reused`.
fn lookup(
    schema: &Schema,
    pools: &Pools,
    max_bits: usize,
    obs: &EnumObs,
) -> Option<Arc<StateSpace>> {
    let h = key_hash(pools, max_bits);
    let mut table = table();
    let bucket = table.get_mut(&h)?;
    bucket.retain(|w| w.strong_count() > 0);
    let hit = bucket
        .iter()
        .filter_map(Weak::upgrade)
        .find(|sp| sp.has_key(schema, pools, max_bits));
    if bucket.is_empty() {
        table.remove(&h);
    }
    drop(table);
    if hit.is_some() {
        obs.reused.inc();
    }
    hit
}

/// Make `space` the entry of its key and return the handle callers should
/// hold.  A live entry of the same key wins (a racing miss adopts it)
/// unless `displace` is set, which replaces it — the cross-validation
/// repair's way to retire a patched space that diverged.  Dead entries
/// of every key are pruned on the way.
fn publish(space: Arc<StateSpace>, displace: bool) -> Arc<StateSpace> {
    let inc = space
        .inc
        .as_ref()
        .expect("only enumerated spaces are interned");
    let h = key_hash(&inc.pools, inc.max_bits);
    let mut table = table();
    table.retain(|_, bucket| {
        bucket.retain(|w| w.strong_count() > 0);
        !bucket.is_empty()
    });
    let bucket = table.entry(h).or_default();
    let live = bucket.iter().enumerate().find_map(|(i, w)| {
        w.upgrade()
            .filter(|sp| sp.has_key(&space.schema, &inc.pools, inc.max_bits))
            .map(|sp| (i, sp))
    });
    match live {
        Some((_, sp)) if !displace => sp,
        live => {
            if let Some((i, _)) = live {
                bucket.swap_remove(i);
            }
            bucket.push(Arc::downgrade(&space));
            space
        }
    }
}

/// Sorted-id index over `states` (uses `Instance`'s derived total order).
fn id_index(states: &[Instance]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..states.len()).collect();
    ids.sort_unstable_by(|&a, &b| states[a].cmp(&states[b]));
    ids
}

/// The enumeration config for a guard, at the process's thread count.
fn config(max_bits: usize) -> EnumerationConfig {
    EnumerationConfig {
        max_bits,
        threads: compview_parallel::num_threads(),
    }
}

impl StateSpace {
    /// Enumerate the space from per-relation tuple pools.
    ///
    /// # Panics
    /// Panics if the raw space exceeds the enumeration guard in
    /// `compview-logic`, or if the schema lacks the null model property —
    /// §3's standing assumption, required for the ↓-poset structure.
    pub fn enumerate(schema: Schema, pools: &BTreeMap<String, Vec<Tuple>>) -> StateSpace {
        StateSpace::enumerate_with(schema, pools, &EnumerationConfig::default())
    }

    /// [`StateSpace::enumerate`] with explicit enumeration limits and
    /// thread count.  The limits are remembered and re-enforced by the
    /// incremental edit methods.
    pub fn enumerate_with(
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        config: &EnumerationConfig,
    ) -> StateSpace {
        StateSpace::enumerate_observed(schema, pools, config, &compview_logic::EnumObs::noop())
    }

    /// [`StateSpace::enumerate_with`] with enumeration instrumentation
    /// (run/state tallies, per-shard and whole-run timings).  The space
    /// built is byte-identical to the unobserved call.
    pub fn enumerate_observed(
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        config: &EnumerationConfig,
        obs: &compview_logic::EnumObs,
    ) -> StateSpace {
        assert!(
            schema.has_null_model_property(),
            "schema lacks the null model property (§2.3); \
             the state space would not be a ↓-poset"
        );
        let detail = schema.enumerate_ldb_observed(pools, config, obs);
        let n_rels = detail.blocks.len();
        let mut state_blocks = Vec::with_capacity(detail.states.len() * n_rels);
        for &combo in &detail.state_combos {
            let mut rest = combo;
            for b in &detail.blocks {
                state_blocks.push((rest % b.len()) as u32);
                rest /= b.len();
            }
        }
        let index = id_index(&detail.states);
        let states = detail.states;
        let poset = FinPoset::from_leq(states.len(), |a, b| states[a].is_subinstance(&states[b]));
        StateSpace {
            schema,
            states,
            index,
            poset,
            inc: Some(IncState {
                pools: pools.clone(),
                max_bits: config.max_bits,
                blocks: detail.blocks,
                state_blocks,
            }),
            verdicts: Verdicts::default(),
        }
    }

    /// Build a space from an explicit list of legal states (used when the
    /// legal set is constructed directly, e.g. closed path-schema states).
    /// Such a space has no pools, so the incremental edit methods return
    /// [`EditError::NotEditable`].
    ///
    /// # Panics
    /// Panics if any state is illegal, states repeat, or the null model is
    /// absent.
    pub fn from_states(schema: Schema, states: Vec<Instance>) -> StateSpace {
        for s in &states {
            assert!(schema.is_legal(s), "illegal state in explicit space:\n{s}");
        }
        let index = id_index(&states);
        assert!(
            index.windows(2).all(|w| states[w[0]] != states[w[1]]),
            "duplicate states"
        );
        assert!(
            states.iter().any(Instance::is_null_model),
            "state list must contain the null model"
        );
        let poset = FinPoset::from_leq(states.len(), |a, b| states[a].is_subinstance(&states[b]));
        StateSpace {
            schema,
            states,
            index,
            poset,
            inc: None,
            verdicts: Verdicts::default(),
        }
    }

    /// The schema `D`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty (never true for a valid space).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// State by id.
    pub fn state(&self, i: usize) -> &Instance {
        &self.states[i]
    }

    /// All states.
    pub fn states(&self) -> &[Instance] {
        &self.states
    }

    /// Id of a state.
    pub fn id_of(&self, s: &Instance) -> Option<usize> {
        self.index
            .binary_search_by(|&i| self.states[i].cmp(s))
            .ok()
            .map(|pos| self.index[pos])
    }

    /// Id of a state, panicking with context when absent.
    pub fn expect_id(&self, s: &Instance) -> usize {
        self.id_of(s)
            .unwrap_or_else(|| panic!("state not in enumerated space:\n{s}"))
    }

    /// The inclusion order as a poset ([`FinPoset`] over state ids).
    pub fn poset(&self) -> &FinPoset {
        &self.poset
    }

    /// Id of the null model (the ↓-poset's `⊥`).
    pub fn bottom(&self) -> usize {
        self.poset
            .bottom()
            .expect("null model guaranteed at construction")
    }

    /// The tuple pools the space was enumerated from, if it was.
    pub fn pools(&self) -> Option<&BTreeMap<String, Vec<Tuple>>> {
        self.inc.as_ref().map(|inc| &inc.pools)
    }

    /// Validate an edit target and tuple shape; returns the relation's
    /// declaration position.
    fn check_edit(&self, rel: &str, t: &Tuple) -> Result<usize, EditError> {
        if self.inc.is_none() {
            return Err(EditError::NotEditable);
        }
        let decls = self.schema.sig().decls();
        let k = decls
            .iter()
            .position(|d| d.name() == rel)
            .ok_or_else(|| EditError::UnknownRelation(rel.to_owned()))?;
        if t.arity() != decls[k].arity() {
            return Err(EditError::ArityMismatch {
                relation: rel.to_owned(),
                expected: decls[k].arity(),
                got: t.arity(),
            });
        }
        Ok(k)
    }

    fn check_insert(&self, rel: &str, t: &Tuple) -> Result<usize, EditError> {
        let k = self.check_edit(rel, t)?;
        let inc = self.inc.as_ref().expect("checked editable");
        if inc.pools[rel].contains(t) {
            return Err(EditError::DuplicateTuple {
                relation: rel.to_owned(),
            });
        }
        let bits: usize = inc.pools.values().map(Vec::len).sum();
        if bits + 1 > inc.max_bits {
            return Err(EditError::TooLarge {
                bits: bits + 1,
                max_bits: inc.max_bits,
            });
        }
        Ok(k)
    }

    fn check_remove(&self, rel: &str, t: &Tuple) -> Result<(usize, usize), EditError> {
        let k = self.check_edit(rel, t)?;
        let inc = self.inc.as_ref().expect("checked editable");
        let p =
            inc.pools[rel]
                .iter()
                .position(|u| u == t)
                .ok_or_else(|| EditError::MissingTuple {
                    relation: rel.to_owned(),
                })?;
        Ok((k, p))
    }

    /// Append `t` to relation `rel`'s pool and patch the space in place:
    /// states, id index, and poset end up byte-identical to a fresh
    /// [`StateSpace::enumerate`] on the grown pools, without re-enumerating
    /// or re-checking any surviving state (see the module docs for the
    /// splice argument).
    ///
    /// On error the space is untouched.
    pub fn insert_tuple(&mut self, rel: &str, t: Tuple) -> Result<EditReport, EditError> {
        let k = self.check_insert(rel, &t)?;
        self.verdicts = Verdicts::default();
        let n_old = self.states.len();
        let inc = self.inc.take().expect("checked editable");
        // Blocks gained: exactly the legal subsets of the grown pool that
        // contain t, in ascending submask order, appended after the old
        // blocks (t's bit is the new highest).
        let fresh = self.schema.legal_blocks_seeded(rel, &inc.pools[rel], &t);
        if fresh.is_empty() {
            // No legal block uses t: only the pool grows; every existing
            // submask ignores the new bit.
            let mut inc = inc;
            inc.pools.get_mut(rel).expect("checked relation").push(t);
            self.inc = Some(inc);
            return Ok(EditReport {
                states_before: n_old,
                states_after: n_old,
            });
        }

        let decls = self.schema.sig().decls();
        let n_rels = decls.len();
        let s_k = inc.blocks[k].len();
        // Combo strides around relation k: combo = pre + P·(i_k + S_k·suf).
        let p_stride: usize = inc.blocks[..k].iter().map(Vec::len).product();
        let suf_count: usize = inc.blocks[k + 1..].iter().map(Vec::len).product();
        let sig = self.schema.sig();
        let mu = self.schema.assignment();
        let globals = self.schema.global_constraints();

        // Assemble-and-filter one candidate new state, exactly as
        // enumeration does.
        let assemble = |a: usize, pre: usize, suf: usize| -> Option<(Instance, Vec<u32>)> {
            let mut inst = Instance::null_model(sig);
            let mut row = vec![0u32; n_rels];
            let mut rest = pre;
            for r in 0..k {
                let len = inc.blocks[r].len();
                let i = rest % len;
                rest /= len;
                inst.set(decls[r].name(), inc.blocks[r][i].rel.clone());
                row[r] = i as u32;
            }
            inst.set(decls[k].name(), fresh[a].rel.clone());
            row[k] = (s_k + a) as u32;
            let mut rest = suf;
            for r in k + 1..n_rels {
                let len = inc.blocks[r].len();
                let i = rest % len;
                rest /= len;
                inst.set(decls[r].name(), inc.blocks[r][i].rel.clone());
                row[r] = i as u32;
            }
            (inst.conforms_to(sig) && globals.iter().all(|c| c.satisfied(&inst, mu)))
                .then_some((inst, row))
        };
        // Suffix-chunk index of an old state (relations after k, in combo
        // encoding).  Nondecreasing along the old state order.
        let suf_of = |s: usize| -> usize {
            let mut suf = 0usize;
            for r in (k + 1..n_rels).rev() {
                suf = suf * inc.blocks[r].len() + inc.state_blocks[s * n_rels + r] as usize;
            }
            suf
        };

        // Splice: per suffix chunk, old states first (combo order puts all
        // old i_k below all fresh i_k), then new combos with i_k major and
        // pre minor — matching ascending new-combo order.
        let old_states = std::mem::take(&mut self.states);
        let mut new_states: Vec<Instance> = Vec::with_capacity(n_old);
        let mut new_state_blocks: Vec<u32> = Vec::with_capacity(n_old * n_rels);
        let mut origin: Vec<Option<usize>> = Vec::with_capacity(n_old);
        let mut old_iter = old_states.into_iter().enumerate().peekable();
        for suf in 0..suf_count {
            while old_iter.peek().is_some_and(|&(i, _)| suf_of(i) == suf) {
                let (i, st) = old_iter.next().expect("peeked");
                origin.push(Some(i));
                new_state_blocks.extend_from_slice(&inc.state_blocks[i * n_rels..(i + 1) * n_rels]);
                new_states.push(st);
            }
            for a in 0..fresh.len() {
                for pre in 0..p_stride {
                    if let Some((inst, row)) = assemble(a, pre, suf) {
                        origin.push(None);
                        new_state_blocks.extend(row);
                        new_states.push(inst);
                    }
                }
            }
        }
        debug_assert!(old_iter.next().is_none(), "old states not exhausted");
        let n_new = new_states.len();

        // Id index: the old index is still sorted after remapping to new
        // positions; sort only the fresh states and merge the two runs.
        let mut pos_of_old = vec![usize::MAX; n_old];
        let mut fresh_pos: Vec<usize> = Vec::with_capacity(n_new - n_old);
        for (j, o) in origin.iter().enumerate() {
            match o {
                Some(i) => pos_of_old[*i] = j,
                None => fresh_pos.push(j),
            }
        }
        let old_sorted: Vec<usize> = self.index.iter().map(|&i| pos_of_old[i]).collect();
        fresh_pos.sort_unstable_by(|&a, &b| new_states[a].cmp(&new_states[b]));
        let mut index = Vec::with_capacity(n_new);
        let (mut x, mut y) = (0usize, 0usize);
        while x < old_sorted.len() && y < fresh_pos.len() {
            if new_states[old_sorted[x]] < new_states[fresh_pos[y]] {
                index.push(old_sorted[x]);
                x += 1;
            } else {
                index.push(fresh_pos[y]);
                y += 1;
            }
        }
        index.extend_from_slice(&old_sorted[x..]);
        index.extend_from_slice(&fresh_pos[y..]);

        // Poset: copy survivor-survivor bits, compute pairs involving fresh
        // states by per-relation submask inclusion (valid here — see the
        // module docs).
        let submask = |s: usize, r: usize| -> u64 {
            let bi = new_state_blocks[s * n_rels + r] as usize;
            if r == k && bi >= s_k {
                fresh[bi - s_k].submask
            } else {
                inc.blocks[r][bi].submask
            }
        };
        let poset = self.poset.patched(&origin, |a, b| {
            (0..n_rels).all(|r| submask(a, r) & !submask(b, r) == 0)
        });

        let mut inc = inc;
        inc.blocks[k].extend(fresh);
        inc.pools.get_mut(rel).expect("checked relation").push(t);
        inc.state_blocks = new_state_blocks;
        self.states = new_states;
        self.index = index;
        self.poset = poset;
        self.inc = Some(inc);
        Ok(EditReport {
            states_before: n_old,
            states_after: n_new,
        })
    }

    /// Remove `t` from relation `rel`'s pool and patch the space in place:
    /// drop every block using the tuple's bit, filter the states (no
    /// instance is rebuilt or re-checked), restrict the poset.  Result is
    /// byte-identical to a fresh [`StateSpace::enumerate`] on the shrunk
    /// pools.
    ///
    /// On error the space is untouched.  Note the current state of a
    /// catalog layered on this space may leave the space — callers who care
    /// (e.g. `compview-session`) must reject that case themselves.
    pub fn remove_tuple(&mut self, rel: &str, t: &Tuple) -> Result<EditReport, EditError> {
        let (k, p) = self.check_remove(rel, t)?;
        self.verdicts = Verdicts::default();
        let n_old = self.states.len();
        let inc = self.inc.take().expect("checked editable");
        let n_rels = self.schema.sig().decls().len();

        // Surviving blocks: submask bit p clear; recompact the bits above p.
        let bit = 1u64 << p;
        let low = bit - 1;
        let mut remap = vec![u32::MAX; inc.blocks[k].len()];
        let mut kept: Vec<LegalBlock> = Vec::new();
        for (i, b) in inc.blocks[k].iter().enumerate() {
            if b.submask & bit == 0 {
                remap[i] = kept.len() as u32;
                kept.push(LegalBlock {
                    submask: ((b.submask >> (p + 1)) << p) | (b.submask & low),
                    rel: b.rel.clone(),
                });
            }
        }

        // Filter states: a state survives iff its relation-k block does.
        // Ascending (suf, i_k, pre) order is preserved by a monotone block
        // remap, so the filtered list is exactly the fresh enumeration.
        let old_states = std::mem::take(&mut self.states);
        let mut new_states: Vec<Instance> = Vec::with_capacity(n_old);
        let mut new_state_blocks: Vec<u32> = Vec::with_capacity(n_old * n_rels);
        let mut origin: Vec<Option<usize>> = Vec::with_capacity(n_old);
        for (i, st) in old_states.into_iter().enumerate() {
            let bi = inc.state_blocks[i * n_rels + k] as usize;
            let nb = remap[bi];
            if nb != u32::MAX {
                origin.push(Some(i));
                for r in 0..n_rels {
                    new_state_blocks.push(if r == k {
                        nb
                    } else {
                        inc.state_blocks[i * n_rels + r]
                    });
                }
                new_states.push(st);
            }
        }
        let n_new = new_states.len();

        let mut pos_of_old = vec![usize::MAX; n_old];
        for (j, o) in origin.iter().enumerate() {
            pos_of_old[o.expect("pure removal")] = j;
        }
        let index: Vec<usize> = self
            .index
            .iter()
            .filter(|&&i| pos_of_old[i] != usize::MAX)
            .map(|&i| pos_of_old[i])
            .collect();
        // Pure removal: every new element is a survivor, so the patch is a
        // bit remap and leq is never consulted.
        let poset = self
            .poset
            .patched(&origin, |_, _| unreachable!("pure removal never compares"));

        let mut inc = inc;
        inc.blocks[k] = kept;
        inc.pools.get_mut(rel).expect("checked relation").remove(p);
        inc.state_blocks = new_state_blocks;
        self.states = new_states;
        self.index = index;
        self.poset = poset;
        self.inc = Some(inc);
        Ok(EditReport {
            states_before: n_old,
            states_after: n_new,
        })
    }

    /// `edit` by full re-enumeration into a new space, leaving this one
    /// as it is: the same validation and result as the incremental edits,
    /// none of the patching.  The reference path (`compview-session`'s
    /// `incremental: false` mode); never consults the interner.
    pub fn edit_full(&self, edit: PoolEdit<'_>) -> Result<(EditReport, StateSpace), EditError> {
        let next = self.reenumerate(&self.edited_pools(edit)?);
        let report = EditReport {
            states_before: self.len(),
            states_after: next.len(),
        };
        Ok((report, next))
    }

    /// A fresh enumeration of `pools` under this space's schema and guard.
    fn reenumerate(&self, pools: &Pools) -> StateSpace {
        let inc = self
            .inc
            .as_ref()
            .expect("only enumerated spaces re-enumerate");
        StateSpace::enumerate_with(self.schema.clone(), pools, &config(inc.max_bits))
    }

    /// Validate `edit` exactly as the edit methods do and return the pools
    /// it leads to: the key of the edited space.
    fn edited_pools(&self, edit: PoolEdit<'_>) -> Result<Pools, EditError> {
        let mut pools = self.pools().ok_or(EditError::NotEditable)?.clone();
        match edit {
            PoolEdit::Insert(rel, t) => {
                self.check_insert(rel, t)?;
                pools
                    .get_mut(rel)
                    .expect("checked relation")
                    .push(t.clone());
            }
            PoolEdit::Remove(rel, t) => {
                let (_, p) = self.check_remove(rel, t)?;
                pools.get_mut(rel).expect("checked relation").remove(p);
            }
        }
        Ok(pools)
    }

    /// Serialise this space's enumeration provenance — pools and the
    /// enumeration guard — in the `compview-relation` binary codec.
    ///
    /// The states, index, and poset are *not* written: they are a pure
    /// deterministic function of `(schema, pools, max_bits)`, so
    /// [`StateSpace::decode_snapshot`] re-derives them byte-identically
    /// (at any thread count) from this compact form.  That makes snapshots
    /// a few hundred bytes where the materialised space is megabytes, and
    /// means a corrupted snapshot can never produce a *plausible but
    /// wrong* space: it either decodes and re-enumerates, or it errors.
    ///
    /// # Errors
    /// [`EditError::NotEditable`] when the space was built from an
    /// explicit state list and has no pools to record.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), EditError> {
        let inc = self.inc.as_ref().ok_or(EditError::NotEditable)?;
        binio::put_u64(out, inc.max_bits as u64);
        binio::put_u32(
            out,
            u32::try_from(inc.pools.len()).expect("pool count fits u32"),
        );
        for (name, pool) in &inc.pools {
            binio::put_str(out, name);
            binio::put_tuples(out, pool);
        }
        Ok(())
    }

    /// Rebuild a space from [`StateSpace::encode_snapshot`] bytes by
    /// re-enumerating the recorded pools under `schema`.
    ///
    /// # Errors
    /// Any [`binio::DecodeError`] from a malformed buffer.
    ///
    /// # Panics
    /// Panics like [`StateSpace::enumerate_with`] does when the decoded
    /// pools are illegal for `schema`.  [`StateSpace::decode_geometry`]
    /// plus [`StateSpace::shared`] refuses such pools with a typed error
    /// instead.
    pub fn decode_snapshot(
        schema: Schema,
        dec: &mut binio::Dec<'_>,
    ) -> Result<StateSpace, binio::DecodeError> {
        let (pools, max_bits) = StateSpace::decode_geometry(dec)?;
        Ok(StateSpace::enumerate_with(
            schema,
            &pools,
            &config(max_bits),
        ))
    }

    /// Decode the geometry [`StateSpace::encode_snapshot`] wrote: the pools
    /// and the enumeration guard, without enumerating anything.
    ///
    /// # Errors
    /// Any [`binio::DecodeError`] from a malformed buffer.
    pub fn decode_geometry(dec: &mut binio::Dec<'_>) -> Result<(Pools, usize), binio::DecodeError> {
        let max_bits = dec.u64()? as usize;
        let n = dec.u32()? as usize;
        let mut pools = Pools::new();
        for _ in 0..n {
            let name = dec.str()?;
            let pool = dec.tuples()?;
            pools.insert(name, pool);
        }
        Ok((pools, max_bits))
    }

    /// Whether `mask` of the family fingerprinted `fingerprint` is a
    /// component of this space: the verdict recorded here if any caller
    /// has checked it, else `check`'s, recorded for the next caller.  The
    /// flag says whether the table answered.  `check` runs with the table
    /// unlocked, so two callers racing on one key may both check; both
    /// record the same verdict.
    ///
    /// A fingerprint must determine the family's endomorphisms (see
    /// `ComponentFamily::fingerprint`); only then is a recorded verdict
    /// the one `check` would give.
    pub fn verdict(
        &self,
        fingerprint: &[u8],
        mask: u32,
        check: impl FnOnce() -> Verdict,
    ) -> (Verdict, bool) {
        let known = self
            .verdicts
            .table()
            .get(fingerprint)
            .and_then(|masks| masks.get(&mask))
            .cloned();
        if let Some(verdict) = known {
            return (verdict, true);
        }
        let verdict = check();
        self.verdicts
            .table()
            .entry(fingerprint.to_vec())
            .or_default()
            .insert(mask, verdict.clone());
        (verdict, false)
    }

    /// Assert this (incrementally edited) space is byte-identical to a
    /// fresh enumeration of its pools: states, id index, poset bitrows,
    /// legal blocks, and per-state block assignments.
    pub fn validate_against_full(&self) -> Result<(), String> {
        let inc = self
            .inc
            .as_ref()
            .ok_or_else(|| "space has no pools (built from explicit states)".to_owned())?;
        let fresh = self.reenumerate(&inc.pools);
        if fresh.states != self.states {
            return Err("incremental states differ from fresh enumeration".to_owned());
        }
        if fresh.index != self.index {
            return Err("incremental id index differs from fresh enumeration".to_owned());
        }
        if fresh.poset != self.poset {
            return Err("incremental poset bitrows differ from fresh enumeration".to_owned());
        }
        let finc = fresh.inc.as_ref().expect("enumerate keeps provenance");
        if finc.blocks != inc.blocks {
            return Err("incremental legal-block lists differ from fresh enumeration".to_owned());
        }
        if finc.state_blocks != inc.state_blocks {
            return Err("incremental block assignments differ from fresh enumeration".to_owned());
        }
        Ok(())
    }
}

/// Shared spaces: the interner (see the module docs, "One space per key").
impl StateSpace {
    /// The space of the key `(schema, pools, max_bits)`, shared: the live
    /// one if anyone holds it, else a fresh enumeration (at the process's
    /// thread count) published for the next caller.  Every space served
    /// from the interner bumps `obs.reused`; a miss is tallied by the
    /// enumeration itself.
    ///
    /// # Errors
    /// [`PoolError`] when the pools do not fit `schema` or the guard.
    /// Nothing is enumerated then.
    ///
    /// # Panics
    /// As [`StateSpace::enumerate_with`] when `schema` lacks the null
    /// model property.
    pub fn shared(
        schema: Schema,
        pools: &Pools,
        max_bits: usize,
        obs: &EnumObs,
    ) -> Result<Arc<StateSpace>, PoolError> {
        check_pools(&schema, pools, max_bits)?;
        Ok(intern(schema, pools, max_bits, obs, |schema| {
            StateSpace::enumerate_observed(schema, pools, &config(max_bits), obs)
        }))
    }

    /// Apply `edit` to a shared space by moving `space` to the key the edit
    /// leads to, and return the report [`StateSpace::insert_tuple`] /
    /// [`StateSpace::remove_tuple`] would.
    ///
    /// On a hit nothing is patched and no state is visited.  On a miss the
    /// incremental patch runs on a private copy of the parent — none is
    /// made when `space` was the only handle — and the result is
    /// published.  Only `space` moves; other holders of the parent keep it.
    ///
    /// # Errors
    /// As the edit methods; `space` is untouched then.
    pub fn edit_shared(
        space: &mut Arc<StateSpace>,
        edit: PoolEdit<'_>,
        obs: &EnumObs,
    ) -> Result<EditReport, EditError> {
        let pools = space.edited_pools(edit)?;
        let max_bits = space.inc.as_ref().expect("checked editable").max_bits;
        if let Some(child) = lookup(&space.schema, &pools, max_bits, obs) {
            let report = EditReport {
                states_before: space.len(),
                states_after: child.len(),
            };
            *space = child;
            return Ok(report);
        }
        let patched = Arc::make_mut(space);
        let report = match edit {
            PoolEdit::Insert(rel, t) => patched.insert_tuple(rel, t.clone()),
            PoolEdit::Remove(rel, t) => patched.remove_tuple(rel, t),
        }
        .expect("edit validated above");
        *space = publish(Arc::clone(space), false);
        Ok(report)
    }

    /// Re-enumerate a shared space from its pools and publish the result
    /// in place of the entry under its key: the repair when
    /// cross-validation finds that a patched space diverged.  Never looks
    /// up, so the diverged space cannot be served back.
    ///
    /// # Errors
    /// [`EditError::NotEditable`] for a space built from explicit states.
    pub fn rebuild_shared(space: &mut Arc<StateSpace>) -> Result<(), EditError> {
        let inc = space.inc.as_ref().ok_or(EditError::NotEditable)?;
        let fresh = space.reenumerate(&inc.pools);
        *space = publish(Arc::new(fresh), true);
        Ok(())
    }

    /// Whether this space was enumerated under exactly this key.
    fn has_key(&self, schema: &Schema, pools: &Pools, max_bits: usize) -> bool {
        self.inc
            .as_ref()
            .is_some_and(|inc| inc.max_bits == max_bits && inc.pools == *pools)
            && self.schema == *schema
    }
}

/// Look the key up and serve a live space, or `build` one — with the
/// table unlocked — and publish it.
fn intern(
    schema: Schema,
    pools: &Pools,
    max_bits: usize,
    obs: &EnumObs,
    build: impl FnOnce(Schema) -> StateSpace,
) -> Arc<StateSpace> {
    lookup(&schema, pools, max_bits, obs).unwrap_or_else(|| publish(Arc::new(build(schema)), false))
}

impl std::fmt::Debug for StateSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StateSpace({} states)", self.states.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compview_logic::{Constraint, Fd, Jd};
    use compview_relation::{rel, v, RelDecl, Signature};

    fn two_unary_space() -> StateSpace {
        let schema = Schema::unconstrained(Signature::new([
            RelDecl::new("R", ["A"]),
            RelDecl::new("S", ["A"]),
        ]));
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
        StateSpace::enumerate(schema, &pools)
    }

    #[test]
    fn enumeration_builds_poset_with_bottom() {
        let sp = two_unary_space();
        assert_eq!(sp.len(), 16);
        let bot = sp.bottom();
        assert!(sp.state(bot).is_null_model());
        // The poset is the 4-atom powerset: a lattice with top.
        assert!(sp.poset().is_lattice());
        assert_eq!(
            sp.poset().top().map(|t| sp.state(t).total_tuples()),
            Some(4)
        );
    }

    #[test]
    fn ids_round_trip() {
        let sp = two_unary_space();
        for i in 0..sp.len() {
            assert_eq!(sp.id_of(sp.state(i)), Some(i));
        }
        let foreign = Instance::new().with("X", rel(1, [["z"]]));
        assert_eq!(sp.id_of(&foreign), None);
    }

    #[test]
    fn constrained_space_is_smaller() {
        let sig = Signature::new([RelDecl::new("R_SPJ", ["S", "P", "J"])]);
        let schema = Schema::new(
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
        let sp = StateSpace::enumerate(schema, &pools);
        assert_eq!(sp.len(), 10); // grids only (see logic::schema tests)
        assert!(sp.state(sp.bottom()).is_null_model());
    }

    #[test]
    fn explicit_state_list() {
        let schema = Schema::unconstrained(Signature::new([RelDecl::new("R", ["A"])]));
        let states = vec![
            Instance::null_model(schema.sig()),
            Instance::null_model(schema.sig()).with("R", rel(1, [["x"]])),
        ];
        let sp = StateSpace::from_states(schema, states);
        assert_eq!(sp.len(), 2);
        assert_eq!(sp.bottom(), 0);
        assert!(sp.poset().leq(0, 1));
        assert!(sp.pools().is_none());
    }

    #[test]
    #[should_panic(expected = "null model")]
    fn explicit_space_requires_null_model() {
        let schema = Schema::unconstrained(Signature::new([RelDecl::new("R", ["A"])]));
        let states = vec![Instance::null_model(schema.sig()).with("R", rel(1, [["x"]]))];
        StateSpace::from_states(schema, states);
    }

    #[test]
    fn insert_tuple_matches_fresh_enumeration() {
        let mut sp = two_unary_space();
        let report = sp.insert_tuple("R", Tuple::new([v("a3")])).unwrap();
        assert_eq!(report.states_before, 16);
        assert_eq!(report.states_after, 32);
        sp.validate_against_full().unwrap();
        // Ids still round-trip through the merged index.
        for i in 0..sp.len() {
            assert_eq!(sp.id_of(sp.state(i)), Some(i));
        }
    }

    #[test]
    fn remove_tuple_matches_fresh_enumeration() {
        let mut sp = two_unary_space();
        let report = sp.remove_tuple("S", &Tuple::new([v("a1")])).unwrap();
        assert_eq!(report.states_before, 16);
        assert_eq!(report.states_after, 8);
        sp.validate_against_full().unwrap();
        assert!(sp.state(sp.bottom()).is_null_model());
    }

    #[test]
    fn insert_then_remove_round_trips() {
        let reference = two_unary_space();
        let mut sp = two_unary_space();
        let t = Tuple::new([v("a3")]);
        sp.insert_tuple("R", t.clone()).unwrap();
        sp.remove_tuple("R", &t).unwrap();
        assert_eq!(sp.states(), reference.states());
        assert!(sp.poset() == reference.poset());
        sp.validate_against_full().unwrap();
    }

    #[test]
    fn constrained_insert_splices_only_legal_states() {
        // FD K→V: inserting a second value for an existing key adds states
        // that use the new tuple *instead of* the clashing one.
        let sig = Signature::new([RelDecl::new("R", ["K", "V"])]);
        let schema = Schema::new(sig, vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))]);
        let pools: BTreeMap<String, Vec<Tuple>> = [(
            "R".to_owned(),
            vec![Tuple::new([v("a"), v("x")]), Tuple::new([v("b"), v("x")])],
        )]
        .into();
        let mut sp = StateSpace::enumerate(schema, &pools);
        assert_eq!(sp.len(), 4);
        let report = sp.insert_tuple("R", Tuple::new([v("a"), v("y")])).unwrap();
        // Keys a ∈ {∅, x, y}, b ∈ {∅, x}: 3·2 = 6 states.
        assert_eq!(report.states_after, 6);
        sp.validate_against_full().unwrap();
        // And full removal of the original clashing tuple.
        sp.remove_tuple("R", &Tuple::new([v("a"), v("x")])).unwrap();
        assert_eq!(sp.len(), 4);
        sp.validate_against_full().unwrap();
    }

    #[test]
    fn edit_errors_leave_space_untouched() {
        let mut sp = two_unary_space();
        let before_states = sp.states().to_vec();
        assert_eq!(
            sp.insert_tuple("X", Tuple::new([v("a")])),
            Err(EditError::UnknownRelation("X".to_owned()))
        );
        assert_eq!(
            sp.insert_tuple("R", Tuple::new([v("a"), v("b")])),
            Err(EditError::ArityMismatch {
                relation: "R".to_owned(),
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            sp.insert_tuple("R", Tuple::new([v("a1")])),
            Err(EditError::DuplicateTuple {
                relation: "R".to_owned()
            })
        );
        assert_eq!(
            sp.remove_tuple("R", &Tuple::new([v("zz")])),
            Err(EditError::MissingTuple {
                relation: "R".to_owned()
            })
        );
        assert_eq!(sp.states(), &before_states[..]);
        sp.validate_against_full().unwrap();

        // Explicit-state spaces are not editable.
        let schema = Schema::unconstrained(Signature::new([RelDecl::new("R", ["A"])]));
        let states = vec![
            Instance::null_model(schema.sig()),
            Instance::null_model(schema.sig()).with("R", rel(1, [["x"]])),
        ];
        let mut fixed = StateSpace::from_states(schema, states);
        assert_eq!(
            fixed.insert_tuple("R", Tuple::new([v("y")])),
            Err(EditError::NotEditable)
        );
    }

    #[test]
    fn insert_past_guard_is_rejected() {
        let schema = Schema::unconstrained(Signature::new([RelDecl::new("R", ["A"])]));
        let pools: BTreeMap<String, Vec<Tuple>> = [(
            "R".to_owned(),
            vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
        )]
        .into();
        let cfg = EnumerationConfig {
            max_bits: 2,
            threads: 1,
        };
        let mut sp = StateSpace::enumerate_with(schema, &pools, &cfg);
        assert_eq!(
            sp.insert_tuple("R", Tuple::new([v("a3")])),
            Err(EditError::TooLarge {
                bits: 3,
                max_bits: 2
            })
        );
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let mut sp = two_unary_space();
        sp.insert_tuple("R", Tuple::new([v("a3")])).unwrap();
        let mut bytes = Vec::new();
        sp.encode_snapshot(&mut bytes).unwrap();
        let mut dec = compview_relation::binio::Dec::new(&bytes);
        let back = StateSpace::decode_snapshot(sp.schema().clone(), &mut dec).unwrap();
        assert!(dec.is_done());
        assert_eq!(back.states(), sp.states());
        assert_eq!(back.index, sp.index);
        assert!(back.poset() == sp.poset());
        assert_eq!(back.pools(), sp.pools());
        back.validate_against_full().unwrap();
    }

    #[test]
    fn snapshot_of_explicit_space_is_rejected() {
        let schema = Schema::unconstrained(Signature::new([RelDecl::new("R", ["A"])]));
        let states = vec![
            Instance::null_model(schema.sig()),
            Instance::null_model(schema.sig()).with("R", rel(1, [["x"]])),
        ];
        let sp = StateSpace::from_states(schema, states);
        let mut bytes = Vec::new();
        assert_eq!(sp.encode_snapshot(&mut bytes), Err(EditError::NotEditable));
    }

    #[test]
    fn truncated_snapshot_errors_not_panics() {
        let sp = two_unary_space();
        let mut bytes = Vec::new();
        sp.encode_snapshot(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            let mut dec = compview_relation::binio::Dec::new(&bytes[..cut]);
            assert!(StateSpace::decode_snapshot(sp.schema().clone(), &mut dec).is_err());
        }
    }

    /// Unary `R`/`S` pools over symbols tagged `tag`: the interner is
    /// process-wide, so each test keys its own spaces.
    fn tagged_pools(tag: &str, n: usize) -> Pools {
        let pool = |rel: &str| -> Vec<Tuple> {
            (0..n)
                .map(|i| Tuple::new([v(&format!("{tag}_{rel}{i}"))]))
                .collect()
        };
        [("R".to_owned(), pool("r")), ("S".to_owned(), pool("s"))].into()
    }

    fn unary_schema() -> Schema {
        Schema::unconstrained(Signature::new([
            RelDecl::new("R", ["A"]),
            RelDecl::new("S", ["A"]),
        ]))
    }

    fn shared(schema: Schema, pools: &Pools, max_bits: usize) -> Arc<StateSpace> {
        StateSpace::shared(schema, pools, max_bits, &EnumObs::noop()).unwrap()
    }

    #[test]
    fn shared_spaces_are_one_allocation_per_key() {
        let pools = tagged_pools("key", 2);
        let a = shared(unary_schema(), &pools, 28);
        let b = shared(unary_schema(), &pools, 28);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 16);

        // Every part of the key tells spaces apart.
        let mut constrained = unary_schema();
        constrained.add_constraint(Constraint::Ind(compview_logic::Ind::new(
            "S",
            vec![0],
            "R",
            vec![0],
        )));
        let mut reordered = pools.clone();
        reordered.get_mut("R").unwrap().reverse();
        let mut grown = pools.clone();
        grown
            .get_mut("S")
            .unwrap()
            .push(Tuple::new([v("key_extra")]));
        for other in [
            shared(constrained, &pools, 28),
            shared(unary_schema(), &reordered, 28),
            shared(unary_schema(), &grown, 28),
            shared(unary_schema(), &pools, 27),
        ] {
            assert!(!Arc::ptr_eq(&a, &other));
        }
    }

    #[test]
    fn shared_refuses_pools_that_do_not_fit() {
        let schema = unary_schema();
        let mut missing = tagged_pools("misfit", 1);
        missing.remove("S");
        let mut wide = tagged_pools("misfit", 1);
        wide.get_mut("R")
            .unwrap()
            .push(Tuple::new([v("misfit_a"), v("misfit_b")]));
        let cases = [
            (missing, 28, PoolError::MissingPool("S".to_owned())),
            (
                wide,
                28,
                PoolError::ArityMismatch {
                    relation: "R".to_owned(),
                    expected: 1,
                    got: 2,
                },
            ),
            (
                tagged_pools("misfit", 3),
                5,
                PoolError::TooLarge {
                    bits: 6,
                    max_bits: 5,
                },
            ),
        ];
        for (pools, max_bits, want) in cases {
            let got = StateSpace::shared(schema.clone(), &pools, max_bits, &EnumObs::noop());
            assert_eq!(got.err(), Some(want));
        }
    }

    #[test]
    fn interner_holds_weak_handles_and_prunes_dead_entries() {
        let pools = tagged_pools("weak", 2);
        let a = shared(unary_schema(), &pools, 28);
        let weak = Arc::downgrade(&a);
        drop(a);
        assert!(
            weak.upgrade().is_none(),
            "the interner kept a strong handle"
        );
        // The next lookup of the key misses and drops the dead entry.
        assert!(lookup(&unary_schema(), &pools, 28, &EnumObs::noop()).is_none());
        assert!(!table().contains_key(&key_hash(&pools, 28)));
    }

    #[test]
    fn a_racing_miss_adopts_the_live_entry() {
        let pools = tagged_pools("race", 2);
        let first = Arc::new(StateSpace::enumerate(unary_schema(), &pools));
        let second = Arc::new(StateSpace::enumerate(unary_schema(), &pools));
        let won = publish(Arc::clone(&first), false);
        assert!(Arc::ptr_eq(&won, &first));
        let adopted = publish(second, false);
        assert!(Arc::ptr_eq(&adopted, &first));
        // Displacing (the cross-validation repair) replaces the entry.
        let repaired = publish(
            Arc::new(StateSpace::enumerate(unary_schema(), &pools)),
            true,
        );
        assert!(!Arc::ptr_eq(&repaired, &first));
        assert!(Arc::ptr_eq(
            &lookup(&unary_schema(), &pools, 28, &EnumObs::noop()).unwrap(),
            &repaired
        ));
    }

    #[test]
    fn the_table_is_unlocked_while_a_miss_builds() {
        let pools = tagged_pools("unlocked", 2);
        let built = intern(unary_schema(), &pools, 28, &EnumObs::noop(), |schema| {
            // Other test threads may hold the lock for a lookup's worth of
            // time; a lock held across this build would never come free.
            let free = (0..1000).any(|_| {
                let ok = table_lock().try_lock().is_ok();
                if !ok {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                ok
            });
            assert!(free, "the interner's lock is held while building");
            StateSpace::enumerate_with(schema, &pools, &config(28))
        });
        assert!(Arc::ptr_eq(&built, &shared(unary_schema(), &pools, 28)));
    }

    #[test]
    fn shared_edits_report_what_the_patch_reports() {
        let pools = tagged_pools("edit", 2);
        let t = Tuple::new([v("edit_new")]);
        let (mut a, mut b) = (
            shared(unary_schema(), &pools, 28),
            shared(unary_schema(), &pools, 28),
        );
        let pin = Arc::clone(&a);
        let mut patched = StateSpace::clone(&a);
        let want = patched.insert_tuple("R", t.clone()).unwrap();
        let same_space = |got: &StateSpace, want: &StateSpace| {
            assert_eq!(got.states(), want.states());
            assert!(got.poset() == want.poset());
            assert_eq!(got.pools(), want.pools());
        };

        // Miss: `a` moves to a patched copy; `b` and the pin stay put.
        let got = StateSpace::edit_shared(&mut a, PoolEdit::Insert("R", &t), &EnumObs::noop());
        assert_eq!(got.unwrap(), want);
        assert!(Arc::ptr_eq(&b, &pin) && !Arc::ptr_eq(&a, &pin));
        same_space(&a, &patched);
        // Hit: `b` lands on `a`'s space with the report a patch gives.
        let got = StateSpace::edit_shared(&mut b, PoolEdit::Insert("R", &t), &EnumObs::noop());
        assert_eq!(got.unwrap(), want);
        assert!(Arc::ptr_eq(&a, &b));

        // Removing it again lands back on the pinned allocation.
        let want = patched.remove_tuple("R", &t).unwrap();
        let got = StateSpace::edit_shared(&mut a, PoolEdit::Remove("R", &t), &EnumObs::noop());
        assert_eq!(got.unwrap(), want);
        assert!(Arc::ptr_eq(&a, &pin));
        same_space(&a, &patched);
        // A removal that drops states: the miss and the hit report and
        // land on what the patch gives.
        let s0 = Tuple::new([v("edit_s0")]);
        let mut patched = StateSpace::clone(&b);
        let want = patched.remove_tuple("S", &s0).unwrap();
        assert!(want.states_after < want.states_before);
        let mut c = Arc::clone(&b);
        let got = StateSpace::edit_shared(&mut b, PoolEdit::Remove("S", &s0), &EnumObs::noop());
        assert_eq!(got.unwrap(), want);
        same_space(&b, &patched);
        let got = StateSpace::edit_shared(&mut c, PoolEdit::Remove("S", &s0), &EnumObs::noop());
        assert_eq!(got.unwrap(), want);
        assert!(Arc::ptr_eq(&b, &c));

        // A refused edit leaves the handle where it was.
        let before = Arc::clone(&a);
        let err = StateSpace::edit_shared(
            &mut a,
            PoolEdit::Insert("R", &Tuple::new([v("edit_r0")])),
            &EnumObs::noop(),
        );
        assert_eq!(
            err.err(),
            Some(EditError::DuplicateTuple {
                relation: "R".to_owned()
            })
        );
        assert!(Arc::ptr_eq(&a, &before));
    }

    #[test]
    fn full_edit_paths_agree_with_incremental() {
        let mut inc_sp = two_unary_space();
        let mut full_sp = two_unary_space();
        let t = Tuple::new([v("a3")]);
        let ri = inc_sp.insert_tuple("S", t.clone()).unwrap();
        let (rf, next) = full_sp.edit_full(PoolEdit::Insert("S", &t)).unwrap();
        full_sp = next;
        assert_eq!(ri, rf);
        assert_eq!(inc_sp.states(), full_sp.states());
        assert!(inc_sp.poset() == full_sp.poset());
        let ri = inc_sp.remove_tuple("S", &t).unwrap();
        let (rf, next) = full_sp.edit_full(PoolEdit::Remove("S", &t)).unwrap();
        full_sp = next;
        assert_eq!(ri, rf);
        assert_eq!(inc_sp.states(), full_sp.states());
        inc_sp.validate_against_full().unwrap();
    }

    /// Ask `space` for the verdict on `mask` under fingerprint `fp`;
    /// returns the verdict and whether the table answered (no check ran).
    fn ask(space: &StateSpace, fp: &[u8], mask: u32, verdict: Verdict) -> (Verdict, bool) {
        let mut ran = false;
        let (got, reused) = space.verdict(fp, mask, || {
            ran = true;
            verdict
        });
        assert_eq!(reused, !ran, "the flag says whether the check ran");
        (got, reused)
    }

    #[test]
    fn verdicts_are_kept_per_fingerprint_and_mask_and_never_survive_a_change() {
        let mut sp = two_unary_space();
        let no = || Err("no".to_owned());
        assert_eq!(ask(&sp, b"f", 1, Ok(())), (Ok(()), false));
        assert_eq!(ask(&sp, b"f", 2, no()), (no(), false));
        // Recorded: the table answers, whatever a new check would say.
        assert_eq!(ask(&sp, b"f", 1, no()), (Ok(()), true));
        assert_eq!(ask(&sp, b"f", 2, Ok(())), (no(), true));
        // Fingerprints are compared in full: a prefix or another family
        // is checked afresh.
        assert_eq!(ask(&sp, b"", 1, no()), (no(), false));
        assert_eq!(ask(&sp, b"ff", 1, no()), (no(), false));

        // A clone starts empty, and leaves the original's table alone.
        let copy = sp.clone();
        assert_eq!(ask(&copy, b"f", 1, no()), (no(), false));
        assert_eq!(ask(&sp, b"f", 1, no()), (Ok(()), true));

        // Each in-place edit empties the table.
        sp.insert_tuple("R", Tuple::new([v("a3")])).unwrap();
        assert_eq!(ask(&sp, b"f", 1, no()), (no(), false));
        sp.remove_tuple("R", &Tuple::new([v("a3")])).unwrap();
        assert_eq!(ask(&sp, b"f", 1, Ok(())), (Ok(()), false));
        // A refused edit changes nothing, and forgets nothing.
        assert!(sp.remove_tuple("R", &Tuple::new([v("zz")])).is_err());
        assert_eq!(ask(&sp, b"f", 1, no()), (Ok(()), true));
    }
}
