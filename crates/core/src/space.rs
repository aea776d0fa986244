//! Enumerated state spaces: `LDB(D, μ)` as an explicit finite ↓-poset.
//!
//! The paper's theorems quantify over all legal databases.  A [`StateSpace`]
//! enumerates `LDB(D, μ)` for a finite type assignment (per-relation tuple
//! pools) and materialises the relation-by-relation inclusion order of
//! Notation 1.2.3 as a [`FinPoset`], which makes every definition of
//! §§1–3 — kernels, complements, strong views, admissibility — *decidable*
//! on the space.
//!
//! # Pool bits
//!
//! A space built by [`StateSpace::enumerate`] gives each state one `u64`
//! of **pool bits**: relation `r`'s pool occupies bits `[off_r, off_r +
//! |pool_r|)`, relations in declaration order, and bit `off_r + p` says
//! the state holds `pool_r[p]`.  The enumerator's combo order (first
//! relation fastest, each relation's legal blocks ascending by submask)
//! is ascending pool bits, so the state list is sorted by them.
//!
//! Pools are sets: [`StateSpace::shared`] refuses a pool that repeats a
//! tuple ([`PoolError::DuplicateTuple`]), and so does the enumerator, by
//! panicking.  With no repeats, relation-by-relation inclusion of two
//! states is exactly the subset order on their pool bits, which gives two
//! word-level kernels:
//!
//! - **The ↓-poset from columns.**  Column `j` is the bitset of the states
//!   holding pool bit `j`; a state's up-row is the AND of its bits'
//!   columns (every state for the null model), and the down-rows are the
//!   transpose ([`FinPoset::from_up_rows`]).  That is O(n · bits per
//!   state · n/64) word operations for any number of relations, where
//!   deciding each pair with `is_subinstance` is n² B-tree walks.
//!   Enumeration verifies the axioms on the result; the edits below
//!   leave that to debug builds.
//! - **Subschema state maps by projection.**  An endomorphism that keeps
//!   some relations whole and empties the rest (a subschema component's
//!   `γ_S⊖`) maps a state to the state holding its bits of the kept
//!   relations: one AND and one binary search over the sorted bits
//!   ([`StateSpace::projection`]), instead of building an `Instance` and
//!   looking it up.
//!
//! The bits fit one `u64` only while the raw pool bits do, so a space has
//! at most [`MAX_POOL_BITS`] of them whatever its guard; beyond that the
//! pool check and the edits refuse with `TooLarge`.
//!
//! # Incremental maintenance
//!
//! An enumerated space keeps its provenance (the tuple pools, each
//! relation's legal blocks, and each state's pool bits).
//! [`StateSpace::insert_tuple`] and [`StateSpace::remove_tuple`] use it
//! to *patch* the space in place:
//!
//! - **Insert** appends the tuple to the end of its relation's pool, as
//!   the relation's new top bit; the bits of later relations move up by
//!   one.  Block legality depends only on the tuple set, so every old
//!   block stays legal and the new block list is `old ++ fresh`, where
//!   `fresh` are exactly the blocks containing the new tuple (a seeded
//!   DFS, `Schema::legal_blocks_seeded`).  The fresh states are assembled
//!   and filtered as enumeration would, and they come out in ascending
//!   pool bits, as the old states do; the new state list is the merge of
//!   the two runs by their bits.  No old state is rebuilt or re-checked.
//! - **Remove** drops every block whose submask uses the removed pool
//!   bit.  The surviving states are a pure filter of the old list (no
//!   instance assembly, no constraint checks), with that bit cut out of
//!   their pool bits.
//!
//! Both then build the poset from the new pool bits' columns, the same
//! kernel enumeration uses.  The result is checked byte-identical to a
//! fresh enumeration by [`StateSpace::validate_against_full`] (used by
//! the cross-validation tests and `compview-session`'s paranoid mode),
//! which also compares the poset with the `is_subinstance` order of the
//! states, since both sides of the first comparison share the kernel.
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
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
    /// Per declared relation, the legal blocks in ascending submask order.
    blocks: Vec<Vec<LegalBlock>>,
    /// Per state, its pool bits: relation `r`'s pool occupies bits
    /// `[off_r, off_r + |pool_r|)`, relations in declaration order
    /// ([`pool_offsets`]).  The state list ascends by these masks.
    masks: Vec<u64>,
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
    /// A pool holds one tuple twice.  Pools are sets: a state's pool bits
    /// name its tuples only while no pool repeats one.
    DuplicateTuple {
        /// The relation whose pool repeats a tuple.
        relation: String,
    },
    /// The raw pool bits exceed the enumeration guard, or the
    /// [`MAX_POOL_BITS`] of a state's pool-bit mask.
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
            PoolError::DuplicateTuple { relation } => {
                write!(f, "pool of {relation:?} repeats a tuple")
            }
            PoolError::TooLarge { bits, max_bits } => write!(
                f,
                "state space 2^{bits} too large to enumerate (max_bits = {max_bits})"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// The most pool bits an enumerated space can have, whatever its guard:
/// each state's pool bits are one `u64`.
pub const MAX_POOL_BITS: usize = 64;

/// Check `pools` against `schema` and the guard, exactly where the
/// enumerator would otherwise panic or the pool-bit order would be
/// wrong: every declared relation has a pool, every pool tuple has its
/// relation's arity, no pool repeats a tuple, and the pool bits fit both
/// the guard and [`MAX_POOL_BITS`].
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
        let mut seen = BTreeSet::new();
        if !pool.iter().all(|t| seen.insert(t)) {
            return Err(PoolError::DuplicateTuple {
                relation: d.name().to_owned(),
            });
        }
        bits += pool.len();
    }
    if bits > max_bits.min(MAX_POOL_BITS) {
        return Err(PoolError::TooLarge { bits, max_bits });
    }
    Ok(())
}

/// Where each declared relation's pool starts in a state's pool bits:
/// the pools' lengths summed in declaration order.
fn pool_offsets(schema: &Schema, pools: &Pools) -> Vec<usize> {
    let mut off = 0;
    schema
        .sig()
        .decls()
        .iter()
        .map(|d| {
            let at = off;
            off += pools[d.name()].len();
            at
        })
        .collect()
}

/// `submask` placed at bit `off` of a state's pool bits.  An offset of
/// [`MAX_POOL_BITS`] only ever holds the empty block of an empty pool.
fn place(submask: u64, off: usize) -> u64 {
    u32::try_from(off)
        .ok()
        .and_then(|off| submask.checked_shl(off))
        .unwrap_or(0)
}

/// Bits `0..q` (`q < 64`).
fn low_bits(q: usize) -> u64 {
    (1 << q) - 1
}

/// `m` with a clear bit inserted at `q` (`q < 64`): the bits from `q`
/// up move up by one.  The top bit must be clear.
fn widen(m: u64, q: usize) -> u64 {
    (m & low_bits(q)) | ((m & !low_bits(q)) << 1)
}

/// `m` without bit `q` (`q < 64`): the bits above it move down by one.
fn drop_bit(m: u64, q: usize) -> u64 {
    (m & low_bits(q)) | ((m >> 1) & !low_bits(q))
}

/// The set bits of `m`, ascending.
fn bit_indices(m: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(m), |&x| Some(x & x.wrapping_sub(1)))
        .take_while(|&x| x != 0)
        .map(|x| x.trailing_zeros() as usize)
}

/// The inclusion order of states given by their pool bits.  With pools
/// that repeat no tuple, state `a` is a subinstance of state `b`
/// relation by relation (Notation 1.2.3) exactly when `a`'s bits are a
/// subset of `b`'s.  Column `j` is the set of states holding pool bit
/// `j`; up-row `a` is the AND of the columns of `a`'s bits, or every
/// state when `a` holds none (the null model).  That is O(n · bits per
/// state · n/64) word operations, small beside the state assembly
/// around every call, so it runs on the calling thread.
fn inclusion_poset(masks: &[u64]) -> FinPoset {
    let n = masks.len();
    let words = n.div_ceil(64);
    let mut columns = vec![0u64; MAX_POOL_BITS * words];
    for (s, &m) in masks.iter().enumerate() {
        for j in bit_indices(m) {
            columns[j * words + s / 64] |= 1 << (s % 64);
        }
    }
    let mut every = vec![!0u64; words];
    if !n.is_multiple_of(64) {
        every[words - 1] = (1 << (n % 64)) - 1;
    }
    let mut up = Vec::with_capacity(n * words);
    for &m in masks {
        let at = up.len();
        up.extend_from_slice(&every);
        for j in bit_indices(m) {
            let column = &columns[j * words..(j + 1) * words];
            for (w, c) in up[at..].iter_mut().zip(column) {
                *w &= c;
            }
        }
    }
    FinPoset::from_up_rows(n, up)
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
    /// Panics with the [`PoolError`]'s message if the pools do not fit
    /// the schema — a missing pool, a tuple of the wrong arity, a pool
    /// that repeats a tuple, or more raw pool bits than the enumeration
    /// guard or [`MAX_POOL_BITS`] — or if the schema lacks the null model
    /// property — §3's standing assumption, required for the ↓-poset
    /// structure.
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
    ///
    /// # Panics
    /// As [`StateSpace::enumerate`]; [`StateSpace::shared`] returns the
    /// [`PoolError`] instead.
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
        if let Err(e) = check_pools(&schema, pools, config.max_bits) {
            panic!("{e}");
        }
        let detail = schema.enumerate_ldb_observed(pools, config, obs);
        let offsets = pool_offsets(&schema, pools);
        let masks: Vec<u64> = detail
            .state_combos
            .iter()
            .map(|&combo| {
                let mut rest = combo;
                let mut mask = 0;
                for (b, &off) in detail.blocks.iter().zip(&offsets) {
                    mask |= place(b[rest % b.len()].submask, off);
                    rest /= b.len();
                }
                mask
            })
            .collect();
        debug_assert!(
            masks.windows(2).all(|w| w[0] < w[1]),
            "states ascend by pool bits"
        );
        let poset = inclusion_poset(&masks);
        poset.verify().expect("not a partial order");
        StateSpace {
            schema,
            index: id_index(&detail.states),
            states: detail.states,
            poset,
            inc: Some(IncState {
                pools: pools.clone(),
                max_bits: config.max_bits,
                blocks: detail.blocks,
                masks,
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
        if bits + 1 > inc.max_bits.min(MAX_POOL_BITS) {
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
        let mut inc = self.inc.take().expect("checked editable");
        // t takes bit q, the new top bit of relation k's pool; the bits of
        // the relations after k move up by one.
        let offsets = pool_offsets(&self.schema, &inc.pools);
        let q = offsets[k] + inc.pools[rel].len();
        // Blocks gained: exactly the legal subsets of the grown pool that
        // contain t, in ascending submask order, appended after the old
        // blocks (t's bit is the new highest).
        let fresh = self.schema.legal_blocks_seeded(rel, &inc.pools[rel], &t);
        if fresh.is_empty() {
            // No legal block uses t: only the pool grows, and the states
            // keep their order.
            for m in &mut inc.masks {
                *m = widen(*m, q);
            }
            inc.pools.get_mut(rel).expect("checked relation").push(t);
            self.inc = Some(inc);
            return Ok(EditReport {
                states_before: n_old,
                states_after: n_old,
            });
        }

        let decls = self.schema.sig().decls();
        let n_rels = decls.len();
        // Combo strides around relation k: combo = pre + P·(i_k + S_k·suf).
        let p_stride: usize = inc.blocks[..k].iter().map(Vec::len).product();
        let suf_count: usize = inc.blocks[k + 1..].iter().map(Vec::len).product();
        let sig = self.schema.sig();
        let mu = self.schema.assignment();
        let globals = self.schema.global_constraints();

        // Assemble-and-filter one candidate new state, exactly as
        // enumeration does, with its pool bits in the grown layout.
        let assemble = |a: usize, pre: usize, suf: usize| -> Option<(Instance, u64)> {
            let mut inst = Instance::null_model(sig);
            let mut mask = place(fresh[a].submask, offsets[k]);
            let mut rest = pre;
            for r in 0..k {
                let len = inc.blocks[r].len();
                let b = &inc.blocks[r][rest % len];
                rest /= len;
                inst.set(decls[r].name(), b.rel.clone());
                mask |= place(b.submask, offsets[r]);
            }
            inst.set(decls[k].name(), fresh[a].rel.clone());
            let mut rest = suf;
            for r in k + 1..n_rels {
                let len = inc.blocks[r].len();
                let b = &inc.blocks[r][rest % len];
                rest /= len;
                inst.set(decls[r].name(), b.rel.clone());
                mask |= place(b.submask, offsets[r] + 1);
            }
            (inst.conforms_to(sig) && globals.iter().all(|c| c.satisfied(&inst, mu)))
                .then_some((inst, mask))
        };

        // Splice: the fresh states come out in ascending (suf, i_k, pre)
        // order, which is ascending pool bits, and so do the old states
        // in the grown layout; merge the two runs by their bits.
        let old_states = std::mem::take(&mut self.states);
        let old_masks = std::mem::take(&mut inc.masks);
        let mut new_states: Vec<Instance> = Vec::with_capacity(2 * n_old);
        let mut masks: Vec<u64> = Vec::with_capacity(2 * n_old);
        let mut pos_of_old = vec![usize::MAX; n_old];
        let mut fresh_pos: Vec<usize> = Vec::with_capacity(n_old);
        let mut old_iter = old_states
            .into_iter()
            .zip(old_masks.iter().map(|&m| widen(m, q)))
            .enumerate()
            .peekable();
        let mut keep_old_below =
            |bound: u64, new_states: &mut Vec<Instance>, masks: &mut Vec<u64>| {
                while let Some((i, (st, m))) = old_iter.next_if(|(_, (_, m))| *m < bound) {
                    pos_of_old[i] = new_states.len();
                    new_states.push(st);
                    masks.push(m);
                }
            };
        for suf in 0..suf_count {
            for a in 0..fresh.len() {
                for pre in 0..p_stride {
                    if let Some((inst, mask)) = assemble(a, pre, suf) {
                        keep_old_below(mask, &mut new_states, &mut masks);
                        fresh_pos.push(new_states.len());
                        new_states.push(inst);
                        masks.push(mask);
                    }
                }
            }
        }
        // The rest of the old states: none holds every bit (bit q is clear).
        keep_old_below(u64::MAX, &mut new_states, &mut masks);
        let n_new = new_states.len();

        // Id index: the old index is still sorted after remapping to new
        // positions; sort only the fresh states and merge the two runs.
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

        inc.blocks[k].extend(fresh);
        inc.pools.get_mut(rel).expect("checked relation").push(t);
        self.poset = inclusion_poset(&masks);
        inc.masks = masks;
        self.states = new_states;
        self.index = index;
        self.inc = Some(inc);
        Ok(EditReport {
            states_before: n_old,
            states_after: n_new,
        })
    }

    /// Remove `t` from relation `rel`'s pool and patch the space in place:
    /// drop every block using the tuple's bit, filter the states (no
    /// instance is rebuilt or re-checked), and build the poset from the
    /// survivors' pool bits.  Result is byte-identical to a fresh
    /// [`StateSpace::enumerate`] on the shrunk pools.
    ///
    /// On error the space is untouched.  Note the current state of a
    /// catalog layered on this space may leave the space — callers who care
    /// (e.g. `compview-session`) must reject that case themselves.
    pub fn remove_tuple(&mut self, rel: &str, t: &Tuple) -> Result<EditReport, EditError> {
        let (k, p) = self.check_remove(rel, t)?;
        self.verdicts = Verdicts::default();
        let n_old = self.states.len();
        let mut inc = self.inc.take().expect("checked editable");

        // Surviving blocks: submask bit p clear; recompact the bits above p.
        let kept: Vec<LegalBlock> = inc.blocks[k]
            .iter()
            .filter(|b| b.submask >> p & 1 == 0)
            .map(|b| LegalBlock {
                submask: drop_bit(b.submask, p),
                rel: b.rel.clone(),
            })
            .collect();

        // Filter states: a state survives iff its pool bits miss t's bit
        // q.  Dropping bit q from the survivors keeps them ascending, so
        // the filtered list is exactly the fresh enumeration.
        let q = pool_offsets(&self.schema, &inc.pools)[k] + p;
        let old_states = std::mem::take(&mut self.states);
        let mut new_states: Vec<Instance> = Vec::with_capacity(n_old);
        let mut masks: Vec<u64> = Vec::with_capacity(n_old);
        let mut pos_of_old = vec![usize::MAX; n_old];
        for (i, (st, &m)) in old_states.into_iter().zip(&inc.masks).enumerate() {
            if m >> q & 1 == 0 {
                pos_of_old[i] = new_states.len();
                new_states.push(st);
                masks.push(drop_bit(m, q));
            }
        }
        let n_new = new_states.len();
        let index: Vec<usize> = self
            .index
            .iter()
            .filter(|&&i| pos_of_old[i] != usize::MAX)
            .map(|&i| pos_of_old[i])
            .collect();

        inc.blocks[k] = kept;
        inc.pools.get_mut(rel).expect("checked relation").remove(p);
        self.poset = inclusion_poset(&masks);
        inc.masks = masks;
        self.states = new_states;
        self.index = index;
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
    /// fresh enumeration of its pools — states, id index, poset bitrows,
    /// legal blocks, and per-state pool bits — and that its poset is the
    /// relation-by-relation inclusion order of its states, decided by
    /// `is_subinstance` on every pair.  Both spaces build their order
    /// from pool bits, so the last check is what compares that kernel
    /// with the definition.
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
        if finc.masks != inc.masks {
            return Err("incremental pool bits differ from fresh enumeration".to_owned());
        }
        if self.poset != self.inclusion_oracle() {
            return Err("poset bitrows differ from the inclusion order of the states".to_owned());
        }
        Ok(())
    }

    /// The inclusion order of the states by its definition: one
    /// `is_subinstance` walk per pair.
    fn inclusion_oracle(&self) -> FinPoset {
        let states = &self.states;
        FinPoset::from_leq(states.len(), |a, b| states[a].is_subinstance(&states[b]))
    }

    /// The state map of the endomorphism that keeps the named relations
    /// whole and empties every other one — a subschema component's
    /// `γ_S⊖`, by the decomposition of Lemma 2.3.2(b) — computed on pool
    /// bits: state `s` goes to the id of the state whose pool bits are
    /// `s`'s bits of the kept relations, found by binary search in the
    /// ascending bits.  `Err(s)` names the first state whose image is not
    /// a state of the space.  A name the schema does not declare keeps
    /// nothing.
    ///
    /// `None` for a space built from explicit states, which has no pool
    /// bits; [`StateSpace::id_of`] on each image is the way there.
    pub fn projection(&self, keep: &[String]) -> Option<Result<Vec<usize>, usize>> {
        let inc = self.inc.as_ref()?;
        let offsets = pool_offsets(&self.schema, &inc.pools);
        let mut keep_bits = 0u64;
        for (d, &off) in self.schema.sig().decls().iter().zip(&offsets) {
            let len = inc.pools[d.name()].len();
            if len > 0 && keep.iter().any(|name| name == d.name()) {
                keep_bits |= place(u64::MAX >> (MAX_POOL_BITS - len), off);
            }
        }
        Some(
            inc.masks
                .iter()
                .enumerate()
                .map(|(s, &m)| inc.masks.binary_search(&(m & keep_bits)).map_err(|_| s))
                .collect(),
        )
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
    #[should_panic(expected = "pool of \"R\" repeats a tuple")]
    fn enumerating_a_pool_that_repeats_a_tuple_panics_with_the_typed_message() {
        let pools: Pools = [
            (
                "R".to_owned(),
                vec![Tuple::new([v("a1")]), Tuple::new([v("a1")])],
            ),
            ("S".to_owned(), Vec::new()),
        ]
        .into();
        StateSpace::enumerate(unary_schema(), &pools);
    }

    #[test]
    fn sixty_four_pool_bits_fit_and_a_sixty_fifth_is_refused() {
        // An FD with an empty left side holds at most one tuple, so 64
        // pool bits give 65 states.
        let schema = Schema::new(
            Signature::new([RelDecl::new("R", ["A"])]),
            vec![Constraint::Fd(Fd::new("R", vec![], vec![0]))],
        );
        let pool: Vec<Tuple> = (0..64).map(|i| Tuple::new([v(&format!("b{i}"))])).collect();
        let pools: Pools = [("R".to_owned(), pool)].into();
        let cfg = EnumerationConfig {
            max_bits: 100,
            threads: 1,
        };
        let mut sp = StateSpace::enumerate_with(schema, &pools, &cfg);
        assert_eq!(sp.len(), 65);
        assert_eq!(sp.inc.as_ref().unwrap().masks.last(), Some(&(1 << 63)));
        assert!(sp.poset() == &sp.inclusion_oracle());
        assert_eq!(
            sp.insert_tuple("R", Tuple::new([v("b64")])),
            Err(EditError::TooLarge {
                bits: 65,
                max_bits: 100
            })
        );
        // Removing the top bit's tuple and putting it back round-trips.
        let top = Tuple::new([v("b63")]);
        sp.remove_tuple("R", &top).unwrap();
        sp.insert_tuple("R", top).unwrap();
        sp.validate_against_full().unwrap();
    }

    #[test]
    fn projection_is_the_subschema_state_map() {
        use crate::{ComponentFamily, SubschemaComponents};
        let mut sp = two_unary_space();
        sp.insert_tuple("R", Tuple::new([v("a3")])).unwrap();
        let family = SubschemaComponents::singletons(sp.schema().sig().clone());
        for mask in 0..4 {
            let keep = family.kept_relations(mask).unwrap();
            let by_endo: Vec<usize> = (0..sp.len())
                .map(|s| sp.expect_id(&family.endo(mask, sp.state(s))))
                .collect();
            assert_eq!(sp.projection(&keep), Some(Ok(by_endo)), "mask {mask:#b}");
        }
        // An explicit space has no pool bits to project.
        let states = vec![Instance::null_model(sp.schema().sig())];
        let fixed = StateSpace::from_states(sp.schema().clone(), states);
        assert_eq!(fixed.projection(&["R".to_owned()]), None);
    }

    #[test]
    fn projection_names_the_first_state_whose_image_escapes() {
        // IND S ⊆ R: keeping S and emptying R leaves the space as soon as
        // S holds a tuple.
        let mut schema = unary_schema();
        schema.add_constraint(Constraint::Ind(compview_logic::Ind::new(
            "S",
            vec![0],
            "R",
            vec![0],
        )));
        let pools: Pools = [
            ("R".to_owned(), vec![Tuple::new([v("a1")])]),
            ("S".to_owned(), vec![Tuple::new([v("a1")])]),
        ]
        .into();
        let sp = StateSpace::enumerate(schema, &pools);
        // States: ∅, R={a1}, R=S={a1}; the last one's S-part escapes.
        assert_eq!(sp.len(), 3);
        assert_eq!(sp.projection(&["S".to_owned()]), Some(Err(2)));
        assert_eq!(sp.projection(&["R".to_owned()]), Some(Ok(vec![0, 1, 1])));
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
        let mut repeated = tagged_pools("misfit", 2);
        let again = repeated["S"][0].clone();
        repeated.get_mut("S").unwrap().push(again);
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
            (
                repeated,
                28,
                PoolError::DuplicateTuple {
                    relation: "S".to_owned(),
                },
            ),
            // Past the 64 bits of a state's mask, whatever the guard.
            (
                tagged_pools("misfit", 33),
                100,
                PoolError::TooLarge {
                    bits: 66,
                    max_bits: 100,
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
