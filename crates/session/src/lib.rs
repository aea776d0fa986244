//! # compview-session
//!
//! A multi-session **view-update service** layered on `compview-core`:
//! the paper's machinery packaged the way a deployment would actually
//! consume it under sustained traffic.
//!
//! Each [`Session`] holds a [`Catalog`] of registered component views,
//! a typed request interface ([`SessionRequest`]), and a shared handle on
//! the enumerated [`StateSpace`] of its key — schema, tuple pools and
//! enumeration guard.  The space is a pure function of that key, so every
//! session of one key holds the same allocation, enumerated once
//! ([`StateSpace::shared`]); the catalog, the verified masks, the
//! counters and the log stay per session.  Three properties make it a
//! service rather than a demo:
//!
//! * **Incremental state-space maintenance** — a pool edit
//!   ([`SessionRequest::InsertPoolTuple`] / `RemovePoolTuple`) moves the
//!   session to the space of the edited key ([`StateSpace::edit_shared`]):
//!   a live one if another session holds it, else the parent patched by
//!   the incremental splice/filter instead of re-enumerated.  An optional
//!   cross-validation mode asserts the result is byte-identical to a
//!   fresh enumeration.
//! * **Checked components, structural answers** — a view is served only
//!   while its mask and its complement are verified strong endomorphisms
//!   of the space (Thm 2.3.3's characterisation: an arbitrary
//!   [`ComponentFamily`] implementation is *checked*, not trusted).  Each
//!   mask is checked once per space, on first use, by building its state
//!   map (projected from pool bits when the family names the relations
//!   a mask keeps, see [`ComponentFamily::kept_relations`]), checking it
//!   and dropping it; a pool edit re-checks the verified masks on the
//!   new space.  The shared space records each verdict
//!   under the family's fingerprint ([`StateSpace::verdict`]), so the
//!   sessions of one key check each mask once between them.  Reads and subscription images are the
//!   family's endomorphism applied to the base (Thm 3.1.1), so the
//!   session keeps nothing indexed by state id.
//! * **Exception safety** — every rejected request leaves the session
//!   state untouched and is tallied per error variant in
//!   [`SessionStats`]; [`SessionRequest::Stats`] exposes the counters.
//!
//! [`service::Service`] multiplexes named sessions and dispatches request
//! batches across them: each touched session's queue is served on the
//! dispatcher thread, in session-name order, and shards are the
//! parallelism (the sharded server runs one [`Service::split`] part per
//! dispatcher).
//! Per-session request order is preserved and sessions are independent,
//! so results are byte-identical for every thread and shard count.
//!
//! Sessions opened through [`Session::open_durable`] additionally keep a
//! **write-ahead log** ([`wal`]) on a pluggable [`store::LogStore`]:
//! every state-changing request is appended (checksummed and
//! sequence-numbered) *before* it is applied, and
//! [`Session::recover`] replays the log through the ordinary `serve`
//! path to rebuild the exact session after a crash — truncating at the
//! first torn or corrupt record and reporting what was salvaged in a
//! typed [`wal::RecoveryReport`] instead of failing.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod obs;
pub mod service;
pub mod store;
pub mod sub;
pub mod wal;

pub use obs::{SessionObs, WalObs};
pub use service::{shard_of, DispatchError, Service, ServiceError};
pub use store::{FaultPlan, FaultyStore, FsStore, LogStore, MemStore, SharedBytes};
pub use sub::{DeltaEvent, DeltaKind, TerminateReason};
pub use wal::{RecoverError, RecoveryReport, RecoveryStop, SyncPolicy};

use compview_obs::{DistSpan, Registry, TraceCtx};

use compview_core::{
    Catalog, CatalogError, ComponentFamily, EditError, EditReport, PoolEdit, StateSpace,
    UpdateReport, Verdict,
};
use compview_lattice::endo;
use compview_logic::{EnumObs, Schema};
use compview_relation::{Instance, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// When a durable session checkpoints its write-ahead log on its own.
///
/// Checked after every applied durable record (driven by the WAL's
/// records-since-snapshot and log-length tracking): crossing either
/// threshold triggers [`Session::checkpoint`], which compacts the log to
/// a single fresh snapshot record so recovery replays only the tail
/// written afterwards.  A threshold of 0 disables that trigger; the
/// default policy is fully manual.
///
/// An automatic checkpoint that *fails* does not fail the request that
/// triggered it — the request is already applied and logged, and the old
/// log is intact (`replace` is atomic) — it is tallied on the
/// `session.checkpoints.auto_failures` counter and retried after the
/// next applied record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many records follow the snapshot (0 = off).
    pub max_records: u64,
    /// Checkpoint once the log exceeds this many bytes (0 = off).
    pub max_log_bytes: u64,
}

impl CheckpointPolicy {
    /// Whether `records` since the last snapshot or a log of `log_bytes`
    /// crosses a configured threshold.
    pub fn due(&self, records: u64, log_bytes: u64) -> bool {
        (self.max_records > 0 && records >= self.max_records)
            || (self.max_log_bytes > 0 && log_bytes >= self.max_log_bytes)
    }
}

/// Tuning knobs of a [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Service pool edits through the incremental `StateSpace` patches
    /// (`false` falls back to full re-enumeration on every edit).
    pub incremental: bool,
    /// After every incremental edit, compare the patched space against a
    /// fresh enumeration and its order against `is_subinstance`; on
    /// mismatch, repair by rebuilding.  Also compare every component map
    /// projected from pool bits with its `endo` map, which decides on a
    /// mismatch.  Expensive — meant for soak tests and debugging, not
    /// production paths.
    pub cross_validate: bool,
    /// Enumeration guard: inserts that would push the raw pool bits past
    /// this are rejected with [`EditError::TooLarge`].
    pub max_bits: usize,
    /// Automatic checkpointing thresholds (default: manual only).
    pub checkpoint: CheckpointPolicy,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            incremental: true,
            cross_validate: false,
            max_bits: 28,
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// Per-session observability counters.  All counters are cumulative over
/// the session's lifetime; [`SessionRequest::Stats`] returns them inside
/// a [`StatsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served (accepted + rejected).
    pub requests: u64,
    /// Requests that returned a response.
    pub accepted: u64,
    /// Requests that returned an error.
    pub rejected: u64,
    /// Uses of a view (register, read, update, subscribe, publish) whose
    /// mask and complement were both already verified on the current
    /// space: one per use.
    pub cache_hits: u64,
    /// Masks checked to be strong endomorphisms of the space on first
    /// use (map built, checked, dropped): one per mask checked.
    pub cache_misses: u64,
    /// Verified masks re-checked and kept across an incremental pool
    /// edit: one per mask that still checks on the edited space.
    pub cache_remaps: u64,
    /// Pool edits serviced by the incremental patch path.
    pub incremental_edits: u64,
    /// Pool edits serviced by full re-enumeration (including
    /// cross-validation repairs).
    pub full_rebuilds: u64,
    /// Rejections tallied by error variant label.
    pub rejected_by_variant: BTreeMap<String, u64>,
}

/// The answer to [`SessionRequest::Stats`]: counters plus a snapshot of
/// the session's current shape.
///
/// Fields split into two classes.  **Content-derived** fields are fully
/// determined by the durable record stream, so a follower that has
/// applied the same records as the leader reports them byte-for-byte
/// identical: `states`, `views`, `undoable`, `session_id`, `wal_gen`,
/// `wal_seq`, `log_bytes` — see [`StatsSnapshot::content`].  **Runtime**
/// fields describe *this node's* service history and legitimately
/// diverge between replicas: `counters` (a follower tallies its own
/// local reads, and replicated writes arrive pre-validated so its
/// rejection counters stay at zero), `cached_masks` (which masks are
/// verified depends on which views were used here), and `active_subs`
/// (subscriptions are connection-scoped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Cumulative counters over the requests completed before this one.
    /// Runtime: describes this node's own service history.
    pub counters: SessionStats,
    /// States in the current space.
    pub states: usize,
    /// Registered views.
    pub views: usize,
    /// Updates currently undoable.
    pub undoable: usize,
    /// Masks verified as strong endomorphisms of the current space.
    /// Runtime: depends on which views this node was asked to use.
    pub cached_masks: usize,
    /// Content-derived durable identity: the CRC-32 of the session's
    /// initial snapshot record, fixed at [`Session::open_durable`] time
    /// and persisted across checkpoints and recoveries, so a remote
    /// operator can correlate these counters with on-disk recovery
    /// reports.  0 on non-durable sessions.
    pub session_id: u64,
    /// Generation of the current write-ahead log (CRC-derived from its
    /// record-0 frame; changes on every checkpoint).  Together with
    /// `wal_seq` this addresses the session's durable position — the
    /// token a client hands to a follower for a read-your-writes
    /// `compview-serve` `ReadAt`.  0 on non-durable sessions.
    pub wal_gen: u64,
    /// Sequence number of the last write-ahead-log record — also the
    /// record count recovery would replay after the snapshot.  0 on
    /// non-durable sessions (and right after a checkpoint).
    pub wal_seq: u64,
    /// Current write-ahead-log length in bytes.  0 on non-durable
    /// sessions.
    pub log_bytes: u64,
    /// Live delta subscriptions on this session.  Connection-scoped and
    /// non-durable: always 0 right after recovery.
    pub active_subs: usize,
}

impl StatsSnapshot {
    /// The content-derived projection: every field here is fully
    /// determined by the durable record stream, so replicas at the same
    /// applied position agree on it byte-for-byte.  Returns
    /// `(states, views, undoable, session_id, wal_gen, wal_seq,
    /// log_bytes)`.
    #[must_use]
    pub fn content(&self) -> (usize, usize, usize, u64, u64, u64, u64) {
        (
            self.states,
            self.views,
            self.undoable,
            self.session_id,
            self.wal_gen,
            self.wal_seq,
            self.log_bytes,
        )
    }
}

/// A typed request against one session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionRequest {
    /// Register `name` as the component view with the given atom mask.
    RegisterView {
        /// View name.
        name: String,
        /// Component mask.
        mask: u32,
    },
    /// Read a registered view's current state.
    Read {
        /// View name.
        view: String,
    },
    /// Replace a view's state through constant-complement translation.
    Update {
        /// View name.
        view: String,
        /// The requested new view state.
        new_state: Instance,
    },
    /// Grow a relation's tuple pool (the space gains states).
    InsertPoolTuple {
        /// Relation name.
        relation: String,
        /// The tuple to add to the pool.
        tuple: Tuple,
    },
    /// Shrink a relation's tuple pool (the space loses states).
    RemovePoolTuple {
        /// Relation name.
        relation: String,
        /// The tuple to remove from the pool.
        tuple: Tuple,
    },
    /// Undo the most recent accepted update.
    Undo,
    /// Snapshot the observability counters.
    Stats,
    /// Start a change stream on a registered view: answer with its full
    /// image now, then push a [`DeltaEvent`] for every commit that moves
    /// it (see [`sub`]).
    Subscribe {
        /// View name.
        view: String,
    },
    /// End a subscription started by [`SessionRequest::Subscribe`].
    Unsubscribe {
        /// The subscription id from [`SessionResponse::Subscribed`].
        sub: u64,
    },
}

impl SessionRequest {
    /// Whether this request changes durable session state — and so must
    /// be written to the log before it is applied.  `Read` and `Stats`
    /// change nothing and are never logged.  `Subscribe`/`Unsubscribe`
    /// are deliberately non-durable even though they change the session's
    /// subscription hub: subscriptions are connection-scoped, so logging
    /// them would make recovery conjure phantom streams with no one
    /// listening (the recovery proptests assert replay emits zero
    /// events).
    pub fn is_durable(&self) -> bool {
        !matches!(
            self,
            SessionRequest::Read { .. }
                | SessionRequest::Stats
                | SessionRequest::Subscribe { .. }
                | SessionRequest::Unsubscribe { .. }
        )
    }

    /// Short label for logs and tallies.
    pub fn label(&self) -> &'static str {
        match self {
            SessionRequest::RegisterView { .. } => "RegisterView",
            SessionRequest::Read { .. } => "Read",
            SessionRequest::Update { .. } => "Update",
            SessionRequest::InsertPoolTuple { .. } => "InsertPoolTuple",
            SessionRequest::RemovePoolTuple { .. } => "RemovePoolTuple",
            SessionRequest::Undo => "Undo",
            SessionRequest::Stats => "Stats",
            SessionRequest::Subscribe { .. } => "Subscribe",
            SessionRequest::Unsubscribe { .. } => "Unsubscribe",
        }
    }
}

/// A successful answer to a [`SessionRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionResponse {
    /// The view was registered; its strong complement's mask is included.
    Registered {
        /// View name.
        view: String,
        /// The registered mask.
        mask: u32,
        /// The complementary mask (Thm 2.3.3(b)).
        complement: u32,
    },
    /// A view state.
    State(Instance),
    /// An accepted update.
    Updated(UpdateReport),
    /// An accepted pool edit.
    PoolEdited(EditReport),
    /// The last update was undone.
    Undone,
    /// The counters.
    Stats(StatsSnapshot),
    /// A subscription was opened; `image` is the view's full state at
    /// sequence 0 — the base every following [`DeltaEvent`] builds on.
    Subscribed {
        /// View name.
        view: String,
        /// Subscription id, unique within the session, carried by every
        /// event of this stream.
        sub: u64,
        /// The full view image at subscribe time.
        image: Instance,
    },
    /// A subscription was ended by request.
    Unsubscribed {
        /// The ended subscription id.
        sub: u64,
    },
}

/// A rejected [`SessionRequest`].  Every rejection leaves the session
/// exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Catalog-level rejection (unknown/duplicate view, bad mask, illegal
    /// view state, empty history).
    Catalog(CatalogError),
    /// Pool-edit rejection from the state space.
    Edit(EditError),
    /// The view is not a component of the current space: the
    /// endomorphism of its mask or of its complement maps a state outside
    /// the space, or is not a strong endomorphism of the ↓-poset.
    NotAComponent {
        /// The offending mask: the view's own, or its complement.
        mask: u32,
        /// What failed.
        detail: String,
    },
    /// Removing this tuple would invalidate the current base state.
    TupleInBaseState {
        /// The relation whose pool was being edited.
        relation: String,
    },
    /// An accepted translation produced a state outside the enumerated
    /// space (the update was rolled back).
    StateOutsideSpace {
        /// The view that was being updated.
        view: String,
    },
    /// The request could not be made durable: the write-ahead log append
    /// (or its rollback) failed, so the request was rejected *before*
    /// touching the session.  The in-memory state and the log still
    /// agree.
    Durability {
        /// What the store reported.
        detail: String,
    },
    /// An [`SessionRequest::Unsubscribe`] named a subscription this
    /// session does not hold (never issued, already unsubscribed, or
    /// already terminated by the service).
    UnknownSubscription {
        /// The unrecognised subscription id.
        sub: u64,
    },
    /// A *create* was pointed at a non-empty log from a previous run.
    /// Creating would clobber (or worse, silently extend) recoverable
    /// state, so it is refused outright — recover the log instead, via
    /// [`Session::recover`] or `Service::open_dir`.
    StaleLog {
        /// What was found in the store.
        detail: String,
    },
    /// A state-changing request hit a read-only replication follower.
    /// Followers apply only records shipped from their leader; local
    /// writes would fork the log.  The client should retry against
    /// `leader_addr`.
    NotLeader {
        /// Where writes go: the leader address this follower tails.
        leader_addr: String,
    },
}

impl SessionError {
    /// The variant label used as the key of
    /// [`SessionStats::rejected_by_variant`].
    pub fn variant_label(&self) -> &'static str {
        match self {
            SessionError::Catalog(CatalogError::UnknownView(_)) => "Catalog::UnknownView",
            SessionError::Catalog(CatalogError::DuplicateView(_)) => "Catalog::DuplicateView",
            SessionError::Catalog(CatalogError::BadMask(_)) => "Catalog::BadMask",
            SessionError::Catalog(CatalogError::IllegalViewState(_)) => "Catalog::IllegalViewState",
            SessionError::Catalog(CatalogError::EmptyHistory) => "Catalog::EmptyHistory",
            SessionError::Edit(EditError::NotEditable) => "Edit::NotEditable",
            SessionError::Edit(EditError::UnknownRelation(_)) => "Edit::UnknownRelation",
            SessionError::Edit(EditError::ArityMismatch { .. }) => "Edit::ArityMismatch",
            SessionError::Edit(EditError::DuplicateTuple { .. }) => "Edit::DuplicateTuple",
            SessionError::Edit(EditError::MissingTuple { .. }) => "Edit::MissingTuple",
            SessionError::Edit(EditError::TooLarge { .. }) => "Edit::TooLarge",
            SessionError::NotAComponent { .. } => "NotAComponent",
            SessionError::TupleInBaseState { .. } => "TupleInBaseState",
            SessionError::StateOutsideSpace { .. } => "StateOutsideSpace",
            SessionError::UnknownSubscription { .. } => "UnknownSubscription",
            SessionError::Durability { .. } => "Durability",
            SessionError::StaleLog { .. } => "StaleLog",
            SessionError::NotLeader { .. } => "NotLeader",
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Catalog(e) => write!(f, "catalog: {e}"),
            SessionError::Edit(e) => write!(f, "pool edit: {e}"),
            SessionError::NotAComponent { mask, detail } => {
                write!(
                    f,
                    "mask {mask:#b} is not a component of this space: {detail}"
                )
            }
            SessionError::TupleInBaseState { relation } => {
                write!(
                    f,
                    "tuple is in the base state's {relation:?}; update the owning view first"
                )
            }
            SessionError::StateOutsideSpace { view } => {
                write!(
                    f,
                    "update of {view:?} left the enumerated space; rolled back"
                )
            }
            SessionError::UnknownSubscription { sub } => {
                write!(f, "no live subscription with id {sub}")
            }
            SessionError::Durability { detail } => {
                write!(f, "request could not be made durable: {detail}")
            }
            SessionError::StaleLog { detail } => {
                write!(
                    f,
                    "refusing to create over an existing log ({detail}); \
                     recover it instead (Session::recover / Service::open_dir)"
                )
            }
            SessionError::NotLeader { leader_addr } => {
                write!(
                    f,
                    "session is a read-only replication follower; write to the leader at {leader_addr}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CatalogError> for SessionError {
    fn from(e: CatalogError) -> SessionError {
        SessionError::Catalog(e)
    }
}

impl From<EditError> for SessionError {
    fn from(e: EditError) -> SessionError {
        SessionError::Edit(e)
    }
}

/// Why a replicated record could not be applied to a follower session.
///
/// Apply errors are **stream** errors, not session errors: a record the
/// leader *rejected* still applies cleanly (the rejection replays, like
/// recovery).  Every variant leaves the session and its log exactly as
/// they were — a torn or out-of-order suffix is never half-applied — so
/// the follower can re-request from its last good sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The session keeps no write-ahead log; only durable sessions can
    /// mirror a leader's.
    NotDurable,
    /// The record skips ahead of (or repeats into) the local log.
    Gap {
        /// The sequence number the log expects next.
        expected: u64,
        /// The sequence number the record carried.
        found: u64,
    },
    /// The record frame is malformed: bad length or CRC mismatch.
    BadRecord {
        /// What failed.
        detail: String,
    },
    /// The frame verified but its payload is not a decodable request.
    BadPayload {
        /// What failed.
        detail: String,
    },
    /// A reset record's snapshot could not be decoded or rebuilt.
    BadSnapshot {
        /// What failed.
        detail: String,
    },
    /// The local store refused the mirrored append or reset.
    Durability {
        /// What the store reported.
        detail: String,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::NotDurable => write!(f, "session has no write-ahead log to mirror into"),
            ApplyError::Gap { expected, found } => {
                write!(
                    f,
                    "replicated record out of sequence: expected {expected}, got {found}"
                )
            }
            ApplyError::BadRecord { detail } => write!(f, "bad replicated record: {detail}"),
            ApplyError::BadPayload { detail } => {
                write!(f, "undecodable replicated payload: {detail}")
            }
            ApplyError::BadSnapshot { detail } => {
                write!(f, "bad replicated checkpoint image: {detail}")
            }
            ApplyError::Durability { detail } => {
                write!(f, "replicated record could not be made durable: {detail}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// One WAL write captured by the leader's replication tap (see
/// [`Session::set_repl_tap`]): the exact framed bytes that went to the
/// local log, ready to ship so follower logs stay byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalShipment {
    /// An ordinary appended record.
    Record {
        /// Generation the record belongs to.
        gen: u64,
        /// The full framed record bytes.
        bytes: Vec<u8>,
        /// `(trace_id, parent_span)` when the write that produced this
        /// record carried a sampled trace context: the shipment (and
        /// the follower's apply) parent-link under the producing span.
        /// Never part of the WAL file itself — leader and follower logs
        /// stay byte-identical whether or not a write was traced.
        trace: Option<(u64, u64)>,
    },
    /// A checkpoint replaced the log; followers must reset onto this
    /// record-0 image (sequence numbering restarts after it).
    Reset {
        /// The fresh log's generation.
        gen: u64,
        /// The full framed record-0 bytes.
        record0: Vec<u8>,
    },
}

/// The leader's answer to a follower's catch-up request (see
/// [`Session::replication_catchup`]).
pub enum CatchupPlan {
    /// The follower is on the current generation: ship these raw record
    /// frames (`from_seq..` in order) and it is caught up.
    Tail {
        /// The current log generation.
        gen: u64,
        /// Raw framed records to ship.
        frames: Vec<Vec<u8>>,
    },
    /// The follower is behind the checkpoint horizon (or brand new): its
    /// records were compacted away, so ship the record-0 snapshot image
    /// first, then the tail.
    Reset {
        /// The current log generation.
        gen: u64,
        /// The full framed record-0 bytes.
        record0: Vec<u8>,
        /// Raw framed records following the snapshot.
        frames: Vec<Vec<u8>>,
    },
    /// The follower claims records this leader never wrote (it is *ahead*
    /// on the same generation) — replicating would fork history, so the
    /// leader refuses and the follower reports a split brain instead of
    /// silently diverging.
    Refused {
        /// Why.
        detail: String,
    },
}

/// One client's view-update session: a shared handle on the enumerated
/// space of its schema and pools + registered component views + counters.
///
/// # Examples
///
/// ```
/// use compview_core::SubschemaComponents;
/// use compview_logic::Schema;
/// use compview_relation::{v, Instance, RelDecl, Signature, Tuple};
/// use compview_session::{Session, SessionConfig, SessionRequest, SessionResponse};
/// use std::collections::BTreeMap;
///
/// let sig = Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["A"])]);
/// let pools: BTreeMap<String, Vec<Tuple>> = [
///     ("R".to_owned(), vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])]),
///     ("S".to_owned(), vec![Tuple::new([v("b1")])]),
/// ]
/// .into();
/// let mut session = Session::open(
///     SubschemaComponents::singletons(sig.clone()),
///     Schema::unconstrained(sig.clone()),
///     &pools,
///     Instance::null_model(&sig),
///     SessionConfig::default(),
/// )
/// .unwrap();
///
/// session
///     .serve(SessionRequest::RegisterView { name: "r".into(), mask: 0b01 })
///     .unwrap();
/// let resp = session.serve(SessionRequest::Read { view: "r".into() }).unwrap();
/// assert!(matches!(resp, SessionResponse::State(_)));
/// ```
pub struct Session<F: ComponentFamily + Sync> {
    catalog: Catalog<F>,
    /// The shared space of this session's key (see `compview-core`'s
    /// interner): immutable, and held by every session of the same key.
    space: Arc<StateSpace>,
    base_id: usize,
    /// Masks checked to be strong endomorphisms of `space`.  A view is
    /// served only while its mask and its complement are both here.
    verified: BTreeSet<u32>,
    config: SessionConfig,
    stats: SessionStats,
    /// The write-ahead log, when this session is durable.
    wal: Option<wal::WalWriter>,
    /// Content-derived durable identity (0 for non-durable sessions);
    /// see [`StatsSnapshot::session_id`].
    session_id: u64,
    /// Instrument handles (all no-op unless bound to an enabled
    /// [`Registry`]).
    obs: Box<SessionObs>,
    /// Live delta subscriptions + their event outbox (never snapshotted,
    /// never recovered — see [`sub`]).
    subs: sub::SubHub,
    /// `Some(leader_addr)` makes this a read-only replication follower:
    /// durable requests are refused with [`SessionError::NotLeader`] and
    /// state only moves through [`Session::apply_replicated`].
    read_only: Option<String>,
    /// Leader-side replication tap: when on, every WAL write is also
    /// pushed onto `shipments` for the server to forward to followers.
    repl_tap: bool,
    /// WAL writes captured since the last [`Session::take_wal_shipments`].
    shipments: Vec<WalShipment>,
    /// The sampled distributed-trace context of the request currently
    /// being served (set by [`Session::serve_traced`] /
    /// [`Session::apply_replicated_traced`]): nested WAL and publish
    /// spans parent under it, and shipments it produces carry it.
    cur_trace: Option<TraceCtx>,
}

impl<F: ComponentFamily + Sync> Session<F> {
    /// Open a session: look up (or, on a miss, enumerate) the shared space
    /// of `schema` and `pools`, and seat `base` in it.
    ///
    /// # Errors
    /// [`SessionError::StateOutsideSpace`] when `base` is not a legal
    /// state of the enumerated space.
    ///
    /// # Panics
    /// Panics (from [`Catalog::new`]) if `base` does not decompose
    /// losslessly along the family, or, with the [`PoolError`](compview_core::PoolError)'s
    /// message, if the pools do not fit the schema (a missing pool, a
    /// tuple of the wrong arity, a pool that repeats a tuple, or more
    /// pool bits than `config.max_bits` or 64).
    pub fn open(
        family: F,
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        base: Instance,
        config: SessionConfig,
    ) -> Result<Session<F>, SessionError> {
        Session::open_observed(family, schema, pools, base, config, &Registry::disabled())
    }

    /// [`Session::open`] with its instruments registered on `registry`
    /// (see the `compview-obs` crate; a disabled registry makes every
    /// handle a no-op).
    ///
    /// # Errors
    /// As [`Session::open`].
    ///
    /// # Panics
    /// As [`Session::open`].
    pub fn open_observed(
        family: F,
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        base: Instance,
        config: SessionConfig,
        registry: &Registry,
    ) -> Result<Session<F>, SessionError> {
        let obs = SessionObs::new(registry);
        let space = StateSpace::shared(schema, pools, config.max_bits, &obs.enum_obs)
            .unwrap_or_else(|e| panic!("{e}"));
        let base_id = space.id_of(&base).ok_or(SessionError::StateOutsideSpace {
            view: "<base>".to_owned(),
        })?;
        Ok(Session {
            catalog: Catalog::new(family, base),
            space,
            base_id,
            verified: BTreeSet::new(),
            config,
            stats: SessionStats::default(),
            wal: None,
            session_id: 0,
            obs: Box::new(obs),
            subs: sub::SubHub::default(),
            read_only: None,
            repl_tap: false,
            shipments: Vec::new(),
            cur_trace: None,
        })
    }

    /// Open a *durable* session: like [`Session::open`], then seed the
    /// (required-empty) `store` with a write-ahead log whose first record
    /// snapshots the fresh session.  Every state-changing request served
    /// afterwards is logged before it is applied, under `policy`.
    ///
    /// # Errors
    /// Everything [`Session::open`] rejects, plus
    /// [`SessionError::Durability`] when the store is non-empty (use
    /// [`Session::recover`] for existing logs) or the initial snapshot
    /// cannot be written.
    pub fn open_durable(
        family: F,
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        base: Instance,
        config: SessionConfig,
        store: Box<dyn LogStore>,
        policy: SyncPolicy,
    ) -> Result<Session<F>, SessionError> {
        Session::open_durable_observed(
            family,
            schema,
            pools,
            base,
            config,
            store,
            policy,
            &Registry::disabled(),
        )
    }

    /// [`Session::open_durable`] with its instruments registered on
    /// `registry`.
    ///
    /// # Errors
    /// As [`Session::open_durable`].
    #[allow(clippy::too_many_arguments)]
    pub fn open_durable_observed(
        family: F,
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        base: Instance,
        config: SessionConfig,
        mut store: Box<dyn LogStore>,
        policy: SyncPolicy,
        registry: &Registry,
    ) -> Result<Session<F>, SessionError> {
        let len = store.len().map_err(|e| SessionError::Durability {
            detail: e.to_string(),
        })?;
        if len != 0 {
            return Err(SessionError::StaleLog {
                detail: format!("store already holds {len} bytes"),
            });
        }
        let mut session = Session::open_observed(family, schema, pools, base, config, registry)?;
        // Derive the durable identity from the session's initial content
        // (id field zeroed during the derivation), so the same opening —
        // at any thread count — yields the same id, and recovery reads
        // the identical value back out of the snapshot record.
        let seed = wal::encode_snapshot(&session.snapshot_parts()?);
        // Bit 32 keeps a (vanishingly unlikely) all-zero CRC from
        // colliding with 0, the "non-durable" marker.
        session.session_id = u64::from(wal::crc32(&seed)) | 1 << 32;
        let snapshot = wal::encode_snapshot(&session.snapshot_parts()?);
        let mut writer = wal::WalWriter::new(store, policy, 0, 0);
        writer.set_obs(session.obs.wal.clone());
        writer
            .reset_with(&snapshot)
            .map_err(|e| SessionError::Durability {
                detail: e.to_string(),
            })?;
        session.wal = Some(writer);
        Ok(session)
    }

    /// Rebuild a session from its write-ahead log.
    ///
    /// Parses the log, restores the record-0 snapshot (looking up the
    /// shared space of the snapshotted pools, and enumerating it only on a
    /// miss, so the poset and index are exactly what any thread count
    /// derives), then **replays** every
    /// following request through the ordinary [`Session::serve`] path —
    /// rejections replay to the same rejections, so the counters match
    /// too.  Reading stops at the first torn or corrupt record; the log
    /// is truncated there and the session continues logging after it.
    ///
    /// Corruption of the *tail* is reported, not fatal: the returned
    /// [`RecoveryReport`] says how many records were applied, how many
    /// bytes survived, and why reading stopped.  Only a log whose header
    /// or snapshot record is unusable fails outright, with a typed
    /// [`RecoverError`].
    ///
    /// # Errors
    /// See [`RecoverError`].
    pub fn recover(
        family: F,
        schema: Schema,
        store: Box<dyn LogStore>,
        policy: SyncPolicy,
    ) -> Result<(Session<F>, RecoveryReport), RecoverError> {
        Session::recover_observed(family, schema, store, policy, &Registry::disabled())
    }

    /// [`Session::recover`] with its instruments registered on
    /// `registry`; the whole replay is timed onto `wal.replay_ns` and
    /// every replayed record tallies `wal.replay.records`.
    ///
    /// # Errors
    /// As [`Session::recover`].
    pub fn recover_observed(
        family: F,
        schema: Schema,
        mut store: Box<dyn LogStore>,
        policy: SyncPolicy,
        registry: &Registry,
    ) -> Result<(Session<F>, RecoveryReport), RecoverError> {
        let obs = SessionObs::new(registry);
        let replay_timer = obs.replay_ns.start();
        let bytes = store
            .read_all()
            .map_err(|e| RecoverError::Io(e.to_string()))?;
        let bytes_total = bytes.len() as u64;
        let parsed = wal::parse_log(&bytes)?;
        let Some(first) = parsed.records.first() else {
            return Err(RecoverError::BadSnapshot {
                detail: format!("no snapshot record ({})", parsed.stop),
            });
        };
        let snap = wal::decode_snapshot(&first.payload).map_err(|e| RecoverError::BadSnapshot {
            detail: e.to_string(),
        })?;
        // Re-frame record 0 (framing is deterministic) to recover the
        // log's replication generation id.
        let wal_gen = wal::gen_of_record0_frame(&wal::frame_record(0, &first.payload));
        let space = snapshot_space(schema, &snap.space, &obs.enum_obs)
            .map_err(|detail| RecoverError::BadSnapshot { detail })?;
        let base_id = space
            .id_of(&snap.base)
            .ok_or(RecoverError::BaseOutsideSpace)?;
        let catalog = Catalog::restore(family, snap.base, snap.views, snap.log, snap.history)
            .map_err(RecoverError::Catalog)?;
        let mut session = Session {
            catalog,
            space,
            base_id,
            verified: BTreeSet::new(),
            config: snap.config,
            stats: snap.stats,
            wal: None,
            session_id: snap.session_id,
            obs: Box::new(obs),
            // A fresh, empty hub: subscriptions are connection-scoped, so
            // replaying the log below cannot create any and emits no
            // events (`Subscribe` is never logged to begin with).
            subs: sub::SubHub::default(),
            read_only: None,
            repl_tap: false,
            shipments: Vec::new(),
            cur_trace: None,
        };
        let mut applied = 0u64;
        let mut salvaged = parsed.salvaged;
        let mut stopped = parsed.stop;
        for (seq, rec) in parsed.records.iter().enumerate().skip(1) {
            match wal::decode_request(&rec.payload) {
                Ok(req) => {
                    // Replaying a rejection re-rejects deterministically;
                    // both outcomes re-tally the same counters.
                    let _ = session.serve(req);
                    applied += 1;
                }
                Err(e) => {
                    // CRC-valid but undecodable (version skew, or
                    // corruption colliding with the checksum): salvage
                    // everything before it.
                    salvaged = rec.offset;
                    stopped = RecoveryStop::BadPayload {
                        offset: rec.offset,
                        seq: seq as u64,
                        detail: e.to_string(),
                    };
                    break;
                }
            }
        }
        if salvaged < bytes_total {
            store
                .truncate(salvaged)
                .map_err(|e| RecoverError::Io(e.to_string()))?;
        }
        let mut writer = wal::WalWriter::new(store, policy, applied + 1, salvaged);
        writer.set_obs(session.obs.wal.clone());
        writer.set_gen(wal_gen);
        session.wal = Some(writer);
        session.obs.replay_records.add(applied);
        session.obs.replay_ns.stop(replay_timer);
        Ok((
            session,
            RecoveryReport {
                records_applied: applied,
                bytes_salvaged: salvaged,
                bytes_total,
                stopped,
            },
        ))
    }

    /// Compact the write-ahead log: atomically replace it with a single
    /// fresh snapshot record capturing the session as it stands, and
    /// restart sequence numbering.  Recovery cost drops to snapshot
    /// decoding; nothing else about the session changes.
    ///
    /// # Errors
    /// [`SessionError::Durability`] when the session has no log or the
    /// replacement write fails (the old log is left intact in that case —
    /// the store's `replace` is atomic).
    pub fn checkpoint(&mut self) -> Result<(), SessionError> {
        if self.wal.is_none() {
            return Err(SessionError::Durability {
                detail: "session has no write-ahead log".to_owned(),
            });
        }
        let timer = self.obs.checkpoint_ns.start();
        let snapshot = wal::encode_snapshot(&self.snapshot_parts()?);
        let writer = self.wal.as_mut().expect("checked above");
        writer
            .reset_with(&snapshot)
            .map_err(|e| SessionError::Durability {
                detail: e.to_string(),
            })?;
        if self.repl_tap {
            // Followers must jump generations with us: ship the exact
            // record-0 bytes the reset just wrote (framing is
            // deterministic, so re-framing reproduces them).
            self.shipments.push(WalShipment::Reset {
                gen: writer.gen(),
                record0: wal::frame_record(0, &snapshot),
            });
        }
        self.obs.checkpoints.inc();
        self.obs.checkpoint_ns.stop(timer);
        Ok(())
    }

    /// Take a checkpoint when [`CheckpointPolicy`] says one is due.
    /// Called after every applied durable record; does nothing on
    /// non-durable sessions, during replay (the log is detached then),
    /// or under a `0/0` policy.
    fn maybe_auto_checkpoint(&mut self) {
        let Some(writer) = self.wal.as_ref() else {
            return;
        };
        if !self
            .config
            .checkpoint
            .due(writer.last_seq(), writer.durable_len())
        {
            return;
        }
        match self.checkpoint() {
            Ok(()) => self.obs.auto_checkpoints.inc(),
            // Non-fatal: the triggering request is already applied and
            // logged, and `reset_with` left the old log intact.  The
            // policy stays due, so the next applied record retries.
            Err(_) => self.obs.auto_checkpoint_failures.inc(),
        }
    }

    /// Whether this session keeps a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Capture everything a snapshot record needs from the live session.
    fn snapshot_parts(&self) -> Result<wal::SessionSnapshot, SessionError> {
        let mut space = Vec::new();
        self.space
            .encode_snapshot(&mut space)
            .map_err(|e| SessionError::Durability {
                detail: format!("space is not snapshottable: {e}"),
            })?;
        Ok(wal::SessionSnapshot {
            config: self.config,
            session_id: self.session_id,
            space,
            base: self.catalog.state().clone(),
            views: self
                .catalog
                .views()
                .map(|(n, m)| (n.to_owned(), m))
                .collect(),
            stats: self.stats.clone(),
            log: self.catalog.log().to_vec(),
            history: self.catalog.history().to_vec(),
        })
    }

    /// Log a durable request before applying it; a store failure rejects
    /// the request without touching the session.
    fn log_request(&mut self, req: &SessionRequest) -> Result<(), SessionError> {
        if self.wal.is_none() || !req.is_durable() {
            return Ok(());
        }
        let payload = wal::encode_request(req);
        let append_span = self
            .cur_trace
            .map(|ctx| self.obs.dtracer.span(ctx, "wal.append"));
        let writer = self.wal.as_mut().expect("checked above");
        let rec = writer
            .append_payload(&payload)
            .map_err(|e| SessionError::Durability {
                detail: e.to_string(),
            })?;
        if self.repl_tap {
            // A traced write's shipment parents under its append span,
            // so the follower's apply links leader WAL → wire → apply.
            let trace = append_span
                .as_ref()
                .and_then(DistSpan::ctx)
                .map(|c| (c.trace_id, c.parent_span));
            self.shipments.push(WalShipment::Record {
                gen: writer.gen(),
                bytes: rec,
                trace,
            });
        }
        Ok(())
    }

    /// Enter or leave **group-commit** mode on the write-ahead log: while
    /// on, fsyncs the [`SyncPolicy`] would issue per record are deferred
    /// until [`Session::flush_wal`], which issues a single fsync covering
    /// every record appended in between.  `Service::dispatch` brackets
    /// each session's batch queue with this, so a batch costs one fsync
    /// per touched session instead of one per record.  No-op on
    /// non-durable sessions.
    pub fn set_deferred_sync(&mut self, on: bool) {
        if let Some(writer) = self.wal.as_mut() {
            writer.set_deferred(on);
        }
    }

    /// Issue the one deferred fsync of a group-commit window (see
    /// [`Session::set_deferred_sync`]).  No-op when nothing is pending.
    ///
    /// # Errors
    /// [`SessionError::Durability`] when the store's sync fails: records
    /// appended during the window are in the log but not known durable,
    /// exactly as under [`SyncPolicy::Never`] — the caller decides
    /// whether to retract acknowledgements.
    pub fn flush_wal(&mut self) -> Result<(), SessionError> {
        let Some(writer) = self.wal.as_mut() else {
            return Ok(());
        };
        writer.flush().map_err(|e| SessionError::Durability {
            detail: e.to_string(),
        })
    }

    /// Serve one request, updating the counters.  A [`SessionRequest::Stats`]
    /// snapshot reflects the requests *completed before it*.
    ///
    /// On a durable session, state-changing requests are appended to the
    /// write-ahead log *before* they are applied; a request that cannot
    /// be logged is rejected with [`SessionError::Durability`] and never
    /// touches the session.
    pub fn serve(&mut self, req: SessionRequest) -> Result<SessionResponse, SessionError> {
        let variant = SessionObs::variant_index(&req);
        let timer = self.obs.variant_hist_at(variant).start();
        let durable = req.is_durable() && self.wal.is_some();
        let outcome = if let (true, Some(leader)) = (req.is_durable(), self.read_only.as_ref()) {
            // A follower refuses writes *before* logging: locally logged
            // records would fork the mirrored log.
            Err(SessionError::NotLeader {
                leader_addr: leader.clone(),
            })
        } else {
            match self.log_request(&req) {
                Ok(()) => self.handle(req),
                Err(e) => Err(e),
            }
        };
        self.stats.requests += 1;
        self.obs.requests.inc();
        let outcome = match outcome {
            Ok(resp) => {
                self.stats.accepted += 1;
                self.obs.accepted.inc();
                if durable {
                    self.maybe_auto_checkpoint();
                }
                Ok(resp)
            }
            Err(e) => {
                self.stats.rejected += 1;
                self.obs.rejected.inc();
                *self
                    .stats
                    .rejected_by_variant
                    .entry(e.variant_label().to_owned())
                    .or_insert(0) += 1;
                Err(e)
            }
        };
        if let Some(t) = timer {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.variant_hist_at(variant).record(ns);
            // Update is the hot write path (the E12/E13 workloads are
            // update streams); its latency additionally feeds the exact
            // tail-quantile reservoir.  Read is the hot poll path and
            // gets the same treatment.
            if variant == SessionObs::UPDATE_VARIANT {
                self.obs.update_tail_ns.record(ns);
            } else if variant == SessionObs::READ_VARIANT {
                self.obs.read_tail_ns.record(ns);
            }
        }
        outcome
    }

    /// [`Session::serve`] under a distributed-trace context: when the
    /// tracer samples `ctx.trace_id`, a `"session.dispatch"` span covers
    /// the request and nested WAL-append / publish spans parent under
    /// it; shipments the request produces carry the context downstream.
    /// When not sampled (or tracing is off) this is exactly `serve` —
    /// the unsampled path costs one branch.
    ///
    /// # Errors
    /// As [`Session::serve`].
    pub fn serve_traced(
        &mut self,
        req: SessionRequest,
        ctx: TraceCtx,
    ) -> Result<SessionResponse, SessionError> {
        let span = self.obs.dtracer.span(ctx, "session.dispatch");
        let Some(child) = span.ctx() else {
            return self.serve(req);
        };
        self.cur_trace = Some(child);
        let outcome = self.serve(req);
        self.cur_trace = None;
        outcome
    }

    /// [`Session::flush_wal`] under a distributed-trace context: the
    /// group-commit fsync covers every record of the batch window, so
    /// the `"wal.fsync"` span parents under the *first* traced request
    /// of the window (`ctx`), which is the one that opened it.
    ///
    /// # Errors
    /// As [`Session::flush_wal`].
    pub fn flush_wal_traced(&mut self, ctx: Option<TraceCtx>) -> Result<(), SessionError> {
        let _span = ctx.map(|c| self.obs.dtracer.span(c, "wal.fsync"));
        self.flush_wal()
    }

    fn handle(&mut self, req: SessionRequest) -> Result<SessionResponse, SessionError> {
        match req {
            SessionRequest::RegisterView { name, mask } => self.register_view(name, mask),
            SessionRequest::Read { view } => self.read(&view),
            SessionRequest::Update { view, new_state } => self.update(&view, &new_state),
            SessionRequest::InsertPoolTuple { relation, tuple } => {
                self.edit_pool(PoolEdit::Insert(&relation, &tuple))
            }
            SessionRequest::RemovePoolTuple { relation, tuple } => {
                // Reject edits that would delete the ground under the base
                // state *before* touching the space.
                let pools = self.space.pools().ok_or(EditError::NotEditable)?;
                if pools.contains_key(&relation)
                    && self.catalog.state().rel(&relation).contains(&tuple)
                {
                    return Err(SessionError::TupleInBaseState { relation });
                }
                self.edit_pool(PoolEdit::Remove(&relation, &tuple))
            }
            SessionRequest::Undo => self.undo(),
            SessionRequest::Stats => Ok(SessionResponse::Stats(self.snapshot())),
            SessionRequest::Subscribe { view } => self.subscribe(&view),
            SessionRequest::Unsubscribe { sub } => self.unsubscribe(sub),
        }
    }

    fn register_view(&mut self, name: String, mask: u32) -> Result<SessionResponse, SessionError> {
        let full = self.catalog.family().full_mask();
        if mask & !full != 0 {
            return Err(CatalogError::BadMask(mask).into());
        }
        if self.catalog.mask_of(&name).is_ok() {
            return Err(CatalogError::DuplicateView(name).into());
        }
        // Verify componentness *before* registering: both the view's endo
        // and its complement's must be strong endomorphisms of the space.
        self.verify_view(mask)?;
        let complement = self.catalog.family().complement(mask);
        self.catalog.register(&name, mask).expect("validated above");
        Ok(SessionResponse::Registered {
            view: name,
            mask,
            complement,
        })
    }

    fn read(&mut self, view: &str) -> Result<SessionResponse, SessionError> {
        let mask = self.catalog.mask_of(view)?;
        self.verify_view(mask)?;
        Ok(SessionResponse::State(self.image(mask)))
    }

    /// The view part of the base state: the family's endomorphism applied
    /// to it (Thm 3.1.1), which is what [`Catalog::read`] answers.
    fn image(&self, mask: u32) -> Instance {
        self.catalog.family().endo(mask, self.catalog.state())
    }

    fn update(
        &mut self,
        view: &str,
        new_state: &Instance,
    ) -> Result<SessionResponse, SessionError> {
        self.verify_view(self.catalog.mask_of(view)?)?;
        let old_base = self.base_id;
        let report = self.catalog.update(view, new_state)?;
        match self.space.id_of(self.catalog.state()) {
            Some(id) => {
                self.base_id = id;
                if id != old_base {
                    self.publish();
                }
                Ok(SessionResponse::Updated(report))
            }
            None => {
                // The family accepted a target whose translation is not a
                // state of the enumerated space (e.g. a tuple outside the
                // pool).  Roll the catalog back; the session is untouched.
                self.catalog.undo().expect("update just succeeded");
                Err(SessionError::StateOutsideSpace {
                    view: view.to_owned(),
                })
            }
        }
    }

    /// Move the session's space across one pool edit.  Incremental edits
    /// go through the interner ([`StateSpace::edit_shared`]), and a hit
    /// and a miss land on the same space, so they re-check the same masks
    /// with the same verdicts.  The full path re-enumerates into a private
    /// space and forgets the verified masks, as does a cross-validation
    /// repair.
    fn edit_pool(&mut self, edit: PoolEdit<'_>) -> Result<SessionResponse, SessionError> {
        let report = if self.config.incremental {
            let r = StateSpace::edit_shared(&mut self.space, edit, &self.obs.enum_obs)?;
            self.stats.incremental_edits += 1;
            if self.after_incremental_edit() {
                self.verified.clear();
            } else {
                self.recheck_verified();
            }
            r
        } else {
            let (r, next) = self.space.edit_full(edit)?;
            self.space = Arc::new(next);
            self.stats.full_rebuilds += 1;
            self.verified.clear();
            r
        };
        if let PoolEdit::Remove(..) = edit {
            // Removal can delete states the undo history points at; drop
            // it (the audit log survives).  Inserts only add states, so
            // undo targets stay legal.
            self.catalog.clear_history();
        }
        self.reseat_base();
        self.publish();
        Ok(SessionResponse::PoolEdited(report))
    }

    /// Re-check every verified mask on the space a pool edit moved to.  A
    /// mask that still checks is kept (one `cache_remaps` each); one that
    /// fails is dropped, so its views are refused, with the
    /// [`SessionError::NotAComponent`] the check reports, until it checks
    /// again.
    fn recheck_verified(&mut self) {
        for mask in std::mem::take(&mut self.verified) {
            if self.check_mask(mask).is_ok() {
                self.stats.cache_remaps += 1;
                self.obs.cache_remaps.inc();
                self.verified.insert(mask);
            }
        }
    }

    /// Cross-validate the space an incremental edit moved to (patched
    /// here or found in the interner) when configured; repair by
    /// rebuilding on mismatch.  Returns whether a repair re-enumerated the
    /// space.
    fn after_incremental_edit(&mut self) -> bool {
        if self.config.cross_validate {
            if let Err(e) = self.space.validate_against_full() {
                debug_assert!(false, "incremental edit diverged: {e}");
                StateSpace::rebuild_shared(&mut self.space).expect("space is editable");
                self.stats.full_rebuilds += 1;
                return true;
            }
        }
        false
    }

    /// Re-resolve the base state's id after the space changed shape.
    fn reseat_base(&mut self) {
        self.base_id = self.space.expect_id(self.catalog.state());
    }

    fn undo(&mut self) -> Result<SessionResponse, SessionError> {
        let old_base = self.base_id;
        self.catalog.undo()?;
        self.reseat_base();
        if self.base_id != old_base {
            self.publish();
        }
        Ok(SessionResponse::Undone)
    }

    fn subscribe(&mut self, view: &str) -> Result<SessionResponse, SessionError> {
        let mask = self.catalog.mask_of(view)?;
        self.verify_view(mask)?;
        let image = self.image(mask);
        let sub = self.subs.insert(view.to_owned(), mask, image.clone());
        self.obs.sub_opened.inc();
        Ok(SessionResponse::Subscribed {
            view: view.to_owned(),
            sub,
            image,
        })
    }

    fn unsubscribe(&mut self, sub: u64) -> Result<SessionResponse, SessionError> {
        if self.subs.remove(sub).is_none() {
            return Err(SessionError::UnknownSubscription { sub });
        }
        self.obs.sub_closed.inc();
        Ok(SessionResponse::Unsubscribed { sub })
    }

    /// End a subscription with no request and no event — the server's
    /// cleanup path when a subscriber's connection dies or it is dropped
    /// for falling behind.  Returns whether the id was live.
    pub fn drop_subscription(&mut self, sub: u64) -> bool {
        let live = self.subs.remove(sub).is_some();
        if live {
            self.obs.sub_closed.inc();
        }
        live
    }

    /// Number of live subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Whether delta events are waiting to be taken.
    pub fn has_events(&self) -> bool {
        self.subs.has_events()
    }

    /// Take every [`DeltaEvent`] committed since the last take, in commit
    /// order (within one commit, ascending subscription id).  The caller
    /// owns delivery; an undelivered event is an event lost, so servers
    /// drain after every dispatched batch.
    pub fn take_events(&mut self) -> Vec<DeltaEvent> {
        self.subs.take_events()
    }

    /// Publish to every subscription after a commit moved the base
    /// (`Update`, `Undo`), the space (a pool edit), or both (a follower's
    /// reset).  Each distinct subscribed view is verified first: one that
    /// is no longer a component ends its streams here, at the commit that
    /// broke it, with a typed [`TerminateReason::NotAComponent`] event.
    /// Otherwise its image is the family's endo applied to the base.  An
    /// image that moved emits the row delta between the image the
    /// subscription last published and the new one, so the stream
    /// replays to what a fresh `Read` answers; an unchanged image emits
    /// nothing.  A pool edit moves no image, so after one only the
    /// verification can end a stream.
    fn publish(&mut self) {
        if self.subs.is_empty() {
            return;
        }
        let timer = self.obs.publish_ns.start();
        enum Resolved {
            Unchanged,
            Moved(Instance, Instance, Instance),
            Dead(String),
        }
        // Every subscription of one mask holds the same image (see the
        // `SubEntry` invariant), so each mask resolves once.
        let ids = self.subs.ids();
        let mut resolved: BTreeMap<u32, Resolved> = BTreeMap::new();
        for &id in &ids {
            let mask = self.subs.entry(id).expect("listed above").mask;
            if resolved.contains_key(&mask) {
                continue;
            }
            let res = match self.verify_view(mask) {
                Err(e) => Resolved::Dead(e.to_string()),
                Ok(()) => {
                    let new = self.image(mask);
                    let old = &self.subs.entry(id).expect("listed above").image;
                    if &new == old {
                        Resolved::Unchanged
                    } else {
                        let (added, removed) = (new.difference(old), old.difference(&new));
                        Resolved::Moved(new, added, removed)
                    }
                }
            };
            resolved.insert(mask, res);
        }
        for id in ids {
            let entry = self.subs.entry_mut(id).expect("listed above");
            match resolved.get(&entry.mask).expect("resolved above") {
                Resolved::Unchanged => {}
                Resolved::Moved(image, added, removed) => {
                    entry.image = image.clone();
                    entry.seq += 1;
                    let (view, seq) = (entry.view.clone(), entry.seq);
                    let rows = added.total_tuples() + removed.total_tuples();
                    self.obs.sub_events.inc();
                    self.obs.sub_event_rows.record(rows as u64);
                    self.subs.emit(DeltaEvent {
                        sub: id,
                        view,
                        seq,
                        kind: DeltaKind::Rows {
                            added: added.clone(),
                            removed: removed.clone(),
                        },
                    });
                }
                Resolved::Dead(detail) => {
                    self.obs.sub_terminated.inc();
                    self.obs.sub_closed.inc();
                    self.subs.terminate(
                        id,
                        TerminateReason::NotAComponent {
                            detail: detail.clone(),
                        },
                    );
                }
            }
        }
        if let Some(t) = timer {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.publish_ns.record(ns);
            self.obs.publish_tail_ns.record(ns);
        }
        if let Some(ctx) = self.cur_trace {
            // The end of a traced write's pipeline on this node: deltas
            // are in subscriber outboxes, about to hit the wire.
            self.obs.dtracer.instant(ctx, "sub.publish");
        }
    }

    /// Make sure a view is a component of the current space: its mask and
    /// its complement must both be verified strong endomorphisms (Thm
    /// 2.3.3).  A view already verified counts one `cache_hits`; each mask
    /// checked here counts one `cache_misses`, and the first that fails is
    /// the error.
    fn verify_view(&mut self, mask: u32) -> Result<(), SessionError> {
        let complement = self.catalog.family().complement(mask);
        if self.verified.contains(&mask) && self.verified.contains(&complement) {
            self.stats.cache_hits += 1;
            self.obs.cache_hits.inc();
            return Ok(());
        }
        for m in [mask, complement] {
            if !self.verified.contains(&m) {
                self.stats.cache_misses += 1;
                self.obs.cache_misses.inc();
                self.check_mask(m)?;
                self.verified.insert(m);
            }
        }
        Ok(())
    }

    /// Check that `mask` is a component of the current space
    /// ([`check_component`]).  A family with a fingerprint takes the
    /// verdict another session of this space already checked, if any
    /// (`session.verify.reused` counts those); the session's own counters
    /// do not tell the two apart.
    fn check_mask(&self, mask: u32) -> Result<(), SessionError> {
        let family = self.catalog.family();
        let check = || check_component(family, &self.space, mask, self.config.cross_validate);
        let verdict = match family.fingerprint() {
            Some(fingerprint) => {
                let (verdict, reused) = self.space.verdict(&fingerprint, mask, check);
                if reused {
                    self.obs.verify_reused.inc();
                }
                verdict
            }
            None => check(),
        };
        verdict.map_err(|detail| SessionError::NotAComponent { mask, detail })
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.stats.clone(),
            states: self.space.len(),
            views: self.catalog.views().count(),
            undoable: self.catalog.undoable(),
            cached_masks: self.verified.len(),
            session_id: self.session_id,
            wal_gen: self.wal.as_ref().map_or(0, wal::WalWriter::gen),
            wal_seq: self.wal.as_ref().map_or(0, wal::WalWriter::last_seq),
            log_bytes: self.wal.as_ref().map_or(0, wal::WalWriter::durable_len),
            active_subs: self.subs.len(),
        }
    }

    /// The session's durable identity (0 when non-durable); see
    /// [`StatsSnapshot::session_id`].
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Re-register this session's instruments on `registry` (used by
    /// `Service` to adopt sessions opened without one).  Counters start
    /// from the registry's cells, not this session's history: instruments
    /// are service-wide aggregates.
    pub fn bind_registry(&mut self, registry: &Registry) {
        *self.obs = SessionObs::new(registry);
        if let Some(writer) = self.wal.as_mut() {
            writer.set_obs(self.obs.wal.clone());
        }
    }

    /// The current base state.
    pub fn state(&self) -> &Instance {
        self.catalog.state()
    }

    /// The current base state's id in the space.
    pub fn base_id(&self) -> usize {
        self.base_id
    }

    /// The enumerated state space, shared with every session of the same
    /// schema, pools and guard.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog<F> {
        &self.catalog
    }

    /// The cumulative counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Forget every verified mask: the next use of each view checks its
    /// mask and its complement again.
    pub fn invalidate_cache(&mut self) {
        self.verified.clear();
    }

    // -----------------------------------------------------------------
    // Replication: leader-side WAL shipping and follower-side apply.
    // -----------------------------------------------------------------

    /// Make this session a read-only replication follower
    /// (`Some(leader_addr)`) or flip it back to writable (`None`, the
    /// promotion path).  While read-only, durable requests are refused
    /// with [`SessionError::NotLeader`] *before* logging; reads, stats,
    /// and subscriptions serve locally.
    pub fn set_read_only(&mut self, leader_addr: Option<String>) {
        self.read_only = leader_addr;
    }

    /// The leader address this session follows, when read-only.
    pub fn leader_addr(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    /// Turn the leader-side replication tap on or off.  While on, every
    /// WAL write (append or checkpoint reset) is also captured as a
    /// [`WalShipment`]; turning it off discards anything uncollected.
    pub fn set_repl_tap(&mut self, on: bool) {
        self.repl_tap = on;
        if !on {
            self.shipments.clear();
        }
    }

    /// Collect the WAL writes captured since the last call (empty unless
    /// the tap is on).  The server forwards these to live followers after
    /// each dispatched batch.
    pub fn take_wal_shipments(&mut self) -> Vec<WalShipment> {
        std::mem::take(&mut self.shipments)
    }

    /// The replication generation id of the current log (0 when
    /// non-durable).  Checkpoints restart sequence numbering, so
    /// `(generation, seq)` — not seq alone — names a record.
    pub fn wal_gen(&self) -> u64 {
        self.wal.as_ref().map_or(0, wal::WalWriter::gen)
    }

    /// Sequence number of the last record in the log (0 = just the
    /// snapshot; also 0 when non-durable).
    pub fn wal_last_seq(&self) -> u64 {
        self.wal.as_ref().map_or(0, wal::WalWriter::last_seq)
    }

    /// Force an fsync of the write-ahead log regardless of policy — the
    /// promotion barrier: everything applied from the old leader is made
    /// durable before the session starts accepting writes of its own.
    ///
    /// # Errors
    /// [`SessionError::Durability`] when the store's sync fails.
    pub fn sync_wal(&mut self) -> Result<(), SessionError> {
        let Some(writer) = self.wal.as_mut() else {
            return Ok(());
        };
        writer.sync_all().map_err(|e| SessionError::Durability {
            detail: e.to_string(),
        })
    }

    /// Plan a follower's catch-up: given where the follower stands
    /// (`from_seq` is the next record it wants, `follower_gen` the
    /// generation it is on; `0, 0` = brand new), decide what to ship.
    /// See [`CatchupPlan`] for the three outcomes.
    ///
    /// # Errors
    /// [`SessionError::Durability`] when the session has no log or the
    /// log image cannot be read back.
    pub fn replication_catchup(
        &mut self,
        from_seq: u64,
        follower_gen: u64,
    ) -> Result<CatchupPlan, SessionError> {
        let writer = self.wal.as_mut().ok_or_else(|| SessionError::Durability {
            detail: "session has no write-ahead log to replicate".to_owned(),
        })?;
        let gen = writer.gen();
        let last = writer.last_seq();
        let image = writer.log_image().map_err(|e| SessionError::Durability {
            detail: e.to_string(),
        })?;
        if follower_gen == gen && follower_gen != 0 {
            if from_seq > last + 1 {
                return Ok(CatchupPlan::Refused {
                    detail: format!(
                        "follower asks from seq {from_seq} but generation {gen:#x} \
                         ends at {last}: follower is ahead (split brain?)"
                    ),
                });
            }
            let frames =
                wal::tail_frames(&image, from_seq).map_err(|e| SessionError::Durability {
                    detail: format!("leader log unreadable: {e}"),
                })?;
            Ok(CatchupPlan::Tail { gen, frames })
        } else {
            // Different (or no) generation: whatever the follower holds
            // was checkpointed away or never ours.  Full resync.
            let mut frames = wal::tail_frames(&image, 0).map_err(|e| SessionError::Durability {
                detail: format!("leader log unreadable: {e}"),
            })?;
            if frames.is_empty() {
                return Err(SessionError::Durability {
                    detail: "leader log has no snapshot record".to_owned(),
                });
            }
            let record0 = frames.remove(0);
            Ok(CatchupPlan::Reset {
                gen,
                record0,
                frames,
            })
        }
    }

    /// Apply one leader-shipped record to this follower: verify the
    /// frame, mirror the exact bytes into the local log, then run the
    /// request through the ordinary handler — a record the leader
    /// rejected replays to the same rejection, exactly like recovery.
    /// Returns the applied sequence number.
    ///
    /// Auto-checkpointing is deliberately *not* consulted: checkpoints
    /// are log rewrites, and only the leader rewrites the log (followers
    /// jump generations via [`Session::apply_reset`]) — otherwise the
    /// byte-identity of leader and follower logs would fork.
    ///
    /// # Errors
    /// See [`ApplyError`]; every error leaves session and log untouched.
    pub fn apply_replicated(&mut self, rec: &[u8]) -> Result<u64, ApplyError> {
        self.apply_replicated_traced(rec, None)
    }

    /// [`Session::apply_replicated`] under the trace context the shipped
    /// record carried: when sampled, a `"repl.apply"` span covers the
    /// apply (parented under the upstream's shipment span), and any
    /// re-shipment to a chained downstream carries this span as parent.
    ///
    /// # Errors
    /// As [`Session::apply_replicated`].
    pub fn apply_replicated_traced(
        &mut self,
        rec: &[u8],
        ctx: Option<TraceCtx>,
    ) -> Result<u64, ApplyError> {
        let span = ctx.map(|c| self.obs.dtracer.span(c, "repl.apply"));
        self.cur_trace = span.as_ref().and_then(DistSpan::ctx);
        let outcome = self.apply_replicated_inner(rec);
        self.cur_trace = None;
        outcome
    }

    fn apply_replicated_inner(&mut self, rec: &[u8]) -> Result<u64, ApplyError> {
        let timer = self.obs.repl_apply_ns.start();
        let writer = self.wal.as_mut().ok_or(ApplyError::NotDurable)?;
        let (seq, payload) =
            wal::parse_record(rec).map_err(|detail| ApplyError::BadRecord { detail })?;
        let expected = writer.last_seq() + 1;
        if seq != expected {
            return Err(ApplyError::Gap {
                expected,
                found: seq,
            });
        }
        // Decode before touching the log, so an undecodable payload
        // costs nothing.
        let req = wal::decode_request(&payload).map_err(|e| ApplyError::BadPayload {
            detail: e.to_string(),
        })?;
        writer
            .append_raw_record(rec)
            .map_err(|e| ApplyError::Durability {
                detail: e.to_string(),
            })?;
        let gen = writer.gen();
        if self.repl_tap {
            // A follower that is itself an upstream re-ships the exact
            // bytes it just mirrored, so a chained downstream tails this
            // node instead of the root leader.  A traced apply stamps
            // its own span as the re-shipped parent, chaining the trace.
            self.shipments.push(WalShipment::Record {
                gen,
                bytes: rec.to_vec(),
                trace: self.cur_trace.map(|c| (c.trace_id, c.parent_span)),
            });
        }
        let outcome = self.handle(req);
        self.stats.requests += 1;
        self.obs.requests.inc();
        match outcome {
            Ok(_) => {
                self.stats.accepted += 1;
                self.obs.accepted.inc();
            }
            Err(e) => {
                self.stats.rejected += 1;
                self.obs.rejected.inc();
                *self
                    .stats
                    .rejected_by_variant
                    .entry(e.variant_label().to_owned())
                    .or_insert(0) += 1;
            }
        }
        self.obs.repl_applied.inc();
        if let Some(t) = timer {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.repl_apply_ns.record(ns);
            self.obs.repl_apply_tail_ns.record(ns);
        }
        Ok(seq)
    }

    /// Apply a leader checkpoint to this follower: rebuild the whole
    /// session from the shipped record-0 snapshot image and replace the
    /// local log with it (sequence numbering restarts, the generation id
    /// becomes the leader's).  Live subscriptions survive: each view is
    /// verified on the rebuilt space and its image re-read from the
    /// rebuilt state; if it moved, a catch-up [`DeltaEvent`] carries the
    /// difference so streams stay gapless across the jump.
    ///
    /// # Errors
    /// See [`ApplyError`].  A decode/rebuild error leaves the session
    /// untouched; only a store failure on the final log replace can leave
    /// the rebuilt state ahead of the (still intact, old) log.
    pub fn apply_reset(&mut self, record0: &[u8]) -> Result<u64, ApplyError> {
        let timer = self.obs.repl_apply_ns.start();
        if self.wal.is_none() {
            return Err(ApplyError::NotDurable);
        }
        let (seq, payload) =
            wal::parse_record(record0).map_err(|detail| ApplyError::BadRecord { detail })?;
        if seq != 0 {
            return Err(ApplyError::BadRecord {
                detail: format!("reset record carries seq {seq}, want 0"),
            });
        }
        let snap = wal::decode_snapshot(&payload).map_err(|e| ApplyError::BadSnapshot {
            detail: e.to_string(),
        })?;
        let schema = self.space.schema().clone();
        let space = snapshot_space(schema, &snap.space, &self.obs.enum_obs)
            .map_err(|detail| ApplyError::BadSnapshot { detail })?;
        let base_id = space
            .id_of(&snap.base)
            .ok_or_else(|| ApplyError::BadSnapshot {
                detail: "snapshot base state is outside its own space".to_owned(),
            })?;
        self.catalog
            .reset(snap.base, snap.views, snap.log, snap.history)
            .map_err(|e| ApplyError::BadSnapshot {
                detail: format!("catalog: {e}"),
            })?;
        self.space = space;
        self.base_id = base_id;
        self.verified.clear();
        self.config = snap.config;
        self.stats = snap.stats;
        self.session_id = snap.session_id;
        self.wal
            .as_mut()
            .expect("checked above")
            .reset_with(&payload)
            .map_err(|e| ApplyError::Durability {
                detail: e.to_string(),
            })?;
        if self.repl_tap {
            // Chained downstreams jump generations exactly as this node
            // just did: forward the reset verbatim.
            self.shipments.push(WalShipment::Reset {
                gen: self.wal.as_ref().expect("checked above").gen(),
                record0: record0.to_vec(),
            });
        }
        // Re-seat live subscriptions on the rebuilt state; emit the jump
        // as an ordinary row delta where an image changed.
        self.publish();
        self.obs.repl_resets.inc();
        if let Some(t) = timer {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.repl_apply_ns.record(ns);
            self.obs.repl_apply_tail_ns.record(ns);
        }
        Ok(0)
    }
}

/// The shared space a snapshot's recorded geometry names under `schema`,
/// or the `BadSnapshot` detail when the bytes do not decode or the pools
/// do not fit the schema.
fn snapshot_space(schema: Schema, bytes: &[u8], obs: &EnumObs) -> Result<Arc<StateSpace>, String> {
    let mut dec = compview_relation::binio::Dec::new(bytes);
    let (pools, max_bits) =
        StateSpace::decode_geometry(&mut dec).map_err(|e| format!("state space: {e}"))?;
    StateSpace::shared(schema, &pools, max_bits, obs).map_err(|e| format!("state space: {e}"))
}

/// Whether `mask`'s endomorphism maps every state of `space` into the
/// space and is a strong endomorphism of its ↓-poset, or why not.  The
/// state map is built for the check and dropped.
///
/// A family that names the relations the mask keeps whole
/// ([`ComponentFamily::kept_relations`]) on a space with pool bits gets
/// its map by projecting those bits ([`StateSpace::projection`]);
/// every other family and space gets it from one `endo` and one
/// `id_of` per state.  With `cross_validate` the projected map is
/// compared with the `endo` one, and on a mismatch the `endo` map
/// decides.
fn check_component<F: ComponentFamily + Sync>(
    family: &F,
    space: &StateSpace,
    mask: u32,
    cross_validate: bool,
) -> Verdict {
    let projected = family
        .kept_relations(mask)
        .and_then(|keep| space.projection(&keep));
    let map = match projected {
        Some(map) if cross_validate => {
            let by_endo = endo_map(family, space, mask);
            debug_assert_eq!(map, by_endo, "projected map of mask {mask:#b} diverged");
            by_endo
        }
        Some(map) => map,
        None => endo_map(family, space, mask),
    }
    .map_err(|s| format!("endo image of state {s} escapes the space"))?;
    if !endo::is_strong_endo(space.poset(), &map) {
        return Err("endo map is not a strong endomorphism of the ↓-poset".to_owned());
    }
    Ok(())
}

/// `mask`'s state map on `space` from its definition: state `s` goes to
/// the id of `family.endo(mask, s)`, or `Err(s)` for the first state
/// whose image is not in the space.
fn endo_map<F: ComponentFamily + Sync>(
    family: &F,
    space: &StateSpace,
    mask: u32,
) -> Result<Vec<usize>, usize> {
    let results: Vec<Result<usize, usize>> = compview_parallel::sharded_collect(
        space.len(),
        compview_parallel::num_threads(),
        |range| {
            range
                .map(|s| space.id_of(&family.endo(mask, space.state(s))).ok_or(s))
                .collect()
        },
    );
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compview_core::SubschemaComponents;
    use compview_logic::{var, Atom, Constraint, Egd, Ind};
    use compview_relation::{v, RelDecl, Signature};

    /// A subschema family that makes no claim about the relations its
    /// masks keep, so every check builds its map from `endo`.
    struct Opaque<'a>(&'a SubschemaComponents);

    impl ComponentFamily for Opaque<'_> {
        fn n_atoms(&self) -> usize {
            self.0.n_atoms()
        }
        fn relations(&self) -> Vec<String> {
            self.0.relations()
        }
        fn endo(&self, mask: u32, base: &Instance) -> Instance {
            self.0.endo(mask, base)
        }
        fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
            self.0.reconstruct(a, b)
        }
        fn is_component_state(&self, mask: u32, part: &Instance) -> bool {
            self.0.is_component_state(mask, part)
        }
    }

    #[test]
    fn projected_and_endo_checks_give_identical_verdicts() {
        let sig = Signature::new([
            RelDecl::new("R", ["A"]),
            RelDecl::new("S", ["A"]),
            RelDecl::new("T", ["A"]),
        ]);
        let t = |x: &str| Tuple::new([v(x)]);
        let pools: BTreeMap<String, Vec<Tuple>> = [
            ("R".to_owned(), vec![t("a"), t("b")]),
            ("S".to_owned(), vec![t("b"), t("c")]),
            ("T".to_owned(), vec![t("a")]),
        ]
        .into();
        let unary = |rel: &str, x: u32| Atom::new(rel, vec![var(x)]);
        let couplings = [
            vec![],
            vec![Constraint::Ind(Ind::new("S", vec![0], "R", vec![0]))],
            vec![Constraint::Egd(Egd::new(
                "R and T agree",
                vec![unary("R", 0), unary("T", 1)],
                (0, 1),
            ))],
        ];
        let groupings = [
            vec![vec!["R"], vec!["S"], vec!["T"]],
            vec![vec!["R", "T"], vec!["S"]],
            vec![vec!["R", "S", "T"]],
        ];
        let (mut accepted, mut escaped) = (0, 0);
        for constraints in couplings {
            let space = StateSpace::enumerate(Schema::new(sig.clone(), constraints), &pools);
            for groups in &groupings {
                let groups = groups
                    .iter()
                    .map(|g| g.iter().map(|r| (*r).to_owned()).collect())
                    .collect();
                let family = SubschemaComponents::new(sig.clone(), groups);
                for mask in 0..=family.full_mask() {
                    let projected = check_component(&family, &space, mask, false);
                    let by_endo = check_component(&Opaque(&family), &space, mask, false);
                    let cross = check_component(&family, &space, mask, true);
                    assert_eq!(projected, by_endo, "mask {mask:#b}");
                    assert_eq!(cross, by_endo, "mask {mask:#b}");
                    match projected {
                        Ok(()) => accepted += 1,
                        Err(e) if e.contains("escapes the space") => escaped += 1,
                        Err(e) => panic!("unexpected verdict {e}"),
                    }
                }
            }
        }
        assert!(accepted > 0 && escaped > 0, "{accepted} / {escaped}");
    }
}
