//! Instrument bundles for the session layer: per-variant request
//! latencies, view-verification hit ratios, WAL append/fsync/replay timings,
//! group-commit flush sizes, and checkpoint progress.
//!
//! All bundles register their instruments **eagerly** (see
//! `compview_logic::obs`) so a metrics snapshot's name set never depends
//! on which requests happened to arrive or on the thread count.  Metric
//! names are service-wide aggregates — every session bound to one
//! registry shares the same cells, keeping cardinality flat no matter
//! how many sessions a service hosts.

use compview_logic::EnumObs;
use compview_obs::{Counter, DistTracer, Gauge, Histogram, Registry, Reservoir};

/// Instruments owned by a [`crate::Session`].
#[derive(Clone, Default)]
pub struct SessionObs {
    /// Requests served (accepted + rejected), mirroring
    /// [`crate::SessionStats::requests`].
    pub requests: Counter,
    /// Requests that returned a response.
    pub accepted: Counter,
    /// Requests that returned an error.
    pub rejected: Counter,
    /// View verification: uses of an already-verified view / masks
    /// checked on first use / verified masks kept across a pool edit
    /// (the [`crate::SessionStats`] `cache_*` counters).
    pub cache_hits: Counter,
    /// See [`SessionObs::cache_hits`].
    pub cache_misses: Counter,
    /// See [`SessionObs::cache_hits`].
    pub cache_remaps: Counter,
    /// Masks checked here whose verdict the shared space already held,
    /// recorded by another session of the same family
    /// (`StateSpace::verdict`); each also counts as a `cache_misses`.
    pub verify_reused: Counter,
    /// Per-variant request latency, nanoseconds.
    pub register_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub read_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub update_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub insert_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub remove_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub undo_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub stats_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub subscribe_ns: Histogram,
    /// See [`SessionObs::register_ns`].
    pub unsubscribe_ns: Histogram,
    /// Exact tail-latency quantiles (reservoir sample) for the hottest
    /// variant, `Update` — the histogram above answers "which order of
    /// magnitude", this answers p99 vs p999.
    pub update_tail_ns: Reservoir,
    /// Exact tail quantiles for the `Read` path (the poll-side twin of
    /// [`SessionObs::update_tail_ns`]).
    pub read_tail_ns: Reservoir,
    /// Delta events emitted to subscription outboxes.
    pub sub_events: Counter,
    /// Subscriptions ended by the service (not-a-component after a pool
    /// edit; the server adds its slow-consumer drops here too).
    pub sub_terminated: Counter,
    /// Subscriptions opened / closed (for any reason) — the difference
    /// is the live count, and both stay aggregate-correct when many
    /// sessions share one registry.
    pub sub_opened: Counter,
    /// See [`SessionObs::sub_opened`].
    pub sub_closed: Counter,
    /// Rows per emitted delta (added + removed tuple counts).
    pub sub_event_rows: Histogram,
    /// Wall time of the post-commit publish step, nanoseconds (zero-cost
    /// when a session has no subscribers — the timer is not even
    /// started).
    pub publish_ns: Histogram,
    /// Exact tail quantiles of the publish step.
    pub publish_tail_ns: Reservoir,
    /// Whole-replay wall time during recovery, nanoseconds.
    pub replay_ns: Histogram,
    /// Records replayed during recovery.
    pub replay_records: Counter,
    /// Checkpoints taken (manual + automatic).
    pub checkpoints: Counter,
    /// Checkpoints triggered by [`crate::CheckpointPolicy`].
    pub auto_checkpoints: Counter,
    /// Automatic checkpoints that failed (the log keeps growing; the
    /// triggering request itself already succeeded and stays applied).
    pub auto_checkpoint_failures: Counter,
    /// Wall time of checkpoint snapshot-encode + replace, nanoseconds.
    pub checkpoint_ns: Histogram,
    /// Leader-shipped records applied by this follower session
    /// ([`crate::Session::apply_replicated`]).
    pub repl_applied: Counter,
    /// Leader checkpoint images applied ([`crate::Session::apply_reset`]).
    pub repl_resets: Counter,
    /// Wall time of one replicated apply (record or reset), nanoseconds.
    pub repl_apply_ns: Histogram,
    /// Exact tail quantiles of the replicated apply path — the follower
    /// twin of [`SessionObs::update_tail_ns`].
    pub repl_apply_tail_ns: Reservoir,
    /// Enumeration instruments (space build at open and during
    /// recovery's snapshot decode).
    pub enum_obs: EnumObs,
    /// WAL writer instruments (shared with the session's
    /// `wal::WalWriter`).
    pub wal: WalObs,
    /// Distributed-span sink for requests carrying a wire trace context
    /// ("session.dispatch", "wal.append", "repl.apply", "sub.publish").
    pub dtracer: DistTracer,
}

impl SessionObs {
    /// Handles that record nothing.
    pub fn noop() -> SessionObs {
        SessionObs::default()
    }

    /// Register every session instrument on `registry`.
    pub fn new(registry: &Registry) -> SessionObs {
        SessionObs {
            requests: registry.counter("session.requests"),
            accepted: registry.counter("session.accepted"),
            rejected: registry.counter("session.rejected"),
            cache_hits: registry.counter("session.cache.hits"),
            cache_misses: registry.counter("session.cache.misses"),
            cache_remaps: registry.counter("session.cache.remaps"),
            verify_reused: registry.counter("session.verify.reused"),
            register_ns: registry.histogram("session.serve.register_view_ns"),
            read_ns: registry.histogram("session.serve.read_ns"),
            update_ns: registry.histogram("session.serve.update_ns"),
            insert_ns: registry.histogram("session.serve.insert_pool_tuple_ns"),
            remove_ns: registry.histogram("session.serve.remove_pool_tuple_ns"),
            undo_ns: registry.histogram("session.serve.undo_ns"),
            stats_ns: registry.histogram("session.serve.stats_ns"),
            subscribe_ns: registry.histogram("session.serve.subscribe_ns"),
            unsubscribe_ns: registry.histogram("session.serve.unsubscribe_ns"),
            update_tail_ns: registry.reservoir("session.serve.update_tail_ns"),
            read_tail_ns: registry.reservoir("session.serve.read_tail_ns"),
            sub_events: registry.counter("session.sub.events"),
            sub_terminated: registry.counter("session.sub.terminated"),
            sub_opened: registry.counter("session.sub.opened"),
            sub_closed: registry.counter("session.sub.closed"),
            sub_event_rows: registry.histogram("session.sub.event_rows"),
            publish_ns: registry.histogram("session.sub.publish_ns"),
            publish_tail_ns: registry.reservoir("session.sub.publish_tail_ns"),
            replay_ns: registry.histogram("wal.replay_ns"),
            replay_records: registry.counter("wal.replay.records"),
            checkpoints: registry.counter("session.checkpoints"),
            auto_checkpoints: registry.counter("session.checkpoints.auto"),
            auto_checkpoint_failures: registry.counter("session.checkpoints.auto_failures"),
            checkpoint_ns: registry.histogram("session.checkpoint_ns"),
            repl_applied: registry.counter("repl.records_applied"),
            repl_resets: registry.counter("repl.resets"),
            repl_apply_ns: registry.histogram("repl.apply_ns"),
            repl_apply_tail_ns: registry.reservoir("repl.apply_tail_ns"),
            enum_obs: EnumObs::new(registry),
            wal: WalObs::new(registry),
            dtracer: registry.dtracer(),
        }
    }

    /// [`SessionObs::variant_index`] of [`crate::SessionRequest::Update`]
    /// — the variant whose latency also feeds
    /// [`SessionObs::update_tail_ns`].
    pub const UPDATE_VARIANT: usize = 2;

    /// [`SessionObs::variant_index`] of [`crate::SessionRequest::Read`] —
    /// the variant whose latency also feeds
    /// [`SessionObs::read_tail_ns`].
    pub const READ_VARIANT: usize = 1;

    /// The latency-histogram index for one request variant.  Split from
    /// [`SessionObs::variant_hist_at`] so `serve` can pick the histogram
    /// before the request is moved into its handler and find it again
    /// after — two integer matches instead of string comparisons on a
    /// path that runs on every request.
    pub fn variant_index(req: &crate::SessionRequest) -> usize {
        match req {
            crate::SessionRequest::RegisterView { .. } => 0,
            crate::SessionRequest::Read { .. } => 1,
            crate::SessionRequest::Update { .. } => 2,
            crate::SessionRequest::InsertPoolTuple { .. } => 3,
            crate::SessionRequest::RemovePoolTuple { .. } => 4,
            crate::SessionRequest::Undo => 5,
            crate::SessionRequest::Stats => 6,
            crate::SessionRequest::Subscribe { .. } => 7,
            crate::SessionRequest::Unsubscribe { .. } => 8,
        }
    }

    /// The latency histogram at a [`SessionObs::variant_index`].
    pub fn variant_hist_at(&self, index: usize) -> &Histogram {
        match index {
            0 => &self.register_ns,
            1 => &self.read_ns,
            2 => &self.update_ns,
            3 => &self.insert_ns,
            4 => &self.remove_ns,
            5 => &self.undo_ns,
            6 => &self.stats_ns,
            7 => &self.subscribe_ns,
            _ => &self.unsubscribe_ns,
        }
    }
}

/// Instruments threaded into the `wal::WalWriter`.
#[derive(Clone, Default)]
pub struct WalObs {
    /// Store-append wall time per record, nanoseconds.
    pub append_ns: Histogram,
    /// fsync wall time, nanoseconds (per-record syncs and group-commit
    /// flushes alike).
    pub fsync_ns: Histogram,
    /// Bytes appended to the log.
    pub appended_bytes: Counter,
    /// Records covered by each group-commit flush (the flush sizes the
    /// batch dispatcher achieves).
    pub flush_records: Histogram,
    /// Records appended since the last snapshot record — what
    /// [`crate::CheckpointPolicy::max_records`] watches.
    pub records_since_checkpoint: Gauge,
    /// Current log length in bytes — what
    /// [`crate::CheckpointPolicy::max_log_bytes`] watches.
    pub log_bytes: Gauge,
}

impl WalObs {
    /// Handles that record nothing.
    pub fn noop() -> WalObs {
        WalObs::default()
    }

    /// Register every WAL instrument on `registry`.
    pub fn new(registry: &Registry) -> WalObs {
        WalObs {
            append_ns: registry.histogram("wal.append_ns"),
            fsync_ns: registry.histogram("wal.fsync_ns"),
            appended_bytes: registry.counter("wal.appended_bytes"),
            flush_records: registry.histogram("wal.flush_records"),
            records_since_checkpoint: registry.gauge("wal.records_since_checkpoint"),
            log_bytes: registry.gauge("wal.log_bytes"),
        }
    }
}
