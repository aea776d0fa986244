//! A multi-session front end: named [`Session`]s and deterministic
//! batch dispatch.
//!
//! Sessions are fully independent (each owns its schema, pools, space,
//! and views), so a batch is cut into per-session queues and each queue
//! is served on the dispatcher thread, in session-name order; shards are
//! the parallelism (the sharded server's dispatchers, each owning one
//! [`Service::split`] part), never a per-batch worker pool.  Determinism contract: per-session request
//! order is the batch order, and session handling is sequential within a
//! session, so the result vector is **byte-identical for every thread
//! and shard count**.
//!
//! Durability is per-session too: [`Service::open_dir`] recovers every
//! `*.wal` log in a directory, and a log that cannot be recovered
//! degrades *that session only* — the rest of the service comes up, and
//! the failure is reported next to the successes.

use crate::store::FsStore;
use crate::wal::{RecoverError, RecoveryReport};
use crate::{Session, SessionConfig, SessionError, SessionRequest, SessionResponse, SyncPolicy};
use compview_core::ComponentFamily;
use compview_logic::Schema;
use compview_obs::{Histogram, Registry, TraceCtx};
use compview_relation::{Instance, Tuple};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Session-management errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No session registered under this name.
    UnknownSession(String),
    /// A session with this name already exists.
    DuplicateSession(String),
    /// A session-level failure while managing the session (opening a
    /// durable session, checkpointing its log).
    Session(SessionError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(n) => write!(f, "unknown session {n:?}"),
            ServiceError::DuplicateSession(n) => write!(f, "session {n:?} already open"),
            ServiceError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why one request of a batch failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DispatchError {
    /// The request named a session the service does not have.
    UnknownSession(String),
    /// The session rejected the request.
    Session(SessionError),
    /// A read-your-writes `ReadAt` could not be satisfied within its
    /// deadline: this replica has not caught up to the requested
    /// position.  `gen`/`seq` report where the replica actually was when
    /// it gave up (its WAL generation and applied sequence number).
    Lagging {
        /// The generation the client's token demanded.
        want_gen: u64,
        /// The sequence number the client's token demanded.
        want_seq: u64,
        /// This replica's WAL generation at refusal time.
        gen: u64,
        /// This replica's applied sequence number at refusal time.
        seq: u64,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::UnknownSession(n) => write!(f, "unknown session {n:?}"),
            DispatchError::Session(e) => write!(f, "{e}"),
            DispatchError::Lagging {
                want_gen,
                want_seq,
                gen,
                seq,
            } => write!(
                f,
                "replica lagging: want gen {want_gen} seq {want_seq}, at gen {gen} seq {seq}"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// The dispatcher shard a session routes to when dispatch is partitioned
/// `shards` ways: FNV-1a 64 of the session name, reduced mod `shards`.
///
/// The hash is part of the sharding contract: it is stable across runs,
/// platforms, and shard-count changes (only the final reduction moves),
/// so a session's WAL, once written by shard `i`, is found by the same
/// arithmetic on the next boot.  `shards == 0` is treated as 1.
pub fn shard_of(session: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in session.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// A set of named sessions over one component-family type.
///
/// Every service carries a [`Registry`] (live by default; swap in
/// [`Registry::disabled`] via [`Service::with_registry`] to strip the
/// instrumentation to no-ops).  Sessions attached to the service are
/// bound to it, so one snapshot aggregates the whole service.
pub struct Service<F: ComponentFamily + Send + Sync> {
    sessions: BTreeMap<String, Session<F>>,
    registry: Registry,
    /// Wall time of each [`Service::dispatch`] call, nanoseconds.
    dispatch_ns: Histogram,
    /// Requests per dispatched batch.
    batch_requests: Histogram,
}

impl<F: ComponentFamily + Send + Sync> Default for Service<F> {
    fn default() -> Service<F> {
        Service::new()
    }
}

impl<F: ComponentFamily + Send + Sync> Service<F> {
    /// An empty service with a live metrics registry.
    pub fn new() -> Service<F> {
        Service::with_registry(Registry::new())
    }

    /// An empty service observing itself on `registry`.
    pub fn with_registry(registry: Registry) -> Service<F> {
        Service {
            sessions: BTreeMap::new(),
            dispatch_ns: registry.histogram("service.dispatch_ns"),
            batch_requests: registry.histogram("service.batch_requests"),
            registry,
        }
    }

    /// The service's metrics registry (snapshot it for the `Metrics`
    /// wire request or [`Registry::render_text`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Attach an opened session under `name`, binding its instruments to
    /// the service registry.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateSession`] when the name is taken (the
    /// offered session is dropped).
    pub fn add_session<S: Into<String>>(
        &mut self,
        name: S,
        mut session: Session<F>,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        if self.sessions.contains_key(&name) {
            return Err(ServiceError::DuplicateSession(name));
        }
        session.bind_registry(&self.registry);
        self.sessions.insert(name, session);
        Ok(())
    }

    /// Close and return a session.
    pub fn remove_session(&mut self, name: &str) -> Result<Session<F>, ServiceError> {
        self.sessions
            .remove(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_owned()))
    }

    /// Borrow a session.
    pub fn session(&self, name: &str) -> Option<&Session<F>> {
        self.sessions.get(name)
    }

    /// Borrow a session mutably (for direct `serve` calls).
    pub fn session_mut(&mut self, name: &str) -> Option<&mut Session<F>> {
        self.sessions.get_mut(name)
    }

    /// Open session names, in order.
    pub fn session_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.sessions.keys().map(String::as_str)
    }

    /// Open (creating if needed) a durable session logging to
    /// `dir/<name>.wal`.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateSession`] when the name is taken;
    /// [`ServiceError::Session`] when the session cannot be opened or its
    /// initial snapshot cannot be written.
    #[allow(clippy::too_many_arguments)] // mirrors Session::open_durable + (dir, name)
    pub fn create_durable_session<P: AsRef<Path>>(
        &mut self,
        dir: P,
        name: &str,
        family: F,
        schema: Schema,
        pools: &BTreeMap<String, Vec<Tuple>>,
        base: Instance,
        config: SessionConfig,
        policy: SyncPolicy,
    ) -> Result<(), ServiceError> {
        if self.sessions.contains_key(name) {
            return Err(ServiceError::DuplicateSession(name.to_owned()));
        }
        let store = FsStore::open(dir.as_ref().join(format!("{name}.wal"))).map_err(|e| {
            ServiceError::Session(SessionError::Durability {
                detail: e.to_string(),
            })
        })?;
        let session = Session::open_durable_observed(
            family,
            schema,
            pools,
            base,
            config,
            Box::new(store),
            policy,
            &self.registry,
        )
        .map_err(ServiceError::Session)?;
        self.sessions.insert(name.to_owned(), session);
        Ok(())
    }

    /// Recover every `*.wal` log in `dir` into a service, one session per
    /// log (the file stem is the session name), calling `mk(name)` for
    /// each to supply its component family and schema.
    ///
    /// Recovery is **per session**: a log that cannot be recovered is
    /// skipped — the session simply does not come up — and its error is
    /// reported in the returned map alongside the [`RecoveryReport`]s of
    /// the sessions that did.  One corrupt log never takes down its
    /// neighbours.
    ///
    /// # Errors
    /// Only directory-level I/O fails the whole call (the directory is
    /// unreadable); everything per-log is captured in the report map.
    #[allow(clippy::type_complexity)]
    pub fn open_dir<P: AsRef<Path>>(
        dir: P,
        policy: SyncPolicy,
        mk: impl FnMut(&str) -> (F, Schema),
    ) -> io::Result<(
        Service<F>,
        BTreeMap<String, Result<RecoveryReport, RecoverError>>,
    )> {
        Service::open_dir_observed(dir, policy, mk, Registry::new())
    }

    /// [`Service::open_dir`] with a caller-supplied [`Registry`] — every
    /// recovery (replay timings included) and the resulting service
    /// report to it.
    ///
    /// # Errors
    /// As [`Service::open_dir`].
    #[allow(clippy::type_complexity)]
    pub fn open_dir_observed<P: AsRef<Path>>(
        dir: P,
        policy: SyncPolicy,
        mut mk: impl FnMut(&str) -> (F, Schema),
        registry: Registry,
    ) -> io::Result<(
        Service<F>,
        BTreeMap<String, Result<RecoveryReport, RecoverError>>,
    )> {
        let mut service = Service::with_registry(registry);
        let mut reports = BTreeMap::new();
        // Sort for a deterministic recovery order.
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        paths.sort();
        for path in paths {
            let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(str::to_owned) else {
                // A log we cannot even name is still a log we failed to
                // recover: report it instead of silently skipping it.
                let lossy = path.to_string_lossy().into_owned();
                reports.insert(lossy.clone(), Err(RecoverError::BadName { detail: lossy }));
                continue;
            };
            let (family, schema) = mk(&name);
            let outcome = match FsStore::open(&path) {
                Ok(store) => Session::recover_observed(
                    family,
                    schema,
                    Box::new(store),
                    policy,
                    &service.registry,
                ),
                Err(e) => Err(RecoverError::Io(e.to_string())),
            };
            match outcome {
                Ok((session, report)) => {
                    service.sessions.insert(name.clone(), session);
                    reports.insert(name, Ok(report));
                }
                Err(e) => {
                    reports.insert(name, Err(e));
                }
            }
        }
        Ok((service, reports))
    }

    /// Checkpoint one session's log (see [`Session::checkpoint`]).
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`]; [`ServiceError::Session`] when
    /// the session has no log or the snapshot write fails.
    pub fn checkpoint(&mut self, name: &str) -> Result<(), ServiceError> {
        let session = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_owned()))?;
        session.checkpoint().map_err(ServiceError::Session)
    }

    /// Serve one request against one session.
    pub fn serve(
        &mut self,
        session: &str,
        req: SessionRequest,
    ) -> Result<SessionResponse, DispatchError> {
        let s = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| DispatchError::UnknownSession(session.to_owned()))?;
        s.serve(req).map_err(DispatchError::Session)
    }

    /// Dispatch a batch of `(session, request)` pairs on the calling
    /// thread.  Results come back in batch order; each touched session
    /// serves its own requests in batch order, one session after another
    /// in session-name order.  Parallelism lives a layer up, in the
    /// sharded server: each shard's dispatcher thread calls this on its
    /// own [`Service::split`] part.
    ///
    /// Durable sessions run their queue under **group commit**: the
    /// per-record fsyncs their [`SyncPolicy`] would issue are deferred
    /// and a single fsync covers the whole queue once it drains, so a
    /// batch costs one fsync per *touched session* instead of one per
    /// request.  Acknowledgement stays honest: if that final fsync
    /// fails, every durable request of the queue that reported `Ok` is
    /// turned into [`SessionError::Durability`], because none of the
    /// queue's records is known to have reached disk.
    pub fn dispatch(
        &mut self,
        batch: Vec<(String, SessionRequest)>,
    ) -> Vec<Result<SessionResponse, DispatchError>> {
        self.dispatch_traced(
            batch
                .into_iter()
                .map(|(name, req)| (name, req, None))
                .collect(),
        )
    }

    /// [`Service::dispatch`] with an optional distributed-trace context
    /// per request: a `Some` context routes that request through
    /// [`Session::serve_traced`], and the group-commit fsync span of a
    /// touched session parents under the first traced request of its
    /// queue (the one that opened the window).  Requests with `None`
    /// take exactly the untraced path, so results — and WAL bytes — are
    /// byte-identical to [`Service::dispatch`] for an all-`None` batch.
    pub fn dispatch_traced(
        &mut self,
        batch: Vec<(String, SessionRequest, Option<TraceCtx>)>,
    ) -> Vec<Result<SessionResponse, DispatchError>> {
        let timer = self.dispatch_ns.start();
        self.batch_requests.record(batch.len() as u64);
        let mut out: Vec<Option<Result<SessionResponse, DispatchError>>> =
            batch.iter().map(|_| None).collect();
        // Per-session queues, preserving batch order.
        type Queue = Vec<(usize, SessionRequest, Option<TraceCtx>)>;
        let mut queues: BTreeMap<String, Queue> = BTreeMap::new();
        for (pos, (name, req, ctx)) in batch.into_iter().enumerate() {
            if self.sessions.contains_key(&name) {
                queues.entry(name).or_default().push((pos, req, ctx));
            } else {
                out[pos] = Some(Err(DispatchError::UnknownSession(name)));
            }
        }
        for (name, queue) in queues {
            let session = self.sessions.get_mut(&name).expect("queued above");
            let fsync_ctx = queue.iter().find_map(|(_, _, ctx)| *ctx);
            // Batch positions of the durable requests answered `Ok`.
            let mut acked: Vec<usize> = Vec::new();
            session.set_deferred_sync(true);
            for (pos, req, ctx) in queue {
                let durable = req.is_durable();
                let answer = match ctx {
                    Some(c) => session.serve_traced(req, c),
                    None => session.serve(req),
                };
                if durable && answer.is_ok() {
                    acked.push(pos);
                }
                out[pos] = Some(answer.map_err(DispatchError::Session));
            }
            session.set_deferred_sync(false);
            if let Err(e) = session.flush_wal_traced(fsync_ctx) {
                // The group fsync failed: nothing appended during this
                // queue is known durable, so no durable request may stay
                // acknowledged.
                for pos in acked {
                    out[pos] = Some(Err(DispatchError::Session(e.clone())));
                }
            }
        }
        let answers = out
            .into_iter()
            .map(|slot| slot.expect("every batch position answered"))
            .collect();
        self.dispatch_ns.stop(timer);
        answers
    }

    /// Drain every session's committed [`crate::DeltaEvent`]s, tagged
    /// with the session name, in **session-name order** (and commit
    /// order within a session).  Sessions are independent and each
    /// subscription's events come from exactly one session, so this
    /// order is deterministic for a deterministic request stream — the
    /// same contract at any thread count.  Each session lives on one
    /// [`Service::split`] part, so a shard's drain keeps its sessions'
    /// commit order at any shard count.
    pub fn drain_events(&mut self) -> Vec<(String, crate::DeltaEvent)> {
        let mut out = Vec::new();
        for (name, session) in self.sessions.iter_mut() {
            if session.has_events() {
                for event in session.take_events() {
                    out.push((name.clone(), event));
                }
            }
        }
        out
    }

    /// Partition the service into `shards` independently owned services,
    /// routing each session to [`shard_of`]`(name, shards)`.
    ///
    /// Shard 0 keeps this service's registry — with every instrument
    /// name ever registered on it — so `split(1)` is an identity and the
    /// union of the shard registries' name sets equals the unsharded
    /// set.  Sessions landing on other shards are rebound to that
    /// shard's fresh registry, so concurrent dispatchers never contend
    /// on one another's counter cache lines.  [`Service::merge`] is the
    /// inverse (up to registry aggregation).
    pub fn split(mut self, shards: usize) -> Vec<Service<F>> {
        if shards <= 1 {
            return vec![self];
        }
        let mut parts: Vec<Service<F>> = Vec::with_capacity(shards);
        parts.push(Service::with_registry(self.registry.clone()));
        for _ in 1..shards {
            parts.push(Service::new());
        }
        for (name, mut session) in std::mem::take(&mut self.sessions) {
            let i = shard_of(&name, shards);
            if i != 0 {
                session.bind_registry(parts[i].registry());
            }
            parts[i].sessions.insert(name, session);
        }
        parts
    }

    /// Fold shard services back into one: sessions move into the first
    /// shard's service (rebound to its registry) and every other shard's
    /// metric values are [absorbed](Registry::absorb) into it — counters
    /// add, gauges keep the maximum, histogram buckets add, reservoir
    /// samples re-enter the sample.  With `parts` from
    /// [`Service::split`], the merged registry is the original one,
    /// holding service-wide aggregates again.
    ///
    /// # Panics
    /// When two shards host a session of the same name (impossible for
    /// `parts` produced by [`Service::split`]).
    pub fn merge(parts: Vec<Service<F>>) -> Service<F> {
        let mut it = parts.into_iter();
        let Some(mut target) = it.next() else {
            return Service::new();
        };
        for part in it {
            target.registry.absorb(&part.registry.snapshot());
            for (name, mut session) in part.sessions {
                session.bind_registry(&target.registry);
                let prev = target.sessions.insert(name.clone(), session);
                assert!(prev.is_none(), "shards must not share session {name:?}");
            }
        }
        target
    }
}
