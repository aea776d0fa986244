//! Fault-tolerant read replicas: WAL shipping from a leader
//! [`Server`] to follower processes.
//!
//! A [`Replica`] owns a complete follower: it first **syncs** every
//! durable session against the leader (connecting, sending `Replicate`
//! requests, and applying the shipped catch-up through the same replay
//! path recovery uses), then binds its own server for local reads and
//! keeps **tailing** the leader's live WAL shipments on a background
//! thread.  Followers refuse durable writes with a typed
//! `NotLeader { leader_addr }` rejection; reads, stats, metrics, and
//! subscriptions are served from local state, which is byte-identical to
//! the leader's at every applied sequence number — the shipped frames
//! *are* the leader's WAL bytes, mirrored verbatim into the follower's
//! log before being replayed.
//!
//! # Robustness
//!
//! The tail loop assumes the link will fail and the leader will restart:
//!
//! - Every transport error, read timeout (missed heartbeats), corrupt or
//!   gapped record, and leader-sent `W_END` tears the link down; the
//!   loop reconnects under bounded exponential backoff with
//!   deterministic jitter and re-requests each session from
//!   `last_applied + 1` — the position reported back by the apply path
//!   itself, never the loop's own bookkeeping — so a torn suffix is
//!   never applied and nothing durable is ever skipped.
//! - A follower that lags (or is cut off entirely) keeps serving reads
//!   from its last applied state; `repl.lag_records` / `repl.lag_bytes`
//!   and `repl.reconnects` make the divergence observable.
//! - A leader refusal (split brain: the follower holds records the
//!   leader never wrote) is **fatal**, not retried — it surfaces through
//!   [`Replica::fault`] instead of silently forking history.
//!
//! # Apply batches
//!
//! The leader link is read through a fixed 16-KiB buffer, and every WAL
//! frame already whole in it is applied as one batch: the batch ends at
//! an `End` or at the first other frame (an ack, a listing, a
//! heartbeat), which is processed next, in stream order.  In the tail
//! the follower's server splits a batch by owning shard; each shard
//! applies its share in order and stops at its first refused record.
//! Every report of the batch is folded into the positions before the
//! loop acts on a refusal, an `End`, or the end of the initial sync, so
//! the positions stay the apply path's own: no applied record is
//! re-requested, and nothing past a refusal is applied.
//! `repl.records_applied` ÷ `repl.apply_batches` is the mean batch.
//!
//! # Topology
//!
//! Replication composes into a tree.  One leader streams any number of
//! followers concurrently (fan-out), and a follower is itself a valid
//! upstream (chaining): it re-ships the exact bytes it mirrors, so a
//! downstream tailing a mid-chain node converges to the same
//! byte-identical state as one tailing the root.  At connect time a
//! follower exchanges a `Sessions` listing with its upstream, which
//! carries two things: the upstream's own root-leader hint — so
//! `NotLeader` rejections anywhere in the chain name the *root*, not the
//! next hop — and the upstream's durable session names.  With a
//! [`Mirror`] configured ([`Replica::start_with_mirror`]), sessions the
//! follower has never seen — including ones created on the leader
//! *after* the follower started — are opened locally from the mirror
//! spec, adopted into the running server, and tailed like any other; the
//! listing is re-polled on a [`ReplicaOptions::discover_interval`]
//! cadence while streaming.
//!
//! # Failover
//!
//! [`Replica::promote`] is explicit: it stops the tail loop, waits for
//! in-flight applies to land, fsyncs every session's log, flips the
//! sessions writable, clears the root-leader hint, and hands back the
//! inner [`Server`] — now a leader.  Nothing implicit ever promotes a
//! follower.

use crate::proto::{
    decode_replicate_ack_payload, decode_sessions_reply_payload, decode_wal_frame_payload,
    encode_replicate_payload, encode_sessions_payload, expect_handshake, frame_buffered,
    is_heartbeat_payload, is_replicate_ack_payload, is_sessions_reply_payload, is_wal_payload,
    read_frame, send_handshake, write_frame, ProtoError, ReplicateAck, SessionsReply, WalFrame,
    READ_BUFFER,
};
use crate::server::{apply_batch, ApplyBatch, ApplyKind, ApplyReport, ServeOptions, Server};
use compview_core::ComponentFamily;
use compview_logic::Schema;
use compview_obs::{Counter, Gauge, Registry, TraceCtx};
use compview_relation::{Instance, Tuple};
use compview_session::{FsStore, LogStore, Service, Session, SessionConfig, SyncPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Replica::start`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Options for the follower's own read server.
    pub serve: ServeOptions,
    /// First reconnect delay; doubles per consecutive failure.
    pub retry_base: Duration,
    /// Reconnect delay ceiling (before ±50% jitter).
    pub retry_max: Duration,
    /// How long the leader link may stay silent before it is presumed
    /// dead.  Must comfortably exceed the leader's
    /// [`ServeOptions::heartbeat_interval`], or a healthy idle link will
    /// be torn down and redialed on every timeout.
    pub read_timeout: Duration,
    /// Transport failures tolerated during the initial sync before
    /// [`Replica::start`] gives up with [`ReplicaError::Connect`].
    pub connect_attempts: u32,
    /// Seed for the backoff jitter (all randomness in this workspace is
    /// seeded; same seed, same retry schedule).
    pub seed: u64,
    /// How often the tail loop re-polls the upstream's `Sessions`
    /// listing while streaming, so sessions created on the leader after
    /// this follower started are discovered and mirrored without a
    /// reconnect.  Only meaningful with a [`Mirror`] configured.
    pub discover_interval: Duration,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions {
            serve: ServeOptions::default(),
            retry_base: Duration::from_millis(50),
            retry_max: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            connect_attempts: 10,
            seed: 0,
            discover_interval: Duration::from_millis(500),
        }
    }
}

/// How a follower opens local mirrors for sessions it discovers on its
/// upstream but does not hold itself (see the module docs).
///
/// The [`MirrorSpec`] the factory returns must describe the session *as
/// the leader originally created it* — same family, schema, pools, base,
/// and config.  Durable identity is content-derived, so an identical
/// spec yields an identical generation and the leader answers the first
/// `Replicate` with a pure tail; a differing spec merely costs a full
/// reset shipment, after which the mirrored log is byte-identical either
/// way.
pub struct Mirror<F> {
    /// Directory for the mirrored write-ahead logs (`<name>.wal`).  Must
    /// not be shared with the leader or another follower.
    pub dir: PathBuf,
    /// Sync policy for the mirrored logs.
    pub policy: SyncPolicy,
    /// Per-session spec factory; `None` excludes the session from
    /// mirroring (it keeps being skipped, not an error).
    #[allow(clippy::type_complexity)]
    pub spec: Arc<dyn Fn(&str) -> Option<MirrorSpec<F>> + Send + Sync>,
}

impl<F> Clone for Mirror<F> {
    fn clone(&self) -> Mirror<F> {
        Mirror {
            dir: self.dir.clone(),
            policy: self.policy,
            spec: Arc::clone(&self.spec),
        }
    }
}

/// Everything needed to open one mirrored session — the same arguments
/// the leader's `create_durable_session` took.
pub struct MirrorSpec<F> {
    /// The component family.
    pub family: F,
    /// The schema.
    pub schema: Schema,
    /// The value pools.
    pub pools: BTreeMap<String, Vec<Tuple>>,
    /// The base instance.
    pub base: Instance,
    /// The session config.
    pub config: SessionConfig,
}

/// Open (or re-open) the local mirror for a discovered session: a fresh
/// store goes through the durable-create path (deterministic identity),
/// a non-empty one through recovery — a follower restarting with mirrors
/// on disk resumes from its applied prefix instead of re-shipping
/// everything.
fn open_mirror_session<F: ComponentFamily + Sync>(
    mirror: &Mirror<F>,
    name: &str,
) -> Result<Option<Session<F>>, String> {
    let Some(spec) = (mirror.spec)(name) else {
        return Ok(None);
    };
    let path = mirror.dir.join(format!("{name}.wal"));
    let mut store = FsStore::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let len = store.len().map_err(|e| e.to_string())?;
    let session = if len == 0 {
        Session::open_durable_observed(
            spec.family,
            spec.schema,
            &spec.pools,
            spec.base,
            spec.config,
            Box::new(store),
            mirror.policy,
            &Registry::disabled(),
        )
        .map_err(|e| e.to_string())?
    } else {
        Session::recover_observed(
            spec.family,
            spec.schema,
            Box::new(store),
            mirror.policy,
            &Registry::disabled(),
        )
        .map(|(s, _)| s)
        .map_err(|e| e.to_string())?
    };
    Ok(Some(session))
}

/// Why a [`Replica`] could not start, promote, or keep streaming.
#[derive(Debug)]
pub enum ReplicaError {
    /// The leader stayed unreachable through every allowed attempt.
    Connect {
        /// The last transport failure.
        detail: String,
    },
    /// The leader refused to stream a session (unknown session, no log,
    /// or the follower is ahead — split brain).
    Refused {
        /// The refused session.
        session: String,
        /// The leader's reason.
        detail: String,
    },
    /// The follower's own server could not bind.
    Bind {
        /// The bind failure.
        detail: String,
    },
    /// Promotion failed (a session's log could not be fsynced, or the
    /// server was torn down underneath the replica).
    Promote {
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Connect { detail } => write!(f, "cannot reach leader: {detail}"),
            ReplicaError::Refused { session, detail } => {
                write!(f, "leader refused to replicate {session:?}: {detail}")
            }
            ReplicaError::Bind { detail } => write!(f, "cannot bind replica server: {detail}"),
            ReplicaError::Promote { detail } => write!(f, "promotion failed: {detail}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Follower-side instruments, registered on the service registry before
/// the server takes it over.
#[derive(Clone)]
struct ReplObs {
    /// Known catch-up distance, in records, summed over sessions (from
    /// the leader's ack positions; 0 once caught up — live shipments are
    /// applied as they arrive).
    lag_records: Gauge,
    /// Bytes of the shipments currently received but not yet applied
    /// (pulses per apply batch; a sustained value means the apply path
    /// is the bottleneck).
    lag_bytes: Gauge,
    /// Milliseconds since the last shipment was applied, refreshed on
    /// every upstream frame (heartbeats included).  `repl.lag_records`
    /// answers "how far behind"; this answers "how *stale*" — a link can
    /// be zero records behind and still dead.
    lag_age_ms: Gauge,
    /// Times the leader link was torn down and redialed.
    reconnects: Counter,
    /// 1 while the leader link is up.
    connected: Gauge,
    /// Shipped records refused by the apply path (gap, CRC mismatch,
    /// undecodable payload) — each costs the link and forces a re-sync
    /// from the last durably applied record.
    bad_records: Counter,
    /// Apply batches handed to the apply path, in the initial sync and
    /// the tail alike: each is every WAL frame that was already whole in
    /// the link's read buffer.  `repl.records_applied` ÷ this is the mean
    /// batch.
    apply_batches: Counter,
    /// Sessions discovered on the upstream and opened locally from the
    /// [`Mirror`] spec.
    mirrored: Counter,
    /// Discovered sessions whose local mirror could not be opened or
    /// adopted (bad spec, unwritable dir, name collision) — skipped, not
    /// fatal, but worth alerting on.
    mirror_failures: Counter,
}

impl ReplObs {
    fn new(registry: &Registry) -> ReplObs {
        ReplObs {
            lag_records: registry.gauge("repl.lag_records"),
            lag_bytes: registry.gauge("repl.lag_bytes"),
            lag_age_ms: registry.gauge("repl.lag_age_ms"),
            reconnects: registry.counter("repl.reconnects"),
            connected: registry.gauge("repl.connected"),
            bad_records: registry.counter("repl.bad_records"),
            apply_batches: registry.counter("repl.apply_batches"),
            mirrored: registry.counter("repl.sessions_mirrored"),
            mirror_failures: registry.counter("repl.mirror_failures"),
        }
    }
}

/// One session's authoritative replication position, as reported by the
/// apply path.
struct Position {
    /// The generation of the local log.
    gen: u64,
    /// The last sequence number durably applied locally.
    applied: u64,
    /// The leader's last known sequence number (from the stream ack).
    target: u64,
    /// Whether this connection's ack has arrived.
    acked: bool,
    /// Whether the initial sync target has been reached.
    synced: bool,
}

impl Position {
    /// What to ask the leader for: the next record after the applied
    /// prefix, or everything (`0, 0`) when there is no usable log.
    fn request(&self) -> (u64, u64) {
        if self.gen == 0 {
            (0, 0)
        } else {
            (self.applied + 1, self.gen)
        }
    }
}

fn total_lag(positions: &BTreeMap<String, Position>) -> u64 {
    positions
        .values()
        .map(|p| p.target.saturating_sub(p.applied))
        .sum()
}

/// The raw leader connection: handshake, `Replicate` requests, and the
/// mixed stream of acks, WAL shipments, and heartbeats coming back, read
/// through a buffer so a burst of shipments costs one `read`.
struct LeaderLink {
    stream: BufReader<TcpStream>,
}

impl LeaderLink {
    fn connect(addr: &str, read_timeout: Duration) -> Result<LeaderLink, ProtoError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(read_timeout))?;
        send_handshake(&mut stream)?;
        expect_handshake(&mut stream)?;
        Ok(LeaderLink {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
        })
    }

    fn request(&mut self, session: &str, from_seq: u64, gen: u64) -> Result<(), ProtoError> {
        write_frame(
            self.stream.get_mut(),
            &encode_replicate_payload(session, from_seq, gen),
        )
    }

    fn read_payload(&mut self) -> Result<Vec<u8>, ProtoError> {
        read_frame(&mut self.stream)?.ok_or_else(|| ProtoError::ConnectionLost {
            detail: "leader closed the stream".to_owned(),
        })
    }

    /// Ask for the upstream's `Sessions` listing without waiting for the
    /// reply (it arrives in the mixed stream, routed by payload kind).
    fn request_sessions(&mut self) -> Result<(), ProtoError> {
        write_frame(self.stream.get_mut(), &encode_sessions_payload())
    }

    /// Connect-time `Sessions` exchange: ask and block for the listing.
    /// Valid only before any `Replicate` is outstanding — the listing is
    /// then the first substantive frame back (heartbeats tolerated).
    fn learn_sessions(&mut self) -> Result<SessionsReply, ProtoError> {
        self.request_sessions()?;
        loop {
            let payload = self.read_payload()?;
            if is_heartbeat_payload(&payload) {
                continue;
            }
            if is_sessions_reply_payload(&payload) {
                return decode_sessions_reply_payload(&payload).map_err(|e| {
                    ProtoError::ConnectionLost {
                        detail: format!("undecodable sessions reply: {e}"),
                    }
                });
            }
            return Err(ProtoError::ConnectionLost {
                detail: "unexpected frame before the sessions reply".to_owned(),
            });
        }
    }

    /// A handle [`Replica::promote`] can use to cut a blocked read.
    fn shutdown_handle(&self) -> Option<TcpStream> {
        self.stream.get_ref().try_clone().ok()
    }
}

/// Why one streaming pass over a leader connection ended.
enum StreamBreak {
    /// Every session reached its sync target (initial sync only).
    Synced,
    /// The link died, timed out, desynchronised, shipped something
    /// unusable, or the leader ended a stream: reconnect and re-request.
    Lost(String),
    /// The leader refused a session — fatal, never retried.
    Refused { session: String, detail: String },
    /// The stop flag was raised (or the local server is shutting down).
    Stopped,
}

/// Mid-stream session discovery for [`pump_streams`]: re-poll the
/// upstream's listing every `interval`, and for each name the positions
/// map has never seen, `adopt` opens + adopts a local mirror and returns
/// its starting [`Position`] (or `None` to skip).  Newly adopted
/// sessions are requested on the same link, joining the live stream.
struct Discover<'a> {
    adopt: &'a mut dyn FnMut(&str) -> Option<Position>,
    interval: Duration,
}

/// Run one connection's worth of streaming: request every session,
/// route acks by request order, apply shipments as they arrive, and keep
/// the positions authoritative from the apply reports.  Every WAL frame
/// already whole in the link's read buffer joins one apply batch, which
/// ends at an `End` or at the first other frame (processed next, in
/// order); every report of the batch is folded into the positions before
/// a refusal, an `End`, or the sync countdown is acted on.  With
/// `until_synced`, returns [`StreamBreak::Synced`] the moment every
/// session has caught up to its ack's position; otherwise runs until the
/// link breaks or `stop` is raised.  `discover` (tail phase only — never
/// combined with `until_synced`) grows the position map mid-stream.
#[allow(clippy::too_many_arguments)] // internal plumbing for one loop
fn pump_streams(
    link: &mut LeaderLink,
    positions: &mut BTreeMap<String, Position>,
    mut apply: impl FnMut(ApplyBatch) -> Vec<ApplyReport>,
    mut discover: Option<Discover<'_>>,
    obs: &ReplObs,
    stop: &AtomicBool,
    until_synced: bool,
    // Topology feedback (no-ops during the unbound Phase-A sync): any
    // upstream frame arrived / one session's upstream target advanced.
    mut note_frame: impl FnMut(),
    mut note_link: impl FnMut(&str, u64),
) -> StreamBreak {
    debug_assert!(
        !(until_synced && discover.is_some()),
        "discovery would disturb the sync countdown"
    );
    let mut last_poll = Instant::now();
    let mut awaiting_ack: VecDeque<String> = VecDeque::new();
    for (name, pos) in positions.iter_mut() {
        pos.acked = false;
        pos.synced = false;
        let (from_seq, gen) = pos.request();
        if let Err(e) = link.request(name, from_seq, gen) {
            return StreamBreak::Lost(format!("cannot request {name:?}: {e}"));
        }
        awaiting_ack.push_back(name.clone());
    }
    let mut unsynced = positions.len();
    if until_synced && unsynced == 0 {
        return StreamBreak::Synced;
    }
    // When the last shipment was applied on this link — feeds the
    // `repl.lag_age_ms` gauge, refreshed per frame so a quiet-but-alive
    // link reads as aging, not frozen.
    let mut last_applied_at: Option<Instant> = None;
    // A frame read past the end of an apply batch, processed next.
    let mut pending: Option<Vec<u8>> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return StreamBreak::Stopped;
        }
        if let Some(d) = &discover {
            if last_poll.elapsed() >= d.interval {
                last_poll = Instant::now();
                if let Err(e) = link.request_sessions() {
                    return StreamBreak::Lost(format!("cannot poll sessions: {e}"));
                }
            }
        }
        let payload = match pending.take().map_or_else(|| link.read_payload(), Ok) {
            Ok(p) => p,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return StreamBreak::Stopped;
                }
                return StreamBreak::Lost(e.to_string());
            }
        };
        // Frame freshness is noted before the heartbeat fast-path: a
        // heartbeat IS proof of life, and the `Topology` verb's
        // heartbeat age must reset on it.
        note_frame();
        if let Some(t) = last_applied_at {
            obs.lag_age_ms
                .set(u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX));
        }
        if is_heartbeat_payload(&payload) {
            continue;
        }
        if is_wal_payload(&payload) {
            let mut batch: ApplyBatch = Vec::new();
            let mut nbytes = 0;
            // Why the link must drop once the batch is applied.
            let mut broken: Option<String> = None;
            let mut frame = payload;
            loop {
                match decode_wal_frame_payload(&frame) {
                    Ok(WalFrame::Record {
                        session,
                        bytes,
                        trace,
                        ..
                    }) => {
                        nbytes += bytes.len();
                        let ctx = trace.map(|(trace_id, parent_span)| TraceCtx {
                            trace_id,
                            parent_span,
                        });
                        batch.push((session, ApplyKind::Record(bytes, ctx)));
                    }
                    Ok(WalFrame::Reset {
                        session, record0, ..
                    }) => {
                        nbytes += record0.len();
                        batch.push((session, ApplyKind::Reset(record0)));
                    }
                    Ok(WalFrame::End { session, reason }) => {
                        broken = Some(format!("leader ended {session:?}: {reason}"));
                        break;
                    }
                    Err(e) => {
                        broken = Some(format!("undecodable WAL frame: {e}"));
                        break;
                    }
                }
                // Only frames already whole in the buffer join the
                // batch: reading one cannot block.
                if !frame_buffered(link.stream.buffer()) {
                    break;
                }
                match link.read_payload() {
                    Ok(next) if is_wal_payload(&next) => frame = next,
                    Ok(next) => {
                        pending = Some(next);
                        break;
                    }
                    Err(e) => {
                        broken = Some(e.to_string());
                        break;
                    }
                }
            }
            let mut applied: Vec<String> = Vec::new();
            let mut refused: Option<String> = None;
            if !batch.is_empty() {
                obs.lag_bytes.set(nbytes as u64);
                obs.apply_batches.inc();
                let reports = apply(batch);
                obs.lag_bytes.set(0);
                for report in reports {
                    let Some(pos) = positions.get_mut(&report.session) else {
                        // A shipment for a session this replica never
                        // asked about: the stream cannot be trusted.
                        refused.get_or_insert(format!(
                            "shipment for unknown session {:?}",
                            report.session
                        ));
                        continue;
                    };
                    pos.gen = report.gen;
                    pos.applied = report.last_seq;
                    match report.outcome {
                        Ok(_) => {
                            pos.target = pos.target.max(pos.applied);
                            note_link(&report.session, pos.target);
                            applied.push(report.session);
                        }
                        // Gap, CRC mismatch, torn or undecodable record:
                        // never apply a torn suffix — drop the link and
                        // re-request from the durably applied position.
                        Err(e) => {
                            obs.bad_records.inc();
                            refused.get_or_insert(format!(
                                "apply refused for {:?}: {e}",
                                report.session
                            ));
                        }
                    }
                }
                if !applied.is_empty() {
                    last_applied_at = Some(Instant::now());
                    obs.lag_age_ms.set(0);
                }
                obs.lag_records.set(total_lag(positions));
            }
            if let Some(detail) = refused.or(broken) {
                return StreamBreak::Lost(detail);
            }
            if until_synced {
                for session in applied {
                    let pos = positions.get_mut(&session).expect("position just folded");
                    if !pos.synced && pos.acked && pos.applied >= pos.target {
                        pos.synced = true;
                        unsynced -= 1;
                        if unsynced == 0 {
                            return StreamBreak::Synced;
                        }
                    }
                }
            }
        } else if is_replicate_ack_payload(&payload) {
            let ack = match decode_replicate_ack_payload(&payload) {
                Ok(a) => a,
                Err(e) => return StreamBreak::Lost(format!("undecodable ack: {e}")),
            };
            // Acks are solicited: they come back in request order.
            let Some(session) = awaiting_ack.pop_front() else {
                return StreamBreak::Lost("unsolicited replication ack".to_owned());
            };
            match ack {
                ReplicateAck::Refused { detail } => {
                    return StreamBreak::Refused { session, detail };
                }
                ReplicateAck::Streaming { gen, last_seq, .. } => {
                    let pos = positions.get_mut(&session).expect("requested session");
                    pos.acked = true;
                    if gen == pos.gen {
                        pos.target = pos.target.max(last_seq);
                    } else {
                        // The leader is on a different generation: its
                        // sequence numbering restarted at a checkpoint,
                        // so the position carried over from the local
                        // log is meaningless as a target — a stale high
                        // value would keep `applied >= target` forever
                        // false and stall the initial sync.  The ack's
                        // own position is the authoritative goal.
                        pos.target = last_seq;
                    }
                    note_link(&session, pos.target);
                    obs.lag_records.set(total_lag(positions));
                    let pos = positions.get_mut(&session).expect("requested session");
                    // Nothing owed (the logs already match): synced on
                    // the spot.
                    if until_synced && !pos.synced && gen == pos.gen && pos.applied >= pos.target {
                        pos.synced = true;
                        unsynced -= 1;
                        if unsynced == 0 {
                            return StreamBreak::Synced;
                        }
                    }
                }
            }
        } else if is_sessions_reply_payload(&payload) {
            let reply = match decode_sessions_reply_payload(&payload) {
                Ok(r) => r,
                Err(e) => return StreamBreak::Lost(format!("undecodable sessions reply: {e}")),
            };
            if let Some(d) = discover.as_mut() {
                for name in &reply.sessions {
                    if positions.contains_key(name) {
                        continue;
                    }
                    let Some(pos) = (d.adopt)(name) else {
                        continue;
                    };
                    let (from_seq, gen) = pos.request();
                    positions.insert(name.clone(), pos);
                    if let Err(e) = link.request(name, from_seq, gen) {
                        return StreamBreak::Lost(format!("cannot request {name:?}: {e}"));
                    }
                    awaiting_ack.push_back(name.clone());
                }
            }
        } else {
            return StreamBreak::Lost("unexpected frame kind from leader".to_owned());
        }
    }
}

/// Phase-A discovery: open a local mirror for every upstream-listed
/// session the service does not hold, add it to the (still unbound)
/// service, and give it a starting position so the same sync pass
/// catches it up.  Failures skip the session and count on
/// `repl.mirror_failures`.
fn discover_into_service<F: ComponentFamily + Send + Sync>(
    mirror: &Mirror<F>,
    names: &[String],
    service: &mut Service<F>,
    positions: &mut BTreeMap<String, Position>,
    obs: &ReplObs,
) {
    for name in names {
        if positions.contains_key(name) || service.session(name).is_some() {
            continue;
        }
        match open_mirror_session(mirror, name) {
            Ok(None) => {}
            Ok(Some(session)) => {
                let pos = Position {
                    gen: session.wal_gen(),
                    applied: session.wal_last_seq(),
                    target: session.wal_last_seq(),
                    acked: false,
                    synced: false,
                };
                if service.add_session(name.clone(), session).is_ok() {
                    obs.mirrored.inc();
                    positions.insert(name.clone(), pos);
                } else {
                    obs.mirror_failures.inc();
                }
            }
            Err(_) => obs.mirror_failures.inc(),
        }
    }
}

/// The `attempt`-th reconnect delay: bounded exponential backoff with
/// deterministic ±50% jitter, so a fleet of followers redialing a
/// restarted leader does not arrive in lockstep.
fn backoff(rng: &mut StdRng, attempt: u32, base: Duration, max: Duration) -> Duration {
    let exp = base
        .saturating_mul(2u32.saturating_pow(attempt.min(16)))
        .min(max);
    let ns = exp.as_nanos().min(u128::from(u64::MAX / 2)) as u64;
    if ns == 0 {
        return Duration::ZERO;
    }
    // exp/2 plus a uniform draw over a full exp: [exp/2, 3·exp/2], i.e.
    // exp ± 50%.  (Halving the draw instead would squeeze the band to
    // [exp/2, exp] — upward jitter gone, fleet half-synchronised.)
    Duration::from_nanos(ns / 2 + rng.random_range(0..ns + 1))
}

/// Sleep in short slices so a promotion or shutdown is never stuck
/// behind a full backoff window.
fn sleep_with_stop(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while left > Duration::ZERO && !stop.load(Ordering::SeqCst) {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// A running follower: a local read [`Server`] plus the background
/// thread tailing the leader.  See the module docs.
pub struct Replica<F: ComponentFamily + Send + Sync + 'static> {
    server: Arc<Server<F>>,
    stop: Arc<AtomicBool>,
    tail: JoinHandle<()>,
    link: Arc<Mutex<Option<TcpStream>>>,
    fault: Arc<Mutex<Option<String>>>,
    leader: String,
    root: Arc<Mutex<String>>,
}

impl<F: ComponentFamily + Send + Sync + 'static> Replica<F> {
    /// Sync `service` against the leader at `leader_addr`, then bind
    /// `addr` and serve reads while tailing the leader's live shipments.
    ///
    /// Every durable session already open in `service` is replicated
    /// (sessions without a write-ahead log cannot mirror one and are
    /// served as-is).  The sessions are flipped read-only — durable
    /// writes are refused with `NotLeader { leader_addr }` — until
    /// [`Replica::promote`].
    ///
    /// # Errors
    /// [`ReplicaError::Connect`] when the leader stays unreachable
    /// through [`ReplicaOptions::connect_attempts`];
    /// [`ReplicaError::Refused`] when it refuses a session (split
    /// brain); [`ReplicaError::Bind`] when the local server cannot bind.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        leader_addr: &str,
        service: Service<F>,
        options: ReplicaOptions,
    ) -> Result<Replica<F>, ReplicaError> {
        Replica::start_inner(addr, leader_addr, service, options, None)
    }

    /// [`Replica::start`] with a [`Mirror`]: sessions this follower does
    /// not hold — listed by the upstream now or created on the leader
    /// later — are opened locally from the mirror spec, adopted, and
    /// tailed.  See the module docs' *Topology* section.
    ///
    /// # Errors
    /// As [`Replica::start`].
    pub fn start_with_mirror<A: ToSocketAddrs>(
        addr: A,
        leader_addr: &str,
        service: Service<F>,
        options: ReplicaOptions,
        mirror: Mirror<F>,
    ) -> Result<Replica<F>, ReplicaError> {
        Replica::start_inner(addr, leader_addr, service, options, Some(mirror))
    }

    fn start_inner<A: ToSocketAddrs>(
        addr: A,
        leader_addr: &str,
        mut service: Service<F>,
        options: ReplicaOptions,
        mirror: Option<Mirror<F>>,
    ) -> Result<Replica<F>, ReplicaError> {
        let obs = ReplObs::new(service.registry());
        let names: Vec<String> = service
            .session_names()
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .into_iter()
            .filter(|n| service.session(n).is_some_and(|s| s.is_durable()))
            .collect();
        let mut positions: BTreeMap<String, Position> = names
            .iter()
            .map(|n| {
                let s = service.session(n).expect("durable session");
                (
                    n.clone(),
                    Position {
                        gen: s.wal_gen(),
                        applied: s.wal_last_seq(),
                        target: s.wal_last_seq(),
                        acked: false,
                        synced: false,
                    },
                )
            })
            .collect();

        // Phase A: initial sync, synchronous, before serving anything —
        // a read served by this replica is never older than the leader
        // state at start time.
        let never_stop = AtomicBool::new(false);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut attempt: u32 = 0;
        let mut root = leader_addr.to_owned();
        loop {
            let broke = match LeaderLink::connect(leader_addr, options.read_timeout) {
                Err(e) => StreamBreak::Lost(e.to_string()),
                Ok(mut link) => {
                    obs.connected.set(1);
                    let broke = match link.learn_sessions() {
                        Err(e) => StreamBreak::Lost(format!("sessions exchange failed: {e}")),
                        Ok(reply) => {
                            // A chained upstream forwards the *root*
                            // leader's address; an upstream that is
                            // itself the root forwards nothing.
                            root = reply
                                .leader
                                .clone()
                                .unwrap_or_else(|| leader_addr.to_owned());
                            if let Some(m) = &mirror {
                                discover_into_service(
                                    m,
                                    &reply.sessions,
                                    &mut service,
                                    &mut positions,
                                    &obs,
                                );
                            }
                            pump_streams(
                                &mut link,
                                &mut positions,
                                |batch| apply_batch(&mut service, batch),
                                None,
                                &obs,
                                &never_stop,
                                true,
                                || {},
                                |_, _| {},
                            )
                        }
                    };
                    obs.connected.set(0);
                    broke
                }
            };
            match broke {
                StreamBreak::Synced => break,
                StreamBreak::Refused { session, detail } => {
                    return Err(ReplicaError::Refused { session, detail });
                }
                StreamBreak::Lost(detail) => {
                    attempt += 1;
                    if attempt >= options.connect_attempts.max(1) {
                        return Err(ReplicaError::Connect { detail });
                    }
                    obs.reconnects.inc();
                    std::thread::sleep(backoff(
                        &mut rng,
                        attempt - 1,
                        options.retry_base,
                        options.retry_max,
                    ));
                }
                StreamBreak::Stopped => unreachable!("stop is never raised during initial sync"),
            }
        }
        obs.connected.set(1);

        // Phase B: flip read-only (pointing writers at the *root*
        // leader, not the next hop), serve, tail.
        let replicated: Vec<String> = positions.keys().cloned().collect();
        for name in &replicated {
            if let Some(s) = service.session_mut(name) {
                s.set_read_only(Some(root.clone()));
            }
        }
        let server = Arc::new(
            Server::bind_with(addr, service, options.serve.clone()).map_err(|e| {
                ReplicaError::Bind {
                    detail: e.to_string(),
                }
            })?,
        );
        server.set_leader_hint(Some(root.clone()));
        server.topo_set_upstream(Some(leader_addr.to_owned()));
        let root = Arc::new(Mutex::new(root));
        let stop = Arc::new(AtomicBool::new(false));
        let link = Arc::new(Mutex::new(None));
        let fault = Arc::new(Mutex::new(None));
        let tail = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let link = Arc::clone(&link);
            let fault = Arc::clone(&fault);
            let root = Arc::clone(&root);
            let obs = obs.clone();
            let leader = leader_addr.to_owned();
            let options = options.clone();
            crate::server::spawn_named("cv-repl-tail".to_owned(), move || {
                tail_loop(
                    &server, positions, &leader, &stop, &link, &fault, &obs, &options, mirror,
                    &root,
                );
            })
        };
        Ok(Replica {
            server,
            stop,
            tail,
            link,
            fault,
            leader: leader_addr.to_owned(),
            root,
        })
    }

    /// The address the follower is serving reads on.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The upstream address this replica tails — in a chain, the next
    /// hop, not necessarily the root.
    pub fn leader_addr(&self) -> &str {
        &self.leader
    }

    /// The *root* leader's address, as forwarded down the chain by the
    /// upstream's `Sessions` exchange (what `NotLeader` rejections point
    /// writers at).  Equals [`Replica::leader_addr`] when the upstream
    /// is itself the root; re-learned on every tail reconnect.
    pub fn root_addr(&self) -> String {
        self.root.lock().expect("root").clone()
    }

    /// Why the tail loop stopped for good, if it has (a leader refusal —
    /// split brain — is fatal and never retried).  `None` while healthy
    /// or merely reconnecting.
    pub fn fault(&self) -> Option<String> {
        self.fault.lock().expect("fault").clone()
    }

    /// Stop the tail loop and cut any blocked leader read.
    fn stop_tail(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(s) = self.link.lock().expect("link").take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Promote this follower to a leader: stop tailing (pending applies
    /// land first), fsync every session's log, flip the sessions
    /// writable, and hand back the server — same address, now accepting
    /// durable writes.  Explicit and safe: nothing the old leader acked
    /// and shipped here is lost, and nothing unshipped can be invented.
    ///
    /// # Errors
    /// [`ReplicaError::Promote`] when a log cannot be fsynced.
    pub fn promote(self) -> Result<Server<F>, ReplicaError> {
        self.stop_tail();
        let _ = self.tail.join();
        // A leader forwards no hint: its own address is the answer.
        self.server.set_leader_hint(None);
        self.server.topo_set_upstream(None);
        self.server
            .promote_partitions()
            .map_err(|detail| ReplicaError::Promote { detail })?;
        Arc::try_unwrap(self.server).map_err(|_| ReplicaError::Promote {
            detail: "replica server still shared after tail join".to_owned(),
        })
    }

    /// Stop tailing and shut the read server down, returning the
    /// follower's service (sessions still read-only).
    ///
    /// # Panics
    /// Panics if the inner server is still shared after the tail thread
    /// joined (cannot happen through this API).
    pub fn shutdown(self) -> Service<F> {
        self.stop_tail();
        let _ = self.tail.join();
        match Arc::try_unwrap(self.server) {
            Ok(server) => server.shutdown(),
            Err(_) => panic!("replica server still shared after tail join"),
        }
    }
}

/// The background tail: reconnect-and-stream until stopped or fatally
/// refused.  Each connection starts with a `Sessions` exchange — the
/// root-leader hint is re-learned (and propagated to the local sessions
/// and the local server's own hint when it moved), and new upstream
/// sessions are mirrored when a [`Mirror`] is configured; the listing is
/// then re-polled on `discover_interval` while streaming.
#[allow(clippy::too_many_arguments)] // internal plumbing for one thread
fn tail_loop<F: ComponentFamily + Send + Sync + 'static>(
    server: &Arc<Server<F>>,
    mut positions: BTreeMap<String, Position>,
    leader: &str,
    stop: &AtomicBool,
    link_slot: &Mutex<Option<TcpStream>>,
    fault: &Mutex<Option<String>>,
    obs: &ReplObs,
    options: &ReplicaOptions,
    mirror: Option<Mirror<F>>,
    root_slot: &Mutex<String>,
) {
    if positions.is_empty() && mirror.is_none() {
        return; // nothing to tail, nothing to discover
    }
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x7461_696c); // "tail"
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match LeaderLink::connect(leader, options.read_timeout) {
            Err(_) => {
                obs.reconnects.inc();
            }
            Ok(mut link) => {
                *link_slot.lock().expect("link") = link.shutdown_handle();
                obs.connected.set(1);
                attempt = 0;
                let broke = match link.learn_sessions() {
                    Err(e) => StreamBreak::Lost(format!("sessions exchange failed: {e}")),
                    Ok(reply) => {
                        let new_root = reply.leader.clone().unwrap_or_else(|| leader.to_owned());
                        {
                            let mut cur = root_slot.lock().expect("root");
                            if *cur != new_root {
                                // The root moved (an upstream promoted):
                                // repoint the hint this node forwards and
                                // every local `NotLeader` target.
                                *cur = new_root.clone();
                                server.set_leader_hint(Some(new_root.clone()));
                                server.retarget(new_root.clone());
                            }
                        }
                        let mut adopt = |name: &str| -> Option<Position> {
                            let m = mirror.as_ref()?;
                            match open_mirror_session(m, name) {
                                Ok(None) => None,
                                Ok(Some(mut session)) => {
                                    session.set_read_only(Some(
                                        root_slot.lock().expect("root").clone(),
                                    ));
                                    let pos = Position {
                                        gen: session.wal_gen(),
                                        applied: session.wal_last_seq(),
                                        target: session.wal_last_seq(),
                                        acked: false,
                                        synced: false,
                                    };
                                    match server.adopt_session(name, session) {
                                        Ok(()) => {
                                            obs.mirrored.inc();
                                            Some(pos)
                                        }
                                        Err(_) => {
                                            obs.mirror_failures.inc();
                                            None
                                        }
                                    }
                                }
                                Err(_) => {
                                    obs.mirror_failures.inc();
                                    None
                                }
                            }
                        };
                        for name in &reply.sessions {
                            if !positions.contains_key(name) {
                                if let Some(pos) = adopt(name) {
                                    positions.insert(name.clone(), pos);
                                }
                            }
                        }
                        pump_streams(
                            &mut link,
                            &mut positions,
                            |batch| server.enqueue_apply(batch).iter().flatten().collect(),
                            Some(Discover {
                                adopt: &mut adopt,
                                interval: options.discover_interval,
                            }),
                            obs,
                            stop,
                            false,
                            || server.topo_note_frame(),
                            |session, target| server.topo_note_link(session, target),
                        )
                    }
                };
                obs.connected.set(0);
                *link_slot.lock().expect("link") = None;
                match broke {
                    StreamBreak::Stopped | StreamBreak::Synced => return,
                    StreamBreak::Refused { session, detail } => {
                        *fault.lock().expect("fault") =
                            Some(format!("leader refused {session:?}: {detail}"));
                        return;
                    }
                    StreamBreak::Lost(_) => {
                        obs.reconnects.inc();
                    }
                }
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        sleep_with_stop(
            backoff(&mut rng, attempt, options.retry_base, options.retry_max),
            stop,
        );
        attempt = attempt.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented contract: bounded exponential with ±50% jitter —
    /// every draw lands in [exp/2, 3·exp/2] and, crucially, both halves
    /// of the band are actually reachable (the pre-fix formula never
    /// jittered upward, so a fleet's retries bunched at the low end).
    #[test]
    fn backoff_jitter_spans_plus_minus_half() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(2);
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for attempt in 0..12u32 {
                let exp = base
                    .saturating_mul(2u32.saturating_pow(attempt.min(16)))
                    .min(max);
                let d = backoff(&mut rng, attempt, base, max);
                assert!(
                    d >= exp / 2 && d <= exp * 3 / 2,
                    "attempt {attempt}: {d:?} outside [{:?}, {:?}]",
                    exp / 2,
                    exp * 3 / 2
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let exp = Duration::from_millis(50);
        let (mut below, mut above) = (false, false);
        for _ in 0..256 {
            let d = backoff(&mut rng, 0, exp, max);
            below |= d < exp;
            above |= d > exp;
        }
        assert!(below && above, "jitter never left one side of the band");
    }

    /// A zero base never divides by zero or sleeps.
    #[test]
    fn backoff_zero_base_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            backoff(&mut rng, 0, Duration::ZERO, Duration::ZERO),
            Duration::ZERO
        );
    }
}
