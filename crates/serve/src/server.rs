//! The threaded TCP front end: concurrent connections, a sharded pool of
//! deterministic batch dispatchers, and a push path for delta
//! subscriptions.
//!
//! # Architecture
//!
//! ```text
//! conn 1 ──reader──┐   ┌─► shard queue 0 ──dispatcher 0─► Service part 0 ─┐
//! conn 2 ──reader──┼──►┤                                                  ├─► per-conn
//! conn 3 ──reader──┘   └─► shard queue 1 ──dispatcher 1─► Service part 1 ─┘   writer
//! ```
//!
//! One reader thread per connection decodes frames and routes each
//! request to the queue of the shard that owns its session —
//! `shard_of(session) % N`, the stable hash partition from
//! `compview-session`.  Each of the N dispatcher threads owns one
//! [`Service`] partition; each time it wakes it drains *its whole queue*
//! as one batch, runs [`Service::dispatch`] on its own thread (each
//! touched session serves its queue in turn, and each touched log is
//! group-committed with a single fsync), drains the delta events the
//! batch committed, and hands both to the per-connection **writer**.
//! Shards are the parallelism: no batch fans out further.  Sessions
//! never move between shards, so per-session WAL bytes and responses
//! are byte-identical to a single-dispatcher server — only the
//! parallelism changes.
//!
//! Requests move in bursts at every hop, not one by one.  The reader
//! takes in whatever the socket holds through a fixed 16-KiB buffer,
//! parses every whole frame out of memory into one run per shard, and
//! hands each run to its shard under one lock with one wake-up
//! (`serve.frames_in` ÷ `serve.enqueue_runs` is the mean run).  Runs
//! are handed over before any read that may block, before a node-wide
//! barrier and before the connection is dropped, so each shard's queue
//! holds a connection's requests in arrival order.  A dispatcher hands
//! each connection its batch's responses as one run: one connection
//! lookup, one lock and one writer wake-up.  The writer, each time it
//! wakes, takes every frame queued for the wire under one lock (up to
//! the 64-KiB `WRITE_BURST` ceiling; a single larger frame goes
//! alone), encodes them into one reused buffer, and hands them to the
//! kernel in one write.  The bytes on the wire are exactly those of one
//! write per frame; `serve.frames_out` ÷ `serve.write_calls` is the
//! mean burst.
//!
//! # Ordering
//!
//! Within one connection, responses go out in request order even though
//! different requests may be answered by different shards: the reader
//! stamps every request with a per-connection sequence number, and the
//! writer's reorder buffer holds each finished response until all
//! lower-numbered ones have been queued.  The writer drains that queue
//! front to back into each write, so coalescing never reorders frames.
//! Across connections no order is promised (none exists to preserve).
//!
//! Delta-event frames are unsolicited and carry no sequence number;
//! their ordering contract is per subscription: every event goes out
//! **after** the `Subscribed` response that opened the stream, in
//! session-commit order with consecutive event sequences, and **never
//! after** the `Unsubscribed` response or a terminal event.  Two rules
//! enforce this.  First, a dispatcher delivers a batch's events *before*
//! the batch's responses — any event it drained was committed by a
//! request dispatched no later than an `Unsubscribe` answered in the
//! same batch.  Second, events for a subscription whose `Subscribed`
//! response is still waiting in the reorder buffer are **parked**, and
//! released the moment that response is queued to the wire — so a
//! subscribe pipelined with the updates that follow it still yields a
//! well-formed stream.
//!
//! # Slow consumers
//!
//! Each connection has one writer thread; a peer that stops reading
//! blocks its writer on the socket, never a dispatcher.  Undelivered
//! event frames queue per subscription up to
//! [`ServeOptions::event_outbox_cap`] — a frame stays counted until the
//! write carrying it has returned; one past the cap, the server ends
//! the stream — the overflowing event is replaced by a cap-exempt
//! `Terminated(SlowConsumer)` event queued behind the frames already
//! owed, so the delivered prefix stays gapless — and the subscription is
//! removed from the session (`serve.sub.slow_drops` counts these).  Responses are never dropped — a client that pipelines
//! requests and reads nothing owes the transport that memory; the cap
//! bounds only the unsolicited stream.
//!
//! # Barriers across shards
//!
//! `Metrics`, `Sessions`, `Trace` and `Topology` answer for the whole
//! node, so each is one **barrier** ([`Item::Barrier`]): the reader
//! enqueues it on every shard, each dispatcher passes it only after
//! applying the requests it drained alongside it, adding its partition's
//! durable `(session, gen, last_seq)` rows, and the last dispatcher
//! through builds the verb's reply.  A `Metrics` reply merges one
//! snapshot per shard registry ([`MetricsSnapshot::merged`]), each taken
//! under that shard's snapshot gate, so it always lands on a batch
//! boundary, never mid-batch; a `Trace` reply drains and merges every
//! shard's span buffer; `Sessions` and `Topology` answer from the rows.
//! Any of the four pipelined behind N requests on one connection
//! therefore observes all N.

use crate::proto::{
    decode_wire_request, encode_event_payload, encode_heartbeat_payload,
    encode_metrics_response_payload, encode_replicate_ack_payload, encode_result_payload,
    encode_sessions_reply_payload, encode_topology_reply_payload, encode_trace_response_payload,
    encode_wal_frame_payload, expect_handshake, frame_buffered, put_frame, read_frame,
    send_handshake, ReplicateAck, SessionsReply, TopoRole, TopoSession, TopologyReply, WalFrame,
    WireRequest, FRAME_HEADER, READ_BUFFER, WRITE_BURST,
};
use compview_core::ComponentFamily;
use compview_obs::{Counter, Gauge, MetricsSnapshot, Registry, TraceCtx, TraceSnapshot};
use compview_session::{
    shard_of, ApplyError, CatchupPlan, DeltaEvent, DeltaKind, DispatchError, Service, Session,
    SessionRequest, SessionResponse, TerminateReason, WalShipment,
};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind_with`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Dispatcher shard count (0 is treated as 1); see
    /// [`Server::bind_sharded`].
    pub shards: usize,
    /// Undelivered delta-event frames one subscription may queue before
    /// the server declares its consumer slow and drops the subscription
    /// with a terminal `SlowConsumer` event.
    pub event_outbox_cap: usize,
    /// Undelivered WAL-shipment frames one replication stream may queue
    /// before the leader ends the stream with a `W_END` frame (the
    /// follower re-requests and catches up from its log instead).
    /// Catch-up tails queue here too, so this should comfortably exceed
    /// the longest expected log tail.
    pub repl_outbox_cap: usize,
    /// Drop a connection whose socket has been idle (no complete frame)
    /// for this long — half-open peers stop pinning reader threads.
    /// Connections with an active replication stream are exempt: a
    /// follower legitimately sends nothing for hours.  `None` (the
    /// default) waits forever.
    pub read_timeout: Option<Duration>,
    /// How often the writer of a connection with active replication
    /// streams emits a heartbeat frame when it has nothing else to send,
    /// so the follower's read timeout can tell an idle leader from a
    /// dead link.  Never sent on ordinary connections.  `None` disables
    /// heartbeats.
    pub heartbeat_interval: Option<Duration>,
    /// Distributed-tracing head-sampling rate: record the spans of a
    /// traced request iff `trace_id % trace_sample == 0`, with `0` = off
    /// (the default — traced requests dispatch identically, nothing is
    /// recorded) and `1` = always.  Every node in a replication tree
    /// should share one rate so a sampled trace is sampled at every hop.
    pub trace_sample: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            shards: 1,
            event_outbox_cap: 1024,
            repl_outbox_cap: 1 << 16,
            read_timeout: None,
            heartbeat_interval: Some(Duration::from_millis(500)),
            trace_sample: 0,
        }
    }
}

/// One outbound stream's server-side identity on a connection.
///
/// Two namespaces share the writer's parking/budget machinery:
/// subscription event streams (keyed by session + session-scoped
/// subscription id) and replication WAL streams (keyed by session + the
/// connection-local sequence number of the `Replicate` request that
/// opened them).  A session-scoped sub id and a connection-scoped
/// request seq could collide as bare numbers, so the key carries which
/// kind it is.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum StreamKey {
    /// A delta-subscription stream.
    Sub(String, u64),
    /// A replication WAL stream.
    Repl(String, u64),
}

/// What a follower asks its dispatcher to apply (see [`Item::Apply`]).
pub(crate) enum ApplyKind {
    /// One raw framed WAL record, with the distributed-trace context the
    /// leader's shipment carried (if the producing write was sampled).
    Record(Vec<u8>, Option<TraceCtx>),
    /// A raw framed record-0 checkpoint image.
    Reset(Vec<u8>),
}

/// Leader shipments in stream order, each with its session: what a
/// follower hands its dispatchers (and a dispatcher its service) to
/// apply in one go.
pub(crate) type ApplyBatch = Vec<(String, ApplyKind)>;

/// What came of one shipment's apply: the session's authoritative
/// position after the attempt, success or not — the replica's tail loop
/// resumes from *this*, never from its own bookkeeping.
pub(crate) struct ApplyReport {
    /// The session the shipment was for.
    pub session: String,
    /// The session's WAL generation after the attempt.
    pub gen: u64,
    /// The session's last WAL sequence number after the attempt.
    pub last_seq: u64,
    /// The applied sequence number, or why the record was refused.
    pub outcome: Result<u64, ApplyError>,
}

/// One durable session's WAL position: `(name, gen, last_seq)`.
type Row = (String, u64, u64);

/// The node-wide verb an [`Item::Barrier`] answers.
#[derive(Clone, Copy)]
enum Verb {
    Metrics,
    Sessions,
    Trace,
    Topology,
}

/// A parked session adoption: the name, the boxed `Session<F>` in
/// transit to its shard, and the channel the outcome is acked on.
type AdoptSlot = (
    String,
    Box<dyn Any + Send>,
    mpsc::Sender<Result<(), String>>,
);

/// One item on a shard's queue.
enum Item {
    /// A request bound for this shard's service partition.  `trace` is
    /// the wire trace context plus the enqueue instant, carried only by
    /// [`WireRequest::DispatchTraced`] — the dispatcher turns the queue
    /// wait into a "shard.queue" span and threads the child context into
    /// the session.
    Dispatch {
        conn: u64,
        seq: u64,
        session: String,
        req: SessionRequest,
        trace: Option<(TraceCtx, Instant)>,
    },
    /// A node-wide verb (enqueued on *every* shard): each dispatcher adds
    /// its partition's durable positions to `rows` after applying what
    /// it drained alongside, and whoever decrements `left` to zero
    /// answers `verb` for the whole node.
    Barrier {
        conn: u64,
        seq: u64,
        verb: Verb,
        left: Arc<AtomicUsize>,
        rows: Arc<Mutex<Vec<Row>>>,
    },
    /// A connection died (enqueued on *every* shard): drop its
    /// subscriptions from the sessions so they stop publishing.
    Cancel { conn: u64 },
    /// A follower asks to tail `session`'s WAL: answer with an ack, ship
    /// the catch-up, keep shipping live writes until the stream dies.
    Replicate {
        conn: u64,
        seq: u64,
        session: String,
        from_seq: u64,
        gen: u64,
    },
    /// (Follower side) apply this shard's share of a batch of leader
    /// shipments, in order, stopping at the first refused one; the
    /// reports go back to the replica's tail loop in one vector.
    Apply {
        records: ApplyBatch,
        done: mpsc::Sender<Vec<ApplyReport>>,
    },
    /// (Follower side) promotion barrier, enqueued on *every* shard
    /// after the tail loop has stopped: fsync every session of this
    /// shard's partition and flip it writable.  Queue order guarantees
    /// pending `Apply` items land first.
    Promote {
        done: mpsc::Sender<Result<(), String>>,
    },
    /// Adopt a freshly opened session into this shard's running service
    /// partition (`Server::adopt_session`).  The box holds a
    /// `Session<F>`, type-erased so this queue stays monomorphic.
    Adopt {
        name: String,
        session: Box<dyn Any + Send>,
        done: mpsc::Sender<Result<(), String>>,
    },
    /// A read-your-writes read: answer `Read { view }` on `session` once
    /// its WAL position reaches `(gen, min_seq)`, or refuse with a typed
    /// `Lagging` error when `deadline` passes first.  Waiting happens in
    /// dispatcher-local state — the queue is never blocked.
    ReadAt {
        conn: u64,
        seq: u64,
        session: String,
        view: String,
        gen: u64,
        min_seq: u64,
        deadline: Instant,
    },
    /// (Follower side) repoint this shard's read-only sessions'
    /// `NotLeader { leader_addr }` target at a new root leader (enqueued
    /// on *every* shard when a chained upstream learns its root moved).
    /// Writable sessions are untouched.
    Retarget { leader: String },
}

/// Server-side instruments, registered on shard 0's [`Registry`] (the
/// original service registry) at bind time so they land in the same
/// snapshot as the session and WAL metrics.
#[derive(Clone, Default)]
struct ServeObs {
    /// Connections accepted (post-handshake).
    connections: Counter,
    /// Request frames decoded off the wire.
    frames_in: Counter,
    /// Hand-offs from connection readers to shard queues: one per run of
    /// requests enqueued under one lock with one wake-up, and one per
    /// node-wide barrier.  `serve.frames_in` ÷ this is the mean run.
    enqueue_runs: Counter,
    /// Frames written to the wire (responses and events alike).
    frames_out: Counter,
    /// Socket writes that carried them: one per writer wake-up, each
    /// coalescing every queued frame up to [`WRITE_BURST`] bytes.
    write_calls: Counter,
    /// Delta-event frames accepted into a connection's outbox.
    events_out: Counter,
    /// Subscriptions dropped for falling behind
    /// ([`ServeOptions::event_outbox_cap`]).
    slow_drops: Counter,
    /// Frames (or CRC-valid payloads) refused: bad CRC, over-limit
    /// length, torn stream, undecodable payload.  Each costs its
    /// connection.
    malformed_frames: Counter,
    /// High-water mark of any one shard queue's depth.
    queue_depth_hwm: Gauge,
    /// Connections dropped for sitting idle past
    /// [`ServeOptions::read_timeout`].
    idle_disconnects: Counter,
    /// Replication streams opened / closed (for any reason) — the
    /// difference is the live count.
    repl_streams_opened: Counter,
    /// See [`ServeObs::repl_streams_opened`].
    repl_streams_closed: Counter,
    /// WAL frames (records, resets, catch-up included) accepted into
    /// connection outboxes for followers.
    repl_records_out: Counter,
    /// Payload bytes of those frames — the node's replication egress,
    /// the quantity chaining exists to take off the root leader.
    repl_bytes_out: Counter,
}

impl ServeObs {
    fn new(registry: &Registry) -> ServeObs {
        ServeObs {
            connections: registry.counter("serve.connections"),
            frames_in: registry.counter("serve.frames_in"),
            enqueue_runs: registry.counter("serve.enqueue_runs"),
            frames_out: registry.counter("serve.frames_out"),
            write_calls: registry.counter("serve.write_calls"),
            events_out: registry.counter("serve.events_out"),
            slow_drops: registry.counter("serve.sub.slow_drops"),
            malformed_frames: registry.counter("serve.malformed_frames"),
            queue_depth_hwm: registry.gauge("serve.queue_depth_hwm"),
            idle_disconnects: registry.counter("serve.idle_disconnects"),
            repl_streams_opened: registry.counter("serve.repl.streams_opened"),
            repl_streams_closed: registry.counter("serve.repl.streams_closed"),
            repl_records_out: registry.counter("serve.repl.records_out"),
            repl_bytes_out: registry.counter("serve.repl.bytes_out"),
        }
    }
}

/// One shard's request queue.
struct ShardQueue {
    queue: Mutex<VecDeque<Item>>,
    wake: Condvar,
}

/// Push `items` onto `shard`'s queue under one lock, raise the
/// queue-depth high-water mark, and wake the shard's dispatcher once —
/// the one way anything enters a shard queue.
fn enqueue(shared: &Shared, shard: usize, items: impl IntoIterator<Item = Item>) {
    let sq = &shared.shards[shard];
    let mut q = sq.queue.lock().expect("queue");
    q.extend(items);
    shared.obs.queue_depth_hwm.raise(q.len() as u64);
    drop(q);
    sq.wake.notify_one();
}

/// [`enqueue`] one item per shard, each built by `item` — the barriers
/// and notices every dispatcher must see.
fn broadcast(shared: &Shared, mut item: impl FnMut() -> Item) {
    for shard in 0..shared.shards.len() {
        enqueue(shared, shard, [item()]);
    }
}

/// Hand a connection reader's per-shard runs to their shards, one
/// [`enqueue`] per non-empty run, and leave every run empty.
fn enqueue_runs(shared: &Shared, runs: &mut [Vec<Item>]) {
    for (shard, run) in runs.iter_mut().enumerate() {
        if !run.is_empty() {
            enqueue(shared, shard, run.drain(..));
            shared.obs.enqueue_runs.inc();
        }
    }
}

/// Open an [`Item::Barrier`] answering `verb` on every shard.
fn barrier(shared: &Shared, conn: u64, seq: u64, verb: Verb) {
    let left = Arc::new(AtomicUsize::new(shared.shards.len()));
    let rows = Arc::new(Mutex::new(Vec::new()));
    broadcast(shared, || Item::Barrier {
        conn,
        seq,
        verb,
        left: Arc::clone(&left),
        rows: Arc::clone(&rows),
    });
}

/// Apply a run of leader shipments to `service` in order, stopping at
/// the first one refused: one report per attempted shipment, the last
/// one carrying the refusal if there was one.  Shipments behind a
/// refusal are not attempted — the follower re-requests them from the
/// reported position.  The dispatcher runs this for its shard's share
/// of a tail batch, and a follower's initial sync runs it on the whole
/// batch.
pub(crate) fn apply_batch<F: ComponentFamily + Send + Sync>(
    service: &mut Service<F>,
    records: ApplyBatch,
) -> Vec<ApplyReport> {
    let mut reports = Vec::with_capacity(records.len());
    for (session, kind) in records {
        let report = match service.session_mut(&session) {
            None => ApplyReport {
                outcome: Err(ApplyError::BadRecord {
                    detail: format!("unknown session {session:?}"),
                }),
                session,
                gen: 0,
                last_seq: 0,
            },
            Some(s) => {
                let outcome = match kind {
                    ApplyKind::Record(bytes, ctx) => s.apply_replicated_traced(&bytes, ctx),
                    ApplyKind::Reset(bytes) => s.apply_reset(&bytes),
                };
                ApplyReport {
                    gen: s.wal_gen(),
                    last_seq: s.wal_last_seq(),
                    outcome,
                    session,
                }
            }
        };
        let refused = report.outcome.is_err();
        reports.push(report);
        if refused {
            break;
        }
    }
    reports
}

/// A side effect a response frame carries into the writer: applied at
/// the moment the frame leaves the reorder buffer, so route state
/// changes exactly where the frame lands in the wire order.
enum RouteChange {
    /// A `Subscribed` response (or a streaming `Replicate` ack): start
    /// the stream — release any parked frames right behind this one.
    Activate(StreamKey),
    /// An `Unsubscribed` response: the stream is over.
    Deactivate(StreamKey),
}

/// A finished response on its way to a connection's writer: its
/// sequence number, payload and route change.
type Response = (u64, Vec<u8>, Option<RouteChange>);

/// The outbound half of one connection, owned by its writer thread and
/// fed by dispatchers.
struct OutState {
    /// The sequence number the wire expects next.
    next_seq: u64,
    /// Finished responses waiting for their turn, keyed by sequence.
    pending: BTreeMap<u64, (Vec<u8>, Option<RouteChange>)>,
    /// Frames in final wire order, waiting for the writer thread.  The
    /// tag is the stream whose outbox budget the frame occupies
    /// (unsolicited event / WAL frames only).
    ready: VecDeque<(Vec<u8>, Option<StreamKey>)>,
    /// Streams whose opening response has been queued; their frames go
    /// straight to `ready`.
    active: BTreeSet<StreamKey>,
    /// Unsolicited frames awaiting their opening response, per stream,
    /// with their budget flag.
    parked: BTreeMap<StreamKey, Vec<(Vec<u8>, bool)>>,
    /// Streams ended by a terminal frame: anything further is discarded.
    /// One that ended while parked is forgotten at activation.
    dead: BTreeSet<StreamKey>,
    /// Undelivered frames per stream (parked + ready), the count the
    /// outbox caps bound ([`ServeOptions::event_outbox_cap`] for
    /// subscriptions, [`ServeOptions::repl_outbox_cap`] for replication).
    queued: BTreeMap<StreamKey, usize>,
    /// Set on connection death and server shutdown; the writer exits,
    /// producers stop queueing.
    closed: bool,
}

/// A connection's outbound mailbox plus the handle other threads use to
/// tear the socket down (the writer thread writes through its own
/// clone).
struct ConnSlot {
    state: Mutex<OutState>,
    wake: Condvar,
    stream: TcpStream,
}

impl ConnSlot {
    /// Mark the connection closed and release its writer.
    fn close(&self) {
        let mut st = self.state.lock().expect("out state");
        st.closed = true;
        st.ready.clear();
        drop(st);
        self.wake.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// State shared between the accept loop, the readers, the writers, and
/// the dispatchers.
struct Shared {
    shards: Vec<ShardQueue>,
    /// Per-shard snapshot gates: held by a dispatcher around
    /// [`Service::dispatch`] (and the event drain that follows it),
    /// taken by a metrics probe around that shard's registry snapshot —
    /// so a probe snapshot always lands on a batch boundary (and the
    /// lock handoff makes the shard's relaxed counter writes visible to
    /// the prober).
    snap_gates: Vec<Mutex<()>>,
    /// Per-shard registries, shard 0's being the original service
    /// registry.  Clones of the live registries — valid even after a
    /// dispatcher thread has exited with its service.
    registries: Vec<Registry>,
    stop: AtomicBool,
    /// Connection outbound slots, keyed by connection id.  The accept
    /// loop inserts; whoever sees a dead connection removes.
    conns: Mutex<BTreeMap<u64, Arc<ConnSlot>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    event_outbox_cap: usize,
    repl_outbox_cap: usize,
    read_timeout: Option<Duration>,
    heartbeat_interval: Option<Duration>,
    /// Connections with live replication streams (refcounted per
    /// stream): exempt from the idle read timeout, since a streaming
    /// follower legitimately sends nothing for hours.
    repl_conns: Mutex<BTreeMap<u64, usize>>,
    /// The *root* leader's address when this node is a follower (set by
    /// the replica's tail machinery, cleared on promote) — what a
    /// `Sessions` reply forwards so chained followers can name where
    /// writes actually go.  `None` on a writable node.
    leader_hint: Mutex<Option<String>>,
    /// Replication-tree facts the replica layer maintains for the
    /// `Topology` verb (default — a plain root — on a leader).
    topo: Mutex<TopoState>,
    obs: ServeObs,
}

/// What the replica layer tells the server about its place in the
/// replication tree, for the `Topology` verb.
#[derive(Default)]
struct TopoState {
    /// The upstream this node tails (`None` on a root, cleared on
    /// promote).
    upstream: Option<String>,
    /// Whether this node was promoted out of followership.
    promoted: bool,
    /// When the last upstream frame — shipment *or* heartbeat — arrived.
    /// Recorded by the replica's pump thread as the frame comes off the
    /// socket, so a silently dead link (frames swallowed, no FIN) shows
    /// up as a growing age even while the read timeout has not fired.
    last_frame: Option<Instant>,
    /// Per-session upstream position: the leader's last known sequence
    /// number and when this node last applied a shipment for it.
    links: BTreeMap<String, (u64, Instant)>,
}

/// Milliseconds from `earlier` to `now`, saturating.
fn ms_since(now: Instant, earlier: Instant) -> u64 {
    u64::try_from(now.saturating_duration_since(earlier).as_millis()).unwrap_or(u64::MAX)
}

/// Wall-clock nanoseconds since the Unix epoch (span timestamps).
fn wall_clock_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Count one more live replication stream against `conn`.
fn repl_conn_add(shared: &Shared, conn: u64) {
    *shared
        .repl_conns
        .lock()
        .expect("repl conns")
        .entry(conn)
        .or_insert(0) += 1;
}

/// Release one replication stream's claim on `conn`.
fn repl_conn_remove(shared: &Shared, conn: u64) {
    let mut conns = shared.repl_conns.lock().expect("repl conns");
    if let Some(n) = conns.get_mut(&conn) {
        *n -= 1;
        if *n == 0 {
            conns.remove(&conn);
        }
    }
}

/// A running server: call [`Server::shutdown`] to stop it and take the
/// [`Service`] (with every session's final state) back.
pub struct Server<F: ComponentFamily + Send + Sync + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    dispatchers: Vec<JoinHandle<Service<F>>>,
}

impl<F: ComponentFamily + Send + Sync + 'static> Server<F> {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service` with a single dispatcher.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Service<F>) -> io::Result<Server<F>> {
        Server::bind_with(addr, service, ServeOptions::default())
    }

    /// [`Server::bind`] with dispatch sharded across `shards` dispatcher
    /// threads, sessions hash-partitioned by name (see the module docs).
    /// `shards == 0` is treated as 1.  Group commit, per-session
    /// ordering, and response bytes are identical at every shard count;
    /// the shard count only sets how many cores may dispatch at once.
    pub fn bind_sharded<A: ToSocketAddrs>(
        addr: A,
        service: Service<F>,
        shards: usize,
    ) -> io::Result<Server<F>> {
        Server::bind_with(
            addr,
            service,
            ServeOptions {
                shards,
                ..ServeOptions::default()
            },
        )
    }

    /// [`Server::bind`] with every knob explicit.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        service: Service<F>,
        options: ServeOptions,
    ) -> io::Result<Server<F>> {
        let shards = options.shards.max(1);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let parts = service.split(shards);
        // Every shard partition got its own registry (and so its own
        // span buffer) from `split`; name them all after the serving
        // address so a `Trace` drain reports one coherent node.
        let node = addr.to_string();
        for part in &parts {
            part.registry()
                .dtracer()
                .configure(&node, options.trace_sample);
        }
        let shared = Arc::new(Shared {
            shards: (0..shards)
                .map(|_| ShardQueue {
                    queue: Mutex::new(VecDeque::new()),
                    wake: Condvar::new(),
                })
                .collect(),
            snap_gates: (0..shards).map(|_| Mutex::new(())).collect(),
            registries: parts.iter().map(|p| p.registry().clone()).collect(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            readers: Mutex::new(Vec::new()),
            writers: Mutex::new(Vec::new()),
            event_outbox_cap: options.event_outbox_cap.max(1),
            repl_outbox_cap: options.repl_outbox_cap.max(1),
            read_timeout: options.read_timeout,
            heartbeat_interval: options.heartbeat_interval,
            repl_conns: Mutex::new(BTreeMap::new()),
            leader_hint: Mutex::new(None),
            topo: Mutex::new(TopoState::default()),
            obs: ServeObs::new(parts[0].registry()),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            spawn_named("cv-accept".to_owned(), move || {
                accept_loop(&listener, &shared)
            })
        };
        let dispatchers = parts
            .into_iter()
            .enumerate()
            .map(|(shard, part)| {
                let shared = Arc::clone(&shared);
                spawn_named(format!("cv-shard-{shard}"), move || {
                    dispatch_loop(shard, part, &shared)
                })
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            accept,
            dispatchers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// (Replica plumbing) hand a batch of leader shipments to the
    /// dispatchers: split by owning shard, one `Apply` per touched shard,
    /// each applying its share in order (see [`apply_batch`]).  One
    /// report vector per touched shard arrives on the returned channel,
    /// which closes once every share has been answered.
    pub(crate) fn enqueue_apply(&self, batch: ApplyBatch) -> mpsc::Receiver<Vec<ApplyReport>> {
        let (tx, rx) = mpsc::channel();
        let n = self.shared.shards.len();
        let mut shares: Vec<ApplyBatch> = (0..n).map(|_| Vec::new()).collect();
        for (session, kind) in batch {
            shares[shard_of(&session, n)].push((session, kind));
        }
        for (shard, records) in shares.into_iter().enumerate() {
            if !records.is_empty() {
                let done = tx.clone();
                enqueue(&self.shared, shard, [Item::Apply { records, done }]);
            }
        }
        rx
    }

    /// (Replica plumbing) promotion barrier: enqueue a `Promote` on
    /// every shard — behind any pending applies — and wait for each to
    /// fsync its partition and flip its sessions writable.
    pub(crate) fn promote_partitions(&self) -> Result<(), String> {
        let (tx, rx) = mpsc::channel();
        broadcast(&self.shared, || Item::Promote { done: tx.clone() });
        drop(tx);
        let mut result = Ok(());
        for r in rx {
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// (Replica plumbing) repoint every read-only session's `NotLeader`
    /// target at a new root leader address: enqueued on every shard,
    /// fire-and-forget — queue order puts it ahead of any write that
    /// would be rejected with the stale address.
    pub(crate) fn retarget(&self, leader: String) {
        broadcast(&self.shared, || Item::Retarget {
            leader: leader.clone(),
        });
    }

    /// Number of dispatcher shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// (Replica plumbing) set or clear the root-leader address the
    /// `Sessions` verb forwards — see [`Shared::leader_hint`].
    pub(crate) fn set_leader_hint(&self, addr: Option<String>) {
        *self.shared.leader_hint.lock().expect("leader hint") = addr;
    }

    /// (Replica plumbing) set or clear the upstream address the
    /// `Topology` verb reports.  Clearing (promotion) also flips the
    /// reported role to `Promoted` and forgets link freshness.
    pub(crate) fn topo_set_upstream(&self, upstream: Option<String>) {
        let mut topo = self.shared.topo.lock().expect("topo");
        if upstream.is_none() && topo.upstream.is_some() {
            topo.promoted = true;
            topo.last_frame = None;
            topo.links.clear();
        }
        topo.upstream = upstream;
    }

    /// (Replica plumbing) note that a frame — shipment or heartbeat —
    /// just arrived from the upstream: the heartbeat-freshness clock the
    /// `Topology` verb reports restarts from now.
    pub(crate) fn topo_note_frame(&self) {
        self.shared.topo.lock().expect("topo").last_frame = Some(Instant::now());
    }

    /// (Replica plumbing) note one session's upstream position: the
    /// leader's last known sequence number, stamped now (a shipment for
    /// it was just applied, or its stream just acked).
    pub(crate) fn topo_note_link(&self, session: &str, target: u64) {
        self.shared
            .topo
            .lock()
            .expect("topo")
            .links
            .insert(session.to_owned(), (target, Instant::now()));
    }

    /// Adopt a freshly opened session into the running server under
    /// `name`, routed to the shard that owns the name.  The session joins
    /// the dispatcher's partition exactly like one opened at bind time:
    /// it is registry-rebound, serveable, and replicable the moment this
    /// returns.
    ///
    /// # Errors
    /// The name being taken, or the server shutting down before the
    /// owning dispatcher processed the adoption.
    pub fn adopt_session(&self, name: &str, session: Session<F>) -> Result<(), String> {
        let (tx, rx) = mpsc::channel();
        let shard = shard_of(name, self.shared.shards.len());
        let adopt = Item::Adopt {
            name: name.to_owned(),
            session: Box::new(session),
            done: tx,
        };
        enqueue(&self.shared, shard, [adopt]);
        rx.recv()
            .map_err(|_| "server stopped before the adoption ran".to_owned())?
    }

    /// Stop accepting, close every connection, drain the shard queues,
    /// and return the service — shard partitions folded back into one
    /// ([`Service::merge`]) — with every session's final state.
    pub fn shutdown(self) -> Service<F> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Close the sockets out from under the readers and writers…
        for slot in self.shared.conns.lock().expect("conns").values() {
            slot.close();
        }
        // …poke the accept loop awake (it checks `stop` per accept)…
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let readers = std::mem::take(&mut *self.shared.readers.lock().expect("readers"));
        for r in readers {
            let _ = r.join();
        }
        let writers = std::mem::take(&mut *self.shared.writers.lock().expect("writers"));
        for w in writers {
            let _ = w.join();
        }
        // …and let every dispatcher drain what is left, then exit.  A
        // dispatcher tests `stop` and starts waiting under its queue
        // lock, so notifying under that lock reaches every dispatcher:
        // it has either seen `stop` already or is waiting.
        for sq in &self.shared.shards {
            let _q = sq.queue.lock().expect("queue");
            sq.wake.notify_all();
        }
        let parts: Vec<Service<F>> = self
            .dispatchers
            .into_iter()
            .map(|d| d.join().expect("dispatcher thread"))
            .collect();
        Service::merge(parts)
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Responses are small frames written exactly when they're ready:
        // leaving Nagle on stalls every ping-pong client on the
        // delayed-ACK timer (~40 ms per round trip).
        let _ = stream.set_nodelay(true);
        // Idle-connection hygiene: a peer that goes silent past the
        // timeout is dropped instead of pinning a reader thread forever
        // (replication streams are exempted in `read_loop`).
        let _ = stream.set_read_timeout(shared.read_timeout);
        // Handshake both ways before the connection exists at all.
        if send_handshake(&mut stream).is_err() || expect_handshake(&mut stream).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let (Ok(write_stream), Ok(control)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let conn = next_conn;
        next_conn += 1;
        shared.obs.connections.inc();
        let slot = Arc::new(ConnSlot {
            state: Mutex::new(OutState {
                next_seq: 0,
                pending: BTreeMap::new(),
                ready: VecDeque::new(),
                active: BTreeSet::new(),
                parked: BTreeMap::new(),
                dead: BTreeSet::new(),
                queued: BTreeMap::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            stream: control,
        });
        shared
            .conns
            .lock()
            .expect("conns")
            .insert(conn, Arc::clone(&slot));
        let writer = {
            let shared = Arc::clone(shared);
            spawn_named("cv-conn-write".to_owned(), move || {
                write_loop(conn, write_stream, &slot, &shared)
            })
        };
        shared.writers.lock().expect("writers").push(writer);
        let reader = {
            let shared = Arc::clone(shared);
            spawn_named("cv-conn-read".to_owned(), move || {
                read_loop(conn, stream, &shared)
            })
        };
        shared.readers.lock().expect("readers").push(reader);
    }
}

/// Spawn a server thread named by its role, so per-thread tools (`top
/// -H`, `/proc/self/task/*/comm`) can attribute CPU to acceptor, shard
/// dispatchers, connection readers and writers, and the follower tail.
/// Names stay within Linux's 15-byte thread-name limit.
///
/// # Panics
/// Panics, as `std::thread::spawn` does, when the thread cannot be
/// spawned.
pub(crate) fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    debug_assert!(name.len() <= 15, "thread name {name:?} exceeds 15 bytes");
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("failed to spawn thread")
}

fn read_loop(conn: u64, stream: TcpStream, shared: &Arc<Shared>) {
    let n_shards = shared.shards.len();
    // Pipelined requests arrive in bursts: one `read` takes in every
    // whole frame of a burst, and the frames are parsed out of memory.
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let mut seq: u64 = 0;
    // Requests decoded but not yet handed over, one run per shard.  Runs
    // are handed over before anything that could reorder them against
    // this connection's later items: a read that may block, a barrier,
    // the connection's end.
    let mut runs: Vec<Vec<Item>> = (0..n_shards).map(|_| Vec::new()).collect();
    loop {
        // A connection accepted behind the shutdown's close sweep is
        // closed here, or its writer would wait forever.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if !frame_buffered(stream.buffer()) {
            enqueue_runs(shared, &mut runs);
        }
        let wire = match read_frame(&mut stream) {
            Ok(Some(payload)) => match decode_wire_request(&payload) {
                Ok(wire) => wire,
                // A CRC-valid frame that does not decode is a protocol
                // violation, not line noise: drop the connection.
                Err(_) => {
                    shared.obs.malformed_frames.inc();
                    break;
                }
            },
            // Clean hangup between frames.
            Ok(None) => break,
            // Torn frame, bad CRC, over-limit length, transport failure:
            // nothing after this point can be trusted.
            Err(e) => {
                if is_idle_timeout(&e) {
                    // A follower legitimately goes quiet once its
                    // streams are up; everyone else idle past the
                    // timeout is dropped.  Only a stall *between* frames
                    // lands here: `read_frame` reports a stall after a
                    // frame's first byte as a torn stream, which falls
                    // through to the arm below even on a replication
                    // connection.
                    if shared
                        .repl_conns
                        .lock()
                        .expect("repl conns")
                        .contains_key(&conn)
                    {
                        continue;
                    }
                    shared.obs.idle_disconnects.inc();
                    break;
                }
                if !shared.stop.load(Ordering::SeqCst) && !is_disconnect(&e) {
                    shared.obs.malformed_frames.inc();
                }
                break;
            }
        };
        shared.obs.frames_in.inc();
        let routed = match wire {
            WireRequest::Dispatch(session, req) => Ok((
                shard_of(&session, n_shards),
                Item::Dispatch {
                    conn,
                    seq,
                    session,
                    req,
                    trace: None,
                },
            )),
            // The queue wait is timed from decode, so it includes the
            // time the request waits in its run.
            WireRequest::DispatchTraced { session, req, ctx } => Ok((
                shard_of(&session, n_shards),
                Item::Dispatch {
                    conn,
                    seq,
                    session,
                    req,
                    trace: Some((ctx, Instant::now())),
                },
            )),
            WireRequest::Replicate {
                session,
                from_seq,
                gen,
            } => Ok((
                shard_of(&session, n_shards),
                Item::Replicate {
                    conn,
                    seq,
                    session,
                    from_seq,
                    gen,
                },
            )),
            WireRequest::ReadAt {
                session,
                view,
                gen,
                min_seq,
                wait_ms,
            } => Ok((
                shard_of(&session, n_shards),
                Item::ReadAt {
                    conn,
                    seq,
                    session,
                    view,
                    gen,
                    min_seq,
                    // Clamped so a hostile wait cannot overflow `Instant`
                    // arithmetic.
                    deadline: Instant::now() + Duration::from_millis(wait_ms.min(86_400_000)),
                },
            )),
            WireRequest::Metrics => Err(Verb::Metrics),
            WireRequest::Sessions => Err(Verb::Sessions),
            WireRequest::Trace => Err(Verb::Trace),
            WireRequest::Topology => Err(Verb::Topology),
        };
        match routed {
            Ok((shard, item)) => runs[shard].push(item),
            // A node-wide verb is a barrier across every shard, behind
            // everything this connection sent before it; the countdown
            // picks the answerer.
            Err(verb) => {
                enqueue_runs(shared, &mut runs);
                barrier(shared, conn, seq, verb);
                shared.obs.enqueue_runs.inc();
            }
        }
        seq += 1;
    }
    // What was decoded before the end still runs, ahead of the
    // connection's cancellation on every shard.
    enqueue_runs(shared, &mut runs);
    drop_connection(conn, shared);
}

/// Whether a read error is an ordinary transport drop (peer vanished,
/// socket shut down) rather than bytes that were wrong.
fn is_disconnect(e: &crate::proto::ProtoError) -> bool {
    matches!(
        e,
        crate::proto::ProtoError::Io(_) | crate::proto::ProtoError::ConnectionLost { .. }
    )
}

/// Whether a read error is the socket's idle timer expiring
/// ([`ServeOptions::read_timeout`]) rather than data or a drop.
fn is_idle_timeout(e: &crate::proto::ProtoError) -> bool {
    matches!(e, crate::proto::ProtoError::Io(io)
        if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
}

fn drop_connection(conn: u64, shared: &Shared) {
    if let Some(slot) = shared.conns.lock().expect("conns").remove(&conn) {
        slot.close();
    }
    if shared.stop.load(Ordering::SeqCst) {
        return; // dispatchers are exiting; shutdown merges state anyway
    }
    // Tell every shard to drop the connection's subscriptions, so the
    // sessions stop deriving deltas nobody will receive.
    broadcast(shared, || Item::Cancel { conn });
}

/// The per-connection writer: takes every wire-ordered frame queued
/// since its last write (up to [`WRITE_BURST`] bytes) under one lock,
/// encodes them into one reused buffer, and writes them with a single
/// call.  Outbox budgets are settled only after the write, so a budget
/// is released only once its bytes have left.  Socket back-pressure
/// blocks this thread only — dispatchers and readers never wait on a
/// peer.
fn write_loop(conn: u64, mut stream: TcpStream, slot: &Arc<ConnSlot>, shared: &Arc<Shared>) {
    let mut frames: Vec<(Vec<u8>, Option<StreamKey>)> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        {
            let mut st = slot.state.lock().expect("out state");
            loop {
                if !st.ready.is_empty() {
                    break;
                }
                if st.closed {
                    return;
                }
                // On a connection streaming replication, an idle writer
                // wakes on a timer and emits a heartbeat so the
                // follower's read timeout can tell an idle leader from a
                // dead link.  Ordinary connections never see one — a
                // client would misroute an unsolicited frame it is not
                // expecting.
                let hb = shared
                    .heartbeat_interval
                    .filter(|_| st.active.iter().any(|k| matches!(k, StreamKey::Repl(..))));
                match hb {
                    Some(iv) => {
                        let (guard, res) = slot.wake.wait_timeout(st, iv).expect("out state");
                        st = guard;
                        if res.timed_out() && st.ready.is_empty() && !st.closed {
                            frames.push((encode_heartbeat_payload(), None));
                            break;
                        }
                    }
                    None => st = slot.wake.wait(st).expect("out state"),
                }
            }
            // Take the burst; a frame that alone exceeds the ceiling
            // still goes, alone.
            let mut bytes = 0;
            while let Some((payload, _)) = st.ready.front() {
                let len = FRAME_HEADER + payload.len();
                if !frames.is_empty() && bytes + len > WRITE_BURST {
                    break;
                }
                bytes += len;
                frames.extend(st.ready.pop_front());
            }
        }
        // An over-limit payload cannot be framed: write what precedes
        // it, then drop the connection as a failed write would.
        let mut written = 0;
        for (payload, _) in &frames {
            if put_frame(&mut buf, payload).is_err() {
                break;
            }
            written += 1;
        }
        let whole = written == frames.len();
        let sent = !buf.is_empty() && stream.write_all(&buf).is_ok();
        buf.clear();
        buf.shrink_to(WRITE_BURST);
        let mut st = slot.state.lock().expect("out state");
        for (_, budget) in frames.drain(..) {
            let Some(key) = budget else { continue };
            if let Some(n) = st.queued.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    st.queued.remove(&key);
                }
            }
        }
        if sent {
            shared.obs.frames_out.add(written as u64);
            shared.obs.write_calls.inc();
        }
        if !(sent && whole) {
            st.closed = true;
            st.ready.clear();
            drop(st);
            drop_connection(conn, shared);
            return;
        }
    }
}

/// Hand a run of finished responses for one connection to its writer:
/// one `conns` lookup, one slot lock and at most one writer wake-up for
/// the whole run.  Each response parks under its sequence number, then
/// the consecutive responses starting at `next_seq` are queued, applying
/// each one's route change where it lands.  Any dispatcher may call this
/// for any connection; the per-connection mutex serialises the queueing
/// and the sequence numbers restore request order.
fn deliver_responses(shared: &Shared, conn: u64, run: impl IntoIterator<Item = Response>) {
    let Some(slot) = shared
        .conns
        .lock()
        .expect("conns")
        .get(&conn)
        .map(Arc::clone)
    else {
        return; // connection already gone; drop the responses
    };
    let mut st = slot.state.lock().expect("out state");
    if st.closed {
        return;
    }
    for (seq, payload, change) in run {
        st.pending.insert(seq, (payload, change));
    }
    let mut queued_any = false;
    loop {
        let next = st.next_seq;
        let Some((payload, change)) = st.pending.remove(&next) else {
            break;
        };
        st.next_seq += 1;
        st.ready.push_back((payload, None));
        queued_any = true;
        match change {
            // The `Subscribed` response just landed in wire order:
            // release the events parked behind it, oldest first.
            Some(RouteChange::Activate(key)) => {
                if let Some(frames) = st.parked.remove(&key) {
                    for (frame, counted) in frames {
                        let budget = counted.then(|| key.clone());
                        st.ready.push_back((frame, budget));
                    }
                }
                // A parked terminal frame means the stream already ended
                // (slow consumer before activation): flush it, forget
                // the key.
                if st.dead.remove(&key) {
                    st.queued.remove(&key);
                } else {
                    st.active.insert(key);
                }
            }
            Some(RouteChange::Deactivate(key)) => {
                st.active.remove(&key);
                st.parked.remove(&key);
                st.dead.remove(&key);
                st.queued.remove(&key);
            }
            None => {}
        }
    }
    drop(st);
    if queued_any {
        slot.wake.notify_one();
    }
}

/// [`deliver_responses`] for a run of one.
fn deliver_response(
    shared: &Shared,
    conn: u64,
    seq: u64,
    payload: Vec<u8>,
    change: Option<RouteChange>,
) {
    deliver_responses(shared, conn, [(seq, payload, change)]);
}

/// What became of one frame handed to a stream.
enum FrameOutcome {
    /// Queued (or parked) for delivery — or discarded because the stream
    /// already ended with a queued terminal frame.
    Delivered,
    /// The connection is gone; the stream has no consumer.
    Gone,
    /// The stream blew its outbox cap: a cap-exempt terminal frame was
    /// queued *behind* everything already owed, so the delivered prefix
    /// stays gapless and the terminal is the last frame the stream ever
    /// carries.  The caller must drop the stream at its source.
    Overflow,
}

/// Queue one unsolicited frame of stream `key` on `conn`'s writer — a
/// subscription's delta event or a replication stream's WAL frame; both
/// kinds take this one path.  The frame parks until the stream's opening
/// response has reached wire order and goes straight to the writer after
/// that.  At most `cap` frames per stream are undelivered: the frame that
/// finds the stream full is dropped, and the one `overflow` builds goes
/// behind the owed frames instead, exempt from the cap, as the stream's
/// last.  `last` marks a frame that ends its stream by itself (a
/// session-side `Terminated` event), exempt from the cap too.  A frame
/// for a stream that has already ended is discarded, uncounted.
fn deliver_stream_frame(
    shared: &Shared,
    conn: u64,
    key: &StreamKey,
    cap: usize,
    frame: Vec<u8>,
    last: bool,
    overflow: impl FnOnce() -> Vec<u8>,
) -> FrameOutcome {
    let Some(slot) = shared
        .conns
        .lock()
        .expect("conns")
        .get(&conn)
        .map(Arc::clone)
    else {
        return FrameOutcome::Gone;
    };
    let mut st = slot.state.lock().expect("out state");
    if st.closed {
        return FrameOutcome::Gone;
    }
    if st.dead.contains(key) {
        return FrameOutcome::Delivered; // stream already ended; discard
    }
    let full = !last && st.queued.get(key).copied().unwrap_or(0) >= cap;
    let frame = if full { overflow() } else { frame };
    match key {
        StreamKey::Sub(..) if full => shared.obs.slow_drops.inc(),
        StreamKey::Sub(..) => shared.obs.events_out.inc(),
        StreamKey::Repl(..) if full => {}
        StreamKey::Repl(..) => {
            shared.obs.repl_records_out.inc();
            shared.obs.repl_bytes_out.add(frame.len() as u64);
        }
    }
    let budget = !(last || full);
    let live = if budget {
        match st.queued.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                st.queued.insert(key.clone(), 1);
            }
        }
        st.active.contains(key)
    } else {
        st.dead.insert(key.clone());
        st.active.remove(key)
    };
    if live {
        st.ready.push_back((frame, budget.then(|| key.clone())));
        drop(st);
        slot.wake.notify_one();
    } else {
        st.parked
            .entry(key.clone())
            .or_default()
            .push((frame, budget));
    }
    if full {
        FrameOutcome::Overflow
    } else {
        FrameOutcome::Delivered
    }
}

/// Queue WAL frames on one replication stream of `session`, in order,
/// under [`ServeOptions::repl_outbox_cap`]; on overflow the follower gets
/// a gapless prefix ending in a `W_END`, treats that as a lost link and
/// re-requests from its own log, so nothing is lost, only re-shipped.
/// Stops at the first frame the stream does not take: `false` when the
/// stream is over.
fn ship_frames(
    shared: &Shared,
    conn: u64,
    session: &str,
    key: &StreamKey,
    frames: impl IntoIterator<Item = Vec<u8>>,
) -> bool {
    let end = || {
        encode_wal_frame_payload(&WalFrame::End {
            session: session.to_owned(),
            reason: "replication outbox overflow (follower too far behind)".to_owned(),
        })
    };
    frames.into_iter().all(|frame| {
        matches!(
            deliver_stream_frame(shared, conn, key, shared.repl_outbox_cap, frame, false, end),
            FrameOutcome::Delivered
        )
    })
}

/// Forget one replication stream target: release its idle-timeout
/// exemption, and turn the session's shipment tap off when nobody is
/// listening any more.
fn remove_repl_target<F: ComponentFamily + Send + Sync>(
    repl_routes: &mut BTreeMap<String, Vec<(u64, StreamKey)>>,
    service: &mut Service<F>,
    shared: &Shared,
    session: &str,
    conn: u64,
    key: &StreamKey,
) {
    let Some(targets) = repl_routes.get_mut(session) else {
        return;
    };
    let before = targets.len();
    targets.retain(|(c, k)| !(*c == conn && k == key));
    if targets.len() < before {
        repl_conn_remove(shared, conn);
        shared.obs.repl_streams_closed.inc();
    }
    if targets.is_empty() {
        repl_routes.remove(session);
        if let Some(s) = service.session_mut(session) {
            s.set_repl_tap(false);
        }
    }
}

/// One read-your-writes wait parked at a dispatcher (see
/// [`Item::ReadAt`]): re-evaluated after every drain, expired by a timed
/// queue wait when the shard goes idle.
struct WaitingRead {
    conn: u64,
    seq: u64,
    session: String,
    view: String,
    gen: u64,
    min_seq: u64,
    deadline: Instant,
}

fn dispatch_loop<F: ComponentFamily + Send + Sync + 'static>(
    shard: usize,
    mut service: Service<F>,
    shared: &Shared,
) -> Service<F> {
    // This shard's distributed-span sink (configured with the serving
    // address at bind); requests without a sampled trace context cost
    // one `None` check here and nothing else.
    let dtracer = shared.registries[shard].dtracer();
    // Where each live subscription's events go.  Complete for this
    // shard: a session lives on exactly one shard, so its `Subscribe`s
    // were all answered here.
    let mut routes: BTreeMap<StreamKey, u64> = BTreeMap::new();
    // Live replication streams per session of this shard's partition:
    // which connections tail it, under which stream key.  A session's
    // shipment tap is on exactly while it has an entry here.
    let mut repl_routes: BTreeMap<String, Vec<(u64, StreamKey)>> = BTreeMap::new();
    // Read-your-writes waits parked at this shard.
    let mut waiting_reads: Vec<WaitingRead> = Vec::new();
    loop {
        let drained: Vec<Item> = {
            let sq = &shared.shards[shard];
            let mut q = sq.queue.lock().expect("queue");
            while q.is_empty() && !shared.stop.load(Ordering::SeqCst) {
                // With read-your-writes waits parked here, sleep only
                // until the nearest deadline so an idle shard still
                // turns expiry into a typed `Lagging` answer.
                let Some(next) = waiting_reads.iter().map(|w| w.deadline).min() else {
                    q = sq.wake.wait(q).expect("queue");
                    continue;
                };
                let dur = next.saturating_duration_since(Instant::now());
                if dur.is_zero() {
                    break;
                }
                q = sq.wake.wait_timeout(q, dur).expect("queue").0;
            }
            if q.is_empty() && shared.stop.load(Ordering::SeqCst) {
                // Drained and done.
                return service;
            }
            q.drain(..).collect()
        };
        // Split the drain into the dispatchable batch, the barriers, and
        // connection cancellations, remembering where each answer goes.
        let mut batch: Vec<(String, SessionRequest, Option<TraceCtx>)> = Vec::new();
        let mut slots: Vec<(u64, u64, usize)> = Vec::new();
        let mut barriers = Vec::new();
        let mut cancels: Vec<u64> = Vec::new();
        let mut replicates: Vec<(u64, u64, String, u64, u64)> = Vec::new();
        let mut applies: Vec<(ApplyBatch, mpsc::Sender<Vec<ApplyReport>>)> = Vec::new();
        let mut promotes: Vec<mpsc::Sender<Result<(), String>>> = Vec::new();
        let mut adopts: Vec<AdoptSlot> = Vec::new();
        let mut retargets: Vec<String> = Vec::new();
        for item in drained {
            match item {
                Item::Dispatch {
                    conn,
                    seq,
                    session,
                    req,
                    trace,
                } => {
                    // The queue wait just ended: record it as a span
                    // parented under the client's send span, and thread
                    // the child context so the session's spans parent
                    // under the wait.  An unsampled context records
                    // nothing and dispatches exactly like `None`.
                    let ctx = trace.and_then(|(ctx, at)| {
                        let dur = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let start = wall_clock_ns().saturating_sub(dur);
                        match dtracer.record(ctx, "shard.queue", start, dur) {
                            0 => None,
                            span => Some(TraceCtx {
                                trace_id: ctx.trace_id,
                                parent_span: span,
                            }),
                        }
                    });
                    slots.push((conn, seq, batch.len()));
                    batch.push((session, req, ctx));
                }
                Item::Barrier {
                    conn,
                    seq,
                    verb,
                    left,
                    rows,
                } => barriers.push((conn, seq, verb, left, rows)),
                Item::Cancel { conn } => cancels.push(conn),
                Item::Replicate {
                    conn,
                    seq,
                    session,
                    from_seq,
                    gen,
                } => replicates.push((conn, seq, session, from_seq, gen)),
                Item::Apply { records, done } => applies.push((records, done)),
                Item::Promote { done } => promotes.push(done),
                Item::Adopt {
                    name,
                    session,
                    done,
                } => adopts.push((name, session, done)),
                Item::ReadAt {
                    conn,
                    seq,
                    session,
                    view,
                    gen,
                    min_seq,
                    deadline,
                } => waiting_reads.push(WaitingRead {
                    conn,
                    seq,
                    session,
                    view,
                    gen,
                    min_seq,
                    deadline,
                }),
                Item::Retarget { leader } => retargets.push(leader),
            }
        }
        // Adoptions land before anything else in this drain that might
        // name the new session (a `Replicate`, a dispatch, a listing).
        for (name, session, done) in adopts {
            let result = match session.downcast::<Session<F>>() {
                Ok(s) => service.add_session(name, *s).map_err(|e| e.to_string()),
                Err(_) => Err("adopted session is not this service's family type".to_owned()),
            };
            let _ = done.send(result);
        }
        // Retargets repoint read-only sessions at the new root leader
        // before this drain's dispatches run, so a `NotLeader` rejection
        // never names an address already known to be stale.
        for leader in retargets {
            let names: Vec<String> = service.session_names().map(str::to_owned).collect();
            for name in names {
                if let Some(s) = service.session_mut(&name) {
                    if s.leader_addr().is_some() {
                        s.set_read_only(Some(leader.clone()));
                    }
                }
            }
        }
        // A dead connection's subscriptions stop publishing before the
        // batch runs — nobody is listening.
        for conn in cancels {
            let gone: Vec<StreamKey> = routes
                .iter()
                .filter(|&(_, c)| *c == conn)
                .map(|(k, _)| k.clone())
                .collect();
            for key in gone {
                routes.remove(&key);
                if let StreamKey::Sub(session, sub) = &key {
                    if let Some(session) = service.session_mut(session) {
                        session.drop_subscription(*sub);
                    }
                }
            }
            // …and its replication streams stop shipping.
            let tailed: Vec<(String, StreamKey)> = repl_routes
                .iter()
                .flat_map(|(session, targets)| {
                    targets
                        .iter()
                        .filter(|(c, _)| *c == conn)
                        .map(|(_, k)| (session.clone(), k.clone()))
                })
                .collect();
            for (session, key) in tailed {
                remove_repl_target(&mut repl_routes, &mut service, shared, &session, conn, &key);
            }
        }
        // Open replication streams before running the batch: the
        // catch-up covers the log as it stands, and the tap (enabled
        // here, under the single-owner dispatcher) captures everything
        // the batch appends — no gap, no overlap.
        for (conn, seq, session, from_seq, follower_gen) in replicates {
            let plan = match service.session_mut(&session) {
                None => Err(format!("unknown session {session:?}")),
                Some(s) if !s.is_durable() => {
                    Err(format!("session {session:?} keeps no write-ahead log"))
                }
                Some(s) => {
                    s.set_repl_tap(true);
                    s.replication_catchup(from_seq, follower_gen)
                        .map_err(|e| e.to_string())
                }
            };
            let (gen, record0, frames, start_seq) = match plan {
                Err(detail) | Ok(CatchupPlan::Refused { detail }) => {
                    if !repl_routes.contains_key(&session) {
                        if let Some(s) = service.session_mut(&session) {
                            s.set_repl_tap(false);
                        }
                    }
                    let ack = ReplicateAck::Refused { detail };
                    deliver_response(shared, conn, seq, encode_replicate_ack_payload(&ack), None);
                    continue;
                }
                Ok(CatchupPlan::Tail { gen, frames }) => (gen, None, frames, from_seq),
                Ok(CatchupPlan::Reset {
                    gen,
                    record0,
                    frames,
                }) => (gen, Some(record0), frames, 0),
            };
            let last_seq = service
                .session_mut(&session)
                .map_or(0, |s| s.wal_last_seq());
            let key = StreamKey::Repl(session.clone(), seq);
            repl_routes
                .entry(session.clone())
                .or_default()
                .push((conn, key.clone()));
            repl_conn_add(shared, conn);
            shared.obs.repl_streams_opened.inc();
            let ack = ReplicateAck::Streaming {
                gen,
                start_seq,
                last_seq,
            };
            deliver_response(
                shared,
                conn,
                seq,
                encode_replicate_ack_payload(&ack),
                Some(RouteChange::Activate(key.clone())),
            );
            // Catch-up frames park behind the ack and flush with it.
            let reset = record0.map(|record0| {
                encode_wal_frame_payload(&WalFrame::Reset {
                    session: session.clone(),
                    gen,
                    record0,
                })
            });
            let records = frames.into_iter().map(|bytes| {
                encode_wal_frame_payload(&WalFrame::Record {
                    session: session.clone(),
                    gen,
                    bytes,
                    trace: None,
                })
            });
            if !ship_frames(
                shared,
                conn,
                &session,
                &key,
                reset.into_iter().chain(records),
            ) {
                remove_repl_target(&mut repl_routes, &mut service, shared, &session, conn, &key);
            }
        }
        if !batch.is_empty() || !applies.is_empty() {
            let sessions: Vec<String> = batch.iter().map(|(s, _, _)| s.clone()).collect();
            // The snapshot gate brackets the batch and its event drain:
            // a concurrent metrics probe snapshots this shard either
            // before or after it, never mid-flight.
            let (results, events) = {
                let _gate = shared.snap_gates[shard].lock().expect("snap gate");
                // (Follower side) leader shipments land first, in the
                // tail loop's queue order — the leader's commit order.
                // The reports go straight back so the tail loop can
                // resume from the sessions' authoritative positions.
                for (records, done) in applies {
                    let _ = done.send(apply_batch(&mut service, records));
                }
                let results = if batch.is_empty() {
                    Vec::new()
                } else {
                    service.dispatch_traced(batch)
                };
                let events = service.drain_events();
                (results, events)
            };
            // Learn this batch's route *insertions* before touching any
            // event, so events for just-opened subscriptions find their
            // connection.  Removals wait until the events are out: an
            // `Unsubscribe` in this batch closed its subscription at the
            // session, so every drained event for it was committed by an
            // *earlier* request — unlearning first would misroute those
            // events into the void.
            let mut changes: Vec<Option<RouteChange>> = Vec::with_capacity(slots.len());
            let mut unlearned: Vec<StreamKey> = Vec::new();
            for &(conn, _seq, i) in &slots {
                changes.push(match &results[i] {
                    Ok(SessionResponse::Subscribed { sub, .. }) => {
                        let key = StreamKey::Sub(sessions[i].clone(), *sub);
                        routes.insert(key.clone(), conn);
                        Some(RouteChange::Activate(key))
                    }
                    Ok(SessionResponse::Unsubscribed { sub }) => {
                        let key = StreamKey::Sub(sessions[i].clone(), *sub);
                        unlearned.push(key.clone());
                        Some(RouteChange::Deactivate(key))
                    }
                    _ => None,
                });
            }
            // Events go out before responses: every event here was
            // committed by a request in this batch, so it precedes — in
            // stream terms — any `Unsubscribed` answered below, and the
            // writer's parking keeps it behind its own `Subscribed`.
            for (session, event) in events {
                let key = StreamKey::Sub(session.clone(), event.sub);
                let Some(&conn) = routes.get(&key) else {
                    // No consumer (its connection died, or it was
                    // slow-dropped moments ago): end the stream at the
                    // session too.
                    if let Some(s) = service.session_mut(&session) {
                        s.drop_subscription(event.sub);
                    }
                    continue;
                };
                // A session-side termination (e.g. the view stopped being
                // a component) ends the stream by itself.  An event that
                // blows the outbox cap is replaced by a `SlowConsumer`
                // terminal carrying its sequence, so the client sees
                // exactly where the stream was cut.
                let last = matches!(event.kind, DeltaKind::Terminated { .. });
                let frame = encode_event_payload(&session, &event);
                let slow = || {
                    let notice = DeltaEvent {
                        sub: event.sub,
                        view: event.view.clone(),
                        seq: event.seq,
                        kind: DeltaKind::Terminated {
                            reason: TerminateReason::SlowConsumer,
                        },
                    };
                    encode_event_payload(&session, &notice)
                };
                let cap = shared.event_outbox_cap;
                match deliver_stream_frame(shared, conn, &key, cap, frame, last, slow) {
                    FrameOutcome::Delivered => {
                        if last {
                            routes.remove(&key);
                        }
                    }
                    FrameOutcome::Gone | FrameOutcome::Overflow => {
                        routes.remove(&key);
                        if let Some(s) = service.session_mut(&session) {
                            s.drop_subscription(event.sub);
                        }
                    }
                }
            }
            for key in unlearned {
                routes.remove(&key);
            }
            // Responses go out one run per connection.
            let mut runs: BTreeMap<u64, Vec<Response>> = BTreeMap::new();
            for ((conn, seq, i), change) in slots.into_iter().zip(changes) {
                let payload = encode_result_payload(&results[i]);
                runs.entry(conn).or_default().push((seq, payload, change));
            }
            for (conn, run) in runs {
                deliver_responses(shared, conn, run);
            }
        }
        // Ship what the batch appended (records, plus any checkpoint's
        // reset image) to every live replication stream.  The tap only
        // runs while `repl_routes` has the session, so this drain sees
        // exactly the records committed since the stream's catch-up.
        if !repl_routes.is_empty() {
            let tapped: Vec<String> = repl_routes.keys().cloned().collect();
            for session in tapped {
                let Some(s) = service.session_mut(&session) else {
                    continue;
                };
                let shipments = s.take_wal_shipments();
                if shipments.is_empty() {
                    continue;
                }
                let frames: Vec<Vec<u8>> = shipments
                    .into_iter()
                    .map(|sh| match sh {
                        WalShipment::Record { gen, bytes, trace } => {
                            // A traced shipment gets a "repl.ship"
                            // instant under the producing append span,
                            // and the shipped context re-parents the
                            // follower's apply span under the shipment
                            // (one instant per record, shared by every
                            // downstream target).
                            let trace = trace.map(|(trace_id, parent)| {
                                let ctx = TraceCtx {
                                    trace_id,
                                    parent_span: parent,
                                };
                                match dtracer.instant(ctx, "repl.ship") {
                                    0 => (trace_id, parent),
                                    ship => (trace_id, ship),
                                }
                            });
                            encode_wal_frame_payload(&WalFrame::Record {
                                session: session.clone(),
                                gen,
                                bytes,
                                trace,
                            })
                        }
                        WalShipment::Reset { gen, record0 } => {
                            encode_wal_frame_payload(&WalFrame::Reset {
                                session: session.clone(),
                                gen,
                                record0,
                            })
                        }
                    })
                    .collect();
                let targets: Vec<(u64, StreamKey)> =
                    repl_routes.get(&session).cloned().unwrap_or_default();
                for (conn, key) in targets {
                    if !ship_frames(shared, conn, &session, &key, frames.iter().cloned()) {
                        remove_repl_target(
                            &mut repl_routes,
                            &mut service,
                            shared,
                            &session,
                            conn,
                            &key,
                        );
                    }
                }
            }
        }
        // Re-evaluate read-your-writes waits against the positions this
        // drain's applies and batch just advanced; answer what is
        // satisfied, refuse (typed) what expired, keep the rest parked.
        if !waiting_reads.is_empty() {
            let now = Instant::now();
            let mut parked = Vec::new();
            for w in waiting_reads.drain(..) {
                let Some(pos) = service
                    .session(&w.session)
                    .map(|s| (s.wal_gen(), s.wal_last_seq()))
                else {
                    let err: Result<SessionResponse, DispatchError> =
                        Err(DispatchError::UnknownSession(w.session.clone()));
                    deliver_response(shared, w.conn, w.seq, encode_result_payload(&err), None);
                    continue;
                };
                if pos.0 == w.gen && pos.1 >= w.min_seq {
                    // Caught up: answer exactly as a plain `Read` would,
                    // under the snapshot gate like any batch.
                    let results = {
                        let _gate = shared.snap_gates[shard].lock().expect("snap gate");
                        service.dispatch(vec![(
                            w.session.clone(),
                            SessionRequest::Read { view: w.view },
                        )])
                    };
                    deliver_response(
                        shared,
                        w.conn,
                        w.seq,
                        encode_result_payload(&results[0]),
                        None,
                    );
                } else if now >= w.deadline {
                    let err: Result<SessionResponse, DispatchError> = Err(DispatchError::Lagging {
                        want_gen: w.gen,
                        want_seq: w.min_seq,
                        gen: pos.0,
                        seq: pos.1,
                    });
                    deliver_response(shared, w.conn, w.seq, encode_result_payload(&err), None);
                } else {
                    parked.push(w);
                }
            }
            waiting_reads = parked;
        }
        // Barriers pass only after the batch drained alongside them has
        // been applied: each shard adds its durable positions, so when
        // the countdown hits zero every shard has applied everything
        // enqueued before the barrier, and the last one through answers.
        for (conn, seq, verb, left, rows) in barriers {
            rows.lock()
                .expect("barrier rows")
                .extend(service.session_names().filter_map(|name| {
                    let s = service.session(name).filter(|s| s.is_durable())?;
                    Some((name.to_owned(), s.wal_gen(), s.wal_last_seq()))
                }));
            if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                let rows = std::mem::take(&mut *rows.lock().expect("barrier rows"));
                deliver_response(shared, conn, seq, barrier_reply(shared, verb, rows), None);
            }
        }
        // (Follower side) promotion barrier, dead last: every `Apply`
        // drained alongside it has already landed, so fsync this
        // partition's logs and flip its sessions writable.
        for done in promotes {
            let mut result: Result<(), String> = Ok(());
            let names: Vec<String> = service.session_names().map(str::to_owned).collect();
            for name in names {
                let Some(s) = service.session_mut(&name) else {
                    continue;
                };
                if let Err(e) = s.sync_wal() {
                    result = Err(format!("{name}: {e}"));
                    break;
                }
                s.set_read_only(None);
            }
            let _ = done.send(result);
        }
    }
}

/// The reply to a barrier's `verb`, built by the last shard through from
/// every shard's durable `rows`.
fn barrier_reply(shared: &Shared, verb: Verb, mut rows: Vec<Row>) -> Vec<u8> {
    rows.sort();
    match verb {
        Verb::Metrics => {
            let parts: Vec<MetricsSnapshot> = shared
                .snap_gates
                .iter()
                .zip(&shared.registries)
                .map(|(gate, registry)| {
                    let _gate = gate.lock().expect("snap gate");
                    registry.snapshot()
                })
                .collect();
            encode_metrics_response_payload(&MetricsSnapshot::merged(parts.iter()))
        }
        Verb::Trace => {
            let parts: Vec<TraceSnapshot> = shared
                .registries
                .iter()
                .map(|r| r.dtracer().drain())
                .collect();
            encode_trace_response_payload(&TraceSnapshot::merged(parts.iter()))
        }
        Verb::Sessions => encode_sessions_reply_payload(&SessionsReply {
            leader: shared.leader_hint.lock().expect("leader hint").clone(),
            sessions: rows.into_iter().map(|(name, ..)| name).collect(),
        }),
        Verb::Topology => encode_topology_reply_payload(&assemble_topology(shared, rows)),
    }
}

/// Fold the sorted `(session, gen, applied)` rows and the shared link
/// state into one [`TopologyReply`] — the `Topology` verb's answer.
fn assemble_topology(shared: &Shared, rows: Vec<(String, u64, u64)>) -> TopologyReply {
    let now = Instant::now();
    let topo = shared.topo.lock().expect("topo");
    let role = if topo.upstream.is_some() {
        TopoRole::Follower
    } else if topo.promoted {
        TopoRole::Promoted
    } else {
        TopoRole::Root
    };
    let heartbeat_age_ms = topo
        .upstream
        .as_ref()
        .and(topo.last_frame)
        .map(|t| ms_since(now, t));
    let root = shared.leader_hint.lock().expect("leader hint").clone();
    let repl_streams = shared
        .repl_conns
        .lock()
        .expect("repl conns")
        .values()
        .map(|&n| n as u64)
        .sum();
    let subscribers = shared
        .conns
        .lock()
        .expect("conns")
        .values()
        .map(|slot| {
            let st = slot.state.lock().expect("out state");
            st.active
                .iter()
                .filter(|k| matches!(k, StreamKey::Sub(..)))
                .count() as u64
        })
        .sum();
    let sessions = rows
        .into_iter()
        .map(|(name, gen, applied)| {
            let (target, lag_age_ms) = match topo.links.get(&name) {
                // The upstream may have advanced past what we applied;
                // never report a target *behind* the local position.
                Some(&(target, at)) => (target.max(applied), ms_since(now, at)),
                // No link: a root session is its own target and has no
                // shipment age.
                None => (applied, u64::MAX),
            };
            TopoSession {
                name,
                gen,
                applied,
                target,
                lag_age_ms,
            }
        })
        .collect();
    TopologyReply {
        role,
        upstream: topo.upstream.clone(),
        root,
        heartbeat_age_ms,
        repl_streams,
        subscribers,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_event_payload, decode_wal_frame_payload};
    use compview_relation::{Instance, RelDecl, Signature};

    /// A `Shared` with no shards and no threads: just enough for the
    /// writer-side delivery functions under test.
    fn test_shared() -> Arc<Shared> {
        let registry = Registry::new();
        Arc::new(Shared {
            shards: Vec::new(),
            snap_gates: Vec::new(),
            registries: Vec::new(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            readers: Mutex::new(Vec::new()),
            writers: Mutex::new(Vec::new()),
            event_outbox_cap: 1,
            repl_outbox_cap: 1,
            read_timeout: None,
            heartbeat_interval: None,
            repl_conns: Mutex::new(BTreeMap::new()),
            leader_hint: Mutex::new(None),
            topo: Mutex::new(TopoState::default()),
            obs: ServeObs::new(&registry),
        })
    }

    /// A conn slot over a real loopback socket pair (no writer thread, so
    /// queued frames stay inspectable in `ready`).  Returns the slot and
    /// the far end (kept alive so the socket stays up).
    fn test_conn(shared: &Shared, conn: u64) -> (Arc<ConnSlot>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let far = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (near, _) = listener.accept().expect("accept");
        let slot = Arc::new(ConnSlot {
            state: Mutex::new(OutState {
                next_seq: 0,
                pending: BTreeMap::new(),
                ready: VecDeque::new(),
                active: BTreeSet::new(),
                parked: BTreeMap::new(),
                dead: BTreeSet::new(),
                queued: BTreeMap::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            stream: near,
        });
        shared
            .conns
            .lock()
            .expect("conns")
            .insert(conn, Arc::clone(&slot));
        (slot, far)
    }

    /// One stream of each kind: a subscription's delta events and a
    /// replication stream's WAL frames.
    fn streams() -> [StreamKey; 2] {
        [
            StreamKey::Sub("s".to_owned(), 1),
            StreamKey::Repl("s".to_owned(), 0),
        ]
    }

    /// Data frame `n` of stream `key`: a delta event or a WAL record.
    fn frame_of(key: &StreamKey, n: u64) -> Vec<u8> {
        match key {
            StreamKey::Sub(session, sub) => {
                let empty = Instance::null_model(&Signature::new([RelDecl::new("R", ["A"])]));
                let event = DeltaEvent {
                    sub: *sub,
                    view: "v".to_owned(),
                    seq: n,
                    kind: DeltaKind::Rows {
                        added: empty.clone(),
                        removed: empty,
                    },
                };
                encode_event_payload(session, &event)
            }
            StreamKey::Repl(session, _) => encode_wal_frame_payload(&WalFrame::Record {
                session: session.clone(),
                gen: 1,
                bytes: vec![n as u8; 4],
                trace: None,
            }),
        }
    }

    /// The overflow terminal of stream `key`: `SlowConsumer` or `W_END`.
    fn terminal_of(key: &StreamKey) -> Vec<u8> {
        match key {
            StreamKey::Sub(session, sub) => {
                let notice = DeltaEvent {
                    sub: *sub,
                    view: "v".to_owned(),
                    seq: 0,
                    kind: DeltaKind::Terminated {
                        reason: TerminateReason::SlowConsumer,
                    },
                };
                encode_event_payload(session, &notice)
            }
            StreamKey::Repl(session, _) => encode_wal_frame_payload(&WalFrame::End {
                session: session.clone(),
                reason: "overflow".to_owned(),
            }),
        }
    }

    /// Which frame of `key`'s stream `frame` is: `Some(n)` for data frame
    /// `n`, `None` for the overflow terminal.
    fn frame_no(key: &StreamKey, frame: &[u8]) -> Option<u64> {
        match key {
            StreamKey::Sub(..) => match decode_event_payload(frame).expect("event frame").1 {
                DeltaEvent {
                    kind: DeltaKind::Rows { .. },
                    seq,
                    ..
                } => Some(seq),
                DeltaEvent {
                    kind:
                        DeltaKind::Terminated {
                            reason: TerminateReason::SlowConsumer,
                        },
                    ..
                } => None,
                other => panic!("unexpected event {other:?}"),
            },
            StreamKey::Repl(..) => match decode_wal_frame_payload(frame).expect("wal frame") {
                WalFrame::Record { bytes, .. } => Some(u64::from(bytes[0])),
                WalFrame::End { .. } => None,
                other => panic!("unexpected WAL frame {other:?}"),
            },
        }
    }

    /// Hand data frame `n` to stream `key` under an outbox cap of 2.
    fn deliver(shared: &Shared, conn: u64, key: &StreamKey, n: u64) -> FrameOutcome {
        let frame = frame_of(key, n);
        deliver_stream_frame(shared, conn, key, 2, frame, false, || terminal_of(key))
    }

    /// `(serve.events_out, serve.sub.slow_drops, serve.repl.records_out)`.
    fn counts(shared: &Shared) -> (u64, u64, u64) {
        (
            shared.obs.events_out.get(),
            shared.obs.slow_drops.get(),
            shared.obs.repl_records_out.get(),
        )
    }

    /// What [`counts`] must read once stream `key` accepted `frames` data
    /// frames and overflowed once.
    fn counted(key: &StreamKey, frames: u64) -> (u64, u64, u64) {
        match key {
            StreamKey::Sub(..) => (frames, 1, 0),
            StreamKey::Repl(..) => (0, 0, frames),
        }
    }

    /// Overflow while the stream is still parked (its opening response
    /// not yet in wire order), for both stream kinds: the terminal queues
    /// BEHIND the parked frames, and activation flushes the owed frames
    /// first, terminal last — a gapless prefix, exactly what the delivery
    /// contract promises.
    #[test]
    fn repl_overflow_while_parked_flushes_owed_frames_then_end() {
        for key in streams() {
            let shared = test_shared();
            let (slot, _far) = test_conn(&shared, 7);
            for n in 0..2 {
                assert!(matches!(
                    deliver(&shared, 7, &key, n),
                    FrameOutcome::Delivered
                ));
            }
            // One past the cap: refused, stream marked dead.
            assert!(matches!(
                deliver(&shared, 7, &key, 2),
                FrameOutcome::Overflow
            ));
            assert_eq!(counts(&shared), counted(&key, 2), "{key:?}");
            // Anything further is discarded without growing the backlog
            // or counting as sent.
            assert!(matches!(
                deliver(&shared, 7, &key, 3),
                FrameOutcome::Delivered
            ));
            assert_eq!(counts(&shared), counted(&key, 2), "{key:?}");
            assert_eq!(
                slot.state.lock().expect("state").parked[&key].len(),
                3,
                "{key:?}: two owed frames plus the terminal"
            );

            // The opening response lands in wire order: owed frames flush
            // oldest-first, the terminal last, and the dead stream is
            // forgotten.
            deliver_response(
                &shared,
                7,
                0,
                vec![0xAA],
                Some(RouteChange::Activate(key.clone())),
            );
            let st = slot.state.lock().expect("state");
            let frames: Vec<&Vec<u8>> = st.ready.iter().map(|(f, _)| f).collect();
            assert_eq!(frames.len(), 4, "{key:?}: response + 2 frames + terminal");
            assert_eq!(frames[0], &vec![0xAA]);
            assert_eq!(frame_no(&key, frames[1]), Some(0));
            assert_eq!(frame_no(&key, frames[2]), Some(1));
            assert_eq!(frame_no(&key, frames[3]), None, "{key:?}: terminal last");
            assert!(!st.dead.contains(&key), "activation reaps the dead key");
            assert!(!st.active.contains(&key), "an ended stream never activates");
            assert!(!st.queued.contains_key(&key), "budget forgotten");
        }
    }

    /// Overflow on an already-active stream, for both stream kinds: the
    /// terminal goes to the wire queue behind the frames already owed
    /// there.
    #[test]
    fn repl_overflow_while_active_queues_end_behind_owed_frames() {
        for key in streams() {
            let shared = test_shared();
            let (slot, _far) = test_conn(&shared, 3);
            deliver_response(
                &shared,
                3,
                0,
                vec![0xAA],
                Some(RouteChange::Activate(key.clone())),
            );
            for n in 0..2 {
                assert!(matches!(
                    deliver(&shared, 3, &key, n),
                    FrameOutcome::Delivered
                ));
            }
            assert!(matches!(
                deliver(&shared, 3, &key, 2),
                FrameOutcome::Overflow
            ));
            assert!(matches!(
                deliver(&shared, 3, &key, 3),
                FrameOutcome::Delivered
            ));
            assert_eq!(counts(&shared), counted(&key, 2), "{key:?}");
            let st = slot.state.lock().expect("state");
            let frames: Vec<&Vec<u8>> = st.ready.iter().map(|(f, _)| f).collect();
            assert_eq!(frames.len(), 4, "{key:?}: response + 2 frames + terminal");
            assert_eq!(frame_no(&key, frames[1]), Some(0));
            assert_eq!(frame_no(&key, frames[2]), Some(1));
            assert_eq!(frame_no(&key, frames[3]), None, "{key:?}: terminal last");
            assert!(st.dead.contains(&key));
            assert!(!st.active.contains(&key));
        }
    }
}
