//! The wire format: CRC-checksummed, length-prefixed frames over the
//! canonical binary codec of `compview_session::wal`.
//!
//! ```text
//! connection := handshake frame*     handshake := "CVRPC1", sent by BOTH
//!                                                 sides before anything
//! frame      := len crc payload      len  := u32 LE, payload byte count
//!                                    crc  := u32 LE, CRC-32 (IEEE) of
//!                                            the payload bytes
//! ```
//!
//! Request payloads are `str session ++ wal::encode_request` bytes;
//! response payloads are `wal::encode_result` bytes — the *same* codec
//! the write-ahead log uses, so a request's wire form and its log-record
//! form are byte-identical.  Every frame is gated by its checksum and a
//! hard size limit ([`MAX_FRAME`]) before a single payload byte is
//! interpreted, mirroring how WAL recovery treats on-disk records:
//! corruption is detected and refused, never obeyed, and never a panic.

use compview_obs::{
    DecodeMetricsError, DecodeTraceError, MetricsSnapshot, TraceCtx, TraceSnapshot,
};
use compview_relation::binio::{self, Dec, DecodeError};
use compview_session::wal::{self, crc32};
use compview_session::{DispatchError, SessionRequest, SessionResponse};
use std::io::{self, Read, Write};

/// The 6-byte connection handshake ("CVRPC" + protocol version 1),
/// exchanged in both directions before the first frame.
pub const HANDSHAKE: &[u8; 6] = b"CVRPC1";

/// Hard per-frame payload limit (64 MiB): a frame declaring more is
/// refused *before* any allocation, so a corrupt or hostile length
/// prefix cannot balloon memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Bytes of framing ahead of the payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 4 + 4;

/// Read-buffer size of every frame reader — the server's connection
/// readers, [`crate::Client`], and a follower's leader link: one `read`
/// takes in a whole burst of small frames.  Fixed per connection, and
/// its pages are touched only as bytes arrive.
pub(crate) const READ_BUFFER: usize = 16 << 10;

/// Ceiling of one coalesced socket write, shared by both ends: the
/// server's connection writer and [`crate::Client`] pack queued frames
/// into one buffer up to this many bytes (a single larger frame still
/// goes alone), so one burst costs one `write` system call.
pub(crate) const WRITE_BURST: usize = 64 << 10;

/// Marker byte of a `Metrics` request payload and of its response.
///
/// A metrics request is the single byte `[KIND_METRICS]` — no session
/// name, because the metrics registry aggregates the whole service.  It
/// cannot collide with an ordinary request payload: those open with a
/// u32 length-prefixed session name, so they are at least 4 bytes.  The
/// response is `KIND_METRICS ++ MetricsSnapshot::encode()` and is
/// answered in per-connection FIFO order like every other request.
pub const KIND_METRICS: u8 = 3;

/// Marker byte of a server-push **delta event** frame.
///
/// Event frames are unsolicited: once a `Subscribe` request is answered,
/// the server interleaves `[KIND_EVENT] ++ str session ++ event` frames
/// into the connection's response stream.  They cannot collide with
/// result payloads (those open with `KIND_RESPONSE` = 2) or metrics
/// responses ([`KIND_METRICS`]).  Ordering contract: a subscription's
/// events arrive after its `Subscribed` response, in sequence order,
/// with no gaps; after an `Unsubscribed` response or a terminal event,
/// no further frames carry that subscription id.
pub const KIND_EVENT: u8 = 4;

/// Marker byte of a **replication** handshake: `Replicate` requests and
/// their acks.
///
/// A `Replicate` request payload is
/// `[0xFF, 0xFF, 0xFF, 0xFF] ++ [KIND_REPLICATE] ++ str session ++
/// u64 from_seq ++ u64 gen`: the four `0xFF` bytes sit where an ordinary
/// request carries its session-name length, and no real name can be
/// `0xFFFF_FFFF` bytes long (payloads are capped at [`MAX_FRAME`]), so
/// the discrimination is unambiguous.  The solicited ack is
/// `[KIND_REPLICATE] ++ status ...` — see [`ReplicateAck`].
pub const KIND_REPLICATE: u8 = 5;

/// Marker byte of an unsolicited **WAL shipment** frame, pushed by a
/// leader to a follower that sent `Replicate`.  Second byte is one of
/// [`W_RECORD`], [`W_RESET`], [`W_END`]; see [`WalFrame`].
pub const KIND_WAL: u8 = 6;

/// [`KIND_WAL`] subtype: one raw framed WAL record, shipped verbatim so
/// the follower can CRC-verify and byte-mirror it.
pub const W_RECORD: u8 = 1;

/// [`KIND_WAL`] subtype: the leader checkpointed — a raw framed record-0
/// snapshot image the follower must reset onto.
pub const W_RESET: u8 = 2;

/// [`KIND_WAL`] subtype: the leader terminated this session's stream
/// (e.g. the follower fell too far behind its outbox cap).  The follower
/// treats it as a disconnect and re-requests.
pub const W_END: u8 = 3;

/// A single-byte keep-alive frame, sent by the leader on connections
/// with active replication streams so a follower's read timeout can tell
/// "idle leader" from "dead link".  Never sent to ordinary clients —
/// they would misroute it as a solicited response.
pub const KIND_HEARTBEAT: u8 = 7;

/// Marker byte of a **read-your-writes** request and the first byte of
/// nothing else: a `ReadAt` is an ordinary `Read` that names a durable
/// position `(gen, min_seq)` the server must have applied before
/// answering, plus a wait budget.  The request payload is
/// `[0xFF × 4] ++ [KIND_READAT] ++ str session ++ str view ++ u64 gen ++
/// u64 min_seq ++ u64 wait_ms` (same sentinel discrimination as
/// `Replicate`).  The solicited answer is an ordinary result payload —
/// the view's bytes exactly as a plain `Read` would produce them, or a
/// typed `Lagging` dispatch error when the deadline passes first.
pub const KIND_READAT: u8 = 8;

/// Marker byte of a **session-listing** request and of its reply: the
/// request payload is `[0xFF × 4] ++ [KIND_SESSIONS]`; the solicited
/// reply is `[KIND_SESSIONS] ++ str leader ++ u64 count ++ str × count`
/// — the address of the *root* leader this node forwards writes to
/// (empty when this node itself accepts writes) and the names of every
/// durable session this node serves.  Followers poll it mid-tail to
/// discover sessions created upstream after they started.
pub const KIND_SESSIONS: u8 = 9;

/// Marker byte of a **traced** dispatch request: an ordinary request
/// payload wrapped with a distributed-trace context.  The payload is
/// `[0xFF × 4] ++ [KIND_TRACED] ++ u64 trace_id ++ u64 parent_span ++
/// <ordinary request payload>` (same sentinel discrimination as
/// `Replicate`).  Untagged request frames are **unchanged** — an old
/// client's bytes decode and dispatch byte-identically, and a client
/// that never traces never pays the 21-byte wrapper.
pub const KIND_TRACED: u8 = 10;

/// Marker byte of a **trace-drain** request and of its reply: the
/// request payload is `[0xFF × 4] ++ [KIND_TRACE]`; the solicited reply
/// is `[KIND_TRACE] ++ TraceSnapshot::encode()` — the node's buffered
/// distributed spans, drained (the buffer empties, like a log tail).
pub const KIND_TRACE: u8 = 11;

/// Marker byte of a **topology introspection** request and of its
/// reply: the request payload is `[0xFF × 4] ++ [KIND_TOPOLOGY]`; the
/// solicited reply is a [`TopologyReply`] — this node's role, upstream
/// and root addresses, heartbeat freshness, per-session replication
/// positions, and live downstream stream / subscriber counts.
pub const KIND_TOPOLOGY: u8 = 12;

/// [`KIND_WAL`] subtype: a [`W_RECORD`] whose producing write carried a
/// sampled trace context.  Layout puts the two context words *before*
/// the raw record bytes (which run to the end of the payload):
/// `[KIND_WAL][W_RECORD_TRACED] ++ str session ++ u64 gen ++
/// u64 trace_id ++ u64 parent_span ++ record bytes`.  The record bytes
/// themselves are identical to the untraced form — trace context is
/// wire-frame metadata, never WAL-file content.
pub const W_RECORD_TRACED: u8 = 4;

/// The four bytes that open a `Replicate` request payload where an
/// ordinary request carries its session-name length.
pub const REPLICATE_SENTINEL: [u8; 4] = [0xFF; 4];

/// Why a connection's byte stream was refused.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (including truncation inside a
    /// frame: the peer vanished mid-record).
    Io(io::Error),
    /// The peer did not open with [`HANDSHAKE`].
    BadHandshake {
        /// The bytes received instead.
        got: [u8; 6],
    },
    /// A frame declared a payload larger than [`MAX_FRAME`].
    TooLarge {
        /// The declared payload length.
        len: u32,
    },
    /// A frame's payload did not match its checksum.
    BadCrc {
        /// The checksum the frame carried.
        carried: u32,
        /// The checksum of the bytes actually received.
        computed: u32,
    },
    /// The frame was sound but its payload did not decode.
    Decode(DecodeError),
    /// A metrics response frame failed its own (CRC-gated, strictly
    /// validated) codec.
    Metrics(DecodeMetricsError),
    /// A trace response frame failed its own (CRC-gated, strictly
    /// validated) codec.
    Trace(DecodeTraceError),
    /// The connection died earlier and cannot carry anything further.
    /// Unlike [`ProtoError::Io`], this is *sticky*: every send or receive
    /// after the loss reports it again, deterministically, with the
    /// original failure in `detail`.
    ConnectionLost {
        /// The transport failure that killed the connection.
        detail: String,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport failed: {e}"),
            ProtoError::BadHandshake { got } => {
                write!(f, "bad handshake: expected {HANDSHAKE:?}, got {got:?}")
            }
            ProtoError::TooLarge { len } => {
                write!(f, "frame declares {len} bytes, limit is {MAX_FRAME}")
            }
            ProtoError::BadCrc { carried, computed } => write!(
                f,
                "frame checksum mismatch: carried {carried:#010x}, computed {computed:#010x}"
            ),
            ProtoError::Decode(e) => write!(f, "undecodable payload: {e}"),
            ProtoError::Metrics(e) => write!(f, "undecodable metrics snapshot: {e}"),
            ProtoError::Trace(e) => write!(f, "undecodable trace snapshot: {e}"),
            ProtoError::ConnectionLost { detail } => {
                write!(f, "connection lost: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        ProtoError::Decode(e)
    }
}

impl From<DecodeMetricsError> for ProtoError {
    fn from(e: DecodeMetricsError) -> ProtoError {
        ProtoError::Metrics(e)
    }
}

impl From<DecodeTraceError> for ProtoError {
    fn from(e: DecodeTraceError) -> ProtoError {
        ProtoError::Trace(e)
    }
}

/// Send the handshake bytes.
pub fn send_handshake(w: &mut impl Write) -> io::Result<()> {
    w.write_all(HANDSHAKE)
}

/// Read and verify the peer's handshake.
pub fn expect_handshake(r: &mut impl Read) -> Result<(), ProtoError> {
    let mut got = [0u8; 6];
    r.read_exact(&mut got)?;
    if &got != HANDSHAKE {
        return Err(ProtoError::BadHandshake { got });
    }
    Ok(())
}

/// Append one frame around `payload` to `out` — the exact bytes
/// [`write_frame`] puts on the wire, so a writer can coalesce many
/// frames into one buffer and one write.
///
/// # Errors
/// [`ProtoError::TooLarge`] when the payload exceeds [`MAX_FRAME`]
/// (nothing is appended).
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or(ProtoError::TooLarge {
            len: payload.len().min(u32::MAX as usize) as u32,
        })?;
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Write one frame around `payload`, header and payload in a single
/// `write_all`.
///
/// # Errors
/// [`ProtoError::TooLarge`] when the payload exceeds [`MAX_FRAME`]
/// (nothing is written); otherwise any transport error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let mut frame = Vec::new();
    put_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    Ok(())
}

/// Whether `buf` opens with a whole frame, header and payload — so
/// reading it from a buffered reader holding `buf` cannot block.
pub fn frame_buffered(buf: &[u8]) -> bool {
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return false;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    (buf.len() - FRAME_HEADER) as u64 >= u64::from(len)
}

/// Fill `buf` exactly, or report a clean end-of-stream (`Ok(false)`) when
/// the stream ends *before the first byte*.  Ending mid-buffer is an
/// [`io::ErrorKind::UnexpectedEof`] — the peer died inside a frame — and
/// so is a read timeout mid-buffer: bytes of a frame were consumed, so
/// the stream is torn, not idle.  `started` says whether bytes of the
/// same frame were consumed before this call.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], started: bool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = match r.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if (started || filled > 0)
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "stream stalled {filled} bytes into a {}-byte read inside a frame",
                        buf.len()
                    ),
                ));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 && !started {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("stream ended {filled} bytes into a {}-byte read", buf.len()),
            ));
        }
        filled += n;
    }
    Ok(true)
}

/// Read one frame; `Ok(None)` on a clean end-of-stream at a frame
/// boundary (the peer hung up between requests).
///
/// A read timeout before the frame's first byte surfaces as the
/// transport's own `WouldBlock` / `TimedOut` error (an idle peer); once
/// any byte of the frame has been consumed, a timeout is a torn stream
/// ([`io::ErrorKind::UnexpectedEof`]), since the rest of the frame can
/// no longer be told apart from a new one.
///
/// # Errors
/// [`ProtoError::TooLarge`] before allocating anything for an over-limit
/// length; [`ProtoError::BadCrc`] when the payload bytes do not match
/// their checksum; [`ProtoError::Io`] on transport failure or truncation
/// inside the frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; FRAME_HEADER];
    if !read_exact_or_eof(r, &mut header, false)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let carried = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(ProtoError::TooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_eof(r, &mut payload, true)?;
    let computed = crc32(&payload);
    if computed != carried {
        return Err(ProtoError::BadCrc { carried, computed });
    }
    Ok(Some(payload))
}

/// Encode a request frame payload: the target session's name, then the
/// request in its canonical (WAL-identical) binary form.
pub fn encode_request_payload(session: &str, req: &SessionRequest) -> Vec<u8> {
    let mut out = Vec::new();
    binio::put_str(&mut out, session);
    out.extend_from_slice(&wal::encode_request(req));
    out
}

/// Decode a request frame payload (inverse of
/// [`encode_request_payload`]).
pub fn decode_request_payload(payload: &[u8]) -> Result<(String, SessionRequest), DecodeError> {
    let mut d = Dec::new(payload);
    let session = d.str()?;
    let req = wal::decode_request(&payload[d.pos()..])?;
    Ok((session, req))
}

/// Everything a request frame can carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// An ordinary session request, dispatched through the service.
    Dispatch(String, SessionRequest),
    /// A metrics-snapshot request for the whole service.
    Metrics,
    /// A follower asks to tail `session`'s WAL starting at `from_seq`
    /// of generation `gen` (`0, 0` = from scratch).
    Replicate {
        /// The session whose log to stream.
        session: String,
        /// The next sequence number the follower wants.
        from_seq: u64,
        /// The generation the follower is on (0 = none).
        gen: u64,
    },
    /// A read that waits (bounded) until this node has applied the named
    /// durable position, then answers exactly like `Read` — see
    /// [`KIND_READAT`].
    ReadAt {
        /// The session to read.
        session: String,
        /// The registered view to read.
        view: String,
        /// The WAL generation the client's token names.
        gen: u64,
        /// The minimum applied sequence number within that generation.
        min_seq: u64,
        /// Wait budget in milliseconds before a `Lagging` refusal.
        wait_ms: u64,
    },
    /// List this node's durable sessions and its root leader — see
    /// [`KIND_SESSIONS`].
    Sessions,
    /// An ordinary session request carrying a distributed-trace context
    /// (see [`KIND_TRACED`]): dispatched exactly like
    /// [`WireRequest::Dispatch`], with spans recorded when the context
    /// is sampled.
    DispatchTraced {
        /// The target session.
        session: String,
        /// The request.
        req: SessionRequest,
        /// The trace context the client stamped on it.
        ctx: TraceCtx,
    },
    /// Drain this node's distributed-span buffer — see [`KIND_TRACE`].
    Trace,
    /// Report this node's place in the replication tree — see
    /// [`KIND_TOPOLOGY`].
    Topology,
}

/// Encode a metrics request frame payload.
pub fn encode_metrics_request_payload() -> Vec<u8> {
    vec![KIND_METRICS]
}

/// Decode any request frame payload: the one-byte metrics marker, or a
/// session-addressed request.
///
/// # Errors
/// Whatever [`decode_request_payload`] rejects (the metrics marker is
/// unambiguous — see [`KIND_METRICS`]).
pub fn decode_wire_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    if payload == [KIND_METRICS] {
        return Ok(WireRequest::Metrics);
    }
    if payload.len() > 4 && payload[..4] == REPLICATE_SENTINEL {
        match payload[4] {
            KIND_REPLICATE => {
                let mut d = Dec::new(&payload[5..]);
                let session = d.str()?;
                let from_seq = d.u64()?;
                let gen = d.u64()?;
                if !d.is_done() {
                    return Err(DecodeError::BadLength {
                        at: d.pos() + 5,
                        len: d.remaining() as u64,
                    });
                }
                return Ok(WireRequest::Replicate {
                    session,
                    from_seq,
                    gen,
                });
            }
            KIND_READAT => {
                let mut d = Dec::new(&payload[5..]);
                let session = d.str()?;
                let view = d.str()?;
                let gen = d.u64()?;
                let min_seq = d.u64()?;
                let wait_ms = d.u64()?;
                if !d.is_done() {
                    return Err(DecodeError::BadLength {
                        at: d.pos() + 5,
                        len: d.remaining() as u64,
                    });
                }
                return Ok(WireRequest::ReadAt {
                    session,
                    view,
                    gen,
                    min_seq,
                    wait_ms,
                });
            }
            KIND_SESSIONS => {
                if payload.len() != 5 {
                    return Err(DecodeError::BadLength {
                        at: 5,
                        len: (payload.len() - 5) as u64,
                    });
                }
                return Ok(WireRequest::Sessions);
            }
            KIND_TRACED => {
                let mut d = Dec::new(&payload[5..]);
                let trace_id = d.u64()?;
                let parent_span = d.u64()?;
                let (session, req) = decode_request_payload(&payload[5 + d.pos()..])?;
                return Ok(WireRequest::DispatchTraced {
                    session,
                    req,
                    ctx: TraceCtx {
                        trace_id,
                        parent_span,
                    },
                });
            }
            KIND_TRACE => {
                if payload.len() != 5 {
                    return Err(DecodeError::BadLength {
                        at: 5,
                        len: (payload.len() - 5) as u64,
                    });
                }
                return Ok(WireRequest::Trace);
            }
            KIND_TOPOLOGY => {
                if payload.len() != 5 {
                    return Err(DecodeError::BadLength {
                        at: 5,
                        len: (payload.len() - 5) as u64,
                    });
                }
                return Ok(WireRequest::Topology);
            }
            tag => return Err(DecodeError::BadTag { at: 4, tag }),
        }
    }
    let (session, req) = decode_request_payload(payload)?;
    Ok(WireRequest::Dispatch(session, req))
}

/// Encode a `Replicate` request frame payload (see [`KIND_REPLICATE`]).
pub fn encode_replicate_payload(session: &str, from_seq: u64, gen: u64) -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_REPLICATE);
    binio::put_str(&mut out, session);
    binio::put_u64(&mut out, from_seq);
    binio::put_u64(&mut out, gen);
    out
}

/// Encode a `ReadAt` request frame payload (see [`KIND_READAT`]).
pub fn encode_read_at_payload(
    session: &str,
    view: &str,
    gen: u64,
    min_seq: u64,
    wait_ms: u64,
) -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_READAT);
    binio::put_str(&mut out, session);
    binio::put_str(&mut out, view);
    binio::put_u64(&mut out, gen);
    binio::put_u64(&mut out, min_seq);
    binio::put_u64(&mut out, wait_ms);
    out
}

/// Encode a `Sessions` request frame payload (see [`KIND_SESSIONS`]).
pub fn encode_sessions_payload() -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_SESSIONS);
    out
}

/// Encode a traced request frame payload (see [`KIND_TRACED`]): the
/// trace context, then the ordinary request payload byte-for-byte.
pub fn encode_traced_request_payload(
    session: &str,
    req: &SessionRequest,
    ctx: TraceCtx,
) -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_TRACED);
    binio::put_u64(&mut out, ctx.trace_id);
    binio::put_u64(&mut out, ctx.parent_span);
    out.extend_from_slice(&encode_request_payload(session, req));
    out
}

/// Encode a `Trace` (span-drain) request frame payload (see
/// [`KIND_TRACE`]).
pub fn encode_trace_request_payload() -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_TRACE);
    out
}

/// Encode a `Topology` request frame payload (see [`KIND_TOPOLOGY`]).
pub fn encode_topology_request_payload() -> Vec<u8> {
    let mut out = REPLICATE_SENTINEL.to_vec();
    out.push(KIND_TOPOLOGY);
    out
}

/// Encode a trace response frame payload around an already-encoded
/// [`TraceSnapshot`].
pub fn encode_trace_response_payload(snapshot: &TraceSnapshot) -> Vec<u8> {
    let mut out = vec![KIND_TRACE];
    out.extend_from_slice(&snapshot.encode());
    out
}

/// Decode a trace response frame payload (inverse of
/// [`encode_trace_response_payload`]).
///
/// # Errors
/// [`DecodeTraceError`] when the marker byte is missing or the snapshot
/// codec rejects the remainder.
pub fn decode_trace_response_payload(payload: &[u8]) -> Result<TraceSnapshot, DecodeTraceError> {
    match payload.split_first() {
        Some((&KIND_TRACE, rest)) => TraceSnapshot::decode(rest),
        Some((&other, _)) => Err(DecodeTraceError::BadVersion(other)),
        None => Err(DecodeTraceError::TooShort),
    }
}

/// Whether a sound frame is a trace reply.
pub fn is_trace_reply_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_TRACE)
}

/// A node's role in the replication tree, as reported by `Topology`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoRole {
    /// Accepts writes and has no upstream: the tree's root.
    Root,
    /// Read-only, tailing an upstream.
    Follower,
    /// Was a follower, promoted to accept writes (its old upstream is
    /// gone; downstream nodes may still chain off it).
    Promoted,
}

impl std::fmt::Display for TopoRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoRole::Root => write!(f, "root"),
            TopoRole::Follower => write!(f, "follower"),
            TopoRole::Promoted => write!(f, "promoted"),
        }
    }
}

/// One session's replication position in a [`TopologyReply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoSession {
    /// The session name.
    pub name: String,
    /// This node's WAL generation for the session.
    pub gen: u64,
    /// Last sequence number applied locally.
    pub applied: u64,
    /// The upstream's last known sequence number (what `applied` chases;
    /// equals `applied` on the root, which *is* the target).
    pub target: u64,
    /// Milliseconds since the last shipment for this session was applied
    /// ([`u64::MAX`] = never, e.g. on a root or before the first
    /// shipment).  A link can be stalled with `lag_records() == 0` —
    /// this is the time dimension that makes it visible.
    pub lag_age_ms: u64,
}

impl TopoSession {
    /// Records this node still has to apply to reach its upstream.
    pub fn lag_records(&self) -> u64 {
        self.target.saturating_sub(self.applied)
    }
}

/// The solicited answer to a `Topology` request (see [`KIND_TOPOLOGY`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyReply {
    /// This node's role in the tree.
    pub role: TopoRole,
    /// The upstream this node tails (`None` on a root / promoted node).
    pub upstream: Option<String>,
    /// The root leader's address as this node knows it (`None` when this
    /// node is the root).
    pub root: Option<String>,
    /// Milliseconds since the last frame (shipment *or* heartbeat)
    /// arrived from the upstream; `None` on a root / promoted node.  A
    /// healthy link keeps this under the leader's heartbeat interval —
    /// staleness here flags a silently dead link before reconnect
    /// backoff fires.
    pub heartbeat_age_ms: Option<u64>,
    /// Live downstream replication streams served by this node.
    pub repl_streams: u64,
    /// Live subscription streams served by this node.
    pub subscribers: u64,
    /// Per-session replication positions, sorted by name.
    pub sessions: Vec<TopoSession>,
}

/// Sentinel encoding `None` for the optional millisecond ages.
const TOPO_NONE: u64 = u64::MAX;

/// Encode a [`TopologyReply`] frame payload.
pub fn encode_topology_reply_payload(reply: &TopologyReply) -> Vec<u8> {
    let mut out = vec![KIND_TOPOLOGY];
    binio::put_u8(
        &mut out,
        match reply.role {
            TopoRole::Root => 0,
            TopoRole::Follower => 1,
            TopoRole::Promoted => 2,
        },
    );
    binio::put_str(&mut out, reply.upstream.as_deref().unwrap_or(""));
    binio::put_str(&mut out, reply.root.as_deref().unwrap_or(""));
    binio::put_u64(&mut out, reply.heartbeat_age_ms.unwrap_or(TOPO_NONE));
    binio::put_u64(&mut out, reply.repl_streams);
    binio::put_u64(&mut out, reply.subscribers);
    binio::put_u64(&mut out, reply.sessions.len() as u64);
    for s in &reply.sessions {
        binio::put_str(&mut out, &s.name);
        binio::put_u64(&mut out, s.gen);
        binio::put_u64(&mut out, s.applied);
        binio::put_u64(&mut out, s.target);
        binio::put_u64(&mut out, s.lag_age_ms);
    }
    out
}

/// Decode a [`TopologyReply`] frame payload (inverse of
/// [`encode_topology_reply_payload`]).
///
/// # Errors
/// [`DecodeError`] on a wrong marker, a bad role byte, truncation, or
/// trailing bytes.
pub fn decode_topology_reply_payload(payload: &[u8]) -> Result<TopologyReply, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_TOPOLOGY {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let at = d.pos();
    let role = match d.u8()? {
        0 => TopoRole::Root,
        1 => TopoRole::Follower,
        2 => TopoRole::Promoted,
        tag => return Err(DecodeError::BadTag { at, tag }),
    };
    let upstream = d.str()?;
    let root = d.str()?;
    let heartbeat_age_ms = d.u64()?;
    let repl_streams = d.u64()?;
    let subscribers = d.u64()?;
    let count = d.u64()?;
    let mut sessions = Vec::new();
    for _ in 0..count {
        sessions.push(TopoSession {
            name: d.str()?,
            gen: d.u64()?,
            applied: d.u64()?,
            target: d.u64()?,
            lag_age_ms: d.u64()?,
        });
    }
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(TopologyReply {
        role,
        upstream: Some(upstream).filter(|s| !s.is_empty()),
        root: Some(root).filter(|s| !s.is_empty()),
        heartbeat_age_ms: Some(heartbeat_age_ms).filter(|&m| m != TOPO_NONE),
        repl_streams,
        subscribers,
        sessions,
    })
}

/// Whether a sound frame is a topology reply.
pub fn is_topology_reply_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_TOPOLOGY)
}

/// The solicited answer to a `Sessions` request (see [`KIND_SESSIONS`]).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SessionsReply {
    /// Where writes go: the *root* leader's address forwarded through
    /// however many chain hops sit between — or `None` when the answering
    /// node itself accepts writes.
    pub leader: Option<String>,
    /// Every durable session this node serves, sorted by name.
    pub sessions: Vec<String>,
}

/// Encode a [`SessionsReply`] frame payload.
pub fn encode_sessions_reply_payload(reply: &SessionsReply) -> Vec<u8> {
    let mut out = vec![KIND_SESSIONS];
    binio::put_str(&mut out, reply.leader.as_deref().unwrap_or(""));
    binio::put_u64(&mut out, reply.sessions.len() as u64);
    for name in &reply.sessions {
        binio::put_str(&mut out, name);
    }
    out
}

/// Decode a [`SessionsReply`] frame payload (inverse of
/// [`encode_sessions_reply_payload`]).
///
/// # Errors
/// [`DecodeError`] on a wrong marker, truncation, or trailing bytes.
pub fn decode_sessions_reply_payload(payload: &[u8]) -> Result<SessionsReply, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_SESSIONS {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let leader = d.str()?;
    let count = d.u64()?;
    let mut sessions = Vec::new();
    for _ in 0..count {
        sessions.push(d.str()?);
    }
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(SessionsReply {
        leader: Some(leader).filter(|l| !l.is_empty()),
        sessions,
    })
}

/// Whether a sound frame is a sessions reply.
pub fn is_sessions_reply_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_SESSIONS)
}

/// Encode a metrics response frame payload around an already-encoded
/// [`MetricsSnapshot`].
pub fn encode_metrics_response_payload(snapshot: &MetricsSnapshot) -> Vec<u8> {
    let mut out = vec![KIND_METRICS];
    out.extend_from_slice(&snapshot.encode());
    out
}

/// Decode a metrics response frame payload (inverse of
/// [`encode_metrics_response_payload`]).
///
/// # Errors
/// [`DecodeMetricsError`] when the marker byte is missing or the
/// snapshot codec rejects the remainder.
pub fn decode_metrics_response_payload(
    payload: &[u8],
) -> Result<MetricsSnapshot, DecodeMetricsError> {
    match payload.split_first() {
        Some((&KIND_METRICS, rest)) => MetricsSnapshot::decode(rest),
        Some((&other, _)) => Err(DecodeMetricsError::BadVersion(other)),
        None => Err(DecodeMetricsError::TooShort),
    }
}

/// Encode an event frame payload: the owning session's name, then the
/// event in its canonical binary form.
pub fn encode_event_payload(session: &str, event: &compview_session::DeltaEvent) -> Vec<u8> {
    let mut out = vec![KIND_EVENT];
    binio::put_str(&mut out, session);
    compview_session::sub::encode_event_into(&mut out, event);
    out
}

/// Decode an event frame payload (inverse of [`encode_event_payload`]).
///
/// # Errors
/// [`DecodeError`] when the marker byte is wrong, the payload is
/// truncated or malformed, or trailing bytes follow the event.
pub fn decode_event_payload(
    payload: &[u8],
) -> Result<(String, compview_session::DeltaEvent), DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_EVENT {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let session = d.str()?;
    let event = compview_session::sub::decode_event_from(&mut d)?;
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok((session, event))
}

/// Whether a sound frame from the server is an event frame (vs a result
/// or metrics response) — the one-byte peek clients use to route.
pub fn is_event_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_EVENT)
}

/// Encode a response frame payload: one dispatch outcome in its
/// canonical binary form.
pub fn encode_result_payload(res: &Result<SessionResponse, DispatchError>) -> Vec<u8> {
    wal::encode_result(res)
}

/// Decode a response frame payload (inverse of
/// [`encode_result_payload`]).
pub fn decode_result_payload(
    payload: &[u8],
) -> Result<Result<SessionResponse, DispatchError>, DecodeError> {
    wal::decode_result(payload)
}

/// The leader's solicited answer to a `Replicate` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicateAck {
    /// The stream is on: catch-up frames (and then live shipments)
    /// follow as unsolicited [`WalFrame`]s.
    Streaming {
        /// The leader log's current generation.
        gen: u64,
        /// First sequence number the leader will ship (`0` means a
        /// [`W_RESET`] snapshot comes first).
        start_seq: u64,
        /// The leader log's last sequence number at ack time.
        last_seq: u64,
    },
    /// The leader refuses to stream (unknown or non-durable session, or
    /// the follower is ahead of the leader — split brain).
    Refused {
        /// Why.
        detail: String,
    },
}

/// Ack status bytes.
const ACK_STREAMING: u8 = 1;
const ACK_REFUSED: u8 = 2;

/// Encode a [`ReplicateAck`] frame payload.
pub fn encode_replicate_ack_payload(ack: &ReplicateAck) -> Vec<u8> {
    let mut out = vec![KIND_REPLICATE];
    match ack {
        ReplicateAck::Streaming {
            gen,
            start_seq,
            last_seq,
        } => {
            binio::put_u8(&mut out, ACK_STREAMING);
            binio::put_u64(&mut out, *gen);
            binio::put_u64(&mut out, *start_seq);
            binio::put_u64(&mut out, *last_seq);
        }
        ReplicateAck::Refused { detail } => {
            binio::put_u8(&mut out, ACK_REFUSED);
            binio::put_str(&mut out, detail);
        }
    }
    out
}

/// Decode a [`ReplicateAck`] frame payload.
///
/// # Errors
/// [`DecodeError`] on a wrong marker, a bad status byte, truncation, or
/// trailing bytes.
pub fn decode_replicate_ack_payload(payload: &[u8]) -> Result<ReplicateAck, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_REPLICATE {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let at = d.pos();
    let ack = match d.u8()? {
        ACK_STREAMING => ReplicateAck::Streaming {
            gen: d.u64()?,
            start_seq: d.u64()?,
            last_seq: d.u64()?,
        },
        ACK_REFUSED => ReplicateAck::Refused { detail: d.str()? },
        tag => return Err(DecodeError::BadTag { at, tag }),
    };
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(ack)
}

/// One unsolicited WAL shipment frame (see [`KIND_WAL`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalFrame {
    /// One raw framed WAL record of `session`, shipped verbatim.
    Record {
        /// The owning session.
        session: String,
        /// The generation the record belongs to.
        gen: u64,
        /// The full framed record bytes (still CRC-protected by the WAL
        /// framing itself, on top of the wire frame's CRC).
        bytes: Vec<u8>,
        /// The distributed-trace context of the write that produced the
        /// record, when it was sampled: `(trace_id, parent_span)`.
        /// Encoded as [`W_RECORD_TRACED`]; `None` encodes as the
        /// byte-identical-to-before [`W_RECORD`].
        trace: Option<(u64, u64)>,
    },
    /// The leader checkpointed: a raw framed record-0 snapshot image.
    Reset {
        /// The owning session.
        session: String,
        /// The fresh log's generation.
        gen: u64,
        /// The full framed record-0 bytes.
        record0: Vec<u8>,
    },
    /// The leader ended this session's stream; the follower should treat
    /// the link as lost and re-request.
    End {
        /// The owning session.
        session: String,
        /// Why the stream ended.
        reason: String,
    },
}

/// Encode a [`WalFrame`] payload.
pub fn encode_wal_frame_payload(frame: &WalFrame) -> Vec<u8> {
    let mut out = vec![KIND_WAL];
    match frame {
        WalFrame::Record {
            session,
            gen,
            bytes,
            trace,
        } => match trace {
            None => {
                binio::put_u8(&mut out, W_RECORD);
                binio::put_str(&mut out, session);
                binio::put_u64(&mut out, *gen);
                out.extend_from_slice(bytes);
            }
            Some((trace_id, parent_span)) => {
                binio::put_u8(&mut out, W_RECORD_TRACED);
                binio::put_str(&mut out, session);
                binio::put_u64(&mut out, *gen);
                binio::put_u64(&mut out, *trace_id);
                binio::put_u64(&mut out, *parent_span);
                out.extend_from_slice(bytes);
            }
        },
        WalFrame::Reset {
            session,
            gen,
            record0,
        } => {
            binio::put_u8(&mut out, W_RESET);
            binio::put_str(&mut out, session);
            binio::put_u64(&mut out, *gen);
            out.extend_from_slice(record0);
        }
        WalFrame::End { session, reason } => {
            binio::put_u8(&mut out, W_END);
            binio::put_str(&mut out, session);
            binio::put_str(&mut out, reason);
        }
    }
    out
}

/// Decode a [`WalFrame`] payload (inverse of
/// [`encode_wal_frame_payload`]).  The carried record bytes are *not*
/// validated here — the follower's apply path CRC-checks the WAL framing
/// itself, so a corrupt record is refused where it can be retried.
///
/// # Errors
/// [`DecodeError`] on a wrong marker or subtype, or truncation of the
/// leading fields.
pub fn decode_wal_frame_payload(payload: &[u8]) -> Result<WalFrame, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_WAL {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let at = d.pos();
    match d.u8()? {
        W_RECORD => {
            let session = d.str()?;
            let gen = d.u64()?;
            Ok(WalFrame::Record {
                session,
                gen,
                bytes: payload[d.pos()..].to_vec(),
                trace: None,
            })
        }
        W_RECORD_TRACED => {
            let session = d.str()?;
            let gen = d.u64()?;
            let trace_id = d.u64()?;
            let parent_span = d.u64()?;
            Ok(WalFrame::Record {
                session,
                gen,
                bytes: payload[d.pos()..].to_vec(),
                trace: Some((trace_id, parent_span)),
            })
        }
        W_RESET => {
            let session = d.str()?;
            let gen = d.u64()?;
            Ok(WalFrame::Reset {
                session,
                gen,
                record0: payload[d.pos()..].to_vec(),
            })
        }
        W_END => {
            let session = d.str()?;
            let reason = d.str()?;
            if !d.is_done() {
                return Err(DecodeError::BadLength {
                    at: d.pos(),
                    len: d.remaining() as u64,
                });
            }
            Ok(WalFrame::End { session, reason })
        }
        tag => Err(DecodeError::BadTag { at, tag }),
    }
}

/// Whether a sound frame is an unsolicited WAL shipment.
pub fn is_wal_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_WAL)
}

/// The heartbeat frame payload (see [`KIND_HEARTBEAT`]).
pub fn encode_heartbeat_payload() -> Vec<u8> {
    vec![KIND_HEARTBEAT]
}

/// Whether a sound frame is a heartbeat.
pub fn is_heartbeat_payload(payload: &[u8]) -> bool {
    payload == [KIND_HEARTBEAT]
}

/// Whether a sound frame is a replication ack.
pub fn is_replicate_ack_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&KIND_REPLICATE)
}
