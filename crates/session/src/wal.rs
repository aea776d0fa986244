//! The write-ahead log: durable session state over a [`LogStore`].
//!
//! # Record format
//!
//! ```text
//! file   := magic records*          magic  := "CVWAL1"  (6 bytes)
//! record := len seq crc payload     len    := u32 LE, payload byte count
//!                                   seq    := u64 LE, 0,1,2,… per file
//!                                   crc    := u32 LE, CRC-32 (IEEE) of
//!                                             seq bytes ++ payload
//! ```
//!
//! Record 0 is always a **snapshot** (the session's enumeration
//! provenance, base state, views, stats, audit log, and undo history);
//! every later record is one state-changing [`SessionRequest`].  The
//! payloads use `compview_relation::binio`, so symbols are serialised by
//! name — interner ids do not survive a process restart.
//!
//! # Crash consistency
//!
//! A record is appended (and synced per [`SyncPolicy`]) *before* the
//! in-memory mutation it describes is attempted.  Because `serve` is
//! deterministic, replaying the logged requests through the ordinary
//! `serve` path reproduces the exact session — including rejections,
//! which are replayed to the same rejection and tallied identically.
//! Recovery parses records until the first torn or corrupt one,
//! truncates there, and reports *why* it stopped in a typed
//! [`RecoveryReport`]; corruption can cost the tail of a log, never a
//! panic and never a plausible-but-wrong state (every payload is
//! CRC-gated, and the state space is re-derived from pools rather than
//! trusted from bytes).
//!
//! If an append or sync *fails while the session is live*, the write is
//! rolled back (truncate to the last durable length) and the request is
//! rejected with `SessionError::Durability` — the log and the in-memory
//! state never diverge.  If even the rollback fails, the writer is
//! poisoned and every later state-changing request is rejected, leaving
//! the log a valid prefix of the session.

use crate::service::DispatchError;
use crate::store::LogStore;
use crate::{
    SessionConfig, SessionError, SessionRequest, SessionResponse, SessionStats, StatsSnapshot,
};
use compview_core::{CatalogError, EditError, EditReport, UpdateReport};
use compview_relation::binio::{self, Dec, DecodeError};
use compview_relation::Instance;
use std::collections::BTreeMap;
use std::io;

/// The 6-byte file magic ("CVWAL" + format version 1).
pub const MAGIC: &[u8; 6] = b"CVWAL1";

/// Bytes of framing per record ahead of the payload (`len` + `seq` + `crc`).
const FRAME: usize = 4 + 8 + 4;

/// When appended records are flushed to durable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record: nothing acknowledged is ever lost.
    Always,
    /// Sync after every Nth record: bounded loss window, amortised cost.
    EveryN(u64),
    /// Never sync explicitly (the OS flushes eventually): fastest, loses
    /// the unflushed tail on a crash — which recovery then truncates.
    Never,
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) — the std-only
/// checksum gating every record payload.  One implementation serves the
/// whole stack; it lives in `compview-obs` (the bottom of the dependency
/// graph) and is re-exported here for the wire protocol.
pub use compview_obs::crc32;

/// Why recovery stopped reading the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryStop {
    /// The log ended exactly at a record boundary: nothing was lost.
    CleanEnd,
    /// The log ended mid-record (a torn write); the tail was truncated.
    TornTail {
        /// Byte offset of the torn record's frame.
        offset: u64,
    },
    /// A record's checksum did not match its bytes (corruption or a torn
    /// write that happened to leave a full-length frame).
    BadChecksum {
        /// Byte offset of the corrupt record.
        offset: u64,
        /// The sequence number this record should have carried.
        seq: u64,
    },
    /// A record carried the wrong sequence number (lost or reordered
    /// write).
    BadSequence {
        /// Byte offset of the record.
        offset: u64,
        /// The expected sequence number.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// A record's checksum was valid but its payload did not decode (a
    /// format-version skew, or corruption colliding with the CRC).
    BadPayload {
        /// Byte offset of the record.
        offset: u64,
        /// The record's sequence number.
        seq: u64,
        /// The decode failure.
        detail: String,
    },
}

impl std::fmt::Display for RecoveryStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStop::CleanEnd => write!(f, "clean end of log"),
            RecoveryStop::TornTail { offset } => write!(f, "torn record at byte {offset}"),
            RecoveryStop::BadChecksum { offset, seq } => {
                write!(f, "checksum mismatch at byte {offset} (record {seq})")
            }
            RecoveryStop::BadSequence {
                offset,
                expected,
                found,
            } => write!(
                f,
                "sequence gap at byte {offset}: expected {expected}, found {found}"
            ),
            RecoveryStop::BadPayload {
                offset,
                seq,
                detail,
            } => write!(
                f,
                "undecodable payload at byte {offset} (record {seq}): {detail}"
            ),
        }
    }
}

/// What [`crate::Session::recover`] did, instead of failing: how much of
/// the log survived and why the rest (if any) did not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Request records replayed through `serve` (the snapshot record is
    /// not counted).
    pub records_applied: u64,
    /// Bytes of the log that survived (the file was truncated here).
    pub bytes_salvaged: u64,
    /// Bytes the log held before recovery.
    pub bytes_total: u64,
    /// Why reading stopped.
    pub stopped: RecoveryStop,
}

/// A log that could not be recovered *at all* — nothing before the first
/// request record was readable, so there is no state to rebuild.  A
/// multi-session `Service` degrades just the session that owns the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The store could not be read (or truncated after salvage).
    Io(String),
    /// The file does not start with the WAL magic — not a log, or its
    /// first bytes were destroyed.
    BadHeader {
        /// What was wrong.
        detail: String,
    },
    /// The snapshot record (record 0) was missing, torn, or undecodable.
    BadSnapshot {
        /// What was wrong.
        detail: String,
    },
    /// The snapshot decoded, but its base state is not a state of the
    /// re-enumerated space — the log was written under a different schema
    /// or family than the one supplied to `recover`.
    BaseOutsideSpace,
    /// The snapshot's views failed catalog validation (same cause:
    /// schema/family mismatch).
    Catalog(CatalogError),
    /// The log's file name cannot name a session (e.g. a non-UTF-8
    /// stem), so the log was not opened at all.  Raised by
    /// `Service::open_dir`, which refuses to skip such a log silently.
    BadName {
        /// The offending path, rendered lossily.
        detail: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "log i/o failed: {e}"),
            RecoverError::BadHeader { detail } => write!(f, "bad log header: {detail}"),
            RecoverError::BadSnapshot { detail } => {
                write!(f, "unrecoverable snapshot record: {detail}")
            }
            RecoverError::BaseOutsideSpace => write!(
                f,
                "snapshot base state is outside the re-enumerated space \
                 (schema or family mismatch)"
            ),
            RecoverError::Catalog(e) => write!(f, "snapshot failed catalog validation: {e}"),
            RecoverError::BadName { detail } => {
                write!(f, "log file name cannot name a session: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// One CRC-valid record pulled off the log.
pub(crate) struct RawRecord {
    /// Byte offset of the record's frame in the file.
    pub offset: u64,
    /// The validated payload.
    pub payload: Vec<u8>,
}

/// The outcome of framing-level log parsing: every CRC-valid record in
/// sequence order, plus where and why reading stopped.
pub(crate) struct ParsedLog {
    pub records: Vec<RawRecord>,
    /// Byte offset just past the last valid record.
    pub salvaged: u64,
    pub stop: RecoveryStop,
}

/// Parse the framing of a log image.  Fails only when the magic itself is
/// unreadable; anything past it degrades into `stop`.
pub(crate) fn parse_log(bytes: &[u8]) -> Result<ParsedLog, RecoverError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(RecoverError::BadHeader {
            detail: format!(
                "expected {:?}, found {:?}",
                MAGIC,
                &bytes[..bytes.len().min(MAGIC.len())]
            ),
        });
    }
    let mut records = Vec::new();
    let mut o = MAGIC.len();
    let stop = loop {
        if o == bytes.len() {
            break RecoveryStop::CleanEnd;
        }
        if bytes.len() - o < FRAME {
            break RecoveryStop::TornTail { offset: o as u64 };
        }
        let len = u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4")) as usize;
        if bytes.len() - o - FRAME < len {
            break RecoveryStop::TornTail { offset: o as u64 };
        }
        let seq = u64::from_le_bytes(bytes[o + 4..o + 12].try_into().expect("8"));
        let crc = u32::from_le_bytes(bytes[o + 12..o + 16].try_into().expect("4"));
        let body = &bytes[o + 4..o + 16 + len]; // seq bytes ++ crc ++ payload
        let mut checked = Vec::with_capacity(8 + len);
        checked.extend_from_slice(&body[..8]);
        checked.extend_from_slice(&bytes[o + 16..o + 16 + len]);
        let expected_seq = records.len() as u64;
        if crc32(&checked) != crc {
            break RecoveryStop::BadChecksum {
                offset: o as u64,
                seq: expected_seq,
            };
        }
        if seq != expected_seq {
            break RecoveryStop::BadSequence {
                offset: o as u64,
                expected: expected_seq,
                found: seq,
            };
        }
        records.push(RawRecord {
            offset: o as u64,
            payload: bytes[o + 16..o + 16 + len].to_vec(),
        });
        o += FRAME + len;
    };
    Ok(ParsedLog {
        records,
        salvaged: o as u64,
        stop,
    })
}

/// Parse one shipped record frame on its own: framing lengths and CRC,
/// but *not* sequence contiguity (that is the applier's gap check).
/// Returns `(seq, payload)`.
pub(crate) fn parse_record(bytes: &[u8]) -> Result<(u64, Vec<u8>), String> {
    if bytes.len() < FRAME {
        return Err(format!("record frame too short: {} bytes", bytes.len()));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4")) as usize;
    if bytes.len() - FRAME != len {
        return Err(format!(
            "record length mismatch: header says {len}, frame carries {}",
            bytes.len() - FRAME
        ));
    }
    let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("8"));
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
    let mut checked = Vec::with_capacity(8 + len);
    checked.extend_from_slice(&bytes[4..12]);
    checked.extend_from_slice(&bytes[16..]);
    let computed = crc32(&checked);
    if computed != crc {
        return Err(format!(
            "record checksum mismatch: carried {crc:#010x}, computed {computed:#010x}"
        ));
    }
    Ok((seq, bytes[16..].to_vec()))
}

/// Replication generation id of a log whose record 0 frames to `record0`
/// (the full framed bytes, not just the payload).  Checkpoints reset the
/// sequence space to 0, so `(gen, seq)` — not seq alone — names a record;
/// the snapshot embeds advancing stats counters, making successive
/// checkpoint record-0 bytes (and hence gens) distinct.  `| 1 << 32`
/// keeps 0 free as "no log yet".
pub(crate) fn gen_of_record0_frame(record0: &[u8]) -> u64 {
    crc32(record0) as u64 | 1 << 32
}

/// Raw framed record bytes of every record with `seq >= from_seq` in a
/// log image — the leader's catch-up tail for a `Replicate` request.
pub(crate) fn tail_frames(bytes: &[u8], from_seq: u64) -> Result<Vec<Vec<u8>>, RecoverError> {
    let parsed = parse_log(bytes)?;
    let mut out = Vec::new();
    for rec in parsed.records.iter().skip(from_seq as usize) {
        let start = rec.offset as usize;
        out.push(bytes[start..start + FRAME + rec.payload.len()].to_vec());
    }
    Ok(out)
}

/// Frame a payload into record bytes.
pub(crate) fn frame_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&seq.to_le_bytes());
    checked.extend_from_slice(payload);
    let crc = crc32(&checked);
    let mut rec = Vec::with_capacity(FRAME + payload.len());
    rec.extend_from_slice(&(u32::try_from(payload.len()).expect("payload fits u32")).to_le_bytes());
    rec.extend_from_slice(&seq.to_le_bytes());
    rec.extend_from_slice(&crc.to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

// ---------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------

/// Payload kind tags.
const KIND_SNAPSHOT: u8 = 0;
const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;

/// Request tags (KIND_REQUEST payloads).
const REQ_REGISTER: u8 = 1;
const REQ_UPDATE: u8 = 2;
const REQ_INSERT: u8 = 3;
const REQ_REMOVE: u8 = 4;
const REQ_UNDO: u8 = 5;
const REQ_READ: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_SUBSCRIBE: u8 = 8;
const REQ_UNSUBSCRIBE: u8 = 9;

/// Encode any [`SessionRequest`] — the canonical binary form shared by
/// the write-ahead log and the wire protocol (`compview-serve`).  The WAL
/// only ever writes durable requests (see [`SessionRequest::is_durable`]),
/// but `Read` and `Stats` encode too so remote clients can send them.
pub fn encode_request(req: &SessionRequest) -> Vec<u8> {
    let mut out = vec![KIND_REQUEST];
    match req {
        SessionRequest::RegisterView { name, mask } => {
            binio::put_u8(&mut out, REQ_REGISTER);
            binio::put_str(&mut out, name);
            binio::put_u32(&mut out, *mask);
        }
        SessionRequest::Update { view, new_state } => {
            binio::put_u8(&mut out, REQ_UPDATE);
            binio::put_str(&mut out, view);
            binio::put_instance(&mut out, new_state);
        }
        SessionRequest::InsertPoolTuple { relation, tuple } => {
            binio::put_u8(&mut out, REQ_INSERT);
            binio::put_str(&mut out, relation);
            binio::put_tuple(&mut out, tuple);
        }
        SessionRequest::RemovePoolTuple { relation, tuple } => {
            binio::put_u8(&mut out, REQ_REMOVE);
            binio::put_str(&mut out, relation);
            binio::put_tuple(&mut out, tuple);
        }
        SessionRequest::Undo => {
            binio::put_u8(&mut out, REQ_UNDO);
        }
        SessionRequest::Read { view } => {
            binio::put_u8(&mut out, REQ_READ);
            binio::put_str(&mut out, view);
        }
        SessionRequest::Stats => {
            binio::put_u8(&mut out, REQ_STATS);
        }
        SessionRequest::Subscribe { view } => {
            binio::put_u8(&mut out, REQ_SUBSCRIBE);
            binio::put_str(&mut out, view);
        }
        SessionRequest::Unsubscribe { sub } => {
            binio::put_u8(&mut out, REQ_UNSUBSCRIBE);
            binio::put_u64(&mut out, *sub);
        }
    }
    out
}

/// Decode a request payload (inverse of [`encode_request`]).
pub fn decode_request(payload: &[u8]) -> Result<SessionRequest, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_REQUEST {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let at = d.pos();
    let req = match d.u8()? {
        REQ_REGISTER => SessionRequest::RegisterView {
            name: d.str()?,
            mask: d.u32()?,
        },
        REQ_UPDATE => SessionRequest::Update {
            view: d.str()?,
            new_state: d.instance()?,
        },
        REQ_INSERT => SessionRequest::InsertPoolTuple {
            relation: d.str()?,
            tuple: d.tuple()?,
        },
        REQ_REMOVE => SessionRequest::RemovePoolTuple {
            relation: d.str()?,
            tuple: d.tuple()?,
        },
        REQ_UNDO => SessionRequest::Undo,
        REQ_READ => SessionRequest::Read { view: d.str()? },
        REQ_STATS => SessionRequest::Stats,
        REQ_SUBSCRIBE => SessionRequest::Subscribe { view: d.str()? },
        REQ_UNSUBSCRIBE => SessionRequest::Unsubscribe { sub: d.u64()? },
        tag => return Err(DecodeError::BadTag { at, tag }),
    };
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(req)
}

/// Response tags (the `Ok` arm of a KIND_RESPONSE payload).
const RESP_REGISTERED: u8 = 1;
const RESP_STATE: u8 = 2;
const RESP_UPDATED: u8 = 3;
const RESP_POOL_EDITED: u8 = 4;
const RESP_UNDONE: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_SUBSCRIBED: u8 = 7;
const RESP_UNSUBSCRIBED: u8 = 8;

/// Dispatch-error tags (the `Err` arm of a KIND_RESPONSE payload).
const ERR_UNKNOWN_SESSION: u8 = 1;
const ERR_SESSION: u8 = 2;
const ERR_LAGGING: u8 = 3;

/// Session-error tags.
const SERR_CATALOG: u8 = 1;
const SERR_EDIT: u8 = 2;
const SERR_NOT_A_COMPONENT: u8 = 3;
const SERR_TUPLE_IN_BASE: u8 = 4;
const SERR_OUTSIDE_SPACE: u8 = 5;
const SERR_DURABILITY: u8 = 6;
const SERR_STALE_LOG: u8 = 7;
const SERR_UNKNOWN_SUB: u8 = 8;
const SERR_NOT_LEADER: u8 = 9;

/// Catalog-error tags.
const CERR_UNKNOWN_VIEW: u8 = 1;
const CERR_DUPLICATE_VIEW: u8 = 2;
const CERR_BAD_MASK: u8 = 3;
const CERR_ILLEGAL_STATE: u8 = 4;
const CERR_EMPTY_HISTORY: u8 = 5;

/// Edit-error tags.
const EERR_NOT_EDITABLE: u8 = 1;
const EERR_UNKNOWN_RELATION: u8 = 2;
const EERR_ARITY: u8 = 3;
const EERR_DUPLICATE_TUPLE: u8 = 4;
const EERR_MISSING_TUPLE: u8 = 5;
const EERR_TOO_LARGE: u8 = 6;

/// Encode one dispatch outcome — the canonical binary form of what
/// [`crate::Service::dispatch`] answers per request, shared with the wire
/// protocol (`compview-serve`).
pub fn encode_result(res: &Result<SessionResponse, DispatchError>) -> Vec<u8> {
    let mut out = vec![KIND_RESPONSE];
    match res {
        Ok(resp) => {
            binio::put_u8(&mut out, 0);
            encode_response(&mut out, resp);
        }
        Err(e) => {
            binio::put_u8(&mut out, 1);
            encode_dispatch_error(&mut out, e);
        }
    }
    out
}

/// Decode one dispatch outcome (inverse of [`encode_result`]).
pub fn decode_result(
    payload: &[u8],
) -> Result<Result<SessionResponse, DispatchError>, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_RESPONSE {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let at = d.pos();
    let res = match d.u8()? {
        0 => Ok(decode_response(&mut d)?),
        1 => Err(decode_dispatch_error(&mut d)?),
        tag => return Err(DecodeError::BadTag { at, tag }),
    };
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(res)
}

fn encode_response(out: &mut Vec<u8>, resp: &SessionResponse) {
    match resp {
        SessionResponse::Registered {
            view,
            mask,
            complement,
        } => {
            binio::put_u8(out, RESP_REGISTERED);
            binio::put_str(out, view);
            binio::put_u32(out, *mask);
            binio::put_u32(out, *complement);
        }
        SessionResponse::State(inst) => {
            binio::put_u8(out, RESP_STATE);
            binio::put_instance(out, inst);
        }
        SessionResponse::Updated(r) => {
            binio::put_u8(out, RESP_UPDATED);
            binio::put_str(out, &r.view);
            binio::put_u64(out, r.requested_delta as u64);
            binio::put_u64(out, r.reflected_delta as u64);
        }
        SessionResponse::PoolEdited(r) => {
            binio::put_u8(out, RESP_POOL_EDITED);
            binio::put_u64(out, r.states_before as u64);
            binio::put_u64(out, r.states_after as u64);
        }
        SessionResponse::Undone => binio::put_u8(out, RESP_UNDONE),
        SessionResponse::Stats(snap) => {
            binio::put_u8(out, RESP_STATS);
            encode_stats(out, &snap.counters);
            binio::put_u64(out, snap.states as u64);
            binio::put_u64(out, snap.views as u64);
            binio::put_u64(out, snap.undoable as u64);
            binio::put_u64(out, snap.cached_masks as u64);
            binio::put_u64(out, snap.session_id);
            binio::put_u64(out, snap.wal_gen);
            binio::put_u64(out, snap.wal_seq);
            binio::put_u64(out, snap.log_bytes);
            binio::put_u64(out, snap.active_subs as u64);
        }
        SessionResponse::Subscribed { view, sub, image } => {
            binio::put_u8(out, RESP_SUBSCRIBED);
            binio::put_str(out, view);
            binio::put_u64(out, *sub);
            binio::put_instance(out, image);
        }
        SessionResponse::Unsubscribed { sub } => {
            binio::put_u8(out, RESP_UNSUBSCRIBED);
            binio::put_u64(out, *sub);
        }
    }
}

fn decode_response(d: &mut Dec<'_>) -> Result<SessionResponse, DecodeError> {
    let at = d.pos();
    Ok(match d.u8()? {
        RESP_REGISTERED => SessionResponse::Registered {
            view: d.str()?,
            mask: d.u32()?,
            complement: d.u32()?,
        },
        RESP_STATE => SessionResponse::State(d.instance()?),
        RESP_UPDATED => SessionResponse::Updated(UpdateReport {
            view: d.str()?,
            requested_delta: d.u64()? as usize,
            reflected_delta: d.u64()? as usize,
        }),
        RESP_POOL_EDITED => SessionResponse::PoolEdited(EditReport {
            states_before: d.u64()? as usize,
            states_after: d.u64()? as usize,
        }),
        RESP_UNDONE => SessionResponse::Undone,
        RESP_STATS => SessionResponse::Stats(StatsSnapshot {
            counters: decode_stats(d)?,
            states: d.u64()? as usize,
            views: d.u64()? as usize,
            undoable: d.u64()? as usize,
            cached_masks: d.u64()? as usize,
            session_id: d.u64()?,
            wal_gen: d.u64()?,
            wal_seq: d.u64()?,
            log_bytes: d.u64()?,
            active_subs: d.u64()? as usize,
        }),
        RESP_SUBSCRIBED => SessionResponse::Subscribed {
            view: d.str()?,
            sub: d.u64()?,
            image: d.instance()?,
        },
        RESP_UNSUBSCRIBED => SessionResponse::Unsubscribed { sub: d.u64()? },
        tag => return Err(DecodeError::BadTag { at, tag }),
    })
}

fn encode_dispatch_error(out: &mut Vec<u8>, e: &DispatchError) {
    match e {
        DispatchError::UnknownSession(name) => {
            binio::put_u8(out, ERR_UNKNOWN_SESSION);
            binio::put_str(out, name);
        }
        DispatchError::Session(e) => {
            binio::put_u8(out, ERR_SESSION);
            encode_session_error(out, e);
        }
        DispatchError::Lagging {
            want_gen,
            want_seq,
            gen,
            seq,
        } => {
            binio::put_u8(out, ERR_LAGGING);
            binio::put_u64(out, *want_gen);
            binio::put_u64(out, *want_seq);
            binio::put_u64(out, *gen);
            binio::put_u64(out, *seq);
        }
    }
}

fn decode_dispatch_error(d: &mut Dec<'_>) -> Result<DispatchError, DecodeError> {
    let at = d.pos();
    Ok(match d.u8()? {
        ERR_UNKNOWN_SESSION => DispatchError::UnknownSession(d.str()?),
        ERR_SESSION => DispatchError::Session(decode_session_error(d)?),
        ERR_LAGGING => DispatchError::Lagging {
            want_gen: d.u64()?,
            want_seq: d.u64()?,
            gen: d.u64()?,
            seq: d.u64()?,
        },
        tag => return Err(DecodeError::BadTag { at, tag }),
    })
}

fn encode_session_error(out: &mut Vec<u8>, e: &SessionError) {
    match e {
        SessionError::Catalog(c) => {
            binio::put_u8(out, SERR_CATALOG);
            match c {
                CatalogError::UnknownView(n) => {
                    binio::put_u8(out, CERR_UNKNOWN_VIEW);
                    binio::put_str(out, n);
                }
                CatalogError::DuplicateView(n) => {
                    binio::put_u8(out, CERR_DUPLICATE_VIEW);
                    binio::put_str(out, n);
                }
                CatalogError::BadMask(m) => {
                    binio::put_u8(out, CERR_BAD_MASK);
                    binio::put_u32(out, *m);
                }
                CatalogError::IllegalViewState(s) => {
                    binio::put_u8(out, CERR_ILLEGAL_STATE);
                    binio::put_str(out, s);
                }
                CatalogError::EmptyHistory => binio::put_u8(out, CERR_EMPTY_HISTORY),
            }
        }
        SessionError::Edit(ed) => {
            binio::put_u8(out, SERR_EDIT);
            match ed {
                EditError::NotEditable => binio::put_u8(out, EERR_NOT_EDITABLE),
                EditError::UnknownRelation(r) => {
                    binio::put_u8(out, EERR_UNKNOWN_RELATION);
                    binio::put_str(out, r);
                }
                EditError::ArityMismatch {
                    relation,
                    expected,
                    got,
                } => {
                    binio::put_u8(out, EERR_ARITY);
                    binio::put_str(out, relation);
                    binio::put_u64(out, *expected as u64);
                    binio::put_u64(out, *got as u64);
                }
                EditError::DuplicateTuple { relation } => {
                    binio::put_u8(out, EERR_DUPLICATE_TUPLE);
                    binio::put_str(out, relation);
                }
                EditError::MissingTuple { relation } => {
                    binio::put_u8(out, EERR_MISSING_TUPLE);
                    binio::put_str(out, relation);
                }
                EditError::TooLarge { bits, max_bits } => {
                    binio::put_u8(out, EERR_TOO_LARGE);
                    binio::put_u64(out, *bits as u64);
                    binio::put_u64(out, *max_bits as u64);
                }
            }
        }
        SessionError::NotAComponent { mask, detail } => {
            binio::put_u8(out, SERR_NOT_A_COMPONENT);
            binio::put_u32(out, *mask);
            binio::put_str(out, detail);
        }
        SessionError::TupleInBaseState { relation } => {
            binio::put_u8(out, SERR_TUPLE_IN_BASE);
            binio::put_str(out, relation);
        }
        SessionError::StateOutsideSpace { view } => {
            binio::put_u8(out, SERR_OUTSIDE_SPACE);
            binio::put_str(out, view);
        }
        SessionError::Durability { detail } => {
            binio::put_u8(out, SERR_DURABILITY);
            binio::put_str(out, detail);
        }
        SessionError::StaleLog { detail } => {
            binio::put_u8(out, SERR_STALE_LOG);
            binio::put_str(out, detail);
        }
        SessionError::UnknownSubscription { sub } => {
            binio::put_u8(out, SERR_UNKNOWN_SUB);
            binio::put_u64(out, *sub);
        }
        SessionError::NotLeader { leader_addr } => {
            binio::put_u8(out, SERR_NOT_LEADER);
            binio::put_str(out, leader_addr);
        }
    }
}

fn decode_session_error(d: &mut Dec<'_>) -> Result<SessionError, DecodeError> {
    let at = d.pos();
    Ok(match d.u8()? {
        SERR_CATALOG => {
            let at = d.pos();
            SessionError::Catalog(match d.u8()? {
                CERR_UNKNOWN_VIEW => CatalogError::UnknownView(d.str()?),
                CERR_DUPLICATE_VIEW => CatalogError::DuplicateView(d.str()?),
                CERR_BAD_MASK => CatalogError::BadMask(d.u32()?),
                CERR_ILLEGAL_STATE => CatalogError::IllegalViewState(d.str()?),
                CERR_EMPTY_HISTORY => CatalogError::EmptyHistory,
                tag => return Err(DecodeError::BadTag { at, tag }),
            })
        }
        SERR_EDIT => {
            let at = d.pos();
            SessionError::Edit(match d.u8()? {
                EERR_NOT_EDITABLE => EditError::NotEditable,
                EERR_UNKNOWN_RELATION => EditError::UnknownRelation(d.str()?),
                EERR_ARITY => EditError::ArityMismatch {
                    relation: d.str()?,
                    expected: d.u64()? as usize,
                    got: d.u64()? as usize,
                },
                EERR_DUPLICATE_TUPLE => EditError::DuplicateTuple { relation: d.str()? },
                EERR_MISSING_TUPLE => EditError::MissingTuple { relation: d.str()? },
                EERR_TOO_LARGE => EditError::TooLarge {
                    bits: d.u64()? as usize,
                    max_bits: d.u64()? as usize,
                },
                tag => return Err(DecodeError::BadTag { at, tag }),
            })
        }
        SERR_NOT_A_COMPONENT => SessionError::NotAComponent {
            mask: d.u32()?,
            detail: d.str()?,
        },
        SERR_TUPLE_IN_BASE => SessionError::TupleInBaseState { relation: d.str()? },
        SERR_OUTSIDE_SPACE => SessionError::StateOutsideSpace { view: d.str()? },
        SERR_DURABILITY => SessionError::Durability { detail: d.str()? },
        SERR_STALE_LOG => SessionError::StaleLog { detail: d.str()? },
        SERR_UNKNOWN_SUB => SessionError::UnknownSubscription { sub: d.u64()? },
        SERR_NOT_LEADER => SessionError::NotLeader {
            leader_addr: d.str()?,
        },
        tag => return Err(DecodeError::BadTag { at, tag }),
    })
}

/// The decoded parts of a snapshot record — everything a session needs to
/// rebuild besides the schema and family (supplied by the caller of
/// `recover`; component families are code, not data).
pub(crate) struct SessionSnapshot {
    pub config: SessionConfig,
    /// Content-derived session identity (see `Session::session_id`).
    pub session_id: u64,
    /// `StateSpace::encode_snapshot` bytes (pools + enumeration guard).
    pub space: Vec<u8>,
    pub base: Instance,
    pub views: BTreeMap<String, u32>,
    pub stats: SessionStats,
    pub log: Vec<UpdateReport>,
    pub history: Vec<Instance>,
}

/// Encode a snapshot payload.
pub(crate) fn encode_snapshot(snap: &SessionSnapshot) -> Vec<u8> {
    let mut out = vec![KIND_SNAPSHOT];
    binio::put_u8(&mut out, snap.config.incremental as u8);
    binio::put_u8(&mut out, snap.config.cross_validate as u8);
    binio::put_u64(&mut out, snap.config.max_bits as u64);
    binio::put_u64(&mut out, snap.config.checkpoint.max_records);
    binio::put_u64(&mut out, snap.config.checkpoint.max_log_bytes);
    binio::put_u64(&mut out, snap.session_id);
    binio::put_u32(
        &mut out,
        u32::try_from(snap.space.len()).expect("space snapshot fits u32"),
    );
    out.extend_from_slice(&snap.space);
    binio::put_instance(&mut out, &snap.base);
    binio::put_u32(
        &mut out,
        u32::try_from(snap.views.len()).expect("view count fits u32"),
    );
    for (name, mask) in &snap.views {
        binio::put_str(&mut out, name);
        binio::put_u32(&mut out, *mask);
    }
    encode_stats(&mut out, &snap.stats);
    binio::put_u32(
        &mut out,
        u32::try_from(snap.log.len()).expect("log count fits u32"),
    );
    for r in &snap.log {
        binio::put_str(&mut out, &r.view);
        binio::put_u64(&mut out, r.requested_delta as u64);
        binio::put_u64(&mut out, r.reflected_delta as u64);
    }
    binio::put_u32(
        &mut out,
        u32::try_from(snap.history.len()).expect("history count fits u32"),
    );
    for h in &snap.history {
        binio::put_instance(&mut out, h);
    }
    out
}

/// Decode a snapshot payload (inverse of [`encode_snapshot`]).
pub(crate) fn decode_snapshot(payload: &[u8]) -> Result<SessionSnapshot, DecodeError> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    if kind != KIND_SNAPSHOT {
        return Err(DecodeError::BadTag { at: 0, tag: kind });
    }
    let incremental = d.u8()? != 0;
    let cross_validate = d.u8()? != 0;
    let max_bits = d.u64()? as usize;
    let checkpoint = crate::CheckpointPolicy {
        max_records: d.u64()?,
        max_log_bytes: d.u64()?,
    };
    let config = SessionConfig {
        incremental,
        cross_validate,
        max_bits,
        checkpoint,
    };
    let session_id = d.u64()?;
    let space_at = d.pos();
    let space_len = d.u32()? as usize;
    if space_len > d.remaining() {
        return Err(DecodeError::BadLength {
            at: space_at,
            len: space_len as u64,
        });
    }
    let mut space = Vec::with_capacity(space_len);
    for _ in 0..space_len {
        space.push(d.u8()?);
    }
    let base = d.instance()?;
    let n_views = d.u32()? as usize;
    let mut views = BTreeMap::new();
    for _ in 0..n_views {
        let name = d.str()?;
        let mask = d.u32()?;
        views.insert(name, mask);
    }
    let stats = decode_stats(&mut d)?;
    let n_log = d.u32()? as usize;
    let mut log = Vec::with_capacity(n_log.min(d.remaining()));
    for _ in 0..n_log {
        log.push(UpdateReport {
            view: d.str()?,
            requested_delta: d.u64()? as usize,
            reflected_delta: d.u64()? as usize,
        });
    }
    let n_hist = d.u32()? as usize;
    let mut history = Vec::with_capacity(n_hist.min(d.remaining()));
    for _ in 0..n_hist {
        history.push(d.instance()?);
    }
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(SessionSnapshot {
        config,
        session_id,
        space,
        base,
        views,
        stats,
        log,
        history,
    })
}

fn encode_stats(out: &mut Vec<u8>, s: &SessionStats) {
    binio::put_u64(out, s.requests);
    binio::put_u64(out, s.accepted);
    binio::put_u64(out, s.rejected);
    binio::put_u64(out, s.cache_hits);
    binio::put_u64(out, s.cache_misses);
    binio::put_u64(out, s.cache_remaps);
    binio::put_u64(out, s.incremental_edits);
    binio::put_u64(out, s.full_rebuilds);
    binio::put_u32(
        out,
        u32::try_from(s.rejected_by_variant.len()).expect("variant count fits u32"),
    );
    for (k, v) in &s.rejected_by_variant {
        binio::put_str(out, k);
        binio::put_u64(out, *v);
    }
}

fn decode_stats(d: &mut Dec<'_>) -> Result<SessionStats, DecodeError> {
    let mut s = SessionStats {
        requests: d.u64()?,
        accepted: d.u64()?,
        rejected: d.u64()?,
        cache_hits: d.u64()?,
        cache_misses: d.u64()?,
        cache_remaps: d.u64()?,
        incremental_edits: d.u64()?,
        full_rebuilds: d.u64()?,
        rejected_by_variant: BTreeMap::new(),
    };
    let n = d.u32()? as usize;
    for _ in 0..n {
        let k = d.str()?;
        let v = d.u64()?;
        s.rejected_by_variant.insert(k, v);
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------

/// Appends framed records to a [`LogStore`] under a [`SyncPolicy`],
/// maintaining the invariant that the log is always a valid prefix of the
/// session's accepted history.
pub(crate) struct WalWriter {
    store: Box<dyn LogStore>,
    policy: SyncPolicy,
    next_seq: u64,
    durable_len: u64,
    since_sync: u64,
    poisoned: bool,
    /// Group-commit mode: policy-due syncs are *deferred* — recorded in
    /// `sync_pending` instead of issued — until [`WalWriter::flush`].
    deferred: bool,
    sync_pending: bool,
    /// Records appended since this window's last issued sync (group-commit
    /// flush size).
    since_flush: u64,
    /// Replication generation id of the current log (see
    /// [`gen_of_record0_frame`]); 0 until set by recovery or a reset.
    gen: u64,
    obs: crate::obs::WalObs,
}

impl WalWriter {
    /// Wrap a store positioned at `len` bytes with `next_seq` records
    /// already present.
    pub fn new(store: Box<dyn LogStore>, policy: SyncPolicy, next_seq: u64, len: u64) -> WalWriter {
        WalWriter {
            store,
            policy,
            next_seq,
            durable_len: len,
            since_sync: 0,
            poisoned: false,
            deferred: false,
            sync_pending: false,
            since_flush: 0,
            gen: 0,
            obs: crate::obs::WalObs::noop(),
        }
    }

    /// The replication generation id of the current log.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Install the generation id recovered from an existing log's
    /// record 0 (resets compute their own via [`WalWriter::reset_with`]).
    pub fn set_gen(&mut self, gen: u64) {
        self.gen = gen;
    }

    /// Replace the writer's instrument bundle (no-op handles by default).
    pub fn set_obs(&mut self, obs: crate::obs::WalObs) {
        self.obs = obs;
        self.obs
            .records_since_checkpoint
            .set(self.next_seq.saturating_sub(1));
        self.obs.log_bytes.set(self.durable_len);
    }

    /// Sequence number of the last appended record (0 = just the
    /// snapshot record) — also the count of records since the last
    /// checkpoint.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// Current log length in bytes.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Enter or leave group-commit mode.  While deferred, appends that
    /// would sync under the [`SyncPolicy`] only *mark* a sync as pending;
    /// [`WalWriter::flush`] issues the one real fsync.  Leaving the mode
    /// does not flush — callers pair `set_deferred(false)` with `flush()`.
    pub fn set_deferred(&mut self, on: bool) {
        self.deferred = on;
    }

    /// Issue the deferred fsync, if any appends since the last sync asked
    /// for one.  One call covers every record appended while deferred —
    /// this is the group-commit point.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.sync_pending {
            self.since_flush = 0;
            return Ok(());
        }
        let timer = self.obs.fsync_ns.start();
        self.store.sync()?;
        self.obs.fsync_ns.stop(timer);
        self.obs.flush_records.record(self.since_flush);
        self.since_flush = 0;
        self.sync_pending = false;
        self.since_sync = 0;
        Ok(())
    }

    /// Whether a failed rollback has disabled this writer.
    #[cfg(test)]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one payload as the next record, rolling back on any write or
    /// sync failure so the log never holds half a record.  Returns the
    /// framed record bytes — the leader's replication tap ships them
    /// verbatim so follower logs stay byte-identical.
    pub fn append_payload(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier failed rollback",
            ));
        }
        let rec = frame_record(self.next_seq, payload);
        self.append_framed(rec)
    }

    /// Append an already-framed record verbatim — the follower's apply
    /// path, which mirrors the leader's bytes exactly.  The caller vouches
    /// the frame is valid and carries `seq == next_seq`.
    pub fn append_raw_record(&mut self, rec: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier failed rollback",
            ));
        }
        self.append_framed(rec.to_vec()).map(|_| ())
    }

    fn append_framed(&mut self, rec: Vec<u8>) -> io::Result<Vec<u8>> {
        match self.append_and_maybe_sync(&rec) {
            Ok(()) => {
                self.next_seq += 1;
                self.durable_len += rec.len() as u64;
                if self.deferred {
                    self.since_flush += 1;
                }
                self.obs.appended_bytes.add(rec.len() as u64);
                self.obs
                    .records_since_checkpoint
                    .set(self.next_seq.saturating_sub(1));
                self.obs.log_bytes.set(self.durable_len);
                Ok(rec)
            }
            Err(e) => {
                // Undo the (possibly partial) append; if that is also
                // impossible the log may end in a torn record, so poison
                // the writer — recovery handles the tail.
                if self.store.truncate(self.durable_len).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// The entire current log image — the leader reads this to ship a
    /// catch-up tail to a follower.
    pub fn log_image(&mut self) -> io::Result<Vec<u8>> {
        self.store.read_all()
    }

    /// Unconditionally fsync the store (the promotion barrier), clearing
    /// any deferred-sync debt.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.store.sync()?;
        self.sync_pending = false;
        self.since_sync = 0;
        self.since_flush = 0;
        Ok(())
    }

    /// The fallible middle of [`WalWriter::append_payload`]: write the
    /// framed record and issue (or defer) the policy-due sync.
    fn append_and_maybe_sync(&mut self, rec: &[u8]) -> io::Result<()> {
        let timer = self.obs.append_ns.start();
        self.store.append(rec)?;
        self.obs.append_ns.stop(timer);
        self.since_sync += 1;
        let due = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.since_sync >= n.max(1),
            SyncPolicy::Never => false,
        };
        if due {
            if self.deferred {
                self.sync_pending = true;
            } else {
                let timer = self.obs.fsync_ns.start();
                self.store.sync()?;
                self.obs.fsync_ns.stop(timer);
                self.since_sync = 0;
            }
        }
        Ok(())
    }

    /// Replace the log wholesale with `magic ++ record0` (checkpointing),
    /// resetting sequence numbering.  On success a previously poisoned
    /// writer is healthy again — the log is fresh.
    pub fn reset_with(&mut self, record0_payload: &[u8]) -> io::Result<()> {
        let record0 = frame_record(0, record0_payload);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&record0);
        self.store.replace(&bytes)?;
        if matches!(self.policy, SyncPolicy::Always) {
            let timer = self.obs.fsync_ns.start();
            self.store.sync()?;
            self.obs.fsync_ns.stop(timer);
        }
        self.next_seq = 1;
        self.durable_len = bytes.len() as u64;
        self.since_sync = 0;
        self.sync_pending = false;
        self.since_flush = 0;
        self.poisoned = false;
        self.gen = gen_of_record0_frame(&record0);
        self.obs.records_since_checkpoint.set(0);
        self.obs.log_bytes.set(self.durable_len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use compview_relation::{rel, v, Instance, Tuple};

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn sample_requests() -> Vec<SessionRequest> {
        vec![
            SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
            SessionRequest::Update {
                view: "r".into(),
                new_state: Instance::new().with("R", rel(1, [["a1"]])),
            },
            SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple: Tuple::new([v("a3")]),
            },
            SessionRequest::RemovePoolTuple {
                relation: "R".into(),
                tuple: Tuple::new([v("a3")]),
            },
            SessionRequest::Undo,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
        // Reads and stats are not *logged* (is_durable is false), but
        // they still round-trip through the codec for the wire protocol.
        for req in [
            SessionRequest::Read { view: "r".into() },
            SessionRequest::Stats,
        ] {
            assert!(!req.is_durable());
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn request_decode_rejects_trailing_garbage() {
        let mut payload = encode_request(&SessionRequest::Undo);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn writer_then_parser_round_trips() {
        let (store, shared) = MemStore::new();
        let mut w = WalWriter::new(Box::new(store), SyncPolicy::Always, 0, 0);
        // Manually lay the magic like open_durable does.
        shared.lock().unwrap().extend_from_slice(MAGIC);
        w.durable_len = MAGIC.len() as u64;
        let payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        for p in &payloads {
            w.append_payload(p).unwrap();
        }
        let bytes = shared.lock().unwrap().clone();
        let parsed = parse_log(&bytes).unwrap();
        assert_eq!(parsed.stop, RecoveryStop::CleanEnd);
        assert_eq!(parsed.salvaged, bytes.len() as u64);
        assert_eq!(parsed.records.len(), payloads.len());
        for (rec, p) in parsed.records.iter().zip(&payloads) {
            assert_eq!(&rec.payload, p);
        }
    }

    #[test]
    fn every_truncation_parses_to_a_valid_prefix() {
        let (store, shared) = MemStore::new();
        shared.lock().unwrap().extend_from_slice(MAGIC);
        let mut w = WalWriter::new(
            Box::new(store),
            SyncPolicy::EveryN(2),
            0,
            MAGIC.len() as u64,
        );
        for req in sample_requests() {
            w.append_payload(&encode_request(&req)).unwrap();
        }
        let bytes = shared.lock().unwrap().clone();
        let full = parse_log(&bytes).unwrap().records.len();
        for cut in MAGIC.len()..bytes.len() {
            let parsed = parse_log(&bytes[..cut]).unwrap();
            assert!(parsed.records.len() <= full);
            assert!(parsed.salvaged <= cut as u64);
            if cut as u64 > parsed.salvaged {
                assert!(matches!(parsed.stop, RecoveryStop::TornTail { .. }));
            }
        }
        // Cuts inside the magic fail as BadHeader.
        for cut in 0..MAGIC.len() {
            assert!(parse_log(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn every_bit_flip_is_caught_or_isolated() {
        let (store, shared) = MemStore::new();
        shared.lock().unwrap().extend_from_slice(MAGIC);
        let mut w = WalWriter::new(Box::new(store), SyncPolicy::Never, 0, MAGIC.len() as u64);
        let payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        for p in &payloads {
            w.append_payload(p).unwrap();
        }
        let bytes = shared.lock().unwrap().clone();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match parse_log(&bad) {
                Err(RecoverError::BadHeader { .. }) => assert!(bit < MAGIC.len() * 8),
                Ok(parsed) => {
                    // Every salvaged record must be one we wrote, in order.
                    assert!(parsed.records.len() <= payloads.len());
                    for (rec, p) in parsed.records.iter().zip(&payloads) {
                        assert_eq!(&rec.payload, p, "bit {bit} corrupted a salvaged record");
                    }
                    // A flip strictly inside a record's bytes must stop
                    // parsing at or before that record.  (A flip in a LEN
                    // field can absorb following records into a checksum
                    // failure, which still stops before yielding them.)
                    assert_ne!(
                        (parsed.stop == RecoveryStop::CleanEnd),
                        parsed.records.len() < payloads.len(),
                        "bit {bit}: stop {:?} inconsistent with {} records",
                        parsed.stop,
                        parsed.records.len(),
                    );
                }
                Err(e) => panic!("unexpected recover error for bit {bit}: {e}"),
            }
        }
    }

    #[test]
    fn writer_rolls_back_failed_appends() {
        use crate::store::{FaultPlan, FaultyStore};
        let (store, shared) = FaultyStore::new(FaultPlan {
            fail_append_at: Some(3), // magic is appended by hand below
            short_write_bytes: 7,
            ..FaultPlan::default()
        });
        shared.lock().unwrap().extend_from_slice(MAGIC);
        let mut w = WalWriter::new(Box::new(store), SyncPolicy::Never, 0, MAGIC.len() as u64);
        let p0 = encode_request(&SessionRequest::Undo);
        w.append_payload(&p0).unwrap();
        w.append_payload(&p0).unwrap();
        let before = shared.lock().unwrap().clone();
        assert!(w.append_payload(&p0).is_err());
        assert_eq!(
            shared.lock().unwrap().clone(),
            before,
            "failed append must leave no torn bytes"
        );
        assert!(!w.is_poisoned());
        w.append_payload(&p0).unwrap();
        let parsed = parse_log(&shared.lock().unwrap()).unwrap();
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn writer_poisons_when_rollback_fails() {
        use crate::store::{FaultPlan, FaultyStore};
        let (store, shared) = FaultyStore::new(FaultPlan {
            fail_append_at: Some(2),
            short_write_bytes: 5,
            fail_truncate: true,
            ..FaultPlan::default()
        });
        shared.lock().unwrap().extend_from_slice(MAGIC);
        let mut w = WalWriter::new(Box::new(store), SyncPolicy::Never, 0, MAGIC.len() as u64);
        let p = encode_request(&SessionRequest::Undo);
        w.append_payload(&p).unwrap();
        assert!(w.append_payload(&p).is_err());
        assert!(w.is_poisoned());
        assert!(w.append_payload(&p).is_err(), "poisoned writer stays shut");
        // The log now has a torn tail, which the parser isolates.
        let parsed = parse_log(&shared.lock().unwrap()).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert!(matches!(parsed.stop, RecoveryStop::TornTail { .. }));
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = SessionSnapshot {
            config: SessionConfig {
                incremental: true,
                cross_validate: false,
                max_bits: 22,
                checkpoint: crate::CheckpointPolicy {
                    max_records: 64,
                    max_log_bytes: 1 << 20,
                },
            },
            session_id: 0xDEAD_BEEF_0000_0001,
            space: vec![1, 2, 3, 4],
            base: Instance::new().with("R", rel(1, [["a1"]])),
            views: [("r".to_owned(), 0b01u32), ("s".to_owned(), 0b10u32)].into(),
            stats: SessionStats {
                requests: 9,
                accepted: 7,
                rejected: 2,
                cache_hits: 5,
                cache_misses: 2,
                cache_remaps: 1,
                incremental_edits: 3,
                full_rebuilds: 0,
                rejected_by_variant: [("Catalog::UnknownView".to_owned(), 2u64)].into(),
            },
            log: vec![UpdateReport {
                view: "r".to_owned(),
                requested_delta: 1,
                reflected_delta: 2,
            }],
            history: vec![Instance::new().with("R", rel(1, Vec::<[&str; 1]>::new()))],
        };
        let payload = encode_snapshot(&snap);
        let back = decode_snapshot(&payload).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.session_id, snap.session_id);
        assert_eq!(back.space, snap.space);
        assert_eq!(back.base, snap.base);
        assert_eq!(back.views, snap.views);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.log, snap.log);
        assert_eq!(back.history, snap.history);
        // Truncations never panic.
        for cut in 0..payload.len() {
            assert!(decode_snapshot(&payload[..cut]).is_err());
        }
    }
}
