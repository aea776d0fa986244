//! Distributed tracing: causally linked spans that cross process
//! boundaries, plus the codec'd [`TraceSnapshot`] the `Trace` wire verb
//! ships.
//!
//! This is the stack's one tracer.  A [`TraceCtx`] (`trace_id`,
//! `parent_span`) travels on the wire, and every hop that holds a
//! configured [`DistTracer`] records owned [`SpanRecord`]s into a
//! drainable buffer.  A cross-process trace is assembled by draining
//! each node's buffer and joining spans on `trace_id` / `parent_span`.
//! Aggregate timings that need no causal link (WAL append and fsync,
//! per-variant serve latency, chase and enumeration runs) are
//! histograms and counters on the [`crate::Registry`] instead.
//!
//! ## Head sampling
//!
//! Sampling is decided once, deterministically, from the `trace_id`
//! alone: a tracer configured with `sample_one_in = N` records a trace
//! iff `trace_id % N == 0` (`0` = tracing off, `1` = always).  Because
//! every hop applies the same rule to the same id, a request is either
//! traced at *every* hop or at none — no half-assembled trees.  An
//! unsampled request costs one branch per instrumentation point.
//!
//! ## Codec
//!
//! [`TraceSnapshot::encode`] follows the same discipline as
//! [`crate::MetricsSnapshot`]: a version byte, little-endian integers,
//! length-prefixed UTF-8 strings, and a CRC-32 trailer over everything
//! before it.  Corruption is rejected, never misread.

use crate::{crc32, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans buffered per tracer before new ones are dropped (a drain
/// resets the budget).  Bounds memory under always-on sampling; a
/// registry's tracer counts what it drops in `obs.dtrace.dropped`.
pub const DTRACE_CAP: usize = 1 << 16;

/// The trace context a request carries across the wire: which trace it
/// belongs to and which span caused it.  16 bytes, `Copy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Identifies the end-to-end trace; every hop keys sampling off it.
    pub trace_id: u64,
    /// The span id of the causing hop (0 = root: no parent).
    pub parent_span: u64,
}

/// One recorded span: a labelled `[start, start + dur]` interval on one
/// node, causally linked to its parent by `parent_span`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id (unique within a trace; never 0).
    pub span_id: u64,
    /// The causing span's id (0 = root).
    pub parent_span: u64,
    /// What the span covers (`"wal.append"`, `"repl.apply"`, …).
    pub label: String,
    /// Wall-clock start, nanoseconds since the Unix epoch.  Comparable
    /// within a node; across nodes it is advisory (clocks may skew) —
    /// tree structure comes from `parent_span`, not timestamps.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Process-wide counter feeding span- and trace-id generation: ids stay
/// unique across every tracer in the process (shard registries each
/// hold their own tracer but share this counter).
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| wall_ns() | 1)
}

struct DtInner {
    node: Mutex<String>,
    node_hash: AtomicU64,
    sample_one_in: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: Counter,
}

/// A drainable buffer of distributed spans plus this node's sampling
/// configuration.  Cloning shares the buffer.  Off (recording nothing)
/// until [`DistTracer::configure`] sets a non-zero sampling rate.
#[derive(Clone, Default)]
pub struct DistTracer {
    inner: Option<Arc<DtInner>>,
}

impl DistTracer {
    /// A tracer that records nothing and cannot be configured.
    pub fn noop() -> DistTracer {
        DistTracer { inner: None }
    }

    /// A fresh, unconfigured tracer (sampling off until
    /// [`DistTracer::configure`]).
    pub fn new() -> DistTracer {
        DistTracer::counting(Counter::noop())
    }

    /// [`DistTracer::new`], counting each span dropped on a full buffer
    /// in `dropped`.
    pub(crate) fn counting(dropped: Counter) -> DistTracer {
        DistTracer {
            inner: Some(Arc::new(DtInner {
                node: Mutex::new(String::new()),
                node_hash: AtomicU64::new(0),
                sample_one_in: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                dropped,
            })),
        }
    }

    /// Name this node (reported in [`TraceSnapshot::node`]) and set the
    /// head-sampling rate: record a trace iff `trace_id % n == 0`, with
    /// `0` = off and `1` = always.  Idempotent; callable any time.
    pub fn configure(&self, node: &str, sample_one_in: u64) {
        if let Some(inner) = &self.inner {
            *inner.node.lock().expect("dtrace lock") = node.to_owned();
            inner
                .node_hash
                .store(fnv1a64(node.as_bytes()), Ordering::Relaxed);
            inner.sample_one_in.store(sample_one_in, Ordering::Relaxed);
        }
    }

    /// The configured node name (empty if unconfigured or no-op).
    pub fn node(&self) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => inner.node.lock().expect("dtrace lock").clone(),
        }
    }

    /// The configured 1-in-N sampling rate (0 = off).
    pub fn sample_one_in(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.sample_one_in.load(Ordering::Relaxed))
    }

    /// Whether this tracer records anything at all.
    pub fn is_on(&self) -> bool {
        self.sample_one_in() != 0
    }

    /// The deterministic head-sampling decision for `trace_id` under
    /// this node's configuration — the same at every hop that shares
    /// the rate.
    pub fn sampled(&self, trace_id: u64) -> bool {
        match self.sample_one_in() {
            0 => false,
            n => trace_id.is_multiple_of(n),
        }
    }

    /// A fresh trace id, roughly uniform (so 1-in-N sampling admits
    /// about 1/N of them).  Unique within the process; cross-process
    /// uniqueness comes from the wall-clock seed.
    pub fn new_trace_id(&self) -> u64 {
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        process_seed() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A fresh trace id guaranteed to be sampled under the current
    /// configuration (used by demos and tests to force a trace
    /// through).  Returns 0 when sampling is off.
    pub fn sampled_trace_id(&self) -> u64 {
        match self.sample_one_in() {
            0 => 0,
            n => {
                let id = self.new_trace_id();
                id - id % n
            }
        }
    }

    fn next_span_id(&self) -> u64 {
        let hash = self
            .inner
            .as_ref()
            .map_or(0, |i| i.node_hash.load(Ordering::Relaxed));
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        let id = hash ^ process_seed() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if id == 0 {
            1
        } else {
            id
        }
    }

    fn push(&self, rec: SpanRecord) {
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock().expect("dtrace lock");
            if spans.len() < DTRACE_CAP {
                spans.push(rec);
            } else {
                inner.dropped.inc();
            }
        }
    }

    /// Record a completed span with an explicit start and duration
    /// (used where the interval was measured before the tracer is
    /// consulted, e.g. shard-queue wait).  Returns the new span's id,
    /// or 0 when the trace is not sampled.
    pub fn record(&self, ctx: TraceCtx, label: &str, start_ns: u64, dur_ns: u64) -> u64 {
        if !self.sampled(ctx.trace_id) {
            return 0;
        }
        let span_id = self.next_span_id();
        self.push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent_span: ctx.parent_span,
            label: label.to_owned(),
            start_ns,
            dur_ns,
        });
        span_id
    }

    /// Record an instant (zero-duration) event.  Returns the span id,
    /// or 0 when not sampled.
    pub fn instant(&self, ctx: TraceCtx, label: &str) -> u64 {
        self.record(ctx, label, wall_ns(), 0)
    }

    /// Open a span under `ctx`; the returned guard records it on drop.
    /// A no-op guard (id 0, `ctx()` = `None`) when the trace is not
    /// sampled — the `Instant::now()` is skipped too.
    pub fn span(&self, ctx: TraceCtx, label: &str) -> DistSpan {
        if !self.sampled(ctx.trace_id) {
            return DistSpan {
                tracer: DistTracer::noop(),
                trace_id: 0,
                span_id: 0,
                parent_span: 0,
                label: String::new(),
                start_ns: 0,
                started: None,
            };
        }
        DistSpan {
            tracer: self.clone(),
            trace_id: ctx.trace_id,
            span_id: self.next_span_id(),
            parent_span: ctx.parent_span,
            label: label.to_owned(),
            start_ns: wall_ns(),
            started: Some(Instant::now()),
        }
    }

    /// Drain the span buffer into a snapshot (the buffer empties — the
    /// `Trace` wire verb is destructive by design, like a log tail).
    pub fn drain(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot::default(),
            Some(inner) => {
                let spans = std::mem::take(&mut *inner.spans.lock().expect("dtrace lock"));
                TraceSnapshot {
                    node: self.node(),
                    spans,
                }
            }
        }
    }
}

/// Guard for an open distributed span: records the [`SpanRecord`] on
/// drop.  [`DistSpan::ctx`] is the context downstream work should
/// carry so its spans parent here.
pub struct DistSpan {
    tracer: DistTracer,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    label: String,
    start_ns: u64,
    started: Option<Instant>,
}

impl DistSpan {
    /// This span's id (0 on a no-op guard).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// The context for work caused by this span (`None` on a no-op
    /// guard, i.e. when the trace is not sampled).
    pub fn ctx(&self) -> Option<TraceCtx> {
        if self.span_id == 0 {
            None
        } else {
            Some(TraceCtx {
                trace_id: self.trace_id,
                parent_span: self.span_id,
            })
        }
    }
}

impl Drop for DistSpan {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let dur = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracer.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span: self.parent_span,
            label: std::mem::take(&mut self.label),
            start_ns: self.start_ns,
            dur_ns: dur,
        });
    }
}

/// One node's drained span buffer, ready for the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The reporting node's name (its serving address, by convention).
    pub node: String,
    /// The drained spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

/// Codec format version.
const VERSION: u8 = 1;

/// Why a trace snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// Shorter than the minimum frame (version byte + CRC trailer).
    TooShort,
    /// The CRC-32 trailer does not match the body.
    BadCrc { want: u32, got: u32 },
    /// Unknown format version.
    BadVersion(u8),
    /// The body ended early or a length prefix overran it.
    Eof { at: usize },
    /// A string was not valid UTF-8.
    BadUtf8 { at: usize },
    /// A span carried id 0 (reserved for "no parent").
    BadSpanId { at: usize },
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes { at: usize },
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTraceError::TooShort => write!(f, "trace snapshot too short"),
            DecodeTraceError::BadCrc { want, got } => {
                write!(
                    f,
                    "trace snapshot crc mismatch: want {want:#x}, got {got:#x}"
                )
            }
            DecodeTraceError::BadVersion(v) => write!(f, "unknown trace version {v}"),
            DecodeTraceError::Eof { at } => write!(f, "trace snapshot truncated at {at}"),
            DecodeTraceError::BadUtf8 { at } => write!(f, "bad trace string utf-8 at {at}"),
            DecodeTraceError::BadSpanId { at } => write!(f, "span id 0 at {at}"),
            DecodeTraceError::TrailingBytes { at } => {
                write!(f, "trailing bytes after trace snapshot at {at}")
            }
        }
    }
}

impl std::error::Error for DecodeTraceError {}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeTraceError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeTraceError::Eof { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeTraceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeTraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeTraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, DecodeTraceError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(DecodeTraceError::Eof { at });
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeTraceError::BadUtf8 { at })
    }

    /// A count that must leave at least `min_bytes_per_item` per item.
    fn count(&mut self, min_bytes_per_item: usize) -> Result<usize, DecodeTraceError> {
        let at = self.pos;
        let n = self.u32()? as u64;
        let cap = ((self.buf.len() - self.pos) / min_bytes_per_item.max(1)) as u64;
        if n > cap {
            return Err(DecodeTraceError::Eof { at });
        }
        Ok(n as usize)
    }
}

impl TraceSnapshot {
    /// Encode to bytes: version, node name, spans, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(VERSION);
        put_str(&mut out, &self.node);
        put_u32(&mut out, u32::try_from(self.spans.len()).expect("fits"));
        for s in &self.spans {
            put_u64(&mut out, s.trace_id);
            put_u64(&mut out, s.span_id);
            put_u64(&mut out, s.parent_span);
            put_str(&mut out, &s.label);
            put_u64(&mut out, s.start_ns);
            put_u64(&mut out, s.dur_ns);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decode bytes produced by [`TraceSnapshot::encode`], rejecting any
    /// corruption (same all-or-nothing discipline as the metrics codec).
    pub fn decode(bytes: &[u8]) -> Result<TraceSnapshot, DecodeTraceError> {
        if bytes.len() < 5 {
            return Err(DecodeTraceError::TooShort);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let got = u32::from_le_bytes(trailer.try_into().expect("4"));
        let want = crc32(body);
        if want != got {
            return Err(DecodeTraceError::BadCrc { want, got });
        }
        let mut r = Reader { buf: body, pos: 0 };
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeTraceError::BadVersion(version));
        }
        let node = r.str()?;
        let n = r.count(8 + 8 + 8 + 4 + 8 + 8)?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.pos;
            let trace_id = r.u64()?;
            let span_id = r.u64()?;
            let parent_span = r.u64()?;
            if span_id == 0 {
                return Err(DecodeTraceError::BadSpanId { at });
            }
            let label = r.str()?;
            let start_ns = r.u64()?;
            let dur_ns = r.u64()?;
            spans.push(SpanRecord {
                trace_id,
                span_id,
                parent_span,
                label,
                start_ns,
                dur_ns,
            });
        }
        if r.pos != body.len() {
            return Err(DecodeTraceError::TrailingBytes { at: r.pos });
        }
        Ok(TraceSnapshot { node, spans })
    }

    /// Merge several snapshots from the *same node* (per-shard tracers
    /// behind one server) into one, spans sorted by
    /// `(trace_id, start_ns, span_id)` for a deterministic content
    /// ordering.  The node name is taken from the first non-empty part.
    pub fn merged<'a, I>(parts: I) -> TraceSnapshot
    where
        I: IntoIterator<Item = &'a TraceSnapshot>,
    {
        let mut node = String::new();
        let mut spans = Vec::new();
        for part in parts {
            if node.is_empty() {
                node = part.node.clone();
            }
            spans.extend(part.spans.iter().cloned());
        }
        spans.sort_by(|a, b| {
            (a.trace_id, a.start_ns, a.span_id).cmp(&(b.trace_id, b.start_ns, b.span_id))
        });
        TraceSnapshot { node, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            node: "127.0.0.1:4100".to_owned(),
            spans: vec![
                SpanRecord {
                    trace_id: 64,
                    span_id: 0x1111,
                    parent_span: 0,
                    label: "client.send".to_owned(),
                    start_ns: 1_000,
                    dur_ns: 500,
                },
                SpanRecord {
                    trace_id: 64,
                    span_id: 0x2222,
                    parent_span: 0x1111,
                    label: "session.dispatch".to_owned(),
                    start_ns: 1_100,
                    dur_ns: 300,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        assert_eq!(TraceSnapshot::decode(&snap.encode()), Ok(snap));
        let empty = TraceSnapshot::default();
        assert_eq!(TraceSnapshot::decode(&empty.encode()), Ok(empty));
    }

    #[test]
    fn every_truncation_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                TraceSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    TraceSnapshot::decode(&corrupt).is_err(),
                    "bit flip at byte {i} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn structural_corruption_rejected_even_with_fresh_crc() {
        let reseal = |mut body: Vec<u8>| {
            body.truncate(body.len() - 4);
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        // Bad version byte.
        let mut bytes = sample().encode();
        bytes[0] = 9;
        assert!(matches!(
            TraceSnapshot::decode(&reseal(bytes)),
            Err(DecodeTraceError::BadVersion(9))
        ));
        // Span id 0 is reserved for "no parent".
        let mut snap = sample();
        snap.spans[1].span_id = 0;
        assert!(matches!(
            TraceSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeTraceError::BadSpanId { .. })
        ));
        // Trailing garbage inside the CRC'd body.
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 4);
        bytes.push(0);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            TraceSnapshot::decode(&bytes),
            Err(DecodeTraceError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn sampling_is_deterministic_and_keyed_off_trace_id() {
        let t = DistTracer::new();
        assert!(!t.is_on());
        assert!(!t.sampled(0));
        t.configure("node-a", 64);
        assert!(t.sampled(0));
        assert!(t.sampled(128));
        assert!(!t.sampled(1));
        assert!(!t.sampled(63));
        // Always-on and off.
        t.configure("node-a", 1);
        assert!(t.sampled(17));
        t.configure("node-a", 0);
        assert!(!t.sampled(17));
        // A guaranteed-sampled id respects the configured rate.
        t.configure("node-a", 64);
        for _ in 0..32 {
            let id = t.sampled_trace_id();
            assert!(t.sampled(id));
        }
    }

    #[test]
    fn spans_record_and_link_causally() {
        let t = DistTracer::new();
        t.configure("127.0.0.1:9", 1);
        let root = TraceCtx {
            trace_id: t.sampled_trace_id(),
            parent_span: 0,
        };
        let outer = t.span(root, "client.send");
        let outer_id = outer.id();
        assert_ne!(outer_id, 0);
        let child_ctx = outer.ctx().expect("sampled");
        assert_eq!(child_ctx.trace_id, root.trace_id);
        assert_eq!(child_ctx.parent_span, outer_id);
        let inner_id = t.record(child_ctx, "wal.append", 123, 45);
        assert_ne!(inner_id, 0);
        drop(outer);
        let snap = t.drain();
        assert_eq!(snap.node, "127.0.0.1:9");
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.label == "wal.append").unwrap();
        let outer = snap
            .spans
            .iter()
            .find(|s| s.label == "client.send")
            .unwrap();
        assert_eq!(inner.parent_span, outer.span_id);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(outer.parent_span, 0);
        // Drain emptied the buffer.
        assert!(t.drain().spans.is_empty());
        // Round-trips through the codec.
        let resnap = TraceSnapshot {
            node: snap.node.clone(),
            spans: snap.spans.clone(),
        };
        assert_eq!(TraceSnapshot::decode(&resnap.encode()), Ok(resnap));
    }

    #[test]
    fn unsampled_traces_cost_nothing_and_record_nothing() {
        let t = DistTracer::new();
        t.configure("n", 64);
        let ctx = TraceCtx {
            trace_id: 63,
            parent_span: 0,
        };
        let span = t.span(ctx, "x");
        assert_eq!(span.id(), 0);
        assert!(span.ctx().is_none());
        drop(span);
        assert_eq!(t.record(ctx, "y", 0, 0), 0);
        assert!(t.drain().spans.is_empty());
        // No-op tracer accepts everything silently.
        let noop = DistTracer::noop();
        noop.configure("n", 1);
        assert!(!noop.is_on());
        assert_eq!(noop.span(ctx, "z").id(), 0);
        assert!(noop.drain().spans.is_empty());
    }

    #[test]
    fn buffer_caps_at_dtrace_cap() {
        let t = DistTracer::new();
        t.configure("n", 1);
        let ctx = TraceCtx {
            trace_id: 0,
            parent_span: 0,
        };
        for _ in 0..(DTRACE_CAP + 10) {
            t.instant(ctx, "e");
        }
        assert_eq!(t.drain().spans.len(), DTRACE_CAP);
        // Draining resets the budget.
        t.instant(ctx, "e");
        assert_eq!(t.drain().spans.len(), 1);
    }

    #[test]
    fn a_registry_counts_every_span_a_full_buffer_drops() {
        // Registered eagerly: a fresh registry's snapshot already has it.
        let fresh = crate::Registry::new().snapshot();
        assert!(fresh
            .counters
            .iter()
            .any(|(n, v)| n == "obs.dtrace.dropped" && *v == 0));

        let registry = crate::Registry::new();
        let dropped = registry.counter("obs.dtrace.dropped");
        let t = registry.dtracer();
        t.configure("n", 1);
        let ctx = TraceCtx {
            trace_id: 0,
            parent_span: 0,
        };
        for _ in 0..(DTRACE_CAP + 3) {
            t.instant(ctx, "e");
        }
        assert_eq!(dropped.get(), 3);
        assert_eq!(t.drain().spans.len(), DTRACE_CAP);
        // A drain makes room again: the next span is kept, not dropped.
        t.instant(ctx, "e");
        assert_eq!(dropped.get(), 3);
        assert_eq!(t.drain().spans.len(), 1);
    }

    #[test]
    fn merged_sorts_spans_deterministically() {
        let a = TraceSnapshot {
            node: "n1".to_owned(),
            spans: vec![SpanRecord {
                trace_id: 2,
                span_id: 5,
                parent_span: 0,
                label: "b".to_owned(),
                start_ns: 50,
                dur_ns: 1,
            }],
        };
        let b = TraceSnapshot {
            node: "n1".to_owned(),
            spans: vec![SpanRecord {
                trace_id: 1,
                span_id: 9,
                parent_span: 0,
                label: "a".to_owned(),
                start_ns: 99,
                dur_ns: 1,
            }],
        };
        let m = TraceSnapshot::merged([&a, &b]);
        assert_eq!(m.node, "n1");
        assert_eq!(m.spans[0].trace_id, 1);
        assert_eq!(m.spans[1].trace_id, 2);
    }
}
