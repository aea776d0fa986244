//! Delta subscriptions: the change-stream side of a session.
//!
//! A subscription watches one registered component view.  Subscribing
//! answers with the view's **full image** at sequence 0; afterwards,
//! every committed mutation that moves the view publishes a
//! [`DeltaEvent`] carrying sequence `1, 2, …` and a Z-set style delta —
//! the tuples that entered (`added`) and left (`removed`) the image.
//! Replaying the deltas over the initial image reconstructs exactly what
//! a fresh `Read` would return (see [`DeltaKind::Rows`]); the
//! determinism proptests in `compview-serve` assert this byte-identical
//! at every thread and shard count.
//!
//! Subscriptions are **connection-scoped, not durable**: `Subscribe` and
//! `Unsubscribe` are never written to the write-ahead log, a snapshot
//! never captures the hub, and recovery therefore replays a log with an
//! *empty* hub — a recovered session emits zero phantom events.
//!
//! The hub itself is deliberately passive: [`crate::Session`] pushes
//! events into the per-session outbox as it commits, and the owner of
//! the session (`Service::drain_events`, and through it the TCP server's
//! push path) drains them in order.  Ordering guarantee: events of one
//! subscription are emitted by exactly one session, in commit order,
//! with consecutive sequence numbers.

use compview_relation::binio::{put_str, put_u64, put_u8, Dec, DecodeError};
use compview_relation::Instance;
use std::collections::BTreeMap;

/// Why a subscription was ended by the service rather than by an
/// `Unsubscribe` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TerminateReason {
    /// A pool edit reshaped the space and the view is no longer a
    /// component of it: the endomorphism of its mask or of its complement
    /// escapes the space or fails the strong-endomorphism check.  The
    /// stream ends at that edit, and the next `Read` of the view is
    /// rejected the same way.
    NotAComponent {
        /// What failed, as reported by the component check.
        detail: String,
    },
    /// The subscriber fell too far behind: its bounded outbox on the
    /// server overflowed, so the server dropped the subscription rather
    /// than buffer without limit.  Resubscribing starts a fresh stream
    /// from a new full image.
    SlowConsumer,
}

/// What a [`DeltaEvent`] carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// The view image changed: `new = (old ∪ added) \ removed`, with
    /// `added` and `removed` disjoint and both full-signature instances
    /// (relations the delta does not touch are present and empty).
    Rows {
        /// Tuples that entered the image.
        added: Instance,
        /// Tuples that left the image.
        removed: Instance,
    },
    /// The stream is over; no further events carry this subscription id.
    Terminated {
        /// Why the service ended it.
        reason: TerminateReason,
    },
}

/// One ordered, sequence-numbered change notification for one
/// subscription.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEvent {
    /// The subscription this event belongs to (from
    /// `SessionResponse::Subscribed`).
    pub sub: u64,
    /// The subscribed view's name.
    pub view: String,
    /// 1-based event sequence; the `Subscribed` response's full image is
    /// sequence 0.  Consecutive within a subscription — a gap means the
    /// transport lost something (the server never skips).
    pub seq: u64,
    /// The delta, or a terminal notice.
    pub kind: DeltaKind,
}

/// One live subscription inside a session.
#[derive(Clone, Debug)]
pub(crate) struct SubEntry {
    pub view: String,
    pub mask: u32,
    /// The last published image.  Invariant: after every committed
    /// request this equals `endo(mask, base)`, so every subscription of
    /// one mask holds the same image.  A commit that moves the base moves
    /// it, publishing the delta; a pool edit moves no image.
    pub image: Instance,
    /// Sequence of the last emitted event (0 = only the initial image).
    pub seq: u64,
}

/// The per-session subscription registry and event outbox.
#[derive(Default)]
pub(crate) struct SubHub {
    next_id: u64,
    entries: BTreeMap<u64, SubEntry>,
    outbox: Vec<DeltaEvent>,
}

impl SubHub {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Register a subscription; ids are allocated 1, 2, … in request
    /// order, so they are deterministic for a deterministic stream.
    pub fn insert(&mut self, view: String, mask: u32, image: Instance) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.entries.insert(
            id,
            SubEntry {
                view,
                mask,
                image,
                seq: 0,
            },
        );
        id
    }

    pub fn remove(&mut self, id: u64) -> Option<SubEntry> {
        self.entries.remove(&id)
    }

    /// Subscription ids in ascending order (emission order within one
    /// commit).
    pub fn ids(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    pub fn entry(&self, id: u64) -> Option<&SubEntry> {
        self.entries.get(&id)
    }

    pub fn entry_mut(&mut self, id: u64) -> Option<&mut SubEntry> {
        self.entries.get_mut(&id)
    }

    /// Append an event to the outbox (callers maintain `SubEntry::seq`).
    pub fn emit(&mut self, event: DeltaEvent) {
        self.outbox.push(event);
    }

    /// Emit a terminal event for `id` and drop the subscription.
    pub fn terminate(&mut self, id: u64, reason: TerminateReason) {
        if let Some(entry) = self.entries.remove(&id) {
            self.outbox.push(DeltaEvent {
                sub: id,
                view: entry.view,
                seq: entry.seq + 1,
                kind: DeltaKind::Terminated { reason },
            });
        }
    }

    /// Take every buffered event, in emission order.
    pub fn take_events(&mut self) -> Vec<DeltaEvent> {
        std::mem::take(&mut self.outbox)
    }

    pub fn has_events(&self) -> bool {
        !self.outbox.is_empty()
    }
}

const KIND_ROWS: u8 = 1;
const KIND_TERMINATED: u8 = 2;
const REASON_NOT_A_COMPONENT: u8 = 1;
const REASON_SLOW_CONSUMER: u8 = 2;

/// Append the canonical binary encoding of `event` (the bytes the wire
/// protocol's event frames carry).
pub fn encode_event_into(out: &mut Vec<u8>, event: &DeltaEvent) {
    put_u64(out, event.sub);
    put_str(out, &event.view);
    put_u64(out, event.seq);
    match &event.kind {
        DeltaKind::Rows { added, removed } => {
            put_u8(out, KIND_ROWS);
            compview_relation::binio::put_instance(out, added);
            compview_relation::binio::put_instance(out, removed);
        }
        DeltaKind::Terminated { reason } => {
            put_u8(out, KIND_TERMINATED);
            match reason {
                TerminateReason::NotAComponent { detail } => {
                    put_u8(out, REASON_NOT_A_COMPONENT);
                    put_str(out, detail);
                }
                TerminateReason::SlowConsumer => put_u8(out, REASON_SLOW_CONSUMER),
            }
        }
    }
}

/// Encode `event` into a fresh buffer.
pub fn encode_event(event: &DeltaEvent) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event_into(&mut out, event);
    out
}

/// Decode one event from `d` (does not require the decoder to be
/// exhausted — event payloads may be embedded in larger frames).
///
/// # Errors
/// [`DecodeError`] on truncation, bad tags, or malformed instances.
pub fn decode_event_from(d: &mut Dec<'_>) -> Result<DeltaEvent, DecodeError> {
    let sub = d.u64()?;
    let view = d.str()?;
    let seq = d.u64()?;
    let at = d.pos();
    let kind = match d.u8()? {
        KIND_ROWS => DeltaKind::Rows {
            added: d.instance()?,
            removed: d.instance()?,
        },
        KIND_TERMINATED => {
            let at = d.pos();
            DeltaKind::Terminated {
                reason: match d.u8()? {
                    REASON_NOT_A_COMPONENT => TerminateReason::NotAComponent { detail: d.str()? },
                    REASON_SLOW_CONSUMER => TerminateReason::SlowConsumer,
                    tag => return Err(DecodeError::BadTag { at, tag }),
                },
            }
        }
        tag => return Err(DecodeError::BadTag { at, tag }),
    };
    Ok(DeltaEvent {
        sub,
        view,
        seq,
        kind,
    })
}

/// Decode an event from a standalone buffer, rejecting trailing garbage.
///
/// # Errors
/// As [`decode_event_from`], plus trailing bytes.
pub fn decode_event(bytes: &[u8]) -> Result<DeltaEvent, DecodeError> {
    let mut d = Dec::new(bytes);
    let event = decode_event_from(&mut d)?;
    if !d.is_done() {
        return Err(DecodeError::BadLength {
            at: d.pos(),
            len: d.remaining() as u64,
        });
    }
    Ok(event)
}

/// Apply `event` to `image`, returning the reconstructed next image —
/// the client-side replay step.  Terminal events leave the image as is.
pub fn apply_event(image: &Instance, event: &DeltaEvent) -> Instance {
    match &event.kind {
        DeltaKind::Rows { added, removed } => image.union(added).difference(removed),
        DeltaKind::Terminated { .. } => image.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compview_relation::{rel, Instance, RelDecl, Signature};

    fn sig() -> Signature {
        Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])])
    }

    fn sample_events() -> Vec<DeltaEvent> {
        let sig = sig();
        vec![
            DeltaEvent {
                sub: 1,
                view: "r".into(),
                seq: 1,
                kind: DeltaKind::Rows {
                    added: Instance::null_model(&sig).with("R", rel(1, [["a1"], ["a2"]])),
                    removed: Instance::null_model(&sig),
                },
            },
            DeltaEvent {
                sub: 7,
                view: "weird \"view\" ∆".into(),
                seq: u64::MAX,
                kind: DeltaKind::Terminated {
                    reason: TerminateReason::NotAComponent {
                        detail: "endo image of state 3 escapes the space".into(),
                    },
                },
            },
            DeltaEvent {
                sub: 2,
                view: String::new(),
                seq: 2,
                kind: DeltaKind::Terminated {
                    reason: TerminateReason::SlowConsumer,
                },
            },
        ]
    }

    #[test]
    fn events_round_trip() {
        for ev in sample_events() {
            let bytes = encode_event(&ev);
            assert_eq!(decode_event(&bytes).unwrap(), ev);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for ev in sample_events() {
            let bytes = encode_event(&ev);
            for cut in 0..bytes.len() {
                assert!(
                    decode_event(&bytes[..cut]).is_err(),
                    "truncation at {cut}/{} decoded",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_event(&sample_events()[0]);
        bytes.push(0);
        assert!(decode_event(&bytes).is_err());
    }

    #[test]
    fn apply_reconstructs() {
        let sig = sig();
        let image = Instance::null_model(&sig).with("R", rel(1, [["a1"]]));
        let next = apply_event(&image, &sample_events()[0]);
        assert_eq!(next.rel("R").len(), 2);
        let term = apply_event(&next, &sample_events()[2]);
        assert_eq!(term, next);
    }

    #[test]
    fn hub_allocates_ordered_ids_and_terminates() {
        let mut hub = SubHub::default();
        let a = hub.insert("r".into(), 0b01, Instance::new());
        let b = hub.insert("w".into(), 0b10, Instance::new());
        assert_eq!((a, b), (1, 2));
        assert_eq!(hub.ids(), vec![1, 2]);
        hub.terminate(a, TerminateReason::SlowConsumer);
        assert!(hub.entry(a).is_none());
        let events = hub.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].sub, a);
        assert_eq!(events[0].seq, 1);
        assert!(!hub.has_events());
    }
}
