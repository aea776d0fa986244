//! Wire-format contract tests: every request/response variant round-trips
//! through the codec, and malformed frames — bad checksums, truncated or
//! over-limit lengths, arbitrary bit flips — are refused with typed
//! errors, never obeyed and never a panic.  Mirrors the recovery suite's
//! treatment of on-disk corruption.

use compview_core::{CatalogError, EditError, EditReport, UpdateReport};
use compview_obs::{DistTracer, TraceCtx};
use compview_relation::{v, Instance, Relation, Tuple};
use compview_serve::proto::{
    decode_event_payload, decode_metrics_response_payload, decode_request_payload,
    decode_result_payload, decode_sessions_reply_payload, decode_topology_reply_payload,
    decode_trace_response_payload, decode_wal_frame_payload, decode_wire_request,
    encode_event_payload, encode_metrics_request_payload, encode_metrics_response_payload,
    encode_read_at_payload, encode_request_payload, encode_result_payload, encode_sessions_payload,
    encode_sessions_reply_payload, encode_topology_reply_payload, encode_topology_request_payload,
    encode_trace_request_payload, encode_trace_response_payload, encode_traced_request_payload,
    encode_wal_frame_payload, frame_buffered, is_event_payload, is_sessions_reply_payload,
    is_topology_reply_payload, is_trace_reply_payload, put_frame, read_frame, write_frame,
    SessionsReply, TopoRole, TopoSession, TopologyReply, WalFrame, WireRequest, FRAME_HEADER,
    MAX_FRAME,
};
use compview_serve::proto::{expect_handshake, HANDSHAKE};
use compview_serve::{Client, ProtoError};
use compview_session::{
    DeltaEvent, DeltaKind, DispatchError, SessionError, SessionRequest, SessionResponse,
    SessionStats, StatsSnapshot, TerminateReason,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::io::{BufReader, Cursor, ErrorKind, Read};

fn rand_name(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..12usize);
    (0..n)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

fn rand_tuple(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| v(&rand_name(rng))))
}

fn rand_instance(rng: &mut StdRng) -> Instance {
    let mut inst = Instance::new();
    for _ in 0..rng.random_range(0..3u32) {
        let arity = rng.random_range(1..3u32) as usize;
        let rows = (0..rng.random_range(0..4u32))
            .map(|_| rand_tuple(rng, arity))
            .collect::<Vec<_>>();
        inst = inst.with(rand_name(rng), Relation::from_tuples(arity, rows));
    }
    inst
}

/// One of each [`SessionRequest`] variant, contents randomised by `rng`.
fn every_request(rng: &mut StdRng) -> Vec<SessionRequest> {
    vec![
        SessionRequest::RegisterView {
            name: rand_name(rng),
            mask: rng.random_range(0..1u64 << 32) as u32,
        },
        SessionRequest::Update {
            view: rand_name(rng),
            new_state: rand_instance(rng),
        },
        {
            let arity = rng.random_range(1..4u32) as usize;
            SessionRequest::InsertPoolTuple {
                relation: rand_name(rng),
                tuple: rand_tuple(rng, arity),
            }
        },
        {
            let arity = rng.random_range(1..4u32) as usize;
            SessionRequest::RemovePoolTuple {
                relation: rand_name(rng),
                tuple: rand_tuple(rng, arity),
            }
        },
        SessionRequest::Undo,
        SessionRequest::Read {
            view: rand_name(rng),
        },
        SessionRequest::Stats,
        SessionRequest::Subscribe {
            view: rand_name(rng),
        },
        SessionRequest::Unsubscribe {
            sub: rng.next_u64(),
        },
    ]
}

fn rand_stats(rng: &mut StdRng) -> StatsSnapshot {
    let mut counters = SessionStats {
        requests: rng.next_u64(),
        accepted: rng.next_u64(),
        rejected: rng.next_u64(),
        cache_hits: rng.next_u64(),
        cache_misses: rng.next_u64(),
        cache_remaps: rng.next_u64(),
        incremental_edits: rng.next_u64(),
        full_rebuilds: rng.next_u64(),
        ..SessionStats::default()
    };
    for _ in 0..rng.random_range(0..4u32) {
        let key = rand_name(rng);
        counters.rejected_by_variant.insert(key, rng.next_u64());
    }
    StatsSnapshot {
        counters,
        states: rng.random_range(0..1 << 20) as usize,
        views: rng.random_range(0..64u32) as usize,
        undoable: rng.random_range(0..64u32) as usize,
        cached_masks: rng.random_range(0..64u32) as usize,
        session_id: rng.next_u64(),
        wal_gen: rng.next_u64(),
        wal_seq: rng.next_u64(),
        log_bytes: rng.next_u64(),
        active_subs: rng.random_range(0..64u32) as usize,
    }
}

/// One of each [`SessionResponse`] variant and one of each error shape a
/// dispatch can answer with — every [`DispatchError`], [`SessionError`],
/// [`CatalogError`], and [`EditError`] variant appears.
fn every_result(rng: &mut StdRng) -> Vec<Result<SessionResponse, DispatchError>> {
    let session_errors = vec![
        SessionError::Catalog(CatalogError::UnknownView(rand_name(rng))),
        SessionError::Catalog(CatalogError::DuplicateView(rand_name(rng))),
        SessionError::Catalog(CatalogError::BadMask(rng.random_range(0..1u64 << 32) as u32)),
        SessionError::Catalog(CatalogError::IllegalViewState(rand_name(rng))),
        SessionError::Catalog(CatalogError::EmptyHistory),
        SessionError::Edit(EditError::NotEditable),
        SessionError::Edit(EditError::UnknownRelation(rand_name(rng))),
        SessionError::Edit(EditError::ArityMismatch {
            relation: rand_name(rng),
            expected: rng.random_range(0..8u32) as usize,
            got: rng.random_range(0..8u32) as usize,
        }),
        SessionError::Edit(EditError::DuplicateTuple {
            relation: rand_name(rng),
        }),
        SessionError::Edit(EditError::MissingTuple {
            relation: rand_name(rng),
        }),
        SessionError::Edit(EditError::TooLarge {
            bits: rng.random_range(0..64u32) as usize,
            max_bits: rng.random_range(0..64u32) as usize,
        }),
        SessionError::NotAComponent {
            mask: rng.random_range(0..1u64 << 32) as u32,
            detail: rand_name(rng),
        },
        SessionError::TupleInBaseState {
            relation: rand_name(rng),
        },
        SessionError::StateOutsideSpace {
            view: rand_name(rng),
        },
        SessionError::Durability {
            detail: rand_name(rng),
        },
        SessionError::StaleLog {
            detail: rand_name(rng),
        },
        SessionError::UnknownSubscription {
            sub: rng.next_u64(),
        },
    ];
    let mut out = vec![
        Ok(SessionResponse::Registered {
            view: rand_name(rng),
            mask: rng.random_range(0..1u64 << 32) as u32,
            complement: rng.random_range(0..1u64 << 32) as u32,
        }),
        Ok(SessionResponse::State(rand_instance(rng))),
        Ok(SessionResponse::Updated(UpdateReport {
            view: rand_name(rng),
            requested_delta: rng.random_range(0..1 << 20) as usize,
            reflected_delta: rng.random_range(0..1 << 20) as usize,
        })),
        Ok(SessionResponse::PoolEdited(EditReport {
            states_before: rng.random_range(0..1 << 20) as usize,
            states_after: rng.random_range(0..1 << 20) as usize,
        })),
        Ok(SessionResponse::Undone),
        Ok(SessionResponse::Stats(rand_stats(rng))),
        Ok(SessionResponse::Subscribed {
            view: rand_name(rng),
            sub: rng.next_u64(),
            image: rand_instance(rng),
        }),
        Ok(SessionResponse::Unsubscribed {
            sub: rng.next_u64(),
        }),
        Err(DispatchError::UnknownSession(rand_name(rng))),
        Err(DispatchError::Lagging {
            want_gen: rng.next_u64(),
            want_seq: rng.next_u64(),
            gen: rng.next_u64(),
            seq: rng.next_u64(),
        }),
    ];
    out.extend(
        session_errors
            .into_iter()
            .map(|e| Err(DispatchError::Session(e))),
    );
    out
}

/// A full frame's bytes for one request.
fn framed(session: &str, req: &SessionRequest) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &encode_request_payload(session, req)).unwrap();
    bytes
}

// ------------------------------------------------------------ round trips

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_variant_round_trips(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        for req in every_request(&mut rng) {
            let payload = encode_request_payload(&session, &req);
            let (s2, r2) = decode_request_payload(&payload).unwrap();
            prop_assert_eq!(&s2, &session);
            prop_assert_eq!(&r2, &req);

            // And through a full frame, too.
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &payload).unwrap();
            let read = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            prop_assert_eq!(&read, &payload);
        }
    }

    #[test]
    fn every_result_variant_round_trips(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for res in every_result(&mut rng) {
            let payload = encode_result_payload(&res);
            let back = decode_result_payload(&payload).unwrap();
            prop_assert_eq!(&back, &res);

            let mut bytes = Vec::new();
            write_frame(&mut bytes, &payload).unwrap();
            let read = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            prop_assert_eq!(&read, &payload);
        }
    }

    // ------------------------------------------------- corruption refusal

    /// Any single bit flip anywhere in a frame is caught: the checksum
    /// refuses the payload, the length prefix trips the frame reader, or
    /// — if the flip lands in the header fields in a way that still
    /// frames — the decoder refuses the payload.  Never a panic, never a
    /// silently different request.
    #[test]
    fn any_bit_flip_is_refused_or_detected(
        seed in 0u64..1 << 32,
        flip_frac in 0u32..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        let reqs = every_request(&mut rng);
        let req = &reqs[rng.random_range(0..reqs.len())];
        let mut bytes = framed(&session, req);
        let bit = (bytes.len() * 8 - 1).min(
            ((bytes.len() * 8) as u64 * flip_frac as u64 / 1000) as usize,
        );
        bytes[bit / 8] ^= 1 << (bit % 8);

        match read_frame(&mut Cursor::new(&bytes)) {
            Ok(Some(payload)) => {
                // The frame survived: the flip was in the payload *and*
                // collided with the CRC (impossible for one flip), or in
                // a header byte that still frames — then the payload is
                // either intact or refused by the decoder.
                // A typed decode refusal is fine; a *different* request
                // sneaking through is not.
                if let Ok((s2, r2)) = decode_request_payload(&payload) {
                    prop_assert_eq!(&(s2, r2), &(session.clone(), req.clone()));
                }
            }
            Ok(None) => {} // flip shortened the stream to a clean EOF? impossible, but not a panic
            Err(_) => {}   // typed refusal (BadCrc / TooLarge / Io)
        }
    }
}

// ----------------------------------------------------- malformed framing

#[test]
fn bad_crc_is_refused() {
    let mut bytes = framed("alpha", &SessionRequest::Undo);
    *bytes.last_mut().unwrap() ^= 0xFF; // corrupt the payload's last byte
    let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
    assert!(matches!(err, ProtoError::BadCrc { .. }), "{err}");
}

#[test]
fn truncated_frames_are_refused_at_every_cut() {
    let bytes = framed("alpha", &SessionRequest::Stats);
    for cut in 1..bytes.len() {
        match read_frame(&mut Cursor::new(&bytes[..cut])) {
            Err(ProtoError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            other => panic!("cut {cut}: expected UnexpectedEof, got {other:?}"),
        }
    }
    // Cut 0 is a clean end-of-stream, not an error.
    assert!(read_frame(&mut Cursor::new(&bytes[..0])).unwrap().is_none());
}

#[test]
fn over_limit_length_is_refused_before_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    // No payload bytes behind the huge claim: if the reader tried to
    // allocate-and-read it would report EOF; the limit must fire first.
    let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
    assert!(
        matches!(err, ProtoError::TooLarge { len } if len == MAX_FRAME + 1),
        "{err}"
    );
}

#[test]
fn oversized_payload_is_refused_on_write() {
    let payload = vec![0u8; MAX_FRAME as usize + 1];
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, &payload).unwrap_err();
    assert!(matches!(err, ProtoError::TooLarge { .. }), "{err}");
    assert!(sink.is_empty(), "nothing written for a refused frame");
}

#[test]
fn empty_frame_round_trips() {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &[]).unwrap();
    assert_eq!(bytes.len(), FRAME_HEADER);
    let payload = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
    assert!(payload.is_empty());
    // An empty payload is still gated by the decoder.
    assert!(decode_request_payload(&payload).is_err());
}

#[test]
fn request_payload_rejects_trailing_garbage() {
    let mut payload = encode_request_payload("alpha", &SessionRequest::Undo);
    payload.push(0);
    assert!(decode_request_payload(&payload).is_err());
    let mut payload = encode_result_payload(&Ok(SessionResponse::Undone));
    payload.push(0);
    assert!(decode_result_payload(&payload).is_err());
}

// ------------------------------------------------------------ metrics wire

/// A metrics snapshot with every instrument kind populated.
fn demo_metrics() -> compview_obs::MetricsSnapshot {
    let registry = compview_obs::Registry::new();
    registry.counter("serve.frames_in").add(17);
    registry.counter("session.requests").add(5);
    registry.gauge("wal.log_bytes").set(4096);
    let h = registry.histogram("wal.fsync_ns");
    for v in [0u64, 1, 3, 900, 1 << 40] {
        h.record(v);
    }
    registry.snapshot()
}

#[test]
fn metrics_request_marker_cannot_be_an_ordinary_request() {
    let payload = encode_metrics_request_payload();
    assert_eq!(decode_wire_request(&payload).unwrap(), WireRequest::Metrics);
    // The ordinary decoder refuses it (too short for a session name), so
    // the marker can never be misread as a session-addressed request…
    assert!(decode_request_payload(&payload).is_err());
    // …and every ordinary request payload is ≥ 4 bytes, so the reverse
    // collision is impossible too.
    let mut rng = StdRng::seed_from_u64(7);
    for req in every_request(&mut rng) {
        let ordinary = encode_request_payload("alpha", &req);
        assert!(ordinary.len() >= 4);
        assert!(matches!(
            decode_wire_request(&ordinary).unwrap(),
            WireRequest::Dispatch(_, _)
        ));
    }
}

#[test]
fn metrics_response_round_trips_and_rejects_every_truncation() {
    let snap = demo_metrics();
    let payload = encode_metrics_response_payload(&snap);
    assert_eq!(
        decode_metrics_response_payload(&payload).as_ref(),
        Ok(&snap)
    );
    for cut in 0..payload.len() {
        assert!(
            decode_metrics_response_payload(&payload[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    // A wrong marker byte is refused before the codec runs.
    let mut wrong = payload.clone();
    wrong[0] = 9;
    assert!(decode_metrics_response_payload(&wrong).is_err());
}

// ------------------------------------------------------------- event wire

/// One of each [`DeltaEvent`] shape, contents randomised by `rng`.
fn every_event(rng: &mut StdRng) -> Vec<DeltaEvent> {
    vec![
        DeltaEvent {
            sub: rng.next_u64(),
            view: rand_name(rng),
            seq: rng.next_u64(),
            kind: DeltaKind::Rows {
                added: rand_instance(rng),
                removed: rand_instance(rng),
            },
        },
        DeltaEvent {
            sub: rng.next_u64(),
            view: rand_name(rng),
            seq: rng.next_u64(),
            kind: DeltaKind::Terminated {
                reason: TerminateReason::NotAComponent {
                    detail: rand_name(rng),
                },
            },
        },
        DeltaEvent {
            sub: rng.next_u64(),
            view: rand_name(rng),
            seq: rng.next_u64(),
            kind: DeltaKind::Terminated {
                reason: TerminateReason::SlowConsumer,
            },
        },
    ]
}

#[test]
fn event_marker_cannot_collide_with_solicited_payloads() {
    let mut rng = StdRng::seed_from_u64(11);
    // Every event frame self-identifies…
    for ev in every_event(&mut rng) {
        let payload = encode_event_payload("alpha", &ev);
        assert!(is_event_payload(&payload));
        // …and the solicited decoders refuse it.
        assert!(decode_result_payload(&payload).is_err());
        assert!(decode_metrics_response_payload(&payload).is_err());
    }
    // No result or metrics payload ever reads as an event.
    for res in every_result(&mut rng) {
        assert!(!is_event_payload(&encode_result_payload(&res)));
    }
    assert!(!is_event_payload(&encode_metrics_response_payload(
        &demo_metrics()
    )));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_event_shape_round_trips(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        for ev in every_event(&mut rng) {
            let payload = encode_event_payload(&session, &ev);
            let (s2, e2) = decode_event_payload(&payload).unwrap();
            prop_assert_eq!(&s2, &session);
            prop_assert_eq!(&e2, &ev);

            // And through a full frame, too.
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &payload).unwrap();
            let read = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            prop_assert_eq!(&read, &payload);
        }
    }

    #[test]
    fn every_event_truncation_is_refused(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        for ev in every_event(&mut rng) {
            let payload = encode_event_payload(&session, &ev);
            for cut in 0..payload.len() {
                prop_assert!(
                    decode_event_payload(&payload[..cut]).is_err(),
                    "truncation at {}/{} decoded",
                    cut,
                    payload.len()
                );
            }
            let mut trailing = payload.clone();
            trailing.push(0);
            prop_assert!(decode_event_payload(&trailing).is_err());
        }
    }

    /// A bit flip in an event payload is either refused or decodes to a
    /// *different but well-formed* event — never a panic.  (Framing CRC
    /// catches flips on the wire; this gates the payload decoder alone.)
    #[test]
    fn event_payload_bit_flips_never_panic(seed in 0u64..1 << 32, flip_frac in 0u32..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        let events = every_event(&mut rng);
        let ev = &events[rng.random_range(0..events.len())];
        let payload = encode_event_payload(&session, ev);
        let bit = (payload.len() * 8 - 1).min(
            ((payload.len() * 8) as u64 * u64::from(flip_frac) / 1000) as usize,
        );
        let mut bytes = payload.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_event_payload(&bytes); // must return, not panic
    }

    /// The `ReadAt` and `Sessions` sentinel requests round-trip through
    /// the wire-request decoder, and a `SessionsReply` round-trips with
    /// and without a forwarded root-leader address.
    #[test]
    fn topology_verbs_round_trip(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        let view = rand_name(&mut rng);
        let (gen, min_seq, wait_ms) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let payload = encode_read_at_payload(&session, &view, gen, min_seq, wait_ms);
        prop_assert_eq!(
            decode_wire_request(&payload).unwrap(),
            WireRequest::ReadAt {
                session: session.clone(),
                view,
                gen,
                min_seq,
                wait_ms
            }
        );
        for cut in 5..payload.len() {
            prop_assert!(decode_wire_request(&payload[..cut]).is_err());
        }

        prop_assert_eq!(
            decode_wire_request(&encode_sessions_payload()).unwrap(),
            WireRequest::Sessions
        );

        let replies = [
            SessionsReply { leader: None, sessions: vec![] },
            SessionsReply {
                leader: Some("127.0.0.1:7000".to_owned()),
                sessions: (0..rng.random_range(1..5u32)).map(|_| rand_name(&mut rng)).collect(),
            },
        ];
        for reply in replies {
            let bytes = encode_sessions_reply_payload(&reply);
            prop_assert!(is_sessions_reply_payload(&bytes));
            prop_assert_eq!(decode_sessions_reply_payload(&bytes).unwrap(), reply);
            for cut in 0..bytes.len() {
                prop_assert!(decode_sessions_reply_payload(&bytes[..cut]).is_err());
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            prop_assert!(decode_sessions_reply_payload(&trailing).is_err());
        }
    }

    /// Any single bit flip in a metrics response payload is refused: the
    /// marker check, the snapshot CRC, or the strict structural
    /// validation catches it.
    #[test]
    fn metrics_response_bit_flips_are_refused(flip_frac in 0u32..1000) {
        let snap = demo_metrics();
        let payload = encode_metrics_response_payload(&snap);
        let bit = (payload.len() * 8 - 1).min(
            ((payload.len() * 8) as u64 * u64::from(flip_frac) / 1000) as usize,
        );
        let mut bytes = payload.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_metrics_response_payload(&bytes).is_err(),
            "bit {bit} flip accepted"
        );
    }
}

// ----------------------------------------------------------- tracing wire

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compatibility contract for trace propagation: an *untagged*
    /// request round-trips through the wire decoder and re-encodes to
    /// the same bytes, and a *tagged* request carries the identical
    /// request bytes behind its context words — so a server dispatches
    /// both identically, and old clients never notice the new frame.
    #[test]
    fn untagged_and_traced_requests_dispatch_identically(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        let ctx = TraceCtx {
            trace_id: rng.next_u64(),
            parent_span: rng.next_u64(),
        };
        for req in every_request(&mut rng) {
            let untagged = encode_request_payload(&session, &req);
            match decode_wire_request(&untagged).unwrap() {
                WireRequest::Dispatch(s, r) => {
                    prop_assert_eq!(&s, &session);
                    prop_assert_eq!(&r, &req);
                    // Byte-identical round trip: what an old client sent
                    // is exactly what a new server re-encodes.
                    prop_assert_eq!(&encode_request_payload(&s, &r), &untagged);
                }
                other => prop_assert!(false, "untagged decoded as {other:?}"),
            }

            let traced = encode_traced_request_payload(&session, &req, ctx);
            match decode_wire_request(&traced).unwrap() {
                WireRequest::DispatchTraced { session: s, req: r, ctx: c } => {
                    prop_assert_eq!(&s, &session);
                    prop_assert_eq!(&r, &req);
                    prop_assert_eq!(c, ctx);
                }
                other => prop_assert!(false, "traced decoded as {other:?}"),
            }
            // The tag is a strict prefix: sentinel + kind + two context
            // words, then the unmodified untagged payload.
            prop_assert_eq!(&traced[4 + 1 + 16..], &untagged[..]);

            // Any cut through the tag or the request is refused.
            for cut in 0..traced.len() {
                prop_assert!(decode_wire_request(&traced[..cut]).is_err(), "cut {}", cut);
            }
        }
    }

    /// An untraced WAL shipment encodes byte-identically to the pre-trace
    /// `W_RECORD` layout (a follower that never heard of tracing stays
    /// compatible), a traced one round-trips its context, and cuts
    /// through the leading fields are refused.
    #[test]
    fn wal_record_trace_tag_round_trips(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = rand_name(&mut rng);
        let gen = rng.next_u64();
        let bytes: Vec<u8> = (0..rng.random_range(0..48u32)).map(|_| rng.next_u64() as u8).collect();

        let plain = WalFrame::Record {
            session: session.clone(),
            gen,
            bytes: bytes.clone(),
            trace: None,
        };
        let payload = encode_wal_frame_payload(&plain);
        // The legacy layout, reconstructed by hand: kind, subtype, name,
        // gen, raw record bytes.
        let mut legacy = vec![6u8, 1u8];
        legacy.extend_from_slice(&(session.len() as u32).to_le_bytes());
        legacy.extend_from_slice(session.as_bytes());
        legacy.extend_from_slice(&gen.to_le_bytes());
        legacy.extend_from_slice(&bytes);
        prop_assert_eq!(&payload, &legacy);
        prop_assert_eq!(decode_wal_frame_payload(&payload).unwrap(), plain);

        let traced = WalFrame::Record {
            session: session.clone(),
            gen,
            bytes: bytes.clone(),
            trace: Some((rng.next_u64(), rng.next_u64())),
        };
        let payload = encode_wal_frame_payload(&traced);
        prop_assert_eq!(decode_wal_frame_payload(&payload).unwrap(), traced);
        // The trailing record bytes may legitimately be empty, but every
        // cut through the tagged header must be refused.
        let header = 2 + 4 + session.len() + 8 + 16;
        for cut in 0..header {
            prop_assert!(decode_wal_frame_payload(&payload[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Any single bit flip in a trace response payload is refused: the
    /// marker check or the snapshot's CRC trailer catches it.
    #[test]
    fn trace_response_bit_flips_are_refused(flip_frac in 0u32..1000) {
        let payload = encode_trace_response_payload(&demo_trace());
        let bit = (payload.len() * 8 - 1).min(
            ((payload.len() * 8) as u64 * u64::from(flip_frac) / 1000) as usize,
        );
        let mut bytes = payload.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_trace_response_payload(&bytes).is_err(),
            "bit {bit} flip accepted"
        );
    }

    /// A topology reply round-trips with every optional field populated
    /// and absent, refuses every truncation, and refuses trailing bytes.
    #[test]
    fn topology_reply_round_trips(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let replies = [
            TopologyReply {
                role: TopoRole::Root,
                upstream: None,
                root: None,
                heartbeat_age_ms: None,
                repl_streams: rng.next_u64(),
                subscribers: rng.next_u64(),
                sessions: vec![],
            },
            TopologyReply {
                role: if rng.random_range(0..2u32) == 0 {
                    TopoRole::Follower
                } else {
                    TopoRole::Promoted
                },
                upstream: Some("127.0.0.1:7000".to_owned()),
                root: Some("127.0.0.1:6000".to_owned()),
                heartbeat_age_ms: Some(rng.next_u64() % (u64::MAX - 1)),
                repl_streams: rng.next_u64(),
                subscribers: rng.next_u64(),
                sessions: (0..rng.random_range(1..4u32))
                    .map(|_| TopoSession {
                        name: rand_name(&mut rng),
                        gen: rng.next_u64(),
                        applied: rng.next_u64(),
                        target: rng.next_u64(),
                        lag_age_ms: rng.next_u64(),
                    })
                    .collect(),
            },
        ];
        for reply in replies {
            let bytes = encode_topology_reply_payload(&reply);
            prop_assert!(is_topology_reply_payload(&bytes));
            prop_assert_eq!(&decode_topology_reply_payload(&bytes).unwrap(), &reply);
            for cut in 0..bytes.len() {
                prop_assert!(decode_topology_reply_payload(&bytes[..cut]).is_err());
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            prop_assert!(decode_topology_reply_payload(&trailing).is_err());
        }
    }
}

/// A trace snapshot with a small causal chain recorded on one node.
fn demo_trace() -> compview_obs::TraceSnapshot {
    let tracer = DistTracer::new();
    tracer.configure("127.0.0.1:9999", 1);
    let root = TraceCtx {
        trace_id: tracer.sampled_trace_id(),
        parent_span: 0,
    };
    let span = tracer.span(root, "client.send");
    let child = span.ctx().unwrap();
    tracer.record(child, "wal.append", 100, 50);
    tracer.instant(child, "repl.ship");
    drop(span);
    tracer.drain()
}

#[test]
fn trace_and_topology_request_markers_cannot_be_ordinary_requests() {
    for (payload, want) in [
        (encode_trace_request_payload(), WireRequest::Trace),
        (encode_topology_request_payload(), WireRequest::Topology),
    ] {
        assert_eq!(decode_wire_request(&payload).unwrap(), want);
        // The sentinel prefix can never parse as a session name…
        assert!(decode_request_payload(&payload).is_err());
        // …and extra bytes after the marker are refused.
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_wire_request(&trailing).is_err());
    }
}

#[test]
fn trace_response_round_trips_and_rejects_every_truncation() {
    let snap = demo_trace();
    assert!(!snap.spans.is_empty(), "demo recorded spans");
    let payload = encode_trace_response_payload(&snap);
    assert!(is_trace_reply_payload(&payload));
    assert_eq!(decode_trace_response_payload(&payload).as_ref(), Ok(&snap));
    for cut in 0..payload.len() {
        assert!(
            decode_trace_response_payload(&payload[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    let mut trailing = payload.clone();
    trailing.push(0);
    assert!(decode_trace_response_payload(&trailing).is_err());
    // A wrong marker byte is refused before the snapshot codec runs.
    let mut wrong = payload.clone();
    wrong[0] = 9;
    assert!(decode_trace_response_payload(&wrong).is_err());
}

#[test]
fn topology_reply_refuses_bad_role_byte() {
    let reply = TopologyReply {
        role: TopoRole::Root,
        upstream: None,
        root: None,
        heartbeat_age_ms: None,
        repl_streams: 1,
        subscribers: 0,
        sessions: vec![],
    };
    let mut bytes = encode_topology_reply_payload(&reply);
    bytes[1] = 7; // role byte follows the marker
    assert!(decode_topology_reply_payload(&bytes).is_err());
}

// ------------------------------------------------- coalesced frames

/// A byte source that hands its bytes out in arbitrary chunk sizes
/// (cycled), the way a socket splits a stream at segment boundaries
/// that have nothing to do with frames — and, once `stall_at` bytes are
/// out, reports a read timeout instead of more bytes.
struct Chunked {
    bytes: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
    stall_at: Option<usize>,
}

impl Chunked {
    fn new(bytes: Vec<u8>, sizes: Vec<usize>) -> Chunked {
        Chunked {
            bytes,
            pos: 0,
            sizes,
            next: 0,
            stall_at: None,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.stall_at.unwrap_or(self.bytes.len());
        if self.stall_at.is_some() && self.pos == end {
            return Err(ErrorKind::WouldBlock.into());
        }
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(end - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Random payloads: empty ones, short ones, and ones of several KiB
/// (larger than most chunks, some larger than the read buffer's free
/// tail).
fn rand_payloads(rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..rng.random_range(0..12usize))
        .map(|_| {
            let len = match rng.random_range(0..4u32) {
                0 => 0,
                1 => rng.random_range(1..16usize),
                2 => rng.random_range(16..512usize),
                _ => rng.random_range(2048..9000usize),
            };
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frames coalesced into one buffer with `put_frame` are the bytes of
    /// one `write_frame` per payload, and read back — through a buffered
    /// reader over a source that splits the stream anywhere — as the
    /// identical payloads, then a clean end-of-stream.  Before every
    /// read, `frame_buffered` on the reader's buffer says whether the
    /// next frame is already whole in it.
    #[test]
    fn coalesced_frames_read_back_through_any_chunking(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads = rand_payloads(&mut rng);
        let mut wire = Vec::new();
        let mut one_by_one = Vec::new();
        for p in &payloads {
            put_frame(&mut wire, p).unwrap();
            write_frame(&mut one_by_one, p).unwrap();
        }
        prop_assert_eq!(&wire, &one_by_one);

        let sizes: Vec<usize> = (0..rng.random_range(1..6usize))
            .map(|_| rng.random_range(1..3000usize))
            .collect();
        let capacity = [16 << 10, rng.random_range(FRAME_HEADER..4096)][rng.random_range(0..2usize)];
        let mut r = BufReader::with_capacity(capacity, Chunked::new(wire, sizes));
        for p in &payloads {
            let whole = r.buffer().len() >= FRAME_HEADER + p.len();
            prop_assert_eq!(frame_buffered(r.buffer()), whole);
            let got = read_frame(&mut r).unwrap().unwrap();
            prop_assert_eq!(&got, p);
        }
        prop_assert!(!frame_buffered(r.buffer()));
        prop_assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A coalesced stream cut anywhere reads every frame wholly before
    /// the cut, then a clean end-of-stream if the cut is on a frame
    /// boundary and a torn stream (`UnexpectedEof`) if it is not.
    #[test]
    fn coalesced_stream_cut_mid_frame_reads_as_torn(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads = rand_payloads(&mut rng);
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            put_frame(&mut wire, p).unwrap();
            ends.push(wire.len());
        }
        let cut = rng.random_range(0..wire.len() + 1);
        wire.truncate(cut);
        let sizes = vec![rng.random_range(1..5000usize)];
        let mut r = BufReader::with_capacity(16 << 10, Chunked::new(wire, sizes));
        for (p, _) in payloads.iter().zip(&ends).take_while(|(_, &end)| end <= cut) {
            prop_assert_eq!(&read_frame(&mut r).unwrap().unwrap(), p);
        }
        match read_frame(&mut r) {
            Ok(None) => prop_assert!(cut == 0 || ends.contains(&cut)),
            Err(ProtoError::Io(e)) => {
                prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                prop_assert!(!ends.contains(&cut) && cut != 0);
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
    }
}

/// `frame_buffered` is true exactly when a whole frame is buffered:
/// never on a partial header, true at the header-only boundary of an
/// empty payload and false there for a non-empty one, and true from the
/// frame's last byte on, whatever follows it.
#[test]
fn frame_buffered_is_true_exactly_at_a_whole_frame() {
    for payload in [&[][..], &[7u8][..], &[1u8; 300][..]] {
        let mut frame = Vec::new();
        put_frame(&mut frame, payload).unwrap();
        for k in 0..=frame.len() {
            assert_eq!(
                frame_buffered(&frame[..k]),
                k == frame.len(),
                "payload {} bytes, {k} bytes buffered",
                payload.len()
            );
        }
        let mut two = frame.clone();
        put_frame(&mut two, b"next").unwrap();
        for k in frame.len()..=two.len() {
            assert!(frame_buffered(&two[..k]), "{k} bytes buffered");
        }
    }
}

/// `put_frame` refuses an over-limit payload and appends nothing, so a
/// coalescing writer's buffer keeps only whole frames.
#[test]
fn put_frame_refuses_oversize_and_appends_nothing() {
    let mut buf = Vec::new();
    put_frame(&mut buf, b"kept").unwrap();
    let before = buf.clone();
    let payload = vec![0u8; MAX_FRAME as usize + 1];
    let err = put_frame(&mut buf, &payload).unwrap_err();
    assert!(matches!(err, ProtoError::TooLarge { .. }), "{err}");
    assert_eq!(buf, before);
}

/// A read timeout before a frame's first byte is the socket's own idle
/// error; once any byte of the frame has been consumed — header or
/// payload — the same timeout is a torn stream, because the rest of the
/// frame could no longer be told from a new one.
#[test]
fn a_stall_inside_a_frame_is_torn_not_idle() {
    let mut frame = Vec::new();
    put_frame(&mut frame, b"0123456789").unwrap();
    for stall_at in 0..frame.len() {
        let mut src = Chunked::new(frame.clone(), vec![3]);
        src.stall_at = Some(stall_at);
        let mut r = BufReader::with_capacity(16 << 10, src);
        match read_frame(&mut r) {
            Err(ProtoError::Io(e)) if stall_at == 0 => {
                assert_eq!(e.kind(), ErrorKind::WouldBlock, "idle before the frame");
            }
            Err(ProtoError::Io(e)) => {
                assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "stall at {stall_at}");
            }
            other => panic!("stall at {stall_at}: {other:?}"),
        }
    }
}

/// A send through one of [`Client`]'s `send*` calls.
type SendCall = Box<dyn Fn(&mut Client) -> Result<(), ProtoError>>;

/// A random request sent through a random `send*` call, with the
/// payload that call frames.
fn rand_send(rng: &mut StdRng) -> (SendCall, Vec<u8>) {
    let session = rand_name(rng);
    let mut reqs = every_request(rng);
    let mut req = reqs.swap_remove(rng.random_range(0..reqs.len()));
    if rng.random_range(0..8u32) == 0 {
        // Past the burst ceiling on its own: written alone, at once.
        let rows: Vec<Tuple> = (0..2500).map(|_| rand_tuple(rng, 3)).collect();
        req = SessionRequest::Update {
            view: rand_name(rng),
            new_state: Instance::new().with("R", Relation::from_tuples(3, rows)),
        };
    }
    let ctx = TraceCtx {
        trace_id: rng.next_u64(),
        parent_span: rng.next_u64(),
    };
    let (gen, min_seq, wait_ms) = (rng.next_u64(), rng.next_u64(), rng.random_range(0..1000u64));
    match rng.random_range(0..7u32) {
        0 => {
            let payload = encode_traced_request_payload(&session, &req, ctx);
            (
                Box::new(move |c: &mut Client| c.send_traced(&session, &req, ctx)),
                payload,
            )
        }
        1 => (
            Box::new(|c: &mut Client| c.send_metrics()),
            encode_metrics_request_payload(),
        ),
        2 => (
            Box::new(|c: &mut Client| c.send_sessions()),
            encode_sessions_payload(),
        ),
        3 => (
            Box::new(|c: &mut Client| c.send_trace()),
            encode_trace_request_payload(),
        ),
        4 => (
            Box::new(|c: &mut Client| c.send_topology()),
            encode_topology_request_payload(),
        ),
        5 => {
            let view = rand_name(rng);
            let payload = encode_read_at_payload(&session, &view, gen, min_seq, wait_ms);
            let wait = std::time::Duration::from_millis(wait_ms);
            (
                Box::new(move |c: &mut Client| c.send_read_at(&session, &view, gen, min_seq, wait)),
                payload,
            )
        }
        _ => {
            let payload = encode_request_payload(&session, &req);
            (
                Box::new(move |c: &mut Client| c.send(&session, &req)),
                payload,
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coalescing client writes exactly the bytes of one
    /// `write_frame` per request, in send order: a raw listener that
    /// answers nothing receives every byte sent before each `flush` by
    /// the time it returns, and everything else once the client is
    /// dropped.  The listener reads under a timeout, so a lost flush
    /// fails instead of hanging.
    #[test]
    fn the_coalescing_client_writes_every_frame_in_order(seed in 0u64..1 << 32) {
        use std::io::Write as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            peer.write_all(HANDSHAKE).unwrap();
            expect_handshake(&mut peer).unwrap();
            peer
        });
        let mut client = Client::connect(addr).unwrap();
        let mut peer = accept.join().unwrap();
        peer.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();

        let mut expected = Vec::new();
        let mut received = Vec::new();
        for _ in 0..rng.random_range(0..40usize) {
            if rng.random_range(0..5u32) == 0 {
                client.flush().unwrap();
                let mut more = vec![0u8; expected.len() - received.len()];
                peer.read_exact(&mut more).unwrap();
                received.extend(more);
                prop_assert_eq!(&received, &expected);
            } else {
                let (send, payload) = rand_send(&mut rng);
                send(&mut client).unwrap();
                write_frame(&mut expected, &payload).unwrap();
            }
        }
        drop(client);
        peer.read_to_end(&mut received).unwrap();
        prop_assert_eq!(received.len(), expected.len());
        prop_assert!(received == expected);
    }
}
