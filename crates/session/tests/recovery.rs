//! Crash-recovery contract tests for the write-ahead log.
//!
//! The invariant under test, everywhere: **recovery never panics, always
//! yields a valid session, and the recovered session is byte-identical —
//! state, base id, space, views, audit log, undo history, and counters —
//! to an uncrashed session that served exactly the requests the log
//! durably holds.**  Crash points, bit flips, fault-injected writes, and
//! checkpoints only ever move *which* prefix that is, never whether it
//! holds.
//!
//! The fault-injection cases honour `COMPVIEW_FAULT_SEED` (see
//! `scripts/ci.sh`), so a failing seed can be replayed exactly.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_session::{
    CheckpointPolicy, FaultPlan, FaultyStore, FsStore, MemStore, RecoverError, RecoveryStop,
    Service, Session, SessionConfig, SessionError, SessionRequest, SessionResponse, SyncPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

type S = Session<SubschemaComponents>;

fn sig() -> Signature {
    Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["A"])])
}

fn pools() -> BTreeMap<String, Vec<Tuple>> {
    [
        (
            "R".to_owned(),
            vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
        ),
        ("S".to_owned(), vec![Tuple::new([v("b1")])]),
    ]
    .into()
}

fn base() -> Instance {
    Instance::null_model(&sig()).with("R", rel(1, [["a1"]]))
}

fn family() -> SubschemaComponents {
    SubschemaComponents::singletons(sig())
}

fn schema() -> Schema {
    Schema::unconstrained(sig())
}

fn config() -> SessionConfig {
    SessionConfig::default()
}

/// A fresh durable session over an in-memory store, plus the handle to
/// the log bytes.
fn open_durable_mem() -> (S, compview_session::SharedBytes) {
    let (store, shared) = MemStore::new();
    let s = Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        config(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    (s, shared)
}

/// A fresh *non-durable* shadow session with the same opening conditions.
fn open_shadow() -> S {
    Session::open(family(), schema(), &pools(), base(), config()).unwrap()
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

/// `COMPVIEW_FAULT_SEED` (decimal) mixed into the fault-injection RNGs so
/// CI can sweep seeds and a failure names its own reproduction.
fn fault_seed() -> u64 {
    std::env::var("COMPVIEW_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// One step of a recovery workload: a durable request, or a checkpoint.
#[derive(Clone, Debug)]
enum Op {
    Req(SessionRequest),
    Checkpoint,
}

/// Byte offset one past the end of the log's snapshot record: the magic
/// (6 bytes), the frame (16 bytes: len, seq, crc), and the snapshot
/// payload whose length the frame declares.  Cuts at or beyond this
/// offset must always recover; cuts inside it may only fail with a typed
/// error.
fn end_of_snapshot(bytes: &[u8]) -> usize {
    let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    6 + 16 + len
}

/// A deterministic random stream of **durable-only** requests (plus
/// optional checkpoints) with both accept and reject paths: inserts and
/// removals (duplicates, base-state conflicts), updates on registered and
/// unknown views (legal and illegal targets), undo with and without
/// history, and re-registrations.
fn random_ops(rng: &mut StdRng, n: usize, with_checkpoints: bool) -> Vec<Op> {
    let r_dom: Vec<Tuple> = (1..=4).map(|i| Tuple::new([v(&format!("a{i}"))])).collect();
    let s_dom: Vec<Tuple> = (1..=3).map(|i| Tuple::new([v(&format!("b{i}"))])).collect();
    let mut ops = vec![Op::Req(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })];
    for _ in 0..n {
        let op = match rng.random_range(0..12u32) {
            0..=2 => {
                let (reln, dom) = if rng.random_range(0..2u32) == 0 {
                    ("R", &r_dom)
                } else {
                    ("S", &s_dom)
                };
                Op::Req(SessionRequest::InsertPoolTuple {
                    relation: reln.into(),
                    tuple: dom[rng.random_range(0..dom.len())].clone(),
                })
            }
            3..=4 => {
                let (reln, dom) = if rng.random_range(0..2u32) == 0 {
                    ("R", &r_dom)
                } else {
                    ("S", &s_dom)
                };
                Op::Req(SessionRequest::RemovePoolTuple {
                    relation: reln.into(),
                    tuple: dom[rng.random_range(0..dom.len())].clone(),
                })
            }
            5..=8 => {
                // Update "r" (registered up front), "s" (registered by a
                // later op, maybe), or a ghost view.
                let view = ["r", "s", "ghost"][rng.random_range(0..3) as usize];
                let k = rng.random_range(0..3u32) as usize;
                let mut target = rel(1, Vec::<[&str; 1]>::new());
                for _ in 0..k {
                    target.insert(r_dom[rng.random_range(0..r_dom.len())].clone());
                }
                let target = if view == "s" {
                    Instance::null_model(&sig()).with("S", {
                        let mut t = rel(1, Vec::<[&str; 1]>::new());
                        if k > 0 {
                            t.insert(s_dom[rng.random_range(0..s_dom.len())].clone());
                        }
                        t
                    })
                } else {
                    Instance::null_model(&sig()).with("R", target)
                };
                Op::Req(SessionRequest::Update {
                    view: view.into(),
                    new_state: target,
                })
            }
            9 => Op::Req(SessionRequest::Undo),
            10 => Op::Req(SessionRequest::RegisterView {
                name: ["r", "s"][rng.random_range(0..2) as usize].into(),
                mask: [0b01u32, 0b10][rng.random_range(0..2) as usize],
            }),
            _ => {
                if with_checkpoints && rng.random_range(0..3u32) == 0 {
                    Op::Checkpoint
                } else {
                    Op::Req(SessionRequest::Undo)
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Run `ops` on a live durable session.  Returns, for diffing against
/// recovery: the number of requests served before the most recent
/// checkpoint (requests the current log no longer holds as records).
fn drive(session: &mut S, ops: &[Op]) -> usize {
    let mut before_checkpoint = 0;
    let mut served = 0;
    for op in ops {
        match op {
            Op::Req(req) => {
                let _ = session.serve(req.clone());
                served += 1;
            }
            Op::Checkpoint => {
                session.checkpoint().unwrap();
                before_checkpoint = served;
            }
        }
    }
    before_checkpoint
}

/// The shadow of a log prefix: a fresh non-durable session that served
/// the first `n` requests of the stream.
fn shadow_of(ops: &[Op], n: usize) -> S {
    let mut s = open_shadow();
    let mut served = 0;
    for op in ops {
        if served == n {
            break;
        }
        if let Op::Req(req) = op {
            let _ = s.serve(req.clone());
            served += 1;
        }
    }
    assert_eq!(served, n, "stream holds at least {n} requests");
    s
}

/// Byte-identity of everything a session is made of, including every
/// counter.  Holds whenever no checkpoint separates the two histories.
fn assert_same(a: &S, b: &S, ctx: &str) {
    assert_same_logical(a, b, ctx);
    assert_eq!(a.stats(), b.stats(), "{ctx}: counters");
}

/// Byte-identity of the session's *logical* state.  The set of verified
/// masks is derived and never serialized, so a session recovered from a
/// checkpoint replays the log tail with nothing verified: its
/// verification telemetry (hits, misses, remaps) may lawfully differ
/// from the uncrashed session's, and only those counters are exempted
/// here.
fn assert_same_logical(a: &S, b: &S, ctx: &str) {
    assert_eq!(a.state(), b.state(), "{ctx}: base state");
    assert_eq!(a.base_id(), b.base_id(), "{ctx}: base id");
    assert_eq!(a.space().states(), b.space().states(), "{ctx}: spaces");
    assert_eq!(
        a.catalog().views().collect::<Vec<_>>(),
        b.catalog().views().collect::<Vec<_>>(),
        "{ctx}: views"
    );
    assert_eq!(a.catalog().log(), b.catalog().log(), "{ctx}: audit log");
    assert_eq!(
        a.catalog().history(),
        b.catalog().history(),
        "{ctx}: undo history"
    );
    let strip = |s: &compview_session::SessionStats| {
        let mut s = s.clone();
        s.cache_hits = 0;
        s.cache_misses = 0;
        s.cache_remaps = 0;
        s
    };
    assert_eq!(
        strip(a.stats()),
        strip(b.stats()),
        "{ctx}: logical counters"
    );
}

// ----------------------------------------------------------- happy path

#[test]
fn full_log_recovers_the_exact_session() {
    let (mut live, shared) = open_durable_mem();
    let ops = random_ops(&mut StdRng::seed_from_u64(11), 14, false);
    drive(&mut live, &ops);

    let bytes = shared.lock().unwrap().clone();
    let (recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes.clone())),
        SyncPolicy::Always,
    )
    .unwrap();

    assert_eq!(report.stopped, RecoveryStop::CleanEnd);
    assert_eq!(report.records_applied as usize, ops.len());
    assert_eq!(report.bytes_salvaged, report.bytes_total);
    assert_same(&recovered, &live, "full log");
    recovered.space().validate_against_full().unwrap();
    assert!(recovered.is_durable());
}

#[test]
fn a_view_recovered_under_a_coupling_constraint_is_refused() {
    // A log written without constraints, over pools that draw S from R's
    // values, then recovered under IND `S ⊆ R`.  There the complement of
    // R's component (keep S, empty R) leaves the space.
    let a1 = || Tuple::new([v("a1")]);
    let pools: BTreeMap<String, Vec<Tuple>> = [
        ("R".to_owned(), vec![a1(), Tuple::new([v("a2")])]),
        ("S".to_owned(), vec![a1()]),
    ]
    .into();
    let (store, shared) = MemStore::new();
    let mut live = Session::open_durable(
        family(),
        schema(),
        &pools,
        base(),
        config(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    live.checkpoint().unwrap();
    let bytes = shared.lock().unwrap().clone();
    let ind = Schema::new(
        sig(),
        vec![compview_logic::Constraint::Ind(compview_logic::Ind::new(
            "S",
            vec![0],
            "R",
            vec![0],
        ))],
    );
    let (mut recovered, _) = Session::recover(
        family(),
        ind,
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();

    // Recovery verifies nothing; the view's first use checks its mask and
    // its complement, and refuses it.
    let Ok(SessionResponse::Stats(snap)) = recovered.serve(SessionRequest::Stats) else {
        panic!("stats returns a snapshot");
    };
    assert_eq!((snap.views, snap.cached_masks), (1, 0));
    for req in [
        SessionRequest::Read { view: "r".into() },
        SessionRequest::Subscribe { view: "r".into() },
        SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("R", rel(1, [["a2"]])),
        },
    ] {
        let err = recovered.serve(req).unwrap_err();
        assert!(
            matches!(err, SessionError::NotAComponent { mask: 0b10, .. }),
            "{err}"
        );
    }
    assert_eq!(recovered.state(), &base());
}

#[test]
fn recovered_session_keeps_logging_where_the_log_left_off() {
    let (mut live, shared) = open_durable_mem();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();

    let bytes = shared.lock().unwrap().clone();
    let store = MemStore::from_bytes(bytes);
    let (mut recovered, _) =
        Session::recover(family(), schema(), Box::new(store), SyncPolicy::Always).unwrap();

    // Serve more on both; the recovered session's log keeps growing and a
    // second recovery sees everything.
    for s in [&mut live, &mut recovered] {
        s.serve(SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        })
        .unwrap();
        s.serve(SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("R", rel(1, [["a3"]])),
        })
        .unwrap();
    }
    assert_same(&recovered, &live, "post-recovery serving");
}

// ------------------------------------------- crash points & corruptions

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn crash_at_any_point_recovers_the_durable_prefix(
        seed in 0u64..1 << 32,
        cut_frac in 0u32..=1000,
    ) {
        let (mut live, shared) = open_durable_mem();
        let ops = random_ops(&mut StdRng::seed_from_u64(seed), 12, false);
        drive(&mut live, &ops);
        let bytes = shared.lock().unwrap().clone();

        // Baseline: the log right after open (magic + snapshot record).
        let baseline = end_of_snapshot(&bytes);
        let cut = baseline + ((bytes.len() - baseline) as u64 * cut_frac as u64 / 1000) as usize;
        let torn = bytes[..cut].to_vec();

        // The same torn log must recover identically at 1, 2, and 8
        // threads (the space is re-derived, never trusted from bytes).
        let mut recovered_states = Vec::new();
        for threads in [1usize, 2, 8] {
            let (recovered, report) = with_threads(threads, || {
                Session::recover(
                    family(),
                    schema(),
                    Box::new(MemStore::from_bytes(torn.clone())),
                    SyncPolicy::Always,
                )
            })
            .unwrap_or_else(|e| panic!("cut {cut} of {} at {threads}t: {e}", bytes.len()));
            prop_assert!(report.bytes_salvaged <= cut as u64);
            if cut == bytes.len() {
                prop_assert_eq!(&report.stopped, &RecoveryStop::CleanEnd);
            }
            recovered.space().validate_against_full().unwrap();
            let shadow = with_threads(threads, || {
                shadow_of(&ops, report.records_applied as usize)
            });
            assert_same(&recovered, &shadow, &format!("cut {cut} @ {threads}t"));
            recovered_states.push((
                report.clone(),
                recovered.state().clone(),
                recovered.base_id(),
            ));
        }
        // All three thread counts agreed with their shadows *and* each other.
        prop_assert_eq!(&recovered_states[0], &recovered_states[1]);
        prop_assert_eq!(&recovered_states[0], &recovered_states[2]);
    }

    #[test]
    fn corruption_is_detected_never_obeyed(
        seed in 0u64..1 << 32,
        flip_frac in 0u32..1000,
        n_flips in 1usize..4,
    ) {
        let (mut live, shared) = open_durable_mem();
        let ops = random_ops(&mut StdRng::seed_from_u64(seed), 10, false);
        drive(&mut live, &ops);
        let mut bytes = shared.lock().unwrap().clone();

        let mut flip_rng = StdRng::seed_from_u64(seed ^ ((flip_frac as u64) << 32));
        let first_bit = (bytes.len() * 8) as u64 * flip_frac as u64 / 1000;
        bytes[first_bit as usize / 8] ^= 1 << (first_bit % 8);
        for _ in 1..n_flips {
            let bit = flip_rng.random_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }

        match Session::recover(
            family(),
            schema(),
            Box::new(MemStore::from_bytes(bytes)),
            SyncPolicy::Always,
        ) {
            // Salvaged prefix: must be *some* durable prefix, exactly.
            Ok((recovered, report)) => {
                prop_assert!(report.records_applied as usize <= ops.len());
                recovered.space().validate_against_full().unwrap();
                let shadow = shadow_of(&ops, report.records_applied as usize);
                assert_same(&recovered, &shadow, "after corruption");
            }
            // Destroyed header/snapshot: a typed refusal, not a panic.
            Err(e) => prop_assert!(
                matches!(
                    e,
                    RecoverError::BadHeader { .. } | RecoverError::BadSnapshot { .. }
                ),
                "unexpected recover error: {}", e
            ),
        }
    }
}

// ----------------------------------------- checkpoints & undo interplay

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn undo_and_checkpoints_interleave_with_replay(
        seed in 0u64..1 << 32,
        cut_frac in 0u32..=1000,
    ) {
        // Undo-heavy stream *with checkpoints*: undo-past-log-start (the
        // history crossing a checkpoint survives via the snapshot),
        // undo-on-empty-history, undo-after-rejection.
        let (mut live, shared) = open_durable_mem();
        let ops = random_ops(&mut StdRng::seed_from_u64(seed), 14, true);
        let before_checkpoint = drive(&mut live, &ops);
        let bytes = shared.lock().unwrap().clone();

        // Crash anywhere in the *current* log (which starts at the last
        // checkpoint's snapshot): the shadow serves everything up to the
        // checkpoint (compacted into the snapshot) plus the replayed tail.
        let prefix_res = Session::recover(
            family(),
            schema(),
            Box::new(MemStore::from_bytes(bytes.clone())),
            SyncPolicy::Always,
        );
        let (recovered, report) = prefix_res.unwrap();
        assert_eq!(report.stopped, RecoveryStop::CleanEnd);
        assert_same_logical(&recovered, &live, "full log with checkpoints");

        // Torn variant.
        let baseline = end_of_snapshot(&bytes);
        if bytes.len() > baseline {
            let cut = baseline
                + ((bytes.len() - baseline) as u64 * cut_frac as u64 / 1000) as usize;
            let (recovered, report) = Session::recover(
                family(),
                schema(),
                Box::new(MemStore::from_bytes(bytes[..cut].to_vec())),
                SyncPolicy::Always,
            )
            .unwrap_or_else(|e| panic!("torn checkpointed log at {cut}: {e}"));
            let shadow = shadow_of(
                &ops,
                before_checkpoint + report.records_applied as usize,
            );
            assert_same_logical(&recovered, &shadow, "torn checkpointed log");
        }
    }
}

#[test]
fn checkpoint_compacts_and_preserves_undo_past_log_start() {
    let (mut live, shared) = open_durable_mem();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    for target in [vec!["a1", "a2"], vec!["a2"]] {
        let rows: Vec<[&str; 1]> = target.iter().map(|s| [*s]).collect();
        live.serve(SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("R", rel(1, rows)),
        })
        .unwrap();
    }
    let before = shared.lock().unwrap().len();
    live.checkpoint().unwrap();
    let after = shared.lock().unwrap().len();
    assert!(after < before, "checkpoint compacted {before} -> {after}");

    // Recover from the compacted log and undo past its start: both
    // updates predate the snapshot, yet the history rode along in it.
    let bytes = shared.lock().unwrap().clone();
    let (mut recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();
    assert_eq!(report.records_applied, 0, "log is one snapshot record");
    assert_eq!(recovered.catalog().undoable(), 2);
    recovered.serve(SessionRequest::Undo).unwrap();
    recovered.serve(SessionRequest::Undo).unwrap();
    live.serve(SessionRequest::Undo).unwrap();
    live.serve(SessionRequest::Undo).unwrap();
    assert_same_logical(&recovered, &live, "undo past checkpoint");
    assert_eq!(recovered.state(), &base());
}

// --------------------------------------------------- injected fs faults

#[test]
fn failed_append_rejects_the_request_and_recovery_skips_it() {
    let mut rng = StdRng::seed_from_u64(fault_seed());
    for _round in 0..8 {
        // open_durable writes its snapshot via replace(), not append(), so
        // append #N is the Nth request; fail one somewhere in the middle.
        let fail_at = rng.random_range(2..8u64);
        let short = rng.random_range(0..20u64);
        let (store, shared) = FaultyStore::new(FaultPlan {
            fail_append_at: Some(fail_at),
            short_write_bytes: short,
            ..FaultPlan::default()
        });
        let mut live = Session::open_durable(
            family(),
            schema(),
            &pools(),
            base(),
            config(),
            Box::new(store),
            SyncPolicy::Always,
        )
        .unwrap();
        let ops = random_ops(
            &mut StdRng::seed_from_u64(rng.random_range(0..1 << 20)),
            10,
            false,
        );

        let mut logged: Vec<SessionRequest> = Vec::new();
        let mut saw_fault = false;
        for op in &ops {
            let Op::Req(req) = op else { unreachable!() };
            let state_before = live.state().clone();
            match live.serve(req.clone()) {
                Err(SessionError::Durability { .. }) => {
                    // The failed request vanished without a trace.
                    saw_fault = true;
                    assert_eq!(live.state(), &state_before, "fault mutated the session");
                }
                _ => logged.push(req.clone()),
            }
        }
        assert!(saw_fault, "fault plan fired");

        // Recovery sees every request except the one that failed to log.
        let bytes = shared.lock().unwrap().clone();
        let (recovered, report) = Session::recover(
            family(),
            schema(),
            Box::new(MemStore::from_bytes(bytes)),
            SyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(
            report.stopped,
            RecoveryStop::CleanEnd,
            "rollback left no tear"
        );
        assert_eq!(report.records_applied as usize, logged.len());
        let mut shadow = open_shadow();
        for req in &logged {
            let _ = shadow.serve(req.clone());
        }
        // The live session tallied the Durability rejection; recovery
        // cannot know about a request that never reached the log.  Only
        // those counters may differ.
        assert_eq!(recovered.state(), shadow.state());
        assert_eq!(recovered.base_id(), shadow.base_id());
        assert_eq!(recovered.space().states(), shadow.space().states());
        assert_eq!(recovered.catalog().log(), shadow.catalog().log());
        assert_eq!(recovered.catalog().history(), shadow.catalog().history());
        assert_eq!(recovered.stats(), shadow.stats());
        assert_eq!(recovered.state(), live.state(), "live == recovered state");
    }
}

#[test]
fn failed_rollback_poisons_durability_but_never_the_session() {
    let (store, shared) = FaultyStore::new(FaultPlan {
        fail_append_at: Some(2),
        short_write_bytes: 9, // torn frame
        fail_truncate: true,
        ..FaultPlan::default()
    });
    let mut live = Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        config(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    // This append fails AND its rollback fails: the wal is poisoned.
    let err = live
        .serve(SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        })
        .unwrap_err();
    assert_eq!(err.variant_label(), "Durability");
    // Every durable request is now refused…
    let err = live.serve(SessionRequest::Undo).unwrap_err();
    assert_eq!(err.variant_label(), "Durability");
    // …but reads still serve from the intact in-memory session.
    live.serve(SessionRequest::Read { view: "r".into() })
        .unwrap();

    // And the torn log still recovers its durable prefix.
    let bytes = shared.lock().unwrap().clone();
    let (recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();
    assert!(matches!(report.stopped, RecoveryStop::TornTail { .. }));
    assert_eq!(report.records_applied, 1, "the registration survived");
    assert_eq!(recovered.catalog().views().count(), 1);
}

#[test]
fn failed_sync_rejects_under_always_policy() {
    let seed = fault_seed();
    let (store, _shared) = FaultyStore::new(FaultPlan {
        // Sync #1 serves open_durable's snapshot; fail the first request's.
        fail_sync_at: Some(2),
        ..FaultPlan::default()
    });
    let mut live = Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        config(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    let err = live
        .serve(SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        })
        .unwrap_err();
    assert_eq!(err.variant_label(), "Durability", "seed {seed}");
    assert_eq!(live.catalog().views().count(), 0, "rejection left no view");
    // One-shot fault: the same request goes through afterwards.
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
}

// ----------------------------------------- mid-checkpoint crash faults

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash **mid-checkpoint**: the replace that installs the snapshot
    /// fails atomically (write-then-rename keeps the old log), the live
    /// session reports `Durability` but keeps serving, and recovery from
    /// the untouched old log reproduces every request served — the
    /// failed checkpoint is invisible.
    #[test]
    fn failed_checkpoint_keeps_the_old_log_and_the_session(
        seed in 0u64..1 << 32,
        split in 1usize..10,
    ) {
        let seed = seed ^ fault_seed();
        // Replace #1 is open_durable's initial snapshot; #2 is the first
        // checkpoint of the session's life.
        let (store, shared) = FaultyStore::new(FaultPlan {
            fail_replace_at: Some(2),
            ..FaultPlan::default()
        });
        let mut live = Session::open_durable(
            family(),
            schema(),
            &pools(),
            base(),
            config(),
            Box::new(store),
            SyncPolicy::Always,
        )
        .unwrap();
        let ops = random_ops(&mut StdRng::seed_from_u64(seed), 10, false);
        let (before, after) = ops.split_at(split.min(ops.len()));
        for op in before {
            let Op::Req(req) = op else { unreachable!() };
            let _ = live.serve(req.clone());
        }
        let err = live.checkpoint().unwrap_err();
        prop_assert_eq!(err.variant_label(), "Durability");
        // The session survives the failed checkpoint and keeps logging.
        for op in after {
            let Op::Req(req) = op else { unreachable!() };
            let _ = live.serve(req.clone());
        }

        // "Crash": recover from the store's bytes.  The old log is fully
        // intact (atomic replace failure), so every request is there.
        let bytes = shared.lock().unwrap().clone();
        let (recovered, report) = Session::recover(
            family(),
            schema(),
            Box::new(MemStore::from_bytes(bytes)),
            SyncPolicy::Always,
        )
        .unwrap();
        prop_assert_eq!(&report.stopped, &RecoveryStop::CleanEnd);
        prop_assert_eq!(report.records_applied as usize, ops.len());
        let shadow = shadow_of(&ops, ops.len());
        assert_same(&recovered, &shadow, "after failed checkpoint");
        assert_same_logical(&recovered, &live, "live vs recovered");
    }
}

// ----------------------------------------------- create-vs-recover guard

#[test]
fn create_over_existing_log_is_a_typed_refusal() {
    let dir = std::env::temp_dir().join(format!(
        "compview-stale-{}-{}",
        std::process::id(),
        fault_seed()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let mut service: Service<SubschemaComponents> = Service::new();
    service
        .create_durable_session(
            &dir,
            "alpha",
            family(),
            schema(),
            &pools(),
            base(),
            config(),
            SyncPolicy::Always,
        )
        .unwrap();
    service
        .serve(
            "alpha",
            SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
        )
        .unwrap();
    drop(service);

    // A second *create* over the same log must fail with the typed
    // StaleLog error — not silently append a fresh snapshot record onto
    // the old history.
    let before = std::fs::read(dir.join("alpha.wal")).unwrap();
    let mut service: Service<SubschemaComponents> = Service::new();
    let err = service
        .create_durable_session(
            &dir,
            "alpha",
            family(),
            schema(),
            &pools(),
            base(),
            config(),
            SyncPolicy::Always,
        )
        .unwrap_err();
    assert!(
        matches!(
            &err,
            compview_session::ServiceError::Session(SessionError::StaleLog { .. })
        ),
        "expected StaleLog, got {err:?}"
    );
    let after = std::fs::read(dir.join("alpha.wal")).unwrap();
    assert_eq!(before, after, "refused create left the log untouched");

    // The pointed-at recovery path works and sees the original session.
    let (service, reports) =
        Service::<SubschemaComponents>::open_dir(&dir, SyncPolicy::Always, |_| {
            (family(), schema())
        })
        .unwrap();
    assert!(reports["alpha"].is_ok());
    assert_eq!(
        service.session("alpha").unwrap().catalog().views().count(),
        1
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn create_over_nonempty_mem_store_is_stale_log() {
    let (mut store, _) = MemStore::new();
    compview_session::LogStore::append(&mut store, b"leftovers").unwrap();
    let err = match Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        config(),
        Box::new(store),
        SyncPolicy::Always,
    ) {
        Err(e) => e,
        Ok(_) => panic!("create over a non-empty store must fail"),
    };
    assert_eq!(err.variant_label(), "StaleLog");
    assert!(
        err.to_string().contains("recover"),
        "points at recovery: {err}"
    );
}

// -------------------------------------------- multi-session degradation

#[cfg(unix)]
#[test]
fn open_dir_reports_logs_it_cannot_name() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let dir = std::env::temp_dir().join(format!(
        "compview-badname-{}-{}",
        std::process::id(),
        fault_seed()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    // One healthy log…
    let mut service: Service<SubschemaComponents> = Service::new();
    service
        .create_durable_session(
            &dir,
            "alpha",
            family(),
            schema(),
            &pools(),
            base(),
            config(),
            SyncPolicy::Always,
        )
        .unwrap();
    drop(service);
    // …and one whose stem is not valid UTF-8 (0xFF cannot appear in
    // UTF-8), which therefore cannot name a session.
    let bad = dir.join(OsStr::from_bytes(b"bad\xFFname.wal"));
    std::fs::write(&bad, b"not a log").unwrap();

    let (service, reports) =
        Service::<SubschemaComponents>::open_dir(&dir, SyncPolicy::Always, |_| {
            (family(), schema())
        })
        .unwrap();

    // The healthy session came up; the unnameable log was *reported*,
    // not silently skipped.
    assert_eq!(service.session_names().collect::<Vec<_>>(), ["alpha"]);
    assert_eq!(reports.len(), 2, "both logs accounted for: {reports:?}");
    let bad_report = reports
        .iter()
        .find(|(name, _)| name.as_str() != "alpha")
        .expect("the unnameable log has a report entry");
    assert!(
        matches!(bad_report.1, Err(RecoverError::BadName { .. })),
        "expected BadName, got {:?}",
        bad_report.1
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_dir_degrades_only_the_corrupt_session() {
    let dir = std::env::temp_dir().join(format!(
        "compview-recovery-{}-{}",
        std::process::id(),
        fault_seed()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let mut service: Service<SubschemaComponents> = Service::new();
    for name in ["alpha", "beta", "gamma"] {
        service
            .create_durable_session(
                &dir,
                name,
                family(),
                schema(),
                &pools(),
                base(),
                config(),
                SyncPolicy::Always,
            )
            .unwrap();
        service
            .serve(
                name,
                SessionRequest::RegisterView {
                    name: "r".into(),
                    mask: 0b01,
                },
            )
            .unwrap();
    }
    service
        .serve(
            "beta",
            SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple: Tuple::new([v("a3")]),
            },
        )
        .unwrap();
    drop(service);

    // Destroy beta's snapshot region (past the magic, inside record 0).
    let beta = dir.join("beta.wal");
    let mut bytes = std::fs::read(&beta).unwrap();
    for b in bytes.iter_mut().skip(8).take(24) {
        *b ^= 0xFF;
    }
    std::fs::write(&beta, &bytes).unwrap();

    let (mut service, reports) =
        Service::<SubschemaComponents>::open_dir(&dir, SyncPolicy::Always, |_| {
            (family(), schema())
        })
        .unwrap();

    assert_eq!(reports.len(), 3);
    assert!(reports["alpha"].is_ok());
    assert!(reports["gamma"].is_ok());
    assert!(
        matches!(reports["beta"], Err(RecoverError::BadSnapshot { .. })),
        "beta: {:?}",
        reports["beta"]
    );
    // The survivors are up and serving; beta is simply absent.
    assert_eq!(
        service.session_names().collect::<Vec<_>>(),
        ["alpha", "gamma"]
    );
    service
        .serve("alpha", SessionRequest::Read { view: "r".into() })
        .unwrap();
    assert!(service
        .serve("beta", SessionRequest::Read { view: "r".into() })
        .is_err());

    // Checkpoint through the service and recover once more.
    service.checkpoint("gamma").unwrap();
    drop(service);
    let (service, reports) =
        Service::<SubschemaComponents>::open_dir(&dir, SyncPolicy::Always, |_| {
            (family(), schema())
        })
        .unwrap();
    assert!(reports["gamma"].is_ok());
    assert_eq!(
        service.session("gamma").unwrap().catalog().views().count(),
        1
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fs_store_round_trips_like_mem_store() {
    let path = std::env::temp_dir().join(format!(
        "compview-recovery-fs-{}-{}.wal",
        std::process::id(),
        fault_seed()
    ));
    std::fs::remove_file(&path).ok();

    let mut live = Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        config(),
        Box::new(FsStore::open(&path).unwrap()),
        SyncPolicy::EveryN(2),
    )
    .unwrap();
    let ops = random_ops(&mut StdRng::seed_from_u64(5), 10, false);
    drive(&mut live, &ops);

    let (recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(FsStore::open(&path).unwrap()),
        SyncPolicy::EveryN(2),
    )
    .unwrap();
    assert_eq!(report.stopped, RecoveryStop::CleanEnd);
    assert_same(&recovered, &live, "fs round trip");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------- auto-checkpointing

#[test]
fn auto_checkpoint_compacts_and_recovery_replays_only_the_tail() {
    let (store, shared) = MemStore::new();
    let registry = compview_obs::Registry::new();
    let mut cfg = config();
    cfg.checkpoint = CheckpointPolicy {
        max_records: 3,
        max_log_bytes: 0,
    };
    let mut live = Session::open_durable_observed(
        family(),
        schema(),
        &pools(),
        base(),
        cfg,
        Box::new(store),
        SyncPolicy::Always,
        &registry,
    )
    .unwrap();

    let reqs = [
        SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        },
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        },
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a4")]),
        },
        // -- the policy fires here: 3 records since the snapshot --
        SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("R", rel(1, [["a2"], ["a3"]])),
        },
        SessionRequest::Undo,
    ];
    for req in &reqs {
        live.serve(req.clone()).unwrap();
    }

    // Exactly one automatic checkpoint fired, and it was counted.
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert_eq!(counter("session.checkpoints.auto"), 1);
    assert_eq!(counter("session.checkpoints"), 1);
    assert_eq!(counter("session.checkpoints.auto_failures"), 0);

    // Recovery replays only the records written after the checkpoint.
    let bytes = shared.lock().unwrap().clone();
    let (recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();
    assert_eq!(report.stopped, RecoveryStop::CleanEnd);
    assert_eq!(
        report.records_applied, 2,
        "only the tail after the auto-checkpoint replays"
    );
    assert_same_logical(&recovered, &live, "auto checkpoint");
    assert_eq!(recovered.session_id(), live.session_id());
    assert_ne!(live.session_id(), 0);
    assert_eq!(
        recovered.config().checkpoint,
        live.config().checkpoint,
        "the policy itself survives the snapshot codec"
    );
}

#[test]
fn log_size_policy_checkpoints_every_record_once_over_budget() {
    let (store, shared) = MemStore::new();
    let mut cfg = config();
    // A 1-byte budget is always exceeded, so every applied record
    // triggers a compaction and the log never holds more than a snapshot.
    cfg.checkpoint = CheckpointPolicy {
        max_records: 0,
        max_log_bytes: 1,
    };
    let mut live = Session::open_durable(
        family(),
        schema(),
        &pools(),
        base(),
        cfg,
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    live.serve(SessionRequest::InsertPoolTuple {
        relation: "R".into(),
        tuple: Tuple::new([v("a3")]),
    })
    .unwrap();

    let bytes = shared.lock().unwrap().clone();
    let (recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();
    assert_eq!(report.records_applied, 0, "the log is pure snapshot");
    assert_same_logical(&recovered, &live, "log-size policy");
}

// ------------------------------------------------------- stats identity

#[test]
fn stats_snapshot_reports_durable_identity() {
    let (mut live, _shared) = open_durable_mem();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    let SessionResponse::Stats(snap) = live.serve(SessionRequest::Stats).unwrap() else {
        panic!("stats request answers with stats");
    };
    assert_ne!(snap.session_id, 0);
    assert_eq!(snap.session_id, live.session_id());
    assert_eq!(snap.wal_seq, 1, "one durable record since the snapshot");
    assert!(snap.log_bytes > 0);

    // The identity is content-derived: an identical opening gets the
    // same id, at any thread count.
    for threads in [1usize, 2, 8] {
        let (twin, _) = with_threads(threads, open_durable_mem);
        assert_eq!(
            twin.session_id(),
            live.session_id(),
            "{threads} threads: identity"
        );
    }

    // Non-durable sessions report zeros across the board.
    let mut shadow = open_shadow();
    let SessionResponse::Stats(s2) = shadow.serve(SessionRequest::Stats).unwrap() else {
        panic!("stats request answers with stats");
    };
    assert_eq!((s2.session_id, s2.wal_seq, s2.log_bytes), (0, 0, 0));
}

// ------------------------------------------------ subscriptions + crash

/// Subscriptions are connection-scoped, never durable.  A session that
/// crashes with live subscriptions recovers its logical state exactly —
/// but with zero subscriptions and zero pending delta events: WAL replay
/// re-applies the mutations without re-publishing them, so a subscriber
/// reconnecting after a crash can never observe a phantom event.
#[test]
fn recovery_carries_no_subscriptions_and_publishes_no_events() {
    let (mut live, shared) = open_durable_mem();
    live.serve(SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    })
    .unwrap();
    let SessionResponse::Subscribed { sub, .. } = live
        .serve(SessionRequest::Subscribe { view: "r".into() })
        .unwrap()
    else {
        panic!("subscribe answers with Subscribed");
    };

    // Skip the leading RegisterView (already served above) so the live
    // session and the log agree on the request stream.
    let ops = random_ops(&mut StdRng::seed_from_u64(23), 16, false);
    for op in &ops[1..] {
        if let Op::Req(req) = op {
            let _ = live.serve(req.clone());
        }
    }
    // The live subscription really was publishing up to the crash.
    let published = live.take_events();
    assert!(
        published.iter().any(|e| e.sub == sub),
        "workload committed nothing — events: {published:?}"
    );
    assert_eq!(live.active_subscriptions(), 1);

    let bytes = shared.lock().unwrap().clone();
    let (mut recovered, report) = Session::recover(
        family(),
        schema(),
        Box::new(MemStore::from_bytes(bytes)),
        SyncPolicy::Always,
    )
    .unwrap();
    assert_eq!(report.stopped, RecoveryStop::CleanEnd);

    // A completely silent subscription layer...
    assert_eq!(recovered.active_subscriptions(), 0, "phantom subscription");
    assert!(!recovered.has_events(), "phantom events pending");
    assert_eq!(recovered.take_events(), vec![], "phantom events replayed");

    // ...under byte-identical logical state.  Re-subscribing first
    // restores request-counter parity (the live `Subscribe` was served
    // but never logged) and shows ids restart at 1, as on a new session.
    let SessionResponse::Subscribed { sub, .. } = recovered
        .serve(SessionRequest::Subscribe { view: "r".into() })
        .unwrap()
    else {
        panic!("subscribe answers with Subscribed");
    };
    assert_eq!(sub, 1, "subscription ids restart after recovery");
    assert_same_logical(&recovered, &live, "crash with live subscription");
}
