//! Shared state spaces: sessions of one key hold one interned
//! `StateSpace`, a lookup hit is observably identical to a miss, the
//! "checked, not trusted" component check stays per session, and snapshot
//! pools that do not fit the schema are refused with typed errors.
//!
//! The interner is process-wide and the tests of this file run on
//! concurrent threads, so every test draws its pools from symbols no
//! other test uses.

use compview_core::{StateSpace, SubschemaComponents};
use compview_logic::{Constraint, Ind, Schema};
use compview_obs::Registry;
use compview_relation::{v, Instance, RelDecl, Signature, Tuple};
use compview_session::{
    ApplyError, CatchupPlan, MemStore, RecoverError, Service, Session, SessionConfig, SessionError,
    SessionRequest, SessionResponse, SyncPolicy,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

type S = Session<SubschemaComponents>;
type Pools = BTreeMap<String, Vec<Tuple>>;

fn sig() -> Signature {
    Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["A"])])
}

fn t(name: &str) -> Tuple {
    Tuple::new([v(name)])
}

/// `n` tuples per relation over symbols tagged `tag`.
fn pools(tag: &str, n: usize) -> Pools {
    let pool = |rel: &str| (0..n).map(|i| t(&format!("{tag}_{rel}{i}"))).collect();
    [("R".to_owned(), pool("r")), ("S".to_owned(), pool("s"))].into()
}

fn open_with(schema: Schema, pools: &Pools, registry: &Registry) -> S {
    Session::open_observed(
        SubschemaComponents::singletons(sig()),
        schema,
        pools,
        Instance::null_model(&sig()),
        SessionConfig::default(),
        registry,
    )
    .unwrap()
}

fn open(pools: &Pools) -> S {
    open_with(Schema::unconstrained(sig()), pools, &Registry::disabled())
}

fn open_durable(pools: &Pools, registry: &Registry) -> (S, compview_session::SharedBytes) {
    let (store, bytes) = MemStore::new();
    let session = Session::open_durable_observed(
        SubschemaComponents::singletons(sig()),
        Schema::unconstrained(sig()),
        pools,
        Instance::null_model(&sig()),
        SessionConfig::default(),
        Box::new(store),
        SyncPolicy::Always,
        registry,
    )
    .unwrap();
    (session, bytes)
}

fn recover(bytes: &compview_session::SharedBytes, registry: &Registry) -> S {
    let store = MemStore::from_bytes(bytes.lock().unwrap().clone());
    Session::recover_observed(
        SubschemaComponents::singletons(sig()),
        Schema::unconstrained(sig()),
        Box::new(store),
        SyncPolicy::Always,
        registry,
    )
    .unwrap()
    .0
}

fn same(a: &S, b: &S) -> bool {
    std::ptr::eq(a.space(), b.space())
}

/// `(enum.runs, enum.reused)` on `registry`.
fn enum_tally(registry: &Registry) -> (u64, u64) {
    (
        registry.counter("enum.runs").get(),
        registry.counter("enum.reused").get(),
    )
}

fn register(name: &str, mask: u32) -> SessionRequest {
    SessionRequest::RegisterView {
        name: name.into(),
        mask,
    }
}

#[test]
fn reuse_is_counted_and_the_interner_holds_no_strong_handle() {
    let registry = Registry::new();
    let p = pools("count", 2);
    let opened: Vec<S> = (0..4)
        .map(|_| open_with(Schema::unconstrained(sig()), &p, &registry))
        .collect();
    assert_eq!(enum_tally(&registry), (1, 3));
    assert_eq!(registry.counter("enum.states").get(), 16);
    drop(opened);
    // Nobody holds the key any more, so it is enumerated again.
    let _again = open_with(Schema::unconstrained(sig()), &p, &registry);
    assert_eq!(enum_tally(&registry), (2, 3));
}

#[test]
fn opened_recovered_and_reset_sessions_share_one_space() {
    let p = pools("seat", 2);
    let (mut leader, bytes) = open_durable(&p, &Registry::disabled());
    leader.serve(register("r", 0b01)).unwrap();
    leader.checkpoint().unwrap();
    let plain = open(&p);
    let recovered = recover(&bytes, &Registry::disabled());
    assert!(same(&leader, &plain) && same(&leader, &recovered));

    // A follower on another key is reset onto the leader's space.
    let (mut follower, _) = open_durable(&pools("seat_other", 1), &Registry::disabled());
    assert!(!same(&leader, &follower));
    let CatchupPlan::Reset { record0, .. } = leader.replication_catchup(0, 0).unwrap() else {
        panic!("a fresh follower is offered a reset");
    };
    follower.apply_reset(&record0).unwrap();
    assert!(same(&leader, &follower));
}

#[test]
fn concurrent_opens_of_one_key_share_one_space() {
    let p = Arc::new(pools("threads", 3));
    let gate = Arc::new(Barrier::new(8));
    let sessions: Vec<S> = (0..8)
        .map(|_| {
            let (p, gate) = (Arc::clone(&p), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait();
                open(&p)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    assert!(sessions.iter().all(|s| same(s, &sessions[0])));
}

#[test]
fn every_part_of_the_key_tells_spaces_apart() {
    let p = pools("apart", 2);
    let base = open(&p);
    let mut reordered = p.clone();
    reordered.get_mut("S").unwrap().reverse();
    let mut grown = p.clone();
    grown.get_mut("R").unwrap().push(t("apart_extra"));
    let ind = Schema::new(
        sig(),
        vec![Constraint::Ind(Ind::new("S", vec![0], "R", vec![0]))],
    );
    let narrow = Session::open(
        SubschemaComponents::singletons(sig()),
        Schema::unconstrained(sig()),
        &p,
        Instance::null_model(&sig()),
        SessionConfig {
            max_bits: 20,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    for other in [
        open(&reordered),
        open(&grown),
        open_with(ind, &p, &Registry::disabled()),
        narrow,
    ] {
        assert!(!same(&base, &other));
    }
}

#[test]
fn a_pool_edit_moves_only_the_session_that_made_it() {
    let p = pools("move", 2);
    let (mut a, b) = (open(&p), open(&p));
    let original = b.space() as *const StateSpace;
    let extra = t("move_extra");
    let insert = SessionRequest::InsertPoolTuple {
        relation: "R".into(),
        tuple: extra.clone(),
    };
    let remove = SessionRequest::RemovePoolTuple {
        relation: "R".into(),
        tuple: extra,
    };
    a.serve(insert).unwrap();
    assert!(!same(&a, &b));
    assert_eq!((a.space().len(), b.space().len()), (32, 16));
    assert!(std::ptr::eq(b.space(), original));
    a.serve(remove).unwrap();
    assert!(std::ptr::eq(a.space(), original));
}

#[test]
fn full_edits_build_a_space_of_their_own() {
    // The reference path re-enumerates and never looks up, so the soak
    // test's incremental-vs-full pair compares spaces built separately.
    let p = pools("full", 2);
    let full_config = SessionConfig {
        incremental: false,
        ..SessionConfig::default()
    };
    let open_full = || {
        Session::open(
            SubschemaComponents::singletons(sig()),
            Schema::unconstrained(sig()),
            &p,
            Instance::null_model(&sig()),
            full_config,
        )
        .unwrap()
    };
    let (mut inc, mut full, mut full_twin) = (open(&p), open_full(), open_full());
    assert!(same(&inc, &full));
    let insert = SessionRequest::InsertPoolTuple {
        relation: "S".into(),
        tuple: t("full_extra"),
    };
    for s in [&mut inc, &mut full, &mut full_twin] {
        s.serve(insert.clone()).unwrap();
    }
    assert_eq!(inc.space().states(), full.space().states());
    assert!(!same(&inc, &full) && !same(&full, &full_twin));
}

/// A request script that exercises every path a space move touches:
/// registrations (masks verified), reads, an update, a subscription,
/// both kinds of pool edit (verified masks re-checked, subscribed views
/// verified), a rejected edit, and stats.
fn script(tag: &str) -> Vec<SessionRequest> {
    let extra = t(&format!("{tag}_extra"));
    let r0 = t(&format!("{tag}_r0"));
    let r_view = |rows: &[&Tuple]| {
        let mut inst = Instance::null_model(&sig());
        for row in rows {
            inst.rel_mut("R").insert((*row).clone());
        }
        inst
    };
    vec![
        register("r", 0b01),
        register("s", 0b10),
        SessionRequest::Subscribe { view: "r".into() },
        SessionRequest::Read { view: "r".into() },
        SessionRequest::Update {
            view: "r".into(),
            new_state: r_view(&[&r0]),
        },
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: extra.clone(),
        },
        SessionRequest::Read { view: "s".into() },
        SessionRequest::Update {
            view: "r".into(),
            new_state: r_view(&[&r0, &extra]),
        },
        SessionRequest::Update {
            view: "r".into(),
            new_state: r_view(&[&r0]),
        },
        SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: r0.clone(),
        },
        SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: extra,
        },
        SessionRequest::Read { view: "r".into() },
        SessionRequest::Stats,
    ]
}

/// Everything a client or a disk could tell about a session after the
/// script: every response (full `Stats` included), every delta event,
/// the log bytes, and the bytes of a checkpoint taken afterwards.
type Observed = (
    Vec<Result<SessionResponse, SessionError>>,
    Vec<compview_session::DeltaEvent>,
    Vec<u8>,
    Vec<u8>,
);

fn run(
    session: &mut S,
    bytes: &compview_session::SharedBytes,
    reqs: &[SessionRequest],
) -> Observed {
    let responses = reqs.iter().map(|r| session.serve(r.clone())).collect();
    let events = session.take_events();
    let log = bytes.lock().unwrap().clone();
    session.checkpoint().unwrap();
    let snapshot = bytes.lock().unwrap().clone();
    (responses, events, log, snapshot)
}

#[test]
fn a_lookup_hit_is_observably_identical_to_a_miss() {
    let tag = "twin";
    let (p, reqs) = (pools(tag, 2), script(tag));

    // Misses everywhere: nobody else holds any key this session visits.
    let miss_reg = Registry::new();
    let (mut miss, miss_bytes) = open_durable(&p, &miss_reg);
    let missed = run(&mut miss, &miss_bytes, &reqs);
    assert_eq!(enum_tally(&miss_reg), (1, 0));
    assert!(
        missed.0.iter().any(Result::is_err),
        "the script includes a refused edit"
    );

    // Hits everywhere: pins hold the opened key and the edited one.
    let mut grown = p.clone();
    grown.get_mut("R").unwrap().push(t(&format!("{tag}_extra")));
    let pins = [open(&p), open(&grown)];
    let hit_reg = Registry::new();
    let (mut hit, hit_bytes) = open_durable(&p, &hit_reg);
    let hits = run(&mut hit, &hit_bytes, &reqs);
    assert_eq!(enum_tally(&hit_reg), (0, 3));
    assert_eq!(missed, hits);
    assert!(same(&hit, &miss) && same(&hit, &pins[0]));
}

/// A follow-up script for sessions brought back by recovery or a reset.
fn follow_up(tag: &str) -> Vec<SessionRequest> {
    let extra = t(&format!("{tag}_later"));
    vec![
        SessionRequest::Stats,
        SessionRequest::Read { view: "r".into() },
        SessionRequest::InsertPoolTuple {
            relation: "S".into(),
            tuple: extra.clone(),
        },
        SessionRequest::Read { view: "s".into() },
        SessionRequest::RemovePoolTuple {
            relation: "S".into(),
            tuple: extra,
        },
        SessionRequest::Undo,
        SessionRequest::Stats,
    ]
}

/// A store holding a copy of `bytes`, plus the handle to watch it.
fn store_of(bytes: &compview_session::SharedBytes) -> (MemStore, compview_session::SharedBytes) {
    let (store, shared) = MemStore::new();
    shared.lock().unwrap().clone_from(&bytes.lock().unwrap());
    (store, shared)
}

#[test]
fn recovery_onto_a_live_key_matches_a_cold_recovery() {
    let tag = "recover";
    let p = pools(tag, 2);
    let (mut leader, log) = open_durable(&p, &Registry::disabled());
    for req in script(tag) {
        let _ = leader.serve(req);
    }
    drop(leader);

    let mut outcomes = Vec::new();
    let mut grown = p.clone();
    grown.get_mut("R").unwrap().push(t(&format!("{tag}_extra")));
    for (pinned, want) in [(false, (1, 0)), (true, (0, 3))] {
        // Replay re-runs the logged pool edits, so the pins hold every
        // key it visits.
        let _pins = pinned.then(|| [open(&p), open(&grown)]);
        let registry = Registry::new();
        let (store, bytes) = store_of(&log);
        let (mut s, report) = Session::recover_observed(
            SubschemaComponents::singletons(sig()),
            Schema::unconstrained(sig()),
            Box::new(store),
            SyncPolicy::Always,
            &registry,
        )
        .unwrap();
        assert_eq!(enum_tally(&registry), want, "pinned: {pinned}");
        let observed = run(&mut s, &bytes, &follow_up(tag));
        outcomes.push((report, observed));
    }
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn a_reset_onto_a_live_key_matches_a_cold_reset() {
    let tag = "reset";
    let (mut leader, _) = open_durable(&pools(tag, 2), &Registry::disabled());
    for req in script(tag) {
        let _ = leader.serve(req);
    }
    leader.checkpoint().unwrap();
    let CatchupPlan::Reset { record0, .. } = leader.replication_catchup(0, 0).unwrap() else {
        panic!("a fresh follower is offered a reset");
    };
    drop(leader);

    let mut outcomes = Vec::new();
    let mut followers = Vec::new();
    for want in [(1, 0), (0, 1)] {
        let registry = Registry::new();
        let (mut f, bytes) = open_durable(&pools(&format!("{tag}_f"), 1), &registry);
        f.apply_reset(&record0).unwrap();
        let (runs, reused) = enum_tally(&registry);
        assert_eq!((runs - 1, reused), want, "the open itself enumerated once");
        followers.push((f, bytes));
    }
    assert!(same(&followers[0].0, &followers[1].0));
    for (f, bytes) in &mut followers {
        outcomes.push(run(f, bytes, &follow_up(tag)));
    }
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn a_coupling_constraint_is_refused_on_a_shared_space() {
    // IND S ⊆ R couples the two singleton atoms: the complement of R's
    // component keeps S and empties R, which leaves the space.  Both
    // pools draw from the same values, so S can be non-empty.
    let values: Vec<Tuple> = (0..2).map(|i| t(&format!("couple_{i}"))).collect();
    let p: Pools = [("R".to_owned(), values.clone()), ("S".to_owned(), values)].into();
    let ind = || {
        Schema::new(
            sig(),
            vec![Constraint::Ind(Ind::new("S", vec![0], "R", vec![0]))],
        )
    };
    let mut sessions = [
        open_with(ind(), &p, &Registry::disabled()),
        open_with(ind(), &p, &Registry::disabled()),
    ];
    assert!(same(&sessions[0], &sessions[1]));
    for s in &mut sessions {
        let refused = s.serve(register("r", 0b01));
        assert!(
            matches!(refused, Err(SessionError::NotAComponent { mask: 0b10, .. })),
            "{refused:?}"
        );
    }

    // Same signature and pools without the constraint: another, larger
    // space, on which the registration is accepted.
    let mut free = open(&p);
    assert!(!same(&free, &sessions[0]));
    assert!(free.space().len() > sessions[0].space().len());
    free.serve(register("r", 0b01)).unwrap();
}

/// The schema under IND `S ⊆ R`, and pools drawing both relations from
/// the same values tagged `tag`, so `S` can be non-empty.
fn coupled(tag: &str) -> (Schema, Pools) {
    let values: Vec<Tuple> = (0..2).map(|i| t(&format!("{tag}_{i}"))).collect();
    let schema = Schema::new(
        sig(),
        vec![Constraint::Ind(Ind::new("S", vec![0], "R", vec![0]))],
    );
    (
        schema,
        [("R".to_owned(), values.clone()), ("S".to_owned(), values)].into(),
    )
}

/// `session.verify.reused` on `registry`.
fn reused(registry: &Registry) -> u64 {
    registry.counter("session.verify.reused").get()
}

#[test]
fn a_verdict_from_the_table_is_observably_identical_to_a_check() {
    let tag = "verdict";
    let (p, reqs) = (pools(tag, 2), script(tag));
    // Pins hold every key the script visits, so the second session meets
    // the spaces the first one checked, with their verdicts.
    let mut grown = p.clone();
    grown.get_mut("R").unwrap().push(t(&format!("{tag}_extra")));
    let _pins = [open(&p), open(&grown)];
    let first_reg = Registry::new();
    let (mut first, first_bytes) = open_durable(&p, &first_reg);
    let checked = run(&mut first, &first_bytes, &reqs);
    let second_reg = Registry::new();
    let (mut second, second_bytes) = open_durable(&p, &second_reg);
    let answered = run(&mut second, &second_bytes, &reqs);

    // Every check of the second session was answered by the table: one
    // per mask verified on first use, one per mask re-checked (and kept)
    // after a pool edit.  The first one had to check on its own.
    let checks = |r: &Registry| {
        r.counter("session.cache.misses").get() + r.counter("session.cache.remaps").get()
    };
    assert!(checks(&second_reg) > 0);
    assert_eq!(reused(&second_reg), checks(&second_reg));
    assert!(reused(&first_reg) < checks(&first_reg));
    // Responses (full `Stats` included), events, log and checkpoint bytes.
    assert_eq!(checked, answered);

    // A refusal reads the same from the table as from the check.
    let (schema, cp) = coupled("verdict_refused");
    let (one, two) = (Registry::new(), Registry::new());
    let mut sessions = [
        open_with(schema.clone(), &cp, &one),
        open_with(schema, &cp, &two),
    ];
    let refusals: Vec<SessionError> = sessions
        .iter_mut()
        .map(|s| s.serve(register("r", 0b01)).unwrap_err())
        .collect();
    assert!(
        matches!(refusals[0], SessionError::NotAComponent { mask: 0b10, .. }),
        "{:?}",
        refusals[0]
    );
    assert_eq!(refusals[0].to_string(), refusals[1].to_string());
    assert_eq!(refusals[0], refusals[1]);
    assert_eq!((reused(&one), reused(&two)), (0, 2));
}

#[test]
fn two_groupings_of_one_space_never_share_a_verdict() {
    // Under IND S ⊆ R, keeping R alone is a component and keeping S
    // alone is not.  Mask 0b01 is R in one grouping and S in the other.
    let (schema, p) = coupled("grouping");
    let open_grouped = |groups: [&str; 2], registry: &Registry| {
        Session::open_observed(
            SubschemaComponents::new(sig(), groups.map(|g| vec![g.to_owned()]).into()),
            schema.clone(),
            &p,
            Instance::null_model(&sig()),
            SessionConfig::default(),
            registry,
        )
        .unwrap()
    };
    let (rs_reg, sr_reg) = (Registry::new(), Registry::new());
    let mut rs = open_grouped(["R", "S"], &rs_reg);
    let mut sr = open_grouped(["S", "R"], &sr_reg);
    assert!(same(&rs, &sr));
    let refused = rs.serve(register("v", 0b01)).unwrap_err();
    assert!(
        matches!(refused, SessionError::NotAComponent { mask: 0b10, .. }),
        "{refused:?}"
    );
    // Read through `rs`'s verdicts, 0b01 would pass and 0b10 would fail.
    let refused = sr.serve(register("v", 0b01)).unwrap_err();
    assert!(
        matches!(refused, SessionError::NotAComponent { mask: 0b01, .. }),
        "{refused:?}"
    );
    assert_eq!((reused(&rs_reg), reused(&sr_reg)), (0, 0));
}

/// A three-relation signature: a record 0 written under [`sig`] lacks a
/// pool for `T`.
fn wide_sig() -> Signature {
    Signature::new([
        RelDecl::new("R", ["A"]),
        RelDecl::new("S", ["A"]),
        RelDecl::new("T", ["A"]),
    ])
}

#[test]
fn a_reset_whose_pools_do_not_fit_is_refused_and_changes_nothing() {
    let (mut leader, _) = open_durable(&pools("misfit", 1), &Registry::disabled());
    leader.serve(register("r", 0b01)).unwrap();
    let CatchupPlan::Reset { record0, .. } = leader.replication_catchup(0, 0).unwrap() else {
        panic!("a fresh follower is offered a reset");
    };

    let mut wide_pools = pools("misfit_wide", 1);
    wide_pools.insert("T".to_owned(), vec![t("misfit_wide_t")]);
    let (store, bytes) = MemStore::new();
    let mut follower = Session::open_durable(
        SubschemaComponents::singletons(wide_sig()),
        Schema::unconstrained(wide_sig()),
        &wide_pools,
        Instance::null_model(&wide_sig()),
        SessionConfig::default(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    follower.serve(register("t", 0b100)).unwrap();
    let before = (
        follower.serve(SessionRequest::Stats).unwrap(),
        bytes.lock().unwrap().clone(),
        follower.space() as *const StateSpace,
    );

    let refused = follower.apply_reset(&record0);
    assert!(
        matches!(&refused, Err(ApplyError::BadSnapshot { detail }) if detail.contains("\"T\"")),
        "{refused:?}"
    );
    let after = (
        follower.serve(SessionRequest::Stats).unwrap(),
        bytes.lock().unwrap().clone(),
        follower.space() as *const StateSpace,
    );
    // Only the second Stats request itself is new.
    let (SessionResponse::Stats(b), SessionResponse::Stats(a)) = (&before.0, &after.0) else {
        panic!("stats");
    };
    assert_eq!(a.counters.requests, b.counters.requests + 1);
    assert_eq!(
        (a.content(), &before.1, before.2),
        (b.content(), &after.1, after.2)
    );
}

#[test]
fn open_dir_reports_a_log_whose_pools_do_not_fit() {
    let dir = std::env::temp_dir().join(format!("compview-sharing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut wide_pools = pools("dir", 1);
    wide_pools.insert("T".to_owned(), vec![t("dir_t")]);
    let mut service: Service<SubschemaComponents> = Service::new();
    for name in ["alpha", "gamma"] {
        service
            .create_durable_session(
                &dir,
                name,
                SubschemaComponents::singletons(wide_sig()),
                Schema::unconstrained(wide_sig()),
                &wide_pools,
                Instance::null_model(&wide_sig()),
                SessionConfig::default(),
                SyncPolicy::Always,
            )
            .unwrap();
    }
    // beta's log was written under the narrower schema: no pool for T.
    service
        .create_durable_session(
            &dir,
            "beta",
            SubschemaComponents::singletons(sig()),
            Schema::unconstrained(sig()),
            &pools("dir", 1),
            Instance::null_model(&sig()),
            SessionConfig::default(),
            SyncPolicy::Always,
        )
        .unwrap();
    drop(service);

    let (service, reports) =
        Service::<SubschemaComponents>::open_dir(&dir, SyncPolicy::Always, |_| {
            (
                SubschemaComponents::singletons(wide_sig()),
                Schema::unconstrained(wide_sig()),
            )
        })
        .unwrap();
    assert!(reports["alpha"].is_ok() && reports["gamma"].is_ok());
    assert!(
        matches!(&reports["beta"], Err(RecoverError::BadSnapshot { detail }) if detail.contains("\"T\"")),
        "{:?}",
        reports["beta"]
    );
    assert_eq!(
        service.session_names().collect::<Vec<_>>(),
        ["alpha", "gamma"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Record 0 of a log written for `pools("dupe", 2)`, with the pool of `R`
/// edited to hold `dupe_r0` twice and its frame's checksum recomputed:
/// a snapshot that decodes, but whose pools repeat a tuple.
fn record0_with_a_repeated_tuple() -> Vec<u8> {
    let (mut leader, _) = open_durable(&pools("dupe", 2), &Registry::disabled());
    let CatchupPlan::Reset { record0, .. } = leader.replication_catchup(0, 0).unwrap() else {
        panic!("a fresh follower is offered a reset");
    };
    // Frame: payload length, seq, CRC over seq and payload, payload.
    let mut payload = record0[16..].to_vec();
    let at: Vec<usize> = (0..payload.len())
        .filter(|&i| payload[i..].starts_with(b"dupe_r1"))
        .collect();
    assert_eq!(at.len(), 1, "the pool names dupe_r1 once");
    payload[at[0]..at[0] + 7].copy_from_slice(b"dupe_r0");
    let seq = 0u64.to_le_bytes();
    let crc = compview_obs::crc32(&[&seq[..], &payload].concat());
    let len = u32::try_from(payload.len()).unwrap().to_le_bytes();
    [&len[..], &seq, &crc.to_le_bytes(), &payload].concat()
}

#[test]
fn a_snapshot_whose_pool_repeats_a_tuple_is_refused_on_recovery_and_reset() {
    let record0 = record0_with_a_repeated_tuple();
    let log = [&compview_session::wal::MAGIC[..], &record0].concat();
    let recovered = Session::recover(
        SubschemaComponents::singletons(sig()),
        Schema::unconstrained(sig()),
        Box::new(MemStore::from_bytes(log)),
        SyncPolicy::Always,
    );
    assert!(
        matches!(&recovered, Err(RecoverError::BadSnapshot { detail })
            if detail == "state space: pool of \"R\" repeats a tuple"),
        "{:?}",
        recovered.as_ref().err()
    );

    let (mut follower, bytes) = open_durable(&pools("dupe_follower", 1), &Registry::disabled());
    let before = (
        bytes.lock().unwrap().clone(),
        follower.space() as *const StateSpace,
    );
    let refused = follower.apply_reset(&record0);
    assert!(
        matches!(&refused, Err(ApplyError::BadSnapshot { detail })
            if detail == "state space: pool of \"R\" repeats a tuple"),
        "{refused:?}"
    );
    let after = (
        bytes.lock().unwrap().clone(),
        follower.space() as *const StateSpace,
    );
    assert_eq!(before, after);
}

#[test]
#[should_panic(expected = "pool of \"S\" repeats a tuple")]
fn opening_on_a_pool_that_repeats_a_tuple_panics_with_the_typed_message() {
    let mut repeated = pools("dupe_open", 1);
    repeated.get_mut("S").unwrap().push(t("dupe_open_s0"));
    open(&repeated);
}
