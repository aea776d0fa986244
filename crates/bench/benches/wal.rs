//! E12: durability costs — WAL append throughput per fsync policy,
//! group-commit amortisation, and recovery latency.
//!
//! `append_*` legs run the same `Update`/`Undo` round trip as
//! `session/update_undo`, but on a durable session logging to a real
//! file, so the difference prices the log: serialization + append per
//! request, plus an fsync per record (`always`), per 8th record
//! (`every8`), or never (`never` — the OS flushes, recovery truncates
//! whatever had not landed).  `group_commit_16` dispatches a 16-request
//! batch through `Service::dispatch` on an `Always` session: the
//! deferred-sync window coalesces the 16 per-record fsyncs into one, so
//! its mean **divided by 16** is the per-request cost to compare against
//! the `append_*` ladder.  `recover_64` is the full crash-restart path:
//! read the log, decode the snapshot, re-enumerate the state space, and
//! replay 64 logged requests through `serve`.  Its source session is
//! dropped before the leg: state spaces are shared per key, so while any
//! session of the key is alive a recovery only looks its space up, and
//! the leg would price a lookup instead of a cold recovery.

use compview_bench::header;
use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_session::{
    LogStore, MemStore, Service, Session, SessionConfig, SessionRequest, SyncPolicy,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn sig() -> Signature {
    Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])])
}

fn pools() -> BTreeMap<String, Vec<Tuple>> {
    [
        (
            "R".to_owned(),
            (0..5).map(|i| Tuple::new([v(&format!("a{i}"))])).collect(),
        ),
        (
            "S".to_owned(),
            (0..3).map(|i| Tuple::new([v(&format!("b{i}"))])).collect(),
        ),
    ]
    .into()
}

fn base() -> Instance {
    Instance::null_model(&sig()).with("R", rel(1, [["a0"]]))
}

/// A durable session over `store`, with the view `r` registered — the
/// same 256-state space as the `session` bench, for comparability.
fn open_durable(store: Box<dyn LogStore>, policy: SyncPolicy) -> Session<SubschemaComponents> {
    let mut session = Session::open_durable(
        SubschemaComponents::singletons(sig()),
        Schema::unconstrained(sig()),
        &pools(),
        base(),
        SessionConfig::default(),
        store,
        policy,
    )
    .expect("fresh store opens");
    session
        .serve(SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        })
        .expect("R is a subschema component");
    session
}

fn bench_wal(c: &mut Criterion) {
    header(
        "E12",
        "wal: append throughput per fsync policy, recovery latency",
    );
    let target = Instance::null_model(&sig()).with("R", rel(1, [["a1"], ["a2"]]));
    let update_undo = |session: &mut Session<SubschemaComponents>| {
        black_box(
            session
                .serve(SessionRequest::Update {
                    view: "r".into(),
                    new_state: target.clone(),
                })
                .unwrap(),
        );
        black_box(session.serve(SessionRequest::Undo).unwrap());
    };

    let mut group = c.benchmark_group("wal");
    let tmp = std::env::temp_dir().join(format!("compview-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    for (leg, policy) in [
        ("append_always", SyncPolicy::Always),
        ("append_every8", SyncPolicy::EveryN(8)),
        ("append_never", SyncPolicy::Never),
    ] {
        let path = tmp.join(format!("{leg}.wal"));
        std::fs::remove_file(&path).ok();
        let store = compview_session::FsStore::open(&path).unwrap();
        let mut session = open_durable(Box::new(store), policy);
        group.bench_function(leg, |b| b.iter(|| update_undo(&mut session)));
    }

    // Group commit: the same update/undo traffic under SyncPolicy::Always,
    // but dispatched as one 16-request batch — one fsync per batch instead
    // of one per record.  Compare (mean / 16) against append_always and
    // append_never.
    {
        let path = tmp.join("group_commit.wal");
        std::fs::remove_file(&path).ok();
        let store = compview_session::FsStore::open(&path).unwrap();
        let session = open_durable(Box::new(store), SyncPolicy::Always);
        let mut service: Service<SubschemaComponents> = Service::new();
        service.add_session("w", session).unwrap();
        let batch: Vec<(String, SessionRequest)> = (0..8)
            .flat_map(|_| {
                [
                    (
                        "w".to_owned(),
                        SessionRequest::Update {
                            view: "r".into(),
                            new_state: target.clone(),
                        },
                    ),
                    ("w".to_owned(), SessionRequest::Undo),
                ]
            })
            .collect();
        group.bench_function("group_commit_16", |b| {
            b.iter(|| {
                let results = service.dispatch(batch.clone());
                assert!(results.iter().all(Result::is_ok));
                black_box(results)
            })
        });
    }

    // Recovery latency: a log holding the snapshot plus 64 update/undo
    // records, recovered from scratch each iteration.
    let (store, shared) = MemStore::new();
    let mut session = open_durable(Box::new(store), SyncPolicy::Never);
    for _ in 0..32 {
        update_undo(&mut session);
    }
    let bytes = shared.lock().unwrap().clone();
    // No session of this key may outlive its leg: each iteration must
    // enumerate the space, not find it live.
    drop(session);
    group.bench_function("recover_64", |b| {
        b.iter(|| {
            let (session, report) = Session::<SubschemaComponents>::recover(
                SubschemaComponents::singletons(sig()),
                Schema::unconstrained(sig()),
                Box::new(MemStore::from_bytes(bytes.clone())),
                SyncPolicy::Never,
            )
            .unwrap();
            assert_eq!(report.records_applied, 65);
            black_box(session)
        })
    });
    group.finish();
    std::fs::remove_dir_all(&tmp).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_wal
}
criterion_main!(benches);
