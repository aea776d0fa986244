//! E11: `compview-session` serving costs — a warm component read
//! (`Read` of a view whose mask and complement are already verified) vs a
//! cold read that must verify both again (`read_miss`, forced by
//! `invalidate_cache` each iter), plus the per-request cost of a full
//! `Update`/`Undo` round trip.
//!
//! Expected shape: read_hit ≪ read_miss — a hit is two set lookups and
//! the family's endo on the base; a miss builds the state map of the
//! view's mask and of its complement (`endo` + `id_of` for every state)
//! and checks each for the strong-endomorphism property.

use compview_bench::header;
use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_session::{Session, SessionConfig, SessionRequest};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Two unary relations with modest pools: 2^(5+3) = 256 states.
fn open_session() -> Session<SubschemaComponents> {
    let sig = Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])]);
    let pools: BTreeMap<String, Vec<Tuple>> = [
        (
            "R".to_owned(),
            (0..5).map(|i| Tuple::new([v(&format!("a{i}"))])).collect(),
        ),
        (
            "S".to_owned(),
            (0..3).map(|i| Tuple::new([v(&format!("b{i}"))])).collect(),
        ),
    ]
    .into();
    let base = Instance::null_model(&sig).with("R", rel(1, [["a0"]]));
    let mut session = Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig),
        &pools,
        base,
        SessionConfig::default(),
    )
    .expect("base state is in the space");
    session
        .serve(SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        })
        .expect("R is a subschema component");
    session
}

fn bench_session(c: &mut Criterion) {
    header("E11", "session serving: warm read vs cold read vs update");
    let mut session = open_session();
    eprintln!(
        "  {} states, {} verified masks",
        session.space().len(),
        session.stats().cache_misses
    );

    let mut group = c.benchmark_group("session");
    group.bench_function("read_hit", |b| {
        b.iter(|| {
            black_box(
                session
                    .serve(SessionRequest::Read { view: "r".into() })
                    .unwrap(),
            )
        })
    });
    group.bench_function("read_miss", |b| {
        b.iter(|| {
            session.invalidate_cache();
            black_box(
                session
                    .serve(SessionRequest::Read { view: "r".into() })
                    .unwrap(),
            )
        })
    });
    let target =
        Instance::null_model(session.space().schema().sig()).with("R", rel(1, [["a1"], ["a2"]]));
    group.bench_function("update_undo", |b| {
        b.iter(|| {
            black_box(
                session
                    .serve(SessionRequest::Update {
                        view: "r".into(),
                        new_state: target.clone(),
                    })
                    .unwrap(),
            );
            black_box(session.serve(SessionRequest::Undo).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_session
}
criterion_main!(benches);
