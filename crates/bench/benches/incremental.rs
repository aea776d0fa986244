//! E10: incremental state-space maintenance — patching the LDB
//! enumeration and ↓-poset in place on a single-tuple pool edit vs
//! re-enumerating from scratch (the `compview-session` hot path).
//!
//! Schema: R[K,V] with FD K→V over a pool of `keys` keys × 2 candidate
//! values, so each key is independently absent or bound to one of two
//! values and the space has exactly 3^keys states.  Each "patch" iter
//! performs one `insert_tuple` + one `remove_tuple` (restoring the
//! space); each "full" iter performs the same edit pair by two fresh
//! enumerations.
//!
//! Expected shape: patch < full.  Both build the ↓-poset the same way,
//! from each state's pool bits (one AND of bit columns per state, no
//! `is_subinstance` walk), so the gap is what the patch skips: the old
//! blocks' DFS, the old states' assembly and constraint checks, the
//! id-index sort of the old states, and enumeration's `verify()` of the
//! poset axioms; remove is a pure filter.  Floor: patch below full at
//! every pool, 2.4–3.6× at the largest (EXPERIMENTS.md, E27).

use compview_bench::header;
use compview_core::StateSpace;
use compview_logic::{Constraint, Fd, Schema};
use compview_relation::{v, RelDecl, Signature, Tuple};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn fd_schema() -> Schema {
    Schema::new(
        Signature::new([RelDecl::new("R", ["K", "V"])]),
        vec![Constraint::Fd(Fd::new("R", vec![0], vec![1]))],
    )
}

fn fd_pools(keys: usize) -> BTreeMap<String, Vec<Tuple>> {
    let mut pool = Vec::new();
    for k in 0..keys {
        for val in 0..2 {
            pool.push(Tuple::new([v(&format!("k{k}")), v(&format!("v{val}"))]));
        }
    }
    [("R".to_owned(), pool)].into()
}

fn bench_incremental(c: &mut Criterion) {
    header(
        "E10",
        "incremental maintenance: patch-in-place vs full re-enumeration",
    );
    for &keys in &[4usize, 5, 6] {
        let pools = fd_pools(keys);
        let extra = Tuple::new([v("kx"), v("v0")]);
        let mut space = StateSpace::enumerate(fd_schema(), &pools);
        eprintln!("  keys={keys}: {} states", space.len());

        let mut group = c.benchmark_group(format!("incremental/keys{keys}"));
        group.bench_function("patch", |b| {
            b.iter(|| {
                space.insert_tuple("R", extra.clone()).unwrap();
                black_box(space.len());
                space.remove_tuple("R", &extra).unwrap();
                black_box(space.len());
            })
        });
        group.sample_size(10);
        group.bench_function("full", |b| {
            b.iter(|| {
                let mut grown = pools.clone();
                grown.get_mut("R").expect("pool").push(extra.clone());
                black_box(StateSpace::enumerate(fd_schema(), &grown).len());
                black_box(StateSpace::enumerate(fd_schema(), &pools).len());
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_incremental
}
criterion_main!(benches);
