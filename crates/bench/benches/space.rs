//! E27: the space layer at 1,024 and 4,096 states — enumeration, a pool
//! edit's patch, and one component check by each way of building its
//! state map.
//!
//! Shape: perfbench's `R(A)/S(B)`, two unary relations with no
//! constraints, pools of 5+5 and 6+6 tuples, so the space is every pair
//! of pool subsets.  Legs per size:
//!
//! - `enumerate`: `StateSpace::enumerate`, ↓-poset included (built from
//!   the pool-bit columns and verified).
//! - `patch_pair`: one `insert_tuple` of an extra `R` tuple (n → 2n
//!   states) and its `remove_tuple` (back to n), in place on one space.
//! - `check_projection` / `check_endo`: the state map of the component
//!   that keeps `R` — by projecting pool bits (`StateSpace::projection`),
//!   or from one `endo` and one `id_of` per state — then
//!   `is_strong_endo` on it.  Both run on one thread; the session shards
//!   the `endo` map over `COMPVIEW_THREADS`.
//!
//! Expected shape: `check_projection` far below `check_endo` (a binary
//! search over `u64`s against an `Instance` build, compare and B-tree
//! walk per state), and `patch_pair` well below two enumerations.

use compview_bench::header;
use compview_core::{ComponentFamily, StateSpace, SubschemaComponents};
use compview_lattice::endo;
use compview_logic::Schema;
use compview_relation::{v, RelDecl, Signature, Tuple};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn sig() -> Signature {
    Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])])
}

/// `bits` tuples in each relation's pool, named as perfbench names them.
fn pools(bits: usize) -> BTreeMap<String, Vec<Tuple>> {
    ["R", "S"]
        .iter()
        .map(|r| {
            let pool = (0..bits)
                .map(|i| Tuple::new([v(&format!("{}{i}", r.to_lowercase()))]))
                .collect();
            ((*r).to_owned(), pool)
        })
        .collect()
}

fn bench_space(c: &mut Criterion) {
    header(
        "E27",
        "space layer: enumeration, patch pair, component check by projection vs endo",
    );
    let family = SubschemaComponents::singletons(sig());
    let keep_r = 0b01;
    let keep = family
        .kept_relations(keep_r)
        .expect("subschema names its relations");
    let extra = Tuple::new([v("x_extra")]);
    for bits in [5usize, 6] {
        let pools = pools(bits);
        let schema = Schema::unconstrained(sig());
        let mut space = StateSpace::enumerate(schema.clone(), &pools);
        let n = space.len();
        eprintln!("  {bits}+{bits} pool bits: {n} states");

        let mut group = c.benchmark_group(format!("space/states{n}"));
        group.sample_size(10);
        group.bench_function("enumerate", |b| {
            b.iter(|| black_box(StateSpace::enumerate(schema.clone(), &pools).len()))
        });
        group.bench_function("patch_pair", |b| {
            b.iter(|| {
                space.insert_tuple("R", extra.clone()).unwrap();
                black_box(space.len());
                space.remove_tuple("R", &extra).unwrap();
                black_box(space.len());
            })
        });
        group.bench_function("check_projection", |b| {
            b.iter(|| {
                let map = space.projection(&keep).unwrap().unwrap();
                black_box(endo::is_strong_endo(space.poset(), &map))
            })
        });
        group.bench_function("check_endo", |b| {
            b.iter(|| {
                let map: Vec<usize> = (0..space.len())
                    .map(|s| space.expect_id(&family.endo(keep_r, space.state(s))))
                    .collect();
                black_box(endo::is_strong_endo(space.poset(), &map))
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_space
}
criterion_main!(benches);
