//! E15: sharded dispatch — write throughput vs dispatcher shard count.
//!
//! `wire_x32` is the full server: 8 **durable** sessions
//! (fsync-per-record policy, group commit amortising it), one pipelined
//! connection, 32 updates per iteration scattered over every session —
//! the multi-core write path of DESIGN.md §12.  On an N-core box
//! throughput should scale until shards exceed min(cores, sessions); on
//! one core the curves stay flat and the sweep prices pure sharding
//! overhead instead.

use compview_bench::header;
use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_serve::{Client, Server};
use compview_session::{Service, SessionConfig, SessionRequest, SyncPolicy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::path::Path;

const SESSIONS: usize = 8;
const BATCH: usize = 32;

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

/// 8 durable sessions (WAL + fsync-per-record), view registered.
fn durable_service(dir: &Path) -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for i in 0..SESSIONS {
        let sig = sig();
        let name = format!("s{i}");
        svc.create_durable_session(
            dir,
            &name,
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools(),
            Instance::null_model(&sig).with("R", rel(1, [["a0"]])),
            SessionConfig::default(),
            SyncPolicy::Always,
        )
        .unwrap();
        svc.serve(
            &name,
            SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
        )
        .unwrap();
    }
    svc
}

/// The 32-request write batch: updates round-robin over the sessions,
/// alternating between two reachable states so every request is a real
/// transition.
fn write_batch(flip: bool) -> Vec<(String, SessionRequest)> {
    let a = Instance::null_model(&sig()).with("R", rel(1, [["a1"]]));
    let b = Instance::null_model(&sig()).with("R", rel(1, [["a1"], ["a2"]]));
    (0..BATCH)
        .map(|i| {
            let odd = (i / SESSIONS).is_multiple_of(2);
            (
                format!("s{}", i % SESSIONS),
                SessionRequest::Update {
                    view: "r".into(),
                    new_state: if odd != flip { a.clone() } else { b.clone() },
                },
            )
        })
        .collect()
}

fn bench_sharded(c: &mut Criterion) {
    header(
        "E15",
        "sharded dispatch: write throughput vs dispatcher shard count",
    );
    let mut group = c.benchmark_group("sharded");

    // Full server: durable sessions, one pipelined connection, group
    // commit per shard per drain.
    for shards in [1usize, 2, 4, 8] {
        let dir = std::env::temp_dir().join(format!(
            "compview-bench-sharded-{}-{shards}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::bind_sharded("127.0.0.1:0", durable_service(&dir), shards).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut flip = false;
        group.bench_function(format!("wire_x32/shards={shards}"), |b| {
            b.iter(|| {
                flip = !flip;
                for (session, req) in write_batch(flip) {
                    client.send(&session, &req).unwrap();
                }
                for _ in 0..BATCH {
                    assert!(client.recv().unwrap().is_ok());
                }
            })
        });
        // The tail of the run just measured: exact Update quantiles from
        // the reservoir, plus the deepest any shard queue ever got.
        let snap = client.metrics().unwrap();
        let tail = &snap
            .quantiles
            .iter()
            .find(|(n, _)| n == "session.serve.update_tail_ns")
            .expect("update tail reservoir")
            .1;
        let hwm = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "serve.queue_depth_hwm")
            .expect("queue depth gauge")
            .1;
        println!(
            "compview-bench: {{\"id\":\"sharded/wire_tail/shards={shards}\",\
             \"queue_depth_hwm\":{hwm},\"p50_ns\":{},\"p95_ns\":{},\
             \"p99_ns\":{},\"p999_ns\":{}}}",
            tail.quantile(0.50),
            tail.quantile(0.95),
            tail.quantile(0.99),
            tail.quantile(0.999),
        );
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_sharded
}
criterion_main!(benches);
