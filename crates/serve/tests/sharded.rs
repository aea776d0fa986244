//! Sharded-dispatcher integration: at every shard count the server is
//! **observationally identical** to a single dispatcher — responses
//! byte-for-byte, per-session WAL files byte-for-byte, metrics snapshots
//! post-batch consistent — only the parallelism changes.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_obs::{DistTracer, MetricsSnapshot, TraceCtx};
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_serve::{Client, ServeOptions, Server};
use compview_session::wal;
use compview_session::{Service, Session, SessionConfig, SessionRequest, SyncPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

fn open() -> Session<SubschemaComponents> {
    let sig = sig();
    Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
        SessionConfig::default(),
    )
    .unwrap()
}

/// A service of `n` in-memory sessions `s0..s{n-1}` — enough names to
/// land on several shards at once.
fn service_of(n: usize) -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for i in 0..n {
        svc.add_session(format!("s{i}"), open()).unwrap();
    }
    svc
}

/// Everything observable about a service after a run.
fn fingerprint(svc: &Service<SubschemaComponents>) -> Vec<(String, Instance, u64)> {
    svc.session_names()
        .map(|n| {
            let s = svc.session(n).unwrap();
            (n.to_owned(), s.state().clone(), s.stats().requests)
        })
        .collect()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .1
}

/// One item of a random pipelined stream: a session request, or a
/// metrics probe riding in the same connection FIFO.
#[derive(Clone, Debug)]
enum WireItem {
    Dispatch(String, SessionRequest),
    Probe,
}

/// A pool-subset state of R: `{a1,a2}` restricted by `bits`, the only
/// relation the random views watch.
fn r_state(bits: u32) -> Instance {
    let mut rows: Vec<[&str; 1]> = Vec::new();
    if bits & 1 != 0 {
        rows.push(["a1"]);
    }
    if bits & 2 != 0 {
        rows.push(["a2"]);
    }
    Instance::null_model(&sig()).with("R", rel(1, rows))
}

/// A random request: every variant, successes and failures alike
/// (unknown sessions, unregistered views, unreachable update targets,
/// undo on empty history).
fn rand_req(rng: &mut StdRng) -> SessionRequest {
    let view = if rng.random_range(0..4u32) == 0 {
        "w"
    } else {
        "r"
    };
    match rng.random_range(0..10u32) {
        0 | 1 => SessionRequest::RegisterView {
            name: view.to_owned(),
            mask: rng.random_range(0..4u32),
        },
        2..=4 => SessionRequest::Update {
            view: view.to_owned(),
            new_state: r_state(rng.random_range(0..4u32)),
        },
        5 | 6 => SessionRequest::Read {
            view: view.to_owned(),
        },
        7 => SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        },
        8 => SessionRequest::Undo,
        _ => SessionRequest::Stats,
    }
}

fn rand_stream(rng: &mut StdRng, len: usize) -> Vec<WireItem> {
    const SESSIONS: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "ghost"];
    (0..len)
        .map(|_| {
            if rng.random_range(0..6u32) == 0 {
                WireItem::Probe
            } else {
                let session = SESSIONS[rng.random_range(0..SESSIONS.len() as u32) as usize];
                WireItem::Dispatch(session.to_owned(), rand_req(rng))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any pipelined stream of requests and metrics probes, served at 1,
    /// 2, and 8 shards, answers byte-identically to one in-process
    /// `Service::dispatch` — and every wire snapshot carries the same
    /// deterministic content ordering.
    #[test]
    fn sharded_loopback_is_byte_identical_to_single_dispatch(
        seed in 0u64..1u64 << 48,
        len in 1usize..28,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = rand_stream(&mut rng, len);
        let batch: Vec<(String, SessionRequest)> = stream
            .iter()
            .filter_map(|item| match item {
                WireItem::Dispatch(s, r) => Some((s.clone(), r.clone())),
                WireItem::Probe => None,
            })
            .collect();

        // In-process reference: one dispatcher, one batch.
        let mut local = service_of(5);
        let expected = local.dispatch(batch.clone());

        let mut orderings: Vec<String> = Vec::new();
        for shards in [1usize, 2, 8] {
            let server = Server::bind_sharded("127.0.0.1:0", service_of(5), shards).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            for item in &stream {
                match item {
                    WireItem::Dispatch(s, r) => client.send(s, r).unwrap(),
                    WireItem::Probe => client.send_metrics().unwrap(),
                }
            }
            let mut at = 0usize;
            for item in &stream {
                match item {
                    WireItem::Dispatch(..) => {
                        let got = client.recv().unwrap();
                        prop_assert_eq!(
                            wal::encode_result(&got),
                            wal::encode_result(&expected[at]),
                            "{} shards, dispatch #{}: {:?} vs {:?}",
                            shards, at, got, &expected[at]
                        );
                        at += 1;
                    }
                    WireItem::Probe => {
                        let snap = client.recv_metrics().unwrap();
                        // The probe is a barrier: everything pipelined
                        // before it on this connection is on the books,
                        // post-batch consistent.
                        prop_assert_eq!(
                            counter(&snap, "session.requests"),
                            counter(&snap, "session.accepted")
                                + counter(&snap, "session.rejected"),
                            "{} shards: probe mid-stream", shards
                        );
                        orderings.push(snap.content_ordering());
                    }
                }
            }
            let merged = server.shutdown();
            prop_assert_eq!(
                fingerprint(&merged),
                fingerprint(&local),
                "{} shards: final states", shards
            );
        }
        // Snapshot content ordering never depends on the shard count.
        for pair in orderings.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }
}

/// A probe pipelined behind K requests observes all K — the cross-shard
/// barrier — at every shard count, even when the requests scatter over
/// all eight sessions (and so over every shard).  The four node-wide
/// verbs share that one barrier, so `Sessions`, `Trace` and `Topology`
/// pipelined behind the same K traced writes must reflect all of them
/// too: every durable session listed, every topology row at its
/// session's post-write WAL position, every write's `shard.queue` span
/// in the drain.
#[test]
fn probe_behind_pipelined_requests_observes_all_of_them() {
    for shards in [1usize, 2, 8] {
        let dir = std::env::temp_dir().join(format!(
            "compview-sharded-barrier-{}-{shards}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut svc = Service::new();
        for i in 0..8 {
            let sig = sig();
            svc.create_durable_session(
                &dir,
                &format!("s{i}"),
                SubschemaComponents::singletons(sig.clone()),
                Schema::unconstrained(sig.clone()),
                &pools(),
                Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
                SessionConfig::default(),
                SyncPolicy::Never,
            )
            .unwrap();
        }
        let names: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
        let initial: Vec<u64> = names
            .iter()
            .map(|n| svc.session(n).unwrap().wal_last_seq())
            .collect();
        let options = ServeOptions {
            shards,
            trace_sample: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", svc, options).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let k = 40usize;
        let ids = DistTracer::new();
        let mut traces = Vec::with_capacity(k);
        for i in 0..k {
            let ctx = TraceCtx {
                trace_id: ids.new_trace_id(),
                parent_span: 0,
            };
            traces.push(ctx.trace_id);
            let write = SessionRequest::RegisterView {
                name: format!("v{i}"),
                mask: 0b01,
            };
            client.send_traced(&names[i % 8], &write, ctx).unwrap();
        }
        client.send_metrics().unwrap();
        client.send_sessions().unwrap();
        client.send_trace().unwrap();
        client.send_topology().unwrap();
        for _ in 0..k {
            client.recv().unwrap().unwrap();
        }
        let snap = client.recv_metrics().unwrap();
        let listing = client.recv_sessions().unwrap();
        let drained = client.recv_trace().unwrap();
        let topology = client.recv_topology().unwrap();
        let merged = server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            counter(&snap, "session.requests"),
            k as u64,
            "{shards} shards: barrier must observe every pipelined request"
        );
        assert_eq!(
            counter(&snap, "session.requests"),
            counter(&snap, "session.accepted") + counter(&snap, "session.rejected")
        );

        assert_eq!(listing.sessions, names, "{shards} shards: listing");
        assert_eq!(listing.leader, None);
        let rows: Vec<&str> = topology.sessions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(rows, names, "{shards} shards: topology rows");
        for (row, before) in topology.sessions.iter().zip(&initial) {
            let session = merged.session(&row.name).unwrap();
            assert_eq!(session.wal_last_seq(), before + (k / 8) as u64);
            assert_eq!(
                (row.gen, row.applied),
                (session.wal_gen(), session.wal_last_seq()),
                "{shards} shards: {} behind its writes",
                row.name
            );
        }
        for id in traces {
            assert!(
                drained
                    .spans
                    .iter()
                    .any(|s| s.trace_id == id && s.label == "shard.queue"),
                "{shards} shards: trace {id:016x} has no shard.queue span"
            );
        }
    }
}

/// Snapshots taken *while* other connections are mid-batch on other
/// shards still balance: the per-shard snapshot gates pin every probe to
/// batch boundaries, so `requests == accepted + rejected` holds in every
/// snapshot, never catching a request counted but not yet resolved.
#[test]
fn concurrent_snapshots_are_post_batch_consistent() {
    let server = Server::bind_sharded("127.0.0.1:0", service_of(8), 4).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // A writer hammering updates (mostly accepted, every fifth rejected
    // on an unregistered view) round-robin over all sessions.
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for i in 0..8 {
                client
                    .request(
                        &format!("s{i}"),
                        &SessionRequest::RegisterView {
                            name: "r".into(),
                            mask: 0b01,
                        },
                    )
                    .unwrap()
                    .unwrap();
            }
            let mut sent = 8u64;
            let mut flip = 0u32;
            while !stop.load(Ordering::SeqCst) {
                for i in 0..8 {
                    flip += 1;
                    let req = if flip.is_multiple_of(5) {
                        SessionRequest::Read {
                            view: "nope".into(),
                        }
                    } else {
                        SessionRequest::Update {
                            view: "r".into(),
                            new_state: r_state(1 + (flip % 2)),
                        }
                    };
                    client.send(&format!("s{i}"), &req).unwrap();
                }
                for _ in 0..8 {
                    let _ = client.recv().unwrap();
                }
                sent += 8;
            }
            sent
        })
    };

    let mut prober = Client::connect(addr).unwrap();
    for _ in 0..50 {
        let snap = prober.metrics().unwrap();
        assert_eq!(
            counter(&snap, "session.requests"),
            counter(&snap, "session.accepted") + counter(&snap, "session.rejected"),
            "snapshot caught a shard mid-batch"
        );
    }
    stop.store(true, Ordering::SeqCst);
    let sent = writer.join().unwrap();

    // Quiesced: the books match the writer's count exactly.
    let snap = prober.metrics().unwrap();
    assert_eq!(counter(&snap, "session.requests"), sent);
    assert_eq!(
        counter(&snap, "session.requests"),
        counter(&snap, "session.accepted") + counter(&snap, "session.rejected")
    );
    assert!(
        counter(&snap, "session.rejected") > 0,
        "want both outcomes exercised"
    );
    server.shutdown();
}

/// Durable sessions write byte-identical WAL files no matter how many
/// dispatcher shards served them: sharding moves sessions between
/// threads, never reorders within one.
#[test]
fn wal_bytes_are_identical_across_shard_counts() {
    let batch: Vec<(String, SessionRequest)> = {
        let mut b = Vec::new();
        for name in ["alpha", "beta", "gamma"] {
            b.push((
                name.to_owned(),
                SessionRequest::RegisterView {
                    name: "r".into(),
                    mask: 0b01,
                },
            ));
        }
        for name in ["alpha", "beta", "gamma"] {
            b.push((
                name.to_owned(),
                SessionRequest::InsertPoolTuple {
                    relation: "R".into(),
                    tuple: Tuple::new([v("a3")]),
                },
            ));
            b.push((
                name.to_owned(),
                SessionRequest::Update {
                    view: "r".into(),
                    new_state: Instance::null_model(&sig()).with("R", rel(1, [["a2"], ["a3"]])),
                },
            ));
        }
        b.push(("beta".to_owned(), SessionRequest::Undo));
        b
    };

    let mut wals: Vec<BTreeMap<String, Vec<u8>>> = Vec::new();
    for shards in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "compview-sharded-wal-{}-{shards}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut svc = Service::new();
        for name in ["alpha", "beta", "gamma"] {
            let sig = sig();
            svc.create_durable_session(
                &dir,
                name,
                SubschemaComponents::singletons(sig.clone()),
                Schema::unconstrained(sig.clone()),
                &pools(),
                Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
                SessionConfig::default(),
                SyncPolicy::Always,
            )
            .unwrap();
        }
        let server = Server::bind_sharded("127.0.0.1:0", svc, shards).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (session, req) in &batch {
            client.send(session, req).unwrap();
        }
        for _ in 0..batch.len() {
            client.recv().unwrap().unwrap();
        }
        drop(client);
        server.shutdown();
        wals.push(
            ["alpha", "beta", "gamma"]
                .iter()
                .map(|n| {
                    (
                        (*n).to_owned(),
                        std::fs::read(dir.join(format!("{n}.wal"))).unwrap(),
                    )
                })
                .collect(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        wals[0], wals[1],
        "per-session WAL bytes must not depend on the shard count"
    );
}

/// A malformed frame costs exactly its own connection, even when the
/// healthy traffic spans several shards.
#[test]
fn malformed_frame_drops_only_its_connection_under_sharding() {
    let server = Server::bind_sharded("127.0.0.1:0", service_of(8), 4).unwrap();
    let addr = server.local_addr();

    // Healthy clients on sessions that land on different shards…
    let mut healthy: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    for (i, client) in healthy.iter_mut().enumerate() {
        client
            .request(&format!("s{i}"), &SessionRequest::Stats)
            .unwrap()
            .unwrap();
    }

    // …and a raw socket that handshakes, then sends garbage framing.
    {
        use std::io::{Read, Write};
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        let mut hs = [0u8; 6];
        bad.read_exact(&mut hs).unwrap();
        bad.write_all(b"CVRPC1").unwrap();
        bad.write_all(&[0xFF; 32]).unwrap();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
    }

    // Every healthy connection is unaffected.
    for (i, client) in healthy.iter_mut().enumerate() {
        client
            .request(&format!("s{i}"), &SessionRequest::Stats)
            .unwrap()
            .unwrap();
    }
    let svc = server.shutdown();
    let snap = svc.registry().snapshot();
    assert_eq!(counter(&snap, "serve.malformed_frames"), 1);
    assert_eq!(counter(&snap, "serve.connections"), 5);
}
