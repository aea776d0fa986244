//! Loopback integration: a batch sent over TCP produces **byte-identical**
//! results to in-process `Service::dispatch`, at 1, 2, and 8 worker
//! threads — the wire adds transport, never semantics.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_serve::proto::{encode_request_payload, put_frame};
use compview_serve::{Client, Server};
use compview_session::wal;
use compview_session::{
    MemStore, Service, Session, SessionConfig, SessionRequest, SessionResponse, SyncPolicy,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Serialises the env-twiddling tests (COMPVIEW_THREADS is process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

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

fn demo_service() -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for name in ["alpha", "beta", "gamma"] {
        svc.add_session(name, open()).unwrap();
    }
    svc
}

/// The service.rs demo batch: every request variant, successes and
/// failures (a ghost session, an undo on empty history) included.
fn demo_batch() -> Vec<(String, SessionRequest)> {
    let mut batch = Vec::new();
    for name in ["alpha", "beta", "gamma"] {
        batch.push((
            name.to_owned(),
            SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
        ));
    }
    for name in ["alpha", "beta", "gamma", "ghost"] {
        batch.push((
            name.to_owned(),
            SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple: Tuple::new([v("a3")]),
            },
        ));
    }
    for name in ["alpha", "beta", "gamma"] {
        batch.push((
            name.to_owned(),
            SessionRequest::Update {
                view: "r".into(),
                new_state: Instance::null_model(&sig()).with("R", rel(1, [["a2"], ["a3"]])),
            },
        ));
        batch.push((name.to_owned(), SessionRequest::Read { view: "r".into() }));
    }
    batch.push(("beta".to_owned(), SessionRequest::Undo));
    batch.push(("beta".to_owned(), SessionRequest::Undo));
    batch.push(("alpha".to_owned(), SessionRequest::Stats));
    batch
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

/// Everything observable about a service after a batch, for diffing the
/// remote run against the in-process run.
fn fingerprint(svc: &Service<SubschemaComponents>) -> Vec<(String, Instance, u64)> {
    svc.session_names()
        .map(|n| {
            let s = svc.session(n).unwrap();
            (n.to_owned(), s.state().clone(), s.stats().requests)
        })
        .collect()
}

#[test]
fn remote_batch_is_byte_identical_to_in_process_dispatch() {
    let _guard = ENV_LOCK.lock().unwrap();
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let batch = demo_batch();

            // In-process reference.
            let mut local = demo_service();
            let expected = local.dispatch(batch.clone());

            // The same batch over TCP: one connection, pipelined, so the
            // per-connection FIFO carries the batch order.
            let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            for (session, req) in &batch {
                client.send(session, req).unwrap();
            }
            let got: Vec<_> = (0..batch.len()).map(|_| client.recv().unwrap()).collect();
            let remote = server.shutdown();

            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    wal::encode_result(g),
                    wal::encode_result(e),
                    "{threads} threads, position {i}: {g:?} vs {e:?}"
                );
            }
            // And the services themselves ended up in the same place.
            assert_eq!(
                fingerprint(&remote),
                fingerprint(&local),
                "{threads} threads: final states"
            );
        });
    }
}

#[test]
fn concurrent_connections_each_see_their_own_session_in_order() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_threads(4, || {
        // Reference: each session's request stream served in-process.
        let per_session: Vec<(String, Vec<SessionRequest>)> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|name| {
                (
                    (*name).to_owned(),
                    vec![
                        SessionRequest::RegisterView {
                            name: "r".into(),
                            mask: 0b01,
                        },
                        SessionRequest::InsertPoolTuple {
                            relation: "R".into(),
                            tuple: Tuple::new([v("a3")]),
                        },
                        SessionRequest::Update {
                            view: "r".into(),
                            new_state: Instance::null_model(&sig())
                                .with("R", rel(1, [["a2"], ["a3"]])),
                        },
                        SessionRequest::Read { view: "r".into() },
                        SessionRequest::Undo,
                    ],
                )
            })
            .collect();
        let mut local = demo_service();
        let expected: Vec<Vec<_>> = per_session
            .iter()
            .map(|(name, reqs)| reqs.iter().map(|r| local.serve(name, r.clone())).collect())
            .collect();

        // Three concurrent clients, one per session.  Whatever batches
        // the arrivals land in, each session's order is its connection's
        // order, so every client must see exactly the reference answers.
        let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = per_session
            .iter()
            .cloned()
            .map(|(name, reqs)| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for req in &reqs {
                        client.send(&name, req).unwrap();
                    }
                    (0..reqs.len())
                        .map(|_| client.recv().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let got: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let remote = server.shutdown();

        for ((name, _), (g, e)) in per_session.iter().zip(got.iter().zip(&expected)) {
            assert_eq!(g, e, "session {name}");
        }
        assert_eq!(fingerprint(&remote), fingerprint(&local));
    });
}

#[test]
fn metrics_round_trip_with_deterministic_content_ordering() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut orderings: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let batch = demo_batch();
            for (session, req) in &batch {
                client.send(session, req).unwrap();
            }
            // Pipeline the probe behind the whole batch: FIFO means the
            // snapshot must observe every request above it.
            client.send_metrics().unwrap();
            for _ in 0..batch.len() {
                // The ghost request's Err is expected; only FIFO matters.
                let _ = client.recv().unwrap();
            }
            let snap = client.recv_metrics().unwrap();
            let svc = server.shutdown();

            // The wire snapshot observed the pipelined batch: every
            // request that reached a session is counted (the one "ghost"
            // request fails session lookup before any session sees it).
            let counter = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("counter {name} missing"))
                    .1
            };
            assert_eq!(counter("session.requests"), batch.len() as u64 - 1);
            assert!(counter("serve.frames_in") >= batch.len() as u64);
            assert_eq!(counter("serve.connections"), 1);

            // Round trip: the wire codec reproduces the snapshot exactly.
            assert_eq!(
                compview_obs::MetricsSnapshot::decode(&snap.encode()).as_ref(),
                Ok(&snap)
            );
            // The server-side registry agrees on the instrument set
            // (values keep moving — the response frame itself counts —
            // but the content ordering is pinned).
            assert_eq!(
                svc.registry().snapshot().content_ordering(),
                snap.content_ordering(),
                "{threads} threads: wire vs in-process instrument set"
            );
            orderings.push(snap.content_ordering());
        });
    }
    assert_eq!(
        orderings[0], orderings[1],
        "content ordering differs between 1 and 2 threads"
    );
    assert_eq!(
        orderings[0], orderings[2],
        "content ordering differs between 1 and 8 threads"
    );
}

#[test]
fn malformed_frame_drops_only_that_connection() {
    let _guard = ENV_LOCK.lock().unwrap();
    let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
    let addr = server.local_addr();

    // A healthy client…
    let mut good = Client::connect(addr).unwrap();
    let first = good.request("alpha", &SessionRequest::Stats).unwrap();
    assert!(first.is_ok());

    // …and a raw socket that handshakes, then sends garbage framing.
    {
        use std::io::{Read, Write};
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        let mut hs = [0u8; 6];
        bad.read_exact(&mut hs).unwrap();
        bad.write_all(b"CVRPC1").unwrap();
        bad.write_all(&[0xFF; 32]).unwrap(); // nonsense length + checksum
                                             // The server closes this connection; the read eventually sees EOF.
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
    }

    // The healthy connection is unaffected.
    let again = good.request("alpha", &SessionRequest::Stats).unwrap();
    assert!(again.is_ok());
    let svc = server.shutdown();

    // The refusal is on the books.
    let snap = svc.registry().snapshot();
    let malformed = snap
        .counters
        .iter()
        .find(|(n, _)| n == "serve.malformed_frames")
        .expect("counter registered")
        .1;
    assert_eq!(malformed, 1);
}

/// `r` (mask `0b01`) set to these `R` rows.
fn update_r(rows: &[&str]) -> SessionRequest {
    SessionRequest::Update {
        view: "r".into(),
        new_state: Instance::null_model(&sig()).with("R", rel(1, rows.iter().map(|t| [*t]))),
    }
}

/// The `R` rows `client` reads through `session`'s view `r`.
fn read_r(client: &mut Client, session: &str) -> Instance {
    match client.request(session, &SessionRequest::Read { view: "r".into() }) {
        Ok(Ok(SessionResponse::State(state))) => state,
        other => panic!("read: {other:?}"),
    }
}

/// `session`'s last WAL sequence number, as its `Stats` reports it.
fn wal_seq(client: &mut Client, session: &str) -> u64 {
    match client.request(session, &SessionRequest::Stats) {
        Ok(Ok(SessionResponse::Stats(snap))) => snap.wal_seq,
        other => panic!("stats: {other:?}"),
    }
}

/// One raw write carrying K well-formed updates and then a garbage
/// frame: every update before the bad frame is applied and logged, and
/// the bad frame costs its own connection only.  The server takes such a
/// burst in with one read, so this pins that requests already decoded
/// are handed to their shard before the connection is dropped.
#[test]
fn a_burst_cut_by_a_malformed_frame_applies_every_frame_before_it() {
    const K: usize = 15;
    let _guard = ENV_LOCK.lock().unwrap();
    let sig = sig();
    let (store, _log) = MemStore::new();
    let mut alpha = Session::open_durable(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
        SessionConfig::default(),
        Box::new(store),
        SyncPolicy::Always,
    )
    .unwrap();
    alpha
        .serve(SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        })
        .unwrap();
    let mut svc = Service::new();
    svc.add_session("alpha", alpha).unwrap();
    let server = Server::bind("127.0.0.1:0", svc).unwrap();
    let addr = server.local_addr();

    let mut healthy = Client::connect(addr).unwrap();
    let before = wal_seq(&mut healthy, "alpha");
    let rows = |i: usize| {
        if i.is_multiple_of(2) {
            vec!["a2"]
        } else {
            vec!["a1", "a2"]
        }
    };
    let mut burst = Vec::new();
    for i in 0..K {
        put_frame(
            &mut burst,
            &encode_request_payload("alpha", &update_r(&rows(i))),
        )
        .unwrap();
    }
    // A whole, CRC-valid frame whose payload is no request: the reader
    // has it buffered with the updates, so nothing forces a hand-off
    // between the last update and the refusal.
    put_frame(&mut burst, &[0xEE; 16]).unwrap();
    {
        use std::io::{Read, Write};
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        let mut hs = [0u8; 6];
        bad.read_exact(&mut hs).unwrap();
        bad.write_all(b"CVRPC1").unwrap();
        bad.write_all(&burst).unwrap();
        // The server closes this connection; the read sees EOF once it
        // has, answered or not.
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
    }

    // A second client sees all K applied, and the log holds K records.
    let mut second = Client::connect(addr).unwrap();
    let last = Instance::null_model(&sig).with("R", rel(1, rows(K - 1).iter().map(|t| [*t])));
    assert_eq!(read_r(&mut second, "alpha"), last);
    assert_eq!(wal_seq(&mut second, "alpha"), before + K as u64);
    // The healthy connection is unaffected.
    assert_eq!(wal_seq(&mut healthy, "alpha"), before + K as u64);
    let svc = server.shutdown();
    let snap = svc.registry().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert_eq!(counter("serve.malformed_frames"), 1);
    assert_eq!(counter("serve.connections"), 3);
}

/// A request sent without waiting for its answer is not lost with its
/// client: dropping the client writes what it still buffers.  Another
/// connection's read is not ordered after it, so the second client
/// polls until the update shows (a lost request fails at the deadline).
#[test]
fn a_client_dropped_after_sending_still_delivers_its_request() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut svc = demo_service();
    svc.serve(
        "alpha",
        SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", svc).unwrap();
    let addr = server.local_addr();
    {
        let mut fire = Client::connect(addr).unwrap();
        fire.send("alpha", &update_r(&["a2"])).unwrap();
    }
    let want = Instance::null_model(&sig()).with("R", rel(1, [["a2"]]));
    let mut reader = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while read_r(&mut reader, "alpha") != want {
        assert!(
            Instant::now() < deadline,
            "the dropped client's update never arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

/// `Server::shutdown` under load always returns.  Each cycle binds two
/// shards, pipelines updates and reads from two connections, and shuts
/// down with answers still in flight: on even cycles the clients stay
/// connected, on odd ones they hang up first (their readers' cancels
/// race the stop flag), and every third cycle a third thread keeps
/// connecting while the server stops (an accept racing the stop).  A
/// dispatcher that tests the stop flag before shutdown sets it and
/// starts waiting after the final wake-up would sleep forever, and so
/// would the writer of a connection accepted behind the shutdown's
/// close sweep; the per-cycle watchdog turns either into a failure
/// instead of a hung test.
#[test]
fn sharded_shutdown_under_pipelined_load_never_hangs() {
    const CYCLES: usize = 60;
    const PER_CONN: usize = 48;
    const WATCHDOG: Duration = Duration::from_secs(5);
    let r = |tuples: &[&str]| {
        Instance::null_model(&sig()).with("R", rel(1, tuples.iter().map(|t| [*t])))
    };
    for cycle in 0..CYCLES {
        let mut svc = demo_service();
        for name in ["alpha", "beta", "gamma"] {
            svc.serve(
                name,
                SessionRequest::RegisterView {
                    name: "r".into(),
                    mask: 0b01,
                },
            )
            .unwrap();
        }
        let server = Server::bind_sharded("127.0.0.1:0", svc, 2).unwrap();
        let addr = server.local_addr();
        let connecting = Arc::new(AtomicBool::new(cycle % 3 == 2));
        if connecting.load(Ordering::SeqCst) {
            let connecting = Arc::clone(&connecting);
            std::thread::spawn(move || {
                while connecting.load(Ordering::SeqCst) {
                    let _ = Client::connect(addr);
                }
            });
        }
        let mut clients: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
        for i in 0..PER_CONN {
            for (c, client) in clients.iter_mut().enumerate() {
                let session = ["alpha", "beta", "gamma"][(i + c) % 3];
                let req = match i % 3 {
                    0 => SessionRequest::Update {
                        view: "r".into(),
                        new_state: r(&["a2"]),
                    },
                    1 => SessionRequest::Read { view: "r".into() },
                    _ => SessionRequest::Update {
                        view: "r".into(),
                        new_state: r(&["a1", "a2"]),
                    },
                };
                client.send(session, &req).unwrap();
            }
        }
        // Half the answers are read, so the dispatchers are mid-stream.
        for _ in 0..PER_CONN / 2 {
            clients[0].recv().unwrap().unwrap();
        }
        if cycle % 2 == 1 {
            clients.clear();
        }
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let svc = server.shutdown();
            let _ = tx.send(svc.session_names().count());
        });
        let outcome = rx.recv_timeout(WATCHDOG);
        connecting.store(false, Ordering::SeqCst);
        match outcome {
            Ok(sessions) => assert_eq!(sessions, 3, "cycle {cycle}: sessions lost"),
            Err(_) => panic!("cycle {cycle}: Server::shutdown hung for {WATCHDOG:?}"),
        }
    }
}

/// Server threads carry their role in their name, whole within Linux's
/// 15-byte `comm` field, so per-thread CPU can be attributed by role.
#[cfg(target_os = "linux")]
#[test]
fn server_threads_are_named_by_role() {
    let server = Server::bind_sharded("127.0.0.1:0", demo_service(), 2).unwrap();
    let roles = ["cv-accept", "cv-shard-0", "cv-shard-1"];
    let names = || -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_owned())
            .collect()
    };
    // A new thread sets its own name once it runs, so wait for them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut seen = names();
    while !roles.iter().all(|r| seen.iter().any(|n| n == r)) {
        assert!(
            std::time::Instant::now() < deadline,
            "roles {roles:?} not all in {seen:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
        seen = names();
    }
    server.shutdown();
}
