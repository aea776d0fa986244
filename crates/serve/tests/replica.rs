//! Replication end to end: WAL shipping from a leader server to a
//! [`Replica`] follower stays **byte-identical** — same WAL files, same
//! `Read` responses, same final states — across injected stream cuts,
//! bit flips, and a leader restart, at 1, 2, and 8 worker threads and 1
//! and 2 dispatcher shards.  Failover is explicit: a promoted follower
//! accepts writes on the same address with nothing acked lost.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_obs::{DistTracer, MetricsSnapshot, SpanRecord, TraceCtx};
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_serve::proto::{
    encode_replicate_payload, encode_sessions_payload, is_replicate_ack_payload, read_frame,
    write_frame,
};
use compview_serve::{
    Client, Mirror, MirrorSpec, ProtoError, Replica, ReplicaOptions, ServeOptions, Server,
};
use compview_session::{
    shard_of, wal, ApplyError, CatchupPlan, CheckpointPolicy, DispatchError, FsStore, MemStore,
    Service, Session, SessionConfig, SessionError, SessionRequest, SyncPolicy,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Serialises the env-twiddling tests (COMPVIEW_THREADS is process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

const SESSIONS: [&str; 3] = ["alpha", "beta", "gamma"];

fn fault_seed() -> u64 {
    std::env::var("COMPVIEW_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

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

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("compview-replica-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_service(dir: &Path, checkpoint: CheckpointPolicy) -> Service<SubschemaComponents> {
    durable_service_of(dir, &SESSIONS, checkpoint)
}

fn durable_service_of(
    dir: &Path,
    names: &[&str],
    checkpoint: CheckpointPolicy,
) -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for &name in names {
        let sig = sig();
        svc.create_durable_session(
            dir,
            name,
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools(),
            base(),
            SessionConfig {
                checkpoint,
                ..SessionConfig::default()
            },
            SyncPolicy::Always,
        )
        .unwrap();
    }
    svc
}

/// A non-durable service for the transport-only tests.
fn demo_service() -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for name in SESSIONS {
        let sig = sig();
        let session = Session::open(
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools(),
            base(),
            SessionConfig::default(),
        )
        .unwrap();
        svc.add_session(name, session).unwrap();
    }
    svc
}

fn wal_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    wal_files_of(dir, &SESSIONS)
}

fn wal_files_of(dir: &Path, names: &[&str]) -> BTreeMap<String, Vec<u8>> {
    names
        .iter()
        .map(|n| {
            (
                (*n).to_owned(),
                std::fs::read(dir.join(format!("{n}.wal"))).unwrap_or_default(),
            )
        })
        .collect()
}

/// Poll until the follower's WAL files are byte-identical to the
/// leader's (writes must have quiesced on the leader side).
fn wait_converged(ldir: &Path, fdir: &Path) {
    wait_converged_of(ldir, fdir, &SESSIONS);
}

fn wait_converged_of(ldir: &Path, fdir: &Path, names: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if wal_files_of(ldir, names) == wal_files_of(fdir, names) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged: leader {:?} vs follower {:?}",
            wal_files_of(ldir, names)
                .iter()
                .map(|(n, b)| (n.clone(), b.len()))
                .collect::<Vec<_>>(),
            wal_files_of(fdir, names)
                .iter()
                .map(|(n, b)| (n.clone(), b.len()))
                .collect::<Vec<_>>()
        );
        thread::sleep(Duration::from_millis(10));
    }
}

fn replica_options(seed: u64) -> ReplicaOptions {
    ReplicaOptions {
        serve: ServeOptions::default(),
        retry_base: Duration::from_millis(2),
        retry_max: Duration::from_millis(40),
        read_timeout: Duration::from_millis(500),
        connect_attempts: 500,
        seed,
        discover_interval: Duration::from_millis(50),
    }
}

fn leader_options(shards: usize) -> ServeOptions {
    ServeOptions {
        shards,
        heartbeat_interval: Some(Duration::from_millis(25)),
        ..ServeOptions::default()
    }
}

/// Options for a follower that is itself an upstream: its own server
/// must heartbeat fast enough for a downstream's 500 ms read timeout.
fn follower_options(seed: u64) -> ReplicaOptions {
    ReplicaOptions {
        serve: leader_options(1),
        ..replica_options(seed)
    }
}

/// A [`Mirror`] reproducing exactly what [`durable_service`] creates, so
/// discovered sessions take the pure-tail catch-up path.
fn mirror_for(dir: &Path) -> Mirror<SubschemaComponents> {
    Mirror {
        dir: dir.to_path_buf(),
        policy: SyncPolicy::Always,
        spec: Arc::new(|_name: &str| {
            let sig = sig();
            Some(MirrorSpec {
                family: SubschemaComponents::singletons(sig.clone()),
                schema: Schema::unconstrained(sig),
                pools: pools(),
                base: base(),
                config: SessionConfig::default(),
            })
        }),
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, value)| *value)
}

fn gauge(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, value)| *value)
}

fn insert(relation: &str, value: &str) -> SessionRequest {
    SessionRequest::InsertPoolTuple {
        relation: relation.into(),
        tuple: Tuple::new([v(value)]),
    }
}

fn register_r() -> SessionRequest {
    SessionRequest::RegisterView {
        name: "r".into(),
        mask: 0b01,
    }
}

fn update_r(tuples: &[&str]) -> SessionRequest {
    SessionRequest::Update {
        view: "r".into(),
        new_state: Instance::null_model(&sig())
            .with("R", rel(1, tuples.iter().map(|t| [(*t).to_owned()]))),
    }
}

fn read_r() -> SessionRequest {
    SessionRequest::Read { view: "r".into() }
}

// ---------------------------------------------------------------------
// Fault-injecting TCP proxy
// ---------------------------------------------------------------------

/// What to do to one proxied connection's leader→follower byte stream.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// Forward verbatim.
    Clean,
    /// Sever the connection after this many leader→follower bytes — the
    /// follower sees a cut mid-frame at an arbitrary byte prefix.
    CutAfter(usize),
    /// XOR one bit into the byte at this offset of the leader→follower
    /// stream — the follower must detect the corruption (wire CRC or
    /// apply-path CRC) and never apply the damage.
    FlipAt(usize),
    /// Forward this many leader→follower bytes, then silently discard
    /// everything after — the connection stays open (no FIN, no RST), so
    /// the follower sees a link that looks alive but delivers nothing.
    SwallowAfter(usize),
}

/// A byte-level TCP proxy between follower and leader that applies one
/// [`Plan`] per accepted connection (popped from a queue; `Clean` once
/// the queue is empty).  The upstream address is swappable, so a leader
/// restarted on a fresh port stays reachable through the same proxy
/// address the follower was given.
struct Proxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<String>>,
    plans: Arc<Mutex<VecDeque<Plan>>>,
    live: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Proxy {
    fn start(upstream_addr: String) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let upstream = Arc::new(Mutex::new(upstream_addr));
        let plans: Arc<Mutex<VecDeque<Plan>>> = Arc::default();
        let live: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let upstream = Arc::clone(&upstream);
            let plans = Arc::clone(&plans);
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            thread::spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((client, _)) => {
                        let _ = client.set_nonblocking(false);
                        let plan = plans.lock().unwrap().pop_front().unwrap_or(Plan::Clean);
                        let target = upstream.lock().unwrap().clone();
                        if let Ok(clone) = client.try_clone() {
                            live.lock().unwrap().push(clone);
                        }
                        thread::spawn(move || pipe_conn(client, &target, plan));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            })
        };
        Proxy {
            addr,
            upstream,
            plans,
            live,
            stop,
            accept: Some(accept),
        }
    }

    fn push_plans(&self, plans: impl IntoIterator<Item = Plan>) {
        self.plans.lock().unwrap().extend(plans);
    }

    fn set_upstream(&self, addr: String) {
        *self.upstream.lock().unwrap() = addr;
    }

    /// Sever every live proxied connection, forcing the follower to
    /// redial (and hit whatever plans are queued).
    fn sever_live(&self) {
        for s in self.live.lock().unwrap().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.sever_live();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn pipe_conn(client: TcpStream, target: &str, plan: Plan) {
    let Ok(upstream) = TcpStream::connect(target) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    // follower → leader: always verbatim (faults model a lossy *feed*).
    if let (Ok(mut from), Ok(to)) = (client.try_clone(), upstream.try_clone()) {
        thread::spawn(move || copy_dir(&mut from, to, Plan::Clean));
    }
    // leader → follower: through the fault plan.
    let mut from = upstream;
    copy_dir(&mut from, client, plan);
}

fn copy_dir(from: &mut TcpStream, mut to: TcpStream, plan: Plan) {
    let mut buf = [0u8; 2048];
    let mut seen: usize = 0;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = buf[..n].to_vec();
        if let Plan::FlipAt(at) = plan {
            if at >= seen && at < seen + n {
                chunk[at - seen] ^= 0x10;
            }
        }
        let cut = match plan {
            Plan::CutAfter(limit) if seen + n >= limit => {
                chunk.truncate(limit.saturating_sub(seen));
                true
            }
            _ => false,
        };
        if let Plan::SwallowAfter(limit) = plan {
            // Keep reading (so the upstream never blocks) but stop
            // forwarding — and never shut the downstream half, so the
            // receiver cannot tell the link died.
            chunk.truncate(limit.saturating_sub(seen));
            seen += n;
            if !chunk.is_empty() && to.write_all(&chunk).is_err() {
                break;
            }
            continue;
        }
        seen += n;
        if to.write_all(&chunk).is_err() || cut {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Headline: byte-identical convergence under faults + leader restart
// ---------------------------------------------------------------------

#[test]
fn follower_converges_byte_identical_under_cuts_flips_and_leader_restart() {
    let _guard = ENV_LOCK.lock().unwrap();
    for (threads, shards) in [(1usize, 1usize), (2, 2), (8, 2)] {
        with_threads(threads, || run_fault_scenario(threads, shards));
    }
}

fn run_fault_scenario(threads: usize, shards: usize) {
    let seed = fault_seed() ^ (((threads as u64) << 32) | shards as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let ldir = test_dir(&format!("hl-leader-{threads}-{shards}"));
    let fdir = test_dir(&format!("hl-follower-{threads}-{shards}"));

    let opts = leader_options(shards);
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        opts.clone(),
    )
    .unwrap();
    let proxy = Proxy::start(server.local_addr().to_string());
    let proxy_addr = proxy.addr.to_string();

    // The follower only ever knows the proxy's address.
    let replica = Replica::start(
        "127.0.0.1:0",
        &proxy_addr,
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(seed),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    for name in SESSIONS {
        client.request(name, &register_r()).unwrap().unwrap();
    }

    // Queue a run of cuts and bit flips for the follower's next
    // connections, then sever the live (clean) link to make it redial.
    proxy.push_plans((0..6).map(|i| {
        if i % 2 == 0 {
            Plan::CutAfter(rng.random_range(40..3000))
        } else {
            Plan::FlipAt(rng.random_range(16..1500))
        }
    }));
    proxy.sever_live();

    // Keep writing while the follower fights through the fault plans.
    // Early rounds grow the pools a little; later rounds are updates
    // (durable records without pool growth — enumeration stays small).
    for round in 0..6u32 {
        for name in SESSIONS {
            let req = if round < 2 {
                insert("R", &format!("w{round}"))
            } else if round % 2 == 0 {
                update_r(&["a1", "w0"])
            } else {
                update_r(&["a2", "w1"])
            };
            client.request(name, &req).unwrap().unwrap();
        }
        // A rejected durable write replicates too (the rejection is in
        // the leader's log; follower outcomes must match bit for bit).
        let rejected = client.request("beta", &update_r(&["nope"])).unwrap();
        assert!(rejected.is_err(), "update to a non-pool tuple must fail");
        thread::sleep(Duration::from_millis(15));
    }

    // Leader restart: kill it, verify the follower keeps serving reads
    // and refuses writes with a typed redirect, then bring the leader
    // back on a fresh port behind the same proxy address.
    drop(client);
    let svc = server.shutdown();

    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    let during = fclient.request("alpha", &read_r()).unwrap();
    assert!(
        during.is_ok(),
        "follower must serve reads while the leader is down: {during:?}"
    );
    match fclient.request("alpha", &insert("R", "refused")).unwrap() {
        Err(DispatchError::Session(SessionError::NotLeader { leader_addr })) => {
            assert_eq!(leader_addr, proxy_addr);
        }
        other => panic!("follower must refuse writes with NotLeader, got {other:?}"),
    }

    let server = Server::bind_with("127.0.0.1:0", svc, opts).unwrap();
    proxy.set_upstream(server.local_addr().to_string());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .request("alpha", &insert("R", "post"))
        .unwrap()
        .unwrap();
    client
        .request("alpha", &update_r(&["post"]))
        .unwrap()
        .unwrap();
    for round in 6..9u32 {
        for name in SESSIONS {
            let req = if round % 2 == 0 {
                update_r(&["a1", "w0"])
            } else {
                update_r(&["w0", "w1"])
            };
            client.request(name, &req).unwrap().unwrap();
        }
    }

    wait_converged(&ldir, &fdir);

    // Read responses are byte-identical, leader vs follower.
    for name in SESSIONS {
        let l = client.request(name, &read_r()).unwrap();
        let f = fclient.request(name, &read_r()).unwrap();
        assert_eq!(
            wal::encode_result(&l),
            wal::encode_result(&f),
            "{name}: leader read {l:?} vs follower read {f:?}"
        );
    }

    let snap = fclient.metrics().unwrap();
    assert!(
        counter(&snap, "repl.reconnects") >= 1,
        "injected faults must show up as reconnects: {:?}",
        snap.counters
    );
    assert_eq!(
        gauge(&snap, "repl.lag_records"),
        0,
        "converged means no lag"
    );
    assert!(
        replica.fault().is_none(),
        "transport faults must never be fatal: {:?}",
        replica.fault()
    );

    drop(client);
    drop(fclient);
    let fsvc = replica.shutdown();
    let lsvc = server.shutdown();
    for name in SESSIONS {
        assert_eq!(
            lsvc.session(name).unwrap().state(),
            fsvc.session(name).unwrap().state(),
            "{name}: final states must match"
        );
    }
    drop(proxy);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Batched applies on a sharded follower
// ---------------------------------------------------------------------

/// Pipeline `rounds` updates into every session of `names`, alternating
/// two states (each update is one durable record), and collect the acks.
fn write_burst(client: &mut Client, names: &[&str], rounds: std::ops::Range<u32>) {
    let mut owed = 0;
    for round in rounds {
        for &name in names {
            let tuples: &[&str] = if round % 2 == 0 {
                &["a2"]
            } else {
                &["a1", "a2"]
            };
            client.send(name, &update_r(tuples)).unwrap();
            owed += 1;
        }
    }
    for _ in 0..owed {
        client.recv().unwrap().unwrap();
    }
}

/// A follower bound with two shards applies shipments in batches —
/// every WAL frame already whole in its read buffer — in its initial
/// sync and in the tail, where `enqueue_apply` splits each batch by
/// owning shard.  It converges byte-identical after a catch-up of 200+
/// records, after a cut-off burst, and after a live pipelined burst over
/// sessions on both shards, with no record refused and fewer batches
/// than records.
#[test]
fn sharded_follower_applies_bursts_in_batches() {
    let _guard = ENV_LOCK.lock().unwrap();
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let shards: BTreeSet<usize> = NAMES.iter().map(|n| shard_of(n, 2)).collect();
    assert_eq!(shards.len(), 2, "the sessions must span both shards");
    let ldir = test_dir("batch-leader");
    let fdir = test_dir("batch-follower");
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service_of(&ldir, &NAMES, CheckpointPolicy::default()),
        leader_options(2),
    )
    .unwrap();
    let leader_addr = server.local_addr().to_string();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for name in NAMES {
        client.request(name, &register_r()).unwrap().unwrap();
    }
    // 4 × 60 records before the follower exists: its initial sync
    // catches them up.
    write_burst(&mut client, &NAMES, 0..60);

    let proxy = Proxy::start(leader_addr.clone());
    let replica = Replica::start(
        "127.0.0.1:0",
        &proxy.addr.to_string(),
        durable_service_of(&fdir, &NAMES, CheckpointPolicy::default()),
        ReplicaOptions {
            serve: ServeOptions {
                shards: 2,
                ..ServeOptions::default()
            },
            ..replica_options(fault_seed())
        },
    )
    .unwrap();
    wait_converged_of(&ldir, &fdir, &NAMES);

    // Cut the follower off (the proxy now dials a dead port), write a
    // second burst, then let it back in: the burst arrives as tail-phase
    // catch-up.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    proxy.set_upstream(dead);
    proxy.sever_live();
    write_burst(&mut client, &NAMES, 60..100);
    proxy.set_upstream(leader_addr);
    wait_converged_of(&ldir, &fdir, &NAMES);

    // A live burst: both leader shards ship at once, so the follower's
    // batches mix sessions of both of its shards.
    write_burst(&mut client, &NAMES, 100..140);
    wait_converged_of(&ldir, &fdir, &NAMES);

    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    for name in NAMES {
        let l = client.request(name, &read_r()).unwrap();
        let f = fclient.request(name, &read_r()).unwrap();
        assert_eq!(
            wal::encode_result(&l),
            wal::encode_result(&f),
            "{name}: leader read {l:?} vs follower read {f:?}"
        );
    }
    let snap = fclient.metrics().unwrap();
    let applied = counter(&snap, "repl.records_applied");
    let batches = counter(&snap, "repl.apply_batches");
    assert_eq!(counter(&snap, "repl.bad_records"), 0, "{:?}", snap.counters);
    assert!(applied >= 4 * 140, "records applied: {applied}");
    assert!(
        batches >= 3 && batches < applied,
        "{batches} apply batches for {applied} records"
    );
    assert!(replica.fault().is_none(), "{:?}", replica.fault());

    drop(client);
    drop(fclient);
    let fsvc = replica.shutdown();
    let lsvc = server.shutdown();
    for name in NAMES {
        assert_eq!(
            lsvc.session(name).unwrap().state(),
            fsvc.session(name).unwrap().state(),
            "{name}: final states must match"
        );
    }
    drop(proxy);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Explicit failover
// ---------------------------------------------------------------------

#[test]
fn promotion_after_leader_kill_accepts_writes_and_loses_nothing() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("promo-leader");
    let fdir = test_dir("promo-follower");

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(1),
    )
    .unwrap();
    let leader_addr = server.local_addr().to_string();
    let replica = Replica::start(
        "127.0.0.1:0",
        &leader_addr,
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();
    let faddr = replica.local_addr();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "z1"))
        .unwrap()
        .unwrap();

    // Pre-promotion, the follower is read-only with a typed redirect.
    let mut fclient = Client::connect(faddr).unwrap();
    match fclient.request("alpha", &insert("R", "z2")).unwrap() {
        Err(DispatchError::Session(SessionError::NotLeader { leader_addr: at })) => {
            assert_eq!(at, leader_addr);
        }
        other => panic!("want NotLeader before promotion, got {other:?}"),
    }

    wait_converged(&ldir, &fdir);
    drop(client);
    server.shutdown(); // leader killed
    let leader_wals = wal_files(&ldir);

    // Promote: same address, now a leader.
    drop(fclient);
    let promoted = replica.promote().unwrap();
    assert_eq!(promoted.local_addr(), faddr);
    let mut pclient = Client::connect(faddr).unwrap();
    pclient
        .request("alpha", &insert("R", "z2"))
        .unwrap()
        .unwrap();
    pclient
        .request("alpha", &update_r(&["a1", "z1", "z2"]))
        .unwrap()
        .unwrap();

    drop(pclient);
    let fsvc = promoted.shutdown();
    // The update went through pool tuples from before AND after the
    // failover: nothing the old leader acked was lost.
    assert_eq!(
        fsvc.session("alpha").unwrap().state(),
        &Instance::null_model(&sig()).with("R", rel(1, [["a1"], ["z1"], ["z2"]]))
    );
    // And the old leader's log is a byte prefix of the promoted log.
    let promoted_wals = wal_files(&fdir);
    for (name, bytes) in &leader_wals {
        assert!(
            promoted_wals[name].starts_with(bytes),
            "{name}: promoted log must extend the old leader's log"
        );
    }
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Checkpoint interactions
// ---------------------------------------------------------------------

#[test]
fn follower_behind_the_checkpoint_horizon_resyncs_via_reset() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("hzn-leader");
    let fdir = test_dir("hzn-follower");

    let ckpt = CheckpointPolicy {
        max_records: 4,
        max_log_bytes: 0,
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, ckpt),
        leader_options(1),
    )
    .unwrap();
    let leader_addr = server.local_addr().to_string();

    let replica = Replica::start(
        "127.0.0.1:0",
        &leader_addr,
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "p0"))
        .unwrap()
        .unwrap();
    wait_converged(&ldir, &fdir);

    // Take the follower down, then advance the leader far enough that
    // auto-checkpoints compact away everything the follower has.
    drop(replica.shutdown());
    client
        .request("alpha", &insert("R", "q0"))
        .unwrap()
        .unwrap();
    for i in 0..10u32 {
        let req = if i % 2 == 0 {
            update_r(&["q0"])
        } else {
            update_r(&["a1", "p0"])
        };
        client.request("alpha", &req).unwrap().unwrap();
    }

    // Reopen the follower from its own directory: its generation is now
    // behind the horizon, so the leader must answer with a Reset.
    let (svc, reports) = Service::open_dir(&fdir, SyncPolicy::Always, |_| {
        (
            SubschemaComponents::singletons(sig()),
            Schema::unconstrained(sig()),
        )
    })
    .unwrap();
    assert!(reports.values().all(|r| r.is_ok()), "{reports:?}");
    let replica = Replica::start(
        "127.0.0.1:0",
        &leader_addr,
        svc,
        replica_options(fault_seed() ^ 1),
    )
    .unwrap();
    wait_converged(&ldir, &fdir);

    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    let snap = fclient.metrics().unwrap();
    assert!(
        counter(&snap, "repl.resets") >= 1,
        "the re-sync must have gone through a snapshot reset: {:?}",
        snap.counters
    );
    let l = client.request("alpha", &read_r()).unwrap();
    let f = fclient.request("alpha", &read_r()).unwrap();
    assert_eq!(wal::encode_result(&l), wal::encode_result(&f));

    drop(client);
    drop(fclient);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn live_tail_survives_leader_auto_checkpoints() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("live-ckpt-leader");
    let fdir = test_dir("live-ckpt-follower");

    let ckpt = CheckpointPolicy {
        max_records: 3,
        max_log_bytes: 0,
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, ckpt),
        leader_options(1),
    )
    .unwrap();
    let replica = Replica::start(
        "127.0.0.1:0",
        &server.local_addr().to_string(),
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();

    // Every third record triggers a checkpoint on the leader, shipping
    // live Reset frames through the attached follower's stream.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "c0"))
        .unwrap()
        .unwrap();
    for i in 0..12u32 {
        let req = if i % 2 == 0 {
            update_r(&["a1", "c0"])
        } else {
            update_r(&["a2"])
        };
        client.request("alpha", &req).unwrap().unwrap();
    }
    wait_converged(&ldir, &fdir);
    assert!(replica.fault().is_none(), "{:?}", replica.fault());

    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    let snap = fclient.metrics().unwrap();
    assert!(
        counter(&snap, "repl.resets") >= 1,
        "live checkpoints must arrive as resets: {:?}",
        snap.counters
    );
    let l = client.request("alpha", &read_r()).unwrap();
    let f = fclient.request("alpha", &read_r()).unwrap();
    assert_eq!(wal::encode_result(&l), wal::encode_result(&f));

    drop(client);
    drop(fclient);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Follower subscriptions
// ---------------------------------------------------------------------

#[test]
fn follower_subscribers_see_deltas_from_replicated_records() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("sub-leader");
    let fdir = test_dir("sub-follower");

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(1),
    )
    .unwrap();
    let replica = Replica::start(
        "127.0.0.1:0",
        &server.local_addr().to_string(),
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "s1"))
        .unwrap()
        .unwrap();
    wait_converged(&ldir, &fdir);

    // Subscribe on the *follower*; mutate on the *leader*.
    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    let (sub, image) = fclient.subscribe("alpha", "r").unwrap().unwrap();
    assert_eq!(
        image,
        Instance::null_model(&sig()).with("R", rel(1, [["a1"]]))
    );
    client
        .request("alpha", &update_r(&["s1"]))
        .unwrap()
        .unwrap();

    let (session, event) = fclient.next_event().unwrap();
    assert_eq!(session, "alpha");
    assert_eq!(event.sub, sub, "delta must land on the follower's sub");

    drop(client);
    drop(fclient);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Satellite: idle-connection hygiene
// ---------------------------------------------------------------------

#[test]
fn idle_connections_are_reaped_and_counted() {
    let _guard = ENV_LOCK.lock().unwrap();
    let opts = ServeOptions {
        read_timeout: Some(Duration::from_millis(80)),
        ..ServeOptions::default()
    };
    let server = Server::bind_with("127.0.0.1:0", demo_service(), opts).unwrap();
    let addr = server.local_addr();

    // A peer that completes the handshake, then stalls forever.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let mut hs = [0u8; 6];
    stalled.read_exact(&mut hs).unwrap();
    stalled.write_all(b"CVRPC1").unwrap();

    // A healthy client keeps talking through the idle window unharmed.
    let mut healthy = Client::connect(addr).unwrap();
    for _ in 0..8 {
        healthy
            .request("alpha", &SessionRequest::Stats)
            .unwrap()
            .unwrap();
        thread::sleep(Duration::from_millis(25));
    }

    let snap = healthy.metrics().unwrap();
    assert!(
        counter(&snap, "serve.idle_disconnects") >= 1,
        "the stalled peer must be reaped and counted: {:?}",
        snap.counters
    );
    // The server hung up on the stalled socket.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let n = stalled.read(&mut hs).unwrap_or(0);
    assert_eq!(n, 0, "stalled connection must be closed by the server");

    drop(healthy);
    server.shutdown();
}

/// A stall *inside* a frame is a torn stream, not an idle gap — even on
/// a connection whose replication stream exempts it from idle reaping.
/// The server must hang up within the read timeout (plus slack) while
/// the rest of the frame is still unsent, never resume parsing with the
/// frame's tail as a new header.
#[test]
fn a_stall_mid_frame_is_torn_even_on_a_replication_connection() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = test_dir("torn-stall");
    let timeout = Duration::from_millis(100);
    let opts = ServeOptions {
        read_timeout: Some(timeout),
        ..ServeOptions::default()
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&dir, CheckpointPolicy::default()),
        opts,
    )
    .unwrap();

    let mut peer = TcpStream::connect(server.local_addr()).unwrap();
    let mut hs = [0u8; 6];
    peer.read_exact(&mut hs).unwrap();
    peer.write_all(b"CVRPC1").unwrap();
    // Open a replication stream; its ack proves the connection is now
    // exempt from the idle timeout.
    write_frame(&mut peer, &encode_replicate_payload("alpha", 0, 0)).unwrap();
    let ack = read_frame(&mut peer).unwrap().unwrap();
    assert!(
        is_replicate_ack_payload(&ack),
        "first frame back is the ack"
    );

    // Five bytes of a `Sessions` request frame, then silence.
    let mut sessions = Vec::new();
    write_frame(&mut sessions, &encode_sessions_payload()).unwrap();
    peer.write_all(&sessions[..5]).unwrap();
    let stalled_at = Instant::now();

    // Drain whatever the stream ships until the server hangs up.
    peer.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let slack = Duration::from_millis(1900);
    let mut buf = [0u8; 4096];
    let closed = loop {
        match peer.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break true,
        }
        if stalled_at.elapsed() > timeout + slack {
            break false;
        }
    };
    assert!(
        closed,
        "a stall {} bytes into a frame must end the connection within {:?}",
        5,
        timeout + slack
    );

    // Everyone else is still served.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .request("alpha", &SessionRequest::Stats)
        .unwrap()
        .unwrap();
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A caught-up `Replicate` ships no catch-up frames, so a stream opened
/// in the same drain as its connection's cancel lives on only if the
/// cancel runs first.  It runs after the batch: the follower here asks
/// from the log's end and hangs up while the shard is busy, and once
/// that drain is done no stream is left tapping the idle session.
#[test]
fn caught_up_replicate_drained_with_its_own_cancel_is_closed() {
    let _guard = ENV_LOCK.lock().unwrap();
    let sig = sig();
    let durable = Session::open_durable(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        base(),
        SessionConfig::default(),
        Box::new(MemStore::new().0),
        SyncPolicy::Never,
    )
    .unwrap();
    // `2^10` states: a pool insert doubles the space and holds the
    // dispatcher for a while.
    let tuples = |prefix: &str| -> Vec<Tuple> {
        (0..5)
            .map(|i| Tuple::new([v(&format!("{prefix}{i}"))]))
            .collect()
    };
    let big_pools: BTreeMap<String, Vec<Tuple>> =
        [("R".to_owned(), tuples("r")), ("S".to_owned(), tuples("s"))].into();
    let big = Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &big_pools,
        Instance::null_model(&sig),
        SessionConfig::default(),
    )
    .unwrap();
    let mut svc = Service::new();
    svc.add_session("alpha", durable).unwrap();
    svc.add_session("big", big).unwrap();
    let server = Server::bind("127.0.0.1:0", svc).unwrap();

    let mut busy = Client::connect(server.local_addr()).unwrap();
    let Ok(compview_session::SessionResponse::Stats(stats)) =
        busy.request("alpha", &SessionRequest::Stats).unwrap()
    else {
        panic!("stats");
    };
    busy.send("big", &insert("R", "grow")).unwrap();
    busy.flush().unwrap();
    // The dispatcher is now inside the insert, so what arrives meanwhile
    // waits for one next drain.  The pause only makes that shared drain
    // likely; with cancels after the batch the outcome does not depend
    // on it.
    thread::sleep(Duration::from_millis(10));
    let mut follower = TcpStream::connect(server.local_addr()).unwrap();
    let mut hs = [0u8; 6];
    follower.read_exact(&mut hs).unwrap();
    follower.write_all(b"CVRPC1").unwrap();
    let caught_up = encode_replicate_payload("alpha", stats.wal_seq + 1, stats.wal_gen);
    write_frame(&mut follower, &caught_up).unwrap();
    follower.shutdown(Shutdown::Both).unwrap();
    drop(follower);
    assert!(busy.recv().unwrap().is_ok());

    let mut streams = u64::MAX;
    for _ in 0..100 {
        streams = busy.topology().unwrap().repl_streams;
        if streams == 0 {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        streams, 0,
        "the dead connection's replication stream leaked"
    );
    let metrics = busy.metrics().unwrap();
    assert_eq!(
        counter(&metrics, "serve.repl.streams_opened"),
        counter(&metrics, "serve.repl.streams_closed")
    );
    drop(busy);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: typed, sticky connection loss
// ---------------------------------------------------------------------

#[test]
fn lost_connection_yields_one_sticky_typed_error() {
    let _guard = ENV_LOCK.lock().unwrap();
    let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    let (sub, _image) = client.subscribe("alpha", "r").unwrap().unwrap();

    // Park one delta event in the inbox: pipeline an update and a
    // metrics probe, then collect the probe — the event frame sits
    // between the two responses and gets read past.
    client.send("alpha", &update_r(&["a2"])).unwrap();
    client.send_metrics().unwrap();
    client.recv().unwrap().unwrap();
    let _ = client.recv_metrics().unwrap();

    server.shutdown();

    // Every receive after the loss is the same typed error — never a
    // panic, never a shifting raw io::Error.
    let errs: Vec<String> = (0..3)
        .map(|_| match client.recv() {
            Err(ProtoError::ConnectionLost { detail }) => detail,
            other => panic!("want ConnectionLost, got {other:?}"),
        })
        .collect();
    assert_eq!(errs[0], errs[1]);
    assert_eq!(errs[1], errs[2]);

    // Arrivals parked before the loss stay readable…
    let (session, event) = client.next_event().unwrap();
    assert_eq!(session, "alpha");
    assert_eq!(event.sub, sub);
    // …and once drained, the sticky error is back.
    match client.next_event() {
        Err(ProtoError::ConnectionLost { .. }) => {}
        other => panic!("want ConnectionLost after the inbox drains, got {other:?}"),
    }
    match client.send("alpha", &SessionRequest::Stats) {
        Err(ProtoError::ConnectionLost { .. }) => {}
        other => panic!("sends must be refused the same way, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Apply path: byte-identical at every prefix, corruption refused
// ---------------------------------------------------------------------

#[test]
fn replicated_apply_is_byte_identical_at_every_prefix_and_refuses_corruption() {
    let open_mem = || {
        let (store, bytes) = MemStore::new();
        let sig = sig();
        let session = Session::open_durable(
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools(),
            base(),
            SessionConfig::default(),
            Box::new(store),
            SyncPolicy::Always,
        )
        .unwrap();
        (session, bytes)
    };

    let (mut leader, leader_bytes) = open_mem();
    leader.serve(register_r()).unwrap();
    for i in 0..5u32 {
        leader.serve(insert("R", &format!("m{i}"))).unwrap();
    }
    leader.serve(update_r(&["a2"])).unwrap();

    // A brand-new follower (generation 0) must be offered a Reset.
    let plan = leader.replication_catchup(0, 0).unwrap();
    let CatchupPlan::Reset {
        gen,
        record0,
        frames,
    } = plan
    else {
        panic!("fresh follower must get a Reset catch-up plan");
    };
    assert_ne!(gen, 0);
    assert!(!frames.is_empty());
    let want = leader_bytes.lock().unwrap().clone();
    assert_eq!(
        wal::MAGIC.len() + record0.len() + frames.iter().map(Vec::len).sum::<usize>(),
        want.len(),
        "catch-up must cover the whole leader log after the file magic"
    );

    let (mut follower, follower_bytes) = open_mem();
    follower.apply_reset(&record0).unwrap();
    let mut upto = wal::MAGIC.len() + record0.len();
    assert_eq!(&follower_bytes.lock().unwrap()[..], &want[..upto]);

    for (k, frame) in frames.iter().enumerate() {
        // A flipped payload byte is refused with a typed error, and
        // writes nothing.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        let before = follower_bytes.lock().unwrap().clone();
        match follower.apply_replicated(&bad) {
            Err(ApplyError::BadRecord { .. } | ApplyError::BadPayload { .. }) => {}
            other => panic!("corrupt record must be refused, got {other:?}"),
        }
        assert_eq!(
            *follower_bytes.lock().unwrap(),
            before,
            "a refused record must write nothing"
        );
        // Skipping ahead is a typed gap, also refused.
        if k + 1 < frames.len() {
            match follower.apply_replicated(&frames[k + 1]) {
                Err(ApplyError::Gap { .. }) => {}
                other => panic!("skipped record must be a Gap, got {other:?}"),
            }
        }
        let seq = follower.apply_replicated(frame).unwrap();
        assert_eq!(seq, k as u64 + 1);
        upto += frame.len();
        assert_eq!(follower_bytes.lock().unwrap().len(), upto);
        assert_eq!(&follower_bytes.lock().unwrap()[..], &want[..upto]);
    }

    assert_eq!(*follower_bytes.lock().unwrap(), want);
    assert_eq!(follower.state(), leader.state());
    assert_eq!(follower.wal_gen(), leader.wal_gen());
    assert_eq!(follower.wal_last_seq(), leader.wal_last_seq());
}

// ---------------------------------------------------------------------
// Headline: fan-out + chaining, byte-identical under faults and a
// mid-chain node kill
// ---------------------------------------------------------------------

/// Poll until every follower directory's WAL files are byte-identical
/// to the leader's.
fn wait_converged_all(ldir: &Path, fdirs: &[&Path]) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let want = wal_files(ldir);
        if fdirs.iter().all(|d| wal_files(d) == want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "topology never converged: leader {:?} vs followers {:?}",
            want.iter()
                .map(|(n, b)| (n.clone(), b.len()))
                .collect::<Vec<_>>(),
            fdirs
                .iter()
                .map(|d| wal_files(d)
                    .iter()
                    .map(|(n, b)| (n.clone(), b.len()))
                    .collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn fanout_and_chain_converge_byte_identical_under_faults() {
    let _guard = ENV_LOCK.lock().unwrap();
    for (threads, shards) in [(1usize, 1usize), (2, 2), (8, 2)] {
        with_threads(threads, || run_topology_scenario(threads, shards));
    }
}

/// One leader fans out to four direct followers (one behind a faulty
/// feed); the faulty one is additionally the head of a three-deep chain
/// whose middle node gets killed and revived.  Everything — WAL files,
/// Read bytes, final states — must converge byte-identical everywhere.
fn run_topology_scenario(threads: usize, shards: usize) {
    let seed = fault_seed() ^ 0x70 ^ (((threads as u64) << 32) | shards as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let tag = format!("topo-{threads}-{shards}");
    let ldir = test_dir(&format!("{tag}-leader"));
    let fdirs: Vec<PathBuf> = (1..=4).map(|i| test_dir(&format!("{tag}-f{i}"))).collect();
    let c2dir = test_dir(&format!("{tag}-c2"));
    let c3dir = test_dir(&format!("{tag}-c3"));

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(shards),
    )
    .unwrap();
    let laddr = server.local_addr().to_string();

    // Fan-out: f1 reaches the leader only through a fault-injecting
    // proxy; f2..f4 connect clean.
    let proxy = Proxy::start(laddr.clone());
    let f1 = Replica::start(
        "127.0.0.1:0",
        &proxy.addr.to_string(),
        durable_service(&fdirs[0], CheckpointPolicy::default()),
        follower_options(seed ^ 1),
    )
    .unwrap();
    let direct: Vec<Replica<SubschemaComponents>> = (1..4)
        .map(|i| {
            Replica::start(
                "127.0.0.1:0",
                &laddr,
                durable_service(&fdirs[i], CheckpointPolicy::default()),
                replica_options(seed ^ (i as u64 + 1)),
            )
            .unwrap()
        })
        .collect();

    // Chain: c2 tails f1 (through a second proxy so f1 can be revived
    // on a fresh port), c3 tails c2.  Both start *empty* and mirror
    // everything they discover.
    let proxy2 = Proxy::start(f1.local_addr().to_string());
    let c2 = Replica::start_with_mirror(
        "127.0.0.1:0",
        &proxy2.addr.to_string(),
        Service::new(),
        follower_options(seed ^ 10),
        mirror_for(&c2dir),
    )
    .unwrap();
    let c3 = Replica::start_with_mirror(
        "127.0.0.1:0",
        &c2.local_addr().to_string(),
        Service::new(),
        follower_options(seed ^ 11),
        mirror_for(&c3dir),
    )
    .unwrap();

    // The chain forwards the *root* leader's address, not the next hop:
    // both chained nodes point writers at f1's upstream (the proxy).
    assert_eq!(c2.root_addr(), proxy.addr.to_string());
    assert_eq!(c3.root_addr(), proxy.addr.to_string());

    let mut client = Client::connect(server.local_addr()).unwrap();
    for name in SESSIONS {
        client.request(name, &register_r()).unwrap().unwrap();
    }

    // Faults on f1's feed while every node tails.
    proxy.push_plans((0..4).map(|i| {
        if i % 2 == 0 {
            Plan::CutAfter(rng.random_range(40..3000))
        } else {
            Plan::FlipAt(rng.random_range(16..1500))
        }
    }));
    proxy.sever_live();
    for round in 0..4u32 {
        for name in SESSIONS {
            let req = if round < 2 {
                insert("R", &format!("t{round}"))
            } else if round % 2 == 0 {
                update_r(&["a1", "t0"])
            } else {
                update_r(&["a2", "t1"])
            };
            client.request(name, &req).unwrap().unwrap();
        }
        thread::sleep(Duration::from_millis(10));
    }

    // Mid-chain node kill: take f1 down while the leader keeps writing
    // and c2/c3 keep serving reads from their last applied state.
    let f1svc = f1.shutdown();
    for name in SESSIONS {
        client
            .request(name, &update_r(&["a1", "t1"]))
            .unwrap()
            .unwrap();
    }
    let mut c3client = Client::connect(c3.local_addr()).unwrap();
    assert!(
        c3client.request("alpha", &read_r()).unwrap().is_ok(),
        "chain tail must keep serving reads while its feed is down"
    );
    match c3client.request("alpha", &insert("R", "no")).unwrap() {
        Err(DispatchError::Session(SessionError::NotLeader { leader_addr })) => {
            assert_eq!(
                leader_addr,
                proxy.addr.to_string(),
                "chained NotLeader must name the root, not the next hop"
            );
        }
        other => panic!("chained follower must refuse writes, got {other:?}"),
    }

    // Revive f1 on a fresh port from its own (read-only) sessions and
    // repoint the chain proxy at it.
    let f1 = Replica::start(
        "127.0.0.1:0",
        &proxy.addr.to_string(),
        f1svc,
        follower_options(seed ^ 12),
    )
    .unwrap();
    proxy2.set_upstream(f1.local_addr().to_string());
    proxy2.sever_live();

    for name in SESSIONS {
        client
            .request(name, &update_r(&["t0", "t1"]))
            .unwrap()
            .unwrap();
    }

    let all_dirs: Vec<&Path> = fdirs
        .iter()
        .map(PathBuf::as_path)
        .chain([c2dir.as_path(), c3dir.as_path()])
        .collect();
    wait_converged_all(&ldir, &all_dirs);

    // Read bytes identical on every node of the tree.
    let want = wal::encode_result(&client.request("alpha", &read_r()).unwrap());
    for addr in [f1.local_addr(), c2.local_addr(), c3.local_addr()]
        .into_iter()
        .chain(direct.iter().map(Replica::local_addr))
    {
        let mut c = Client::connect(addr).unwrap();
        let got = c.request("alpha", &read_r()).unwrap();
        assert_eq!(
            wal::encode_result(&got),
            want,
            "node at {addr} read diverged"
        );
    }

    // The leader's egress went to its direct followers only; the chain
    // hops shipped their own bytes (f1 re-ships to c2, c2 to c3).
    let mut f1c = Client::connect(f1.local_addr()).unwrap();
    let f1snap = f1c.metrics().unwrap();
    assert!(
        counter(&f1snap, "serve.repl.bytes_out") > 0,
        "a chained upstream must re-ship the bytes it mirrors: {:?}",
        f1snap.counters
    );
    assert!(
        counter(&f1snap, "repl.sessions_mirrored") == 0,
        "f1 holds its sessions durably; nothing to mirror"
    );
    let lsnap = client.metrics().unwrap();
    assert!(counter(&lsnap, "serve.repl.bytes_out") > 0);

    assert!(c2.fault().is_none(), "{:?}", c2.fault());
    assert!(c3.fault().is_none(), "{:?}", c3.fault());

    drop(client);
    drop(c3client);
    drop(f1c);
    let lsvc = server.shutdown();
    let f1svc = f1.shutdown();
    let c2svc = c2.shutdown();
    let c3svc = c3.shutdown();
    for name in SESSIONS {
        let want = lsvc.session(name).unwrap().state();
        assert_eq!(f1svc.session(name).unwrap().state(), want);
        assert_eq!(c2svc.session(name).unwrap().state(), want);
        assert_eq!(c3svc.session(name).unwrap().state(), want);
    }
    for r in direct {
        let svc = r.shutdown();
        for name in SESSIONS {
            assert_eq!(
                svc.session(name).unwrap().state(),
                lsvc.session(name).unwrap().state()
            );
        }
    }
    drop(proxy);
    drop(proxy2);
    let _ = std::fs::remove_dir_all(&ldir);
    for d in fdirs.iter().chain([&c2dir, &c3dir]) {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------
// Satellite: sessions created mid-tail are discovered everywhere
// ---------------------------------------------------------------------

#[test]
fn sessions_created_mid_tail_are_discovered_and_mirrored_down_the_chain() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("disc-leader");
    let f1dir = test_dir("disc-f1");
    let c2dir = test_dir("disc-c2");

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(2),
    )
    .unwrap();
    let laddr = server.local_addr().to_string();
    let f1 = Replica::start_with_mirror(
        "127.0.0.1:0",
        &laddr,
        durable_service(&f1dir, CheckpointPolicy::default()),
        follower_options(fault_seed()),
        mirror_for(&f1dir),
    )
    .unwrap();
    let c2 = Replica::start_with_mirror(
        "127.0.0.1:0",
        &f1.local_addr().to_string(),
        Service::new(),
        follower_options(fault_seed() ^ 1),
        mirror_for(&c2dir),
    )
    .unwrap();

    // The leader gains a session *after* every follower started — the
    // exact case the start-time snapshot used to miss forever.
    let sig_ = sig();
    let delta = Session::open_durable(
        SubschemaComponents::singletons(sig_.clone()),
        Schema::unconstrained(sig_),
        &pools(),
        base(),
        SessionConfig::default(),
        Box::new(FsStore::open(ldir.join("delta.wal")).unwrap()),
        SyncPolicy::Always,
    )
    .unwrap();
    server.adopt_session("delta", delta).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("delta", &register_r()).unwrap().unwrap();
    client
        .request("delta", &insert("R", "d0"))
        .unwrap()
        .unwrap();
    client
        .request("delta", &update_r(&["a1", "d0"]))
        .unwrap()
        .unwrap();

    // Both hops discover, mirror, and converge byte-identically.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let l = std::fs::read(ldir.join("delta.wal")).unwrap_or_default();
        let f = std::fs::read(f1dir.join("delta.wal")).unwrap_or_default();
        let c = std::fs::read(c2dir.join("delta.wal")).unwrap_or_default();
        if !l.is_empty() && l == f && l == c {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mid-tail session never mirrored: leader {} vs f1 {} vs c2 {}",
            l.len(),
            f.len(),
            c.len()
        );
        thread::sleep(Duration::from_millis(10));
    }

    // Pre-existing sessions converged too, and reads on the discovered
    // session are byte-identical at every hop.
    wait_converged(&ldir, &f1dir);
    let want = wal::encode_result(&client.request("delta", &read_r()).unwrap());
    for addr in [f1.local_addr(), c2.local_addr()] {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(
            wal::encode_result(&c.request("delta", &read_r()).unwrap()),
            want
        );
    }

    let mut f1c = Client::connect(f1.local_addr()).unwrap();
    let snap = f1c.metrics().unwrap();
    assert!(
        counter(&snap, "repl.sessions_mirrored") >= 1,
        "discovery must be counted: {:?}",
        snap.counters
    );
    // The listing verb itself reports the topology: a follower names the
    // root leader, the leader names nobody.
    let reply = f1c.sessions().unwrap();
    assert_eq!(reply.leader.as_deref(), Some(laddr.as_str()));
    assert!(reply.sessions.iter().any(|s| s == "delta"));
    let lreply = client.sessions().unwrap();
    assert_eq!(lreply.leader, None);

    drop(client);
    drop(f1c);
    c2.shutdown();
    f1.shutdown();
    server.shutdown();
    for d in [&ldir, &f1dir, &c2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------
// Satellite: follower Stats — content identical, runtime divergent
// ---------------------------------------------------------------------

#[test]
fn follower_stats_content_matches_leader_byte_for_byte() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("stats-leader");
    let fdir = test_dir("stats-follower");

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(1),
    )
    .unwrap();
    let replica = Replica::start(
        "127.0.0.1:0",
        &server.local_addr().to_string(),
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "s0"))
        .unwrap()
        .unwrap();
    client
        .request("alpha", &update_r(&["a1", "s0"]))
        .unwrap()
        .unwrap();
    wait_converged(&ldir, &fdir);

    // Follower-local runtime activity that must NOT show up in the
    // content-derived fields: reads warm the mask cache, a subscription
    // raises active_subs.
    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    for _ in 0..3 {
        fclient.request("alpha", &read_r()).unwrap().unwrap();
    }
    let _sub = fclient.subscribe("alpha", "r").unwrap().unwrap();

    let lstats = match client.request("alpha", &SessionRequest::Stats).unwrap() {
        Ok(compview_session::SessionResponse::Stats(s)) => s,
        other => panic!("want Stats, got {other:?}"),
    };
    let fstats = match fclient.request("alpha", &SessionRequest::Stats).unwrap() {
        Ok(compview_session::SessionResponse::Stats(s)) => s,
        other => panic!("want Stats, got {other:?}"),
    };

    // Content-derived fields are byte-for-byte equal at the same applied
    // sequence: states, views, undoable, session identity, WAL position
    // and size.
    assert_eq!(lstats.content(), fstats.content());
    assert_ne!(fstats.wal_gen, 0, "durable sessions carry a generation");
    assert_eq!(fstats.wal_gen, lstats.wal_gen);
    assert_eq!(fstats.wal_seq, lstats.wal_seq);
    assert_eq!(fstats.log_bytes, lstats.log_bytes);
    assert_eq!(fstats.session_id, lstats.session_id);

    // Runtime fields legitimately diverge: the follower's subscription
    // is local, and its read-path cache warmed independently.
    assert_eq!(fstats.active_subs, 1);
    assert_eq!(lstats.active_subs, 0);

    drop(client);
    drop(fclient);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Satellite: promotion under load — downstream stream + live subscriber
// ---------------------------------------------------------------------

#[test]
fn promote_with_downstream_stream_and_live_subscriber_never_tears() {
    let _guard = ENV_LOCK.lock().unwrap();
    for threads in [1usize, 2, 8] {
        with_threads(threads, || run_promote_under_load(threads));
    }
}

fn run_promote_under_load(threads: usize) {
    let seed = fault_seed() ^ 0x9000 ^ threads as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let ldir = test_dir(&format!("pul-leader-{threads}"));
    let f1dir = test_dir(&format!("pul-f1-{threads}"));
    let f2dir = test_dir(&format!("pul-f2-{threads}"));

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(1),
    )
    .unwrap();
    let proxy = Proxy::start(server.local_addr().to_string());
    let f1 = Replica::start(
        "127.0.0.1:0",
        &proxy.addr.to_string(),
        durable_service(&f1dir, CheckpointPolicy::default()),
        follower_options(seed ^ 1),
    )
    .unwrap();
    let f1addr = f1.local_addr();
    // The downstream reaches f1 through its own proxy, so its link can
    // be severed to force a root re-learn after the promotion.
    let proxy2 = Proxy::start(f1addr.to_string());
    let f2 = Replica::start(
        "127.0.0.1:0",
        &proxy2.addr.to_string(),
        durable_service(&f2dir, CheckpointPolicy::default()),
        replica_options(seed ^ 2),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "p0"))
        .unwrap()
        .unwrap();

    // A live subscriber on the node about to be promoted.
    let mut subclient = Client::connect(f1addr).unwrap();
    let (sub, _image) = subclient.subscribe("alpha", "r").unwrap().unwrap();

    // Writes under a faulty feed, right up to the kill.
    proxy.push_plans((0..2).map(|_| Plan::CutAfter(rng.random_range(60..2000))));
    proxy.sever_live();
    for round in 0..4u32 {
        let req = if round % 2 == 0 {
            update_r(&["a1", "p0"])
        } else {
            update_r(&["a2"])
        };
        client.request("alpha", &req).unwrap().unwrap();
        thread::sleep(Duration::from_millis(10));
    }
    wait_converged(&ldir, &f1dir);
    drop(client);
    server.shutdown(); // leader killed

    // Promote f1 while f2's replication stream and the subscriber are
    // both live on its server.
    let promoted = f1.promote().unwrap();
    assert_eq!(promoted.local_addr(), f1addr);

    // The promoted node accepts writes; the subscriber sees the
    // post-promotion delta on the same connection — never torn down.
    let mut pclient = Client::connect(f1addr).unwrap();
    pclient
        .request("alpha", &insert("R", "p9"))
        .unwrap()
        .unwrap();
    pclient
        .request("alpha", &update_r(&["p0", "p9"]))
        .unwrap()
        .unwrap();
    let (session, event) = subclient.next_event().unwrap();
    assert_eq!(session, "alpha");
    assert_eq!(event.sub, sub);

    // Sever f2's link: on redial it learns the root moved (f1 forwards
    // no hint now — it IS the root) and repoints its NotLeader target.
    proxy2.sever_live();
    wait_converged(&f1dir, &f2dir);
    let mut f2client = Client::connect(f2.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match f2client.request("alpha", &insert("R", "no")).unwrap() {
            Err(DispatchError::Session(SessionError::NotLeader { leader_addr }))
                if leader_addr == proxy2.addr.to_string() =>
            {
                break;
            }
            Err(DispatchError::Session(SessionError::NotLeader { .. })) => {
                assert!(
                    Instant::now() < deadline,
                    "downstream never repointed its NotLeader at the new root"
                );
                thread::sleep(Duration::from_millis(10));
            }
            other => panic!("downstream must refuse writes, got {other:?}"),
        }
    }
    assert!(f2.fault().is_none(), "{:?}", f2.fault());

    // Byte-identical reads, promoted vs downstream.
    let want = wal::encode_result(&pclient.request("alpha", &read_r()).unwrap());
    assert_eq!(
        wal::encode_result(&f2client.request("alpha", &read_r()).unwrap()),
        want
    );

    drop(pclient);
    drop(subclient);
    drop(f2client);
    f2.shutdown();
    promoted.shutdown();
    drop(proxy);
    drop(proxy2);
    for d in [&ldir, &f1dir, &f2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------
// Read-your-writes: ReadAt satisfied or typed Lagging
// ---------------------------------------------------------------------

#[test]
fn read_at_waits_for_the_token_and_refuses_when_lagging() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("ryw-leader");
    let fdir = test_dir("ryw-follower");

    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(2),
    )
    .unwrap();
    let replica = Replica::start(
        "127.0.0.1:0",
        &server.local_addr().to_string(),
        durable_service(&fdir, CheckpointPolicy::default()),
        replica_options(fault_seed()),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    client
        .request("alpha", &insert("R", "w0"))
        .unwrap()
        .unwrap();
    client
        .request("alpha", &update_r(&["a1", "w0"]))
        .unwrap()
        .unwrap();

    // The write token: the leader's WAL position after the update.
    let stats = match client.request("alpha", &SessionRequest::Stats).unwrap() {
        Ok(compview_session::SessionResponse::Stats(s)) => s,
        other => panic!("want Stats, got {other:?}"),
    };
    assert_ne!(stats.wal_gen, 0);

    // Read-your-writes on the follower: waits for replication to reach
    // the token, then answers with bytes identical to the leader's.
    let mut fclient = Client::connect(replica.local_addr()).unwrap();
    let got = fclient
        .read_at(
            "alpha",
            "r",
            stats.wal_gen,
            stats.wal_seq,
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(got.is_ok(), "token within reach must be served: {got:?}");
    let want = client.request("alpha", &read_r()).unwrap();
    assert_eq!(wal::encode_result(&got), wal::encode_result(&want));

    // A token the follower cannot reach: typed Lagging after the
    // bounded wait, reporting both the want and the actual position.
    match fclient
        .read_at(
            "alpha",
            "r",
            stats.wal_gen,
            stats.wal_seq + 1000,
            Duration::from_millis(80),
        )
        .unwrap()
    {
        Err(DispatchError::Lagging {
            want_gen,
            want_seq,
            gen,
            seq,
        }) => {
            assert_eq!(want_gen, stats.wal_gen);
            assert_eq!(want_seq, stats.wal_seq + 1000);
            assert_eq!(gen, stats.wal_gen);
            assert_eq!(seq, stats.wal_seq);
        }
        other => panic!("unreachable token must refuse with Lagging, got {other:?}"),
    }

    // A token from another generation: also Lagging (gen mismatch keeps
    // the wait unsatisfied regardless of seq).
    match fclient
        .read_at(
            "alpha",
            "r",
            stats.wal_gen ^ 1,
            0,
            Duration::from_millis(40),
        )
        .unwrap()
    {
        Err(DispatchError::Lagging { gen, .. }) => assert_eq!(gen, stats.wal_gen),
        other => panic!("wrong-generation token must refuse with Lagging, got {other:?}"),
    }

    // Unknown session: typed immediately, not a hang.
    match fclient
        .read_at("nope", "r", 1, 1, Duration::from_millis(40))
        .unwrap()
    {
        Err(DispatchError::UnknownSession(n)) => assert_eq!(n, "nope"),
        other => panic!("unknown session must refuse, got {other:?}"),
    }

    // ReadAt against the leader itself is satisfied immediately.
    let got = client
        .read_at(
            "alpha",
            "r",
            stats.wal_gen,
            stats.wal_seq,
            Duration::from_millis(200),
        )
        .unwrap();
    assert!(got.is_ok(), "{got:?}");

    drop(client);
    drop(fclient);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Topology introspection: stale heartbeat on a silently dead link
// ---------------------------------------------------------------------

/// A link that is silently swallowed (frames discarded, no FIN) looks
/// alive to TCP — the follower cannot learn anything from the socket.
/// `Topology` must expose the truth anyway: `heartbeat_age_ms` grows
/// past any healthy bound while `repl.connected` still reads 1 and no
/// reconnect has fired.
#[test]
fn silently_swallowed_upstream_reports_stale_heartbeat_before_reconnect() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("swallow-leader");
    let fdir = test_dir("swallow-follower");

    // Leader heartbeats every 25 ms, so a healthy link's age stays tiny.
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        leader_options(1),
    )
    .unwrap();
    let proxy = Proxy::start(server.local_addr().to_string());
    // Phase A's sync connection runs clean; the tail link is then
    // silently swallowed after ~1 KiB (sessions exchange, acks, and a
    // run of heartbeats fit well inside that).
    proxy.push_plans([Plan::Clean, Plan::SwallowAfter(1024)]);
    // A generous read timeout keeps reconnect backoff from firing while
    // we observe the staleness — the whole point is to see the problem
    // *before* the transport gives up.
    let mut options = replica_options(fault_seed());
    options.read_timeout = Duration::from_secs(30);
    let replica = Replica::start(
        "127.0.0.1:0",
        &proxy.addr.to_string(),
        durable_service(&fdir, CheckpointPolicy::default()),
        options,
    )
    .unwrap();
    let mut fclient = Client::connect(replica.local_addr()).unwrap();

    // While frames still flow, the follower self-reports as a healthy
    // chained node: follower role, the proxy as upstream, fresh beats.
    let deadline = Instant::now() + Duration::from_secs(10);
    let fresh = loop {
        let topo = fclient.topology().unwrap();
        if let Some(age) = topo.heartbeat_age_ms {
            if age <= 250 {
                assert_eq!(topo.role, compview_serve::TopoRole::Follower);
                assert_eq!(
                    topo.upstream.as_deref(),
                    Some(proxy.addr.to_string().as_str())
                );
                break topo;
            }
        }
        assert!(
            Instant::now() < deadline,
            "never saw a fresh heartbeat: {topo:?}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    assert!(!fresh.sessions.is_empty(), "sessions listed: {fresh:?}");
    let baseline = counter(&fclient.metrics().unwrap(), "repl.reconnects");

    // Once the swallow point passes, the age must climb unboundedly —
    // with the link still "connected" and no reconnect attempted.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let topo = fclient.topology().unwrap();
        let snap = fclient.metrics().unwrap();
        if topo.heartbeat_age_ms.is_some_and(|age| age >= 400)
            && gauge(&snap, "repl.connected") == 1
            && counter(&snap, "repl.reconnects") == baseline
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "staleness never surfaced: {topo:?}, connected {}, reconnects {} (baseline {baseline})",
            gauge(&snap, "repl.connected"),
            counter(&snap, "repl.reconnects"),
        );
        thread::sleep(Duration::from_millis(20));
    }

    drop(fclient);
    drop(proxy);
    replica.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&fdir);
}

// ---------------------------------------------------------------------
// Distributed tracing: one write, one tree, three nodes
// ---------------------------------------------------------------------

/// The labels harvested for `node`, in no particular order.
fn labels_of<'a>(spans: &'a [(String, SpanRecord)], node: &str) -> Vec<&'a str> {
    spans
        .iter()
        .filter(|(n, _)| n == node)
        .map(|(_, s)| s.label.as_str())
        .collect()
}

/// One traced update against the root of a three-node chain produces
/// spans on the client, the leader, the follower, and the chained
/// follower — all sharing one `trace_id` and parent-linking into a
/// single tree rooted at the client's send span.
#[test]
fn traced_update_assembles_one_span_tree_across_three_nodes() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ldir = test_dir("trace-leader");
    let f1dir = test_dir("trace-f1");
    let f2dir = test_dir("trace-f2");

    let mut lopts = leader_options(2);
    lopts.trace_sample = 1;
    let server = Server::bind_with(
        "127.0.0.1:0",
        durable_service(&ldir, CheckpointPolicy::default()),
        lopts,
    )
    .unwrap();
    let mut f1opts = follower_options(fault_seed());
    f1opts.serve.trace_sample = 1;
    let f1 = Replica::start(
        "127.0.0.1:0",
        &server.local_addr().to_string(),
        durable_service(&f1dir, CheckpointPolicy::default()),
        f1opts,
    )
    .unwrap();
    let mut f2opts = follower_options(fault_seed() ^ 1);
    f2opts.serve.trace_sample = 1;
    let f2 = Replica::start(
        "127.0.0.1:0",
        &f1.local_addr().to_string(),
        durable_service(&f2dir, CheckpointPolicy::default()),
        f2opts,
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.request("alpha", &register_r()).unwrap().unwrap();
    // A live subscriber on the leader, so the publish hop traces too.
    let mut sub_client = Client::connect(server.local_addr()).unwrap();
    sub_client.subscribe("alpha", "r").unwrap().unwrap();

    // The client owns the root span; its context rides the wire.
    let tracer = DistTracer::new();
    tracer.configure("client", 1);
    let root_ctx = TraceCtx {
        trace_id: tracer.sampled_trace_id(),
        parent_span: 0,
    };
    {
        let span = tracer.span(root_ctx, "client.send");
        let wire = span.ctx().expect("sampled root span");
        client
            .request_traced("alpha", &update_r(&["a1", "a2"]), wire)
            .unwrap()
            .unwrap();
    }
    wait_converged_all(&ldir, &[&f1dir, &f2dir]);

    // Harvest every node's buffer; drains are destructive, so late spans
    // (the chained hop applies asynchronously) accumulate across polls.
    let tid = root_ctx.trace_id;
    let mut spans: Vec<(String, SpanRecord)> = tracer
        .drain()
        .spans
        .into_iter()
        .map(|s| ("client".to_owned(), s))
        .collect();
    let laddr = server.local_addr().to_string();
    let f1addr = f1.local_addr().to_string();
    let f2addr = f2.local_addr().to_string();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        for addr in [&laddr, &f1addr, &f2addr] {
            let snap = Client::connect(addr).unwrap().trace().unwrap();
            assert_eq!(&snap.node, addr, "nodes self-identify by address");
            spans.extend(
                snap.spans
                    .into_iter()
                    .filter(|s| s.trace_id == tid)
                    .map(|s| (addr.clone(), s)),
            );
        }
        let leader = labels_of(&spans, &laddr);
        let hop1 = labels_of(&spans, &f1addr);
        let hop2 = labels_of(&spans, &f2addr);
        if [
            "shard.queue",
            "session.dispatch",
            "wal.append",
            "wal.fsync",
            "repl.ship",
            "sub.publish",
        ]
        .iter()
        .all(|l| leader.contains(l))
            && hop1.contains(&"repl.apply")
            && hop1.contains(&"repl.ship")
            && hop2.contains(&"repl.apply")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "span harvest incomplete: leader {leader:?}, hop1 {hop1:?}, hop2 {hop2:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // One trace, one tree: exactly one root (the client's send), every
    // other span parent-linked to a harvested span, every parent chain
    // terminating at the root.
    for (_, s) in &spans {
        assert_eq!(s.trace_id, tid);
    }
    let roots: Vec<&(String, SpanRecord)> =
        spans.iter().filter(|(_, s)| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {roots:?}");
    assert_eq!(roots[0].0, "client");
    assert_eq!(roots[0].1.label, "client.send");
    let parent_of: BTreeMap<u64, u64> = spans
        .iter()
        .map(|(_, s)| (s.span_id, s.parent_span))
        .collect();
    assert_eq!(parent_of.len(), spans.len(), "span ids are unique");
    for (node, s) in &spans {
        let mut at = s.span_id;
        for _ in 0..=spans.len() {
            if at == roots[0].1.span_id {
                break;
            }
            at = *parent_of
                .get(&at)
                .unwrap_or_else(|| panic!("{node}/{} orphaned at {at}", s.label));
        }
        assert_eq!(
            at, roots[0].1.span_id,
            "{node}/{} reaches the root",
            s.label
        );
    }

    drop(client);
    drop(sub_client);
    f2.shutdown();
    f1.shutdown();
    server.shutdown();
    for d in [&ldir, &f1dir, &f2dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
