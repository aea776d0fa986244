//! The three workloads and the in-process service stack each one runs
//! against: leader [`Server`], optional follower [`Replica`], and the
//! sessions behind them.

use crate::model::{session_name, Mix, Shape};
use compview_core::SubschemaComponents;
use compview_obs::Registry;
use compview_serve::{Client, Replica, ReplicaOptions, ServeOptions, Server};
use compview_session::{FsStore, LogStore, MemStore, Service, Session, SessionRequest, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

pub type Family = SubschemaComponents;

/// Records between fsyncs on `Store::Fs` logs.  Under
/// `SyncPolicy::Always` every batch waits for an fsync, and a virtual
/// machine's shared disk made latency and throughput swing 30–50%
/// between runs, which no gate can tell from a regression.  One fsync
/// per 4096 records keeps the real file path, the group-commit flush and
/// an occasional fsync, while the gated figures measure the CPU and
/// system-call cost of the store; the traced run prices one fsync on
/// its own (`wal.fsync_ns`).
pub const FS_SYNC_EVERY: u64 = 4096;

/// Where a workload's sessions keep their write-ahead logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `FsStore` under `SyncPolicy::EveryN(FS_SYNC_EVERY)`, group
    /// committed per batch.
    Fs,
    /// `MemStore` under `SyncPolicy::Always`: durable code path, no fsync.
    Mem,
    /// Sessions recovered from an in-memory (`MemStore`) snapshot log,
    /// as after a restart: views registered, endo-map caches empty, so
    /// each view's first read computes its map.
    Recovered,
}

impl Store {
    pub fn label(self) -> &'static str {
        match self {
            Store::Fs => "FsStore+SyncPolicy::EveryN(4096) (group commit)",
            Store::Mem => "MemStore+SyncPolicy::Always (no fsync)",
            Store::Recovered => {
                "recovered from a MemStore snapshot log (cold endo caches, no fsync)"
            }
        }
    }
}

/// One client connection of the load generator.
pub struct ConnSpec {
    /// Requests kept in flight (the closed loop's pipeline window); 0
    /// for a passive subscriber that sends nothing after subscribing.
    pub window: usize,
    /// Subscribe to view 0 of every session this connection watches.
    pub subscribe: bool,
    /// Connect to the follower instead of the leader.
    pub follower: bool,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub sessions: usize,
    pub store: Store,
    pub shards: usize,
    pub follower: bool,
    /// Load connections first; sessions are dealt to the connections
    /// with a non-zero window, round-robin by index.
    pub conns: Vec<ConnSpec>,
    pub mix: Mix,
    /// How many times a run builds the stack (setup time is their
    /// median; the last build is the one measured).
    pub setups: usize,
    /// The compacted log every `Store::Recovered` session starts from.
    snapshot_log: OnceLock<Vec<u8>>,
    /// Read every view of every session once, one at a time, before the
    /// timed phase (the endo-map cache misses).
    pub cold_reads: bool,
}

pub const WORKLOADS: [&str; 3] = ["durable_write", "replicated_mem", "many_sessions"];

pub fn spec(name: &str) -> Option<Spec> {
    let small = || Shape::new([5, 3], &[("r", 0b01), ("s", 0b10)]);
    Some(match name {
        "durable_write" => Spec {
            name: "durable_write",
            why: "group commit and fsync dominate; endo cache always hits; nothing replicated",
            shape: small(),
            sessions: 8,
            store: Store::Fs,
            shards: 2,
            follower: false,
            conns: vec![
                ConnSpec { window: 16, subscribe: false, follower: false },
                ConnSpec { window: 16, subscribe: false, follower: false },
            ],
            mix: Mix {
                read_ppm: 250_000,
                pool_every: 0,
                read_views: &[0, 1],
                update_views: &[0, 1],
                max_depth: 4,
            },
            setups: 11,
            cold_reads: false,
            snapshot_log: OnceLock::new(),
        },
        "replicated_mem" => Spec {
            name: "replicated_mem",
            why: "ack, follower-visible and subscriber paths on CPU only: codec, dispatch, translate, publish, ship, apply",
            shape: small(),
            sessions: 8,
            store: Store::Mem,
            shards: 2,
            follower: true,
            conns: vec![
                ConnSpec { window: 16, subscribe: true, follower: false },
                ConnSpec { window: 0, subscribe: true, follower: true },
            ],
            mix: Mix {
                read_ppm: 200_000,
                pool_every: 0,
                read_views: &[0, 1],
                update_views: &[0],
                max_depth: 4,
            },
            setups: 11,
            cold_reads: false,
            snapshot_log: OnceLock::new(),
        },
        "many_sessions" => Spec {
            name: "many_sessions",
            why: "state-space enumeration, pool edits and endo-map compute over a working set far beyond L2",
            shape: Shape::new([5, 4], &[("r", 0b01), ("s", 0b10), ("rs", 0b11)]),
            sessions: 192,
            store: Store::Recovered,
            shards: 2,
            follower: false,
            conns: vec![
                ConnSpec { window: 8, subscribe: false, follower: false },
                ConnSpec { window: 8, subscribe: false, follower: false },
            ],
            mix: Mix {
                read_ppm: 850_000,
                pool_every: 5000,
                read_views: &[0, 1, 2],
                update_views: &[0, 1],
                max_depth: 4,
            },
            setups: 3,
            cold_reads: true,
            snapshot_log: OnceLock::new(),
        },
        _ => return None,
    })
}

impl Spec {
    /// Connections that send load.
    pub fn load_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.window > 0).count()
    }

    /// The load connection that owns session `i`.
    pub fn owner(&self, i: usize) -> usize {
        i % self.load_conns()
    }

    /// Sessions opened per build (leader plus follower mirrors).
    pub fn sessions_opened(&self) -> usize {
        self.sessions * if self.follower { 2 } else { 1 }
    }

    fn open(&self, dir: &Path, name: &str, views: bool, registry: &Registry) -> Session<Family> {
        let s = &self.shape;
        let durable = |store: Box<dyn LogStore>| {
            Session::open_durable_observed(
                s.family(),
                s.schema(),
                &s.pools,
                s.base(),
                s.config(),
                store,
                SyncPolicy::Always,
                registry,
            )
        };
        let mut session = match self.store {
            Store::Recovered => {
                let log = self.snapshot_log.get_or_init(|| {
                    let (store, bytes) = MemStore::new();
                    let mut template = durable(Box::new(store)).expect("template session");
                    register(s, &mut template);
                    template.checkpoint().expect("checkpoint template");
                    let log = bytes.lock().expect("template log").clone();
                    log
                });
                let store = Box::new(MemStore::from_bytes(log.clone()));
                let (session, _) = Session::recover_observed(
                    s.family(),
                    s.schema(),
                    store,
                    SyncPolicy::Always,
                    registry,
                )
                .expect("recover the snapshot log");
                return session;
            }
            Store::Mem => durable(Box::new(MemStore::new().0)),
            Store::Fs => Session::open_durable_observed(
                s.family(),
                s.schema(),
                &s.pools,
                s.base(),
                s.config(),
                Box::new(FsStore::open(dir.join(format!("{name}.wal"))).expect("open WAL file")),
                SyncPolicy::EveryN(FS_SYNC_EVERY),
                registry,
            ),
        }
        .expect("base state is in the space");
        if views {
            register(s, &mut session);
        }
        session
    }

    /// The leader's service: every session opened, views registered.
    pub fn leader_service(&self, dir: &Path) -> Service<Family> {
        self.service(dir, true)
    }

    fn service(&self, dir: &Path, views: bool) -> Service<Family> {
        let mut svc = Service::new();
        for i in 0..self.sessions {
            let name = session_name(i);
            let session = self.open(dir, &name, views, svc.registry());
            svc.add_session(name, session).expect("fresh name");
        }
        svc
    }

    /// The follower's service: the same sessions as first opened, no
    /// views — the view registrations arrive by replication.
    fn follower_service(&self, dir: &Path) -> Service<Family> {
        self.service(dir, false)
    }
}

/// Register every view of the shape (each registration computes and
/// caches the view's and its complement's endo maps).
pub fn register(shape: &Shape, session: &mut Session<Family>) {
    for (view, mask) in &shape.views {
        session
            .serve(SessionRequest::RegisterView {
                name: view.clone(),
                mask: *mask,
            })
            .expect("register view");
    }
}

/// One built stack plus its connected load clients.
pub struct Stack {
    pub leader: Server<Family>,
    pub follower: Option<Replica<Family>>,
    /// One client per [`Spec::conns`] entry, subscribed as specified.
    pub clients: Vec<Client>,
    /// Per connection: the `(session, image at sequence 0)` of each
    /// subscription it opened.
    pub images: Vec<Vec<(usize, compview_relation::Instance)>>,
}

impl Stack {
    /// Build services, bind the servers, sync the follower, connect and
    /// subscribe the clients: everything before the first timed request.
    pub fn build(spec: &Spec, dir: &Path, trace_sample: u64) -> Stack {
        let serve = ServeOptions {
            shards: spec.shards,
            trace_sample,
            ..ServeOptions::default()
        };
        let leader_dir = dir.join("leader");
        std::fs::create_dir_all(&leader_dir).expect("create leader dir");
        let leader = Server::bind_with("127.0.0.1:0", spec.leader_service(&leader_dir), serve)
            .expect("bind leader");
        let follower = spec.follower.then(|| {
            let options = ReplicaOptions {
                serve: ServeOptions {
                    shards: 1,
                    trace_sample,
                    ..ServeOptions::default()
                },
                retry_base: Duration::from_millis(2),
                retry_max: Duration::from_millis(50),
                read_timeout: Duration::from_secs(5),
                connect_attempts: 50,
                seed: 0x5EED,
                ..ReplicaOptions::default()
            };
            let follower_dir = dir.join("follower");
            std::fs::create_dir_all(&follower_dir).expect("create follower dir");
            let addr = leader.local_addr().to_string();
            Replica::start(
                "127.0.0.1:0",
                &addr,
                spec.follower_service(&follower_dir),
                options,
            )
            .expect("follower syncs")
        });
        let mut clients = Vec::new();
        let mut images = Vec::new();
        for conn in &spec.conns {
            let addr = match (&follower, conn.follower) {
                (Some(f), true) => f.local_addr(),
                _ => leader.local_addr(),
            };
            let mut client = Client::connect(addr).expect("connect");
            let mut subs = Vec::new();
            if conn.subscribe {
                let view = &spec.shape.views[0].0;
                for i in 0..spec.sessions {
                    // A follower subscription must wait until the view
                    // registration has been applied there.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let image = loop {
                        match client.subscribe(&session_name(i), view).expect("subscribe") {
                            Ok((_, image)) => break image,
                            Err(e) if Instant::now() > deadline => panic!("subscribe: {e}"),
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                    };
                    subs.push((i, image));
                }
            }
            clients.push(client);
            images.push(subs);
        }
        Stack {
            leader,
            follower,
            clients,
            images,
        }
    }

    /// Close the clients, stop the follower, stop the leader, and hand
    /// back the leader's service with every session's final state.
    ///
    /// `None` when the shutdown has not finished within `limit`.  A
    /// dispatcher that re-checks its stop flag just before the shutdown
    /// sets it, and starts waiting just after the shutdown's wake-up, is
    /// never woken, and `Server::shutdown` then waits for it forever.
    /// Letting every dispatcher go idle first makes that rare; the limit
    /// turns the rest into an abandoned (idle) thread instead of a hung
    /// run.
    pub fn teardown(self, limit: Duration) -> Option<Service<Family>> {
        let Stack {
            leader,
            follower,
            clients,
            ..
        } = self;
        drop(clients);
        std::thread::sleep(QUIESCE);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            if let Some(f) = follower {
                drop(f.shutdown());
                std::thread::sleep(QUIESCE);
            }
            let _ = tx.send(leader.shutdown());
        });
        rx.recv_timeout(limit).ok()
    }
}

/// How long a stack is left idle before it is shut down, so that every
/// dispatcher has handled the closed connections and is waiting.
const QUIESCE: Duration = Duration::from_millis(20);

/// Resident set size of this process, KiB (`/proc/self/statm`).
pub fn rss_kb() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    pages * 4
}

/// A scratch directory for one build's logs, inside the working tree.
pub fn build_dir(root: &Path, build: usize) -> PathBuf {
    let dir = root.join(format!("build{build}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
