//! The closed-loop load generator: one thread per client connection,
//! each keeping a fixed window of requests in flight and sending the
//! next one only when a reply comes back.

use crate::model::{session_index, session_name, Kind, Op, Requests, Rng, SessionModel};
use crate::stack::Spec;
use compview_obs::TraceCtx;
use compview_relation::Instance;
use compview_serve::{Client, ServerMessage, WireResult};
use compview_session::sub::apply_event;
use compview_session::{DeltaEvent, SessionResponse};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Phase boundaries of a run.  Phase 0 (warm-up) is never recorded,
/// phase 1 is the untraced measurement, recorded in slices of `slice`
/// by send time, and phase 2 (traced runs only) tags a sample of
/// requests with a trace context.
#[derive(Clone, Copy)]
pub struct Phases {
    pub warm_end: Instant,
    pub measure_end: Instant,
    pub traced_end: Instant,
    pub slice: Duration,
}

impl Phases {
    /// Slices of the measurement phase.
    pub fn slices(&self) -> usize {
        let d = (self.measure_end - self.warm_end).as_nanos();
        d.div_ceil(self.slice.as_nanos()).max(1) as usize
    }

    /// The slice a request sent at `t` (in phase 1) belongs to.
    pub fn slice_of(&self, t: Instant) -> usize {
        let k = (t.saturating_duration_since(self.warm_end).as_nanos() / self.slice.as_nanos())
            as usize;
        k.min(self.slices() - 1)
    }

    fn of(&self, t: Instant) -> Option<u8> {
        if t < self.warm_end {
            Some(0)
        } else if t < self.measure_end {
            Some(1)
        } else if t < self.traced_end {
            Some(2)
        } else {
            None
        }
    }
}

/// Latencies of one phase, nanoseconds, by reply kind.
#[derive(Default)]
pub struct Lat {
    pub update: Vec<u64>,
    pub read: Vec<u64>,
    pub pool: Vec<u64>,
}

impl Lat {
    fn push(&mut self, kind: Kind, ns: u64) {
        match kind {
            Kind::Update => self.update.push(ns),
            Kind::Read => self.read.push(ns),
            Kind::Pool => self.pool.push(ns),
        }
    }

    pub fn absorb(&mut self, other: Lat) {
        self.update.extend(other.update);
        self.read.extend(other.read);
        self.pool.extend(other.pool);
    }
}

/// One subscribed stream per session: the image rebuilt from image 0
/// plus every delta, and when each event arrived.
pub struct SubStream {
    pub session: usize,
    pub image: Instance,
    /// `arrivals[k]`: when the event with sequence `k + 1` arrived.
    pub arrivals: Vec<Instant>,
}

/// Subscribed streams of one connection.
pub struct Subs {
    streams: Vec<SubStream>,
    /// Session index → position in `streams`.
    slot: Vec<Option<usize>>,
    pub errors: Vec<String>,
}

impl Subs {
    pub fn new(sessions: usize, images: Vec<(usize, Instance)>) -> Subs {
        let mut slot = vec![None; sessions];
        let streams = images
            .into_iter()
            .enumerate()
            .map(|(pos, (session, image))| {
                slot[session] = Some(pos);
                SubStream {
                    session,
                    image,
                    arrivals: Vec::new(),
                }
            })
            .collect();
        Subs {
            streams,
            slot,
            errors: Vec::new(),
        }
    }

    fn on_event(&mut self, session: &str, event: &DeltaEvent) {
        let at = Instant::now();
        let Some(pos) = session_index(session).and_then(|i| self.slot.get(i).copied().flatten())
        else {
            self.errors
                .push(format!("event for unknown session {session}"));
            return;
        };
        let stream = &mut self.streams[pos];
        if event.seq != stream.arrivals.len() as u64 + 1 {
            self.errors.push(format!(
                "{session}: event seq {} after {}",
                event.seq,
                stream.arrivals.len()
            ));
        }
        stream.image = apply_event(&stream.image, event);
        stream.arrivals.push(at);
    }

    pub fn received(&self) -> u64 {
        self.streams.iter().map(|s| s.arrivals.len() as u64).sum()
    }

    pub fn into_streams(self) -> Vec<SubStream> {
        self.streams
    }
}

/// A request in flight.
struct Pending {
    sent: Instant,
    op: Op,
    local: usize,
    masks: [u32; 2],
    phase: u8,
    trace: u64,
}

/// Everything one load connection observed.
pub struct ConnOut {
    /// Untraced measurement latencies, by slice.
    pub slices: Vec<Lat>,
    /// Per tagged request: trace id, kind, latency ns.
    pub traced: Vec<(u64, Kind, u64)>,
    /// Owned sessions: global index, every request sent (in order), and
    /// the send instant of every request that moved view 0.
    pub sessions: Vec<(usize, Vec<Op>, Vec<Instant>)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub subs: Option<Subs>,
}

fn check(spec: &Spec, p: &Pending, reply: &WireResult) -> Result<(), String> {
    let ok = match (p.op, reply) {
        (Op::Read(view), Ok(SessionResponse::State(image))) => {
            image == spec.shape.expected(view, p.masks)
        }
        (Op::Update { .. }, Ok(SessionResponse::Updated(_)))
        | (Op::Undo, Ok(SessionResponse::Undone))
        | (Op::Insert | Op::Remove, Ok(SessionResponse::PoolEdited(_))) => true,
        _ => false,
    };
    if ok {
        return Ok(());
    }
    let mut detail = format!("{:?} answered {reply:?}", p.op);
    detail.truncate(200);
    Err(detail)
}

/// Requests per connection the traced phase tags, spread evenly over it
/// (sized from the untraced phase's rate) so every node's span buffer
/// holds them all.
const TRACE_BUDGET: u64 = 5000;

/// Drive one load connection until the last phase ends, then collect the
/// replies still owed (and the events of its own subscriptions).
pub fn drive(
    client: &mut Client,
    conn: usize,
    spec: &Spec,
    reqs: &Requests,
    seed: u64,
    subs: Option<Subs>,
    phases: Phases,
) -> ConnOut {
    let window = spec.conns[conn].window;
    let owned: Vec<usize> = (0..spec.sessions)
        .filter(|&i| spec.owner(i) == conn)
        .collect();
    let mut models: Vec<SessionModel> = owned.iter().map(|&i| SessionModel::new(seed, i)).collect();
    let names: Vec<String> = owned.iter().map(|&i| session_name(i)).collect();
    let mut logs: Vec<Vec<Op>> = vec![Vec::new(); owned.len()];
    let mut sends: Vec<Vec<Instant>> = vec![Vec::new(); owned.len()];
    let mut pick = Rng::new(seed ^ 0xC0DE_0000 ^ conn as u64);
    let mut out = ConnOut {
        slices: (0..phases.slices()).map(|_| Lat::default()).collect(),
        traced: Vec::new(),
        sessions: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        subs,
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut sent = [0u64; 3];
    let mut tag_every = 0u64;
    let mut next_trace = (conn as u64 + 1) << 48;
    let mut sending = true;
    loop {
        while sending && inflight.len() < window {
            let now = Instant::now();
            let Some(phase) = phases.of(now) else {
                sending = false;
                break;
            };
            let local = pick.below(owned.len() as u64) as usize;
            let before = models[local].masks()[0];
            let every = spec.mix.pool_every;
            let op = if every > 0 && (out.attempted + 1).is_multiple_of(every) {
                models[local].edit_pool(&spec.mix, &spec.shape)
            } else {
                models[local].next(&spec.mix, &spec.shape)
            };
            let masks = models[local].masks();
            if phase == 2 && tag_every == 0 {
                tag_every = sent[1].div_ceil(TRACE_BUDGET).max(1);
            }
            let trace = if phase == 2 && sent[2].is_multiple_of(tag_every) {
                next_trace += 1;
                next_trace
            } else {
                0
            };
            let req = reqs.get(op);
            let result = if trace == 0 {
                client.send(&names[local], req)
            } else {
                let ctx = TraceCtx {
                    trace_id: trace,
                    parent_span: 0,
                };
                client.send_traced(&names[local], req, ctx)
            };
            out.attempted += 1;
            if let Err(e) = result {
                out.failed += 1;
                out.errors.push(format!("send: {e}"));
                sending = false;
                break;
            }
            sent[usize::from(phase)] += 1;
            logs[local].push(op);
            if masks[0] != before {
                sends[local].push(now);
            }
            inflight.push_back(Pending {
                sent: now,
                op,
                local,
                masks,
                phase,
                trace,
            });
        }
        if inflight.is_empty() {
            break;
        }
        match client.recv_message() {
            Ok(ServerMessage::Reply(reply)) => {
                let done = Instant::now();
                let p = inflight
                    .pop_front()
                    .expect("a reply answers a pending request");
                let ns = u64::try_from((done - p.sent).as_nanos()).unwrap_or(u64::MAX);
                if let Err(e) = check(spec, &p, &reply) {
                    out.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(format!("{}: {e}", names[p.local]));
                    }
                }
                if p.phase == 1 {
                    out.slices[phases.slice_of(p.sent)].push(p.op.kind(), ns);
                }
                if p.trace != 0 {
                    out.traced.push((p.trace, p.op.kind(), ns));
                }
            }
            Ok(ServerMessage::Event { session, event }) => match out.subs.as_mut() {
                Some(subs) => subs.on_event(&session, &event),
                None => out.errors.push(format!("unsolicited event for {session}")),
            },
            Err(e) => {
                // Everything still in flight is lost with the transport.
                out.failed += inflight.len() as u64;
                out.errors.push(format!("receive: {e}"));
                break;
            }
        }
    }
    // Events are written before the replies of their batch, so the ones
    // still owed to this connection's own subscriptions are already here.
    if let Some(subs) = out.subs.as_mut() {
        let expected: u64 = sends.iter().map(|s| s.len() as u64).sum();
        while subs.received() < expected {
            match client.next_event() {
                Ok((session, event)) => subs.on_event(&session, &event),
                Err(e) => {
                    subs.errors.push(format!("event stream: {e}"));
                    break;
                }
            }
        }
    }
    out.sessions = owned
        .into_iter()
        .zip(logs)
        .zip(sends)
        .map(|((i, log), s)| (i, log, s))
        .collect();
    out
}

/// A passive subscriber: record every event until the connection closes
/// (`stop` tells an expected close from a failure).
pub fn observe(
    client: &mut Client,
    mut subs: Subs,
    received: &AtomicU64,
    stop: &AtomicBool,
) -> Subs {
    loop {
        match client.next_event() {
            Ok((session, event)) => {
                subs.on_event(&session, &event);
                received.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                if !stop.load(Ordering::SeqCst) {
                    subs.errors.push(format!("event stream: {e}"));
                }
                return subs;
            }
        }
    }
}

/// Read every view of every owned session once, one request at a time:
/// each is the view's first read, so each computes its endo map.
pub fn cold_reads(
    client: &mut Client,
    conn: usize,
    spec: &Spec,
    reqs: &Requests,
) -> (Vec<u64>, Vec<String>) {
    let mut lat = Vec::new();
    let mut errors = Vec::new();
    for i in (0..spec.sessions).filter(|&i| spec.owner(i) == conn) {
        let name = session_name(i);
        for view in 0..spec.shape.views.len() as u8 {
            let t = Instant::now();
            let reply = client.request(&name, reqs.get(Op::Read(view)));
            lat.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match reply {
                Ok(Ok(SessionResponse::State(image)))
                    if &image == spec.shape.expected(view, [0, 0]) => {}
                other => errors.push(format!("cold read {name}/{view}: {other:?}")),
            }
        }
    }
    (lat, errors)
}

/// Wait until `received` reaches `expected`, or `limit` passes.
pub fn await_count(received: &AtomicU64, expected: u64, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while received.load(Ordering::SeqCst) < expected {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}
