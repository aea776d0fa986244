//! Per-layer numbers for the traced run.
//!
//! Two sources, both outside the program:
//! * the system's own `Trace` drain: span self times along the blocking
//!   path of each tagged request, and
//! * an in-process twin: the benchmark calls each layer's public
//!   functions (`Session::open`, `Session::serve`, `flush_wal`,
//!   `apply_replicated`, the wire codec) on sessions of the workload's
//!   schema, fed the workload's own generated request stream, and times
//!   every call.

use crate::model::{Kind, Op, Requests, SessionModel};
use crate::stack::{register, Spec};
use crate::stats::median;
use compview_obs::{Registry, SpanRecord};
use compview_serve::proto::{
    decode_request_payload, decode_result_payload, encode_request_payload, encode_result_payload,
};
use compview_session::{FsStore, MemStore, Session, SessionRequest, SyncPolicy, WalShipment};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Mean of a histogram on a registry, nanoseconds (0 when empty).
fn hist_mean(registry: &Registry, name: &str) -> f64 {
    registry
        .snapshot()
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| {
            if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            }
        })
}

/// Per-call costs measured on the twin, nanoseconds (medians unless
/// stated).
pub struct TwinCosts {
    pub open_ns: f64,
    pub update_ns: f64,
    pub read_ns: f64,
    pub read_miss_ns: f64,
    pub pool_edit_ns: f64,
    /// Mean of the twin's `wal.append_ns` histogram (`MemStore` log).
    pub append_ns: f64,
    pub fsync_ns: f64,
    /// Mean of the twin's `session.sub.publish_ns` (one subscriber).
    pub publish_ns: f64,
    pub apply_ns: f64,
    /// One request payload plus one result payload.
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Requests fed to the twin.
    pub fed: usize,
}

fn open_plain(spec: &Spec, registry: &Registry) -> Session<crate::stack::Family> {
    let s = &spec.shape;
    Session::open_observed(
        s.family(),
        s.schema(),
        &s.pools,
        s.base(),
        s.config(),
        registry,
    )
    .expect("base state is in the space")
}

fn open_durable(
    spec: &Spec,
    store: Box<dyn compview_session::LogStore>,
    registry: &Registry,
) -> Session<crate::stack::Family> {
    let s = &spec.shape;
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
    .expect("base state is in the space")
}

/// Apply every shipment `from` produced to `to`, returning the time of
/// each record apply.
fn ship(
    from: &mut Session<crate::stack::Family>,
    to: &mut Session<crate::stack::Family>,
    times: &mut Vec<u64>,
) {
    for shipment in from.take_wal_shipments() {
        if let WalShipment::Record { bytes, .. } = shipment {
            let t = Instant::now();
            to.apply_replicated(&bytes).expect("twin follower applies");
            times.push(ns(t.elapsed()));
        }
    }
}

/// Feed the workload's generated stream (session 0's) to the twins for
/// about `budget`, timing every layer call.
pub fn twin(spec: &Spec, seed: u64, dir: &Path, budget: Duration) -> TwinCosts {
    let shape = &spec.shape;
    let reqs = Requests::new(shape);
    let mut opens: Vec<u64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(open_plain(spec, &Registry::disabled()));
            ns(t.elapsed())
        })
        .collect();

    // Twin A: a plain session, the translate and cache path alone.
    let mut a = open_plain(spec, &Registry::new());
    register(&spec.shape, &mut a);
    // Twin B: the same stream through a MemStore log with the
    // replication tap on and one subscriber; twin C applies its
    // shipments the way a follower does.
    let reg_b = Registry::new();
    let mut b = open_durable(spec, Box::new(MemStore::new().0), &reg_b);
    let mut c = open_durable(spec, Box::new(MemStore::new().0), &Registry::disabled());
    b.set_repl_tap(true);
    register(&spec.shape, &mut b);
    b.serve(SessionRequest::Subscribe {
        view: shape.views[0].0.clone(),
    })
    .expect("subscribe twin");
    let mut applies = Vec::new();
    ship(&mut b, &mut c, &mut applies);
    applies.clear();

    let mut model = SessionModel::new(seed, 0);
    let (mut updates, mut reads, mut pools) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs: Vec<(SessionRequest, compview_session::SessionResponse)> = Vec::new();
    let deadline = Instant::now() + budget;
    let mut fed = 0;
    while Instant::now() < deadline && fed < 50_000 {
        let every = spec.mix.pool_every;
        let op = if every > 0 && (fed as u64 + 1).is_multiple_of(every) {
            model.edit_pool(&spec.mix, shape)
        } else {
            model.next(&spec.mix, shape)
        };
        let req = reqs.get(op).clone();
        let t = Instant::now();
        let resp = a
            .serve(req.clone())
            .expect("twin serves the generated stream");
        let dt = ns(t.elapsed());
        match op.kind() {
            Kind::Update => updates.push(dt),
            Kind::Read => reads.push(dt),
            Kind::Pool => pools.push(dt),
        }
        if pairs.len() < 2048 {
            pairs.push((req.clone(), resp));
        }
        b.serve(req).expect("twin serves the generated stream");
        b.take_events();
        ship(&mut b, &mut c, &mut applies);
        fed += 1;
    }
    // A workload without pool edits still gets the layer priced: three
    // insert/remove pairs on its own space.
    if pools.is_empty() {
        for _ in 0..3 {
            for op in [Op::Insert, Op::Remove] {
                let t = Instant::now();
                a.serve(reqs.get(op).clone()).expect("pool edit");
                pools.push(ns(t.elapsed()));
            }
        }
    }
    let view0 = reqs.get(Op::Read(0)).clone();
    let mut misses: Vec<u64> = (0..30)
        .map(|_| {
            a.invalidate_cache();
            let t = Instant::now();
            a.serve(view0.clone()).expect("read");
            ns(t.elapsed())
        })
        .collect();

    // Group-commit fsync on a real file: 16 updates, then one flush.
    let mut d = open_durable(
        spec,
        Box::new(FsStore::open(dir.join("twin.wal")).expect("open twin WAL")),
        &Registry::disabled(),
    );
    register(&spec.shape, &mut d);
    let mut fsync_model = SessionModel::new(seed, 1);
    let writes_only = crate::model::Mix {
        read_ppm: 0,
        pool_every: 0,
        read_views: spec.mix.read_views,
        update_views: spec.mix.update_views,
        max_depth: spec.mix.max_depth,
    };
    let mut fsyncs: Vec<u64> = (0..40)
        .map(|_| {
            d.set_deferred_sync(true);
            for _ in 0..16 {
                let op = fsync_model.next(&writes_only, shape);
                d.serve(reqs.get(op).clone()).expect("twin update");
            }
            d.set_deferred_sync(false);
            let t = Instant::now();
            d.flush_wal().expect("fsync");
            ns(t.elapsed())
        })
        .collect();

    // The wire codec on the stream's own requests and responses.
    let name = crate::model::session_name(0);
    let t = Instant::now();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(req, resp)| {
            (
                encode_request_payload(&name, req),
                encode_result_payload(&Ok(resp.clone())),
            )
        })
        .collect();
    let encode_ns = ns(t.elapsed()) as f64 / pairs.len().max(1) as f64;
    let t = Instant::now();
    for (req, res) in &encoded {
        black_box(decode_request_payload(req).expect("decode request"));
        let _ = black_box(decode_result_payload(res).expect("decode result"));
    }
    let decode_ns = ns(t.elapsed()) as f64 / encoded.len().max(1) as f64;

    TwinCosts {
        open_ns: median(&mut opens),
        update_ns: median(&mut updates),
        read_ns: median(&mut reads),
        read_miss_ns: median(&mut misses),
        pool_edit_ns: median(&mut pools),
        append_ns: hist_mean(&reg_b, "wal.append_ns"),
        fsync_ns: median(&mut fsyncs),
        publish_ns: hist_mean(&reg_b, "session.sub.publish_ns"),
        apply_ns: median(&mut applies),
        encode_ns,
        decode_ns,
        fed,
    }
}

/// Self time of every span in one trace, by label: its duration minus
/// the part of its interval that its children cover.
fn self_times(spans: &[&SpanRecord]) -> Vec<(String, u64)> {
    spans
        .iter()
        .map(|s| {
            let end = s.start_ns + s.dur_ns;
            let covered: u64 = spans
                .iter()
                .filter(|c| c.parent_span == s.span_id)
                .filter(|c| c.start_ns >= s.start_ns && c.start_ns + c.dur_ns <= end)
                .map(|c| c.dur_ns)
                .sum();
            (s.label.clone(), s.dur_ns.saturating_sub(covered))
        })
        .collect()
}

/// Median self time per label over the tagged requests of one kind, and
/// the median end-to-end latency of those requests.
pub struct Attribution {
    pub e2e_ns: f64,
    pub requests: usize,
    /// `(label, median self time ns, requests that had the span)`.
    pub layers: Vec<(String, f64, usize)>,
}

/// The leader-side labels on the blocking path of a reply, in path order.
pub const PATH_LABELS: [&str; 4] = ["shard.queue", "session.dispatch", "wal.append", "wal.fsync"];

pub fn attribute(traced: &[(u64, Kind, u64)], kind: Kind, spans: &[SpanRecord]) -> Attribution {
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut e2e = Vec::new();
    let mut per_label: HashMap<&str, Vec<u64>> = HashMap::new();
    for (trace, k, lat) in traced {
        if *k != kind {
            continue;
        }
        e2e.push(*lat);
        let Some(trace_spans) = by_trace.get(trace) else {
            continue;
        };
        for (label, t) in self_times(trace_spans) {
            if let Some(l) = PATH_LABELS.iter().find(|l| **l == label) {
                per_label.entry(l).or_default().push(t);
            }
        }
    }
    let layers = PATH_LABELS
        .iter()
        .filter_map(|l| {
            per_label.get_mut(l).map(|v| {
                let n = v.len();
                (l.to_string(), median(v), n)
            })
        })
        .collect();
    Attribution {
        requests: e2e.len(),
        e2e_ns: median(&mut e2e),
        layers,
    }
}

/// Median gap from the leader's `repl.ship` instant to the follower's
/// `repl.apply` start, and the median `repl.apply` duration, over the
/// traces that carry both.
pub fn ship_wait(spans: &[SpanRecord]) -> (f64, f64, usize) {
    let mut ships: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.label == "repl.ship") {
        ships.insert(s.span_id, s.start_ns);
    }
    let mut waits = Vec::new();
    let mut applies = Vec::new();
    for s in spans.iter().filter(|s| s.label == "repl.apply") {
        if let Some(at) = ships.get(&s.parent_span) {
            waits.push(s.start_ns.saturating_sub(*at));
            applies.push(s.dur_ns);
        }
    }
    let n = waits.len();
    (median(&mut waits), median(&mut applies), n)
}
