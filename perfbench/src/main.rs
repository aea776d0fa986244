//! `perfbench`: the end-to-end and per-layer benchmark of the compview
//! service stack.
//!
//! ```text
//! perfbench --workload <durable_write|replicated_mem|many_sessions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives an in-process leader `Server` (and, where the
//! workload has one, a follower `Replica`) through real TCP clients with
//! closed-loop, fixed-window pipelines, checks every reply and the final
//! state of every session against an in-process shadow service, and
//! prints a report followed by one JSON result line.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same traffic
//! half untraced, half with sampled trace contexts, and reports the
//! per-layer metrics.  See `README.md` next to this file.

mod layers;
mod load;
mod model;
mod stack;
mod stats;

use compview_obs::{MetricsSnapshot, SpanRecord};
use compview_serve::Client;
use compview_session::wal::encode_result;
use compview_session::{Service, SessionResponse};
use load::{ConnOut, Lat, Phases, SubStream, Subs};
use model::{session_name, Kind, Op, Requests};
use stack::{Family, Spec, Stack};
use stats::{median, median_f64, metric, sliced, Metric};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a stack's shutdown may take before it is abandoned.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(5);

/// What the run is doing, for the watchdog's message.
static STAGE: Mutex<&str> = Mutex::new("start");

fn stage(name: &'static str) {
    if let Ok(mut s) = STAGE.lock() {
        *s = name;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <durable_write|replicated_mem|many_sessions> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics of the result line (`--trace 0`): the ones
/// every workload produces and a shared host can hold steady.  The
/// workload-specific and tail figures are in the report above it.
const RESULT_E2E: [&str; 5] = [
    "update_ack_p50_us",
    "read_p50_us",
    "throughput_ops_s",
    "setup_s",
    "rss_kb_per_session",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = stack::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            stack::WORKLOADS
        );
        std::process::exit(2);
    };
    // A hung transport must not hang the run: give up well inside the
    // time a run is allowed.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        let stage = STAGE.lock().map_or("unknown", |s| *s);
        eprintln!("perfbench: run exceeded 170 s in stage {stage:?}, giving up");
        std::process::exit(3);
    });
    let root =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", spec.name, std::process::id()));
    let line = run(&spec, &args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    println!("{line}");
}

/// A metrics snapshot of one node, read by name.
struct Snap(MetricsSnapshot);

impl Snap {
    fn counter(&self, name: &str) -> u64 {
        let c = self.0.counters.iter().find(|(n, _)| n == name);
        c.or_else(|| self.0.gauges.iter().find(|(n, _)| n == name))
            .map_or(0, |(_, v)| *v)
    }

    /// `(count, sum)` of a histogram.
    fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, h)| (h.count, h.sum))
    }
}

/// Counter and histogram deltas between two snapshots of one node.
struct Delta<'a>(&'a Snap, &'a Snap);

impl Delta<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.1.counter(name).saturating_sub(self.0.counter(name))
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        let (c0, s0) = self.0.hist(name);
        let (c1, s1) = self.1.hist(name);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    fn hist_mean(&self, name: &str) -> f64 {
        let (c, s) = self.hist(name);
        ratio(s as f64, c as f64)
    }
}

fn metrics_of(client: &mut Client) -> Snap {
    Snap(client.metrics().expect("metrics probe"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `arrivals[k] - sends[k]` for every event whose change was sent in the
/// untraced measurement phase, nanoseconds, by slice.
fn event_latencies(
    streams: &[SubStream],
    sends: &[Vec<Instant>],
    phases: &Phases,
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); phases.slices()];
    for s in streams {
        for (sent, arrived) in sends[s.session].iter().zip(&s.arrivals) {
            if *sent >= phases.warm_end && *sent < phases.measure_end {
                let ns = u64::try_from((*arrived - *sent).as_nanos()).unwrap_or(u64::MAX);
                out[phases.slice_of(*sent)].push(ns);
            }
        }
    }
    out
}

/// Every view of every session, read over `client`, as result bytes.
fn final_reads(client: &mut Client, spec: &Spec, reqs: &Requests) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..spec.sessions {
        for view in 0..spec.shape.views.len() as u8 {
            let bytes = match client.request(&session_name(i), reqs.get(Op::Read(view))) {
                Ok(res) => encode_result(&res),
                Err(e) => format!("transport: {e}").into_bytes(),
            };
            out.push(bytes);
        }
    }
    out
}

/// Replay every session's sent stream into the shadow service in
/// session-interleaved batches (per-session order kept).  Returns how
/// many replayed requests the shadow rejected.
fn replay(shadow: &mut Service<Family>, spec: &Spec, reqs: &Requests, logs: &[Vec<Op>]) -> u64 {
    let names: Vec<String> = (0..spec.sessions).map(session_name).collect();
    for name in &names {
        if let Some(s) = shadow.session_mut(name) {
            s.set_repl_tap(false);
        }
    }
    let mut rejected = 0;
    let mut pos = vec![0usize; spec.sessions];
    loop {
        let mut batch = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let end = (pos[i] + 512).min(log.len());
            for op in &log[pos[i]..end] {
                batch.push((names[i].clone(), reqs.get(*op).clone()));
            }
            pos[i] = end;
        }
        if batch.is_empty() {
            break;
        }
        rejected += shadow.dispatch(batch).iter().filter(|r| r.is_err()).count() as u64;
        shadow.drain_events();
    }
    rejected
}

/// L1d/L2/L3 sizes of cpu0, as the kernel reports them.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind != "Instruction" {
            parts.push(format!("L{level}={size}"));
        }
    }
    if parts.is_empty() {
        "unknown".to_owned()
    } else {
        parts.join(" ")
    }
}

fn print_metric(m: &Metric) {
    println!(
        "metric {:<24} {:>14.3} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

/// What the measured build's load produced, merged over connections.
struct Observed {
    slices: Vec<Lat>,
    traced: Vec<(u64, Kind, u64)>,
    logs: Vec<Vec<Op>>,
    sends: Vec<Vec<Instant>>,
    leader_streams: Vec<SubStream>,
    follower_streams: Vec<SubStream>,
}

fn run(spec: &Spec, args: &Args, root: &Path) -> String {
    let reqs = Requests::new(&spec.shape);
    let trace_sample = u64::from(args.trace);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", spec.why);

    // Set-up, several times; the first build's service becomes the shadow
    // the final state is checked against, the last build is measured.
    let mut setup_s = Vec::new();
    let mut rss_per_session = 0.0;
    let mut shadow = None;
    let mut built = None;
    let mut hung_shutdowns = 0;
    for b in 0..spec.setups {
        stage("set-up");
        let dir = stack::build_dir(root, b);
        let rss0 = stack::rss_kb();
        let t = Instant::now();
        let st = Stack::build(spec, &dir, trace_sample);
        setup_s.push(t.elapsed().as_secs_f64());
        if b == 0 {
            rss_per_session =
                stack::rss_kb().saturating_sub(rss0) as f64 / spec.sessions_opened() as f64;
        }
        if b + 1 < spec.setups {
            stage("set-up teardown");
            match st.teardown(SHUTDOWN_LIMIT) {
                Some(svc) if b == 0 => shadow = Some(svc),
                Some(_) => {}
                None => hung_shutdowns += 1,
            }
        } else {
            built = Some(st);
        }
    }
    // The shadow starts as the first build's sessions did; if that build
    // could not be shut down, open the same sessions afresh.
    let mut shadow =
        shadow.unwrap_or_else(|| spec.leader_service(&stack::build_dir(root, spec.setups)));
    let mut st = built.expect("a measured build");
    let rss_ready = stack::rss_kb();

    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut admin = Client::connect(st.leader.local_addr()).expect("admin connection");
    let mut fadmin = st
        .follower
        .as_ref()
        .map(|f| Client::connect(f.local_addr()).expect("follower admin connection"));
    let mut clients = std::mem::take(&mut st.clients);
    let images = std::mem::take(&mut st.images);

    // Cold reads: every view's first read, one at a time per connection.
    let mut cold = Vec::new();
    if spec.cold_reads {
        stage("cold reads");
        let results: Vec<(Vec<u64>, Vec<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .filter(|(c, _)| spec.conns[*c].window > 0)
                .map(|(c, client)| {
                    let reqs = &reqs;
                    s.spawn(move || load::cold_reads(client, c, spec, reqs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cold-read thread"))
                .collect()
        });
        for (lat, errs) in results {
            attempted += lat.len() as u64;
            failed += errs.len() as u64;
            cold.extend(lat);
            errors.extend(errs);
        }
    }
    let rss_warm = stack::rss_kb();
    let m0 = metrics_of(&mut admin);
    let f0 = fadmin.as_mut().map(metrics_of);

    let warm_end = Instant::now() + Duration::from_secs(1);
    let (measure, traced) = if args.trace {
        let half = Duration::from_millis(args.seconds * 500);
        (half, half)
    } else {
        (Duration::from_secs(args.seconds), Duration::ZERO)
    };
    let phases = Phases {
        warm_end,
        measure_end: warm_end + measure,
        traced_end: warm_end + measure + traced,
        slice: Duration::from_secs(1),
    };
    let received = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut lag_max = 0u64;

    let (outs, observed, leader_reads, follower_reads, m1, f1, spans) = std::thread::scope(|s| {
        let mut loads = Vec::new();
        let mut observers = Vec::new();
        for (c, (client, subs)) in clients.iter_mut().zip(images).enumerate() {
            let subs = spec.conns[c]
                .subscribe
                .then(|| Subs::new(spec.sessions, subs));
            if spec.conns[c].window > 0 {
                let reqs = &reqs;
                let seed = args.seed;
                loads.push(s.spawn(move || load::drive(client, c, spec, reqs, seed, subs, phases)));
            } else {
                let (received, stop) = (&received, &stop);
                let subs = subs.expect("a passive connection subscribes");
                observers.push(s.spawn(move || load::observe(client, subs, received, stop)));
            }
        }
        // The traced run samples the follower's replication lag while
        // the load runs.
        while args.trace && !loads.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(200));
            if let Some(f) = fadmin.as_mut() {
                lag_max = lag_max.max(metrics_of(f).counter("repl.lag_records"));
            }
        }
        stage("load");
        let outs: Vec<ConnOut> = loads
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        let expected: u64 = outs
            .iter()
            .flat_map(|o| &o.sessions)
            .map(|(_, _, sends)| sends.len() as u64)
            .sum();
        stage("follower events");
        if !observers.is_empty() && !load::await_count(&received, expected, Duration::from_secs(20))
        {
            errors.push(format!(
                "follower delivered {} of {expected} events",
                received.load(Ordering::SeqCst)
            ));
        }
        stage("final reads");
        let leader_reads = final_reads(&mut admin, spec, &reqs);
        let follower_reads = fadmin.as_mut().map(|f| final_reads(f, spec, &reqs));
        let m1 = metrics_of(&mut admin);
        let f1 = fadmin.as_mut().map(metrics_of);
        let mut spans: Vec<SpanRecord> = Vec::new();
        if args.trace {
            spans.extend(admin.trace().expect("leader trace drain").spans);
            if let Some(f) = fadmin.as_mut() {
                spans.extend(f.trace().expect("follower trace drain").spans);
            }
        }
        stage("teardown");
        // Closing the servers ends the passive subscribers' streams.
        stop.store(true, Ordering::SeqCst);
        drop(fadmin.take());
        if st.teardown(SHUTDOWN_LIMIT).is_none() {
            hung_shutdowns += 1;
        }
        let observed: Vec<Subs> = observers
            .into_iter()
            .map(|h| h.join().expect("observer thread"))
            .collect();
        (outs, observed, leader_reads, follower_reads, m1, f1, spans)
    });

    let mut obs = Observed {
        slices: (0..phases.slices()).map(|_| Lat::default()).collect(),
        traced: Vec::new(),
        logs: vec![Vec::new(); spec.sessions],
        sends: vec![Vec::new(); spec.sessions],
        leader_streams: Vec::new(),
        follower_streams: Vec::new(),
    };
    for o in outs {
        attempted += o.attempted;
        failed += o.failed;
        errors.extend(o.errors);
        for (mine, theirs) in obs.slices.iter_mut().zip(o.slices) {
            mine.absorb(theirs);
        }
        obs.traced.extend(o.traced);
        for (i, log, sends) in o.sessions {
            obs.logs[i] = log;
            obs.sends[i] = sends;
        }
        if let Some(mut subs) = o.subs {
            errors.append(&mut subs.errors);
            obs.leader_streams.extend(subs.into_streams());
        }
    }
    for mut subs in observed {
        errors.append(&mut subs.errors);
        obs.follower_streams.extend(subs.into_streams());
    }

    // Correctness: the shadow replays every session's stream; the final
    // reads on both nodes and every subscriber's rebuilt image must
    // equal the shadow's.
    stage("shadow replay");
    let rejected = replay(&mut shadow, spec, &reqs, &obs.logs);
    if rejected > 0 {
        errors.push(format!("shadow rejected {rejected} replayed requests"));
    }
    let shadow_reads: Vec<Vec<u8>> = (0..spec.sessions)
        .flat_map(|i| (0..spec.shape.views.len() as u8).map(move |v| (i, v)))
        .map(|(i, v)| encode_result(&shadow.serve(&session_name(i), reqs.get(Op::Read(v)).clone())))
        .collect();
    let mut mismatches = 0u64;
    for (node, reads) in [
        ("leader", Some(&leader_reads)),
        ("follower", follower_reads.as_ref()),
    ] {
        let Some(reads) = reads else { continue };
        let n = reads
            .iter()
            .zip(&shadow_reads)
            .filter(|(a, b)| a != b)
            .count();
        if n > 0 {
            errors.push(format!("{node}: {n} final reads differ from the shadow"));
            mismatches += n as u64;
        }
    }
    for (node, streams) in [
        ("leader", &obs.leader_streams),
        ("follower", &obs.follower_streams),
    ] {
        for s in streams {
            let name = session_name(s.session);
            let want = match shadow.serve(&name, reqs.get(Op::Read(0)).clone()) {
                Ok(SessionResponse::State(image)) => Some(image),
                _ => None,
            };
            if want.as_ref() != Some(&s.image) || s.arrivals.len() != obs.sends[s.session].len() {
                errors.push(format!(
                    "{node} subscriber of {name}: {} events for {} changes, image {}",
                    s.arrivals.len(),
                    obs.sends[s.session].len(),
                    if want.as_ref() == Some(&s.image) {
                        "matches"
                    } else {
                        "differs"
                    }
                ));
                mismatches += 1;
            }
        }
    }
    failed += mismatches;
    let correct = failed == 0 && errors.is_empty();

    // The report.
    let conns: Vec<String> = spec
        .conns
        .iter()
        .map(|c| {
            let node = if c.follower { "follower" } else { "leader" };
            match (c.window, c.subscribe) {
                (0, _) => format!("{node}:subscriber"),
                (w, true) => format!("{node}:window{w}+subscriber"),
                (w, false) => format!("{node}:window{w}"),
            }
        })
        .collect();
    let working_set_kb =
        rss_per_session * spec.sessions_opened() as f64 + rss_warm.saturating_sub(rss_ready) as f64;
    println!(
        "config: connections=[{}] closed loop, shards={} follower={} store={}",
        conns.join(", "),
        spec.shards,
        spec.follower,
        spec.store.label()
    );
    println!(
        "sizes: sessions={} states_per_space={} views_per_session={} working_set_bytes={:.0} caches: {} cores={}",
        spec.sessions,
        spec.shape.states(),
        spec.shape.views.len(),
        working_set_kb * 1024.0,
        cache_sizes(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let secs = measure.as_secs_f64();
    let slice_secs = phases.slice.as_secs_f64();
    let mut update_slices: Vec<Vec<u64>> = obs.slices.iter().map(|l| l.update.clone()).collect();
    let mut read_slices: Vec<Vec<u64>> = obs.slices.iter().map(|l| l.read.clone()).collect();
    let mut pools: Vec<u64> = obs.slices.iter().flat_map(|l| l.pool.clone()).collect();
    let total = |v: &[Vec<u64>]| v.iter().map(Vec::len).sum::<usize>();
    let (n_upd, n_read) = (total(&update_slices), total(&read_slices));
    let mut e2e = vec![
        metric(
            "update_ack_p50_us",
            sliced(&mut update_slices, 0.5) / 1e3,
            "us",
            n_upd,
        ),
        metric(
            "update_ack_p99_us",
            sliced(&mut update_slices, 0.99) / 1e3,
            "us",
            n_upd,
        ),
        metric(
            "read_p50_us",
            sliced(&mut read_slices, 0.5) / 1e3,
            "us",
            n_read,
        ),
        metric(
            "read_p99_us",
            sliced(&mut read_slices, 0.99) / 1e3,
            "us",
            n_read,
        ),
    ];
    if !obs.leader_streams.is_empty() {
        let mut d = event_latencies(&obs.leader_streams, &obs.sends, &phases);
        let n = total(&d);
        e2e.push(metric(
            "delivered_p50_us",
            sliced(&mut d, 0.5) / 1e3,
            "us",
            n,
        ));
    }
    if !obs.follower_streams.is_empty() {
        let mut v = event_latencies(&obs.follower_streams, &obs.sends, &phases);
        let n = total(&v);
        e2e.push(metric(
            "visible_follower_p50_us",
            sliced(&mut v, 0.5) / 1e3,
            "us",
            n,
        ));
        e2e.push(metric(
            "visible_follower_p99_us",
            sliced(&mut v, 0.99) / 1e3,
            "us",
            n,
        ));
    }
    if !cold.is_empty() {
        e2e.push(metric(
            "cold_read_p50_us",
            median(&mut cold) / 1e3,
            "us",
            cold.len(),
        ));
    }
    if !pools.is_empty() {
        let n = pools.len();
        e2e.push(metric(
            "pool_edit_p50_us",
            median(&mut pools) / 1e3,
            "us",
            n,
        ));
    }
    let per_slice: Vec<usize> = obs
        .slices
        .iter()
        .map(|l| l.update.len() + l.read.len() + l.pool.len())
        .collect();
    let rates: Vec<f64> = per_slice.iter().map(|&n| n as f64 / slice_secs).collect();
    e2e.push(metric(
        "throughput_ops_s",
        stats::rank_f64(&rates, 1.0 - stats::SLICE_RANK),
        "ops/s",
        per_slice.iter().sum(),
    ));
    e2e.push(metric(
        "error_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted as usize,
    ));
    e2e.push(metric("setup_s", median_f64(&setup_s), "s", setup_s.len()));
    e2e.push(metric(
        "rss_kb_per_session",
        rss_per_session,
        "KiB",
        spec.sessions_opened(),
    ));
    println!(
        "end-to-end ({secs} s untraced after 1 s warm-up, in {} slices of {slice_secs} s; each timing is \
         the faster quartile of its per-slice values, throughput the upper quartile):",
        phases.slices()
    );
    let series: Vec<String> = update_slices
        .iter_mut()
        .map(|s| format!("{:.0}", stats::quantile(s, 0.5) / 1e3))
        .collect();
    println!("update_ack_p50_us per slice: {}", series.join(" "));
    for m in &e2e {
        print_metric(m);
    }

    // The counters that explain the numbers, straight from `Metrics`.
    let d = Delta(&m0, &m1);
    let updates = obs
        .logs
        .iter()
        .flatten()
        .filter(|op| op.kind() == Kind::Update)
        .count() as f64;
    let pool_edits = obs
        .logs
        .iter()
        .flatten()
        .filter(|op| op.kind() == Kind::Pool)
        .count() as f64;
    let (hits, misses) = (
        d.counter("session.cache.hits") as f64,
        d.counter("session.cache.misses") as f64,
    );
    let (batches, batched) = d.hist("service.batch_requests");
    let fsyncs = d.hist("wal.fsync_ns").0 as f64;
    println!(
        "counters (leader, whole run): updates={updates} pool_edits={pool_edits} \
         session.cache.hits={hits} session.cache.misses={misses} session.cache.remaps={} \
         service.batches={batches} service.batch_requests={batched} serve.queue_depth_hwm={} \
         wal.fsyncs={fsyncs} wal.appended_bytes={} wal.append_ns.mean={:.0} \
         session.sub.events={} session.sub.publish_ns.mean={:.0} serve.repl.bytes_out={} enum.states={}",
        d.counter("session.cache.remaps"),
        m1.counter("serve.queue_depth_hwm"),
        d.counter("wal.appended_bytes"),
        d.hist_mean("wal.append_ns"),
        d.counter("session.sub.events"),
        d.hist_mean("session.sub.publish_ns"),
        d.counter("serve.repl.bytes_out"),
        m1.counter("enum.states"),
    );
    let failure_counters = [
        "session.rejected",
        "serve.malformed_frames",
        "serve.sub.slow_drops",
        "repl.reconnects",
        "repl.bad_records",
    ];
    let follower_delta = match (&f0, &f1) {
        (Some(a), Some(b)) => Some(Delta(a, b)),
        _ => None,
    };
    let mut failures = 0u64;
    let mut failure_text = Vec::new();
    for name in failure_counters {
        let n = d.counter(name) + follower_delta.as_ref().map_or(0, |f| f.counter(name));
        failures += n;
        failure_text.push(format!("{name}={n}"));
    }
    println!("failure counters (both nodes): {}", failure_text.join(" "));
    if let Some(f) = &follower_delta {
        println!(
            "counters (follower, whole run): repl.records_applied={} repl.apply_ns.mean={:.0} session.sub.events={}",
            f.counter("repl.records_applied"),
            f.hist_mean("repl.apply_ns"),
            f.counter("session.sub.events"),
        );
    }
    if hung_shutdowns > 0 {
        println!(
            "warning: {hung_shutdowns} server shutdown(s) did not finish within {SHUTDOWN_LIMIT:?} \
             (a dispatcher missed its stop wake-up); abandoned idle"
        );
    }
    for e in errors.iter().take(10) {
        println!("error: {e}");
    }
    println!(
        "correct={correct} attempted={attempted} failed={failed} error_ratio={}",
        ratio(failed as f64, attempted as f64)
    );

    if !args.trace {
        let chosen: Vec<&Metric> = RESULT_E2E
            .iter()
            .map(|name| e2e.iter().find(|m| m.name == *name).expect("reported"))
            .collect();
        return stats::result_line(correct, attempted, failed, &chosen);
    }

    // The traced run: layer table, twin costs, per-layer metrics.
    let twin_dir = root.join("twin");
    std::fs::create_dir_all(&twin_dir).expect("create twin dir");
    stage("twin");
    let twin = layers::twin(spec, args.seed, &twin_dir, Duration::from_millis(1500));
    let codec = twin.encode_ns + twin.decode_ns;
    let untraced_update = median(&mut update_slices.concat());
    let mut unattributed = 0.0;
    let mut queue_wait = 0.0;
    let mut overhead = 0.0;
    for kind in [Kind::Update, Kind::Read] {
        let attr = layers::attribute(&obs.traced, kind, &spans);
        let mut rows = vec![("proto.codec (twin)".to_owned(), codec, attr.requests)];
        rows.extend(
            attr.layers
                .iter()
                .map(|(l, v, n)| (format!("{l} (self)"), *v, *n)),
        );
        // A reply leaves only when its whole dispatch batch is done: the
        // rest of the batch's mean dispatch time went to other sessions'
        // requests and fsyncs.
        let own: f64 = attr
            .layers
            .iter()
            .filter(|(l, _, _)| l != "shard.queue")
            .map(|(_, v, _)| v)
            .sum();
        let batch = d.hist_mean("service.dispatch_ns");
        rows.push((
            "batch-mates (dispatch mean)".to_owned(),
            (batch - own).max(0.0),
            batches as usize,
        ));
        let rest = attr.e2e_ns - rows.iter().map(|r| r.1).sum::<f64>();
        println!(
            "layers: {kind:?} reply, traced e2e median {:.0} ns over {} tagged requests",
            attr.e2e_ns, attr.requests
        );
        for (label, v, n) in &rows {
            println!(
                "  {label:<28} {v:>12.0} ns {:>6.1}%  n={n}",
                100.0 * ratio(*v, attr.e2e_ns)
            );
        }
        println!(
            "  {:<28} {rest:>12.0} ns {:>6.1}%  (wire, reorder buffer, thread hand-off)",
            "server.unattributed",
            100.0 * ratio(rest, attr.e2e_ns)
        );
        println!(
            "  {:<28} {:>12.0} ns",
            "sum = traced e2e median", attr.e2e_ns
        );
        if kind == Kind::Update {
            unattributed = rest;
            queue_wait = attr
                .layers
                .iter()
                .find(|(l, _, _)| l == "shard.queue")
                .map_or(0.0, |(_, v, _)| *v);
            overhead = ratio(attr.e2e_ns, untraced_update);
            println!(
                "  dtrace.overhead_ratio = traced {:.0} ns / untraced {:.0} ns = {:.3}",
                attr.e2e_ns, untraced_update, overhead
            );
        }
    }
    if spec.follower {
        let (wait, apply, n) = layers::ship_wait(&spans);
        println!(
            "follower path: replica.ship_wait_ns={wait:.0} repl.apply span={apply:.0} ns over {n} traces"
        );
    }
    println!(
        "twin ({} requests of the workload's stream): open={:.0} update={:.0} read={:.0} read_miss={:.0} \
         pool_edit={:.0} wal.append={:.0} wal.fsync={:.0} sub.publish={:.0} repl.apply={:.0} \
         encode={:.0} decode={:.0} (ns)",
        twin.fed,
        twin.open_ns,
        twin.update_ns,
        twin.read_ns,
        twin.read_miss_ns,
        twin.pool_edit_ns,
        twin.append_ns,
        twin.fsync_ns,
        twin.publish_ns,
        twin.apply_ns,
        twin.encode_ns,
        twin.decode_ns
    );
    let durable = updates + pool_edits;
    let layer = vec![
        metric("proto.encode_ns", twin.encode_ns, "ns", 0),
        metric("proto.decode_ns", twin.decode_ns, "ns", 0),
        metric("server.queue_wait_ns", queue_wait, "ns", 0),
        metric(
            "server.queue_depth_hwm",
            m1.counter("serve.queue_depth_hwm") as f64,
            "count",
            0,
        ),
        metric("server.unattributed_ns", unattributed, "ns", 0),
        metric(
            "service.dispatch_ns",
            d.hist_mean("service.dispatch_ns"),
            "ns",
            0,
        ),
        metric(
            "service.batch_requests_mean",
            ratio(batched as f64, batches as f64),
            "count",
            0,
        ),
        metric("session.update_ns", twin.update_ns, "ns", 0),
        metric("session.read_ns", twin.read_ns, "ns", 0),
        metric(
            "session.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            0,
        ),
        metric("session.read_miss_ns", twin.read_miss_ns, "ns", 0),
        metric("space.open_ns", twin.open_ns, "ns", 0),
        metric(
            "space.enum_states",
            m1.counter("enum.states") as f64,
            "count",
            0,
        ),
        metric("space.pool_edit_ns", twin.pool_edit_ns, "ns", 0),
        metric(
            "space.remap_ratio",
            ratio(d.counter("session.cache.remaps") as f64, pool_edits),
            "ratio",
            0,
        ),
        metric("wal.append_ns", twin.append_ns, "ns", 0),
        metric("wal.fsync_ns", twin.fsync_ns, "ns", 0),
        metric("wal.fsyncs_per_update", ratio(fsyncs, updates), "ratio", 0),
        metric(
            "wal.bytes_per_update",
            ratio(d.counter("wal.appended_bytes") as f64, durable),
            "bytes",
            0,
        ),
        metric("sub.publish_ns", twin.publish_ns, "ns", 0),
        metric(
            "sub.events_per_update",
            ratio(d.counter("session.sub.events") as f64, updates),
            "ratio",
            0,
        ),
        metric("replica.apply_ns", twin.apply_ns, "ns", 0),
        metric(
            "replica.bytes_out_per_update",
            ratio(d.counter("serve.repl.bytes_out") as f64, updates),
            "bytes",
            0,
        ),
        metric("replica.lag_records_max", lag_max as f64, "count", 0),
        metric("dtrace.overhead_ratio", overhead, "ratio", 0),
        metric("failures", failures as f64, "count", 0),
    ];
    println!("per-layer:");
    for m in &layer {
        print_metric(m);
    }
    let all: Vec<&Metric> = layer.iter().collect();
    stats::result_line(correct, attempted, failed, &all)
}
