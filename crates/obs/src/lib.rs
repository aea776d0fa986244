//! # compview-obs
//!
//! Runtime observability for the compview stack: lock-free counters,
//! gauges, and log-bucketed latency histograms behind a [`Registry`],
//! plus a [`DistTracer`] for causally linked, sampled spans that cross
//! process boundaries.
//!
//! The crate is std-only and dependency-free so every other crate in the
//! workspace (including `compview-logic` and `compview-core`, which sit
//! below the session layer) can depend on it without cycles.
//!
//! ## Cost model
//!
//! Every instrument handle ([`Counter`], [`Gauge`], [`Histogram`]) is an
//! `Option<Arc<…>>`:
//!
//! * registered on an **enabled** registry, a hit is one or two relaxed
//!   atomic RMW operations — no locks, safe from any thread;
//! * obtained from a **disabled** registry ([`Registry::disabled`]), the
//!   handle is `None` and a hit is a branch on a niche-optimised enum —
//!   the compiler sees through it and the instrumented code costs
//!   near-nothing.
//!
//! Timing helpers follow the same shape: [`Histogram::start`] returns
//! `None` on a no-op handle so the `Instant::now()` call itself is
//! skipped, not just the recording.
//!
//! ## Determinism
//!
//! Snapshots ([`Registry::snapshot`]) list instruments in sorted name
//! order, and instrumented code registers every instrument it may touch
//! eagerly at construction, so the *content ordering* of a snapshot is
//! byte-identical at every thread count.  Only the recorded values (which
//! are timings and scheduling-dependent tallies) vary.

mod dtrace;
mod hist;
mod reservoir;
mod snapshot;

pub use dtrace::{
    DecodeTraceError, DistSpan, DistTracer, SpanRecord, TraceCtx, TraceSnapshot, DTRACE_CAP,
};
pub use hist::{bucket_floor, bucket_index, Histogram, HistogramSnapshot};
pub use reservoir::{Reservoir, ReservoirSnapshot, RESERVOIR_CAP};
pub use snapshot::{DecodeMetricsError, MetricsSnapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// This is the same checksum the WAL and the wire protocol use; it lives
/// here (the bottom of the dependency stack) so every layer shares one
/// implementation.  CRC-32 detects *all* single-bit errors and all burst
/// errors up to 32 bits, which is what the metrics codec leans on to
/// reject corrupt snapshots.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 on a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins instantaneous value (queue depths, log sizes).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the value to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn raise(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 on a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<hist::HistCore>>>,
    reservoirs: Mutex<BTreeMap<String, Arc<reservoir::ReservoirCore>>>,
    dtracer: DistTracer,
}

/// The instrument directory: hands out [`Counter`]/[`Gauge`]/
/// [`Histogram`] handles by name and snapshots them all in sorted
/// order.
///
/// Cloning a `Registry` clones a handle to the same directory.
/// Registration is idempotent: asking twice for the same name returns
/// handles onto the same underlying cell, which is also how several
/// sessions of one service share aggregate metrics without unbounded
/// per-session cardinality.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry.  It starts with one counter,
    /// `obs.dtrace.dropped`: the spans its [`DistTracer`] discarded
    /// because its buffer was full.
    pub fn new() -> Registry {
        let dropped = Arc::new(AtomicU64::new(0));
        let counters = BTreeMap::from([("obs.dtrace.dropped".to_owned(), Arc::clone(&dropped))]);
        Registry {
            inner: Some(Arc::new(Inner {
                counters: Mutex::new(counters),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                reservoirs: Mutex::new(BTreeMap::new()),
                dtracer: DistTracer::counting(Counter(Some(dropped))),
            })),
        }
    }

    /// A registry whose every handle is a no-op and whose snapshot is
    /// empty.  Instrumented code paths cost a branch.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter(None),
            Some(inner) => {
                let mut map = inner.counters.lock().expect("obs lock");
                Counter(Some(Arc::clone(map.entry(name.to_owned()).or_default())))
            }
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge(None),
            Some(inner) => {
                let mut map = inner.gauges.lock().expect("obs lock");
                Gauge(Some(Arc::clone(map.entry(name.to_owned()).or_default())))
            }
        }
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(inner) => {
                let mut map = inner.histograms.lock().expect("obs lock");
                Histogram::from_core(Arc::clone(map.entry(name.to_owned()).or_default()))
            }
        }
    }

    /// Register (or look up) a quantile reservoir (see
    /// [`reservoir`](Reservoir) docs for the cost model: a mutex per
    /// record, so request-grained paths only).
    pub fn reservoir(&self, name: &str) -> Reservoir {
        match &self.inner {
            None => Reservoir::noop(),
            Some(inner) => {
                let mut map = inner.reservoirs.lock().expect("obs lock");
                Reservoir::from_core(Arc::clone(map.entry(name.to_owned()).or_default()))
            }
        }
    }

    /// The registry's distributed tracer (a no-op tracer on a disabled
    /// registry).  Off until [`DistTracer::configure`] sets a non-zero
    /// sampling rate; see the [`dtrace`](DistTracer) docs.
    pub fn dtracer(&self) -> DistTracer {
        match &self.inner {
            None => DistTracer::noop(),
            Some(inner) => inner.dtracer.clone(),
        }
    }

    /// Snapshot every registered instrument, sorted by name within each
    /// kind.  The *set and order of names* is deterministic once all
    /// instruments are registered; the values are whatever has been
    /// recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let quantiles = inner
            .reservoirs
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            quantiles,
        }
    }

    /// Fold a frozen snapshot's values into this registry's live cells:
    /// counters add, gauges raise (high-water-mark semantics),
    /// histogram buckets add, reservoir samples re-enter Algorithm-R
    /// acceptance.  Instruments named in the snapshot but not yet
    /// registered here are registered — so absorbing a shard registry's
    /// snapshot preserves its full name set.  This is how
    /// `Service::merge` folds per-shard registries back into one after
    /// a sharded server shuts down.  No-op on a disabled registry.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        if self.inner.is_none() {
            return;
        }
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).raise(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).absorb(h);
        }
        for (name, r) in &snap.quantiles {
            let Some(inner) = &self.inner else { return };
            let core = {
                let mut map = inner.reservoirs.lock().expect("obs lock");
                Arc::clone(map.entry(name.clone()).or_default())
            };
            core.absorb(r);
        }
    }

    /// Render the current snapshot in Prometheus text exposition format
    /// (see [`MetricsSnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Same vectors the WAL asserts, so the shared implementation is
        // pinned from both ends.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"compview"), crc32(b"compview"));
        assert_ne!(crc32(b"compview"), crc32(b"compvieW"));
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("a.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration: same cell.
        assert_eq!(reg.counter("a.hits").get(), 5);

        let g = reg.gauge("a.depth");
        g.set(7);
        g.raise(3);
        assert_eq!(g.get(), 7);
        g.raise(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.inc();
        g.set(9);
        h.record(1234);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.start().is_none());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_orders_names() {
        let reg = Registry::new();
        // Register out of order; snapshot must sort.
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.gauge("m.middle").set(3);
        reg.histogram("b.lat").record(10);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        // `obs.dtrace.dropped` is registered with every registry.
        assert_eq!(names, ["a.first", "obs.dtrace.dropped", "z.last"]);
        assert_eq!(snap.counters[0].1, 2);
        assert_eq!(snap.gauges[0].0, "m.middle");
        assert_eq!(snap.histograms[0].0, "b.lat");
    }

    #[test]
    fn registry_handles_are_shared_across_clones() {
        let reg = Registry::new();
        let c1 = reg.counter("shared");
        let reg2 = reg.clone();
        let c2 = reg2.counter("shared");
        c1.inc();
        c2.add(2);
        assert_eq!(reg.counter("shared").get(), 3);
    }

    #[test]
    fn concurrent_recording_is_lock_free_and_lossless() {
        let reg = Registry::new();
        let c = reg.counter("par.count");
        let h = reg.histogram("par.hist");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
    }
}
