//! Frozen metrics snapshots: the wire codec and the Prometheus text
//! exposition.
//!
//! The codec is self-contained (little-endian integers, length-prefixed
//! UTF-8 strings) and ends in a CRC-32 trailer over everything before
//! it, so a corrupted snapshot is *rejected*, never misread: CRC-32
//! catches every single-bit flip, and the strict structural checks
//! (exact length, sorted unique names, power-of-two bucket boundaries,
//! bucket counts summing to the histogram count) catch truncations and
//! splices.  The proptests in `tests/props.rs` sweep both.

use crate::crc32;
use crate::hist::HistogramSnapshot;
use crate::reservoir::ReservoirSnapshot;

/// A frozen view of a [`crate::Registry`]: every instrument, sorted by
/// name within each kind, with the values read at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, names ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, names ascending.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, names ascending.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, snapshot)` for every quantile reservoir, names ascending.
    pub quantiles: Vec<(String, ReservoirSnapshot)>,
}

/// Codec format version.  Version 2 added the quantile-reservoir
/// section; version-1 readers reject version-2 bytes outright (the
/// codec is all-or-nothing, never partially read).
const VERSION: u8 = 2;

/// Why a metrics snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeMetricsError {
    /// Shorter than the minimum frame (version byte + CRC trailer).
    TooShort,
    /// The CRC-32 trailer does not match the body.
    BadCrc { want: u32, got: u32 },
    /// Unknown format version.
    BadVersion(u8),
    /// The body ended early or a length prefix overran it.
    Eof { at: usize },
    /// A name was not valid UTF-8.
    BadUtf8 { at: usize },
    /// Names within a section were not strictly ascending.
    UnsortedNames { at: usize },
    /// A histogram's buckets were malformed (non-ascending boundaries,
    /// a boundary that is neither 0 nor a power of two, a zero bucket
    /// count, or bucket counts that do not sum to the total).
    BadHistogram { at: usize },
    /// A quantile reservoir was malformed (samples not nondecreasing,
    /// or more samples than the recorded count).
    BadQuantiles { at: usize },
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes { at: usize },
}

impl std::fmt::Display for DecodeMetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeMetricsError::TooShort => write!(f, "metrics snapshot too short"),
            DecodeMetricsError::BadCrc { want, got } => {
                write!(
                    f,
                    "metrics snapshot crc mismatch: want {want:#x}, got {got:#x}"
                )
            }
            DecodeMetricsError::BadVersion(v) => write!(f, "unknown metrics version {v}"),
            DecodeMetricsError::Eof { at } => write!(f, "metrics snapshot truncated at {at}"),
            DecodeMetricsError::BadUtf8 { at } => write!(f, "bad metric name utf-8 at {at}"),
            DecodeMetricsError::UnsortedNames { at } => {
                write!(f, "metric names out of order at {at}")
            }
            DecodeMetricsError::BadHistogram { at } => {
                write!(f, "malformed histogram at {at}")
            }
            DecodeMetricsError::BadQuantiles { at } => {
                write!(f, "malformed quantile reservoir at {at}")
            }
            DecodeMetricsError::TrailingBytes { at } => {
                write!(f, "trailing bytes after metrics snapshot at {at}")
            }
        }
    }
}

impl std::error::Error for DecodeMetricsError {}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("name fits u32"));
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeMetricsError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeMetricsError::Eof { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeMetricsError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeMetricsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeMetricsError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, DecodeMetricsError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(DecodeMetricsError::Eof { at });
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeMetricsError::BadUtf8 { at })
    }

    /// A count that must leave at least `min_bytes_per_item` per item.
    fn count(&mut self, min_bytes_per_item: usize) -> Result<usize, DecodeMetricsError> {
        let at = self.pos;
        let n = self.u32()? as u64;
        let cap = ((self.buf.len() - self.pos) / min_bytes_per_item.max(1)) as u64;
        if n > cap {
            return Err(DecodeMetricsError::Eof { at });
        }
        Ok(n as usize)
    }
}

impl MetricsSnapshot {
    /// Encode to bytes: version, the four sections, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(VERSION);
        for section in [&self.counters, &self.gauges] {
            put_u32(&mut out, u32::try_from(section.len()).expect("fits"));
            for (name, v) in section.iter() {
                put_str(&mut out, name);
                put_u64(&mut out, *v);
            }
        }
        put_u32(
            &mut out,
            u32::try_from(self.histograms.len()).expect("fits"),
        );
        for (name, h) in &self.histograms {
            put_str(&mut out, name);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum);
            put_u32(&mut out, u32::try_from(h.buckets.len()).expect("fits"));
            for &(lo, n) in &h.buckets {
                put_u64(&mut out, lo);
                put_u64(&mut out, n);
            }
        }
        put_u32(&mut out, u32::try_from(self.quantiles.len()).expect("fits"));
        for (name, r) in &self.quantiles {
            put_str(&mut out, name);
            put_u64(&mut out, r.count);
            put_u32(&mut out, u32::try_from(r.samples.len()).expect("fits"));
            for &v in &r.samples {
                put_u64(&mut out, v);
            }
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decode bytes produced by [`MetricsSnapshot::encode`], rejecting
    /// any corruption (see module docs).
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, DecodeMetricsError> {
        if bytes.len() < 5 {
            return Err(DecodeMetricsError::TooShort);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let got = u32::from_le_bytes(trailer.try_into().expect("4"));
        let want = crc32(body);
        if want != got {
            return Err(DecodeMetricsError::BadCrc { want, got });
        }
        let mut r = Reader { buf: body, pos: 0 };
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeMetricsError::BadVersion(version));
        }
        let mut sections: [Vec<(String, u64)>; 2] = [Vec::new(), Vec::new()];
        for section in sections.iter_mut() {
            let n = r.count(4 + 8)?;
            for _ in 0..n {
                let at = r.pos;
                let name = r.str()?;
                let v = r.u64()?;
                if section.last().is_some_and(|(last, _)| *last >= name) {
                    return Err(DecodeMetricsError::UnsortedNames { at });
                }
                section.push((name, v));
            }
        }
        let [counters, gauges] = sections;
        let n = r.count(4 + 8 + 8 + 4)?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.pos;
            let name = r.str()?;
            if histograms
                .last()
                .is_some_and(|(last, _): &(String, _)| *last >= name)
            {
                return Err(DecodeMetricsError::UnsortedNames { at });
            }
            let count = r.u64()?;
            let sum = r.u64()?;
            let nb = r.count(8 + 8)?;
            let mut buckets = Vec::with_capacity(nb);
            let mut total = 0u64;
            for _ in 0..nb {
                let bat = r.pos;
                let lo = r.u64()?;
                let cnt = r.u64()?;
                // Boundaries must be the floors the histogram can
                // produce (0 or a power of two), strictly ascending,
                // with a non-zero count — anything else is corruption.
                if (lo != 0 && !lo.is_power_of_two()) || cnt == 0 {
                    return Err(DecodeMetricsError::BadHistogram { at: bat });
                }
                if buckets.last().is_some_and(|&(last, _)| last >= lo) {
                    return Err(DecodeMetricsError::BadHistogram { at: bat });
                }
                total = total
                    .checked_add(cnt)
                    .ok_or(DecodeMetricsError::BadHistogram { at: bat })?;
                buckets.push((lo, cnt));
            }
            if total != count {
                return Err(DecodeMetricsError::BadHistogram { at });
            }
            histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            ));
        }
        let n = r.count(4 + 8 + 4)?;
        let mut quantiles: Vec<(String, ReservoirSnapshot)> = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.pos;
            let name = r.str()?;
            if quantiles.last().is_some_and(|(last, _)| *last >= name) {
                return Err(DecodeMetricsError::UnsortedNames { at });
            }
            let count = r.u64()?;
            let ns = r.count(8)?;
            if (ns as u64) > count {
                return Err(DecodeMetricsError::BadQuantiles { at });
            }
            let mut samples = Vec::with_capacity(ns);
            for _ in 0..ns {
                let sat = r.pos;
                let v = r.u64()?;
                if samples.last().is_some_and(|&last| last > v) {
                    return Err(DecodeMetricsError::BadQuantiles { at: sat });
                }
                samples.push(v);
            }
            quantiles.push((name, ReservoirSnapshot { count, samples }));
        }
        if r.pos != body.len() {
            return Err(DecodeMetricsError::TrailingBytes { at: r.pos });
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
            quantiles,
        })
    }

    /// Aggregate several snapshots into one: counters add, gauges take
    /// the maximum (every gauge in the workspace is a high-water mark or
    /// a size — the maximum is the conservative service-wide reading),
    /// histograms merge bucket-wise, reservoirs merge-sort their
    /// samples.  Names union; the result is sorted within each kind, so
    /// its content ordering is deterministic whenever each part's name
    /// set is.  This is how a sharded server answers `Metrics` across
    /// per-shard registries.
    pub fn merged<'a, I>(parts: I) -> MetricsSnapshot
    where
        I: IntoIterator<Item = &'a MetricsSnapshot>,
    {
        use std::collections::BTreeMap;
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
        let mut quantiles: BTreeMap<&str, ReservoirSnapshot> = BTreeMap::new();
        for part in parts {
            for (name, v) in &part.counters {
                *counters.entry(name).or_default() += v;
            }
            for (name, v) in &part.gauges {
                let cell = gauges.entry(name).or_default();
                *cell = (*cell).max(*v);
            }
            for (name, h) in &part.histograms {
                histograms.entry(name).or_default().merge(h);
            }
            for (name, r) in &part.quantiles {
                quantiles.entry(name).or_default().merge(r);
            }
        }
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            quantiles: quantiles
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// The sorted instrument names, one per line, prefixed by kind —
    /// the "content ordering" the determinism contract pins across
    /// thread counts (values excluded).
    pub fn content_ordering(&self) -> String {
        let mut out = String::new();
        for (name, _) in &self.counters {
            out.push_str("counter ");
            out.push_str(name);
            out.push('\n');
        }
        for (name, _) in &self.gauges {
            out.push_str("gauge ");
            out.push_str(name);
            out.push('\n');
        }
        for (name, _) in &self.histograms {
            out.push_str("histogram ");
            out.push_str(name);
            out.push('\n');
        }
        for (name, _) in &self.quantiles {
            out.push_str("quantiles ");
            out.push_str(name);
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition format.  Dotted metric names become
    /// underscore-separated with a `compview_` prefix; histograms render
    /// cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut s = String::with_capacity(name.len() + 9);
            s.push_str("compview_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() {
                    s.push(ch);
                } else {
                    s.push('_');
                }
            }
            s
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for &(lo, cnt) in &h.buckets {
                cum += cnt;
                let le = if lo == 0 { 0 } else { lo.saturating_mul(2) - 1 };
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        for (name, r) in &self.quantiles {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, q) in [
                ("0.5", 0.5),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", r.quantile(q)));
            }
            out.push_str(&format!("{n}_count {}\n", r.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("serve.frames_in").add(12);
        reg.counter("session.requests").add(7);
        reg.gauge("serve.queue_depth_hwm").set(3);
        let h = reg.histogram("wal.fsync_ns");
        for v in [0u64, 900, 1100, 1 << 33] {
            h.record(v);
        }
        let r = reg.reservoir("session.serve.update_tail_ns");
        for v in [40u64, 10, 99] {
            r.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(MetricsSnapshot::decode(&bytes), Ok(snap.clone()));
        // Empty snapshot round-trips too.
        let empty = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::decode(&empty.encode()), Ok(empty));
        // Bucket boundaries survive exactly.
        let decoded = MetricsSnapshot::decode(&bytes).unwrap();
        assert_eq!(
            decoded.histograms[0].1.buckets,
            vec![(0, 1), (512, 1), (1024, 1), (1 << 33, 1)]
        );
    }

    #[test]
    fn every_truncation_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                MetricsSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    MetricsSnapshot::decode(&corrupt).is_err(),
                    "bit flip at byte {i} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn structural_corruption_rejected_even_with_fresh_crc() {
        // Re-CRC'd malformed bodies exercise the structural checks.
        let reseal = |mut body: Vec<u8>| {
            body.truncate(body.len() - 4);
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        // Unsorted counter names.
        let mut snap = sample();
        snap.counters.swap(0, 1);
        assert!(matches!(
            MetricsSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeMetricsError::UnsortedNames { .. })
        ));
        // Histogram count disagreeing with bucket sum.
        let mut snap = sample();
        snap.histograms[0].1.count += 1;
        assert!(matches!(
            MetricsSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeMetricsError::BadHistogram { .. })
        ));
        // Non-power-of-two bucket boundary.
        let mut snap = sample();
        snap.histograms[0].1.buckets[1].0 = 513;
        assert!(matches!(
            MetricsSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeMetricsError::BadHistogram { .. })
        ));
        // Bad version byte (including the retired version 1).
        for bad in [1u8, 9] {
            let mut bytes = sample().encode();
            bytes[0] = bad;
            assert!(matches!(
                MetricsSnapshot::decode(&reseal(bytes)),
                Err(DecodeMetricsError::BadVersion(v)) if v == bad
            ));
        }
        // Reservoir samples out of order.
        let mut snap = sample();
        snap.quantiles[0].1.samples.swap(0, 2);
        assert!(matches!(
            MetricsSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeMetricsError::BadQuantiles { .. })
        ));
        // More samples than the recorded count.
        let mut snap = sample();
        snap.quantiles[0].1.count = 1;
        assert!(matches!(
            MetricsSnapshot::decode(&reseal(snap.encode())),
            Err(DecodeMetricsError::BadQuantiles { .. })
        ));
        // Trailing garbage inside the CRC'd body.
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 4);
        bytes.push(0);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            MetricsSnapshot::decode(&bytes),
            Err(DecodeMetricsError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn content_ordering_lists_names_by_kind() {
        let snap = sample();
        assert_eq!(
            snap.content_ordering(),
            "counter obs.dtrace.dropped\ncounter serve.frames_in\n\
             counter session.requests\ngauge serve.queue_depth_hwm\nhistogram wal.fsync_ns\n\
             quantiles session.serve.update_tail_ns\n"
        );
    }

    #[test]
    fn merged_aggregates_across_parts() {
        let a = sample();
        let reg = Registry::new();
        reg.counter("session.requests").add(5);
        reg.counter("shard.only").add(1);
        reg.gauge("serve.queue_depth_hwm").set(9);
        reg.histogram("wal.fsync_ns").record(900);
        reg.reservoir("session.serve.update_tail_ns").record(7);
        let b = reg.snapshot();

        let m = MetricsSnapshot::merged([&a, &b]);
        let get = |n: &str| m.counters.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("session.requests"), 12);
        assert_eq!(get("serve.frames_in"), 12);
        assert_eq!(get("shard.only"), 1);
        assert_eq!(m.gauges[0], ("serve.queue_depth_hwm".into(), 9));
        let h = &m.histograms[0].1;
        assert_eq!(h.count, 5);
        // Bucket-wise: the two 900s share the [512, 1024) bucket.
        assert!(h.buckets.contains(&(512, 2)));
        let r = &m.quantiles[0].1;
        assert_eq!(r.count, 4);
        assert_eq!(r.samples, vec![7, 10, 40, 99]);
        // Merging encodes/decodes like any snapshot.
        assert_eq!(MetricsSnapshot::decode(&m.encode()), Ok(m.clone()));
        // Merge of one part is that part.
        assert_eq!(MetricsSnapshot::merged([&a]), a);
    }

    #[test]
    fn absorb_then_snapshot_equals_merged() {
        let a = sample();
        let reg = Registry::new();
        reg.counter("session.requests").add(5);
        reg.histogram("wal.fsync_ns").record(900);
        reg.reservoir("session.serve.update_tail_ns").record(7);
        reg.absorb(&a);
        let live = reg.snapshot();
        let merged = MetricsSnapshot::merged([&reg_before_absorb(), &a]);
        assert_eq!(live.counters, merged.counters);
        assert_eq!(live.histograms, merged.histograms);
        let (lr, mr) = (&live.quantiles[0].1, &merged.quantiles[0].1);
        assert_eq!(lr.count, mr.count);
        assert_eq!(lr.samples, mr.samples);

        fn reg_before_absorb() -> MetricsSnapshot {
            let reg = Registry::new();
            reg.counter("session.requests").add(5);
            reg.histogram("wal.fsync_ns").record(900);
            reg.reservoir("session.serve.update_tail_ns").record(7);
            reg.snapshot()
        }
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let text = sample().render_text();
        assert!(text.contains("# TYPE compview_session_requests_total counter"));
        assert!(text.contains("compview_session_requests_total 7"));
        assert!(text.contains("# TYPE compview_serve_queue_depth_hwm gauge"));
        assert!(text.contains("# TYPE compview_wal_fsync_ns histogram"));
        assert!(text.contains("compview_wal_fsync_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("compview_wal_fsync_ns_bucket{le=\"1023\"} 2"));
        assert!(text.contains("compview_wal_fsync_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("compview_wal_fsync_ns_count 4"));
        assert!(text.contains("# TYPE compview_session_serve_update_tail_ns summary"));
        assert!(text.contains("compview_session_serve_update_tail_ns{quantile=\"0.5\"} 40"));
        assert!(text.contains("compview_session_serve_update_tail_ns{quantile=\"0.999\"} 99"));
        assert!(text.contains("compview_session_serve_update_tail_ns_count 3"));
    }
}
