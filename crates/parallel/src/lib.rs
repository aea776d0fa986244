//! Deterministic parallel fan-out on top of `std::thread::scope`.
//!
//! Every hot "for all states" loop in this workspace (LDB enumeration, poset
//! row construction, admissibility checking) is an embarrassingly parallel
//! scan over a contiguous index range whose *output must not depend on the
//! thread count*.  The helpers here encode that contract once:
//!
//! - [`sharded_collect`] splits `0..n` into contiguous shards, maps each
//!   shard on its own thread, and concatenates the shard outputs **in shard
//!   order** — so the result is byte-identical to the sequential scan.
//! - [`find_first`] searches for the *lowest-index* hit, with cooperative
//!   early exit: a shard abandons its scan once a strictly lower shard has
//!   already found a hit, and the global minimum is selected at the end.
//!   Sequential and parallel runs therefore report the same witness.
//!
//! The crate is dependency-free (std only) per DESIGN.md §6; thread count
//! defaults to the machine's available parallelism and can be pinned with
//! the `COMPVIEW_THREADS` environment variable (useful for ablations and
//! the determinism cross-validation tests).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count: `COMPVIEW_THREADS` if set and positive, else the
/// machine's available parallelism, else 1.
///
/// The variable is read on every call, so it can be changed at run time
/// (the determinism tests sweep it).  The fallback is probed once per
/// process: `available_parallelism` reads cgroup files on Linux, which
/// costs more than many of the loops this sizes.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("COMPVIEW_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    *FALLBACK.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Split `0..n` into at most `threads` contiguous, near-equal shards.
/// Shards are returned in index order and cover the range exactly.
pub fn shards(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Map each contiguous shard of `0..n` to a `Vec<T>` on its own thread and
/// concatenate the results in shard order.
///
/// Provided `f` is a pure function of its range, the output is identical
/// to `f(0..n)` regardless of `threads`.  Runs inline (no threads spawned)
/// when one shard suffices.
pub fn sharded_collect<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let parts = shards(n, threads);
    if parts.len() <= 1 {
        return f(0..n);
    }
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(parts.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.into_iter().map(|r| scope.spawn(|| f(r))).collect();
        for h in handles {
            chunks.push(h.join().expect("sharded_collect worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Run `f(i)` for each `i` in `0..n` purely for effect/validation, sharded
/// across threads.  `f` must be independent across indices.
pub fn sharded_for_each<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let parts = shards(n, threads);
    if parts.len() <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    std::thread::scope(|scope| {
        for r in parts {
            scope.spawn(|| {
                for i in r {
                    f(i);
                }
            });
        }
    });
}

/// Find the **lowest** `i` in `0..n` with `f(i) = Some(r)`, in parallel,
/// with early exit.
///
/// Each shard scans left-to-right and stops at its first hit (later hits in
/// the same shard have higher indices).  A shared atomic records the lowest
/// hit so far; shards whose entire range lies above it abandon their scan.
/// The final answer is the minimum-index hit across shards, so sequential
/// and parallel runs return the same witness.
pub fn find_first<R, F>(n: usize, threads: usize, f: F) -> Option<(usize, R)>
where
    R: Send,
    F: Fn(usize) -> Option<R> + Sync,
{
    let parts = shards(n, threads);
    if parts.len() <= 1 {
        return (0..n).find_map(|i| f(i).map(|r| (i, r)));
    }
    let best = AtomicUsize::new(usize::MAX);
    let mut hits: Vec<Option<(usize, R)>> = Vec::with_capacity(parts.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|r| {
                let best = &best;
                let f = &f;
                scope.spawn(move || {
                    for i in r {
                        // Anything this shard could still find is ≥ i; give
                        // up once a strictly lower index has been claimed.
                        if best.load(Ordering::Relaxed) < i {
                            return None;
                        }
                        if let Some(hit) = f(i) {
                            best.fetch_min(i, Ordering::Relaxed);
                            return Some((i, hit));
                        }
                    }
                    None
                })
            })
            .collect();
        for h in handles {
            hits.push(h.join().expect("find_first worker panicked"));
        }
    });
    hits.into_iter().flatten().min_by_key(|(i, _)| *i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for t in [1usize, 2, 3, 8, 200] {
                let parts = shards(n, t);
                let mut next = 0;
                for r in &parts {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn sharded_collect_matches_sequential() {
        let f = |r: Range<usize>| r.map(|i| i * i).collect::<Vec<_>>();
        let expect = f(0..1000);
        for t in [1usize, 2, 3, 8, 17] {
            assert_eq!(sharded_collect(1000, t, f), expect);
        }
    }

    #[test]
    fn find_first_returns_lowest_witness() {
        // Hits at 250 and 700; every thread count must report 250.
        let f = |i: usize| (i == 250 || i == 700).then_some(i * 10);
        for t in [1usize, 2, 4, 8] {
            assert_eq!(find_first(1000, t, f), Some((250, 2500)));
        }
        assert_eq!(find_first(1000, 4, |_| None::<()>), None);
    }

    #[test]
    fn sharded_for_each_visits_all() {
        use std::sync::atomic::AtomicU64;
        let sum = AtomicU64::new(0);
        sharded_for_each(100, 4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 4950);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn num_threads_override_beats_cached_fallback() {
        let saved = std::env::var("COMPVIEW_THREADS").ok();
        let fallback = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::remove_var("COMPVIEW_THREADS");
        assert_eq!(num_threads(), fallback, "unset: the (now cached) fallback");
        std::env::set_var("COMPVIEW_THREADS", (fallback + 3).to_string());
        assert_eq!(
            num_threads(),
            fallback + 3,
            "an override set after caching wins"
        );
        std::env::set_var("COMPVIEW_THREADS", "0");
        assert_eq!(
            num_threads(),
            fallback,
            "a non-positive override is ignored"
        );
        std::env::remove_var("COMPVIEW_THREADS");
        assert_eq!(num_threads(), fallback, "removing the override restores it");
        if let Some(v) = saved {
            std::env::set_var("COMPVIEW_THREADS", v);
        }
    }
}
