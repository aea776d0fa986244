//! Instrument bundles for the engine hot paths: the chase and parallel
//! state-space enumeration.
//!
//! Each bundle is a plain struct of `compview-obs` handles, registered
//! **eagerly** against a [`compview_obs::Registry`] so the set and order
//! of metric names in a snapshot never depends on which code paths
//! happened to run or on the thread count.  Bundles built with `noop()`
//! cost a branch per hit; callers that do not care pass those.

use compview_obs::{Counter, Histogram, Registry};

/// Instruments for [`crate::chase::chase_observed`].
#[derive(Clone, Default)]
pub struct ChaseObs {
    /// Completed chase runs.
    pub runs: Counter,
    /// Semi-naive rounds executed, across all runs.
    pub rounds: Counter,
    /// Distribution of per-round delta sizes (tuples added the previous
    /// round and re-joined this round).
    pub delta_tuples: Histogram,
    /// Wall time of whole chase runs, nanoseconds.
    pub run_ns: Histogram,
}

impl ChaseObs {
    /// Handles that record nothing.
    pub fn noop() -> ChaseObs {
        ChaseObs::default()
    }

    /// Register every chase instrument on `registry`.
    pub fn new(registry: &Registry) -> ChaseObs {
        ChaseObs {
            runs: registry.counter("chase.runs"),
            rounds: registry.counter("chase.rounds"),
            delta_tuples: registry.histogram("chase.delta_tuples"),
            run_ns: registry.histogram("chase.run_ns"),
        }
    }
}

/// Instruments for [`crate::Schema::enumerate_ldb_observed`].
#[derive(Clone, Default)]
pub struct EnumObs {
    /// Enumeration runs.
    pub runs: Counter,
    /// Legal states produced, across all runs.
    pub states: Counter,
    /// State spaces served from `compview-core`'s interner instead of
    /// being enumerated (opens, recoveries, resets and pool edits that
    /// found their key live).
    pub reused: Counter,
    /// Wall time of each enumeration shard, nanoseconds.  Shard *count*
    /// varies with the thread count; only the metric's presence and name
    /// are part of the determinism contract.
    pub shard_ns: Histogram,
    /// Wall time of whole enumerations, nanoseconds.
    pub run_ns: Histogram,
}

impl EnumObs {
    /// Handles that record nothing.
    pub fn noop() -> EnumObs {
        EnumObs::default()
    }

    /// Register every enumeration instrument on `registry`.
    pub fn new(registry: &Registry) -> EnumObs {
        EnumObs {
            runs: registry.counter("enum.runs"),
            states: registry.counter("enum.states"),
            reused: registry.counter("enum.reused"),
            shard_ns: registry.histogram("enum.shard_ns"),
            run_ns: registry.histogram("enum.run_ns"),
        }
    }
}
