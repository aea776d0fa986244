//! # compview
//!
//! A production-quality Rust reproduction of **S. J. Hegner, "Canonical
//! View Update Support through Boolean Algebras of Components"
//! (PODS 1984)**.
//!
//! The library answers the question the paper poses: *when a user updates
//! a database view, which change to the base database is the right one?*
//! It implements the constant-complement strategy of Bancilhon–Spyratos
//! and the paper's resolution of its complement-nonuniqueness problem —
//! restrict complements to the **components** of the schema, which form a
//! Boolean algebra and make update translation canonical (independent of
//! the complement chosen).
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`relation`] | values (with typed nulls), tuples, relations, instances, relational algebra, signatures |
//! | [`logic`] | the free Boolean type algebra, dependencies (FD/JD/IND/TGD/EGD), the chase, schemas, null-augmented path schemas |
//! | [`lattice`] | partitions & the partition lattice, finite posets, ↓-poset strong morphisms, strong endomorphisms, Boolean-algebra verification |
//! | [`core`] | views, update strategies & admissibility, complements, strong views, **the component algebra**, constant-complement translation, symbolic path-schema components, workload generators |
//! | [`session`] | the multi-session view-update service: typed requests, incremental state-space maintenance, component caching, deterministic batch dispatch |
//! | [`serve`] | the network front end: CRC-framed wire protocol over the session codec, threaded batch server with group commit, blocking client |
//! | [`obs`] | observability: lock-free counters/gauges/histograms, a sampled cross-process span tracer, wire-codec metrics and trace snapshots, Prometheus-style text rendering |
//!
//! ## Quickstart
//!
//! ```
//! use compview::core::{PathComponents, paper::example_2_1_1};
//! use compview::relation::v;
//!
//! // The schema of Example 2.1.1: R[A,B,C,D] with *[AB,BC,CD] made exact
//! // through nulls.
//! let pc = PathComponents::new(example_2_1_1::path_schema());
//! let base = example_2_1_1::base_instance();
//! let r = base.rel("R").clone();
//!
//! // Update the AB component (mask 0b001): insert a new supplier pair.
//! let ps = pc.schema().clone();
//! let mut new_ab = pc.endo(0b001, &r);
//! new_ab.insert(ps.object(0, &[v("a9"), v("b9")]));
//!
//! // Constant-complement translation: unique, minimal, side-effect-free
//! // on the complement (Theorem 3.1.1).
//! let updated = pc.translate(0b001, &r, &new_ab).unwrap();
//! assert_eq!(pc.endo(0b001, &updated), new_ab);           // performed exactly
//! assert_eq!(pc.endo(0b110, &updated), pc.endo(0b110, &r)); // complement constant
//! ```

pub use compview_core as core;
pub use compview_lattice as lattice;
pub use compview_logic as logic;
pub use compview_obs as obs;
pub use compview_relation as relation;
pub use compview_serve as serve;
pub use compview_session as session;
