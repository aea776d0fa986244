//! Session and service contract tests: every request variant's failure
//! path leaves the session untouched with consistent counters, the
//! incremental and full-rebuild edit paths are observably equivalent,
//! and batch dispatch is thread-count invariant.

use compview_core::{CatalogError, ComponentFamily, EditError, SubschemaComponents};
use compview_logic::{Constraint, Ind, Schema};
use compview_relation::{rel, v, Instance, RelDecl, Relation, Signature, Tuple};
use compview_session::{
    shard_of, DeltaKind, DispatchError, FaultPlan, FaultyStore, Service, Session, SessionConfig,
    SessionError, SessionRequest, SessionResponse, SessionStats, SyncPolicy, TerminateReason,
};
use std::collections::BTreeMap;

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

fn open(config: SessionConfig) -> Session<SubschemaComponents> {
    let sig = sig();
    Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
        config,
    )
    .unwrap()
}

fn register(s: &mut Session<SubschemaComponents>, name: &str, mask: u32) {
    s.serve(SessionRequest::RegisterView {
        name: name.into(),
        mask,
    })
    .unwrap();
}

fn assert_consistent(stats: &SessionStats) {
    assert_eq!(stats.requests, stats.accepted + stats.rejected);
    assert_eq!(
        stats.rejected_by_variant.values().sum::<u64>(),
        stats.rejected
    );
}

/// Serve a request expected to fail; assert the error and that nothing
/// about the session moved except the rejection counters.
fn assert_rejected(
    s: &mut Session<SubschemaComponents>,
    req: SessionRequest,
    want_label: &str,
) -> SessionError {
    let state = s.state().clone();
    let base_id = s.base_id();
    let n_states = s.space().len();
    let views = s.catalog().views().count();
    let undoable = s.catalog().undoable();
    let rejected_before = s.stats().rejected;
    let variant_before = s
        .stats()
        .rejected_by_variant
        .get(want_label)
        .copied()
        .unwrap_or(0);

    let err = s.serve(req).unwrap_err();
    assert_eq!(err.variant_label(), want_label, "{err}");
    assert_eq!(s.state(), &state, "state moved on rejection");
    assert_eq!(s.base_id(), base_id, "base id moved on rejection");
    assert_eq!(s.space().len(), n_states, "space changed on rejection");
    assert_eq!(s.catalog().views().count(), views, "views changed");
    assert_eq!(s.catalog().undoable(), undoable, "history changed");
    assert_eq!(s.stats().rejected, rejected_before + 1);
    assert_eq!(
        s.stats().rejected_by_variant.get(want_label).copied(),
        Some(variant_before + 1)
    );
    assert_consistent(s.stats());
    err
}

// ------------------------------------------------------------ happy path

#[test]
fn register_read_update_undo_round_trip() {
    let mut s = open(SessionConfig::default());
    assert_eq!(s.space().len(), 8); // 2² R-subsets × 2 S-subsets

    let resp = s
        .serve(SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        })
        .unwrap();
    assert_eq!(
        resp,
        SessionResponse::Registered {
            view: "r".into(),
            mask: 0b01,
            complement: 0b10,
        }
    );

    // First read after registration hits what registration verified.
    let misses = s.stats().cache_misses;
    let SessionResponse::State(part) = s.serve(SessionRequest::Read { view: "r".into() }).unwrap()
    else {
        panic!("read returns a state");
    };
    assert_eq!(part.rel("R"), &rel(1, [["a1"]]));
    assert!(part.rel("S").is_empty());
    assert_eq!(s.stats().cache_misses, misses, "read reused the cache");
    assert!(s.stats().cache_hits > 0);

    // Update: swap a1 for a2.
    let target = Instance::null_model(&sig()).with("R", rel(1, [["a2"]]));
    let SessionResponse::Updated(report) = s
        .serve(SessionRequest::Update {
            view: "r".into(),
            new_state: target,
        })
        .unwrap()
    else {
        panic!("update returns a report");
    };
    assert_eq!(report.requested_delta, 2);
    assert_eq!(s.state().rel("R"), &rel(1, [["a2"]]));
    assert_eq!(s.state(), s.space().state(s.base_id()));

    // Undo restores.
    assert_eq!(
        s.serve(SessionRequest::Undo).unwrap(),
        SessionResponse::Undone
    );
    assert_eq!(s.state().rel("R"), &rel(1, [["a1"]]));

    let SessionResponse::Stats(snap) = s.serve(SessionRequest::Stats).unwrap() else {
        panic!("stats returns a snapshot");
    };
    assert_eq!(
        snap.counters.requests, 4,
        "snapshot precedes its own request"
    );
    assert_eq!(snap.counters.accepted, 4);
    assert_eq!(snap.counters.rejected, 0);
    assert_eq!(snap.states, 8);
    assert_eq!(snap.views, 1);
    assert_eq!(snap.undoable, 0);
    assert_consistent(&snap.counters);
}

#[test]
fn pool_edits_patch_the_space_and_invalidate_the_cache() {
    let mut s = open(SessionConfig {
        cross_validate: true,
        ..SessionConfig::default()
    });
    register(&mut s, "r", 0b01);

    // Insert grows the space 8 → 16 and keeps the base seated.
    let SessionResponse::PoolEdited(report) = s
        .serve(SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        })
        .unwrap()
    else {
        panic!("pool edit returns a report");
    };
    assert_eq!(report.states_before, 8);
    assert_eq!(report.states_after, 16);
    assert_eq!(s.stats().incremental_edits, 1);
    assert_eq!(
        s.stats().full_rebuilds,
        0,
        "cross-validation found no drift"
    );
    assert_eq!(s.state(), s.space().state(s.base_id()));

    // Both verified masks (the view's and its complement's) were
    // re-checked on the grown space and kept: the next read is a hit.
    assert_eq!(s.stats().cache_remaps, 2);
    let misses = s.stats().cache_misses;
    let hits = s.stats().cache_hits;
    s.serve(SessionRequest::Read { view: "r".into() }).unwrap();
    assert_eq!(s.stats().cache_misses, misses);
    assert_eq!(s.stats().cache_hits, hits + 1);

    // The new tuple is a legal update target now.
    let target = Instance::null_model(&sig()).with("R", rel(1, [["a1"], ["a3"]]));
    s.serve(SessionRequest::Update {
        view: "r".into(),
        new_state: target,
    })
    .unwrap();
    assert_eq!(s.state().rel("R"), &rel(1, [["a1"], ["a3"]]));

    // Removing a3 is blocked while the base state holds it …
    assert_rejected(
        &mut s,
        SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        },
        "TupleInBaseState",
    );
    // … until the owning view lets go of it.
    s.serve(SessionRequest::Update {
        view: "r".into(),
        new_state: Instance::null_model(&sig()).with("R", rel(1, [["a1"]])),
    })
    .unwrap();
    let SessionResponse::PoolEdited(report) = s
        .serve(SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        })
        .unwrap()
    else {
        panic!("pool edit returns a report");
    };
    assert_eq!((report.states_before, report.states_after), (16, 8));
    assert_eq!(s.state(), s.space().state(s.base_id()));

    // Removal dropped the undo history (its targets may be gone).
    assert_rejected(&mut s, SessionRequest::Undo, "Catalog::EmptyHistory");
}

#[test]
fn endo_cache_survives_removal_by_id_remapping() {
    let registry = compview_obs::Registry::new();
    let mut s = open(SessionConfig {
        cross_validate: true,
        ..SessionConfig::default()
    });
    s.bind_registry(&registry);
    register(&mut s, "r", 0b01);
    // Registration verified the view's mask and its complement; read,
    // then pin the counters.
    s.serve(SessionRequest::Read { view: "r".into() }).unwrap();
    let misses = s.stats().cache_misses;
    let remaps = s.stats().cache_remaps;
    assert!(misses > 0, "register/read warmed the cache");

    // Removing a2 (absent from the base state) shrinks the space 8 → 4.
    let SessionResponse::PoolEdited(report) = s
        .serve(SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a2")]),
        })
        .unwrap()
    else {
        panic!("pool edit returns a report");
    };
    assert_eq!((report.states_before, report.states_after), (8, 4));

    // Both verified masks were re-checked on the shrunk space and kept
    // (not cleared): the next read is a hit.
    assert_eq!(s.stats().cache_remaps, remaps + 2);
    let hits = s.stats().cache_hits;
    s.serve(SessionRequest::Read { view: "r".into() }).unwrap();
    assert_eq!(
        s.stats().cache_misses,
        misses,
        "read after removal reused the cache"
    );
    assert_eq!(s.stats().cache_hits, hits + 1);
    // The service-wide `session.cache.*` counters tell the same story.
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
            .unwrap_or(0)
    };
    assert_eq!(counter("session.cache.remaps"), s.stats().cache_remaps);
    assert_eq!(counter("session.cache.misses"), s.stats().cache_misses);
    assert_eq!(counter("session.cache.hits"), s.stats().cache_hits);

    // The session reads exactly what a twin that re-enumerated reads
    // (the full-rebuild path forgets its verified masks).
    let mut twin = open(SessionConfig {
        incremental: false,
        ..SessionConfig::default()
    });
    register(&mut twin, "r", 0b01);
    twin.serve(SessionRequest::Read { view: "r".into() })
        .unwrap();
    twin.serve(SessionRequest::RemovePoolTuple {
        relation: "R".into(),
        tuple: Tuple::new([v("a2")]),
    })
    .unwrap();
    assert_eq!(
        s.serve(SessionRequest::Read { view: "r".into() }).unwrap(),
        twin.serve(SessionRequest::Read { view: "r".into() })
            .unwrap()
    );
    assert_eq!(s.space().states(), twin.space().states());
}

#[test]
fn invalidate_cache_forgets_verified_masks_and_the_next_read_reverifies() {
    let mut s = open(SessionConfig::default());
    register(&mut s, "r", 0b01);
    let before = s.serve(SessionRequest::Read { view: "r".into() }).unwrap();
    let cached = |s: &mut Session<SubschemaComponents>| {
        let SessionResponse::Stats(snap) = s.serve(SessionRequest::Stats).unwrap() else {
            panic!("stats returns a snapshot");
        };
        snap.cached_masks
    };
    assert_eq!(cached(&mut s), 2, "the view's mask and its complement");

    s.invalidate_cache();
    assert_eq!(cached(&mut s), 0);
    let (misses, hits) = (s.stats().cache_misses, s.stats().cache_hits);
    let after = s.serve(SessionRequest::Read { view: "r".into() }).unwrap();
    assert_eq!(after, before, "a re-verified read answers the same bytes");
    assert_eq!(
        s.stats().cache_misses,
        misses + 2,
        "the view's mask and its complement are checked again"
    );
    assert_eq!(s.stats().cache_hits, hits);
    assert_eq!(cached(&mut s), 2);
}

/// A session under IND `S ⊆ R` whose `S` pool is empty: until `S` gets
/// a tuple, the constraint cannot bind and the singleton atoms are
/// independent components.
fn open_coupled() -> Session<SubschemaComponents> {
    let sig = sig();
    let pools: BTreeMap<String, Vec<Tuple>> = [
        (
            "R".to_owned(),
            vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
        ),
        ("S".to_owned(), Vec::new()),
    ]
    .into();
    Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::new(
            sig.clone(),
            vec![Constraint::Ind(Ind::new("S", vec![0], "R", vec![0]))],
        ),
        &pools,
        Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
        SessionConfig::default(),
    )
    .unwrap()
}

#[test]
fn a_pool_edit_that_breaks_a_views_complement_refuses_the_view() {
    let mut s = open_coupled();
    register(&mut s, "r", 0b01);
    let SessionResponse::Subscribed { sub, .. } = s
        .serve(SessionRequest::Subscribe { view: "r".into() })
        .unwrap()
    else {
        panic!("subscribe answers with the image");
    };
    let read = s.serve(SessionRequest::Read { view: "r".into() }).unwrap();

    // With a tuple in S's pool the complement of R's component (keep S,
    // empty R) maps a legal state outside the space: R's view is no
    // longer a component, though its own mask still checks.
    let a1 = Tuple::new([v("a1")]);
    s.serve(SessionRequest::InsertPoolTuple {
        relation: "S".into(),
        tuple: a1.clone(),
    })
    .unwrap();
    // The subscription ended at the edit, with the typed terminal event.
    let events = s.take_events();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!((events[0].sub, events[0].seq), (sub, 1));
    assert!(
        matches!(
            &events[0].kind,
            DeltaKind::Terminated {
                reason: TerminateReason::NotAComponent { .. }
            }
        ),
        "{events:?}"
    );
    assert_eq!(s.active_subscriptions(), 0);

    // Every use of the view is refused the way registration is.
    let a2 = Instance::null_model(&sig()).with("R", rel(1, [["a2"]]));
    for req in [
        SessionRequest::RegisterView {
            name: "r2".into(),
            mask: 0b01,
        },
        SessionRequest::Read { view: "r".into() },
        SessionRequest::Update {
            view: "r".into(),
            new_state: a2.clone(),
        },
        SessionRequest::Subscribe { view: "r".into() },
    ] {
        let err = assert_rejected(&mut s, req, "NotAComponent");
        assert!(
            matches!(err, SessionError::NotAComponent { mask: 0b10, .. }),
            "{err}"
        );
    }
    assert!(!s.has_events());

    // Taking the tuple out again makes the view a component again.
    s.serve(SessionRequest::RemovePoolTuple {
        relation: "S".into(),
        tuple: a1,
    })
    .unwrap();
    assert_eq!(
        s.serve(SessionRequest::Read { view: "r".into() }).unwrap(),
        read
    );
    s.serve(SessionRequest::Update {
        view: "r".into(),
        new_state: a2,
    })
    .unwrap();
    assert_eq!(s.state().rel("R"), &rel(1, [["a2"]]));
}

// -------------------------------------------------- failure paths, typed

#[test]
fn register_view_failure_paths() {
    let mut s = open(SessionConfig::default());
    register(&mut s, "r", 0b01);
    assert_rejected(
        &mut s,
        SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b10,
        },
        "Catalog::DuplicateView",
    );
    assert_rejected(
        &mut s,
        SessionRequest::RegisterView {
            name: "huge".into(),
            mask: 0b100,
        },
        "Catalog::BadMask",
    );
}

#[test]
fn read_and_update_failure_paths() {
    let mut s = open(SessionConfig::default());
    register(&mut s, "r", 0b01);

    assert_rejected(
        &mut s,
        SessionRequest::Read {
            view: "nope".into(),
        },
        "Catalog::UnknownView",
    );
    assert_rejected(
        &mut s,
        SessionRequest::Update {
            view: "nope".into(),
            new_state: Instance::null_model(&sig()),
        },
        "Catalog::UnknownView",
    );
    // A state with the complement's relation bound is not a component
    // state of `r`.
    assert_rejected(
        &mut s,
        SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("S", rel(1, [["b1"]])),
        },
        "Catalog::IllegalViewState",
    );
    // A legal component state made of tuples outside the pool translates
    // fine but lands outside the enumerated space: rolled back.
    let err = assert_rejected(
        &mut s,
        SessionRequest::Update {
            view: "r".into(),
            new_state: Instance::null_model(&sig()).with("R", rel(1, [["zz"]])),
        },
        "StateOutsideSpace",
    );
    assert_eq!(err, SessionError::StateOutsideSpace { view: "r".into() });
}

#[test]
fn pool_edit_failure_paths() {
    let mut s = open(SessionConfig::default());
    register(&mut s, "r", 0b01);

    assert_rejected(
        &mut s,
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a1")]),
        },
        "Edit::DuplicateTuple",
    );
    assert_rejected(
        &mut s,
        SessionRequest::InsertPoolTuple {
            relation: "T".into(),
            tuple: Tuple::new([v("a1")]),
        },
        "Edit::UnknownRelation",
    );
    assert_rejected(
        &mut s,
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a1"), v("a2")]),
        },
        "Edit::ArityMismatch",
    );
    assert_rejected(
        &mut s,
        SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("zz")]),
        },
        "Edit::MissingTuple",
    );
    assert_rejected(
        &mut s,
        SessionRequest::RemovePoolTuple {
            relation: "T".into(),
            tuple: Tuple::new([v("a1")]),
        },
        "Edit::UnknownRelation",
    );
    assert_rejected(
        &mut s,
        SessionRequest::RemovePoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a1")]),
        },
        "TupleInBaseState",
    );
    assert_rejected(&mut s, SessionRequest::Undo, "Catalog::EmptyHistory");
}

#[test]
fn insert_past_enumeration_guard_is_rejected() {
    // Pools carry 3 bits; a guard of 3 leaves no headroom.
    let mut s = open(SessionConfig {
        max_bits: 3,
        ..SessionConfig::default()
    });
    let err = assert_rejected(
        &mut s,
        SessionRequest::InsertPoolTuple {
            relation: "R".into(),
            tuple: Tuple::new([v("a3")]),
        },
        "Edit::TooLarge",
    );
    assert_eq!(
        err,
        SessionError::Edit(EditError::TooLarge {
            bits: 4,
            max_bits: 3
        })
    );
}

// --------------------------------------------- componentness is checked

/// A family that passes `Catalog::new`'s losslessness check but whose
/// proper masks are broken: mask `0b01` swaps the two pool tuples (not
/// idempotent — not a strong endomorphism), mask `0b10` maps outside the
/// space.
struct BrokenFamily;

impl ComponentFamily for BrokenFamily {
    fn n_atoms(&self) -> usize {
        2
    }
    fn relations(&self) -> Vec<String> {
        vec!["R".into()]
    }
    fn endo(&self, mask: u32, base: &Instance) -> Instance {
        match mask {
            0b11 => base.clone(),
            0b01 => {
                // Swap a1 ↔ a2.
                let swapped = Relation::from_tuples(
                    1,
                    base.rel("R").iter().map(|t| {
                        if t == &Tuple::new([v("a1")]) {
                            Tuple::new([v("a2")])
                        } else if t == &Tuple::new([v("a2")]) {
                            Tuple::new([v("a1")])
                        } else {
                            t.clone()
                        }
                    }),
                );
                Instance::new().with("R", swapped)
            }
            0b10 => {
                let mut r = base.rel("R").clone();
                r.insert(Tuple::new([v("escaped")]));
                Instance::new().with("R", r)
            }
            _ => Instance::new().with("R", Relation::empty(1)),
        }
    }
    fn reconstruct(&self, a: &Instance, b: &Instance) -> Instance {
        a.union(b)
    }
    fn is_component_state(&self, _mask: u32, _part: &Instance) -> bool {
        true
    }
}

#[test]
fn non_component_masks_are_rejected_at_registration() {
    let sig = Signature::new([RelDecl::new("R", ["A"])]);
    let pools: BTreeMap<String, Vec<Tuple>> = [(
        "R".to_owned(),
        vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
    )]
    .into();
    let mut s = Session::open(
        BrokenFamily,
        Schema::unconstrained(sig.clone()),
        &pools,
        Instance::null_model(&sig),
        SessionConfig::default(),
    )
    .unwrap();

    // Mask 0b01: every image is in the space, but the map is not a strong
    // endomorphism (swapping is not idempotent).
    let state = s.state().clone();
    let err = s
        .serve(SessionRequest::RegisterView {
            name: "swap".into(),
            mask: 0b01,
        })
        .unwrap_err();
    assert!(
        matches!(err, SessionError::NotAComponent { mask: 0b01, ref detail }
            if detail.contains("strong endomorphism")),
        "{err}"
    );
    // Mask 0b10's endo maps outside the space entirely.
    let err = s
        .serve(SessionRequest::RegisterView {
            name: "escape".into(),
            mask: 0b10,
        })
        .unwrap_err();
    assert!(
        matches!(err, SessionError::NotAComponent { mask: 0b10, ref detail }
            if detail.contains("escapes")),
        "{err}"
    );
    // Neither registration stuck; the session is untouched.
    assert_eq!(s.state(), &state);
    assert_eq!(s.catalog().views().count(), 0);
    assert_eq!(s.stats().rejected, 2);
    assert_eq!(
        s.stats().rejected_by_variant.get("NotAComponent").copied(),
        Some(2)
    );
    assert_consistent(s.stats());
}

#[test]
fn open_rejects_base_outside_the_space() {
    let sig = sig();
    let err = Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        Instance::null_model(&sig).with("R", rel(1, [["zz"]])),
        SessionConfig::default(),
    )
    .err()
    .unwrap();
    assert!(matches!(err, SessionError::StateOutsideSpace { .. }));
}

// ------------------------------------- incremental ≡ full, under traffic

/// Drive mirror sessions — one on the incremental edit path (with
/// cross-validation armed), one on the full-rebuild path — through a
/// deterministic random request stream.  Every response must agree, and
/// so must the final spaces.
#[test]
fn randomized_soak_incremental_matches_full_rebuild() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut inc = open(SessionConfig {
        incremental: true,
        cross_validate: true,
        ..SessionConfig::default()
    });
    let mut full = open(SessionConfig {
        incremental: false,
        ..SessionConfig::default()
    });
    register(&mut inc, "r", 0b01);
    register(&mut full, "r", 0b01);
    register(&mut inc, "s", 0b10);
    register(&mut full, "s", 0b10);

    let mut rng = StdRng::seed_from_u64(7);
    let domain: Vec<Tuple> = (0..6).map(|i| Tuple::new([v(&format!("a{i}"))])).collect();
    for step in 0..120 {
        let req = match rng.random_range(0..10u32) {
            0..=2 => SessionRequest::InsertPoolTuple {
                relation: if rng.random_range(0..2u32) == 0 {
                    "R"
                } else {
                    "S"
                }
                .into(),
                tuple: domain[rng.random_range(0..domain.len())].clone(),
            },
            3..=4 => SessionRequest::RemovePoolTuple {
                relation: if rng.random_range(0..2u32) == 0 {
                    "R"
                } else {
                    "S"
                }
                .into(),
                tuple: domain[rng.random_range(0..domain.len())].clone(),
            },
            5..=6 => {
                // Update a view to a random subset of its current pool.
                let (view, relation, mask) = if rng.random_range(0..2u32) == 0 {
                    ("r", "R", 0b01u32)
                } else {
                    ("s", "S", 0b10u32)
                };
                let _ = mask;
                let pool = inc.space().pools().unwrap()[relation].clone();
                let picked = Relation::from_tuples(
                    1,
                    pool.iter()
                        .filter(|_| rng.random_range(0..2u32) == 0)
                        .cloned(),
                );
                SessionRequest::Update {
                    view: view.into(),
                    new_state: Instance::null_model(&sig()).with(relation, picked),
                }
            }
            7 => SessionRequest::Undo,
            8 => SessionRequest::Read { view: "r".into() },
            _ => SessionRequest::Read { view: "s".into() },
        };
        let a = inc.serve(req.clone());
        let b = full.serve(req.clone());
        assert_eq!(a, b, "step {step}: {req:?}");

        // Invariants after every request, accepted or rejected.
        assert_eq!(inc.state(), full.state(), "step {step}");
        assert_eq!(inc.state(), inc.space().state(inc.base_id()), "step {step}");
        assert_consistent(inc.stats());
        assert_consistent(full.stats());
        assert_eq!(
            inc.space().states(),
            full.space().states(),
            "step {step}: spaces diverged"
        );
    }
    assert!(inc.stats().incremental_edits > 10, "soak exercised edits");
    assert_eq!(inc.stats().full_rebuilds, 0, "no cross-validation repairs");
    assert!(inc.stats().rejected > 0, "soak exercised failure paths");
    // One last end-to-end check of the patched space.
    inc.space().validate_against_full().unwrap();
}

// --------------------------------------------------- service + dispatch

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

fn demo_batch() -> Vec<(String, SessionRequest)> {
    let mut batch = Vec::new();
    for name in ["alpha", "beta", "gamma"] {
        batch.push((
            name.to_owned(),
            SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
        ));
    }
    for name in ["alpha", "beta", "gamma", "ghost"] {
        batch.push((
            name.to_owned(),
            SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple: Tuple::new([v("a3")]),
            },
        ));
    }
    for name in ["alpha", "beta", "gamma"] {
        batch.push((
            name.to_owned(),
            SessionRequest::Update {
                view: "r".into(),
                new_state: Instance::null_model(&sig()).with("R", rel(1, [["a2"], ["a3"]])),
            },
        ));
        batch.push((name.to_owned(), SessionRequest::Read { view: "r".into() }));
    }
    // Failure paths ride along: undo on beta twice (second one empty).
    batch.push(("beta".to_owned(), SessionRequest::Undo));
    batch.push(("beta".to_owned(), SessionRequest::Undo));
    batch.push(("alpha".to_owned(), SessionRequest::Stats));
    batch
}

#[test]
fn dispatch_is_deterministic_across_thread_counts() {
    let run = || {
        let mut svc: Service<SubschemaComponents> = Service::new();
        for name in ["alpha", "beta", "gamma"] {
            svc.add_session(name, open(SessionConfig::default()))
                .unwrap();
        }
        let results = svc.dispatch(demo_batch());
        // Sessions diverge meaningfully afterwards too.
        let states: Vec<Instance> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|n| svc.session(n).unwrap().state().clone())
            .collect();
        (results, states)
    };
    let base = with_threads(1, run);
    // beta's second undo is the only expected failure besides ghost.
    let failures: Vec<usize> = base
        .0
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_err().then_some(i))
        .collect();
    assert_eq!(failures.len(), 2);
    assert!(matches!(
        base.0[failures[0]],
        Err(DispatchError::UnknownSession(_))
    ));
    assert!(matches!(
        base.0[failures[1]],
        Err(DispatchError::Session(SessionError::Catalog(
            CatalogError::EmptyHistory
        )))
    ));
    for threads in [2, 8] {
        let other = with_threads(threads, run);
        assert_eq!(base, other, "threads = {threads}");
    }
}

#[test]
fn sharded_dispatch_is_byte_identical_to_unsharded() {
    let build = || {
        let mut svc: Service<SubschemaComponents> = Service::new();
        for name in ["alpha", "beta", "gamma"] {
            svc.add_session(name, open(SessionConfig::default()))
                .unwrap();
        }
        svc
    };
    let mut baseline = build();
    let expect = baseline.dispatch(demo_batch());
    let expect_states: Vec<Instance> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|n| baseline.session(n).unwrap().state().clone())
        .collect();
    let base_snap = baseline.registry().snapshot();
    let counter = |snap: &compview_obs::MetricsSnapshot, name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
            .unwrap_or(0)
    };

    for shards in [1usize, 2, 8] {
        // Route the batch the way the sharded server does: each request
        // to its session's `split` part, each part dispatching its share
        // in batch order, answers stitched back into batch positions.
        let mut parts = build().split(shards);
        assert_eq!(parts.len(), shards);
        let mut shares: Vec<Vec<(usize, (String, SessionRequest))>> = vec![Vec::new(); shards];
        for (pos, (name, req)) in demo_batch().into_iter().enumerate() {
            shares[shard_of(&name, shards)].push((pos, (name, req)));
        }
        let mut got: Vec<Option<Result<SessionResponse, DispatchError>>> = vec![None; expect.len()];
        for (part, share) in parts.iter_mut().zip(shares) {
            let (positions, batch): (Vec<usize>, Vec<_>) = share.into_iter().unzip();
            for (pos, answer) in positions.into_iter().zip(part.dispatch(batch)) {
                got[pos] = Some(answer);
            }
        }
        let got: Vec<_> = got.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, expect, "shards = {shards}");

        // Folding the shards back yields the same sessions, states, and
        // service-wide session counters as the unsharded run.
        let merged = Service::merge(parts);
        assert_eq!(
            merged.session_names().collect::<Vec<_>>(),
            vec!["alpha", "beta", "gamma"]
        );
        for (name, want) in ["alpha", "beta", "gamma"].iter().zip(&expect_states) {
            assert_eq!(merged.session(name).unwrap().state(), want);
        }
        let snap = merged.registry().snapshot();
        assert_eq!(
            snap.content_ordering(),
            base_snap.content_ordering(),
            "shards = {shards}"
        );
        for name in [
            "session.requests",
            "session.accepted",
            "session.rejected",
            "session.cache.hits",
            "session.cache.misses",
            "session.cache.remaps",
        ] {
            assert_eq!(
                counter(&snap, name),
                counter(&base_snap, name),
                "{name} at shards = {shards}"
            );
        }
    }

    // The routing hash is pinned: stable across runs and platforms.
    assert_eq!(shard_of("alpha", 1), 0);
    assert_eq!(shard_of("", 4), shard_of("", 4));
    for name in ["alpha", "beta", "gamma", "orders"] {
        for shards in [1usize, 2, 4, 8] {
            assert!(shard_of(name, shards) < shards);
        }
    }
}

/// Group commit's honesty rule, inside one batch: two `Always` durable
/// sessions share the batch, and one of them sits on a store whose sync
/// fails at the batch's group flush.  That session's durable answers
/// turn into `Durability` while its reads stand; the other session's
/// answers and WAL bytes equal a fault-free run's, whichever of the two
/// is served first.
#[test]
fn failed_group_fsync_retracts_only_that_sessions_acks() {
    let r = |tuples: &[&str]| {
        Instance::null_model(&sig()).with("R", rel(1, tuples.iter().map(|t| [*t])))
    };
    let steps = [
        SessionRequest::RegisterView {
            name: "r".into(),
            mask: 0b01,
        },
        SessionRequest::Update {
            view: "r".into(),
            new_state: r(&["a2"]),
        },
        SessionRequest::Read { view: "r".into() },
        SessionRequest::Update {
            view: "r".into(),
            new_state: r(&["a1", "a2"]),
        },
        SessionRequest::Undo,
        SessionRequest::Read { view: "r".into() },
    ];
    let batch: Vec<(String, SessionRequest)> = steps
        .iter()
        .flat_map(|req| ["alpha", "beta"].map(|name| (name.to_owned(), req.clone())))
        .collect();
    let run = |faulty: Option<&str>| {
        let mut svc: Service<SubschemaComponents> = Service::new();
        let mut logs = BTreeMap::new();
        for name in ["alpha", "beta"] {
            let (store, bytes) = FaultyStore::new(FaultPlan {
                // Sync #1 writes open_durable's snapshot; #2 is the
                // batch's group flush.
                fail_sync_at: (faulty == Some(name)).then_some(2),
                ..FaultPlan::default()
            });
            let session = Session::open_durable(
                SubschemaComponents::singletons(sig()),
                Schema::unconstrained(sig()),
                &pools(),
                Instance::null_model(&sig()).with("R", rel(1, [["a1"]])),
                SessionConfig::default(),
                Box::new(store),
                SyncPolicy::Always,
            )
            .unwrap();
            svc.add_session(name, session).unwrap();
            logs.insert(name, bytes);
        }
        let answers = svc.dispatch(batch.clone());
        let logs: BTreeMap<&str, Vec<u8>> = logs
            .into_iter()
            .map(|(name, bytes)| (name, bytes.lock().unwrap().clone()))
            .collect();
        (answers, logs)
    };
    let (clean, clean_logs) = run(None);
    assert!(clean.iter().all(Result::is_ok), "{clean:?}");
    for (faulty, healthy) in [("alpha", "beta"), ("beta", "alpha")] {
        let (got, logs) = run(Some(faulty));
        for (i, ((name, req), (g, c))) in batch.iter().zip(got.iter().zip(&clean)).enumerate() {
            if name == faulty && req.is_durable() {
                assert!(
                    matches!(
                        g,
                        Err(DispatchError::Session(SessionError::Durability { .. }))
                    ),
                    "{faulty} faulty, position {i}: {g:?}"
                );
            } else {
                assert_eq!(g, c, "{faulty} faulty, position {i}");
            }
        }
        assert_eq!(logs[healthy], clean_logs[healthy], "{healthy}'s WAL bytes");
    }
}

#[test]
fn service_session_management() {
    let mut svc: Service<SubschemaComponents> = Service::new();
    svc.add_session("one", open(SessionConfig::default()))
        .unwrap();
    assert!(matches!(
        svc.add_session("one", open(SessionConfig::default())),
        Err(compview_session::ServiceError::DuplicateSession(_))
    ));
    assert!(matches!(
        svc.serve("two", SessionRequest::Stats),
        Err(DispatchError::UnknownSession(_))
    ));
    assert_eq!(svc.session_names().collect::<Vec<_>>(), vec!["one"]);
    assert!(svc.session("one").is_some());
    svc.remove_session("one").unwrap();
    assert!(matches!(
        svc.remove_session("one"),
        Err(compview_session::ServiceError::UnknownSession(_))
    ));
}
