//! The view-update session service: multiple independent sessions over
//! evolving tuple pools, each serving typed requests — register a
//! component view, read it, update through it (constant-complement,
//! Thm 3.1.1), edit the pool with incremental state-space maintenance,
//! undo, and snapshot the counters.
//!
//! Run with: `cargo run --example session`

use compview::core::SubschemaComponents;
use compview::logic::Schema;
use compview::relation::{rel, Instance, RelDecl, Signature};
use compview::session::{Service, Session, SessionConfig, SessionRequest, SessionResponse};
use std::collections::BTreeMap;

fn main() {
    // Schema: two unary relations; the subschema components {R} and {S}
    // are complements of one another (Ex 1.3.6 shape).
    let sig = Signature::new([
        RelDecl::new("Suppliers", ["S#"]),
        RelDecl::new("Parts", ["P#"]),
    ]);
    let tuples = |r: &compview::relation::Relation| r.iter().cloned().collect::<Vec<_>>();
    let pools: BTreeMap<_, _> = [
        ("Suppliers".to_owned(), tuples(&rel(1, [["s1"], ["s2"]]))),
        ("Parts".to_owned(), tuples(&rel(1, [["p1"]]))),
    ]
    .into();
    let base = Instance::null_model(&sig).with("Suppliers", rel(1, [["s1"]]));

    let open = || {
        Session::open(
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools,
            base.clone(),
            SessionConfig::default(),
        )
        .expect("base state is legal")
    };

    let mut service = Service::new();
    service.add_session("alice", open()).unwrap();
    service.add_session("bob", open()).unwrap();

    // A batch across sessions: per-session order is preserved, sessions
    // are served one after another in name order, and the results are
    // deterministic at any thread count.
    let batch = vec![
        (
            "alice".to_owned(),
            SessionRequest::RegisterView {
                name: "sup".into(),
                mask: 0b01,
            },
        ),
        (
            "alice".to_owned(),
            SessionRequest::Update {
                view: "sup".into(),
                new_state: Instance::null_model(&sig).with("Suppliers", rel(1, [["s1"], ["s2"]])),
            },
        ),
        (
            "bob".to_owned(),
            SessionRequest::InsertPoolTuple {
                relation: "Parts".into(),
                tuple: rel(1, [["p2"]]).iter().next().unwrap().clone(),
            },
        ),
        (
            "bob".to_owned(),
            // Rejected: the view does not exist in bob's session. The
            // error is typed and bob's state is untouched.
            SessionRequest::Read { view: "sup".into() },
        ),
        ("alice".to_owned(), SessionRequest::Stats),
    ];
    for (who, result) in batch
        .iter()
        .map(|(w, _)| w)
        .zip(service.dispatch(batch.clone()))
    {
        match result {
            Ok(SessionResponse::Stats(snap)) => println!(
                "{who}: stats — {} requests, {} accepted, {} rejected, \
                 {} states, cache {} hits / {} misses",
                snap.counters.requests,
                snap.counters.accepted,
                snap.counters.rejected,
                snap.states,
                snap.counters.cache_hits,
                snap.counters.cache_misses,
            ),
            Ok(SessionResponse::PoolEdited(r)) => println!(
                "{who}: pool edited incrementally, {} -> {} states",
                r.states_before, r.states_after
            ),
            Ok(resp) => println!("{who}: {resp:?}"),
            Err(e) => println!("{who}: rejected — {e}"),
        }
    }

    // Each session evolved independently.
    let alice = service.session("alice").unwrap();
    let bob = service.session("bob").unwrap();
    println!(
        "alice sees {:?}, bob's space grew to {} states",
        alice.state().rel("Suppliers"),
        bob.space().len()
    );
}
