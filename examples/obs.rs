//! Observability walkthrough: metrics and tracing end to end.
//!
//! A durable service (with automatic checkpointing) runs behind the TCP
//! server with every traced request sampled; a client pipelines a
//! workload and one traced update, then asks for the service-wide
//! metrics snapshot **over the wire** — the `Metrics` request rides the
//! same CRC-gated frames as everything else — and drains the server's
//! span buffer with `Trace`.  The example renders the metrics in
//! Prometheus text format and prints the traced update's spans, one row
//! per label (DESIGN.md §11).
//!
//! Run with: `cargo run --example obs`

use compview::core::SubschemaComponents;
use compview::logic::Schema;
use compview::obs::{DistTracer, TraceCtx};
use compview::relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview::serve::{Client, ServeOptions, Server};
use compview::session::{CheckpointPolicy, Service, SessionConfig, SessionRequest, SyncPolicy};
use std::collections::BTreeMap;

fn main() {
    let dir = std::env::temp_dir().join(format!("compview-obs-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let sig = Signature::new([
        RelDecl::new("Suppliers", ["S#"]),
        RelDecl::new("Parts", ["P#"]),
    ]);
    let pools: BTreeMap<String, Vec<Tuple>> = [
        (
            "Suppliers".to_owned(),
            vec![
                Tuple::new([v("s1")]),
                Tuple::new([v("s2")]),
                Tuple::new([v("s3")]),
            ],
        ),
        ("Parts".to_owned(), vec![Tuple::new([v("p1")])]),
    ]
    .into();
    let base = Instance::null_model(&sig).with("Suppliers", rel(1, [["s1"]]));

    // 1. A service (its registry is live by default) hosting one durable
    //    session that compacts its own log every 8 records.
    let mut service = Service::new();
    let config = SessionConfig {
        checkpoint: CheckpointPolicy {
            max_records: 8,
            max_log_bytes: 0,
        },
        ..SessionConfig::default()
    };
    service
        .create_durable_session(
            &dir,
            "orders",
            SubschemaComponents::singletons(sig.clone()),
            Schema::unconstrained(sig.clone()),
            &pools,
            base,
            config,
            SyncPolicy::Always,
        )
        .unwrap();

    // 2. Serve a pipelined workload over TCP, recording the spans of
    //    every traced request.
    let options = ServeOptions {
        trace_sample: 1,
        ..ServeOptions::default()
    };
    let server = Server::bind_with("127.0.0.1:0", service, options).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .send(
            "orders",
            &SessionRequest::RegisterView {
                name: "sup".into(),
                mask: 0b01,
            },
        )
        .unwrap();
    let mut sent = 1;
    for round in 0..6 {
        let tuples: Vec<[&str; 1]> = if round % 2 == 0 {
            vec![["s1"], ["s2"]]
        } else {
            vec![["s1"], ["s3"]]
        };
        client
            .send(
                "orders",
                &SessionRequest::Update {
                    view: "sup".into(),
                    new_state: Instance::null_model(&sig).with("Suppliers", rel(1, tuples)),
                },
            )
            .unwrap();
        client
            .send("orders", &SessionRequest::Read { view: "sup".into() })
            .unwrap();
        sent += 2;
    }
    // 3. One more update, carrying a trace context: the server records
    //    its shard-queue wait, dispatch, WAL append and fsync as spans.
    let ctx = TraceCtx {
        trace_id: DistTracer::new().new_trace_id(),
        parent_span: 0,
    };
    client
        .send_traced(
            "orders",
            &SessionRequest::Update {
                view: "sup".into(),
                new_state: Instance::null_model(&sig).with("Suppliers", rel(1, [["s2"]])),
            },
            ctx,
        )
        .unwrap();
    sent += 1;
    for _ in 0..sent {
        client.recv().unwrap().unwrap();
    }

    // 4. The metrics snapshot, fetched over the wire like any request.
    let snapshot = client.metrics().unwrap();
    println!("=== metrics over the wire (Prometheus text format) ===");
    print!("{}", snapshot.render_text());

    // 5. The span buffer, drained over the wire: the traced update's
    //    spans, one row per label.
    let trace = client.trace().unwrap();
    let mut labels: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in trace.spans.iter().filter(|s| s.trace_id == ctx.trace_id) {
        let row = labels.entry(&span.label).or_default();
        row.0 += 1;
        row.1 += span.dur_ns;
    }
    println!(
        "=== trace {:016x} on {}: {} label(s) ===",
        ctx.trace_id,
        trace.node,
        labels.len()
    );
    for (label, (count, total_ns)) in &labels {
        println!("  {label:<20} x{count:<4} {total_ns} ns total");
    }
    drop(client);
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}
