#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, and the full test suite.
# Everything runs offline against the vendored shims in shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every test suite and every example or benchmark smoke runs under
# `timeout` with a generous limit: a request that never leaves a client,
# or any other lost wake-up, then fails the gate with exit 124 instead of
# stalling it.
suite_limit=1800
smoke_limit=600

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
timeout "$suite_limit" cargo test -q --workspace

echo "==> cargo test -p compview-session (service + incremental maintenance)"
timeout "$suite_limit" cargo test -q -p compview-session

echo "==> cargo test -p compview-obs (metrics registry, histogram + codec proptests)"
timeout "$suite_limit" cargo test -q -p compview-obs

# Fault-injection sweep: the recovery suite derives its injected-fault
# plans (failing append/sync/truncate points, short-write lengths) from
# COMPVIEW_FAULT_SEED, so CI can rotate seeds and a failure names its own
# reproduction.  Defaults to a fixed seed for run-to-run determinism.
echo "==> recovery fault-injection suite (COMPVIEW_FAULT_SEED=${COMPVIEW_FAULT_SEED:-20260806})"
COMPVIEW_FAULT_SEED="${COMPVIEW_FAULT_SEED:-20260806}" \
    timeout "$suite_limit" cargo test -q -p compview-session --test recovery

# The wire protocol's contract is byte-identity with in-process dispatch;
# the loopback suite proves it at 1, 2, and 8 worker threads, plus
# connection isolation under malformed frames.
echo "==> cargo test -p compview-serve (wire codec + loopback server)"
timeout "$suite_limit" cargo test -q -p compview-serve
timeout "$suite_limit" cargo test -q -p compview-serve --test loopback

# The sharded dispatcher's contract is the same byte-identity at 1, 2,
# and 8 dispatcher shards — responses, per-session WAL files, and
# post-batch-consistent metrics snapshots (proptested random
# interleavings with pipelined probes included).
echo "==> cargo test -p compview-serve --test sharded (sharded dispatcher)"
timeout "$suite_limit" cargo test -q -p compview-serve --test sharded

# The subscription subsystem's contract: the delta stream replayed over
# the subscribe-time image reconstructs a fresh read byte-for-byte, at
# 1/2/8 worker threads x 1/2/8 dispatcher shards (proptested), plus
# slow-consumer cuts, typed errors, and dead-connection cleanup.
echo "==> cargo test -p compview-serve --test subs (delta subscriptions)"
timeout "$suite_limit" cargo test -q -p compview-serve --test subs

# The replication subsystem's contract: every follower ends
# byte-identical to the leader (state, WAL file, Read responses) at the
# same applied sequence — including a 1->4 fan-out and a 3-deep chain
# with a mid-chain node kill — across cut/bit-flipped streams and a
# leader restart, at 1/2/8 worker threads x 1/2 dispatcher shards.
# Promotion after a leader kill accepts writes having lost nothing
# acked, with a downstream replication stream and a live subscriber
# attached; sessions created mid-tail are discovered and mirrored down
# the chain; ReadAt answers at the token or refuses with typed Lagging.
# The fault scenarios derive their cut/flip plans from
# COMPVIEW_FAULT_SEED, same rotation discipline as the recovery suite.
echo "==> cargo test -p compview-serve --test replica (WAL shipping, COMPVIEW_FAULT_SEED=${COMPVIEW_FAULT_SEED:-20260806})"
COMPVIEW_FAULT_SEED="${COMPVIEW_FAULT_SEED:-20260806}" \
    timeout "$suite_limit" cargo test -q -p compview-serve --test replica

# Writers coalesce frames into one socket write and followers apply
# whatever is already buffered as one batch, so a cut or a bit flip can
# land anywhere inside a multi-frame burst or an apply batch.  One seed
# checks one set of placements: run the headline fault scenario under a
# second fixed seed too.
echo "==> replica fault scenario under a second seed (COMPVIEW_FAULT_SEED=20261017)"
COMPVIEW_FAULT_SEED=20261017 \
    timeout "$suite_limit" cargo test -q -p compview-serve --test replica -- --exact \
    follower_converges_byte_identical_under_cuts_flips_and_leader_restart

echo "==> cargo build --example session --example recovery --example serve --benches"
cargo build --example session --example recovery --example serve
cargo build --benches -p compview-bench

# The observability walkthrough doubles as a smoke test: metrics over
# the wire, Prometheus rendering, and the span tracer end to end — the
# traced update's dispatch, WAL append and fsync spans must come back
# through the `Trace` drain.
echo "==> cargo run --example obs (observability smoke)"
obs_out="$(timeout "$smoke_limit" cargo run -q --example obs)"
grep -qF "  session.dispatch " <<< "$obs_out"
grep -qF "  wal.append " <<< "$obs_out"
grep -qF "  wal.fsync " <<< "$obs_out"

# The subscription walkthrough doubles as a push-path smoke test: a live
# delta stream over TCP must deliver all three updates in sequence.
echo "==> cargo run --example serve -- --subscribe orders/sup (delta stream smoke)"
subscribe_out="$(timeout "$smoke_limit" cargo run -q --example serve -- --subscribe orders/sup)"
grep -q "event seq 3" <<< "$subscribe_out"

# The replication walkthrough doubles as a cross-process topology smoke
# test: a held leader, two direct followers (one held open as an
# upstream), and a third follower chained off the held one — all over
# real loopback TCP.  Every follower must serve the leader's data and
# refuse a write with the typed NotLeader answer; the *chained*
# follower's refusal must name the root leader, not its upstream
# (DESIGN.md §15).  (The in-process failover path — write leader, read
# follower, kill leader, promote, write promoted — is the
# `promotion_after_leader_kill` case in the replica suite above.)
# The held nodes run with --trace 1 so the tracing and topology smoke
# below can observe the same chain end to end (DESIGN.md §16).
echo "==> cargo run --example serve -- --follow (leader + 2 followers + chained follower smoke)"
leader_out="$(mktemp)"
timeout "$smoke_limit" cargo run -q --example serve -- --trace 1 --hold 60 > "$leader_out" &
leader_pid=$!
leader_addr=""
for _ in $(seq 1 100); do
    leader_addr="$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$leader_out")"
    [ -n "$leader_addr" ] && break
    sleep 0.1
done
[ -n "$leader_addr" ] || { echo "leader never came up"; kill "$leader_pid"; exit 1; }

# Follower 1: plain follow, runs to completion — untraced on purpose, so
# a tracing-unaware peer exercises the untagged-frame compatibility path
# against a tracing leader.
follow_out="$(timeout "$smoke_limit" cargo run -q --example serve -- --follow "$leader_addr")"
grep -q "replicated view 'sup' holds 2 tuples" <<< "$follow_out"
grep -q "write refused: not the leader — retry against $leader_addr" <<< "$follow_out"

# Follower 2: held open so a third process can chain off it.
f2_out="$(mktemp)"
timeout "$smoke_limit" cargo run -q --example serve -- --trace 1 --follow "$leader_addr" --hold 60 > "$f2_out" &
f2_pid=$!
f2_addr=""
for _ in $(seq 1 100); do
    f2_addr="$(sed -n 's/.*serving reads on \([0-9.:]*\)$/\1/p' "$f2_out")"
    [ -n "$f2_addr" ] && break
    sleep 0.1
done
[ -n "$f2_addr" ] || { echo "follower 2 never came up"; kill "$leader_pid" "$f2_pid"; exit 1; }

# Chained follower: tails follower 2, but its refusal and root hint must
# name the ROOT leader.  Held open too, completing a live 3-node chain.
f3_out="$(mktemp)"
timeout "$smoke_limit" cargo run -q --example serve -- --trace 1 --follow "$f2_addr" --hold 60 > "$f3_out" &
f3_pid=$!
f3_addr=""
for _ in $(seq 1 100); do
    f3_addr="$(sed -n 's/.*serving reads on \([0-9.:]*\)$/\1/p' "$f3_out")"
    [ -n "$f3_addr" ] && break
    sleep 0.1
done
[ -n "$f3_addr" ] || { echo "chained follower never came up"; kill "$leader_pid" "$f2_pid" "$f3_pid"; exit 1; }
grep -q "replicated view 'sup' holds 2 tuples" "$f3_out"
grep -q "following $f2_addr (root leader $leader_addr)" "$f3_out"
grep -q "write refused: not the leader — retry against $leader_addr" "$f3_out"

# Topology introspection: walking the chain from the leaf renders the
# whole three-node tree, root first, with per-session positions.
echo "==> cargo run --example serve -- --topology (3-node chain rendering)"
topo_out="$(timeout "$smoke_limit" cargo run -q --example serve -- --topology "$f3_addr")"
grep -q "replication topology from $f3_addr (3 node(s))" <<< "$topo_out"
grep -q "$leader_addr  \[root\]" <<< "$topo_out"
grep -q "└─ $f2_addr  \[follower\]" <<< "$topo_out"
grep -q "└─ $f3_addr  \[follower\]" <<< "$topo_out"

# Distributed tracing: one traced update against the root must assemble
# into a single cross-process span tree whose spans name the client and
# all three server nodes — proof the context propagated client → leader
# shard → WAL → follower → chained follower (DESIGN.md §16).
echo "==> cargo run --example serve -- --trace-update (cross-process span tree)"
trace_out="$(timeout "$smoke_limit" cargo run -q --example serve -- --trace-update "$f3_addr")"
kill "$f3_pid" "$f2_pid" "$leader_pid" 2>/dev/null || true
wait "$f3_pid" "$f2_pid" "$leader_pid" 2>/dev/null || true
rm -f "$leader_out" "$f2_out" "$f3_out"
grep -q "across 4 node(s): client" <<< "$trace_out"
grep -q "client.send @ client" <<< "$trace_out"
grep -q "shard.queue @ $leader_addr" <<< "$trace_out"
grep -q "wal.append @ $leader_addr" <<< "$trace_out"
grep -q "wal.fsync @ $leader_addr" <<< "$trace_out"
grep -q "repl.ship @ $leader_addr" <<< "$trace_out"
grep -q "repl.apply @ $f2_addr" <<< "$trace_out"
grep -q "repl.ship @ $f2_addr" <<< "$trace_out"
grep -q "repl.apply @ $f3_addr" <<< "$trace_out"

# Benchmark correctness smoke: a short run of every perfbench workload
# must check out.  Each run replays its traffic on a shadow service and
# compares the final Read bytes on the leader and the follower, and the
# subscribers' delta streams, against it — so the leader, follower and
# subscriber paths are byte-checked on every CI run.  No timing is
# asserted.
for workload in durable_write replicated_mem many_sessions; do
    echo "==> perfbench --workload $workload --seconds 2 (correctness smoke)"
    result="$(timeout "$smoke_limit" cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    if ! grep -q '"correct": true' <<< "$result" || ! grep -q '"failed": 0,' <<< "$result"; then
        echo "perfbench $workload did not check out: $result"
        exit 1
    fi
done

# The traced run also drives the benchmark's in-process twin sessions
# through the session API: `invalidate_cache` followed by a cold `Read`,
# pool edits that re-check every verified mask, and the
# `session.cache.*` counter deltas.  Same correctness check.
echo "==> perfbench --workload many_sessions --seconds 2 --trace 1 (traced correctness smoke)"
result="$(timeout "$smoke_limit" cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload many_sessions --seed 1 --seconds 2 --trace 1 | tail -n 1)"
if ! grep -q '"correct": true' <<< "$result" || ! grep -q '"failed": 0,' <<< "$result"; then
    echo "perfbench many_sessions --trace 1 did not check out: $result"
    exit 1
fi

echo "CI OK"
