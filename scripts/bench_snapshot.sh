#!/usr/bin/env bash
# Run the headline Criterion targets (chase, partition_lattice,
# translate_scaling, incremental maintenance, session serving, WAL
# append throughput + group commit + recovery latency, wire protocol,
# sharded-dispatcher shard-count sweep, instrumentation overhead
# enabled vs no-op, delta-subscription fan-out + push-vs-poll bytes,
# replication visibility latency + catch-up throughput, topology
# fan-out visibility + chained leader egress, distributed-tracing
# overhead per sampling rate) and
# collect the vendored harness's machine-readable result lines
# ("compview-bench: {...}") into the file named by the one argument.
#
# Usage: scripts/bench_snapshot.sh OUT.json
# The output name is required, so a run never overwrites a committed
# snapshot by default.  A relative name is taken from the repository
# root.
set -euo pipefail

if [ "$#" -ne 1 ] || [ -z "$1" ]; then
    echo "usage: $0 OUT.json" >&2
    exit 2
fi
OUT="$1"
cd "$(dirname "$0")/.."
TARGETS=(chase partition_lattice translate_scaling incremental session wal serve sharded obs subs repl fanout trace)
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

for t in "${TARGETS[@]}"; do
    echo "==> cargo bench -p compview-bench --bench $t"
    cargo bench -p compview-bench --bench "$t" | tee -a "$RAW"
done

{
    echo "["
    grep '^compview-bench: ' "$RAW" | sed 's/^compview-bench: //' | sed '$!s/$/,/'
    echo "]"
} > "$OUT"

echo "wrote $(grep -c '^compview-bench: ' "$RAW") results to $OUT"
