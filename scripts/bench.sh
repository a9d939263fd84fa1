#!/bin/sh
# Benchmark snapshot: run the micro-benchmarks (data structures, memory
# hierarchy, scheduler, transactional hot paths) at full benchtime and
# the per-figure suite once, then emit a BENCH_<date>.json snapshot so
# the repo accumulates a perf trajectory PR over PR.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s  scripts/bench.sh   # longer micro runs (default 1s)
set -e
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%Y-%m-%d).json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "== micro benchmarks (lineset, mem, sim, htm) =="
go test -run '^$' -bench . -benchmem -benchtime "${BENCHTIME:-1s}" \
    ./internal/lineset ./internal/mem ./internal/sim ./internal/htm | tee "$tmp"

echo "== shard scaling (sharded engine vs classic; host-core dependent) =="
go test -run '^$' -bench BenchmarkShardThroughput -benchmem -benchtime 3x \
    ./internal/tm | tee -a "$tmp"
awk -v nproc="$(nproc 2>/dev/null || echo '?')" \
    '$1 ~ /BenchmarkShardThroughput\/shards=1(-[0-9]+)?$/ {s1=$3}
     $1 ~ /BenchmarkShardThroughput\/shards=8(-[0-9]+)?$/ {s8=$3}
     END { if (s1 > 0 && s8 > 0)
             printf "bench: shards=8 vs shards=1 wall-clock speedup %.2fx (bounded by host cores: %s)\n", s1/s8, nproc }' "$tmp"

echo "== stm protocol throughput (tinystm vs tl2 vs norec) =="
# One snapshot line per concurrency-control protocol on the same
# contended STM region: the wall-clock cost of each protocol's metadata
# work (encounter-time lock CAS, commit-time locking, value
# revalidation). Simulated cycle totals differ by design — the tracked
# metric is host ns/op per protocol, PR over PR.
go test -run '^$' -bench BenchmarkSTMProtocolThroughput -benchmem -benchtime 3x \
    ./internal/tm | tee -a "$tmp"

echo "== per-figure benchmarks (one iteration each) =="
go test -run '^$' -bench . -benchmem -benchtime 1x . | tee -a "$tmp"

go run ./cmd/benchjson < "$tmp" > "$out"
echo "bench: snapshot written to $out"
