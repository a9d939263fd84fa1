#!/bin/sh
# CI preflight: fast correctness gate run before any expensive experiment
# sweep. Covers vet, build, the full unit-test suite, a race-detector
# pass over the packages with real concurrency (the experiment runner and
# everything an experiment point touches concurrently) and the list of
# functions no experiment runs (scripts/unrun.sh).
set -e
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every tracked Go file must be gofmt-clean, except the rtmvet fixtures
# under testdata/: their diagnostics are pinned by line and column.
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists:"
    echo "$unformatted"
    exit 1
fi

echo "== rtmvet (project invariants) =="
# Project-specific static analysis: determinism in simulator packages,
# allocation-free //rtm:hot functions, nil-guarded recorder calls,
# deterministic RNG seeding, transaction safety of atomic bodies and
# mid-epoch freeze safety. Each finding names its pass ([txnsafe],
# [shardfreeze], ...). See scripts/lint.sh for local runs.
go run ./cmd/rtmvet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (all packages) =="
go test -race -short -timeout 10m ./...

echo "== benchmark smoke (one iteration each) =="
# Keeps every package's micro-benchmarks compiling and runnable so they
# can't rot; timings come from scripts/perfgate.sh (htm, the sim handoff
# and mem, below) and from rtmbench (bench/, end to end).
go test -run '^$' -bench . -benchtime 1x ./...

echo "== flight-recorder smoke (traced experiment + validation) =="
# One tiny traced experiment end to end: the trace must be valid JSON
# with the structure Perfetto needs, and the metrics sidecar must be
# valid JSON too (tracecheck exits non-zero otherwise).
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/rtmlab -scale test -seeds 1 -trace "$obsdir/trace.json" -metrics "$obsdir/metrics" table4 > /dev/null
go run ./cmd/tracecheck -metrics "$obsdir/metrics/table4.json" "$obsdir/trace.json"
# Recorders store events only under -trace; without it they only count
# them, so the sidecars (host-timing ones aside) must not change.
go run ./cmd/rtmlab -scale test -seeds 1 -metrics "$obsdir/metrics-untraced" table4 > /dev/null
(cd "$obsdir/metrics" && ls | grep -v '\.timing\.json$') > "$obsdir/traced.files"
(cd "$obsdir/metrics-untraced" && ls | grep -v '\.timing\.json$') > "$obsdir/untraced.files"
cmp "$obsdir/traced.files" "$obsdir/untraced.files"
while read -r f; do
    cmp "$obsdir/metrics/$f" "$obsdir/metrics-untraced/$f"
done < "$obsdir/traced.files"

echo "== sharded engine smoke (traced -shards 4 + output invariance) =="
# The same experiment on the epoch-synchronized sharded engine: the trace
# must still validate, the metrics sidecar must carry the derived
# sharded-engine counters (epochs, parks/epoch, serial fraction —
# tracecheck -sharded), and the experiment tables must be byte-identical
# across shard counts (the engine's core guarantee; only the
# .timing.json sidecar may differ). -shards 2 is rtmbench's setting:
# the coordinator runs shard 0 and wakes one worker. -shards -1 (auto)
# is resolved to a worker count by rtmlab from the host's GOMAXPROCS.
go run ./cmd/rtmlab -scale test -seeds 1 -shards 4 -trace "$obsdir/trace4.json" -metrics "$obsdir/metrics4" table4 > "$obsdir/out4.txt"
go run ./cmd/tracecheck -metrics "$obsdir/metrics4/table4.json" -sharded "$obsdir/trace4.json"
go run ./cmd/rtmlab -scale test -seeds 1 -shards 1 -j 1 table4 > "$obsdir/out1.txt"
go run ./cmd/rtmlab -scale test -seeds 1 -shards 2 -j 1 table4 > "$obsdir/out2.txt"
go run ./cmd/rtmlab -scale test -seeds 1 -shards -1 -j 1 table4 > "$obsdir/outauto.txt"
cmp "$obsdir/out1.txt" "$obsdir/out4.txt"
cmp "$obsdir/out1.txt" "$obsdir/out2.txt"
cmp "$obsdir/out1.txt" "$obsdir/outauto.txt"
# The ablations build their machines from the same options, so the retry
# sweep is shard-count invariant too (TestAblationRetriesHonoursShards
# also checks that it differs from the classic engine's).
go run ./cmd/rtmlab -scale test -seeds 1 -shards 1 ablation-retries > "$obsdir/retries1.txt"
go run ./cmd/rtmlab -scale test -seeds 1 -shards 2 ablation-retries > "$obsdir/retries2.txt"
cmp "$obsdir/retries1.txt" "$obsdir/retries2.txt"

echo "== flag validation =="
# -epoch-cycles configures the sharded engine only; without -shards it
# must be rejected rather than silently ignored.
if go run ./cmd/rtmlab -scale test -seeds 1 -epoch-cycles 999 table4 > /dev/null 2>&1; then
    echo "rtmlab accepted -epoch-cycles without -shards"
    exit 1
fi
# -shards below -1, a negative -trace-limit and -seeds below 1 have no
# meaning; they must exit 2 rather than silently fall back to auto,
# unbounded or one seed.
for bad in "-shards -2" "-trace-limit -1" "-seeds 0"; do
    # $bad is split on purpose: it is a flag and its value.
    # shellcheck disable=SC2086
    if go run ./cmd/rtmlab -scale test -seeds 1 $bad table4 > /dev/null 2>&1; then
        echo "rtmlab accepted $bad"
        exit 1
    fi
done
# A failed output exits 1 but still stops the CPU profile, so the
# profile stays readable.
go build -o "$obsdir/rtmlab" ./cmd/rtmlab
st=0
"$obsdir/rtmlab" -scale test -seeds 1 -cpuprofile "$obsdir/c.pprof" \
    -trace "$obsdir/missing-dir/t.json" table4 > /dev/null 2>&1 || st=$?
if [ "$st" -ne 1 ]; then
    echo "rtmlab exited $st on an unwritable -trace path, want 1"
    exit 1
fi
go tool pprof -top "$obsdir/c.pprof" > /dev/null
# An unknown experiment id is rejected before any experiment runs, so
# fig1 must print nothing.
if go run ./cmd/rtmlab -scale test -seeds 1 fig1 bogus > "$obsdir/bogus.txt" 2>/dev/null; then
    echo "rtmlab accepted the experiment id bogus"
    exit 1
fi
if [ -s "$obsdir/bogus.txt" ]; then
    echo "rtmlab ran fig1 before rejecting the experiment id bogus"
    exit 1
fi

echo "== stm protocol smoke (tinystm/tl2/norec, traced point each) =="
# One traced STM-exercising point per -stm-protocol setting: the trace
# and metrics sidecar must validate for every protocol, and each setting
# is its own byte-identity class across -j (shard invariance per
# protocol is pinned by TestProtocolMatrixDeterminism). The hybrid study
# covers both resolution paths: the STM backend and the hybrid fallback.
for proto in tinystm tl2 norec; do
    go run ./cmd/rtmlab -scale test -seeds 1 -j 1 -stm-protocol "$proto" \
        -trace "$obsdir/trace-$proto.json" -metrics "$obsdir/metrics-$proto" \
        hybrid > "$obsdir/hybrid-$proto-j1.txt"
    go run ./cmd/tracecheck -metrics "$obsdir/metrics-$proto/hybrid.json" "$obsdir/trace-$proto.json"
    go run ./cmd/rtmlab -scale test -seeds 1 -j 8 -stm-protocol "$proto" \
        hybrid > "$obsdir/hybrid-$proto-j8.txt"
    cmp "$obsdir/hybrid-$proto-j1.txt" "$obsdir/hybrid-$proto-j8.txt"
done

echo "== rtmreport smoke (causal report + cross-engine diff gate) =="
# The causal report must render from the sharded sidecar produced above,
# and the run-diff observatory must verify the cross-engine invariant:
# the classic and sharded runs of table4 above time threads differently
# but execute the same atomic blocks, so they agree on every semantic
# metric (committed atomic blocks, per-site commits) and differ only in
# timing-derived metrics. -same-commits turns a semantic drift into a
# non-zero exit.
go run ./cmd/rtmreport "$obsdir/metrics4/table4.json" > /dev/null
go run ./cmd/rtmreport -json "$obsdir/metrics4/table4.json" > /dev/null
go run ./cmd/rtmreport -diff -same-commits "$obsdir/metrics/table4.json" "$obsdir/metrics4/table4.json" > /dev/null

echo "== unrun functions (scripts/unrun.sh) =="
# Every function that no experiment run of scripts/runs.sh enters must be
# listed, with the reason it stays, in scripts/unrun.txt; new dead code,
# or a listed function that now runs, fails here. The instrumented runs
# take about 4 minutes on a 2-vCPU host.
sh scripts/unrun.sh

echo "== disabled-recorder overhead, handoff and cache gate (htm, sim, mem vs the parent commit, same host) =="
# The flight recorder must cost nothing when off: every site is a nil
# check (structurally enforced by rtmvet obsguard + the zero-alloc
# tests; this gate is the wall-clock backstop). perfgate.sh runs the
# htm micro-benchmarks, the sim YieldHandoff benchmarks and the mem
# cache-hierarchy benchmarks of the parent commit and of the working
# tree in interleaved pairs on this host and fails when any package's
# median pair geomean ns/op ratio exceeds BENCH_TOL_PCT (default 10%). The geomean, not each
# benchmark, is gated: on shared-vCPU hosts single benchmarks swing
# ±15-40% between identical-code runs while the geomean holds.
sh scripts/perfgate.sh HEAD~1

echo "ci: all checks passed"
