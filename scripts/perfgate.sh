#!/bin/sh
# Same-host performance gate: the internal/htm micro-benchmarks, the
# internal/sim scheduler-handoff benchmarks and the internal/mem cache
# hierarchy benchmarks of the working tree against those of a base
# revision, measured on this host in interleaved pairs, so both sides
# share its CPUs, its load and its Go toolchain.
#
#   sh scripts/perfgate.sh <base-rev>
#
# Exports <base-rev> with git archive into a temporary directory (no
# network needed), compiles both revisions' htm, sim and mem test
# binaries with go test -c, and runs 6 pairs at -test.benchtime
# ${BENCH_GATE_TIME:-0.3s}: odd pairs run the base first, even pairs the
# head. The sim side runs only the YieldHandoff and SpinWait benchmarks
# (YieldFastPath, a few ns, swings by about 20% from run to run), the mem
# side only the Load, Store and L3Hit benchmarks, which drive the cache
# hierarchy (MemoryReadWrite, the flat backing store alone, is left out);
# htm runs all of its benchmarks. cmd/benchcmp then gates each package on its
# own: the median over pairs of the geomean head/base ns/op, at
# ${BENCH_TOL_PCT:-10} percent, and the script exits 1 when any is
# beyond it. The htm benchmarks run with the flight recorder off, so the
# gate also backstops its "disabled path costs nothing" guarantee. About
# 100 s on a 2-vCPU host.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: sh scripts/perfgate.sh <base-rev>" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build internal/htm, internal/sim and internal/mem benchmarks at ${base} and at the working tree =="
mkdir -p "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
for pkg in htm sim mem; do
	(cd "$tmp/src" && go test -c -o "$tmp/$pkg-base.test" "./internal/$pkg")
	go test -c -o "$tmp/$pkg-head.test" "./internal/$pkg"
done
go build -o "$tmp/benchcmp" ./cmd/benchcmp

# run <side> appends one run of that side's htm benchmarks to
# $tmp/htm-<side>.txt, of its sim handoff and spin-wait benchmarks to
# $tmp/sim-<side>.txt and of its mem cache-hierarchy benchmarks to
# $tmp/mem-<side>.txt.
run() {
	(cd internal/htm && "$tmp/htm-$1.test" -test.run '^$' -test.bench . \
		-test.benchtime "${BENCH_GATE_TIME:-0.3s}" -test.timeout 10m) >> "$tmp/htm-$1.txt"
	(cd internal/sim && "$tmp/sim-$1.test" -test.run '^$' -test.bench 'YieldHandoff|SpinWait' \
		-test.benchtime "${BENCH_GATE_TIME:-0.3s}" -test.timeout 10m) >> "$tmp/sim-$1.txt"
	(cd internal/mem && "$tmp/mem-$1.test" -test.run '^$' -test.bench 'Load|Store|L3Hit' \
		-test.benchtime "${BENCH_GATE_TIME:-0.3s}" -test.timeout 10m) >> "$tmp/mem-$1.txt"
}
for pair in 1 2 3 4 5 6; do
	echo "== pair ${pair} =="
	if [ $((pair % 2)) -eq 1 ]; then
		run base
		run head
	else
		run head
		run base
	fi
done

status=0
echo "== compare internal/htm (head/base, tolerance ${BENCH_TOL_PCT:-10}%) =="
"$tmp/benchcmp" -tol-pct "${BENCH_TOL_PCT:-10}" "$tmp/htm-base.txt" "$tmp/htm-head.txt" || status=1
echo "== compare internal/sim handoff and spin wait (head/base, tolerance ${BENCH_TOL_PCT:-10}%) =="
"$tmp/benchcmp" -tol-pct "${BENCH_TOL_PCT:-10}" "$tmp/sim-base.txt" "$tmp/sim-head.txt" || status=1
echo "== compare internal/mem cache hierarchy (head/base, tolerance ${BENCH_TOL_PCT:-10}%) =="
"$tmp/benchcmp" -tol-pct "${BENCH_TOL_PCT:-10}" "$tmp/mem-base.txt" "$tmp/mem-head.txt" || status=1
exit "$status"
