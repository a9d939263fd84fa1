#!/bin/sh
# Same-host performance gate: the internal/htm micro-benchmarks of the
# working tree against those of a base revision, measured on this host
# in interleaved pairs, so both sides share its CPUs, its load and its
# Go toolchain.
#
#   sh scripts/perfgate.sh <base-rev>
#
# Exports <base-rev> with git archive into a temporary directory (no
# network needed), compiles both revisions' htm test binaries with
# go test -c, and runs 6 pairs at -test.benchtime ${BENCH_GATE_TIME:-0.3s}:
# odd pairs run the base first, even pairs the head. cmd/benchcmp then
# gates the median over pairs of the geomean head/base ns/op at
# ${BENCH_TOL_PCT:-10} percent and exits 1 beyond it. The htm benchmarks
# run with the flight recorder off, so the gate also backstops its
# "disabled path costs nothing" guarantee. About 50 s on a 2-vCPU host.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: sh scripts/perfgate.sh <base-rev>" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build internal/htm benchmarks at ${base} and at the working tree =="
mkdir -p "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go test -c -o "$tmp/htm-base.test" ./internal/htm)
go test -c -o "$tmp/htm-head.test" ./internal/htm
go build -o "$tmp/benchcmp" ./cmd/benchcmp

# run <side> appends one run of that side's benchmarks to $tmp/<side>.txt.
run() {
	(cd internal/htm && "$tmp/htm-$1.test" -test.run '^$' -test.bench . \
		-test.benchtime "${BENCH_GATE_TIME:-0.3s}" -test.timeout 10m) >> "$tmp/$1.txt"
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

echo "== compare (head/base, tolerance ${BENCH_TOL_PCT:-10}%) =="
"$tmp/benchcmp" -tol-pct "${BENCH_TOL_PCT:-10}" "$tmp/base.txt" "$tmp/head.txt"
