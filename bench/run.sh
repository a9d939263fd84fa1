#!/usr/bin/env bash
# rtmbench: rtmlab's end-to-end benchmark.
#
#   bench/run.sh                       full set: build, check phase, each
#                                      workload untraced, then each traced
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one workload; the last output line is
#                                      the JSON result
#   bench/run.sh compare A/ B/         compare two sets of result files
#
# Any arguments go to the benchmark binary unchanged. BENCH_OUT picks the
# result directory of a full set (default bench/out). Everything the build
# writes stays in .bench_build/ at the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off
bin=$build/rtmbench
(cd bench && go build -o "$bin" .)

if [ $# -gt 0 ]; then
	exec "$bin" "$@"
fi

out=${BENCH_OUT:-bench/out}
workloads="stamp-rtm stamp-tinystm stamp-rtm-sharded eigen-traced"
status=0

echo "== check phase: paper claims at Test scale =="
"$bin" check || status=1

for w in $workloads; do
	echo "== $w =="
	"$bin" -workload "$w" -out "$out" || status=1
done

# The traced run: three traced rounds per workload, each after an
# untraced one, with spans and a CPU profile.
for w in $workloads; do
	echo "== $w (traced) =="
	"$bin" -workload "$w" -seconds 0 -trace 1 -out "$out" || status=1
done

if [ "$status" -ne 0 ]; then
	echo "rtmbench: FAILED (see above)" >&2
fi
exit "$status"
