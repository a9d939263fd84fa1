#!/bin/sh
# Byte-identity check between a base revision and the working tree — the
# acceptance test for a change that must not move any simulated output
# (refactors, simplifications, host-side performance work).
#
#   sh scripts/parity.sh <base-rev>
#
# Builds rtmlab from <base-rev> (exported with git archive into a
# temporary directory; no network needed) and from the working tree,
# runs the same experiment set with both at -scale test -seeds 1, and
# compares stdout, exit status, the -csv tables, the -metrics sidecars
# and one -trace file byte for byte. The *.timing.json sidecars hold host
# wall-clock and are the one output skipped. Exits 0 when everything
# matches, 1 otherwise.
#
# The set: `all` on the classic engine; fig10 table4 table5 claims hybrid
# at -shards 2; fig10 hybrid under -stm-protocol tl2 and under norec;
# table4 hybrid with -trace, the only run that stores recorder events.
# `all` alone takes about 96 s per revision on a 2-vCPU host.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: sh scripts/parity.sh <base-rev>" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build rtmlab at ${base} and at the working tree =="
mkdir -p "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/rtmlab-base" ./cmd/rtmlab)
go build -o "$tmp/rtmlab-head" ./cmd/rtmlab

# One run per line: a name, then the rtmlab arguments.
runs='classic all
shards2 -shards 2 fig10 table4 table5 claims hybrid
tl2 -stm-protocol tl2 fig10 hybrid
norec -stm-protocol norec fig10 hybrid
traced table4 hybrid'

for side in base head; do
	echo "$runs" | while read -r name args; do
		echo "== ${side}: ${name} (${args}) =="
		out="$tmp/$side/$name"
		mkdir -p "$out"
		if [ "$name" = traced ]; then
			args="-trace $out/trace.json $args"
		fi
		# $args is split on purpose: it is a list of flags and experiments.
		# shellcheck disable=SC2086
		if "$tmp/rtmlab-$side" -scale test -seeds 1 -csv "$out/csv" -metrics "$out/metrics" \
			$args > "$out/stdout.txt" 2> "$tmp/$side.$name.stderr"; then
			echo 0 > "$out/exit"
		else
			echo $? > "$out/exit"
		fi
	done
done

echo "== compare =="
(cd "$tmp/base" && find . -type f ! -name '*.timing.json' | sort) > "$tmp/base.files"
(cd "$tmp/head" && find . -type f ! -name '*.timing.json' | sort) > "$tmp/head.files"
status=0
if ! cmp -s "$tmp/base.files" "$tmp/head.files"; then
	echo "parity: the two revisions wrote different sets of files"
	diff "$tmp/base.files" "$tmp/head.files" || true
	status=1
fi
compared=0
while read -r f; do
	[ -f "$tmp/head/$f" ] || continue
	compared=$((compared + 1))
	if ! cmp -s "$tmp/base/$f" "$tmp/head/$f"; then
		echo "parity: differs: ${f#./}"
		status=1
	fi
done < "$tmp/base.files"

if [ "$status" -eq 0 ]; then
	echo "parity: ${compared} files byte-identical"
fi
exit "$status"
