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
# The runs are the list in scripts/runs.sh, which scripts/unrun.sh runs
# too.
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

. scripts/runs.sh
for side in base head; do
	echo "== ${side} =="
	run_all "$tmp/rtmlab-$side" "$tmp/$side"
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
