#!/bin/sh
# Checks which simulator functions no experiment runs against the
# checked-in list scripts/unrun.txt, so that new dead code fails CI.
#
#   sh scripts/unrun.sh
#
# Builds coverage-instrumented rtmlab and rtmreport binaries, runs every
# experiment run of scripts/runs.sh (the set scripts/parity.sh compares)
# and rtmreport on their sidecars (a plain report, -json, a
# classic-vs-sharded -diff and a -relabel -diff across STM protocols),
# and lists each function nothing entered.
# Tests and rtmbench are not in this set: a path only they reach reads as
# unrun. Fails when an unrun function is not in unrun.txt, when a listed
# function now runs, or when a list line gives no reason. Takes about
# 5 minutes on a 2-vCPU host, most of it the instrumented `all`.
#
# unrun.txt holds one function a line: its file, its name, then the
# reason it stays; lines starting with # are comments. Functions are
# named as `go tool cover -func` names them, without the receiver, so
# two methods of one name in one file share a line. For the blocks that
# never ran inside functions that did, keep the coverage profile with
# UNRUN_PROFILE=path and open it with `go tool cover -html path`.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build instrumented rtmlab and rtmreport =="
go build -cover -coverpkg=./... -o "$tmp/rtmlab" ./cmd/rtmlab
go build -cover -coverpkg=./... -o "$tmp/rtmreport" ./cmd/rtmreport
mkdir "$tmp/cov"
GOCOVERDIR="$tmp/cov"
export GOCOVERDIR

. scripts/runs.sh
run_all "$tmp/rtmlab" "$tmp/out"
failed=$(cd "$tmp/out" && grep -lv '^0$' ./*/exit || true)
if [ -n "$failed" ]; then
	echo "unrun: runs exited non-zero: $failed"
	exit 1
fi

echo "== rtmreport on the sidecars =="
report="$tmp/out/classic/metrics/table4.json"
"$tmp/rtmreport" "$report" > /dev/null
"$tmp/rtmreport" -json "$report" > /dev/null
"$tmp/rtmreport" -diff "$report" "$tmp/out/shards2/metrics/table4.json" > /dev/null
"$tmp/rtmreport" -diff -relabel norec=tinystm "$tmp/out/classic/metrics/hybrid.json" \
	"$tmp/out/norec/metrics/hybrid.json" > /dev/null
unset GOCOVERDIR

echo "== compare with scripts/unrun.txt =="
go tool covdata textfmt -i "$tmp/cov" -o "$tmp/cover.out"
if [ -n "${UNRUN_PROFILE:-}" ]; then
	cp "$tmp/cover.out" "$UNRUN_PROFILE"
fi
mod=$(go list -m)
go tool cover -func "$tmp/cover.out" |
	awk -v mod="$mod/" '$NF == "0.0%" { f = $1; sub("^" mod, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	sort -u > "$tmp/unrun"
grep -v '^#' scripts/unrun.txt | grep . > "$tmp/listed" || true
status=0
if awk 'NF < 3' "$tmp/listed" | grep .; then
	echo "unrun: the lines above of scripts/unrun.txt give no reason"
	status=1
fi
awk '{ print $1, $2 }' "$tmp/listed" | sort -u > "$tmp/listed.keys"
if comm -23 "$tmp/unrun" "$tmp/listed.keys" | grep .; then
	echo "unrun: no experiment runs the functions above; delete them, or list each with its reason in scripts/unrun.txt"
	status=1
fi
if comm -13 "$tmp/unrun" "$tmp/listed.keys" | grep .; then
	echo "unrun: the experiments now run the functions above; take them out of scripts/unrun.txt"
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "unrun: $(wc -l < "$tmp/unrun") unrun functions, each listed with its reason"
fi
exit "$status"
