# The experiment runs that scripts/parity.sh compares between revisions
# and scripts/unrun.sh measures coverage over; both source this file.
#
# One run per line: a name, then the rtmlab arguments. `all` runs on the
# classic engine; fig10 table4 table5 claims hybrid at -shards 2; fig10
# hybrid under -stm-protocol tl2 and under norec; fig10 under each of
# those protocols at -shards 2, the only runs that take their sharded
# paths; table4 hybrid with -trace, the only run that stores recorder
# events. `all` alone takes about 96 s on a 2-vCPU host.
runs='classic all
shards2 -shards 2 fig10 table4 table5 claims hybrid
tl2 -stm-protocol tl2 fig10 hybrid
norec -stm-protocol norec fig10 hybrid
tl2-shards2 -shards 2 -stm-protocol tl2 fig10
norec-shards2 -shards 2 -stm-protocol norec fig10
traced table4 hybrid'

# run_all BIN DIR runs every run with the rtmlab binary BIN at -scale test
# -seeds 1. Run NAME leaves its stdout, exit status, -csv tables and
# -metrics sidecars (and, for traced, trace.json) under DIR/NAME, and its
# stderr, which names those paths, in DIR.NAME.stderr.
run_all() {
	echo "$runs" | while read -r name args; do
		echo "== ${name} (${args}) =="
		out="$2/$name"
		mkdir -p "$out"
		if [ "$name" = traced ]; then
			args="-trace $out/trace.json $args"
		fi
		# $args is split on purpose: it is a list of flags and experiments.
		# shellcheck disable=SC2086
		if "$1" -scale test -seeds 1 -csv "$out/csv" -metrics "$out/metrics" \
			$args > "$out/stdout.txt" 2> "$2.$name.stderr"; then
			echo 0 > "$out/exit"
		else
			echo $? > "$out/exit"
		fi
	done
}
