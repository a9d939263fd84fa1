#!/bin/sh
# Reproduce the paper end to end: tests and the full experiment suite
# with CSV export. "small" scale takes tens of minutes; use "-scale full"
# (hours) for the closest match to the paper's inputs.
set -e
cd "$(dirname "$0")/.."

echo "== ci preflight =="
sh scripts/ci.sh | tee test_output.txt

echo "== full experiment suite =="
go run ./cmd/rtmlab -scale "${SCALE:-small}" -seeds "${SEEDS:-3}" -csv results all | tee results/all.txt

echo "done: see results/ and EXPERIMENTS.md"
