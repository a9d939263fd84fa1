#!/bin/sh
# Static analysis for local development: go vet plus the project's own
# rtmvet passes (determinism, hot-path allocation, recorder guards,
# deterministic seeding, transaction safety, mid-epoch freeze safety). Arguments are package patterns; defaults to
# the whole module. Examples:
#
#   scripts/lint.sh                      # everything
#   scripts/lint.sh ./internal/htm       # one package
#   scripts/lint.sh -json ./...          # machine-readable findings
#
# rtmvet flags (-json, -fix, -passes, -tags, -list) pass through.
set -e
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- ./...
fi

go vet ./...

# godoc smoke: the core library packages must keep resolvable package
# documentation — `go doc` fails if a package comment is lost or a
# doc-breaking parse error slips in.
for pkg in ./internal/stm ./internal/tm ./internal/lineset; do
    go doc "$pkg" > /dev/null
done

# Transaction-safety gate: run the interprocedural passes explicitly so
# they fire even when the caller narrows "$@" with -passes.
go run ./cmd/rtmvet -passes txnsafe,shardfreeze ./...

exec go run ./cmd/rtmvet "$@"
