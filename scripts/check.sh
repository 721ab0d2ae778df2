#!/bin/sh
# check.sh — the repository's tier-1 gate, run by `make check` and CI.
# Fails on unformatted files, vet findings, build errors, any test
# failure under the race detector, a fuzz target that crashes within its
# few seconds, a broken observability surface, or an experiment gate
# that does not hold (every suite already ran under
# -race, so no stage re-runs tests by name).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The benchmark runs the cluster on one P, where a server starts one
# spinning thread, not two (server.DefaultSpinThreads), and a compaction
# job's merge-and-build goroutine and its ship goroutine share that P;
# this runs the request path's, the compactor's and the replicas' suites
# in that configuration too.
echo "== go test -race -cpu 1 (request path, compaction and shipping on one P)"
go test -race -cpu 1 ./internal/server ./internal/client ./internal/cluster ./internal/lsm ./internal/replica

echo "== fuzz smoke"
make fuzz-smoke

# obs-smoke boots a real tebis-server with -metrics and -replica and
# asserts the whole observability surface (Prometheus exposition, Chrome
# trace export, expvar) works end to end against live compactions.
echo "== obs smoke"
go run ./scripts/obssmoke

# The measured gates. Each experiment declares its budgets in Go beside
# the code that measures them (EXPERIMENTS.md has the table); tebis-bench
# evaluates them, re-runs once when only wall-clock gates were missed,
# and exits non-zero on a miss. Reports land in .bench_build/gates.
echo "== experiment gates"
make gates

echo "OK"
