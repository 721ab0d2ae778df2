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
# spinning thread, not two (server.DefaultSpinThreads), a compaction
# job merges, builds and ships on one goroutine beside the request path
# on that P, the builder fills the node cache on that goroutine beside
# gets that read it without a lock, and the value log's lock-free
# sealed reads (a long header's second read among them) race with its
# seals; this runs the request path's, the compactor's, the replicas',
# the tree's, the device's and the log's suites in that configuration
# too.
echo "== go test -race -cpu 1 (request path, compaction, shipping, node cache and log reads on one P)"
go test -race -cpu 1 ./internal/server ./internal/client ./internal/cluster ./internal/lsm ./internal/replica ./internal/btree ./internal/storage ./internal/vlog

# The benchmark drains its cluster at one P too, which only holds while
# a Build-Index backup indexes each flushed segment before it acks the
# flush (a backup that indexed behind a worker goroutine failed
# TestSmoke at one P in 4 of 5 runs). The race run above takes
# ./benchmark at the default P only, so this runs its smoke test three
# times at one.
echo "== go test -cpu 1 -count 3 -run TestSmoke ./benchmark (the benchmark's drain on one P)"
go test -cpu 1 -count 3 -run TestSmoke ./benchmark

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
