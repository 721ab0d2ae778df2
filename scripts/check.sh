#!/bin/sh
# check.sh — the repository's tier-1 gate, run by `make check` and CI.
# Fails on unformatted files, vet findings, build errors, any test
# failure under the race detector, or a missed gate in the stages that
# boot or measure something (every suite already ran under -race, so no
# stage re-runs tests by name).
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

# obs-smoke boots a real tebis-server with -metrics and -replica and
# asserts the whole observability surface (Prometheus exposition, Chrome
# trace export, expvar) works end to end against live compactions.
echo "== obs smoke"
go run ./scripts/obssmoke

# figures-smoke runs the paper-figure harness at a tiny scale and
# asserts it emits BENCH_figures.json plus the per-figure CSVs,
# each run carrying the >= 20 time-series samples the harness
# guarantees.
echo "== figures smoke"
figdir=$(mktemp -d)
go run ./cmd/tebis-bench -experiment figures -records 3000 -ops 1500 -l0 256 \
    -out-dir "$figdir" >/dev/null
for f in BENCH_figures.json BENCH_fig6_throughput.csv \
         BENCH_fig7_amplification.csv BENCH_fig8_latency.csv \
         BENCH_fig10_netamp.csv; do
    if [ ! -s "$figdir/$f" ]; then
        echo "figures smoke: missing $f" >&2
        exit 1
    fi
done
awk '/"samples":/ { v=$2; gsub(/[^0-9]/, "", v); if (v+0 < 20) {
        print "figures smoke: a run has " v " samples (< 20)" > "/dev/stderr"; exit 1 } }' \
    "$figdir/BENCH_figures.json"
# Fig. 10 acceptance: with the ship codec on (the default), index
# shipping may inflate replication network by at most 1.1x over log
# replication alone.
netamp=$(sed -n 's/.*"net_amp_ratio": \([0-9.eE+-]*\).*/\1/p' "$figdir/BENCH_figures.json")
if [ -z "$netamp" ]; then
    echo "figures smoke: no net_amp_ratio in report" >&2
    exit 1
fi
awk -v r="$netamp" 'BEGIN { if (r + 0 > 1.1) {
    print "figures smoke: net-amp ratio " r " exceeds the 1.1x budget" > "/dev/stderr"; exit 1 } }'
echo "   fig10 net-amp ratio: ${netamp}x"
rm -rf "$figdir"

# The observability overhead gate: the instrumented hot path (registry
# scraping + request tracing at the default sample rate) must cost at
# most 5% of offered-load throughput versus instrumentation off.
echo "== observability overhead gate"
obsdir=$(mktemp -d)
go run ./cmd/tebis-bench -experiment observability -quick -out-dir "$obsdir" >/dev/null
overhead=$(sed -n 's/.*"overhead_offered_load_percent": \([0-9.eE+-]*\).*/\1/p' \
    "$obsdir/BENCH_observability.json")
if [ -z "$overhead" ]; then
    echo "observability gate: no overhead_offered_load_percent in report" >&2
    exit 1
fi
awk -v o="$overhead" 'BEGIN { if (o + 0 > 5) {
    print "observability overhead " o "% exceeds the 5% budget" > "/dev/stderr"; exit 1 } }'
echo "   offered-load overhead: ${overhead}%"
rm -rf "$obsdir"

# tail-smoke runs the two-tenant flash-burst tail experiment and gates
# on zero lost acks, <= 5% observability overhead, the adaptive
# admission controller holding the victim's burst p99 within 3x its
# pre-burst baseline, and resolvable stage exemplars (DESIGN.md §11).
echo "== tail smoke"
make tail-smoke

# The overwrite-endurance gate (DESIGN.md §12): under a 10x overwrite
# workload, online GC must hold steady-state log occupancy within 2x the
# live data while costing at most 10% of offered-load throughput versus
# GC off.
echo "== gc endurance gate"
gcdir=$(mktemp -d)
go run ./cmd/tebis-bench -experiment gc -quick -out-dir "$gcdir" >/dev/null
if [ ! -s "$gcdir/BENCH_fig12_space.csv" ]; then
    echo "gc gate: missing BENCH_fig12_space.csv" >&2
    exit 1
fi
amp=$(sed -n 's/.*"space_amp": \([0-9.eE+-]*\).*/\1/p' "$gcdir/BENCH_gc.json")
gcoverhead=$(sed -n 's/.*"overhead_offered_load_percent": \([0-9.eE+-]*\).*/\1/p' \
    "$gcdir/BENCH_gc.json")
if [ -z "$amp" ] || [ -z "$gcoverhead" ]; then
    echo "gc gate: report missing space_amp or overhead_offered_load_percent" >&2
    exit 1
fi
awk -v a="$amp" 'BEGIN { if (a + 0 > 2) {
    print "gc gate: space amplification " a "x exceeds the 2x budget" > "/dev/stderr"; exit 1 } }'
awk -v o="$gcoverhead" 'BEGIN { if (o + 0 > 10) {
    print "gc gate: offered-load cost " o "% exceeds the 10% budget" > "/dev/stderr"; exit 1 } }'
echo "   space amplification: ${amp}x, offered-load cost: ${gcoverhead}%"
rm -rf "$gcdir"

# lag-smoke runs the replication-plane health experiment (DESIGN.md §13)
# and gates on zero lost acks / wrong reads / evictions under an
# injected 50ms-delayed backup, the lag and staleness gauges rising then
# draining back to ~0, and <= 5% lag-tracker overhead at offered load.
echo "== lag smoke"
make lag-smoke

echo "OK"
