#!/bin/sh
# lagsmoke.sh — the replication-plane health gate, run by
# `make lag-smoke` and scripts/check.sh. It runs the lag experiment at
# quick scale (a 50ms-delayed backup injected via RDMA fault hooks) and
# asserts the ISSUE's acceptance bars:
#
#   1. zero lost acks and zero wrong reads (hard invariant — a slow
#      backup must never cost acknowledged writes; no retry)
#   2. zero evictions: a 50ms stall sits far below AckTimeout, so the
#      primary must absorb it as lag, never declare the backup dead
#   3. the lag/staleness gauges rise under the delay (the surface sees
#      the slow backup) and drain back to ~0 once the delay clears
#   4. the lag tracker costs <= 5% of paced offered-load throughput
#   5. BENCH_fig13_lag.csv carries all three workload phases
#
# The overhead gate (4) is timing-sensitive on a loaded CI host, so a
# failing run is retried once; the correctness gates are never retried.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tebis-bench" ./cmd/tebis-bench

field() { # field KEY FILE -> numeric value of "KEY": N
    sed -n 's/.*"'"$1"'": \([0-9.eE+-]*\).*/\1/p' "$2" | head -1
}

attempt=1
while :; do
    "$tmp/tebis-bench" -experiment lag -quick -out-dir "$tmp" >/dev/null

    json="$tmp/BENCH_lag.json"
    csv="$tmp/BENCH_fig13_lag.csv"
    for f in "$json" "$csv"; do
        if [ ! -s "$f" ]; then
            echo "lag smoke: missing $f" >&2
            exit 1
        fi
    done

    lost=$(field lost_acks "$json")
    wrong=$(field wrong_reads "$json")
    evicted=$(field evictions "$json")
    maxstale=$(field max_staleness_ms "$json")
    finallag=$(field final_lag_ops "$json")
    finalstale=$(field final_staleness_ms "$json")
    overhead=$(field overhead_offered_load_percent "$json")
    if [ -z "$lost" ] || [ -z "$wrong" ] || [ -z "$evicted" ] || \
       [ -z "$maxstale" ] || [ -z "$finallag" ] || [ -z "$finalstale" ] || \
       [ -z "$overhead" ]; then
        echo "lag smoke: gate fields missing from $json" >&2
        exit 1
    fi

    # Gates 1 + 2 — never retried: losing an acked write, serving a
    # wrong read, or evicting a merely-slow backup is a bug, not noise.
    if [ "$lost" -ne 0 ] || [ "$wrong" -ne 0 ]; then
        echo "lag smoke: $lost lost acks, $wrong wrong reads (must be 0)" >&2
        exit 1
    fi
    if [ "$evicted" -ne 0 ]; then
        echo "lag smoke: $evicted evictions under a 50ms delay (must be 0)" >&2
        exit 1
    fi

    # Gate 3: the surface must see the slow backup and fully recover.
    awk -v m="$maxstale" -v fl="$finallag" -v fs="$finalstale" 'BEGIN {
        if (m + 0 < 25) {
            print "lag smoke: peak staleness " m "ms never rose under the 50ms delay" > "/dev/stderr"
            exit 1
        }
        if (fl + 0 != 0 || fs + 0 > 1) {
            print "lag smoke: lag did not drain (final " fl " ops, " fs "ms stale)" > "/dev/stderr"
            exit 1
        }
    }'

    # Gate 4 — retried once (timing-sensitive under CI load).
    if awk -v o="$overhead" 'BEGIN {
            if (o + 0 > 5) {
                print "lag smoke: tracker overhead " o "% exceeds the 5% budget" > "/dev/stderr"
                exit 1
            }
        }'; then
        break
    fi
    if [ "$attempt" -ge 2 ]; then
        echo "lag smoke: overhead gate failed twice" >&2
        exit 1
    fi
    echo "lag smoke: overhead gate missed, retrying once..." >&2
    attempt=$((attempt + 1))
done

# Gate 5: the figure CSV covers all three phases of the run.
for phase in baseline delayed drain; do
    if ! grep -q ",$phase," "$csv"; then
        echo "lag smoke: phase $phase missing from $(basename "$csv")" >&2
        exit 1
    fi
done

echo "   lost acks: $lost  wrong reads: $wrong  evictions: $evicted"
echo "   peak staleness: ${maxstale}ms  final lag: ${finallag} ops / ${finalstale}ms"
echo "   tracker overhead: ${overhead}%"
echo "lag-smoke: OK"
