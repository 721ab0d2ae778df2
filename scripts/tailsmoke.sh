#!/bin/sh
# tailsmoke.sh — the tail-latency gate, run by `make tail-smoke` and
# scripts/check.sh. It runs the two-tenant flash-burst tail experiment
# at quick scale and asserts the ISSUE's acceptance bars:
#
#   1. zero acked-but-lost writes (hard invariant — shedding may refuse
#      work, never lose acknowledged work; no retry, a single loss fails)
#   2. observability overhead <= 5% of paced offered-load throughput
#   3. with adaptive admission on, the victim tenant's under-burst put
#      p99 stays within 3x its pre-burst baseline
#   4. at least one stage exemplar resolved back to a full trace via the
#      tracer (the "find the p99 offender" loop is closed end to end)
#   5. BENCH_fig11_tail.csv carries per-stage rows for >= 3 scenarios
#      and both tenants
#
# The latency and overhead gates (2, 3) are timing-sensitive on a
# loaded CI host, so a failing run is retried once; the lost-acks
# invariant (1) is never retried.
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
    "$tmp/tebis-bench" -experiment tail -quick -out-dir "$tmp" >/dev/null

    json="$tmp/BENCH_tail.json"
    csv="$tmp/BENCH_fig11_tail.csv"
    for f in "$json" "$csv"; do
        if [ ! -s "$f" ]; then
            echo "tail smoke: missing $f" >&2
            exit 1
        fi
    done

    lost=$(field total_lost_acks "$json")
    overhead=$(field overhead_percent "$json")
    pre=$(field pre_burst_p99_us "$json")
    adaptive=$(field adaptive_burst_p99_us "$json")
    fixed=$(field fixed_burst_p99_us "$json")
    exemplars=$(field exemplars_resolved "$json")
    if [ -z "$lost" ] || [ -z "$overhead" ] || [ -z "$pre" ] || \
       [ -z "$adaptive" ] || [ -z "$exemplars" ]; then
        echo "tail smoke: gate fields missing from $json" >&2
        exit 1
    fi

    # Gate 1 — never retried: an acked write that did not read back is
    # a correctness bug, not scheduler noise.
    if [ "$lost" -ne 0 ]; then
        echo "tail smoke: $lost acked writes lost (must be 0)" >&2
        exit 1
    fi

    # Gates 2 + 3 — retried once (timing-sensitive under CI load).
    if awk -v o="$overhead" -v p="$pre" -v a="$adaptive" 'BEGIN {
            bad = 0
            if (o + 0 > 5) {
                print "tail smoke: observability overhead " o "% exceeds the 5% budget" > "/dev/stderr"
                bad = 1
            }
            if (a + 0 > 3 * (p + 0)) {
                print "tail smoke: adaptive burst p99 " a "us exceeds 3x pre-burst " p "us" > "/dev/stderr"
                bad = 1
            }
            exit bad
        }'; then
        break
    fi
    if [ "$attempt" -ge 2 ]; then
        echo "tail smoke: latency gates failed twice" >&2
        exit 1
    fi
    echo "tail smoke: latency gate missed, retrying once..." >&2
    attempt=$((attempt + 1))
done

# Gate 4: exemplars must resolve to full traces.
if [ "$exemplars" -lt 1 ]; then
    echo "tail smoke: no stage exemplar resolved to a trace" >&2
    exit 1
fi

# Gate 5: the figure CSV covers the scenario grid and both tenants.
for s in uniform zipfian flash-burst-adaptive; do
    if ! grep -q "^$s," "$csv"; then
        echo "tail smoke: scenario $s missing from $(basename "$csv")" >&2
        exit 1
    fi
done
for ten in t1 t2; do
    if ! grep -q ",$ten," "$csv"; then
        echo "tail smoke: tenant $ten missing from $(basename "$csv")" >&2
        exit 1
    fi
done

echo "   lost acks: $lost  overhead: ${overhead}%  pre-burst p99: ${pre}us"
echo "   burst p99: adaptive ${adaptive}us vs fixed ${fixed}us (bound: 3x pre)"
echo "   exemplars resolved: $exemplars"
echo "tail-smoke: OK"
