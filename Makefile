GO ?= go

.PHONY: all build test race check stress fmt vet bench figures obs-smoke tail-smoke lag-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the tier-1 gate: formatting, vet, build, and the full test
# suite under the race detector. CI and pre-merge runs use this target.
check:
	sh scripts/check.sh

# stress re-runs the failure-prone suites — replication retry/eviction
# and the client ring/freeList property tests — repeatedly under the
# race detector, to shake out interleavings a single run can miss.
stress:
	$(GO) test -race -count=5 ./internal/replica ./internal/client

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

bench:
	$(GO) run ./cmd/tebis-bench -quick

# figures replays YCSB Load A / Run A / Run C through a replicated
# Send-Index cluster with the metrics sampler on and writes
# BENCH_figures.json + BENCH_fig{6,7,8,10}_*.csv time series.
figures:
	$(GO) run ./cmd/tebis-bench -experiment figures

# obs-smoke boots tebis-server with -metrics and -replica, drives load,
# and asserts /metrics, /debug/trace, and /debug/vars all serve the
# observability surface end to end.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# tail-smoke runs the two-tenant flash-burst tail experiment at quick
# scale and gates on the ISSUE acceptance bars: zero lost acks,
# observability overhead <= 5% of offered load, adaptive-admission
# burst p99 <= 3x the pre-burst baseline, resolvable stage exemplars,
# and a BENCH_fig11_tail.csv covering >= 3 scenarios and both tenants.
tail-smoke:
	sh scripts/tailsmoke.sh

# lag-smoke runs the replication-plane health experiment at quick scale
# and gates on the ISSUE acceptance bars: under an injected 50ms-delayed
# backup the lag/staleness gauges rise then drain back to ~0, with zero
# lost acks, zero wrong reads, zero evictions, and the lag tracker
# costing <= 5% of offered-load throughput.
lag-smoke:
	sh scripts/lagsmoke.sh

clean:
	$(GO) clean ./...
