GO ?= go

# The experiments whose gates scripts/check.sh enforces (EXPERIMENTS.md,
# "Gates", has the table).
GATED = figures,observability,integrity,tail,gc

.PHONY: all build test race check stress fuzz-smoke fmt vet bench figures gates obs-smoke tail-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the tier-1 gate: formatting, vet, build, the full test suite
# under the race detector (and the request path's suites again on one P),
# the fuzz smoke, the observability smoke and
# the experiment gates. CI and pre-merge runs use this target.
check:
	sh scripts/check.sh

# stress re-runs the failure-prone suites — replication retry/eviction
# and the segment map's lock-free hits, the one compactor's job order and
# writer stalls, a job's ships from inside its build on its one
# goroutine and its failures mid-job, the builder's fill of the node
# cache beside lock-free lookups, the client ring/freeList property tests,
# the master's failover suites, the
# lock-free segment reads of the device and the value log, and the
# request path's lock-free polls, rkey table, spinner fast path,
# one-spinner-per-P rule and unsignaled request and reply writes —
# repeatedly under the race detector, to shake out interleavings a single
# run can miss.
stress:
	$(GO) test -race -count=5 ./internal/lsm ./internal/replica ./internal/btree ./internal/client ./internal/master ./internal/storage ./internal/vlog ./internal/rdma ./internal/server

# fuzz-smoke mutates each native fuzz target's seed corpus for five
# seconds (`go test -fuzz` takes one target per run, so each gets a
# line). New-coverage inputs are not minimised: that alone can eat the
# whole budget. A crasher lands in the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/btree -run '^$$' -fuzz '^FuzzIndexNode$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/btree -run '^$$' -fuzz '^FuzzPackLeaf$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/btree -run '^$$' -fuzz '^FuzzRewriteSegment$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/btree -run '^$$' -fuzz '^FuzzLevelFilter$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/shipcodec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/vlog -run '^$$' -fuzz '^FuzzRecord$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/vlog -run '^$$' -fuzz '^FuzzWalk$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzScanLimit$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/memtable -run '^$$' -fuzz '^FuzzOrder$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/integrity -run '^$$' -fuzz '^FuzzDecodeTrailer$$' -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/region -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s -fuzzminimizetime 0

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

bench:
	$(GO) run ./cmd/tebis-bench -quick

figures:
	$(GO) run ./cmd/tebis-bench -experiment figures

gates:
	mkdir -p .bench_build/gates
	$(GO) run ./cmd/tebis-bench -quick -out-dir .bench_build/gates -experiment $(GATED)

tail-smoke:
	$(GO) run ./cmd/tebis-bench -quick -out-dir "" -experiment tail

# obs-smoke boots tebis-server with -metrics and -replica, drives load,
# and asserts /metrics, /debug/trace, and /debug/vars all serve the
# observability surface end to end.
obs-smoke:
	$(GO) run ./scripts/obssmoke

clean:
	$(GO) clean ./...
