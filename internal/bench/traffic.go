package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/metrics"
	"tebis/internal/ycsb"
)

// This file is the adversarial traffic layer (DESIGN.md
// "Observability"): per-tenant generators that shape offered load over
// time — steady uniform, zipfian hot-key skew, a diurnal ramp, and flash
// bursts — paced by token-bucket rate limits and issued through
// per-tenant clients, so the stage telemetry and admission control can
// be exercised and measured under exactly the traffic that makes tails
// interesting.

// Pattern shapes one tenant's keys and rate over time.
type Pattern int

const (
	// PatternUniform issues uniformly distributed keys at a steady rate.
	PatternUniform Pattern = iota
	// PatternZipfian concentrates traffic on hot keys (scrambled
	// zipfian, tunable theta) at a steady rate.
	PatternZipfian
	// PatternRamp sweeps the rate sinusoidally between 25% and 100% of
	// RateOps over the run — a diurnal cycle compressed into the run
	// window.
	PatternRamp
	// PatternFlashBurst issues at RateOps until BurstStart, then at
	// BurstX times that (with BurstConcurrency extra issuers) for
	// BurstDur, then returns to baseline.
	PatternFlashBurst
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternZipfian:
		return "zipfian"
	case PatternRamp:
		return "ramp"
	case PatternFlashBurst:
		return "flash-burst"
	default:
		return "uniform"
	}
}

// TenantSpec describes one tenant's traffic stream.
type TenantSpec struct {
	// ID is the wire tenant byte; it labels the tenant's stage series
	// and admission counters as "t<ID>".
	ID uint8
	// Priority is the admission class (0 = lowest, shed first).
	Priority uint8
	// Pattern shapes keys and rate.
	Pattern Pattern
	// RateOps is the steady offered rate in ops/s across all of the
	// tenant's issuers (0 = unpaced, issue as fast as possible).
	RateOps float64
	// Theta is the zipfian skew for PatternZipfian (0 = YCSB default).
	Theta float64
	// Keys is each issuer's key-space size (default 4096). Issuers get
	// disjoint key ranges so every key has exactly one writer and
	// read-back verification is race-free.
	Keys uint64
	// ValueSize is the put value size in bytes (default 128).
	ValueSize int
	// Concurrency is the number of parallel issuers (default 1).
	Concurrency int
	// BurstX, BurstStart, BurstDur shape the PatternFlashBurst window:
	// offered rate multiplies by BurstX (default 8) between BurstStart
	// and BurstStart+BurstDur. BurstX < 0 issues unpaced during the
	// burst (a saturating flash crowd); BurstX == 1 leaves the rate
	// untouched and just marks the window, so a steady victim tenant
	// can split its latency into pre-burst and under-burst histograms.
	BurstX     float64
	BurstStart time.Duration
	BurstDur   time.Duration
	// BurstConcurrency is how many extra issuers the burst adds
	// (default 3x Concurrency) — a flash crowd is new arrivals, not
	// just faster ones.
	BurstConcurrency int
}

func (t *TenantSpec) applyDefaults() {
	if t.Keys == 0 {
		t.Keys = 4096
	}
	if t.ValueSize == 0 {
		t.ValueSize = 128
	}
	if t.Concurrency == 0 {
		t.Concurrency = 1
	}
	if t.Pattern == PatternFlashBurst {
		if t.BurstX == 0 {
			t.BurstX = 8
		}
		if t.BurstConcurrency == 0 && t.BurstX != 1 {
			t.BurstConcurrency = 3 * t.Concurrency
		}
	}
}

// Label returns the tenant's metric label ("t<ID>").
func (t TenantSpec) Label() string { return fmt.Sprintf("t%d", t.ID) }

// TenantStats is one tenant's outcome of a traffic run.
type TenantStats struct {
	Spec TenantSpec
	// Ops counts issued operations; Acked the puts the server
	// acknowledged; Rejected the puts that failed (overload-shed past
	// the client's retry budget).
	Ops, Acked, Rejected uint64
	// OverloadRetries counts FlagOverload backoff-and-retry rounds the
	// tenant's client absorbed.
	OverloadRetries uint64
	// LostAcks counts acked puts whose value did not read back — the
	// must-be-zero invariant admission control is not allowed to break.
	LostAcks uint64
	// Pre, Burst, and Post split put latency around the tenant's burst
	// window: before it, inside it, and the recovery after it. For
	// burst-less patterns everything lands in Pre, so Pre is always the
	// undisturbed baseline.
	Pre, Burst, Post *metrics.Histogram
}

// TrafficResult is one traffic run's outcome.
type TrafficResult struct {
	Tenants []TenantStats
	Elapsed time.Duration
}

// tenantRunner drives one tenant: issuer goroutines share the acked-map
// under a lock. Each issuer owns a disjoint key range (keyFor mixes the
// issuer index into the record number), so per key there is exactly one
// writer and last-ack-wins is well defined.
type tenantRunner struct {
	spec TenantSpec
	cl   *client.Client

	mu    sync.Mutex
	acked map[uint64][]byte // record number -> last acked value
	stats TenantStats
}

// keyFor maps an (issuer, record) pair to a cluster key. Tenants get
// disjoint record ranges (high bits), issuers within a tenant disjoint
// sub-ranges (middle bits), while ycsb.Key's hash prefix still spreads
// every key over all regions.
func (r *tenantRunner) keyFor(issuer int, rec uint64) []byte {
	return ycsb.Key(uint64(r.spec.ID)<<40 | uint64(issuer)<<24 | rec)
}

// rateAt returns the tenant's offered rate at offset t into the run.
func (r *tenantRunner) rateAt(t, dur time.Duration) float64 {
	rate := r.spec.RateOps
	switch r.spec.Pattern {
	case PatternRamp:
		// One "day": 25% of peak at the trough, 100% at the crest.
		phase := 2 * math.Pi * float64(t) / float64(dur)
		rate *= 0.625 - 0.375*math.Cos(phase)
	case PatternFlashBurst:
		if r.inBurst(t) {
			if r.spec.BurstX < 0 {
				return 0 // unpaced flash crowd
			}
			rate *= r.spec.BurstX
		}
	}
	return rate
}

func (r *tenantRunner) inBurst(t time.Duration) bool {
	return r.spec.Pattern == PatternFlashBurst &&
		t >= r.spec.BurstStart && t < r.spec.BurstStart+r.spec.BurstDur
}

// issuersActive returns how many issuer goroutines share the tenant's
// offered rate at offset t (the flash crowd joins only in the burst).
func (r *tenantRunner) issuersActive(t time.Duration) int {
	n := r.spec.Concurrency
	if r.inBurst(t) {
		n += r.spec.BurstConcurrency
	}
	return n
}

// issue runs one issuer goroutine: paced puts over the tenant's key
// space until the run window closes. burstOnly issuers (the flash
// crowd) only work inside the burst window.
func (r *tenantRunner) issue(start time.Time, dur time.Duration, issuer int, seed int64, burstOnly bool) {
	rng := rand.New(rand.NewSource(seed))
	var zipf *ycsb.ScrambledZipfian
	if r.spec.Pattern == PatternZipfian {
		zipf = ycsb.NewScrambledZipfianTheta(r.spec.Keys, r.spec.Theta)
	}
	value := make([]byte, r.spec.ValueSize)
	rng.Read(value)
	next := time.Now()
	for {
		off := time.Since(start)
		if off >= dur {
			return
		}
		if burstOnly && !r.inBurst(off) {
			if off < r.spec.BurstStart {
				time.Sleep(r.spec.BurstStart - off)
				next = time.Now()
				continue
			}
			return // burst window over
		}
		if rate := r.rateAt(off, dur); rate > 0 {
			// Deadline pacing: the tenant's offered rate is split evenly
			// across whoever is issuing right now, and each op's due time
			// advances by the interval rather than sleeping the interval
			// per op — sleep-quantum overshoot is repaid by issuing
			// immediately while behind, so achieved tracks offered. The
			// catch-up credit a long stall banks is capped so recovery is
			// a trickle, not a machine-gun burst.
			next = next.Add(time.Duration(float64(time.Second) * float64(r.issuersActive(off)) / rate))
			if now := time.Now(); next.Before(now.Add(-50 * time.Millisecond)) {
				next = now
			} else if next.After(now) {
				time.Sleep(next.Sub(now))
			}
		}
		var rec uint64
		if zipf != nil {
			rec = zipf.Next(rng)
		} else {
			rec = rng.Uint64() % r.spec.Keys
		}
		// Stamp a nonce into the value so read-back verifies the exact
		// write that was acked last.
		v := append(append([]byte(nil), value...), fmt.Sprintf("#%d", rng.Uint64())...)
		hist := r.stats.Pre
		if r.spec.Pattern == PatternFlashBurst {
			switch {
			case r.inBurst(off):
				hist = r.stats.Burst
			case off >= r.spec.BurstStart+r.spec.BurstDur:
				hist = r.stats.Post
			}
		}
		opStart := time.Now()
		err := r.cl.Put(r.keyFor(issuer, rec), v)
		lat := time.Since(opStart)
		r.mu.Lock()
		r.stats.Ops++
		if err != nil {
			r.stats.Rejected++
		} else {
			r.stats.Acked++
			r.acked[uint64(issuer)<<24|rec] = v
			hist.Record(lat)
		}
		r.mu.Unlock()
	}
}

// verify reads every acked key back and counts mismatches: an acked
// write that does not read back was lost — the invariant a shedding
// server must never break (sheds reject before apply, so only unacked
// work is refused).
func (r *tenantRunner) verify() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for rec, want := range r.acked {
		got, found, err := r.cl.Get(r.keyFor(int(rec>>24), rec&(1<<24-1)))
		if err != nil || !found || string(got) != string(want) {
			r.stats.LostAcks++
		}
	}
}

// RunTraffic drives the tenant streams against the cluster for dur,
// then read-verifies every acked write. Each tenant gets its own client
// carrying its tenant ID and priority.
func RunTraffic(c *cluster.Cluster, specs []TenantSpec, dur time.Duration, seed int64) (*TrafficResult, error) {
	runners := make([]*tenantRunner, len(specs))
	for i, spec := range specs {
		spec.applyDefaults()
		cl, err := c.NewTenantClient(spec.ID, spec.Priority)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		runners[i] = &tenantRunner{
			spec:  spec,
			cl:    cl,
			acked: make(map[uint64][]byte),
			stats: TenantStats{
				Spec:  spec,
				Pre:   metrics.NewHistogram(),
				Burst: metrics.NewHistogram(),
				Post:  metrics.NewHistogram(),
			},
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, r := range runners {
		for j := 0; j < r.spec.Concurrency; j++ {
			wg.Add(1)
			go func(r *tenantRunner, j int) {
				defer wg.Done()
				r.issue(start, dur, j, seed+int64(1000*i+j), false)
			}(r, j)
		}
		// The flash crowd: extra issuers that only live inside the
		// burst window; their issuer indices (and so key ranges)
		// follow the steady issuers'.
		for j := 0; j < r.spec.BurstConcurrency; j++ {
			wg.Add(1)
			go func(r *tenantRunner, j int) {
				defer wg.Done()
				r.issue(start, dur, r.spec.Concurrency+j, seed+int64(1000*i+500+j), true)
			}(r, j)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &TrafficResult{Elapsed: elapsed}
	for _, r := range runners {
		r.verify()
		r.stats.OverloadRetries = r.cl.OverloadRetries()
		res.Tenants = append(res.Tenants, r.stats)
	}
	return res, nil
}
