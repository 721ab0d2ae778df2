package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Every metrics type must tolerate a nil receiver so standalone
// replicas, tests, and optional wiring need no setup. FailureStats has
// its own nil test in failure_test.go; these cover the rest.

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Millisecond)
	h.Merge(nil)
	h.Merge(NewHistogram())
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("nil histogram reported samples")
	}
	if h.Percentile(99) != 0 {
		t.Fatal("nil histogram reported a percentile")
	}
	// Merging a nil source into a live histogram is also a no-op.
	live := NewHistogram()
	live.Record(time.Millisecond)
	live.Merge(nil)
	if live.Count() != 1 {
		t.Fatalf("Merge(nil) changed count to %d", live.Count())
	}
}

func TestCyclesNilSafe(t *testing.T) {
	var cy *Cycles
	cy.Charge(CompCompaction, 100)
	cy.Reset()
	if cy.Snapshot() != (Breakdown{}) {
		t.Fatal("nil Cycles reported charges")
	}
}

func TestCompactionStatsNilSafe(t *testing.T) {
	var s *CompactionStats
	s.RecordJob(true)
	s.RecordMerge(time.Millisecond)
	s.RecordBuild(time.Millisecond)
	s.RecordShip(time.Millisecond, true)
	s.StallBegin()
	s.StallEnd(time.Millisecond)
	if s.Snapshot() != (CompactionSnapshot{}) {
		t.Fatal("nil CompactionStats reported activity")
	}
}

func TestLookupStatsNilSafe(t *testing.T) {
	var s *LookupStats
	s.Record(2, 1, 1)
	if s.Snapshot() != (LookupSnapshot{}) {
		t.Fatal("nil LookupStats reported lookups")
	}
}

// exactPercentile computes the true percentile from a sorted sample set
// using the same ceil-rank convention the histogram implements.
func exactPercentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(float64(len(sorted))*p/100 + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramPercentileAccuracy validates the ~5%-resolution claim in
// latency.go: on synthetic distributions the bucketed percentile must
// land within 6% of the exact order-statistic (half a 1.05-growth
// bucket is ~2.5%; 6% leaves headroom for rank straddling a bucket).
func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() time.Duration{
		// Uniform microseconds: 1µs .. 1ms.
		"uniform": func() time.Duration {
			return time.Duration(1000 + rng.Intn(999_000))
		},
		// Heavy-tailed: lognormal-ish around ~10µs with occasional
		// multi-millisecond outliers, like a stalled Put.
		"heavytail": func() time.Duration {
			d := time.Duration(10_000 * (1 + rng.ExpFloat64()*5))
			if rng.Intn(100) == 0 {
				d *= 100
			}
			return d
		},
		// Bimodal: fast in-memory hits vs device reads.
		"bimodal": func() time.Duration {
			if rng.Intn(2) == 0 {
				return time.Duration(2_000 + rng.Intn(1_000))
			}
			return time.Duration(80_000 + rng.Intn(40_000))
		},
	}
	for name, gen := range distributions {
		h := NewHistogram()
		samples := make([]time.Duration, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			d := gen()
			samples = append(samples, d)
			h.Record(d)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, p := range []float64{50, 70, 90, 99, 99.9, 100} {
			exact := exactPercentile(samples, p)
			got := h.Percentile(p)
			relErr := (float64(got) - float64(exact)) / float64(exact)
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > 0.06 {
				t.Errorf("%s p%.1f: histogram %v vs exact %v (rel err %.1f%%)",
					name, p, got, exact, 100*relErr)
			}
		}
		// The top percentile never exceeds the observed maximum.
		if h.Percentile(100) > samples[len(samples)-1] {
			t.Errorf("%s p100 = %v exceeds max %v", name, h.Percentile(100), samples[len(samples)-1])
		}
	}
}
