package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestBucketForIsTheLogFormula: the boundary table puts every duration in
// the bucket the logarithm does — every nanosecond from 100 ns to 20 µs,
// each boundary and its neighbours, and a million seeded durations up to
// 200 s.
func TestBucketForIsTheLogFormula(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketFor(d), logBucket(d); got != want {
			t.Fatalf("bucketFor(%d ns) = %d, the formula says %d", d, got, want)
		}
	}
	for d := 100 * time.Nanosecond; d <= 20*time.Microsecond; d++ {
		check(d)
	}
	for _, b := range bucketBounds[1:] {
		check(b - 1)
		check(b)
		check(b + 1)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1_000_000; i++ {
		check(time.Duration(rng.Int63n(int64(200 * time.Second))))
	}
	for _, d := range []time.Duration{-1, 0, 1 << 62} {
		check(d)
	}
}

// BenchmarkHistogramRecord is one latency sample, as a worker records
// two per request.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(1000 + i%50_000))
	}
}
