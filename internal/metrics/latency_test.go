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

// TestLagStreamNilSafe: a server without a lag set hands its primaries
// nil streams, and every record on one is a no-op.
func TestLagStreamNilSafe(t *testing.T) {
	var s *LagSet
	r := s.Stream(1, "b")
	r.RecordShip(10, time.Now())
	r.RecordAck(10, time.Now(), time.Millisecond)
	r.BacklogAdd()
	r.BacklogDone()
	s.Evict(1, "b")
	if ops, bytes := s.Lag(1, "b"); ops != 0 || bytes != 0 || s.Staleness(1, "b") != 0 || s.Snapshot() != nil {
		t.Fatal("a nil lag set reported a stream")
	}
}

// TestLagStreamIsTheSetsRecord: a stream is the set's record of its
// (region, backup), so records on a held stream show in the set's
// answers; a shipped unit counts as lag until its ack, and an evicted
// stream stops rendering while its holder may still record.
func TestLagStreamIsTheSetsRecord(t *testing.T) {
	s := NewLagSet()
	r := s.Stream(7, "s1")
	if s.Stream(7, "s1") != r {
		t.Fatal("a second Stream of the same backup made a second record")
	}
	shipped := time.Now().Add(-time.Second)
	r.RecordShip(100, shipped)
	if ops, bytes := s.Lag(7, "s1"); ops != 1 || bytes != 100 {
		t.Fatalf("lag after a ship = %d ops, %d bytes", ops, bytes)
	}
	if st := s.Staleness(7, "s1"); st < time.Second {
		t.Fatalf("staleness of a never-acked ship = %v, want ≥ 1s since it", st)
	}
	r.RecordAck(100, time.Now(), 3*time.Millisecond)
	r.BacklogAdd()
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].LagOps != 0 || snap[0].Staleness != 0 || snap[0].Backlog != 1 || snap[0].AckCount != 1 {
		t.Fatalf("snapshot after the ack = %+v", snap)
	}
	s.Evict(7, "s1")
	r.RecordShip(1, time.Now())
	if len(s.Snapshot()) != 0 {
		t.Fatal("an evicted stream still renders")
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
