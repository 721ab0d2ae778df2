package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestStageSetNilSafe(t *testing.T) {
	var s *StageSet
	s.Record(StageApply, "a", 1, time.Millisecond)
	if got := s.Snapshot(); got != nil {
		t.Fatalf("nil StageSet Snapshot = %v, want nil", got)
	}
	if got := s.Percentile(StageApply, "a", 99); got != 0 {
		t.Fatalf("nil StageSet Percentile = %v, want 0", got)
	}
	s.Reset()
}

func TestStageSetRecordSnapshot(t *testing.T) {
	s := NewStageSet()
	for i := 0; i < 100; i++ {
		s.Record(StageApply, "tenant-a", uint64(i+1), 100*time.Microsecond)
	}
	s.Record(StageApply, "tenant-a", 777, 50*time.Millisecond) // tail outlier
	s.Record(StageDispatch, "tenant-b", 42, 2*time.Millisecond)

	snaps := s.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	// Pipeline order: dispatch before apply.
	if snaps[0].Stage != StageDispatch || snaps[1].Stage != StageApply {
		t.Fatalf("stage order = %s,%s want dispatch,apply", snaps[0].Stage, snaps[1].Stage)
	}
	apply := snaps[1]
	if apply.Tenant != "tenant-a" || apply.Count != 101 {
		t.Fatalf("apply snapshot = %+v", apply)
	}
	if len(apply.Percentiles) != len(Quantiles) {
		t.Fatalf("got %d percentiles, want %d", len(apply.Percentiles), len(Quantiles))
	}
	if p50 := apply.Percentiles[0]; p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ~100µs", p50)
	}

	// The outlier must be retained as the worst-offender exemplar in
	// the 10ms..100ms bucket, resolvable by trace ID.
	var found bool
	for _, ex := range apply.Exemplars {
		if ex.TraceID == 777 {
			found = true
			if ex.Le != 100*time.Millisecond {
				t.Fatalf("outlier exemplar Le = %v, want 100ms", ex.Le)
			}
			if ex.Tenant != "tenant-a" {
				t.Fatalf("outlier exemplar tenant = %q", ex.Tenant)
			}
		}
	}
	if !found {
		t.Fatalf("outlier trace 777 not retained in exemplars: %+v", apply.Exemplars)
	}
}

func TestStageSetExemplarRecency(t *testing.T) {
	s := NewStageSet()
	s.Record(StageShip, "", 1, 20*time.Millisecond)
	s.Record(StageShip, "", 2, 30*time.Millisecond)
	snaps := s.Snapshot()
	if len(snaps) != 1 || len(snaps[0].Exemplars) != 1 {
		t.Fatalf("snapshot = %+v", snaps)
	}
	// Same coarse bucket: the most recent sample wins.
	if snaps[0].Exemplars[0].TraceID != 2 {
		t.Fatalf("exemplar trace = %d, want 2 (most recent)", snaps[0].Exemplars[0].TraceID)
	}
}

func TestStageSetPercentileAndReset(t *testing.T) {
	s := NewStageSet()
	for i := 0; i < 1000; i++ {
		s.Record(StageAck, "t", 0, time.Duration(i+1)*time.Microsecond)
	}
	p99 := s.Percentile(StageAck, "t", 99)
	if p99 < 900*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
	s.Reset()
	if got := s.Snapshot(); len(got) != 0 {
		t.Fatalf("after Reset Snapshot = %+v, want empty", got)
	}
}

func TestStageSetConcurrent(t *testing.T) {
	s := NewStageSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "t0"
			if g%2 == 1 {
				tenant = "t1"
			}
			for i := 0; i < 500; i++ {
				s.Record(StageOrder[i%len(StageOrder)], tenant,
					uint64(g*1000+i+1), time.Duration(i+1)*time.Microsecond)
				if i%100 == 0 {
					s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, snap := range s.Snapshot() {
		total += snap.Count
	}
	if total != 8*500 {
		t.Fatalf("total samples = %d, want 4000", total)
	}
}
