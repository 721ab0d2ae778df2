package metrics

import (
	"sync"
	"time"
)

// FailureStats counts replication-failure events on one node: RPC
// retries, backup evictions, resync traffic, and how long the node's
// primaries ran below the configured replication factor (§3.5 failure
// handling). All methods are nil-safe so callers can leave the stats
// unwired.
type FailureStats struct {
	mu            sync.Mutex
	retries       uint64
	evictions     uint64
	resyncBytes   uint64
	degradedDepth int // current replication deficit across regions
	degradedSince time.Time
	degradedTotal time.Duration
}

// FailureSnapshot is a point-in-time copy of FailureStats.
type FailureSnapshot struct {
	// Retries counts control-RPC (and write-completion) retry attempts.
	Retries uint64
	// Evictions counts backups declared dead and detached.
	Evictions uint64
	// ResyncBytes counts bytes shipped by Sync to replacement backups.
	ResyncBytes uint64
	// Degraded reports whether any region currently runs below its
	// replication factor.
	Degraded bool
	// DegradedDuration is the total time spent degraded, including the
	// currently open window.
	DegradedDuration time.Duration
}

// RecordRetry counts one retry attempt.
func (s *FailureStats) RecordRetry() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
}

// RecordEviction counts one backup eviction.
func (s *FailureStats) RecordEviction() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.evictions++
	s.mu.Unlock()
}

// AddResyncBytes counts n bytes of state transfer to a replacement.
func (s *FailureStats) AddResyncBytes(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.resyncBytes += uint64(n)
	s.mu.Unlock()
}

// EnterDegraded opens (or deepens) a degraded window: one more replica
// slot is unfilled. The degraded clock runs while the depth is nonzero.
func (s *FailureStats) EnterDegraded() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.degradedDepth == 0 {
		s.degradedSince = time.Now()
	}
	s.degradedDepth++
	s.mu.Unlock()
}

// ExitDegraded records one replica slot refilled; the window closes
// when the depth returns to zero. Calls without a matching
// EnterDegraded are ignored.
func (s *FailureStats) ExitDegraded() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.degradedDepth > 0 {
		s.degradedDepth--
		if s.degradedDepth == 0 {
			s.degradedTotal += time.Since(s.degradedSince)
		}
	}
	s.mu.Unlock()
}

// Snapshot copies the counters.
func (s *FailureStats) Snapshot() FailureSnapshot {
	if s == nil {
		return FailureSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := FailureSnapshot{
		Retries:          s.retries,
		Evictions:        s.evictions,
		ResyncBytes:      s.resyncBytes,
		Degraded:         s.degradedDepth > 0,
		DegradedDuration: s.degradedTotal,
	}
	if s.degradedDepth > 0 {
		snap.DegradedDuration += time.Since(s.degradedSince)
	}
	return snap
}

// Collect implements Source.
func (s *FailureStats) Collect() []Family {
	if s == nil {
		return nil
	}
	sn := s.Snapshot()
	degraded := 0.0
	if sn.Degraded {
		degraded = 1
	}
	return []Family{
		Counter("tebis_replication_retries_total",
			"Replication RPC retries after transient failures.", Value(float64(sn.Retries))),
		Counter("tebis_backup_evictions_total",
			"Backups evicted from a replica group after exhausting retries.", Value(float64(sn.Evictions))),
		Counter("tebis_resync_bytes_total",
			"Bytes transferred to resynchronize rejoining backups.", Value(float64(sn.ResyncBytes))),
		Gauge("tebis_degraded",
			"1 while the replica group runs below its replication factor.", Value(degraded)),
		Counter("tebis_degraded_seconds_total",
			"Cumulative time spent degraded.", Value(sn.DegradedDuration.Seconds())),
	}
}
