package metrics

import "sync"

// ScrubStats counts integrity-scrub and repair activity on one node:
// segments walked, checksum failures found, segments repaired from a
// replica, and segments nothing could repair (DESIGN.md "Storage
// integrity"). All methods are nil-safe so callers can leave the stats
// unwired.
type ScrubStats struct {
	mu           sync.Mutex
	runs         uint64
	scanned      uint64
	corruptions  uint64
	repaired     uint64
	unrepairable uint64
}

// ScrubSnapshot is a point-in-time copy of ScrubStats.
type ScrubSnapshot struct {
	// Runs counts completed scrub passes.
	Runs uint64
	// SegmentsScanned counts segments checksum-verified across runs.
	SegmentsScanned uint64
	// CorruptionsFound counts segments that failed verification.
	CorruptionsFound uint64
	// SegmentsRepaired counts corrupt segments restored (from a replica
	// or a local reframe).
	SegmentsRepaired uint64
	// Unrepairable counts corrupt segments no copy could restore.
	Unrepairable uint64
}

// RecordRun counts one completed scrub pass.
func (s *ScrubStats) RecordRun() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
}

// AddScanned counts n segments verified.
func (s *ScrubStats) AddScanned(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.scanned += uint64(n)
	s.mu.Unlock()
}

// RecordCorruption counts one segment that failed verification.
func (s *ScrubStats) RecordCorruption() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.corruptions++
	s.mu.Unlock()
}

// RecordRepair counts one corrupt segment restored.
func (s *ScrubStats) RecordRepair() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.repaired++
	s.mu.Unlock()
}

// RecordUnrepairable counts one corrupt segment left unrestored.
func (s *ScrubStats) RecordUnrepairable() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.unrepairable++
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters. Nil-safe.
func (s *ScrubStats) Snapshot() ScrubSnapshot {
	if s == nil {
		return ScrubSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ScrubSnapshot{
		Runs:             s.runs,
		SegmentsScanned:  s.scanned,
		CorruptionsFound: s.corruptions,
		SegmentsRepaired: s.repaired,
		Unrepairable:     s.unrepairable,
	}
}
